"""Golden machine reports: the sha256 of a few machine reports, pinned.

Acceptance criterion 10 asks for byte-identical machine reports; the
determinism test compares two runs of the same code, while these digests
compare against the reports recorded before the sparse modular Smith
kernel replaced the dense one.  A change that legitimately alters a
report (a different solution basis, say) updates the digest here and
says why in CHANGES.md.
"""

import hashlib

import pytest

from finhom import Integers, IntegersModN
from finhom.checks import check_model_axioms, check_monoidal
from finhom.cli import run_command
from finhom.model import FLAT_STRUCTURE, PROJECTIVE_STRUCTURE, model_structure

# modules over Z/12, so the queries go through both CRT parts of the
# modular Smith form; Ext and Tor are nonzero in every degree shown
WORKSPACE = """\
ring R12 Zmod 12
module M over R12 gens 2 rels [[2, 4], [0, 6]]
module N over R12 gens 2 rels [[6, 3], [0, 9]]
"""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_model_check_projective_z4():
    spec = model_structure(PROJECTIVE_STRUCTURE, IntegersModN(4))
    report = check_model_axioms(spec, seed=3, samples=2)
    assert report.all_pass
    assert sha256(report.to_machine()) == \
        "807118d1e6719a2577a6fa33f9a43ea213d1687ab3bc22e2ff428134b5bbf6dc"


def test_golden_monoidal_flat_z():
    report = check_monoidal(model_structure(FLAT_STRUCTURE, Integers()), seed=1, samples=50)
    assert report.all_pass
    assert sha256(report.to_machine()) == \
        "a5758c1ecbde4704c4c99ddc4b2654defbb74a44f8ddf4b6f9e5396443ad7ccc"


@pytest.mark.parametrize("command, digest", [
    ("ext", "e5f34b9562680d672aedb324ea5797a1f8d060001207c50761894dc50e6a41e7"),
    ("tor", "80f73cc3d95056c7f4e4ec76ad8129a2cdd96916f4ed93510e15fc5ac24d6bf7"),
])
def test_golden_cli_query(command, digest, tmp_path, monkeypatch):
    # the report echoes the command line, so the workspace path is relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ws.cl").write_text(WORKSPACE, encoding="utf-8")
    code, report = run_command([command, "--workspace", "ws.cl", "--a", "M", "--b", "N",
                                "--max-degree", "3"])
    assert code == 0
    assert sha256(report.to_machine()) == digest
