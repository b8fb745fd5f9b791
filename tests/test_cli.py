import subprocess
import sys

import pytest

from finhom import FpModule, IntegersModN
from finhom.cli import main, run_command
from finhom.errors import ParseError, ValidationError
from finhom.report import Report
from finhom.workspace import parse_workspace, ring_from_name, serialize_workspace

WORKSPACE = """\
# a small workspace
ring R Z
ring R4 Zmod 4
module M over R gens 1 rels [[2]]
module N over R gens 1 rels [[6]]
module F over R gens 1 rels []
module F2 over R gens 2 rels []
map d : F -> F matrix [[2]]
map q : F -> M matrix [[1]]
complex X over R degrees 0..1 object 0 F object 1 F diff 1 d
complex S over R degrees 0..0 object 0 M
map zz : F -> M matrix [[1]]
chainmap f : X -> S comp 0 q
"""


def test_parse_and_roundtrip(tmp_path):
    ws = parse_workspace(WORKSPACE)
    assert set(ws.rings) == {"R", "R4"}
    assert ws.modules["M"].invariant_factors() == (2,)
    assert ws.complexes["X"].lo == 0 and ws.complexes["X"].hi == 1
    text = serialize_workspace(ws)
    ws2 = parse_workspace(text)
    assert ws == ws2
    assert serialize_workspace(ws2) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_workspace("module M over R gens 1 rels [[2]]\n")  # dangling ring
    with pytest.raises(ParseError):
        parse_workspace("frobnicate x\n")
    with pytest.raises(ParseError):
        parse_workspace("ring R Z\nring R Z\n")  # duplicate id


def test_validation_error_names_the_invariant():
    bad = """\
ring R Z
module F over R gens 1 rels []
map one : F -> F matrix [[1]]
complex X over R degrees 0..2 object 0 F object 1 F object 2 F diff 1 one diff 2 one
"""
    with pytest.raises(ValidationError) as exc:
        parse_workspace(bad)
    assert "d o d" in str(exc.value)


def test_ring_from_name():
    assert ring_from_name("Z").modulus is None
    assert ring_from_name("Zmod6").modulus == 6
    assert ring_from_name("Fp3").is_field
    with pytest.raises(ParseError):
        ring_from_name("Q")


def test_cli_tor_table(tmp_path):
    wsfile = tmp_path / "w.cl"
    wsfile.write_text(WORKSPACE)
    code, report = run_command([
        "tor", "--workspace", str(wsfile), "--a", "M", "--b", "N",
        "--max-degree", "2"])
    assert code == 0
    by_name = {c.name: c.witness for c in report.checks}
    assert by_name["degree-0"] == "Z/2"
    assert by_name["degree-1"] == "Z/2"
    assert by_name["degree-2"] == "0"


def test_zero_ring_modules_are_zero(tmp_path):
    # over Z/1 every module is the zero group, free ones included
    F = FpModule.free(IntegersModN(1), 2)
    assert F.invariant_factors() == ()
    assert F.is_zero_module()
    assert F.size() == 1
    wsfile = tmp_path / "z1.cl"
    wsfile.write_text("ring R Zmod 1\nmodule F over R gens 2 rels []\n")
    code, report = run_command([
        "tor", "--workspace", str(wsfile), "--a", "F", "--b", "F",
        "--max-degree", "1"])
    assert code == 0
    assert "check\tdegree-0\tpass\t0\n" in report.to_machine()


def test_cli_exit_codes(tmp_path):
    wsfile = tmp_path / "w.cl"
    wsfile.write_text(WORKSPACE)
    # success
    assert main(["tensor", "--workspace", str(wsfile), "--a", "M", "--b", "N"]) == 0
    # parse error -> 2
    bad = tmp_path / "bad.cl"
    bad.write_text("module M over R gens 1 rels [[2]]\n")
    assert main(["tensor", "--workspace", str(bad), "--a", "M", "--b", "M"]) == 2
    # missing file -> 2
    assert main(["tensor", "--workspace", str(tmp_path / "nope.cl"),
                 "--a", "M", "--b", "M"]) == 2


def test_cli_model_check_and_determinism(tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    argv = ["model-check", "--structure", "projective", "--ring", "Zmod4",
            "--seed", "1", "--samples", "2"]
    code1, _ = run_command(argv + ["--out", str(out1)])
    code2, _ = run_command(argv + ["--out", str(out2)])
    # run_command does not write --out (main does); emulate via reports
    _, rep1 = run_command(argv)
    _, rep2 = run_command(argv)
    assert rep1.to_machine() == rep2.to_machine()
    assert code1 == 0 and code2 == 0


def test_cli_monoidal_sabotage():
    code, report = run_command([
        "monoidal-check", "--structure", "flat", "--ring", "Z",
        "--seed", "1", "--samples", "4", "--sabotage"])
    assert code == 1
    failing = [c for c in report.sorted_checks() if not c.passed]
    assert any("cond1-flat" in c.name and "Z/2" in c.witness for c in failing)


def test_cli_compat_check_wrong_pair():
    code, report = run_command([
        "compat-check", "--pair", "wrong", "--ring", "Z", "--samples", "6"])
    assert code == 1
    by_name = {c.name: c for c in report.checks}
    assert not by_name["ext-vanishing"].passed
    assert "Z/2" in by_name["ext-vanishing"].witness


def test_report_roundtrip():
    rep = Report(command="x", seed=3)
    rep.add("b-check", True, "w1")
    rep.add("a-check", False, "tab\there")
    text = rep.to_machine()
    back = Report.from_machine(text)
    assert back.to_machine() == text
    assert back.fail_count == 1


def test_cli_lift_noncommuting_square_exits_2(tmp_path):
    ws = """\
ring R Z
module F over R gens 1 rels []
map one : F -> F matrix [[1]]
map two : F -> F matrix [[2]]
complex S over R degrees 0..0 object 0 F
chainmap ident : S -> S comp 0 one
chainmap dbl : S -> S comp 0 two
liftproblem P i ident p ident top ident bottom dbl
"""
    f = tmp_path / "bad_square.cl"
    f.write_text(ws)
    assert main(["lift", "--workspace", str(f), "--problem", "P"]) == 2
