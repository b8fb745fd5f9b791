"""Each demo, run as a script, prints exactly the output pinned here.

The digests are sha256 of the demo's standard output.  A change that
moves a demo's output must say why and update its digest here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_exact_linear_algebra.py": "15eb9e50e2c1e954b07f84568f639852531d2cab265c5c9c168f3ec20f44b529",
    "02_modules_ext_tor.py": "c54a632b7db34707441e48f1a3192c52f2f34dc73e6f3a31eee31b654c080691",
    "03_complexes_homology.py": "20ef3eda900da817e8e1c988c53815bf8b649a451262b151102b63dcf6f5c584",
    "04_model_structures.py": "86002235b8eafb5fdd201095d92e4237382ea6472741a2f9f80e8cb896173098",
    "05_quiver_modules.py": "e455a3510d9ba685cb8e6cc93d122044a83bb4a7325e69a6e596049ef2cdbfaf",
    "06_workspace_and_cli.py": "ffc1d221bd177b5372b453b384dee77e6cd6f8ef8c42ed19368a44bb610d6b17",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_prints_pinned_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name], \
        done.stdout.decode()
