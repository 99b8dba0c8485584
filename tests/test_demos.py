"""Each demo script pinned by its exit code and the SHA-256 of its stdout.

The values were recorded before blocks were split inside the center; a
change that alters one printed byte of a demo fails here.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# demo file -> (exit code, SHA-256 of stdout)
EXPECTED = {
    "01_exact_linear_algebra.py": (0, "533f742477377ac11e919126cc68da891cccaec5fc69c988990647d0ac5f7273"),
    "02_groupoids.py": (0, "4b50cc178316d1f204bfb5d8d67093fe34f5641e56f170e62f0432ddab50a4e8"),
    "03_cayley_dickson.py": (0, "fcef9629645837d312566091b54f1b21949253b1c77d208e9ee0949bd11618a3"),
    "04_skew_rings.py": (0, "fe8d5f36a1f6f4da6b7e2c6dc98b3cf31a63f5778fd09c57c6f19fd2f4bc06df"),
    "05_leavitt_gallery.py": (0, "0657cdd578e23312902676f07c433a66cf351b5a9420eed03b636adca61d7f1e"),
    "06_globalization_maschke.py": (0, "a4e01bb9fe6a65b5b5f4c1e6836be2d260f7aa4d92428b3e725134036268753d"),
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_stdout_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          env=env, timeout=120)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == EXPECTED[demo]
