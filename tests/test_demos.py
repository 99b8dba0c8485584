"""Each demo script pinned by its exit code and the SHA-256 of its stdout.

The values were recorded before blocks were split inside the center (demos
02, 05 and 06: after the constant report fields and the cycle list went,
so demo 02 no longer prints `finite`, demo 05 prints whether the loop is
acyclic instead of its cycles and demo 06's `park` is shorter); a change
that alters one printed byte of a demo fails here.
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
    "02_groupoids.py": (0, "7ece08637ed955b785a2853f238483769899ddcc221514283ff8bf094404a0ca"),
    "03_cayley_dickson.py": (0, "fcef9629645837d312566091b54f1b21949253b1c77d208e9ee0949bd11618a3"),
    "04_skew_rings.py": (0, "fe8d5f36a1f6f4da6b7e2c6dc98b3cf31a63f5778fd09c57c6f19fd2f4bc06df"),
    "05_leavitt_gallery.py": (0, "a22cb0c267b0c5497f20cdda72a666070d887f446423b6442ed7b295b79694b8"),
    "06_globalization_maschke.py": (0, "2e1e7756edfa25d1672176fd272cc3e42994f34d91fa3d72a23c19e5967cfd2d"),
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
