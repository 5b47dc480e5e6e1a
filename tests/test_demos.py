import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphbands as gb

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_is_unchanged(demo):
    # a fresh interpreter on the package under test; the expected text is
    # the demo's stdout, byte for byte, so a retired name or a moved
    # number shows here
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gb.__file__)))
    out = subprocess.run([sys.executable, str(DEMOS / (demo + ".py"))],
                         capture_output=True, check=True, timeout=120,
                         env=env).stdout
    assert out == (DEMOS / "expected" / (demo + ".txt")).read_bytes()
