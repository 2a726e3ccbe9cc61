"""Each demo prints exactly its recorded output.

The demos are deterministic and print greedy witnesses, verdicts, genera
and minimal polynomials, so this pins their bytes; a demo that changes on
purpose regenerates its file with
`PYTHONPATH=src python demos/<name>.py > demos/expected/<name>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqrat

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(sqrat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = (DEMOS / "expected" / f"{demo}.txt").read_text(encoding="utf-8")
    assert proc.stdout == expected
