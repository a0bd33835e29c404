"""Every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                         (ROOT / "demos").glob("demo_*.py")))
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
