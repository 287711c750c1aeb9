"""Each demo script runs to completion with warnings as errors and prints."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
