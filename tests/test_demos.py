"""Every demo runs end to end on the package's public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["gradient_check.py", "split_equivalence.py",
                                  "robust_aggregation.py", "cut_sweep.py",
                                  "poisoned_run.py"])
def test_demo_exits_0(demo, tmp_path):
    # cut_sweep writes its CSV and SVG into the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
