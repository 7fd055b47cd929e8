"""The benchmark's per-layer trace finds every function it wraps. A boundary
that is renamed or deleted makes bench/tracing.py print "... is gone; ...
reads 0" and report that metric as 0, so a refactor could otherwise zero a
per-layer metric without failing a test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# bench/run.py runs with bench/ as its script directory and puts src/ first
_IMPORT_AS_RUN_PY = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "bench")!r}]
import tracing
print(len(tracing._hooks()))
"""


def test_every_trace_hook_finds_its_function():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_AS_RUN_PY],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "is gone" not in proc.stderr, proc.stderr
    assert int(proc.stdout) > 0
