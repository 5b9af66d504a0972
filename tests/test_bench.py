"""The benchmark harness still runs against this checkout."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # the tracer wraps names of the package; deleting one breaks the benchmark
    res = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "selftest.py")],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
