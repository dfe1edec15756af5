"""The benchmark's self-test runs in the tier-1 suite.

karybench patches karychain's module functions where their callers look
them up, and re-reads every output format independently; its self-test
exercises both at tiny sizes, so a refactor that breaks either fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    res = subprocess.run(
        [sys.executable, str(ROOT / "karybench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
