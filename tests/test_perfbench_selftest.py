"""The benchmark's own self-tests, run as part of the suite.

perfbench/ traces the program by rebinding the names its call sites
look up (perfbench/tracing.py); renaming or dropping one of them, such
as analysis.resultant, would otherwise only show in a traced benchmark
run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
