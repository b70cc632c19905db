"""The benchmark's self-check as a tier-1 smoke test.

perfbench/selfcheck.py runs every workload at N = 2, traced and untraced,
and fails when a traced run misses an entry point the benchmark requires
(`forms.b_form`, `forms.q_tilde1`, the horizontal convolve, ...).  Running
it here makes such a refactor fail the test suite, not only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
