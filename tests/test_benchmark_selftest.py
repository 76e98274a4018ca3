"""The benchmark's toy-size self-test, run as part of the test suite.

The benchmark tracer wraps names in the package: the ``forward`` and
``backward`` methods of the layer classes and ``Model``,
``layers.basis_values`` and ``layers.basis_derivatives``, and the names that
``cli`` imports. A refactor that moves one of them breaks the benchmark;
this test shows it without a paired benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, "benchmarks/selftest.py"],
                            cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
