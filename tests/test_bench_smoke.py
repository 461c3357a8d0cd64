"""The benchmark under bench/ drives the package through names this suite
must keep working: the positional ``quad`` slots of ``continuum_weight_grid``
and ``amplitude_quadrature``, ``QuadratureSpec.for_params`` and the
``(k, rho)`` grid pair. One short ``spectral`` run checks them end to end
against the benchmark's own oracles; the test only reads bench/."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_spectral_benchmark_round_is_correct():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
