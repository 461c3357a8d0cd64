"""The benchmark under bench/ drives the package through names this suite
must keep working: the positional ``quad`` slots of ``continuum_weight_grid``
and ``amplitude_quadrature``, ``QuadratureSpec.for_params``, the ``(k, rho)``
grid pair and the ``evolve`` overrides. One short round of each workload that
reaches the phase-sum kernel checks it end to end against the benchmark's own
oracles: ``spectral`` by the sum rule of the Filon transform, ``lattice`` by
the arrowhead survival of the box. The test only reads bench/."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["spectral", "lattice"])
def test_benchmark_round_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
