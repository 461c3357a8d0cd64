"""Benchmark of collective1d: the pole sweep, the lattice dynamics and the
spectral route, each in one single-threaded process.

    python3 bench/run.py --workload {sweep,lattice,spectral} --seed N \
                         --seconds S --trace {0,1}

Run from the root of a checkout. Set-up (interpreter start, ``import
collective1d``, building the seeded inputs) is timed in fresh child
processes and reported as the median of several; then whole rounds of the
workload's operations run until the next round would pass --seconds (at
least three rounds). The
outputs of the last round are checked against oracles and properties after
the timed part, and every round must reproduce the first one's outputs.

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
from a run whose layers are wrapped by ``tracing.py``. Each value is the
median over the run's rounds. A record of the run goes to
``.bench_out/<workload>-seed<N>-trace<T>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "COLLECTIVE_THREADS")
SETUP_PROBES = 5
MIN_ROUNDS = 3
# per-layer metrics whose value is not the tracer key of the same name
_ALIASES = {"quadrature.ray_kernel.builds": "quadrature.ray_kernel.calls"}


def _probe(workload: str, seed: int) -> None:
    """Child process: import the package, build the inputs, report the clock."""
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.build_inputs(workload, seed)
    print(time.monotonic())


def _setup_seconds(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, str(Path(__file__)), "--probe",
                               "--workload", workload, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: os.environ[k] for k in THREAD_VARS}}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "lattice", "spectral"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "collective1d" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup = _setup_seconds(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    before = set(sys.modules)
    t0 = time.perf_counter()
    import collective1d
    import_s = time.perf_counter() - t0
    if Path(collective1d.__file__).resolve().parent != SRC / "collective1d":
        print(f"bench: collective1d imported from {collective1d.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    new_modules = set(sys.modules) - before
    import_stats = {"import.s": import_s, "import.modules": len(new_modules),
                    "import.scipy_modules": sum(1 for m in new_modules
                                                if m == "scipy" or m.startswith("scipy."))}
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed)
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(collective1d)
    ops = workloads.operations(args.workload, inputs, work)

    walls, cpus, layer_rounds, digests, results = [], [], [], [], {}
    failed_rounds = {op: 0 for op, _ in ops}
    while True:
        c0, w0 = time.process_time(), time.perf_counter()
        for op, thunk in ops:
            try:
                results[op] = thunk()
            except Exception as exc:      # a failed operation is counted, not fatal
                results[op] = exc
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if tracer is not None:
            layer = tracer.end_round()
            layer["io.write.bytes"] = _dir_bytes(work)
            layer_rounds.append(layer)
        digests.append({op: ("error" if isinstance(res, BaseException)
                             else workloads.digest(work / op, res))
                        for op, res in results.items()})
        for op, res in results.items():
            failed_rounds[op] += isinstance(res, BaseException)
        # at least three rounds, so that the median is never the warm-up round's
        if len(walls) >= MIN_ROUNDS and sum(walls) + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workloads.check(args.workload, inputs, work, results)
    known = workloads.KNOWN_FAULTS.get(args.workload, set())
    # an op whose last-round outputs fail a check failed in every round,
    # since every round must reproduce the same outputs
    failed_ops = {op for op, msgs in failures.items() if msgs}
    deterministic = all(d == digests[0] for d in digests)
    n_rounds = len(walls)
    failed = sum(n_rounds if op in failed_ops else failed_rounds[op] for op, _ in ops)
    correct = deterministic and failed_ops <= known and all(
        failed_rounds[op] in (0, n_rounds) for op, _ in ops)

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            key = _ALIASES.get(m["name"], m["name"])
            if key in import_stats:
                value = import_stats[key]
            else:
                value = statistics.median(r.get(key, 0) for r in layer_rounds)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        tracer.dump(out / "spans.npz")
    else:
        measured = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                    "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(), "shift": inputs["shift"],
              "rounds": n_rounds, "wall_s": walls, "cpu_s": cpus, "setup_s": setup,
              "peak_rss_mb": peak_rss_mb, "import": import_stats,
              "attempted": n_rounds * len(ops), "failed": failed,
              "failures": {op: msgs for op, msgs in failures.items() if msgs},
              "known_faults": sorted(known), "deterministic": deterministic,
              "correct": correct, "layers": layer_rounds}
    (out / "run.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for op, msgs in record["failures"].items():
        print(f"bench: {op} failed: {'; '.join(msgs)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": n_rounds * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
