"""Spans and counts around the calls into each collective1d module.

``install()`` wraps, from outside the package, the public functions of each
module, three methods (``EtaEvaluator.values``, ``RayKernel.integrals`` and
``RayKernel.__init__``), the CLI entry point and the output writers. A name
that another module bound with ``from .greens import find_pole`` is wrapped
where it is bound too, so every call path is seen.

Each call records a span (name, start, end, parent) in memory. At the end of
a round, ``Tracer.end_round()`` folds that round's spans into metrics:
``<name>.calls``, ``<name>.s`` (inclusive, outermost call of a name only) and
``<name>.self_s`` (duration minus the direct child spans), plus the counts
the hooks below add. Spans opened in a worker thread (``contour_map`` rows)
have no parent, so their time stays in the caller's self time.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

_MODULES = ("quadrature", "greens", "dynamics", "bounces", "sweep", "waveguide")
_WRITER_SUFFIXES = ("_to_csv", "_to_json")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []          # (span id, name id, start, end, parent id)
        self._sid = itertools.count()
        self._local = threading.local()
        self._round_start = 0
        self._counts: dict[str, float] = defaultdict(float)
        self._maxima: dict[str, float] = defaultdict(float)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float) -> None:
        self._counts[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self._maxima[key] = max(self._maxima[key], value)

    def wrap(self, name, fn, after=None, before=None):
        """fn with a span named `name` (a string, or a function of the call's
        arguments giving one). after(tracer, args, kwargs, result, pre) adds
        counts; pre is before(args, kwargs) taken ahead of the call."""
        tracer = self
        fixed = None if callable(name) else self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._nid(name(args, kwargs))
            pre = before(args, kwargs) if before is not None else None
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._sid)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(tracer.names[nid] + ".failed", 1)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, nid, t0, t1, parent))
            if after is not None:
                after(tracer, args, kwargs, result, pre)
            return result

        return traced

    def end_round(self) -> dict[str, float]:
        """Metrics of the spans and counts recorded since the last call."""
        spans = self.spans[self._round_start:]
        self._round_start = len(self.spans)
        by_sid = {s[0]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, nid, t0, t1, parent in spans:
            if parent in by_sid:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, nid, t0, t1, parent in spans:
            name = self.names[nid]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - child_time[sid]
            # inclusive time counts only outermost calls of a name
            anc, nested = parent, False
            while anc in by_sid:
                if by_sid[anc][1] == nid:
                    nested = True
                    break
                anc = by_sid[anc][4]
            if not nested:
                out[name + ".s"] += t1 - t0
        out.update(self._counts)
        out.update(self._maxima)
        self._counts.clear()
        self._maxima.clear()
        return dict(out)

    def dump(self, path: Path) -> None:
        """All spans of the run: name index, start, end, parent span id."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names), span_id=arr[:, 0].astype(np.int64),
                            name_id=arr[:, 1].astype(np.int32), start=arr[:, 2], end=arr[:, 3],
                            parent=arr[:, 4].astype(np.int64))


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _count_points(key, index, name):
    def after(tr, args, kwargs, result, pre):
        tr.count(key, np.size(_arg(args, kwargs, index, name)))
    return after


def _grid_points(tr, args, kwargs, result, pre):
    tr.count("greens.continuum_weight_grid.points", len(result[0]))


def _scan_missed(tr, args, kwargs, result, pre):
    tr.count("greens.pole_scan.missed", len(result[1]))


def _filon_work(tr, args, kwargs, result, pre):
    kgrid = _arg(args, kwargs, 0, "kgrid")
    ts = _arg(args, kwargs, 2, "ts")
    tr.count("quadrature.fourier_halfline.work", (len(kgrid) - 1) * np.size(ts))


def _unconverged(tr, args, kwargs, result, pre):
    tr.count("sweep.sweep_poles.unconverged",
             sum((r.z_s is None) + (r.z_a is None) for r in result))


def _needs_eigensolve(args, kwargs):
    return _arg(args, kwargs, 0, "model").evals is None


def _eigensolve(tr, args, kwargs, result, pre):
    if pre:
        tr.count("dynamics.diagonalize.dim", result.dim)
        # computed from the array size, not measured
        tr.maximum("dynamics.eigvecs_mb", result.evecs.nbytes / 2**20)


_HOOKS = {
    "greens.eta_values": _count_points("greens.eta_values.points", 1, "z"),
    "quadrature.ray_integrals": _count_points("quadrature.ray_integrals.points", 1, "z"),
    "greens.continuum_weight_grid": _grid_points,
    "greens.pole_scan": _scan_missed,
    "quadrature.fourier_halfline": _filon_work,
    "sweep.sweep_poles": _unconverged,
    "dynamics.diagonalize": _eigensolve,
}
_BEFORE = {"dynamics.diagonalize": _needs_eigensolve}


def install(package) -> Tracer:
    """Wrap the package's layers in place; returns the tracer."""
    tracer = Tracer()
    modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in _MODULES}
    modules["cli"] = sys.modules[f"{package.__name__}.cli"]
    replaced = {}          # id(original) -> wrapper
    for short, mod in modules.items():
        for attr in list(vars(mod)):
            obj = getattr(mod, attr)
            if not callable(obj) or isinstance(obj, type) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.endswith(_WRITER_SUFFIXES) or attr == "_sidecar":
                name = "io.write"
            elif short == "cli" or attr.startswith("_") or attr not in getattr(mod, "__all__", ()):
                continue
            else:
                name = f"{short}.{attr}"
            replaced[id(obj)] = tracer.wrap(name, obj, after=_HOOKS.get(name),
                                            before=_BEFORE.get(name))
    cli = modules["cli"]
    replaced[id(cli.main)] = tracer.wrap(lambda args, kwargs: "cli." + _arg(args, kwargs, 0, "argv")[0],
                                         cli.main)
    # rebind every module-level name that refers to a wrapped function,
    # including the package namespace and `from .x import name` bindings
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    greens, quadrature = modules["greens"], modules["quadrature"]
    ev = greens.EtaEvaluator
    ev.values = tracer.wrap("greens.eta_values", ev.values, after=_HOOKS["greens.eta_values"])
    rk = quadrature.RayKernel
    rk.integrals = tracer.wrap("quadrature.ray_integrals", rk.integrals,
                               after=_HOOKS["quadrature.ray_integrals"])
    rk.__init__ = tracer.wrap("quadrature.ray_kernel", rk.__init__)
    return tracer
