"""Distance studies: gamma_j(x21) and omega_j(x21) curves, the heuristic
force indicator and its stable points, zero-decay distances, and the
dimension-dependence of the subradiance condition.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (ANTISYMMETRIC, SYMMETRIC, ConfigError, ModelParams, SolverError, as_sector,
                   finite_integer, instability_margin, validate)
from .greens import (
    ComplexEnergy,
    EtaEvaluator,
    _MAX_NEWTON,
    _find_poles,
    newton,
    one_atom_pole,
)
from .io import write_csv, write_json

__all__ = [
    "SweepRecord",
    "ZeroDecaySolution",
    "PairRelationReport",
    "sweep_poles",
    "force_indicator",
    "stable_points",
    "zero_decay_solve",
    "pair_relation_check",
    "angular_factor",
    "subradiance_roots",
    "sweep_to_csv",
    "zero_decay_to_json",
]


ZERO_DECAY_TOL = 1e-12


@dataclass
class SweepRecord:
    x21: float
    z_s: ComplexEnergy | None
    z_a: ComplexEnergy | None

    @property
    def converged_s(self) -> bool:
        return self.z_s is not None

    @property
    def converged_a(self) -> bool:
        return self.z_a is not None


def sweep_poles(x21_grid, params: ModelParams) -> list[SweepRecord]:
    """Collective poles z_s, z_a over a distance grid.

    Every row is `find_pole(sector, x21, z1)`, the pole that `pole_scan`
    labels n = 0, so a row depends on its own distance alone (DECISIONS.md,
    "One n = 0 rule"). Restarting from the one-atom pole at every point (the
    paper's recipe) keeps the tracked root on the collective branch z_{j,0}:
    pure continuation locks onto diving lattice branches past each
    superradiant maximum. The grid is one `greens._find_poles` batch of 2d
    rows (d symmetric, then d antisymmetric); a row that fails is flagged,
    never interpolated.
    """
    validate(params)
    xs = np.asarray(x21_grid, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise ConfigError("x21 grid must be finite and positive")
    if np.any(np.diff(xs) <= 0):
        raise ConfigError("x21 grid must be strictly increasing")
    z1 = one_atom_pole(params)
    if xs.max() * z1.gamma > 1.0:
        warnings.warn(
            f"sweep extends beyond 1/gamma_1 = {1.0 / z1.gamma:.1f}; "
            "collective decay rates scale like 1/x21 there and seeding degrades",
            stacklevel=2)
    d = xs.size
    ev = EtaEvaluator(params, np.repeat([SYMMETRIC.sigma, ANTISYMMETRIC.sigma], d),
                      np.tile(xs, 2))
    roots = [r if isinstance(r, ComplexEnergy) else None
             for r in _find_poles(ev, np.full(2 * d, z1.value))]
    return [SweepRecord(float(x), zs, za) for x, zs, za in zip(xs, roots[:d], roots[d:])]


def force_indicator(records: list[SweepRecord]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """F_j = -d(omega_tilde_j)/dx21 by central differences on the sweep grid
    (one-sided at the ends; stencils broken across non-converged gaps).
    Heuristic by construction: it tracks the collective-state energy only.
    Returns {"s": (x21, F), "a": (x21, F)} with NaN at broken stencils."""
    if len(records) < 3:
        raise ConfigError("force indicator needs at least 3 consecutive converged records")
    xs = np.array([r.x21 for r in records])
    out = {}
    for tag in ("s", "a"):
        om = np.array([np.nan if z is None else z.omega_tilde
                       for z in (getattr(r, "z_" + tag) for r in records)])
        force = np.empty(xs.shape)
        force[1:-1] = -(om[2:] - om[:-2]) / (xs[2:] - xs[:-2])
        force[[0, -1]] = -(om[[1, -1]] - om[[0, -2]]) / (xs[[1, -1]] - xs[[0, -2]])
        # a nan om breaks its own point and every stencil that reads it
        force[np.isnan(om) | np.isnan(force)] = np.nan
        out[tag] = (xs, force)
    return out


def _crossings(xs, f):
    """Indices i and zeros of the samples f(xs) in [xs[i], xs[i+1]): xs[i]
    where f[i] = 0, else the linear-interpolation zero where f changes sign
    (a nan sample changes no sign)."""
    f0, f1 = f[:-1], f[1:]
    i = np.flatnonzero((f0 == 0) | (f0 * f1 < 0))
    return i, xs[i] - f0[i] * (xs[i + 1] - xs[i]) / np.where(f0[i] == 0, 1.0, f1[i] - f0[i])


def stable_points(force_series: tuple[np.ndarray, np.ndarray]) -> list[tuple[float, bool]]:
    """Zeros of the force curve with a stability flag (dF/dx21 < 0).

    Roots are located by sign-change bracketing and linear interpolation on
    the finite-difference series (`_crossings`); a bracket whose ends are
    both below 1e-12 in |F| is degenerate, and one that ends in a nan is
    broken: neither yields a point."""
    xs, force = force_series
    i, roots = _crossings(xs, force)
    f0, f1 = force[i], force[i + 1]
    keep = np.maximum(np.abs(f0), np.abs(f1)) >= 1e-12     # false at a nan f1
    return [(float(x), bool(s)) for x, s in zip(roots[keep], (f1 < f0)[keep])]


@dataclass(frozen=True)
class ZeroDecaySolution:
    sector: str
    n: int
    omega_o: float          # renormalized energy at the zero-decay point
    x21_zero: float         # (2n+1) pi / omega_o (symmetric) or 2n pi / omega_o
    residual: float         # |Re eta^+| at omega_o, x21_zero


def zero_decay_solve(sector, n: int, params: ModelParams) -> ZeroDecaySolution:
    """Distance at which gamma_j vanishes exactly.

    Solves h(omega) = Re eta^+(omega) = 0 at x21 = m pi / omega, m = 2n+1
    (symmetric) or 2n (antisymmetric): omega_o = omega1 + PV integral of
    2 lam^2 v^2 (1 + sigma cos(m pi k / omega_o))/(omega_o - k), the
    principal value being the real part of the continued eta integral. Runs
    `newton` on its secant path (DECISIONS.md, "One scalar root-finder")
    from the one-atom omega_tilde to ZERO_DECAY_TOL within _MAX_NEWTON
    steps; residual is |h| re-evaluated at the omega_o returned. Requires
    the unstable regime (which guarantees a solution)."""
    sector = as_sector(sector)
    if sector is None:
        raise ConfigError("zero_decay_solve needs a two-atom sector")
    n = finite_integer(n, "zero-decay n")
    validate(params)
    if instability_margin(params) <= 0:
        raise ConfigError("zero-decay solve requires the unstable regime")
    m = 2 * n + 1 if sector.sigma > 0 else 2 * n
    if m <= 0:
        raise ConfigError("need 2n+1 >= 1 (symmetric) or 2n >= 2 (antisymmetric)")

    def h(om):
        om = om.real
        if not (0.0 < om < params.omegaM):
            raise SolverError(f"zero-decay solve left (0, omegaM): {om}")
        # built outside the evaluator cache: x_eff moves every step, so a
        # cached evaluator would never be reused and would evict others
        return EtaEvaluator(params, sector.sigma, m * np.pi / om).values(complex(om)).real, None

    om = float(newton(h, one_atom_pole(params).omega_tilde, ZERO_DECAY_TOL, _MAX_NEWTON,
                      "zero-decay solve")[0].real)
    return ZeroDecaySolution(sector.tag, n, om, float(m * np.pi / om), float(abs(h(om)[0])))


@dataclass
class PairRelationReport:
    max_deviation: float
    argmax_x21: float
    median_deviation: float
    deviations: np.ndarray
    x21: np.ndarray


def pair_relation_check(records: list[SweepRecord], params: ModelParams) -> PairRelationReport:
    """max over the sweep of |z1 - (z_s + z_a)/2|, both sides independent.

    The relation holds to O(lam^4); near superradiant maxima the prefactor
    is enhanced by the e^{gamma x21} feedback.
    """
    z1 = one_atom_pole(params).value
    xs, devs = [], []
    for rec in records:
        if rec.z_s is None or rec.z_a is None:
            continue
        xs.append(rec.x21)
        devs.append(abs(z1 - 0.5 * (rec.z_s.value + rec.z_a.value)))
    devs = np.asarray(devs)
    xs = np.asarray(xs)
    imax = int(np.argmax(devs))
    return PairRelationReport(float(devs[imax]), float(xs[imax]),
                              float(np.median(devs)), devs, xs)


def angular_factor(d: int, sector, u) -> float | np.ndarray:
    """Angular average of 1 + sigma cos(u cos(theta)) deciding subradiance.

    d=1: 2 (1 + sigma cos u)               (the one-dimensional condition)
    d=3: 2 (1 + sigma sin(u)/u)            (weight sin(theta))
    d=2: pi (1 + sigma J0(u))               (weight 1 -- the weight is not
         fixed by the source material, so the d=2 value is provisional)
    """
    sector = as_sector(sector)
    sigma = sector.sigma
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u_arr < 0):
        raise ConfigError("u must be >= 0")
    if d == 1:
        out = 2.0 * (1.0 + sigma * np.cos(u_arr))
    elif d == 3:
        sinc = np.where(u_arr == 0.0, 1.0, np.sin(u_arr) / np.where(u_arr == 0, 1.0, u_arr))
        out = 2.0 * (1.0 + sigma * sinc)
    elif d == 2:
        # J0(u) = (1/pi) int_0^pi cos(u cos theta): the integrand is even and
        # 2 pi-periodic, so the trapezoid rule of m panels errs by ~J_2m(u),
        # below round-off once m > u + 32
        m = int(np.ceil(u_arr.max(initial=0.0))) + 32
        weights = np.full(m + 1, 1.0 / m)
        weights[[0, -1]] *= 0.5
        j0 = np.cos(np.outer(u_arr, np.cos(np.linspace(0.0, np.pi, m + 1)))) @ weights
        out = np.pi * (1.0 + sigma * j0)
    else:
        raise ConfigError("d must be 1, 2 or 3")
    return out if np.ndim(u) else float(out[0])


def subradiance_roots(d: int, sector, u_range: tuple[float, float]) -> np.ndarray:
    """Zeros of the angular factor inside u_range.

    d=1 returns the exact periodic lattice ((2n+1) pi for the symmetric
    sector, 2n pi with n >= 1 for the antisymmetric; u=0 excluded as
    degenerate geometry). d=2,3 bracket numerically; for d=3 the symmetric
    factor is strictly positive and the antisymmetric one vanishes only as
    u -> 0, so both return empty on (0, inf). The numerical bracket is
    `_crossings` on 20 000 samples."""
    sector = as_sector(sector)
    lo, hi = u_range
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo >= 0):
        raise ConfigError("u_range must be a finite interval in [0, inf)")
    if d == 1:
        if sector.sigma > 0:
            first = np.ceil((lo / np.pi - 1.0) / 2.0)
            roots = np.arange(max(first, 0), np.floor((hi / np.pi - 1.0) / 2.0) + 1)
            vals = (2 * roots + 1) * np.pi
        else:
            first = max(int(np.ceil(lo / (2 * np.pi))), 1)
            vals = 2 * np.pi * np.arange(first, int(np.floor(hi / (2 * np.pi))) + 1)
        return vals[(vals >= max(lo, 1e-12)) & (vals <= hi)]
    us = np.linspace(max(lo, 1e-9), hi, 20000)
    return _crossings(us, angular_factor(d, sector, us))[1]


def sweep_to_csv(records: list[SweepRecord], path,
                 force: dict[str, tuple[np.ndarray, np.ndarray]] | None = None) -> None:
    force = force or {}
    fs = dict(zip(*force.get("s", ((), ()))))
    fa = dict(zip(*force.get("a", ((), ()))))
    rows = []
    for rec in records:
        row = [rec.x21]
        for z in (rec.z_s, rec.z_a):
            row += [z.omega_tilde, z.gamma] if z else ["nan", "nan"]
        for lookup in (fs, fa):
            val = lookup.get(rec.x21, np.nan)
            row.append(val if np.isfinite(val) else "nan")
        row.append(("s" if rec.converged_s else "-") + ("a" if rec.converged_a else "-"))
        rows.append(row)
    write_csv(path, ["x21", "re_zs", "gamma_s", "re_za", "gamma_a", "Fs", "Fa", "flags"], rows)


def zero_decay_to_json(solutions: list[ZeroDecaySolution], path,
                       gamma_checks: dict[tuple[str, int], float] | None = None) -> None:
    gamma_checks = gamma_checks or {}
    payload = [{
        "sector": s.sector, "n": s.n, "omega_o": s.omega_o,
        "x21_zero": s.x21_zero, "residual": s.residual,
        "gamma_check": gamma_checks.get((s.sector, s.n)),
    } for s in solutions]
    write_json(path, payload)
