"""Distance studies: gamma_j(x21) and omega_j(x21) curves, the heuristic
force indicator and its stable points, zero-decay distances, and the
dimension-dependence of the subradiance condition.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (ANTISYMMETRIC, SYMMETRIC, ConfigError, ModelParams, SolverError, as_sector,
                   instability_margin, validate)
from .greens import (
    ComplexEnergy,
    EtaEvaluator,
    fixed_point,
    one_atom_pole,
    solve_poles,
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
_ZERO_DECAY_MAX_ITER = 400


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


_BLOCK = 64     # distances per batched solve: bounds the evaluator rows and the Jacobi passes


def _better(a: ComplexEnergy | None, b: ComplexEnergy | None) -> ComplexEnergy | None:
    """The root closer to the real axis; a wins ties."""
    return b if b is not None and (a is None or b.gamma < a.gamma) else a


def _seed_bits(rec: ComplexEnergy | None):
    return None if rec is None else np.complex128(rec.value).tobytes()


def _sweep_block(xs: np.ndarray, z1: ComplexEnergy, carry: list, params: ModelParams) -> list:
    """Sequential-rule roots on one block of distances, both sectors at once.

    Rows 0..d-1 are symmetric and rows d..2d-1 antisymmetric; carry holds the
    previous block's last choice per sector (None before the first block).
    Pass 0 solves every row from z1. Each later pass seeds every row from the
    previous pass's choice at its left neighbour (carry for the first row of
    a sector) and re-solves only the rows whose seed changed bitwise. Once no
    seed changes, every choice is the better of its z1 root and the root from
    its left neighbour's choice: the sequential rule, whose solution is
    unique from left to right.
    """
    d = xs.size
    ev = EtaEvaluator(params, np.repeat([SYMMETRIC.sigma, ANTISYMMETRIC.sigma], d),
                      np.tile(xs, 2))
    from_z1 = [r if isinstance(r, ComplexEnergy) else None
               for r in solve_poles(ev, np.full(2 * d, z1.value))]
    chosen = list(from_z1)
    seeds = [None] * (2 * d)
    from_left = [None] * (2 * d)
    while True:
        new = [carry[i // d] if i % d == 0 else chosen[i - 1] for i in range(2 * d)]
        changed = [i for i in range(2 * d) if _seed_bits(new[i]) != _seed_bits(seeds[i])]
        if not changed:
            return chosen
        todo = [i for i in changed if new[i] is not None]
        roots = solve_poles(ev, [new[i].value for i in todo], todo)
        for i in changed:
            from_left[i] = None
        for i, root in zip(todo, roots):
            from_left[i] = root if isinstance(root, ComplexEnergy) else None
        seeds = new
        chosen = [_better(a, b) for a, b in zip(from_z1, from_left)]


def sweep_poles(x21_grid, params: ModelParams) -> list[SweepRecord]:
    """Collective poles z_s, z_a over a distance grid.

    Every point is solved from the one-atom-pole seed and from the root
    chosen at the previous point, and the root closer to the real axis wins;
    non-converged points are flagged, never interpolated. Restarting from
    the one-atom pole at every point (the paper's recipe) is what keeps the
    tracked root on the collective branch z_{j,0}: pure continuation locks
    onto diving lattice branches past each superradiant maximum. The grid
    is solved left to right in blocks of _BLOCK distances (see _sweep_block).
    """
    validate(params)
    xs = np.asarray(x21_grid, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise ConfigError("x21 grid must be finite and positive")
    if np.any(np.diff(xs) <= 0):
        raise ConfigError("x21 grid must be strictly increasing")
    z1 = one_atom_pole(params)
    if xs.max() > 1.0 / z1.gamma:
        warnings.warn(
            f"sweep extends beyond 1/gamma_1 = {1.0 / z1.gamma:.1f}; "
            "collective decay rates scale like 1/x21 there and seeding degrades",
            stacklevel=2)
    records = []
    carry = [None, None]
    for start in range(0, xs.size, _BLOCK):
        block = xs[start:start + _BLOCK]
        chosen = _sweep_block(block, z1, carry, params)
        carry = [chosen[block.size - 1], chosen[-1]]
        records += [SweepRecord(float(x), zs, za)
                    for x, zs, za in zip(block, chosen[:block.size], chosen[block.size:])]
    return records


def force_indicator(records: list[SweepRecord]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """F_j = -d(omega_tilde_j)/dx21 by central differences on the sweep grid
    (one-sided at the ends; stencils broken across non-converged gaps).
    Heuristic by construction: it tracks the collective-state energy only.
    Returns {"s": (x21, F), "a": (x21, F)} with NaN at broken stencils."""
    if len(records) < 3:
        raise ConfigError("force indicator needs at least 3 consecutive converged records")
    xs = np.array([r.x21 for r in records])
    out = {}
    for tag, getter in (("s", lambda r: r.z_s), ("a", lambda r: r.z_a)):
        om = np.array([getter(r).omega_tilde if getter(r) is not None else np.nan
                       for r in records])
        force = np.full(xs.shape, np.nan)
        ok = ~np.isnan(om)
        for i in range(len(xs)):
            if not ok[i]:
                continue
            if 0 < i < len(xs) - 1 and ok[i - 1] and ok[i + 1]:
                force[i] = -(om[i + 1] - om[i - 1]) / (xs[i + 1] - xs[i - 1])
            elif i == 0 and ok[1]:
                force[i] = -(om[1] - om[0]) / (xs[1] - xs[0])
            elif i == len(xs) - 1 and ok[i - 1]:
                force[i] = -(om[i] - om[i - 1]) / (xs[i] - xs[i - 1])
        out[tag] = (xs, force)
    return out


def stable_points(force_series: tuple[np.ndarray, np.ndarray],
                  noise_floor: float = 1e-12) -> list[tuple[float, bool]]:
    """Zeros of the force curve with a stability flag (dF/dx21 < 0).

    Roots are located by sign-change bracketing and linear interpolation on
    the finite-difference series; stretches below the noise floor are
    degenerate and yield nothing."""
    xs, force = force_series
    out = []
    for i in range(len(xs) - 1):
        f0, f1 = force[i], force[i + 1]
        if np.isnan(f0) or np.isnan(f1):
            continue
        if max(abs(f0), abs(f1)) < noise_floor:
            continue
        if f0 == 0.0:
            root = xs[i]
        elif f0 * f1 < 0:
            root = xs[i] - f0 * (xs[i + 1] - xs[i]) / (f1 - f0)
        else:
            continue
        stable = f1 < f0
        out.append((float(root), bool(stable)))
    return out


@dataclass(frozen=True)
class ZeroDecaySolution:
    sector: str
    n: int
    omega_o: float          # renormalized energy at the zero-decay point
    x21_zero: float         # (2n+1) pi / omega_o (symmetric) or 2n pi / omega_o
    residual: float         # fixed-point residual of the integral equation


def zero_decay_solve(sector, n: int, params: ModelParams) -> ZeroDecaySolution:
    """Distance at which gamma_j vanishes exactly.

    Solves omega_o = omega1 + PV integral of 2 lam^2 v^2 (1 + sigma cos(m pi
    k / omega_o))/(omega_o - k), m = 2n+1 (symmetric) or 2n (antisymmetric),
    by the damped `fixed_point` to ZERO_DECAY_TOL within
    _ZERO_DECAY_MAX_ITER steps; the principal value is the real part of the
    continued eta integral at x_eff = m pi / omega_o. Requires the unstable
    regime (which guarantees a solution)."""
    sector = as_sector(sector)
    if sector is None:
        raise ConfigError("zero_decay_solve needs a two-atom sector")
    validate(params)
    if instability_margin(params) <= 0:
        raise ConfigError("zero-decay solve requires the unstable regime")
    m = 2 * n + 1 if sector.sigma > 0 else 2 * n
    if m <= 0:
        raise ConfigError("need 2n+1 >= 1 (symmetric) or 2n >= 2 (antisymmetric)")

    def g(om):
        # built outside the evaluator cache: x_eff moves every step, so a
        # cached evaluator would never be reused and would evict others
        eta = EtaEvaluator(params, sector.sigma, m * np.pi / om).values(complex(om))
        om_new = params.omega1 + (om - params.omega1 - eta).real
        if not (0.0 < om_new < params.omegaM):
            raise SolverError(f"zero-decay fixed point left (0, omegaM): {om_new}")
        return om_new

    om, residual = fixed_point(g, one_atom_pole(params).omega_tilde, ZERO_DECAY_TOL,
                               _ZERO_DECAY_MAX_ITER, "zero-decay fixed point")
    return ZeroDecaySolution(sector.tag, n, float(om), float(m * np.pi / om), float(residual))


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


def subradiance_roots(d: int, sector, u_range: tuple[float, float],
                      n_scan: int = 20000) -> np.ndarray:
    """Zeros of the angular factor inside u_range.

    d=1 returns the exact periodic lattice ((2n+1) pi for the symmetric
    sector, 2n pi with n >= 1 for the antisymmetric; u=0 excluded as
    degenerate geometry). d=2,3 bracket numerically; for d=3 the symmetric
    factor is strictly positive and the antisymmetric one vanishes only as
    u -> 0, so both return empty on (0, inf)."""
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
    us = np.linspace(max(lo, 1e-9), hi, n_scan)
    vals = angular_factor(d, sector, us)
    roots = []
    for i in range(len(us) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(us[i])
        elif v0 * v1 < 0:
            roots.append(us[i] - v0 * (us[i + 1] - us[i]) / (v1 - v0))
    return np.asarray(roots)


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
