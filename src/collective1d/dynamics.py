"""Finite-box dynamics: the parity-reduced box Hamiltonian, exact evolution
from its closed-form eigenvectors, survival probabilities and field-intensity
profiles, plus the single-pole (collective-state) approximants they converge
to.

Each degenerate mode pair {+k, -k}, k = 2 pi m / L, couples to
|j> = (|1> + sigma|2>)/sqrt(2) through one combination only, with the real
coupling g_k = lam V_k sqrt(2 (1 + sigma cos k x21)); the opposite-parity
combinations never populate. The reduction is exact for every observable
reachable from |s> or |a>, and |1>, |2> = (|s> +- |a>)/sqrt(2). The reduced
Hamiltonian is an arrowhead matrix (|j> against the diagonal modes). Its
eigenvalues are the roots of its secular equation, solved in blocks of rows
with no dense eigensolve, and its eigenvectors follow in closed form, so
neither the matrix nor its eigenvector matrix is ever formed.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ModelParams, SymmetrySector, as_sector, validate
from .greens import (
    OVERFLOW_EXPONENT,
    ComplexEnergy,
    ConvergenceError,
    OverflowGuardError,
    find_pole,
    one_atom_pole,
)
from .io import write_csv
from .quadrature import _exp_pole_terms, _pole_coefficients, _pole_sum

__all__ = [
    "LatticeModel",
    "TimeSeries",
    "FieldProfile",
    "build_lattice",
    "evolve",
    "survival_probability",
    "collective_survival",
    "field_intensity",
    "collective_field",
    "timeseries_to_csv",
    "profile_to_csv",
]

_MAX_DIM = 20000         # each secular iteration costs O(dim^2) time
_BLOCK = 256             # eigenvalue (or time) rows per (rows, modes) work array
_MAX_ITER = 40           # secular-equation evaluations per eigenvalue
_EPS = np.finfo(float).eps


@dataclass
class TimeSeries:
    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) < 0):
            raise ConfigError("time grid must be one-dimensional and non-decreasing")
        self.values = np.asarray(self.values)
        if self.values.shape != self.times.shape:
            raise ConfigError("values and times must have matching shapes")
        if not np.all(np.isfinite(np.abs(self.values))):
            raise ConfigError("non-finite values in time series")


@dataclass
class FieldProfile:
    positions: np.ndarray
    intensity: np.ndarray
    time: float
    label: str = ""

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if not np.all(np.isfinite(self.intensity)):
            raise ConfigError("non-finite field intensity")
        if np.any(self.intensity < 0):
            raise ConfigError("field intensity must be non-negative")


@dataclass
class LatticeModel:
    """A solved parity-reduced box in the basis |j>, |k=0>, |k_1>, |k_2>, ...

    The spectrum lists the eigenvalues that |j> reaches: those of the arrowhead
    block of |j> and the modes with g_k > 0. The k = 0 slot (v(0) = 0) and the
    modes with g_k = 0 are eigenstates of their own, E = k with weight 0 on
    |j>, and are left out of it.
    """
    params: ModelParams
    box_length: float
    n_modes: int
    sector: SymmetrySector
    k: np.ndarray              # positive mode momenta 2 pi m / L
    couplings: np.ndarray      # g_k
    coupled: np.ndarray        # indices into k of the modes with g_k > 0
    evals: np.ndarray          # ascending eigenvalues E
    weights: np.ndarray        # |<j|E>|^2
    nearest: np.ndarray        # index into k[coupled] of the pole nearest each E
    offsets: np.ndarray        # E - k[coupled][nearest], to full relative accuracy

    @property
    def dim(self) -> int:
        return self.k.size + 2


def build_lattice(params: ModelParams, box_length: float, n_modes: int,
                  sector) -> LatticeModel:
    """Assemble and solve the parity-reduced box of sector 's' or 'a' with
    n_modes signed modes, i.e. (n_modes - 1)/2 pairs {+k, -k}."""
    validate(params, two_atom=True)
    sector = as_sector(sector)
    if sector is None:
        raise ConfigError("the box is built for one sector, 's' or 'a'")
    if n_modes % 2 == 0 or n_modes < 3:
        raise ConfigError("n_modes must be odd and >= 3")
    if not np.isfinite(box_length):
        raise ConfigError(f"box length L={box_length} must be finite")
    if box_length <= 2.0 * params.x21:
        raise ConfigError(f"box L={box_length} must exceed 2*x21={2 * params.x21} "
                           "so both light cones fit")
    n_half = (n_modes - 1) // 2
    if n_half + 2 > _MAX_DIM:
        raise ConfigError(f"dimension {n_half + 2} beyond {_MAX_DIM}: the secular solve "
                           "takes O(dim^2) time per iteration")
    k = 2.0 * np.pi * np.arange(1, n_half + 1) / box_length
    vk = np.sqrt(k / (1 + (k / params.omegaM) ** 2) ** (2 * params.n_ff))
    big_v = np.sqrt(2.0 * np.pi / box_length) * vk
    mod = 2.0 * (1.0 + sector.sigma * np.cos(k * params.x21))
    g = params.lam * big_v * np.sqrt(np.maximum(mod, 0.0))
    # a coupling below the rounding of the eigensolver moves no eigenvalue
    # by more than that rounding: deflate it, as LAPACK's dlaed2 does
    coupled = np.flatnonzero(g > 8.0 * _EPS * max(abs(params.omega1), k[-1]))
    evals, weights, nearest, offsets = _arrowhead_spectrum(params.omega1, k[coupled], g[coupled])
    return LatticeModel(params, float(box_length), n_modes, sector, k, g, coupled,
                        evals, weights, nearest, offsets)


def _blocks(n: int):
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _gaps(d: np.ndarray, nearest: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """E - d for a block of eigenvalues (rows) against all poles d (columns).
    The gap to the nearest pole is the offset itself, so it keeps full
    relative accuracy however close E sits to it."""
    return (d[nearest, None] - d) + offsets[:, None]


def _arrowhead_spectrum(omega1: float, d: np.ndarray, g: np.ndarray):
    """Eigenvalues E of [[omega1, g], [g, diag(d)]] (d ascending, g > 0), their
    weights |<j|E>|^2 = 1 / f'(E), and for each E the index of its nearest
    pole d_n and the offset tau = E - d_n, from the secular equation

        f(E) = E - omega1 - sum g^2 / (E - d) = 0.

    f rises from -inf to +inf between neighbouring poles, so by interlacing
    root i lies in (d_{i-1}, d_i); the lowest root lies within ||g|| below
    min(omega1, d_0) and the highest within ||g|| above max(omega1, d_{m-1})
    (Weyl). The sign of f at each gap's midpoint picks the nearer pole as the
    origin, and the root is solved in tau from there, where _gaps gives
    E - d to full relative accuracy. Each step takes the root of a rational
    model with one pole at the origin and one at the gap's other end (the
    linear term rides with the far side), matched to f and f' at the iterate:
    the "middle way" of R.-C. Li, LAPACK Working Note 89 (1993), behind
    LAPACK's dlaed4; Bunch, Nielsen & Sorensen, Numer. Math. 31 (1978) 31. A
    step that leaves the bracket bisects it. All rows of a block advance
    together, one O(rows x m) pass per step, and converged rows drop out. A
    root is accepted once |f| is within the rounding of its evaluation or its
    step stalls, after one last Newton step; that gives tau to full relative
    accuracy, which the weights of weakly coupled modes (w ~ tau^2 / g_n^2)
    and the eigenvectors <d|E> = g / (E - d) <j|E> need (Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 16 (1995) 172). A root still open after
    _MAX_ITER evaluations raises ConvergenceError.
    """
    m = d.size
    if m == 0:
        return np.array([omega1]), np.ones(1), np.zeros(1, dtype=int), np.zeros(1)
    g2 = g * g
    span = 1.01 * np.sqrt(g2.sum())     # Weyl's bound, widened: m = 1, omega1 = d_0 attains it
    nearest = np.empty(m + 1, dtype=int)
    offsets = np.empty(m + 1)
    weights = np.empty(m + 1)
    for rows in _blocks(m + 1):
        i = np.arange(m + 1)[rows]
        lo, hi = np.maximum(i - 1, 0), np.minimum(i, m - 1)
        outer_lo, outer_hi = i == 0, i == m
        # reference point: the gap midpoint, seen from d_lo; below/above the
        # outer roots, the far end of their bracket
        n = lo.copy()
        ref = 0.5 * (d[hi] - d[lo])
        ref[outer_lo] = min(omega1 - d[0], 0.0) - span
        ref[outer_hi] = max(omega1 - d[-1], 0.0) + span
        f_ref = _secular(d, g2, omega1, n, ref)[0]
        # a root left of the midpoint is solved from d_lo, otherwise from d_hi
        outer = outer_lo | outer_hi
        from_hi = ~outer & ~(f_ref > 0)
        n[from_hi] = hi[from_hi]
        ref[from_hi] = -ref[from_hi]
        # offset of the gap's other pole from the origin; the outer roots have none
        far = np.where(outer, np.inf, 2.0 * ref)
        g2_far = np.where(outer, 0.0, g2[lo + hi - n])
        lower, upper = np.minimum(ref, 0.0), np.maximum(ref, 0.0)
        lower[outer_hi] = max(omega1 - d[-1], 0.0)
        upper[outer_lo] = min(omega1 - d[0], 0.0)
        # first step from the model of the gap's two poles alone, the rest of
        # f held at its reference value
        w = 1.0 / far
        tau = _step(ref, f_ref, g2[n] / ref ** 2, 1.0 + g2_far / (far - ref) ** 2, w, lower, upper)
        offsets[rows], weights[rows] = _solve_rows(d, g2, omega1, n, tau, w, lower, upper)
        nearest[rows] = n
    return d[nearest] + offsets, weights, nearest, offsets


def _secular(d, g2, omega1, n, tau):
    """f(E) at E = d_n + tau for a block of rows, the parts of f'(E) from the
    poles on the near side of E (that of d_n) and from the far side plus the
    linear term, and a bound on the rounding error of f."""
    gaps = _gaps(d, n, tau)
    near = np.signbit(gaps) == np.signbit(tau)[:, None]
    terms = g2 / gaps
    total = terms.sum(axis=1)
    near_sum = terms.sum(axis=1, where=near)
    linear = (d[n] - omega1) + tau
    f = linear - total
    np.divide(terms, gaps, out=terms)           # g^2 / (E - d)^2
    del gaps
    slope_near = terms.sum(axis=1, where=near)
    slope_far = 1.0 + terms.sum(axis=1, where=~near)
    noise = (np.abs(linear) + np.abs(near_sum) + np.abs(total - near_sum)
             + np.abs(tau) * (slope_near + slope_far))
    return f, slope_near, slope_far, noise


def _step(tau, f, slope_near, slope_far, w, lower, upper):
    """The next offset: the root x in [lower, upper], x != 0, of the model

        f~(x) = c - Q / x + P / (1/w - x),    x = E - d_n,

    whose pole at the origin carries slope_near and whose far pole (at
    1/w; w = 0 for the outer roots, whose far side is the linear term)
    carries slope_far, matched to f and f' at x = tau. The quadratic is
    solved for x itself, not for a step from tau, so a root next to the
    origin keeps full relative accuracy. The bracket midpoint where the
    model has no root in the bracket."""
    v = 1.0 - w * tau
    a = v * slope_far - w * (f + tau * slope_near)
    b = f + tau * slope_near - tau * v * slope_far + w * tau * tau * slope_near
    c = -tau * tau * slope_near
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = (q / a, c / q)
    x = 0.5 * (lower + upper)
    for root in roots:
        x = np.where((lower <= root) & (root <= upper) & (root != 0.0), root, x)
    return x


def _solve_rows(d, g2, omega1, n, tau, w, lower, upper):
    """Iterate _step on the rows until |f| is within 4 eps of its rounding
    bound, the step stalls or the bracket has closed to the last bits, and
    return each row's tau and 1/f'(E). Converged rows leave the work arrays."""
    offsets, weights = np.empty(tau.size), np.empty(tau.size)
    live = np.arange(tau.size)
    for _ in range(_MAX_ITER):
        f, slope_near, slope_far, noise = _secular(d, g2, omega1, n[live], tau[live])
        t = tau[live]
        lower[live] = np.where(f < 0, t, lower[live])
        upper[live] = np.where(f > 0, t, upper[live])
        step = _step(t, f, slope_near, slope_far, w[live], lower[live], upper[live])
        done = ((np.abs(f) <= 4.0 * _EPS * noise) | (step == t)
                | (upper[live] - lower[live] <= 4.0 * _EPS * np.abs(t)))
        slope = slope_near[done] + slope_far[done]
        # one last Newton step, kept inside the bracket, takes off the residual
        offsets[live[done]] = np.clip(t[done] - f[done] / slope,
                                      lower[live[done]], upper[live[done]])
        weights[live[done]] = 1.0 / slope
        tau[live] = step
        live = live[~done]
        if live.size == 0:
            return offsets, weights
    raise ConvergenceError(
        f"secular equation: {live.size} eigenvalues unconverged after {_MAX_ITER} "
        f"iterations (largest |f|={np.max(np.abs(f[~done])):.2e})")


def _check_initial(model: LatticeModel, initial) -> None:
    tag = model.sector.tag[0]
    if str(initial) != tag:
        raise ConfigError(f"the {model.sector.tag} box evolves |{tag}> only; "
                           "|1>, |2> = (|s> +- |a>)/sqrt(2) combine both boxes")


def _check_horizon(model: LatticeModel, t_max: float) -> None:
    if not np.isfinite(t_max):
        raise ConfigError(f"time t={t_max} must be finite")
    if t_max >= model.box_length / 2.0:
        warnings.warn(
            f"t={t_max} at or beyond the wrap horizon L/2={model.box_length / 2}; "
            "boundary echoes contaminate the output", stacklevel=3)


def evolve(model: LatticeModel, initial, t: float) -> np.ndarray:
    """e^{-iHt}|j> in the basis |j>, |k=0>, |k_1>, ...:

        <j|psi(t)> = sum_E w_E e^{-iEt},
        <k|psi(t)> = g_k sum_E w_E e^{-iEt} / (E - k),

    summed over blocks of eigenvalues, so no N x N array is formed."""
    _check_initial(model, initial)
    _check_horizon(model, float(t))
    phased = model.weights * np.exp(-1j * model.evals * t)
    d = model.k[model.coupled]
    modes = np.zeros(d.size, dtype=complex)
    for rows in _blocks(phased.size if d.size else 0):     # no coupled mode: |j> alone
        modes += phased[rows] @ (1.0 / _gaps(d, model.nearest[rows], model.offsets[rows]))
    state = np.zeros(model.dim, dtype=complex)
    state[0] = phased.sum()
    state[2 + model.coupled] = model.couplings[model.coupled] * modes
    return state


def survival_probability(model: LatticeModel, initial, times) -> TimeSeries:
    """P_1(t) = |<1| e^{-iHt} |j>|^2 on the provided grid. With <1|j> = 1/sqrt(2)
    and the survival amplitude A_j(t) = sum_E w_E e^{-iEt}, P_1 = |A_j|^2 / 2."""
    _check_initial(model, initial)
    times = np.asarray(times, dtype=float)
    _check_horizon(model, float(times.max()))
    amp = np.empty(times.size, dtype=complex)
    for rows in _blocks(times.size):      # bounds the (times, eigenvalues) phases
        amp[rows] = np.exp(-1j * np.outer(times[rows], model.evals)) @ model.weights
    return TimeSeries(times, 0.5 * np.abs(amp) ** 2, label=f"P1 initial={initial}")


def collective_survival(params: ModelParams, sector, x21, times,
                        pole: ComplexEnergy | None = None) -> TimeSeries:
    """Single-pole approximant P_{1,zj}(t) = (|N_j|^2 / 2) e^{-2 gamma_j t}."""
    sector = as_sector(sector)
    if pole is None:
        pole = find_pole(sector, x21, one_atom_pole(params).value, params)
    times = np.asarray(times, dtype=float)
    weight = 0.5 * abs(pole.normalization) ** 2
    return TimeSeries(times, weight * np.exp(-2.0 * pole.gamma * times),
                      label=f"P1_z{pole.sector[0]}")


def field_intensity(model: LatticeModel, initial, xs, t: float,
                    label: str = "") -> FieldProfile:
    """P(x, t) = |<psi(x)| e^{-iHt} |initial>|^2 with
    <psi(x)| = sum_k (2 omega_k L)^{-1/2} e^{ikx} <k| (k=0 dropped), which on
    the reduced mode k of sector sigma is
    (2 k L)^{-1/2} (cos k(x - x1) + sigma cos k(x - x2)) / sqrt(1 + sigma cos k x21)."""
    xs = np.asarray(xs, dtype=float)
    p = model.params
    if np.any(np.abs(xs - 0.5 * (p.x1 + p.x2)) > 0.5 * model.box_length):
        raise ConfigError("x grid leaves the periodic box around the emitter pair")
    mode_amp = evolve(model, initial, t)[2 + model.coupled]
    k, sigma = model.k[model.coupled], model.sector.sigma
    x = xs[:, None]
    weights = ((np.cos(k * (x - p.x1)) + sigma * np.cos(k * (x - p.x2)))
               / np.sqrt(2.0 * k * model.box_length * (1.0 + sigma * np.cos(k * p.x21))))
    return FieldProfile(xs, np.abs(weights @ mode_amp) ** 2, float(t),
                        label=label or f"P(x,t={t:g})")


def _phase_integrals(z: complex, d: np.ndarray, params: ModelParams) -> np.ndarray:
    """F_d + F_-d for every distance d, with F_c the continued
    int_0^inf u(k) e^{ikc} / (z - k) dk, u = (1+(k/omegaM)^2)^-n, on the +
    branch (Im z <= 0), in the closed form of `collective1d.quadrature`:
    -u(z) (K_c + K_-c) plus the principal parts of u(k)/(z - k) at
    +-i omegaM, c = |d|."""
    c = np.abs(d)
    u = (1.0 + (z / params.omegaM) ** 2) ** (-params.n_ff)
    coeffs = _pole_coefficients(np.concatenate([c, -c]), params.omegaM, params.n_ff, 0)
    poles = _pole_sum(np.full(2 * c.size, complex(z)), coeffs, params.omegaM).reshape(2, -1)
    kp, km = _exp_pole_terms(z, np.where(c > 0, c, 1.0))
    pole_terms = np.where(c > 0, kp + km, 2.0 * (1j * np.pi - np.log(z)))
    return poles.sum(axis=0) - u * pole_terms


def collective_field(params: ModelParams, sector, x21, xs, t: float,
                     pole: ComplexEnergy | None = None) -> FieldProfile:
    """Pure collective-state intensity P_{zj}(x,t) = |<psi(x)|phi_j>|^2 |N_j|
    e^{-2 gamma_j t}; the amplitude is assembled from the four continued
    phase integrals e^{+-ik(x - x_i)}, which is what produces the spatial
    exponential envelope with no light-cone truncation."""
    if not np.isfinite(t):
        raise ConfigError(f"time t={t} must be finite")
    sector = as_sector(sector)
    p = params.with_x21(float(x21)) if abs(params.x21 - float(x21)) > 1e-12 else params
    if pole is None:
        pole = find_pole(sector, x21, one_atom_pole(p).value, p)
    xs = np.asarray(xs, dtype=float)
    reach = pole.gamma * np.maximum(np.abs(xs - p.x1), np.abs(xs - p.x2))
    if np.any(reach > OVERFLOW_EXPONENT):
        i = int(np.argmax(reach > OVERFLOW_EXPONENT))
        raise OverflowGuardError(f"gamma*|x-x_i| = {reach[i]:.1f} overflows at x={xs[i]}")
    q1, q2 = _phase_integrals(pole.value, np.concatenate([xs - p.x1, xs - p.x2]),
                              p).reshape(2, xs.size)
    pref = p.lam / (2.0 * np.sqrt(2.0 * np.pi))
    amp = np.sqrt(pole.normalization) * pref * (q1 + sector.sigma * q2)
    intensity = np.abs(amp) ** 2 * abs(pole.normalization) * np.exp(-2.0 * pole.gamma * t)
    return FieldProfile(xs, intensity, float(t), label=f"P_z{pole.sector[0]}(x,t={t:g})")


def timeseries_to_csv(series: TimeSeries, path) -> None:
    write_csv(path, ["t", "value"], zip(series.times, np.real(series.values)))


def profile_to_csv(profile: FieldProfile, path) -> None:
    write_csv(path, ["x", "intensity"], zip(profile.positions, profile.intensity))
