"""Finite-box dynamics: the parity-reduced box Hamiltonian, exact evolution
from its closed-form eigenvectors, survival probabilities and field-intensity
profiles, plus the single-pole (collective-state) approximants they converge
to.

Each degenerate mode pair {+k, -k}, k = 2 pi m / L, couples to
|j> = (|1> + sigma|2>)/sqrt(2) through one combination only, with the real
coupling g_k = lam V_k sqrt(2 (1 + sigma cos k x21)); the opposite-parity
combinations never populate. The reduction is exact for every observable
reachable from |s> or |a>, and |1>, |2> = (|s> +- |a>)/sqrt(2). The reduced
Hamiltonian is an arrowhead matrix (|j> against the diagonal modes), solved
without forming its eigenvector matrix.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, SymmetrySector, as_sector, validate
from .greens import (
    ComplexEnergy,
    OverflowGuardError,
    find_pole,
    one_atom_pole,
)
from .io import write_csv
from .quadrature import QuadratureSpec, RayKernel, ray_scale

__all__ = [
    "LatticeModel",
    "TimeSeries",
    "FieldProfile",
    "LatticeError",
    "build_lattice",
    "evolve",
    "survival_probability",
    "collective_survival",
    "field_intensity",
    "collective_field",
    "timeseries_to_csv",
    "profile_to_csv",
]

_MAX_DIM = 20000         # dense eigvalsh input: 8 dim^2 bytes
_BLOCK = 256             # eigenvalue rows per (rows, modes) work array
_NEWTON_STEPS = 2
_EPS = np.finfo(float).eps


class LatticeError(ValueError):
    pass


@dataclass
class TimeSeries:
    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or np.any(np.diff(self.times) < 0):
            raise ValueError("time grid must be one-dimensional and non-decreasing")
        self.values = np.asarray(self.values)
        if self.values.shape != self.times.shape:
            raise ValueError("values and times must have matching shapes")
        if not np.all(np.isfinite(np.abs(self.values))):
            raise ValueError("non-finite values in time series")


@dataclass
class FieldProfile:
    positions: np.ndarray
    intensity: np.ndarray
    time: float
    label: str = ""

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if np.any(self.intensity < 0):
            raise ValueError("field intensity must be non-negative")


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
        raise LatticeError("the box is built for one sector, 's' or 'a'")
    if n_modes % 2 == 0 or n_modes < 3:
        raise LatticeError("n_modes must be odd and >= 3")
    if box_length <= 2.0 * params.x21:
        raise LatticeError(f"box L={box_length} must exceed 2*x21={2 * params.x21} "
                           "so both light cones fit")
    n_half = (n_modes - 1) // 2
    if n_half + 2 > _MAX_DIM:
        raise LatticeError(f"dimension {n_half + 2} beyond memory budget {_MAX_DIM}")
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
    weights |<j|E>|^2 = 1 / (1 + sum g^2 / (E - d)^2), and for each E the
    index of its nearest pole d_n and the offset tau = E - d_n.

    numpy.linalg.eigvalsh gives each E to eps ||H|| absolute. By interlacing
    E_i lies between d_{i-1} and d_i, and tau is taken from the nearer one.
    Newton steps on the secular equation E - omega1 - sum g^2 / (E - d) = 0,
    multiplied through by tau so that it stays smooth at tau = 0, then give
    tau to full relative accuracy. The weights of weakly coupled modes
    (w ~ tau^2 / g_n^2) and the eigenvectors <d|E> = g / (E - d) <j|E> need
    that accuracy (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172).
    """
    m = d.size
    if m == 0:
        return np.array([omega1]), np.ones(1), np.zeros(1, dtype=int), np.zeros(1)
    h = np.diag(np.concatenate(([omega1], d)))
    h[1:, 0] = g                      # eigvalsh reads the lower triangle
    evals = np.linalg.eigvalsh(h)
    del h
    i = np.arange(m + 1)
    left, right = np.maximum(i - 1, 0), np.minimum(i, m - 1)
    nearest = np.where((i == m) | ((i > 0) & (evals - d[left] < d[right] - evals)), left, right)
    offsets = evals - d[nearest]
    g2 = g * g
    for _ in range(_NEWTON_STEPS):
        for rows in _blocks(m + 1):
            n, tau = nearest[rows], offsets[rows]
            gaps = _gaps(d, n, tau)
            gaps[np.arange(n.size), n] = np.inf      # the nearest pole is factored out
            terms = g2 / gaps
            rest = d[n] + tau - omega1 - terms.sum(axis=1)
            slope = rest + tau * (1.0 + (terms / gaps).sum(axis=1))
            offsets[rows] = tau - (tau * rest - g2[n]) / slope
    weights = np.empty(m + 1)
    for rows in _blocks(m + 1):
        gaps = _gaps(d, nearest[rows], offsets[rows])
        weights[rows] = 1.0 / (1.0 + np.sum(g2 / gaps ** 2, axis=1))
    return d[nearest] + offsets, weights, nearest, offsets


def _check_initial(model: LatticeModel, initial) -> None:
    tag = model.sector.tag[0]
    if str(initial) != tag:
        raise LatticeError(f"the {model.sector.tag} box evolves |{tag}> only; "
                           "|1>, |2> = (|s> +- |a>)/sqrt(2) combine both boxes")


def _check_horizon(model: LatticeModel, t_max: float) -> None:
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
    amp = np.exp(-1j * np.outer(times, model.evals)) @ model.weights
    return TimeSeries(times, 0.5 * np.abs(amp) ** 2, label=f"P1 initial={initial}")


def collective_survival(params: ModelParams, sector, x21, times,
                        quad: QuadratureSpec | None = None,
                        pole: ComplexEnergy | None = None) -> TimeSeries:
    """Single-pole approximant P_{1,zj}(t) = (|N_j|^2 / 2) e^{-2 gamma_j t}."""
    sector = as_sector(sector)
    quad = quad or QuadratureSpec.for_params(params)
    if pole is None:
        z1 = one_atom_pole(params, quad)
        pole = find_pole(sector, x21, z1.value, params, quad)
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
        raise LatticeError("x grid leaves the periodic box around the emitter pair")
    mode_amp = evolve(model, initial, t)[2 + model.coupled]
    k, sigma = model.k[model.coupled], model.sector.sigma
    x = xs[:, None]
    weights = ((np.cos(k * (x - p.x1)) + sigma * np.cos(k * (x - p.x2)))
               / np.sqrt(2.0 * k * model.box_length * (1.0 + sigma * np.cos(k * p.x21))))
    return FieldProfile(xs, np.abs(weights @ mode_amp) ** 2, float(t),
                        label=label or f"P(x,t={t:g})")


def _phase_integral(z: complex, c: float, params: ModelParams) -> complex:
    """Continued int_0^inf u(k) e^{ikc} / (z - k) dk, u = (1+(k/omegaM)^2)^-n,
    on the + branch (Im z <= 0). Rotation sign follows sign(c); only the
    upward-rotated pieces pick up the residue correction."""
    n = params.n_ff

    def numer(k):
        return (1.0 + (k / params.omegaM) ** 2) ** (-n)

    kern = RayKernel(numer, c, ray_scale(c, params.omegaM))
    val = kern.integrals(z)
    if c >= 0:
        u_at = (1.0 + (z / params.omegaM) ** 2) ** (-n)
        val = val - 2j * np.pi * u_at * np.exp(1j * z * c)
    return val


def collective_field(params: ModelParams, sector, x21, xs, t: float,
                     quad: QuadratureSpec | None = None,
                     pole: ComplexEnergy | None = None) -> FieldProfile:
    """Pure collective-state intensity P_{zj}(x,t) = |<psi(x)|phi_j>|^2 |N_j|
    e^{-2 gamma_j t}; the amplitude is assembled from the four continued
    phase integrals e^{+-ik(x - x_i)}, which is what produces the spatial
    exponential envelope with no light-cone truncation."""
    sector = as_sector(sector)
    quad = quad or QuadratureSpec.for_params(params)
    p = params.with_x21(float(x21)) if abs(params.x21 - float(x21)) > 1e-12 else params
    if pole is None:
        z1 = one_atom_pole(p, quad)
        pole = find_pole(sector, x21, z1.value, p, quad)
    z = pole.value
    xs = np.asarray(xs, dtype=float)
    for x in xs:
        reach = max(abs(x - p.x1), abs(x - p.x2))
        if pole.gamma * reach > 650.0:
            raise OverflowGuardError(f"gamma*|x-x_i| = {pole.gamma * reach:.1f} overflows at x={x}")
    pref = p.lam / (2.0 * np.sqrt(2.0 * np.pi))
    amp = np.empty(xs.shape, dtype=complex)
    for i, x in enumerate(xs):
        q = (_phase_integral(z, x - p.x1, p) + _phase_integral(z, -(x - p.x1), p)
             + sector.sigma * (_phase_integral(z, x - p.x2, p)
                               + _phase_integral(z, -(x - p.x2), p)))
        amp[i] = np.sqrt(pole.normalization) * pref * q
    intensity = np.abs(amp) ** 2 * abs(pole.normalization) * np.exp(-2.0 * pole.gamma * t)
    return FieldProfile(xs, intensity, float(t), label=f"P_z{pole.sector[0]}(x,t={t:g})")


def timeseries_to_csv(series: TimeSeries, path) -> None:
    write_csv(path, ["t", "value"], zip(series.times, np.real(series.values)))


def profile_to_csv(profile: FieldProfile, path) -> None:
    write_csv(path, ["x", "intensity"], zip(profile.positions, profile.intensity))
