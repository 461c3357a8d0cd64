"""Finite-box dynamics: Hamiltonian assembly, exact evolution by spectral
decomposition, survival probabilities and field-intensity profiles, plus the
single-pole (collective-state) approximants they converge to.

Two builds are provided. The full build keeps both atoms and all signed
modes k_m = 2 pi m / L (complex Hermitian, dimension n_modes + 2). The
sector-reduced build rotates each degenerate {+k, -k} pair into the single
combination that couples to |j> = (|1> + sigma|2>)/sqrt(2); the coupling
becomes the real number lam V_k sqrt(2 (1 + sigma cos k x21)) and the matrix
real symmetric of dimension (n_modes - 1)/2 + 2. The reduction is exact for
every observable reachable from |s> or |a> (the opposite-parity combinations
never populate) and is the default for production runs; the full build is
retained as the equivalence oracle.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    "diagonalize",
    "evolve",
    "survival_probability",
    "collective_survival",
    "field_intensity",
    "collective_field",
    "timeseries_to_csv",
    "profile_to_csv",
]

_MAX_DIM = 20000


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
    params: ModelParams
    box_length: float
    n_modes: int
    sector: SymmetrySector | None      # None -> full two-atom build
    k: np.ndarray                      # positive mode momenta (reduced) or signed (full)
    hamiltonian: np.ndarray
    couplings: np.ndarray              # reduced: real G(k); full: complex (2, n_modes)
    evals: np.ndarray | None = None
    evecs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def reduced(self) -> bool:
        return self.sector is not None


def build_lattice(params: ModelParams, box_length: float, n_modes: int,
                  sector=None) -> LatticeModel:
    """Assemble the discretized Hamiltonian.

    sector: a SymmetrySector (or 's'/'a') gives the parity-reduced real
    symmetric build; None (or 'full') the full complex-Hermitian one.
    """
    validate(params, two_atom=True)
    if sector == "full":
        sector = None
    sector = as_sector(sector)
    if n_modes % 2 == 0 or n_modes < 3:
        raise LatticeError("n_modes must be odd and >= 3")
    if box_length <= 2.0 * params.x21:
        raise LatticeError(f"box L={box_length} must exceed 2*x21={2 * params.x21} "
                           "so both light cones fit")
    n_half = (n_modes - 1) // 2
    lam = params.lam

    if sector is not None:
        dim = n_half + 2
        if dim > _MAX_DIM:
            raise LatticeError(f"dimension {dim} beyond memory budget {_MAX_DIM}")
        k = 2.0 * np.pi * np.arange(1, n_half + 1) / box_length
        vk = np.sqrt(np.maximum(np.real_if_close(k / (1 + (k / params.omegaM) ** 2) ** (2 * params.n_ff)), 0.0))
        big_v = np.sqrt(2.0 * np.pi / box_length) * vk
        mod = 2.0 * (1.0 + sector.sigma * np.cos(k * params.x21))
        g = lam * big_v * np.sqrt(np.maximum(mod, 0.0))
        ham = np.zeros((dim, dim))
        ham[0, 0] = params.omega1           # |j>
        # slot 1 is the k=0 mode: energy 0, coupling 0 (v(0) = 0)
        idx = np.arange(2, dim)
        ham[idx, idx] = k
        ham[0, idx] = g
        ham[idx, 0] = g
        return LatticeModel(params, float(box_length), n_modes, sector, k, ham, g)

    dim = n_modes + 2
    if dim > _MAX_DIM:
        raise LatticeError(f"dimension {dim} beyond memory budget {_MAX_DIM}")
    m = np.arange(-n_half, n_half + 1)
    k = 2.0 * np.pi * m / box_length
    absk = np.abs(k)
    vk = np.sqrt(absk / (1 + (absk / params.omegaM) ** 2) ** (2 * params.n_ff))
    big_v = np.sqrt(2.0 * np.pi / box_length) * vk
    ham = np.zeros((dim, dim), dtype=complex)
    ham[0, 0] = params.omega1
    ham[1, 1] = params.omega1
    idx = np.arange(2, dim)
    ham[idx, idx] = absk
    coup = np.empty((2, n_modes), dtype=complex)
    coup[0] = lam * big_v * np.exp(1j * k * params.x1)
    coup[1] = lam * big_v * np.exp(1j * k * params.x2)
    ham[0, idx] = coup[0]
    ham[1, idx] = coup[1]
    ham[idx, 0] = np.conj(coup[0])
    ham[idx, 1] = np.conj(coup[1])
    return LatticeModel(params, float(box_length), n_modes, None, k, ham, coup)


def diagonalize(model: LatticeModel) -> LatticeModel:
    """Fill in the spectral decomposition (full real spectrum, orthonormal
    basis). The Hermitian problem is handled by LAPACK through scipy.linalg.eigh
    (tridiagonal reduction + implicit-shift iteration family), which meets the
    orthonormality contract."""
    if model.evals is None:
        model.evals, model.evecs = scipy.linalg.eigh(model.hamiltonian)
    return model


def _initial_vector(model: LatticeModel, initial) -> np.ndarray:
    if isinstance(initial, np.ndarray):
        if initial.shape != (model.dim,):
            raise LatticeError(f"initial vector must have shape ({model.dim},)")
        return initial.astype(complex)
    label = str(initial)
    vec = np.zeros(model.dim, dtype=complex)
    if model.reduced:
        if label in ("s", "a"):
            if label != ("s" if model.sector.sigma > 0 else "a"):
                raise LatticeError(f"initial |{label}> does not live in the "
                                   f"{model.sector.tag} reduced model")
            vec[0] = 1.0
            return vec
        raise LatticeError("reduced models evolve |s> or |a> only; use the full build for |1>, |2>")
    if label == "1":
        vec[0] = 1.0
    elif label == "2":
        vec[1] = 1.0
    elif label in ("s", "a"):
        vec[0] = 1.0 / np.sqrt(2.0)
        vec[1] = (1.0 if label == "s" else -1.0) / np.sqrt(2.0)
    else:
        raise LatticeError(f"unknown initial state {initial!r}")
    return vec


def _check_horizon(model: LatticeModel, t_max: float) -> None:
    if t_max >= model.box_length / 2.0:
        warnings.warn(
            f"t={t_max} at or beyond the wrap horizon L/2={model.box_length / 2}; "
            "boundary echoes contaminate the output", stacklevel=3)


def evolve(model: LatticeModel, initial, t: float) -> np.ndarray:
    """e^{-iHt} applied to the initial state, via the eigen-expansion."""
    diagonalize(model)
    _check_horizon(model, float(t))
    vec = _initial_vector(model, initial)
    coeff = model.evecs.conj().T @ vec
    return model.evecs @ (np.exp(-1j * model.evals * t) * coeff)


def survival_probability(model: LatticeModel, initial, times) -> TimeSeries:
    """P_1(t) = |<1| e^{-iHt} |initial>|^2 on the provided grid.

    In a reduced model with initial |j>, <1|psi(t)> = A_j(t)/sqrt(2) with
    A_j the survival amplitude of |j>, so P_1 = |A_j|^2 / 2.
    """
    diagonalize(model)
    times = np.asarray(times, dtype=float)
    _check_horizon(model, float(times.max()))
    vec = _initial_vector(model, initial)
    coeff = model.evecs.conj().T @ vec
    if model.reduced:
        proj = model.evecs[0, :].conj()
        amp = (proj * coeff)[None, :] @ np.exp(-1j * np.outer(model.evals, times))
        values = 0.5 * np.abs(amp[0]) ** 2
    else:
        proj = model.evecs[0, :].conj()
        amp = (proj * coeff)[None, :] @ np.exp(-1j * np.outer(model.evals, times))
        values = np.abs(amp[0]) ** 2
    return TimeSeries(times, values, label=f"P1 initial={initial}")


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


def _field_weights(model: LatticeModel, x: float) -> np.ndarray:
    """<psi(x)| components on the populated mode basis (k=0 excluded)."""
    p = model.params
    if model.reduced:
        k = model.k
        g = model.couplings
        base = 1.0 / np.sqrt(2.0 * k * model.box_length)
        num = np.cos(k * (x - p.x1)) + model.sector.sigma * np.cos(k * (x - p.x2))
        denom = np.sqrt(np.maximum(1.0 + model.sector.sigma * np.cos(k * p.x21), 1e-300))
        w = base * num / denom
        return np.where(g > 1e-14, w, 0.0)
    k = model.k
    w = np.zeros(k.shape, dtype=complex)
    nz = k != 0.0
    w[nz] = np.exp(1j * k[nz] * x) / np.sqrt(2.0 * np.abs(k[nz]) * model.box_length)
    return w


def field_intensity(model: LatticeModel, initial, xs, t: float,
                    label: str = "") -> FieldProfile:
    """P(x, t) = |<psi(x)| e^{-iHt} |initial>|^2 with
    <psi(x)| = sum_k (2 omega_k L)^{-1/2} e^{ikx} <k| (k=0 dropped)."""
    xs = np.asarray(xs, dtype=float)
    center = 0.5 * (model.params.x1 + model.params.x2)
    if np.any(np.abs(xs - center) > 0.5 * model.box_length):
        raise LatticeError("x grid leaves the periodic box around the emitter pair")
    state = evolve(model, initial, t)
    mode_amp = state[2:]
    out = np.empty(xs.shape)
    for i, x in enumerate(xs):
        w = _field_weights(model, x)
        out[i] = abs(np.sum(w * mode_amp)) ** 2
    return FieldProfile(xs, out, float(t), label=label or f"P(x,t={t:g})")


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
