"""Bounce expansion of the survival amplitude.

The symmetric-sector inverse Green's function splits as
eta_s^+ = eta_s1^+ - Delta with Delta(k) = -2 pi i lam^2 v(k)^2 e^{i k x21};
1/eta_s1^+ keeps a single lower-half-plane pole z_s1 (the one-atom pole
dressed by the neighbour's cloud), and expanding 1/eta_s^+ in powers of
Delta yields one term per field round trip between the atoms:

    I_0(t) = sum_n theta(t - n x21) f_n(t),
    f_n(t) = (1/n!) d^n/dk^n [ Delta(k)^n e^{-ikt} ] at k = z_s1.

The derivatives are taken with truncated-Taylor jets (finite differences
lose all precision at these orders and complex centers). Summing all f_n
without the theta truncation reproduces the collective-pole contribution
N e^{-i z t} where z solves k = z_s1 + Delta(k); `resummed` verifies that
identity by evaluating both sides independently.

Note on signs: f_n here carries a plus sign, fixed by I(0) = 1 and by the
resummation identity itself; DECISIONS.md gives the measured check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SYMMETRIC, ConfigError, ModelParams, SolverError, as_sector, validate
from .greens import (
    OVERFLOW_EXPONENT,
    ComplexEnergy,
    OverflowGuardError,
    continuum_weight_grid,
    eta_evaluator,
    find_pole,
    form_factor_sq,
    form_factor_sq_derivative,
    newton,
    one_atom_pole,
)
from .io import write_csv, write_json
from .quadrature import Jet, fourier_halfline

__all__ = [
    "Jet",
    "BounceDecomposition",
    "ResummationReport",
    "ResummationError",
    "delta_k",
    "eta_s1",
    "eta_s1_derivative",
    "find_zs1",
    "Zs1Result",
    "bounce_term",
    "bounce_sum",
    "resummed",
    "amplitude_quadrature",
    "amplitude_to_csv",
    "resummation_report_to_json",
]


TAIL_REL = 1e-12           # resummed stops after 3 terms below TAIL_REL of the sum
N_CAP = 120                # resummed sums at most N_CAP + 1 bounce terms


class ResummationError(SolverError):
    """The untruncated bounce series did not meet its tail bound."""


def _form_factor_jet(center: complex, order: int, params: ModelParams) -> Jet:
    k = Jet.variable(center, order)
    q = Jet.constant(1.0, center, order) + (k * k) * (1.0 / params.omegaM**2)
    return k * (q.reciprocal() ** (2 * params.n_ff))


def delta_k(k, x21: float, params: ModelParams):
    """Delta(k) = -2 pi i lam^2 v(k)^2 e^{i k x21} (rational-times-exponential
    continuation; overflow-guarded in the lower half-plane)."""
    k_arr = np.asarray(k, dtype=complex)
    if np.any(-k_arr.imag * x21 > OVERFLOW_EXPONENT):
        raise OverflowGuardError("Im k * x21 overflows e^{ikx21} in delta_k")
    out = -2j * np.pi * params.lam**2 * form_factor_sq(k_arr, params) * np.exp(1j * k_arr * x21)
    return out if np.ndim(k) else complex(out)


def _delta_derivative(k: complex, x21: float, params: ModelParams) -> complex:
    v2 = form_factor_sq(k, params)
    dv2 = form_factor_sq_derivative(k, params)
    return -2j * np.pi * params.lam**2 * (dv2 + 1j * x21 * v2) * np.exp(1j * k * x21)


def delta_jet(center: complex, order: int, x21: float, params: ModelParams) -> Jet:
    phase = Jet.variable(center, order) * (1j * x21)
    return _form_factor_jet(center, order, params) * phase.exp() * (-2j * np.pi * params.lam**2)


def eta_s1(z, x21: float, params: ModelParams):
    """eta_s1^+(z): the symmetric eta with the e^{+ikx} piece continued from
    below (-i eps) instead of above, leaving a single lower-half-plane pole.
    Equivalently eta_s^+(z) + Delta(z); assembled that way from the
    closed-form eta_s^+ (the generic three-integral assembly is kept as a
    test oracle)."""
    ev = eta_evaluator(SYMMETRIC, x21, params)
    return ev.values(z) + delta_k(z, x21, params)


def eta_s1_derivative(z, x21: float, params: ModelParams):
    ev = eta_evaluator(SYMMETRIC, x21, params)
    val, der = ev.values(z, derivative=True)
    return val + delta_k(z, x21, params), der + _delta_derivative(z, x21, params)


@dataclass(frozen=True)
class Zs1Result:
    pole: ComplexEnergy
    one_atom: ComplexEnergy
    near_one_atom: bool          # |z_s1 - z_1| < lam^2, expected for x21 >> 1/omega1


def find_zs1(x21: float, params: ModelParams) -> Zs1Result:
    """The single lower-half-plane root of eta_s1^+: `newton` from z_1 to
    1e-12 relative, with N = 1/eta_s1^+'(z_s1)."""
    validate(params, two_atom=True)
    z1 = one_atom_pole(params)
    z, df = newton(lambda z: eta_s1_derivative(z, x21, params), z1.value,
                   1e-12, 80, "eta_s1 Newton")
    rec = ComplexEnergy.from_root(z, None, 0, 1.0 / df)
    rec = ComplexEnergy(rec.value, "s1", 0, rec.normalization, True)
    return Zs1Result(rec, z1, abs(z - z1.value) < params.lam**2)


@dataclass
class BounceDecomposition:
    """z_s1 plus everything needed to evaluate bounce terms at one x21."""

    params: ModelParams
    x21: float
    z_s1: ComplexEnergy

    @classmethod
    def build(cls, x21: float, params: ModelParams) -> "BounceDecomposition":
        return cls(params, float(x21), find_zs1(x21, params).pole)

    def delta(self, k):
        return delta_k(k, self.x21, self.params)

    def delta_jet(self, order: int) -> Jet:
        return delta_jet(self.z_s1.value, order, self.x21, self.params)

    def _exp_jet(self, t: float, order: int) -> Jet:
        phase = Jet.variable(self.z_s1.value, order) * (-1j * t)
        return phase.exp()


def _bounce_terms(t: float, dec: BounceDecomposition, n_max: int):
    """f_0(t), ..., f_{n_max}(t). f_n is coefficient n of Delta^n e^{-ikt}
    about z_s1: one dot product of the jet of Delta^n (one product per term)
    with the jet of e^{-ikt}."""
    dj = dec.delta_jet(n_max)
    ej = dec._exp_jet(t, n_max)
    power = Jet.constant(1.0, dec.z_s1.value, n_max)
    for n in range(n_max + 1):
        yield np.dot(power.coeffs[: n + 1], ej.coeffs[n::-1])
        if n < n_max:
            power = power * dj


def bounce_term(n: int, t: float, dec: BounceDecomposition) -> complex:
    """f_n(t): the n-th bounce, switched on at t = n x21; magnitude O(lam^2n)."""
    if n < 0:
        raise ConfigError("bounce index must be >= 0")
    *_, term = _bounce_terms(t, dec, n)
    return complex(term)


def bounce_sum(t: float, dec: BounceDecomposition) -> complex:
    """Theta-truncated pole contribution I_0(t) = sum_{n <= t/x21} f_n(t)."""
    if t < 0:
        raise ConfigError("bounce_sum needs t >= 0")
    total = 0j
    for term in _bounce_terms(t, dec, int(np.floor(t / dec.x21 + 1e-12))):
        total += term
    return complex(total)


@dataclass
class ResummationReport:
    t: float
    series_value: complex
    pole_value: complex          # N * e^{-i z_tilde t}
    rel_discrepancy: float
    n_used: int
    converged: bool
    z_tilde: complex             # root of k = z_s1 + Delta(k)
    weak_normalization: complex  # 1 / (1 - Delta'(z_tilde))
    z_s_greens: complex          # exact eta_s^+ root, for comparison
    exact_residue: complex       # 1 / eta_s^+'(z_s)


def _pole_equation_root(dec: BounceDecomposition) -> tuple[complex, complex]:
    """Root z of k = z_s1 + Delta(k) by `newton` from z_s1, with 1 - Delta'(z).
    The tolerance 5e-15 relative is |f| < 1e-14 where the poles sit, |z| ~ 2."""
    zs1 = dec.z_s1.value

    def fdf(z):
        return z - zs1 - dec.delta(z), 1.0 - _delta_derivative(z, dec.x21, dec.params)

    return newton(fdf, zs1, 5e-15, 60, "pole equation k = z_s1 + Delta(k) Newton")


def resummed(t: float, dec: BounceDecomposition,
             allow_divergent: bool = False) -> ResummationReport:
    """Untruncated bounce series vs the collective-pole closed form.

    Sums f_n until the tail bound (three consecutive terms below TAIL_REL of
    the running sum, at most N_CAP + 1 terms), and independently evaluates
    N e^{-i z t} from the decomposition's own pole equation. Growth over
    five consecutive terms is flagged as divergence (the series radius
    shrinks like 1/x21; it diverges for x21 beyond ~12 at default coupling)
    and raises unless allow_divergent."""
    if t < 0:
        raise ConfigError("resummed needs t >= 0")
    z_t, df_t = _pole_equation_root(dec)
    weak_n = 1.0 / df_t
    pole_value = weak_n * np.exp(-1j * z_t * t)

    total = 0j
    small_streak = 0
    grow_streak = 0
    prev_mag = np.inf
    min_mag = np.inf
    converged = False
    n_used = 0
    for n, term in enumerate(_bounce_terms(t, dec, N_CAP)):
        total += term
        n_used = n
        mag = abs(term)
        min_mag = min(min_mag, mag)
        if n >= 4 and mag <= TAIL_REL * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                converged = True
                break
        else:
            small_streak = 0
        if n >= 4 and mag > prev_mag:
            grow_streak += 1
            if grow_streak >= 5 and mag > 10.0 * max(min_mag, 1e-300):
                break
        else:
            grow_streak = 0
        prev_mag = mag

    z1 = one_atom_pole(dec.params)
    zs = find_pole(SYMMETRIC, dec.x21, z1.value, dec.params)
    rel = abs(total - pole_value) / max(abs(pole_value), 1e-300)
    report = ResummationReport(
        t=float(t), series_value=complex(total), pole_value=complex(pole_value),
        rel_discrepancy=float(rel), n_used=n_used, converged=converged,
        z_tilde=complex(z_t), weak_normalization=complex(weak_n),
        z_s_greens=complex(zs.value), exact_residue=complex(zs.normalization),
    )
    if not converged and not allow_divergent:
        raise ResummationError(
            f"bounce series tail bound not reached within n_cap={N_CAP} "
            f"(x21={dec.x21}: growth factor |Delta(z_s1)|*e*x21 = "
            f"{abs(dec.delta(dec.z_s1.value)) * np.e * dec.x21:.2f})"
        )
    return report


def amplitude_quadrature(t, sector, x21: float, params: ModelParams, quad=None, grid=None):
    """Survival amplitude I(t) = int_0^inf rho_j(k) e^{-ikt} dk via the
    Filon transform of the spectral density on a pole-refined grid.
    P_1(t) = |I(t)|^2 / 2 for the corresponding initial sector state.

    Pass grid=(k, rho) (from greens.continuum_weight_grid) to amortize the
    density evaluation across calls. quad is ignored; as in
    continuum_weight_grid, the slot stays only because the benchmark passes
    it positionally, and the next benchmark change removes it."""
    sector = as_sector(sector)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise ConfigError("amplitude_quadrature needs a 1-D grid of at least one time")
    if np.any(ts < 0):
        raise ConfigError("amplitude_quadrature needs t >= 0")
    if grid is None:
        grid = continuum_weight_grid(sector, x21, params, t_max=float(ts.max()))
    kgrid, rho = grid
    out = fourier_halfline(kgrid, rho, ts)
    return out if np.ndim(t) else complex(np.atleast_1d(out)[0])


def amplitude_to_csv(times, amplitudes, path) -> None:
    write_csv(path, ["t", "re_I", "im_I", "abs2_half"],
              ([t, a.real, a.imag, 0.5 * abs(a) ** 2] for t, a in zip(times, amplitudes)))


def resummation_report_to_json(reports, path) -> None:
    write_json(path, [{
        "t": rep.t,
        "series": [rep.series_value.real, rep.series_value.imag],
        "pole": [rep.pole_value.real, rep.pole_value.imag],
        "rel_discrepancy": rep.rel_discrepancy,
        "n_used": rep.n_used,
        "converged": rep.converged,
        "z_tilde": [rep.z_tilde.real, rep.z_tilde.imag],
        "weak_normalization": [rep.weak_normalization.real, rep.weak_normalization.imag],
        "z_s_greens": [rep.z_s_greens.real, rep.z_s_greens.imag],
        "exact_residue": [rep.exact_residue.real, rep.exact_residue.imag],
    } for rep in reports])
