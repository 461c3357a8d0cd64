"""Inverse Green's function eta^+ on and below the real axis, its poles, and
residue normalizations.

The two-atom inverse Green's function in sector j is

    eta_j^+(z) = z - omega1 - J^+(z),
    J^+(z) = continued int_0^inf 2 lam^2 v(k)^2 (1 + sigma_j cos(k x21)) / (z - k) dk,

the one-atom variant dropping the cosine. Splitting the cosine into
e^{+-ikx21} exponentials and rotating each half-line integral onto the ray
arg k = +-pi/4 makes every quadrature smooth and non-oscillatory; the
continuation across the real axis then consists of explicit residue terms.
For -pi/4 < arg z < pi/4 (all of the physics: poles sit just below the
positive real axis),

    J^+(z) = 2 lam^2 [A(z) - 2 pi i v2(z)]
           + sigma lam^2 [B_plus(z) - 2 pi i v2(z) e^{i z x21}]
           + sigma lam^2  B_minus(z),

where A, B_plus, B_minus are the rotated-ray integrals with numerators
v2(k), v2(k) e^{ikx21}, v2(k) e^{-ikx21}. The e^{i z x21} term carries the
e^{gamma x21} growth that drives the collective physics; it overflows double
precision at gamma*x21 > 650 and is guarded, not saturated.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .core import ANTISYMMETRIC, SYMMETRIC, ModelParams, SymmetrySector, as_sector, validate
from .io import write_csv
from .quadrature import (
    ContinuationDomainError,
    QuadratureSpec,
    RayKernel,
    ray_scale,
)

__all__ = [
    "ComplexEnergy",
    "GreensError",
    "ConvergenceError",
    "WrongBranchError",
    "OverflowGuardError",
    "FormFactorPoleError",
    "form_factor_sq",
    "form_factor_sq_derivative",
    "eta_plus",
    "eta_plus_derivative",
    "eta_evaluator",
    "newton",
    "fixed_point",
    "find_pole",
    "one_atom_pole",
    "pole_scan",
    "weak_coupling_estimate",
    "continuum_weight",
    "continuum_weight_grid",
    "contour_map",
    "ContourMap",
    "pole_records_to_csv",
    "contour_to_csv",
]

ROOT_TOL = 1e-11
_MAX_DAMPED = 400          # find_pole's backtracking phase
_MAX_NEWTON = 60
_WEAK_COUPLING_MAX_ITER = 3000
_FAST_REGION_SLOPE = 0.7   # fast path requires |Im z| < slope * Re z
OVERFLOW_EXPONENT = 650.0


class GreensError(RuntimeError):
    pass


class ConvergenceError(GreensError):
    pass


class WrongBranchError(GreensError):
    """Converged root has positive imaginary part beyond tolerance."""


class OverflowGuardError(GreensError):
    """cos(z*x21) would exceed double-precision range (gamma*x21 > 650)."""


class FormFactorPoleError(ValueError):
    """z too close to the form-factor poles at +-i*omegaM."""


@dataclass(frozen=True)
class ComplexEnergy:
    """A pole z = omega_tilde - i*gamma of 1/eta^+ with its residue factor.

    normalization N satisfies N * d(eta^+)/dz = 1 at the root; certified
    records additionally carry |eta^+(z)| below the solver tolerance.
    """

    value: complex
    sector: str
    lattice_index: int = 0
    normalization: complex = 0j
    certified: bool = True

    @property
    def omega_tilde(self) -> float:
        return self.value.real

    @property
    def gamma(self) -> float:
        return -self.value.imag + 0.0   # +0.0 normalizes -0.0

    @staticmethod
    def from_root(z: complex, sector, n: int, normalization: complex,
                  certified: bool = True, gamma_tol: float = 1e-12) -> "ComplexEnergy":
        tag = "one-atom" if sector is None else sector.tag
        if z.imag > gamma_tol * max(1.0, abs(z)):
            raise WrongBranchError(f"root {z} lies in the upper half-plane (eta^- branch)")
        if z.imag > 0:
            z = complex(z.real, 0.0)
        return ComplexEnergy(z, tag, n, normalization, certified)


def form_factor_sq(z, params: ModelParams):
    """v(z)^2 = z / (1 + (z/omegaM)^2)^(2 n_ff): the single-valued rational
    continuation of the squared form factor (never via a square root)."""
    z_arr = np.asarray(z, dtype=complex)
    om = params.omegaM
    near = np.minimum(np.abs(z_arr - 1j * om), np.abs(z_arr + 1j * om))
    if np.any(near < 1e-9 * om):
        raise FormFactorPoleError("z within tolerance of the form-factor poles at +-i*omegaM")
    out = z_arr / (1.0 + (z_arr / om) ** 2) ** (2 * params.n_ff)
    return out if np.ndim(z) else complex(out)


def form_factor_sq_derivative(z, params: ModelParams):
    z_arr = np.asarray(z, dtype=complex)
    om2 = params.omegaM**2
    n = params.n_ff
    q = 1.0 + z_arr * z_arr / om2
    out = q ** (-2 * n) - (4.0 * n * z_arr * z_arr / om2) * q ** (-2 * n - 1)
    return out if np.ndim(z) else complex(out)


class EtaEvaluator:
    """Vectorized eta^+ (and d eta^+/dz) for one (params, sector, x21)."""

    def __init__(self, params: ModelParams, sector: SymmetrySector | None,
                 x21: float, quad: QuadratureSpec):
        validate(params, two_atom=sector is not None)
        quad.check_cutoff(params.omegaM)
        self.params = params
        self.sector = sector
        self.sigma = 0 if sector is None else sector.sigma
        self.x21 = float(x21) if sector is not None else 0.0
        self.quad = quad
        numer = lambda k: form_factor_sq(k, params)
        self._A = RayKernel(numer, 0.0, ray_scale(0.0, params.omegaM))
        if sector is not None:
            self._Bp = RayKernel(numer, +self.x21, ray_scale(self.x21, params.omegaM))
            self._Bm = RayKernel(numer, -self.x21, ray_scale(self.x21, params.omegaM))

    def _guard(self, z_arr: np.ndarray) -> None:
        if np.any(z_arr.real <= 0):
            raise ContinuationDomainError("eta^+ fast path requires Re z > 0")
        if np.any(np.abs(z_arr.imag) >= _FAST_REGION_SLOPE * z_arr.real):
            raise ContinuationDomainError("z outside the |arg z| < pi/4 evaluation region")
        if self.sector is not None and np.any(-z_arr.imag * self.x21 > OVERFLOW_EXPONENT):
            raise OverflowGuardError(
                f"gamma*x21 exceeds {OVERFLOW_EXPONENT}: cos(z*x21) overflows; "
                "this is an error by contract, not a saturation"
            )

    def values(self, z, derivative: bool = False):
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
        self._guard(z_arr)
        lam2 = self.params.lam**2
        v2 = form_factor_sq(z_arr, self.params)
        if derivative:
            a1, a2 = self._A.integrals(z_arr, second=True)
        else:
            a1 = self._A.integrals(z_arr)
        J = 2.0 * lam2 * (a1 - 2j * np.pi * v2)
        if derivative:
            dv2 = form_factor_sq_derivative(z_arr, self.params)
            dJ = 2.0 * lam2 * (-a2 - 2j * np.pi * dv2)
        if self.sector is not None:
            osc = np.exp(1j * z_arr * self.x21)
            if derivative:
                bp1, bp2 = self._Bp.integrals(z_arr, second=True)
                bm1, bm2 = self._Bm.integrals(z_arr, second=True)
            else:
                bp1 = self._Bp.integrals(z_arr)
                bm1 = self._Bm.integrals(z_arr)
            J = J + self.sigma * lam2 * (bp1 - 2j * np.pi * v2 * osc + bm1)
            if derivative:
                dJ = dJ + self.sigma * lam2 * (
                    -bp2 - 2j * np.pi * (dv2 + 1j * self.x21 * v2) * osc - bm2
                )
        eta = z_arr - self.params.omega1 - J
        if np.ndim(z) == 0:
            return (complex(eta[0]), complex(1.0 - dJ[0])) if derivative else complex(eta[0])
        return (eta, 1.0 - dJ) if derivative else eta


@lru_cache(maxsize=64)
def _evaluator(params: ModelParams, sigma_key, x21: float, quad: QuadratureSpec) -> EtaEvaluator:
    sector = None if sigma_key is None else (SYMMETRIC if sigma_key > 0 else ANTISYMMETRIC)
    return EtaEvaluator(params, sector, x21, quad)


def eta_evaluator(sector, x21: float, params: ModelParams, quad: QuadratureSpec) -> EtaEvaluator:
    sector = as_sector(sector)
    key = None if sector is None else sector.sigma
    return _evaluator(params, key, 0.0 if sector is None else float(x21), quad)


def eta_plus(z, sector, x21, params: ModelParams, quad: QuadratureSpec):
    """eta_j^+(z); vectorized over z. sector None means the one-atom function."""
    return eta_evaluator(sector, x21, params, quad).values(z)


def eta_plus_derivative(z, sector, x21, params: ModelParams, quad: QuadratureSpec):
    """(eta^+(z), d eta^+/dz) with the derivative from the same ray nodes."""
    return eta_evaluator(sector, x21, params, quad).values(z, derivative=True)


def newton(fdf, z, tol: float, max_iter: int, what: str, f=None, df=None):
    """Newton iteration z <- z - f/f' with fdf(z) = (f(z), f'(z)).

    Converged when |f| < tol*max(1, |z|) at the z returned; returns (z, f'(z))
    so a residue 1/f' belongs to that root. Pass (f, df) when they are
    already known at z. Leaving the evaluation region
    (ContinuationDomainError) or running out of max_iter steps raises
    ConvergenceError naming the solve `what`.
    """
    z = complex(z)
    try:
        if f is None:
            f, df = fdf(z)
        for _ in range(max_iter):
            if abs(f) < tol * max(1.0, abs(z)):
                return z, df
            z = z - f / df
            f, df = fdf(z)
    except ContinuationDomainError as exc:
        last = "none" if f is None else f"{abs(f):.2e}"
        raise ConvergenceError(f"{what} left the evaluation region at z={z} (last |f|={last})") from exc
    if abs(f) < tol * max(1.0, abs(z)):
        return z, df
    raise ConvergenceError(f"{what} did not converge in {max_iter} steps (|f|={abs(f):.2e} at z={z})")


def fixed_point(g, x: float, tol: float, max_iter: int, what: str):
    """Damped fixed point x <- (x + g(x))/2 until |g(x) - x| < tol.

    Returns (g(x), |g(x) - x|). g raises its own domain errors; a stall
    after max_iter steps raises ConvergenceError naming the solve `what`.
    """
    residual = np.inf
    for _ in range(max_iter):
        gx = g(x)
        residual = abs(gx - x)
        if residual < tol:
            return gx, residual
        x = 0.5 * (x + gx)
    raise ConvergenceError(f"{what} stalled at residual {residual:.2e}")


def find_pole(sector, x21, seed, params: ModelParams, quad: QuadratureSpec,
              lattice_index: int = 0) -> ComplexEnergy:
    """Root of eta^+ from a damped fixed point (z <- z - alpha*eta, backtracking
    on alpha, at most _MAX_DAMPED steps) switched to `newton` once
    |eta| < 1e-3, converged to ROOT_TOL within _MAX_NEWTON steps. Returns a
    certified record with normalization N = 1/eta^+'(z)."""
    sector = as_sector(sector)
    fdf = partial(eta_evaluator(sector, x21, params, quad).values, derivative=True)
    z = complex(seed)
    try:
        f, df = fdf(z)
    except ContinuationDomainError as exc:
        raise ConvergenceError(f"seed {z} outside the evaluation region: {exc}") from exc
    alpha = 0.5
    for _ in range(_MAX_DAMPED):
        if abs(f) < 1e-3:
            break
        z_try = z - alpha * f
        if z_try.real <= 0 or abs(z_try.imag) >= _FAST_REGION_SLOPE * z_try.real:
            alpha *= 0.5
            if alpha < 1e-6:
                raise ConvergenceError(f"damped iteration left the evaluation region near {z}")
            continue
        f_try, df_try = fdf(z_try)
        if abs(f_try) < abs(f):
            z, f, df = z_try, f_try, df_try
            alpha = min(1.0, 1.3 * alpha)
        else:
            alpha *= 0.5
            if alpha < 1e-6:
                break
    z, df = newton(fdf, z, ROOT_TOL, _MAX_NEWTON, "pole Newton", f, df)
    return ComplexEnergy.from_root(z, sector, lattice_index, 1.0 / df)


def one_atom_pole(params: ModelParams, quad: QuadratureSpec) -> ComplexEnergy:
    """z1 = omega_tilde_1 - i*gamma_1, seeded at the bare level."""
    return find_pole(None, 0.0, params.omega1, params, quad)


def pole_scan(sector, x21, n_range, params: ModelParams, quad: QuadratureSpec):
    """Lattice poles z_{j,n} for n in n_range, seeded by the weak-coupling
    offsets (2n pi/x21 for sigma*n > 0, (2n+sigma) pi/x21 for sigma*n < 0)
    with a small ladder of imaginary-part seeds walked outward from z_j.

    Returns (records sorted by Re z, missing_n). Missed indices are reported,
    not fatal; duplicates within 1e-6*omega1 collapse onto one record.

    The rung seeds go to `newton` directly, without find_pole's damped
    phase: the damped map is a global contraction toward the principal
    pole, which is exactly wrong when hunting lattice poles z_{j,n!=0} from
    their local seeds.
    """
    sector = as_sector(sector)
    if sector is None:
        raise ValueError("pole_scan needs a two-atom sector")
    x21 = float(x21)
    z1 = one_atom_pole(params, quad)
    if x21 > 1.0 / z1.gamma:
        import warnings

        warnings.warn(f"x21={x21} beyond 1/gamma_1={1.0 / z1.gamma:.1f}; Eq-lattice seeding degrades",
                      stacklevel=2)
    principal = find_pole(sector, x21, z1.value, params, quad, lattice_index=0)
    fdf = partial(eta_evaluator(sector, x21, params, quad).values, derivative=True)
    sigma = sector.sigma
    spacing = 2.0 * np.pi / x21
    dedup = 1e-6 * params.omega1
    records = {0: principal}
    missing = []
    for n in sorted((m for m in n_range if m != 0), key=abs):
        target = principal.omega_tilde + (2 * n * np.pi / x21 if sigma * n > 0
                                          else (2 * n + sigma) * np.pi / x21)
        if target <= 0.05 * params.omega1:
            missing.append(n)
            continue
        neighbor = records.get(n - int(np.sign(n)), principal)
        g0 = max(neighbor.gamma, 0.004)
        # depth estimate: the pole sits where the e^{gamma x21} amplification
        # of the coupling term reaches the offset from the dressed level,
        # gamma_n ~ ln(|off| / 2 pi lam^2 v^2) / x21
        g_wc = 2.0 * np.pi * params.lam**2 * abs(form_factor_sq(target, params))
        off = abs(target - principal.omega_tilde)
        g_star = np.log(max(off, spacing / 4) / g_wc) / x21 if off > g_wc else g0
        rungs = sorted({round(g, 6) for g in
                        (g0, 1.7 * g0, 3.0 * g0,
                         0.7 * g_star, 0.9 * g_star, 1.1 * g_star, 1.35 * g_star)
                        if g > 0})
        best = None
        for rung in rungs:
            seed = complex(target, -rung - 0.004)
            try:
                z, df = newton(fdf, seed, ROOT_TOL, _MAX_NEWTON, f"lattice pole n={n} Newton")
                cand = ComplexEnergy.from_root(z, sector, n, 1.0 / df)
            except GreensError:
                continue
            if abs(cand.omega_tilde - target) > 0.35 * spacing:
                continue
            if any(abs(cand.value - r.value) < dedup for r in records.values()):
                continue
            if best is None or abs(cand.omega_tilde - target) < abs(best.omega_tilde - target):
                best = cand
        if best is None:
            missing.append(n)
        else:
            records[n] = best
    ordered = sorted(records.values(), key=lambda r: r.omega_tilde)
    return ordered, missing


class EstimateDivergence(GreensError):
    """The weak-coupling fixed point ran away (e^{gamma x21} feedback)."""


def weak_coupling_estimate(sector, x21, params: ModelParams,
                           quad: QuadratureSpec | None = None) -> ComplexEnergy:
    """Self-consistent weak-coupling pole estimate (seed generator, O(lam^4)).

    Iterates the pole-contribution equations for (omega_tilde, gamma),
    anchored at the one-atom pole so the one-atom level shift is not lost.
    Raises EstimateDivergence when e^{gamma x21} runs away; callers fall back
    to find_pole seeded at omega1.
    """
    sector = as_sector(sector)
    quad = quad or QuadratureSpec.for_params(params)
    z1 = one_atom_pole(params, quad)
    sigma = 0 if sector is None else sector.sigma
    lam2 = params.lam**2
    om, ga = z1.omega_tilde, z1.gamma
    for _ in range(_WEAK_COUPLING_MAX_ITER):
        v2 = float(np.real(form_factor_sq(om, params)))
        if sigma == 0:
            om_new, ga_new = z1.omega_tilde, 2.0 * np.pi * lam2 * v2
        else:
            grow = ga * x21
            if grow > 3.0:
                # e^{gamma x21} > ~20: far outside the regime where the
                # pole-contribution-only equations mean anything
                raise EstimateDivergence("e^{gamma x21} runaway in the weak-coupling fixed point")
            amp = 2.0 * np.pi * lam2 * v2 * np.exp(grow)
            om_new = z1.omega_tilde + sigma * amp * np.sin(om * x21)
            ga_new = max(2.0 * np.pi * lam2 * v2 + sigma * amp * np.cos(om * x21), 0.0)
        if abs(om_new - om) + abs(ga_new - ga) < 1e-14:
            om, ga = om_new, ga_new
            break
        om = 0.75 * om + 0.25 * om_new
        ga = 0.75 * ga + 0.25 * ga_new
    else:
        raise EstimateDivergence("weak-coupling fixed point did not settle")
    return ComplexEnergy.from_root(complex(om, -ga), sector, 0, 0j, certified=False)


def continuum_weight(k, sector, x21, params: ModelParams, quad: QuadratureSpec):
    """Spectral density 2 lam^2 v_k^2 (1 + sigma cos k x21) / |eta^+(k)|^2.

    Its half-line integral is 1 (completeness) and its Fourier transform is
    the survival amplitude. Vectorized over k > 0.
    """
    sector = as_sector(sector)
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k_arr <= 0):
        raise ValueError("continuum_weight requires k > 0")
    ev = eta_evaluator(sector, x21, params, quad)
    eta = ev.values(k_arr.astype(complex))
    v2 = np.real(form_factor_sq(k_arr, params))
    mod = 1.0 if sector is None else 1.0 + sector.sigma * np.cos(k_arr * float(x21))
    out = 2.0 * params.lam**2 * v2 * mod / np.abs(eta) ** 2
    return out if np.ndim(k) else float(out[0])


def continuum_weight_grid(sector, x21, params: ModelParams, quad: QuadratureSpec,
                          k_max: float | None = None, t_max: float = 0.0,
                          base_step: float | None = None):
    """(k, rho) on a grid refined around every resolvable pole.

    The base grid resolves the cos(k x21) modulation and, when a Fourier
    transform up to t_max is requested, keeps panel phases t*h bounded; the
    windows around each pole of 1/eta^+ (from pole_scan) resolve widths down
    to gamma ~ 1e-8. Needed by the survival-amplitude quadrature.
    """
    sector = as_sector(sector)
    k_max = k_max or 16.0 * params.omegaM
    if base_step is None:
        base_step = 2.5e-3
        if sector is not None and x21 > 0:
            base_step = min(base_step, (2.0 * np.pi / x21) / 24.0)
    if t_max > 0:
        base_step = min(base_step, np.pi / (4.0 * t_max))
        if k_max / base_step > 4.0e6:
            from .quadrature import QuadratureError

            raise QuadratureError(
                f"oscillatory budget exceeded: t_max={t_max} needs {k_max / base_step:.0f} grid points"
            )
    pieces = [np.linspace(1e-9, k_max, int(np.ceil(k_max / base_step)) + 1)]
    if sector is None:
        poles = [one_atom_pole(params, quad)]
    else:
        n_side = int(np.ceil(3.0 * params.omega1 * x21 / (2.0 * np.pi))) + 1
        poles, _ = pole_scan(sector, x21, range(-n_side, n_side + 1), params, quad)
    for rec in poles:
        if not (0 < rec.omega_tilde < k_max):
            continue
        width = max(rec.gamma, 1e-8)
        if width > 20.0 * base_step:
            continue
        lo = max(1e-9, rec.omega_tilde - 12.0 * width)
        hi = min(k_max, rec.omega_tilde + 12.0 * width)
        pieces.append(np.linspace(lo, hi, 601))
    kgrid = np.unique(np.concatenate(pieces))
    rho = continuum_weight(kgrid, sector, x21, params, quad)
    return kgrid, rho


@dataclass
class ContourMap:
    """log(1/|eta^+|) on a rectangle; overflow cells carry `sentinel`."""

    re: np.ndarray
    im: np.ndarray
    values: np.ndarray          # shape (n_im, n_re), row-major over im then re
    overflow_count: int
    sentinel: float = -1.0e6


def _worker_count() -> int:
    env = os.environ.get("COLLECTIVE_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def contour_map(region, grid, sector, x21, params: ModelParams, quad: QuadratureSpec) -> ContourMap:
    """Map of log(1/|eta_j^+(z)|) over region=(re_min, re_max, im_min, im_max)
    with grid=(nx, ny). Rows are independent and evaluated in a small thread
    pool capped by COLLECTIVE_THREADS. Output is NaN-free; cells beyond the
    overflow guard are set to the sentinel and counted."""
    sector = as_sector(sector)
    re_min, re_max, im_min, im_max = region
    nx, ny = grid
    res = np.linspace(re_min, re_max, nx)
    ims = np.linspace(im_min, im_max, ny)
    ev = eta_evaluator(sector, x21, params, quad)
    values = np.empty((ny, nx))
    sentinel = -1.0e6
    overflow = 0

    def run_row(iy):
        z_row = res + 1j * ims[iy]
        ok = np.ones(nx, dtype=bool)
        if sector is not None:
            ok &= (-z_row.imag * float(x21)) <= OVERFLOW_EXPONENT
        ok &= (z_row.real > 0) & (np.abs(z_row.imag) < _FAST_REGION_SLOPE * z_row.real)
        row = np.full(nx, sentinel)
        if ok.any():
            eta = ev.values(z_row[ok])
            mag = np.abs(eta)
            mag = np.where(mag > 0, mag, np.finfo(float).tiny)
            row[ok] = -np.log(mag)
        return iy, row, int((~ok).sum())

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        for iy, row, n_bad in pool.map(run_row, range(ny)):
            values[iy] = row
            overflow += n_bad
    return ContourMap(res, ims, values, overflow, sentinel)


def pole_records_to_csv(records, path) -> None:
    write_csv(path, ["sector", "n", "re", "im", "gamma", "re_N", "im_N"], (
        [rec.sector, rec.lattice_index, rec.value.real, rec.value.imag, rec.gamma,
         rec.normalization.real, rec.normalization.imag] for rec in records))


def contour_to_csv(cmap: ContourMap, path) -> None:
    write_csv(path, ["re", "im", "log_inv_abs_eta"], (
        [re, im, cmap.values[iy, ix]]
        for iy, im in enumerate(cmap.im) for ix, re in enumerate(cmap.re)))
