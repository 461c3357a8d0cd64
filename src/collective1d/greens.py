"""Inverse Green's function eta^+ on and below the real axis, its poles, and
residue normalizations.

The two-atom inverse Green's function in sector j is

    eta_j^+(z) = z - omega1 - J^+(z),
    J^+(z) = continued int_0^inf 2 lam^2 v(k)^2 (1 + sigma_j cos(k x21)) / (z - k) dk,

the one-atom variant dropping the cosine. Splitting the cosine into
e^{+-ikx21} exponentials gives three integrals of the closed form of
`collective1d.quadrature` (c = 0, +x21, -x21; numerator v(k)^2, rational
with poles of order 2 n_ff at +-i omegaM):

    J^+(z) = -v2(z) [2 lam^2 K_0(z) + sigma lam^2 (K_x21(z) + K_-x21(z))]
             + (principal parts at +-i omegaM: a rational function of z),

K_0 = i pi - log z and K_c = e^{izc} [E_1(izc) + 2 pi i [c > 0]], on the
retarded (+) branch throughout the evaluation region Re z > 0,
|Im z| < 0.7 Re z (all of the physics: poles sit just below the positive
real axis). The e^{i z x21} term carries the e^{gamma x21} growth that
drives the collective physics; it overflows double precision at
gamma*x21 > 650 and is guarded, not saturated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .core import (ANTISYMMETRIC, SYMMETRIC, ConfigError, ModelParams, SolverError, as_sector,
                   finite_real, validate)
from .io import write_csv
from .quadrature import (_BLOCK, ContinuationDomainError, QuadratureError, _exp_pole_terms,
                         _pole_coefficients, _pole_sum)

__all__ = [
    "ComplexEnergy",
    "EtaEvaluator",
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
    "solve_poles",
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
_MAX_DAMPED = 400          # solve_poles' backtracking phase
_MAX_NEWTON = 60
_WEAK_COUPLING_MAX_ITER = 3000
_FAST_REGION_SLOPE = 0.7   # fast path requires |Im z| < slope * Re z
OVERFLOW_EXPONENT = 650.0
_FLANK_RATIO = 1.02        # continuum_weight_grid: growth of the pole-window flank steps


class ConvergenceError(SolverError):
    pass


class WrongBranchError(SolverError):
    """Converged root has positive imaginary part beyond tolerance."""


class OverflowGuardError(SolverError):
    """cos(z*x21) would exceed double-precision range (gamma*x21 > 650)."""


class FormFactorPoleError(ConfigError):
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


def _beyond_range(q, power: int):
    """Mask of |q|^power past exp(700), where q^-power is 0 to double precision
    and the power itself would overflow."""
    return np.abs(q) > math.exp(700.0 / power)


def form_factor_sq(z, params: ModelParams):
    """v(z)^2 = z / (1 + (z/omegaM)^2)^(2 n_ff): the single-valued rational
    continuation of the squared form factor (never via a square root). Where
    the power overflows, v^2 takes its limit 0."""
    z_arr = np.asarray(z, dtype=complex)
    om = params.omegaM
    near = np.minimum(np.abs(z_arr - 1j * om), np.abs(z_arr + 1j * om))
    if np.any(near < 1e-9 * om):
        raise FormFactorPoleError("z within tolerance of the form-factor poles at +-i*omegaM")
    q = 1.0 + (z_arr / om) ** 2
    far = _beyond_range(q, 2 * params.n_ff + 1)
    overflow = far.any()
    if overflow:
        q = np.where(far, 1.0, q)       # placeholder; the limit 0 goes in below
    out = z_arr / q ** (2 * params.n_ff)
    if overflow:
        out = np.where(far, 0.0, out)
    return out if np.ndim(z) else complex(out)


def form_factor_sq_derivative(z, params: ModelParams):
    """d v(z)^2 / dz, with the limit 0 where the power overflows."""
    z_arr = np.asarray(z, dtype=complex)
    om2 = params.omegaM**2
    n = params.n_ff
    q = 1.0 + z_arr * z_arr / om2
    far = _beyond_range(q, 2 * n + 1)
    overflow = far.any()
    if overflow:
        q = np.where(far, 1.0, q)       # placeholder; the limit 0 goes in below
    out = q ** (-2 * n) - (4.0 * n * z_arr * z_arr / om2) * q ** (-2 * n - 1)
    if overflow:
        out = np.where(far, 0.0, out)
    return out if np.ndim(z) else complex(out)


_SECTORS = {0: None, SYMMETRIC.sigma: SYMMETRIC, ANTISYMMETRIC.sigma: ANTISYMMETRIC}


def _overflow_error() -> OverflowGuardError:
    return OverflowGuardError(
        f"gamma*x21 exceeds {OVERFLOW_EXPONENT}: cos(z*x21) overflows; "
        "this is an error by contract, not a saturation"
    )


class EtaEvaluator:
    """Vectorized eta^+ (and d eta^+/dz) on rows (sigma_r, x21_r).

    sigma is +1 or -1 on every row (two-atom sectors at distance x21 > 0) or
    0 on every row (the one-atom function; x21 is ignored). Each row keeps
    its distance and the z-independent coefficients of its principal parts
    at +-i omegaM (`quadrature._pole_coefficients`), weighted by 2 lam^2
    (c = 0) and sigma lam^2 (c = +-x21).
    """

    def __init__(self, params: ModelParams, sigma, x21):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=int))
        self.two_atom = bool(sigma[0] != 0)
        validate(params, two_atom=self.two_atom)
        if np.any((sigma != 0) != self.two_atom):
            raise ConfigError("an evaluator holds two-atom rows or one-atom rows, not both")
        self.params = params
        self.sigma = sigma
        self.x21 = np.zeros(sigma.shape)
        if self.two_atom:
            self.x21 = np.broadcast_to(np.asarray(x21, dtype=float), sigma.shape)
            if not np.all(np.isfinite(self.x21) & (self.x21 > 0)):
                raise ConfigError("two-atom eta^+ needs finite distances x21 > 0")
        lam2 = params.lam**2
        self._sigma_lam2 = sigma * lam2
        coeffs = _pole_coefficients(np.concatenate([[0.0], self.x21, -self.x21]), params.omegaM,
                                    2 * params.n_ff, 1)
        plus, minus = np.split(coeffs[1:], 2)
        self._coeffs = 2.0 * lam2 * coeffs[:1] + self._sigma_lam2[:, None, None] * (plus + minus)

    @staticmethod
    def off_domain(z, x21):
        """Masks of the points z outside the evaluation region Re z > 0,
        |Im z| < _FAST_REGION_SLOPE Re z, and of those inside it where
        gamma*x21 > OVERFLOW_EXPONENT (x21 broadcast against z; 0 for the
        one-atom function)."""
        outside = ~((z.real > 0) & (np.abs(z.imag) < _FAST_REGION_SLOPE * z.real))
        return outside, ~outside & (-z.imag * x21 > OVERFLOW_EXPONENT)

    def values(self, z, derivative: bool = False, rows=None):
        """eta^+(z) (and d eta^+/dz). rows=None evaluates every z on the
        evaluator's only row; otherwise z[i] (with any trailing axes) is
        evaluated on row rows[i]. Raises ContinuationDomainError or
        OverflowGuardError if any point is off the domain. Points are taken
        _BLOCK at a time, which bounds the work arrays."""
        z_in = np.asarray(z, dtype=complex)
        zz = z_in.ravel()
        if rows is None:
            if self.sigma.size != 1:
                raise ConfigError("rows are required on a multi-row evaluator")
            row = np.zeros(zz.size, dtype=int)
        else:
            row = np.repeat(np.asarray(rows, dtype=int), zz.size // max(1, len(rows)))
        outside, overflow = self.off_domain(zz, self.x21[row])
        if outside.any():
            raise ContinuationDomainError(
                f"z outside the evaluation region Re z > 0, |Im z| < {_FAST_REGION_SLOPE} Re z")
        if overflow.any():
            raise _overflow_error()
        parts = [self._block(zz[start:start + _BLOCK], row[start:start + _BLOCK], derivative)
                 for start in range(0, max(zz.size, 1), _BLOCK)]
        out = parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]
        out = [complex(v[0]) if z_in.ndim == 0 else v.reshape(z_in.shape) for v in out]
        return tuple(out) if derivative else out[0]

    def _block(self, z, row, derivative: bool):
        """eta^+ (and eta^+') at points z on rows row, from the module formula."""
        params = self.params
        lam2 = params.lam**2
        v2 = form_factor_sq(z, params)
        bracket = 2.0 * lam2 * (1j * np.pi - np.log(z))         # 2 lam^2 K_0
        if self.two_atom:
            x21 = self.x21[row]
            kp, km = _exp_pole_terms(z, x21)
            sigma_lam2 = self._sigma_lam2[row]
            bracket = bracket + sigma_lam2 * (kp + km)
        poles = _pole_sum(z, self._coeffs[row], params.omegaM, derivative)
        if not derivative:
            return (z - params.omega1 + v2 * bracket - poles,)
        poles, dpoles = poles
        dbracket = -2.0 * lam2 / z                  # dK_c/dz = ic K_c - 1/z
        if self.two_atom:
            dbracket = dbracket + sigma_lam2 * (1j * x21 * (kp - km) - 2.0 / z)
        # v2' = v2 (1/z - 4n z / (omegaM^2 + z^2)) from v2 in hand (0 where v2
        # takes its limit 0): form_factor_sq_derivative would repeat its guards
        dv2 = v2 * (1.0 / z - 4.0 * params.n_ff * z / (params.omegaM**2 + z * z))
        return (z - params.omega1 + v2 * bracket - poles,
                1.0 + dv2 * bracket + v2 * dbracket - dpoles)


@lru_cache(maxsize=64)
def _evaluator(params: ModelParams, sigma_key, x21: float) -> EtaEvaluator:
    return EtaEvaluator(params, 0 if sigma_key is None else sigma_key, x21)


def eta_evaluator(sector, x21: float, params: ModelParams) -> EtaEvaluator:
    """The cached one-row evaluator of (sector, x21); sector None is one-atom."""
    sector = as_sector(sector)
    key = None if sector is None else sector.sigma
    return _evaluator(params, key, 0.0 if sector is None else float(x21))


def eta_plus(z, sector, x21, params: ModelParams):
    """eta_j^+(z); vectorized over z. sector None means the one-atom function."""
    return eta_evaluator(sector, x21, params).values(z)


def eta_plus_derivative(z, sector, x21, params: ModelParams):
    """(eta^+(z), d eta^+/dz), the derivative in closed form."""
    return eta_evaluator(sector, x21, params).values(z, derivative=True)


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


def _root_record(z, sigma, deta):
    """The certified record of a converged root, or its WrongBranchError."""
    try:
        return ComplexEnergy.from_root(complex(z), _SECTORS[sigma], 0, 1.0 / complex(deta))
    except WrongBranchError as exc:
        return exc


def solve_poles(ev: EtaEvaluator, seeds, rows=None) -> list:
    """Roots of eta^+ on rows of ev, seeds[i] on row rows[i] (default row i).

    Every row runs the same two phases, masked, with one batched eta^+
    evaluation per round: a damped fixed point z <- z - alpha*eta that
    backtracks on alpha (at most _MAX_DAMPED steps) until |eta| < 1e-3, then
    Newton until |eta| < ROOT_TOL*max(1, |z|) (at most _MAX_NEWTON steps).
    Each row keeps its own alpha and step budgets. A row whose seed or step
    leaves the evaluation region, trips the overflow guard, runs out of
    steps or converges onto the wrong branch fails alone.

    Returns per row a certified ComplexEnergy with normalization
    N = 1/eta^+'(z), or the SolverError the row failed with.
    """
    z = np.array(seeds, dtype=complex).ravel()
    rows = np.arange(z.size) if rows is None else np.asarray(rows, dtype=int)
    x21 = ev.x21[rows]
    f = np.zeros(z.size, dtype=complex)
    df = np.zeros(z.size, dtype=complex)
    alpha = np.full(z.size, 0.5)
    damped_steps = np.zeros(z.size, dtype=int)
    newton_steps = np.zeros(z.size, dtype=int)
    newton = np.zeros(z.size, dtype=bool)
    live = np.ones(z.size, dtype=bool)
    result = [None] * z.size

    def fail(mask, error):
        if mask.any():
            for i in np.flatnonzero(mask & live):
                result[i] = error(i)
            live[mask] = False

    def evaluate(points, mask):
        """Fail the rows of mask whose point trips the overflow guard; return
        the rows evaluated, eta and eta' there, and the rows outside."""
        outside, overflow = ev.off_domain(points, x21)
        fail(mask & overflow, lambda i: _overflow_error())
        ok = mask & live & ~outside
        eta, deta = ev.values(points[ok], True, rows[ok]) if ok.any() else (f[ok], df[ok])
        return ok, eta, deta, mask & outside

    ok, f_ok, df_ok, outside = evaluate(z, live.copy())
    f[ok], df[ok] = f_ok, df_ok
    fail(outside, lambda i: ConvergenceError(f"seed {z[i]} outside the evaluation region"))
    while live.any():
        abs_f = np.abs(f)
        newton |= live & ((abs_f < 1e-3) | (damped_steps >= _MAX_DAMPED))
        done = live & newton & (abs_f < ROOT_TOL * np.maximum(1.0, np.abs(z)))
        if done.any():
            for i in np.flatnonzero(done):
                result[i] = _root_record(z[i], ev.sigma[rows[i]], df[i])
            live &= ~done
        fail(live & newton & (newton_steps >= _MAX_NEWTON), lambda i: ConvergenceError(
            f"pole Newton did not converge in {_MAX_NEWTON} steps (|f|={abs(f[i]):.2e} at z={z[i]})"))
        step_n, step_d = live & newton, live & ~newton
        trial = z.copy()
        trial[step_n] -= f[step_n] / df[step_n]
        trial[step_d] -= alpha[step_d] * f[step_d]
        newton_steps += step_n
        damped_steps += step_d
        ok, f_new, df_new, outside = evaluate(trial, step_n | step_d)
        fail(outside & step_n, lambda i: ConvergenceError(
            f"pole Newton left the evaluation region at z={trial[i]} (last |f|={abs(f[i]):.2e})"))
        alpha[outside & step_d] *= 0.5
        fail(outside & step_d & (alpha < 1e-6), lambda i: ConvergenceError(
            f"damped iteration left the evaluation region near {z[i]}"))
        take = step_n[ok] | (np.abs(f_new) < abs_f[ok])
        accept = np.zeros(z.size, dtype=bool)
        accept[ok] = take
        z[accept], f[accept], df[accept] = trial[accept], f_new[take], df_new[take]
        alpha[accept & step_d] = np.minimum(1.0, 1.3 * alpha[accept & step_d])
        reject = ok & ~accept
        alpha[reject] *= 0.5
        newton |= reject & (alpha < 1e-6)
    return result


def find_pole(sector, x21, seed, params: ModelParams, lattice_index: int = 0) -> ComplexEnergy:
    """Root of eta^+ from one seed: a one-row `solve_poles` on the cached
    evaluator of (sector, x21). Raises the row's SolverError; returns a
    certified record with normalization N = 1/eta^+'(z)."""
    root = solve_poles(eta_evaluator(sector, x21, params), [seed])[0]
    if isinstance(root, SolverError):
        raise root
    return replace(root, lattice_index=lattice_index)


@lru_cache(maxsize=8)
def one_atom_pole(params: ModelParams) -> ComplexEnergy:
    """z1 = omega_tilde_1 - i*gamma_1, seeded at the bare level; cached, since
    every sweep, zero-decay solve and lattice scan starts from it."""
    return find_pole(None, 0.0, params.omega1, params)


def pole_scan(sector, x21, n_range, params: ModelParams):
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
        raise ConfigError("pole_scan needs a two-atom sector")
    x21 = float(x21)
    z1 = one_atom_pole(params)
    if x21 > 1.0 / z1.gamma:
        import warnings

        warnings.warn(f"x21={x21} beyond 1/gamma_1={1.0 / z1.gamma:.1f}; Eq-lattice seeding degrades",
                      stacklevel=2)
    ev = eta_evaluator(sector, x21, params)
    try:
        principal = find_pole(sector, x21, z1.value, params, lattice_index=0)
    except ConvergenceError:
        # in narrow distance windows z1 sits between the principal pole and
        # its n = -sigma neighbour, pi/x21 to the -sigma side, and the damped
        # map stalls between them: seed pi/(2 x21) to the sigma side of z1,
        # then to the other side
        quarter = 0.5 * np.pi / x21 * sector.sigma
        roots = [r for r in solve_poles(ev, [z1.value + quarter, z1.value - quarter], [0, 0])
                 if not isinstance(r, SolverError)]
        if not roots:
            raise
        principal = roots[0]
    fdf = partial(ev.values, derivative=True)
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
            except SolverError:
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


class EstimateDivergence(SolverError):
    """The weak-coupling fixed point ran away (e^{gamma x21} feedback)."""


def weak_coupling_estimate(sector, x21, params: ModelParams) -> ComplexEnergy:
    """Self-consistent weak-coupling pole estimate (seed generator, O(lam^4)).

    Iterates the pole-contribution equations for (omega_tilde, gamma),
    anchored at the one-atom pole so the one-atom level shift is not lost.
    Raises EstimateDivergence when e^{gamma x21} runs away; callers fall back
    to find_pole seeded at omega1.
    """
    sector = as_sector(sector)
    z1 = one_atom_pole(params)
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


def continuum_weight(k, sector, x21, params: ModelParams):
    """Spectral density 2 lam^2 v_k^2 (1 + sigma cos k x21) / |eta^+(k)|^2.

    Its half-line integral is 1 (completeness) and its Fourier transform is
    the survival amplitude. Vectorized over k > 0.
    """
    sector = as_sector(sector)
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k_arr <= 0):
        raise ConfigError("continuum_weight requires k > 0")
    ev = eta_evaluator(sector, x21, params)
    eta = ev.values(k_arr.astype(complex))
    v2 = np.real(form_factor_sq(k_arr, params))
    mod = 1.0 if sector is None else 1.0 + sector.sigma * np.cos(k_arr * float(x21))
    out = 2.0 * params.lam**2 * v2 * mod / np.abs(eta) ** 2
    return out if np.ndim(k) else float(out[0])


def continuum_weight_grid(sector, x21, params: ModelParams, quad=None,
                          k_max: float | None = None, t_max: float = 0.0,
                          base_step: float | None = None):
    """(k, rho) on a grid refined around every resolvable pole.

    The base grid resolves the cos(k x21) modulation and, when a Fourier
    transform up to t_max is requested, keeps panel phases t*h bounded.
    Each pole of 1/eta^+ (from pole_scan) narrower than 20 base steps gets a
    601-point window over +-12 w, w = max(gamma, 1e-8), and a graded flank
    on either side: from 12 w outward the steps grow by _FLANK_RATIO from
    the window's spacing until they reach the base step, so the
    1/(k - omega)^2 tails are resolved and the sum rule int rho = 1 holds
    for widths down to 1e-8. Needed by the survival-amplitude quadrature.

    k_max and base_step must be positive and t_max >= 0, all finite; None
    takes the default. quad is ignored: eta^+ is in closed form. The slot
    stays only because the benchmark passes it positionally; the next
    benchmark change removes it.
    """
    sector = as_sector(sector)
    for name, value, zero_ok in (("k_max", k_max, False), ("base_step", base_step, False),
                                 ("t_max", t_max, True)):
        if value is not None and not (finite_real(value, name) > 0 or zero_ok and value == 0):
            raise ConfigError(f"{name} must be {'>= 0' if zero_ok else 'positive'}, got {value!r}")
    t_max = t_max or 0.0
    k_max = 16.0 * params.omegaM if k_max is None else k_max
    if base_step is None:
        base_step = 2.5e-3
        if sector is not None and x21 > 0:
            base_step = min(base_step, (2.0 * np.pi / x21) / 24.0)
    if t_max > 0:
        base_step = min(base_step, np.pi / (4.0 * t_max))
        if k_max / base_step > 4.0e6:
            raise QuadratureError(
                f"oscillatory budget exceeded: t_max={t_max} needs {k_max / base_step:.0f} grid points"
            )
    pieces = [np.linspace(1e-9, k_max, int(np.ceil(k_max / base_step)) + 1)]
    if sector is None:
        poles = [one_atom_pole(params)]
    else:
        n_side = int(np.ceil(3.0 * params.omega1 * x21 / (2.0 * np.pi))) + 1
        poles, _ = pole_scan(sector, x21, range(-n_side, n_side + 1), params)
    for rec in poles:
        if not (0 < rec.omega_tilde < k_max):
            continue
        width = max(rec.gamma, 1e-8)
        if width > 20.0 * base_step:
            continue
        lo = max(1e-9, rec.omega_tilde - 12.0 * width)
        hi = min(k_max, rec.omega_tilde + 12.0 * width)
        pieces.append(np.linspace(lo, hi, 601))
        # graded flanks: steps grow by _FLANK_RATIO from the window's spacing
        # until they reach the base step
        spacing = 24.0 * width / 600
        n_flank = np.log(base_step / spacing) / np.log(_FLANK_RATIO)
        offsets = 12.0 * width + np.cumsum(spacing * _FLANK_RATIO ** np.arange(1, n_flank))
        flanks = np.concatenate([rec.omega_tilde - offsets, rec.omega_tilde + offsets])
        pieces.append(flanks[(flanks > 1e-9) & (flanks < k_max)])
    kgrid = np.unique(np.concatenate(pieces))
    rho = continuum_weight(kgrid, sector, x21, params)
    return kgrid, rho


@dataclass
class ContourMap:
    """log(1/|eta^+|) on a rectangle; overflow cells carry `sentinel`."""

    re: np.ndarray
    im: np.ndarray
    values: np.ndarray          # shape (n_im, n_re), row-major over im then re
    overflow_count: int
    sentinel: float = -1.0e6


def contour_map(region, grid, sector, x21, params: ModelParams) -> ContourMap:
    """Map of log(1/|eta_j^+(z)|) over region=(re_min, re_max, im_min, im_max)
    with grid=(nx, ny), from one batched eta^+ evaluation of the cells in the
    evaluation region. Output is NaN-free; cells outside the region or beyond
    the overflow guard are set to the sentinel and counted."""
    sector = as_sector(sector)
    re_min, re_max, im_min, im_max = region
    nx, ny = grid
    res = np.linspace(re_min, re_max, nx)
    ims = np.linspace(im_min, im_max, ny)
    ev = eta_evaluator(sector, x21, params)
    z = res[None, :] + 1j * ims[:, None]
    outside, overflow = ev.off_domain(z, ev.x21[0])
    ok = ~(outside | overflow)
    values = np.full((ny, nx), ContourMap.sentinel)
    if ok.any():
        mag = np.abs(ev.values(z[ok]))
        values[ok] = -np.log(np.where(mag > 0, mag, np.finfo(float).tiny))
    return ContourMap(res, ims, values, int((~ok).sum()))


def pole_records_to_csv(records, path) -> None:
    write_csv(path, ["sector", "n", "re", "im", "gamma", "re_N", "im_N"], (
        [rec.sector, rec.lattice_index, rec.value.real, rec.value.imag, rec.gamma,
         rec.normalization.real, rec.normalization.imag] for rec in records))


def contour_to_csv(cmap: ContourMap, path) -> None:
    write_csv(path, ["re", "im", "log_inv_abs_eta"], (
        [re, im, cmap.values[iy, ix]]
        for iy, im in enumerate(cmap.im) for ix, re in enumerate(cmap.re)))
