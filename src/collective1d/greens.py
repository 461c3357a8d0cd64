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
real axis, where `poles_in_box` counts them). The e^{i z x21} term carries
the e^{gamma x21} growth that drives the collective physics; it overflows
double precision at gamma*x21 > 650 and is guarded, not saturated.
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
    "solve_poles",
    "find_pole",
    "one_atom_pole",
    "pole_scan",
    "poles_in_box",
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
_CENSUS_SLOPE = _FAST_REGION_SLOPE - 0.01   # census polygons keep |Im z| <= slope * Re z
_CENSUS_CUTS = 60          # census: cuts before a polygon that will not settle fails
_CENSUS_NODES = 8 * _BLOCK  # census: contour nodes per batched eta^+ call
_EXCLUSION_GRID = (9, 3)    # census exclusion: samples per box along Re z and Im z
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
    the power overflows, v^2 takes its limit 0. Raises FormFactorPoleError
    within 1e-9 omegaM of the poles at +-i omegaM."""
    z_arr = np.asarray(z, dtype=complex)
    om = params.omegaM
    near = np.minimum(np.abs(z_arr - 1j * om), np.abs(z_arr + 1j * om))
    if np.any(near < 1e-9 * om):
        raise FormFactorPoleError("z within tolerance of the form-factor poles at +-i*omegaM")
    out = _form_factor_sq(z_arr, params)
    return out if np.ndim(z) else complex(out)


def _form_factor_sq(z, params: ModelParams):
    """v(z)^2 on a complex array, unguarded: for points known to lie off
    +-i omegaM, as all of the evaluation region |Im z| < 0.7 Re z does."""
    q = 1.0 + (z / params.omegaM) ** 2
    far = _beyond_range(q, 2 * params.n_ff + 1)
    overflow = far.any()
    if overflow:
        q = np.where(far, 1.0, q)       # placeholder; the limit 0 goes in below
    out = z / q ** (2 * params.n_ff)
    return np.where(far, 0.0, out) if overflow else out


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
        v2 = _form_factor_sq(z, params)
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


def newton(fdf, z, tol: float, max_iter: int, what: str):
    """Newton iteration z <- z - f/f' with fdf(z) = (f(z), f'(z)).

    Converged when |f| < tol*max(1, |z|) at the z returned; returns (z, f'(z))
    so a residue 1/f' belongs to that root. A caller with no derivative
    returns (f, None): the step then takes the secant slope through the
    previous iterate, and slope 1 on the first step, so that step is z - f.
    Leaving the evaluation region (ContinuationDomainError), a zero or
    non-finite secant slope or running out of max_iter steps raises
    ConvergenceError naming the solve `what`.
    """
    z = complex(z)
    z_prev = f_prev = f = None
    try:
        f, df = fdf(z)
        for _ in range(max_iter):
            if abs(f) < tol * max(1.0, abs(z)):
                return z, df
            slope = df
            if slope is None:
                slope = 1.0 if z_prev is None else 0.0 if z == z_prev else (f - f_prev) / (z - z_prev)
                if slope == 0 or not np.isfinite(slope):
                    raise ConvergenceError(f"{what} has secant slope {slope} at z={z} (|f|={abs(f):.2e})")
            z_prev, f_prev = z, f
            z = z - f / slope
            f, df = fdf(z)
    except ContinuationDomainError as exc:
        last = "none" if f is None else f"{abs(f):.2e}"
        raise ConvergenceError(f"{what} left the evaluation region at z={z} (last |f|={last})") from exc
    if abs(f) < tol * max(1.0, abs(z)):
        return z, df
    raise ConvergenceError(f"{what} did not converge in {max_iter} steps (|f|={abs(f):.2e} at z={z})")


def _root_record(z, sigma, deta):
    """The certified record of a converged root, or its WrongBranchError."""
    try:
        return ComplexEnergy.from_root(complex(z), _SECTORS[sigma], 0, 1.0 / complex(deta))
    except WrongBranchError as exc:
        return exc


def solve_poles(ev: EtaEvaluator, seeds) -> list:
    """Roots of eta^+ on the rows of ev, seeds[i] on row i.

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
    rows = np.arange(z.size)
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
                result[i] = _root_record(z[i], ev.sigma[i], df[i])
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


def _clip(v, w: complex, c: complex = 0.0):
    """The part of convex polygon v (its vertices) where Re(w (z - c)) >= 0."""
    d = (w * (v - c)).real
    if np.all(d >= 0):
        return v
    piece = []
    for a, b, da, db in zip(v, np.roll(v, -1), d, np.roll(d, -1)):
        if da >= 0:
            piece.append(a)
        if da * db < 0:
            piece.append(a + (b - a) * da / (da - db))
    return np.array(piece)


def _contour(v, panel: float):
    """The census contour of convex polygon v (its vertices, anticlockwise):
    nodes z and weights dz of 16-point Gauss-Legendre panels no longer than
    min(0.05, panel, r/2) along every side, with the centre c and half the
    longer side r of its bounding box."""
    lo, hi = complex(v.real.min(), v.imag.min()), complex(v.real.max(), v.imag.max())
    c, r = 0.5 * (lo + hi), 0.5 * max(hi.real - lo.real, hi.imag - lo.imag)
    sides = np.roll(v, -1) - v
    m = np.maximum(1, np.ceil(np.abs(sides) / min(0.05, panel, 0.5 * r))).astype(int)
    step = np.repeat(sides / m, m)[:, None]     # m[i] panels along side i, round the polygon
    z = v[0] + np.cumsum(step, axis=0) - step + 0.5 * step * (_GL_NODES + 1.0)
    return z.ravel(), (0.5 * step * _GL_WEIGHTS).ravel(), c, r


def _census_boxes(ev: EtaEvaluator, boxes) -> list:
    """Certified roots of eta^+ on the one row of ev in each box (lo, hi) of
    boxes, clipped to |Im z| <= 0.69 Re z: per box a list sorted by Re z.

    Every polygon follows one rule, by the argument principle: the count s_0
    and moments s_1..s_4 of u = (z - c)/r on its `_contour`. Newton's
    identities turn an integral count n <= 4 (within 1e-3) into seeds for
    `newton`; otherwise, or unless they polish to n distinct roots inside,
    the polygon is cut across the longer side of its bounding box, up to
    _CENSUS_CUTS times before SolverError. Each round takes pending polygons
    until their nodes reach _CENSUS_NODES, evaluates all their contours in
    one `ev.values` call and takes each polygon's moments as segment sums of
    it; the cuts of a round are pending in the next."""
    panel = 1.0 / ev.x21[0] if ev.two_atom else np.inf
    pending = [(_clip(_clip(np.array([lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]),
                            _CENSUS_SLOPE - 1j), _CENSUS_SLOPE + 1j), 0, box)
               for box, (lo, hi) in enumerate(boxes)]
    found = [[] for _ in boxes]
    while pending:
        batch, nodes, weights = [], [], []
        while pending and sum(map(len, nodes)) < _CENSUS_NODES:
            v, cuts, box = pending.pop()
            z, dz, c, r = _contour(v, panel)
            batch.append((v, cuts, box, c, r))
            nodes.append(z)
            weights.append(dz)
        sizes = [len(z) for z in nodes]
        z = np.concatenate(nodes)
        eta, deta = ev.values(z, derivative=True)
        term = deta / eta * np.concatenate(weights) / (2j * np.pi)
        u = (z - np.repeat([item[3] for item in batch], sizes)) / np.repeat([item[4] for item in batch], sizes)
        starts = np.cumsum([0] + sizes[:-1])
        moments = np.empty((len(batch), 5), dtype=complex)
        for p in range(5):
            moments[:, p] = np.add.reduceat(term, starts)
            term *= u
        for (v, cuts, box, c, r), s in zip(batch, moments):
            n, roots = int(round(s[0].real)), None
            if abs(s[0] - n) < 1e-3 and 0 <= n <= 4:
                coeffs = [1.0]      # Newton's identities: k a_k = -sum_i a_(k-i) s_i
                for k in range(1, n + 1):
                    coeffs.append(-sum(coeffs[k - i] * s[i] for i in range(1, k + 1)) / k)
                try:
                    polished = [newton(partial(ev.values, derivative=True), c + r * w, ROOT_TOL,
                                       _MAX_NEWTON, "census root Newton") for w in np.roots(coeffs)]
                    roots = [ComplexEnergy.from_root(q, _SECTORS[ev.sigma[0]], 0, 1 / df)
                             for q, df in polished]
                except SolverError:
                    pass
            if roots is not None and all(
                    np.all((np.conj(np.roll(v, -1) - v) * (q.value - v)).imag >= 0)
                    and all(abs(q.value - p.value) >= 1e-6 * ev.params.omega1 for p in roots[:i])
                    for i, q in enumerate(roots)):
                found[box] += roots
                continue
            lo, hi = complex(v.real.min(), v.imag.min()), complex(v.real.max(), v.imag.max())
            if cuts == _CENSUS_CUTS:
                raise SolverError(f"pole census did not settle in {lo} to {hi} (count {s[0]:.6g})")
            rot = 1.0 if hi.real - lo.real >= hi.imag - lo.imag else -1j
            pending += [(_clip(v, keep * rot, c), cuts + 1, box) for keep in (-1.0, 1.0)]
    return [sorted(recs, key=lambda rec: rec.omega_tilde) for recs in found]


def poles_in_box(ev: EtaEvaluator, lo: complex, hi: complex) -> list:
    """Certified roots of eta^+ on the one row of ev, sorted by Re z, in the box
    from corner lo to corner hi clipped to |Im z| <= 0.69 Re z: the census
    loop `_census_boxes` on that one box. Its contour panels are no longer
    than min(0.05, 1/x21, r/2), r half the longer side of the bounding box;
    a box that does not settle in _CENSUS_CUTS cuts raises SolverError."""
    return _census_boxes(ev, [(lo, hi)])[0]


def _census_tiling(ev: EtaEvaluator, re_lo: float, re_hi: float, depth: float) -> list:
    """The census boxes (lo, hi), at most 0.5 wide, over Re z in [re_lo,
    re_hi] (from 0.05*omega1 up) and Im z from -min(depth, 600/x21), inside
    the overflow guard, to Im z = 0.05 (zero-decay poles sit on the axis,
    none above it), in order of Re z."""
    re_lo = max(re_lo, 0.05 * ev.params.omega1)
    edges = np.linspace(re_lo, re_hi, max(1, math.ceil((re_hi - re_lo) / 0.5) + 1))
    bottom = -min(depth, 600.0 / ev.x21[0] if ev.two_atom else np.inf)
    return [(complex(a, bottom), complex(b, 0.05)) for a, b in zip(edges, edges[1:])]


def _excluded(ev: EtaEvaluator, boxes) -> np.ndarray:
    """Mask of the boxes (lo, hi) that hold no root of eta^+ on the one row
    of ev, by the exclusion eta^+ = A + c e^{izx21}, c = 2 pi i sigma lam^2 v^2:
    no root lies where |A| > |c| e^{-x21 Im z}. Each box inside |Im z| <=
    0.69 Re z is sampled on a _EXCLUSION_GRID of points, corners included;
    g = |A| - |c| e^{-x21 Im z} is bounded below over the box by its
    smallest sample minus rho L, rho the half-diagonal of a grid cell and L
    twice the largest sample of |A'| + (|c'| + x21 |c|) e^{-x21 Im z}, which
    bounds |grad g|. A box whose bound is positive is excluded. A and A' are
    eta^+ and eta^+' less the e^{izx21} term, from one `ev.values` call per
    slice of at most _CENSUS_NODES samples; boxes clipped by the 0.69 fence
    are never excluded."""
    params, x21 = ev.params, ev.x21[0]
    nx, ny = _EXCLUSION_GRID
    lo = np.array([box[0] for box in boxes])
    span = np.array([box[1] for box in boxes]) - lo
    inside = _CENSUS_SLOPE * lo.real >= np.maximum(-lo.imag, lo.imag + span.imag)
    lo, span = lo[inside], span[inside]
    samples = (lo[:, None, None] + span.real[:, None, None] * np.linspace(0.0, 1.0, nx)[:, None]
               + 1j * span.imag[:, None, None] * np.linspace(0.0, 1.0, ny))
    rho = 0.5 * np.hypot(span.real / (nx - 1), span.imag / (ny - 1))
    lower = np.empty(lo.size)
    step = _CENSUS_NODES // (nx * ny)
    for start in range(0, lo.size, step):
        part = slice(start, start + step)
        z = samples[part]
        eta, deta = ev.values(z, derivative=True)
        v2 = _form_factor_sq(z, params)
        dv2 = v2 * (1.0 / z - 4.0 * params.n_ff * z / (params.omegaM**2 + z * z))   # as in _block
        c, dc = 2j * np.pi * ev._sigma_lam2[0] * np.array([v2, dv2])
        phase = np.exp(1j * x21 * z)
        a, da = eta - c * phase, deta - (dc + 1j * x21 * c) * phase
        decay = np.abs(phase)                  # e^{-x21 Im z}
        g = np.abs(a) - np.abs(c) * decay
        slope = np.abs(da) + (np.abs(dc) + x21 * np.abs(c)) * decay
        lower[part] = g.min(axis=(1, 2)) - rho[part] * 2.0 * slope.max(axis=(1, 2))
    out = np.zeros(len(boxes), dtype=bool)
    out[inside] = lower > 0
    return out


def _census(ev: EtaEvaluator, re_lo: float, re_hi: float, depth: float = np.inf) -> list:
    """The roots of the `_census_tiling` boxes over Re z in [re_lo, re_hi]
    down to depth, box by box in order of Re z: one `_census_boxes` loop over
    all columns. A finite depth (the strip of `continuum_weight_grid`) first
    drops the boxes that `_excluded` shows to hold no root, which are most
    of the strip; the deep censuses of `pole_scan` and `_find_poles` count
    every box."""
    boxes = _census_tiling(ev, re_lo, re_hi, depth)
    if np.isfinite(depth):
        boxes = [box for box, empty in zip(boxes, _excluded(ev, boxes)) if not empty]
    return [rec for recs in _census_boxes(ev, boxes) for rec in recs]


def _find_poles(ev: EtaEvaluator, seeds) -> list:
    """Roots of eta^+ on every row i of ev from seeds[i], by one rule: one
    `solve_poles` call over all rows, after which each two-atom row that
    failed to converge from a seed in the region, or landed more than
    pi/x21 away in Re, takes instead the root of a census of Re z within
    pi/x21 of its seed that is nearest the seed with
    sigma*(Re z - Re seed) >= 0, if there is one. The census runs on ev when
    ev has one row, else on an uncached one-row evaluator of that row.
    Returns per row a certified ComplexEnergy or the SolverError the row
    failed with; a census that raises fails its row alone."""
    seeds = np.asarray(seeds, dtype=complex).ravel()
    roots = solve_poles(ev, seeds)
    if not ev.two_atom:
        return roots
    outside = ev.off_domain(seeds, 0.0)[0]
    for i, (root, seed, sigma, x21) in enumerate(zip(roots, seeds, ev.sigma, ev.x21)):
        stray = (abs(root.omega_tilde - seed.real) * x21 > np.pi if isinstance(root, ComplexEnergy)
                 else isinstance(root, ConvergenceError) and not outside[i])
        if not stray:
            continue
        one = ev if ev.sigma.size == 1 else EtaEvaluator(ev.params, sigma, x21)
        try:
            side = [r for r in _census(one, seed.real - np.pi / x21, seed.real + np.pi / x21)
                    if sigma * (r.omega_tilde - seed.real) >= 0]
        except SolverError as exc:
            roots[i] = exc
            continue
        roots[i] = min(side, key=lambda r: abs(r.value - seed), default=root)
    return roots


def find_pole(sector, x21, seed, params: ModelParams) -> ComplexEnergy:
    """Root of eta^+ from one seed: `_find_poles` on the cached evaluator of
    (sector, x21). Raises the row's SolverError, or returns a certified
    record (lattice index 0) with normalization N = 1/eta^+'(z)."""
    root = _find_poles(eta_evaluator(sector, x21, params), [seed])[0]
    if isinstance(root, SolverError):
        raise root
    return root


@lru_cache(maxsize=8)
def one_atom_pole(params: ModelParams) -> ComplexEnergy:
    """z1 = omega_tilde_1 - i*gamma_1, seeded at the bare level; cached, since
    every sweep, zero-decay solve and lattice scan starts from it."""
    return find_pole(None, 0.0, params.omega1, params)


def pole_scan(sector, x21, n_range, params: ModelParams):
    """Lattice poles z_{j,n} for n in n_range: n = 0 is `find_pole` from z1,
    and in order of |n| each other n labels, from one census of the band of
    targets Re z_j + 2n pi/x21 (sigma*n > 0) or + (2n+sigma) pi/x21, the root
    nearest its target in Re within 0.35 * 2pi/x21 that is not within
    1e-6*omega1 of one already labelled. Returns (records sorted by Re z,
    missing_n): targets at or below 0.05*omega1, or with no root, are missing."""
    sector = as_sector(sector)
    if sector is None:
        raise ConfigError("pole_scan needs a two-atom sector")
    principal = find_pole(sector, x21, one_atom_pole(params).value, params)
    sigma, window, floor = sector.sigma, 0.35 * 2.0 * np.pi / x21, 0.05 * params.omega1
    targets = {n: principal.omega_tilde + (2 * n if sigma * n > 0 else 2 * n + sigma) * np.pi / x21
               for n in sorted(n_range, key=abs) if n != 0}
    reach = [t for t in targets.values() if t > floor]
    roots = _census(eta_evaluator(sector, x21, params), min(reach) - window,
                    max(reach) + window) if reach else []
    records, missing = {0: principal}, []
    for n, target in targets.items():
        near = [r for r in roots if target > floor and abs(r.omega_tilde - target) <= window
                and all(abs(r.value - s.value) >= 1e-6 * params.omega1 for s in records.values())]
        if near:
            records[n] = replace(min(near, key=lambda r: abs(r.omega_tilde - target)), lattice_index=n)
        else:
            missing.append(n)
    return sorted(records.values(), key=lambda r: r.omega_tilde), missing


class EstimateDivergence(SolverError):
    """The weak-coupling fixed point ran away (e^{gamma x21} feedback)."""


def weak_coupling_estimate(sector, x21, params: ModelParams) -> ComplexEnergy:
    """Self-consistent weak-coupling estimate of the n = 0 pole, O(lam^4):
    an uncertified approximation that demo 01 and the tests set beside the
    exact pole. No solver seeds from it.

    Iterates the pole-contribution equations for (omega_tilde, gamma),
    anchored at the one-atom pole so the one-atom level shift is not lost.
    Raises EstimateDivergence when e^{gamma x21} runs away.
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


def continuum_weight_grid(sector, x21, params: ModelParams, quad=None, t_max: float = 0.0):
    """(k, rho) on a grid refined around every resolvable pole.

    The base grid spans (0, k_max], k_max = 16 omegaM, in steps of at most
    2.5e-3 that resolve the cos(k x21) modulation (2pi/(24 x21)) and, when
    a Fourier transform up to t_max is requested, keep panel phases t*h
    bounded (pi/(4 t_max)). Each pole of 1/eta^+ narrower than 20 base steps
    gets a 601-point window over +-12 w, w = max(gamma, 1e-8), and a graded
    flank on either side: from 12 w outward the steps grow by _FLANK_RATIO
    from the window's spacing until they reach the base step, so the
    1/(k - omega)^2 tails are resolved and the sum rule int rho = 1 holds
    for widths down to 1e-8. Needed by the survival-amplitude quadrature.
    The poles come from a census of that strip, Re z in [0.05 omega1, k_max],
    which first excludes every box inside |Im z| <= 0.69 Re z where
    |A| > |c e^{izx21}| (eta^+ = A + c e^{izx21}, `_excluded`): such a box
    holds no root, and at the defaults that is all but two or three of the
    160 boxes.

    t_max must be finite and >= 0. quad is ignored: eta^+ is in closed
    form. The slot stays only because the benchmark passes it positionally;
    the next benchmark change removes it.
    """
    sector = as_sector(sector)
    if not finite_real(t_max, "t_max") >= 0:
        raise ConfigError(f"t_max must be >= 0, got {t_max!r}")
    k_max, base_step = 16.0 * params.omegaM, 2.5e-3
    if sector is not None and x21 > 0:
        base_step = min(base_step, (2.0 * np.pi / x21) / 24.0)
    if t_max > 0:
        base_step = min(base_step, np.pi / (4.0 * t_max))
        if k_max / base_step > 4.0e6:
            raise QuadratureError(
                f"oscillatory budget exceeded: t_max={t_max} needs {k_max / base_step:.0f} grid points"
            )
    pieces = [np.linspace(1e-9, k_max, int(np.ceil(k_max / base_step)) + 1)]
    for rec in _census(eta_evaluator(sector, x21, params), 0.0, k_max, 20.0 * base_step):
        width = max(rec.gamma, 1e-8)
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
