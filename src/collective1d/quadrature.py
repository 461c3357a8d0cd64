"""Quadrature backbone: adaptive Gauss panels, the closed-form pole
integrals behind eta^+ and the collective field, and a Filon integrator for
strongly oscillatory transforms.

The continued integrals F(z) = int_0^inf N(k) e^{ikc} / (z - k) dk, with
N(k) = k^e (1 + k^2/omegaM^2)^-r, follow the retarded (+) branch: the plain
integral above the real axis and its analytic continuation below. N is
rational, so partial fractions split N(k)/(z - k) into -N(z)/(k - z) and
principal parts of order r at p = +-i omegaM, and every piece is one of

    I_m(p, c) = int_0^inf e^{ikc} (k - p)^-m dk = (-p)^(1-m) e^w E_m(w),  w = ipc

(A&S 5.1; E_m on the side of its cut that the path k -> inf leaves w
toward). The pole at z gives -N(z) K_c(z) (`_exp_pole_terms`); those at
+-i omegaM give coefficients free of z (`_pole_coefficients`), so a point
costs one e^w E_1(w) per c != 0 and a rational function (`_pole_sum`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConfigError, SolverError

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "ContinuationDomainError",
    "adaptive_integral",
    "halfline_integral",
    "RayKernel",
    "Jet",
    "fourier_halfline",
]

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_BLOCK = 1024            # points per block of exponential-integral and eta^+ work arrays
_SERIES_CELLS = 1 << 14  # complex elements per power-series work array (points x terms)
_SIDES = np.array([1.0, -1.0])     # the form-factor poles p = s*i*omegaM
_PHASE_BUDGET = 10_000   # complex phases per work array of a phase sum or of direct Filon pairs
# Taylor coefficients of the Filon weights in s = theta^2, highest power
# first, one column per real polynomial: w0 = p0(s) - i theta p1(s) and
# w1 = p2(s) - i theta p3(s)
_M = np.arange(5, -1, -1)
_EVEN = (-1.0) ** _M / np.array([math.factorial(2 * m + 2) for m in _M], dtype=float)
_ODD = (-1.0) ** _M / np.array([math.factorial(2 * m + 3) for m in _M], dtype=float)
_FILON_SERIES = np.stack([_EVEN, _ODD, (2 * _M + 1) * _EVEN, (2 * _M + 2) * _ODD], axis=1)[..., None]


class QuadratureError(SolverError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ContinuationDomainError(ConfigError):
    """z lies where the + continuation is not defined by this routine."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Cutoff and tolerance budget of the adaptive integrator
    (`adaptive_integral`, `halfline_integral`); the closed-form eta^+ does
    not read it.

    cutoff     : upper limit of the resolved range; the [cutoff, inf) tail is
                 folded in by a 1/k substitution, so cutoff only needs to
                 dominate the structured part of the integrand (>= 50*omegaM).
    rel_tol, abs_tol : accepted error, max(abs_tol, rel_tol*|I|).
    max_panels : subdivision budget before QuadratureError.
    """

    cutoff: float = 1000.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_panels: int = 24000

    @classmethod
    def for_params(cls, params, **overrides) -> "QuadratureSpec":
        kwargs = {"cutoff": 200.0 * params.omegaM}
        kwargs.update(overrides)
        return cls(**kwargs)


_NODES_BOTH = np.concatenate([_NODES_HI, _NODES_LO])


def _panel_estimates(f, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES_BOTH[None, :]
    vals = np.asarray(f(x.ravel())).reshape(x.shape)
    fine = (vals[:, : _NODES_HI.size] * _WEIGHTS_HI[None, :]).sum(axis=1) * half
    coarse = (vals[:, _NODES_HI.size :] * _WEIGHTS_LO[None, :]).sum(axis=1) * half
    return fine, np.abs(fine - coarse)


def adaptive_integral(f, a: float, b: float, spec: QuadratureSpec, seed_edges=None,
                      soft_cap: float = 0.0) -> complex:
    """Adaptive 15/7 Gauss panels on [a, b]; f vectorized, may return complex.

    soft_cap > 0 allows a best-effort return when the panel budget runs out
    but the error estimate is below soft_cap (used for tail pieces whose
    contribution is already near the tolerance floor)."""
    if seed_edges is None:
        edges = np.linspace(a, b, 17)
    else:
        edges = np.unique(np.clip(np.asarray(seed_edges, dtype=float), a, b))
        edges = np.union1d(edges, [a, b])
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    vals, errs = _panel_estimates(f, lo, hi)
    while True:
        # a non-finite estimate never selects a panel to split: stop here
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))):
            raise QuadratureError(
                f"non-finite panel estimate on [{a}, {b}] ({lo.size} panels): "
                "the integrand returned nan or inf")
        total = vals.sum()
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if errs.sum() <= tol:
            return total
        if lo.size >= spec.max_panels:
            if errs.sum() <= soft_cap:
                return total
            raise QuadratureError(
                f"quadrature non-convergence: {lo.size} panels, error {errs.sum():.2e} > {tol:.2e}"
            )
        # split every panel whose error exceeds its equal share
        share = tol / max(1, lo.size) * 0.5
        split = errs > share
        if not split.any():
            split = errs >= errs.max() * 0.5
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        vals, errs = _panel_estimates(f, lo, hi)


def _tail_integral(f, spec: QuadratureSpec) -> complex:
    """int_cutoff^inf f(k) dk via k = cutoff/u, u in (0, 1].

    Oscillations of f are unresolvable arbitrarily far out, but by parts they
    die at least one power of k faster than the envelope, so a best-effort
    pass capped at ~1e4*abs_tol of estimated error is an honest tail bound.
    """
    lam = spec.cutoff

    def g(u):
        u = np.asarray(u)
        return f(lam / u) * lam / u**2

    return adaptive_integral(g, 1e-9, 1.0, spec, soft_cap=1e4 * spec.abs_tol)


def halfline_integral(f, spec: QuadratureSpec) -> complex:
    """int_0^inf f(k) dk for f decaying at least like k^-2."""
    return adaptive_integral(f, 0.0, spec.cutoff, spec) + _tail_integral(f, spec)


class RayKernel:
    """I_m(z) = int numer(k) e^{ikc} / (z - k)^m dk (m = 1, 2) along the ray
    arg k = sign(c) pi/4, where e^{ikc} decays, by 24 Gauss panels of 32
    nodes on k = scale t / (1 - t); continuation terms are the caller's.
    A cross-check of the closed form: no package code calls it."""

    _X, _W = np.polynomial.legendre.leggauss(32)
    _T = ((np.arange(24)[:, None] + 0.5 + 0.5 * _X) / 24.0).ravel()
    _GW = np.tile(_W / 48.0, 24)

    def __init__(self, numer, c: float, scale: float):
        phase = np.exp(0.25j * np.pi * (1.0 if c >= 0 else -1.0))
        self.nodes = scale * self._T / (1.0 - self._T) * phase
        self.weights = (numer(self.nodes) * np.exp(1j * self.nodes * c)
                        * scale / (1.0 - self._T) ** 2 * phase * self._GW)

    def integrals(self, z, second: bool = False):
        """I_1(z) (and I_2(z) if second) for scalar or array z."""
        inv = 1.0 / (np.asarray(z, dtype=complex)[..., None] - self.nodes)
        out = [inv @ self.weights, (inv * inv) @ self.weights][:1 + second]
        out = [complex(v) if v.ndim == 0 else v for v in out]
        return tuple(out) if second else out[0]


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor series sum_m c_m (k - center)^m, m <= order.

    Arithmetic is exact truncated-series algebra: products are Cauchy
    convolutions cut at the common order, exp/reciprocal use the standard
    series recurrences. The n-th derivative at the center is n! * c_n.
    """

    center: complex
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: complex, center: complex, order: int) -> "Jet":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return Jet(complex(center), c)

    @staticmethod
    def variable(center: complex, order: int) -> "Jet":
        jet = Jet.constant(center, center, order)
        jet.coeffs[1:2] = 1.0
        return jet

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.center != self.center:
                raise ConfigError("jets must share a center")
            return other
        return Jet.constant(complex(other), self.center, self.order)

    def __add__(self, other) -> "Jet":
        other = self._coerce(other)
        n = min(self.order, other.order)
        return Jet(self.center, self.coeffs[: n + 1] + other.coeffs[: n + 1])

    __radd__ = __add__

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.center, self.coeffs * complex(other))
        other = self._coerce(other)
        n = min(self.order, other.order)
        out = np.zeros(n + 1, dtype=complex)
        for m in range(n + 1):
            out[m] = np.dot(self.coeffs[: m + 1], other.coeffs[m::-1])
        return Jet(self.center, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Jet":
        if not (isinstance(n, int) and n >= 0):
            raise ConfigError("jet powers must be non-negative integers")
        out = Jet.constant(1.0, self.center, self.order)
        base = self
        m = n
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def reciprocal(self) -> "Jet":
        if self.coeffs[0] == 0:
            raise SolverError("jet reciprocal at a zero")
        out = np.zeros(self.order + 1, dtype=complex)
        out[0] = 1.0 / self.coeffs[0]
        for m in range(1, self.order + 1):
            out[m] = -np.dot(self.coeffs[1 : m + 1], out[m - 1 :: -1]) / self.coeffs[0]
        return Jet(self.center, out)

    def exp(self) -> "Jet":
        out = np.zeros(self.order + 1, dtype=complex)
        out[0] = np.exp(self.coeffs[0])
        for m in range(1, self.order + 1):
            acc = 0.0
            for j in range(1, m + 1):
                acc += j * self.coeffs[j] * out[m - j]
            out[m] = acc / m
        return Jet(self.center, out)

    def derivative(self, n: int) -> complex:
        """f^(n)(center) = n! * c_n."""
        if n > self.order:
            raise ConfigError(f"derivative order {n} beyond jet order {self.order}")
        return complex(self.coeffs[n]) * math.factorial(n)




def _series_terms(w, m) -> int:
    """Terms of the power series of e^w E_m(w) over a block: until
    (-w)^k / k! falls below 1e-17 e^|w| at its largest |w|."""
    reach = float(np.abs(w).max())
    return max(int(reach + 10.0 * math.sqrt(reach)) + 25, int(m.max()) + 1)


def _en_series(w, m, n_terms: int):
    """e^w E_m(w) by its power series (A&S 5.1.12), summed over k < n_terms."""
    k = np.arange(n_terms)
    terms = np.ones((w.size, k.size), dtype=complex)
    terms[:, 1:] = -w[:, None] / k[1:]
    np.cumprod(terms, axis=1, out=terms)                # (-w)^k / k!
    psi = np.concatenate(([0.0], np.cumsum(1.0 / k[1:m.max()])))[m - 1] - np.euler_gamma
    log_term = terms[np.arange(w.size), m - 1] * (psi - np.log(w))
    gap = k - (m[:, None] - 1.0)
    terms *= np.divide(-1.0, gap, out=np.zeros(gap.shape), where=gap != 0)
    return np.exp(w) * (terms.sum(axis=1) + log_term)


def _en_asymptotic(w, m):
    """e^w E_m(w) ~ sum_k (-1)^k (m)_k / w^(k+1) (A&S 5.1.51), for
    |w| >= min(4m + 80, 600), where the first m + 41 terms reach 1e-17."""
    terms = np.empty((w.size, int(m.max()) + 41), dtype=complex)
    terms[:, 0] = 1.0 / w
    terms[:, 1:] = -(m[:, None] + np.arange(terms.shape[1] - 1.0)) / w[:, None]
    return np.cumprod(terms, axis=1).sum(axis=1)


@lru_cache(maxsize=32)
def _laguerre(depth: int):
    return np.polynomial.laguerre.laggauss(depth)


def _en_fraction(w, m):
    """e^w E_m(w) by the even part of its continued fraction (A&S 5.1.22;
    Numerical Recipes 6.3), backward from the depth 190/(|w| + Re w) + 3 + m:
    3e-16 against 30-digit mpmath for |arg w| <= 130 degrees at m = 1 (tight
    on the positive axis) and on the positive axis up to m = 61. For m = 1
    and depth n <= 20 the n-point Gauss-Laguerre rule for
    int_0^inf e^-s / (w + s) ds, the fraction's n-th convergent, replaces the
    n sequential levels by one broadcast (2e-15 with numpy's rules)."""
    depth = math.ceil(190.0 / (np.abs(w) + w.real).min()) + 3 + (m if np.ndim(m) == 0 else int(m.max()))
    if depth <= 20 and np.ndim(m) == 0 and m == 1:
        nodes, weights = _laguerre(depth)
        return (1.0 / np.add.outer(w, nodes)) @ weights
    shifted = np.add.outer(w + m, 2.0 * np.arange(depth))      # w + m + 2k
    f = shifted[:, -1] + 2.0
    for k in range(depth, 0, -1):
        f = shifted[:, k - 1] - k * (m + k - 1.0) / f
    return 1.0 / f


def _scaled_en(w, m=1):
    """e^w E_m(w) for complex w and integer orders m >= 1 (broadcast). On the
    negative real axis the sign of Im w = +-0 picks the side of the cut:
    e^-x E_1(-x - 0j) = -e^-x Ei(x) + i pi e^-x. Work per point is bounded,
    in blocks of at most _BLOCK points: the continued fraction where
    |w| + Re w > 3 (at most 68 levels for m = 1), else the power series
    (losing at most ~e^3 ulp; points x terms <= _SERIES_CELLS per slice), or
    near the negative axis, where |w| >= min(4m + 80, 600), the asymptotic
    series."""
    w = np.asarray(w, dtype=complex)
    flat = w.ravel()
    reach = np.abs(flat)
    near = reach + flat.real <= 3.0
    if 0 < flat.size <= _BLOCK and np.ndim(m) == 0 and not near.any():
        return _en_fraction(flat, m).reshape(w.shape)
    order = np.broadcast_to(np.asarray(m, dtype=int), w.shape).ravel()
    far = near & (reach >= np.minimum(4 * order + 80, 600))
    out = np.empty(flat.shape, dtype=complex)
    for method, mask in ((_en_fraction, ~near), (_en_series, near & ~far), (_en_asymptotic, far)):
        idx = np.flatnonzero(mask)
        for start in range(0, idx.size, _BLOCK):
            at = idx[start:start + _BLOCK]
            if method is not _en_series:
                out[at] = method(flat[at], order[at])
                continue
            # one term count per block, so each row's bits ignore the slicing
            n_terms = _series_terms(flat[at], order[at])
            step = max(1, _SERIES_CELLS // n_terms)
            for part in np.split(at, np.arange(step, at.size, step)):
                out[part] = _en_series(flat[part], order[part], n_terms)
    return out.reshape(w.shape)


def _exp_pole_terms(z, c):
    """(K_c(z), K_-c(z)) for c > 0, broadcast: the pole-at-z pieces of the +
    branch of int_0^inf N(k) e^{+-ikc} / (z - k) dk per unit -N(z),
    K_c = e^{izc} [E_1(izc) + 2 pi i], K_-c = e^{-izc} E_1(-izc) and
    K_0 = i pi - log z. Below the axis the plain integral of e^{ikc}/(k - z)
    is e^{izc} E_1(izc) (its mirror for -c, -log(-z) for c = 0) and the +
    branch adds 2 pi i N(z) e^{izc}; each K is analytic across the real axis
    for Re z > 0, with dK_c/dz = ic K_c - 1/z."""
    t = (1j * z * c).ravel()
    plus, minus = _scaled_en(np.concatenate((t, -t))).reshape(2, -1)
    return plus + 2j * np.pi * np.exp(t), minus


@lru_cache(maxsize=16)
def _laurent(omegaM: float, order: int, power: int) -> np.ndarray:
    """H[s, i, m] = h_s(order - 1 - i - m), 0 past the end, with h_s(j) the
    Taylor coefficients at u = 0 of (s i omegaM + omegaM u)^power
    (2 s i + u)^-order: N(k) = k^power (1 + k^2/omegaM^2)^-order
    = u^-order sum_j h_s(j) u^j near p = s i omegaM, u = (k - p)/omegaM."""
    u = Jet.variable(0.0, order - 1)
    # the power of the reciprocal: its Cauchy products add terms of one
    # phase, where the reciprocal of the power cancels
    h = np.array([((u + 2j * s).reciprocal() ** order * ((u + 1j * s) * omegaM) ** power).coeffs
                  for s in _SIDES])
    lag = order - 1 - np.add.outer(np.arange(order), np.arange(order))
    out = np.where(lag >= 0, h[:, np.maximum(lag, 0)], 0.0)
    out.flags.writeable = False
    return out


def _pole_coefficients(c, omegaM: float, order: int, power: int) -> np.ndarray:
    """T (len(c), 2, order), free of z: the principal parts of N(k)/(z - k)
    at p = s i omegaM add sum_s sum_i T[., s, i] (omegaM / (z - p))^(i+1)
    (`_pole_sum`) to int_0^inf N(k) e^{ikc}/(z - k) dk. T = H J, with
    J_m = int e^{ikc} u^-m dk / omegaM = (-si)^(1-m) e^w E_m(w), w = ipc,
    below the cut for c > 0; at c = 0, (-si)^(1-m)/(m - 1) and -log(-p) for
    m = 1 (the log of the cutoff cancels over the poles). Every order is
    evaluated directly: the recursion between orders amplifies rounding by
    (omegaM |c|)^m / m! upward."""
    c = np.asarray(c, dtype=float).ravel()
    m = np.arange(1, order + 1)
    s = _SIDES[:, None, None]
    w = np.empty((2, c.size, order), dtype=complex)
    w.real = -s * omegaM * np.where(c == 0, 1.0, c)[:, None]
    w.imag = np.copysign(0.0, -c)[:, None]
    at_zero = np.concatenate([0.5j * np.pi * _SIDES[:, None] - math.log(omegaM),
                              np.broadcast_to(1.0 / m[:-1], (2, order - 1))], axis=1)
    scaled = np.where((c == 0)[:, None], at_zero[:, None, :], _scaled_en(w, m))
    return np.einsum("snm,sim->nsi", (-1j * s) ** (1 - m) * scaled,
                     _laurent(float(omegaM), order, power))


def _pole_sum(z, coeffs, omegaM: float, derivative: bool = False):
    """sum_s sum_i coeffs[:, s, i] q_s^(i+1), q_s = omegaM / (z - s i omegaM),
    for z (n,) and coeffs (n, 2, order), by Horner's rule; with derivative
    also its z-derivative, -sum_s sum_i (i+1) coeffs q_s^(i+2) / omegaM."""
    q = omegaM / (z[:, None] - 1j * omegaM * _SIDES)
    sums = []
    for weights in (coeffs, coeffs * np.arange(1.0, coeffs.shape[-1] + 1))[:1 + derivative]:
        acc = weights[..., -1]
        for i in range(weights.shape[-1] - 2, -1, -1):
            acc = acc * q + weights[..., i]
        sums.append(acc * q)
    total = sums[0].sum(axis=1)
    return (total, -(sums[1] * q).sum(axis=1) / omegaM) if derivative else total


def _filon_weights(theta):
    """Weights (w0, w1) of the left and right values of one linear Filon
    panel at phase theta = t*h: the panel contributes
    h e^{-i t k_left} (f_left w0 + f_right w1). The closed form loses about
    eps/theta^2 to cancellation, so |theta| <= 0.2 takes the Taylor series
    w0 = sum (-i theta)^n/(n+2)!, w1 = sum (n+1)(-i theta)^n/(n+2)! through
    n = 11, whose first omitted term is below 1e-18."""
    theta = np.asarray(theta, dtype=float)
    w0 = np.empty(theta.shape, dtype=complex)
    w1 = np.empty(theta.shape, dtype=complex)
    small = np.abs(theta) <= 0.2
    x = theta[small]
    s = x * x
    poly = np.zeros((4, x.size))
    for coeff in _FILON_SERIES:
        poly *= s
        poly += coeff
    w0[small] = poly[0] - 1j * x * poly[1]
    w1[small] = poly[2] - 1j * x * poly[3]
    big = ~small
    tb = theta[big]
    eb = np.exp(-1j * tb)
    w1_big = (eb * (1.0 + 1j * tb) - 1.0) / tb**2
    w1[big] = w1_big
    w0[big] = 1j * (eb - 1.0) / tb - w1_big
    return w0, w1


def _unit_phase(turns: float, n: np.ndarray) -> np.ndarray:
    """e^{-2 pi i turns n} for integers n >= 0, with turns*n reduced mod 1
    exactly: the 52 leading fractional bits of turns multiply n in uint64
    arithmetic, whose wrap-around is harmless mod 2^52, and only the
    remainder below 2^-52 meets rounding."""
    frac = turns % 1.0
    top = np.uint64(frac * 2.0**52)
    low = frac - float(top) * 2.0**-52
    nn = n.astype(np.uint64)
    hi = (top * nn) & np.uint64(2**52 - 1)
    return np.exp(-2j * np.pi * (hi.astype(float) * 2.0**-52 + low * nn.astype(float)))


def _chirp_z(rows, start: float, step: float, n_out: int) -> list:
    """[y_r for x_r in rows], y_r[n] = sum_m x_r[m] e^{-i (start + n step) m}
    for n < n_out: the chirp-z transform, by Bluestein's identity
    nm = (n^2 + m^2 - (n - m)^2)/2 as one FFT convolution per row."""
    m_in = len(rows[0])
    size = 1 << (m_in + n_out - 2).bit_length()
    j = np.arange(max(m_in, n_out))
    chirp = _unit_phase(step / (4.0 * np.pi), j * j)
    pre = _unit_phase(start / (2.0 * np.pi), j[:m_in]) * chirp[:m_in]
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_out] = chirp[:n_out].conj()
    kernel[size - m_in + 1:] = chirp[m_in - 1:0:-1].conj()
    kernel = np.fft.fft(kernel)
    out = []
    for x in rows:
        y = np.zeros(size, dtype=complex)       # padded here, not by a copy inside fft
        np.multiply(x, pre, out=y[:m_in])
        y = np.fft.fft(y)
        y *= kernel
        out.append(np.fft.ifft(y)[:n_out] * chirp[:n_out])
    return out


def _arithmetic_runs(ts: np.ndarray):
    """Maximal runs [start, stop) of ts that are arithmetic to within 8 ulp
    of their values (a shifted np.linspace is one run). t_stop extends a run
    when t_start + (stop - start) step, step = (t_{stop-1} - t_start) /
    (stop - 1 - start), is within 8 ulp of it: tested at once for every
    run's first candidate, then in windows that double."""
    def off(start, at):
        step = (ts[at - 1] - ts[start]) / (at - 1 - start)
        tol = 8.0 * np.finfo(float).eps * np.maximum(np.abs(ts[start]), np.abs(ts[at]))
        return np.abs(ts[start] + (at - start) * step - ts[at]) > tol
    first_off = off(np.arange(ts.size - 2), np.arange(2, ts.size))
    start = 0
    while start < ts.size:
        stop, width = min(start + 2, ts.size), 16
        while stop < ts.size and not (stop == start + 2 and first_off[start]):
            at = np.arange(stop, min(stop + width, ts.size))
            bad = np.flatnonzero(off(start, at))
            stop, width = int(at[bad[0]] if bad.size else at[-1] + 1), 2 * width
            if bad.size:
                break
        yield start, stop
        start = stop


def _phase_sums(ts, k, coeffs):
    """S[j, n] = sum_p e^{-i t_j k_p} coeffs[p, n] at any times ts, from a
    factored phase table on each maximal arithmetic run of them (a lone time
    is a run of one). With j = b Q + q in a run, Q = ceil(sqrt(len)) and
    t_j = t_{bQ} + q step, so
    S[bQ + q, n] = sum_p (e^{-i t_{bQ} k_p} coeffs[p, n]) e^{-i q step k_p}:
    the (heads x columns, P) block of weighted heads times the (P, Q) tails,
    one matrix product per chunk of k from (len / Q + Q) P exponentials
    instead of len P. A chunk takes _PHASE_BUDGET // max(heads x columns, Q)
    values of k, so no work array holds more than _PHASE_BUDGET phases."""
    cols = coeffs.shape[1]
    sums = np.empty((ts.size, cols), dtype=complex)
    for start, stop in _arithmetic_runs(ts):
        t = ts[start:stop]
        q = math.ceil(math.sqrt(t.size))
        lags = (t[-1] - t[0]) / (t.size - 1) * np.arange(q) if t.size > 1 else np.zeros(1)
        heads = t[::q]
        run = np.zeros((heads.size * cols, q), dtype=complex)
        chunk = max(1, _PHASE_BUDGET // max(run.shape))
        for p0 in range(0, k.size, chunk):
            kb = k[p0:p0 + chunk]
            weighted = np.exp(-1j * np.outer(heads, kb))[:, None, :] * coeffs[p0:p0 + chunk].T
            run += weighted.reshape(run.shape[0], -1) @ np.exp(-1j * np.outer(kb, lags))
        sums[start:stop] = run.reshape(heads.size, cols, q).swapaxes(1, 2).reshape(-1, cols)[:t.size]
    return sums


def _taylor_terms(theta: float) -> int:
    """The number n of terms of the Filon weights' Taylor series to sum at
    |t h| <= theta: the first term left out, (n + 1) theta^n / (n + 2)! of
    w1, is below 1e-18 (18 terms at pi/4, 12 at 0.2)."""
    n = 1
    while theta**n * (n + 1) / math.factorial(n + 2) >= 1e-18:
        n += 1
    return n


def _filon_panels(k_left, width, f0, f1, ts):
    """The panels' Filon sums
    sum_p width_p e^{-i t k_p} (f0_p w0(t width_p) + f1_p w1(t width_p)) at
    every time of ts.

    Panels with t_top width <= pi/4 (t_top = max |t|) take the weights'
    Taylor series, w0 = sum (-i theta)^n/(n+2)! and
    w1 = sum (n+1)(-i theta)^n/(n+2)!: with u = t/t_top the sum is
    sum_n (-i u)^n S_n(t), where S_n sums the phases e^{-i t k_p}
    (`_phase_sums`) against the P x terms Taylor table
    width_p (t_top width_p)^n (f0_p + (n+1) f1_p)/(n+2)!, and Horner's rule
    in -iu sums the terms. The other panels take `_filon_weights` per
    (time, panel) pair, vectorized over blocks of at most _PHASE_BUDGET."""
    t_top = float(np.abs(ts).max())
    scale = t_top or 1.0
    out = np.zeros(ts.shape, dtype=complex)
    near = np.abs(width) * t_top <= 0.25 * np.pi
    if near.any():
        x = scale * width[near]
        n = np.arange(_taylor_terms(t_top * float(np.abs(width[near]).max())))
        fact = np.array([math.factorial(m + 2) for m in n], dtype=float)
        table = (width[near, None] * x[:, None] ** n / fact
                 * (f0[near, None] + (n + 1) * f1[near, None]))
        sums = _phase_sums(ts, k_left[near], table)
        step = -1j * (ts / scale)
        out += sums[:, -1]
        for col in sums.T[-2::-1]:
            out *= step
            out += col
    far = np.flatnonzero(~near)
    if far.size:
        width, k_left, f0, f1 = width[far], k_left[far], f0[far], f1[far]
        p_step = min(far.size, _PHASE_BUDGET)
        t_step = max(1, _PHASE_BUDGET // p_step)
        for p0 in range(0, far.size, p_step):
            ps = slice(p0, p0 + p_step)
            for t0 in range(0, ts.size, t_step):
                t = ts[t0:t0 + t_step, None]
                w0, w1 = _filon_weights(t * width[ps])
                out[t0:t0 + t_step] += (width[ps] * np.exp(-1j * t * k_left[ps])
                                        * (f0[ps] * w0 + f1[ps] * w1)).sum(axis=1)
    return out


def fourier_halfline(kgrid: np.ndarray, fvals: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """int f(k) e^{-i k t} dk on a fixed grid, exact for the piecewise-linear
    interpolant of f (Filon-type: the oscillation is integrated analytically,
    so accuracy is set by the grid's resolution of f, not of e^{-ikt}).

    Panels of the uniform lattice k_0 + j*h0 (h0 = span / round(span /
    median width), at most one step per panel of the grid; width and left
    end within 1e-9*h0) contribute
    h0 e^{-i t k_0} [w0(t h0) S0(t) + w1(t h0) S1(t)], where S0 and S1 sum
    the panels' left and right values against e^{-i t h0 j}. Over each
    maximal arithmetic run of two or more times these two sums are one
    chirp-z transform (Bluestein's FFT convolution). The other panels (pole
    windows and their flanks), and every panel at a time that is a run of
    one, take `_filon_panels`: the phase sums of `_phase_sums` against a
    Taylor table of the Filon weights where t_max h <= pi/4, which covers
    every panel of a `continuum_weight_grid` grid, and the weights per
    (time, panel) pair beyond it. kgrid is 1-D, finite and strictly
    increasing, with one value of fvals per node.
    """
    kgrid = np.asarray(kgrid, dtype=float)
    fvals = np.asarray(fvals)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all(np.isfinite(ts)):
        raise ConfigError("fourier_halfline needs finite times")
    if kgrid.ndim != 1 or not np.all(np.isfinite(kgrid)) or np.any(np.diff(kgrid) <= 0):
        raise ConfigError("fourier_halfline needs a 1-D, finite, strictly increasing k grid")
    if fvals.shape != kgrid.shape:
        raise ConfigError(f"fourier_halfline needs one value per k node, not {fvals.shape}")
    out = np.zeros(ts.shape, dtype=complex)
    if kgrid.size < 2:
        return out
    h = np.diff(kgrid)
    runs = list(_arithmetic_runs(ts))
    chirp = [(start, stop) for start, stop in runs if stop - start > 1]
    lone = np.isin(np.arange(ts.size), [start for start, stop in runs if stop - start == 1])
    span, med = kgrid[-1] - kgrid[0], np.median(h)
    n_steps = int(round(span / med))
    lattice = np.zeros(h.shape, dtype=bool)
    if chirp and 1 <= n_steps <= h.size:     # with more steps than panels the lattice is mostly empty
        h0 = span / n_steps
        j = np.rint((kgrid[:-1] - kgrid[0]) / h0)
        lattice = ((np.abs(h - h0) <= 1e-9 * h0)
                   & (np.abs(kgrid[:-1] - (kgrid[0] + j * h0)) <= 1e-9 * h0))
    if lattice.any():
        at = j[lattice].astype(np.int64)
        left, right = np.zeros((2, n_steps), dtype=fvals.dtype)
        left[at], right[at] = fvals[:-1][lattice], fvals[1:][lattice]
        for start, stop in chirp:
            t = ts[start:stop]
            step = (t[-1] - t[0]) / (t.size - 1)
            s0, s1 = _chirp_z((left, right), t[0] * h0, step * h0, t.size)
            w0, w1 = _filon_weights(t * h0)
            out[start:stop] = h0 * np.exp(-1j * t * kgrid[0]) * (w0 * s0 + w1 * s1)
    for panels, rows in ((np.flatnonzero(~lattice), ~lone), (np.arange(h.size), lone)):
        if panels.size and rows.any():
            out[rows] += _filon_panels(kgrid[panels], h[panels], fvals[panels], fvals[panels + 1],
                                       ts[rows])
    return out
