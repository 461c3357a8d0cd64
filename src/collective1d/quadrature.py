"""Quadrature backbone: adaptive Gauss panels, rotated-ray kernels for the
analytically continued and Fourier-type integrands, and a Filon integrator
for strongly oscillatory transforms.

Every integral in this package is one of

    int_0^inf f(k) dk,                int_0^inf f(k) / (z - k)^m dk,

with f analytic near the positive half-line. The continued variant follows
the retarded (+) branch: the plain integral above the real axis, principal
value minus i*pi*f on it, and plain minus 2*pi*i*f(z) below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SolverError

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "ContinuationDomainError",
    "adaptive_integral",
    "halfline_integral",
    "RayKernel",
    "fourier_halfline",
]

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_RAY_NODES, _RAY_WEIGHTS = np.polynomial.legendre.leggauss(32)
# ray-kernel blocks: (z, node) pairs per broadcast (~1.6 MB, so a block stays
# in cache) and rows per block
_BLOCK_PAIRS = 1.0e5
_ROW_CHUNK = 16
# Filon panels off the uniform lattice: (time, panel) pairs per block
_DIRECT_PAIRS = 10_000
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
    (`adaptive_integral`, `halfline_integral`); the rotated-ray kernels
    behind eta^+ do not read it.

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
    """Pole integrals of numer(k) e^{i k c} along the ray arg k = sign(c) * pi/4.

    Rotating the half-line by +-45 degrees turns the e^{ikc} oscillation into
    exponential decay while keeping the form-factor poles at +-i*omegaM off
    the contour; for c == 0 the rotation just moves the contour away from the
    resonance region. The kernel precomputes numer * jacobian * Gauss weights
    at fixed nodes, so evaluating

        I_m(z) = int numer(k) e^{ikc} / (z - k)^m dk     (m = 1, 2)

    for a batch of z costs one broadcasted division per m.

    Validity: any z off the chosen ray. Continuation corrections are NOT
    included here; callers add the residue terms appropriate to their branch.
    """

    def __init__(self, numer, c: float, scale: float):
        self.nodes, self.weights = ray_rows(numer, c, scale)

    def integrals(self, z, second: bool = False):
        """I_1(z) (and I_2(z) if second) for scalar or array z."""
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        i1, i2 = ray_integrals(zz.reshape(1, -1), self.nodes, self.weights, second)
        if np.ndim(z) == 0:
            return (complex(i1[0, 0]), complex(i2[0, 0])) if second else complex(i1[0, 0])
        return (i1.reshape(zz.shape), i2.reshape(zz.shape)) if second else i1.reshape(zz.shape)


def _ray_map() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t in (0, 1) and weights of 24 Gauss panels for the ray map
    k = scale * t / (1 - t)."""
    edges = np.linspace(0.0, 1.0, 25)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _RAY_NODES[None, :]).ravel()
    gw = (half[:, None] * _RAY_WEIGHTS[None, :]).ravel()
    return t, gw


_RAY_T, _RAY_GW = _ray_map()


def ray_rows(numer, c, scale) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of RayKernel(numer, c, scale), one row per entry of
    the 1-D arrays c and scale (scalars give one 1-D row). The weights are
    formed _ROW_CHUNK rows at a time, which bounds the temporaries."""
    one_row = np.ndim(c) == 0
    c = np.asarray(c, dtype=float).reshape(-1, 1)
    scale = np.asarray(scale, dtype=float).reshape(-1, 1)
    phase = np.exp(1j * np.where(c >= 0, 1.0, -1.0) * np.pi / 4)
    nodes = scale * _RAY_T / (1.0 - _RAY_T) * phase
    weights = np.empty_like(nodes)
    for r0 in range(0, len(nodes), _ROW_CHUNK):
        rs = slice(r0, r0 + _ROW_CHUNK)
        jac = scale[rs] / (1.0 - _RAY_T) ** 2
        weights[rs] = numer(nodes[rs]) * np.exp(1j * nodes[rs] * c[rs]) * jac * phase[rs] * _RAY_GW
    return (nodes[0], weights[0]) if one_row else (nodes, weights)


def ray_integrals(z, nodes, weights, second: bool = False, index=None):
    """Pole integrals of ray kernels given as rows of nodes and weights.

    z has shape (R, m). With index None, nodes and weights are one kernel of
    shape (n,) shared by every row; otherwise they hold kernels as rows of
    shape (D, n) and z row r uses kernel index[r]. Returns (I_1, I_2), each
    of shape (R, m), with I_2 None unless second:

        I_p[r, j] = sum_k weights[r, k] / (z[r, j] - nodes[r, k])^p.

    Blocks of at most _ROW_CHUNK rows and _BLOCK_PAIRS (z, node) pairs are
    reduced one (z row, kernel) product at a time, so no value depends on
    which other rows share the call.
    """
    n_rows, m = z.shape
    n = nodes.shape[-1]
    if index is not None and len(nodes) == 1:     # one kernel: skip the per-block gathers
        nodes, weights, index = nodes[0], weights[0], None
    i1 = np.empty((n_rows, m), dtype=complex)
    i2 = np.empty((n_rows, m), dtype=complex) if second else None
    row_step = max(1, min(_ROW_CHUNK, int(_BLOCK_PAIRS / (m * n))))
    point_step = max(1, int(_BLOCK_PAIRS / n))
    for r0 in range(0, n_rows, row_step):
        rs = slice(r0, r0 + row_step)
        if index is None:
            nd, w = nodes, weights[:, None]
        else:
            nd, w = nodes[index[rs], None, :], weights[index[rs], :, None]
        for j0 in range(0, m, point_step):
            js = slice(j0, j0 + point_step)
            inv = np.subtract(z[rs, js, None], nd)
            np.divide(1.0, inv, out=inv)
            i1[rs, js] = (inv @ w)[..., 0]
            if second:
                np.multiply(inv, inv, out=inv)
                i2[rs, js] = (inv @ w)[..., 0]
    return i1, i2


def ray_scale(c: float, omegaM: float) -> float:
    """Transform scale so the nodes concentrate where the integrand lives."""
    if c == 0.0:
        return omegaM
    return min(omegaM, 12.0 / abs(c) + 0.2)


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
        y = np.fft.fft(x * pre, size)
        y *= kernel
        out.append(np.fft.ifft(y)[:n_out] * chirp[:n_out])
    return out


def _arithmetic_runs(ts: np.ndarray):
    """Maximal runs [start, stop) of ts that are arithmetic to within 8 ulp
    of their values (a shifted np.linspace is one run)."""
    eps = np.finfo(float).eps
    start = 0
    while start < ts.size:
        stop = start + min(2, ts.size - start)
        while stop < ts.size:
            step = (ts[stop - 1] - ts[start]) / (stop - 1 - start)
            tol = 8.0 * eps * max(abs(ts[start]), abs(ts[stop]))
            if abs(ts[start] + (stop - start) * step - ts[stop]) > tol:
                break
            stop += 1
        yield start, stop
        start = stop


def fourier_halfline(kgrid: np.ndarray, fvals: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """int f(k) e^{-i k t} dk on a fixed grid, exact for the piecewise-linear
    interpolant of f (Filon-type: the oscillation is integrated analytically,
    so accuracy is set by the grid's resolution of f, not of e^{-ikt}).

    Panels of the uniform lattice k_0 + j*h0 (h0 = span / round(span /
    median width), at most one step per panel of the grid; width and left
    end within 1e-9*h0) contribute
    h0 e^{-i t k_0} [w0(t h0) S0(t) + w1(t h0) S1(t)], where S0 and S1 sum
    the panels' left and right values against e^{-i t h0 j}. Over each
    maximal arithmetic run of ts these two sums are one chirp-z transform
    (Bluestein's FFT convolution); a lone time is a run of one. The other
    panels (pole windows and their flanks) take the per-panel formula,
    vectorized over blocks of at most _DIRECT_PAIRS (time, panel) pairs.
    """
    kgrid = np.asarray(kgrid, dtype=float)
    fvals = np.asarray(fvals)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.all(np.isfinite(ts)):
        raise ConfigError("fourier_halfline needs finite times")
    out = np.zeros(ts.shape, dtype=complex)
    if kgrid.size < 2:
        return out
    h = np.diff(kgrid)
    span, med = kgrid[-1] - kgrid[0], np.median(h)
    n_steps = int(round(span / med)) if med > 0 else 0
    lattice = np.zeros(h.shape, dtype=bool)
    if 1 <= n_steps <= h.size:     # with more steps than panels the lattice is mostly empty
        h0 = span / n_steps
        j = np.rint((kgrid[:-1] - kgrid[0]) / h0)
        lattice = ((np.abs(h - h0) <= 1e-9 * h0)
                   & (np.abs(kgrid[:-1] - (kgrid[0] + j * h0)) <= 1e-9 * h0))
    if lattice.any():
        at = j[lattice].astype(np.int64)
        left, right = np.zeros((2, n_steps), dtype=fvals.dtype)
        left[at], right[at] = fvals[:-1][lattice], fvals[1:][lattice]
        for start, stop in _arithmetic_runs(ts):
            t = ts[start:stop]
            step = (t[-1] - t[0]) / (t.size - 1) if t.size > 1 else 0.0
            s0, s1 = _chirp_z((left, right), t[0] * h0, step * h0, t.size)
            w0, w1 = _filon_weights(t * h0)
            out[start:stop] = h0 * np.exp(-1j * t * kgrid[0]) * (w0 * s0 + w1 * s1)
    rest = np.flatnonzero(~lattice)
    if rest.size:
        width, k_left = h[rest], kgrid[rest]
        f0, f1 = fvals[rest], fvals[rest + 1]
        p_step = min(rest.size, _DIRECT_PAIRS)
        t_step = max(1, _DIRECT_PAIRS // p_step)
        for p0 in range(0, rest.size, p_step):
            ps = slice(p0, p0 + p_step)
            for t0 in range(0, ts.size, t_step):
                t = ts[t0:t0 + t_step, None]
                w0, w1 = _filon_weights(t * width[ps])
                out[t0:t0 + t_step] += (width[ps] * np.exp(-1j * t * k_left[ps])
                                        * (f0[ps] * w0 + f1[ps] * w1)).sum(axis=1)
    return out
