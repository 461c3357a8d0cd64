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

from dataclasses import dataclass

import numpy as np

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


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ContinuationDomainError(ValueError):
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


def fourier_halfline(kgrid: np.ndarray, fvals: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """int f(k) e^{-i k t} dk on a fixed grid, exact for the piecewise-linear
    interpolant of f (Filon-type: the oscillation is integrated analytically,
    so accuracy is set by the grid's resolution of f, not of e^{-ikt})."""
    k0 = kgrid[:-1]
    h = np.diff(kgrid)
    f0 = fvals[:-1]
    f1 = fvals[1:]
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty(ts.shape, dtype=complex)
    for i, t in enumerate(ts):
        if t == 0.0:
            out[i] = np.sum(0.5 * (f0 + f1) * h)
            continue
        theta = t * h
        w0 = np.empty(h.shape, dtype=complex)
        w1 = np.empty(h.shape, dtype=complex)
        big = np.abs(theta) > 1e-3
        tb = theta[big]
        eb = np.exp(-1j * tb)
        w1[big] = (eb * (1.0 + 1j * tb) - 1.0) / tb**2
        w0[big] = 1j * (eb - 1.0) / tb - w1[big]
        tsm = theta[~big]
        w0[~big] = 0.5 - 1j * tsm / 6.0 - tsm**2 / 24.0 + 1j * tsm**3 / 120.0
        w1[~big] = 0.5 - 1j * tsm / 3.0 - tsm**2 / 8.0 + 1j * tsm**3 / 30.0
        out[i] = np.sum(h * np.exp(-1j * t * k0) * (f0 * w0 + f1 * w1))
    return out
