"""Reference implementations that exist only to cross-check the package.

* ``continued_halfline_integral``: the + branch of int_0^inf f(k)/(z - k) dk
  by adaptive real-axis quadrature, the oracle of the closed-form eta^+.
* ``ray_eta_plus``: eta^+ and its derivative from three rotated-ray
  ``RayKernel`` quadratures (A, B^+ and B^-) plus residue terms, the
  package's assembly before the closed form; accurate to ~1e-12 for
  Re z >= 0.2, under-resolved closer to the origin.
* ``FullBox``: the finite box with both atoms and all signed modes
  k_m = 2 pi m / L (complex Hermitian, dimension n_modes + 2), solved densely
  by ``numpy.linalg.eigh``; the oracle of the parity-reduced arrowhead in
  ``collective1d.dynamics``.
* ``reduced_hamiltonian``: the dense arrowhead of a reduced ``LatticeModel``.
* ``arrowhead_spectrum``: its eigenvalues from ``numpy.linalg.eigvalsh``,
  polished by Newton steps on the secular equation; the oracle of the
  secular solve in ``collective1d.dynamics``.
* ``secular``: the secular function, its near- and far-side slopes and its
  rounding bound summed over every pole, the package's evaluation before
  the far-field interpolants; the oracle of ``dynamics._block_secular``.
* ``survival_amplitude``: sum_E w_E e^{-iEt}, one exponential per
  (time, eigenvalue); the oracle of the factored phase table of
  ``collective1d.dynamics.survival_probability``.
* ``find_pole``: the scalar pole solver (one damped loop and one
  ``newton`` per seed); the oracle of the batched ``solve_poles``.
* ``rung_scan``: lattice poles hunted by one ``newton`` per seed on a
  ladder of imaginary parts below each index's target, the package's
  ``pole_scan`` before its argument-principle census; the oracle of the
  census labels.
* ``phase_integral`` and ``collective_field_intensity``: the continued phase
  integrals of the collective field from one ``RayKernel`` each, summed point
  by point; the oracle of the closed-form phase integrals of
  ``collective1d.dynamics.collective_field``.
* ``fourier_halfline``: the linear Filon transform summed panel by panel,
  one time at a time; the oracle of the chirp-z lattice sums of
  ``collective1d.quadrature.fourier_halfline``.
* ``waveguide_channel_sum`` and ``residue_integral``: the waveguide channel
  integrals and their real-line kernel G(a, x) by tight adaptive quadrature,
  tail included; the oracles of the residue sums of
  ``collective1d.waveguide``.
"""
from __future__ import annotations

import math

import numpy as np

from collective1d import ModelParams, validate
from collective1d.core import SolverError, as_sector
from collective1d.greens import (
    _FAST_REGION_SLOPE,
    _MAX_DAMPED,
    _MAX_NEWTON,
    ROOT_TOL,
    ComplexEnergy,
    ConvergenceError,
    eta_evaluator,
    form_factor_sq,
    form_factor_sq_derivative,
    newton,
    one_atom_pole,
)
from collective1d.quadrature import (
    ContinuationDomainError,
    QuadratureSpec,
    RayKernel,
    _tail_integral,
    adaptive_integral,
    halfline_integral,
)

_AXIS_TOL = 1e-13


def ray_scale(c: float, omegaM: float) -> float:
    """RayKernel map scale that concentrates the nodes where the integrand lives."""
    if c == 0.0:
        return omegaM
    return min(omegaM, 12.0 / abs(c) + 0.2)


def ray_eta_plus(z, sector, x21, params: ModelParams):
    """(eta^+, d eta^+/dz) at scalar or array z in the evaluation region:

        J^+ = 2 lam^2 [A - 2 pi i v2] + sigma lam^2 [B^+ - 2 pi i v2 e^{i z x21} + B^-],

    with A, B^+, B^- the ray integrals of v2(k), v2(k) e^{+-ikx21}."""
    sector = as_sector(sector)
    z = np.asarray(z, dtype=complex)
    lam2 = params.lam**2

    def v2(k):
        return form_factor_sq(k, params)

    a1, a2 = RayKernel(v2, 0.0, ray_scale(0.0, params.omegaM)).integrals(z, second=True)
    f, df = form_factor_sq(z, params), form_factor_sq_derivative(z, params)
    J = 2.0 * lam2 * (a1 - 2j * np.pi * f)
    dJ = 2.0 * lam2 * (-a2 - 2j * np.pi * df)
    if sector is not None:
        x21 = float(x21)
        osc = np.exp(1j * z * x21)
        bp1, bp2 = RayKernel(v2, x21, ray_scale(x21, params.omegaM)).integrals(z, second=True)
        bm1, bm2 = RayKernel(v2, -x21, ray_scale(-x21, params.omegaM)).integrals(z, second=True)
        J = J + sector.sigma * lam2 * (bp1 - 2j * np.pi * f * osc + bm1)
        dJ = dJ + sector.sigma * lam2 * (-bp2 - 2j * np.pi * (df + 1j * x21 * f) * osc - bm2)
    return z - params.omega1 - J, 1.0 - dJ


def continued_halfline_integral(f, z: complex, spec: QuadratureSpec,
                                include_tail: bool = True) -> complex:
    """The + branch of int_0^inf f(k)/(z-k) dk.

    Im z > 0 : plain integral.
    Im z = 0 : principal value minus i*pi*f(z) (boundary value from above).
    Im z < 0 : plain integral minus 2*pi*i*f(z).

    f must be evaluable at complex arguments near z (the subtraction and the
    continuation term both need f(z)). z on the negative real axis is
    rejected: the k=0 endpoint is a fixed feature of the integration ray and
    its treatment belongs to the caller. include_tail=False truncates at the
    cutoff (the only sensible reading for non-decaying f, e.g. the constant-f
    closed form c*[ln(z) - ln(z - cutoff)]).
    """
    z = complex(z)
    lam = spec.cutoff
    if abs(z.imag) <= _AXIS_TOL and z.real <= _AXIS_TOL:
        raise ContinuationDomainError("z on the negative real axis; handle the k=0 endpoint in the caller")

    if abs(z.imag) <= _AXIS_TOL:
        omega = z.real
        if omega >= lam:
            raise ContinuationDomainError("real z beyond the quadrature cutoff")
        f_at = complex(np.asarray(f(np.array([omega + 0j])))[0])
        h = 1e-7 * max(1.0, abs(omega))
        df_at = complex(
            (np.asarray(f(np.array([omega + h + 0j])))[0] - np.asarray(f(np.array([omega - h + 0j])))[0]) / (2 * h)
        )

        def subtracted(k):
            k = np.asarray(k)
            out = np.empty(k.shape, dtype=complex)
            d = omega - k
            near = np.abs(d) < 1e-9 * max(1.0, abs(omega))
            out[~near] = (np.asarray(f(k[~near])) - f_at) / d[~near]
            out[near] = -df_at
            return out

        pv = adaptive_integral(subtracted, 0.0, lam, spec, seed_edges=[0.0, omega, lam])
        pv += f_at * (np.log(omega) - np.log(lam - omega))
        if include_tail:
            pv += _tail_integral(lambda k: f(k) / (omega - k), spec)
        return pv - 1j * np.pi * f_at

    def integrand(k):
        k = np.asarray(k)
        return np.asarray(f(k)) / (z - k)

    seeds = [0.0, lam]
    if 0.0 < z.real < lam:
        w = abs(z.imag)
        seeds += [z.real - 5 * w, z.real, z.real + 5 * w, z.real - 50 * w, z.real + 50 * w]
    plain = adaptive_integral(integrand, 0.0, lam, spec, seed_edges=seeds)
    if include_tail:
        plain += _tail_integral(integrand, spec)
    if z.imag < 0:
        f_at = complex(np.asarray(f(np.array([z])))[0])
        plain -= 2j * np.pi * f_at
    return plain


def reduced_hamiltonian(model) -> np.ndarray:
    """Dense H of a reduced box in the basis |j>, |k=0>, |k_1>, ...: omega1 on
    |j>, the momenta on the modes (0 on the k=0 slot), g_k between |j> and |k>."""
    dim = model.dim
    ham = np.zeros((dim, dim))
    ham[0, 0] = model.params.omega1
    idx = np.arange(2, dim)
    ham[idx, idx] = model.k
    ham[0, idx] = ham[idx, 0] = model.couplings
    return ham


def arrowhead_spectrum(omega1: float, d: np.ndarray, g: np.ndarray, newton_steps: int = 2):
    """(E, |<j|E>|^2, nearest pole index, E - d_nearest) of
    [[omega1, g], [g, diag(d)]] (d ascending, g > 0): eigvalsh of the dense
    matrix gives each E to eps ||H||; tau = E - d_n is taken from the nearer
    interlacing pole and gets newton_steps Newton steps on the secular
    equation multiplied through by tau. Two steps (the package's route
    before the secular solve) give tau to full relative accuracy unless
    eps ||H|| is large against tau's distance to the next root or pole: a
    pole at omega1 with a coupling near the rounding of ||H||, or a weakly
    coupled mode next to a cluster. More steps close that gap. The residual
    is formed from (d_n - omega1) + tau, so a pole at omega1 loses nothing
    to rounding."""
    m = d.size
    if m == 0:
        return np.array([omega1]), np.ones(1), np.zeros(1, dtype=int), np.zeros(1)
    h = np.diag(np.concatenate(([omega1], d)))
    h[1:, 0] = g
    evals = np.linalg.eigvalsh(h)
    i = np.arange(m + 1)
    left, right = np.maximum(i - 1, 0), np.minimum(i, m - 1)
    nearest = np.where((i == m) | ((i > 0) & (evals - d[left] < d[right] - evals)), left, right)
    tau = evals - d[nearest]
    g2 = g * g
    for _ in range(newton_steps):
        gaps = (d[nearest, None] - d) + tau[:, None]
        gaps[i, nearest] = np.inf                  # the nearest pole is factored out
        terms = g2 / gaps
        rest = (d[nearest] - omega1) + tau - terms.sum(axis=1)
        slope = rest + tau * (1.0 + (terms / gaps).sum(axis=1))
        tau = tau - (tau * rest - g2[nearest]) / slope
    gaps = (d[nearest, None] - d) + tau[:, None]
    weights = 1.0 / (1.0 + np.sum(g2 / gaps ** 2, axis=1))
    return d[nearest] + tau, weights, nearest, tau


def secular(d, g2, omega1, n, tau):
    """f(E) at E = d_n + tau for a block of rows, the parts of f'(E) from the
    poles on the near side of E (that of d_n) and from the far side plus the
    linear term, and a bound on the rounding error of f, each summed over
    every pole."""
    gaps = (d[n, None] - d) + tau[:, None]
    near = np.signbit(gaps) == np.signbit(tau)[:, None]
    terms = g2 / gaps
    total = terms.sum(axis=1)
    near_sum = terms.sum(axis=1, where=near)
    linear = (d[n] - omega1) + tau
    f = linear - total
    slopes = terms / gaps                          # g^2 / (E - d)^2
    slope_near = slopes.sum(axis=1, where=near)
    slope_far = 1.0 + slopes.sum(axis=1, where=~near)
    noise = (np.abs(linear) + np.abs(near_sum) + np.abs(total - near_sum)
             + np.abs(tau) * (slope_near + slope_far))
    return f, slope_near, slope_far, noise


def survival_amplitude(evals: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """A(t) = sum_E w_E e^{-iEt}, one exponential per (time, eigenvalue)."""
    return np.exp(-1j * np.outer(np.asarray(times, dtype=float), evals)) @ weights


class FullBox:
    """Both atoms and the signed modes k_m = 2 pi m / L, m = -(n-1)/2 .. (n-1)/2,
    in the basis |1>, |2>, |k_m>; atom i couples to mode k with
    lam sqrt(2 pi / L) v(|k|) e^{i k x_i}."""

    def __init__(self, params: ModelParams, box_length: float, n_modes: int):
        validate(params, two_atom=True)
        n_half = (n_modes - 1) // 2
        self.k = 2.0 * np.pi * np.arange(-n_half, n_half + 1) / box_length
        absk = np.abs(self.k)
        vk = np.sqrt(absk / (1 + (absk / params.omegaM) ** 2) ** (2 * params.n_ff))
        big_v = np.sqrt(2.0 * np.pi / box_length) * vk
        dim = n_modes + 2
        ham = np.zeros((dim, dim), dtype=complex)
        ham[0, 0] = ham[1, 1] = params.omega1
        idx = np.arange(2, dim)
        ham[idx, idx] = absk
        for atom, x in enumerate((params.x1, params.x2)):
            ham[atom, idx] = params.lam * big_v * np.exp(1j * self.k * x)
            ham[idx, atom] = np.conj(ham[atom, idx])
        self.hamiltonian = ham
        self.evals, self.evecs = np.linalg.eigh(ham)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @staticmethod
    def initial(label: str, dim: int) -> np.ndarray:
        """|1>, |2>, |s> or |a> = (|1> +- |2>)/sqrt(2)."""
        vec = np.zeros(dim, dtype=complex)
        if label in ("1", "2"):
            vec[int(label) - 1] = 1.0
        else:
            vec[:2] = np.array([1.0, 1.0 if label == "s" else -1.0]) / np.sqrt(2.0)
        return vec

    def evolve(self, initial: str, t: float) -> np.ndarray:
        coeff = self.evecs.conj().T @ self.initial(initial, self.dim)
        return self.evecs @ (np.exp(-1j * self.evals * t) * coeff)

    def amplitude(self, bra: str, ket: str, times) -> np.ndarray:
        """<bra| e^{-iHt} |ket> on a time grid."""
        left = self.evecs.conj().T @ self.initial(bra, self.dim)
        right = self.evecs.conj().T @ self.initial(ket, self.dim)
        return np.exp(-1j * np.outer(times, self.evals)) @ (left.conj() * right)


def find_pole(sector, x21, seed, params: ModelParams,
              lattice_index: int = 0) -> ComplexEnergy:
    """Root of eta^+ from a damped fixed point (z <- z - alpha*eta, backtracking
    on alpha, at most _MAX_DAMPED steps) switched to `newton` once
    |eta| < 1e-3, converged to ROOT_TOL within _MAX_NEWTON steps."""
    sector = as_sector(sector)
    ev = eta_evaluator(sector, x21, params)

    def fdf(z):
        return ev.values(z, derivative=True)

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


def rung_scan(sector, x21: float, n_range, params: ModelParams) -> dict:
    """{n: pole} for the principal pole (n = 0, `find_pole` from z1) and each
    lattice index n it finds: Newton from target - i(rung + 0.004) on rungs
    set by the neighbour's width g0 and the depth estimate
    g* = ln(|offset| / 2 pi lam^2 v^2) / x21, keeping the root nearest the
    target in Re within 0.35 * 2pi/x21 not already labelled."""
    sector = as_sector(sector)
    principal = find_pole(sector, x21, one_atom_pole(params).value, params)
    ev = eta_evaluator(sector, x21, params)
    spacing = 2.0 * np.pi / x21
    records = {0: principal}
    for n in sorted((m for m in n_range if m != 0), key=abs):
        target = principal.omega_tilde + (2 * n * np.pi / x21 if sector.sigma * n > 0
                                          else (2 * n + sector.sigma) * np.pi / x21)
        if target <= 0.05 * params.omega1:
            continue
        g0 = max(records.get(n - int(np.sign(n)), principal).gamma, 0.004)
        g_wc = 2.0 * np.pi * params.lam**2 * abs(form_factor_sq(target, params))
        off = abs(target - principal.omega_tilde)
        g_star = np.log(max(off, spacing / 4) / g_wc) / x21 if off > g_wc else g0
        best = None
        for rung in sorted({round(g, 6) for g in (g0, 1.7 * g0, 3.0 * g0, 0.7 * g_star,
                                                  0.9 * g_star, 1.1 * g_star, 1.35 * g_star) if g > 0}):
            try:
                z, df = newton(lambda w: ev.values(w, derivative=True), complex(target, -rung - 0.004),
                               ROOT_TOL, _MAX_NEWTON, "rung Newton")
                cand = ComplexEnergy.from_root(z, sector, n, 1.0 / df)
            except SolverError:
                continue
            if (abs(cand.omega_tilde - target) <= 0.35 * spacing
                    and all(abs(cand.value - r.value) >= 1e-6 * params.omega1 for r in records.values())
                    and (best is None or abs(cand.omega_tilde - target) < abs(best.omega_tilde - target))):
                best = cand
        if best is not None:
            records[n] = best
    return records


def phase_integral(z: complex, c: float, params: ModelParams) -> complex:
    """Continued int_0^inf u(k) e^{ikc} / (z - k) dk, u = (1+(k/omegaM)^2)^-n,
    on the + branch (Im z <= 0), from one RayKernel. Rotation sign follows
    sign(c); only the upward-rotated pieces pick up the residue correction."""
    n = params.n_ff

    def numer(k):
        return (1.0 + (k / params.omegaM) ** 2) ** (-n)

    val = RayKernel(numer, c, ray_scale(c, params.omegaM)).integrals(z)
    if c >= 0:
        val = val - 2j * np.pi * numer(z) * np.exp(1j * z * c)
    return val


def collective_field_intensity(params: ModelParams, sector, xs, t: float,
                               pole: ComplexEnergy) -> np.ndarray:
    """|<psi(x)|phi_j>|^2 |N_j| e^{-2 gamma_j t}, point by point from four
    phase integrals per x."""
    sigma = as_sector(sector).sigma
    z = pole.value
    pref = params.lam / (2.0 * np.sqrt(2.0 * np.pi))
    amp = np.empty(len(xs), dtype=complex)
    for i, x in enumerate(xs):
        q = (phase_integral(z, x - params.x1, params) + phase_integral(z, -(x - params.x1), params)
             + sigma * (phase_integral(z, x - params.x2, params)
                        + phase_integral(z, -(x - params.x2), params)))
        amp[i] = np.sqrt(pole.normalization) * pref * q
    return np.abs(amp) ** 2 * abs(pole.normalization) * np.exp(-2.0 * pole.gamma * t)


def fourier_halfline(kgrid: np.ndarray, fvals: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """int f(k) e^{-i k t} dk for the piecewise-linear interpolant of f,
    every panel's Filon weights formed at every t: the closed form above
    |theta| = 0.2 and, below it, the first twelve terms of the weights'
    Taylor series summed term by term."""
    k0 = kgrid[:-1]
    h = np.diff(kgrid)
    f0 = fvals[:-1]
    f1 = fvals[1:]
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty(ts.shape, dtype=complex)
    for i, t in enumerate(ts):
        theta = t * h
        w0 = np.empty(h.shape, dtype=complex)
        w1 = np.empty(h.shape, dtype=complex)
        big = np.abs(theta) > 0.2
        tb = theta[big]
        eb = np.exp(-1j * tb)
        w1[big] = (eb * (1.0 + 1j * tb) - 1.0) / tb**2
        w0[big] = 1j * (eb - 1.0) / tb - w1[big]
        # int_0^1 (1 - x) e^{-i theta x} dx and int_0^1 x e^{-i theta x} dx
        term = (-1j * theta[~big])[None, :] ** np.arange(12)[:, None]
        fact = np.array([math.factorial(n + 2) for n in range(12)], dtype=float)[:, None]
        w0[~big] = (term / fact).sum(axis=0)
        w1[~big] = (term * np.arange(1, 13)[:, None] / fact).sum(axis=0)
        out[i] = np.sum(h * np.exp(-1j * t * k0) * (f0 * w0 + f1 * w1))
    return out


WAVEGUIDE_SPEC = QuadratureSpec(cutoff=2000.0, rel_tol=1e-13, abs_tol=1e-16)


def waveguide_channel_sum(z: complex, wg, sigma: int, x21: float) -> complex:
    """sum_l int_0^inf v0(k,l)^2 (1 + sigma cos k x21)/(z - E_{k,l}) dk for
    Im z > 0, or real z at or below the open threshold E_{0,1}. z - E_{k,l} is
    formed as (z - l^2/W^2) - k^2/pi^2, exact at z = E_{0,1}, where the open
    channel's integrand is regular."""
    total = 0j
    for l in range(1, wg.l_max + 1):
        shift = complex(z) - l**2 / wg.W**2

        def f(k, l=l, shift=shift):
            return wg.coupling(k, l) ** 2 * (1.0 + sigma * np.cos(k * x21)) / (shift - k**2 / np.pi**2)

        total += halfline_integral(f, WAVEGUIDE_SPEC)
    return total


def residue_integral(a: complex, x: float, k_c: float) -> complex:
    """G(a, x) = int_R k^2 e^{ikx} dk / ((k^2 + k_c^2)^2 (a^2 - k^2)) for Im a > 0,
    as twice the half-line integral of the even integrand."""
    def f(k):
        return 2.0 * k**2 * np.cos(k * x) / ((k**2 + k_c**2) ** 2 * (a * a - k**2))

    return halfline_integral(f, WAVEGUIDE_SPEC)
