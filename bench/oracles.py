"""Reference computations that share no code with collective1d.

Each oracle is built from the model's defining formulas only:

* ``eta_plus_oracle`` evaluates the inverse Green's function from its
  defining real-axis integral with ``scipy.integrate.quad``, adding the
  -2 pi i f(z) term that continues it below the real axis;
* ``box_survival`` diagonalizes the benchmark's own parity-reduced box
  Hamiltonian (an arrowhead matrix) with ``numpy.linalg.eigvalsh`` and gets
  the weights |<0|E>|^2 in closed form, so no eigenvectors are formed.

Model constants are passed as plain numbers, never as package objects.
"""
from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

# Split point of the half-line: below it the integrand is integrated with the
# pole subtracted, above it (far from every pole studied here) directly.
_K_SPLIT = 60.0


class Model:
    """Plain copy of the model constants (omega1, lambda, omegaM, n_ff)."""

    def __init__(self, omega1: float, lam: float, omegaM: float, n_ff: int):
        self.omega1 = float(omega1)
        self.lam = float(lam)
        self.omegaM = float(omegaM)
        self.n_ff = int(n_ff)

    def v2(self, k):
        """Squared form factor k / (1 + (k/omegaM)^2)^(2 n_ff), any k."""
        return k / (1.0 + (k / self.omegaM) ** 2) ** (2 * self.n_ff)


def _quad_c(func, a, b, **kw):
    # The tolerances ask for more than double precision gives on some
    # oscillatory pieces; quad then warns of roundoff near 1e-12, four orders
    # below the 1e-8 that the checks ask of eta.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(func, a, b, complex_func=True, epsabs=1e-15, epsrel=1e-13,
                      limit=4000, **kw)
    return val


def eta_plus_oracle(z: complex, sigma: int, x21: float, m: Model) -> complex:
    """eta^+_j(z) = z - omega1 - J^+(z) for Im z <= 0, Re z in (0, 60),

        J^+(z) = int_0^inf f(k) / (z - k) dk - 2 pi i f(z),
        f(k)   = 2 lam^2 v(k)^2 (1 + sigma cos(k x21)),

    sigma = 0 gives the one-atom function."""
    z = complex(z)
    lam2 = m.lam ** 2

    def f(k):
        return 2.0 * lam2 * m.v2(k) * (1.0 + sigma * cmath.cos(k * x21))

    fz = f(z)

    def near(k):
        return (f(k) - fz) / (z - k)

    points = [z.real] if 0.0 < z.real < _K_SPLIT else None
    j_near = _quad_c(near, 0.0, _K_SPLIT, points=points)
    # int_0^K dk / (z - k) = log(-z) - log(K - z); both arguments stay in the
    # upper half-plane for Im z < 0, so principal logs are continuous.
    j_near += fz * (cmath.log(-z) - cmath.log(_K_SPLIT - z))

    def smooth(k):
        return 2.0 * lam2 * m.v2(k) / (z - k)

    j_far = _quad_c(smooth, _K_SPLIT, math.inf)
    if sigma:
        j_far += sigma * _quad_c(smooth, _K_SPLIT, math.inf, weight="cos", wvar=x21)
    return z - m.omega1 - (j_near + j_far - 2j * math.pi * fz)


def eta_plus_oracle_derivative(z: complex, sigma: int, x21: float, m: Model,
                               h: float = 1e-5) -> complex:
    """d eta^+/dz by a central difference of the analytic oracle."""
    return (eta_plus_oracle(z + h, sigma, x21, m)
            - eta_plus_oracle(z - h, sigma, x21, m)) / (2.0 * h)


def box_survival(times, sigma: int, x21: float, box_length: float, n_modes: int,
                 m: Model) -> np.ndarray:
    """Survival amplitude A(t) = <j| e^{-iHt} |j> of the parity-reduced box.

    Modes k = 2 pi n / L (n = 1 .. (n_modes-1)/2) couple to |j> with
    g_k = lam sqrt(2 pi / L) v(k) sqrt(2 (1 + sigma cos k x21)). H is the
    arrowhead [[omega1, g], [g, diag(k)]]; its eigenvalues E give
    |<j|E>|^2 = 1 / (1 + sum_k g_k^2 / (E - k)^2), and
    A(t) = sum_E |<j|E>|^2 e^{-iEt}. Modes with g_k = 0 never couple to |j>
    and are left out of the matrix.
    """
    n_half = (n_modes - 1) // 2
    k = 2.0 * math.pi * np.arange(1, n_half + 1) / box_length
    mod = np.maximum(2.0 * (1.0 + sigma * np.cos(k * x21)), 0.0)
    g = m.lam * math.sqrt(2.0 * math.pi / box_length) * np.sqrt(m.v2(k)) * np.sqrt(mod)
    keep = g > 1e-300
    k, g = k[keep], g[keep]
    ham = np.diag(np.concatenate([[m.omega1], k]))
    ham[0, 1:] = g
    ham[1:, 0] = g
    energies = np.linalg.eigvalsh(ham)
    weights = np.empty(energies.shape)
    with np.errstate(divide="ignore"):
        for lo in range(0, energies.size, 256):
            e = energies[lo:lo + 256, None]
            weights[lo:lo + 256] = 1.0 / (1.0 + np.sum((g / (e - k)) ** 2, axis=1))
    ts = np.asarray(times, dtype=float)
    return np.exp(-1j * np.outer(ts, energies)) @ weights
