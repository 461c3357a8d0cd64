import numpy as np
import pytest

from collective1d import (
    ContinuationDomainError,
    QuadratureError,
    QuadratureSpec,
    fourier_halfline,
    halfline_integral,
)
from collective1d.quadrature import RayKernel, adaptive_integral, ray_scale
from reference import continued_halfline_integral


def test_levelshift_integrand_oracle(params, quad):
    """int_0^inf dk (1+(k/omegaM)^2)^-2 = pi omegaM / 4, to 1e-10."""
    val = halfline_integral(lambda k: (1.0 + (k / params.omegaM) ** 2) ** -2.0, quad)
    assert val == pytest.approx(np.pi * params.omegaM / 4.0, abs=1e-10)


def test_adaptive_against_known_integral():
    spec = QuadratureSpec(cutoff=10.0, rel_tol=1e-12, abs_tol=1e-14)
    val = adaptive_integral(lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 10.0, spec)
    exact = (1.0 - np.exp(-10) * (np.cos(30) - 3 * np.sin(30))) / 10.0
    assert val == pytest.approx(exact, abs=1e-12)


def test_adaptive_budget_error():
    spec = QuadratureSpec(cutoff=1.0, rel_tol=1e-14, abs_tol=1e-16, max_panels=8)
    with pytest.raises(QuadratureError, match="non-convergence"):
        adaptive_integral(lambda x: np.cos(200.0 * x**2), 0.0, 30.0, spec)


def test_constant_f_closed_form():
    """Truncated continued integral of a constant: c [ln z - ln(z - cutoff)]."""
    spec = QuadratureSpec(cutoff=50.0, rel_tol=1e-12, abs_tol=1e-14)
    z = 1.0 + 1.0j
    c = 2.3
    val = continued_halfline_integral(lambda k: np.full(np.shape(k), c + 0j), z, spec,
                                      include_tail=False)
    assert val == pytest.approx(c * (np.log(z) - np.log(z - 50.0)), abs=1e-12)


def _sample_f(params):
    def f(k):
        k = np.asarray(k, dtype=complex)
        return k / (1.0 + (k / params.omegaM) ** 2) ** 2

    return f


def test_boundary_value_continuity(params, quad):
    """The -2 pi i f(z) correction exactly compensates crossing the cut."""
    f = _sample_f(params)
    omega = 2.0
    gaps = []
    for delta in (1e-2, 1e-3, 1e-4):
        above = continued_halfline_integral(f, omega + 1j * delta, quad)
        below = continued_halfline_integral(f, omega - 1j * delta, quad)
        gaps.append(abs(above - below))
    assert gaps[0] < 0.1
    # first order in delta: each decade shrinks the gap ~10x
    assert gaps[1] < 0.2 * gaps[0]
    assert gaps[2] < 0.2 * gaps[1]
    on_axis = continued_halfline_integral(f, omega, quad)
    assert abs(on_axis - continued_halfline_integral(f, omega + 1e-6j, quad)) < 1e-4


def test_axis_value_is_pv_minus_i_pi_f(params, quad):
    f = _sample_f(params)
    omega = 1.7
    val = continued_halfline_integral(f, omega, quad)
    f_at = complex(f(np.array([omega + 0j]))[0])
    assert val.imag == pytest.approx(-np.pi * f_at.real, rel=1e-8)


def test_negative_axis_rejected(params, quad):
    with pytest.raises(ContinuationDomainError):
        continued_halfline_integral(_sample_f(params), -1.0, quad)


def _bounded(f, calls=200):
    """f, raising RuntimeError after `calls` calls so a non-terminating
    integrator fails instead of hanging."""
    count = [0]

    def g(*args):
        count[0] += 1
        if count[0] > calls:
            raise RuntimeError(f"integrand called more than {calls} times")
        return f(*args)

    return g


def test_adaptive_nan_integrand_raises():
    nan = _bounded(lambda k: np.full(np.shape(k), np.nan))
    with pytest.raises(QuadratureError, match="non-finite"):
        adaptive_integral(nan, 0.0, 1.0, QuadratureSpec())


def test_existence_check_nan_coupling_raises():
    from collective1d import WaveguideParams, existence_check

    coupling = _bounded(lambda k, l: np.full(np.shape(k), np.nan))
    with pytest.raises(QuadratureError, match="non-finite"):
        existence_check(WaveguideParams(coupling=coupling))


def test_ray_kernel_matches_direct_quadrature(params, quad):
    """Rotated-ray evaluation == plain real-axis integral for Im z < 0."""
    def numer(k):
        k = np.asarray(k, dtype=complex)
        return k / (1.0 + (k / params.omegaM) ** 2) ** 2

    c = 8.0
    kern = RayKernel(numer, c, ray_scale(c, params.omegaM))
    z = 2.0 - 0.15j

    def direct(k):
        k = np.asarray(k, dtype=complex)
        return numer(k) * np.exp(1j * k * c) / (z - k)

    ref = adaptive_integral(direct, 0.0, quad.cutoff, quad,
                            seed_edges=np.linspace(0, quad.cutoff, 4001))
    assert abs(kern.integrals(z) - ref) < 1e-9


def test_ray_kernel_derivative_consistency(params):
    def numer(k):
        k = np.asarray(k, dtype=complex)
        return k / (1.0 + (k / params.omegaM) ** 2) ** 2

    kern = RayKernel(numer, 5.0, ray_scale(5.0, params.omegaM))
    z = 1.9 - 0.05j
    h = 1e-6
    i1p, _ = kern.integrals(z + h, second=True)
    i1m, _ = kern.integrals(z - h, second=True)
    _, i2 = kern.integrals(z, second=True)
    # d/dz I1 = -I2
    assert abs((i1p - i1m) / (2 * h) + i2) < 1e-6


def test_fourier_halfline_against_exact():
    """Filon transform of an exactly integrable density."""
    k = np.linspace(0.0, 40.0, 120001)
    a = 0.7
    rho = np.exp(-a * k)
    ts = np.array([0.0, 1.3, 17.0, 90.0])
    got = fourier_halfline(k, rho, ts)
    exact = (1.0 - np.exp(-(a + 1j * ts) * 40.0)) / (a + 1j * ts)
    assert np.max(np.abs(got - exact)) < 2e-8


def test_fourier_halfline_linear_exactness():
    """Piecewise-linear densities are integrated exactly at any t."""
    k = np.array([0.0, 0.5, 2.0, 3.0])
    rho = np.array([1.0, 2.0, -1.0, 0.5])
    t = 9.37
    got = fourier_halfline(k, rho, np.array([t]))[0]
    fine = np.linspace(0, 3.0, 1_500_001)
    interp = np.interp(fine, k, rho)
    ref = np.trapezoid(interp * np.exp(-1j * t * fine), fine)
    assert abs(got - ref) < 1e-8
