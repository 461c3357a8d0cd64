import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import comb

from collective1d import (
    ModelParams,
    ResummationError,
    SYMMETRIC,
    amplitude_quadrature,
    bounce_sum,
    bounce_term,
    build_lattice,
    delta_k,
    eta_plus,
    eta_s1,
    find_pole,
    find_zs1,
    form_factor_sq,
    one_atom_pole,
    survival_probability,
)
from collective1d.bounces import (
    BounceDecomposition,
    Jet,
    delta_jet,
    eta_s1_derivative,
    resummed,
)
from reference import continued_halfline_integral

X21 = 29.025


# ------------------------------------------------------------------------ jets

def test_jet_product_is_truncated_cauchy_convolution():
    a = Jet(0.0, np.array([1.0, 2.0, 3.0], dtype=complex))
    b = Jet(0.0, np.array([4.0, 5.0, 6.0], dtype=complex))
    prod = a * b
    # polynomial product truncated at order 2
    assert np.allclose(prod.coeffs, [4.0, 13.0, 28.0])


def test_jet_exp_matches_taylor():
    k = Jet.variable(0.3, 8)
    g = (k * (2.0 + 0.5j)).exp()
    from math import factorial

    expected = [np.exp((2.0 + 0.5j) * 0.3) * (2.0 + 0.5j) ** m / factorial(m) for m in range(9)]
    assert np.allclose(g.coeffs, expected)


def test_jet_reciprocal_and_power():
    k = Jet.variable(1.7, 6)
    q = k * k + 1.0
    ident = q * q.reciprocal()
    assert abs(ident.coeffs[0] - 1.0) < 1e-14
    assert np.max(np.abs(ident.coeffs[1:])) < 1e-13
    assert np.allclose((k ** 3).coeffs[:4], [1.7**3, 3 * 1.7**2, 3 * 1.7, 1.0])


_EPS = np.finfo(float).eps
_COEFF = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _jets(draw, n=1, min_lead=0.0):
    """n jets of one order and center, coefficients of modulus <= 1 (the
    constant term at least min_lead)."""
    order = draw(st.integers(0, 10))
    center = draw(_COEFF)
    jets = []
    for _ in range(n):
        coeffs = np.array(draw(st.lists(_COEFF, min_size=order + 1, max_size=order + 1)))
        coeffs[0] = draw(st.floats(min_lead, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        jets.append(Jet(center, coeffs))
    return jets


def _bound(*jets):
    """Coefficients of the product of |jets|, what each product coefficient's
    rounding is relative to, plus the smallest normal number for underflow."""
    out = Jet(jets[0].center, np.abs(jets[0].coeffs))
    for jet in jets[1:]:
        out = out * Jet(jet.center, np.abs(jet.coeffs))
    return out.coeffs.real + np.finfo(float).tiny


@settings(max_examples=200, deadline=None)
@given(jets=_jets(3))
def test_jet_product_associative(jets):
    a, b, c = jets
    err = np.abs(((a * b) * c).coeffs - (a * (b * c)).coeffs)
    assert np.all(err <= 4 * (a.order + 2) * _EPS * _bound(a, b, c))


@settings(max_examples=200, deadline=None)
@given(jets=_jets(1, min_lead=0.5))
def test_jet_times_reciprocal_is_one(jets):
    (x,) = jets
    inv = x.reciprocal()
    one = np.zeros(x.order + 1)
    one[0] = 1.0
    assert np.all(np.abs((x * inv).coeffs - one) <= 4 * (x.order + 2) * _EPS * _bound(x, inv))


def _exp_series(lead: complex, u: Jet) -> Jet:
    """lead * sum_{n <= order} u^n / n! by jet products alone."""
    term = series = Jet.constant(lead, u.center, u.order)
    for n in range(1, u.order + 1):
        term = term * u * (1.0 / n)
        series = series + term
    return series


@settings(max_examples=200, deadline=None)
@given(jets=_jets(2))
def test_jet_exp_of_sum_is_product_of_exps(jets):
    """exp(a+b) = exp a * exp b, and exp a = e^{a_0} sum_n u^n / n! with
    u = a - a_0 (nilpotent, so the sum stops at the order): the second pins
    the recurrence, which the first alone would not."""
    a, b = jets
    lhs, ea, eb = (a + b).exp(), a.exp(), b.exp()
    err = np.abs(lhs.coeffs - (ea * eb).coeffs)
    assert np.all(err <= 16 * (a.order + 2) * _EPS * _bound(ea, eb))
    u = a + (-a.coeffs[0])
    err = np.abs(ea.coeffs - _exp_series(np.exp(a.coeffs[0]), u).coeffs)
    bound = _exp_series(abs(np.exp(a.coeffs[0])), Jet(a.center, np.abs(u.coeffs))).coeffs.real
    assert np.all(err <= 16 * (a.order + 2) * _EPS * (bound + np.finfo(float).tiny))


def test_jet_derivative_extraction():
    k = Jet.variable(0.0, 5)
    f = (k * 1j).exp()
    assert f.derivative(3) == pytest.approx(-1j, abs=1e-14)


def _fd_richardson(g, z, n, h0=0.2):
    def basic(h):
        total = 0.0
        for i in range(n + 1):
            total += (-1) ** i * comb(n, i) * g(z + (n / 2 - i) * h)
        return total / h**n

    d = [basic(h0 / 2**j) for j in range(3)]
    d1 = [(4 * d[j + 1] - d[j]) / 3 for j in range(2)]
    return (16 * d1[1] - d1[0]) / 15


def test_jet_derivatives_vs_finite_differences(params):
    """Jet derivatives of Delta(k) e^{-2ik} match Richardson-extrapolated
    central differences to mixed precision 1e-6 for orders <= 6."""
    x21, z0 = 1.0, 1.9

    def g(k):
        return delta_k(k, x21, params) * np.exp(-2j * k)

    jet = delta_jet(z0, 8, x21, params) * (Jet.variable(z0, 8) * (-2j)).exp()
    for n in range(1, 7):
        exact = jet.derivative(n)
        fd = _fd_richardson(g, z0, n)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


# ----------------------------------------------------------------------- Delta

def test_delta_modulus_on_axis(params):
    ks = np.linspace(0.5, 6.0, 13)
    vals = delta_k(ks, 7.0, params)
    expected = 2 * np.pi * params.lam**2 * form_factor_sq(ks, params).real
    assert np.allclose(np.abs(vals), expected, rtol=1e-12)


def test_delta_free_limit():
    assert abs(delta_k(2.0, 5.0, ModelParams(lam=1e-9))) < 1e-17


def test_pole_equation_shift(params):
    """z_s ~ z_s1 + Delta(z_s) to O(lam^4)."""
    x21 = 8.0
    zs1 = find_zs1(x21, params)
    zs = find_pole(SYMMETRIC, x21, one_atom_pole(params).value, params)
    gap = zs.value - (zs1.pole.value + delta_k(zs.value, x21, params))
    assert abs(gap) < 1e-3


# ---------------------------------------------------------------------- eta_s1

def test_decomposition_identity_on_axis(params):
    """eta_s = eta_s1 - Delta pointwise on the real axis."""
    ks = np.linspace(0.8, 4.0, 25).astype(complex)
    lhs = eta_plus(ks, SYMMETRIC, X21, params)
    rhs = eta_s1(ks, X21, params) - delta_k(ks, X21, params)
    scale = np.abs(rhs)
    assert np.max(np.abs(lhs - rhs) / np.maximum(scale, 1e-12)) < 1e-10


def test_eta_s1_generic_three_integral_assembly(params, quad):
    """Independent evaluation per the defining split: the 1 + e^{-ikx}/2 piece
    continued from above, the e^{+ikx} piece from below (conjugate route)."""
    x21 = 8.0
    for omega in (1.7, 2.3):
        def f_up(k):
            k = np.asarray(k, dtype=complex)
            return 2 * params.lam**2 * form_factor_sq(k, params) * (1 + 0.5 * np.exp(-1j * k * x21))

        def f_down_conj(k):
            k = np.asarray(k, dtype=complex)
            return params.lam**2 * form_factor_sq(k, params) * np.exp(-1j * k * x21)

        up = continued_halfline_integral(f_up, omega, quad)
        down = np.conj(continued_halfline_integral(f_down_conj, omega, quad))
        generic = omega - params.omega1 - up - down
        fast = eta_s1(complex(omega), x21, params)
        assert abs(generic - fast) < 3e-9


def test_expansion_validity_on_axis(params):
    """|Delta(k)| = |Im eta_s1(k)| <= |eta_s1(k)| on the real axis."""
    ks = np.linspace(0.5, 5.0, 41).astype(complex)
    e1 = eta_s1(ks, X21, params)
    dl = np.abs(delta_k(ks, X21, params))
    assert np.allclose(dl, np.abs(e1.imag), rtol=1e-8, atol=1e-14)
    assert np.all(dl <= np.abs(e1) * (1 + 1e-12))


def test_find_zs1_values(params, z1):
    res = find_zs1(X21, params)
    # figure-caption values: omega_s1 ~ 1.985, gamma_s1 ~ 0.0233 (+-5e-4)
    assert res.pole.omega_tilde == pytest.approx(1.985, abs=2e-3)
    assert res.pole.gamma == pytest.approx(0.0233, abs=5e-4)
    assert res.near_one_atom
    far = find_zs1(1000.0, params)
    assert abs(far.pole.value - z1.value) < 1e-6


def test_zs1_unique_in_scan_rectangle(params, z1):
    """Every seed in the rectangle below omega1 lands on the same root."""
    roots = set()
    for re0 in (1.3, 1.9, 2.5):
        for im0 in (-0.01, -0.1, -0.25):
            z = complex(re0, im0)
            for _ in range(80):
                f, df = eta_s1_derivative(z, X21, params)
                z = z - f / df
                if abs(f) < 1e-12:
                    break
            roots.add((round(z.real, 8), round(z.imag, 8)))
    assert len(roots) == 1


# ---------------------------------------------------------------- bounce terms

@pytest.fixture(scope="module")
def dec1(params):
    return BounceDecomposition.build(1.0, params, t_max=3.0)


def test_f0_is_plus_exponential(dec1):
    """f_0(t) = +e^{-i z_s1 t}; the plus sign is pinned by I(0) = 1."""
    t = 0.7
    assert bounce_term(0, t, dec1) == pytest.approx(np.exp(-1j * dec1.z_s1.value * t), abs=1e-14)


def test_f1_hand_product_rule(dec1, params):
    """f_1(t) = [Delta'(z_s1) - i t Delta(z_s1)] e^{-i z_s1 t}."""
    t = 1.3
    z = dec1.z_s1.value
    h = 1e-6
    dprime = (delta_k(z + h, 1.0, params) - delta_k(z - h, 1.0, params)) / (2 * h)
    expected = (dprime - 1j * t * delta_k(z, 1.0, params)) * np.exp(-1j * z * t)
    assert bounce_term(1, t, dec1) == pytest.approx(expected, rel=1e-8)


def test_bounce_ordering_in_lambda(dec1):
    t = 0.9
    mags = [abs(bounce_term(n, t, dec1)) for n in range(4)]
    for a, b in zip(mags, mags[1:]):
        assert b < 0.2 * a    # each bounce is down by O(lam^2)


def test_bounce_sum_before_first_bounce(dec1):
    t = 0.6
    assert bounce_sum(t, dec1) == pytest.approx(bounce_term(0, t, dec1), abs=1e-15)


def test_bounce_sum_kink(params):
    """|I_0|^2 decay rate changes abruptly at t = x21."""
    dec = BounceDecomposition.build(8.0, params, t_max=20.0)
    eps, h = 0.05, 0.4
    def slope(t):
        return (np.log(abs(bounce_sum(t + h, dec)) ** 2)
                - np.log(abs(bounce_sum(t - h, dec)) ** 2)) / (2 * h)

    before = slope(8.0 - h - eps)
    after = slope(8.0 + h + eps)
    assert abs(after - before) > 0.1 * abs(before)


def test_bounce_sum_tracks_lattice_survival(params):
    """(1/2)|I_0|^2 follows P_1 within the O(lam^2) branch-cut error
    (measured ~9e-3 at a generic distance; 2 pi lam^2 v^2 ~ 0.023)."""
    x21 = 9.8
    p = params.with_x21(x21)
    model = build_lattice(p, 120.0, 1201, "s")
    times = np.linspace(0.0, 2.6 * x21, 40)
    lattice = survival_probability(model, "s", times)
    dec = BounceDecomposition.build(x21, params, t_max=float(times.max()))
    series = np.array([0.5 * abs(bounce_sum(t, dec)) ** 2 for t in times])
    assert np.max(np.abs(series - lattice.values)) < 0.012


# ----------------------------------------------------------------- resummation

def test_resummed_identity_at_zero(dec1):
    rep = resummed(0.0, dec1)
    assert rep.rel_discrepancy < 1e-10
    assert rep.converged


def test_resummed_identity_over_window(dec1):
    worst = max(resummed(t, dec1).rel_discrepancy for t in np.linspace(0.0, 3.0, 7))
    assert worst < 1e-8


def test_resummed_against_exact_greens_pole(dec1):
    """z_tilde and N agree with the greens-route pole at the O(lam^4) level
    (the decomposition linearizes eta_s1 around z_s1)."""
    rep = resummed(1.0, dec1)
    assert abs(rep.z_tilde - rep.z_s_greens) < 1e-3
    assert abs(rep.weak_normalization - rep.exact_residue) < 5e-2


def test_resummed_divergence_detected(params):
    """At x21 = 29.025 the untruncated series grows like (|Delta| e x21)^n ~ 3.6^n."""
    dec = BounceDecomposition.build(X21, params, t_max=X21)
    with pytest.raises(ResummationError, match="tail bound"):
        resummed(0.5 * X21, dec)
    rep = resummed(0.5 * X21, dec, allow_divergent=True)
    assert not rep.converged


def test_long_time_limit(params):
    """e^{i z t} I_0(t) / N -> 1 (theta-truncated sum approaches the pole term)."""
    x21 = 8.0
    dec = BounceDecomposition.build(x21, params, t_max=12 * x21)
    rep = resummed(0.0, dec, allow_divergent=False)
    gaps = []
    for tfac in (4.0, 8.0, 12.0):
        t = tfac * x21
        val = bounce_sum(t, dec) * np.exp(1j * rep.z_tilde * t) / rep.weak_normalization
        gaps.append(abs(val - 1.0))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-3


# ---------------------------------------------------- amplitude quadrature

def test_amplitude_sum_rule(params, rho_grid_s29):
    val = amplitude_quadrature(0.0, SYMMETRIC, X21, params, grid=rho_grid_s29)
    assert abs(val - 1.0) < 2e-5


def test_amplitude_matches_lattice(params, model_s29, rho_grid_s29):
    times = np.linspace(0.0, 4 * X21, 120)
    lattice = survival_probability(model_s29, "s", times)
    amps = amplitude_quadrature(times, SYMMETRIC, X21, params, grid=rho_grid_s29)
    assert np.max(np.abs(0.5 * np.abs(amps) ** 2 - lattice.values)) < 5e-3


def test_antisymmetric_plateau(params):
    """Sub-radiant sector at x21=12.7: |I(t)|^2 plateaus at a nonzero value."""
    x21 = 12.7
    ts = np.array([40.0, 80.0])
    amps = amplitude_quadrature(ts, "a", x21, params)
    p2 = np.abs(amps) ** 2
    assert p2[1] / p2[0] > 0.98
    assert p2[1] > 0.3


def test_amplitude_negative_time_rejected(params):
    with pytest.raises(ValueError):
        amplitude_quadrature(-1.0, SYMMETRIC, X21, params)
