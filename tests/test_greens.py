import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective1d import (
    ANTISYMMETRIC,
    SYMMETRIC,
    ConfigError,
    ContinuationDomainError,
    FormFactorPoleError,
    ModelParams,
    OverflowGuardError,
    SolverError,
    WrongBranchError,
    amplitude_quadrature,
    continuum_weight,
    continuum_weight_grid,
    contour_map,
    eta_plus,
    eta_plus_derivative,
    find_pole,
    form_factor_sq,
    one_atom_pole,
    pole_scan,
    weak_coupling_estimate,
)
from collective1d.greens import (
    OVERFLOW_EXPONENT,
    ROOT_TOL,
    ConvergenceError,
    EstimateDivergence,
    EtaEvaluator,
    form_factor_sq_derivative,
    newton,
    pole_records_to_csv,
    poles_in_box,
    solve_poles,
)
from collective1d.quadrature import QuadratureSpec
from reference import continued_halfline_integral, ray_eta_plus, rung_scan

X21 = 29.025


# ---------------------------------------------------------------- form factor

def test_form_factor_zero_and_direct_value(params):
    assert form_factor_sq(0.0, params) == 0.0
    # direct evaluation at z=2, omegaM=5, n=1: 2 / (1 + (2/5)^2)^2
    expected = 2.0 / (1.0 + 0.4**2) ** 2
    assert form_factor_sq(2.0, params) == pytest.approx(expected, rel=1e-14)


def test_form_factor_reflection(params):
    z = 2.0 - 0.02j
    assert form_factor_sq(z, params) == pytest.approx(
        np.conj(form_factor_sq(np.conj(z), params)), rel=1e-14)


def test_form_factor_pole_guard(params):
    with pytest.raises(FormFactorPoleError):
        form_factor_sq(1j * params.omegaM * (1 + 1e-12), params)


# ------------------------------------------------------------------- eta_plus

def _eta_generic(z, sigma, x21, params, quad):
    def f(k):
        k = np.asarray(k, dtype=complex)
        w = 2 * params.lam**2 * form_factor_sq(k, params)
        if sigma is not None:
            w = w * (1 + sigma * np.cos(k * x21))
        return w

    return z - params.omega1 - continued_halfline_integral(f, z, quad)


@pytest.mark.parametrize("z", [1.99 - 0.03j, 2.1 + 0.02j, 2.05 + 0j])
@pytest.mark.parametrize("sector,sigma,x21", [
    (None, None, 0.0), (SYMMETRIC, 1, X21), (ANTISYMMETRIC, -1, 12.7)])
def test_eta_fast_path_vs_generic_quadrature(z, sector, sigma, x21, params, quad):
    """Rotated-ray evaluation against the singularity-subtraction route."""
    fast = eta_plus(z, sector, x21, params)
    generic = _eta_generic(complex(z), sigma, x21, params, quad)
    assert abs(fast - generic) < 2e-9


# The oracle cannot resolve 0 < |Im z| < ~1e-10 (its panels stall on the
# near-pole), so the real axis is drawn exactly and off-axis points keep
# |Im z| >= 1e-6 Re z.
_IM_FRACTION = st.one_of(st.just(0.0), st.floats(-0.69, -1e-6), st.floats(1e-6, 0.69))


@settings(max_examples=30, deadline=None)
@given(re=st.floats(0.01, 20.0), frac=_IM_FRACTION, x21=st.floats(1.0, 40.0),
       case=st.sampled_from([(None, None), (SYMMETRIC, 1), (ANTISYMMETRIC, -1)]))
def test_eta_matches_oracle_at_random_points(params, quad, re, frac, x21, case):
    """eta^+ against the adaptive continued integral anywhere in the
    evaluation region below the overflow guard (|Im z| x21 <= 552 here),
    to the fixed-point test's 2e-9 scaled by the size of e^{i z x21}."""
    sector, sigma = case
    x21 = 0.0 if sector is None else x21
    z = complex(re, frac * re)
    fast = eta_plus(z, sector, x21, params)
    generic = _eta_generic(z, sigma, x21, params, quad)
    assert abs(fast - generic) < 2e-9 * max(1.0, abs(np.exp(1j * z * x21)))


@settings(max_examples=40, deadline=None)
@given(re=st.floats(0.2, 20.0), frac=st.floats(-0.69, 0.69), x21=st.floats(1.0, 40.0),
       sector=st.sampled_from([None, SYMMETRIC, ANTISYMMETRIC]), n_ff=st.integers(1, 3))
def test_eta_and_derivative_match_ray_oracle(re, frac, x21, sector, n_ff):
    """The closed form against the rotated-ray quadrature it replaced, eta^+
    and eta^+' both, where the rays resolve the integrand (Re z >= 0.2; they
    agreed to 4e-15 on 1 350 such points), to 1e-12 max(1, |e^{i z x21}|)."""
    p = ModelParams(n_ff=n_ff)
    x21 = 0.0 if sector is None else x21
    z = complex(re, frac * re)
    eta, deta = eta_plus_derivative(z, sector, x21, p)
    want, dwant = ray_eta_plus(z, sector, x21, p)
    scale = 1e-12 * max(1.0, abs(np.exp(1j * z * x21)))
    assert abs(eta - want) < scale and abs(deta - dwant) < scale


@settings(max_examples=20, deadline=None)
@given(d=st.floats(-100.0, 100.0), x21=st.floats(1.0, 40.0), flip=st.booleans(),
       sector=st.sampled_from([SYMMETRIC, ANTISYMMETRIC]))
def test_eta_is_translation_covariant(params, d, x21, flip, sector):
    """Moving x1 and x2 together at fixed x21 (either atom first) leaves
    EtaEvaluator's eta^+ and eta^+' and find_pole's root bitwise unchanged:
    they see the pair through x21 alone."""
    base = ModelParams(x1=0.0, x2=x21)
    moved = ModelParams(x1=d + x21, x2=d) if flip else ModelParams(x1=d, x2=d + x21)
    z = np.array([1.3 - 0.02j, 2.0 + 0j, 2.4 - 0.5j, 7.5 - 0.1j])
    got = EtaEvaluator(moved, sector.sigma, x21).values(z, derivative=True)
    want = EtaEvaluator(base, sector.sigma, x21).values(z, derivative=True)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    seed = one_atom_pole(params).value
    assert find_pole(sector, x21, seed, moved) == find_pole(sector, x21, seed, base)


@pytest.mark.parametrize("z, sector, sigma, x21", [
    (0.01 + 0j, None, None, 0.0), (0.0284 + 0.0142j, SYMMETRIC, 1, 32.8)])
def test_eta_near_origin_is_resolved(params, quad, z, sector, sigma, x21):
    """The rotated-ray kernels were 4.8e-9 and 1.6e-7 off the oracle at these
    points; the closed form has no nodes to under-resolve 1/(z - k)."""
    fast = eta_plus(z, sector, x21, params)
    assert abs(fast - _eta_generic(complex(z), sigma, x21, params, quad)) < 2e-9


@pytest.mark.parametrize("n_ff", [1, 2])
@pytest.mark.parametrize("z, sector, x21", [
    (0.01 + 0j, None, 0.0), (0.4 - 0.2j, None, 0.0), (0.0284 + 0.0142j, SYMMETRIC, 32.8),
    (0.01 - 0.005j, ANTISYMMETRIC, 5.0), (2.0156 - 0.0114j, SYMMETRIC, X21),
    (1.3 + 0.4j, ANTISYMMETRIC, 12.7), (7.5 - 3.0j, SYMMETRIC, 3.0)])
def test_eta_and_derivative_match_tight_oracle(n_ff, z, sector, x21):
    """eta^+ and eta^+' against the adaptive continued integral at
    rel_tol 1e-13, to 1e-13 max(1, |e^{i z x21}|), down to Re z = 0.01.
    The oracle's eta^+' integrates w'(k)/(z - k): by parts,
    d/dz int w/(z - k) = w(0)/z + int w'/(z - k), and w(0) = 0."""
    p = ModelParams(n_ff=n_ff)
    spec = QuadratureSpec.for_params(p, rel_tol=1e-13, abs_tol=1e-14, max_panels=100_000)
    sigma = 0.0 if sector is None else sector.sigma

    def w(k):
        k = np.asarray(k, dtype=complex)
        return 2 * p.lam**2 * form_factor_sq(k, p) * (1 + sigma * np.cos(k * x21))

    def dw(k):
        k = np.asarray(k, dtype=complex)
        return 2 * p.lam**2 * (form_factor_sq_derivative(k, p) * (1 + sigma * np.cos(k * x21))
                               - sigma * x21 * form_factor_sq(k, p) * np.sin(k * x21))

    eta, deta = eta_plus_derivative(z, sector, x21, p)
    scale = 1e-13 * max(1.0, abs(np.exp(1j * z * x21)))
    assert abs(eta - (z - p.omega1 - continued_halfline_integral(w, z, spec))) < scale
    assert abs(deta - (1.0 - continued_halfline_integral(dw, z, spec))) < scale


def test_eta_against_mpmath_30_digits(params):
    """Third, fully external oracle: 30-digit mpmath quadrature of the plain
    integral (upper half-plane, so no continuation term is involved), chunked
    in half-periods of cos(k x21) out to k=300 plus the smooth tail.
    (A naive mp.quad over [k0, inf] mis-handles the endless oscillation and
    is ~1e-6 off; the chunked reference is good to ~5e-11.)"""
    import mpmath as mp

    mp.mp.dps = 30
    x21 = 12.7
    z = mp.mpc(2.1, 0.07)

    def v2(k):
        return k / (1 + (k / params.omegaM) ** 2) ** 2

    def f(k):
        return 2 * params.lam**2 * v2(k) * (1 + mp.cos(k * x21)) / (z - k)

    period = 2 * mp.pi / x21
    edges, k = [mp.mpf(0)], mp.mpf(0)
    while k < 300:
        k += period / 2
        edges.append(k)
    total = sum(mp.quad(f, [a, b]) for a, b in zip(edges[:-1], edges[1:]))
    total += mp.quad(lambda k: 2 * params.lam**2 * v2(k) / (z - k), [300, mp.inf])
    reference = complex(z - params.omega1 - total)
    mine = complex(eta_plus(2.1 + 0.07j, SYMMETRIC, x21, params))
    assert abs(mine - reference) < 1e-9


def test_eta_free_limit():
    p = ModelParams(lam=1e-10)
    for z in (1.5 - 0.1j, 2.7 + 0j):
        assert abs(eta_plus(z, SYMMETRIC, 9.0, p) - (z - p.omega1)) < 1e-12
        assert abs(eta_plus(z, None, 0.0, p) - (z - p.omega1)) < 1e-12


def test_one_atom_axis_imaginary_part(params):
    """Im eta^+(omega) = 2 pi lam^2 v(omega)^2 on the real axis."""
    val = eta_plus(complex(params.omega1), None, 0.0, params)
    expected = 2 * np.pi * params.lam**2 * form_factor_sq(params.omega1, params).real
    assert val.imag == pytest.approx(expected, rel=1e-10)


def test_conjugation_identity_on_axis(params):
    """With eta^- := conj(eta^+) on the axis (Schwarz reflection),
    eta^+ - eta^- = 4 pi i lam^2 v^2 (1 + sigma cos k x21) pointwise."""
    ks = np.linspace(0.7, 4.5, 40)
    for sector, sigma in ((SYMMETRIC, 1), (ANTISYMMETRIC, -1), (None, 0)):
        x21 = X21 if sector is not None else 0.0
        eta = eta_plus(ks.astype(complex), sector, x21, params)
        mod = 1.0 + sigma * np.cos(ks * x21) if sector is not None else 1.0
        expected = 4j * np.pi * params.lam**2 * form_factor_sq(ks, params).real * mod
        assert np.max(np.abs((eta - np.conj(eta)) - expected)) < 1e-10


def test_boundary_value_continuity_of_eta(params):
    """|eta^+(w - i d) - eta^+(w + i d)| -> 0 first order in d (Eq-34 term)."""
    omegas = np.linspace(1.4, 2.6, 7)
    for sector, x21 in ((SYMMETRIC, X21), (ANTISYMMETRIC, 12.7)):
        prev = None
        for delta in (1e-2, 1e-3, 1e-4):
            gap = np.max(np.abs(
                eta_plus(omegas - 1j * delta, sector, x21, params)
                - eta_plus(omegas + 1j * delta, sector, x21, params)))
            if prev is not None:
                assert gap < 0.2 * prev
            prev = gap
        assert prev < 1e-3   # ~ 2 |eta'| delta at delta = 1e-4


def test_overflow_guard_is_an_error(params):
    with pytest.raises(OverflowGuardError):
        eta_plus(2.0 - 1.2j, SYMMETRIC, 600.0, params)


def test_fast_region_guard(params):
    with pytest.raises(ContinuationDomainError):
        eta_plus(-1.0 - 0.1j, SYMMETRIC, 8.0, params)


# ------------------------------------------------------------------ find_pole

def test_one_atom_pole_value(params, z1):
    # Figure-caption values: gamma_1 = 0.0235, omega_tilde_1 = 1.985
    assert z1.omega_tilde == pytest.approx(1.985, abs=2e-3)
    assert z1.gamma == pytest.approx(0.0235, abs=2e-3)


def test_root_certificate_and_normalization(params, z1, zs29):
    for rec, sector, x21 in ((z1, None, 0.0), (zs29, SYMMETRIC, X21)):
        resid = abs(eta_plus(rec.value, sector, x21, params))
        assert resid < 1e-10 * max(1.0, abs(rec.value))
        # N * eta'(z) = 1 with eta' from central differences (independent route)
        h = 1e-6
        der = (eta_plus(rec.value + h, sector, x21, params)
               - eta_plus(rec.value - h, sector, x21, params)) / (2 * h)
        assert abs(rec.normalization * der - 1.0) < 1e-8


def test_self_consistency_field_sum(params, quad, zs29):
    """z_j = omega1 + J^+(z_j) assembled through the generic quadrature: the
    coupling-weighted field-amplitude sum reconstructs the pole."""
    def f(k):
        k = np.asarray(k, dtype=complex)
        return 2 * params.lam**2 * form_factor_sq(k, params) * (1 + np.cos(k * X21))

    reconstructed = params.omega1 + continued_halfline_integral(f, zs29.value, quad)
    assert abs(reconstructed - zs29.value) < 2e-9


def test_superradiant_and_subradiant_at_127(params, z1):
    za = find_pole(ANTISYMMETRIC, 12.7, z1.value, params)
    zs = find_pole(SYMMETRIC, 12.7, z1.value, params)
    assert za.gamma < 1e-4
    # measured collective enhancement at the superradiant maximum; the
    # e^{gamma x21} feedback pushes it well beyond the naive factor 2
    # (gamma_s x21 = 1.12 here). Confirmed independently by lattice evolution.
    assert zs.gamma / z1.gamma == pytest.approx(3.76, abs=0.1)


def test_wrong_branch_raises():
    with pytest.raises(WrongBranchError):
        from collective1d.greens import ComplexEnergy

        ComplexEnergy.from_root(2.0 + 0.1j, None, 0, 1.0 + 0j)


class _UpperRootOnRow(EtaEvaluator):
    """eta^+ except on one row, where eta = z - root with a root above the
    real axis (a branch eta^+ itself never has)."""

    def __init__(self, *args, row, root):
        super().__init__(*args)
        self.row, self.root = row, root

    def values(self, z, derivative=False, rows=None):
        eta, deta = super().values(z, derivative, rows)
        on_row = np.asarray(rows) == self.row
        eta[on_row] = z[on_row] - self.root
        deta[on_row] = 1.0
        return eta, deta


def test_solve_poles_rows_fail_alone(params, z1):
    """A seed outside the region, a seed beyond the overflow guard and a row
    converging onto the wrong branch each fail with their own error; every
    other row equals its one-row solve bit for bit."""
    sigma = [1, -1, 1, 1, -1, 1]
    x21 = [X21, 12.7, 8.0, X21, 12.7, 20.0]
    seeds = [z1.value, z1.value, -1.0 + 0j, 40.0 - 25.0j, z1.value, z1.value]
    ev = _UpperRootOnRow(params, sigma, x21, row=4, root=2.0 + 0.1j)
    got = solve_poles(ev, seeds)
    assert isinstance(got[2], ConvergenceError) and "outside the evaluation region" in str(got[2])
    assert isinstance(got[3], OverflowGuardError)
    assert isinstance(got[4], WrongBranchError)
    for i in (0, 1, 5):
        tag = "s" if sigma[i] > 0 else "a"
        assert got[i] == find_pole(tag, x21[i], seeds[i], params)


def test_find_pole_raises_the_row_error(params):
    with pytest.raises(ConvergenceError, match="outside the evaluation region"):
        find_pole(SYMMETRIC, 8.0, -1.0 + 0j, params)
    # outside the region, with the lattice pole 0.3976 - 0.1877i within
    # pi/x21 on the sigma side: a seed outside never falls back to the census
    with pytest.raises(ConvergenceError, match="outside the evaluation region"):
        find_pole(SYMMETRIC, X21, 0.3 - 0.25j, params)
    with pytest.raises(OverflowGuardError):
        find_pole(SYMMETRIC, X21, 40.0 - 25.0j, params)


@pytest.mark.parametrize("sector, x21", [(ANTISYMMETRIC, 26.9375), (SYMMETRIC, 25.33)])
def test_find_pole_from_z1_in_a_stall_window(params, z1, sector, x21):
    """From the one-atom seed the damped phase stalls and Newton fails on 19
    of 7 400 distances per sector in [3, 40) (step 0.005), e.g.
    [26.88, 26.95] (a) and [25.295, 25.375] (s). z1 sits there between the
    principal pole and its n = -sigma neighbour, and find_pole's census
    takes the root nearest z1 on the sigma side."""
    want = {26.9375: 1.930631640981 - 0.032066947066j, 25.33: 2.039730181886 - 0.033581091781j}
    pole = find_pole(sector, x21, z1.value, params)
    assert abs(pole.value - want[x21]) < 1e-11
    assert sector.sigma * (pole.omega_tilde - z1.omega_tilde) >= 0


@pytest.mark.parametrize("sector, x21, want", [
    (SYMMETRIC, 19.05, 2.039552 - 0.048652j),     # the solve from z1 lands on 2.710625 - 0.176348i
    (ANTISYMMETRIC, 33.25, 1.936442 - 0.022179j),  # ... and on 2.595038 - 0.095603i
])
def test_find_pole_from_z1_that_lands_far(params, z1, sector, x21, want):
    """A solve from z1 that converges more than pi/x21 away in Re falls back
    to the census as a stall does: the root nearest z1 on the sigma side."""
    pole = find_pole(sector, x21, z1.value, params)
    assert abs(pole.value - want) < 1e-6
    assert abs(eta_plus(pole.value, sector, x21, params)) < ROOT_TOL * max(1.0, abs(pole.value))


@pytest.mark.parametrize("sector, x21", [(ANTISYMMETRIC, 26.9375), (SYMMETRIC, 25.33),
                                         (SYMMETRIC, 19.0)])
def test_pole_scan_in_a_stall_window(params, sector, x21):
    """Where the solve from z1 stalls, pole_scan still finds the principal
    pole and its lattice neighbours n = -2..2; at (a, 26.9375) the principal
    pole is the root the sweep's continuation reaches."""
    records, missing = pole_scan(sector, x21, range(-2, 3), params)
    assert missing == []
    assert sorted(r.lattice_index for r in records) == [-2, -1, 0, 1, 2]
    for rec in records:
        assert abs(eta_plus(rec.value, sector, x21, params)) < ROOT_TOL * max(1.0, abs(rec.value))
    if sector is ANTISYMMETRIC:
        principal = next(r for r in records if r.lattice_index == 0)
        assert principal.value == pytest.approx(1.930631640981 - 0.032066947066j, abs=1e-11)


@pytest.mark.parametrize("sigma, x21", [(1, 0.0), (-1, -3.0), (1, np.nan), ([1, 0], 5.0)])
def test_evaluator_rejects_bad_rows(params, sigma, x21):
    with pytest.raises(ValueError):
        EtaEvaluator(params, sigma, x21)


# ------------------------------------------------------------- shared solvers

def test_newton_closed_form_root_and_derivative():
    c = 3.0 - 4.0j                      # principal square root 2 - i
    z, df = newton(lambda z: (z * z - c, 2.0 * z), 1.0, 1e-13, 50, "sqrt")
    assert abs(z * z - c) < 1e-13 * max(1.0, abs(z))
    assert z == pytest.approx(2.0 - 1.0j, abs=1e-12)
    assert df == 2.0 * z                # f' at the returned root, not the previous iterate


def test_newton_failures_name_the_solve():
    no_root = lambda z: (1.0 + 0j, 1.0)     # steps z -> z - 1 forever
    with pytest.raises(ConvergenceError, match=r"unit step did not converge in 5 steps \(\|f\|=1"):
        newton(no_root, 2.5, 1e-12, 5, "unit step")

    def fenced(z):
        if z.real <= 0:
            raise ContinuationDomainError("Re z <= 0")
        return no_root(z)

    with pytest.raises(ConvergenceError, match=r"fenced step left the evaluation region .*\|f\|=1"):
        newton(fenced, 2.5, 1e-12, 50, "fenced step")


def test_newton_secant_path_without_derivative():
    z, df = newton(lambda z: (np.cos(z) - z, None), 1.0, 1e-13, 50, "cosine")
    assert z.real == pytest.approx(0.7390851332151607, abs=1e-12) and z.imag == 0.0
    assert df is None


@pytest.mark.parametrize("const", [1.0, np.float64(1.0)], ids=["float", "float64"])
def test_newton_secant_flat_slope_names_the_solve(const):
    """A constant f gives a zero secant slope: a ConvergenceError, never a
    ZeroDivisionError, a NaN iterate or a numpy RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="flat has secant slope"):
            newton(lambda z: (const, None), 2.0, 1e-12, 30, "flat")


def test_newton_secant_passes_solver_errors_through():
    err = SolverError("left the window")
    calls = []

    def h(z):
        calls.append(z)
        if len(calls) > 2:
            raise err
        return 1.0 / z, None

    with pytest.raises(SolverError) as excinfo:
        newton(h, 2.0, 1e-12, 30, "window")
    assert excinfo.value is err and len(calls) == 3


# ------------------------------------------------------------------ pole_scan

def test_pole_scan_principal_and_spacing(params, zs29):
    records, missing = pole_scan(SYMMETRIC, X21, range(-3, 4), params)
    assert not missing
    by_n = {r.lattice_index: r for r in records}
    assert abs(by_n[0].value - zs29.value) < 1e-10
    for n in (1, 2, 3):    # sigma*n > 0 branch: spacing 2 pi n / x21
        pred = 2 * np.pi * n / X21
        got = by_n[n].omega_tilde - by_n[0].omega_tilde
        assert abs(got - pred) <= 0.10 * pred
    for n in (-1, -2, -3): # sigma*n < 0 branch: spacing (2n+1) pi / x21
        pred = (2 * n + 1) * np.pi / X21
        got = by_n[n].omega_tilde - by_n[0].omega_tilde
        assert abs(got - pred) <= 0.10 * abs(pred)
    # sorted by Re z
    res = [r.omega_tilde for r in records]
    assert res == sorted(res)


@settings(max_examples=12, deadline=None)
@given(x21=st.floats(3.0, 40.0), sector=st.sampled_from([SYMMETRIC, ANTISYMMETRIC]))
def test_pole_scan_normalization_is_the_residue(params, x21, sector):
    """N * eta^+'(z) = 1 at every pole_scan pole, and N equals the residue of
    1/eta^+ from a 32-point trapezoid rule on a small circle around z."""
    records, _ = pole_scan(sector, x21, range(-2, 3), params)
    theta = 2.0 * np.pi * np.arange(32) / 32
    for rec in records:
        eta, deta = eta_plus_derivative(rec.value, sector, x21, params)
        assert abs(eta) < ROOT_TOL * max(1.0, abs(rec.value))
        assert abs(rec.normalization * deta - 1.0) < 1e-13
        others = [abs(r.value - rec.value) for r in records if r is not rec]
        radius = min([1e-3] + [0.25 * d for d in others])
        circle = radius * np.exp(1j * theta)
        residue = np.mean(circle / eta_plus(rec.value + circle, sector, x21, params))
        assert abs(residue / rec.normalization - 1.0) < 1e-8


def test_pole_scan_free_limit():
    """Principal pole collapses to the real axis like lam^2 as lam -> 0.

    (The n != 0 lattice poles do the opposite: their depth is pinned by the
    requirement that the e^{gamma x21}-amplified coupling term bridge the
    offset from the dressed level, so gamma_n ~ ln(1/lam^2)/x21 grows in the
    free limit. They escape, they do not collapse.)
    """
    # generic distance (away from zero-decay points, where the scaling mixes)
    strong = pole_scan(SYMMETRIC, 9.8, range(0, 1), ModelParams(lam=0.05))[0]
    weak = pole_scan(SYMMETRIC, 9.8, range(0, 1), ModelParams(lam=0.01))[0]
    assert weak[0].gamma < 0.08 * strong[0].gamma
    # lattice-pole deepening, documented:
    deep = pole_scan(SYMMETRIC, 29.025, range(-1, 2), ModelParams(lam=0.01))[0]
    ref = pole_scan(SYMMETRIC, 29.025, range(-1, 2), ModelParams(lam=0.05))[0]
    g_weak_1 = max(r.gamma for r in deep if r.lattice_index != 0)
    g_strong_1 = max(r.gamma for r in ref if r.lattice_index != 0)
    assert g_weak_1 > g_strong_1


# ------------------------------------------------------------- pole census

@pytest.mark.parametrize("sector, x21, count", [(SYMMETRIC, X21, 38), (ANTISYMMETRIC, 12.7, 17)])
def test_census_labels_every_pole_of_the_rung_hunt(params, sector, x21, count):
    """At both spectral cases, every pole the rung hunt (reference.rung_scan,
    pole_scan before the census) finds over the lattice range the spectral
    grid used to scan comes back from pole_scan with the same index, within
    1e-10."""
    n_side = int(np.ceil(3.0 * params.omega1 * x21 / (2.0 * np.pi))) + 1
    n_range = range(-n_side, n_side + 1)
    want = rung_scan(sector, x21, n_range, params)
    got = {r.lattice_index: r for r in pole_scan(sector, x21, n_range, params)[0]}
    assert len(want) == count
    for n, rec in want.items():
        assert abs(got[n].value - rec.value) < 1e-10, n


@pytest.mark.parametrize("sector, x21", [(SYMMETRIC, 14.5), (SYMMETRIC, 34.0),
                                         (ANTISYMMETRIC, 30.0), (ANTISYMMETRIC, 31.0)])
def test_pole_scan_settles_with_roots_near_box_edges(params, sector, x21):
    """Four distances at which a census with panels fixed at 0.05 (uniform
    boxes, one panel rule for all sizes) is reported not to settle, a root
    lying near a box edge: pole_scan settles and certifies every root."""
    records, _ = pole_scan(sector, x21, range(-3, 4), params)
    for rec in records:
        assert abs(eta_plus(rec.value, sector, x21, params)) < ROOT_TOL * max(1.0, abs(rec.value))


@settings(max_examples=8, deadline=None)
@given(x21=st.floats(3.0, 40.0), sector=st.sampled_from([SYMMETRIC, ANTISYMMETRIC]))
def test_poles_in_box_is_the_union_of_its_halves(params, x21, sector):
    """A box returns the roots of its two halves; every root is certified,
    |eta^+| < ROOT_TOL max(1, |z|), with N eta^+' = 1."""
    ev = EtaEvaluator(params, sector.sigma, x21)
    lo, hi = 1.4 - 0.4j, 2.6 + 0.05j
    whole = poles_in_box(ev, lo, hi)
    halves = poles_in_box(ev, lo, 2.0 + 0.05j) + poles_in_box(ev, 2.0 - 0.4j, hi)
    assert len(whole) == len(halves) > 0
    for a, b in zip(whole, sorted(halves, key=lambda r: r.omega_tilde)):
        assert abs(a.value - b.value) < 1e-9
    for rec in whole:
        eta, deta = eta_plus_derivative(rec.value, sector, x21, params)
        assert abs(eta) < ROOT_TOL * max(1.0, abs(rec.value))
        assert abs(rec.normalization * deta - 1.0) < 1e-13


def test_poles_in_box_counts_a_root_near_its_edge(params, zs29, monkeypatch):
    """Panels shrink with the box: a root 1e-4 inside an edge of a 4e-3 box
    counts 1 - 6e-7 without a cut, whichever edge it is near (one panel per
    side, 1/x21 long, counts 0.839)."""
    from collective1d import greens

    monkeypatch.setattr(greens, "_CENSUS_CUTS", 0)
    ev = EtaEvaluator(params, 1, X21)
    for inset in (1e-4 + 2e-3j, 3.9e-3 + 2e-3j, 2e-3 + 1e-4j, 2e-3 + 3.9e-3j):
        lo = zs29.value - inset
        got = poles_in_box(ev, lo, lo + 4e-3 + 4e-3j)
        assert len(got) == 1 and abs(got[0].value - zs29.value) < 1e-12


def test_poles_in_box_never_accepts_a_repeated_or_outside_root(params, zs29, monkeypatch):
    """Seeds that polish onto a root already found, or onto one outside the
    box, make the census cut; when no cut helps it raises SolverError rather
    than report a root twice or miss one."""
    from collective1d import greens

    deta = eta_plus_derivative(zs29.value, SYMMETRIC, X21, params)[1]
    monkeypatch.setattr(greens, "newton", lambda *args: (zs29.value, deta))
    ev = EtaEvaluator(params, 1, X21)
    with pytest.raises(SolverError, match="did not settle"):
        poles_in_box(ev, 1.95 - 0.1j, 2.3 + 0.05j)     # z_s and z_{s,1} = 2.2114 - 0.0775i


@pytest.mark.parametrize("sector, x21", [(SYMMETRIC, X21), (ANTISYMMETRIC, 12.7), (SYMMETRIC, 19.0)])
def test_batched_census_is_the_union_of_its_boxes(params, sector, x21):
    """The census loop over a tiling, its polygons evaluated together, finds
    what poles_in_box finds box by box: the same count, roots within 1e-12
    and N within 1e-10."""
    from collective1d import greens

    ev = EtaEvaluator(params, sector.sigma, x21)
    edges = np.linspace(0.5, 6.0, 12)
    boxes = [(complex(a, -0.4), complex(b, 0.05)) for a, b in zip(edges, edges[1:])]
    batched = [rec for recs in greens._census_boxes(ev, boxes) for rec in recs]
    single = [rec for lo, hi in boxes for rec in poles_in_box(ev, lo, hi)]
    assert len(batched) == len(single) > 0
    for a, b in zip(batched, single):
        assert abs(a.value - b.value) < 1e-12
        assert abs(a.normalization - b.normalization) < 1e-10


def test_strip_census_memory(params):
    """The strip census of the (s, 29.025) spectral grid evaluates its
    contours about 8 * _BLOCK nodes at a time, not all 92 k at once: its
    traced peak stays under 3 MB (2.7 MB measured; 1.6 MB box by box)."""
    import tracemalloc

    from collective1d import greens

    ev = EtaEvaluator(params, 1, X21)
    greens._census(ev, 0.0, 16.0 * params.omegaM, 0.05)
    tracemalloc.start()
    try:
        greens._census(ev, 0.0, 16.0 * params.omegaM, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def test_census_loop_memory_on_the_full_strip(params):
    """The census loop alone over all 160 boxes of the (s, 29.025) strip,
    none excluded, keeps the 3 MB bound of the strip census (2.6 MB
    measured; the census with its exclusion peaks at 1.6 MB)."""
    import tracemalloc

    from collective1d import greens

    ev = EtaEvaluator(params, 1, X21)
    boxes = greens._census_tiling(ev, 0.0, 16.0 * params.omegaM, 0.05)
    greens._census_boxes(ev, boxes)
    tracemalloc.start()
    try:
        greens._census_boxes(ev, boxes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(boxes) == 160 and peak < 3.0e6


def _strip_depth(x21):
    """The census depth of continuum_weight_grid at t_max = 5 x21: 20 base steps."""
    return 20.0 * min(2.5e-3, 2.0 * np.pi / x21 / 24.0, np.pi / (20.0 * x21))


@settings(max_examples=12, deadline=None)
@given(x21=st.floats(3.0, 40.0, exclude_max=True), sector=st.sampled_from([SYMMETRIC, ANTISYMMETRIC]),
       omega1=st.sampled_from([1.0, 2.0]))
def test_exclusion_never_changes_a_census(x21, sector, omega1):
    """At the strip depth of continuum_weight_grid, the census that drops
    the boxes the exclusion clears finds what the census loop finds on the
    full tiling: the same count, roots within 1e-12 and N within 1e-10."""
    from collective1d import greens

    params = ModelParams(omega1=omega1)
    ev = EtaEvaluator(params, sector.sigma, x21)
    re_hi, depth = 16.0 * params.omegaM, _strip_depth(x21)
    kept = greens._census(ev, 0.0, re_hi, depth)
    full = [rec for recs in greens._census_boxes(ev, greens._census_tiling(ev, 0.0, re_hi, depth))
            for rec in recs]
    assert len(kept) == len(full)
    for a, b in zip(kept, full):
        assert abs(a.value - b.value) < 1e-12
        assert abs(a.normalization - b.normalization) < 1e-10


@pytest.mark.parametrize("sector, x21", [(SYMMETRIC, X21), (ANTISYMMETRIC, 12.7)])
def test_exclusion_keeps_the_spectral_bits(params, monkeypatch, sector, x21):
    """At both spectral cases k, rho and A(t) on 600 times are bitwise those
    of the census that counts every box of the strip."""
    from collective1d import greens

    times = np.linspace(0.0, 5.0 * x21, 600)

    def spectral():
        k, rho = continuum_weight_grid(sector, x21, params, t_max=5.0 * x21)
        return k, rho, amplitude_quadrature(times, sector, x21, params, grid=(k, rho))

    excluded = spectral()
    monkeypatch.setattr(greens, "_excluded", lambda ev, boxes: np.zeros(len(boxes), dtype=bool))
    for a, b in zip(excluded, spectral()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _cleared_boxes_hold(params, sector, x21):
    """Check |A| > |c e^{izx21}|, c = 2 pi i sigma lam^2 v^2 and A = eta^+ -
    c e^{izx21}, on a grid of spacing 1/(8 x21) over every box the exclusion
    clears at the strip depth, and on the box's own census contour nodes;
    return the number of cleared boxes and of boxes."""
    from collective1d import greens

    ev = EtaEvaluator(params, sector.sigma, x21)
    boxes = greens._census_tiling(ev, 0.0, 16.0 * params.omegaM, _strip_depth(x21))
    cleared = [box for box, empty in zip(boxes, greens._excluded(ev, boxes)) if empty]
    for lo, hi in cleared:
        re, im = (np.linspace(a, b, int(np.ceil(8.0 * x21 * (b - a))) + 1)
                  for a, b in ((lo.real, hi.real), (lo.imag, hi.imag)))
        rect = np.array([lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)])
        z = np.concatenate([(re[:, None] + 1j * im).ravel(), greens._contour(rect, 1.0 / x21)[0]])
        ce = 2j * np.pi * sector.sigma * params.lam**2 * form_factor_sq(z, params) * np.exp(1j * x21 * z)
        a = eta_plus(z, sector, x21, params) - ce
        assert np.all(np.abs(a) > np.abs(ce)), (lo, hi)
    return len(cleared), len(boxes)


@pytest.mark.parametrize("sector, x21", [(SYMMETRIC, X21), (ANTISYMMETRIC, 12.7)])
def test_exclusion_certificate_holds_at_the_spectral_cases(params, sector, x21):
    """Every box the exclusion clears at both spectral cases holds
    |A| > |c e^{izx21}| densely, and the exclusion clears all but a few of
    the 160 boxes (158 measured)."""
    cleared, boxes = _cleared_boxes_hold(params, sector, x21)
    assert boxes == 160 and cleared >= 150


@settings(max_examples=3, deadline=None)
@given(x21=st.floats(3.0, 40.0, exclude_max=True), sector=st.sampled_from([SYMMETRIC, ANTISYMMETRIC]))
def test_exclusion_certificate_holds_at_random_distances(params, x21, sector):
    """Every box the exclusion clears at a random distance holds
    |A| > |c e^{izx21}| densely."""
    _cleared_boxes_hold(params, sector, x21)


@pytest.mark.parametrize("sector, x21", [(SYMMETRIC, X21), (ANTISYMMETRIC, 12.7), (SYMMETRIC, 34.0)])
def test_exclusion_never_clears_a_box_round_a_root(params, sector, x21):
    """Boxes from 2e-3 to 0.2 wide, each holding a census root off centre,
    are never cleared: where the sample grid is fine, only the |c e^{izx21}|
    term of the bound keeps them."""
    from collective1d import greens

    ev = EtaEvaluator(params, sector.sigma, x21)
    roots = [rec.value for rec in poles_in_box(ev, 1.0 - 0.4j, 3.0 + 0.05j)]
    boxes = [(z - half * (1.0 + 0.6j) * shift, z + half * (1.0 + 0.6j) * (2.0 - shift))
             for z in roots for half in (1e-3, 1e-2, 0.1) for shift in (0.3, 1.0, 1.7)]
    assert len(roots) >= 3 and not greens._excluded(ev, boxes).any()


@pytest.mark.parametrize("omega1", [2.0, 1.0])
@pytest.mark.parametrize("sector, x21", [(SYMMETRIC, X21), (ANTISYMMETRIC, 12.7)])
def test_spectral_grid_needs_no_pole_scan(monkeypatch, sector, x21, omega1):
    """continuum_weight_grid takes its narrow poles from a census of the
    strip it windows, and amplitude_quadrature builds on it: both run with
    pole_scan patched to raise. At omega1 = 1 the strip starts at Re z =
    0.05, where a box closing at Im z = 0.05 would reach outside
    |Im z| < 0.7 Re z: census boxes are clipped there at the top too."""
    from collective1d import greens

    def refuse(*args, **kwargs):
        raise AssertionError("the spectral grid ran pole_scan")

    monkeypatch.setattr(greens, "pole_scan", refuse)
    params = ModelParams(omega1=omega1)
    k, rho = continuum_weight_grid(sector, x21, params, t_max=5.0 * x21)
    assert abs(np.trapezoid(rho, k) - 1.0) < 2e-5
    amps = amplitude_quadrature(np.array([0.0, x21]), sector, x21, params)
    assert abs(amps[0] - 1.0) < 2e-5


# ------------------------------------------------- weak-coupling estimate

def test_weak_estimate_one_atom_reduction(params, z1):
    est = weak_coupling_estimate(None, 0.0, params)
    expected = 2 * np.pi * params.lam**2 * form_factor_sq(z1.omega_tilde, params).real
    assert est.gamma == pytest.approx(expected, rel=1e-6)
    assert est.gamma == pytest.approx(z1.gamma, abs=3e-4)   # Weisskopf-Wigner level
    assert not est.certified


def test_weak_estimate_subradiant_branch(params):
    """Near a symmetric zero-decay distance the bracketed term vanishes."""
    from collective1d import zero_decay_solve

    sol = zero_decay_solve(SYMMETRIC, 3, params)
    est = weak_coupling_estimate(SYMMETRIC, sol.x21_zero, params)
    assert est.gamma < 5e-5


def test_weak_estimate_vs_find_pole(params, z1, zs29, za29):
    for sector, exact in ((SYMMETRIC, zs29), (ANTISYMMETRIC, za29)):
        est = weak_coupling_estimate(sector, X21, params)
        assert abs(est.value - exact.value) < 1e-3


def test_weak_estimate_divergence_flagged():
    # strong coupling at a superradiant distance: e^{gamma x21} runs away and
    # the caller is told to fall back to find_pole
    with pytest.raises(EstimateDivergence):
        weak_coupling_estimate(SYMMETRIC, 12.7, ModelParams(lam=0.12))


# ------------------------------------------------------------ continuum weight

def test_continuum_weight_antisymmetric_zero(params):
    x21 = 12.7
    k = 2 * np.pi * 3 / x21    # cos(k x21) = 1 exactly
    val = continuum_weight(k, ANTISYMMETRIC, x21, params)
    assert abs(val) < 1e-18


@pytest.mark.parametrize("bad", [{"t_max": float("nan")}, {"t_max": -5.0}, {"t_max": float("inf")}])
def test_continuum_weight_grid_rejects_bad_inputs(params, bad):
    """A non-finite or negative t_max is a one-line ConfigError, raised
    before any pole is searched."""
    with pytest.raises(ConfigError, match=next(iter(bad))) as exc:
        continuum_weight_grid("s", X21, params, **bad)
    assert "\n" not in str(exc.value)


def test_continuum_weight_sum_rule(params, rho_grid_s29):
    kgrid, rho = rho_grid_s29
    total = np.trapezoid(rho, kgrid)
    assert total == pytest.approx(1.0, abs=2e-5)


def test_continuum_weight_lorentzian_shape(params, zs29, rho_grid_s29):
    kgrid, rho = rho_grid_s29
    window = (kgrid > zs29.omega_tilde - 10 * zs29.gamma) & \
             (kgrid < zs29.omega_tilde + 10 * zs29.gamma)
    kw, rw = kgrid[window], rho[window]
    peak = kw[np.argmax(rw)]
    assert abs(peak - zs29.omega_tilde) < 2 * zs29.gamma
    half = rw.max() / 2
    above = kw[rw > half]
    hwhm = 0.5 * (above[-1] - above[0])
    assert hwhm == pytest.approx(zs29.gamma, rel=0.25)


@pytest.mark.parametrize("sector, x21, pole", [
    (SYMMETRIC, 34.0, 2.074271 - 0.039145j),
    (ANTISYMMETRIC, 37.5, 1.889492 - 0.038333j),
    (ANTISYMMETRIC, 37.5, 2.132160 - 0.048495j)])
def test_grid_windows_narrow_poles_beyond_the_rung_hunt(params, sector, x21, pole):
    """Narrow poles the rung hunt never labelled get their 601-point window
    over +-12 gamma on the grid of a transform up to 5 x21."""
    k, _ = continuum_weight_grid(sector, x21, params, t_max=5.0 * x21)
    assert np.count_nonzero(np.abs(k - pole.real) <= 12.0 * -pole.imag) >= 601


# ----------------------------------------------------------------- contour map

def test_contour_map_maxima_colocate_with_poles(params):
    records, _ = pole_scan(SYMMETRIC, X21, range(-2, 3), params)
    cmap = contour_map((1.3, 2.7, -0.1, 0.0), (141, 51), SYMMETRIC, X21, params)
    assert np.all(np.isfinite(cmap.values))
    assert cmap.overflow_count == 0
    inside = [r for r in records if 1.3 < r.omega_tilde < 2.7 and 0 < r.gamma < 0.1]
    assert inside
    for rec in inside:
        ix = int(np.argmin(np.abs(cmap.re - rec.omega_tilde)))
        iy = int(np.argmin(np.abs(cmap.im + rec.gamma)))
        # within one grid cell of the root, log(1/|eta|) is far above the
        # background (the map blows up at the pole)
        patch = cmap.values[max(iy - 1, 0): iy + 2, max(ix - 1, 0): ix + 2]
        background = np.median(cmap.values)
        assert patch.max() > background + 2.0


@pytest.mark.parametrize("region, x21", [
    ((-0.2, 1.0, -0.5, 0.0), 8.0),        # cells left of and below the region
    ((40.0, 41.0, -17.0, -16.0), 40.0),   # cells past the overflow guard
])
def test_contour_map_equals_eta_plus_on_its_cells(params, region, x21):
    """Every in-region cell holds -log|eta^+| of its row's eta_plus call bit
    for bit; every other cell holds the sentinel and is counted."""
    cmap = contour_map(region, (13, 11), SYMMETRIC, x21, params)
    z = cmap.re[None, :] + 1j * cmap.im[:, None]
    bad = ((z.real <= 0) | (np.abs(z.imag) >= 0.7 * z.real)
           | (-z.imag * x21 > OVERFLOW_EXPONENT))
    assert 0 < cmap.overflow_count == bad.sum() < bad.size
    assert np.all(cmap.values[bad] == cmap.sentinel)
    for iy in range(z.shape[0]):
        ok = ~bad[iy]
        if ok.any():
            want = -np.log(np.abs(eta_plus(z[iy, ok], SYMMETRIC, x21, params)))
            assert np.array_equal(cmap.values[iy, ok], want)


def test_contour_free_limit_ridge():
    p = ModelParams(lam=1e-6)
    cmap = contour_map((1.5, 2.5, -0.08, 0.0), (41, 21), SYMMETRIC, 8.0, p)
    # no finite maxima below the axis: every column peaks at the top row
    assert np.all(np.argmax(cmap.values, axis=0) == cmap.values.shape[0] - 1)


def test_continuation_not_symmetric_across_axis(params, zs29):
    z = complex(zs29.omega_tilde, -0.5 * zs29.gamma)
    up = eta_plus(np.conj(z), SYMMETRIC, X21, params)
    down = eta_plus(z, SYMMETRIC, X21, params)
    assert abs(abs(up) - abs(down)) > 1e-6


def test_pole_csv_round_trip(tmp_path, zs29):
    path = tmp_path / "poles.csv"
    pole_records_to_csv([zs29], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sector,n,re,im,gamma,re_N,im_N"
    fields = lines[1].split(",")
    assert fields[0] == "symmetric"
    assert float(fields[2]) == pytest.approx(zs29.omega_tilde, rel=1e-15)


def test_no_quadrature_spec_in_the_eta_layer():
    """eta^+ runs on fixed ray kernels, so no public callable of the modules
    built on it takes a `quad`, except the two slots the benchmark still
    fills positionally, which are ignored."""
    import inspect

    from collective1d import QuadratureSpec, bounces, dynamics, greens, sweep

    slots = {"continuum_weight_grid": greens, "amplitude_quadrature": bounces}
    checked = []
    for module in (greens, sweep, dynamics, bounces):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type):
                targets = [(f"{name}.{attr}", getattr(obj, attr)) for attr in ("__init__", "build")
                           if attr in vars(obj)]
            else:
                targets = [(name, obj)] if callable(obj) else []
            for label, fn in targets:
                checked.append(label)
                if name not in slots:
                    assert "quad" not in inspect.signature(fn).parameters, label
    for name, module in slots.items():
        assert inspect.signature(getattr(module, name)).parameters["quad"].default is None
    assert {"EtaEvaluator.__init__", "BounceDecomposition.build", "find_pole"} <= set(checked)
    assert not hasattr(QuadratureSpec, "check_cutoff")
    assert not hasattr(EtaEvaluator(ModelParams(), 0, 0.0), "quad")


def test_no_setting_without_a_caller():
    """Eleven parameters, one dataclass field and one config key that no
    package code, demo or benchmark set are gone: every caller gets the one
    value it always got."""
    import dataclasses
    import inspect

    from collective1d import bounces, cli, dynamics, greens, sweep

    removed = {greens.continuum_weight_grid: {"k_max", "base_step"},
               bounces.amplitude_quadrature: {"k_max"},
               greens.find_pole: {"lattice_index"},
               greens.newton: {"f", "df"},
               greens.solve_poles: {"rows"},
               dynamics.field_intensity: {"label"},
               sweep.stable_points: {"noise_floor"},
               sweep.subradiance_roots: {"n_scan"},
               bounces.BounceDecomposition.build: {"t_max"}}
    assert sum(map(len, removed.values())) == 11
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__qualname__
    assert "n_max" not in {field.name for field in dataclasses.fields(bounces.BounceDecomposition)}
    assert "write_contour" not in cli.DEFAULT_CONFIG["poles"]
