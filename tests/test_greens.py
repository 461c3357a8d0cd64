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
    fixed_point,
    form_factor_sq_derivative,
    newton,
    pole_records_to_csv,
    solve_poles,
)
from collective1d.quadrature import QuadratureSpec
from reference import continued_halfline_integral, ray_eta_plus

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
    # the same rows, solved as a subset of a larger evaluator, agree as well
    assert solve_poles(ev, [seeds[5], seeds[0]], rows=[5, 0]) == [got[5], got[0]]


def test_find_pole_raises_the_row_error(params):
    with pytest.raises(ConvergenceError, match="outside the evaluation region"):
        find_pole(SYMMETRIC, 8.0, -1.0 + 0j, params)
    with pytest.raises(OverflowGuardError):
        find_pole(SYMMETRIC, X21, 40.0 - 25.0j, params)


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="the solve from z1 stalls in narrow distance windows")
@pytest.mark.parametrize("sector, x21", [(ANTISYMMETRIC, 26.9375), (SYMMETRIC, 25.33)])
def test_find_pole_from_z1_in_a_stall_window(params, z1, sector, x21):
    """Known fault: from the one-atom seed the damped phase stalls and Newton
    fails on 19 of 7 400 distances per sector in [3, 40) (step 0.005), e.g.
    [26.88, 26.95] (a) and [25.295, 25.375] (s); pole_scan seeds off z1 there."""
    find_pole(sector, x21, z1.value, params)


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


def test_fixed_point_contraction_and_stall():
    x, residual = fixed_point(np.cos, 1.0, 1e-13, 200, "cosine")
    assert residual < 1e-13
    assert x == pytest.approx(0.7390851332151607, abs=1e-12)
    with pytest.raises(ConvergenceError, match="drift stalled at residual 1.00e"):
        fixed_point(lambda x: x + 1.0, 0.0, 1e-12, 30, "drift")
    assert issubclass(ConvergenceError, SolverError)


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


@pytest.mark.parametrize("bad", [
    {"t_max": float("nan")}, {"t_max": -5.0}, {"t_max": float("inf")}, {"base_step": 0.0},
    {"k_max": float("nan")}, {"base_step": -1e-3}, {"k_max": 0.0}])
def test_continuum_weight_grid_rejects_bad_inputs(params, bad):
    """A non-finite or out-of-range t_max, k_max or base_step is a one-line
    ConfigError, raised before any pole is searched."""
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
