from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from collective1d import (
    ANTISYMMETRIC,
    ModelParams,
    SYMMETRIC,
    angular_factor,
    find_pole,
    force_indicator,
    one_atom_pole,
    pair_relation_check,
    stable_points,
    subradiance_roots,
    sweep_poles,
    zero_decay_solve,
)
from collective1d import sweep
from collective1d.greens import _evaluator
from collective1d.sweep import sweep_to_csv, zero_decay_to_json

import reference


# ------------------------------------------------------------------- the sweep

def test_sweep_all_points_converged(sweep_records):
    assert all(r.converged_s and r.converged_a for r in sweep_records)
    assert all(r.z_s.gamma >= 0 and r.z_a.gamma >= 0 for r in sweep_records)
    xs = [r.x21 for r in sweep_records]
    assert xs == sorted(xs)


def test_sweep_rejects_non_increasing_grid(params):
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_poles(np.array([5.0, 5.0, 6.0]), params)


@pytest.mark.parametrize("grid", [[5.0, np.nan, 6.0], [-1.0, 0.0, 1.0], [0.0, 0.5, 1.0],
                                  [5.0, 6.0, np.inf]])
def test_sweep_rejects_non_finite_or_non_positive_grid(params, grid):
    with pytest.raises(ValueError, match="finite and positive"):
        sweep_poles(np.array(grid), params)


@settings(max_examples=10, deadline=None)
@given(origin=st.floats(5.0, 39.0), step=st.floats(0.01, 1.5), n=st.integers(1, 40),
       block=st.sampled_from([1, 3, 7, 64]))
def test_blocked_sweep_equals_sequential_sweep(params, origin, step, n, block):
    """The Jacobi passes reach the point-by-point rule: the same convergence
    flags and the same roots to 1e-12, for any block size."""
    grid = origin + step * np.arange(n)
    grid = grid[grid <= 40.0]
    with mock.patch.object(sweep, "_BLOCK", block):
        got = sweep_poles(grid, params)
    want = reference.sweep_poles(grid, params)
    for g, w in zip(got, want, strict=True):
        assert g.x21 == w.x21
        for zg, zw in ((g.z_s, w.z_s), (g.z_a, w.z_a)):
            assert (zg is None) == (zw is None)
            if zg is not None:
                assert abs(zg.value - zw.value) <= 1e-12
                assert abs(zg.normalization - zw.normalization) <= 1e-10


def test_sweep_and_zero_decay_leave_the_evaluator_cache_alone(params):
    """Both build their evaluators outside the cache, so they neither grow
    it nor evict what other callers cached."""
    _evaluator.cache_clear()
    one_atom_pole(params)
    before = _evaluator.cache_info().currsize
    sweep_poles(np.arange(7.5, 8.3, 0.1), params)
    zero_decay_solve(SYMMETRIC, 2, params)
    assert _evaluator.cache_info().currsize == before


def test_gamma_oscillation_period(sweep_records, z1):
    """Dips of gamma_s recur with period ~ 2 pi / omega_tilde_1 = 3.165."""
    xs = np.array([r.x21 for r in sweep_records])
    gs = np.array([r.z_s.gamma for r in sweep_records])
    dips = []
    for i in range(1, len(xs) - 1):
        if gs[i] < gs[i - 1] and gs[i] < gs[i + 1] and gs[i] < 1e-3:
            dips.append(xs[i])
    spacings = np.diff(dips)
    expected = 2 * np.pi / z1.omega_tilde
    assert np.max(np.abs(spacings - expected)) < 0.03 * expected


def test_127_subradiant_antisymmetric_superradiant_symmetric(sweep_records):
    by_x = {round(r.x21, 3): r for r in sweep_records}
    rec = by_x[12.7]
    assert rec.z_a.gamma < 1e-4
    window = [r.z_s.gamma for r in sweep_records if 11.7 <= r.x21 <= 13.7]
    assert rec.z_s.gamma >= 0.9 * max(window)


def test_decay_rates_decrease_at_large_distance(sweep_records):
    early = max(r.z_s.gamma for r in sweep_records if r.x21 <= 15.0)
    late = max(r.z_s.gamma for r in sweep_records if r.x21 >= 30.0)
    assert late < early


def test_omega_mean_matches_one_atom(sweep_records, z1):
    """Sweep mean of omega_tilde_j over whole periods ~ omega_tilde_1."""
    xs = np.array([r.x21 for r in sweep_records])
    period = 2 * np.pi / z1.omega_tilde
    n_per = int((xs[-1] - xs[0]) / period)
    mask = xs <= xs[0] + n_per * period
    for getter in (lambda r: r.z_s, lambda r: r.z_a):
        om = np.array([getter(r).omega_tilde for r in sweep_records])[mask]
        assert abs(om.mean() - z1.omega_tilde) < 1e-2


# ----------------------------------------------------------------------- force

@pytest.fixture(scope="module")
def force(sweep_records):
    return force_indicator(sweep_records)


def test_force_minima_colocate_with_gamma_maxima(sweep_records, force):
    xs, fs = force["s"]
    gs = np.array([r.z_s.gamma for r in sweep_records])

    def local_minima(vals, threshold):
        idx = []
        for i in range(2, len(vals) - 2):
            if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < threshold:
                idx.append(i)
        return np.array(idx)

    g_max = local_minima(-gs, -0.02)          # maxima of gamma_s
    assert g_max.size >= 5
    for ig in g_max:
        window = np.abs(xs - xs[ig]) <= 0.5
        iw = np.where(window)[0]
        imin = iw[np.nanargmin(fs[iw])]
        # the in-window minimum is interior (a genuine local minimum of F)
        assert iw[0] < imin < iw[-1]


def test_force_flat_at_zero_decay(params, sweep_records, force):
    """dF_s/dx21 ~ 0 where gamma_s vanishes."""
    xs, fs = force["s"]
    dfs = np.gradient(fs, xs)
    sol = zero_decay_solve(SYMMETRIC, 4, params)
    i0 = np.argmin(np.abs(xs - sol.x21_zero))
    typical = np.nanmax(np.abs(dfs[np.abs(xs - sol.x21_zero) < 1.6]))
    assert abs(dfs[i0]) < 0.25 * typical


def test_stable_points_alternate_and_count(force):
    xs, fs = force["s"]
    points = stable_points(force["s"])
    assert len(points) >= 4
    flags = [stable for _, stable in points]
    assert all(a != b for a, b in zip(flags, flags[1:]))
    # two roots (one stable, one unstable) per oscillation period
    roots = np.array([x for x, _ in points])
    period = 3.165
    window = (roots >= 10.0) & (roots <= 10.0 + period)
    assert window.sum() == 2


def test_stable_points_degenerate_input_suppressed():
    xs = np.linspace(1.0, 2.0, 11)
    force = (xs, np.full(xs.shape, 1e-14))
    assert stable_points(force) == []


def test_force_needs_enough_points():
    with pytest.raises(ValueError):
        force_indicator([])


# ------------------------------------------------------------------ zero decay

def test_zero_decay_energies_near_one_atom(params, z1):
    for sector, n in ((SYMMETRIC, 4), (ANTISYMMETRIC, 4)):
        sol = zero_decay_solve(sector, n, params)
        assert abs(sol.omega_o - z1.omega_tilde) < 1e-2
        assert sol.residual < 1e-10


def test_zero_decay_antisymmetric_n4_is_127(params):
    sol = zero_decay_solve(ANTISYMMETRIC, 4, params)
    assert sol.x21_zero == pytest.approx(8 * np.pi / sol.omega_o, rel=1e-12)
    assert sol.x21_zero == pytest.approx(12.66, abs=5e-2)


def test_zero_decay_pole_cross_check(params, z1):
    sol = zero_decay_solve(SYMMETRIC, 3, params)
    pole = find_pole(SYMMETRIC, sol.x21_zero, z1.value, params)
    assert pole.gamma < 1e-8


def test_zero_decay_dips_match_sweep(params, sweep_records):
    """Every predicted zero-decay distance inside [5, 40] has a sweep dip
    (gamma < 1e-4) within 1% of x21."""
    xs = np.array([r.x21 for r in sweep_records])
    for sector, gammas in ((SYMMETRIC, np.array([r.z_s.gamma for r in sweep_records])),
                           (ANTISYMMETRIC, np.array([r.z_a.gamma for r in sweep_records]))):
        for n in range(1, 13):
            if sector.sigma < 0 and n == 0:
                continue
            sol = zero_decay_solve(sector, n, params)
            if not (xs[0] + 0.2 <= sol.x21_zero <= xs[-1] - 0.2):
                continue
            near = np.abs(xs - sol.x21_zero) <= 0.01 * sol.x21_zero
            assert gammas[near].min() < 1e-4, (sector.tag, n, sol.x21_zero)


# ---------------------------------------------------------------- pair relation

def test_pair_relation_report(params, sweep_records):
    rep = pair_relation_check(sweep_records, params)
    # O(lam^4) with an e^{gamma x21}-enhanced prefactor: a few percent at
    # lam = 0.05 (the spec's 1e-3 is unattainable here; see acceptance)
    assert rep.max_deviation < 0.05
    assert rep.median_deviation < rep.max_deviation


def test_pair_relation_lambda4_scaling():
    """log-log slope of the quiet-point deviation vs lambda = 4 +- 0.5."""
    x21 = 20.0
    lams = np.array([0.02, 0.0354, 0.05])
    devs = []
    for lam in lams:
        p = ModelParams(lam=lam)
        z1 = one_atom_pole(p)
        zs = find_pole(SYMMETRIC, x21, z1.value, p)
        za = find_pole(ANTISYMMETRIC, x21, z1.value, p)
        devs.append(abs(z1.value - 0.5 * (zs.value + za.value)))
    slope = np.polyfit(np.log(lams), np.log(devs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.5)


def test_pair_relation_free_limit():
    p = ModelParams(lam=0.005)
    z1 = one_atom_pole(p)
    zs = find_pole(SYMMETRIC, 20.0, z1.value, p)
    za = find_pole(ANTISYMMETRIC, 20.0, z1.value, p)
    assert abs(z1.value - 0.5 * (zs.value + za.value)) < 5e-6


# --------------------------------------------------------------- angular factor

def test_angular_factor_d1(params):
    assert angular_factor(1, SYMMETRIC, np.pi) == pytest.approx(0.0, abs=1e-14)
    assert angular_factor(1, ANTISYMMETRIC, 2 * np.pi) == pytest.approx(0.0, abs=1e-14)
    assert angular_factor(1, SYMMETRIC, 0.0) == pytest.approx(4.0)


def test_angular_factor_d3():
    us = np.linspace(0.05, 50.0, 500)
    sym = angular_factor(3, SYMMETRIC, us)
    assert np.all(sym > 0)
    big = us > 1
    assert np.all(sym[big] >= 2 * (1 - 1 / us[big]) - 1e-12)
    anti_small = angular_factor(3, ANTISYMMETRIC, 1e-8)
    assert abs(anti_small) < 1e-12
    assert np.all(angular_factor(3, ANTISYMMETRIC, us) > 0)


def test_angular_factor_d2_bessel_oracle():
    """Omega = 1 quadrature equals pi (1 + sigma J0(u)) (provisional weight)."""
    us = np.array([0.0, 0.7, 2.404825557695773, 5.0, 11.0])
    got = angular_factor(2, SYMMETRIC, us)
    assert np.allclose(got, np.pi * (1 + scipy.special.j0(us)), atol=1e-9)
    got_a = angular_factor(2, ANTISYMMETRIC, us[1:])
    assert np.allclose(got_a, np.pi * (1 - scipy.special.j0(us[1:])), atol=1e-9)


def test_subradiance_roots_lattices():
    roots_s = subradiance_roots(1, SYMMETRIC, (0.0, 20.0))
    assert np.allclose(roots_s, [np.pi, 3 * np.pi, 5 * np.pi])
    roots_a = subradiance_roots(1, ANTISYMMETRIC, (0.0, 20.0))
    assert np.allclose(roots_a, [2 * np.pi, 4 * np.pi, 6 * np.pi])   # u=0 excluded
    assert subradiance_roots(3, SYMMETRIC, (1e-6, 50.0)).size == 0
    assert subradiance_roots(3, ANTISYMMETRIC, (1e-6, 50.0)).size == 0


def test_sweep_exports(tmp_path, sweep_records, force, params):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(sweep_records[:5], path, force)
    header = path.read_text().splitlines()[0]
    assert header == "x21,re_zs,gamma_s,re_za,gamma_a,Fs,Fa,flags"
    sol = zero_decay_solve(SYMMETRIC, 3, params)
    jpath = tmp_path / "zd.json"
    zero_decay_to_json([sol], jpath, {(sol.sector, sol.n): 1e-9})
    import json

    payload = json.loads(jpath.read_text())
    assert payload[0]["sector"] == "symmetric" and payload[0]["gamma_check"] == 1e-9
