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
from collective1d import greens, sweep
from collective1d.core import SolverError
from collective1d.greens import ComplexEnergy, ConvergenceError, _evaluator, solve_poles
from collective1d.sweep import sweep_to_csv, zero_decay_to_json


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
@given(origin=st.floats(5.0, 39.0), step=st.floats(0.01, 1.5), n=st.integers(1, 40))
def test_sweep_rows_are_find_pole_from_z1(params, z1, origin, step, n):
    """Every row of any grid is find_pole's root from z1 at its own
    distance, the pole that pole_scan labels n = 0: the same convergence
    flag and the same root to 1e-12."""
    grid = origin + step * np.arange(n)
    grid = grid[grid <= 40.0]
    for rec in sweep_poles(grid, params):
        for sector, got in ((SYMMETRIC, rec.z_s), (ANTISYMMETRIC, rec.z_a)):
            try:
                want = find_pole(sector, rec.x21, z1.value, params)
            except SolverError:
                want = None
            assert (got is None) == (want is None), (sector.tag, rec.x21)
            if got is not None:
                assert abs(got.value - want.value) <= 1e-12, (sector.tag, rec.x21)
                assert abs(got.normalization - want.normalization) <= 1e-10


def test_subgrids_reproduce_the_default_grid(params, sweep_records):
    """A row does not depend on where its grid starts: 5-point slices of the
    default grid, starting at distances where a pair of roots nearly
    crosses, give the full grid's rows to 1e-12."""
    grid = np.array([r.x21 for r in sweep_records])
    for start in (19.0, 23.75, 26.9, 25.35, 33.25):
        i = int(np.argmin(np.abs(grid - start)))
        for got, want in zip(sweep_poles(grid[i:i + 5], params), sweep_records[i:i + 5], strict=True):
            assert got.x21 == want.x21
            for zg, zw in ((got.z_s, want.z_s), (got.z_a, want.z_a)):
                assert zg is not None and zw is not None, (start, got.x21)
                assert abs(zg.value - zw.value) <= 1e-12, (start, got.x21)


def test_sweep_solves_the_whole_grid_in_few_batches(params):
    """The default 701-point grid is one solve_poles call of both sectors'
    2 x 701 rows from z1. Only the stray rows (a ConvergenceError from a
    seed in the region, or a root more than pi/x21 from z1 in Re) take a
    census, each on its own one-row evaluator: 8 of them."""
    calls, censuses, census = [], [], greens._census

    def counted_solve(ev, seeds, rows=None):
        out = solve_poles(ev, seeds, rows)
        calls.append((len(seeds), list(out)))
        return out

    def counted_census(ev, *args, **kwargs):
        censuses.append(ev.sigma.size)
        return census(ev, *args, **kwargs)

    z1 = one_atom_pole(params).value      # cached before the count
    grid = np.arange(5.0, 40.0 + 1e-12, 0.05)
    with mock.patch.object(greens, "solve_poles", counted_solve), \
            mock.patch.object(greens, "_census", counted_census):
        records = sweep_poles(grid, params)
    assert len(records) == 701
    assert [size for size, _ in calls] == [2 * 701]
    xs = np.tile(grid, 2)
    stray = [isinstance(r, ConvergenceError)
             or isinstance(r, ComplexEnergy) and abs(r.omega_tilde - z1.real) * x > np.pi
             for r, x in zip(calls[0][1], xs)]
    assert censuses == [1] * sum(stray) == [1] * 8


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


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.15])
@pytest.mark.parametrize("sector, n", [("s", 3), ("a", 4)])
def test_zero_decay_pole_cross_check(sector, n, lam):
    params = ModelParams(lam=lam)
    sol = zero_decay_solve(sector, n, params)
    pole = find_pole(sector, sol.x21_zero, one_atom_pole(params).value, params)
    assert pole.gamma < 1e-8


def test_zero_decay_solve_builds_few_evaluators(params, monkeypatch):
    """The secant finishes in a handful of eta evaluations, one evaluator
    each (plus the residual's); a damped iteration needs about 29."""
    builds = []
    init = sweep.EtaEvaluator.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sweep.EtaEvaluator, "__init__", counting)
    zero_decay_solve(SYMMETRIC, 3, params)
    assert 0 < len(builds) <= 6


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
