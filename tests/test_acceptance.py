"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured numbers. Heavy artefacts (the L=500 lattice, the
spectral-density grid, the [5,40] sweep, the L=250 builds) are session
fixtures shared across criteria, mirroring how the corresponding figure runs
share their data.

Three assertions are expected to fail and are left failing deliberately --
they pin spec'd target values that the model itself contradicts; the
measured values and the full analysis live in DECISIONS.md:
  * criterion 3 (gamma_s window at x21=12.7),
  * criterion 6 (late-window slope, marginal by ~0.3% of the slope),
  * criterion 9 (pair relation at 1e-3).
"""
import time

import numpy as np
import pytest

from collective1d import (
    ANTISYMMETRIC,
    SYMMETRIC,
    amplitude_quadrature,
    angular_factor,
    collective_field,
    collective_pole_wg,
    eta_plus,
    existence_check,
    field_intensity,
    find_pole,
    find_zs1,
    one_atom_pole,
    pair_relation_check,
    pole_scan,
    solve_trap,
    subradiance_roots,
    survival_probability,
    zero_decay_solve,
)
from collective1d.bounces import BounceDecomposition, resummed
from collective1d.quadrature import halfline_integral
from collective1d.waveguide import WaveguideParams

X21 = 29.025
X21T = 12.7


def report(n, ok, detail):
    print(f"ACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_one_atom_pole(params):
    t0 = time.perf_counter()
    z1 = one_atom_pole(params)
    dt = time.perf_counter() - t0
    ok_re = abs(z1.omega_tilde - 1.985) <= 2e-3
    ok_im = abs(z1.gamma - 0.0235) <= 2e-3
    ok = report(1, ok_re and ok_im and dt < 1.0,
                f"z1 = {z1.omega_tilde:.6f} - {z1.gamma:.6f}i "
                f"(want 1.985 - 0.0235i +- 0.002), {dt:.2f}s")
    assert ok


def test_criterion_02_modified_one_atom_pole(params):
    t0 = time.perf_counter()
    res = find_zs1(X21, params)
    dt = time.perf_counter() - t0
    ok = abs(res.pole.gamma - 0.0233) <= 5e-4 and dt < 1.0
    assert report(2, ok, f"gamma_s1(x21={X21}) = {res.pole.gamma:.6f} "
                         f"(want 0.0233 +- 0.0005), {dt:.2f}s")


def test_criterion_03_sub_super_radiance_127(params, z1):
    t0 = time.perf_counter()
    za = find_pole(ANTISYMMETRIC, X21T, z1.value, params)
    zs = find_pole(SYMMETRIC, X21T, z1.value, params)
    dt = time.perf_counter() - t0
    ratio = zs.gamma / z1.gamma
    ok_a = za.gamma < 1e-4
    ok_s = 1.8 <= ratio <= 2.2
    report(3, ok_a and ok_s and dt < 1.0,
           f"gamma_a = {za.gamma:.2e} (< 1e-4: {ok_a}); gamma_s/gamma_1 = {ratio:.3f} "
           f"(want [1.8, 2.2]: {ok_s}; lattice evolution confirms the solver -- "
           f"see notes), {dt:.2f}s")
    assert ok_a, f"gamma_a = {za.gamma}"
    assert ok_s, (
        f"gamma_s/gamma_1 = {ratio:.3f} outside [1.8, 2.2]: the exact pole at the "
        f"superradiant maximum carries e^(gamma x21) = {np.exp(zs.gamma * X21T):.2f}, "
        "so the factor-2 estimate does not apply; independently confirmed by the "
        "L=250 lattice decay slope. Spec target unattainable; see decisions ledger."
    )


def test_criterion_04_pole_lattice(params, zs29):
    t0 = time.perf_counter()
    records, missing = pole_scan(SYMMETRIC, X21, range(-3, 4), params)
    dt = time.perf_counter() - t0
    by_n = {r.lattice_index: r for r in records}
    details = []
    ok = not missing and dt < 10.0
    for n in (1, 2, 3):
        pred = 2 * np.pi * n / X21
        got = by_n[n].omega_tilde - by_n[0].omega_tilde
        this = abs(got - pred) <= 0.10 * abs(pred)
        ok &= this
        details.append(f"n={n}: {abs(got - pred) / pred * 100:.1f}%")
    for n in (-1, -2, -3):
        pred = (2 * n + 1) * np.pi / X21   # Eq-39 branch for sigma*n < 0
        got = by_n[n].omega_tilde - by_n[0].omega_tilde
        this = abs(got - pred) <= 0.10 * abs(pred)
        ok &= this
        details.append(f"n={n}: {abs(got - pred) / abs(pred) * 100:.1f}%")
    assert report(4, ok, f"Re spacings vs weak-coupling offsets within 10% "
                         f"({', '.join(details)}), {dt:.1f}s")


@pytest.fixture(scope="module")
def survival_and_quadrature(params, model_s29, rho_grid_s29):
    times = np.linspace(0.0, 5 * X21, 1500)
    lattice = survival_probability(model_s29, "s", times)
    amps = amplitude_quadrature(times, SYMMETRIC, X21, params, grid=rho_grid_s29)
    return times, lattice.values, 0.5 * np.abs(amps) ** 2


def test_criterion_05_quadrature_vs_lattice(survival_and_quadrature):
    t0 = time.perf_counter()
    times, lattice, quad_p = survival_and_quadrature
    window = times <= 4 * X21
    dev = np.max(np.abs(lattice[window] - quad_p[window]))
    dt = time.perf_counter() - t0
    assert report(5, dev <= 5e-3,
                  f"max |(1/2)|I|^2 - P1| = {dev:.2e} over [0, 4 x21] (tol 5e-3), "
                  f"{dt:.1f}s past fixtures")


def test_criterion_06_bounce_kink_slopes(params, zs29, survival_and_quadrature):
    times, lattice, _ = survival_and_quadrature
    gamma_s1 = find_zs1(X21, params).pole.gamma
    early = (times > 0) & (times < X21)
    late = (times > 3 * X21) & (times < 5 * X21)
    slope_early = -np.polyfit(times[early], np.log(lattice[early]), 1)[0]
    slope_late = -np.polyfit(times[late], np.log(lattice[late]), 1)[0]
    dev_early = abs(slope_early - 2 * gamma_s1) / (2 * gamma_s1)
    dev_late = abs(slope_late - 2 * zs29.gamma) / (2 * zs29.gamma)
    ok_early = dev_early <= 0.03
    ok_late = dev_late <= 0.05
    report(6, ok_early and ok_late,
           f"early slope dev {dev_early * 100:.2f}% (tol 3%), "
           f"late slope dev {dev_late * 100:.2f}% (tol 5%; interference with "
           f"z_s,+-1 beats across the window -- see notes)")
    assert ok_early, f"early-window slope off by {dev_early * 100:.2f}%"
    assert ok_late, (
        f"late-window slope off by {dev_late * 100:.2f}% (> 5%): the (3 x21, 5 x21) "
        "least-squares fit is flattened by interference with the neighbouring "
        "lattice poles (beat period ~ the window length); the same fit on the "
        "box-free quadrature gives ~4.5%. Marginal by construction; see ledger."
    )


def test_criterion_07_resummation_identity(params):
    t0 = time.perf_counter()
    x21 = params.x21              # defaults: x1=0, x2=1
    dec = BounceDecomposition.build(x21, params, t_max=3 * x21)
    worst = max(resummed(t, dec).rel_discrepancy
                for t in np.linspace(0.0, 3 * x21, 13))
    dt = time.perf_counter() - t0
    assert report(7, worst <= 1e-6 and dt < 10.0,
                  f"max rel |series - N e^(-izt)| = {worst:.2e} over t in [0, 3 x21] "
                  f"at defaults x21={x21} (tol 1e-6), {dt:.1f}s")


def test_criterion_08_zero_decay_vs_sweep(params, z1, sweep_records):
    t0 = time.perf_counter()
    xs = np.array([r.x21 for r in sweep_records])
    ok = True
    checked = 0
    worst_gap = 0.0
    for sector, gammas in ((SYMMETRIC, np.array([r.z_s.gamma for r in sweep_records])),
                           (ANTISYMMETRIC, np.array([r.z_a.gamma for r in sweep_records]))):
        for n in range(1, 13):
            sol = zero_decay_solve(sector, n, params)
            ok &= abs(sol.omega_o - z1.omega_tilde) < 1e-2
            if not (xs[0] + 0.2 <= sol.x21_zero <= xs[-1] - 0.2):
                continue
            checked += 1
            near = np.abs(xs - sol.x21_zero) <= 0.01 * sol.x21_zero
            gmin = gammas[near].min()
            ok &= gmin < 1e-4
            worst_gap = max(worst_gap, gmin)
    dt = time.perf_counter() - t0
    assert report(8, ok and checked >= 18,
                  f"{checked} zero-decay distances matched sweep dips within 1% "
                  f"(worst dip gamma = {worst_gap:.1e} < 1e-4); omega_o - omega_1 < 1e-2; "
                  f"{dt:.0f}s past sweep fixture")


def test_criterion_09_pair_relation(params, sweep_records):
    rep = pair_relation_check(sweep_records, params)
    ok = rep.max_deviation <= 1e-3
    report(9, ok,
           f"max |z1 - (z_s+z_a)/2| = {rep.max_deviation:.2e} at x21 = {rep.argmax_x21:.2f} "
           f"(tol 1e-3; median {rep.median_deviation:.2e}; lam^4 scaling verified "
           f"separately -- see notes)")
    assert ok, (
        f"max deviation {rep.max_deviation:.3e} > 1e-3: the relation is O(lam^4) as "
        "claimed but its measured prefactor at lam=0.05 exceeds the spec tolerance "
        "~30x everywhere on the sweep (worst near superradiant maxima). Both sides "
        "computed independently; scaling test passes. See decisions ledger."
    )


def test_criterion_10_field_profile_coincidence(params, zs29, model_s29):
    t0 = time.perf_counter()
    t = 4.02 * X21
    p = params.with_x21(X21)
    xs = np.linspace(0.25, X21 - 0.25, 231)
    lattice = field_intensity(model_s29, "s", xs, t)
    collective = collective_field(p, "s", X21, xs, t, pole=zs29)
    scale = collective.intensity.max()
    dev = np.max(np.abs(lattice.intensity - collective.intensity)) / scale
    median_pointwise = np.median(
        np.abs(lattice.intensity - collective.intensity) / collective.intensity)
    dt = time.perf_counter() - t0
    assert report(10, dev <= 0.05,
                  f"max |P - P_zs| = {dev * 100:.2f}% of the between-atom peak "
                  f"(tol 5%; median pointwise {median_pointwise * 100:.1f}%; "
                  f"pointwise-at-nodes unmeasurable, see notes), {dt:.0f}s")


def test_criterion_11_trapped_field(params, models_127):
    t0 = time.perf_counter()
    ratios = {}
    for tag in ("a", "s"):
        times = np.array([4 * X21T, 7 * X21T])
        series = survival_probability(models_127[tag], tag, times)
        ratios[tag] = series.values[1] / series.values[0]
    dt = time.perf_counter() - t0
    ok = ratios["a"] >= 0.99 and ratios["s"] <= 0.2
    assert report(11, ok,
                  f"P1(7x)/P1(4x): antisymmetric {ratios['a']:.4f} (>= 0.99), "
                  f"symmetric {ratios['s']:.2e} (<= 0.2), {dt:.1f}s past fixtures")


def test_criterion_12_angular_criterion():
    t0 = time.perf_counter()
    us = np.linspace(1e-4, 50.0, 20000)
    sym_positive = bool(np.all(angular_factor(3, SYMMETRIC, us) > 0))
    anti = angular_factor(3, ANTISYMMETRIC, us)
    anti_vanishes_only_at_zero = bool(np.all(anti > 0)) and \
        angular_factor(3, ANTISYMMETRIC, 1e-9) < 1e-12
    roots_s = subradiance_roots(1, SYMMETRIC, (0.0, 40.0))
    roots_a = subradiance_roots(1, ANTISYMMETRIC, (0.0, 40.0))
    lattices_exact = (np.allclose(roots_s, np.pi * (2 * np.arange(roots_s.size) + 1))
                      and np.allclose(roots_a, 2 * np.pi * np.arange(1, roots_a.size + 1)))
    dt = time.perf_counter() - t0
    ok = sym_positive and anti_vanishes_only_at_zero and lattices_exact and dt < 1.0
    assert report(12, ok,
                  f"d=3 symmetric strictly positive on (0,50]: {sym_positive}; "
                  f"antisymmetric vanishes only as u->0: {anti_vanishes_only_at_zero}; "
                  f"d=1 lattices exact: {lattices_exact}; {dt:.2f}s")


def test_criterion_13_waveguide_self_consistency():
    t0 = time.perf_counter()
    wg = WaveguideParams()
    margin = existence_check(wg).margin
    sol = solve_trap(wg, 1, SYMMETRIC)
    pole = collective_pole_wg(wg, SYMMETRIC, sol.x21_trap, seed=sol.xi_tilde - 1e-5j)
    parity_enforced = False
    try:
        solve_trap(wg, 2, SYMMETRIC)
    except Exception:
        parity_enforced = True
    dt = time.perf_counter() - t0
    ok = margin > 0 and abs(pole.gamma) < 1e-6 and parity_enforced and dt < 10.0
    assert report(13, ok,
                  f"margin = {margin:.4f} > 0; gamma at x21_trap = {abs(pole.gamma):.1e} "
                  f"< 1e-6; parity rule enforced: {parity_enforced}; {dt:.1f}s")


def test_criterion_14_numerical_hygiene(params, quad, z1, zs29, models_127):
    t0 = time.perf_counter()
    msgs = []
    ok = True

    # unitarity to 1e-10
    from collective1d import evolve

    norm = np.linalg.norm(evolve(models_127["a"], "a", 37.0))
    this = abs(norm - 1.0) < 1e-10
    ok &= this
    msgs.append(f"unitarity {abs(norm - 1):.1e}")

    # eta^- = conj(eta^+) on the axis (via the discontinuity identity)
    ks = np.linspace(0.8, 4.2, 25).astype(complex)
    from collective1d import form_factor_sq

    eta = eta_plus(ks, SYMMETRIC, X21, params)
    expected = 4j * np.pi * params.lam**2 * form_factor_sq(ks, params).real \
        * (1 + np.cos(ks.real * X21))
    gap = np.max(np.abs((eta - np.conj(eta)) - expected))
    this = gap < 1e-10
    ok &= this
    msgs.append(f"conjugation {gap:.1e}")

    # boundary-value continuity of the continuation
    deltas = (1e-2, 1e-3, 1e-4)
    gaps = [np.max(np.abs(eta_plus(ks.real - 1j * d, SYMMETRIC, X21, params)
                          - eta_plus(ks.real + 1j * d, SYMMETRIC, X21, params)))
            for d in deltas]
    this = gaps[2] < 0.2 * gaps[1] < 0.04 * gaps[0] * 5 and gaps[2] < 1e-3
    ok &= this
    msgs.append(f"continuity {gaps[2]:.1e}")

    # closed-form quadrature oracle to 1e-10
    val = halfline_integral(lambda k: (1 + (k / params.omegaM) ** 2) ** -2.0, quad)
    this = abs(val - np.pi * params.omegaM / 4) < 1e-10
    ok &= this
    msgs.append(f"pi omegaM/4 {abs(val - np.pi * params.omegaM / 4):.1e}")

    # N * eta'(z) = 1 to 1e-8, derivative by central differences
    h = 1e-6
    for rec, sector, x21 in ((z1, None, 0.0), (zs29, SYMMETRIC, X21)):
        der = (eta_plus(rec.value + h, sector, x21, params)
               - eta_plus(rec.value - h, sector, x21, params)) / (2 * h)
        this = abs(rec.normalization * der - 1.0) < 1e-8
        ok &= this
    msgs.append("normalization ok")

    # jets vs finite differences to 1e-6 for orders <= 6
    from math import comb

    from collective1d.bounces import Jet, delta_jet
    from collective1d import delta_k

    z0, x21j = 1.9, 1.0
    jet = delta_jet(z0, 8, x21j, params) * (Jet.variable(z0, 8) * (-2j)).exp()

    def g(k):
        return delta_k(k, x21j, params) * np.exp(-2j * k)

    worst = 0.0
    for n in range(1, 7):
        def basic(hh):
            return sum((-1) ** i * comb(n, i) * g(z0 + (n / 2 - i) * hh)
                       for i in range(n + 1)) / hh**n

        d = [basic(0.2 / 2**j) for j in range(3)]
        d1 = [(4 * d[j + 1] - d[j]) / 3 for j in range(2)]
        fd = (16 * d1[1] - d1[0]) / 15
        exact = jet.derivative(n)
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    this = worst < 1e-6
    ok &= this
    msgs.append(f"jet-vs-FD {worst:.1e}")

    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    assert report(14, ok, "; ".join(msgs) + f"; {dt:.1f}s")
