import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective1d import dynamics as dyn
from collective1d import (
    ComplexEnergy,
    ConvergenceError,
    LatticeError,
    ModelParams,
    OverflowGuardError,
    build_lattice,
    collective_field,
    collective_survival,
    evolve,
    field_intensity,
    find_pole,
    one_atom_pole,
    survival_probability,
)
from collective1d.dynamics import (
    FieldProfile,
    TimeSeries,
    profile_to_csv,
    timeseries_to_csv,
)
from reference import FullBox, arrowhead_spectrum, collective_field_intensity, reduced_hamiltonian

_EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def small_params():
    return ModelParams(x1=0.0, x2=5.0)


@pytest.fixture(scope="module")
def small_full(small_params):
    return FullBox(small_params, 60.0, 201)


@pytest.fixture(scope="module")
def small_reduced(small_params):
    return build_lattice(small_params, 60.0, 201, "s")


def _eigenvectors(model):
    """Closed-form eigenvectors of the coupled block, one column per E, in the
    basis |j>, then the coupled modes."""
    d = model.k[model.coupled]
    gaps = (d[model.nearest, None] - d) + model.offsets[:, None]
    on_j = np.sqrt(model.weights)
    return np.vstack([on_j, (model.couplings[model.coupled] / gaps * on_j[:, None]).T])


def _coupled_block(model):
    keep = np.concatenate(([0], 2 + model.coupled))
    return reduced_hamiltonian(model)[np.ix_(keep, keep)]


# ------------------------------------------------------------------- assembly

def test_preconditions():
    p = ModelParams(x1=0.0, x2=5.0)
    with pytest.raises(LatticeError, match="odd"):
        build_lattice(p, 60.0, 200, "s")
    with pytest.raises(LatticeError, match="light cones"):
        build_lattice(p, 9.0, 201, "s")
    with pytest.raises(LatticeError, match="one sector"):
        build_lattice(p, 60.0, 201, None)
    with pytest.raises(ValueError, match="unknown sector"):
        build_lattice(p, 60.0, 201, "full")
    for bad in (np.nan, np.inf):
        with pytest.raises(LatticeError, match="finite"):
            build_lattice(p, bad, 201, "s")


def test_hamiltonian_hermitian_and_dimensions(small_full, small_reduced):
    h = small_full.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert small_full.dim == 201 + 2
    assert small_reduced.dim == (201 - 1) // 2 + 2
    h_red = reduced_hamiltonian(small_reduced)
    assert h_red.shape == (small_reduced.dim, small_reduced.dim)
    assert np.max(np.abs(h_red - h_red.T)) == 0.0


def test_free_hamiltonian_spectrum():
    p = ModelParams(lam=1e-12, x1=0.0, x2=5.0)
    full = FullBox(p, 60.0, 201)
    diag = np.sort(np.real(np.diag(full.hamiltonian)))
    assert np.max(np.abs(np.sort(full.evals) - diag)) < 1e-10
    model = build_lattice(p, 60.0, 201, "s")
    diag = np.sort(np.concatenate(([p.omega1], model.k[model.coupled])))
    assert np.max(np.abs(model.evals - diag)) < 1e-10


def test_two_by_two_closed_form():
    """Single coupled mode: eigenvalues (w1+wk)/2 +- sqrt((w1-wk)^2/4 + g^2)."""
    p = ModelParams(x1=0.0, x2=1.0)
    model = build_lattice(p, 9.0, 3, "s")
    # basis: |j>, k=0 slot (decoupled, left out of the spectrum), one pair mode
    k = model.k[0]
    g = model.couplings[0]
    avg = 0.5 * (p.omega1 + k)
    split = np.hypot(0.5 * (p.omega1 - k), g)
    assert np.max(np.abs(model.evals - [avg - split, avg + split])) < 1e-12


def test_translation_covariance():
    base = FullBox(ModelParams(x1=0.0, x2=5.0), 60.0, 201)
    moved = FullBox(ModelParams(x1=2.5, x2=7.5), 60.0, 201)
    assert np.max(np.abs(np.sort(base.evals) - np.sort(moved.evals))) < 1e-10
    times = np.linspace(0.0, 25.0, 30)
    red = survival_probability(build_lattice(ModelParams(x1=2.5, x2=7.5), 60.0, 201, "s"),
                               "s", times).values
    assert np.max(np.abs(red - np.abs(base.amplitude("1", "s", times)) ** 2)) < 1e-12


def test_eigensystem_invariants(small_reduced):
    """The closed-form eigenvectors are orthonormal and diagonalize the block
    of |j> and the coupled modes."""
    v = _eigenvectors(small_reduced)
    h = _coupled_block(small_reduced)
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-10
    assert abs(np.sum(small_reduced.evals) - np.trace(h)) < 1e-8 * np.linalg.norm(h)
    recon = (v * small_reduced.evals) @ v.T
    assert np.linalg.norm(recon - h) < 1e-8 * np.linalg.norm(h)
    assert np.max(np.abs(small_reduced.evals - np.linalg.eigvalsh(h))) < 1e-12


@st.composite
def _arrowheads(draw):
    """(omega1, d, g) with up to 200 poles: gaps down to 1e-9 (clusters),
    couplings down to just above the deflation threshold, and omega1 inside
    the pole range, on a pole, below it or above it."""
    m = draw(st.one_of(st.just(1), st.just(2), st.integers(1, 200)))
    exponents = np.array(draw(st.lists(st.floats(-9.0, 0.0), min_size=m, max_size=m)))
    d = draw(st.floats(0.01, 3.0)) + np.cumsum(10.0 ** exponents) - 10.0 ** exponents[0]
    where, u = draw(st.sampled_from(["inside", "pole", "below", "above"])), draw(st.floats(0.0, 1.0))
    omega1 = {"inside": d[0] + u * (d[-1] - d[0]), "pole": d[int(u * (m - 1))],
              "below": d[0] - 5.0 * u, "above": d[-1] + 5.0 * u}[where]
    threshold = 8.0 * _EPS * max(abs(omega1), d[-1])     # build_lattice deflates below it
    pairs = draw(st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)), min_size=m, max_size=m))
    g = np.array([threshold * (1.0 + v) if tiny else 10.0 ** (-3.0 * v) for tiny, v in pairs])
    return omega1, d, g


@settings(max_examples=150, deadline=None)
@given(case=_arrowheads())
def test_secular_solve_matches_dense_oracle(case):
    """The secular solve against eigvalsh plus Newton polish: the same nearest
    pole (except for a root within eigvalsh's error of a gap's midpoint), E
    to 4 eps ||H||, tau to 1e-12 relative and the weights to 1e-13.

    Two polish steps leave the oracle itself off by orders of magnitude in
    tau where a pole sits at omega1 with a coupling near the rounding of
    ||H||, or a weak mode next to a cluster (checked against 80-digit roots),
    so it takes eight. Where the rounding of the secular equation bounds tau
    more loosely (condition number kappa: rounding of f over |tau| f'), as
    for a root of the strongly coupled modes that lands on a weakly coupled
    pole, tau is held to 64 eps kappa and w to twice that, relative."""
    omega1, d, g = case
    evals, weights, nearest, offsets = dyn._arrowhead_spectrum(omega1, d, g)
    e_ref, w_ref, n_ref, tau_ref = arrowhead_spectrum(omega1, d, g, newton_steps=8)
    norm = np.max(np.abs(e_ref))
    assert np.max(np.abs(evals - e_ref)) <= 4.0 * _EPS * norm
    i = np.arange(d.size + 1)
    lo, hi = d[np.maximum(i - 1, 0)], d[np.minimum(i, d.size - 1)]
    # eigvalsh places E only to about n eps ||H||: closer to a midpoint, its nearer pole is moot
    tie = (i > 0) & (i < d.size) & (np.abs(e_ref - 0.5 * (lo + hi)) <= i.size * _EPS * norm)
    assert np.array_equal(nearest[~tie], n_ref[~tie])
    gaps = (d[n_ref, None] - d) + tau_ref[:, None]
    g2 = g * g
    kappa = ((np.abs(d[n_ref] - omega1) + np.abs(tau_ref) + np.sum(g2 / np.abs(gaps), axis=1))
             / (np.abs(tau_ref) * (1.0 + np.sum(g2 / gaps ** 2, axis=1))))
    rel = 64.0 * _EPS * kappa
    assert np.all((np.abs(offsets - tau_ref) <= np.maximum(1e-12, rel) * np.abs(tau_ref))[~tie])
    assert np.all(np.abs(weights - w_ref) <= np.maximum(1e-13, 2.0 * rel * w_ref))


def test_figure_box_matches_dense_route(model_s29):
    """On the figure box (dimension 1 252) the secular solve reproduces the
    dense route it replaced: eigvalsh plus two Newton steps."""
    d = model_s29.k[model_s29.coupled]
    e_ref, w_ref, n_ref, tau_ref = arrowhead_spectrum(model_s29.params.omega1, d,
                                                      model_s29.couplings[model_s29.coupled])
    assert np.array_equal(model_s29.nearest, n_ref)
    assert np.max(np.abs(model_s29.evals - e_ref)) <= 1e-13
    assert np.max(np.abs(model_s29.offsets - tau_ref) / np.abs(tau_ref)) <= 1e-13
    assert np.max(np.abs(model_s29.weights - w_ref)) <= 1e-13


def test_no_dense_eigensolve(monkeypatch, small_params):
    """The box is solved from its secular equation alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolve called")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    model = build_lattice(small_params, 60.0, 201, "s")
    assert np.sum(model.weights) == pytest.approx(1.0, abs=1e-12)


def test_unconverged_eigenvalues_raise(monkeypatch, small_params):
    """A root still open when the iteration budget runs out is an error, never
    a returned eigenvalue."""
    monkeypatch.setattr(dyn, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="secular equation"):
        build_lattice(small_params, 60.0, 201, "s")


# ------------------------------------------------------------------- evolution

def test_evolve_identity_and_unitarity(small_reduced):
    vec0 = evolve(small_reduced, "s", 0.0)
    expected = np.zeros(small_reduced.dim, dtype=complex)
    expected[0] = 1.0
    assert np.max(np.abs(vec0 - expected)) < 1e-12
    for t in (3.0, 11.0, 23.0):
        assert np.linalg.norm(evolve(small_reduced, "s", t)) == pytest.approx(1.0, abs=1e-10)


def test_overlap_at_zero(small_full, small_reduced):
    """<1|s> = 1/sqrt(2) in both builds."""
    assert abs(small_full.evolve("s", 0.0)[0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(evolve(small_reduced, "s", 0.0)[0] / np.sqrt(2) - 1 / np.sqrt(2)) < 1e-12


def test_full_vs_reduced_equivalence(small_params, small_full):
    """Parity reduction is exact for survival probabilities."""
    times = np.linspace(0.0, 25.0, 60)
    for tag in ("s", "a"):
        full = np.abs(small_full.amplitude("1", tag, times)) ** 2
        red = survival_probability(build_lattice(small_params, 60.0, 201, tag), tag, times)
        assert np.max(np.abs(full - red.values)) < 1e-12


def test_survival_initial_value(small_reduced):
    ts = survival_probability(small_reduced, "s", np.array([0.0]))
    assert ts.values[0] == pytest.approx(0.5, abs=1e-12)


def test_reduced_rejects_cross_sector(small_reduced):
    with pytest.raises(LatticeError):
        evolve(small_reduced, "a", 1.0)
    with pytest.raises(LatticeError):
        evolve(small_reduced, "1", 1.0)


def test_wrap_horizon_warning(small_reduced):
    with pytest.warns(UserWarning, match="wrap horizon"):
        evolve(small_reduced, "s", 40.0)


def test_unitarity_decomposition(small_full, small_reduced):
    """Atom populations plus field norm reconstruct 1 exactly, and the reduced
    box splits them as the full one does."""
    full = small_full.evolve("s", 17.0)
    red = evolve(small_reduced, "s", 17.0)
    atoms = abs(red[0]) ** 2
    field = np.sum(np.abs(red[2:]) ** 2)
    assert atoms + field == pytest.approx(1.0, abs=1e-10)
    assert atoms == pytest.approx(abs(full[0]) ** 2 + abs(full[1]) ** 2, abs=1e-12)
    assert field == pytest.approx(np.sum(np.abs(full[2:]) ** 2), abs=1e-12)


# ------------------------------------------------------------------ properties

_boxes = st.tuples(
    st.integers(1, 150).map(lambda h: 2 * h + 1),        # odd n_modes <= 301
    st.floats(0.5, 40.0),                                # x21
    st.floats(1.01, 8.0),                                # L / (2 x21)
)


@settings(max_examples=40, deadline=None)
@given(box=_boxes, tag=st.sampled_from(["s", "a"]))
def test_spectral_moments(box, tag):
    """sum w = 1, sum w E = omega1 and sum w E^2 = omega1^2 + sum g^2: the
    moments <j|H^n|j> of the arrowhead for n = 0, 1, 2."""
    n_modes, x21, stretch = box
    p = ModelParams().with_x21(x21)
    model = build_lattice(p, 2.0 * x21 * stretch, n_modes, tag)
    w, e = model.weights, model.evals
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(w * e) == pytest.approx(p.omega1, abs=1e-12)
    want = p.omega1 ** 2 + np.sum(model.couplings ** 2)
    assert np.sum(w * e ** 2) == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(box=_boxes, frac=st.floats(0.0, 0.99))
def test_sectors_sum_to_full_build(box, frac):
    """<1| e^{-iHt} |1> = (A_s + A_a) / 2 and both evolutions stay unitary."""
    n_modes, x21, stretch = box
    p = ModelParams().with_x21(x21)
    box_length = 2.0 * x21 * stretch
    t = frac * box_length / 2.0
    amps = {}
    for tag in ("s", "a"):
        state = evolve(build_lattice(p, box_length, n_modes, tag), tag, t)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        amps[tag] = state[0]
    full = FullBox(p, box_length, n_modes).amplitude("1", "1", [t])[0]
    assert abs(full - 0.5 * (amps["s"] + amps["a"])) < 1e-12


# ------------------------------------------------------------- collective survival

def test_collective_survival_weak_coupling_weight():
    p = ModelParams(lam=0.01, x1=0.0, x2=8.0)
    ts = collective_survival(p, "s", 8.0, np.array([0.0]))
    assert ts.values[0] == pytest.approx(0.5, rel=2e-2)   # |N|^2/2 -> 1/2 as lam -> 0


def test_collective_survival_decay_constant(params, zs29):
    times = np.array([10.0, 35.0])
    ts = collective_survival(params, "s", 29.025, times, pole=zs29)
    ratio = ts.values[1] / ts.values[0]
    assert ratio == pytest.approx(np.exp(-2 * zs29.gamma * 25.0), rel=1e-12)


def test_collective_overlay_reached_after_bounces(params, zs29, model_s29):
    """P1(t) / P_{1,zs}(t) -> 1 once the initial state has relaxed onto the
    collective state (t >~ 3 x21)."""
    times = np.array([3.5 * 29.025, 4.5 * 29.025])
    lattice = survival_probability(model_s29, "s", times)
    overlay = collective_survival(params, "s", 29.025, times, pole=zs29)
    ratio = lattice.values / overlay.values
    assert np.max(np.abs(ratio - 1.0)) < 0.08


def test_wavefront_envelope_grows_behind_front(model_s29):
    """Emitted field: exponentially growing envelope truncated at the light
    cone |x - x_i| = t (checked on the outward side of atom 1)."""
    t = 0.32 * 29.025
    xs = np.linspace(-t + 0.05, -0.5, 220)           # left of atom 1 at x=0
    prof = field_intensity(model_s29, "s", xs, t)
    # compare envelope maxima near the front vs near the atom
    near_front = prof.intensity[xs < -0.75 * t].max()
    near_atom = prof.intensity[xs > -0.25 * t].max()
    gamma1 = 0.0235
    assert near_front > near_atom * np.exp(2 * gamma1 * 0.4 * t)


# ----------------------------------------------------------------- field plots

def test_field_zero_at_t0(small_reduced):
    xs = np.linspace(-20.0, 25.0, 41)
    prof = field_intensity(small_reduced, "s", xs, 0.0)
    assert np.max(prof.intensity) < 1e-28


def test_field_grid_must_stay_in_box(small_reduced):
    with pytest.raises(LatticeError, match="box"):
        field_intensity(small_reduced, "s", np.array([40.0]), 1.0)


def test_wavefronts_inside_light_cone(small_params):
    """At t = 0.32 x21 the field lives inside |x - x_i| <= t (plus the
    interaction-range smearing 2 pi / omegaM).

    The rotating-wave Hamiltonian leaves a physical acausal floor that scales
    like lam^2 and is independent of the mode count (measured ~3e-6 at
    lam=0.05), so the absolute 1e-8 bound is checked at weak coupling and the
    default-coupling statement is a contrast bound."""
    model = build_lattice(small_params, 150.0, 3001, "s")
    t = 0.32 * small_params.x21
    xs_in = np.linspace(small_params.x1 - t + 0.2, small_params.x2 + t - 0.2, 41)
    inside = field_intensity(model, "s", xs_in, t).intensity.max()
    pad = t + 2 * np.pi / small_params.omegaM
    xs_out = np.array([small_params.x1 - pad - 2.0, small_params.x2 + pad + 2.0])
    outside = field_intensity(model, "s", xs_out, t).intensity.max()
    assert outside < 1e-3 * inside

    weak = ModelParams(lam=0.002, x1=small_params.x1, x2=small_params.x2)
    wmodel = build_lattice(weak, 150.0, 3001, "s")
    w_out = field_intensity(wmodel, "s", xs_out, t).intensity.max()
    assert w_out < 1e-8


def test_field_symmetry_about_origin():
    p = ModelParams(x1=-2.5, x2=2.5)
    model = build_lattice(p, 60.0, 201, "s")
    xs = np.linspace(0.5, 12.0, 24)
    left = field_intensity(model, "s", -xs, 7.0).intensity
    right = field_intensity(model, "s", xs, 7.0).intensity
    assert np.max(np.abs(left - right)) < 1e-10 * max(right.max(), 1e-30)


def test_collective_field_time_factorization(params, zs29):
    p = params.with_x21(29.025)
    xs = np.linspace(3.0, 25.0, 7)
    t1, t2 = 40.0, 70.0
    prof1 = collective_field(p, "s", 29.025, xs, t1, pole=zs29)
    prof2 = collective_field(p, "s", 29.025, xs, t2, pole=zs29)
    ratio = prof2.intensity / prof1.intensity
    assert np.max(np.abs(ratio - np.exp(-2 * zs29.gamma * (t2 - t1)))) < 1e-10


@pytest.mark.parametrize("tag, x21, fac", [("s", 29.025, 4.02), ("a", 29.025, 2.0),
                                           ("a", 12.7, 1.0)])
def test_collective_field_matches_pointwise_oracle(params, tag, x21, fac):
    """The batched kernel rows (several blocks, x on both atoms) agree with
    one RayKernel per phase integral to 1e-13 of the peak."""
    p = params.with_x21(x21)
    pole = find_pole(tag, x21, one_atom_pole(p).value, p)
    xs = np.union1d(np.linspace(-1.5 * x21 + p.x1, p.x2 + 1.5 * x21, 241), [p.x1, p.x2])
    got = collective_field(p, tag, x21, xs, fac * x21, pole=pole).intensity
    want = collective_field_intensity(p, tag, xs, fac * x21, pole)
    assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


def test_collective_field_overflow_guard_names_first_point(params):
    pole = ComplexEnergy(2.0 - 0.1j, "symmetric", 0, 1.0 + 0j)
    xs = np.array([0.0, 5000.0, 7000.0, 10000.0])
    with pytest.raises(OverflowGuardError, match=r"= 700\.0 overflows at x=7000\.0"):
        collective_field(params, "s", params.x21, xs, 0.0, pole=pole)


def test_collective_field_bounded_at_zero_decay(params):
    """A subradiant (gamma ~ 0) pole gives a standing wave, not an envelope
    blowing up away from the atoms."""
    from collective1d import zero_decay_solve

    sol = zero_decay_solve("a", 4, params)
    x21 = sol.x21_zero
    p = params.with_x21(x21)
    pole = find_pole("a", x21, one_atom_pole(params).value, params)
    assert pole.gamma < 1e-8
    xs = np.linspace(-3 * x21, 4 * x21, 101)
    prof = collective_field(p, "a", x21, xs, 50.0, pole=pole)
    between = (xs > 0) & (xs < x21)
    assert prof.intensity[~between].max() < 10.0 * prof.intensity[between].max()


# ------------------------------------------------------------------ containers

def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, -1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        FieldProfile(np.array([0.0]), np.array([-1.0]), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        FieldProfile(np.array([0.0]), np.array([np.nan]), 0.0)


def test_non_finite_time_rejected(params, zs29, small_reduced):
    xs = np.linspace(-5.0, 5.0, 3)
    for bad in (np.nan, np.inf):
        with pytest.raises(LatticeError, match="finite"):
            field_intensity(small_reduced, "s", xs, bad)
        with pytest.raises(ValueError, match="finite"):
            collective_field(params, "s", 29.025, xs, bad, pole=zs29)


def test_csv_writers(tmp_path, small_reduced):
    times = np.linspace(0.0, 5.0, 6)
    series = survival_probability(small_reduced, "s", times)
    path = tmp_path / "ts.csv"
    timeseries_to_csv(series, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 7
    prof = field_intensity(small_reduced, "s", np.linspace(-5, 5, 5), 2.0)
    ppath = tmp_path / "prof.csv"
    profile_to_csv(prof, ppath)
    assert ppath.read_text().splitlines()[0] == "x,intensity"

