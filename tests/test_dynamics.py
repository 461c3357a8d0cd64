import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collective1d import (
    LatticeError,
    ModelParams,
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
from reference import FullBox, reduced_hamiltonian


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


def test_hamiltonian_hermitian_and_dimensions(small_full, small_reduced):
    h = small_full.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert small_full.dim == 201 + 2
    assert small_reduced.dim == (201 - 1) // 2 + 2
    h_red = reduced_hamiltonian(small_reduced)
    assert h_red.shape == (small_reduced.dim, small_reduced.dim)
    assert np.max(np.abs(h_red - h_red.T)) == 0.0


def test_free_hamiltonian_spectrum(quad):
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

def test_collective_survival_weak_coupling_weight(quad):
    p = ModelParams(lam=0.01, x1=0.0, x2=8.0)
    ts = collective_survival(p, "s", 8.0, np.array([0.0]), quad)
    assert ts.values[0] == pytest.approx(0.5, rel=2e-2)   # |N|^2/2 -> 1/2 as lam -> 0


def test_collective_survival_decay_constant(params, quad, zs29):
    times = np.array([10.0, 35.0])
    ts = collective_survival(params, "s", 29.025, times, quad, pole=zs29)
    ratio = ts.values[1] / ts.values[0]
    assert ratio == pytest.approx(np.exp(-2 * zs29.gamma * 25.0), rel=1e-12)


def test_collective_overlay_reached_after_bounces(params, quad, zs29, model_s29):
    """P1(t) / P_{1,zs}(t) -> 1 once the initial state has relaxed onto the
    collective state (t >~ 3 x21)."""
    times = np.array([3.5 * 29.025, 4.5 * 29.025])
    lattice = survival_probability(model_s29, "s", times)
    overlay = collective_survival(params, "s", 29.025, times, quad, pole=zs29)
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


def test_collective_field_time_factorization(params, quad, zs29):
    p = params.with_x21(29.025)
    xs = np.linspace(3.0, 25.0, 7)
    t1, t2 = 40.0, 70.0
    prof1 = collective_field(p, "s", 29.025, xs, t1, quad, pole=zs29)
    prof2 = collective_field(p, "s", 29.025, xs, t2, quad, pole=zs29)
    ratio = prof2.intensity / prof1.intensity
    assert np.max(np.abs(ratio - np.exp(-2 * zs29.gamma * (t2 - t1)))) < 1e-10


def test_collective_field_bounded_at_zero_decay(params, quad):
    """A subradiant (gamma ~ 0) pole gives a standing wave, not an envelope
    blowing up away from the atoms."""
    from collective1d import zero_decay_solve

    sol = zero_decay_solve("a", 4, params, quad)
    x21 = sol.x21_zero
    p = params.with_x21(x21)
    pole = find_pole("a", x21, one_atom_pole(params, quad).value, params, quad)
    assert pole.gamma < 1e-8
    xs = np.linspace(-3 * x21, 4 * x21, 101)
    prof = collective_field(p, "a", x21, xs, 50.0, quad, pole=pole)
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

