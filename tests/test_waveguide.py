import numpy as np
import pytest

from collective1d import (
    ANTISYMMETRIC,
    SYMMETRIC,
    ConfigError,
    WaveguideParams,
    cavity_energy,
    collective_pole_wg,
    existence_check,
    lead_energy,
    solve_trap,
    trap_distance,
)
from collective1d.waveguide import _channel_sum, _eta_wg, _residue_integral, trap_report_to_json
from reference import residue_integral, waveguide_channel_sum


@pytest.fixture(scope="module")
def wg():
    return WaveguideParams()


# ------------------------------------------------------------------ dispersion

def test_cavity_energy_values():
    assert cavity_energy(1, 1, 1.0) == 2.0
    assert cavity_energy(2, 1, 1.0) > cavity_energy(1, 1, 1.0)
    assert cavity_energy(1, 2, 1.0) > cavity_energy(1, 1, 1.0)
    assert cavity_energy(3, 1, 1e9) == pytest.approx(9.0)   # D -> inf: m^2
    with pytest.raises(ConfigError):
        cavity_energy(0, 1, 1.0)


def test_lead_energy_and_inversion():
    W = 1.3
    assert lead_energy(0.0, 1, W) == pytest.approx(1.0 / W**2)
    E = 1.7
    k0 = np.pi * np.sqrt(E - 1.0 / W**2)
    assert lead_energy(k0, 1, W) == pytest.approx(E, rel=1e-14)
    with pytest.raises(ConfigError):
        lead_energy(1.0, 0, W)


def test_single_channel_window_validation():
    WaveguideParams().validate()
    with pytest.raises(ConfigError, match="single-open-channel"):
        WaveguideParams(m0=2, n0=1).validate()   # xi0 = 5 > E_02 = 4
    with pytest.raises(ConfigError, match="l_max"):
        WaveguideParams(l_max=1).validate()


# --------------------------------------------------------------- trap distance

def test_trap_distance_enforces_the_condition():
    W = 1.0
    for n, sector in ((1, SYMMETRIC), (3, SYMMETRIC), (2, ANTISYMMETRIC), (4, ANTISYMMETRIC)):
        xi = 2.3
        g = trap_distance(xi, n, sector, W)
        k0 = np.pi * np.sqrt(xi - 1.0 / W**2)
        assert 1 + sector.sigma * np.cos(k0 * g) == pytest.approx(0.0, abs=1e-12)


def test_trap_distance_monotone_in_n():
    assert trap_distance(2.5, 3, SYMMETRIC, 1.0) > trap_distance(2.5, 1, SYMMETRIC, 1.0)


def test_trap_distance_threshold_divergence():
    assert trap_distance(1.0 + 1e-8, 1, SYMMETRIC, 1.0) > 1e3
    with pytest.raises(ConfigError, match="threshold"):
        trap_distance(0.9, 1, SYMMETRIC, 1.0)


def test_trap_distance_parity_rule():
    with pytest.raises(ConfigError, match="parity"):
        trap_distance(2.3, 2, SYMMETRIC, 1.0)
    with pytest.raises(ConfigError, match="parity"):
        trap_distance(2.3, 1, ANTISYMMETRIC, 1.0)


# ------------------------------------------------------------------- existence

def test_existence_margin_free_limit():
    wg0 = WaveguideParams(g0=1e-9)
    rep = existence_check(wg0)
    assert rep.ok
    assert rep.margin == pytest.approx(wg0.xi0 - wg0.threshold, abs=1e-9)


def test_existence_margin_decreasing_in_coupling(wg):
    margins = [existence_check(WaveguideParams(g0=g)).margin
               for g in (0.05, 0.1, 0.2)]
    assert margins[0] > margins[1] > margins[2]
    assert margins[1] > 0      # default configuration is in the trap regime


# ------------------------------------------------------------------ trap solve

def test_solve_trap_free_limit():
    wg0 = WaveguideParams(g0=1e-8)
    sol = solve_trap(wg0, 1, SYMMETRIC)
    assert sol.xi_tilde == pytest.approx(wg0.xi0, abs=1e-10)
    assert sol.x21_trap == pytest.approx(1.0 / np.sqrt(wg0.xi0 - 1.0), abs=1e-9)


def test_solve_trap_perturbative_scaling():
    shifts = []
    for g0 in (0.05, 0.1):
        sol = solve_trap(WaveguideParams(g0=g0), 1, SYMMETRIC)
        shifts.append(abs(sol.xi_tilde - 2.0))
    assert shifts[1] / shifts[0] == pytest.approx(4.0, rel=0.15)   # O(coupling^2)


def test_solve_trap_closed_loop_symmetric(wg):
    sol = solve_trap(wg, 1, SYMMETRIC)
    assert wg.threshold < sol.xi_tilde < lead_energy(0.0, 2, wg.W)
    pole = collective_pole_wg(wg, SYMMETRIC, sol.x21_trap, seed=sol.xi_tilde - 1e-5j)
    assert abs(pole.gamma) < 1e-6
    assert pole.omega_tilde == pytest.approx(sol.xi_tilde, abs=1e-8)


def test_solve_trap_closed_loop_antisymmetric(wg):
    sol = solve_trap(wg, 2, ANTISYMMETRIC)
    pole = collective_pole_wg(wg, ANTISYMMETRIC, sol.x21_trap, seed=sol.xi_tilde - 1e-5j)
    assert abs(pole.gamma) < 1e-6


def test_solve_trap_parity_enforced(wg):
    with pytest.raises(ConfigError, match="parity"):
        solve_trap(wg, 2, SYMMETRIC)


def test_generic_distance_leaks(wg):
    sol = solve_trap(wg, 1, SYMMETRIC)
    pole = collective_pole_wg(wg, SYMMETRIC, 1.23 * sol.x21_trap, seed=sol.xi_tilde - 1e-3j)
    assert pole.gamma > 1e-5


def test_pole_free_limit():
    wg0 = WaveguideParams(g0=1e-6)
    pole = collective_pole_wg(wg0, SYMMETRIC, 1.0, seed=2.0 - 1e-8j)
    assert abs(pole.value - 2.0) < 1e-9


def test_open_channel_boundary_continuity(wg):
    """The dispersion-substituted continuation: eta_wg is one analytic
    function through the axis (correction = -2 pi i |v|^2 (1+s cos) dk/dE)."""
    x21 = 1.3
    xi = 2.1
    gaps = []
    for delta in (1e-3, 1e-4, 1e-5):
        up = _eta_wg(xi + 1j * delta, wg, 1, x21)
        down = _eta_wg(xi - 1j * delta, wg, 1, x21)
        gaps.append(abs(up - down))
    assert gaps[2] < 0.15 * gaps[1] < 0.15**2 * gaps[0] * 10


# ----------------------------------------------------------------- closed form

@pytest.mark.parametrize("z", [1.5 + 0.02j, 2.5 + 0.1j, 2.1 + 0.3j, 3.5 + 0.05j])
@pytest.mark.parametrize("sigma, x21", [(1, 0.99), (-1, 1.7), (1, 5.3)])
def test_eta_wg_matches_tight_oracle(wg, z, sigma, x21):
    ref = z - wg.xi0 - 2.0 * waveguide_channel_sum(z, wg, sigma, x21)
    assert abs(_eta_wg(z, wg, sigma, x21) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_existence_margin_matches_tight_oracle(wg):
    ref = wg.xi0 - wg.threshold + 2.0 * waveguide_channel_sum(wg.threshold, wg, 0, 0.0).real
    assert abs(existence_check(wg).margin - ref) <= 1e-13


# the l = 2 channel pole meets the coupling's double pole at k = i k_c here
_Z_COLLISION = 4.0 / WaveguideParams().W ** 2 - WaveguideParams().k_c ** 2 / np.pi**2


@pytest.mark.parametrize("z", [2.0181711153 - 1e-9j, 1.5 - 0.05j, 2.5 + 0.1j, 3.3 - 0.2j,
                               _Z_COLLISION])
@pytest.mark.parametrize("sigma, x21", [(1, 0.99), (-1, 1.7), (1, 5.3)])
def test_eta_wg_derivative_is_exact(wg, z, sigma, x21):
    """The residue form's z-derivative against the Cauchy integral of eta_wg
    over a circle of radius 1e-2 (32 points, spectrally accurate)."""
    _, slope = _channel_sum(z, wg, sigma, x21, derivative=True)
    w = np.exp(2j * np.pi * np.arange(32) / 32)
    r = 1e-2
    cauchy = np.mean([_eta_wg(z + r * wk, wg, sigma, x21) / wk for wk in w]) / r
    assert abs(1.0 - 2.0 * slope - cauchy) < 1e-11


def test_channel_pole_meeting_the_coupling_pole_stays_exact(wg):
    """At z_c = 4/W^2 - k_c^2/pi^2 the l = 2 channel pole a_2 = i pi
    sqrt(4/W^2 - z) meets the coupling's double pole i k_c, where the textbook
    residue sum is 0/0: the kernel G stays finite and on the oracle there and
    at 1e-7 and 1e-5 from it, and eta_wg stays smooth through z_c."""
    z_c = _Z_COLLISION
    for delta in (0.0, 1e-7, -1e-7, 1e-7j, 1e-5, -1e-5, 1e-5j):
        a = 1j * np.pi * np.sqrt(complex(4.0 / wg.W**2 - (z_c + delta)))
        for x in (0.0, 0.99, 1.7, 5.3):
            g, dg = _residue_integral(a, x, wg.k_c)
            assert np.isfinite(g) and np.isfinite(dg)
            assert abs(g - residue_integral(a, x, wg.k_c)) < 1e-12
    eta, slope = _channel_sum(z_c, wg, 1, 1.7, derivative=True)
    assert np.isfinite(eta) and np.isfinite(slope)
    step = _eta_wg(z_c + 1e-7, wg, 1, 1.7) - _eta_wg(z_c, wg, 1, 1.7)
    assert abs(step - 1e-7 * (1.0 - 2.0 * slope)) < 1e-12


def test_trap_report_json(tmp_path, wg):
    sol = solve_trap(wg, 1, SYMMETRIC)
    pole = collective_pole_wg(wg, SYMMETRIC, sol.x21_trap, seed=sol.xi_tilde - 1e-5j)
    rep = existence_check(wg)
    path = tmp_path / "trap.json"
    trap_report_to_json(sol, pole, rep, path)
    import json

    doc = json.loads(path.read_text())
    assert set(doc) == {"sector", "n", "xi0", "xi_tilde", "x21_trap", "gamma_residual", "margin"}
    assert doc["margin"] > 0
