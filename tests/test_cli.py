import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from collective1d.cli import main


def run(tmp_path, command, *overrides, config=None):
    argv = [command, "--out", str(tmp_path)]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    for item in overrides:
        argv += ["--override", item]
    return main(argv)


def test_poles_fast_config(tmp_path):
    code = run(tmp_path, "poles", "poles.x21=8.0", "poles.n_min=0", "poles.n_max=0")
    assert code == 0
    for tag in ("s", "a"):
        path = tmp_path / f"poles_{tag}.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == "sector,n,re,im,gamma,re_N,im_N"
        assert len(lines) == 2
        sidecar = json.loads((tmp_path / f"poles_{tag}.csv.config.json").read_text())
        assert sidecar["poles"]["x21"] == 8.0
    assert not (tmp_path / "contour_s.csv").exists()   # optional output absent


def test_free_theory_is_config_error(tmp_path, capsys):
    code = run(tmp_path, "poles", "model.lambda=0")
    assert code == 1
    assert "no resonance poles" in capsys.readouterr().err


def test_unknown_override_is_config_error(tmp_path):
    assert run(tmp_path, "poles", "nosuch.key=1") == 1
    assert run(tmp_path, "poles", "poles.x21") == 1


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for out in (a, b):
        code = main(["poles", "--out", str(out), "--override", "poles.x21=8.0",
                     "--override", "poles.n_min=0", "--override", "poles.n_max=0"])
        assert code == 0
    assert (a / "poles_s.csv").read_bytes() == (b / "poles_s.csv").read_bytes()


def test_contour_command(tmp_path):
    code = run(tmp_path, "contour", "contour.x21=8.0", "contour.nx=15", "contour.ny=5",
               "contour.re_min=1.8", "contour.re_max=2.2", "contour.im_min=-0.05")
    assert code == 0
    lines = (tmp_path / "contour_s.csv").read_text().splitlines()
    assert lines[0] == "re,im,log_inv_abs_eta"
    assert len(lines) == 1 + 15 * 5


def test_evolve_command(tmp_path):
    cfg = {
        "lattice": {"L": 40.0, "n_modes": 201},
        "evolve": {"x21": 5.0, "initial": "s", "t_max_factor": 2.0, "n_t": 21,
                   "profile_time_factors": [1.0], "n_x": 21},
    }
    code = run(tmp_path, "evolve", config=cfg)
    assert code == 0
    assert (tmp_path / "p1_s.csv").exists()
    assert (tmp_path / "p1_s_collective.csv").exists()
    assert (tmp_path / "field_s_t1.csv").exists()
    assert (tmp_path / "field_s_t1_collective.csv").exists()
    p1 = np.genfromtxt(tmp_path / "p1_s.csv", delimiter=",", names=True)
    assert p1["value"][0] == pytest.approx(0.5, abs=1e-12)


def test_evolve_profiles_do_not_depend_on_the_other_factors(tmp_path):
    """One run at three profile times writes the field bytes of three
    one-time runs."""
    assert run(tmp_path / "all", "evolve", "evolve.profile_time_factors=[2.0, 3.0, 4.02]") == 0
    for fac in ("2", "3", "4.02"):
        assert run(tmp_path / fac, "evolve", f"evolve.profile_time_factors=[{fac}]") == 0
        for name in (f"field_s_t{fac}.csv", f"field_s_t{fac}_collective.csv"):
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / fac / name).read_bytes()


def test_evolve_empty_grid_is_config_error(tmp_path):
    cfg = {"evolve": {"n_t": 1}}
    assert run(tmp_path, "evolve", config=cfg) == 1


def test_sweep_command(tmp_path):
    cfg = {"sweep": {"x21_min": 7.5, "x21_max": 8.3, "step": 0.1, "zero_decay_max_n": 3}}
    code = run(tmp_path, "sweep", config=cfg)
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("x21,re_zs,gamma_s")
    assert len(lines) == 1 + 9
    zd = json.loads((tmp_path / "zero_decay.json").read_text())
    assert any(abs(item["x21_zero"] - 7.913) < 0.05 for item in zd)
    assert all(item["gamma_check"] < 1e-6 for item in zd)


def test_sweep_from_19_writes_the_default_rows(tmp_path, sweep_records):
    """A sweep that starts at 19.0, next to a near-crossing of two s roots,
    writes the default grid's roots at 19.00-19.20 to 1e-12: no empty row
    and no far root."""
    code = run(tmp_path, "sweep", "sweep.x21_min=19.0", "sweep.x21_max=19.2")
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    full = {round(rec.x21, 9): rec for rec in sweep_records}
    for row in rows:
        assert row["flags"] == "sa"
        want = full[round(float(row["x21"]), 9)]
        for z, re, gamma in ((want.z_s, "re_zs", "gamma_s"), (want.z_a, "re_za", "gamma_a")):
            assert abs(float(row[re]) - z.omega_tilde) <= 1e-12, (row["x21"], re)
            assert abs(float(row[gamma]) - z.gamma) <= 1e-12, (row["x21"], gamma)


def test_no_runtime_path_builds_a_ray_kernel(tmp_path, monkeypatch):
    """eta^+, the collective-field phase integrals and the waveguide channel
    integrals are in closed form: with quadrature.RayKernel and the adaptive
    integrator's panel rule (behind every binding of adaptive_integral)
    patched to raise, all six commands still exit 0 (mirrors
    test_no_quadrature_spec_in_the_eta_layer)."""
    from collective1d import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("a runtime path built a RayKernel or ran adaptive quadrature")

    monkeypatch.setattr(quadrature.RayKernel, "__init__", refuse)
    monkeypatch.setattr(quadrature, "_panel_estimates", refuse)
    cases = {
        "poles": {"poles": {"x21": 8.0, "n_min": -1, "n_max": 1}},
        "contour": {"contour": {"x21": 8.0, "nx": 15, "ny": 5, "re_min": 1.8, "re_max": 2.2}},
        "bounces": {},
        "evolve": {"lattice": {"L": 40.0, "n_modes": 201},
                   "evolve": {"x21": 5.0, "t_max_factor": 2.0, "n_t": 21,
                              "profile_time_factors": [1.0], "n_x": 21}},
        "sweep": {"sweep": {"x21_min": 7.5, "x21_max": 7.7, "step": 0.1, "zero_decay_max_n": 1}},
        "waveguide": {},
    }
    for command, cfg in cases.items():
        (tmp_path / command).mkdir()
        assert run(tmp_path / command, command, config=cfg) == 0, command


def test_sweep_reports_skipped_zero_decay_solutions(tmp_path, capsys, monkeypatch):
    from collective1d import sweep as sw
    from collective1d.greens import ConvergenceError

    solve = sw.zero_decay_solve

    def stalls_at_a2(sector, n, params):
        if (sector, n) == ("a", 2):
            raise ConvergenceError("zero-decay solve did not converge in 60 steps (|f|=1.00e-03)")
        return solve(sector, n, params)

    monkeypatch.setattr(sw, "zero_decay_solve", stalls_at_a2)
    cfg = {"sweep": {"x21_min": 7.5, "x21_max": 8.3, "step": 0.1, "zero_decay_max_n": 2}}
    assert run(tmp_path, "sweep", config=cfg) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["sweep: zero-decay solution (a, 2) skipped: "
                   "zero-decay solve did not converge in 60 steps (|f|=1.00e-03)"]
    zd = json.loads((tmp_path / "zero_decay.json").read_text())
    assert [(item["sector"], item["n"]) for item in zd] == [("symmetric", 2)]


def test_bounces_command_default_distance(tmp_path):
    code = run(tmp_path, "bounces", "bounces.n_t=13")
    assert code == 0
    lines = (tmp_path / "bounce_amplitude.csv").read_text().splitlines()
    assert lines[0] == "t,re_I,im_I,abs2_half"
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(0.5, abs=1e-10)   # (1/2)|I(0)|^2
    reports = json.loads((tmp_path / "resummation.json").read_text())
    assert all(rep["converged"] for rep in reports)
    assert max(rep["rel_discrepancy"] for rep in reports) < 1e-6


def test_waveguide_command(tmp_path):
    code = run(tmp_path, "waveguide")
    assert code == 0
    doc = json.loads((tmp_path / "waveguide_trap.json").read_text())
    assert doc["margin"] > 0
    assert abs(doc["gamma_residual"]) < 1e-6
    assert doc["sector"] == "symmetric" and doc["n"] == 1


def test_waveguide_channels_stop_where_their_terms_vanish(tmp_path):
    """At the default channel_decay the channel terms underflow to 0 near
    l = 233, so l_max = 10^8 writes the bytes of l_max = 1000 within
    seconds. Where no term vanishes, or only beyond l = 10 000
    (channel_decay = 0.999, near l = 37 000), an l_max beyond 10 000 is a
    config error naming it. Each run is a process with a time limit, so a
    loop over every channel fails instead of hanging."""
    def waveguide(out, *overrides):
        argv = [sys.executable, "-m", "collective1d", "waveguide", "--out", str(out)]
        for item in overrides:
            argv += ["--override", item]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)

    for l_max in (1000, 100000000):
        assert waveguide(tmp_path / str(l_max), f"waveguide.l_max={l_max}").returncode == 0
    assert ((tmp_path / "1000" / "waveguide_trap.json").read_bytes()
            == (tmp_path / "100000000" / "waveguide_trap.json").read_bytes())
    for decay, l_max in ((1, 10001), (0.999, 100000000)):
        proc = waveguide(tmp_path, f"waveguide.channel_decay={decay}", f"waveguide.l_max={l_max}")
        assert proc.returncode == 1 and "waveguide.l_max" in proc.stderr


def test_config_file_unknown_block(tmp_path):
    assert run(tmp_path, "poles", config={"nope": {}}) == 1


def test_solver_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    from collective1d import greens

    def unsettled(ev, boxes):
        lo, hi = boxes[0]
        raise greens.SolverError(f"pole census did not settle in {lo} to {hi}")

    # no Newton step allowed, so the principal pole solve fails, and the
    # census loop that find_pole falls back to does not settle
    monkeypatch.setattr(greens, "_MAX_NEWTON", 0)
    monkeypatch.setattr(greens, "_census_boxes", unsettled)
    assert run(tmp_path, "poles") == 2
    assert "solver error" in capsys.readouterr().err


SMALL_EVOLVE = ("lattice.L=80.0", "lattice.n_modes=201", "evolve.n_t=5", "evolve.t_max_factor=0.5")


def test_poles_where_the_solve_from_z1_lands_far(tmp_path, capsys):
    """At x21 = 19.05 the solve from z1 lands on 2.710625 - 0.176348i
    (gamma = 7.5 gamma_1), 0.73 > pi/x21 from z1: find_pole takes the census
    root nearest z1 on the sigma side, n = -1 is the root the sweep follows
    there, and no index is missing."""
    assert run(tmp_path, "poles", "poles.x21=19.05") == 0
    with open(tmp_path / "poles_s.csv") as fh:
        by_n = {int(r["n"]): complex(float(r["re"]), float(r["im"])) for r in csv.DictReader(fh)}
    assert sorted(by_n) == list(range(-3, 4))
    assert abs(by_n[0] - (2.039552 - 0.048652j)) < 1e-6
    assert abs(by_n[-1] - (1.924516 - 0.057591j)) < 1e-6
    assert "missed" not in capsys.readouterr().err


def test_poles_at_small_omega1_reach_the_floor(tmp_path, capsys):
    """At omega1 = 1, x21 = 5 the lattice band reaches Re z = 0.05*omega1,
    where the census boxes are clipped to the evaluation region at the top:
    the run exits 0 with the principal poles, and the lattice indices beyond
    the floor or the band are reported missing."""
    assert run(tmp_path, "poles", "model.omega1=1.0", "poles.x21=5") == 0
    for tag, z in (("s", 0.961871 - 0.015381j), ("a", 0.992337 - 0.010856j)):
        with open(tmp_path / f"poles_{tag}.csv") as fh:
            by_n = {int(r["n"]): complex(float(r["re"]), float(r["im"])) for r in csv.DictReader(fh)}
        assert abs(by_n[0] - z) < 1e-6
    assert "outside the evaluation region" not in capsys.readouterr().err


def test_evolve_overlay_where_the_solve_from_z1_lands_far(tmp_path):
    """The single-pole overlay P1(0) = |N|^2/2 at x21 = 19.05 comes from the
    principal pole, 0.383, not 0.0026 from the far root."""
    assert run(tmp_path, "evolve", "evolve.x21=19.05", *SMALL_EVOLVE) == 0
    with open(tmp_path / "p1_s_collective.csv") as fh:
        first = next(csv.DictReader(fh))
    assert float(first["value"]) == pytest.approx(0.383, abs=5e-4)


def test_evolve_in_a_stall_window_exits_0(tmp_path):
    """From z1 the pole solve stalls at (a, 26.9375); the census gives the
    principal pole, so the run completes."""
    assert run(tmp_path, "evolve", "evolve.x21=26.9375", "evolve.initial=a", *SMALL_EVOLVE) == 0
    assert (tmp_path / "p1_a_collective.csv").exists()


def test_colliding_profile_file_names_are_config_error(tmp_path, capsys):
    cfg = {"lattice": {"L": 40.0, "n_modes": 201},
           "evolve": {"x21": 5.0, "profile_time_factors": [1.0, 1.0000001]}}
    assert run(tmp_path, "evolve", config=cfg) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "1.0 and 1.0000001" in err[0] and "field_s_t1.csv" in err[0]
    assert not (tmp_path / "field_s_t1.csv").exists()


def test_lattice_solver_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    from collective1d import dynamics as dyn

    monkeypatch.setattr(dyn, "_MAX_ITER", 1)
    cfg = {"lattice": {"L": 40.0, "n_modes": 201}, "evolve": {"x21": 5.0, "n_t": 21}}
    assert run(tmp_path, "evolve", config=cfg) == 2
    assert "secular equation" in capsys.readouterr().err
    assert not (tmp_path / "p1_s.csv").exists()


def test_large_form_factor_exponent_solves(tmp_path, capsys):
    """(1 + (z/omegaM)^2)^(2 n_ff) overflows on the far ray nodes for a large
    n_ff; v^2 takes its limit 0 there, so the principal poles solve with no
    RuntimeWarning."""
    for n_ff in (20, 30):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(tmp_path, "poles", f"model.n_ff={n_ff}", "poles.n_min=0", "poles.n_max=0")
        assert code == 0
        assert capsys.readouterr().err == ""
        for tag in ("s", "a"):
            rows = np.genfromtxt(tmp_path / f"poles_{tag}.csv", delimiter=",", names=True,
                                 dtype=None, encoding="utf-8")
            assert np.isfinite(rows["re"]) and np.isfinite(rows["im"])


@pytest.mark.parametrize("command, override", [
    ("sweep", "sweep.step=0"),
    ("sweep", "sweep.step=-1"),
    ("sweep", "sweep.x21_min=-1"),
    ("sweep", "sweep.x21_min=0"),
    ("poles", "model.omega1=1e400"),
    ("poles", "model.n_ff=1.5"),
    ("contour", "contour.nx=0"),
    ("contour", "contour.nx=1.5"),
    ("evolve", "evolve.n_x=0"),
    ("evolve", "lattice.L=nan"),
    ("evolve", "lattice.L=inf"),
    ("evolve", "evolve.profile_time_factors=[NaN]"),
    ("poles", "quad.rel_tol=-1"),
    ("poles", "quad.cutoff=abc"),
    ("poles", "quad.cutoff=1000"),
    ("poles", "poles.x21=null"),
    ("contour", "contour.x21=null"),
    ("waveguide", "waveguide.D=null"),
    ("sweep", "sweep.x21_min=[1]"),
    ("evolve", "evolve.profile_time_factors=1.0"),
    ("bounces", "bounces.resum_time_factors=2"),
    ("contour", "contour.re_min=NaN"),
    ("contour", "contour.sector=null"),
    ("contour", "contour.re_min=3"),
    ("waveguide", "waveguide.g0=NaN"),
    ("poles", "--config=DIR"),
    ("poles", "--config=[1]"),
    ("poles", "--config={"),
    ("poles", "model=3"),
    ("poles", "poles.x21.re=1"),
    ("waveguide", "waveguide.D=0"),
    ("waveguide", "waveguide.W=0"),
    ("waveguide", "waveguide.k_c=0"),
    ("poles", "model.n_ff=true"),
    ("poles", "model.lambda=true"),
    ("poles", "model.omega1=abc"),
    ("sweep", "sweep.x21_max=1e308"),
    ("waveguide", "waveguide.D=1e-300"),
    ("waveguide", "waveguide.D=1e-170"),
    ("waveguide", "waveguide.W=1e-300"),
    ("waveguide", "waveguide.g0=1e300"),
    ("waveguide", "waveguide.k_c=1e300"),
    ("waveguide", "waveguide.channel_decay=1e300"),
    ("poles", "model.lambda=1e300"),
    ("poles", "model.omegaM=1e300"),
    ("poles", "poles.n_min=5"),
    ("evolve", "evolve.x21=-3"),
    ("evolve", "evolve.t_max_factor=-1"),
])
def test_bad_input_is_one_line_config_error(tmp_path, capsys, command, override):
    # "--config=DIR" names a directory as the config file and "--config=TEXT"
    # a file holding TEXT; every other case is one --override
    if override.startswith("--config="):
        path = tmp_path / "cfg.json"
        text = override.split("=", 1)[1]
        path.mkdir() if text == "DIR" else path.write_text(text)
        code = main([command, "--out", str(tmp_path), "--config", str(path)])
    else:
        code = run(tmp_path, command, override)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_empty_or_misread_ranges_name_their_key(tmp_path, capsys):
    """An empty lattice-index range and a negative distance or time factor
    are config errors that name the offending key."""
    for command, override, key in (("poles", "poles.n_min=5", "poles.n_min"),
                                   ("evolve", "evolve.x21=-3", "evolve.x21"),
                                   ("evolve", "evolve.t_max_factor=-1", "evolve.t_max_factor"),
                                   ("poles", "poles.x21=-3", "poles.x21"),
                                   ("contour", "contour.x21=-3", "contour.x21"),
                                   ("bounces", "bounces.x21=-3", "bounces.x21"),
                                   ("bounces", "bounces.t_max_factor=-1", "bounces.t_max_factor")):
        assert run(tmp_path, command, override) == 1
        assert key in capsys.readouterr().err


def test_sweep_at_a_vanishing_coupling_exits_0(tmp_path, capsys):
    """At lambda = 1e-300, gamma_1 underflows to 0; the sweep's 1/gamma_1
    range warning must not divide by it."""
    assert run(tmp_path, "sweep", "model.lambda=1e-300") == 0
    assert "Traceback" not in capsys.readouterr().err
