import json
import warnings

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


def test_no_runtime_path_builds_a_ray_kernel(tmp_path, monkeypatch):
    """eta^+ and the collective-field phase integrals are in closed form: with
    quadrature.RayKernel patched to raise, every command that evaluates
    them still exits 0 (mirrors test_no_quadrature_spec_in_the_eta_layer)."""
    from collective1d import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("a runtime path built a RayKernel")

    monkeypatch.setattr(quadrature.RayKernel, "__init__", refuse)
    cases = {
        "poles": {"poles": {"x21": 8.0, "n_min": -1, "n_max": 1}},
        "contour": {"contour": {"x21": 8.0, "nx": 15, "ny": 5, "re_min": 1.8, "re_max": 2.2}},
        "bounces": {},
        "evolve": {"lattice": {"L": 40.0, "n_modes": 201},
                   "evolve": {"x21": 5.0, "t_max_factor": 2.0, "n_t": 21,
                              "profile_time_factors": [1.0], "n_x": 21}},
        "sweep": {"sweep": {"x21_min": 7.5, "x21_max": 7.7, "step": 0.1, "zero_decay_max_n": 1}},
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
            raise ConvergenceError("zero-decay fixed point stalled at residual 1.00e-03")
        return solve(sector, n, params)

    monkeypatch.setattr(sw, "zero_decay_solve", stalls_at_a2)
    cfg = {"sweep": {"x21_min": 7.5, "x21_max": 8.3, "step": 0.1, "zero_decay_max_n": 2}}
    assert run(tmp_path, "sweep", config=cfg) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["sweep: zero-decay solution (a, 2) skipped: "
                   "zero-decay fixed point stalled at residual 1.00e-03"]
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


def test_config_file_unknown_block(tmp_path):
    assert run(tmp_path, "poles", config={"nope": {}}) == 1


def test_solver_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    from collective1d import greens

    # no Newton step allowed: the principal pole solve fails
    monkeypatch.setattr(greens, "_MAX_NEWTON", 0)
    assert run(tmp_path, "poles") == 2
    assert "solver error" in capsys.readouterr().err


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
