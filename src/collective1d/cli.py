"""Command-line surface: one subcommand per figure-class output.

    collective1d <poles|contour|evolve|sweep|bounces|waveguide>
                 [--config cfg.json] [--out DIR] [--override key=value ...]

Outputs are plot-ready CSV/JSON with full-precision floats and no
timestamps (identical config => byte-identical files); every output file
gets a sidecar <name>.config.json holding the fully resolved configuration.
Exit codes: 0 success, 1 configuration error (core.ConfigError: bad input),
2 solver failure (core.SolverError: a solve that did not converge).
"""
from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import bounces as bn
from . import dynamics as dyn
from . import greens as gr
from . import sweep as sw
from . import waveguide as wg
from .core import (CollectiveError, ConfigError, ModelParams, SolverError, as_sector,
                   finite_integer, finite_real, params_to_dict, validate)
from .io import write_json

DEFAULT_CONFIG = {
    "model": params_to_dict(ModelParams()),
    "lattice": {"L": 500.0, "n_modes": 2501},
    "poles": {"x21": 29.025, "n_min": -3, "n_max": 3, "write_contour": False},
    "contour": {"x21": 29.025, "sector": "s", "re_min": 1.3, "re_max": 2.7,
                "im_min": -0.1, "im_max": 0.0, "nx": 141, "ny": 51},
    "evolve": {"x21": 29.025, "initial": "s", "t_max_factor": 5.0, "n_t": 600,
               "profile_time_factors": [], "n_x": 241},
    "sweep": {"x21_min": 5.0, "x21_max": 40.0, "step": 0.05, "zero_decay_max_n": 12},
    "bounces": {"x21": 1.0, "t_max_factor": 3.0, "n_t": 61,
                "resum_time_factors": [0.0, 1.0, 2.0, 3.0]},
    "waveguide": {"D": 1.0, "W": 1.0, "m0": 1, "n0": 1, "l_max": 10,
                  "sector": "s", "n": 1, "g0": 0.1, "k_c": 2.0, "channel_decay": 0.2},
}


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:     # JSONDecodeError is a ValueError
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} holds a {type(user).__name__}, not an object")
        for block, values in user.items():
            if block not in cfg:
                raise ConfigError(f"unknown config block {block!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"config block {block!r} must be an object")
            for key, val in values.items():
                if key not in cfg[block]:
                    raise ConfigError(f"unknown key {block}.{key}")
                cfg[block][key] = val
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        node = cfg
        for part in parts:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"unknown override path {dotted!r}")
            parent, node = node, node[part]
        if isinstance(node, dict):
            raise ConfigError(f"override {dotted!r} names a config block, not a key")
        try:
            parent[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            parent[parts[-1]] = raw
    return cfg


def _resolve(cfg: dict) -> ModelParams:
    # construct unvalidated so commands can issue their own diagnostics
    # (lambda = 0 is the free theory)
    return ModelParams(omega1=_real(cfg, "model.omega1"), lam=_real(cfg, "model.lambda"),
                       omegaM=_real(cfg, "model.omegaM"), n_ff=_integer(cfg, "model.n_ff"),
                       x1=_real(cfg, "model.x1"), x2=_real(cfg, "model.x2"))


def _real(cfg: dict, dotted: str, many: bool = False):
    """The finite number at block.key as a float, or with many the list of
    finite numbers there as a list of floats (core.finite_real's rule)."""
    block, key = dotted.split(".")
    value = cfg[block][key]
    if not many:
        return finite_real(value, dotted)
    if not isinstance(value, list):
        raise ConfigError(f"{dotted} must be a list of finite numbers, got {value!r}")
    return [finite_real(v, f"{dotted}[{i}]") for i, v in enumerate(value)]


def _integer(cfg: dict, dotted: str, minimum: int | None = None) -> int:
    """The integer at block.key (core.finite_integer's rule)."""
    block, key = dotted.split(".")
    return finite_integer(cfg[block][key], dotted, minimum)


def _out_dir(name: str) -> Path:
    try:
        Path(name).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {name}: {exc}") from exc
    return Path(name)


def _sidecar(path: Path, cfg: dict) -> None:
    write_json(path.with_name(path.name + ".config.json"), cfg)


def _check_coupled(params: ModelParams) -> None:
    if params.lam == 0:
        raise ConfigError("free theory has no resonance poles (lambda = 0)")
    validate(params, two_atom=True)


def cmd_poles(cfg: dict, out: Path) -> list[Path]:
    params = _resolve(cfg)
    _check_coupled(params)
    x21 = _real(cfg, "poles.x21")
    n_range = range(_integer(cfg, "poles.n_min"), _integer(cfg, "poles.n_max") + 1)
    written = []
    for tag in ("s", "a"):
        records, missing = gr.pole_scan(tag, x21, n_range, params)
        path = out / f"poles_{tag}.csv"
        gr.pole_records_to_csv(records, path)
        written.append(path)
        if missing:
            print(f"poles[{tag}]: missed lattice indices {missing}", file=sys.stderr)
    if cfg["poles"].get("write_contour"):
        written += cmd_contour(cfg, out)
    return written


def cmd_contour(cfg: dict, out: Path) -> list[Path]:
    params = _resolve(cfg)
    _check_coupled(params)
    c = cfg["contour"]
    if as_sector(c["sector"]) is None:
        raise ConfigError(f"contour.sector must be 's' or 'a', got {c['sector']!r}")
    grid = (_integer(cfg, "contour.nx", 1), _integer(cfg, "contour.ny", 1))
    region = [_real(cfg, f"contour.{key}") for key in ("re_min", "re_max", "im_min", "im_max")]
    if not (region[0] < region[1] and region[2] < region[3]):
        raise ConfigError(f"contour region {region} is empty: need re_min < re_max "
                          "and im_min < im_max")
    cmap = gr.contour_map(region, grid, c["sector"], _real(cfg, "contour.x21"), params)
    path = out / f"contour_{c['sector']}.csv"
    gr.contour_to_csv(cmap, path)
    return [path]


def cmd_evolve(cfg: dict, out: Path) -> list[Path]:
    params = _resolve(cfg)
    _check_coupled(params)
    e = cfg["evolve"]
    initial = str(e["initial"])
    if initial not in ("s", "a"):
        raise ConfigError("evolve.initial must be 's' or 'a'")
    n_t, n_x = _integer(cfg, "evolve.n_t", 2), _integer(cfg, "evolve.n_x", 1)
    factors = _real(cfg, "evolve.profile_time_factors", many=True)
    named = {}      # profile files are named by fac:g, so distinct factors may collide
    for i, fac in enumerate(factors):
        first = named.setdefault(f"{fac:g}", i)
        if first != i:
            raise ConfigError(f"evolve.profile_time_factors {factors[first]!r} and {fac!r} both "
                              f"name field_{initial}_t{fac:g}.csv")
    x21 = _real(cfg, "evolve.x21")
    p = params.with_x21(x21)
    model = dyn.build_lattice(p, _real(cfg, "lattice.L"),
                              _integer(cfg, "lattice.n_modes"), initial)
    times = np.linspace(0.0, _real(cfg, "evolve.t_max_factor") * x21, n_t)
    series = dyn.survival_probability(model, initial, times)
    pole = gr.find_pole(initial, x21, gr.one_atom_pole(p).value, p)
    overlay = dyn.collective_survival(p, initial, x21, times, pole=pole)
    paths = [out / f"p1_{initial}.csv", out / f"p1_{initial}_collective.csv"]
    dyn.timeseries_to_csv(series, paths[0])
    dyn.timeseries_to_csv(overlay, paths[1])
    xs = np.linspace(-1.5 * x21 + p.x1, p.x2 + 1.5 * x21, n_x)
    for fac in factors:
        t = fac * x21
        prof = dyn.field_intensity(model, initial, xs, t)
        col = dyn.collective_field(p, initial, x21, xs, t, pole=pole)
        p1 = out / f"field_{initial}_t{fac:g}.csv"
        p2 = out / f"field_{initial}_t{fac:g}_collective.csv"
        dyn.profile_to_csv(prof, p1)
        dyn.profile_to_csv(col, p2)
        paths += [p1, p2]
    return paths


def cmd_sweep(cfg: dict, out: Path) -> list[Path]:
    params = _resolve(cfg)
    _check_coupled(params)
    step = _real(cfg, "sweep.step")
    if not step > 0:
        raise ConfigError("sweep.step must be positive")
    x21_min, x21_max = _real(cfg, "sweep.x21_min"), _real(cfg, "sweep.x21_max")
    try:
        grid = np.arange(x21_min, x21_max + 1e-12, step)
    except ValueError as exc:       # more points than an array can index
        raise ConfigError(f"sweep grid from x21_min to x21_max: {exc}") from exc
    if grid.size < 3:
        raise ConfigError("sweep grid from x21_min to x21_max must hold at least 3 points")
    records = sw.sweep_poles(grid, params)
    force = sw.force_indicator(records)
    path = out / "sweep.csv"
    sw.sweep_to_csv(records, path, force)
    solutions = []
    for tag in ("s", "a"):
        for n in range(1, _integer(cfg, "sweep.zero_decay_max_n", 0) + 1):
            try:
                sol = sw.zero_decay_solve(tag, n, params)
            except CollectiveError as exc:
                print(f"sweep: zero-decay solution ({tag}, {n}) skipped: {exc}", file=sys.stderr)
                continue
            if grid[0] <= sol.x21_zero <= grid[-1]:
                solutions.append(sol)
    checks = {}
    if solutions:
        # gamma at every zero-decay distance: find_pole's rule from z1, as one batch
        ev = gr.EtaEvaluator(params, [as_sector(sol.sector).sigma for sol in solutions],
                             [sol.x21_zero for sol in solutions])
        z1 = gr.one_atom_pole(params).value
        for sol, pole in zip(solutions, gr._find_poles(ev, [z1] * len(solutions))):
            if isinstance(pole, SolverError):
                raise pole
            checks[(sol.sector, sol.n)] = pole.gamma
    zpath = out / "zero_decay.json"
    sw.zero_decay_to_json(solutions, zpath, checks)
    return [path, zpath]


def cmd_bounces(cfg: dict, out: Path) -> list[Path]:
    params = _resolve(cfg)
    _check_coupled(params)
    x21 = _real(cfg, "bounces.x21")
    t_max = _real(cfg, "bounces.t_max_factor") * x21
    factors = _real(cfg, "bounces.resum_time_factors", many=True)
    dec = bn.BounceDecomposition.build(x21, params, t_max=t_max)
    times = np.linspace(0.0, t_max, _integer(cfg, "bounces.n_t", 1))
    amps = np.array([bn.bounce_sum(t, dec) for t in times])
    path = out / "bounce_amplitude.csv"
    bn.amplitude_to_csv(times, amps, path)
    reports = [bn.resummed(fac * x21, dec, allow_divergent=True) for fac in factors]
    rpath = out / "resummation.json"
    bn.resummation_report_to_json(reports, rpath)
    return [path, rpath]


def cmd_waveguide(cfg: dict, out: Path) -> list[Path]:
    w = cfg["waveguide"]
    guide = wg.WaveguideParams(
        **{key: _real(cfg, f"waveguide.{key}") for key in ("D", "W", "g0", "k_c", "channel_decay")},
        **{key: _integer(cfg, f"waveguide.{key}") for key in ("m0", "n0", "l_max")})
    report = wg.existence_check(guide)
    solution = wg.solve_trap(guide, _integer(cfg, "waveguide.n", 1), w["sector"])
    pole = wg.collective_pole_wg(guide, w["sector"], solution.x21_trap,
                                 seed=solution.xi_tilde - 1e-5j)
    path = out / "waveguide_trap.json"
    wg.trap_report_to_json(solution, pole, report, path)
    return [path]


_COMMANDS = {
    "poles": cmd_poles,
    "contour": cmd_contour,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "bounces": cmd_bounces,
    "waveguide": cmd_waveguide,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="collective1d", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="dot-path override, e.g. model.lambda=0.1")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
        out = _out_dir(args.out)
        written = _COMMANDS[args.command](cfg, out)
        for path in written:
            _sidecar(path, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
