"""The three benchmark workloads: their seeded inputs, the operations of one
round, and the checks of a round's outputs against properties and the
oracles in ``oracles.py``.

A workload is a list of named operations. One round runs every operation
once; a run repeats whole rounds. The package is driven only through
``collective1d.cli.main(argv)`` and its public library functions.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import collective1d as c1d
from collective1d import cli

X21_FIG = 29.025     # distance of the figure runs
X21_TRAP = 12.7      # antisymmetric zero-decay neighbourhood; gamma_a = 3.3e-5
BOX_L = 500.0
SWEEP_STEP = 0.05
N_T = 600

# Operations that fail at every seed because of a known fault of the program.
# They are counted as failed and do not make a run incorrect.
KNOWN_FAULTS = {
    # greens.continuum_weight_grid joins each narrow-pole window to the base
    # grid by one linear Filon panel; the 1/(k - omega)^2 flank in that gap
    # adds weight, so the sum rule A(0) = 1 fails (1.0269).
    "spectral": {"a_12.7"},
}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(name.encode())])


def _fmt(value: float) -> str:
    return repr(float(value))


def build_inputs(name: str, seed: int) -> dict:
    """Everything a run needs before its first round. Seed 0 gives the
    package defaults (no grid shift)."""
    u = 0.0 if seed == 0 else float(_rng(name, seed).uniform())
    params = c1d.ModelParams()
    inputs = {"seed": seed, "shift": u, "params": params,
              "quad": c1d.QuadratureSpec.for_params(params)}
    if name == "sweep":
        x0, x1 = 5.0 + u * SWEEP_STEP, 40.0 + u * SWEEP_STEP
        inputs["grid"] = np.arange(x0, x1 + 1e-12, SWEEP_STEP)
        inputs["sweep_argv"] = ["--override", f"sweep.x21_min={_fmt(x0)}",
                                "--override", f"sweep.x21_max={_fmt(x1)}"]
        # the bounce amplitude grid (61 points over [0, 3 x21]) moves within one step
        inputs["bounces_argv"] = ["--override",
                                  f"bounces.t_max_factor={_fmt(3.0 + u * 3.0 / 60)}"]
        inputs["sample"] = _rng(name, seed + 1).choice(inputs["grid"].size, 3, replace=False)
    elif name == "lattice":
        cases = {}
        for tag in ("s", "a"):
            fac = 5.0 + u * 5.0 / (N_T - 1)
            cases[f"{tag}_29.025"] = dict(
                initial=tag, x21=X21_FIG, n_modes=2501, t_max_factor=fac,
                profiles=[2.0, 4.02])
        for tag in ("s", "a"):
            fac = 7.0 + u * 7.0 / (N_T - 1)
            cases[f"{tag}_12.7"] = dict(
                initial=tag, x21=X21_TRAP, n_modes=5001, t_max_factor=fac, profiles=[])
        for case in cases.values():
            case["argv"] = [
                "--override", f"evolve.initial={case['initial']}",
                "--override", f"evolve.x21={_fmt(case['x21'])}",
                "--override", f"lattice.L={_fmt(BOX_L)}",
                "--override", f"lattice.n_modes={case['n_modes']}",
                "--override", f"evolve.t_max_factor={_fmt(case['t_max_factor'])}",
                "--override", f"evolve.n_t={N_T}",
                "--override", f"evolve.profile_time_factors={json.dumps(case['profiles'])}"]
        inputs["cases"] = cases
    elif name == "spectral":
        cases = {}
        for tag, x21, n_modes in (("s", X21_FIG, 2501), ("a", X21_TRAP, 5001)):
            t_end = 5.0 * x21
            dt = t_end / (N_T - 1)
            cases[f"{tag}_{x21:g}"] = dict(sector=tag, x21=x21, n_modes=n_modes,
                                           times=np.linspace(0.0, t_end, N_T) + u * dt)
        inputs["cases"] = cases
    else:
        raise ValueError(f"unknown workload {name!r}")
    return inputs


def _cli(argv: list[str]) -> int:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"collective1d {argv[0]} exited {rc}")
    return rc


def operations(name: str, inputs: dict, out: Path) -> list[tuple[str, object]]:
    """(op name, thunk) pairs of one round; each op writes under out/<op>."""
    def cli_op(op, argv):
        return op, lambda: _cli([argv[0], "--out", str(out / op)] + argv[1:])

    if name == "sweep":
        return [cli_op("sweep", ["sweep"] + inputs["sweep_argv"]),
                cli_op("poles", ["poles"]),
                cli_op("bounces", ["bounces"] + inputs["bounces_argv"]),
                cli_op("waveguide", ["waveguide"])]
    if name == "lattice":
        return [cli_op(op, ["evolve"] + case["argv"]) for op, case in inputs["cases"].items()]
    params, quad = inputs["params"], inputs["quad"]

    def spectral_op(case):
        def run():
            times = case["times"]
            grid = c1d.continuum_weight_grid(case["sector"], case["x21"], params, quad,
                                             t_max=float(times.max()))
            amps = c1d.amplitude_quadrature(times, case["sector"], case["x21"], params,
                                            quad, grid=grid)
            a0 = c1d.amplitude_quadrature(0.0, case["sector"], case["x21"], params,
                                          quad, grid=grid)
            return grid, amps, a0
        return run

    ops = [(op, spectral_op(case)) for op, case in inputs["cases"].items()]
    ops.append(cli_op("contour", ["contour"]))
    return ops


def digest(op_dir: Path, result) -> str:
    """Hash of an op's outputs: its files, or the arrays it returned."""
    h = hashlib.sha256()
    if op_dir.is_dir():
        for path in sorted(op_dir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    if isinstance(result, tuple):
        (k, rho), amps, a0 = result
        for arr in (k, rho, amps, np.asarray(a0)):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- checks

def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], rows[1:]
    cols = {}
    for i, key in enumerate(head):
        vals = [r[i] for r in body]
        try:
            cols[key] = np.array([float(v) for v in vals])
        except ValueError:
            cols[key] = np.array(vals)
    return cols


class Checker:
    """Collects failed-check messages per operation."""

    def __init__(self):
        self.failures: dict[str, list[str]] = {}

    def expect(self, op: str, ok, message: str) -> None:
        self.failures.setdefault(op, [])
        if not bool(ok):
            self.failures[op].append(message)


def _oracle_model(params) -> "oracles.Model":
    # oracles (and the scipy.integrate it needs) are imported only by the
    # checks, never by the set-up probes, so that setup_s shows a package
    # that stops importing scipy
    import oracles
    return oracles.Model(params.omega1, params.lam, params.omegaM, params.n_ff)


def _oracle_root(z: complex, sigma: int, x21: float, model, tol: float = 1e-12) -> complex:
    """Newton on the oracle eta^+ from z."""
    import oracles
    for _ in range(40):
        f = oracles.eta_plus_oracle(z, sigma, x21, model)
        if abs(f) < tol:
            return z
        z = z - f / oracles.eta_plus_oracle_derivative(z, sigma, x21, model)
    raise ArithmeticError(f"oracle Newton did not converge near {z}")


def check(name: str, inputs: dict, out: Path, results: dict) -> dict[str, list[str]]:
    """Check the last round's outputs; returns {op: [failed checks]}."""
    chk = Checker()
    for op, res in results.items():
        chk.expect(op, not isinstance(res, BaseException), f"raised {res!r}")
    ok_ops = [op for op, res in results.items() if not isinstance(res, BaseException)]
    {"sweep": _check_sweep, "lattice": _check_lattice,
     "spectral": _check_spectral}[name](inputs, out, results, ok_ops, chk)
    return chk.failures


def _check_sweep(inputs, out, results, ok_ops, chk):
    import oracles
    model = _oracle_model(inputs["params"])
    z1 = _oracle_root(complex(model.omega1, 0.0), 0, 0.0, model)
    if "sweep" in ok_ops:
        rows = _read_csv(out / "sweep" / "sweep.csv")
        grid = inputs["grid"]
        xs = rows["x21"]
        chk.expect("sweep", xs.size == grid.size == 701 and np.allclose(xs, grid, rtol=0, atol=1e-12),
                   f"sweep grid has {xs.size} points, want the 701 of {grid[0]}..{grid[-1]}")
        chk.expect("sweep", np.all(rows["flags"] == "sa"),
                   f"{np.sum(rows['flags'] != 'sa')} sweep points did not converge")
        gam = {1: rows["gamma_s"], -1: rows["gamma_a"]}
        re = {1: rows["re_zs"], -1: rows["re_za"]}
        for i in inputs["sample"]:
            for sigma in (1, -1):
                z = complex(re[sigma][i], -gam[sigma][i])
                eta = oracles.eta_plus_oracle(z, sigma, xs[i], model)
                chk.expect("sweep", abs(eta) < 1e-8,
                           f"|eta_oracle| = {abs(eta):.1e} at sweep pole sigma={sigma} x21={xs[i]}")
        with open(out / "sweep" / "zero_decay.json") as fh:
            sols = json.load(fh)
        found = {(s["sector"], s["n"]) for s in sols}
        for sector, sigma in (("symmetric", 1), ("antisymmetric", -1)):
            for n in range(1, 13):
                m = 2 * n + 1 if sigma > 0 else 2 * n
                x_pred = m * math.pi / z1.real
                if grid[0] * 1.01 <= x_pred <= grid[-1] * 0.99:
                    chk.expect("sweep", (sector, n) in found,
                               f"zero-decay solution ({sector}, {n}) near x21={x_pred:.3f} missing")
        for s in sols:
            sigma = 1 if s["sector"] == "symmetric" else -1
            m = 2 * s["n"] + 1 if sigma > 0 else 2 * s["n"]
            x0 = s["x21_zero"]
            chk.expect("sweep", abs(x0 - m * math.pi / s["omega_o"]) <= 1e-9 * x0,
                       f"x21_zero != m pi / omega_o for {s['sector']} n={s['n']}")
            chk.expect("sweep", abs(s["omega_o"] - z1.real) < 1e-2,
                       f"omega_o {s['omega_o']} not within 1e-2 of omega_tilde_1 {z1.real}")
            near = np.abs(xs - x0) <= 0.01 * x0
            gmin = gam[sigma][near].min() if near.any() else math.inf
            chk.expect("sweep", gmin < 1e-4,
                       f"no gamma dip below 1e-4 within 1% of x21_zero={x0} ({s['sector']})")
    if "poles" in ok_ops:
        for tag, sigma in (("s", 1), ("a", -1)):
            rows = _read_csv(out / "poles" / f"poles_{tag}.csv")
            chk.expect("poles", sorted(rows["n"].astype(int).tolist()) == list(range(-3, 4)),
                       f"poles_{tag}: lattice indices {rows['n'].tolist()}, want -3..3")
            for re_, im_, rn, imn in zip(rows["re"], rows["im"], rows["re_N"], rows["im_N"]):
                z = complex(re_, im_)
                eta = oracles.eta_plus_oracle(z, sigma, X21_FIG, model)
                deta = oracles.eta_plus_oracle_derivative(z, sigma, X21_FIG, model)
                chk.expect("poles", abs(eta) < 1e-8, f"|eta_oracle({z})| = {abs(eta):.1e}")
                chk.expect("poles", abs(complex(rn, imn) * deta - 1.0) < 1e-5,
                           f"N eta' = {complex(rn, imn) * deta} at {z}")
    if "bounces" in ok_ops:
        with open(out / "bounces" / "resummation.json") as fh:
            reports = json.load(fh)
        worst = max(r["rel_discrepancy"] for r in reports)
        chk.expect("bounces", len(reports) == 4 and worst <= 1e-6,
                   f"resummation discrepancy {worst:.1e} > 1e-6")
        amp = _read_csv(out / "bounces" / "bounce_amplitude.csv")
        chk.expect("bounces", amp["t"].size == 61 and abs(amp["re_I"][0] - 1.0) < 1e-12
                   and abs(amp["im_I"][0]) < 1e-12, "bounce amplitude I(0) != 1")
    if "waveguide" in ok_ops:
        with open(out / "waveguide" / "waveguide_trap.json") as fh:
            trap = json.load(fh)
        chk.expect("waveguide", abs(trap["gamma_residual"]) < 1e-6,
                   f"waveguide gamma {trap['gamma_residual']:.1e} at x21_trap")
        chk.expect("waveguide", trap["margin"] > 0, f"existence margin {trap['margin']} <= 0")


def _check_lattice(inputs, out, results, ok_ops, chk):
    import oracles
    model = _oracle_model(inputs["params"])
    p1 = {}
    for op in ok_ops:
        case = inputs["cases"][op]
        tag, x21 = case["initial"], case["x21"]
        series = _read_csv(out / op / f"p1_{tag}.csv")
        t, p = series["t"], series["value"]
        want_t = np.linspace(0.0, case["t_max_factor"] * x21, N_T)
        chk.expect(op, t.size == N_T and np.allclose(t, want_t, rtol=1e-15, atol=0),
                   "time grid differs from the requested one")
        chk.expect(op, abs(p[0] - 0.5) < 1e-12, f"P1(0) = {float(p[0])!r}, want 1/2")
        sigma = 1 if tag == "s" else -1
        amp = oracles.box_survival(t, sigma, x21, BOX_L, case["n_modes"], model)
        dev = np.max(np.abs(0.5 * np.abs(amp) ** 2 - p))
        chk.expect(op, dev < 1e-9, f"max |P1 - arrowhead oracle| = {dev:.1e}")
        p1[op] = (t, p)
        if 4.02 in case["profiles"]:
            lat = _read_csv(out / op / f"field_{tag}_t4.02.csv")
            col = _read_csv(out / op / f"field_{tag}_t4.02_collective.csv")
            between = (lat["x"] >= 0.25) & (lat["x"] <= x21 - 0.25)
            dev = (np.max(np.abs(lat["intensity"] - col["intensity"])[between])
                   / col["intensity"][between].max())
            chk.expect(op, dev <= 0.05,
                       f"field at 4.02 x21 differs from the collective field by {dev:.1%} of the peak")
    for op in ok_ops:
        case = inputs["cases"][op]
        if case["x21"] != X21_TRAP:
            continue
        t, p = p1[op]
        ratio = (p[np.argmin(np.abs(t - 7 * X21_TRAP))] / p[np.argmin(np.abs(t - 4 * X21_TRAP))])
        if case["initial"] == "a":
            chk.expect(op, ratio >= 0.99, f"P1(7x)/P1(4x) = {ratio:.4f} < 0.99 (trapped)")
        else:
            chk.expect(op, ratio <= 0.2, f"P1(7x)/P1(4x) = {ratio:.3e} > 0.2 (superradiant)")


def _check_spectral(inputs, out, results, ok_ops, chk):
    import oracles
    model = _oracle_model(inputs["params"])
    for op in ok_ops:
        if op == "contour":
            continue
        case = inputs["cases"][op]
        (k, rho), amps, a0 = results[op]
        chk.expect(op, np.all(np.diff(k) > 0) and np.all(np.isfinite(rho)) and np.all(rho >= 0),
                   "spectral grid not increasing or density not finite and non-negative")
        chk.expect(op, abs(a0 - 1.0) < 2e-5, f"sum rule |A(0) - 1| = {abs(a0 - 1.0):.2e} >= 2e-5")
        sigma = 1 if case["sector"] == "s" else -1
        times = case["times"]
        window = times <= 4 * case["x21"]
        box = oracles.box_survival(times[window], sigma, case["x21"], BOX_L,
                                   case["n_modes"], model)
        dev = np.max(np.abs(0.5 * np.abs(amps[window]) ** 2 - 0.5 * np.abs(box) ** 2))
        chk.expect(op, dev <= 5e-3, f"max |(1/2)|A|^2 - box oracle| on [0, 4 x21] = {dev:.2e}")
    if "contour" in ok_ops:
        cmap = _read_csv(out / "contour" / "contour_s.csv")
        res, ims = np.unique(cmap["re"]), np.unique(cmap["im"])
        vals = cmap["log_inv_abs_eta"].reshape(ims.size, res.size)
        chk.expect("contour", (res.size, ims.size) == (141, 51), f"contour grid {res.size}x{ims.size}")
        dx, dy = res[1] - res[0], ims[1] - ims[0]
        inner = vals[1:-1, 1:-1]
        peak = np.ones(inner.shape, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    peak &= inner > vals[1 + di:vals.shape[0] - 1 + di, 1 + dj:vals.shape[1] - 1 + dj]
        iy, ix = np.nonzero(peak)
        chk.expect("contour", iy.size >= 1, "no interior peak in the contour map")
        for a, b in zip(iy + 1, ix + 1):
            z_peak = complex(res[b], ims[a])
            try:
                z = _oracle_root(z_peak, 1, X21_FIG, model)
            except ArithmeticError as exc:
                chk.expect("contour", False, str(exc))
                continue
            chk.expect("contour", abs(z.real - z_peak.real) <= dx and abs(z.imag - z_peak.imag) <= dy,
                       f"contour peak {z_peak} is more than one cell from the pole {z}")
