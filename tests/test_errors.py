"""The error taxonomy: every deliberate raise in the package is a
CollectiveError, either a ConfigError (bad input, exit 1) or a SolverError
(a solve that did not converge, exit 2), and the CLI maps exactly those two
branches to exit codes."""
import ast
import builtins
import importlib
import typing
from pathlib import Path

import numpy as np
import pytest

import collective1d
from collective1d import (
    CollectiveError,
    ConfigError,
    ModelParams,
    SolverError,
    WaveguideParams,
    solve_trap,
    zero_decay_solve,
)
from collective1d import waveguide as wg
from collective1d.bounces import Jet
from collective1d.cli import main

PACKAGE = Path(collective1d.__file__).resolve().parent


def _resolve(module, node):
    """The object a Name or dotted Attribute expression names in module."""
    if isinstance(node, ast.Name):
        return getattr(module, node.id) if hasattr(module, node.id) else getattr(builtins, node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(module, node.value), node.attr)
    raise AssertionError(f"cannot resolve {ast.dump(node)}")


def _is_collective(module, node) -> bool:
    obj = _resolve(module, node)
    if not isinstance(obj, type):       # a factory: judge it by its return annotation
        obj = typing.get_type_hints(obj)["return"]
    return issubclass(obj, CollectiveError)


def _reraises(module, name: str, ancestors) -> bool:
    """raise <name> re-raises a caught exception (except ... as name) or one
    an enclosing isinstance(name, <CollectiveError subclass>) test selects."""
    for node in ancestors:
        if isinstance(node, ast.ExceptHandler) and node.name == name:
            return True
        test = getattr(node, "test", None) if isinstance(node, ast.If) else None
        if (isinstance(test, ast.Call) and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance" and isinstance(test.args[0], ast.Name)
                and test.args[0].id == name and _is_collective(module, test.args[1])):
            return True
    return False


def _raises(path: Path):
    """(Raise node, its ancestors innermost first) for every raise."""
    def walk(node, ancestors):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                yield child, ancestors
            yield from walk(child, [child] + ancestors)

    yield from walk(ast.parse(path.read_text()), [])


def test_every_raise_is_a_collective_error():
    offenders = []
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "collective1d" if path.stem == "__init__" else f"collective1d.{path.stem}"
        module = importlib.import_module(name)
        for node, ancestors in _raises(path):
            checked += 1
            exc = node.exc
            if exc is None:
                ok = True
            elif isinstance(exc, ast.Call):
                ok = _is_collective(module, exc.func)
            elif isinstance(exc, ast.Name):
                ok = _reraises(module, exc.id, ancestors)
            else:
                ok = False
            if not ok:
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert checked > 50
    assert offenders == []


def test_cli_main_handles_exactly_the_two_branches():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [ast.unparse(node.type) for node in ast.walk(main_def)
                if isinstance(node, ast.ExceptHandler)]
    assert handlers == ["ConfigError", "SolverError"]


def test_core_imports_no_quadrature():
    tree = ast.parse((PACKAGE / "core.py").read_text())
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert not any("quadrature" in name for name in imported)


def test_branches_keep_their_builtin_bases():
    assert issubclass(ConfigError, ValueError) and issubclass(SolverError, RuntimeError)
    for leaf in ("ContinuationDomainError", "FormFactorPoleError"):
        assert issubclass(getattr(collective1d, leaf), ConfigError)
    for leaf in ("ConvergenceError", "WrongBranchError", "OverflowGuardError",
                 "ResummationError", "QuadratureError"):
        assert issubclass(getattr(collective1d, leaf), SolverError)
    from collective1d.greens import EstimateDivergence
    assert issubclass(EstimateDivergence, SolverError)


# --------------------------------------------- failures on the right branch

def test_zero_decay_in_the_stable_regime_is_a_config_error():
    with pytest.raises(ConfigError, match="unstable regime"):
        zero_decay_solve("s", 1, ModelParams(lam=0.8))   # margin 2 - 0.4 pi*5 < 0


def test_jet_reciprocal_at_a_zero_is_a_solver_error():
    with pytest.raises(SolverError, match="reciprocal at a zero"):
        Jet.variable(0.0, 3).reciprocal()


def test_trap_leaving_the_window_is_a_solver_error(monkeypatch, tmp_path, capsys):
    # a channel sum of +10 keeps the existence margin positive but drives the
    # trap map far above the closed-channel threshold E_02 = 4
    monkeypatch.setattr(wg, "_channel_sum", lambda *args: 10.0)
    with pytest.raises(SolverError, match="left the single-channel window"):
        solve_trap(WaveguideParams(), 1, "s")
    assert main(["waveguide", "--out", str(tmp_path)]) == 2
    assert "solver error" in capsys.readouterr().err


def test_pole_beyond_a_closed_channel_is_a_solver_error():
    with pytest.raises(SolverError, match="closed-channel threshold"):
        wg._eta_wg(complex(4.5, -0.01), WaveguideParams(), 1, 1.0)


@pytest.mark.parametrize("n", [1.5, True, 2.0])
def test_non_integer_n_is_a_config_error(n):
    """n counts half-wavelengths between the emitters: a float or a bool would
    pass the parity rule and return a distance where neither
    1 + sigma cos(k0 x21) nor gamma vanishes."""
    with pytest.raises(ConfigError, match="zero-decay n must be an integer"):
        zero_decay_solve("a", n, ModelParams())
    with pytest.raises(ConfigError, match="trap n must be an integer"):
        wg.trap_distance(2.3, n, "s", 1.0)
    with pytest.raises(ConfigError, match="trap n must be an integer"):
        solve_trap(WaveguideParams(), n, "s")


@pytest.mark.parametrize("sector, x21, message", [
    (None, 1.0, "needs a two-cavity sector"),
    ("s", np.nan, "waveguide x21 must be finite"),
    ("s", np.inf, "waveguide x21 must be finite"),
    ("s", 0.0, "waveguide x21 must be positive"),
], ids=["no-sector", "nan", "inf", "zero"])
def test_waveguide_pole_checks_sector_and_distance(sector, x21, message):
    with pytest.raises(ConfigError, match=message):
        wg.collective_pole_wg(WaveguideParams(), sector, x21)


@pytest.mark.parametrize("n, sector", [(0, "a"), (-1, "s")])
def test_trap_distance_needs_a_positive_n(n, sector):
    with pytest.raises(ConfigError, match="trap n must be >= 1"):
        wg.trap_distance(2.3, n, sector, 1.0)


@pytest.mark.parametrize("field, value", [
    ("D", 0.0), ("W", 0.0), ("k_c", 0.0), ("D", -1.0), ("W", np.inf), ("g0", np.nan),
    ("channel_decay", None), ("D", True), ("l_max", 10.0),
])
def test_waveguide_geometry_and_coupling_are_checked(field, value):
    with pytest.raises(ConfigError, match=f"waveguide {field} must be"):
        WaveguideParams(**{field: value}).validate()


def test_unwritable_output_directory_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["waveguide", "--out", str(blocker / "sub")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: cannot create output directory")
