import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from collective1d import (
    ConfigError,
    ModelParams,
    instability_margin,
    params_from_json,
    params_to_dict,
    stability_class,
    validate,
)
from collective1d.quadrature import QuadratureSpec, halfline_integral


def closed_form_margin(p: ModelParams) -> float:
    # int_0^inf dk / (1 + (k/omegaM)^2)^2 = pi * omegaM / 4 for n_ff = 1
    return p.omega1 - 2.0 * p.lam**2 * np.pi * p.omegaM / 4.0


def test_default_parameters_validate(params):
    assert validate(params) is params
    assert validate(params, two_atom=True) is params


def test_zero_coupling_rejected():
    with pytest.raises(ConfigError, match="coupling must be positive"):
        validate(ModelParams(lam=0.0))


def test_coincident_atoms_rejected_for_two_atom_calls():
    p = ModelParams(x1=3.0, x2=3.0)
    validate(p)  # fine as a one-atom parameter set
    with pytest.raises(ConfigError, match="coincident atoms"):
        validate(p, two_atom=True)


def test_validate_is_idempotent(params):
    assert validate(validate(params)) is params


def test_invalid_fields_named():
    with pytest.raises(ConfigError, match="omegaM"):
        validate(ModelParams(omegaM=-1.0))
    with pytest.raises(ConfigError, match="omega1"):
        validate(ModelParams(omega1=0.0))
    with pytest.raises(ConfigError, match="n_ff"):
        validate(ModelParams(n_ff=0))
    with pytest.raises(ConfigError, match="lam must be finite"):
        validate(ModelParams(lam=float("inf")))
    with pytest.raises(ConfigError, match="n_ff"):
        params_from_json({"n_ff": 1.5})      # rejected, not truncated


@pytest.mark.parametrize("n_ff", [1, 2, 3])
def test_instability_margin_matches_the_adaptive_integral(n_ff):
    """The closed-form level shift equals the adaptive half-line integral."""
    p = ModelParams(n_ff=n_ff)
    shift = halfline_integral(lambda k: (1.0 + (k / p.omegaM) ** 2) ** (-2 * n_ff),
                              QuadratureSpec.for_params(p))
    assert instability_margin(p) == pytest.approx(p.omega1 - 2.0 * p.lam**2 * shift,
                                                  rel=1e-14, abs=0.0)


@pytest.mark.parametrize("doc, field", [
    ({"omega1": True}, "omega1"),
    ({"omega1": "abc"}, "omega1"),
    ({"lambda": None}, "lambda"),
    ({"omegaM": float("nan")}, "omegaM"),
    ({"x2": 10**400}, "x2"),
    ({"n_ff": True}, "n_ff"),
    ({"n_ff": 2.0}, "n_ff"),
    ({"n_ff": "2"}, "n_ff"),
    ({"n_ff": 10**400}, "n_ff"),
])
def test_params_from_json_names_a_non_number(doc, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        params_from_json(doc)


def test_validate_rejects_bools_and_non_numbers():
    with pytest.raises(ConfigError, match="omega1 must be finite"):
        validate(ModelParams(omega1=True))
    with pytest.raises(ConfigError, match="x1 must be finite"):
        validate(ModelParams(x1="0"))
    with pytest.raises(ConfigError, match="n_ff must be an integer"):
        validate(ModelParams(n_ff=True))


def test_params_from_json_needs_an_object(tmp_path):
    path = tmp_path / "params.json"
    for text in ("[1]", "null", "2.0"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="JSON object"):
            params_from_json(path)


def test_instability_margin_matches_closed_form(params):
    margin = instability_margin(params)
    assert margin == pytest.approx(closed_form_margin(params), abs=1e-10)
    assert margin > 0  # decaying regime at the defaults


def test_margin_free_limit():
    p = ModelParams(lam=1e-9)
    assert instability_margin(p) == pytest.approx(p.omega1, abs=1e-15)


def test_marginal_threshold_flagged():
    # omega1 tuned to the threshold 2 lam^2 pi omegaM / 4 exactly
    lam, omegaM = 0.3, 5.0
    p = ModelParams(omega1=2.0 * lam**2 * np.pi * omegaM / 4.0, lam=lam, omegaM=omegaM)
    assert stability_class(p, tol=1e-8) == "marginal"


def test_margin_monotonic_in_lambda_and_omega1():
    lams = [0.02, 0.05, 0.08, 0.12]
    margins = [instability_margin(ModelParams(lam=la)) for la in lams]
    assert all(a > b for a, b in zip(margins, margins[1:]))
    oms = [1.0, 1.5, 2.0, 3.0]
    margins = [instability_margin(ModelParams(omega1=om)) for om in oms]
    assert all(a < b for a, b in zip(margins, margins[1:]))


def test_json_round_trip(params, tmp_path):
    doc = params_to_dict(params)
    assert set(doc) == {"omega1", "lambda", "omegaM", "n_ff", "x1", "x2"}
    again = params_from_json(doc)
    assert again == params
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert params_from_json(path) == params


def test_json_partial_and_unknown_keys():
    p = params_from_json({"lambda": 0.1})
    assert p.lam == 0.1 and p.omega1 == 2.0
    with pytest.raises(ConfigError, match="unknown"):
        params_from_json({"coupling": 0.1})


def test_x21_helpers():
    p = ModelParams(x1=1.0, x2=4.0)
    assert p.x21 == 3.0
    assert p.with_x21(7.5).x21 == pytest.approx(7.5)


def test_import_loads_numpy_only():
    """A fresh `import collective1d` loads no scipy module: numpy is the only
    runtime dependency."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, collective1d; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_no_module_reads_the_environment():
    """Every option is a config key or an argument: no module under src/
    reads os.environ or os.getenv."""
    src = Path(__file__).resolve().parents[1] / "src"
    modules = sorted(src.rglob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name
