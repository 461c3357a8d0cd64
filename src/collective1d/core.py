"""Model parameters, symmetry sectors and the one-atom instability criterion.

Units: c = hbar = 1 throughout. Energies and momenta share one unit; lengths
and times share its inverse.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = [
    "ModelParams",
    "SymmetrySector",
    "SYMMETRIC",
    "ANTISYMMETRIC",
    "ModelError",
    "as_sector",
    "validate",
    "instability_margin",
    "stability_class",
    "params_from_json",
    "params_to_dict",
]


class ModelError(ValueError):
    """A model-parameter invariant is violated; the message names it."""


@dataclass(frozen=True)
class SymmetrySector:
    """Two-atom exchange sector: sigma=+1 symmetric, sigma=-1 antisymmetric."""

    tag: str
    sigma: int

    def __post_init__(self):
        if (self.tag, self.sigma) not in (("symmetric", 1), ("antisymmetric", -1)):
            raise ModelError(f"inconsistent sector ({self.tag}, {self.sigma})")


SYMMETRIC = SymmetrySector("symmetric", +1)
ANTISYMMETRIC = SymmetrySector("antisymmetric", -1)


def as_sector(obj) -> SymmetrySector | None:
    """Normalize a sector spelling ('s', 'a', 'one-atom', None, instances)."""
    if obj is None or obj == "one-atom":
        return None
    if isinstance(obj, SymmetrySector):
        return obj
    key = str(obj).lower()
    if key in ("s", "sym", "symmetric", "+1", "1"):
        return SYMMETRIC
    if key in ("a", "anti", "antisymmetric", "-1"):
        return ANTISYMMETRIC
    raise ValueError(f"unknown sector {obj!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the emitter-field system.

    omega1  : bare energy of the excited level
    lam     : dimensionless coupling strength
    omegaM  : form-factor cutoff; 1/omegaM sets the interaction range
    n_ff    : form-factor exponent (integer >= 1)
    x1, x2  : emitter positions
    """

    omega1: float = 2.0
    lam: float = 0.05
    omegaM: float = 5.0
    n_ff: int = 1
    x1: float = 0.0
    x2: float = 1.0

    @property
    def x21(self) -> float:
        return abs(self.x2 - self.x1)

    def with_x21(self, x21: float) -> "ModelParams":
        """Same physics at emitter separation x21 (first atom kept at x1)."""
        return replace(self, x2=self.x1 + x21)


def validate(params: ModelParams, two_atom: bool = False) -> ModelParams:
    """Return params unchanged if all invariants hold; raise ModelError otherwise.

    The coincident-atom check only applies when a two-atom quantity is about
    to be computed, so it is gated behind ``two_atom``.
    """
    for name in ("omega1", "lam", "omegaM", "x1", "x2"):
        if not math.isfinite(getattr(params, name)):
            raise ModelError(f"{name} must be finite")
    if not params.lam > 0:
        raise ModelError("coupling must be positive")
    if not params.omegaM > 0:
        raise ModelError("cutoff omegaM must be positive")
    if not params.omega1 > 0:
        raise ModelError("excited-level energy omega1 must be positive")
    if not (isinstance(params.n_ff, int) and params.n_ff >= 1):
        raise ModelError("form-factor exponent n_ff must be an integer >= 1")
    if two_atom and not params.x21 > 0:
        raise ModelError("coincident atoms: |x2 - x1| must be positive for two-atom computations")
    return params


def instability_margin(params: ModelParams) -> float:
    """omega1 minus twice the level-shift integral int_0^inf lam^2 v_k^2 / k dk.

    Positive margin means the bare excited state decays, the regime assumed
    by every other operation in this package.
    """
    validate(params)
    from .quadrature import QuadratureSpec, halfline_integral

    quad = QuadratureSpec.for_params(params)

    def integrand(k):
        return 1.0 / (1.0 + (k / params.omegaM) ** 2) ** (2 * params.n_ff)

    shift = 2.0 * params.lam**2 * halfline_integral(integrand, quad)
    return params.omega1 - shift


def stability_class(params: ModelParams, tol: float = 1e-12) -> str:
    """'unstable' (decaying, the assumed regime), 'stable', or 'marginal'."""
    margin = instability_margin(params)
    if abs(margin) <= tol * max(1.0, params.omega1):
        return "marginal"
    return "unstable" if margin > 0 else "stable"


_JSON_KEYS = ("omega1", "lambda", "omegaM", "n_ff", "x1", "x2")


def params_from_json(source: str | Path | dict) -> ModelParams:
    """Load parameters from a flat JSON document (or an already-parsed dict).

    Keys: omega1, lambda, omegaM, n_ff, x1, x2. Missing keys fall back to the
    defaults; unknown keys are rejected.
    """
    if isinstance(source, dict):
        doc = dict(source)
    else:
        text = Path(source).read_text() if isinstance(source, Path) or not source.lstrip().startswith("{") else source
        doc = json.loads(text)
    unknown = set(doc) - set(_JSON_KEYS)
    if unknown:
        raise ModelError(f"unknown parameter keys: {sorted(unknown)}")
    kwargs = {}
    for key in _JSON_KEYS:
        if key in doc:
            kwargs["lam" if key == "lambda" else key] = doc[key]
    return validate(ModelParams(**kwargs))


def params_to_dict(params: ModelParams) -> dict:
    """Inverse of params_from_json (JSON-ready dict with the documented keys)."""
    return {
        "omega1": params.omega1,
        "lambda": params.lam,
        "omegaM": params.omegaM,
        "n_ff": params.n_ff,
        "x1": params.x1,
        "x2": params.x2,
    }
