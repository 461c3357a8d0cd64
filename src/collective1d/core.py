"""Model parameters, symmetry sectors and the one-atom instability criterion.

Units: c = hbar = 1 throughout. Energies and momenta share one unit; lengths
and times share its inverse.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = [
    "CollectiveError",
    "ConfigError",
    "SolverError",
    "finite_real",
    "finite_integer",
    "ModelParams",
    "SymmetrySector",
    "SYMMETRIC",
    "ANTISYMMETRIC",
    "as_sector",
    "validate",
    "instability_margin",
    "stability_class",
    "params_from_json",
    "params_to_dict",
]


class CollectiveError(Exception):
    """Root of every error this package raises on purpose."""


class ConfigError(CollectiveError, ValueError):
    """A bad model, geometry or configuration value; the message names it."""


class SolverError(CollectiveError, RuntimeError):
    """A pole, trap, secular or quadrature solve failed to converge."""


def finite_real(value, name: str) -> float:
    """value as a float if it is a finite int or float (not a bool); else a ConfigError."""
    # abs(v) <= max also rejects nan, +-inf and integers beyond float range
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"{name} must be finite and real, got {value!r}")


def finite_integer(value, name: str, minimum: int | None = None) -> int:
    """value if it is an int (not a bool) within float range and at least
    minimum; else, an integral float included, a ConfigError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, int) or abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class SymmetrySector:
    """Two-atom exchange sector: sigma=+1 symmetric, sigma=-1 antisymmetric."""

    tag: str
    sigma: int

    def __post_init__(self):
        if (self.tag, self.sigma) not in (("symmetric", 1), ("antisymmetric", -1)):
            raise ConfigError(f"inconsistent sector ({self.tag}, {self.sigma})")


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
    raise ConfigError(f"unknown sector {obj!r}")


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
    """Return params unchanged if all invariants hold; raise ConfigError otherwise.

    The coincident-atom check only applies when a two-atom quantity is about
    to be computed, so it is gated behind ``two_atom``.
    """
    for name in ("omega1", "lam", "omegaM", "x1", "x2"):
        finite_real(getattr(params, name), name)
    if not 0 < params.lam <= 1e150:     # lambda^2 and omegaM^2 must be normal doubles
        raise ConfigError(f"coupling must be positive and at most 1e150, got lambda = {params.lam!r}")
    if not 1e-150 <= params.omegaM <= 1e150:
        raise ConfigError(f"cutoff omegaM must lie in [1e-150, 1e150], got {params.omegaM!r}")
    if not params.omega1 > 0:
        raise ConfigError("excited-level energy omega1 must be positive")
    finite_integer(params.n_ff, "form-factor exponent n_ff", 1)
    if two_atom and not params.x21 > 0:
        raise ConfigError("coincident atoms: |x2 - x1| must be positive for two-atom computations")
    return params


def instability_margin(params: ModelParams) -> float:
    """omega1 minus twice the level-shift integral int_0^inf lam^2 v_k^2 / k dk.

    Positive margin means the bare excited state decays, the regime assumed
    by every other operation in this package. In closed form (pi omegaM / 4
    for n = 1): int_0^inf (1 + k^2/omegaM^2)^(-2n) dk = omegaM sqrt(pi) G(2n - 1/2) / (2 G(2n)).
    """
    validate(params)
    two_n = 2 * params.n_ff
    integral = (params.omegaM * math.sqrt(math.pi) / 2.0
                * math.exp(math.lgamma(two_n - 0.5) - math.lgamma(two_n)))
    return params.omega1 - 2.0 * params.lam**2 * integral


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
        if not isinstance(doc, dict):
            raise ConfigError(f"parameters must be a JSON object, not a {type(doc).__name__}")
    unknown = set(doc) - set(_JSON_KEYS)
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    kwargs = {}
    for key in _JSON_KEYS:
        if key in doc:
            value = finite_integer(doc[key], key) if key == "n_ff" else finite_real(doc[key], key)
            kwargs["lam" if key == "lambda" else key] = value
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
