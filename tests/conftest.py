import numpy as np
import pytest

from collective1d import (
    ModelParams,
    QuadratureSpec,
    build_lattice,
    continuum_weight_grid,
    find_pole,
    one_atom_pole,
    sweep_poles,
)

X21_FIG = 29.025     # the canonical two-atom separation of the figure runs
X21_TRAP = 12.7      # antisymmetric zero-decay neighbourhood


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def quad(params):
    return QuadratureSpec.for_params(params)


@pytest.fixture(scope="session")
def z1(params, quad):
    return one_atom_pole(params, quad)


@pytest.fixture(scope="session")
def zs29(params, quad, z1):
    return find_pole("s", X21_FIG, z1.value, params, quad)


@pytest.fixture(scope="session")
def za29(params, quad, z1):
    return find_pole("a", X21_FIG, z1.value, params, quad)


@pytest.fixture(scope="session")
def model_s29(params):
    """Reduced symmetric-sector lattice at the figure setup (L=500, 2501 modes)."""
    return build_lattice(params.with_x21(X21_FIG), 500.0, 2501, "s")


@pytest.fixture(scope="session")
def rho_grid_s29(params, quad):
    """Spectral density of the symmetric sector at x21=29.025, resolved for
    Fourier transforms up to t = 5*x21."""
    return continuum_weight_grid("s", X21_FIG, params, quad, t_max=5.0 * X21_FIG)


@pytest.fixture(scope="session")
def models_127(params):
    """Reduced lattices for both sectors at x21=12.7, L=250 (high resolution)."""
    p = params.with_x21(X21_TRAP)
    out = {}
    for tag in ("s", "a"):
        out[tag] = build_lattice(p, 250.0, 2501, tag)
    return out


@pytest.fixture(scope="session")
def sweep_records(params, quad):
    """The [5, 40] step-0.05 production sweep (shared by sweep + acceptance)."""
    grid = np.arange(5.0, 40.0 + 1e-9, 0.05)
    return sweep_poles(grid, params, quad)
