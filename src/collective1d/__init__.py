"""Two two-level emitters coupled to a one-dimensional field: complex-pole
spectroscopy of the collective states, exact finite-box dynamics, the bounce
expansion of the survival amplitude, distance sweeps for sub/super-radiance,
and the two-cavity waveguide trap condition.
"""
from .core import (
    ANTISYMMETRIC,
    SYMMETRIC,
    CollectiveError,
    ConfigError,
    ModelParams,
    SolverError,
    SymmetrySector,
    instability_margin,
    params_from_json,
    params_to_dict,
    stability_class,
    validate,
)
from .quadrature import (
    ContinuationDomainError,
    QuadratureError,
    QuadratureSpec,
    fourier_halfline,
    halfline_integral,
)
from .greens import (
    ComplexEnergy,
    ContourMap,
    ConvergenceError,
    FormFactorPoleError,
    OverflowGuardError,
    WrongBranchError,
    contour_map,
    continuum_weight,
    continuum_weight_grid,
    eta_plus,
    eta_plus_derivative,
    find_pole,
    form_factor_sq,
    one_atom_pole,
    pole_scan,
    weak_coupling_estimate,
)
from .dynamics import (
    FieldProfile,
    LatticeModel,
    TimeSeries,
    build_lattice,
    collective_field,
    collective_survival,
    evolve,
    field_intensity,
    survival_probability,
)
from .bounces import (
    BounceDecomposition,
    Jet,
    ResummationError,
    amplitude_quadrature,
    bounce_sum,
    bounce_term,
    delta_k,
    eta_s1,
    find_zs1,
    resummed,
)
from .sweep import (
    PairRelationReport,
    SweepRecord,
    ZeroDecaySolution,
    angular_factor,
    force_indicator,
    pair_relation_check,
    stable_points,
    subradiance_roots,
    sweep_poles,
    zero_decay_solve,
)
from .waveguide import (
    TrapSolution,
    WaveguideParams,
    cavity_energy,
    collective_pole_wg,
    existence_check,
    lead_energy,
    solve_trap,
    trap_distance,
)

__version__ = "0.1.0"
