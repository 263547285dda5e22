"""Spectral-Galerkin laboratory for third-order-in-time nonlinear acoustics.

The package solves the third-order JMGT model, its linearization with a
prescribed coefficient, and the second-order Westervelt limit on an interval
with Neumann and absorbing boundary conditions, and audits the energy
estimates, fixed-point contraction, and the vanishing-relaxation-time limit.
"""

from .assembly import (
    CoefficientField,
    HarmonicLift,
    TimeVaryingMass,
    assemble_boundary,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    clamp_h,
    constant_field,
    field_from_trajectory,
    harmonic_extension,
    lift_forcing,
)
from .basis import (
    End,
    QuadratureRule,
    SpectralBasis,
    build_basis,
    build_quadrature,
    mode_matrix,
    project,
    trace_vector,
)
from .energy import (
    AuditMode,
    AuditReport,
    BoundaryFlux,
    DataNorms,
    HigherEnergy,
    LowerEnergy,
    audit_estimate,
    boundary_flux,
    data_norms,
    energy_higher,
    energy_lower,
)
from .exceptions import (
    CompatibilityError,
    ConfigFileError,
    InconsistentEnergyError,
    InvalidParameters,
    JmgtLabError,
    NonDegeneracyViolated,
    NonFiniteNormError,
    PicardDivergenceError,
    SingularStepMatrixError,
    SolverFailure,
    UnsupportedOrderError,
)
from .integrate import (
    Trajectory,
    ode_residual_z,
    recover_third,
    solve_smgt_linear,
    solve_westervelt_linearized,
)
from .model import (
    MAX_SIGNAL_ORDER,
    BoundaryKind,
    ModelParams,
    SolverConfig,
    WindowedSignal,
    signal_eval,
    validate_compatibility,
)
from .nonlinear import (
    NonlinearVariant,
    PicardReport,
    solve_jmgt,
    solve_westervelt_nonlinear,
    trajectory_distance,
)

__version__ = "0.1.0"
