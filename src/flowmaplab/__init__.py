"""flowmaplab: a verification laboratory for Lagrangian fluid kinematics.

The library represents fluid motion as flow maps from particle labels to
positions and turns the classical identities of ideal-fluid theory into
computable residuals and invariants: density equations in both dependences,
label-space vorticity invariants, circulation and vorticity-flux theorems on
material loops and surfaces, curvilinear equations of motion, Clebsch
decompositions, direct vorticity-to-velocity reconstruction, and kinetic
energy ledgers. A catalog of exact solutions supplies the ground truth, and a
suite runner grades every check against stated tolerances with grid
convergence reporting.
"""

from .grids import (
    LabelGrid,
    ResidualSummary,
    StencilSpec,
    differentiate,
    divergence,
    gradient,
    point_jacobian,
    summarize_residual,
)
from .quadrature import path_integral
from .flowmap import (
    AnalyticFlowMap,
    FlowMap,
    SampledFlowMap,
    SingularMapError,
    cofactor_identity_residual,
    deformation_gradient,
    density_residual,
    det3,
    mass_integral_transform,
)
from .flows import (
    CatalogEntry,
    catalog_flow,
    catalog_names,
    integrate_trajectories,
)
from .dynamics import (
    ForcePotential,
    chain_rule_mismatch,
    eulerian_eom_residual,
    lagrangian_eom_residual,
)
from .cauchy import (
    VorticityField,
    cauchy_invariants,
    eulerian_vorticity,
    invariant_drift,
    solenoidality_residual,
    vortex_line_function_residual,
)
from .circulation import (
    MaterialLoop,
    MaterialSurface,
    circulation,
    kelvin_drift,
    label_circulation,
    stokes_residual,
    tube_section_flux,
    vorticity_flux,
)
from .curvilinear import (
    Chart,
    MetricCoefficients,
    cartesian_chart,
    chart_metrics,
    curvilinear_density_residual,
    curvilinear_eom_residual,
    curvilinear_lagrangian_eom_residual,
    cylindrical_chart,
    elliptical_chart,
    polar_chart,
    svanberg_invariant,
)
from .clebsch import (
    ClebschTriple,
    clebsch_advection_residual,
    clebsch_vorticity_residual,
    potential_flow_checks,
)
from .biotsavart import (
    VorticitySource,
    gaussian_swirl_blob,
    velocity_from_vorticity,
)
from .energy import (
    EnergyLedger,
    boundary_energy_identity,
    energy_flux_residual,
    living_force,
    momentum_integral,
)

__version__ = "0.1.0"
