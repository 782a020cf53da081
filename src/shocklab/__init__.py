"""shocklab: non-planar shock waves for multi-D scalar conservation laws.

Construct admissibility cones and two-valued steady shocks, evolve perturbed
shocks with monotone finite-volume schemes whose semigroup contracts are
testable, and run the stability / extinction / dispersion / support
experiments at desk scale.
"""

from .cones import (
    AdmissibleCone,
    DualCone,
    admissible_cone,
    cone_contains,
    dual_cone,
    dual_cone_from_flux,
    sector_cone,
)
from .experiments import (
    AbsorptionEstimate,
    Check,
    ExperimentReport,
    SupportHull,
    dispersion_experiment,
    dispersion_exponents,
    normalization_residual_study,
    overhead_experiment,
    predicted_absorption_time,
    smooth_burgers_solution,
    stability_experiment,
    support_experiment,
    support_hull,
)
from .fluxes import (
    Flux,
    Normalization,
    OleinikBatch,
    ShockPair,
    burgers_flux,
    burgers_normalization,
    check_nondegeneracy,
    make_shock_pair,
    oleinik_admissible,
    oleinik_admissible_many,
)
from .profiles import (
    PerturbationSpec,
    ShockProfile,
    bounded_intersection,
    extract_front,
    front_surgery,
    make_graph,
    make_planar,
    make_scaled_gauge,
    sandwich_bounds,
)
from .snapshots import read_snapshot, write_snapshot
from .solver import (
    Background,
    Field,
    Grid,
    SchemeConfig,
    constant_background,
    l1_distance,
    profile_background,
    run,
    sample_function,
    sample_profile,
    step,
)

__version__ = "0.1.0"
