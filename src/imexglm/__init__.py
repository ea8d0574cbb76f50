"""IMEX general linear methods of DIMSIM type: tableaus, stepping,
stability analysis, and 2D method-of-lines benchmarks."""

from .tableau import (
    DistinctNodesError,
    GlmTableau,
    ImexGlmMethod,
    MethodFileError,
    MethodValidationReport,
    additive_rk_pair,
    dimsim_b_matrix,
    imex_dimsim,
    load_method,
    nodal_polynomials,
    save_method,
    starting_weight_matrix,
    validate_method,
)
from .methods import (
    BUILTIN_METHODS,
    builtin_imex_dimsim4,
    builtin_imex_dimsim5,
    builtin_imex_euler,
    bundled_ark_path,
    load_ark_method,
    resolve_method,
)
from .integrator import (
    ExternalState,
    IntegrationError,
    IntegrationResult,
    SemiDiscreteProblem,
    StageSolveError,
    StartingConfig,
    ark_step,
    derivative_weights,
    glm_step,
    imex_euler_ark,
    initialize_external,
    integrate,
    rescaling_matrix,
)
from .stability import (
    RegionBoundary,
    SingularStabilityError,
    StabilityQuery,
    boundary_intersection,
    check_L_stability,
    check_irks,
    constrained_region_area,
    glm_stability_matrix,
    imex_stability_matrix,
    max_rho_over_stiff_grid,
    optimize_explicit_component,
    region_boundary_points,
    spectral_radius,
)
from .problems import (
    Grid2D,
    PdeBenchmark,
    ReferenceFailureError,
    allen_cahn_benchmark,
    allen_cahn_problem,
    burgers_benchmark,
    burgers_problem,
    dahlquist_split_problem,
    error_field,
    l2_error,
    reference_solution,
    write_field_csv,
)
from .harness import (
    StudySpec,
    emit_stability,
    run_convergence,
    run_workprecision,
)

__version__ = "0.1.0"
