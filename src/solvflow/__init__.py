"""Bracket flows, curvature, and soliton detection for solvable metric
Lie algebras with a codimension-one abelian ideal.

The whole geometry is encoded by one real matrix A (the action of the
transversal generator on the ideal); the package integrates the matrix
flows that drive the metric evolution, computes curvature both from A and
from raw structure constants, detects algebraic solitons by two
independent routes, and reproduces the worked 2x2 phase plane and the
4-dimensional negative-curvature family end to end.
"""

from .matcore import (
    MatrixClass,
    as_matrix,
    classify_matrix,
    commutator,
    eigenvalues,
    frob_inner,
    frob_norm,
    skew_part,
    spectrum_distance,
    sym_part,
)
from .flow import (
    BridgeReport,
    Diagnostics,
    FlowKind,
    FlowSpec,
    PullbackPath,
    Terminal,
    Trajectory,
    bracket_rhs,
    cointegrate_pullback,
    gradient_rhs,
    integrate,
    normalized_rhs,
    reparam_bridge,
    settle,
)
from .geometry import (
    CurvatureReport,
    HeintzeVerdict,
    MetricLieAlgebra,
    Type3Report,
    admits_negative_curvature,
    build_curvature_report,
    derivation_defect,
    heintze_check,
    mu_of_a,
    ricci_block,
    ricci_general,
    riem_norm,
    riemann_tensor,
    sample_sectional,
    scalar_curvature,
    sectional_curvature,
    type3_monitor,
)
from .soliton import (
    NILPOTENT_SOLITON,
    NORMAL_SOLITON,
    NOT_SOLITON,
    F,
    OmegaLimitReport,
    SolitonVerdict,
    certify_algebraic_soliton,
    classify_soliton,
    closed_form_soliton,
    derivation_basis,
    monitor_suite,
    omega_limit,
)
from .casebook import (
    AtlasRow,
    CurvatureWatch,
    EjsolState,
    Phase2DPoint,
    c_lambda,
    curvature_watch,
    default_phase_grid,
    ejsol_algebra,
    ejsol_curvature_crossing,
    ejsol_exact,
    ejsol_initial,
    ejsol_k13,
    phase2d_rhs,
    phase2d_sweep,
    soliton_alpha,
)
from .validate import ValidationCheck, ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "MatrixClass", "as_matrix", "classify_matrix", "commutator",
    "eigenvalues", "frob_inner", "frob_norm", "skew_part",
    "spectrum_distance", "sym_part",
    "BridgeReport", "Diagnostics", "FlowKind", "FlowSpec", "PullbackPath",
    "Terminal", "Trajectory", "bracket_rhs", "cointegrate_pullback",
    "gradient_rhs", "integrate", "normalized_rhs", "reparam_bridge", "settle",
    "CurvatureReport", "HeintzeVerdict", "MetricLieAlgebra", "Type3Report",
    "admits_negative_curvature", "build_curvature_report",
    "derivation_defect", "heintze_check", "mu_of_a", "ricci_block",
    "ricci_general", "riem_norm", "riemann_tensor", "sample_sectional",
    "scalar_curvature", "sectional_curvature", "type3_monitor",
    "NILPOTENT_SOLITON", "NORMAL_SOLITON", "NOT_SOLITON", "F",
    "OmegaLimitReport", "SolitonVerdict", "certify_algebraic_soliton",
    "classify_soliton", "closed_form_soliton", "derivation_basis",
    "monitor_suite", "omega_limit",
    "AtlasRow", "CurvatureWatch", "EjsolState", "Phase2DPoint", "c_lambda",
    "curvature_watch", "default_phase_grid", "ejsol_algebra",
    "ejsol_curvature_crossing", "ejsol_exact", "ejsol_initial", "ejsol_k13",
    "phase2d_rhs", "phase2d_sweep", "soliton_alpha",
    "ValidationCheck", "ValidationReport", "run_validation",
]
