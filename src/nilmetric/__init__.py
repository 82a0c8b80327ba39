"""Curvature invariants, minimality certificates, flows and descent for
left-invariant metrics on nilpotent Lie groups."""

__version__ = "0.1.0"

from .algebra_core import (
    Bracket,
    Metric,
    SkewTensor,
    act,
    coboundary,
    coboundary_matrix,
    derivation_basis,
    inner,
    jacobi_residual,
    lower_central_dims,
    symmetric_derivation_basis,
)
from .catalog import (
    FamilyPoint,
    catalog_get,
    catalog_list,
    complex_curve,
    ellipse_points,
    heisenberg,
    hc_g3_point,
    hypercomplex_ambient,
    hypercomplex_family,
    m26_point,
    standard_structure,
    surface_points,
    symplectic_family,
)
from .curvature import (
    CurvatureReport,
    curvature_report,
    functional_F,
    invariant_ricci,
    moment_map,
    ricci_operator,
    scalar_curvature,
)
from .defaults import certification_tolerance
from .errors import (
    DimensionMismatch,
    DimensionParity,
    FamilyConstraint,
    IncompatibleMetric,
    InvalidBracket,
    InvalidStructure,
    NilmetricError,
    NotCertifiedError,
    NotClosed,
    NotNilpotent,
    NotPositiveDefinite,
    ParseError,
    SingularMap,
    SplitMismatch,
    StepCollapse,
    WrongTag,
    ZeroTensor,
)
from .flows import (
    FlowConfig,
    FlowTrace,
    SolitonReport,
    bracket_descent,
    metric_flow,
    soliton_selfsimilarity_check,
)
from .minimality import (
    Certificate,
    Fingerprint,
    ObstructionReport,
    certify_minimal,
    distinguish,
    fingerprint,
    hermitian_obstruction,
)
from .problemfile import (
    ProblemFile,
    export_problem,
    load_problem,
    parse_problem,
    point_to_problem,
)
from .structures import (
    Structure,
    StructureAlgebra,
    abelian_residual,
    compatibility_residual,
    complex_structure,
    hypercomplex_structure,
    integrability_residual,
    integrable_subspace_dim,
    invariant_projection,
    metric_jmap,
    no_structure,
    structure_algebra,
    symplectic_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
