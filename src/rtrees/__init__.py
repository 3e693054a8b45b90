"""Exact-arithmetic toolkit for finitely spanned pointed real trees.

Skeletons with rational edge lengths induce pointed real trees of bounded
radius; this package provides their geodesic geometry, additive-metric
realization, formula evaluation, amalgamation, type calculus, forking
independence and model-family generators, everything over exact rationals.
"""

from .rationals import Rat, as_rat, format_rat
from .skeleton import (
    EdgePoint,
    Materialization,
    PointRef,
    SkeletonError,
    TreeSkeleton,
    UnknownPointError,
    ValidationReport,
    Vertex,
    canonicalize,
    distance,
    format_point,
    materialize,
    normalize_point,
    point_on_edge,
    point_on_segment,
    validate,
)
from .geometry import (
    SpannedSubtree,
    dist_to_center_ball,
    endpoints,
    gromov_product,
    interpolate,
    is_between,
    median,
    piecewise_segment_check,
    project_to_subtree,
    spanned_subtree,
)
from .matrices import (
    FourPointViolation,
    FourPointWitness,
    MetricMatrix,
    delta_hyperbolicity,
    four_point_check,
    realize_tree,
    tree_to_matrix,
)
from .formulas import (
    CertifiedValue,
    FormulaSyntaxError,
    RtAxiomsReport,
    check_rt_axioms,
    eval_qf,
    eval_quantified,
    free_vars,
    lipschitz_bound,
    parse_formula,
)
from .deficiency import psi_at, psi_grid_oracle, rb_deficiency
from .amalgams import (
    GlueSpec,
    MalformedSpecError,
    NotIsometricError,
    RadiusExceededError,
    SubtreeMap,
    amalgamate,
    glue_family,
    star_amalgam,
)
from .typespace import (
    ContextMismatchError,
    InconsistentDescriptorError,
    NTypeDescriptor,
    OneTypeDescriptor,
    apply_context_isometry,
    combined_matrix,
    dcl_acl,
    is_principal,
    one_type_distance,
    realize_type,
    same_context,
    transfer_point,
    type_distance_exact,
    type_distance_search,
    type_of,
    types_equal,
    types_equal_transferred,
    validate_descriptor,
)
from .independence import (
    IndependenceQuery,
    IndependenceVerdict,
    canonical_base,
    extend_nonforking,
    is_nonforking_extension,
    is_star_independent,
    restrict_descriptor,
)
from .generators import (
    GeneratorConfig,
    StepFunction,
    au_distance,
    au_sample_ball,
    branch_degree_multiset,
    build_primitive,
    caterpillar,
    degree_family_tree,
    k_star,
    random_point,
    random_tree,
    rb_extend,
    segment,
    tripod,
)

__all__ = [
    "CertifiedValue", "ContextMismatchError", "EdgePoint", "FormulaSyntaxError",
    "FourPointViolation", "FourPointWitness", "GeneratorConfig", "GlueSpec",
    "InconsistentDescriptorError", "IndependenceQuery", "IndependenceVerdict",
    "MalformedSpecError", "Materialization", "MetricMatrix", "NTypeDescriptor",
    "NotIsometricError", "OneTypeDescriptor", "PointRef", "RadiusExceededError",
    "Rat", "RtAxiomsReport", "SkeletonError", "SpannedSubtree", "StepFunction",
    "SubtreeMap", "TreeSkeleton", "UnknownPointError", "ValidationReport", "Vertex",
    "amalgamate", "apply_context_isometry", "as_rat", "au_distance",
    "au_sample_ball", "branch_degree_multiset", "build_primitive", "canonical_base",
    "canonicalize", "caterpillar", "check_rt_axioms", "combined_matrix", "dcl_acl",
    "degree_family_tree", "delta_hyperbolicity", "dist_to_center_ball", "distance",
    "endpoints", "eval_qf", "eval_quantified", "extend_nonforking", "format_point",
    "format_rat", "four_point_check", "free_vars", "glue_family", "gromov_product",
    "interpolate", "is_between", "is_nonforking_extension", "is_principal",
    "is_star_independent", "k_star", "lipschitz_bound", "materialize", "median",
    "normalize_point", "one_type_distance", "parse_formula",
    "piecewise_segment_check", "point_on_edge", "point_on_segment",
    "project_to_subtree", "psi_at", "psi_grid_oracle", "random_point",
    "random_tree", "rb_deficiency", "rb_extend", "realize_tree", "realize_type",
    "restrict_descriptor", "same_context", "segment", "spanned_subtree",
    "star_amalgam", "transfer_point", "tree_to_matrix", "tripod",
    "type_distance_exact", "type_distance_search", "type_of", "types_equal",
    "types_equal_transferred", "validate", "validate_descriptor",
]
__version__ = "0.1.0"
