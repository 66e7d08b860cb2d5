"""gsvdkit: the generalized SVD in GH form and the analyses built on it.

The central object is the factorization [A; B] = [U C; V S] H of a pair
of matrices with a common column count, together with its structure
accounting, the projector-corrected quotient theorem, Tikhonov
regularization paths, subspace geometry, clustered-data statistics, and
MANOVA / Jacobi-ensemble sampling.
"""

from . import errors
from .gsvd import (
    CsStructure,
    FundamentalBases,
    GsvdFactors,
    compact,
    expand,
    fundamental_subspaces,
    gsvd_decompose,
    parameter_count,
    rank_reduce,
    rq_drilldown,
    structure_counts,
    with_top_convention,
)
from .jacobi import (
    EmpiricalReport,
    JacobiParams,
    SeededRng,
    empirical_check,
    jacobi_log_density,
    manova_matrix,
    sample_manova,
)
from .matcore import Tolerance, full_svd, numerical_rank, pinv
from .quotient import (
    HorizontalProjector,
    LimitCurve,
    TrigTable,
    augment_rows,
    horizontal_projector,
    limit_curve,
    quotient_check,
    trig_table,
)
from .stats import (
    AnovaReport,
    Apportionment,
    ClusterDesign,
    anova_f,
    apportion,
    cluster_design,
    discriminant_reduce,
    reconstruct_terms,
)
from .subgeom import (
    AdditiveSplit,
    EllipseData,
    PrincipalAngles,
    additive_split,
    ellipse_data,
    energy_point,
    energy_point2,
    lemniscate_residual,
    lemniscate_residual2,
    principal_angles,
)
from .tikhonov import (
    LambdaFactors,
    TikhonovProblem,
    direct_solve,
    lambda_factors,
    solve_path,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Tolerance",
    "numerical_rank",
    "full_svd",
    "pinv",
    "GsvdFactors",
    "CsStructure",
    "FundamentalBases",
    "gsvd_decompose",
    "structure_counts",
    "fundamental_subspaces",
    "compact",
    "expand",
    "rq_drilldown",
    "rank_reduce",
    "parameter_count",
    "with_top_convention",
    "TrigTable",
    "HorizontalProjector",
    "LimitCurve",
    "trig_table",
    "horizontal_projector",
    "quotient_check",
    "limit_curve",
    "augment_rows",
    "TikhonovProblem",
    "LambdaFactors",
    "lambda_factors",
    "solve_path",
    "direct_solve",
    "PrincipalAngles",
    "AdditiveSplit",
    "EllipseData",
    "principal_angles",
    "additive_split",
    "ellipse_data",
    "energy_point",
    "energy_point2",
    "lemniscate_residual",
    "lemniscate_residual2",
    "ClusterDesign",
    "AnovaReport",
    "Apportionment",
    "cluster_design",
    "anova_f",
    "apportion",
    "reconstruct_terms",
    "discriminant_reduce",
    "JacobiParams",
    "SeededRng",
    "EmpiricalReport",
    "manova_matrix",
    "sample_manova",
    "jacobi_log_density",
    "empirical_check",
]
