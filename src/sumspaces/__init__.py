"""Spectral tests for sums of subspaces of real inner-product spaces.

Given subspaces X_1, ..., X_n with pairwise minimal-angle cosines e_ij,
the package decides whether the family is linearly independent with a
well-conditioned sum by checking that the matrix E of the cosines has
spectral radius below 1.  It reports the errors of the iteration
I - (I - A)^N (A the sum of the members' projections), which approximates
the orthogonal projection onto the sum, against the certified bound
r(E)^N, without forming A, the projection or an iterate, which are
d x d.  It also constructs block families of lines realizing any
prescribed boundary matrix with r(E) = 1, whose frame bounds degenerate
as the truncation grows.
"""

from ._version import __version__
from .errors import (
    AllZeroInput,
    CriterionNotSatisfied,
    DimensionMismatch,
    InconsistencyError,
    NotBoundary,
    NotPositiveDefinite,
    NumericalError,
    SumspacesError,
    VerificationFailed,
)
from .subspaces import (
    Subspace,
    SubspaceFamily,
    orthonormalize,
    orthonormalize_all,
    sum_operator,
)
from .criterion import (
    CriterionReport,
    EMatrix,
    build_e_matrix,
    evaluate_criterion,
    spectral_radius,
)
from .iteration import (
    ConvergenceReport,
    ConvergenceStep,
    convergence_report,
    linear_independence_check,
)
from .counterexamples import (
    CounterexampleSpec,
    CounterexampleVerification,
    build_counterexample,
    geometric_alphas,
    gram_vectors,
    principal_eigenvector,
    verify_counterexample,
)

__all__ = [
    "__version__",
    "AllZeroInput",
    "CriterionNotSatisfied",
    "DimensionMismatch",
    "InconsistencyError",
    "NotBoundary",
    "NotPositiveDefinite",
    "NumericalError",
    "SumspacesError",
    "VerificationFailed",
    "Subspace",
    "SubspaceFamily",
    "orthonormalize",
    "orthonormalize_all",
    "sum_operator",
    "CriterionReport",
    "EMatrix",
    "build_e_matrix",
    "evaluate_criterion",
    "spectral_radius",
    "ConvergenceReport",
    "ConvergenceStep",
    "convergence_report",
    "linear_independence_check",
    "CounterexampleSpec",
    "CounterexampleVerification",
    "build_counterexample",
    "geometric_alphas",
    "gram_vectors",
    "principal_eigenvector",
    "verify_counterexample",
]
