"""Approximating the projection onto a sum of subspaces by iteration.

With A the sum of the members' orthogonal projections, the operators
I - (I - A)^N converge to the orthogonal projection P onto the sum of the
members whenever the spectral criterion holds, and the operator-norm error
at step N is at most r^N where r is the spectral radius of the angle
cosine matrix.  The iterates are built by successive multiplication with
the fixed factor I - A; the eigendecomposition route is reserved for test
oracles.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .criterion import CriterionReport, build_e_matrix, evaluate_criterion, spectral_radius
from .errors import CriterionNotSatisfied, InconsistencyError
from .subspaces import (
    SubspaceFamily,
    orthonormalize,
    projection_matrix,
    sum_operator,
)

# Minimum singular value of the concatenated-basis operator accepted as
# evidence of linear independence.
INDEPENDENCE_TOL = 1e-9


@dataclass(frozen=True)
class ConvergenceStep:
    N: int
    error: float
    bound: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured iteration errors against the certified geometric bound.

    ``criterion`` is the report of the spectral test that certified the
    bound; ``r`` is its spectral radius.  ``steps[i]`` holds the
    operator-norm distance of the N=i+1 iterate from the reference
    projection together with the bound r^N.
    ``frame_lower``/``frame_upper`` are the extreme squared singular
    values of the concatenated-basis operator; they lie in
    [1-r, 1+r] up to roundoff.  ``a_restricted_deviation`` is the norm of
    A - I compressed to the sum, which is at most r.
    """

    criterion: CriterionReport
    steps: tuple
    frame_lower: float
    frame_upper: float
    a_restricted_deviation: float

    @property
    def r(self):
        return self.criterion.spectral_radius


def sum_of_projections(f: SubspaceFamily) -> np.ndarray:
    """A = P_1 + ... + P_n, the sum of the members' projections."""
    a = np.zeros((f.ambient_dim, f.ambient_dim))
    for m in f.members:
        a += projection_matrix(m)
    return a


def _oracle(f: SubspaceFamily):
    """(orthonormal basis of the sum, projection onto the sum)."""
    q = orthonormalize(sum_operator(f)).basis
    d = f.ambient_dim
    if q.shape[1] == d:
        return q, np.eye(d)
    p = q @ q.T
    return q, (p + p.T) / 2.0


def oracle_projection(f: SubspaceFamily) -> np.ndarray:
    """Reference orthogonal projection onto the sum of the members.

    Computed directly by orthonormalizing the concatenated bases,
    independently of the iteration.  When the sum is the whole ambient
    space the exact identity is returned.
    """
    return _oracle(f)[1]


def iterate_projection(f: SubspaceFamily, n_steps: int) -> np.ndarray:
    """The N-th iterate I - (I - A)^N, symmetrized.

    Built by N successive multiplications of the fixed factor I - A.
    """
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    d = f.ambient_dim
    m_fac = np.ascontiguousarray(np.eye(d) - sum_of_projections(f))
    out = np.eye(d) - _kernels.power_chain(m_fac, n_steps)
    return (out + out.T) / 2.0


def convergence_report(f: SubspaceFamily, n_max: int) -> ConvergenceReport:
    """Track iteration errors for N = 1..n_max with the certified bound.

    Requires the spectral criterion to hold; otherwise the geometric bound
    is not certified and CriterionNotSatisfied, carrying the criterion
    report, is raised (the plain iterate remains available via
    iterate_projection).
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    report = evaluate_criterion(build_e_matrix(f))
    if not report.satisfied:
        raise CriterionNotSatisfied(
            f"spectral radius {report.spectral_radius} is not below 1; "
            "no certified bound",
            report=report,
        )
    r = report.spectral_radius

    d = f.ambient_dim
    a = sum_of_projections(f)
    q, target = _oracle(f)

    m_fac = np.ascontiguousarray(np.eye(d) - a)
    errors = _kernels.error_series(m_fac, np.ascontiguousarray(target), n_max)
    steps = tuple(
        ConvergenceStep(N=i + 1, error=float(errors[i]), bound=r ** (i + 1))
        for i in range(n_max)
    )

    svals = np.linalg.svd(sum_operator(f), compute_uv=False)
    compressed = q.T @ (a - np.eye(d)) @ q
    a_dev = float(np.linalg.svd(compressed, compute_uv=False)[0])

    return ConvergenceReport(
        criterion=report,
        steps=steps,
        frame_lower=float(svals[-1] ** 2),
        frame_upper=float(svals[0] ** 2),
        a_restricted_deviation=a_dev,
    )


def linear_independence_check(f: SubspaceFamily):
    """(independent?, sigma_min) for the concatenated-basis operator.

    The members are linearly independent exactly when the operator has
    trivial kernel; sigma_min above INDEPENDENCE_TOL is the numerical
    proxy.  When the spectral criterion holds, sigma_min must also respect
    the frame lower bound sqrt(1 - r).
    """
    svals = np.linalg.svd(sum_operator(f), compute_uv=False)
    sigma_min = float(svals[-1])
    r = spectral_radius(build_e_matrix(f))
    if r < 1.0 and sigma_min < np.sqrt(1.0 - r) - 1e-9:
        raise InconsistencyError(
            f"sigma_min {sigma_min} violates the frame bound "
            f"sqrt(1-r) = {np.sqrt(1.0 - r)}"
        )
    return sigma_min > INDEPENDENCE_TOL, sigma_min
