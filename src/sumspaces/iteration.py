"""Approximating the projection onto a sum of subspaces by iteration.

With A the sum of the members' orthogonal projections, the operators
I - (I - A)^N converge to the orthogonal projection P onto the sum of the
members whenever the spectral criterion holds, and the operator-norm error
at step N is at most r^N where r is the spectral radius of the angle
cosine matrix.  The iterates are built by successive multiplication with
the fixed factor I - A; the eigendecomposition route is reserved for test
oracles.

``convergence_report`` measures the errors without forming a d x d
matrix.  With S = [B_1 | ... | B_n] (d x K, K the sum of the member
dimensions) and G = S'S, A = SS' and (I - A)^N = I + S C_N S' for a K x K
polynomial C_N in G (the push-through identity).  The error
(I - A)^N - (I - P) vanishes off the sum, and on the sum I - A is
unitarily similar to I - G, because a certified criterion gives S full
column rank (G has no kernel).  So the error at step N is ||(I - G)^N||_2,
and the chain of the K x K factor I - G is walked instead of the d x d
factor I - A: memory O(dK + K^2) instead of O(d^2).  There is no gain
when the members span the whole space (K = d).

S and G are formed once per family: the criterion's cosine matrix is cut
from the same G whose factor I - G the series iterates, and the
independence check reads sigma_min and the cosines from one S.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .criterion import CriterionReport, _cosine_matrix, evaluate_criterion, spectral_radius
from .errors import CriterionNotSatisfied, InconsistencyError
from .subspaces import SubspaceFamily, orthonormalize, sum_operator

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
    operator-norm distance of the N=i+1 iterate from the projection onto
    the sum together with the bound r^N.  The distance is measured, not
    computed from a closed form: it is the largest eigenvalue magnitude of
    (I - G)^N with G = S'S, built by N successive K x K multiplications,
    which equals the d x d distance because the deviation vanishes off
    the sum and I - A on the sum is unitarily similar to I - G.
    ``frame_lower``/``frame_upper`` are the extreme squared singular
    values sigma_min^2, sigma_max^2 of the concatenated-basis operator S;
    they lie in [1-r, 1+r] up to roundoff.  ``a_restricted_deviation`` is
    the norm of A - I restricted to the sum,
    max(1 - sigma_min^2, sigma_max^2 - 1), which is at most r.  It is the
    exact contraction factor: the error at step N is its N-th power.
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
    """A = P_1 + ... + P_n = S S', the sum of the members' projections."""
    return _outer(sum_operator(f))


def _outer(q):
    """q q', symmetrized."""
    p = q @ q.T
    return (p + p.T) / 2.0


def oracle_projection(f: SubspaceFamily) -> np.ndarray:
    """Reference orthogonal projection onto the sum of the members.

    Computed directly by orthonormalizing the concatenated bases,
    independently of the iteration.  When the sum is the whole ambient
    space the exact identity is returned.
    """
    d = f.ambient_dim
    u = orthonormalize(sum_operator(f)).basis
    return np.eye(d) if u.shape[1] == d else _outer(u)


def iterate_projection(f: SubspaceFamily, n_steps: int) -> np.ndarray:
    """The N-th iterate I - (I - A)^N, symmetrized.

    Built by N successive multiplications of the fixed factor I - A.
    """
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    d = f.ambient_dim
    m_fac = np.eye(d) - sum_of_projections(f)
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
    s = sum_operator(f)
    g = _outer(s.T)
    report = evaluate_criterion(_cosine_matrix(f, g))
    if not report.satisfied:
        raise CriterionNotSatisfied(
            f"spectral radius {report.spectral_radius} is not below 1; "
            "no certified bound",
            report=report,
        )
    r = report.spectral_radius

    # r < 1 certifies sigma_min^2 >= 1 - r > 0: S has full column rank.
    sigma = np.linalg.svd(s, compute_uv=False)
    frame_lower, frame_upper = float(sigma[-1] ** 2), float(sigma[0] ** 2)

    # The chain of I - G in coefficient space: the error at step N is
    # ||(I - G)^N||_2.
    errors = _kernels.error_series(np.eye(s.shape[1]) - g, n_steps=n_max)
    steps = tuple(
        ConvergenceStep(N=i + 1, error=float(errors[i]), bound=r ** (i + 1))
        for i in range(n_max)
    )
    return ConvergenceReport(
        criterion=report,
        steps=steps,
        frame_lower=frame_lower,
        frame_upper=frame_upper,
        a_restricted_deviation=max(1.0 - frame_lower, frame_upper - 1.0),
    )


def linear_independence_check(f: SubspaceFamily):
    """(independent?, sigma_min) for the concatenated-basis operator.

    The members are linearly independent exactly when the operator has
    trivial kernel; sigma_min above INDEPENDENCE_TOL is the numerical
    proxy.  When the spectral criterion holds, sigma_min must also respect
    the frame lower bound sqrt(1 - r).
    """
    s = sum_operator(f)
    svals = np.linalg.svd(s, compute_uv=False)
    sigma_min = float(svals[-1])
    r = spectral_radius(_cosine_matrix(f, s.T @ s))
    if r < 1.0 and sigma_min < np.sqrt(1.0 - r) - 1e-9:
        raise InconsistencyError(
            f"sigma_min {sigma_min} violates the frame bound "
            f"sqrt(1-r) = {np.sqrt(1.0 - r)}"
        )
    return sigma_min > INDEPENDENCE_TOL, sigma_min
