"""The errors of the iteration that approximates the projection onto a sum.

With A the sum of the members' orthogonal projections, the operators
I - (I - A)^N converge to the orthogonal projection P onto the sum of the
members whenever the spectral criterion holds, and the operator-norm error
at step N is at most r^N where r is the spectral radius of the angle
cosine matrix.  The package reports those errors and the certified
bound; it forms neither A, P nor any iterate, which are d x d.

``convergence_report`` computes the errors in closed form.  With
S = [B_1 | ... | B_n] (d x K, K the sum of the member dimensions) and
G = S'S, A = SS' and (I - A)^N = I + S C_N S' for a K x K polynomial C_N
in G (the push-through identity).  The error
(I - A)^N - (I - P) vanishes off the sum, and on the sum I - A is
unitarily similar to I - G, because a certified criterion gives S full
column rank (G has no kernel).  So the error at step N is ||(I - G)^N||_2,
and since I - G is symmetric that is exactly rho^N with
rho = max_i |1 - lambda_i(G)|: the errors, the frame bounds and rho all
come from one eigvalsh(G), in O(dK + K^2) memory.

This closed form is at least as trustworthy as walking the chain.
eigvalsh is backward stable: its eigenvalues are the exact ones of a
symmetric G + dG with ||dG|| a small multiple of the unit roundoff times
||G||, and fl(G) is within about gamma_d ||S||^2 of S'S (Higham, Accuracy
and Stability of Numerical Algorithms, 2002, sec. 3.5).  By Weyl's
inequality no eigenvalue, hence neither rho nor a frame bound, moves by
more than the sum of those perturbations.  The step-by-step chain has no
such a-priori bound, and its roundoff grows with N.  Both chains are test
oracles in tests/oracles.py: the d x d chain of I - A, built from the
members' projections, and the K x K chain of I - G.

S and G are formed once per family: the criterion's cosine matrix is cut
from the same G whose eigenvalues give the series, and the independence
check reads sigma_min and the cosines from one S.  That check keeps its
SVD of S: it must tell a sigma_min of about 1e-12 from zero, which
sigma_min^2 = lambda_min(G) cannot.
"""

from dataclasses import dataclass

import numpy as np

from .criterion import CriterionReport, _cosine_matrix, evaluate_criterion, spectral_radius
from .errors import CriterionNotSatisfied, InconsistencyError
from .subspaces import SubspaceFamily, sum_operator

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
    """Iteration errors against the certified geometric bound.

    ``criterion`` is the report of the spectral test that certified the
    bound; ``r`` is its spectral radius.  ``steps[i]`` holds the
    operator-norm distance of the N=i+1 iterate from the projection onto
    the sum together with the bound r^N.  The distance is computed in
    closed form: it is ||(I - G)^N||_2 = rho^N with G = S'S, which equals
    the d x d distance because the deviation vanishes off the sum and
    I - A on the sum is unitarily similar to I - G.
    ``frame_lower``/``frame_upper`` are the extreme eigenvalues of G, the
    squared singular values sigma_min^2, sigma_max^2 of the
    concatenated-basis operator S; they lie in [1-r, 1+r] up to roundoff.
    ``a_restricted_deviation`` is rho, the norm of A - I restricted to the
    sum, max(1 - sigma_min^2, sigma_max^2 - 1), which is at most r.  It is
    the exact contraction factor: the error at step N is its N-th power.
    """

    criterion: CriterionReport
    steps: tuple
    frame_lower: float
    frame_upper: float
    a_restricted_deviation: float

    @property
    def r(self):
        return self.criterion.spectral_radius


def convergence_report(f: SubspaceFamily, n_max: int) -> ConvergenceReport:
    """Track iteration errors for N = 1..n_max with the certified bound.

    Requires the spectral criterion to hold; otherwise the geometric bound
    is not certified and CriterionNotSatisfied, carrying the criterion
    report, is raised.  Only the errors are computed: the d x d iterate
    and the exact projection are reference oracles of the test suite.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    s = sum_operator(f)
    g = s.T @ s
    report = evaluate_criterion(_cosine_matrix(f, g))
    if not report.satisfied:
        raise CriterionNotSatisfied(
            f"spectral radius {report.spectral_radius} is not below 1; "
            "no certified bound",
            report=report,
        )
    r = report.spectral_radius

    # r < 1 certifies lambda_min(G) = sigma_min^2 >= 1 - r > 0.  I - G is
    # symmetric, so ||(I - G)^N||_2 = rho^N with rho its largest
    # eigenvalue magnitude.  The series is allocated in one numpy call, so
    # an unallocatable n_max fails here at once with MemoryError.
    lam = np.linalg.eigvalsh(g)
    rho = max(1.0 - lam[0], lam[-1] - 1.0)
    errors = rho ** np.arange(1.0, n_max + 1)
    steps = tuple(
        ConvergenceStep(N=i + 1, error=float(errors[i]), bound=r ** (i + 1))
        for i in range(n_max)
    )
    return ConvergenceReport(
        criterion=report,
        steps=steps,
        frame_lower=float(lam[0]),
        frame_upper=float(lam[-1]),
        a_restricted_deviation=float(rho),
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
