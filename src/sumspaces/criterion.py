"""The spectral criterion r(E) < 1 on the matrix of pairwise angle cosines.

E is symmetric, nonnegative and hollow, so its spectral radius is its
largest eigenvalue.  r(E) < 1 is equivalent to I - E being positive
definite, i.e. to every leading principal minor of I - E being positive;
for three subspaces it is also equivalent to the pairwise minimal angles
summing to more than pi.  All three formulations are computed and cross
checked.

The cosines are cut from the one Gram matrix G = S'S of the concatenated
bases S = [B_1 | ... | B_n]: e_ij is the top singular value of the block
B_i'B_j of G.  The iteration and the independence check cut the cosines
from the G they form for their own use, so ``build_e_matrix``,
``convergence_report`` and ``linear_independence_check`` each form S and
G once per call, and ``analyze`` and ``project`` each make one such
call.  The counterexample verification forms neither S nor G: it reads
the cosines from the K diagonal blocks of S, and a family without that
block support fails it unmeasured.

Positive definiteness is read from one Cholesky factorization
I - E = L L', the only one per criterion evaluation.  Its pivots
diag(L)^2 are the ratios of consecutive leading minors (Golub & Van Loan,
Matrix Computations, sec. 4.2), so the minors are their running products.
The cross-check decides on the pivots, not on the minors: at large n the
reported minors can underflow to 0 while the smallest pivot stays well
away from zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InconsistencyError, NumericalError, WrongArity
from .subspaces import SubspaceFamily, _checked_cosines, _frozen_array, sum_operator

# |r(E) - 1| at or below this counts as the boundary: the criterion is
# reported unsatisfied and the equivalence cross-check is suspended, and
# the counterexample construction accepts the matrix as a boundary one.
BOUNDARY_BAND = 1e-9
# Dead zone for the secondary formulations' own decision statistics.
_STAT_DEAD_ZONE = 1e-12
# Construction-time tolerance for symmetry / hollowness / nonnegativity.
_ENTRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EMatrix:
    """Symmetric hollow nonnegative matrix of pairwise angle cosines."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got {entries.shape}")
        if self.n != entries.shape[0] or self.n < 1:
            raise ValueError(f"n={self.n} does not match shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("entries must be finite")
        if np.abs(np.diag(entries)).max() > _ENTRY_TOL:
            raise ValueError("diagonal entries must be zero")
        if np.abs(entries - entries.T).max() > _ENTRY_TOL:
            raise ValueError("entries must be symmetric")
        if entries.min() < -_ENTRY_TOL:
            raise ValueError("entries must be nonnegative")
        # canonicalize: exact symmetry, exact zeros where only noise was;
        # halving before adding keeps entries near the float limit finite
        entries = entries / 2.0 + entries.T / 2.0
        np.fill_diagonal(entries, 0.0)
        entries[entries < 0.0] = 0.0
        object.__setattr__(self, "entries", _frozen_array(entries))


@dataclass(frozen=True)
class CriterionReport:
    """Joint result of the three formulations of the spectral test.

    ``satisfied`` is True only when the spectral radius is below 1 and
    outside the boundary band; on the band ``boundary`` is set and the
    test is conservatively reported as failed.  ``margin`` is
    1 - spectral_radius.  ``angle_sum`` is filled only for three
    subspaces with all cosines at most 1.
    """

    spectral_radius: float
    satisfied: bool
    leading_minors: tuple
    angle_sum: float | None
    margin: float
    boundary: bool


def build_e_matrix(f: SubspaceFamily) -> EMatrix:
    """Measure the optimal pairwise angle cosines of a family.

    Every cosine is the top singular value of a cross-Gram block
    basis_i' * basis_j, and every such block is a block of the one Gram
    matrix G = S'S of the concatenated bases S = sum_operator(f).  G is
    formed once and the cosines are cut from it, so memory stays within
    G whatever the member dimensions.
    """
    s = sum_operator(f)
    return _cosine_matrix(f, s.T @ s)


def _cosine_matrix(f: SubspaceFamily, g: np.ndarray) -> EMatrix:
    """E of the family whose concatenated bases have Gram matrix ``g``.

    The block basis_i' basis_j of members i and j is cut from ``g`` at
    the rows of the columns of S that member i spans and the columns of
    those that member j spans.  Members are grouped by dimension only to
    batch the SVDs: the blocks of each pair of groups go through one
    values-only SVD, so a family whose members share one dimension takes
    one SVD.  Pairs of lines take none: their 1 x 1 blocks' singular
    values are the magnitudes |g_ij|, bit for bit what the SVD returns.
    A line against a k-plane stays on the SVD, whose result differs from
    the vector norm in the last bits.
    """
    dims = np.array([m.dim for m in f.members])
    ks = sorted(set(dims.tolist()))  # np.unique imports numpy.ma, +1.7 MB RSS
    groups = [np.flatnonzero(dims == k) for k in ks]
    # row q of coords[a] holds the columns of S that member groups[a][q] spans
    starts = np.cumsum(dims) - dims
    coords = [starts[ga][:, None] + np.arange(k) for ga, k in zip(groups, ks)]
    entries = np.zeros((f.n, f.n))
    for a, ga in enumerate(groups):
        for b in range(a, len(groups)):
            gb = groups[b]
            if a == b:
                rows, cols = np.triu_indices(ga.size, 1)
            else:
                rows, cols = np.indices((ga.size, gb.size)).reshape(2, -1)
            if not rows.size:
                continue
            if ks[a] == ks[b] == 1:
                # two lines: the 1 x 1 block's singular value is |g_ij|
                sigma = np.abs(g[coords[a][rows, 0], coords[b][cols, 0]])
            else:
                blocks = g[coords[a][rows][:, :, None], coords[b][cols][:, None, :]]
                sigma = np.linalg.svd(blocks, compute_uv=False)[:, 0]
            entries[ga[rows], gb[cols]] = _checked_cosines(sigma)
    return EMatrix(f.n, entries + entries.T)


def e_matrix_with_bounds(f: SubspaceFamily, bounds) -> EMatrix:
    """EMatrix from user-supplied upper bounds on the angle cosines.

    Any entrywise upper bound of the measured cosines is a valid input to
    the criterion; looser bounds only weaken it.  Entries below the
    measured value (beyond 1e-9) are rejected.
    """
    e = EMatrix(f.n, bounds)
    measured = build_e_matrix(f)
    deficit = measured.entries - e.entries
    if deficit.max() > 1e-9:
        i, j = np.unravel_index(np.argmax(deficit), deficit.shape)
        raise ValueError(
            f"bound at ({i},{j}) is {e.entries[i, j]}, below the measured "
            f"cosine {measured.entries[i, j]}"
        )
    return e


def spectral_radius(e: EMatrix) -> float:
    """Largest eigenvalue of E, which equals its spectral radius.

    The returned eigenpair is residual-checked against the matrix.  A
    radius beyond the largest double raises NumericalError.
    ``CounterexampleSpec`` relies on this being ``np.linalg.eigh`` of
    ``e.entries``: switched to ``eigvalsh``, it could leave the
    counterexample build's top eigenvalue above 1 at K = 53.
    """
    w, v = np.linalg.eigh(e.entries)
    lam = float(w[-1])
    scale = float(np.abs(e.entries).max())
    if not np.isfinite(lam):
        raise NumericalError(
            f"spectral radius overflows double precision (largest entry {scale:.3e})"
        )
    vec = v[:, -1]
    res = e.entries @ vec - lam * vec
    # scaled by its largest entry, so squaring inside norm cannot overflow
    top = float(np.abs(res).max())
    resid = top * float(np.linalg.norm(res / top)) if top > 0.0 else 0.0
    if resid > 1e-10 * e.n * max(scale, 1e-300):
        raise NumericalError(
            f"eigenpair residual {resid:.3e} out of tolerance"
        )
    return lam


def _minors_and_pivots(e: EMatrix):
    """(leading minors of I - E, Cholesky pivots or None), one factorization.

    The pivots diag(L)^2 of I - E = L L' are None when the factorization
    finds I - E not positive definite.
    """
    g = np.eye(e.n) - e.entries
    try:
        pivots = np.diag(np.linalg.cholesky(g)) ** 2
    except np.linalg.LinAlgError:
        # Cholesky stops at the first nonpositive pivot, so the signed
        # minors of an I - E that is not positive definite come from one
        # determinant per order, O(n^4).  Such a family fails the
        # criterion (exit 2).
        return [float(np.linalg.det(g[:m, :m])) for m in range(1, e.n + 1)], None
    return np.cumprod(pivots).tolist(), pivots


def leading_minors(e: EMatrix):
    """Leading principal minors of I - E, for orders 1..n.

    When I - E is positive definite the minors are the running products
    of its Cholesky pivots, one O(n^3) factorization in all.  At large n
    they can underflow to 0.0 (on a ring with neighbour cosine 0.495 the
    minor of order n is about 0.141^n); evaluate_criterion decides on the
    pivots, so this does not change the verdict.
    """
    return _minors_and_pivots(e)[0]


def three_subspace_angle_test(e: EMatrix) -> bool:
    """For three subspaces: do the pairwise minimal angles sum to > pi?"""
    if e.n != 3:
        raise WrongArity(f"angle-sum test needs exactly 3 subspaces, got {e.n}")
    if e.entries.max() > 1.0:
        raise ValueError("angle-sum test needs all cosines in [0, 1]")
    return _angle_sum(e) > np.pi


def _angle_sum(e: EMatrix) -> float:
    """Sum of the three pairwise minimal angles of a 3-member E."""
    off = np.array([e.entries[0, 1], e.entries[1, 2], e.entries[2, 0]])
    return float(np.arccos(off).sum())


def evaluate_criterion(e: EMatrix) -> CriterionReport:
    """Run all applicable formulations of the test and cross-check them.

    Outside the boundary band the formulations must agree; a disagreement
    means a numerical bug and raises InconsistencyError.  Statistics that
    sit within 1e-12 of their own decision point are excluded from the
    cross-check (they carry no sign information at double precision).
    For positive definiteness the statistic is the Cholesky factorization
    of I - E: it reads positive definite when every pivot exceeds 1e-12
    and not positive definite when the factorization fails; a smallest
    pivot in (0, 1e-12] is excluded.  The reported minors play no part,
    so a minor that underflows to 0 at large n leaves the check running.
    The minors and the pivots come from the same single factorization.
    """
    r = spectral_radius(e)
    minors, pivots = _minors_and_pivots(e)
    angle_sum = None
    if e.n == 3 and e.entries.max() <= 1.0:
        angle_sum = _angle_sum(e)

    boundary = abs(r - 1.0) <= BOUNDARY_BAND
    satisfied = (r < 1.0) and not boundary

    if not boundary:
        by_radius = r < 1.0
        if pivots is None or pivots.min() > _STAT_DEAD_ZONE:
            by_pivots = pivots is not None
            if by_pivots != by_radius:
                raise InconsistencyError(
                    f"Cholesky test ({by_pivots}) disagrees with spectral "
                    f"radius {r}"
                )
        if angle_sum is not None and abs(angle_sum - np.pi) > _STAT_DEAD_ZONE:
            by_angles = angle_sum > np.pi
            if by_angles != by_radius:
                raise InconsistencyError(
                    f"angle-sum test ({by_angles}) disagrees with spectral "
                    f"radius {r}"
                )

    return CriterionReport(
        spectral_radius=r,
        satisfied=satisfied,
        leading_minors=tuple(minors),
        angle_sum=angle_sum,
        margin=1.0 - r,
        boundary=boundary,
    )
