"""Block families of lines realizing a boundary angle matrix (r(E) = 1).

For any symmetric hollow nonnegative E with spectral radius 1 and any
alpha in (0, 1), the matrix I - alpha*E is a Gram matrix of n unit vectors
whose pairwise inner products are -alpha*e_ij.  Stacking the line families
of K such factors block-diagonally, with alphas increasing towards 1,
yields a family whose measured pairwise cosines are alpha_K * e_ij and
whose concatenated-basis operator has smallest squared singular value
1 - alpha_K.  Each truncation is linearly independent with
well-conditioned sum; the conditioning degenerates as alpha_K -> 1, which
is the finite witness that the limiting family's sum fails to be closed.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .criterion import BOUNDARY_BAND, EMatrix, _eigenpairs, spectral_radius
from .errors import NotBoundary, NotPositiveDefinite, NumericalError, VerificationFailed
from .subspaces import SubspaceFamily, _checked_cosines, _stacked_members

# Entrywise tolerance on the per-block Gram factorization residual.
GRAM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CounterexampleSpec:
    """Input to the construction: boundary matrix plus block schedule.

    Every accepted matrix is divided by its spectral radius r (with a
    warning when r is above the boundary band), so its top eigenvalue is
    1 up to rounding, which ``gram_vectors`` reads as exactly 1.  A
    radius below the band is rejected, as the criterion then holds.
    ``input_radius`` is r.
    """

    e: EMatrix
    alphas: tuple
    input_radius: float = field(init=False)

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) < 1:
            raise ValueError("need at least one block")
        if not all(0.0 < a < 1.0 for a in alphas):
            raise ValueError("all alphas must lie strictly between 0 and 1")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("alphas must be strictly increasing")

        r = spectral_radius(self.e)
        object.__setattr__(self, "input_radius", r)
        if r < 1.0 - BOUNDARY_BAND:
            raise NotBoundary(f"spectral radius {r:.12g} < 1: the criterion holds")
        if r > 1.0 + BOUNDARY_BAND:
            warnings.warn(
                f"spectral radius {r:.12g} exceeds 1; rescaling entries by 1/r",
                stacklevel=2,
            )
        object.__setattr__(self, "e", EMatrix(self.e.n, self.e.entries / r))
        object.__setattr__(self, "alphas", alphas)

    @property
    def K(self):
        """Number of blocks."""
        return len(self.alphas)


@dataclass(frozen=True)
class PairNorm:
    i: int
    j: int
    measured: float
    target: float


@dataclass(frozen=True)
class CounterexampleVerification:
    """Outcome of the five construction checks.

    ``pairs`` compares each measured pairwise cosine with its target
    alpha_K * e_ij.  ``combination_residuals[k]`` is the deviation of the
    squared norm of the c-weighted combination of the family's block-k
    vectors from 1 - alpha_k.  ``sigma_min_sq`` at most
    ``degeneration_limit`` (= 1 - alpha_K, up to tolerance) exhibits the
    degenerating frame bound, while ``linearly_independent``, set when
    ``sigma_min`` lies above the SVD's error bound on it, confirms the
    truncation itself is linearly independent.  ``sigma_min`` is the
    least singular value of the sum operator S.  All are read from the K
    diagonal n x n blocks of S, n and K being the spec's, so a family
    without the block layout of the fifth check (another member count,
    another block count, or an entry off the blocks) is not measured: its
    record has no pairs, no residuals and None for both singular values.
    That check has no field of its own and shows only as ``passed`` and
    the failure message.
    """

    pairs: tuple
    combination_residuals: tuple
    sigma_min: float | None
    sigma_min_sq: float | None
    degeneration_limit: float
    linearly_independent: bool
    passed: bool


def principal_eigenvector(e: EMatrix) -> np.ndarray:
    """Unit vector c with E c = c, for a boundary matrix.

    Sign convention: the first coordinate of magnitude above 1e-12 is
    positive.  The eigenpair comes from ``_eigenpairs``, which checks it
    against E's scale before the tighter residual check here.
    """
    w, u = _eigenpairs(e)
    r = float(w[-1])
    if abs(r - 1.0) > BOUNDARY_BAND:
        raise NotBoundary(f"spectral radius {r:.12g} is not 1 within tolerance")
    c = u[:, -1]
    for x in c:
        if abs(x) > 1e-12:
            if x < 0:
                c = -c
            break
    resid = float(np.linalg.norm(e.entries @ c - c))
    if resid > 1e-9:
        raise NumericalError(f"eigenvector residual {resid:.3e} out of tolerance")
    return c


def gram_vectors(e: EMatrix, alpha) -> np.ndarray:
    """Unit vectors in R^n whose Gram matrix is I - alpha*E.

    Returned as the columns of the symmetric square root
    U diag(sqrt(1 - alpha*w)) U' of I - alpha*E, where E = U diag(w) U'
    (deterministic; any factor with unit columns would do).  Pairwise
    inner products are -alpha*e_ij, and the vectors are independent: the
    Gram matrix's least eigenvalue is 1 - alpha * r(E) > 0.  An
    eigenvalue w within GRAM_TOL / 100 of 1 is taken as exactly 1, which
    moves V'V by at most 1% of its residual tolerance, so on a boundary
    matrix the least eigenvalue is exactly 1 - alpha (a reducible E has
    it more than once), positive for every alpha < 1.  A sequence of K
    alphas gives the (K, n, n) stack, all from the one checked
    eigendecomposition of E (``_eigenpairs``).
    """
    alphas = np.asarray(alpha, dtype=float)
    if not np.all((0.0 < alphas) & (alphas < 1.0)):
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    w, u = _eigenpairs(e)
    w = np.where(np.abs(w - 1.0) <= GRAM_TOL / 100, 1.0, w)
    lam = 1.0 - alphas[..., None] * w
    if lam.min() <= 0.0:
        raise NotPositiveDefinite(
            f"I - alpha*E has least eigenvalue {lam.min():.3e}; "
            "alpha is too large for this matrix"
        )
    v = (u * np.sqrt(lam)[..., None, :]) @ u.T
    g = np.eye(e.n) - alphas[..., None, None] * e.entries
    resid = np.abs(np.swapaxes(v, -1, -2) @ v - g).max()
    if resid > GRAM_TOL:
        raise NumericalError(f"Gram factorization residual {resid:.3e}")
    return v


def build_counterexample(spec: CounterexampleSpec) -> SubspaceFamily:
    """Assemble the K-block family for the given boundary matrix.

    Member i collects the i-th unit vector of every block, one per
    column, each supported on its own n coordinates; the columns are
    therefore orthonormal and each member is a valid K-dimensional
    subspace of R^(n*K).  The n bases are filled into one zero stack by
    one scatter; each member's basis is a read-only view of that stack
    (see ``Subspace``), so one member keeps all n bases alive.  As its
    columns lie on disjoint coordinates, member i's Gram matrix is
    diagonal and holds the squared norms |blocks[k, :, i]|^2, so the
    orthonormality check reads them from the K blocks, without a product
    over the stack.
    """
    n, big_k = spec.e.n, spec.K
    blocks = gram_vectors(spec.e, spec.alphas)
    d, ks = n * big_k, np.arange(big_k)
    stack = np.zeros((n, d, big_k))
    # blocks[k, j, i] goes to basis[k*n + j, k] of member i, as
    # _diagonal_blocks reads; the scatter's value is indexed [k, i, j]
    stack.reshape(n, big_k, n, big_k)[:, ks, :, ks] = blocks.transpose(0, 2, 1)
    drift = np.abs(np.sum(blocks * blocks, axis=1) - 1.0).max(axis=0)
    return SubspaceFamily(d, tuple(_stacked_members(stack, drift)))


def verify_counterexample(
    family: SubspaceFamily, spec: CounterexampleSpec
) -> CounterexampleVerification:
    """Check a family against the identities its spec defines.

    Verifies (e) S is block diagonal: the family has n members of
    dimension K in R^(n*K), n being the number of rows of the spec's
    matrix and K its number of alphas, and column k of every member lies
    on coordinates [k*n, (k+1)*n); (a) the measured pairwise cosines
    equal alpha_K * e_ij; (b) the squared norm of V_k c is
    beta_k = 1 - alpha_k, c = ``principal_eigenvector(spec.e)``, relative
    to within 1e-6 and beyond that by at most delta_k *
    (2 |V_k c| + delta_k), where delta_k = n * eps * sigma_max(V_k)
    bounds the rounding error of the norm; (c) the squared least singular
    value of the concatenated-basis operator S is at most 1 - alpha_K,
    relative to within 1e-6 and beyond that by at most delta *
    (2 sigma_min + delta), where delta = n * eps * sigma_max, the largest
    delta_k, bounds the SVD's error in each singular value; and (d)
    sigma_min is above delta, so it is not zero within that error.
    V_k is the k-th diagonal n x n block of S, cut from the member bases.
    Every cross-Gram block B_i'B_j is diagonal with entries
    (V_k'V_k)_ij, so the cosines are max_k |(V_k'V_k)_ij| from one
    batched product and the singular values come from one batched SVD of
    the blocks: neither S nor its nK x nK Gram matrix is formed.  A family that fails (e) is not
    measured (see ``CounterexampleVerification``).  Raises
    VerificationFailed naming the first violated check, in the order
    (e), (a), (b), (c), (d); the exception carries the full record.
    Check (c) stays beside (b) although sigma_min <= |V_K c| in exact
    arithmetic: the computed sigma_min and |V_K c|^2 each carry their
    own rounding bound delta, so (b) passing does not bound the computed
    sigma_min, and (c) is the only check on the reported
    ``sigma_min_sq`` itself.
    """
    e = spec.e
    n, big_k = e.n, spec.K
    alpha_max = spec.alphas[-1]
    limit = 1.0 - alpha_max

    blocks = _diagonal_blocks(family, n, big_k)
    if blocks is None:
        record = CounterexampleVerification(
            pairs=(), combination_residuals=(), sigma_min=None, sigma_min_sq=None,
            degeneration_limit=limit, linearly_independent=False, passed=False,
        )
        raise VerificationFailed(
            f"sum operator of {family.n} members in R^{family.ambient_dim} "
            f"is not block diagonal with n = {n} and K = {big_k}: the family "
            "must have n members of dimension K in R^(n*K), and column k of "
            "every member must lie on coordinates [k*n, (k+1)*n)",
            record=record,
        )

    rows, cols = np.triu_indices(n, 1)
    grams = blocks.transpose(0, 2, 1) @ blocks
    measured = _checked_cosines(np.abs(grams[:, rows, cols]).max(axis=0))
    target = alpha_max * e.entries[rows, cols]
    pairs = [
        PairNorm(i=i, j=j, measured=m, target=t)
        for i, j, m, t in zip(
            rows.tolist(), cols.tolist(), measured.tolist(), target.tolist()
        )
    ]
    failures = [
        f"pair ({p.i},{p.j}): measured cosine {p.measured} vs target {p.target}"
        for p in pairs
        if abs(p.measured - p.target) > 1e-9
    ]

    # n * eps * sigma_max(V_k) bounds the rounding error of a norm of
    # block k's vectors, and the largest bounds the SVD's error in every
    # singular value of S
    singular = np.linalg.svd(blocks, compute_uv=False)
    deltas = n * np.finfo(float).eps * singular[:, 0]

    c = principal_eigenvector(e)
    norms_sq = np.sum((blocks @ c) ** 2, axis=-1)
    betas = 1.0 - np.array(spec.alphas)
    residuals = np.abs(norms_sq - betas)
    tols = 1e-6 * betas + deltas * (2.0 * np.sqrt(norms_sq) + deltas)
    failures += [
        f"block {k}: combination norm^2 off by {residuals[k]:.3e} from {betas[k]}"
        for k in np.flatnonzero(residuals > tols)
    ]

    sigma_min = float(singular.min())
    sigma_min_sq = sigma_min ** 2
    delta = float(deltas.max())
    if sigma_min_sq > limit * (1.0 + 1e-6) + delta * (2.0 * sigma_min + delta):
        failures.append(
            f"sigma_min^2 = {sigma_min_sq} exceeds the degeneration limit {limit}"
        )
    independent = sigma_min > delta
    if not independent:
        failures.append(
            f"sigma_min = {sigma_min} is not above its error bound {delta}: "
            "the truncation is not shown independent"
        )

    record = CounterexampleVerification(
        pairs=tuple(pairs),
        combination_residuals=tuple(residuals.tolist()),
        sigma_min=sigma_min,
        sigma_min_sq=sigma_min_sq,
        degeneration_limit=limit,
        linearly_independent=independent,
        passed=not failures,
    )
    if failures:
        raise VerificationFailed(failures[0], record=record)
    return record


def _diagonal_blocks(family, n, big_k):
    """The K diagonal n x n blocks of the family's sum operator, or None.

    When the family has n members of dimension K in R^(n*K) and column k
    of every member lies on coordinates [k*n, (k+1)*n), the sum operator
    S is block diagonal up to a column permutation, and block k is the
    n x n matrix V_k whose column i is member i's block-k vector.
    Returns them as one (K, n, n) array, stacked from the member bases
    without forming S.  Returns None for a family of another shape, or
    when a basis entry lies outside the blocks.
    """
    if (
        family.n != n
        or family.ambient_dim != n * big_k
        or any(m.dim != big_k for m in family.members)
    ):
        return None
    # basis[k*n + j, k] of member i is coordinate j of its block-k vector,
    # which lands at blocks[k, j, i]
    blocks = np.stack(
        [m.basis.reshape(big_k, n, big_k).diagonal(axis1=0, axis2=2).T
         for m in family.members],
        axis=-1,
    )
    nonzero = sum(np.count_nonzero(m.basis) for m in family.members)
    if np.count_nonzero(blocks) != nonzero:
        return None
    return blocks


# 1 - 2^-k is below 1.0 in double precision only up to k = 53
GEOMETRIC_MAX_BLOCKS = 53


def geometric_alphas(big_k: int) -> tuple:
    """Default block schedule 1 - 2^-k for k = 1..K, with K at most 53."""
    if big_k < 1:
        raise ValueError(f"need at least one block, got {big_k}")
    if big_k > GEOMETRIC_MAX_BLOCKS:
        raise ValueError(
            f"the geometric schedule allows at most {GEOMETRIC_MAX_BLOCKS} "
            f"blocks, got {big_k}: 1 - 2^-{GEOMETRIC_MAX_BLOCKS + 1} rounds "
            "to 1.0 in double precision"
        )
    return tuple(1.0 - 2.0 ** -k for k in range(1, big_k + 1))
