"""Subspaces of finite-dimensional real inner-product spaces.

A subspace is stored as an orthonormal basis (dense column matrix); the
projection matrix is derived from it.  Angles between subspaces reduce to
singular values of the small cross-Gram matrix of the two bases, which is
both cheaper and more accurate than forming the d x d projections.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AllZeroInput, DimensionMismatch, NumericalError

# Max allowed entrywise deviation of basis' * basis from the identity.
ORTHONORMALITY_TOL = 1e-10
# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10
# A spanning set whose largest singular value is below this is all zero.
ZERO_ATOL = 1e-12
# Cross-Gram singular values may exceed 1 by at most this before erroring.
NORM_EXCESS_TOL = 1e-9


def _frozen_array(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional subspace of R^d, held as an orthonormal d x k basis."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = _frozen_array(self.basis)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-D, got shape {basis.shape}")
        d, k = basis.shape
        if self.ambient_dim < 1 or d != self.ambient_dim:
            raise ValueError(
                f"basis has {d} rows, ambient dimension is {self.ambient_dim}"
            )
        if not 1 <= k <= d:
            raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
        gram = basis.T @ basis
        drift = np.abs(gram - np.eye(k)).max()
        if not drift <= ORTHONORMALITY_TOL:  # also rejects a NaN drift
            raise ValueError(
                f"basis columns are not orthonormal (drift {drift:.3e})"
            )
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class SubspaceFamily:
    """An ordered family of subspaces sharing one ambient space."""

    ambient_dim: int
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 1:
            raise ValueError("a family needs at least one member")
        for i, m in enumerate(members):
            if m.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"member {i} lives in R^{m.ambient_dim}, "
                    f"family ambient dimension is {self.ambient_dim}"
                )
        object.__setattr__(self, "members", members)

    @property
    def n(self):
        return len(self.members)

    @property
    def total_dim(self):
        return sum(m.dim for m in self.members)


def orthonormalize(raw) -> Subspace:
    """Build a Subspace from an arbitrary d x m spanning set.

    The returned basis spans the column space of ``raw``; numerically
    dependent columns are dropped (rank cut at RANK_RTOL relative to the
    largest singular value).  Input that is already orthonormal to within
    1e-12 is returned unchanged, so re-ingesting a stored basis is exact.

    Raises AllZeroInput when every column is numerically zero.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ValueError(f"expected a 2-D spanning set, got shape {raw.shape}")
    d, m = raw.shape
    if d < 1 or m < 1:
        raise ValueError("spanning set must have at least one row and column")

    if m <= d:
        # an overflowed Gram matrix is not the identity: the SVD path runs
        with np.errstate(over="ignore", invalid="ignore"):
            gram = raw.T @ raw
        if np.abs(gram - np.eye(m)).max() <= 1e-12:
            return Subspace(d, raw)

    u, s, _ = np.linalg.svd(raw, full_matrices=False)
    if s[0] <= ZERO_ATOL:
        raise AllZeroInput("all columns of the spanning set are numerically zero")
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    return Subspace(d, u[:, :rank])


def projection_matrix(s: Subspace) -> np.ndarray:
    """Orthogonal projection onto ``s`` as a dense d x d matrix.

    Symmetric by construction; idempotent and of trace k up to roundoff.
    """
    p = s.basis @ s.basis.T
    return (p + p.T) / 2.0


def restricted_norm(m: Subspace, n: Subspace) -> float:
    """Operator norm of the projection onto ``m`` restricted to ``n``.

    Equals the largest singular value of the cross-Gram basis_m' * basis_n,
    i.e. the cosine of the minimal angle between the subspaces.  Symmetric
    in its arguments.  The result is clamped to [0, 1]; an excess over 1
    beyond NORM_EXCESS_TOL signals corrupt bases and raises NumericalError.
    """
    if m.ambient_dim != n.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {m.ambient_dim} vs {n.ambient_dim}"
        )
    cross = m.basis.T @ n.basis
    return float(_checked_cosines(np.linalg.svd(cross, compute_uv=False)[0]))


def _checked_cosines(sigma):
    """Top cross-Gram singular values, clamped to [0, 1].

    An excess over 1 beyond NORM_EXCESS_TOL signals corrupt bases and
    raises NumericalError.
    """
    sigma = np.asarray(sigma, dtype=float)
    top = sigma.max(initial=0.0)
    if top > 1.0 + NORM_EXCESS_TOL:
        raise NumericalError(f"restricted norm {top} exceeds 1 beyond tolerance")
    return np.clip(sigma, 0.0, 1.0)


def minimal_angle(m: Subspace, n: Subspace) -> float:
    """Minimal angle between two subspaces, in [0, pi/2] radians."""
    return float(np.arccos(restricted_norm(m, n)))


def sum_operator(f: SubspaceFamily) -> np.ndarray:
    """Concatenation [basis_1 | ... | basis_n], shape d x (k_1+...+k_n).

    Acting on coefficient vectors it sums one element from each member, so
    its singular values are those of the summation map on the orthogonal
    direct sum of the members.
    """
    return np.hstack([m.basis for m in f.members])
