"""Subspaces of finite-dimensional real inner-product spaces.

A subspace is stored as an orthonormal basis (dense column matrix); its
d x d projection matrix is never formed.  Angles between subspaces reduce
to singular values of the small cross-Gram matrix of the two bases, which
is both cheaper and more accurate than forming the projections.
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
    """A k-dimensional subspace of R^d, held as an orthonormal d x k basis.

    ``Subspace(d, basis)`` keeps a read-only copy of ``basis`` and checks
    it.  The members the package builds itself (``orthonormalize_all``,
    the loader, ``build_counterexample``) skip the copy: each basis is a
    read-only view of one stack per basis shape, checked as a whole
    against the same tolerance with the same message, so one member keeps
    its whole stack alive.  ``orthonormalize_all`` checks its stacks by
    the same product; ``build_counterexample`` reads the Gram matrices of
    its members from its blocks, where they are diagonal.
    """

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
        _check_orthonormal(_gram_drift(basis[None]))
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return self.basis.shape[1]


def _gram_drift(stack):
    """The drift of each basis in the (N, d, k) ``stack``, by one batched product.

    A basis's drift is the largest entrywise deviation of its Gram matrix
    from the identity.
    """
    gram = stack.transpose(0, 2, 1) @ stack
    return np.abs(gram - np.eye(stack.shape[2])).max(axis=(1, 2))


def _check_orthonormal(drift):
    """Raise ValueError unless every basis's ``drift`` is within ORTHONORMALITY_TOL.

    The first basis, in order, whose drift exceeds it (or is NaN) is
    named by its drift.
    """
    bad = np.flatnonzero(~(drift <= ORTHONORMALITY_TOL))  # also rejects a NaN drift
    if bad.size:
        raise ValueError(
            f"basis columns are not orthonormal (drift {drift[bad[0]]:.3e})"
        )


def _stacked_members(stack, drift) -> list:
    """One Subspace per basis of the fresh (N, d, k) ``stack``, without copies.

    ``drift`` holds each basis's drift (see ``_gram_drift``), which the
    caller may read from a structure it knows the stack to have; it is
    checked by ``_check_orthonormal``.  The stack is frozen, and each
    member's basis is a read-only view of it.
    """
    stack.setflags(write=False)
    _check_orthonormal(drift)
    members = []
    for basis in stack:
        member = object.__new__(Subspace)
        object.__setattr__(member, "ambient_dim", stack.shape[1])
        object.__setattr__(member, "basis", basis)
        members.append(member)
    return members


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

    The one-member case of ``orthonormalize_all``: the returned basis
    spans the column space of ``raw``, numerically dependent columns are
    dropped, and input that is already orthonormal to within 1e-12 is
    returned unchanged, so re-ingesting a stored basis is exact.

    Raises AllZeroInput when every column is numerically zero.
    """
    return orthonormalize_all([raw])[0]


def orthonormalize_all(raws) -> list:
    """Build one Subspace per d x m spanning set in ``raws``, in order.

    Each basis spans the column space of its spanning set; numerically
    dependent columns are dropped (rank cut at RANK_RTOL relative to the
    largest singular value).  A spanning set that is already orthonormal
    to within 1e-12 is returned unchanged, so re-ingesting a stored basis
    is exact.  The spanning sets are batched by shape: each shape takes
    one stacked Gram test and one stacked SVD of the sets that fail it.
    A stacked SVD gives the bits of one SVD per set, so the result does
    not depend on what else is in the batch.  The bases are then stacked
    once per output shape and each stack is checked in one product: the
    returned members are read-only views of these stacks (see
    ``Subspace``), and each keeps its whole stack alive.

    Raises ValueError for a spanning set that is not 2-D or is empty, and
    AllZeroInput for the first set, in order, whose columns are all
    numerically zero; its position is the exception's ``index``.
    """
    raws = [np.asarray(raw, dtype=float) for raw in raws]
    groups = {}
    for i, raw in enumerate(raws):
        if raw.ndim != 2:
            raise ValueError(f"expected a 2-D spanning set, got shape {raw.shape}")
        if 0 in raw.shape:
            raise ValueError("spanning set must have at least one row and column")
        groups.setdefault(raw.shape, []).append(i)

    bases = list(raws)
    zero = []
    for (d, m), members in groups.items():
        stack = np.stack([raws[i] for i in members])
        need = np.ones(len(members), dtype=bool)
        if m <= d:
            # an overflowed Gram matrix is not the identity: the SVD runs
            with np.errstate(over="ignore", invalid="ignore"):
                need = ~(_gram_drift(stack) <= 1e-12)
            if not need.any():
                continue
        u, s, _ = np.linalg.svd(
            stack if need.all() else stack[need], full_matrices=False
        )
        del stack
        ranks = np.count_nonzero(s > RANK_RTOL * s[:, :1], axis=1).tolist()
        top = s[:, 0].tolist()
        for j, i in enumerate(np.flatnonzero(need).tolist()):
            if top[j] <= ZERO_ATOL:
                zero.append(members[i])
            bases[members[i]] = u[j, :, : ranks[j]]
    if zero:
        raise AllZeroInput(
            "all columns of the spanning set are numerically zero", min(zero)
        )
    shapes = {}
    for i, basis in enumerate(bases):
        shapes.setdefault(basis.shape, []).append(i)
    members = [None] * len(bases)
    for positions in shapes.values():
        stack = np.stack([bases[i] for i in positions])
        for i, member in zip(positions, _stacked_members(stack, _gram_drift(stack))):
            members[i] = member
    return members


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


def sum_operator(f: SubspaceFamily) -> np.ndarray:
    """Concatenation [basis_1 | ... | basis_n], shape d x (k_1+...+k_n).

    Acting on coefficient vectors it sums one element from each member, so
    its singular values are those of the summation map on the orthogonal
    direct sum of the members.
    """
    return np.hstack([m.basis for m in f.members])
