"""Test oracles: the step-by-step, dense and per-block forms of fast paths.

``error_series`` is the K x K chain that ``convergence_report`` once
walked: the norm of each power ``m^N``, read from the eigenvalues of the
symmetrized power.  The report now reads the same norms in closed form
from one ``eigvalsh(G)``; this chain is what that closed form is checked
against.  ``svd_cosine_matrix`` takes one SVD per pair of members, the
path ``build_e_matrix`` leaves for pairs of lines.

The d x d operators of the paper's iteration live here too, and nowhere
in the package: ``projection_matrix`` (one member's P_i),
``sum_of_projections`` (A = P_1 + ... + P_n), ``oracle_projection`` (the
exact projection P onto the sum) and ``iterate_projection`` (the iterate
I - (I - A)^N, walked by successive multiplication).  Each costs O(d^2)
memory and the iterate O(N d^3) time, so they serve as references on
small families only.
"""

import numpy as np

from sumspaces import EMatrix, orthonormalize, sum_operator
from sumspaces.errors import NumericalError

# Largest Frobenius norm of a step's skew part accepted by error_series.
SKEW_TOL = 1e-10


def error_series(m, n_steps):
    """errors[i] = sigma_max(m^(i+1)) for i = 0..n_steps-1.

    The chain is walked by successive multiplication.  ``m`` must be
    symmetric, so every power is symmetric up to roundoff and its spectral
    norm is its largest eigenvalue magnitude.  The spectral norm is
    1-Lipschitz in the operator norm, so the reading of the symmetric part
    differs from sigma_max of the raw power by at most the norm of its
    skew part, which the Frobenius norm bounds; a step whose skew part
    exceeds ``SKEW_TOL`` raises NumericalError.
    """
    errors = np.empty(n_steps)
    b = m.copy()
    for i in range(n_steps):
        if i > 0:
            b = b @ m
        skew = np.linalg.norm((b - b.T) / 2.0)
        if not skew <= SKEW_TOL:
            raise NumericalError(
                f"power at step {i + 1} has skew part {skew:.3g} > "
                f"{SKEW_TOL:g}; its eigenvalues do not give its norm"
            )
        # Eigenvalues of -m^N, formed as 0 - b so no zero turns -0.0
        # (LAPACK is not exactly odd in its input).
        w = np.linalg.eigvalsh((0.0 - b - b.T) / 2.0)
        # abs: a zero power has norm +0.0, never -0.0
        errors[i] = max(abs(w[0]), abs(w[-1]))
    return errors


def svd_cosine_matrix(f):
    """E of a family with every cosine from a values-only SVD of its block.

    Each pair's block basis_i' basis_j is cut from the one Gram matrix
    S'S, as ``build_e_matrix`` cuts it, and takes its own SVD, 1 x 1
    blocks of two lines included.
    """
    s = sum_operator(f)
    g = s.T @ s
    ends = np.cumsum([m.dim for m in f.members])
    cols = [np.arange(end - m.dim, end) for m, end in zip(f.members, ends)]
    entries = np.zeros((f.n, f.n))
    for i in range(f.n):
        for j in range(i + 1, f.n):
            block = g[np.ix_(cols[i], cols[j])]
            entries[i, j] = min(np.linalg.svd(block, compute_uv=False)[0], 1.0)
    return EMatrix(f.n, entries + entries.T)


def _outer(q):
    """q q', symmetrized."""
    p = q @ q.T
    return (p + p.T) / 2.0


def projection_matrix(s):
    """Orthogonal projection onto the Subspace ``s`` as a dense d x d matrix.

    Symmetric by construction; idempotent and of trace k up to roundoff.
    """
    return _outer(s.basis)


def sum_of_projections(f):
    """A = P_1 + ... + P_n = S S', the sum of the members' projections."""
    return _outer(sum_operator(f))


def oracle_projection(f):
    """Reference orthogonal projection onto the sum of the members.

    Computed directly by orthonormalizing the concatenated bases,
    independently of the iteration.  When the sum is the whole ambient
    space the exact identity is returned.
    """
    d = f.ambient_dim
    u = orthonormalize(sum_operator(f)).basis
    return np.eye(d) if u.shape[1] == d else _outer(u)


def iterate_projection(f, n_steps):
    """The N-th iterate I - (I - A)^N, symmetrized.

    (I - A)^N is walked by N - 1 successive multiplications of the fixed
    factor I - A, with no binary powering, so the floating-point sequence
    is the one the plain iteration produces.
    """
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    d = f.ambient_dim
    m_fac = np.eye(d) - sum_of_projections(f)
    b = m_fac
    for _ in range(n_steps - 1):
        b = b @ m_fac
    out = np.eye(d) - b
    return (out + out.T) / 2.0
