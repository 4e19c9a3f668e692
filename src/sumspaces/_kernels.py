"""Hot numeric kernels of the projection iteration.

Both kernels walk the power chain of a fixed factor by successive
multiplication; no binary powering, so the floating-point sequence is the
one the plain iteration would produce.

``error_series`` reads the spectral norm of each step's deviation from
its eigenvalues instead of a full SVD.  For the iteration the factor
``m = I - A`` and the target projection are symmetric, so every deviation
``(I - target) - m^N`` is symmetric up to roundoff and its spectral norm
is its largest eigenvalue magnitude.  The kernel takes the eigenvalues of
the symmetric part and guards the swap: the spectral norm is 1-Lipschitz
in the operator norm, so the reading differs from sigma_max of the raw
deviation by at most the norm of its skew part, which the Frobenius norm
bounds.  When that norm exceeds ``SKEW_TOL`` the reading is not certified
and ``NumericalError`` is raised.
"""

import numpy as np

from .errors import NumericalError

# Largest Frobenius norm of a step's skew part accepted by error_series.
SKEW_TOL = 1e-10


def power_chain(m, n_steps):
    # m^n_steps by n_steps-1 successive multiplications
    b = m.copy()
    for _ in range(n_steps - 1):
        b = b @ m
    return b


def error_series(m, target, n_steps):
    """errors[i] = sigma_max((I - m^(i+1)) - target) for i = 0..n_steps-1.

    ``m`` and ``target`` must be symmetric; a step whose deviation has a
    skew part above ``SKEW_TOL`` (Frobenius norm) raises NumericalError.
    """
    # Subtracting b from the precomputed I - target keeps the tiny entries
    # of b alive when target is (near) the identity.
    d = m.shape[0]
    base = np.eye(d) - target
    errors = np.empty(n_steps)
    b = m.copy()
    for i in range(n_steps):
        if i > 0:
            b = b @ m
        diff = base - b
        skew = np.linalg.norm((diff - diff.T) / 2.0)
        if not skew <= SKEW_TOL:
            raise NumericalError(
                f"deviation at step {i + 1} has skew part {skew:.3g} > "
                f"{SKEW_TOL:g}; its eigenvalues do not give its norm"
            )
        w = np.linalg.eigvalsh((diff + diff.T) / 2.0)
        # abs: a zero deviation has norm +0.0, never -0.0
        errors[i] = max(abs(w[0]), abs(w[-1]))
    return errors
