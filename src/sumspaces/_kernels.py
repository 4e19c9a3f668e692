"""The power-chain kernel of the projection iteration.

``power_chain`` walks the power chain of a fixed factor by successive
multiplication; no binary powering, so the floating-point sequence is the
one the plain iteration would produce.  ``iterate_projection`` builds the
d x d iterate with it.

``convergence_report`` walks no chain.  Its factor ``I - G`` (``G = S'S``)
is symmetric, so the norm of ``(I - G)^N`` is exactly ``rho^N`` with
``rho = max |1 - lambda_i(G)|``, read from one ``eigvalsh(G)``.  The d x d
chain of ``iterate_projection`` and the K x K chain of ``I - G`` (a test
oracle) are what that closed form is checked against.
"""


def power_chain(m, n_steps):
    # m^n_steps by n_steps-1 successive multiplications
    b = m.copy()
    for _ in range(n_steps - 1):
        b = b @ m
    return b
