"""The power-chain kernel of the projection iteration.

``power_chain`` walks the power chain of a fixed factor by successive
multiplication; no binary powering, so the floating-point sequence is the
one the plain iteration would produce.  ``iteration.iterate_projection``
builds the d x d iterate with it.
"""


def power_chain(m, n_steps):
    # m^n_steps by n_steps-1 successive multiplications
    b = m.copy()
    for _ in range(n_steps - 1):
        b = b @ m
    return b
