import numpy as np
import pytest

from sumspaces import SubspaceFamily, build_e_matrix, orthonormalize, spectral_radius


def line(*coords):
    """Subspace spanned by a single vector, given by its coordinates."""
    v = np.asarray(coords, dtype=float).reshape(-1, 1)
    return orthonormalize(v)


def line_at_angle(theta):
    """Line in R^2 at angle theta (radians) from the first axis."""
    return line(np.cos(theta), np.sin(theta))


def cosine(m, n):
    """Cosine of the minimal angle between two subspaces: their entry of E."""
    return float(build_e_matrix(SubspaceFamily(m.ambient_dim, (m, n))).entries[0, 1])


def random_subspace(rng, d, k):
    return orthonormalize(rng.normal(size=(d, k)))


def random_family(rng, n, d, max_member_dim=3):
    members = tuple(
        random_subspace(rng, d, int(rng.integers(1, max_member_dim + 1)))
        for _ in range(n)
    )
    return SubspaceFamily(d, members)


def sample_family_with_radius_at_most(
    rng, r_max, n_range=(2, 5), d_range=(12, 30), max_member_dim=3, max_tries=10_000
):
    """Rejection-sample a random family whose measured radius is <= r_max."""
    for _ in range(max_tries):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        d = int(rng.integers(d_range[0], d_range[1] + 1))
        f = random_family(rng, n, d, max_member_dim)
        if spectral_radius(build_e_matrix(f)) <= r_max:
            return f
    raise RuntimeError("rejection sampling failed to find a family in budget")


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.svd`` during the test."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes
