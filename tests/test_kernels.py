import math

import numpy as np
import pytest

from conftest import sample_family_with_radius_at_most
from oracles import error_series, iterate_projection, sum_of_projections
from sumspaces.errors import NumericalError


def random_contraction(rng, d, r=0.8):
    """Symmetric matrix with eigenvalues spread over (-r, r)."""
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    w = rng.uniform(-r, r, size=d)
    return np.ascontiguousarray((q * w) @ q.T)


def test_power_chain_matches_matrix_power():
    # iterate_projection walks the chain of I - A, a contraction on the sum
    # when the criterion holds, by successive multiplication.
    rng = np.random.default_rng(0)
    f = sample_family_with_radius_at_most(rng, 0.9)
    eye = np.eye(f.ambient_dim)
    m = eye - sum_of_projections(f)
    for n in (1, 2, 7):
        np.testing.assert_allclose(
            eye - iterate_projection(f, n), np.linalg.matrix_power(m, n), atol=1e-13
        )


def test_error_series_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(1)
    m = random_contraction(rng, 10)
    n_steps = 25
    errors = error_series(m, n_steps)
    w = np.linalg.eigvalsh(m)
    magnitudes = np.abs(w)
    expected = [magnitudes.max() ** n for n in range(1, n_steps + 1)]
    np.testing.assert_allclose(errors, expected, rtol=1e-10)


def test_error_series_matches_spectral_norm_oracle():
    # The iteration's setting: m = I - G is a contraction on the
    # coefficient space.  The most negative eigenvalue of m has the
    # largest magnitude, so on odd steps the power's norm is its most
    # negative eigenvalue.
    rng = np.random.default_rng(3)
    k = 7
    q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    spectrum = np.concatenate([[-0.6, 0.5], rng.uniform(-0.4, 0.4, k - 2)])
    m = (q * spectrum) @ q.T
    m = np.ascontiguousarray((m + m.T) / 2.0)
    n_steps = 90  # 0.6^90 is far below the roundoff floor

    errors = error_series(m, n_steps)

    powers = [np.linalg.matrix_power(m, n) for n in range(1, n_steps + 1)]
    expected = [np.linalg.norm(p, 2) for p in powers]
    np.testing.assert_allclose(errors, expected, rtol=0, atol=1e-13)
    assert errors[-1] < 1e-13
    # both sides of the spectrum decide some steps
    extremes = [np.linalg.eigvalsh(p)[[0, -1]] for p in powers[:20]]
    negative_wins = [-lo > hi for lo, hi in extremes]
    assert any(negative_wins) and not all(negative_wins)


def test_error_series_exact_small_case():
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    errors = error_series(m, 3)
    assert errors[-1] == pytest.approx(0.125, abs=1e-15)


def test_skew_guard_rejects_nonsymmetric_factor():
    m = np.array([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(NumericalError, match="skew part"):
        error_series(m, 3)


def test_zero_deviation_has_positive_zero_norm():
    errors = error_series(np.zeros((2, 2)), 3)
    assert [math.copysign(1.0, e) for e in errors] == [1.0] * 3
