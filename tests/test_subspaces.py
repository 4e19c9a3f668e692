import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line, line_at_angle, random_subspace
from oracles import projection_matrix
from sumspaces import (
    AllZeroInput,
    DimensionMismatch,
    Subspace,
    SubspaceFamily,
    minimal_angle,
    orthonormalize,
    restricted_norm,
    sum_operator,
)


class TestOrthonormalize:
    def test_coordinate_line_unchanged(self):
        s = orthonormalize(np.array([[1.0], [0.0]]))
        assert s.dim == 1
        np.testing.assert_array_equal(s.basis, [[1.0], [0.0]])

    def test_parallel_columns_reduce_to_rank_one(self):
        s = orthonormalize(np.array([[2.0, 2.0], [0.0, 0.0]]))
        assert s.dim == 1
        np.testing.assert_allclose(np.abs(s.basis), [[1.0], [0.0]], atol=1e-14)

    def test_random_full_rank_residual_oracle(self):
        rng = np.random.default_rng(42)
        raw = rng.normal(size=(6, 4))
        s = orthonormalize(raw)
        assert s.dim == 4
        q = s.basis
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10
        # the column space is preserved: projecting raw onto span(q) is lossless
        resid = np.linalg.norm(raw - q @ (q.T @ raw))
        assert resid <= 1e-9 * np.linalg.norm(raw)

    def test_all_zero_input(self):
        with pytest.raises(AllZeroInput):
            orthonormalize(np.zeros((3, 2)))

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            orthonormalize(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2)])
    def test_rejects_empty_spanning_set(self, shape):
        with pytest.raises(ValueError, match="at least one row and column"):
            orthonormalize(np.zeros(shape))

    def test_near_dependent_columns_are_cut(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(8, 2))
        raw = np.hstack([base, base @ [[1.0], [1.0]] + 1e-13 * rng.normal(size=(8, 1))])
        assert orthonormalize(raw).dim == 2

    def test_huge_entries_take_svd_path_without_warning(self):
        # the Gram matrix of a 1e300 column overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = orthonormalize(np.array([[1e300, 0.0], [0.0, -1e300]]))
        assert s.dim == 2
        assert np.abs(s.basis.T @ s.basis - np.eye(2)).max() <= 1e-10


class TestSubspaceValidation:
    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, np.array([[np.nan], [0.0]]))

    def test_one_dimensional_basis_rejected(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            Subspace(3, np.array([1.0, 0.0, 0.0]))

    def test_row_count_must_match_ambient_dim(self):
        with pytest.raises(ValueError, match="basis has 2 rows, ambient dimension is 3"):
            Subspace(3, np.eye(2))

    def test_too_many_columns_rejected(self):
        with pytest.raises(ValueError):
            Subspace(1, np.array([[1.0, 0.0]]))

    def test_family_requires_matching_ambient_dims(self):
        with pytest.raises(DimensionMismatch):
            SubspaceFamily(2, (line(1.0, 0.0), line(1.0, 0.0, 0.0)))

    def test_family_requires_members(self):
        with pytest.raises(ValueError):
            SubspaceFamily(2, ())

    def test_basis_is_read_only(self):
        s = line(1.0, 0.0)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 2.0


class TestProjectionMatrix:
    def test_coordinate_line(self):
        p = projection_matrix(line(1.0, 0.0))
        np.testing.assert_array_equal(p, [[1.0, 0.0], [0.0, 0.0]])

    def test_diagonal_line(self):
        p = projection_matrix(line(1.0, 1.0))
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_projection_laws_random(self):
        rng = np.random.default_rng(11)
        s = random_subspace(rng, 6, 2)
        p = projection_matrix(s)
        np.testing.assert_array_equal(p, p.T)
        assert np.abs(p @ p - p).max() <= 1e-10
        assert abs(np.trace(p) - 2.0) <= 1e-10
        for v in s.basis.T:
            np.testing.assert_allclose(p @ v, v, atol=1e-12)


class TestRestrictedNorm:
    def test_orthogonal_lines(self):
        assert restricted_norm(line(1.0, 0.0), line(0.0, 1.0)) == 0.0

    def test_sixty_degree_lines(self):
        v = restricted_norm(line(1.0, 0.0), line_at_angle(np.pi / 3))
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_identical_lines_hit_one(self):
        assert restricted_norm(line(3.0, 4.0), line(3.0, 4.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_symmetry_and_monte_carlo_oracle(self):
        rng = np.random.default_rng(123)
        m = random_subspace(rng, 8, 3)
        n = random_subspace(rng, 8, 3)
        forward = restricted_norm(m, n)
        backward = restricted_norm(n, m)
        assert abs(forward - backward) <= 1e-12

        # sup over the unit sphere of n, sampled: a lower bound tight to 1e-3
        x = rng.normal(size=(3, 10_000))
        x /= np.linalg.norm(x, axis=0)
        proj_norms = np.linalg.norm(m.basis.T @ (n.basis @ x), axis=0)
        best = proj_norms.max()
        assert best <= forward + 1e-12
        assert forward - best <= 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            restricted_norm(line(1.0, 0.0), line(1.0, 0.0, 0.0))

    def test_invariant_under_respanning(self):
        rng = np.random.default_rng(7)
        m = random_subspace(rng, 9, 3)
        n = random_subspace(rng, 9, 2)
        reference = restricted_norm(m, n)
        for _ in range(5):
            mix = rng.normal(size=(3, 3))
            m2 = orthonormalize(m.basis @ mix)
            assert abs(restricted_norm(m2, n) - reference) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10))
def test_restricted_norm_symmetric_and_in_range(seed, d):
    rng = np.random.default_rng(seed)
    m = random_subspace(rng, d, int(rng.integers(1, d + 1)))
    n = random_subspace(rng, d, int(rng.integers(1, d + 1)))
    v = restricted_norm(m, n)
    assert 0.0 <= v <= 1.0
    assert abs(v - restricted_norm(n, m)) <= 1e-12


class TestMinimalAngle:
    def test_orthogonal(self):
        assert minimal_angle(line(1.0, 0.0), line(0.0, 1.0)) == pytest.approx(
            np.pi / 2
        )

    def test_sixty_degrees(self):
        a = minimal_angle(line(1.0, 0.0), line_at_angle(np.pi / 3))
        assert a == pytest.approx(np.pi / 3, abs=1e-12)

    def test_identical(self):
        assert minimal_angle(line(1.0, 2.0), line(1.0, 2.0)) == pytest.approx(
            0.0, abs=1e-7
        )


class TestSumOperator:
    def test_single_member(self):
        s = line(1.0, 2.0, 2.0)
        f = SubspaceFamily(3, (s,))
        np.testing.assert_array_equal(sum_operator(f), s.basis)

    def test_orthogonal_lines_give_identity(self):
        f = SubspaceFamily(2, (line(1.0, 0.0), line(0.0, 1.0)))
        np.testing.assert_array_equal(sum_operator(f), np.eye(2))

    def test_sixty_degree_lines_singular_values(self):
        f = SubspaceFamily(2, (line(1.0, 0.0), line_at_angle(np.pi / 3)))
        s = sum_operator(f)
        np.testing.assert_allclose(
            s, [[1.0, 0.5], [0.0, np.sqrt(3) / 2]], atol=1e-15
        )
        squared = np.sort(np.linalg.svd(s, compute_uv=False) ** 2)
        np.testing.assert_allclose(squared, [0.5, 1.5], atol=1e-12)
