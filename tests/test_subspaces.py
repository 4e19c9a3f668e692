import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine, line, line_at_angle, random_subspace
from oracles import per_member_basis, projection_matrix
from sumspaces import (
    AllZeroInput,
    DimensionMismatch,
    Subspace,
    SubspaceFamily,
    orthonormalize,
    orthonormalize_all,
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


def spanning_set(rng, d, m, kind):
    """A d x m spanning set: ``random`` columns of random length,
    ``orthonormal`` columns (random ones when m > d), or ``deficient``
    columns of rank below min(d, m) (full rank when that is 1)."""
    if kind == "orthonormal" and m <= d:
        return np.linalg.qr(rng.normal(size=(d, m)))[0]
    if kind == "deficient" and min(d, m) > 1:
        r = int(rng.integers(1, min(d, m)))
        return rng.normal(size=(d, r)) @ rng.normal(size=(r, m))
    return rng.normal(size=(d, m)) * rng.uniform(0.5, 2.0, size=m)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(
        st.tuples(
            st.integers(1, 5),
            st.integers(1, 6),
            st.sampled_from(["random", "orthonormal", "deficient"]),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_batch_equals_member_by_member(seed, shapes):
    rng = np.random.default_rng(seed)
    raws = [spanning_set(rng, d, m, kind) for d, m, kind in shapes]
    batch = orthonormalize_all(raws)
    assert len(batch) == len(raws)
    for raw, sub, (d, m, kind) in zip(raws, batch, shapes):
        assert np.array_equal(sub.basis, orthonormalize(raw).basis)
        assert np.array_equal(sub.basis, per_member_basis(raw))
        if kind == "orthonormal" and m <= d:
            assert np.array_equal(sub.basis, raw)


class TestOrthonormalizeAll:
    def test_empty_batch(self):
        assert orthonormalize_all([]) == []

    def test_wide_sets_skip_the_gram_test(self, svd_shapes):
        rng = np.random.default_rng(5)
        raws = [rng.normal(size=(3, 5)), np.eye(3, 5), rng.normal(size=(3, 1))]
        subs = orthonormalize_all(raws)
        # more columns than rows: never orthonormal, so all take the SVD
        assert sorted(svd_shapes) == [(1, 3, 1), (2, 3, 5)]
        assert [s.dim for s in subs] == [3, 3, 1]

    def test_first_all_zero_set_is_named_by_index(self):
        raws = [np.ones((3, 1)), np.zeros((2, 2)), np.zeros((3, 1))]
        # the (3, 1) group holds the later zero set and comes first
        with pytest.raises(AllZeroInput, match="numerically zero") as info:
            orthonormalize_all(raws)
        assert info.value.index == 1

    def test_rejects_a_set_that_is_not_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            orthonormalize_all([np.eye(2), np.ones(2)])

    def test_members_view_one_read_only_stack_per_shape(self):
        rng = np.random.default_rng(8)
        # the rank-one (4, 2) set lands among the (4, 1) bases
        raws = [rng.normal(size=(4, 1)), np.ones((4, 2)), rng.normal(size=(4, 3)),
                np.eye(4, 1)]
        subs = orthonormalize_all(raws)
        assert [s.dim for s in subs] == [1, 1, 3, 1]
        lines = [subs[0], subs[1], subs[3]]
        assert all(s.basis.base is lines[0].basis.base for s in lines)
        assert subs[2].basis.base is not lines[0].basis.base
        for raw, sub in zip(raws, subs):
            assert np.array_equal(sub.basis, Subspace(4, per_member_basis(raw)).basis)
            with pytest.raises(ValueError, match="read-only"):
                sub.basis[0, 0] = 2.0

    def test_stack_check_gives_the_constructor_message(self, monkeypatch):
        raw = np.array([[3.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        svd = np.linalg.svd

        def doubled(a, *args, **kwargs):
            u, s, vt = svd(a, *args, **kwargs)
            return 2.0 * u, s, vt

        monkeypatch.setattr(np.linalg, "svd", doubled)
        with pytest.raises(ValueError) as batched:
            orthonormalize_all([np.eye(3, 1), raw])
        bad_basis = doubled(raw, full_matrices=False)[0]
        monkeypatch.undo()
        with pytest.raises(ValueError) as single:
            Subspace(3, bad_basis)
        assert str(batched.value) == str(single.value)
        assert str(single.value).startswith("basis columns are not orthonormal")


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


class TestCosine:
    def test_orthogonal_lines(self):
        assert cosine(line(1.0, 0.0), line(0.0, 1.0)) == 0.0

    def test_sixty_degree_lines(self):
        v = cosine(line(1.0, 0.0), line_at_angle(np.pi / 3))
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_identical_lines_hit_one(self):
        assert cosine(line(3.0, 4.0), line(3.0, 4.0)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_monte_carlo_oracle(self):
        rng = np.random.default_rng(123)
        m = random_subspace(rng, 8, 3)
        n = random_subspace(rng, 8, 3)
        forward = cosine(m, n)
        backward = cosine(n, m)
        assert abs(forward - backward) <= 1e-12

        # sup over the unit sphere of n, sampled: a lower bound tight to 1e-3
        x = rng.normal(size=(3, 10_000))
        x /= np.linalg.norm(x, axis=0)
        proj_norms = np.linalg.norm(m.basis.T @ (n.basis @ x), axis=0)
        best = proj_norms.max()
        assert best <= forward + 1e-12
        assert forward - best <= 1e-3

    def test_invariant_under_respanning(self):
        rng = np.random.default_rng(7)
        m = random_subspace(rng, 9, 3)
        n = random_subspace(rng, 9, 2)
        reference = cosine(m, n)
        for _ in range(5):
            mix = rng.normal(size=(3, 3))
            m2 = orthonormalize(m.basis @ mix)
            assert abs(cosine(m2, n) - reference) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10))
def test_cosine_symmetric_and_in_range(seed, d):
    rng = np.random.default_rng(seed)
    m = random_subspace(rng, d, int(rng.integers(1, d + 1)))
    n = random_subspace(rng, d, int(rng.integers(1, d + 1)))
    v = cosine(m, n)
    assert 0.0 <= v <= 1.0
    assert abs(v - cosine(n, m)) <= 1e-12


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
