import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line, line_at_angle, random_subspace
from oracles import svd_cosine_matrix
from sumspaces import (
    EMatrix,
    InconsistencyError,
    NumericalError,
    SubspaceFamily,
    WrongArity,
    build_e_matrix,
    e_matrix_with_bounds,
    evaluate_criterion,
    leading_minors,
    restricted_norm,
    spectral_radius,
    three_subspace_angle_test,
)
from sumspaces import criterion


def hollow_symmetric(rng, n, scale=1.0):
    """Random symmetric hollow nonnegative matrix with entries in [0, scale]."""
    upper = rng.uniform(0.0, scale, size=(n, n))
    e = np.triu(upper, k=1)
    return EMatrix(n, e + e.T)


def ring(n, cosine=0.495):
    """Cycle of n members whose neighbours have the given cosine: r = 2*cosine."""
    e = np.zeros((n, n))
    i = np.arange(n)
    e[i, (i + 1) % n] = e[(i + 1) % n, i] = cosine
    return EMatrix(n, e)


def det_minors(e):
    """Independent oracle: one determinant per leading principal minor of I - E."""
    g = np.eye(e.n) - e.entries
    return np.array([np.linalg.det(g[:m, :m]) for m in range(1, e.n + 1)])


def assert_minors_match_oracle(e):
    got, want = np.array(leading_minors(e)), det_minors(e)
    assert got.shape == want.shape
    resolved = np.abs(want) > 1e-300
    np.testing.assert_allclose(got[resolved], want[resolved], rtol=1e-12, atol=0)


def power_iteration_radius(a, steps=10_000, seed=0):
    """Independent oracle: dominant eigenvalue by plain power iteration."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=a.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(steps):
        y = a @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
    return float(x @ a @ x)


class TestEMatrixValidation:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            EMatrix(2, [[0.0, 0.5], [0.3, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            EMatrix(2, [[0.1, 0.5], [0.5, 0.0]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            EMatrix(2, [[0.0, -0.5], [-0.5, 0.0]])

    def test_repairs_roundoff_noise(self):
        e = EMatrix(2, [[1e-14, 0.5 + 5e-14], [0.5, -1e-14]])
        assert e.entries[0, 0] == 0.0
        assert e.entries[1, 1] == 0.0
        assert e.entries[0, 1] == e.entries[1, 0]

    def test_rejects_wrong_n(self):
        with pytest.raises(ValueError):
            EMatrix(3, [[0.0, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EMatrix(2, [[0.0, bad], [bad, 0.0]])

    def test_largest_doubles_stay_finite(self):
        big = np.finfo(float).max
        e = EMatrix(2, [[0.0, big], [big, 0.0]])
        assert e.entries[0, 1] == e.entries[1, 0] == big


class TestBuildEMatrix:
    def test_single_subspace(self):
        f = SubspaceFamily(2, (line(1.0, 0.0),))
        np.testing.assert_array_equal(build_e_matrix(f).entries, [[0.0]])

    def test_sixty_degree_pair(self):
        f = SubspaceFamily(2, (line(1.0, 0.0), line_at_angle(np.pi / 3)))
        np.testing.assert_allclose(
            build_e_matrix(f).entries, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12
        )

    def test_coordinate_lines_are_mutually_orthogonal(self):
        f = SubspaceFamily(
            3, (line(1, 0, 0), line(0, 1, 0), line(0, 0, 1))
        )
        np.testing.assert_array_equal(build_e_matrix(f).entries, np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_restricted_norm(self, seed):
        # mixed member dimensions, n = 1 included, and one member with k = d
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 9))
        dims = [d] + [int(rng.integers(1, d + 1)) for _ in range(seed)]
        members = tuple(random_subspace(rng, d, k) for k in dims)
        f = SubspaceFamily(d, members)
        expected = np.array(
            [
                [0.0 if i == j else restricted_norm(mi, mj) for j, mj in enumerate(members)]
                for i, mi in enumerate(members)
            ]
        )
        np.testing.assert_allclose(build_e_matrix(f).entries, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "dims", [[1] * 40, [1] * 20 + [2] * 8 + [3] * 4], ids=["lines", "lines-and-planes"]
    )
    def test_line_pairs_match_svd_path(self, dims):
        # two lines read |g_ij| instead of an SVD, bit for bit the same
        rng = np.random.default_rng(11)
        d = 30
        f = SubspaceFamily(d, tuple(random_subspace(rng, d, k) for k in dims))
        np.testing.assert_array_equal(
            build_e_matrix(f).entries, svd_cosine_matrix(f).entries
        )

    def test_mixed_dimensions_keep_memory_within_gram_size(self):
        # many lines plus one member with k = d: padding every member to
        # k = d would need a Gram matrix of (n*d)^2 doubles (87 MB here)
        rng = np.random.default_rng(7)
        d = 100
        members = tuple(random_subspace(rng, d, k) for k in [1] * 30 + [2, 2, d])
        f = SubspaceFamily(d, members)
        build_e_matrix(f)  # first call pays one-off import allocations
        tracemalloc.start()
        try:
            e = build_e_matrix(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram_and_stack_bytes = 8 * (f.total_dim**2 + d * f.total_dim)
        assert peak < 2 * gram_and_stack_bytes
        for i, j in [(0, 1), (0, 30), (30, 31), (29, 32), (31, 32)]:
            assert e.entries[i, j] == pytest.approx(
                restricted_norm(members[i], members[j]), abs=1e-15
            )

    def test_corrupted_basis_raises(self):
        # a basis scaled after validation gives a cosine of 2
        x1, x2 = line(1.0, 0.0), line(1.0, 0.0)
        object.__setattr__(x2, "basis", 2.0 * x2.basis)
        with pytest.raises(NumericalError):
            restricted_norm(x1, x2)
        with pytest.raises(NumericalError):
            build_e_matrix(SubspaceFamily(2, (x1, x2)))


class TestUserSuppliedBounds:
    def test_looser_bounds_accepted(self):
        f = SubspaceFamily(2, (line(1.0, 0.0), line_at_angle(np.pi / 3)))
        e = e_matrix_with_bounds(f, [[0.0, 0.7], [0.7, 0.0]])
        assert e.entries[0, 1] == 0.7

    def test_bounds_below_measured_rejected(self):
        f = SubspaceFamily(2, (line(1.0, 0.0), line_at_angle(np.pi / 3)))
        with pytest.raises(ValueError):
            e_matrix_with_bounds(f, [[0.0, 0.3], [0.3, 0.0]])


class TestSpectralRadius:
    def test_two_by_two(self):
        assert spectral_radius(EMatrix(2, [[0.0, 0.5], [0.5, 0.0]])) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_constant_off_diagonal(self):
        n, eps = 4, 0.3
        e = EMatrix(n, eps * (np.ones((n, n)) - np.eye(n)))
        assert spectral_radius(e) == pytest.approx((n - 1) * eps, abs=1e-12)

    @pytest.mark.parametrize("big", [1e200, 1e300])
    def test_huge_entries_scale_exactly(self, big):
        # the residual check must not square the residual out of range
        e = EMatrix(3, big * (np.ones((3, 3)) - np.eye(3)))
        assert spectral_radius(e) == pytest.approx(2.0 * big, rel=1e-14)

    def test_radius_beyond_largest_double_raises(self):
        e = EMatrix(3, 1e308 * (np.ones((3, 3)) - np.eye(3)))
        with pytest.raises(NumericalError, match="overflows"):
            spectral_radius(e)

    def test_against_power_iteration_oracle(self):
        rng = np.random.default_rng(20)
        e = hollow_symmetric(rng, 5)
        assert spectral_radius(e) == pytest.approx(
            power_iteration_radius(e.entries), abs=1e-8
        )


class TestLeadingMinors:
    def test_two_by_two(self):
        minors = leading_minors(EMatrix(2, [[0.0, 0.5], [0.5, 0.0]]))
        np.testing.assert_allclose(minors, [1.0, 0.75], atol=1e-14)

    def test_three_by_three_boundary(self):
        e = EMatrix(3, 0.5 * (np.ones((3, 3)) - np.eye(3)))
        minors = leading_minors(e)
        np.testing.assert_allclose(minors[:2], [1.0, 0.75], atol=1e-14)
        assert abs(minors[2]) <= 1e-12  # 1 - (3/4 + 1/4) = 0

    def test_zero_matrix(self):
        e = EMatrix(4, np.zeros((4, 4)))
        np.testing.assert_array_equal(leading_minors(e), np.ones(4))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        radius=st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 3.0)),
    )
    def test_matches_det_oracle(self, seed, n, radius):
        # r(E) <= 0.9 keeps I - E and its leading blocks at condition <= 19,
        # so the minors are resolved to a few ulps; r(E) >= 1.1 makes I - E
        # indefinite for n >= 2
        e = hollow_symmetric(np.random.default_rng(seed), n)
        r = spectral_radius(e)
        if r > 0.0:
            e = EMatrix(n, e.entries * (radius / r))
        assert_minors_match_oracle(e)

    @pytest.mark.parametrize("n", [60, 300])
    def test_ring_matches_det_oracle(self, n):
        assert_minors_match_oracle(ring(n))

    def test_indefinite_minors_come_from_det(self):
        e = EMatrix(4, 0.6 * (np.ones((4, 4)) - np.eye(4)))
        minors = leading_minors(e)
        assert minors[-1] < 0.0
        np.testing.assert_array_equal(minors, det_minors(e))

    def test_positive_definite_takes_no_determinant(self, monkeypatch):
        calls = []
        det = np.linalg.det

        def spy(a):
            calls.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", spy)
        leading_minors(ring(60))
        evaluate_criterion(ring(60))
        assert calls == []
        leading_minors(EMatrix(2, [[0.0, 1.5], [1.5, 0.0]]))
        assert calls == [(1, 1), (2, 2)]


class TestAngleSumTest:
    def test_boundary_all_half_excluded(self):
        e = EMatrix(3, 0.5 * (np.ones((3, 3)) - np.eye(3)))
        assert three_subspace_angle_test(e) is False

    def test_orthogonal_family(self):
        assert three_subspace_angle_test(EMatrix(3, np.zeros((3, 3)))) is True

    def test_single_coincident_pair_boundary(self):
        e = EMatrix(3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert three_subspace_angle_test(e) is False

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            three_subspace_angle_test(EMatrix(2, [[0.0, 0.5], [0.5, 0.0]]))

    def test_cosine_above_one_rejected(self):
        e = EMatrix(3, [[0, 1.5, 0], [1.5, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            three_subspace_angle_test(e)


class TestEvaluateCriterion:
    def test_sixty_degree_pair(self):
        f = SubspaceFamily(2, (line(1.0, 0.0), line_at_angle(np.pi / 3)))
        rep = evaluate_criterion(build_e_matrix(f))
        assert rep.satisfied
        assert not rep.boundary
        assert rep.spectral_radius == pytest.approx(0.5, abs=1e-12)
        assert rep.margin == pytest.approx(0.5, abs=1e-12)

    def test_three_by_three_well_above_one(self):
        e = EMatrix(3, 0.6 * (np.ones((3, 3)) - np.eye(3)))
        rep = evaluate_criterion(e)
        assert not rep.satisfied
        assert rep.spectral_radius == pytest.approx(1.2, abs=1e-12)
        assert rep.angle_sum is not None

    def test_boundary_flagged_and_conservative(self):
        e = EMatrix(2, [[0.0, 1.0], [1.0, 0.0]])
        rep = evaluate_criterion(e)
        assert rep.boundary
        assert not rep.satisfied

    @pytest.mark.parametrize("n", [60, 300, 1500])
    def test_cross_check_runs_on_large_rings(self, n, monkeypatch):
        # the smallest minor is about 0.141^n, inside the 1e-12 dead zone
        # for every n here, while the smallest Cholesky pivot stays 0.141
        monkeypatch.setattr(criterion, "spectral_radius", lambda e: 1.01)
        with pytest.raises(InconsistencyError, match="Cholesky"):
            evaluate_criterion(ring(n))

    def test_one_cholesky_per_evaluation(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def spy(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        rep = evaluate_criterion(ring(60))
        assert rep.satisfied
        assert calls == [(60, 60)]

    def test_underflowed_minor_leaves_verdict(self):
        rep = evaluate_criterion(ring(1500))
        assert rep.satisfied
        assert rep.spectral_radius == pytest.approx(0.99, abs=1e-12)
        assert rep.leading_minors[-1] == 0.0

    def test_pivot_in_dead_zone_suspends_cross_check(self, monkeypatch):
        # I - E = [[1, -c], [-c, 1]] has pivots 1 and 1 - c^2 = 2e-14
        c = np.sqrt(1.0 - 2e-14)
        monkeypatch.setattr(criterion, "spectral_radius", lambda e: 1.01)
        rep = evaluate_criterion(EMatrix(2, [[0.0, c], [c, 0.0]]))
        assert not rep.satisfied and not rep.boundary

    def test_randomized_equivalence_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            e = hollow_symmetric(rng, 3)
            rep = evaluate_criterion(e)  # raises InconsistencyError on a bug
            if rep.boundary:
                continue
            by_r = rep.spectral_radius < 1.0
            assert all(m > 0 for m in rep.leading_minors) == by_r
            assert (rep.angle_sum > np.pi) == by_r


class TestSpectralRadiusProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_nonnegative_matrix_bounds(self, seed, n):
        e = hollow_symmetric(np.random.default_rng(seed), n)
        r = spectral_radius(e)
        off_max = e.entries.max()
        row_max = e.entries.sum(axis=1).max()
        assert r >= off_max - 1e-12
        assert r <= row_max + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 4.0))
    def test_scaling(self, seed, c):
        e = hollow_symmetric(np.random.default_rng(seed), 4)
        r = spectral_radius(e)
        scaled = spectral_radius(EMatrix(4, c * e.entries))
        assert scaled == pytest.approx(c * r, rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_entrywise_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        e = hollow_symmetric(rng, 4)
        bigger = hollow_symmetric(rng, 4, scale=0.5)
        combined = EMatrix(4, e.entries + bigger.entries)
        assert spectral_radius(combined) >= spectral_radius(e) - 1e-12
