import tracemalloc

import numpy as np
import pytest

from conftest import line, line_at_angle, random_subspace, sample_family_with_radius_at_most
from oracles import error_series
from sumspaces import (
    CriterionNotSatisfied,
    InconsistencyError,
    SubspaceFamily,
    build_e_matrix,
    convergence_report,
    evaluate_criterion,
    iterate_projection,
    linear_independence_check,
    oracle_projection,
    orthonormalize,
    projection_matrix,
    spectral_radius,
    sum_of_projections,
    sum_operator,
)


def spectral_norm(x):
    return np.linalg.norm(x, 2)


def orthogonal_pair():
    return SubspaceFamily(2, (line(1.0, 0.0), line(0.0, 1.0)))


def sixty_degree_pair():
    return SubspaceFamily(2, (line(1.0, 0.0), line_at_angle(np.pi / 3)))


class TestSumOfProjections:
    def test_orthogonal_lines_give_identity(self):
        np.testing.assert_allclose(
            sum_of_projections(orthogonal_pair()), np.eye(2), atol=1e-15
        )

    def test_single_subspace(self):
        s = line(1.0, 2.0, 3.0)
        f = SubspaceFamily(3, (s,))
        np.testing.assert_array_equal(sum_of_projections(f), projection_matrix(s))

    def test_sixty_degree_eigenvalues(self):
        w = np.linalg.eigvalsh(sum_of_projections(sixty_degree_pair()))
        np.testing.assert_allclose(w, [0.5, 1.5], atol=1e-12)


class TestIterateProjection:
    def test_first_iterate_is_a(self):
        f = sixty_degree_pair()
        np.testing.assert_allclose(
            iterate_projection(f, 1), sum_of_projections(f), atol=1e-15
        )

    def test_orthogonal_lines_converged_at_once(self):
        for n in (1, 3, 10):
            np.testing.assert_array_equal(
                iterate_projection(orthogonal_pair(), n), np.eye(2)
            )

    def test_sixty_degree_geometric_decay(self):
        it = iterate_projection(sixty_degree_pair(), 20)
        err = spectral_norm(it - np.eye(2))
        assert err == pytest.approx(0.5**20, rel=1e-12)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            iterate_projection(sixty_degree_pair(), 0)

    def test_runs_even_when_criterion_fails(self):
        dup = SubspaceFamily(2, (line(1.0, 0.0), line(1.0, 0.0)))
        it = iterate_projection(dup, 5)
        assert it.shape == (2, 2)


class TestOracleProjection:
    def test_single_subspace(self):
        s = line(1.0, 2.0, 3.0)
        f = SubspaceFamily(3, (s,))
        np.testing.assert_array_equal(oracle_projection(f), projection_matrix(s))

    def test_two_independent_lines_span_the_plane(self):
        np.testing.assert_array_equal(oracle_projection(sixty_degree_pair()), np.eye(2))

    def test_membership_oracle_random(self):
        rng = np.random.default_rng(5)
        while True:
            members = tuple(random_subspace(rng, 8, 2) for _ in range(3))
            f = SubspaceFamily(8, members)
            if spectral_radius(build_e_matrix(f)) < 1.0:
                break
        p = oracle_projection(f)
        assert np.trace(p) == pytest.approx(6.0, abs=1e-9)
        for m in members:
            x = m.basis @ rng.normal(size=(2, 100))
            assert np.abs(p @ x - x).max() <= 1e-9

    def test_oracle_laws(self):
        rng = np.random.default_rng(17)
        members = tuple(random_subspace(rng, 9, 2) for _ in range(3))
        f = SubspaceFamily(9, members)
        p = oracle_projection(f)
        np.testing.assert_array_equal(p, p.T)
        assert np.abs(p @ p - p).max() <= 1e-10
        for m in members:
            pm = projection_matrix(m)
            assert np.abs(p @ pm - pm).max() <= 1e-10


class TestConvergenceReport:
    def test_orthogonal_lines_exact(self):
        rep = convergence_report(orthogonal_pair(), 5)
        assert rep.r == 0.0
        for step in rep.steps:
            assert step.error == 0.0
            assert step.bound == 0.0

    def test_sixty_degree_exact_decay(self):
        rep = convergence_report(sixty_degree_pair(), 10)
        for step in rep.steps:
            assert step.error == pytest.approx(0.5**step.N, abs=1e-12)
            assert step.bound == pytest.approx(0.5**step.N, rel=1e-15)

    def test_random_families_respect_certified_bound(self):
        rng = np.random.default_rng(31)
        while True:
            members = tuple(random_subspace(rng, 9, 2) for _ in range(3))
            f = SubspaceFamily(9, members)
            if spectral_radius(build_e_matrix(f)) < 0.9:
                break
        rep = convergence_report(f, 50)
        for step in rep.steps:
            assert step.error <= step.bound + 1e-9

    def test_frame_bounds_and_restricted_deviation(self):
        rng = np.random.default_rng(57)
        f = sample_family_with_radius_at_most(rng, 0.9)
        rep = convergence_report(f, 10)
        assert rep.frame_lower >= 1.0 - rep.r - 1e-9
        assert rep.frame_upper <= 1.0 + rep.r + 1e-9
        assert rep.a_restricted_deviation <= rep.r + 1e-9

    def test_lower_spectrum_sets_contraction_factor(self):
        # Three lines of R^3 with pairwise inner products -0.3: G has
        # eigenvalues 0.4 and 1.3 (twice), so the bottom of the spectrum
        # decides rho = 0.6, which here equals r.
        gram = np.full((3, 3), -0.3) + 1.3 * np.eye(3)
        rows = np.linalg.cholesky(gram)
        f = SubspaceFamily(3, tuple(line(*row) for row in rows))
        rep = convergence_report(f, 30)
        assert rep.frame_lower == pytest.approx(0.4, rel=0, abs=1e-14)
        assert rep.frame_upper == pytest.approx(1.3, rel=0, abs=1e-14)
        assert rep.a_restricted_deviation == pytest.approx(0.6, rel=0, abs=1e-14)
        expected = error_series(np.eye(3) - gram, 30)
        np.testing.assert_allclose(
            [s.error for s in rep.steps], expected, rtol=1e-12, atol=0
        )

    def test_errors_monotone(self):
        rng = np.random.default_rng(77)
        f = sample_family_with_radius_at_most(rng, 0.95)
        rep = convergence_report(f, 40)
        errors = [s.error for s in rep.steps]
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev + 1e-12

    def test_splitting_against_oracle(self):
        rng = np.random.default_rng(13)
        f = sample_family_with_radius_at_most(rng, 0.9)
        a = sum_of_projections(f)
        p = oracle_projection(f)
        comp = np.eye(f.ambient_dim) - p
        assert spectral_norm(comp @ a) <= 1e-9
        assert spectral_norm(a @ comp) <= 1e-9

    def test_refuses_boundary_family(self):
        dup = SubspaceFamily(2, (line(1.0, 0.0), line(1.0, 0.0)))
        with pytest.raises(CriterionNotSatisfied) as exc_info:
            convergence_report(dup, 5)
        report = exc_info.value.report
        assert report is not None
        assert report.boundary
        assert not report.satisfied

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            convergence_report(orthogonal_pair(), 0)

    def test_memory_stays_below_one_ambient_matrix(self):
        # Three 4-dimensional members of R^2000: the report needs O(dK + K^2)
        # memory, far below a quarter of one d x d float64 array (8 MB).
        d = 2000
        rng = np.random.default_rng(2)
        f = SubspaceFamily(d, tuple(random_subspace(rng, d, 4) for _ in range(3)))
        tracemalloc.start()
        try:
            convergence_report(f, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8 / 4


def orthogonal_planes():
    """Two orthogonal planes in R^6: orthonormal, but not spanning."""
    e = np.eye(6)
    return SubspaceFamily(6, (orthonormalize(e[:, :2]), orthonormalize(e[:, 2:4])))


def spanning_family():
    """Members of dimensions 3, 4 and 5 spanning R^12 (K = d, r ~ 0.38).

    Cut from an orthonormal basis of R^12 perturbed by 0.05 noise.
    """
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    m = q + 0.05 * rng.normal(size=(12, 12))
    members = tuple(orthonormalize(m[:, i:j]) for i, j in ((0, 3), (3, 7), (7, 12)))
    return SubspaceFamily(12, members)


def shared_factorization_families():
    families = [
        pytest.param(
            sample_family_with_radius_at_most(np.random.default_rng(seed), 0.9),
            id=f"seed-{seed}",
        )
        for seed in (3, 19, 23, 61)
    ]
    mixed = sample_family_with_radius_at_most(
        np.random.default_rng(8), 0.8, n_range=(4, 6), d_range=(30, 40), max_member_dim=6
    )
    assert len({m.dim for m in mixed.members}) > 1
    families.append(pytest.param(mixed, id="mixed-dimensions"))
    spanning = spanning_family()
    assert sum(m.dim for m in spanning.members) == spanning.ambient_dim
    families.append(pytest.param(spanning, id="spanning"))
    families.append(pytest.param(orthogonal_planes(), id="orthogonal-planes"))
    return families


class TestSharedFactorization:
    """The report's readings agree with their separate factorizations."""

    @pytest.fixture(params=shared_factorization_families())
    def family(self, request):
        return request.param

    def test_frame_bounds_are_extreme_squared_singular_values(self, family):
        rep = convergence_report(family, 5)
        sigma = np.linalg.svd(sum_operator(family), compute_uv=False)
        assert rep.frame_lower == pytest.approx(sigma[-1] ** 2, rel=0, abs=1e-13)
        assert rep.frame_upper == pytest.approx(sigma[0] ** 2, rel=0, abs=1e-13)

    def test_restricted_deviation_is_compressed_norm(self, family):
        rep = convergence_report(family, 5)
        d = family.ambient_dim
        q = orthonormalize(sum_operator(family)).basis
        compressed = q.T @ (sum_of_projections(family) - np.eye(d)) @ q
        expected = np.linalg.norm(compressed, 2)
        assert rep.a_restricted_deviation == pytest.approx(expected, rel=0, abs=1e-13)

    def test_criterion_matches_separate_e_matrix(self, family):
        # the report cuts E from the Gram matrix it iterates with
        rep = convergence_report(family, 5)
        alone = evaluate_criterion(build_e_matrix(family))
        assert rep.criterion.spectral_radius == pytest.approx(
            alone.spectral_radius, rel=0, abs=1e-15
        )
        np.testing.assert_allclose(
            rep.criterion.leading_minors, alone.leading_minors, rtol=0, atol=1e-15
        )

    def test_errors_match_series_against_oracle(self, family):
        n_max = 40
        rep = convergence_report(family, n_max)
        d = family.ambient_dim
        base = np.eye(d) - oracle_projection(family)
        m = np.eye(d) - sum_of_projections(family)
        expected = [
            spectral_norm(base - np.linalg.matrix_power(m, n))
            for n in range(1, n_max + 1)
        ]
        errors = [s.error for s in rep.steps]
        np.testing.assert_allclose(errors, expected, rtol=0, atol=1e-13)

    def test_errors_follow_contraction_factor(self, family):
        # The closed form rho^N against the K x K chain of I - G walked
        # step by step: neither has an absolute roundoff floor, so they
        # agree to a relative 1e-11 down to rho^60.
        n_max = 60
        rep = convergence_report(family, n_max)
        s = sum_operator(family)
        g = s.T @ s
        expected = error_series(np.eye(g.shape[0]) - (g + g.T) / 2.0, n_max)
        errors = [step.error for step in rep.steps]
        np.testing.assert_allclose(errors, expected, rtol=1e-11, atol=0)

    def test_orthogonal_planes_converge_at_once(self):
        rep = convergence_report(orthogonal_planes(), 10)
        assert rep.frame_lower == rep.frame_upper == 1.0
        assert rep.a_restricted_deviation == 0.0
        assert all(s.error <= 1e-14 for s in rep.steps)


class TestLinearIndependenceCheck:
    def test_identical_lines_dependent(self):
        dup = SubspaceFamily(2, (line(1.0, 0.0), line(1.0, 0.0)))
        ok, sigma = linear_independence_check(dup)
        assert not ok
        assert sigma <= 1e-12

    def test_sixty_degree_lines(self):
        ok, sigma = linear_independence_check(sixty_degree_pair())
        assert ok
        assert sigma == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_coordinate_lines(self):
        f = SubspaceFamily(3, (line(1, 0, 0), line(0, 1, 0), line(0, 0, 1)))
        ok, sigma = linear_independence_check(f)
        assert ok
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_frame_bound_violation_raises(self, monkeypatch):
        # r = 0.5 bounds sigma_min below by sqrt(0.5); halved, it falls short
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: 0.5 * svd(a, **kw))
        with pytest.raises(InconsistencyError, match="frame bound"):
            linear_independence_check(sixty_degree_pair())

    def test_frame_lower_bound_enforced(self):
        rng = np.random.default_rng(41)
        f = sample_family_with_radius_at_most(rng, 0.9)
        ok, sigma = linear_independence_check(f)
        r = spectral_radius(build_e_matrix(f))
        assert ok
        assert sigma >= np.sqrt(1.0 - r) - 1e-9
