import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import svd_cosine_matrix
from test_criterion import hollow_symmetric, one_row_perturbed, ring
from sumspaces import (
    CounterexampleSpec,
    EMatrix,
    NotBoundary,
    NotPositiveDefinite,
    NumericalError,
    Subspace,
    SubspaceFamily,
    VerificationFailed,
    build_counterexample,
    build_e_matrix,
    geometric_alphas,
    gram_vectors,
    principal_eigenvector,
    restricted_norm,
    spectral_radius,
    sum_operator,
    verify_counterexample,
)
from sumspaces import counterexamples, io


def all_equal_boundary(n):
    """Off-diagonal entries 1/(n-1): row sums are 1, so r(E) = 1."""
    return EMatrix(n, (np.ones((n, n)) - np.eye(n)) / (n - 1))


def permuted_ring_boundary(n, seed):
    """Ring with neighbour entries 1/2 (r(E) = 1), nodes in a seeded order.

    The matrix of the counterexample-ring benchmark workload.
    """
    perm = np.random.default_rng(seed).permutation(n)
    return EMatrix(n, ring(n, 0.5).entries[np.ix_(perm, perm)])


def random_boundary(seed, n):
    """Random hollow nonnegative matrix rescaled to r(E) = 1."""
    e = hollow_symmetric(np.random.default_rng(seed), n)
    return EMatrix(n, e.entries / spectral_radius(e))


# r = sqrt(2); divided by r alone, its computed radius stayed a rounding
# above 1, which left I - alpha_K*E indefinite at K = 52 and 53
STAR = EMatrix(
    4,
    [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
     [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
)


def sparse_matrix(seed, n, radius):
    """Random hollow nonnegative matrix, about half its pairs zero, r(E) = radius."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
    upper[0, 1] = rng.uniform(0.5, 1.0)  # not all zero
    e = upper + upper.T
    return EMatrix(n, e / np.linalg.eigvalsh(e)[-1] * radius)


def measured_pairs(record):
    return np.array([p.measured for p in record.pairs])


class TestPrincipalEigenvector:
    def test_swap_matrix(self):
        c = principal_eigenvector(EMatrix(2, [[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(c, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_constant_three_by_three(self):
        c = principal_eigenvector(all_equal_boundary(3))
        np.testing.assert_allclose(c, np.full(3, 1 / np.sqrt(3)), atol=1e-12)

    def test_random_rescaled_residual(self):
        rng = np.random.default_rng(8)
        e = hollow_symmetric(rng, 5)
        scaled = EMatrix(5, e.entries / spectral_radius(e))
        c = principal_eigenvector(scaled)
        assert np.linalg.norm(scaled.entries @ c - c) <= 1e-9
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_boundary(self):
        with pytest.raises(NotBoundary):
            principal_eigenvector(EMatrix(2, [[0.0, 0.5], [0.5, 0.0]]))

    def test_wrong_eigenvector_raises(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", one_row_perturbed(np.linalg.eigh))
        with pytest.raises(NumericalError, match="eigenvector residual"):
            principal_eigenvector(EMatrix(2, [[0.0, 1.0], [1.0, 0.0]]))


class TestGramVectors:
    def test_two_vectors_at_hundred_twenty_degrees(self):
        v = gram_vectors(EMatrix(2, [[0.0, 1.0], [1.0, 0.0]]), 0.5)
        assert float(v[:, 0] @ v[:, 1]) == pytest.approx(-0.5, abs=1e-12)
        for col in v.T:
            assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_alpha_is_near_orthonormal(self):
        rng = np.random.default_rng(2)
        e = hollow_symmetric(rng, 4)
        v = gram_vectors(e, 1e-6)
        assert np.abs(v.T @ v - np.eye(4)).max() <= 1e-6 + 1e-10

    def test_factorization_residual(self):
        e = all_equal_boundary(3)
        v = gram_vectors(e, 0.9)
        g = np.eye(3) - 0.9 * e.entries
        assert np.abs(v.T @ v - g).max() <= 1e-10
        assert np.linalg.eigvalsh(v.T @ v)[0] == pytest.approx(0.1, abs=1e-10)

    def test_rejects_alpha_outside_unit_interval(self):
        e = all_equal_boundary(2)
        for alpha in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                gram_vectors(e, alpha)

    def test_not_positive_definite(self):
        # r(E) = 2, so I - 0.9 E is indefinite
        e = EMatrix(3, np.ones((3, 3)) - np.eye(3))
        with pytest.raises(NotPositiveDefinite):
            gram_vectors(e, 0.9)
        with pytest.raises(NotPositiveDefinite):
            gram_vectors(e, (0.25, 0.9))

    @pytest.mark.parametrize(
        "e",
        [permuted_ring_boundary(16, 3), random_boundary(5, 12)],
        ids=["ring", "random"],
    )
    def test_stack_matches_scalar_calls(self, e):
        alphas = geometric_alphas(40)
        stack = gram_vectors(e, alphas)
        assert stack.shape == (40, e.n, e.n)
        for alpha, v in zip(alphas, stack):
            assert np.abs(v - gram_vectors(e, alpha)).max() <= 1e-15

    def test_stack_rejects_any_alpha_outside_unit_interval(self):
        for alphas in ((0.5, 1.0), (0.0, 0.5), (0.5, float("nan"))):
            with pytest.raises(ValueError):
                gram_vectors(all_equal_boundary(3), alphas)

    @pytest.mark.parametrize("alpha", [0.5, geometric_alphas(5)])
    def test_perturbed_eigenvectors_fail_the_residual_check(self, alpha, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            w, u = eigh(a, *args, **kwargs)
            return w, u + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalError, match="Gram factorization residual"):
            gram_vectors(all_equal_boundary(3), alpha)


class TestCounterexampleSpec:
    def test_accepts_boundary_matrix(self):
        spec = CounterexampleSpec(all_equal_boundary(3), geometric_alphas(4))
        assert spec.K == 4

    def test_rescales_radius_above_one_with_notice(self):
        e = EMatrix(3, np.ones((3, 3)) - np.eye(3))  # r = 2
        with pytest.warns(UserWarning, match="rescaling"):
            spec = CounterexampleSpec(e, (0.5,))
        assert spectral_radius(spec.e) == pytest.approx(1.0, abs=1e-9)
        assert spec.e.entries[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert spec.input_radius == pytest.approx(2.0, abs=1e-12)

    def test_rejects_radius_below_one(self):
        with pytest.raises(NotBoundary):
            CounterexampleSpec(EMatrix(2, [[0.0, 0.5], [0.5, 0.0]]), (0.5,))
        with pytest.raises(NotBoundary):
            CounterexampleSpec(EMatrix(2, [[0.0, 1 - 2e-9], [1 - 2e-9, 0.0]]), (0.5,))

    @pytest.mark.parametrize("radius", [1 - 5e-10, 1 + 5e-10])
    def test_radius_inside_band_is_divided_out_quietly(self, radius):
        # no warning: pytest turns one into an error
        e = EMatrix(2, [[0.0, radius], [radius, 0.0]])
        spec = CounterexampleSpec(e, geometric_alphas(53))
        assert spec.input_radius == pytest.approx(radius, abs=1e-15)
        assert spec.e.entries[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert spectral_radius(spec.e) <= 1.0
        assert verify_counterexample(build_counterexample(spec), spec).passed

    def test_rejects_bad_alphas(self):
        e = all_equal_boundary(2)
        with pytest.raises(ValueError):
            CounterexampleSpec(e, (0.5, 0.5))
        with pytest.raises(ValueError):
            CounterexampleSpec(e, (0.0, 0.5))
        with pytest.raises(ValueError):
            CounterexampleSpec(e, ())


class TestEveryBlockCount:
    """Every matrix the spec accepts builds and verifies at up to 53 blocks."""

    @pytest.mark.parametrize("big_k", [52, 53])
    def test_rescaled_star(self, big_k):
        with pytest.warns(UserWarning, match="rescaling"):
            spec = CounterexampleSpec(STAR, geometric_alphas(big_k))
        assert spectral_radius(spec.e) <= 1.0
        assert verify_counterexample(build_counterexample(spec), spec).passed

    def test_seeded_sweep(self):
        radii = [1.0, 1 - 5e-10, 1 + 5e-10, np.sqrt(2), 3.0]
        for seed in range(60):
            radius = radii[seed % len(radii)]
            e = sparse_matrix(seed, 2 + seed % 7, radius)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = CounterexampleSpec(e, geometric_alphas(53))
            assert spectral_radius(spec.e) <= 1.0, seed
            assert verify_counterexample(build_counterexample(spec), spec).passed, seed

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        radius=st.one_of(
            st.sampled_from([1.0, 1 - 5e-10, 1 + 5e-10]), st.floats(1.0, 4.0)
        ),
    )
    def test_stored_radius_is_at_most_one(self, seed, n, radius):
        e = sparse_matrix(seed, n, radius)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = CounterexampleSpec(e, geometric_alphas(53))
        assert spectral_radius(spec.e) <= 1.0
        assert verify_counterexample(build_counterexample(spec), spec).passed


class TestGeometricAlphas:
    def test_schedule(self):
        alphas = geometric_alphas(3)
        np.testing.assert_allclose(alphas, [0.5, 0.75, 0.875])

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            geometric_alphas(0)

    def test_fifty_three_blocks_stay_below_one(self):
        alphas = geometric_alphas(53)
        assert len(alphas) == 53 and max(alphas) < 1.0

    def test_fifty_four_blocks_name_the_limit(self):
        # 1 - 2^-54 rounds to 1.0, which no block may take
        with pytest.raises(ValueError, match="at most 53 blocks"):
            geometric_alphas(54)


class TestBuildCounterexample:
    def test_single_block_two_lines(self):
        spec = CounterexampleSpec(all_equal_boundary(2), (0.5,))
        family = build_counterexample(spec)
        assert family.ambient_dim == 2
        assert family.n == 2
        v = restricted_norm(family.members[0], family.members[1])
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_three_blocks_realize_max_alpha(self):
        spec = CounterexampleSpec(all_equal_boundary(2), (0.5, 0.75, 0.875))
        family = build_counterexample(spec)
        v = restricted_norm(family.members[0], family.members[1])
        assert v == pytest.approx(0.875, abs=1e-12)

    def test_block_structure_and_gram_fidelity(self):
        e = all_equal_boundary(3)
        spec = CounterexampleSpec(e, geometric_alphas(10))
        family = build_counterexample(spec)
        assert family.ambient_dim == 30
        assert all(m.dim == 10 for m in family.members)
        for alpha, v in zip(spec.alphas, gram_vectors(spec.e, spec.alphas)):
            g = np.eye(3) - alpha * e.entries
            assert np.abs(v.T @ v - g).max() <= 1e-10
        # member i, column k is supported on block k only
        basis = family.members[1].basis
        for k in range(10):
            col = basis[:, k]
            assert np.all(col[: 3 * k] == 0.0)
            assert np.all(col[3 * (k + 1):] == 0.0)

    def test_members_hold_the_block_columns(self):
        n, big_k = 5, 7
        spec = CounterexampleSpec(random_boundary(3, n), geometric_alphas(big_k))
        family = build_counterexample(spec)
        for i, member in enumerate(family.members):
            expected = np.zeros((n * big_k, big_k))
            for k, v in enumerate(gram_vectors(spec.e, spec.alphas)):
                expected[k * n:(k + 1) * n, k] = v[:, i]
            assert np.array_equal(member.basis, expected)

    def test_one_eigendecomposition_of_e(self, monkeypatch):
        n, big_k = 16, 40
        spec = CounterexampleSpec(permuted_ring_boundary(n, 3), geometric_alphas(big_k))
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        family = build_counterexample(spec)
        # the Gram factors of all K blocks share one eigh(E)
        assert shapes == [(n, n)]
        monkeypatch.undo()
        blocks = counterexamples._diagonal_blocks(family)
        assert np.array_equal(blocks, gram_vectors(spec.e, spec.alphas))

    def test_measured_e_matrix_is_scaled_input(self):
        e = all_equal_boundary(4)
        spec = CounterexampleSpec(e, geometric_alphas(6))
        family = build_counterexample(spec)
        measured = build_e_matrix(family)
        np.testing.assert_allclose(
            measured.entries, spec.alphas[-1] * e.entries, atol=1e-9
        )


class TestVerifyCounterexample:
    def test_single_block_combination_norm(self):
        spec = CounterexampleSpec(all_equal_boundary(2), (0.5,))
        family = build_counterexample(spec)
        rec = verify_counterexample(family, spec)
        assert rec.passed
        # || (v1 + v2)/sqrt(2) ||^2 = 1 - alpha = 0.5
        combo = gram_vectors(spec.e, spec.alphas)[0] @ principal_eigenvector(spec.e)
        assert float(combo @ combo) == pytest.approx(0.5, abs=1e-10)

    def test_twenty_blocks_degeneration(self):
        spec = CounterexampleSpec(all_equal_boundary(2), geometric_alphas(20))
        family = build_counterexample(spec)
        rec = verify_counterexample(family, spec)
        assert rec.passed
        assert rec.sigma_min > 0.0
        assert rec.sigma_min_sq <= 2.0**-20 + 1e-9
        assert rec.linearly_independent

    def test_single_block_norms_not_yet_at_target(self):
        rng = np.random.default_rng(14)
        e = hollow_symmetric(rng, 3)
        scaled = EMatrix(3, e.entries / spectral_radius(e))
        spec = CounterexampleSpec(scaled, (0.6,))
        family = build_counterexample(spec)
        rec = verify_counterexample(family, spec)
        assert rec.passed
        for pair in rec.pairs:
            expected = 0.6 * scaled.entries[pair.i, pair.j]
            assert pair.measured == pytest.approx(expected, abs=1e-9)

    def test_mismatched_spec_fails_with_record(self):
        e = all_equal_boundary(2)
        family = build_counterexample(CounterexampleSpec(e, (0.5,)))
        with pytest.raises(VerificationFailed) as exc_info:
            verify_counterexample(family, CounterexampleSpec(e, (0.6,)))
        record = exc_info.value.record
        assert record is not None
        assert not record.passed

    @pytest.mark.parametrize("built, checked", [(2, 3), (3, 2)])
    def test_member_count_mismatch_fails_with_record(self, built, checked):
        family = build_counterexample(CounterexampleSpec(all_equal_boundary(built), (0.5,)))
        spec = CounterexampleSpec(all_equal_boundary(checked), (0.5,))
        mismatch = f"{built} members .* {checked} rows"
        with pytest.raises(VerificationFailed, match=mismatch) as exc_info:
            verify_counterexample(family, spec)
        record = exc_info.value.record
        assert not record.passed
        assert len(record.pairs) == 1  # the one pair both sizes have
        assert record.combination_residuals == ()  # (b) needs one c_i per member

    def test_spliced_family_fails_the_combination_check(self):
        # the pairs use alpha_K alone, so only (b) sees the middle block
        e = all_equal_boundary(2)
        family = build_counterexample(CounterexampleSpec(e, (0.5, 0.6, 0.875)))
        spec = CounterexampleSpec(e, (0.5, 0.75, 0.875))
        with pytest.raises(VerificationFailed, match="^block 1: ") as exc_info:
            verify_counterexample(family, spec)
        record = exc_info.value.record
        assert not record.passed
        assert all(abs(p.measured - p.target) <= 1e-9 for p in record.pairs)
        assert [r > 1e-10 for r in record.combination_residuals] == [False, True, False]

    def test_zero_singular_value_fails_independence(self, monkeypatch):
        spec = CounterexampleSpec(all_equal_boundary(2), geometric_alphas(3))
        family = build_counterexample(spec)
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: 0.0 * svd(a, **kw))
        with pytest.raises(VerificationFailed, match="sigma_min is not positive") as exc_info:
            verify_counterexample(family, spec)
        record = exc_info.value.record
        assert record.sigma_min == 0.0
        assert not record.linearly_independent and not record.passed

    def test_degeneration_trend(self):
        e = all_equal_boundary(2)
        values = []
        for big_k in (5, 10, 15, 20):
            spec = CounterexampleSpec(e, geometric_alphas(big_k))
            family = build_counterexample(spec)
            sq = np.linalg.svd(sum_operator(family), compute_uv=False)[-1] ** 2
            assert sq <= (1.0 - spec.alphas[-1]) + 1e-9
            values.append(sq)
        assert all(b < a for a, b in zip(values, values[1:]))


def _stray_entry(family):
    """The family with one entry of member 0 moved outside its blocks."""
    n = family.n
    basis = family.members[0].basis.copy()
    basis[n, 0] = 1e-12  # block-1 coordinates, column 0
    return (Subspace(basis.shape[0], basis), *family.members[1:])


def _padded(family):
    """Every member embedded in one more coordinate: R^(n*K + 1)."""
    return tuple(
        Subspace(m.ambient_dim + 1, np.vstack([m.basis, np.zeros((1, m.dim))]))
        for m in family.members
    )


def _short_member(family):
    """Member 0 without its first block: dimensions K - 1 and K."""
    first = family.members[0]
    return (Subspace(first.ambient_dim, first.basis[:, 1:]), *family.members[1:])


class TestBlockSingularValues:
    """sigma(S) is read from the K diagonal n x n blocks of S."""

    @pytest.mark.parametrize("n, big_k", [(2, 1), (2, 20), (3, 3), (16, 40)])
    def test_matches_full_svd(self, n, big_k):
        spec = CounterexampleSpec(all_equal_boundary(n), geometric_alphas(big_k))
        family = build_counterexample(spec)
        full = np.linalg.svd(sum_operator(family), compute_uv=False)[-1]
        assert abs(verify_counterexample(family, spec).sigma_min - full) <= 1e-15

    @pytest.mark.parametrize("alter", [_stray_entry, _padded, _short_member])
    def test_off_block_support_fails_with_an_empty_record(self, alter):
        spec = CounterexampleSpec(all_equal_boundary(3), geometric_alphas(3))
        members = alter(build_counterexample(spec))
        altered = SubspaceFamily(members[0].ambient_dim, members)
        with pytest.raises(VerificationFailed, match=r"\[k\*n, \(k\+1\)\*n\)") as exc_info:
            verify_counterexample(altered, spec)
        assert "not block diagonal" in str(exc_info.value)
        record = exc_info.value.record
        assert (record.pairs, record.combination_residuals) == ((), ())
        assert record.sigma_min is None and record.sigma_min_sq is None
        assert not record.linearly_independent and not record.passed
        assert record.degeneration_limit == 1.0 - spec.alphas[-1]
        json.dumps(vars(record), allow_nan=False)

    def test_no_svd_of_the_whole_operator(self, monkeypatch):
        n, big_k = 16, 40
        spec = CounterexampleSpec(all_equal_boundary(n), geometric_alphas(big_k))
        family = build_counterexample(spec)
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert verify_counterexample(family, spec).passed
        assert shapes
        assert max(max(shape[-2:]) for shape in shapes) <= max(n, big_k)


# the TestBlockSingularValues families and the benchmark's permuted ring
BLOCK_FAMILIES = [
    pytest.param(all_equal_boundary(n), big_k, id=f"all-equal-{n}x{big_k}")
    for n, big_k in [(2, 1), (2, 20), (3, 3), (16, 40)]
] + [pytest.param(permuted_ring_boundary(16, 3), 40, id="ring-16x40")]


class TestBlockCosines:
    """Pair cosines are read from the K diagonal blocks, as max_k |(V_k'V_k)_ij|."""

    @pytest.mark.parametrize("e, big_k", BLOCK_FAMILIES)
    def test_forms_no_sum_operator_or_gram(self, e, big_k):
        spec = CounterexampleSpec(e, geometric_alphas(big_k))
        family = build_counterexample(spec)
        # no name left to call: the verifier has one path, the block path
        assert not hasattr(counterexamples, "sum_operator")
        assert not hasattr(counterexamples, "_cosine_matrix")
        assert verify_counterexample(family, spec).passed

    @pytest.mark.parametrize("e, big_k", BLOCK_FAMILIES)
    def test_pairs_match_svd_oracle(self, e, big_k):
        spec = CounterexampleSpec(e, geometric_alphas(big_k))
        family = build_counterexample(spec)
        record = verify_counterexample(family, spec)
        rows, cols = np.triu_indices(e.n, 1)
        expected = svd_cosine_matrix(family).entries[rows, cols]
        assert np.array_equal(measured_pairs(record), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_boundary_pairs_within_roundoff(self, seed):
        # V_k'V_k and S'S sum the same products in different orders
        n, big_k = 30, 10
        spec = CounterexampleSpec(random_boundary(seed, n), geometric_alphas(big_k))
        family = build_counterexample(spec)
        record = verify_counterexample(family, spec)
        rows, cols = np.triu_indices(n, 1)
        expected = svd_cosine_matrix(family).entries[rows, cols]
        assert np.abs(measured_pairs(record) - expected).max() <= 1e-15


class TestCombinationResiduals:
    """Check (b) reads the family's (K, n, n) stack of block vectors in one product."""

    @pytest.mark.parametrize(
        "e, big_k",
        BLOCK_FAMILIES
        + [
            pytest.param(
                random_boundary(seed, 3 + 5 * seed), big_k, id=f"random-{seed}x{big_k}"
            )
            for seed, big_k in [(0, 1), (1, 7), (2, 40), (3, 53)]
        ],
    )
    def test_one_residual_per_alpha_as_per_block(self, e, big_k):
        spec = CounterexampleSpec(e, geometric_alphas(big_k))
        family = build_counterexample(spec)
        blocks, c = gram_vectors(spec.e, spec.alphas), principal_eigenvector(spec.e)
        assert blocks.shape == (big_k, e.n, e.n)
        record = verify_counterexample(family, spec)
        residuals = record.combination_residuals
        assert len(residuals) == spec.K
        for resid, alpha, v in zip(residuals, spec.alphas, blocks):
            # the same residual, one block at a time
            assert resid == abs(float(np.sum((v @ c) ** 2)) - (1.0 - alpha))
            assert resid <= 1e-10

    @pytest.mark.parametrize("held", [2, 4])
    def test_block_count_mismatch_fails_with_record(self, held):
        # the longer schedule is the shorter one plus an alpha 2^-40 above
        # its last, so the pair cosines agree to within tolerance and the
        # block count is the first check to fail
        e = EMatrix(2, [[0, 1], [1, 0]])
        shorter = geometric_alphas(min(held, 3))
        longer = shorter + (shorter[-1] + 2.0**-40,)
        built, checked = (shorter, longer) if held == 2 else (longer, shorter)
        spec = CounterexampleSpec(e, checked)
        family = build_counterexample(CounterexampleSpec(e, built))
        mismatch = f"{held} blocks .* 3 alphas"
        with pytest.raises(VerificationFailed, match=mismatch) as exc_info:
            verify_counterexample(family, spec)
        record = exc_info.value.record
        assert not record.passed
        # the residuals of the blocks that both sides have
        expected = verify_counterexample(build_counterexample(spec), spec)
        assert record.combination_residuals == expected.combination_residuals[:held]


class TestStackedMembers:
    """Built members are read-only views of one (n, nK, K) stack."""

    FAMILIES = BLOCK_FAMILIES + [
        pytest.param(random_boundary(1, 8), 7, id="random-1x7"),
        pytest.param(random_boundary(3, 18), 53, id="random-3x53"),
    ]

    @pytest.mark.parametrize("e, big_k", FAMILIES)
    def test_members_are_read_only_views_of_one_stack(self, e, big_k):
        spec = CounterexampleSpec(e, geometric_alphas(big_k))
        family = build_counterexample(spec)
        blocks = gram_vectors(spec.e, spec.alphas)
        d, ks = e.n * big_k, np.arange(big_k)
        stack = family.members[0].basis.base
        assert stack.shape == (e.n, d, big_k)
        for i, member in enumerate(family.members):
            assert member.basis.base is stack
            # the member as it was built one at a time, through the constructor
            basis = np.zeros((d, big_k))
            basis.reshape(big_k, e.n, big_k)[ks, :, ks] = blocks[:, :, i]
            assert np.array_equal(member.basis, Subspace(d, basis).basis)
            with pytest.raises(ValueError, match="read-only"):
                member.basis[0, 0] = 0.5

    @pytest.mark.parametrize("e, big_k", FAMILIES)
    def test_copied_members_write_and_verify_the_same(self, e, big_k, tmp_path):
        spec = CounterexampleSpec(e, geometric_alphas(big_k))
        family = build_counterexample(spec)
        d = family.ambient_dim
        copied = SubspaceFamily(
            d, tuple(Subspace(d, m.basis.copy()) for m in family.members)
        )
        stacked_path, copied_path = tmp_path / "stacked.json", tmp_path / "copied.json"
        io.save_family(stacked_path, family)
        io.save_family(copied_path, copied)
        assert stacked_path.read_text() == copied_path.read_text()
        assert verify_counterexample(family, spec) == verify_counterexample(copied, spec)


class TestWrittenFamily:
    """The family file the writer gives verifies as the family in memory."""

    @pytest.mark.parametrize(
        "e, big_k",
        [
            pytest.param(permuted_ring_boundary(16, 3), 40, id="ring-16x40"),
            pytest.param(ring(4, 0.5), 53, id="ring-4x53"),
        ],
    )
    def test_reloaded_family_verifies_the_same(self, e, big_k, tmp_path):
        spec = CounterexampleSpec(e, geometric_alphas(big_k))
        family = build_counterexample(spec)
        path = tmp_path / "family.json"
        io.save_family(path, family)
        loaded, _ = io.load_family(path)
        record = verify_counterexample(loaded, spec)
        assert record.passed
        assert record == verify_counterexample(family, spec)
