"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single pass line on success (visible with pytest -s);
a failure surfaces through the assertion itself.
"""

import json

import numpy as np
import pytest

from conftest import line, line_at_angle, random_subspace, sample_family_with_radius_at_most
from sumspaces import (
    CounterexampleSpec,
    EMatrix,
    SubspaceFamily,
    build_counterexample,
    convergence_report,
    geometric_alphas,
    gram_vectors,
    leading_minors,
    principal_eigenvector,
    restricted_norm,
    spectral_radius,
    sum_operator,
    three_subspace_angle_test,
    verify_counterexample,
)
from sumspaces.cli import main


@pytest.fixture(scope="module")
def certified_families():
    """100 random families with measured spectral radius at most 0.9."""
    rng = np.random.default_rng(20240601)
    families = [
        sample_family_with_radius_at_most(
            rng, 0.9, n_range=(2, 5), d_range=(12, 30), max_member_dim=3
        )
        for _ in range(100)
    ]
    return [(f, convergence_report(f, 50)) for f in families]


def test_criterion_1_certified_convergence(certified_families):
    for _, report in certified_families:
        for step in report.steps:
            assert step.error <= report.r**step.N + 1e-9, (
                f"error {step.error} above bound at N={step.N}, r={report.r}"
            )
    print("criterion 1 (certified convergence, 100 families, N <= 50): PASS")


def test_criterion_2_exact_two_line_decay():
    for degrees in (30, 60, 80):
        theta = np.radians(degrees)
        c = np.cos(theta)
        family = SubspaceFamily(2, (line(1.0, 0.0), line_at_angle(theta)))
        report = convergence_report(family, 30)
        for step in report.steps:
            expected = c**step.N
            assert abs(step.error - expected) <= 1e-10 * expected, (
                f"theta={degrees}, N={step.N}: {step.error} vs {expected}"
            )
    print("criterion 2 (exact 2x2 decay at 30/60/80 degrees, N <= 30): PASS")


def test_criterion_3_frame_bounds(certified_families):
    for family, report in certified_families:
        squared = np.linalg.svd(sum_operator(family), compute_uv=False) ** 2
        assert squared.min() >= 1.0 - report.r - 1e-9
        assert squared.max() <= 1.0 + report.r + 1e-9
        assert report.a_restricted_deviation <= report.r + 1e-9
    print("criterion 3 (frame bounds and restricted deviation): PASS")


def test_criterion_4_angle_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        m = random_subspace(rng, 10, int(rng.integers(1, 6)))
        n = random_subspace(rng, 10, int(rng.integers(1, 6)))
        assert abs(restricted_norm(m, n) - restricted_norm(n, m)) <= 1e-12
    print("criterion 4 (angle symmetry, 1000 pairs in R^10): PASS")


def test_criterion_5_criterion_equivalences():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(1000):
        upper = np.triu(rng.uniform(0.0, 1.0, size=(3, 3)), k=1)
        e = EMatrix(3, upper + upper.T)
        r = spectral_radius(e)
        if abs(r - 1.0) <= 1e-9:
            continue
        a, b, c = e.entries[0, 1], e.entries[1, 2], e.entries[2, 0]
        verdicts = (
            r < 1.0,
            all(m > 0.0 for m in leading_minors(e)),
            a * a + b * b + c * c + 2.0 * a * b * c < 1.0,
            three_subspace_angle_test(e),
        )
        assert len(set(verdicts)) == 1, f"formulations disagree: {verdicts} for {e.entries}"
        checked += 1
    assert checked > 900
    print(f"criterion 5 (equivalent formulations, {checked} matrices): PASS")


def test_criterion_6_counterexample_fidelity():
    for n in (2, 3, 4):
        e = EMatrix(n, (np.ones((n, n)) - np.eye(n)) / (n - 1))
        spec = CounterexampleSpec(e, geometric_alphas(20))
        record = verify_counterexample(build_counterexample(spec), spec)

        c = principal_eigenvector(spec.e)
        for alpha, v in zip(spec.alphas, gram_vectors(spec.e, spec.alphas)):
            gram_target = np.eye(n) - alpha * e.entries
            assert np.abs(v.T @ v - gram_target).max() <= 1e-10
            combo = v @ c
            assert abs(float(combo @ combo) - (1.0 - alpha)) <= 1e-10

        alpha_max = 1.0 - 2.0**-20
        for pair in record.pairs:
            assert abs(pair.measured - alpha_max * e.entries[pair.i, pair.j]) <= 1e-9

        assert record.sigma_min_sq <= 2.0**-20 + 1e-9
        assert record.sigma_min > 0.0
    print("criterion 6 (counterexample fidelity, n in {2,3,4}, K=20): PASS")


def test_criterion_7_degeneration_trend():
    e = EMatrix(2, [[0.0, 1.0], [1.0, 0.0]])
    previous = np.inf
    for big_k in (5, 10, 15, 20):
        spec = CounterexampleSpec(e, geometric_alphas(big_k))
        family = build_counterexample(spec)
        sigma_min_sq = np.linalg.svd(sum_operator(family), compute_uv=False)[-1] ** 2
        assert sigma_min_sq <= (1.0 - spec.alphas[-1]) + 1e-9
        assert sigma_min_sq < previous
        previous = sigma_min_sq
    print("criterion 7 (degeneration trend, K = 5..20): PASS")


def test_criterion_8_cli_round_trip(tmp_path):
    big_k = 20
    epath = tmp_path / "e.json"
    entries = (0.5 * (np.ones((3, 3)) - np.eye(3))).tolist()
    epath.write_text(json.dumps({"n": 3, "entries": entries}))

    family_path = tmp_path / "family.json"
    verify_path = tmp_path / "verify.json"
    assert (
        main(
            [
                "counterexample",
                str(epath),
                "--blocks",
                str(big_k),
                "--out",
                str(family_path),
                "--verify",
                str(verify_path),
            ]
        )
        == 0
    )
    assert json.loads(verify_path.read_text())["verification"]["passed"] is True

    analyze_report = tmp_path / "analyze.json"
    assert main(["analyze", str(family_path), "--report", str(analyze_report)]) == 0
    measured_r = json.loads(analyze_report.read_text())["criterion"]["spectral_radius"]
    assert abs(measured_r - (1.0 - 2.0**-big_k)) <= 1e-9

    project_report = tmp_path / "project.json"
    assert (
        main(
            [
                "project",
                str(family_path),
                "--n-max",
                "25",
                "--report",
                str(project_report),
            ]
        )
        == 0
    )
    doc = json.loads(project_report.read_text())
    r_own = doc["frame"]["r"]
    for row in doc["convergence"]:
        assert row["error"] <= r_own ** row["N"] + 1e-9
    print("criterion 8 (CLI round trip, K=20): PASS")
