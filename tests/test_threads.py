"""A report's digits at one and two BLAS threads: the README's contract.

The verdict fields are the same bit for bit, and every float is within
the a-priori bound that README's "What a report's digits depend on"
gives for two runs.  The family is large enough for LAPACK to block
(n = 250 members, K = 500 columns), so a multi-threaded BLAS orders its
sums differently.  A BLAS that ignores OPENBLAS_NUM_THREADS gives two
equal reports, which meet the same assertions.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

import sumspaces

EPS = np.finfo(float).eps
D, N_MEMBERS, K = 600, 250, 500


def write_family(path):
    """250 perturbed orthonormal pairs in R^600, sigma = 7e-4: r(E) = 0.44."""
    rng = np.random.default_rng(7)
    rows = np.eye(D)[:K] + 7e-4 * rng.normal(size=(K, D))
    members = [{"vectors": rows[2 * i : 2 * i + 2]} for i in range(N_MEMBERS)]
    doc = {"ambient_dim": D, "subspaces": members}
    path.write_bytes(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY))


def project(family, threads):
    src = str(Path(sumspaces.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "sumspaces.cli", "project", str(family), "--n-max", "3"],
        env=env, capture_output=True, timeout=120,
    )
    assert done.stderr == b""
    return done.returncode, orjson.loads(done.stdout)


def power_bound(x, dx, n):
    """Bound on |a^N - b^N| for a, b within dx of x, plus the power's rounding."""
    top = x + dx
    return n * top ** (n - 1) * dx + 2.0 * EPS * top**n


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    family = tmp_path_factory.mktemp("threads") / "family.json"
    write_family(family)
    return project(family, 1), project(family, 2)


def test_verdicts_are_bit_for_bit(reports):
    (code_1, one), (code_2, two) = reports
    assert code_1 == code_2 == 0
    for key in ("satisfied", "boundary", "angle_sum"):
        assert one["criterion"][key] == two["criterion"][key]
    assert len(one["criterion"]["leading_minors"]) == N_MEMBERS
    assert [s["N"] for s in one["convergence"]] == [s["N"] for s in two["convergence"]]


def test_floats_are_within_their_bounds(reports):
    (_, one), (_, two) = reports
    c1, c2 = one["criterion"], two["criterion"]
    f1, f2 = one["frame"], two["frame"]

    r = c1["spectral_radius"]
    d_r = 2 * N_MEMBERS * EPS * r
    assert abs(r - c2["spectral_radius"]) <= d_r
    assert abs(f1["r"] - f2["r"]) <= d_r
    assert abs(c1["margin"] - c2["margin"]) <= d_r + EPS

    d_lam = 2 * K * EPS * f1["frame_upper"]
    assert abs(f1["frame_lower"] - f2["frame_lower"]) <= d_lam
    assert abs(f1["frame_upper"] - f2["frame_upper"]) <= d_lam
    rho = f1["a_restricted_deviation"]
    d_rho = d_lam + EPS
    assert abs(rho - f2["a_restricted_deviation"]) <= d_rho

    for s1, s2 in zip(one["convergence"], two["convergence"]):
        assert abs(s1["error"] - s2["error"]) <= power_bound(rho, d_rho, s1["N"])
        assert abs(s1["bound"] - s2["bound"]) <= power_bound(r, d_r, s1["N"])

    m1, m2 = np.array(c1["leading_minors"]), np.array(c2["leading_minors"])
    k = np.arange(1, N_MEMBERS + 1)
    rel = 2 * k * (k * (N_MEMBERS + 1) * (1 + r) / (1 - r) + 1) * EPS
    assert np.all(np.abs(m1 - m2) <= rel * np.abs(m1))
