"""Seeded inputs, CLI commands, output oracles and exact call counts.

Each workload is one CLI command issued back to back.  Its inputs are
made from the seed alone; its oracle checks a command's outputs with
numpy, independently of the code paths the command itself ran (the one
exception is the round-trip check, which by definition reloads through
``sumspaces.io``).  ``counts`` gives the per-command call counts that the
traced run must reproduce exactly; they are closed forms of the sizes.
"""

import json
import os
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

# project-dense: n members of k perturbed orthonormal columns in R^d.
DENSE_D, DENSE_N, DENSE_K, DENSE_NOISE, DENSE_STEPS = 240, 5, 8, 0.02, 60
# analyze-ring: n lines in R^d with Gram I - c * A_ring, so r(E) = 2c.
RING_N, RING_D, RING_COS = 300, 400, 0.495
RING_R = 2.0 * RING_COS
# counterexample-ring: ring of n nodes with neighbour entries 1/2 (r = 1).
CE_N, CE_BLOCKS = 16, 40

# Tolerances of tests/test_acceptance.py, which are the package's contract.
BOUND_TOL = 1e-9
GRAM_TOL = 1e-10
# |r - 0.99| allowed on analyze-ring: roundoff of a 300 x 300 eigensolve.
RING_R_TOL = 1e-12


@dataclass
class Workload:
    name: str
    # generate(seed, tmpdir) -> context dict passed to command and check
    generate: Callable
    # command(ctx, tmpdir, i) -> (argv, output paths)
    command: Callable
    # check(ctx, exit_code, outputs) -> list of failure messages
    check: Callable
    counts: dict
    # reference computations (names in REFERENCES) timed between commands
    reference: tuple


def _ring(n):
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, (idx + 1) % n] = 1.0
    a[(idx + 1) % n, idx] = 1.0
    return a


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_family(path, ambient_dim, members):
    # members: list of d x k spanning sets; rows of the file are columns
    _write_json(path, {
        "ambient_dim": ambient_dim,
        "subspaces": [
            {"name": f"X{i + 1}", "vectors": m.T.tolist()}
            for i, m in enumerate(members)
        ],
    })


# ---------------------------------------------------------------- project-dense

def _dense_generate(seed, tmpdir):
    rng = np.random.default_rng(seed)
    q = _orthogonal(rng, DENSE_D)
    members = [
        q[:, i * DENSE_K:(i + 1) * DENSE_K]
        + DENSE_NOISE * rng.normal(size=(DENSE_D, DENSE_K))
        for i in range(DENSE_N)
    ]
    path = os.path.join(tmpdir, "family.json")
    _write_family(path, DENSE_D, members)
    # Oracle from the members as the file stores them (floats round-trip
    # exactly): QR bases, pairwise cosines by 2-norm, frame bounds from the
    # eigenvalues of the Gram matrix of the concatenated bases.
    bases = [np.linalg.qr(np.array(m))[0] for m in members]
    e = np.zeros((DENSE_N, DENSE_N))
    for i in range(DENSE_N):
        for j in range(i + 1, DENSE_N):
            e[i, j] = e[j, i] = np.linalg.norm(bases[i].T @ bases[j], 2)
    r = float(np.linalg.eigvalsh(e)[-1])
    s = np.hstack(bases)
    frame = np.linalg.eigvalsh(s.T @ s)
    return {"family": path, "r": r, "frame": (float(frame[0]), float(frame[-1]))}


def _dense_command(ctx, tmpdir, i):
    report = os.path.join(tmpdir, f"project-{i}.json")
    argv = ["project", ctx["family"], "--n-max", str(DENSE_STEPS), "--report", report]
    return argv, [report]


def _dense_check(ctx, exit_code, outputs):
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    doc = _read_json(outputs[0])
    r = ctx["r"]
    fails = []
    if not doc["criterion"]["satisfied"]:
        fails.append("criterion reported unsatisfied")
    if abs(doc["frame"]["r"] - r) > BOUND_TOL:
        fails.append(f"r = {doc['frame']['r']}, oracle {r}")
    steps = doc["convergence"]
    if [s["N"] for s in steps] != list(range(1, DENSE_STEPS + 1)):
        fails.append("convergence steps are not N = 1..n_max")
    for s in steps:
        if not s["error"] <= r ** s["N"] + BOUND_TOL:
            fails.append(f"N={s['N']}: error {s['error']} above r^N = {r ** s['N']}")
    lower, upper = doc["frame"]["frame_lower"], doc["frame"]["frame_upper"]
    if not (1 - r - BOUND_TOL <= lower and upper <= 1 + r + BOUND_TOL):
        fails.append(f"frame bounds [{lower}, {upper}] outside [1-r, 1+r]")
    for got, want in zip((lower, upper), ctx["frame"]):
        if abs(got - want) > BOUND_TOL:
            fails.append(f"frame bound {got}, oracle {want}")
    return fails


# ---------------------------------------------------------------- analyze-ring

def _ring_generate(seed, tmpdir):
    rng = np.random.default_rng(seed)
    gram = np.eye(RING_N) - RING_COS * _ring(RING_N)
    rows = np.linalg.cholesky(gram) @ _orthogonal(rng, RING_D)[:RING_N]
    # Random lengths keep orthonormalize off its already-unit fast path, so
    # each line costs one SVD whatever the roundoff of its norm.
    rows *= rng.uniform(0.5, 2.0, size=(RING_N, 1))
    path = os.path.join(tmpdir, "family.json")
    _write_family(path, RING_D, [row[:, None] for row in rows])
    return {"family": path}


def _ring_command(ctx, tmpdir, i):
    report = os.path.join(tmpdir, f"analyze-{i}.json")
    return ["analyze", ctx["family"], "--report", report], [report]


def _ring_check(ctx, exit_code, outputs):
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    crit = _read_json(outputs[0])["criterion"]
    fails = []
    if abs(crit["spectral_radius"] - RING_R) > RING_R_TOL:
        fails.append(f"r = {crit['spectral_radius']!r}, analytic {RING_R}")
    if not crit["satisfied"] or crit["boundary"]:
        fails.append("criterion not reported satisfied")
    if len(crit["leading_minors"]) != RING_N:
        fails.append(f"{len(crit['leading_minors'])} leading minors, expected {RING_N}")
    return fails


# ---------------------------------------------------------- counterexample-ring

def _ce_generate(seed, tmpdir):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(CE_N)
    e = 0.5 * _ring(CE_N)[np.ix_(perm, perm)]
    path = os.path.join(tmpdir, "ematrix.json")
    _write_json(path, {"n": CE_N, "entries": e.tolist()})
    alphas = 1.0 - 2.0 ** -np.arange(1, CE_BLOCKS + 1)
    return {"ematrix": path, "e": e, "alphas": alphas}


def _ce_command(ctx, tmpdir, i):
    out = os.path.join(tmpdir, f"counter-{i}.json")
    verify = os.path.join(tmpdir, f"verify-{i}.json")
    argv = ["counterexample", ctx["ematrix"], "--blocks", str(CE_BLOCKS),
            "--out", out, "--verify", verify]
    return argv, [out, verify]


def _ce_check(ctx, exit_code, outputs):
    from sumspaces.io import load_family

    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    out, verify = outputs
    record = _read_json(verify)["verification"]
    limit = 1.0 - ctx["alphas"][-1]
    fails = []
    if not record["passed"]:
        fails.append("verification record not passed")
    if not record["sigma_min_sq"] <= limit + BOUND_TOL:
        fails.append(f"sigma_min^2 {record['sigma_min_sq']} above 1 - alpha_K = {limit}")

    doc = _read_json(out)
    d = CE_N * CE_BLOCKS
    written = np.array([s["vectors"] for s in doc["subspaces"]])
    if doc["ambient_dim"] != d or written.shape != (CE_N, CE_BLOCKS, d):
        return fails + [f"family shape {written.shape}, expected {(CE_N, CE_BLOCKS, d)}"]
    # Block k of member i is its k-th vector, supported on coordinates
    # [k*n, (k+1)*n); the block vectors have Gram matrix I - alpha_k E.
    for k, alpha in enumerate(ctx["alphas"]):
        block = written[:, k, :].copy()
        v = block[:, k * CE_N:(k + 1) * CE_N].copy()
        block[:, k * CE_N:(k + 1) * CE_N] = 0.0
        if block.any():
            fails.append(f"block {k} has entries outside its coordinates")
        resid = np.abs(v @ v.T - (np.eye(CE_N) - alpha * ctx["e"])).max()
        if resid > GRAM_TOL:
            fails.append(f"block {k}: Gram residual {resid:.3e}")
    family, _ = load_family(out)
    reloaded = np.array([m.basis.T for m in family.members])
    if not np.array_equal(reloaded, written):
        fails.append("written family does not reload exactly")
    return fails


# ------------------------------------------------------ reference computations
#
# The benchmark's host shares its cores with other tenants, and its speed
# drifts in phases: the same command ran up to 1.8 times slower in a slow
# phase, and medians of ten-run sets taken minutes apart differed by up to
# 45%.  Each command is therefore also timed against a fixed reference
# computation run in the same process just before and just after it.  The
# reference uses none of the package's code and its inputs come from a
# fixed seed, so a change to the program moves only the timed side of each
# ratio (a command, or a set-up).
# It is made of the kinds of work the commands do: LAPACK factorizations,
# and for the commands that spend most of their time in the interpreter
# (per-pair Python calls, JSON encoding) also JSON encoding.  Each workload
# uses the mix whose time tracked the command's best through slow and fast
# phases.

REF_D, REF_STEPS = 240, 5
REF_JSON_SHAPE = (3, 40, 640)


def _lapack_reference():
    # successive products and full SVDs of 240 x 240, as in the error series
    rng = np.random.default_rng(0)
    m = rng.normal(size=(REF_D, REF_D)) / (4 * np.sqrt(REF_D))
    eye = np.eye(REF_D)

    def run():
        b = m
        for _ in range(REF_STEPS):
            b = b @ m
            np.linalg.svd(eye - b)

    return run


def _json_reference(tmpdir):
    # encode and write a family-shaped document of nested float lists
    vectors = np.random.default_rng(0).normal(size=REF_JSON_SHAPE)
    path = os.path.join(tmpdir, "reference.json")

    def run():
        _write_json(path, {"subspaces": [{"name": f"X{i}", "vectors": v.tolist()}
                                         for i, v in enumerate(vectors)]})
        os.remove(path)

    return run


REFERENCES = {"lapack": lambda tmpdir: _lapack_reference(), "json": _json_reference}
# Nominal seconds of each reference computation: about its median time on
# the machine the baselines in README.md were measured on.  Set-up times
# are reported at this speed; the value only scales them.
NOMINAL_SECONDS = {"lapack": 0.05, "json": 0.12}


def make_reference(workload, tmpdir):
    """Return a callable that runs the workload's reference computations."""
    parts = [REFERENCES[name](tmpdir) for name in workload.reference]

    def run():
        for part in parts:
            part()

    return run


def reference_seconds(workload):
    """Nominal seconds of the workload's reference computation."""
    return sum(NOMINAL_SECONDS[name] for name in workload.reference)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="project-dense",
            generate=_dense_generate,
            command=_dense_command,
            check=_dense_check,
            counts={
                "subspaces.restricted_norm_calls": 2 * comb(DENSE_N, 2),
                "subspaces.orthonormalize_calls": DENSE_N + 1,
                "subspaces.sum_operator_calls": 2,
                "criterion.build_e_matrix_calls": 2,
                "criterion.spectral_radius_calls": 2,
                "criterion.evaluate_criterion_calls": 2,
                "counterexamples.gram_vectors_calls": 0,
                "kernels.error_series_steps": DENSE_STEPS,
                # pair cosines, member and oracle bases, one per step,
                # frame and restricted deviation
                "lapack.svd_calls": 2 * comb(DENSE_N, 2) + DENSE_N + 1 + DENSE_STEPS + 2,
                "lapack.eigh_calls": 2,
                "lapack.det_calls": 2 * DENSE_N,
            },
            reference=("lapack",),
        ),
        Workload(
            name="analyze-ring",
            generate=_ring_generate,
            command=_ring_command,
            check=_ring_check,
            counts={
                "subspaces.restricted_norm_calls": comb(RING_N, 2),
                "subspaces.orthonormalize_calls": RING_N,
                "subspaces.sum_operator_calls": 0,
                "criterion.build_e_matrix_calls": 1,
                "criterion.spectral_radius_calls": 1,
                "criterion.evaluate_criterion_calls": 1,
                "counterexamples.gram_vectors_calls": 0,
                "kernels.error_series_steps": 0,
                "lapack.svd_calls": comb(RING_N, 2) + RING_N,
                "lapack.eigh_calls": 1,
                "lapack.det_calls": RING_N,
            },
            reference=("lapack", "json"),
        ),
        Workload(
            name="counterexample-ring",
            generate=_ce_generate,
            command=_ce_command,
            check=_ce_check,
            counts={
                "subspaces.restricted_norm_calls": comb(CE_N, 2),
                "subspaces.orthonormalize_calls": 0,
                "subspaces.sum_operator_calls": 1,
                "criterion.build_e_matrix_calls": 0,
                # CLI, spec validation, principal eigenvector
                "criterion.spectral_radius_calls": 3,
                "criterion.evaluate_criterion_calls": 0,
                "counterexamples.gram_vectors_calls": CE_BLOCKS,
                "kernels.error_series_steps": 0,
                "lapack.svd_calls": comb(CE_N, 2) + 1,
                "lapack.eigh_calls": 3 + 1 + CE_BLOCKS,
                "lapack.det_calls": 0,
            },
            reference=("lapack", "json"),
        ),
    )
}
