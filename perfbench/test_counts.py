"""Exact-count checks of the traced benchmark run.

Run from the repository root:

    python3 -m pytest perfbench/test_counts.py

Each workload is traced twice, with different seeds.  Every call count
must repeat exactly between the two runs and between the commands of one
run, and must equal the closed form in ``workloads.py``.  The counts
describe the code as it is; a change that removes duplicate work updates
the closed forms together with the code.
"""

import json
import os
import subprocess
import sys

import pytest

from tracing import COUNTS
from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# The stage that takes most of each workload's command.
DOMINANT = {
    "project-dense": "kernels.error_series_ms",
    "analyze-ring": "criterion.build_e_matrix_ms",
    "counterexample-ring": "io.write_ms",
}


def _traced(workload, seed):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert "WARNING" not in done.stdout, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request):
    return request.param, _traced(request.param, 1), _traced(request.param, 2)


def test_counts_repeat_across_runs(traced_twice):
    _, first, second = traced_twice
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}


def test_counts_match_closed_forms(traced_twice):
    name, first, _ = traced_twice
    assert {m: first[m] for m in WORKLOADS[name].counts} == WORKLOADS[name].counts


def test_dominant_stage(traced_twice):
    name, first, _ = traced_twice
    assert first[DOMINANT[name]] > 0.5 * first["trace.cmd_ms"]


def test_minor_cross_check_usefulness(traced_twice):
    # On the r = 0.99 ring most leading minors fall in the 1e-12 dead zone,
    # so evaluate_criterion silently skips the cross-check.
    name, first, _ = traced_twice
    expected = {"project-dense": 1.0, "analyze-ring": 0.0, "counterexample-ring": 0.0}
    assert first["criterion.minor_check_useful_ratio"] == expected[name]
