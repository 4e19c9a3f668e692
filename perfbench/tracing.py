"""Per-layer tracing of one CLI command, from outside the package.

The tracer wraps sumspaces' public functions in every namespace that
holds them (``sumspaces.cli.build_e_matrix`` and
``sumspaces.iteration.build_e_matrix`` are the same function under two
names) and numpy's LAPACK entry points.  The package source is not
edited; the wrappers are installed just before a traced command and
removed right after it.

Stage functions are recorded as spans (name, start, end, parent span,
command id).  A span's self time is its duration minus the durations of
its child spans.  Leaf calls -- ``restricted_norm``, which runs once per
pair of members, and ``numpy.linalg.svd/eigh/det`` -- are counted and
timed but are not spans: their time stays in the self time of the stage
that calls them, and 44,850 calls per command cost no span records.
"""

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# Modules searched for the probed functions; each may import them by name.
NAMESPACES = (
    "numpy.linalg",
    "sumspaces",
    "sumspaces.cli",
    "sumspaces.io",
    "sumspaces.subspaces",
    "sumspaces.criterion",
    "sumspaces.iteration",
    "sumspaces._kernels",
    "sumspaces.counterexamples",
)

# (module, function, probe name).  Spans mark stage boundaries.
SPANS = (
    ("sumspaces.cli", "main", "cli.main"),
    ("sumspaces.io", "load_family", "io.load_family"),
    ("sumspaces.io", "load_ematrix", "io.load_ematrix"),
    ("sumspaces.io", "save_family", "io.save_family"),
    ("sumspaces.io", "save_ematrix", "io.save_ematrix"),
    ("sumspaces.io", "write_report", "io.write_report"),
    ("sumspaces.io", "write_convergence_csv", "io.write_convergence_csv"),
    ("sumspaces.io", "report_metadata", "io.report_metadata"),
    ("sumspaces.io", "criterion_section", "io.criterion_section"),
    ("sumspaces.io", "convergence_section", "io.convergence_section"),
    ("sumspaces.io", "verification_section", "io.verification_section"),
    ("sumspaces.subspaces", "orthonormalize", "subspaces.orthonormalize"),
    ("sumspaces.subspaces", "sum_operator", "subspaces.sum_operator"),
    ("sumspaces.subspaces", "projection_matrix", "subspaces.projection_matrix"),
    ("sumspaces.subspaces", "minimal_angle", "subspaces.minimal_angle"),
    ("sumspaces.criterion", "build_e_matrix", "criterion.build_e_matrix"),
    ("sumspaces.criterion", "e_matrix_with_bounds", "criterion.e_matrix_with_bounds"),
    ("sumspaces.criterion", "evaluate_criterion", "criterion.evaluate_criterion"),
    ("sumspaces.criterion", "spectral_radius", "criterion.spectral_radius"),
    ("sumspaces.criterion", "leading_minors", "criterion.leading_minors"),
    ("sumspaces.criterion", "three_subspace_angle_test", "criterion.three_subspace_angle_test"),
    ("sumspaces.iteration", "sum_of_projections", "iteration.sum_of_projections"),
    ("sumspaces.iteration", "oracle_projection", "iteration.oracle_projection"),
    ("sumspaces.iteration", "iterate_projection", "iteration.iterate_projection"),
    ("sumspaces.iteration", "convergence_report", "iteration.convergence_report"),
    ("sumspaces.iteration", "linear_independence_check", "iteration.linear_independence_check"),
    ("sumspaces._kernels", "error_series", "kernels.error_series"),
    ("sumspaces._kernels", "power_chain", "kernels.power_chain"),
    ("sumspaces.counterexamples", "principal_eigenvector", "counterexamples.principal_eigenvector"),
    ("sumspaces.counterexamples", "gram_vectors", "counterexamples.gram_vectors"),
    ("sumspaces.counterexamples", "build_counterexample", "counterexamples.build_counterexample"),
    ("sumspaces.counterexamples", "verify_counterexample", "counterexamples.verify_counterexample"),
    ("sumspaces.counterexamples", "geometric_alphas", "counterexamples.geometric_alphas"),
)
LEAVES = (
    ("sumspaces.subspaces", "restricted_norm", "subspaces.restricted_norm"),
    ("numpy.linalg", "svd", "lapack.svd"),
    ("numpy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "det", "lapack.det"),
)

READERS = ("io.load_family", "io.load_ematrix", "io.report_metadata")
WRITERS = ("io.save_family", "io.save_ematrix", "io.write_report", "io.write_convergence_csv")
# evaluate_criterion skips the leading-minor cross-check when a minor is
# this close to zero (criterion._STAT_DEAD_ZONE).
MINOR_DEAD_ZONE = 1e-12

# Per-layer metrics, in report order, with their units.
UNITS = {
    "cli.self_ms": "ms",
    "io.load_family_ms": "ms",
    "io.read_mb": "MB",
    "io.write_ms": "ms",
    "io.write_mb": "MB",
    "subspaces.restricted_norm_ms": "ms",
    "subspaces.restricted_norm_calls": "count",
    "subspaces.orthonormalize_ms": "ms",
    "subspaces.orthonormalize_calls": "count",
    "subspaces.sum_operator_calls": "count",
    "criterion.build_e_matrix_ms": "ms",
    "criterion.build_e_matrix_calls": "count",
    "criterion.spectral_radius_calls": "count",
    "criterion.leading_minors_ms": "ms",
    "criterion.evaluate_criterion_calls": "count",
    "criterion.minor_check_useful_ratio": "ratio",
    "iteration.convergence_report_ms": "ms",
    "iteration.sum_of_projections_ms": "ms",
    "kernels.error_series_ms": "ms",
    "kernels.error_series_steps": "count",
    "kernels.error_series_ms_per_step": "ms",
    "counterexamples.build_ms": "ms",
    "counterexamples.gram_vectors_ms": "ms",
    "counterexamples.gram_vectors_calls": "count",
    "counterexamples.verify_ms": "ms",
    "lapack.svd_calls": "count",
    "lapack.svd_ms": "ms",
    "lapack.eigh_calls": "count",
    "lapack.det_calls": "count",
    "trace.cmd_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}
COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")


def _read_bytes(tracer, args, kwargs, out):
    tracer.events["read_bytes"] += os.path.getsize(args[0])


def _written_bytes(tracer, args, kwargs, out):
    if args[0] is not None:
        tracer.events["write_bytes"] += os.path.getsize(args[0])


def _error_series_steps(tracer, args, kwargs, out):
    tracer.events["error_series_steps"] += args[2] if len(args) > 2 else kwargs.get("n_steps", 0)


def _minor_check(tracer, args, kwargs, out):
    ran = not out.boundary and min(abs(m) for m in out.leading_minors) > MINOR_DEAD_ZONE
    tracer.events["minor_checks_run"] += ran


HOOKS = {
    **{name: _read_bytes for name in READERS},
    **{name: _written_bytes for name in WRITERS},
    "kernels.error_series": _error_series_steps,
    "criterion.evaluate_criterion": _minor_check,
}


class Tracer:
    """Records spans and leaf counts of the commands run between
    ``install`` and ``uninstall``; keeps everything in memory."""

    def __init__(self):
        self.spans = []  # [command id, span id, parent id, name, start, end]
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.events = Counter()
        self.commands = []  # per traced command: (id, leaves, metrics)
        self._stack = []
        self._command = None
        self._first_span = 0
        self._patches = []
        wrappers = {}
        for modname, attr, name in SPANS + LEAVES:
            fn = getattr(importlib.import_module(modname), attr, None)
            if fn is None:  # probe target no longer exists: trace the rest
                continue
            leaf = (modname, attr, name) in LEAVES
            wrappers[fn] = self._leaf(name, fn) if leaf else self._span(name, fn)
        for modname in NAMESPACES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patches.append((module, attr, value))
        self._wrappers = wrappers

    def _span(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [self._command, len(self.spans), parent, name, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(record[1])
            record[4] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[5] = _clock()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def _leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat = self.leaves[name]
                stat[0] += 1
                stat[1] += _clock() - start

        return wrapper

    def install(self, command_id):
        self._command = command_id
        self._first_span = len(self.spans)
        self.leaves.clear()
        self.events.clear()
        for module, attr, fn in self._patches:
            setattr(module, attr, self._wrappers[fn])

    def uninstall(self, wall_s):
        """Restore the originals and derive this command's metrics."""
        for module, attr, fn in self._patches:
            setattr(module, attr, fn)
        spans = self.spans[self._first_span:]
        leaves = {k: tuple(v) for k, v in self.leaves.items()}
        metrics = _command_metrics(spans, leaves, self.events, wall_s)
        self.commands.append((self._command, leaves, metrics))

    def summary(self, untraced_walls):
        """Median of each metric over the traced commands."""
        per_command = [m for _, _, m in self.commands]
        out = {
            name: statistics.median(m[name] for m in per_command)
            for name in UNITS
            if name != "trace.overhead_ratio"
        }
        out["trace.overhead_ratio"] = out["trace.cmd_ms"] / (
            1e3 * statistics.median(untraced_walls)
        )
        return out

    def repeated_counts(self):
        """True when every traced command made exactly the same calls."""
        counts = {tuple(m[name] for name in COUNTS) for _, _, m in self.commands}
        return len(counts) <= 1

    def dump(self, path):
        """Write every span and each command's leaf totals as JSON lines."""
        with open(path, "w") as fh:
            for command, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"cmd": command, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            for command, leaves, _ in self.commands:
                for name, (calls, seconds) in leaves.items():
                    fh.write(json.dumps({"cmd": command, "leaf": name,
                                         "calls": calls, "seconds": seconds}) + "\n")


def _command_metrics(spans, leaves, events, wall_s):
    child = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        child[parent] += end - start
    self_ms = defaultdict(float)
    calls = Counter()
    for _, sid, _, name, start, end in spans:
        self_ms[name] += 1e3 * (end - start - child[sid])
        calls[name] += 1

    def leaf(name):
        return leaves.get(name, (0, 0.0))

    steps = events["error_series_steps"]
    evaluations = calls["criterion.evaluate_criterion"]
    return {
        "cli.self_ms": self_ms["cli.main"],
        "io.load_family_ms": self_ms["io.load_family"],
        "io.read_mb": events["read_bytes"] / 1e6,
        "io.write_ms": sum(self_ms[name] for name in WRITERS),
        "io.write_mb": events["write_bytes"] / 1e6,
        "subspaces.restricted_norm_ms": 1e3 * leaf("subspaces.restricted_norm")[1],
        "subspaces.restricted_norm_calls": leaf("subspaces.restricted_norm")[0],
        "subspaces.orthonormalize_ms": self_ms["subspaces.orthonormalize"],
        "subspaces.orthonormalize_calls": calls["subspaces.orthonormalize"],
        "subspaces.sum_operator_calls": calls["subspaces.sum_operator"],
        "criterion.build_e_matrix_ms": self_ms["criterion.build_e_matrix"],
        "criterion.build_e_matrix_calls": calls["criterion.build_e_matrix"],
        "criterion.spectral_radius_calls": calls["criterion.spectral_radius"],
        "criterion.leading_minors_ms": self_ms["criterion.leading_minors"],
        "criterion.evaluate_criterion_calls": evaluations,
        "criterion.minor_check_useful_ratio":
            events["minor_checks_run"] / evaluations if evaluations else 0.0,
        "iteration.convergence_report_ms": self_ms["iteration.convergence_report"],
        "iteration.sum_of_projections_ms": self_ms["iteration.sum_of_projections"],
        "kernels.error_series_ms": self_ms["kernels.error_series"],
        "kernels.error_series_steps": steps,
        "kernels.error_series_ms_per_step":
            self_ms["kernels.error_series"] / steps if steps else 0.0,
        "counterexamples.build_ms": self_ms["counterexamples.build_counterexample"],
        "counterexamples.gram_vectors_ms": self_ms["counterexamples.gram_vectors"],
        "counterexamples.gram_vectors_calls": calls["counterexamples.gram_vectors"],
        "counterexamples.verify_ms": self_ms["counterexamples.verify_counterexample"],
        "lapack.svd_calls": leaf("lapack.svd")[0],
        "lapack.svd_ms": 1e3 * leaf("lapack.svd")[1],
        "lapack.eigh_calls": leaf("lapack.eigh")[0],
        "lapack.det_calls": leaf("lapack.det")[0],
        "trace.cmd_ms": 1e3 * wall_s,
        "trace.coverage": sum(end - start for _, _, parent, _, start, end in spans
                              if parent == -1) / wall_s,
    }
