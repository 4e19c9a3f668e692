"""Benchmark of the sumspaces CLI: one workload per run, closed loop.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload project-dense --seed 1 --seconds 35 --trace 0

One client in this process issues the workload's CLI command through
``sumspaces.cli.main`` back to back, each with a fresh output path, for
``--seconds`` of wall time, and checks every output against the
workload's oracle outside the timed interval.  With ``--trace 0`` it
also runs fresh ``python -m sumspaces.cli`` processes and repeats the
set-up in fresh interpreters, spread through the same window, times a
fixed reference computation around every command, and reports the
end-to-end metrics, command times in units of that reference.  With ``--trace 1`` it alternates traced
and untraced commands and reports the per-layer metrics; the spans are
written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the environment and each metric's definition.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import zip_longest

START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# BLAS runs single-threaded: on two cores one thread measured both faster
# and steadier than two, and it is the plain single-threaded baseline.
BLAS_THREADS = min(1, os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

# The tail is a fixed percentile, p67, and a run issues enough commands to
# have at least TAIL_SAMPLES above it.  (The highest percentile with that
# many samples above it would depend on how many commands fit in the run,
# which changes with the host's speed, and it spread the tail across runs.)
TAIL_FRACTION = 2 / 3
TAIL_SAMPLES = 10
MIN_COMMANDS = 3 * TAIL_SAMPLES
# Fresh CLI processes per run (for peak RSS), and set-ups in fresh
# interpreters per run (median of each).
FRESH_PROCESSES = 3
SETUPS = 5
CHILD_TIMEOUT_S = 60

# Command times are reported in "ref": multiples of the workload's
# reference computation (workloads.make_reference), timed in the same
# process around each command.  Set-up times are divided by the reference
# the same way and reported in seconds at the reference's nominal speed
# (workloads.reference_seconds).  Wall seconds are printed too, for
# information.
END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_p50_ref": "ref",
    "cmd_tail_ref": "ref",
    "cmd_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used "
                        "to repeat the set-up in a fresh interpreter)")
    return parser.parse_args(argv)


def _setup(workload_name, seed, tmpdir):
    """Import, generate the inputs and run one checked warm-up command.

    Returns (workload, context, the ``sumspaces.cli`` module, warm-up
    failures, seconds since this interpreter started running this file).
    """
    sys.path.insert(0, SRC)
    from sumspaces import cli

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    ctx = workload.generate(seed, tmpdir)
    _, fails = _command(workload, ctx, cli, tmpdir, "warmup")
    return workload, ctx, cli, fails, time.perf_counter() - START


def _command(workload, ctx, cli, tmpdir, tag, tracer=None):
    """Run one command in this process and check its outputs untimed.

    Returns (seconds, failure messages).
    """
    argv, outputs = workload.command(ctx, tmpdir, tag)
    if tracer is not None:
        tracer.install(tag)
    start = time.perf_counter()
    try:
        code = cli.main(argv)  # looked up per call, so a tracer can wrap it
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall(elapsed)
    return elapsed, _check(workload, ctx, code, outputs)


def _check(workload, ctx, code, outputs):
    try:
        return workload.check(ctx, code, outputs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]
    finally:
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)


def _closed_loop(workload, ctx, cli, tmpdir, seconds, tracer=None, side_jobs=(),
                 reference=None):
    """Issue commands back to back for ``seconds`` of wall time.

    With a tracer, odd-numbered commands are traced and even-numbered ones
    are not.  ``side_jobs`` are run between commands at evenly spaced
    points of the phase, so that they sample the same machine conditions
    as the commands.  With a ``reference`` callable, it is timed just
    before every command and once after the last, so command i lies
    between reference timings i and i + 1.  Returns (untraced seconds,
    reference seconds, failed commands, commands run).
    """
    walls, refs, failed = [], [], []
    min_commands = 2 if tracer else MIN_COMMANDS
    start = time.perf_counter()
    jobs = list(side_jobs)
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = len(side_jobs) - len(jobs)
        if jobs and elapsed >= (done + 0.5) * seconds / len(side_jobs):
            jobs.pop(0)()
            continue
        if reference is not None:
            refs.append(_timed(reference))
        if elapsed >= seconds and i >= min_commands and not jobs:
            return walls, refs, failed, i
        traced = tracer is not None and i % 2 == 1
        wall, fails = _command(workload, ctx, cli, tmpdir, i, tracer if traced else None)
        if not traced:
            walls.append(wall)
        if fails:
            failed.append(f"command {i}: " + "; ".join(fails))
        i += 1


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _fresh_process(workload, ctx, tmpdir, tag, env):
    """Time one ``python -m sumspaces.cli`` process.

    Returns (seconds, peak RSS in MB, failures).
    """
    argv, outputs = workload.command(ctx, tmpdir, tag)
    err_path = os.path.join(tmpdir, "fresh.stderr")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sumspaces.cli", *argv],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own peak RSS but has no timeout
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    fails = _check(workload, ctx, code, outputs)
    if fails:
        with open(err_path) as err:
            fails += [line.rstrip() for line in err.readlines()[-3:]]
    # ru_maxrss is in KiB on Linux
    return elapsed, usage.ru_maxrss * 1024 / 1e6, fails


def _setup_in_fresh_interpreter(args, env):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{done.stderr}")
    return float(done.stdout.splitlines()[-1])


def _tail(samples):
    """(value, samples above it) of the TAIL_FRACTION percentile."""
    ordered = sorted(samples)
    k = math.ceil(TAIL_FRACTION * len(ordered)) - 1
    return ordered[k], len(ordered) - k - 1


def _git_revision():
    # Read .git directly: the benchmark may run in a checkout without git.
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
    }


def _end_to_end(args, workload, ctx, cli, tmpdir):
    from workloads import make_reference, reference_seconds

    env = dict(os.environ, PYTHONPATH=SRC)
    reference = make_reference(workload, tmpdir)
    reference()  # warm-up
    fresh, setups, fresh_failed = [], [], []

    def fresh_process():
        j = len(fresh)
        elapsed, rss_mb, fails = _fresh_process(workload, ctx, tmpdir, f"fresh{j}", env)
        fresh.append((elapsed, rss_mb))
        if fails:
            fresh_failed.append(f"fresh process {j}: " + "; ".join(fails))

    def setup():
        before = _timed(reference)
        wall = _setup_in_fresh_interpreter(args, env)
        setups.append((wall, wall / (0.5 * (before + _timed(reference)))))

    # fresh processes and set-ups alternate while both remain
    jobs = [job for pair in zip_longest([fresh_process] * FRESH_PROCESSES,
                                        [setup] * SETUPS)
            for job in pair if job is not None]
    walls, refs, failed, attempted = _closed_loop(
        workload, ctx, cli, tmpdir, args.seconds, side_jobs=jobs, reference=reference)
    failed += fresh_failed
    attempted += FRESH_PROCESSES

    # each command against the mean of the reference timings around it
    rel = [wall / (0.5 * (before + after))
           for wall, before, after in zip(walls, refs, refs[1:])]
    tail, above = _tail(rel)
    metrics = {
        "setup_s": statistics.median(r for _, r in setups) * reference_seconds(workload),
        "cmd_p50_ref": statistics.median(rel),
        "cmd_tail_ref": tail,
        "cmd_per_ref": len(rel) / sum(rel),
        "peak_rss_mb": statistics.median(r for _, r in fresh),
    }
    notes = [
        f"setup_s: median of {SETUPS} set-ups in fresh interpreters (import, inputs, "
        "checked warm-up), each divided by the reference timed just before and after "
        f"it, times the reference's nominal {reference_seconds(workload):g} s; "
        "wall seconds (informational): " + ", ".join(f"{w:.3f}" for w, _ in setups),
        f"cmd_p50_ref, cmd_tail_ref: {len(rel)} in-process commands, each in units "
        f"of the reference computation ({' + '.join(workload.reference)}) timed just "
        f"before and after it; cmd_tail_ref is p{100 * TAIL_FRACTION:.0f}, with {above} "
        "samples above it",
        "cmd_per_ref: commands completed per reference unit of command time",
        f"peak_rss_mb: median of {FRESH_PROCESSES} fresh `python -m sumspaces.cli` "
        "processes",
        f"seconds (informational): command median {statistics.median(walls):.4f} s, "
        f"p{100 * TAIL_FRACTION:.0f} {_tail(walls)[0]:.4f} s; reference median "
        f"{statistics.median(refs):.4f} s",
        # Printed, but not a metric in BENCHMARK.json: on a shared machine it
        # swung with the neighbours' load more than any other figure here.
        "cli_process_s (informational): median fresh-process wall time "
        f"{statistics.median(e for e, _ in fresh):.4f} s",
    ]
    return metrics, END_TO_END_UNITS, attempted, failed, notes


def _per_layer(args, workload, ctx, cli, tmpdir):
    from tracing import UNITS, Tracer

    tracer = Tracer()
    walls, _, failed, attempted = _closed_loop(
        workload, ctx, cli, tmpdir, args.seconds, tracer)
    metrics = tracer.summary(walls)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(spans_path)
    notes = [
        f"{len(tracer.commands)} traced and {len(walls)} untraced commands, alternating; "
        "each metric is the median per traced command",
        "criterion.minor_check_useful_ratio: leading-minor cross-checks run per "
        "criterion.evaluate_criterion_calls (0 when there are none)",
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    if not tracer.repeated_counts():
        notes.append("WARNING: call counts differ between traced commands")
    return metrics, UNITS, attempted, failed, notes


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "sumspaces", "cli.py")):
        print(f"error: no sumspaces source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        workload, ctx, cli, warmup_fails, setup_s = _setup(args.workload, args.seed, tmpdir)
        if args.setup_only:
            # the parent run checks its own warm-up; a failure here is the same one
            print(repr(setup_s))
            return 0
        if args.trace:
            result = _per_layer(args, workload, ctx, cli, tmpdir)
        else:
            result = _end_to_end(args, workload, ctx, cli, tmpdir)
        metrics, units, attempted, failed, notes = result
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:  # another run still uses it
            pass
    if warmup_fails:
        failed.append("warm-up: " + "; ".join(warmup_fails))
    attempted += 1  # the warm-up command

    print("environment: " + json.dumps(_environment()))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s")
    for note in notes:
        print("  " + note)
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {units[name]}")
    for msg in failed[:20]:
        print(f"  FAILED {msg}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
