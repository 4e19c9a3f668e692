"""Command-line front end.

Subcommands:
  analyze         measure the angle-cosine matrix of a family and test the
                  spectral criterion
  project         additionally run the projection iteration with its
                  certified error bound
  counterexample  generate a block family realizing a boundary matrix

Exit codes: 0 criterion satisfied / counterexample verified, 1 invalid
input (including bad arguments and unwritable outputs), 2 criterion
failed or verification failed, 3 spectral radius on the boundary.

``main`` is the only boundary to the outside world: every invalid input
ends in exit code 1 with one ``error:`` line on stderr, and every warning
is printed as one ``notice:`` line.
"""

import argparse
import sys
import warnings

from . import io
from .counterexamples import (
    CounterexampleSpec,
    build_counterexample,
    geometric_alphas,
    verify_counterexample,
)
from .criterion import build_e_matrix, evaluate_criterion
from .errors import CriterionNotSatisfied, SumspacesError, VerificationFailed
from .iteration import convergence_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_SATISFIED = 2
EXIT_BOUNDARY = 3


class _ArgumentParser(argparse.ArgumentParser):
    """Sends argument errors down the invalid-input path instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _parser():
    parser = _ArgumentParser(
        prog="sumspaces",
        description="Spectral test, projection iteration and boundary "
        "counterexamples for sums of subspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="test the spectral criterion on a family file"
    )
    p_analyze.add_argument("family", help="family JSON file")
    p_analyze.add_argument("--report", help="write the JSON report here")
    p_analyze.set_defaults(run=_cmd_criterion, n_max=None, csv=None)

    p_project = sub.add_parser(
        "project", help="run the projection iteration with certified bounds"
    )
    p_project.add_argument("family", help="family JSON file")
    p_project.add_argument("--n-max", type=int, required=True, help="iteration steps")
    p_project.add_argument("--report", help="write the JSON report here")
    p_project.add_argument("--csv", help="write N,error,bound rows here")
    p_project.set_defaults(run=_cmd_criterion)

    p_counter = sub.add_parser(
        "counterexample", help="build a block family for a boundary matrix"
    )
    p_counter.add_argument("ematrix", help="angle-cosine matrix JSON file")
    p_counter.add_argument("--blocks", type=int, required=True, help="block count K")
    p_counter.add_argument(
        "--alpha-schedule",
        default="geometric",
        help="'geometric' (1 - 2^-k) or 'custom=a1,a2,...' ascending in (0,1)",
    )
    p_counter.add_argument("--out", required=True, help="write the family here")
    p_counter.add_argument("--verify", help="write the verification record here")
    p_counter.set_defaults(run=_cmd_counterexample)
    return parser


def _criterion_exit(report) -> int:
    if report.boundary:
        return EXIT_BOUNDARY
    return EXIT_OK if report.satisfied else EXIT_NOT_SATISFIED


def _cmd_criterion(args) -> int:
    """``project``, and ``analyze``, which runs no iteration (``n_max`` None)."""
    if args.n_max is not None and args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    family, _ = io.load_family(args.family)
    convergence = None
    if args.n_max is None:
        criterion = evaluate_criterion(build_e_matrix(family))
    else:
        try:
            convergence = convergence_report(family, args.n_max)
            criterion = convergence.criterion
        except CriterionNotSatisfied as exc:
            criterion = exc.report

    doc = {
        "criterion": io.criterion_section(criterion),
        "metadata": io.report_metadata(args.family),
    }
    if convergence is not None:
        doc |= io.convergence_section(convergence)
    with io.staged_outputs(args.family) as stage:
        if args.report is not None:
            io.write_report(stage(args.report), doc)
        if convergence is not None and args.csv:
            io.write_convergence_csv(stage(args.csv), convergence)
    # stdout last: a failed file output leaves no report behind
    if args.report is None:
        io.write_report(None, doc)
    return _criterion_exit(criterion)


def _parse_alphas(schedule: str, blocks: int):
    if schedule == "geometric":
        return geometric_alphas(blocks)
    if schedule.startswith("custom="):
        alphas = tuple(float(x) for x in schedule[len("custom="):].split(","))
        if len(alphas) != blocks:
            raise ValueError(
                f"custom schedule has {len(alphas)} values but --blocks is {blocks}"
            )
        return alphas
    raise ValueError(f"unknown alpha schedule {schedule!r}")


def _cmd_counterexample(args) -> int:
    if args.blocks < 1:
        raise ValueError("--blocks must be at least 1")
    e = io.load_ematrix(args.ematrix)
    spec = CounterexampleSpec(e, _parse_alphas(args.alpha_schedule, args.blocks))
    family = build_counterexample(spec)
    try:
        record = verify_counterexample(family, spec)
        status = EXIT_OK
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        record = exc.record
        status = EXIT_NOT_SATISFIED
    with io.staged_outputs(args.ematrix) as stage:
        io.save_family(stage(args.out), family)
        if args.verify:
            doc = {
                # asdict's document, without its deep copy of every scalar
                "verification": {
                    **vars(record),
                    "pairs": [vars(pair) for pair in record.pairs],
                },
                "spectral_radius_input": spec.input_radius,
                "alphas": list(spec.alphas),
                "metadata": io.report_metadata(args.ematrix),
            }
            io.write_report(stage(args.verify), doc)
    return status


def _notice(message, *_):
    print(f"notice: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        # printed when raised, so notices stay in order with the other
        # stderr lines and precede any error line
        warnings.showwarning = _notice
        try:
            args = _parser().parse_args(argv)
            return args.run(args)
        except (SumspacesError, ValueError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
