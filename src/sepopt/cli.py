"""Command-line front end and batch comparison harness.

Subcommands:
  separate --instance F --mode {heuristic|ours|standard} [--delta X]
           [--max-iterations K] [--trace F2]
  compare  --corpus D --out F [--delta X] [--jobs N]
  trace2d  --instance F --mode M --out F

Exit codes: 0 separated, 1 in-body, 2 inconclusive (heuristic mode only),
64 usage, malformed input or unwritable output, 70 solver error (the rows the
run made are still written to --trace or the trace2d CSV).  Every mode runs
in one verdict frame and logs one INFO summary line per run; set SEPOPT_LOG
to control the log level.
"""

import argparse
import concurrent.futures
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analytic_center import TOL_NEWTON
from .bodies import TOL_POLAR, TOL_SUPPORT, TOL_ZERO, distance_to_body, support
from .errors import InstanceFormatError, NoConvergence, SepoptError
from .instances import Instance, dumps_canonical, load_instance
from .reductions import (
    ReductionConfig,
    correction_heuristic,
    default_r_min,
    heuristic_reduction,
    standard_reduction,
)
from .traces import ComparisonReport, ComparisonRow, write_trace2d_csv

logger = logging.getLogger(__name__)

EXIT_CODES = {"separated": 0, "in_body": 1, "inconclusive": 2}
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

MODE_ALIASES = {
    "heuristic": "heuristic",
    "ours": "heuristic_reduction",
    "heuristic_reduction": "heuristic_reduction",
    "standard": "standard_reduction",
    "standard_reduction": "standard_reduction",
}


class _Parser(argparse.ArgumentParser):
    """argparse normally exits 2 on bad flags, which would collide with the
    inconclusive verdict; use the usage exit code instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _checked(kind, accept, requirement):
    """argparse ``type``: ``kind(text)``, refused unless it passes ``accept``."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")


def _build_parser():
    parser = _Parser(prog="sepopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--mode", required=True, choices=sorted(MODE_ALIASES),
                       help="solver mode ('ours' = direction search)")
        p.add_argument("--delta", type=_positive, default=None,
                       help="override the instance's accuracy parameter")
        p.add_argument("--max-iterations", default=None,
                       type=_checked(int, lambda k: k >= 1, "an integer >= 1"))

    sep = sub.add_parser("separate", help="solve one instance")
    add_common(sep)
    sep.add_argument("--trace", default=None, help="write the run trace JSON here")

    cmp_ = sub.add_parser("compare", help="run both reductions over a corpus")
    cmp_.add_argument("--corpus", required=True, help="directory of instance JSON files")
    cmp_.add_argument("--out", required=True, help="report JSON path (CSV written next to it)")
    cmp_.add_argument("--jobs", default=1, help="worker processes",
                      type=_checked(int, lambda k: k >= 1, "an integer >= 1"))
    cmp_.add_argument("--delta", type=_positive, default=None)

    t2d = sub.add_parser("trace2d", help="export a 2-D run trace as CSV")
    add_common(t2d)
    t2d.add_argument("--out", required=True, help="CSV output path")
    return parser


def _run_mode(instance: Instance, mode: str, delta: float, args):
    """Run one solver mode; returns (result dict fragment, trace, exit code).
    A SepoptError is a result too: its code and message, the trace it carries
    (None when raised outside a run) and exit code 70."""
    route = {"heuristic": correction_heuristic, "heuristic_reduction": heuristic_reduction,
             "standard_reduction": standard_reduction}[mode]
    cfg = ReductionConfig(max_iterations=args.max_iterations)
    try:
        verdict = route(instance.body, instance.query_point, delta, cfg)
    except SepoptError as exc:
        return ({"error": {"code": type(exc).__name__, "message": str(exc)}},
                exc.trace, EXIT_SOFTWARE)
    trace = verdict.trace
    fragment = {
        "verdict": trace.verdict,
        "separator": verdict.separator,
        "margin": verdict.margin,
        "oracle_calls": verdict.oracle_calls,
        "iterations": verdict.iterations,
        "reason": verdict.reason,
    }
    return fragment, trace, EXIT_CODES[trace.verdict]


def _tolerances(instance: Instance, delta: float) -> dict:
    # every cut is central, so the depth is the constant 0.0
    return {
        "delta": delta,
        "r_min": default_r_min(delta, instance.body.outer_radius, instance.body.dimension),
        "cut_depth": 0.0,
        "tol_support": TOL_SUPPORT,
        "tol_polar": TOL_POLAR,
        "tol_zero": TOL_ZERO,
        "tol_newton": TOL_NEWTON,
    }


def _load_run(args):
    """The instance, canonical mode name and delta of a separate or trace2d run."""
    instance = load_instance(args.instance)
    delta = args.delta if args.delta is not None else instance.delta
    return instance, MODE_ALIASES[args.mode], delta


def cmd_separate(args) -> int:
    instance, mode, delta = _load_run(args)
    fragment, trace, code = _run_mode(instance, mode, delta, args)
    result = {"schema_version": 1, "mode": mode, **fragment}
    if code != EXIT_SOFTWARE:
        result.update(delta=delta, trace_path=args.trace or None,
                      tolerances=_tolerances(instance, delta))
    # a failed run's trace (its rows up to the raise) is still written
    if args.trace and trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(trace.to_dict(), indent=2) + "\n")
    print(dumps_canonical(result))
    return code


def _truth_status(instance: Instance, delta: float):
    """("outside" or "inside", distance) of the query point against delta.

    When the distance iteration runs out of steps, its last iterate x still
    decides the status if the bounds it certifies clear delta: x lies in the
    body, so the distance is at most |x - p|; with g = x - p and s the support
    maximizer for -g, the Frank-Wolfe gap g.(x - s) bounds |x - p|^2 / 2 minus
    its minimum over the body, so the distance is at least
    sqrt(|x - p|^2 - 2 gap).  The reported distance is then |x - p|.
    Otherwise the NoConvergence propagates.
    """
    body, p = instance.body, instance.query_point
    try:
        dist, _ = distance_to_body(body, p, tol=min(delta / 10.0, 1e-4))
    except NoConvergence as exc:
        x = exc.last_point
        g = x - p
        dist = float(np.linalg.norm(g))
        if dist <= delta:
            return "inside", dist
        gap = float(g @ (x - support(body, -g).maximizer))
        if np.sqrt(max(0.0, dist * dist - 2.0 * gap)) > delta:
            return "outside", dist
        raise
    return ("outside" if dist > delta else "inside"), dist


def compare_one(path, delta=None) -> ComparisonRow:
    """Run both reductions plus the distance oracle on one instance file,
    in a row keyed by the file's stem."""
    instance_id = Path(path).stem
    try:
        instance = load_instance(path)
        d = delta if delta is not None else instance.delta
        status, dist = _truth_status(instance, d)
        ours = heuristic_reduction(instance.body, instance.query_point, d, ReductionConfig())
        std = standard_reduction(instance.body, instance.query_point, d, ReductionConfig())
        # weak separation: a certified separator is right wherever p lies
        # (a positive margin puts p outside the body), an in-body verdict
        # only within delta of the body
        agreement = all(v.margin > 0 if v.separated else status == "inside"
                        for v in (ours, std))
        if not agreement:
            logger.warning("disagreement on %s: truth=%s ours=%s standard=%s",
                           instance_id, status,
                           "sep" if ours.separated else "in",
                           "sep" if std.separated else "in")
        return ComparisonRow(
            instance_id=instance_id,
            dimension=instance.body.dimension,
            true_status=status,
            true_distance=dist,
            heuristic_verdict="separated" if ours.separated else "in_body",
            heuristic_calls=ours.oracle_calls,
            standard_verdict="separated" if std.separated else "in_body",
            standard_calls=std.oracle_calls,
            agreement=agreement,
        )
    except Exception as exc:  # fault isolation: one bad file must not stop the run
        logger.warning("instance %s failed: %s", instance_id, exc)
        return ComparisonRow(
            instance_id=instance_id, dimension=0, true_status="error",
            true_distance=None, heuristic_verdict="error", heuristic_calls=0,
            standard_verdict="error", standard_calls=0, agreement=False,
            error=f"{type(exc).__name__}: {exc}",
        )


def _compare_task(task):
    # the pool pickles this function by name, and it looks compare_one up at
    # call time, so a wrapper installed on the module before the workers fork
    # (as the benchmark's probes are) is the one the workers run
    return compare_one(*task)


def compare_corpus(paths, delta=None, jobs=1) -> ComparisonReport:
    tasks = [(str(p), delta) for p in paths]
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_compare_task, tasks))
    else:
        rows = [_compare_task(t) for t in tasks]
    rows.sort(key=lambda r: r.instance_id)
    report = ComparisonReport(rows=rows)
    report.compute_aggregates()
    return report


def cmd_compare(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        sys.stderr.write(f"sepopt: corpus directory {corpus} not found\n")
        return EXIT_USAGE
    paths = sorted(corpus.glob("*.json"))
    out = Path(args.out)
    # opened first, so an unwritable path is refused before any row runs
    with open(out, "w", encoding="utf-8") as fh:
        report = compare_corpus(paths, delta=args.delta, jobs=args.jobs)
        report.write(fh)
    agg = report.aggregates
    print(dumps_canonical({"written": str(out), "instances": agg["instances"],
                           "failed": agg["failed"],
                           "disagreements": agg["disagreements"]}))
    return 0


def cmd_trace2d(args) -> int:
    instance, mode, delta = _load_run(args)
    if instance.body.dimension != 2:
        sys.stderr.write("sepopt: trace2d needs a 2-D instance, "
                         f"got dimension {instance.body.dimension}\n")
        return EXIT_USAGE
    fragment, trace, code = _run_mode(instance, mode, delta, args)
    if code == EXIT_SOFTWARE:
        error = fragment["error"]
        sys.stderr.write(f"sepopt: {error['code']}: {error['message']}\n")
    # as with separate --trace, a failed run's rows are written too
    if trace is not None:
        write_trace2d_csv(trace, args.out)
    return EXIT_SOFTWARE if code == EXIT_SOFTWARE else 0


def main(argv=None) -> int:
    level = os.environ.get("SEPOPT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    command = {"separate": cmd_separate, "compare": cmd_compare,
               "trace2d": cmd_trace2d}[args.command]
    try:
        return command(args)
    except InstanceFormatError as exc:
        sys.stderr.write(f"sepopt: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        # instances are read through load_instance, which reports its own
        # errors, so a failing file here is one of the outputs
        if exc.filename is None:
            raise
        sys.stderr.write(f"sepopt: cannot write {exc.filename}: {exc.strerror}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
