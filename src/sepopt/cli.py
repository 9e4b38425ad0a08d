"""Command-line front end and batch comparison harness.

Subcommands:
  separate --instance F --mode {heuristic|ours|standard} [--delta X]
           [--cut-depth B] [--max-cuts H] [--seed S] [--trace F2]
  compare  --corpus D --out F [--seeds 0,1] [--jobs N]
  trace2d  --instance F --mode M --out F

Exit codes: 0 separated, 1 in-body, 2 inconclusive (heuristic mode only),
64 usage/malformed input, 70 solver error.  Set SEPOPT_LOG to control the
log level.
"""

import argparse
import concurrent.futures
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analytic_center import TOL_NEWTON
from .bodies import TOL_POLAR, TOL_SUPPORT, TOL_ZERO, distance_to_body, support
from .errors import InstanceFormatError, NoConvergence, SepoptError
from .heuristic import HeuristicConfig, run_heuristic
from .instances import Instance, dumps_canonical, load_instance
from .reductions import (
    ReductionConfig,
    default_r_min,
    heuristic_reduction,
    standard_reduction,
)
from .traces import (
    ComparisonReport,
    ComparisonRow,
    RunTrace,
    heuristic_trace,
    write_trace2d_csv,
)

logger = logging.getLogger(__name__)

EXIT_SEPARATED = 0
EXIT_IN_BODY = 1
EXIT_INCONCLUSIVE = 2
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
        p.add_argument("--cut-depth", default=0.0,
                       type=_checked(float, lambda x: -math.inf < x <= 0.0,
                                     "a finite number <= 0"),
                       help="cut offset relative to the center (<= 0; "
                            "write --cut-depth=-1e-3 for negatives)")
        p.add_argument("--max-cuts", default=None,
                       type=_checked(int, lambda k: k >= 2, "an integer >= 2"))
        p.add_argument("--max-iterations", default=None,
                       type=_checked(int, lambda k: k >= 1, "an integer >= 1"))
        p.add_argument("--r-min", type=_positive, default=None,
                       help="override the size floor of the feasibility runs")
        p.add_argument("--seed", default=0,
                       type=_checked(int, lambda s: s >= 0, "an integer >= 0"))

    sep = sub.add_parser("separate", help="solve one instance")
    add_common(sep)
    sep.add_argument("--trace", default=None, help="write the run trace JSON here")

    cmp_ = sub.add_parser("compare", help="run both reductions over a corpus")
    cmp_.add_argument("--corpus", required=True, help="directory of instance JSON files")
    cmp_.add_argument("--out", required=True, help="report JSON path (CSV written next to it)")
    cmp_.add_argument("--seeds", default="0", help="comma-separated seeds, one run per seed")
    cmp_.add_argument("--jobs", type=int, default=1, help="worker processes")
    cmp_.add_argument("--delta", type=_positive, default=None)

    t2d = sub.add_parser("trace2d", help="export a 2-D run trace as CSV")
    add_common(t2d)
    t2d.add_argument("--out", required=True, help="CSV output path")
    return parser


def _reduction_config(args) -> ReductionConfig:
    return ReductionConfig(
        cut_depth=args.cut_depth,
        max_cuts=args.max_cuts,
        max_iterations=args.max_iterations,
        r_min=args.r_min,
        seed=args.seed,
    )


def _run_mode(instance: Instance, mode: str, delta: float, args):
    """Run one solver mode; returns (result dict fragment, trace, exit code)."""
    body, p = instance.body, instance.query_point
    if mode == "heuristic":
        if float(np.linalg.norm(p)) < TOL_ZERO:
            trace = RunTrace(mode="heuristic", verdict="in_body")
            return {"verdict": "in_body", "separator": None, "margin": None,
                    "oracle_calls": 0, "iterations": 0,
                    "reason": "origin_interior"}, trace, EXIT_IN_BODY
        iters = args.max_iterations or 1000
        start = time.perf_counter()
        outcome = run_heuristic(body, p, HeuristicConfig(max_iterations=iters))
        trace = heuristic_trace(outcome, wall_time=time.perf_counter() - start)
        if outcome.inconclusive:
            return {"verdict": "inconclusive", "separator": None, "margin": None,
                    "oracle_calls": trace.oracle_calls,
                    "iterations": outcome.iterations,
                    "reason": "budget"}, trace, EXIT_INCONCLUSIVE
        c, _, d = outcome.trace[-1]
        linf = float(np.abs(c).max())
        return {"verdict": "separated",
                "separator": c / linf,
                "margin": -d / linf,
                "oracle_calls": trace.oracle_calls,
                "iterations": outcome.iterations,
                "reason": "separator"}, trace, EXIT_SEPARATED

    run = heuristic_reduction if mode == "heuristic_reduction" else standard_reduction
    verdict = run(body, p, delta, _reduction_config(args))
    fragment = {
        "verdict": "separated" if verdict.separated else "in_body",
        "separator": verdict.separator,
        "margin": verdict.margin,
        "oracle_calls": verdict.oracle_calls,
        "iterations": verdict.iterations,
        "reason": verdict.reason,
    }
    code = EXIT_SEPARATED if verdict.separated else EXIT_IN_BODY
    return fragment, verdict.trace, code


def _tolerances(instance: Instance, delta: float, args) -> dict:
    n = instance.body.dimension
    r_min = args.r_min if args.r_min is not None else default_r_min(
        delta, instance.body.outer_radius, n)
    return {
        "delta": delta,
        "r_min": r_min,
        "cut_depth": args.cut_depth,
        "tol_support": TOL_SUPPORT,
        "tol_polar": TOL_POLAR,
        "tol_zero": TOL_ZERO,
        "tol_newton": TOL_NEWTON,
    }


def cmd_separate(args) -> int:
    try:
        instance = load_instance(args.instance)
    except InstanceFormatError as exc:
        sys.stderr.write(f"sepopt: {exc}\n")
        return EXIT_USAGE
    mode = MODE_ALIASES[args.mode]
    delta = args.delta if args.delta is not None else instance.delta
    try:
        fragment, trace, code = _run_mode(instance, mode, delta, args)
    except SepoptError as exc:
        result = {"schema_version": 1, "mode": mode,
                  "error": {"code": type(exc).__name__, "message": str(exc)}}
        print(dumps_canonical(result))
        return EXIT_SOFTWARE

    trace_path = None
    if getattr(args, "trace", None):
        trace_path = args.trace
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(trace.to_dict(), indent=2) + "\n")

    result = {"schema_version": 1, "mode": mode}
    result.update(fragment)
    result["delta"] = delta
    result["trace_path"] = trace_path
    result["tolerances"] = _tolerances(instance, delta, args)
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


def compare_one(path, seed=0, delta=None) -> ComparisonRow:
    """Run both reductions plus the distance oracle on one instance file."""
    instance_id = f"{Path(path).stem}#s{seed}"
    try:
        instance = load_instance(path)
        d = delta if delta is not None else instance.delta
        status, dist = _truth_status(instance, d)
        cfg = ReductionConfig(seed=seed)
        ours = heuristic_reduction(instance.body, instance.query_point, d, cfg)
        std = standard_reduction(instance.body, instance.query_point, d, cfg)
        expectation = status == "outside"
        agreement = (
            ours.separated == expectation
            and std.separated == expectation
            and (not ours.separated or ours.margin > 0)
            and (not std.separated or std.margin > 0)
        )
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


def compare_corpus(paths, seeds=(0,), delta=None, jobs=1) -> ComparisonReport:
    tasks = [(str(p), s, delta) for p in paths for s in seeds]
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
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        sys.stderr.write(f"sepopt: cannot parse --seeds {args.seeds!r}\n")
        return EXIT_USAGE
    paths = sorted(corpus.glob("*.json"))
    report = compare_corpus(paths, seeds=seeds or [0], delta=args.delta, jobs=args.jobs)

    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(report.to_dict(), indent=2) + "\n")
    report.write_csv(out.with_suffix(".csv"))
    agg = report.aggregates
    print(dumps_canonical({"written": str(out), "instances": agg["instances"],
                           "failed": agg["failed"],
                           "disagreements": agg["disagreements"]}))
    return 0


def cmd_trace2d(args) -> int:
    try:
        instance = load_instance(args.instance)
    except InstanceFormatError as exc:
        sys.stderr.write(f"sepopt: {exc}\n")
        return EXIT_USAGE
    if instance.body.dimension != 2:
        sys.stderr.write("sepopt: trace2d needs a 2-D instance, "
                         f"got dimension {instance.body.dimension}\n")
        return EXIT_USAGE
    mode = MODE_ALIASES[args.mode]
    delta = args.delta if args.delta is not None else instance.delta
    try:
        _, trace, _ = _run_mode(instance, mode, delta, args)
    except SepoptError as exc:
        sys.stderr.write(f"sepopt: {type(exc).__name__}: {exc}\n")
        return EXIT_SOFTWARE
    write_trace2d_csv(trace, args.out)
    return 0


def main(argv=None) -> int:
    level = os.environ.get("SEPOPT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "separate":
        return cmd_separate(args)
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "trace2d":
        return cmd_trace2d(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
