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
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analytic_center import TOL_NEWTON
from .bodies import TOL_POLAR, TOL_SUPPORT, TOL_ZERO, distance_to_body
from .errors import DimensionNot2D, InstanceFormatError, SepoptError
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


def _build_parser():
    parser = _Parser(prog="sepopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--mode", required=True, choices=sorted(MODE_ALIASES),
                       help="solver mode ('ours' = direction search)")
        p.add_argument("--delta", type=float, default=None,
                       help="override the instance's accuracy parameter")
        p.add_argument("--cut-depth", type=float, default=0.0,
                       help="cut offset relative to the center (<= 0; "
                            "write --cut-depth=-1e-3 for negatives)")
        p.add_argument("--max-cuts", type=int, default=None)
        p.add_argument("--max-iterations", type=int, default=None)
        p.add_argument("--r-min", type=float, default=None,
                       help="override the size floor of the feasibility runs")
        p.add_argument("--seed", type=int, default=0)

    sep = sub.add_parser("separate", help="solve one instance")
    add_common(sep)
    sep.add_argument("--trace", default=None, help="write the run trace JSON here")

    cmp_ = sub.add_parser("compare", help="run both reductions over a corpus")
    cmp_.add_argument("--corpus", required=True, help="directory of instance JSON files")
    cmp_.add_argument("--out", required=True, help="report JSON path (CSV written next to it)")
    cmp_.add_argument("--seeds", default="0", help="comma-separated seeds, one run per seed")
    cmp_.add_argument("--jobs", type=int, default=1, help="worker processes")
    cmp_.add_argument("--delta", type=float, default=None)

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
        iters = args.max_iterations if args.max_iterations else 1000
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
                "separator": [float(v) for v in c / linf],
                "margin": float(-d / linf),
                "oracle_calls": trace.oracle_calls,
                "iterations": outcome.iterations,
                "reason": "separator"}, trace, EXIT_SEPARATED

    run = heuristic_reduction if mode == "heuristic_reduction" else standard_reduction
    verdict = run(body, p, delta, _reduction_config(args))
    fragment = {
        "verdict": "separated" if verdict.separated else "in_body",
        "separator": None if verdict.separator is None
        else [float(v) for v in verdict.separator],
        "margin": None if verdict.margin is None else float(verdict.margin),
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
    dist, _ = distance_to_body(
        instance.body, instance.query_point, tol=min(delta / 10.0, 1e-4))
    return ("outside" if dist > delta else "inside"), dist


def compare_one(path, seed=0, delta=None, cut_depth=0.0) -> ComparisonRow:
    """Run both reductions plus the distance oracle on one instance file."""
    instance_id = f"{Path(path).stem}#s{seed}"
    try:
        instance = load_instance(path)
        d = delta if delta is not None else instance.delta
        status, dist = _truth_status(instance, d)
        cfg = ReductionConfig(cut_depth=cut_depth, seed=seed)
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
            true_distance=float(dist),
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
    return compare_one(*task)


def compare_corpus(paths, seeds=(0,), delta=None, cut_depth=0.0, jobs=1) -> ComparisonReport:
    tasks = [(str(p), s, delta, cut_depth) for p in paths for s in seeds]
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
        exc = DimensionNot2D(
            f"trace2d needs a 2-D instance, got dimension {instance.body.dimension}")
        sys.stderr.write(f"sepopt: {exc}\n")
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
