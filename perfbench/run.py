"""Verdict benchmark for sepopt: time, support calls and correctness per verdict.

Run from the repository root:

    python3 perfbench/run.py --workload outside --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps sepopt's
module-level functions in spans (see tracing.py) and prints the per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a report with the environment, the cells and every failure.

A workload's bodies and query points are drawn from ``--seed``.  Verdicts
run one after another in one process (a closed loop), and whole rounds run
until ``--seconds`` of verdict time have passed and at least the first
rounds (the prefix) are done.  A round is one fresh case per cell.  The
counts (``attempted``, ``failed``, support calls per verdict and the shares)
are taken over the prefix, so they repeat exactly for a seed.  Every verdict
is checked against exact ground truth (families.py); with ``--trace 1``
every span is also written to ``.perfbench_work/spans-<workload>.jsonl.gz``.

Set-up time (``setup_s``) is the median of five fresh processes that each
import sepopt and build the first round's bodies through its factories.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy loads, here and in every child
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DELTA = 1e-3
JOBS = 2
SETUP_ROUNDS = 5

# Why each workload exists is in BENCHMARK.json.  A round holds one fresh
# case per cell; `prefix` is the number of rounds that every run completes,
# and that the counts (calls, attempted, failed, shares) are taken over.  It
# spans about --seconds 30 of rounds, so a run counts the same stalls
# whatever its speed.
WORKLOADS = {
    "outside": dict(families=("poly", "ellipsoid"), dims=(8, 16),
                    placements=("far", "just-out"),
                    routes=("ours", "standard", "heuristic"), prefix=24),
    "inside": dict(families=("poly", "ellipsoid"), dims=(4, 8),
                   placements=("just-in", "mid-in"),
                   routes=("ours", "standard"), prefix=12),
    "compare": dict(families=("poly", "ball"), dims=(4, 8),
                    placements=("far", "just-out", "just-in", "mid-in"),
                    routes=("ours", "standard"), prefix=12),
    # Not in BENCHMARK.json.  oracle-bound: each support query scans 34 MB,
    # so its times follow the shared host's memory bandwidth, which drifts
    # by up to 2x within minutes.  large: 15-20 s per round; it records the
    # stalls and the engine's time per centre at n = 32.
    "oracle-bound": dict(families=("cloud",), dims=(8,),
                         placements=("far", "just-out", "just-in"),
                         routes=("ours", "standard"), prefix=9),
    "large": dict(families=("poly", "ellipsoid"), dims=(16, 32),
                  placements=("just-out", "just-in"),
                  routes=("ours", "standard"), prefix=2),
}
# inputs are drawn per workload index: add new workloads at the end
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
ROUTES = ("ours", "standard", "heuristic")


def call_cap(n):
    """Per-verdict support-call cap: healthy verdicts stay under about 15 n
    calls, stalled ones run to thousands."""
    return 20 * n + 20


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty list."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


# ---------------------------------------------------------------- inputs

class Rounds:
    """The workload's inputs: round k draws one case per cell from
    (seed, workload, cell, k), so a seed always gives the same cases, and
    every case gets a body of its own."""

    def __init__(self, workload, seed, sepopt):
        self.spec = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.sepopt = sepopt
        self.cells = [(f, n, pl) for f in self.spec["families"]
                      for n in self.spec["dims"] for pl in self.spec["placements"]]

    def cases(self, k):
        """[(cell name, case)] for round k."""
        import numpy as np

        from families import make_case, make_shape

        wid = WORKLOAD_IDS[self.workload]
        out = []
        for ci, (f, n, pl) in enumerate(self.cells):
            rng = np.random.default_rng([self.seed, wid, ci, k])
            out.append((f"{f}({n}) {pl}", make_case(make_shape(f, n, rng), pl, rng, DELTA)))
        return out

    def bodies(self, cases):
        """{id(shape): sepopt body}, built through the public factories."""
        return {id(case.shape): case.shape.build(self.sepopt) for _, case in cases}


def write_corpus(sepopt, cases, bodies, directory):
    """One instance file per case; returns {file stem: (cell, case)}."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus = {}
    for i, (cell, case) in enumerate(cases):
        path = directory / f"c{i:03d}.json"
        sepopt.dump_instance(sepopt.Instance(bodies[id(case.shape)], case.p, DELTA), path)
        corpus[path.stem] = (cell, case)
    return corpus


def setup_probe(workload, seed):
    """One set-up round in this fresh process: import sepopt, then build the
    first round's bodies (and, for compare, write its instance files).
    Drawing the cases and their ground truth is not counted.  Prints seconds."""
    t0 = time.perf_counter()
    import sepopt
    t1 = time.perf_counter()
    rounds = Rounds(workload, seed, sepopt)
    cases = rounds.cases(0)
    t2 = time.perf_counter()
    bodies = rounds.bodies(cases)
    if workload == "compare":
        directory = WORK / f"probe-{os.getpid()}"
        try:
            write_corpus(sepopt, cases, bodies, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_ROUNDS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


# ---------------------------------------------------------------- verdicts

class Runner:
    """Times verdicts one at a time under the call cap, with optional spans."""

    def __init__(self, budget, tracer=None):
        self.budget = budget
        self.tracer = tracer
        self.next_id = 0

    def timed(self, route, n, call, vid=None):
        """Run ``call()`` as one verdict of ``route`` on an n-dimensional body.

        Returns (record, result, exception); a raise is the verdict's failure,
        recorded with its time and the support calls made up to it."""
        if vid is None:
            vid = self.next_id
            self.next_id += 1
        if self.tracer is not None:
            self.tracer.verdict = vid
        self.budget.reset(None if route == "heuristic" else call_cap(n))
        rec = {"id": vid, "route": route, "failed": None, "wrong": None,
               "inconclusive": False, "touching": False, "rows": 0,
               "separated": False, "separator": None}
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raise is a counted failure, never fatal
            rec.update(s=time.perf_counter() - start, calls=self.budget.count,
                       failed=f"{type(exc).__name__}: {exc}")
            return rec, None, exc
        rec["s"] = time.perf_counter() - start
        if route == "heuristic":
            rec.update(calls=len(out.trace), inconclusive=out.inconclusive,
                       separated=not out.inconclusive, separator=out.separator)
        else:
            rec.update(calls=out.oracle_calls, rows=len(out.trace.rows),
                       separated=out.separated, separator=out.separator)
            if out.reason == "iteration_budget":
                rec["failed"] = "iteration_budget"
        return rec, out, None


def check(rec, case):
    """Judge a completed, conclusive verdict against exact ground truth: sets
    ``wrong`` (a reason, or None) and ``touching`` (exact margin near zero)."""
    from families import MARGIN_TOL, exact_margin, judge

    if rec["failed"] is None and not rec["inconclusive"]:
        rec["wrong"] = judge(case, rec["separated"], rec["separator"])
        if rec["separated"]:
            rec["touching"] = exact_margin(case, rec["separator"]) <= MARGIN_TOL


def run_rounds(play, prefix, seconds):
    """Rounds 0, 1, ... until ``seconds`` of timed work and at least
    ``prefix`` rounds; ``play(k)`` returns (items, timed seconds)."""
    items, round_s = [], []
    while len(round_s) < prefix or sum(round_s) < seconds:
        got, dt = play(len(round_s))
        items += got
        round_s.append(dt)
    return items, round_s


def run_frame(rounds, seconds, trace, start):
    """The frame every workload runs in: the call cap on the routes' support
    queries, an untimed warm-up round, with ``trace`` the untraced prefix
    that the tracing overhead is taken against, then rounds until
    ``seconds``.  ``start(budget, tracer)`` installs the workload's probes
    and returns (play, stop): ``play(k, layers)`` runs round k and returns
    (items, timed seconds), folding its spans into ``layers`` outside the
    timed part; ``stop()`` removes the probes.  Returns (items, info)."""
    from tracing import CallBudget, Layers, Tracer

    import sepopt.reductions as reductions

    prefix = rounds.spec["prefix"]
    budget = CallBudget()
    original_support = reductions.support
    reductions.support = budget.wrap(original_support)
    tracer = layers = stop = None
    info = {}
    try:
        play, stop = start(budget, None)
        play(0, None)                              # warm-up, untimed
        if trace:
            info["untraced_prefix_s"] = sum(play(k, None)[1] for k in range(prefix))
            stop()
            tracer = Tracer()
            layers = Layers(WORK / f"spans-{rounds.workload}.jsonl.gz")
            tracer.install()
            play, stop = start(budget, tracer)
        items, round_s = run_rounds(lambda k: play(k, layers), prefix, seconds)
    finally:
        if stop is not None:
            stop()
        if tracer is not None:
            tracer.uninstall()
        reductions.support = original_support
    info.update(rounds=len(round_s), elapsed=sum(round_s), round_s=round_s, layers=layers,
                prefix=prefix, prefix_s=sum(round_s[:prefix]))
    return items, info


def run_local(rounds, seconds, trace):
    """Closed loop in this process, verdict after verdict; returns
    (records, info)."""
    from functools import partial

    import sepopt.heuristic as heuristic
    import sepopt.reductions as reductions

    routes = rounds.spec["routes"]

    def start(budget, tracer):
        runner = Runner(budget, tracer)
        ours, standard = reductions.heuristic_reduction, reductions.standard_reduction
        if tracer is not None:
            ours = tracer.span("reductions.heuristic_reduction", ours)
            standard = tracer.span("reductions.standard_reduction", standard)
        calls = {"ours": lambda body, p: ours(body, p, DELTA),
                 "standard": lambda body, p: standard(body, p, DELTA),
                 "heuristic": heuristic.run_heuristic}   # traced once installed

        def play(k, layers):
            cases = rounds.cases(k)
            bodies = rounds.bodies(cases)
            done, batches = [], []
            t0 = time.perf_counter()
            for cell, case in cases:
                body = bodies[id(case.shape)]
                for route in routes:
                    rec = runner.timed(route, case.shape.n, partial(calls[route], body, case.p))[0]
                    rec.update(cell=cell, round=k, n=case.shape.n, support_rows=case.shape.rows)
                    done.append((rec, case))
                    if layers is not None:
                        batches.append(tracer.take())
            dt = time.perf_counter() - t0
            for batch in batches:
                layers.fold(batch)
            for rec, case in done:
                check(rec, case)
            return [rec for rec, _ in done], dt
        return play, lambda: None

    return run_frame(rounds, seconds, trace, start)


# ---------------------------------------------------------------- compare

class CompareProbe:
    """Wrappers installed before the pool forks, so workers inherit them.

    The routes that ``cli.compare_one`` calls are timed by ``runner`` under
    the call cap; ``compare_one`` itself gets the busy interval, the routes'
    records and (when tracing) the worker's spans attached to its row."""

    def __init__(self, runner):
        import sepopt.cli as cli

        self.cli = cli
        self.runner = runner
        self.path = None
        self.routes = []
        self._restore = []

    def install(self):
        tracer = self.runner.tracer
        for attr, route in (("heuristic_reduction", "ours"),
                            ("standard_reduction", "standard")):
            fn = getattr(self.cli, attr)
            if tracer is not None:
                fn = tracer.span(f"reductions.{attr}", fn)
            self._patch(attr, self._timed(route, fn))
        fn = self.cli.compare_one
        if tracer is not None:
            fn = tracer.span("cli.compare_one", fn)
        self._patch("compare_one", self._row(fn))

    def uninstall(self):
        while self._restore:
            attr, original = self._restore.pop()
            setattr(self.cli, attr, original)

    def _patch(self, attr, fn):
        self._restore.append((attr, getattr(self.cli, attr)))
        setattr(self.cli, attr, fn)

    def _timed(self, route, fn):
        probe = self

        def timed(body, p, delta, cfg):
            # the corpus path is fresh every round, so (path, route) is unique
            rec, out, exc = probe.runner.timed(route, body.dimension,
                                               lambda: fn(body, p, delta, cfg),
                                               vid=(probe.path, route))
            probe.routes.append(rec)
            if exc is not None:
                raise exc
            return out
        return timed

    def _row(self, fn):
        probe = self
        tracer = self.runner.tracer

        def row_with_records(path, *args):
            probe.path, probe.routes = str(path), []
            if tracer is not None:
                tracer.take()
            start = time.perf_counter()
            row = fn(path, *args)
            row.bench = {"busy": time.perf_counter() - start, "routes": probe.routes,
                         "spans": tracer.take() if tracer is not None else None}
            return row
        return row_with_records


def run_compare(rounds, seconds, trace):
    """``compare_corpus(jobs=2)`` over one fresh corpus per round; returns
    (records, info)."""
    import multiprocessing

    import sepopt.cli as cli

    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("the compare probes reach the workers only through fork")

    def start(budget, tracer):
        probe = CompareProbe(Runner(budget, tracer))
        probe.install()

        def play(k, layers):
            cases = rounds.cases(k)
            directory = WORK / f"corpus-{os.getpid()}-{k}"
            try:
                corpus = write_corpus(rounds.sepopt, cases, rounds.bodies(cases), directory)
                t0 = time.perf_counter()
                report = cli.compare_corpus(sorted(directory.glob("*.json")), jobs=JOBS)
                dt = time.perf_counter() - t0
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if layers is not None:
                for row in report.rows:
                    layers.fold(row.bench["spans"])
            return [(k, row, corpus) for row in report.rows], dt
        return play, probe.uninstall

    rows, info = run_frame(rounds, seconds, trace, start)
    records, fw_mismatch, busy = [], 0, 0.0
    for k, row, corpus in rows:
        cell, case = corpus[row.instance_id.split("#")[0]]
        busy += row.bench["busy"]
        if row.error is None and (row.true_status == "outside") != case.outside:
            fw_mismatch += 1
        base = {"cell": cell, "round": k, "n": case.shape.n, "support_rows": case.shape.rows}
        for rec in row.bench["routes"]:
            rec.update(base)
            check(rec, case)
            records.append(rec)
        if row.error is not None and not any(r["failed"] for r in row.bench["routes"]):
            # the row failed before any route ran (instance load or distance oracle)
            records.append(dict(base, id=None, route="compare", s=0.0, calls=0, rows=0,
                                failed=row.error, wrong=None, inconclusive=False,
                                touching=False))
    info.update(rows=len(rows), fw_mismatch=fw_mismatch, busy=busy,
                errors=sum(row.error is not None for _, row, _ in rows))
    return records, info


# ---------------------------------------------------------------- metrics

def end_to_end(records, info, setup_s):
    """Failed verdicts count at their capped time and calls.  Throughput and
    time per verdict are medians over rounds, so a burst of noise or one
    heavy round (a Frank-Wolfe run to its step limit in ``compare``) moves
    one round, not the figure; calls are exact means over the prefix rounds,
    where every stall shows."""
    rounds = {}
    for r in records:
        rounds.setdefault(r["round"], []).append(r)
    good = [sum(r["failed"] is None and r["wrong"] is None and not r["inconclusive"]
                for r in rounds[k]) / dt for k, dt in enumerate(info["round_s"])]
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (statistics.median(good), "1/s"),
        "peak_rss_mb": (peak_rss_mb("rows" in info), "MB"),
    }
    for route in ("ours", "standard"):
        per_round = [statistics.fmean(times) for group in rounds.values()
                     if (times := [r["s"] for r in group if r["route"] == route])]
        mine = [r for r in records if r["route"] == route]
        metrics[f"{route}.ms_per_verdict"] = (1000.0 * statistics.median(per_round), "ms")
        metrics[f"{route}.calls_mean"] = (prefix_mean(mine, info, "calls"), "calls")
    return metrics


def latency(records):
    """Per route: verdicts timed, and p50 / p90 / max wall time in ms."""
    out = {}
    for route in ROUTES:
        ms = [1000.0 * r["s"] for r in records if r["route"] == route]
        if ms:
            out[route] = {"verdicts": len(ms), "p50": percentile(ms, 0.5),
                          "p90": percentile(ms, 0.9), "max": max(ms)}
    return out


def prefix_mean(records, info, key):
    """Mean of ``key`` over the prefix rounds, which every run completes."""
    first = [r[key] for r in in_prefix(records, info)]
    return statistics.fmean(first) if first else 0.0


def peak_rss_mb(workers):
    """Peak resident set of this process, or of any worker when ``workers``."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def per_layer(records, info, workload):
    """The traced run's layer metrics, per round unless a share or ratio."""
    L = info["layers"]
    rounds = info["rounds"]
    calls, sec, self_s = L.calls, L.seconds, L.self_seconds

    def per_round(x):
        return x / rounds

    def err(name, kind):
        return per_round(L.errors[(name, kind)])

    wall = sum(r["s"] for r in records if r["route"] in ROUTES)
    route_support = sum(L.support_by_verdict.values())
    centers = calls["analytic_center.analytic_center"]
    newton = calls["analytic_center.newton_step"]
    iterations = calls["traces.TraceRow"]
    stops = L.info["cutting_plane.solve_feasibility"]
    probes = calls["reductions.separate_polar_slice"]
    support_bytes = sum(L.support_by_verdict.get(r["id"], 0) * 8 * r["n"] * r["support_rows"]
                        for r in records)
    heur = [r for r in records if r["route"] == "heuristic"]
    completed = [r for r in records if r["route"] in ("ours", "standard") and r["failed"] is None]
    unaccounted = sum(abs(L.support_by_verdict.get(r["id"], 0) - r["calls"])
                      for r in completed)
    elapsed = info["elapsed"]
    m = {
        "bodies.support.calls": (per_round(route_support), "count"),
        "bodies.support.s": (per_round(sec["bodies.support"]), "s"),
        "bodies.support.share": (sec["bodies.support"] / wall if wall else 0.0, "fraction"),
        "bodies.support.bytes": (per_round(support_bytes), "B"),
        "bodies.distance_to_body.calls": (per_round(calls["bodies.distance_to_body"]), "count"),
        "bodies.distance_to_body.s": (per_round(sec["bodies.distance_to_body"]), "s"),
        "bodies.distance_to_body.support_calls": (per_round(L.fw_support_calls), "count"),
        "bodies.distance_to_body.no_convergence":
            (err("bodies.distance_to_body", "NoConvergence"), "count"),
        "analytic_center.centers": (per_round(centers), "count"),
        "analytic_center.centers_in_drop": (per_round(L.centers_in_drop), "count"),
        "analytic_center.newton_steps": (per_round(newton), "count"),
        "analytic_center.newton_per_center": (newton / centers if centers else 0.0, "steps"),
        "analytic_center.s": (per_round(sec["analytic_center.analytic_center"]), "s"),
        "analytic_center.ms_per_center":
            (1000.0 * sec["analytic_center.analytic_center"] / centers if centers else 0.0, "ms"),
        "analytic_center.cut_slacks.calls": (per_round(calls["analytic_center.cut_slacks"]), "count"),
        "analytic_center.cut_slacks.s": (per_round(sec["analytic_center.cut_slacks"]), "s"),
        "analytic_center.add_cut.s": (per_round(sec["analytic_center.add_cut"]), "s"),
        "analytic_center.drop.calls": (per_round(calls["analytic_center.drop"]), "count"),
        "analytic_center.drop.cuts_dropped":
            (per_round(L.info["analytic_center.drop"]["sum"]), "count"),
        "analytic_center.drop.s": (per_round(sec["analytic_center.drop"]), "s"),
        "analytic_center.phase1.calls": (per_round(calls["analytic_center.phase1"]), "count"),
        "analytic_center.no_convergence":
            (err("analytic_center.analytic_center", "NoConvergence"), "count"),
        "cutting_plane.iterations": (per_round(iterations), "count"),
        "cutting_plane.self_s": (per_round(self_s["cutting_plane.solve_feasibility"]), "s"),
        "cutting_plane.conic_residual.s": (per_round(sec["cutting_plane.conic_residual"]), "s"),
        "cutting_plane.useful_center_share": (iterations / centers if centers else 0.0, "fraction"),
    }
    reasons = ("member", "size_floor", "iteration_budget", "empty_interior")
    for reason in reasons:
        m[f"cutting_plane.stop.{reason}"] = (per_round(stops[reason]), "count")
    m["cutting_plane.stop.raised"] = (
        per_round(calls["cutting_plane.solve_feasibility"] - sum(stops[r] for r in reasons)),
        "count")
    m.update({
        "reductions.self_s": (per_round(self_s["reductions.heuristic_reduction"]
                                       + self_s["reductions.standard_reduction"]), "s"),
        "reductions.verify.s": (per_round(sec["reductions.verify"]), "s"),
        "reductions.correction_cut.calls": (per_round(calls["reductions.correction_cut"]), "count"),
        "reductions.degenerate_retries":
            (err("reductions.correction_cut", "DegenerateCut"), "count"),
        "reductions.polar_probes": (per_round(probes), "count"),
        "reductions.polar_free_share": (L.polar_free / probes if probes else 0.0, "fraction"),
        "heuristic.run.s": (per_round(sec["heuristic.run"]), "s"),
        "heuristic.iterations": (per_round(sum(r["calls"] for r in heur)), "count"),
        "heuristic.ms_p50": (percentile([1000 * r["s"] for r in heur], 0.5) if heur else 0.0, "ms"),
        "heuristic.calls_mean": (prefix_mean(heur, info, "calls"), "calls"),
        "heuristic.inconclusive_share":
            (prefix_mean(heur, info, "inconclusive"), "fraction"),
        "instances.load.s": (per_round(sec["instances.load"]), "s"),
        "cli.compare_one.s": (per_round(sec["cli.compare_one"]), "s"),
        "cli.worker_busy_share":
            (info.get("busy", 0.0) / (JOBS * elapsed) if workload == "compare" else 0.0,
             "fraction"),
        "cli.rows_per_s": (info.get("rows", 0) / elapsed, "1/s"),
        "cli.fw_disagreements": (per_round(info.get("fw_mismatch", 0)), "count"),
        "traces.rows": (per_round(sum(r["rows"] for r in records)), "count"),
        "verdicts.failed_share": (share(in_prefix(records, info), "failed"), "fraction"),
        "verdicts.wrong_share": (share(in_prefix(records, info), "wrong"), "fraction"),
        "verdicts.touching_share": (share(in_prefix(records, info), "touching"), "fraction"),
        "trace.overhead_s": (info["prefix_s"] - info["untraced_prefix_s"], "s"),
        "trace.overhead_share": (info["prefix_s"] / info["untraced_prefix_s"] - 1.0, "fraction"),
        "trace.support_calls_unaccounted": (per_round(unaccounted), "count"),
        # spans sum to their roots: this stays at or under 1
        "trace.self_share": (sum(self_s.values()) / (info["busy"] if "busy" in info else wall),
                             "fraction"),
    })
    return m


def in_prefix(records, info):
    """The records of the prefix rounds, which every run completes."""
    return [r for r in records if r["round"] < info["prefix"]]


def share(records, key):
    """Share of records whose ``key`` is set (a reason string, or True)."""
    return sum(r[key] not in (None, False) for r in records) / len(records)


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def cells_summary(records):
    """Per cell and route: verdicts, failures, wrong, and call range."""
    out = {}
    for r in records:
        key = f"{r['cell']} {r['route']}"
        cell = out.setdefault(key, {"verdicts": 0, "failed": 0, "wrong": 0, "touching": 0,
                                    "calls_min": None, "calls_max": 0, "ms_max": 0.0})
        cell["verdicts"] += 1
        cell["failed"] += r["failed"] is not None
        cell["wrong"] += r["wrong"] is not None
        cell["touching"] += r["touching"]
        if r["failed"] is None:
            lo = cell["calls_min"]
            cell["calls_min"] = r["calls"] if lo is None else min(lo, r["calls"])
            cell["calls_max"] = max(cell["calls_max"], r["calls"])
        cell["ms_max"] = max(cell["ms_max"], round(1000 * r["s"], 3))
    return out


def failures(records, seed):
    """Every failed or wrong verdict, with its cell, seed and round."""
    return [{"cell": r["cell"], "route": r["route"], "seed": seed, "round": r["round"],
             "calls": r["calls"], "failed": r["failed"], "wrong": r["wrong"]}
            for r in records if r["failed"] is not None or r["wrong"] is not None]


# ---------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sepopt" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no sepopt sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import sepopt

    rounds = Rounds(args.workload, args.seed, sepopt)
    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    run = run_compare if args.workload == "compare" else run_local
    records, info = run(rounds, args.seconds, bool(args.trace))

    if args.trace:
        metrics = per_layer(records, info, args.workload)
    else:
        metrics = end_to_end(records, info, setup_s)
    first = in_prefix(records, info)
    result = {
        "correct": not any(r["wrong"] is not None for r in records),
        "attempted": len(first),
        "failed": sum(r["failed"] is not None for r in first),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples_s": setup_samples,
        "rounds": info["rounds"],
        "elapsed_s": info["elapsed"],
        "latency_ms": latency(records),
        "compare": {k: info[k] for k in ("rows", "errors", "fw_mismatch") if k in info},
        "cells": cells_summary(records),
        "failures": failures(records, args.seed),
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
