"""Tests of the benchmark itself: its exact ground truth against sepopt's own
oracles on small bodies, the call cap, the span wrappers, and a
seconds-scale smoke run of every workload in both modes.

    python3 -m pytest -q perfbench
"""

import gzip
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import families  # noqa: E402
import run as bench  # noqa: E402
import sepopt  # noqa: E402
from tracing import CallBudget, CallBudgetExceeded, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = [("poly", 4), ("ellipsoid", 4), ("cloud", 4), ("ball", 4)]


@pytest.fixture(autouse=True)
def small_clouds(monkeypatch):
    monkeypatch.setattr(families, "CLOUD_ROWS", 2 ** 12)


def shape_and_body(kind, n, seed=0):
    shape = families.make_shape(kind, n, np.random.default_rng(seed))
    return shape, shape.build(sepopt)


@pytest.mark.parametrize("kind,n", SMALL)
def test_exact_support_matches_sepopt(kind, n):
    shape, body = shape_and_body(kind, n)
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = rng.normal(size=n)
        assert shape.support_value(c) == pytest.approx(sepopt.support(body, c).value,
                                                       rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind,n", SMALL)
def test_boundary_point_touches_its_supporting_plane(kind, n):
    shape, body = shape_and_body(kind, n)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = families.unit(rng, n)
        rho, a = shape.boundary(u)
        assert float(a @ (rho * u)) == pytest.approx(sepopt.support(body, a).value, abs=1e-9)


@pytest.mark.parametrize("placement", sorted(families.PLACEMENTS))
@pytest.mark.parametrize("kind,n", SMALL)
def test_ground_truth_agrees_with_distance_oracle(kind, n, placement):
    shape, body = shape_and_body(kind, n, seed=3)
    case = families.make_case(shape, placement, np.random.default_rng(4), bench.DELTA)
    tol = 1e-6 if case.outside else 1e-3
    dist, _ = sepopt.distance_to_body(body, case.p, tol=tol)
    if case.outside:
        assert dist > bench.DELTA
        assert dist >= case.certified_distance - tol
    else:
        assert dist == 0.0


def test_judge_rechecks_margins_exactly():
    shape, _ = shape_and_body("ellipsoid", 3)
    rng = np.random.default_rng(5)
    out = families.make_case(shape, "far", rng, bench.DELTA)
    inside = families.make_case(shape, "just-in", rng, bench.DELTA)
    assert families.judge(out, True, out.p) is None
    assert "margin" in families.judge(out, True, -out.p)
    assert families.judge(out, False) is not None
    assert families.judge(inside, False) is None
    assert families.judge(inside, True) is not None


def test_cases_repeat_for_a_seed():
    a = bench.Rounds("inside", 7, sepopt).cases(1)
    b = bench.Rounds("inside", 7, sepopt).cases(1)
    c = bench.Rounds("inside", 8, sepopt).cases(1)
    assert [cell for cell, _ in a] == [cell for cell, _ in b]
    assert all(np.array_equal(x.p, y.p) for (_, x), (_, y) in zip(a, b))
    assert not any(np.array_equal(x.p, y.p) for (_, x), (_, y) in zip(a, c))


def test_call_budget_caps_and_resets():
    budget = CallBudget()
    capped = budget.wrap(lambda: "ok")
    budget.reset(2)
    assert capped() == capped() == "ok"
    with pytest.raises(CallBudgetExceeded):
        capped()
    budget.reset(None)
    for _ in range(5):
        capped()
    assert budget.count == 5


def test_failed_verdict_keeps_its_capped_calls():
    budget = CallBudget()
    capped = budget.wrap(lambda: None)

    def stall():
        while True:
            capped()

    rec, out, exc = bench.Runner(budget).timed("ours", 2, stall)
    assert out is None and isinstance(exc, CallBudgetExceeded)
    assert rec["calls"] == bench.call_cap(2) + 1
    assert rec["failed"].startswith("CallBudgetExceeded")
    assert rec["s"] > 0


def test_tracer_restores_every_attribute():
    before = {(m, a): getattr(*tracing_owner(m, a)) for m, a, _, _ in
              importlib.import_module("tracing").TRACE_POINTS}
    tracer = Tracer()
    tracer.install()
    try:
        assert sepopt.reductions.support is not before[("sepopt.reductions", "support")]
    finally:
        tracer.uninstall()
    after = {key: getattr(*tracing_owner(*key)) for key in before}
    assert all(after[key] is before[key] for key in before)


def tracing_owner(module, attr):
    return importlib.import_module("tracing")._owner(module, attr)


def expected_names(trace):
    group = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in BENCHMARK[group]}


@pytest.fixture
def small_workloads(monkeypatch):
    """Every workload at toy sizes, one prefix round; the set-up probes run
    in fresh processes and so measure the real workload's set-up."""
    small = {name: dict(spec, prefix=1) for name, spec in bench.WORKLOADS.items()}
    small["outside"]["dims"] = (3,)
    small["inside"]["dims"] = (3,)
    small["oracle-bound"]["dims"] = (4,)
    small["compare"]["dims"] = (3,)
    small["large"]["dims"] = (3,)
    monkeypatch.setattr(bench, "WORKLOADS", small)
    monkeypatch.setattr(bench, "SETUP_ROUNDS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_every_workload(small_workloads, capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seed", "0", "--seconds", "0.2",
                       "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_names(trace)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["trace.support_calls_unaccounted"] == 0
        assert metrics["bodies.support.calls"] > 0
        assert (metrics["bodies.distance_to_body.calls"] > 0) == (workload == "compare")
        with gzip.open(bench.WORK / f"spans-{workload}.jsonl.gz", "rt") as spans:
            first = json.loads(spans.readline())
        assert first and len(first[0]) == 6
    else:
        assert all(v > 0 for v in metrics.values())
    report = json.loads(lines[-2])["report"]
    assert report["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_exits_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "inside", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
