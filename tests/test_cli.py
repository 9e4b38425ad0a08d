import csv
import functools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sepopt.cli
from sepopt import (
    Instance,
    ball,
    distance_to_body,
    dump_instance,
    load_instance,
    random_instance,
    vertex_polytope,
)
from sepopt.cli import compare_corpus, compare_one, main
from sepopt.errors import InstanceFormatError, NoConvergence
from sepopt.instances import dumps_canonical, parse_instance

DATA = Path(__file__).parent / "data"
WORKED_OUTSIDE = DATA / "worked2d_outside.json"
WORKED_INSIDE = DATA / "worked2d_inside.json"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


# ---------------------------------------------------------------- schema

def test_load_worked_instance():
    inst = load_instance(WORKED_OUTSIDE)
    assert inst.body.dimension == 2
    assert inst.delta == 1e-3
    assert np.allclose(inst.query_point, [-7 / 8, -3 / 4])


def test_unknown_top_level_field_rejected(tmp_path):
    obj = json.loads(WORKED_OUTSIDE.read_text())
    obj["comment"] = "nope"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(InstanceFormatError, match="unknown field"):
        load_instance(bad)


def test_unknown_body_field_rejected(tmp_path):
    obj = json.loads(WORKED_OUTSIDE.read_text())
    obj["body"]["color"] = "red"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(InstanceFormatError, match="unknown field"):
        load_instance(bad)


def test_missing_field_rejected(tmp_path):
    obj = json.loads(WORKED_OUTSIDE.read_text())
    del obj["inner_radius"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(InstanceFormatError, match="missing field"):
        load_instance(bad)


def test_zero_dimension_rejected():
    with pytest.raises(InstanceFormatError, match="dimension"):
        parse_instance({"dimension": 0, "body": {"type": "ball", "center": [], "radius": 1},
                        "outer_radius": 1, "inner_radius": 1,
                        "query_point": [], "delta": 1e-3})


def test_roundtrip_is_idempotent(tmp_path):
    inst = load_instance(WORKED_OUTSIDE)
    text1 = dump_instance(inst)
    inst2 = parse_instance(json.loads(text1))
    text2 = dump_instance(inst2)
    assert text1 == text2
    assert np.array_equal(inst.body.variant.vertices, inst2.body.variant.vertices)


def test_floats_serialized_with_full_precision():
    x = 0.1 + 0.2  # 0.30000000000000004
    body = ball([0.0, 0.0], 1.0)
    inst = Instance(body, np.array([x, 0.0]), 1e-3)
    text = dump_instance(inst)
    assert float(json.loads(text)["query_point"][0]) == x


def test_ball_instance_roundtrip(tmp_path):
    path = tmp_path / "ball.json"
    dump_instance(Instance(ball([0.1, -0.2], 1.5), np.array([3.0, 0.0]), 1e-4), path)
    inst = load_instance(path)
    assert inst.body.variant.radius == 1.5
    assert np.allclose(inst.body.variant.center, [0.1, -0.2])


def test_indented_form_prints_empty_arrays_like_compact_form():
    obj = {"a": np.empty(0), "b": np.empty((0, 3)), "c": [], "d": ()}
    assert json.loads(dumps_canonical(obj, indent=2)) == json.loads(dumps_canonical(obj))
    assert dumps_canonical(obj, indent=2) == '{\n  "a": [],\n  "b": [],\n  "c": [],\n  "d": []\n}'


# ---------------------------------------------------------------- separate

def test_separate_worked_outside_direction_search(capsys):
    code = main(["separate", "--instance", str(WORKED_OUTSIDE), "--mode", "ours"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "separated"
    assert out["schema_version"] == 1
    assert out["oracle_calls"] == 1
    assert out["separator"] == pytest.approx([-1.0, -6.0 / 7.0], abs=1e-12)
    assert out["margin"] > 0
    assert out["tolerances"]["delta"] == 1e-3


def test_separate_interior_standard_mode(capsys):
    code = main(["separate", "--instance", str(WORKED_INSIDE), "--mode", "standard"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"] == "in_body"
    assert out["separator"] is None


def test_separate_heuristic_mode_exit_codes(capsys):
    code = main(["separate", "--instance", str(WORKED_OUTSIDE), "--mode", "heuristic"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "separated"

    code = main(["separate", "--instance", str(WORKED_INSIDE), "--mode", "heuristic",
                 "--max-iterations", "40"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["verdict"] == "inconclusive"
    assert out["iterations"] == 40


def test_separate_mode_aliases_match(capsys):
    main(["separate", "--instance", str(WORKED_OUTSIDE), "--mode", "ours"])
    ours = json.loads(capsys.readouterr().out)
    main(["separate", "--instance", str(WORKED_OUTSIDE), "--mode", "heuristic_reduction"])
    alias = json.loads(capsys.readouterr().out)
    assert ours["separator"] == alias["separator"]
    assert alias["mode"] == "heuristic_reduction"


def test_separate_malformed_instance_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 0}')
    code = main(["separate", "--instance", str(bad), "--mode", "ours"])
    assert code == 64
    assert "missing field" in capsys.readouterr().err


def test_separate_bad_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["separate", "--instance", "x.json", "--mode", "bogus"])
    assert exc.value.code == 64


@pytest.mark.parametrize("flags", [
    ["--delta", "0"], ["--delta=-1e-3"], ["--delta", "nan"], ["--max-iterations", "0"],
    ["--mode", "heuristic", "--max-iterations", "0"], ["--max-cuts", "1"],
    ["--cut-depth=0.1"], ["--cut-depth=nan"], ["--r-min", "0"], ["--r-min", "inf"],
    ["--seed=-1"],
])
def test_separate_out_of_range_flag_is_usage_error(flags, capsys):
    argv = ["separate", "--instance", str(WORKED_INSIDE), "--mode", "ours", *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "error: argument" in capsys.readouterr().err


def test_compare_nonpositive_delta_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--corpus", str(tmp_path), "--out", str(tmp_path / "r.json"),
              "--delta", "0"])
    assert exc.value.code == 64


@pytest.mark.parametrize("mode", ["heuristic", "ours", "standard"])
@pytest.mark.parametrize("field, value", [
    ("query_point", [float("nan"), 0.0]),
    ("query_point", [float("inf"), 0.0]),
    ("delta", float("nan")),
    ("delta", float("inf")),
    ("outer_radius", float("inf")),
    ("vertex", [float("nan"), 1.0]),
    ("ball center", [float("nan"), 0.0]),
    ("ball radius", float("nan")),
])
def test_separate_non_finite_instance_number_is_usage_error(field, value, mode, tmp_path,
                                                            capsys):
    if field.startswith("ball"):
        obj = json.loads(dump_instance(Instance(ball([0.0, 0.0], 1.0), np.array([2.0, 0.0]),
                                                1e-3)))
        obj["body"][field.split()[1]] = value
    else:
        obj = json.loads(WORKED_OUTSIDE.read_text())
        if field == "vertex":
            obj["body"]["vertices"][0] = value
        else:
            obj[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["separate", "--instance", str(bad), "--mode", mode]) == 64
    assert "finite" in capsys.readouterr().err


def test_separate_writes_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main(["separate", "--instance", str(WORKED_OUTSIDE), "--mode", "ours",
                 "--trace", str(trace_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["trace_path"] == str(trace_path)
    trace = json.loads(trace_path.read_text())
    assert trace["mode"] == "heuristic_reduction"
    assert trace["verdict"] == "separated"
    assert trace["oracle_calls"] == 1
    assert len(trace["rows"]) == 1
    row = trace["rows"][0]
    assert set(row) >= {"iteration", "center", "query", "oracle_answer",
                        "cut_normal", "cut_offset", "cut_kind", "inradius"}


def test_separate_delta_override(capsys):
    main(["separate", "--instance", str(WORKED_INSIDE), "--mode", "ours",
          "--delta", "0.01"])
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == 0.01
    assert out["tolerances"]["delta"] == 0.01


# ---------------------------------------------------------------- compare

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    for i in range(6):
        n = 2 + i % 2
        place = "outside" if i % 2 == 0 else "inside"
        margin = 0.25 if place == "outside" else 0.1
        body, p = random_instance(n, n + 4, 700 + i, place=place, margin=margin)
        dump_instance(Instance(body, p, 1e-3),
                      corpus / f"inst_{i:02d}_{place}.json")
    return corpus


def test_compare_writes_report_and_csv(small_corpus, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["compare", "--corpus", str(small_corpus), "--out", str(out_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["instances"] == 6
    assert summary["disagreements"] == 0

    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert len(report["rows"]) == 6
    for mode in ("heuristic_reduction", "standard_reduction"):
        assert report["aggregates"][mode]["mean_calls"] is not None
        assert report["aggregates"][mode]["median_calls_outside"] is not None
    with open(out_path.with_suffix(".csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["agreement"] == "True" for r in rows)


def test_compare_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out_path = tmp_path / "report.json"
    code = main(["compare", "--corpus", str(empty), "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["rows"] == []


def test_compare_flags_malformed_file_and_continues(small_corpus, tmp_path, capsys):
    import shutil

    corpus = tmp_path / "mixed"
    shutil.copytree(small_corpus, corpus)
    (corpus / "broken.json").write_text("{not json")
    out_path = tmp_path / "report.json"
    code = main(["compare", "--corpus", str(corpus), "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    flagged = [r for r in report["rows"] if r["error"]]
    clean = [r for r in report["rows"] if not r["error"]]
    assert len(flagged) == 1
    assert len(clean) == 6
    assert report["aggregates"]["failed"] == 1
    assert report["aggregates"]["disagreements"] == 0


def test_compare_worker_pool_matches_serial(small_corpus, tmp_path):
    paths = sorted(small_corpus.glob("*.json"))
    serial = compare_corpus(paths, jobs=1)
    parallel = compare_corpus(paths, jobs=2)
    assert [r.to_dict() for r in serial.rows] == [r.to_dict() for r in parallel.rows]


def compare_with_step_budget(monkeypatch, path, max_iterations):
    """compare_one on ``path`` with the distance iteration capped so that it
    cannot converge."""
    instance = load_instance(path)
    capped = functools.partial(distance_to_body, max_iterations=max_iterations)
    with pytest.raises(NoConvergence):
        capped(instance.body, instance.query_point, tol=1e-4)
    monkeypatch.setattr(sepopt.cli, "distance_to_body", capped)
    return compare_one(path)


def test_compare_decides_far_outside_point_from_unconverged_distance(tmp_path, monkeypatch):
    body, p = random_instance(3, 7, 800, place="outside", margin=0.5)
    path = tmp_path / "far.json"
    dump_instance(Instance(body, p, 1e-3), path)
    row = compare_with_step_budget(monkeypatch, path, max_iterations=1)
    assert row.error is None
    assert row.true_status == "outside"
    assert row.true_distance >= 0.5
    assert row.heuristic_verdict == "separated"
    assert row.standard_verdict == "separated"
    assert row.heuristic_calls > 0 and row.standard_calls > 0
    assert row.agreement


def test_compare_decides_point_near_vertex_from_unconverged_distance(tmp_path, monkeypatch):
    square = vertex_polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]], inner_radius=1.0)
    path = tmp_path / "corner.json"
    dump_instance(Instance(square, np.array([0.9999, 0.9999]), 1e-3), path)
    row = compare_with_step_budget(monkeypatch, path, max_iterations=0)
    assert row.error is None
    assert row.true_status == "inside"
    assert row.heuristic_verdict == "in_body"
    assert row.standard_verdict == "in_body"
    assert row.agreement


def test_compare_keeps_error_when_unconverged_distance_decides_nothing(tmp_path, monkeypatch):
    body, p = random_instance(3, 7, 801, place="inside", margin=0.1)
    path = tmp_path / "inside.json"
    dump_instance(Instance(body, p, 1e-3), path)
    row = compare_with_step_budget(monkeypatch, path, max_iterations=0)
    assert row.true_status == "error"
    assert row.error.startswith("NoConvergence: distance iteration did not reach")


# ---------------------------------------------------------------- trace2d

def test_trace2d_single_row_for_worked_outside(tmp_path):
    out_csv = tmp_path / "t.csv"
    code = main(["trace2d", "--instance", str(WORKED_OUTSIDE), "--mode", "ours",
                 "--out", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["cut_ax"] == ""  # member on the first query, no cut
    assert float(rows[0]["center_x"]) != 0.0


def test_trace2d_interior_runs_until_floor(tmp_path):
    out_csv = tmp_path / "t.csv"
    code = main(["trace2d", "--instance", str(WORKED_INSIDE), "--mode", "ours",
                 "--out", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 3
    assert all(r["cut_ax"] != "" for r in rows)


def test_trace2d_rejects_other_dimensions(tmp_path, capsys):
    body, p = random_instance(3, 6, 11, place="outside", margin=0.2)
    path = tmp_path / "n3.json"
    dump_instance(Instance(body, p, 1e-3), path)
    code = main(["trace2d", "--instance", str(path), "--mode", "ours",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 64
    assert "2-D" in capsys.readouterr().err


# ---------------------------------------------------------------- process

def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sepopt.cli", "separate",
         "--instance", str(WORKED_OUTSIDE), "--mode", "standard"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "separated"
    assert payload["margin"] > 0


def test_separate_ball_instance(capsys):
    code = main(["separate", "--instance", str(DATA / "ball2d_outside.json"),
                 "--mode", "standard"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["separator"] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert out["margin"] == pytest.approx(1.0, abs=1e-9)


def test_separate_cut_depth_flag(capsys):
    # scientific-notation negatives need the = form under argparse
    code = main(["separate", "--instance", str(WORKED_INSIDE), "--mode", "ours",
                 "--cut-depth=-1e-5", "--trace", "/dev/null"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["tolerances"]["cut_depth"] == -1e-5


def test_compare_multiple_seeds(small_corpus, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["compare", "--corpus", str(small_corpus), "--out", str(out_path),
                 "--seeds", "0,1"])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert len(report["rows"]) == 12  # 6 instances x 2 seeds
    ids = [r["instance_id"] for r in report["rows"]]
    assert any(i.endswith("#s0") for i in ids) and any(i.endswith("#s1") for i in ids)
    assert report["aggregates"]["disagreements"] == 0


def test_separate_writes_heuristic_trace(tmp_path, capsys):
    trace_path = tmp_path / "htrace.json"
    code = main(["separate", "--instance", str(WORKED_INSIDE), "--mode", "heuristic",
                 "--max-iterations", "12", "--trace", str(trace_path)])
    assert code == 2
    capsys.readouterr()
    trace = json.loads(trace_path.read_text())
    assert trace["mode"] == "heuristic"
    assert trace["verdict"] == "inconclusive"
    assert len(trace["rows"]) == 12
    for row in trace["rows"]:
        assert row["support_calls"] == 1
        assert row["query"] is not None and row["support_point"] is not None
