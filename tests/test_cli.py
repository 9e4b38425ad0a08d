import csv
import functools
import json
import logging
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

from conftest import (RIM_DISC_CENTER, RIM_DISC_INNER_RADIUS, RIM_POINT,
                      WORKED_CUTTING_INSIDE_POINT)

DATA = Path(__file__).parent / "data"
WORKED_OUTSIDE = DATA / "worked2d_outside.json"
WORKED_INSIDE = DATA / "worked2d_inside.json"


def worked_instance_at(tmp_path, point):
    """The worked polytope and delta with ``point`` as the query, written under tmp_path."""
    instance = load_instance(WORKED_INSIDE)
    path = tmp_path / "worked_at.json"
    dump_instance(Instance(instance.body, np.asarray(point, dtype=float), instance.delta), path)
    return path


def rim_instance(tmp_path):
    """The rim disc and its query point (conftest), written under tmp_path."""
    path = tmp_path / "rim.json"
    body = ball(RIM_DISC_CENTER, 1.0, inner_radius=RIM_DISC_INNER_RADIUS)
    dump_instance(Instance(body, RIM_POINT, 1e-3), path)
    return path


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
    ["--mode", "heuristic", "--max-iterations", "0"],
    ["--delta", "inf"], ["--max-iterations", "1.5"],
])
def test_separate_out_of_range_flag_is_usage_error(flags, capsys):
    argv = ["separate", "--instance", str(WORKED_INSIDE), "--mode", "ours", *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--cut-depth=-1e-5"], ["--cut-depth=0"], ["--r-min", "1e-4"],
    ["--cut-depth=0.1"], ["--cut-depth=nan"], ["--r-min", "0"], ["--r-min", "inf"],
    ["--seed", "0"], ["--max-cuts", "1"], ["--max-cuts", "two"],
])
def test_separate_removed_flag_is_usage_error(flags, capsys):
    # a verdict is a function of (body, p, delta): cuts are central, the floor
    # is default_r_min, the engine's cut cap is fixed, and no seed enters
    argv = ["separate", "--instance", str(WORKED_INSIDE), "--mode", "ours", *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, error", [
    (["--seeds", "0"], "unrecognized arguments"), (["--seeds", "0,1"], "unrecognized arguments"),
    (["--jobs=0"], "argument --jobs"), (["--jobs=-5"], "argument --jobs"),
], ids=["seeds-0", "seeds-0,1", "jobs=0", "jobs=-5"])
def test_compare_negative_seed_is_usage_error(flags, error, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--corpus", str(tmp_path), "--out", str(tmp_path / "r.json"), *flags])
    assert exc.value.code == 64
    assert f"error: {error}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["separate", "trace2d", "compare"])
def test_unwritable_output_is_usage_error(command, tmp_path, capsys, monkeypatch):
    rows_run = []
    monkeypatch.setattr(sepopt.cli, "compare_one", lambda *task: rows_run.append(task))
    target = tmp_path / "missing" / "out.json"
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / WORKED_OUTSIDE.name).write_bytes(WORKED_OUTSIDE.read_bytes())
    argv = {
        "separate": ["separate", "--instance", str(WORKED_OUTSIDE), "--mode", "ours",
                     "--trace", str(target)],
        "trace2d": ["trace2d", "--instance", str(WORKED_OUTSIDE), "--mode", "ours",
                    "--out", str(target)],
        "compare": ["compare", "--corpus", str(tmp_path / "c"), "--out", str(target)],
    }[command]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sepopt: cannot write {target}: No such file or directory\n"
    assert rows_run == []


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


@pytest.mark.parametrize("mode, delta", [
    pytest.param("ours", "1e-13", id="ours-1e-13"),
    pytest.param("standard", "1e-4", id="standard-1e-4"),
])
def test_separate_writes_the_trace_of_a_run_that_raises(mode, delta, tmp_path, capsys):
    path = rim_instance(tmp_path)
    argv = ["separate", "--instance", str(path), "--mode", mode, "--delta", delta]
    assert main(argv) == 70
    plain = capsys.readouterr().out
    trace_path = tmp_path / "trace.json"
    assert main([*argv, "--trace", str(trace_path)]) == 70
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["error"]["code"] == "NoConvergence"
    trace = json.loads(trace_path.read_text())
    assert trace["mode"] == sepopt.cli.MODE_ALIASES[mode]
    assert trace["verdict"] == "error"
    assert trace["rows"]
    assert trace["oracle_calls"] == sum(row["support_calls"] for row in trace["rows"])


@pytest.mark.parametrize("mode", ["heuristic", "ours", "standard"])
def test_one_dimensional_instance_is_usage_error(mode, tmp_path, capsys):
    # in 1-D every correction cut is degenerate; such bodies are refused
    # before any route runs
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "dimension": 1, "body": {"type": "vertex_polytope", "vertices": [[-1], [2]]},
        "outer_radius": 2, "inner_radius": 1, "query_point": [0.5], "delta": 1e-3}))
    assert main(["separate", "--instance", str(path), "--mode", mode]) == 64
    assert "dimension must be an integer >= 2" in capsys.readouterr().err
    with pytest.raises(ValueError, match="dimension"):
        vertex_polytope([[-1.0], [2.0]], inner_radius=1.0)


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
    assert [r["instance_id"] for r in report["rows"]] == sorted(
        p.stem for p in small_corpus.glob("*.json"))
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


def test_compare_separator_within_delta_outside_agrees(tmp_path, capsys):
    # at delta 0.5 the worked outside point (0.44 from the body) counts as
    # inside: the direction search certifies a separator with its first
    # query, which weak separation allows there, and the polar route finds
    # a witness of the body within 0.5 first
    corpus = tmp_path / "worked"
    corpus.mkdir()
    for path in (WORKED_INSIDE, WORKED_OUTSIDE):
        (corpus / path.name).write_text(path.read_text())
    out_path = tmp_path / "report.json"
    assert main(["compare", "--corpus", str(corpus), "--out", str(out_path),
                 "--delta", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["disagreements"] == 0
    row = {r["instance_id"]: r for r in json.loads(out_path.read_text())["rows"]}[
        "worked2d_outside"]
    assert row["true_status"] == "inside"
    assert (row["heuristic_verdict"], row["standard_verdict"]) == ("separated", "in_body")
    assert row["agreement"]


def test_compare_at_delta_1e_13_decides_the_worked_inside_row(tmp_path, capsys):
    # the truth's distance iteration reaches p (tol 1e-14 < TOL_ZERO), and
    # both routes stop on a witness after one call
    corpus = tmp_path / "worked"
    corpus.mkdir()
    (corpus / WORKED_INSIDE.name).write_text(WORKED_INSIDE.read_text())
    out_path = tmp_path / "report.json"
    assert main(["compare", "--corpus", str(corpus), "--out", str(out_path),
                 "--delta", "1e-13"]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0
    [row] = json.loads(out_path.read_text())["rows"]
    assert row["error"] is None
    assert (row["true_status"], row["true_distance"]) == ("inside", 0.0)
    assert (row["heuristic_verdict"], row["standard_verdict"]) == ("in_body", "in_body")
    assert (row["heuristic_calls"], row["standard_calls"]) == (1, 1)


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


def test_trace2d_interior_run_cuts_until_its_witness(tmp_path):
    out_csv = tmp_path / "t.csv"
    path = rim_instance(tmp_path)
    code = main(["trace2d", "--instance", str(path), "--mode", "ours", "--delta", "1e-8",
                 "--out", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 3
    # every row cuts but the last, the witness row
    assert all(r["cut_ax"] != "" for r in rows[:-1])
    assert rows[-1]["cut_ax"] == ""


def test_trace2d_writes_the_rows_of_a_run_that_raises(tmp_path, capsys):
    argv = ["--instance", str(rim_instance(tmp_path)), "--mode", "standard", "--delta", "1e-4"]
    trace_path, out_csv = tmp_path / "trace.json", tmp_path / "t.csv"
    assert main(["separate", *argv, "--trace", str(trace_path)]) == 70
    capsys.readouterr()
    assert main(["trace2d", *argv, "--out", str(out_csv)]) == 70
    assert capsys.readouterr().err.startswith("sepopt: NoConvergence: ")
    rows = json.loads(trace_path.read_text())["rows"]
    with open(out_csv) as fh:
        lines = list(csv.DictReader(fh))
    assert len(lines) == len(rows) > 0
    for line, row in zip(lines, rows):
        assert int(line["iteration"]) == row["iteration"]
        assert [float(line["center_x"]), float(line["center_y"])] == row["center"]


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


@pytest.mark.parametrize("mode", ["heuristic", "ours", "standard"])
def test_separate_logs_one_info_summary_line(mode, caplog, capsys):
    caplog.set_level(logging.INFO, logger="sepopt")
    for instance in (WORKED_OUTSIDE, WORKED_INSIDE):
        caplog.clear()
        main(["separate", "--instance", str(instance), "--mode", mode,
              "--max-iterations", "40"])
        info = [r for r in caplog.records if r.levelno == logging.INFO]
        assert len(info) == 1
        assert "support calls" in info[0].getMessage()


def test_separate_heuristic_error_outside_a_run_writes_no_trace(tmp_path, capsys):
    vertex = worked_instance_at(tmp_path, [-1.0, 1.0])
    trace_path = tmp_path / "trace.json"
    code = main(["separate", "--instance", str(vertex), "--mode", "heuristic",
                 "--trace", str(trace_path)])
    assert code == 70
    assert json.loads(capsys.readouterr().out) == {
        "schema_version": 1, "mode": "heuristic",
        "error": {"code": "DegenerateUpdate",
                  "message": "query point coincides with the support maximizer"}}
    assert not trace_path.exists()


def test_separate_ours_declares_a_vertex_in_body_after_one_call(tmp_path, capsys):
    # the first query c = p/|p| has the vertex p itself as its support point:
    # p - k_c = 0 admits no correction cut, and p = k_c is its own witness
    vertex = worked_instance_at(tmp_path, [-1.0, 1.0])
    trace_path = tmp_path / "trace.json"
    code = main(["separate", "--instance", str(vertex), "--mode", "ours",
                 "--trace", str(trace_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (out["verdict"], out["reason"], out["oracle_calls"]) == ("in_body", "witness", 1)
    trace = json.loads(trace_path.read_text())
    assert trace["oracle_calls"] == 1
    [row] = trace["rows"]
    assert row["oracle_answer"] == "witness"
    assert row["support_point"] == [-1.0, 1.0]
    assert row["cut_normal"] is None


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
