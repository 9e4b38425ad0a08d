"""Smoke test of ``scripts/run_comparison.py``: generate a corpus, then compare over it."""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_comparison.py"
DATA = Path(__file__).resolve().parent / "data"


def load_script():
    spec = importlib.util.spec_from_file_location("run_comparison", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_corpus_runs_through_the_comparison(tmp_path, monkeypatch, capsys):
    script = load_script()
    corpus = tmp_path / "corpus"
    script.generate(corpus, dims=[2], per_dim=4, delta=1e-3, seed_base=0)
    assert len(list(corpus.glob("*.json"))) == 4

    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_comparison.py", "--corpus", str(corpus),
                                      "--jobs", "1", "--out", str(out)])
    script.main()
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 4
    assert report["aggregates"]["failed"] == 0
    assert out.with_suffix(".csv").exists()
    assert "instances: 4  failed: 0" in capsys.readouterr().out


def test_empty_corpus_prints_missing_statistics_as_na(tmp_path, monkeypatch, capsys):
    script = load_script()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_comparison.py", "--corpus", str(corpus),
                                      "--jobs", "1", "--out", str(out)])
    script.main()
    assert json.loads(out.read_text())["rows"] == []
    assert out.with_suffix(".csv").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instances: 0  failed: 0  disagreements: 0"
    assert lines[2].split() == ["heuristic_reduction", "n/a", "n/a", "n/a", "n/a"]


@pytest.mark.parametrize("flag, value", [
    ("--delta", "-1"), ("--delta", "0"), ("--delta", "nan"), ("--delta", "inf"),
    ("--per-dim", "-3"), ("--per-dim", "0"), ("--jobs", "-4"), ("--jobs", "0"),
    ("--dims", "1"), ("--dims", "2,x"), ("--dims", "2.5"), ("--dims", ""),
    ("--seed-base", "-5000"),
])
def test_bad_flag_is_a_usage_error_before_any_file_is_written(tmp_path, monkeypatch, capsys,
                                                              flag, value):
    script = load_script()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_comparison.py", "--dims", "2", "--per-dim", "1",
                                      "--jobs", "1", "--out", str(out), flag, value])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not out.exists() and not any(scratch.iterdir())


def test_delta_applies_to_an_existing_corpus(tmp_path, monkeypatch):
    # the same calls as ``sepopt compare --delta 0.5`` over the worked instances:
    # at delta 0.5 the polar route finds a witness within 0.5 of either point
    # after one or two calls
    script = load_script()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("worked2d_inside.json", "worked2d_outside.json"):
        (corpus / name).write_text((DATA / name).read_text())
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_comparison.py", "--corpus", str(corpus),
                                      "--jobs", "1", "--out", str(out), "--delta", "0.5"])
    script.main()
    rows = json.loads(out.read_text())["rows"]
    assert [(r["heuristic_calls"], r["standard_calls"]) for r in rows] == [(1, 1), (1, 2)]


def test_unwritable_output_is_a_usage_error_before_any_corpus_is_made(tmp_path, monkeypatch,
                                                                     capsys):
    script = load_script()
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    out = tmp_path / "missing" / "report.json"
    monkeypatch.setattr(sys, "argv", ["run_comparison.py", "--dims", "2", "--per-dim", "1",
                                      "--jobs", "1", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert f"cannot write {out}" in capsys.readouterr().err
    assert not any(scratch.iterdir())
