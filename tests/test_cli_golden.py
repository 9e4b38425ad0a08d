"""Byte identity of the ``sepopt`` commands' output.

``tests/data/cli_golden.json`` holds, for every instance file under
``tests/data`` (other than ``engine_golden.json``; all of them 2-D) and every
mode ``heuristic``/``ours``/``standard``:

- the exact stdout text of ``sepopt separate --trace F`` with the trace path
  written as ``null``, the exit code, and the sha256 of the trace file with
  its ``wall_time`` value masked (the heuristic traces run to hundreds of
  kilobytes, so only their digests are stored);
- the exit code and the sha256 of the ``sepopt trace2d`` CSV;

and the sha256 of the ``sepopt compare`` report JSON and CSV over the corpus
that ``scripts/run_comparison.py``'s ``generate`` writes for dims 2 and 3,
four instances each.  Any change to a verdict, a separator bit, a call
count, the canonical JSON writer or the CSV writer shows here.

Re-record only for a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_cli_golden.py --record

The re-record prints every entry that moved and which of its fields did,
with the ``separate`` oracle calls before and after when they moved.
"""

import contextlib
import functools
import hashlib
import io
import json
import re
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from sepopt.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "cli_golden.json"
INSTANCES = sorted(p.name for p in DATA.glob("*.json")
                   if p.name not in ("engine_golden.json", GOLDEN.name))
MODES = ("heuristic", "ours", "standard")
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_comparison.py"
COMPARE = "compare dims 2,3 per_dim 4"
WALL_TIME = re.compile(r'"wall_time": [^,\n]*')
CALLS = re.compile(r'"oracle_calls": ?(\d+)')


def separate(instance, mode, trace):
    """Stdout with the trace path as null, exit code and masked trace digest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["separate", "--instance", str(DATA / instance), "--mode", mode,
                     "--trace", str(trace)])
    stdout = out.getvalue().replace(json.dumps(str(trace)), "null")
    masked = WALL_TIME.sub('"wall_time": 0', trace.read_text(encoding="utf-8"))
    return {"stdout": stdout, "exit": code,
            "trace_sha256": hashlib.sha256(masked.encode("utf-8")).hexdigest()}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace2d(instance, mode, csv_path):
    code = main(["trace2d", "--instance", str(DATA / instance), "--mode", mode,
                 "--out", str(csv_path)])
    return {"exit": code, "csv_sha256": sha256(csv_path)}


def compare(tmp):
    """Digests of the report JSON and CSV over a freshly generated corpus."""
    corpus, out = tmp / "corpus", tmp / "report.json"
    runpy.run_path(str(SCRIPT))["generate"](corpus, dims=[2, 3], per_dim=4,
                                             delta=1e-3, seed_base=0)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["compare", "--corpus", str(corpus), "--out", str(out), "--jobs", "1"])
    return {"exit": code, "report_sha256": sha256(out),
            "csv_sha256": sha256(out.with_suffix(".csv"))}


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("instance", INSTANCES)
def test_separate_output_is_byte_identical_to_golden(instance, mode, tmp_path):
    expected = golden()[f"{instance} {mode}"]
    got = separate(instance, mode, tmp_path / "trace.json")
    assert got["stdout"] == expected["stdout"]
    assert got["exit"] == expected["exit"]
    assert got["trace_sha256"] == expected["trace_sha256"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("instance", INSTANCES)
def test_trace2d_csv_is_byte_identical_to_golden(instance, mode, tmp_path):
    expected = golden()[f"trace2d {instance} {mode}"]
    assert trace2d(instance, mode, tmp_path / "trace.csv") == expected


def test_compare_report_is_byte_identical_to_golden(tmp_path):
    assert compare(tmp_path) == golden()[COMPARE]


def record():
    with tempfile.TemporaryDirectory() as tmp:
        runs = {f"{instance} {mode}": separate(instance, mode, Path(tmp) / "trace.json")
                for instance in INSTANCES for mode in MODES}
        runs.update({f"trace2d {instance} {mode}": trace2d(instance, mode, Path(tmp) / "t.csv")
                     for instance in INSTANCES for mode in MODES})
        runs[COMPARE] = compare(Path(tmp))
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for key, entry in runs.items():
        old = previous.get(key, {})
        moved = [field for field in entry if old.get(field) != entry[field]]
        if moved:
            calls = [CALLS.search(e.get("stdout", "")) for e in (old, entry)]
            note = (f" (calls {calls[0][1]} → {calls[1][1]})"
                    if all(calls) and calls[0][1] != calls[1][1] else "")
            print(f"{key}: {', '.join(moved)}{note}")
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
