"""Byte identity of ``sepopt separate`` on the instances under ``tests/data``.

``tests/data/cli_golden.json`` holds, for every instance file (other than
``engine_golden.json``) and every mode ``heuristic``/``ours``/``standard``:
the exact stdout text of ``sepopt separate --trace F`` with the trace path
written as ``null``, the exit code, and the sha256 of the trace file with its
``wall_time`` value masked (the heuristic traces run to hundreds of
kilobytes, so only their digests are stored).  Any change to a verdict, a
separator bit, a call count or the canonical JSON writer shows here.

Re-record only for a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import functools
import hashlib
import io
import json
import re
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
WALL_TIME = re.compile(r'"wall_time": [^,\n]*')


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


def record():
    with tempfile.TemporaryDirectory() as tmp:
        runs = {f"{instance} {mode}": separate(instance, mode, Path(tmp) / "trace.json")
                for instance in INSTANCES for mode in MODES}
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
