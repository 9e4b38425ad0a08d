"""Bitwise identity of both certified routes on a seeded set of runs.

``tests/data/engine_golden.json`` holds, per run, the inputs (body data and
query point) and what ``heuristic_reduction`` and ``standard_reduction``
return with their default configs: oracle calls, iterations, stop reason,
separator, margin and every trace centre, floats written as ``float.hex``.
The test replays each run and compares exactly, so an engine change that
moves a single bit of a centre shows.  The bodies are built as in
``perfbench/families.py``: poly(n) is ±e_i plus 4n random unit vertices with
r0 = 0.999/√n, ellipsoid(n) is ball(0, 1) mapped by Q·diag(D)·Qᵀ; points lie
at 0.99 ρ(u) (just-in) or 1.01 ρ(u) (just-out) along a random unit u.

The inputs are stored rather than regenerated so that the file does not
depend on LAPACK or the linear-programming solver.  Re-record only for a
change that is meant to alter the arithmetic:

    PYTHONPATH=src python tests/test_engine_identity.py --record
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sepopt import affine_image, ball, heuristic_reduction, standard_reduction, vertex_polytope

GOLDEN = Path(__file__).resolve().parent / "data" / "engine_golden.json"
DELTA = 1e-3
SEED = 7
KINDS = ("poly", "ellipsoid")
DIMENSIONS = (4, 8)
PLACEMENTS = {"just-in": 0.99, "just-out": 1.01}
ROUTES = {"ours": heuristic_reduction, "standard": standard_reduction}
RUN_IDS = [f"{kind}({n}) {placement}"
           for kind in KINDS for n in DIMENSIONS for placement in PLACEMENTS]


def hexes(values):
    return [float(v).hex() for v in values]


def floats(hexed):
    return np.array([float.fromhex(v) for v in hexed])


def build_body(run):
    data = np.array([floats(row) for row in run["data"]])
    if run["kind"] == "poly":
        return vertex_polytope(data, inner_radius=float.fromhex(run["r0"]), outer_radius=1.0)
    return affine_image(ball(np.zeros(run["n"]), 1.0), data)


def outcome(route, body, p):
    """What one route returns, in the golden file's exact form."""
    verdict = ROUTES[route](body, p, DELTA)
    return {
        "oracle_calls": verdict.oracle_calls,
        "iterations": verdict.iterations,
        "reason": verdict.reason,
        "separator": None if verdict.separator is None else hexes(verdict.separator),
        "margin": None if verdict.margin is None else float(verdict.margin).hex(),
        "centers": [hexes(row.center) for row in verdict.trace.rows],
    }


def generate_inputs():
    """The seeded run inputs (needs scipy's linprog for poly radii)."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(SEED)
    runs = []
    for kind in KINDS:
        for n in DIMENSIONS:
            if kind == "poly":
                extra = rng.normal(size=(4 * n, n))
                extra /= np.linalg.norm(extra, axis=1, keepdims=True)
                data = np.vstack([np.eye(n), -np.eye(n), extra])
                r0 = 0.999 / np.sqrt(n)
            else:
                q, r = np.linalg.qr(rng.normal(size=(n, n)))
                q = q * np.sign(np.diag(r))
                data = (q * rng.uniform(0.5, 2.0, size=n)) @ q.T
                r0 = None
            for placement, scale in PLACEMENTS.items():
                u = rng.normal(size=n)
                u /= np.linalg.norm(u)
                if kind == "poly":
                    res = linprog(-u, A_ub=data, b_ub=np.ones(len(data)),
                                  bounds=[(None, None)] * n, method="highs")
                    rho = 1.0 / float(u @ res.x)
                else:
                    rho = 1.0 / float(np.linalg.norm(np.linalg.solve(data, u)))
                runs.append({
                    "kind": kind,
                    "n": n,
                    "r0": None if r0 is None else float(r0).hex(),
                    "data": [hexes(row) for row in data],
                    "p": hexes(scale * rho * u),
                })
    return dict(zip(RUN_IDS, runs))


def record():
    runs = generate_inputs()
    for run in runs.values():
        body, p = build_body(run), floats(run["p"])
        for route in ROUTES:
            run[route] = outcome(route, body, p)
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(run)}"
                                          for key, run in runs.items()) + "\n}\n")


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("run_id", RUN_IDS)
def test_route_is_bitwise_identical_to_golden(run_id, route):
    run = golden()[run_id]
    expected = run[route]
    got = outcome(route, build_body(run), floats(run["p"]))
    assert {k: got[k] for k in got if k != "centers"} == \
        {k: expected[k] for k in expected if k != "centers"}
    assert len(got["centers"]) == len(expected["centers"])
    for i, (a, b) in enumerate(zip(got["centers"], expected["centers"])):
        assert a == b, f"trace centre {i} differs"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
