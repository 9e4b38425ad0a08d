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

The re-record prints, per run id and route, which fields moved (with the
oracle calls before and after when they moved), and then the largest |Δ|
of the separators, margins and centres over all runs.
"""

import functools
import importlib
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
DIMENSIONS = (4, 8)        # drawn in turn from one RNG seeded with SEED
OWN_RNG_DIMENSIONS = (16,)  # each drawn from its own RNG seeded with [SEED, n]
PLACEMENTS = {"just-in": 0.99, "just-out": 1.01}
ROUTES = {"ours": heuristic_reduction, "standard": standard_reduction}
RUN_IDS = ([f"{kind}({n}) {placement}"
            for kind in KINDS for n in DIMENSIONS for placement in PLACEMENTS]
           + [f"{kind}({n}) {placement}"
              for n in OWN_RNG_DIMENSIONS for kind in KINDS for placement in PLACEMENTS])


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


def draw_runs(rng, kind, n):
    """The inputs of one body and its placements (needs scipy's linprog for poly radii)."""
    from scipy.optimize import linprog

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
    runs = []
    for scale in PLACEMENTS.values():
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
    return runs


def generate_inputs():
    """The seeded run inputs, keyed by run id.

    Dimensions past ``DIMENSIONS`` draw from their own RNG, so that adding
    one leaves the inputs of the runs already recorded unchanged.
    """
    rng = np.random.default_rng(SEED)
    runs = [run for kind in KINDS for n in DIMENSIONS for run in draw_runs(rng, kind, n)]
    for n in OWN_RNG_DIMENSIONS:
        rng = np.random.default_rng([SEED, n])
        runs += [run for kind in KINDS for run in draw_runs(rng, kind, n)]
    return dict(zip(RUN_IDS, runs))


def largest_delta(old, new):
    """max |old - new| over two equally long lists of hexed floats, else None."""
    if old is None or new is None or len(old) != len(new):
        return None
    return float(np.abs(floats(old) - floats(new)).max(initial=0.0))


def report_moves(previous, runs):
    """Print what moved from the ``previous`` record to ``runs``."""
    worst = {"separator": 0.0, "margin": 0.0, "centres": 0.0}
    for run_id, run in runs.items():
        for route in ROUTES:
            new, old = run[route], previous.get(run_id, {}).get(route)
            if old is None:
                print(f"{run_id} {route}: new")
                continue
            moved = [key for key in new if new[key] != old.get(key)]
            calls = (f" (calls {old['oracle_calls']} → {new['oracle_calls']})"
                     if "oracle_calls" in moved else "")
            print(f"{run_id} {route}: {', '.join(moved) or 'unchanged'}{calls}")
            pairs = {"separator": (old["separator"], new["separator"]),
                     "margin": ([old["margin"]] if old["margin"] else None,
                                [new["margin"]] if new["margin"] else None),
                     "centres": (sum(old["centers"], []), sum(new["centers"], []))}
            for key, (a, b) in pairs.items():
                delta = largest_delta(a, b)
                if delta is not None:
                    worst[key] = max(worst[key], delta)
    print("largest |Δ|: " + ", ".join(f"{key} {value:.2g}" for key, value in worst.items()))


def record():
    previous = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    runs = generate_inputs()
    for run in runs.values():
        body, p = build_body(run), floats(run["p"])
        for route in ROUTES:
            run[route] = outcome(route, body, p)
    report_moves(previous, runs)
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


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("run_id", RUN_IDS)
def test_phase1_runs_only_for_the_direction_search_initial_region(run_id, route,
                                                                  monkeypatch):
    # every in-loop centring starts from the old centre's Dikin restart
    # point, which is interior, so phase-1 is left only to a first region
    # whose origin is not interior: the direction search's {x : (p/|p|).x >= 0}
    module = importlib.import_module("sepopt.analytic_center")
    original = module._phase1
    regions = []

    def counted(P, *args, **kwargs):
        regions.append((len(P.cuts), P.center))
        return original(P, *args, **kwargs)

    monkeypatch.setattr(module, "_phase1", counted)
    run = golden()[run_id]
    outcome(route, build_body(run), floats(run["p"]))
    if route == "standard":
        assert regions == []
    else:
        assert len(regions) <= 1
        assert all(cuts == 1 and center is None for cuts, center in regions)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("run_id", RUN_IDS)
def test_oracle_calls_are_the_rows_support_calls_and_every_call_made(run_id, route,
                                                                     monkeypatch):
    # the oracles call the module's ``support``, so counting on it sees
    # every call the route makes; the verdict reads its count off the rows
    module = importlib.import_module("sepopt.reductions")
    original = module.support
    made = []

    def counted(body, c):
        made.append(c)
        return original(body, c)

    monkeypatch.setattr(module, "support", counted)
    run = golden()[run_id]
    verdict = ROUTES[route](build_body(run), floats(run["p"]), DELTA)
    rows = sum(row.support_calls for row in verdict.trace.rows)
    assert verdict.oracle_calls == rows == len(made)
    assert verdict.trace.oracle_calls == verdict.oracle_calls


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
