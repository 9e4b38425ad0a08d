"""Instance-file schema and canonical JSON serialization.

An instance file is a UTF-8 JSON object with exactly these fields:

    {
      "dimension": n,
      "body": {"type": "vertex_polytope", "vertices": [[...], ...]}
              or {"type": "ball", "center": [...], "radius": r},
      "outer_radius": R,
      "inner_radius": r0,
      "query_point": [...],
      "delta": d
    }

Unknown fields are rejected.  Serialization is canonical: fixed field order,
floats printed with 17 significant digits (exact double round-trip), so
parse-then-serialize is idempotent.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .bodies import Ball, BodySpec, VertexPolytope
from .errors import InstanceFormatError

TOP_FIELDS = ["dimension", "body", "outer_radius", "inner_radius", "query_point", "delta"]
BODY_FIELDS = {
    "vertex_polytope": ["type", "vertices"],
    "ball": ["type", "center", "radius"],
}


@dataclass(eq=False)
class Instance:
    body: BodySpec
    query_point: np.ndarray
    delta: float


def dumps_canonical(obj, indent=None) -> str:
    """JSON text with insertion-ordered keys and .17g floats.

    Compact by default; with ``indent``, one item per line and empty
    containers as ``{}`` or ``[]``."""
    return _dump(obj, indent, 0)


def _dump(obj, indent, level):
    if isinstance(obj, dict):
        colon = ":" if indent is None else ": "
        items = [json.dumps(str(k)) + colon + _dump(v, indent, level + 1)
                 for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [_dump(v, indent, level + 1) for v in obj]
        brackets = "[]"
    else:
        return _scalar(obj)
    if indent is None or not items:
        return brackets[0] + ",".join(items) + brackets[1]
    pad = "\n" + " " * (indent * (level + 1))
    closing = "\n" + " " * (indent * level)
    return brackets[0] + pad + ("," + pad).join(items) + closing + brackets[1]


def _scalar(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError("non-finite float in serialization")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_to_dict(instance: Instance) -> dict:
    body = instance.body
    variant = body.variant
    if isinstance(variant, VertexPolytope):
        body_obj = {"type": "vertex_polytope", "vertices": variant.vertices}
    elif isinstance(variant, Ball):
        body_obj = {"type": "ball", "center": variant.center, "radius": float(variant.radius)}
    else:
        raise ValueError("only vertex_polytope and ball bodies have a file form")
    return {
        "dimension": body.dimension,
        "body": body_obj,
        "outer_radius": float(body.outer_radius),
        "inner_radius": float(body.inner_radius),
        "query_point": instance.query_point,
        "delta": float(instance.delta),
    }


def dump_instance(instance: Instance, path=None, indent=2):
    text = dumps_canonical(instance_to_dict(instance), indent=indent) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where} must be a JSON object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InstanceFormatError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = set(allowed) - set(obj)
    if missing:
        raise InstanceFormatError(f"missing field(s) in {where}: {sorted(missing)}")


def _number(obj, where):
    """float(obj); InstanceFormatError unless that is a finite number."""
    try:
        x = float(obj)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} must be a number") from exc
    if not math.isfinite(x):
        raise InstanceFormatError(f"{where} must be finite, got {x!r}")
    return x


def _vector(obj, n, where):
    if not isinstance(obj, list) or len(obj) != n:
        raise InstanceFormatError(f"{where} must be a list of {n} numbers")
    try:
        v = np.array([float(x) for x in obj])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} has a non-numeric entry") from exc
    if not np.isfinite(v).all():
        raise InstanceFormatError(f"{where} has a non-finite entry")
    return v


def parse_instance(obj) -> Instance:
    _require_keys(obj, TOP_FIELDS, "instance")
    n = obj["dimension"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceFormatError(f"dimension must be a positive integer, got {n!r}")

    body_obj = obj["body"]
    if not isinstance(body_obj, dict) or "type" not in body_obj:
        raise InstanceFormatError("body must be an object with a 'type' field")
    btype = body_obj["type"]
    if btype not in BODY_FIELDS:
        raise InstanceFormatError(f"unknown body type {btype!r}")
    _require_keys(body_obj, BODY_FIELDS[btype], "body")

    outer = _number(obj["outer_radius"], "outer_radius")
    inner = _number(obj["inner_radius"], "inner_radius")
    delta = _number(obj["delta"], "delta")
    if delta <= 0:
        raise InstanceFormatError("delta must be positive")

    if btype == "vertex_polytope":
        verts = body_obj["vertices"]
        if not isinstance(verts, list) or not verts:
            raise InstanceFormatError("vertices must be a non-empty list")
        rows = [_vector(v, n, f"vertex {i}") for i, v in enumerate(verts)]
        variant = VertexPolytope(np.stack(rows))
    else:
        variant = Ball(_vector(body_obj["center"], n, "ball center"),
                       _number(body_obj["radius"], "ball radius"))

    try:
        body = BodySpec(n, variant, outer, inner)
    except (ValueError, TypeError) as exc:
        raise InstanceFormatError(f"invalid body: {exc}") from exc

    point = _vector(obj["query_point"], n, "query_point")
    return Instance(body, point, delta)


def load_instance(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    return parse_instance(obj)
