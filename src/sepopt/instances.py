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
    """JSON text with insertion-ordered keys and .17g floats."""
    if indent is not None:
        return _pretty(obj, 0, indent)
    pieces = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        out.append(_scalar(obj))


def _pretty(obj, level, indent):
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if isinstance(obj, dict) and obj:
        items = [
            f"{pad}{json.dumps(str(k))}: {_pretty(v, level + 1, indent)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{closing}}}"
    if isinstance(obj, (list, tuple, np.ndarray)) and len(obj):
        items = [f"{pad}{_pretty(v, level + 1, indent)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{closing}]"
    if isinstance(obj, dict):
        return "{}"
    if isinstance(obj, (list, tuple)):
        return "[]"
    return _scalar(obj)


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
        body_obj = {
            "type": "vertex_polytope",
            "vertices": [[float(x) for x in v] for v in variant.vertices],
        }
    elif isinstance(variant, Ball):
        body_obj = {
            "type": "ball",
            "center": [float(x) for x in variant.center],
            "radius": float(variant.radius),
        }
    else:
        raise ValueError("only vertex_polytope and ball bodies have a file form")
    return {
        "dimension": body.dimension,
        "body": body_obj,
        "outer_radius": float(body.outer_radius),
        "inner_radius": float(body.inner_radius),
        "query_point": [float(x) for x in instance.query_point],
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


def _vector(obj, n, where):
    if not isinstance(obj, list) or len(obj) != n:
        raise InstanceFormatError(f"{where} must be a list of {n} numbers")
    try:
        return np.array([float(x) for x in obj])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where} has a non-numeric entry") from exc


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

    try:
        outer = float(obj["outer_radius"])
        inner = float(obj["inner_radius"])
        delta = float(obj["delta"])
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError("radii and delta must be numbers") from exc
    if delta <= 0:
        raise InstanceFormatError("delta must be positive")

    if btype == "vertex_polytope":
        verts = body_obj["vertices"]
        if not isinstance(verts, list) or not verts:
            raise InstanceFormatError("vertices must be a non-empty list")
        rows = [_vector(v, n, f"vertex {i}") for i, v in enumerate(verts)]
        variant = VertexPolytope(np.stack(rows))
    else:
        center = _vector(body_obj["center"], n, "ball center")
        try:
            radius = float(body_obj["radius"])
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError("ball radius must be a number") from exc
        variant = Ball(center, radius)

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
