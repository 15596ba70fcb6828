"""Deterministic serialization helpers.

Floating-point text output across the package goes through "%.17g" so that
repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def format_float(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("non-finite value in serialized output: %r" % x)
    return "%.17g" % x


def write_csv(path, header, rows) -> None:
    """Write a header line, then one line per row of format_float cells."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for key, val in obj.items():
            if not isinstance(key, str):
                raise TypeError("JSON keys must be strings, got %r" % (key,))
            rows.append("%s%s: %s" % (inner, json.dumps(key), _render(val, indent + 1)))
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        rows = ["%s%s" % (inner, _render(v, indent + 1)) for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(_render(obj, 0) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
