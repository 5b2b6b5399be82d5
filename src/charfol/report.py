"""Report assembly: deterministic JSON and CSV emission.

Identical inputs must produce byte-identical files, so floats are
printed with a fixed 17-significant-digit format everywhere instead of
whatever repr the platform picks, and no timestamps or wall-clock
measurements enter a report. The writer below exists because the
stdlib json encoder exposes no hook for float formatting; it handles
exactly the value shapes reports contain.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict

import numpy as np

from . import __version__
from .certify import profile_arrays


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _atom(obj):
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def to_json(obj, indent: int = 0) -> str:
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad1}{_atom(str(k))}: {to_json(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, complex):
        return to_json([obj.real, obj.imag], indent)
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray))
                   for v in obj)
        if flat:
            return "[" + ", ".join(to_json(v, indent + 1) for v in obj) + "]"
        rows = [pad1 + to_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, (np.complexfloating,)):
        return to_json([float(obj.real), float(obj.imag)], indent)
    return _atom(obj)


def scene_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def zero_row(z) -> dict:
    return {"kind": "zero",
            "location": np.asarray(z.point, dtype=float),
            "eigenvalues": _pairs(z.eigenvalues),
            "divergence": float(z.divergence),
            "sign": int(z.liouville_sign),
            "index": int(z.stable_dim),
            "hyperbolic": bool(z.hyperbolic)}


def orbit_row(info) -> dict:
    return {"kind": "orbit",
            "location": np.asarray(info.point, dtype=float),
            "period": float(info.period),
            "multipliers": _pairs(info.multipliers),
            "C": float(info.C),
            "sign": int(info.liouville_sign),
            "index": int(info.stable_index),
            "hyperbolic": bool(info.hyperbolic),
            "residuals": {"det": float(info.det_residual),
                          "pairing": float(info.pairing_residual),
                          "divergence": float(info.div_residual)}}


def element_rows(zeros, orbits=()) -> list:
    """The rows of zeros and then of orbits (records with .info)."""
    return [zero_row(z) for z in zeros] + [orbit_row(o.info) for o in orbits]


def certificate_dict(cert) -> dict:
    return {"verdict": cert.verdict,
            "reasons": list(cert.reasons),
            "elements": element_rows(cert.elements["zeros"],
                                     cert.elements["orbits"]),
            "limit_check": float(cert.limit_check),
            "connection_violations": [
                {"from": np.asarray(v["from"], dtype=float),
                 "to": np.asarray(v["to"], dtype=float),
                 "kind": v["kind"]} for v in cert.connection_violations],
            "recurrence": list(cert.recurrence),
            "seeds_used": int(cert.seeds_used),
            "transversality": cert.transversality,
            "notes": list(cert.notes)}


def base_report(command: str, digest: str, seed: int, profile: str,
                tols) -> dict:
    return {"tool": "charfol", "version": __version__,
            "command": command, "scene_digest": digest,
            "seed": int(seed),
            "numeric_policy": {"profile": profile, **asdict(tols)}}


def write_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(report) + "\n")


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        s = format_float(v)
        return s.strip('"')
    return str(v)


# An array is written this many rows per formatting step.
_CSV_BLOCK = 1024


def write_csv(path: str, header, rows) -> None:
    """`rows` is a 2-D float array, formatted a block of rows at a time,
    or a sequence of rows, formatted cell by cell. A float prints as
    `format_float` prints it, without quotes, either way."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for start in range(0, len(rows), _CSV_BLOCK):
                block = rows[start:start + _CSV_BLOCK]
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")


def profile_rows(profile, grid) -> np.ndarray:
    """(s, u, h1, residual) rows of a convexity profile."""
    u, _, h, _, res = profile_arrays(profile.u, profile.h1, profile.n, grid)
    return np.column_stack([grid, u, h, res])
