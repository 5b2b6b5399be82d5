"""Report assembly: deterministic JSON and CSV emission.

Identical inputs must produce byte-identical files, so floats are
printed with a fixed 17-significant-digit format everywhere instead of
whatever repr the platform picks, and no timestamps or wall-clock
measurements enter a report. The JSON writer below exists because the
stdlib json encoder exposes no hook for float formatting; it handles
exactly the value shapes reports contain. The CSV writer prints every
float as `"%.17g"` does, byte for byte, but formats a block of rows at
once in numpy: a value with decimal exponent in [-4, 16] (the fixed
notation of `%g`) gets its 17 digits from the exact double-double
product |x| 10^(16-e), and any other value goes through `%` one at a
time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict

import numpy as np

from . import __version__
from .certify import profile_arrays, verification_grid


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
    return _atom(obj)


def scene_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def zero_row(z) -> dict:
    return {"kind": "zero",
            "location": np.asarray(z.point, dtype=float),
            "eigenvalues": _pairs(z.spectrum),
            "divergence": float(z.divergence),
            "sign": int(z.sign),
            "index": int(z.stable_dim),
            "hyperbolic": bool(z.hyperbolic)}


def orbit_row(o) -> dict:
    return {"kind": "orbit",
            "location": np.asarray(o.point, dtype=float),
            "period": float(o.period),
            "multipliers": _pairs(o.spectrum),
            "C": float(o.C),
            "sign": int(o.sign),
            "index": int(o.stable_dim),
            "hyperbolic": bool(o.hyperbolic),
            "residuals": {"det": float(o.det_residual),
                          "pairing": float(o.pairing_residual),
                          "divergence": float(o.div_residual)}}


def element_rows(elements) -> list:
    """The rows of a list of `dynamics.Element`, in order; each row's
    index is the element's stable_dim."""
    return [zero_row(e) if e.kind == "zero" else orbit_row(e)
            for e in elements]


def certificate_dict(cert) -> dict:
    """The report of a certificate, each element with its capture region."""
    rows = element_rows(cert.elements)
    for row, r in zip(rows, cert.regions):
        if r is not None:
            row["region"] = {k: r[k] for k in ("sense", "level", "radii",
                                               "reach", "samples")}
    return {"verdict": cert.verdict,
            "reasons": list(cert.reasons),
            "elements": rows,
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


# "%.17g" of a double x with e = floor(log10|x|) in [-4, 16] is fixed
# notation: the 17 digits of N = round(|x| 10^(16-e)), ties to even, with
# the point after digit e (or "0." and -e-1 zeros in front, for e < 0)
# and the fraction's trailing zeros dropped. `_format_rows` builds each
# such cell as five little-endian words of four 16-bit lanes: lanes 3-19
# carry the digits in their low bytes, the high byte after digit e holds
# the point, bytes 0-5 the sign and the "0.000" head, and byte 39 the
# separator. Every byte left NUL is deleted at the end.
_POW10 = 10.0 ** np.arange(21)          # exact: 10^k for k <= 22
_GROUPS = np.arange(10_000, dtype=np.uint32)
# _DIGITS[g]: the 4 digits of g, one per lane; _TRAILING[g]: its trailing 0s
_DIGITS = sum((_GROUPS // 10 ** (3 - j) % 10 + 48).astype(np.uint64)
              << 16 * j for j in range(4)).astype("<u8")
_TRAILING = sum((_GROUPS % 10 ** j == 0).astype(np.intp) for j in range(1, 5))
# _KEEP[k]: the lanes of digits 0 to k-1
_KEEP = (((np.arange(20) >= 3) & (np.arange(20) < np.arange(18)[:, None] + 3))
         * np.uint16(0xFFFF)).astype("<u2").view("<u8")


def _marks() -> np.ndarray:
    """Sign, head and point bytes by 4 (e + 4) + 2 point + negative."""
    out = np.zeros((21, 2, 2, 40), dtype=np.uint8)
    out[:, :, 1, 0] = ord("-")
    for e in range(-4, 0):
        out[e + 4, :, :, 1:2 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
    for e in range(16):
        out[e + 4, 1, :, 7 + 2 * e] = ord(".")
    return out.view("<u8").reshape(84, 5)


_MARKS = _marks()


def _split(v):
    """Dekker's split of doubles into two halves of at most 26 bits."""
    c = 134217729.0 * v
    h = c - (c - v)
    return h, v - h


_P_HI, _P_LO = _split(_POW10)


def _format_rows(block: np.ndarray) -> np.ndarray:
    """Each row of `block` as `"%.17g"` prints it, cells joined by commas
    and ended by a newline: one row of bytes per row, NUL-padded."""
    x = block.ravel()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        e = np.floor(np.log10(a))
        fast = (e >= -4) & (e <= 16)
        k = np.where(fast, 16 - e, 0).astype(np.intp)
        e = 16 - k
        # |x| 10^k = hi + lo exactly (Dekker's two-product)
        hi = a * _POW10[k]
        (ah, al), ph, pl = _split(a), _P_HI[k], _P_LO[k]
        lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
        # hi is an even integer here, so rint's ties-to-even are N's
        n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        # where log10 rounds up to e, |x| 10^k is at least 0.83 below
        # 1e16, so N's range is the exact product's
        fast &= (n >= 10 ** 16) & (n < 10 ** 17)
    top, low = divmod(np.where(fast, n, 10 ** 16), 10 ** 8)
    groups = np.empty((len(x), 5), dtype=np.intp)
    groups[:, 0], top = divmod(top, 10 ** 8)
    groups[:, 1], groups[:, 2] = divmod(top, 10 ** 4)
    groups[:, 3], groups[:, 4] = divmod(low, 10 ** 4)
    zeros = _TRAILING[groups[:, 4]]
    for j in (3, 2, 1):
        zeros += (zeros == 16 - 4 * j) * _TRAILING[groups[:, j]]
    kept = np.maximum(17 - zeros, e + 1)
    words = np.take(_DIGITS, groups)
    words &= np.take(_KEEP, kept, axis=0)
    words |= np.take(_MARKS, 4 * e + 16 + 2 * (kept > e + 1) + (x < 0), axis=0)
    out = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    out[slow] = 0
    out[slow, :24] = np.array([b"%.17g" % v for v in x[slow].tolist()],
                              dtype="S24").view(np.uint8).reshape(-1, 24)
    m, c = block.shape
    out = out.reshape(m, c, 40)
    out[:, :, 39] = [ord(",")] * (c - 1) + [ord("\n")]
    return out.reshape(m, -1)


# A block of rows holds at most this many cells (and at least one row),
# so that each (cells, 40)-byte temporary stays under the 128 KiB that
# glibc's malloc serves from its heap instead of from fresh pages; with
# blocks of 1,024 rows a grid took about 40% more time per cell.
_CSV_BLOCK = 3072


def write_csv(path: str, header, rows, labels=None) -> None:
    """Write `rows`, a 2-D array of floats, under `header`; each value
    prints as `"%.17g"` prints it. `labels`, if given, is a first column
    of strings, one per row; `header` names every column.

    A value with decimal exponent e in [-4, 16], the fixed notation of
    `%g`, is formatted in numpy from the exact double-double product
    |x| 10^(16-e); every other value (0, -0, NaN, inf, |x| < 1e-4 or
    >= 1e17) and the rare cell whose log10 misses its exponent goes
    through `"%.17g" %` one at a time."""
    rows = np.asarray(rows, dtype=np.float64).reshape(
        -1, len(header) - (labels is not None))
    step = max(1, _CSV_BLOCK // rows.shape[1])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), step):
            stop = start + step
            block = _format_rows(rows[start:stop])
            if labels is not None:
                names = np.array([f"{s},".encode() for s in labels[start:stop]])
                block = np.hstack([names.view(np.uint8).reshape(len(block), -1),
                                   block])
            fh.write(block.tobytes().translate(None, b"\0"))


def profile_rows(profile) -> np.ndarray:
    """(s, u, h1, residual) rows of a profile on the verification grid."""
    grid = verification_grid()
    u, _, h, _, res = profile_arrays(profile.u, profile.h1, profile.n, grid)
    return np.column_stack([grid, u, h, res])
