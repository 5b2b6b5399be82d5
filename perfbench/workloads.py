"""Workloads of the benchmark and the correctness gate for each job.

A job is one `charfol` command line, run in-process through
`charfol.cli.main`. After it returns, `extract` reads its JSON report
and CSV files and boils them down to the quantities that do not depend
on `--seed`: verdicts, gates, element counts, zero positions,
eigenvalues and multipliers, foliation samples. Those are compared with
`refs.json` (written by `make_refs.py`). Seed-dependent outputs get a
check that needs no stored reference instead: the random foliation
sample on the Mori shell is compared with the closed-form reference
field.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from charfol import mori

# A stored number matches when |got - ref| <= RTOL * |ref| + ATOL. Loose
# enough for a change of evaluation order or a batched kernel (about
# 1e-13 relative) and for integrator changes the ROADMAP discusses
# (about 1e-10), tight enough to catch a wrong field or a lost orbit.
RTOL = 1e-6
ATOL = 1e-9

# Every STRIDE-th CSV row is stored as a reference sample.
STRIDE = 97

# The foliation grid on the Mori shell must match the closed-form
# direction this closely (the `direction` gate of `mori reproduce`).
DIRECTION_TOL = 1e-8


@dataclass(frozen=True)
class Job:
    """One command line, its expected exit code, and for a foliation
    job on a family scene, the (n, eps) of the shell it samples."""

    argv: tuple
    exit_code: int = 0
    family: tuple | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _job(cmd: str, exit_code: int = 0, family=None) -> Job:
    return Job(tuple(cmd.split()), exit_code, family)


# Why each workload exists is written up in README.md next to this file.
WORKLOADS = {
    "column": [
        _job("certify mori-column"),
    ],
    "shells": [
        _job("certify s2-height"),
        _job("certify mori-sigma0-n2", exit_code=1),
        _job("mori reproduce"),
        _job("mori reproduce --n 3"),
    ],
    "grid": [
        _job("foliation s2-height --grid 24"),
        _job("foliation graph-model --grid 24"),
        _job("foliation mori-sigma0-n2 --grid 40", family=(2, 0.1)),
        _job("convexify collar-profile"),
    ],
}


# extraction -----------------------------------------------------------

def _pairs(values) -> list:
    """Eigenvalue pairs [re, im] in a canonical order, flattened."""
    pairs = sorted(((float(re), float(im)) for re, im in values),
                   key=lambda p: (round(p[0], 6), round(p[1], 6)))
    return [v for p in pairs for v in p]


def _elements(elements, prefix: str) -> dict:
    def where(e):
        return tuple(round(float(v), 6) for v in e["location"])

    zeros = sorted((e for e in elements if e["kind"] == "zero"), key=where)
    orbits = sorted((e for e in elements if e["kind"] == "orbit"), key=where)
    out = {f"{prefix}zeros": len(zeros), f"{prefix}orbits": len(orbits)}
    for i, z in enumerate(zeros):
        p = f"{prefix}zero{i}."
        out.update({p + "location": z["location"],
                    p + "eigenvalues": _pairs(z["eigenvalues"]),
                    p + "divergence": z["divergence"],
                    p + "sign": z["sign"], p + "index": z["index"],
                    p + "hyperbolic": z["hyperbolic"]})
    for i, o in enumerate(orbits):
        p = f"{prefix}orbit{i}."
        out.update({p + "location": o["location"],
                    p + "period": o["period"],
                    p + "multipliers": _pairs(o["multipliers"]),
                    p + "C": o["C"], p + "sign": o["sign"],
                    p + "index": o["index"],
                    p + "hyperbolic": o["hyperbolic"]})
    return out


def _certificate(cert: dict) -> dict:
    out = {"certificate.verdict": cert["verdict"],
           "certificate.seeds_used": cert["seeds_used"],
           "certificate.limit_check": cert["limit_check"],
           "certificate.recurrence": len(cert["recurrence"]),
           "certificate.connection_violations":
               len(cert["connection_violations"])}
    out.update(_elements(cert["elements"], "certificate."))
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_csv(path: Path):
    """Header and the numeric columns as an array; label columns such as
    the trajectory id of the phase portrait are dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    keep = [j for j, cell in enumerate(rows[0]) if _is_float(cell)]
    return header, np.array([[row[j] for j in keep] for row in rows],
                            dtype=float)


def _csv_sample(header, rows: np.ndarray, prefix: str) -> dict:
    return {prefix + "header": header,
            prefix + "rows": len(rows),
            prefix + "abs_sums": np.abs(rows).sum(axis=0).tolist(),
            prefix + "sample": rows[::STRIDE].ravel().tolist()}


def _shell_direction_problems(family, rows: np.ndarray) -> list:
    """Rows (x, y, u_i, v_i, z, X...) against the closed-form field.

    mori.reference_field is given in the polar chart (z, r, theta,
    rho_i, phi_i); it is pushed to the cartesian chart here and X must
    be a positive multiple of it.
    """
    scene = mori.mori_scene(*family)
    d = scene.cartesian.chart.dim
    worst, fmin = 0.0, math.inf
    for row in rows:
        q, X = row[:d], row[d:]
        x, y, z = q[0], q[1], q[-1]
        r, th = math.hypot(x, y), math.atan2(y, x)
        polar = [z, r, th]
        for i in range(scene.n - 1):
            u, v = q[2 + 2 * i], q[3 + 2 * i]
            polar += [math.hypot(u, v), math.atan2(v, u)]
        R = mori.reference_field(scene, np.array(polar))
        ref = np.empty(d)
        ref[0] = (x / r) * R[1] - y * R[2]
        ref[1] = (y / r) * R[1] + x * R[2]
        for i in range(scene.n - 1):
            u, v = q[2 + 2 * i], q[3 + 2 * i]
            rho = polar[3 + 2 * i]
            ref[2 + 2 * i] = (u / rho) * R[3 + 2 * i] - v * R[4 + 2 * i]
            ref[3 + 2 * i] = (v / rho) * R[3 + 2 * i] + u * R[4 + 2 * i]
        ref[-1] = R[0]
        c = float(X @ ref / (ref @ ref))
        worst = max(worst, float(np.linalg.norm(X - c * ref)
                                 / np.linalg.norm(X)))
        fmin = min(fmin, c)
    problems = []
    if not worst < DIRECTION_TOL:
        problems.append(f"foliation rows deviate from the closed-form "
                        f"direction by {worst:.3e}")
    if not fmin > 0.0:
        problems.append("a foliation row points against the closed-form "
                        "direction")
    return problems


def extract(job: Job, report: dict, outdir: Path):
    """(seed-independent quantities, reference-free problems) of one job."""
    cmd = job.argv[0]
    got = {"verdict": report.get("verdict")}
    problems = []
    if cmd == "certify":
        got.update(_certificate(report["certificate"]))
        if "persistence" in report:
            pers = report["persistence"]
            got.update({"persistence.holds": pers["holds"],
                        "persistence.margin": pers["margin"],
                        "persistence.predicted_margin":
                            pers["predicted_margin"]})
    elif cmd == "mori":
        got.update({f"gates.{k}": v for k, v in report["gates"].items()})
        got.update({f"constants.{k}": v
                    for k, v in report["constants"].items()})
        got.update(_elements(report["elements"], ""))
        got.update(_certificate(report["certificate"]))
        got.update(_csv_sample(*_read_csv(outdir / "phase-portrait.csv"),
                               "portrait."))
    elif cmd == "foliation":
        header, rows = _read_csv(outdir / "foliation.csv")
        got["points"] = report["points"]
        got["rows"] = len(rows)
        d = len(header) // 2
        norms = np.linalg.norm(rows[:, d:], axis=1)
        if not (math.isclose(norms.min(), report["norm_min"], rel_tol=1e-12)
                and math.isclose(norms.max(), report["norm_max"],
                                 rel_tol=1e-12)):
            problems.append("norm_min/norm_max disagree with the CSV rows")
        if job.family is not None:
            problems += _shell_direction_problems(job.family, rows)
        else:
            got.update({"norm_min": report["norm_min"],
                        "norm_max": report["norm_max"]})
            got.update(_csv_sample(header, rows, "foliation."))
    elif cmd == "convexify":
        prof = report["profile"]
        got.update({f"profile.params.{k}": v
                    for k, v in prof["params"].items()})
        got["profile.grid_residuals"] = prof["grid_residuals"]
        got["verification.positive"] = report["verification"]["positive"]
        got["verification.matched"] = report["verification"]["matched"]
        got.update(_csv_sample(*_read_csv(outdir / "profile.csv"),
                               "profile."))
    else:
        raise ValueError(f"no extractor for command {cmd!r}")
    return got, problems


# comparison -----------------------------------------------------------

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def mismatches(got, ref, path: str = "") -> list:
    """Descriptions of every place `got` differs from `ref`."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected a mapping"]
        out = [f"{path}{k}: missing" for k in ref if k not in got]
        out += [f"{path}{k}: not in the reference" for k in got
                if k not in ref]
        for k in ref:
            if k in got:
                out += mismatches(got[k], ref[k], f"{path}{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected {len(ref)} entries"]
        for i, (g, r) in enumerate(zip(got, ref)):
            bad = mismatches(g, r, f"{path}[{i}]")
            if bad:
                return bad
        return []
    if _is_number(ref) and _is_number(got):
        if abs(got - ref) <= RTOL * abs(ref) + ATOL:
            return []
        return [f"{path}: {got!r} differs from the reference {ref!r}"]
    if got != ref:
        return [f"{path}: {got!r} differs from the reference {ref!r}"]
    return []


def observe(job: Job, rc, outdir: Path):
    """(seed-independent quantities, problems) of a finished job; the
    quantities are None when the job did not get as far as a report."""
    if rc != job.exit_code:
        return None, [f"exit code {rc}, expected {job.exit_code}"]
    report_path = outdir / "report.json"
    if not report_path.is_file():
        return None, ["no JSON report was written"]
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return extract(job, report, outdir)


def check(job: Job, rc, outdir: Path, refs: dict) -> list:
    """Every reason the job's output is wrong; empty when it is right."""
    got, problems = observe(job, rc, outdir)
    if got is None:
        return problems
    ref = refs.get(job.key)
    if ref is None:
        return problems + [f"no reference stored for {job.key!r}"]
    return problems + mismatches(got, ref)
