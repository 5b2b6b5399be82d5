"""Shooting runs, periods and multipliers of the column's closed orbits
in two charfol checkouts.

    python tools/shot_counts.py PARENT CHANGE

PARENT and CHANGE are source trees of charfol (each with `src/charfol`).
Each tree runs in its own interpreter, with PYTHONPATH set to the
tree's `src`: there `mori._column_orbit` shoots both orbits of the
perturbed column, at psi = 0 and pi, for each delta at each tolerance
profile, with a spy on `Flow.integrate_variational` that notes the
tolerances of each run. The strict profile's multipliers are the tree's
reference.

The Markdown table has one row per (profile, delta, psi) and, for each
tree, the variational runs in order (c for a run at `policy.coarse` of
the profile's tolerances, f for one at the profile's own), the period,
and the relative distance |mu - nu| / |nu| of each multiplier mu from
the tree's strict value nu (in order of modulus, each matched to the
nearest strict multiplier not yet taken). A lost orbit shows its error.
The exit code is 0 when both trees ran, whatever the table shows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

PROFILES = ("default", "strict", "fast")
DELTAS = (0.005, 0.01, 0.02, 0.05, 0.08, 0.1)

# run in each tree's interpreter: argv[1] is the JSON list
# [profiles, deltas]; prints one JSON record per (profile, delta, psi)
PROBE = r'''
import json, math, sys
from charfol import mori, policy
from charfol.contact import FoliationField
from charfol.dynamics import Flow
from charfol.errors import CharfolError

profiles, deltas = json.loads(sys.argv[1])
tols_of_runs = []
variational = Flow.integrate_variational


def spy(self, *args, **kwargs):
    tols_of_runs.append(self.tols)
    return variational(self, *args, **kwargs)


Flow.integrate_variational = spy
out = []
for delta in deltas:
    spec = mori.PerturbationSpec(delta=delta)
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    for name in profiles:
        tols = policy.PROFILES[name]
        for psi in (0.0, math.pi):
            tols_of_runs.clear()
            row = {"profile": name, "delta": delta, "psi": psi}
            try:
                orbit = mori._column_orbit(field, info["H"], psi, spec, tols)
            except CharfolError as e:
                row["error"] = f"{type(e).__name__}: {e}"
            else:
                row["period"] = orbit.period
                row["multipliers"] = [[complex(m).real, complex(m).imag]
                                      for m in orbit.spectrum]
            row["runs"] = "".join("f" if t == tols else "c"
                                  for t in tols_of_runs)
            out.append(row)
print(json.dumps(out))
'''


def probe(tree: Path, profiles, deltas) -> dict:
    """The records of PROBE in `tree`, by (profile, delta, psi)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([list(profiles),
                                                  list(deltas)])],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the probe failed in {tree}:\n{proc.stderr}")
    return {(r["profile"], r["delta"], r["psi"]): r
            for r in json.loads(proc.stdout)}


def multiplier_errors(mults, reference) -> list:
    """|mu - nu| / |nu| for each multiplier mu, in order of modulus, with
    nu the nearest multiplier of `reference` not yet matched."""
    left = [complex(*m) for m in reference]
    out = []
    for mu in sorted((complex(*m) for m in mults),
                     key=lambda z: (abs(z), z.imag)):
        nu = min(left, key=lambda z: abs(mu - z))
        left.remove(nu)
        out.append(abs(mu - nu) / abs(nu))
    return out


def _cells(rec: dict, strict: dict) -> list:
    """The runs, period and multiplier errors of one tree's record."""
    if "error" in rec:
        return [rec["runs"] or "-", rec["error"], "-"]
    if "multipliers" in strict:
        errs = ", ".join(f"{e:.1e}" for e in multiplier_errors(
            rec["multipliers"], strict["multipliers"]))
    else:
        errs = "-"
    return [f"{rec['runs']} ({len(rec['runs'])})", f"{rec['period']:.10f}",
            errs]


def _row(*cells) -> str:
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


def table(parent: dict, change: dict, profiles, deltas) -> list:
    """The lines of the Markdown table of two trees' records."""
    lines = [_row("profile", "delta", "psi", "runs (parent)",
                  "runs (change)", "period (parent)", "period (change)",
                  "multiplier vs strict (parent)",
                  "multiplier vs strict (change)")]
    lines.append(_row(*["---"] * 9))
    for name in profiles:
        for delta in deltas:
            for psi in (0.0, math.pi):
                a, b = (
                    _cells(recs[name, delta, psi],
                           recs["strict", delta, psi])
                    for recs in (parent, change))
                lines.append(_row(name, f"{delta:g}",
                                  "0" if psi == 0.0 else "pi",
                                  a[0], b[0], a[1], b[1], a[2], b[2]))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "charfol").is_dir():
            ap.error(f"{tree} has no src/charfol")
    parent, change = (probe(tree, PROFILES, DELTAS) for tree in trees)
    print("\n".join(table(parent, change, PROFILES, DELTAS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
