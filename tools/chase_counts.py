"""Verdicts, captures and flow of the column's certificate in two charfol
checkouts.

    python tools/chase_counts.py PARENT CHANGE

PARENT and CHANGE are source trees of charfol (each with `src/charfol`).
Each tree runs in its own interpreter, with PYTHONPATH set to the
tree's `src` and one worker (`parallel._cpus` pinned to 1): there
`mori.column_certificate` certifies the perturbed column at seed 0 for
each delta at each tolerance profile, with a spy on
`certify.Flow.integrate` that sums the time and the steps of every run:
the chases, and the calibration of the capture regions in a tree that
has them.

The Markdown table has one row per (profile, delta) and, for each tree,
the verdict, the seeds captured both ways out of those used, the seeds
with a recurrence record, the flow time and steps of the spy, and the
level and principal radii of each orbit's capture region, in the
certificate's element order ("-" where the tree computes none). A
column that fails to build shows its error. The exit code is 0 when
both trees ran, whatever the table shows.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PROFILES = ("default", "strict", "fast")
DELTAS = (0.005, 0.01, 0.02, 0.05, 0.08, 0.1)

# run in each tree's interpreter: argv[1] is the JSON list
# [profiles, deltas]; prints one JSON record per (profile, delta)
PROBE = r'''
import json, sys
from charfol import certify, mori, parallel, policy
from charfol.contact import FoliationField
from charfol.errors import CharfolError

profiles, deltas = json.loads(sys.argv[1])
parallel._cpus = lambda: 1
flow = [0.0, 0]


class Spy(certify.Flow):
    def integrate(self, *args, **kwargs):
        res = super().integrate(*args, **kwargs)
        flow[0] += res.t
        flow[1] += res.steps
        return res


certify.Flow = Spy
out = []
for delta in deltas:
    spec = mori.PerturbationSpec(delta=delta)
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    for name in profiles:
        flow[:] = [0.0, 0]
        row = {"profile": name, "delta": delta}
        try:
            col = mori.column_certificate(field, info, policy.PROFILES[name])
        except CharfolError as e:
            row["error"] = f"{type(e).__name__}: {e}"
        else:
            cert = col["certificate"]
            regions = getattr(cert, "regions", [])
            row.update(
                verdict=cert.verdict, seeds=cert.seeds_used,
                captured=round(cert.limit_check * cert.seeds_used),
                recurrent=len({tuple(r["seed"]) for r in cert.recurrence
                               if "seed" in r}),
                regions=[[r["level"], list(r["radii"])] for r in regions
                         if r is not None])
        row["flow"], row["steps"] = flow
        out.append(row)
print(json.dumps(out))
'''


def probe(tree: Path, profiles, deltas) -> dict:
    """The records of PROBE in `tree`, by (profile, delta)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([list(profiles),
                                                  list(deltas)])],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the probe failed in {tree}:\n{proc.stderr}")
    return {(r["profile"], r["delta"]): r for r in json.loads(proc.stdout)}


def _regions(rec: dict) -> str:
    """Each region as `level (radius, ...)`, joined by "; "."""
    if not rec["regions"]:
        return "-"
    return "; ".join(f"{level:.4g} ({', '.join(f'{r:.3g}' for r in radii)})"
                     for level, radii in rec["regions"])


def _cells(rec: dict) -> list:
    """The verdict, captured, recurrent, flow, steps and regions of one
    tree's record."""
    if "error" in rec:
        return [rec["error"], "-", "-", f"{rec['flow']:.1f}",
                str(rec["steps"]), "-"]
    return [rec["verdict"], f"{rec['captured']}/{rec['seeds']}",
            str(rec["recurrent"]), f"{rec['flow']:.1f}", str(rec["steps"]),
            _regions(rec)]


def _row(*cells) -> str:
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


HEADS = ("verdict", "captured", "recurrent", "flow", "steps", "regions")


def table(parent: dict, change: dict, profiles, deltas) -> list:
    """The lines of the Markdown table of two trees' records."""
    heads = [f"{h} ({tree})" for h in HEADS for tree in ("parent", "change")]
    lines = [_row("profile", "delta", *heads),
             _row(*["---"] * (2 + len(heads)))]
    for name in profiles:
        for delta in deltas:
            a, b = (_cells(recs[name, delta]) for recs in (parent, change))
            lines.append(_row(name, f"{delta:g}",
                              *(c for pair in zip(a, b) for c in pair)))
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
