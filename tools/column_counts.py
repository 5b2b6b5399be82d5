"""Shooting runs and chases of the column's certificate in two charfol
checkouts.

    python tools/column_counts.py PARENT CHANGE

PARENT and CHANGE are source trees of charfol (each with `src/charfol`).
Each tree runs a probe in its own interpreter on one worker
(`trees.probe`): there `mori.column_certificate` certifies the
perturbed column at seed 0 for each delta at each tolerance profile. A
spy on `Flow.integrate_variational` notes the tolerances of each run,
which a wrapper of `mori._column_orbit` files under the psi it shoots
with the period and multipliers (a lost orbit with its error, raised on
as before); a spy on `certify.Flow.integrate` sums the time and steps
of the certificate's flows: the chases, and the calibration of the
capture regions in a tree that has them.

The shooting table has a row per (profile, delta, psi) and, per tree,
the variational runs in order (c for a run at `policy.coarse` of the
profile's tolerances, f for one at its own), the period, and the
relative distance |mu - nu| / |nu| of each multiplier mu from the
tree's strict value nu (in order of modulus, each matched to the
nearest strict multiplier not yet taken). After a blank line, the chase
table has a row per (profile, delta) and, per tree, the verdict, the
seeds captured both ways out of those used, the seeds with a recurrence
record, the flow time and steps, and the level and principal radii of
each orbit's capture region in element order ("-" where the tree has
none). A lost orbit, or a column that fails, shows its error. The exit
code is 0 when both trees ran, whatever the tables show.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import trees

PROFILES = ("default", "strict", "fast")
DELTAS = (0.005, 0.01, 0.02, 0.05, 0.08, 0.1)

# run in each tree's interpreter: argv[1] is the JSON list
# [profiles, deltas]; prints one JSON record per (profile, delta), with
# the record of each shot under "shots"
PROBE = r'''
import json, sys
from charfol import certify, dynamics, mori, policy
from charfol.contact import FoliationField
from charfol.errors import CharfolError

profiles, deltas = json.loads(sys.argv[1])
tols_of_runs, shots, flow = [], [], [0.0, 0]
variational = dynamics.Flow.integrate_variational
column_orbit = mori._column_orbit


def spy(self, *args, **kwargs):
    tols_of_runs.append(self.tols)
    return variational(self, *args, **kwargs)


def shoot(field, H, psi, spec, tols):
    tols_of_runs.clear()
    shot = {"psi": psi}
    shots.append(shot)
    try:
        orbit = column_orbit(field, H, psi, spec, tols)
    except CharfolError as e:
        shot["error"] = f"{type(e).__name__}: {e}"
        raise
    finally:
        shot["runs"] = "".join("f" if t == tols else "c"
                               for t in tols_of_runs)
    shot.update(period=orbit.period, multipliers=[
        [m.real, m.imag] for m in map(complex, orbit.spectrum)])
    return orbit


class Spy(certify.Flow):
    def integrate(self, *args, **kwargs):
        res = super().integrate(*args, **kwargs)
        flow[0] += res.t
        flow[1] += res.steps
        return res


dynamics.Flow.integrate_variational = spy
mori._column_orbit = shoot
certify.Flow = Spy
out = []
for delta in deltas:
    spec = mori.PerturbationSpec(delta=delta)
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    for name in profiles:
        flow[:], shots = [0.0, 0], []
        row = {"profile": name, "delta": delta, "shots": shots}
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
        row.update(flow=flow[0], steps=flow[1])
        out.append(row)
print(json.dumps(out))
'''


def sweep(tree: Path, profiles, deltas) -> tuple:
    """The records of PROBE in `tree`: the shots by (profile, delta,
    psi), and the certificates by (profile, delta)."""
    certs = {(r["profile"], r["delta"]): r for r in
             trees.probe(tree, PROBE, [list(profiles), list(deltas)])}
    shots = {(*key, s["psi"]): s for key, r in certs.items()
             for s in r["shots"]}
    return shots, certs


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


def _shot_cells(rec: dict, strict: dict) -> list:
    """The runs, period and multiplier errors of one tree's shot."""
    if "error" in rec:
        return [rec["runs"] or "-", rec["error"], "-"]
    if "multipliers" in strict:
        errs = ", ".join(f"{e:.1e}" for e in multiplier_errors(
            rec["multipliers"], strict["multipliers"]))
    else:
        errs = "-"
    return [f"{rec['runs']} ({len(rec['runs'])})", f"{rec['period']:.10f}",
            errs]


def _regions(rec: dict) -> str:
    """Each region as `level (radius, ...)`, joined by "; "."""
    if not rec["regions"]:
        return "-"
    return "; ".join(f"{level:.4g} ({', '.join(f'{r:.3g}' for r in radii)})"
                     for level, radii in rec["regions"])


def _chase_cells(rec: dict) -> list:
    """The verdict, captured, recurrent, flow, steps and regions of one
    tree's certificate."""
    if "error" in rec:
        return [rec["error"], "-", "-", f"{rec['flow']:.1f}",
                str(rec["steps"]), "-"]
    return [rec["verdict"], f"{rec['captured']}/{rec['seeds']}",
            str(rec["recurrent"]), f"{rec['flow']:.1f}", str(rec["steps"]),
            _regions(rec)]


# the cells of a shot that was never made: an earlier one raised
UNSHOT = {"runs": "", "error": "not shot"}
SHOT_HEADS = ("runs", "period", "multiplier vs strict")
CHASE_HEADS = ("verdict", "captured", "recurrent", "flow", "steps",
               "regions")


def _lines(keys: list, heads: tuple, pairs) -> list:
    """The Markdown table of the key columns and, per head, the parent's
    and the change's cells, from (key cells, parent, change) triples."""
    heads = [*keys, *(f"{h} ({tree})" for h in heads
                      for tree in ("parent", "change"))]
    return trees.table(heads, [(*key, *(c for pair in zip(a, b) for c in pair))
                               for key, a, b in pairs])


def tables(parent: tuple, change: tuple, profiles, deltas) -> tuple:
    """The lines of the shooting and the chase tables of two trees'
    records, each the (shots, certificates) of `sweep`."""
    shots, chases, both = [], [], (parent, change)
    for name in profiles:
        for delta in deltas:
            chases.append(([name, f"{delta:g}"],
                           *(_chase_cells(c[name, delta]) for _, c in both)))
            for psi in (0.0, math.pi):
                shots.append(([name, f"{delta:g}", "pi" if psi else "0"], *(
                    _shot_cells(s.get((name, delta, psi), UNSHOT),
                                s.get(("strict", delta, psi), UNSHOT))
                    for s, _ in both)))
    return (_lines(["profile", "delta", "psi"], SHOT_HEADS, shots),
            _lines(["profile", "delta"], CHASE_HEADS, chases))


def main(argv=None) -> int:
    args = trees.parse(__doc__, argv)
    parent, change = (sweep(tree, PROFILES, DELTAS) for tree in args.trees)
    shots, chases = tables(parent, change, PROFILES, DELTAS)
    print("\n".join([*shots, "", *chases]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
