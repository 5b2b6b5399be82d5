"""Reproduce the zero and orbit census on the rotationally symmetric
shell (n = 2, eps = 0.1) and compare against the closed-form heights.
"""

import math

import numpy as np

from charfol import census, mori_scene
from charfol.mori import direction_match, verify_orbit_closure

scene = mori_scene(2, 0.1)
con = scene.constants

print("closed-form constants:")
print(f"  axis zeros at  z = +/- {con.axis_z:.15f}")
print(f"  orbits at      z = +/- {con.orbit_z:.15f}")
print(f"  invariant torus r  = {con.ring_r:.15f}")

rep = direction_match(scene, count=200, rng=np.random.default_rng(1))
print(f"field vs closed form at {rep['samples']} points: "
      f"max angle {rep['max_angle']:.2e}")

cen = census(scene)
print(f"\ncensus found {len(cen['zeros'])} zeros, "
      f"{len(cen['orbits'])} closed orbits")
for z in cen["zeros"]:
    dz = abs(abs(z.point[-1]) - con.axis_z)
    print(f"  zero   z = {z.point[-1]:+.12f}  sign {z.sign:+d}  "
          f"|dz| = {dz:.2e}")
for o in cen["orbits"]:
    z = float(o.point[-1])
    r = math.hypot(o.point[0], o.point[1])
    print(f"  orbit  z = {z:+.12f}  r = {r:.12f}  sign "
          f"{o.sign:+d}  C = {o.C:.3e}  period {o.period:.6f}")

closure = verify_orbit_closure(scene, cen["orbits"])
print(f"\norbit closure: max return gap {closure['max_return_gap']:.2e}, "
      f"max period deviation {closure['max_period_dev']:.2e}")
