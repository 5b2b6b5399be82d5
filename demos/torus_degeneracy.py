"""The invariant torus on the symmetric shell, and why the certificate
refuses to pass.

Every trajectory between the two closed orbits winds around an invariant
torus at a fixed radius. The flow on the torus is close to linear with a
large irrational slope, so trajectories return near their start without
ever closing: textbook recurrence. A Morse-Smale certificate must fail
here, and it must fail for this reason, at this torus, not with a vague
timeout.
"""

import math

import numpy as np

from charfol import census, check_morse_smale, mori_scene
from charfol.mori import torus_probe, torus_recurrence

scene = mori_scene(2, 0.1)
con = scene.constants

probe = torus_probe(scene, samples=100, rng=np.random.default_rng(3))
print(f"field tangent to the torus: invariance residual "
      f"{probe['invariance_residual']:.2e}")
print(f"angular winding slope: {probe['slope']:.6f} "
      f"(closed form {con.torus_slope:.6f})")
print(f"transverse contraction per loop: "
      f"{probe['transverse_exponent_per_loop']:.3f}")

cen = census(scene)
field = scene.field_cartesian
seeds = field.surface_samples(np.random.default_rng(0), 20)
cert = check_morse_smale(field, seeds, cen["zeros"] + cen["orbits"],
                         recurrence=torus_recurrence(scene, probe))

print(f"\nverdict: {cert.verdict}")
for reason in cert.reasons:
    print("reason:", reason)
for rec in cert.recurrence:
    p = np.asarray(rec["point"], dtype=float)
    r = math.hypot(p[0], p[1])
    print(f"recurrence localized at r = {r:.12f} "
          f"(closed form {con.ring_r:.12f})")
