"""Certify the round sphere in the standard rotationally symmetric
contact structure.

The characteristic foliation on S^2 here is the classic north-south
flow with a twist: two zeros at the poles, no closed orbits, every
separatrix running from the negative pole to the positive one. That
is exactly the Morse-Smale picture the certifier is built to confirm.
"""

import numpy as np

from charfol import (ContactScene, FoliationField, Hypersurface,
                     check_morse_smale, classify_zero, find_zeros, policy)
from charfol.exterior import Chart, KForm

ch = Chart(("x", "y", "z"))
x, y = ch.var("x"), ch.var("y")
alpha = KForm.one_form(ch, [-y, x, ch.constant(1.0)])
scene = ContactScene(alpha, name="sphere",
                     domain={n: (-1.3, 1.3) for n in ch.names})
surf = Hypersurface(x * x + y * y + ch.var("z") * ch.var("z") - 1.0)

tols = policy.DEFAULT
field = FoliationField(scene, surf)

# two seeds near the poles; Newton refinement lands on them exactly
pts = find_zeros(field, [[0.05, -0.03, 0.99], [-0.04, 0.02, -0.99]], tols)
zeros = [classify_zero(field, p) for p in pts]
for z in zeros:
    print(f"zero at {np.round(z.point, 6)}  sign {z.sign:+d}  "
          f"stable dim {z.stable_dim}  div {z.divergence:+.4f}")

# 20 random points of the box, projected onto the sphere
seeds = field.surface_samples(np.random.default_rng(0), 20)
cert = check_morse_smale(field, seeds, zeros, tols=tols)
print(f"verdict: {cert.verdict}  (seeds used: {cert.seeds_used}, "
      f"limit check: {cert.limit_check:.3f})")
for note in cert.notes:
    print("note:", note)
