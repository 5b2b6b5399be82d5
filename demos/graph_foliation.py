"""Characteristic foliation of a graph over the standard contact R^3.

For a surface t = f(x, y) in the contact structure ker(dt + x dy) the
foliation has a closed-form direction: (f_y + x) d/dx - f_x d/dy lifted
to the graph. The solver knows nothing about this formula; comparing
against it is a strong end-to-end check of the linear algebra.
"""

import numpy as np

from charfol import (ContactScene, FoliationField, Hypersurface,
                     graph_foliation_check)
from charfol.exterior import Chart, KForm

ch = Chart(("t", "x", "y"))
alpha = KForm.one_form(ch, [ch.constant(1.0), ch.constant(0.0), ch.var("x")])
scene = ContactScene(alpha, name="paraboloid-graph",
                     domain={"t": (-0.1, 2.3), "x": (-1.5, 1.5),
                             "y": (-1.5, 1.5)})

# t = (x^2 + y^2) / 2, written as a level set
f = (ch.var("x") ** 2 + ch.var("y") ** 2) * 0.5
surf = Hypersurface(ch.var("t") - f)

field = FoliationField(scene, surf)


def predicted(p):
    # restriction of alpha to the graph is f_x dx + (f_y + x) dy;
    # contracting against the area form rotates that a quarter turn
    _, x, y = p
    vx, vy = y + x, -x
    return np.array([x * vx + y * vy, vx, vy])


rng = np.random.default_rng(7)
pts = []
for _ in range(200):
    x, y = rng.uniform(-1.2, 1.2, 2)
    pts.append([0.5 * (x * x + y * y), x, y])

rep = graph_foliation_check(field, predicted, pts)
print(f"max relative deviation from the closed form: {rep['max_rel_dev']:.3e}")
print(f"positive proportionality factor range: "
      f"[{rep['factor_min']:.4f}, {rep['factor_max']:.4f}]")

p = [0.5 * 1.21, 1.1, 0.0]
print("sample direction at (x, y) = (1.1, 0):", np.round(field.vector(p), 8))
