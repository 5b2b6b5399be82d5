"""Break the degenerate column with a compactly supported bump and
certify the result. Takes about half a minute.

The unperturbed column model translates along its axis with no isolated
dynamics at all. A small bump (delta = 0.05) pinned inside a plateau
window creates exactly two closed orbits, one attracting and one
repelling, and the perturbed flow is Morse-Smale. The dossier carries a
first-order prediction for how far the orbits move, so the numerics can
be checked against perturbation theory rather than against themselves.
"""

from charfol import PerturbationSpec, perturb_analysis
from charfol.mori import column_psi

spec = PerturbationSpec(delta=0.05)
d = perturb_analysis(spec)

print(f"bump amplitude delta = {spec.delta}, "
      f"column circumference {spec.circumference}")
print(f"direction check against the product model: "
      f"max rel dev {d['direction_check']['max_rel_dev']:.2e}")

for o in d["orbits"]:
    psi = column_psi(d["scene"].chart, o.point)
    print(f"orbit at psi = {psi:+.6f}  C = {o.C:.6f}  "
          f"sign {o.sign:+d}  hyperbolic: {o.hyperbolic}")

pers = d["persistence"]
print(f"orbit shift vs first-order prediction: margin "
      f"{pers['margin']:.6e}, predicted {pers['predicted_margin']:.6e}, "
      f"holds: {pers['holds']}")
print(f"degenerate: {d['degenerate']}")
print(f"certificate verdict: {d['certificate'].verdict}")
