"""Break the degenerate column with a compactly supported bump and
certify the result. Takes under a second.

The unperturbed column model translates along its axis with no isolated
dynamics at all. A small bump (delta = 0.05) pinned inside a plateau
window creates exactly two closed orbits, one attracting and one
repelling, and the perturbed flow is Morse-Smale. The orbits should stay
on the circle a = b = 0, and the dossier carries a first-order
prediction of their multiplier margin, so the numerics can be checked
against perturbation theory rather than against themselves.
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
print(f"orbit shift off a = b = 0: {pers['max_shift']:.3e}, "
      f"holds: {pers['holds']}")
print(f"multiplier margin {pers['margin']:.6e} vs first-order prediction "
      f"{pers['predicted_margin']:.6e}")
print(f"degenerate: {d['degenerate']}")
print(f"certificate verdict: {d['certificate'].verdict}")
