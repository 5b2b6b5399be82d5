"""charfol: characteristic foliations of hypersurfaces in contact manifolds.

Numerical computation of the line field cut out on a hypersurface by a
contact structure, classification of its zeros and closed orbits, and
certification of Morse-Smale behaviour.
"""

from charfol import policy
from charfol.certify import (ConvexityProfile, MorseSmaleCertificate,
                             build_profile, check_morse_smale,
                             standard_gamma, verification_grid,
                             verify_convex_form)
from charfol.contact import (ContactScene, FoliationField, Hypersurface,
                             graph_foliation_check, hamiltonian_residuals)
from charfol.dynamics import (Element, Flow, classify_orbit, classify_zero,
                              find_orbit, find_zeros)
from charfol.exterior import Chart, KForm, ScalarField
from charfol.mori import (MoriScene, PerturbationSpec, census, mori_scene,
                          perturb_analysis)

__version__ = "0.1.0"

__all__ = [
    "Chart", "ContactScene", "ConvexityProfile", "Element", "Flow",
    "FoliationField", "Hypersurface", "KForm", "MoriScene",
    "MorseSmaleCertificate", "PerturbationSpec", "ScalarField",
    "build_profile", "census", "check_morse_smale", "classify_orbit",
    "classify_zero", "find_orbit", "find_zeros", "graph_foliation_check",
    "hamiltonian_residuals", "mori_scene", "perturb_analysis", "policy",
    "standard_gamma",
    "verification_grid", "verify_convex_form",
]
