"""Numerical policy: the tolerances and budgets that are varied or shared.

A threshold that a profile or a caller varies, or that several modules
share, lives here. The shared ones that no profile changes are module
constants. The ones a profile or a caller varies are the fields of
Tolerances; each entry point that reads one accepts a Tolerances
instance (defaulting to DEFAULT), so the command line can swap profiles
uniformly without touching call sites. A threshold private to one loop
(an iteration cap, a residual floor, a period bound) stays beside it.
How far the certificate flows (FLOW_BUDGET) is the same at every profile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# linear algebra
LINEAR_RESIDUAL = 1e-10     # accept a linear solve only below this
DEGENERATE_VOLUME = 1e-12   # |volume coefficient| below this is degenerate

# Newton projection onto the surface
PROJECT_TOL = 1e-12
PROJECT_MAX_ITER = 20

# zeros closer than this (angular coordinates wrapped) are one zero
DEDUP_RADIUS = 1e-6

# a zero seed has stalled once its residual has stayed within
# ZERO_STALL_RTOL of its best for ZERO_STALL_STEPS Newton steps
ZERO_STALL_RTOL = 1e-3
ZERO_STALL_STEPS = 3

# distance of |multiplier| from 1 that still counts as 1
HYPERBOLIC_BAND = 1e-6

# relative gap between the two evaluations of a collar volume form
CONVEX_FORM_MATCH = 1e-8

# accepted and rejected steps one integration may attempt
ODE_MAX_STEPS = 200_000

# certification by flowing to limits
RECURRENCE_TUBE = 1e-2
FLOW_BUDGET = 900.0     # flow time of one chase, in legs of a 96th


@dataclass(frozen=True)
class Tolerances:
    # integration
    ode_rtol: float = 1e-9
    ode_atol: float = 1e-10
    ode_max_step: float = 0.25

    # root finding (field zeros, periodic orbits)
    newton_tol: float = 1e-11
    newton_max_iter: int = 40

    # certification by flowing to limits
    recurrence_returns: int = 50


DEFAULT = Tolerances()

STRICT = replace(
    DEFAULT,
    ode_rtol=1e-11,
    ode_atol=1e-12,
    newton_tol=1e-13,
    newton_max_iter=60,
    recurrence_returns=80,
)

FAST = replace(
    DEFAULT,
    ode_rtol=1e-7,
    ode_atol=1e-8,
    newton_tol=1e-9,
    recurrence_returns=25,
)

PROFILES = {"strict": STRICT, "default": DEFAULT, "fast": FAST}


def coarse(tols: Tolerances) -> Tolerances:
    """The loose integration of a profile, for runs that need not be
    accurate in full: every flow of `certify.check_morse_smale` (its
    chases, separatrix launches and recurrence counts), the calibration
    runs of `certify.capture_region`, and `find_orbit`'s early shots.
    rtol and atol are 100 and 10 times the profile's
    (exactly 1e-7 and 1e-9 at DEFAULT), and steps go up to 2.0."""
    return replace(tols, ode_max_step=2.0,
                   ode_rtol=1e-7 * (tols.ode_rtol / DEFAULT.ode_rtol),
                   ode_atol=1e-9 * (tols.ode_atol / DEFAULT.ode_atol))
