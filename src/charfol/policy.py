"""Numerical policy: every tolerance and budget in one place.

Library code never hard-codes a threshold. Each entry point accepts a
Tolerances instance (defaulting to DEFAULT) so the command line can swap
profiles uniformly without touching call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # linear algebra
    linear_residual: float = 1e-10    # accept a linear solve only below this
    degenerate_volume: float = 1e-12  # |volume coefficient| below this is degenerate

    # integration
    ode_rtol: float = 1e-9
    ode_atol: float = 1e-10
    ode_max_step: float = 0.25
    ode_max_steps: int = 200_000
    project_tol: float = 1e-12
    project_max_iter: int = 20

    # root finding (field zeros, periodic orbits)
    newton_tol: float = 1e-11
    newton_max_iter: int = 40
    dedup_radius: float = 1e-6

    # classification of linearizations and return maps
    hyperbolic_band: float = 1e-6     # distance of |multiplier| from 1 that still counts as 1

    # certification by flowing to limits
    capture_radius: float = 2e-2      # declared converged once inside and contracting
    flow_budget: float = 400.0        # max flow time per limit-tracking run
    recurrence_tube: float = 1e-2
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
    flow_budget=200.0,
)

PROFILES = {"strict": STRICT, "default": DEFAULT, "fast": FAST}


def profile(name: str) -> Tolerances:
    """Look up a named profile; KeyError lists the valid names."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown tolerance profile {name!r}; expected one of {sorted(PROFILES)}"
        ) from None
