"""Full source-design loop for the coherence-length poling schemes.

For each domain division factor beta on an escalation ladder, the Gaussian
width factor alpha is swept, every candidate array is greedy-tracked, the
array with the lowest endpoint tracking cost is kept, its pump bandwidth is
optimized and the resulting purity evaluated on the standard grid.  The loop
returns the first design meeting the purity threshold; if the ladder is
exhausted (the domain width would drop below the 1 um fabrication floor) the
best design found is returned flagged below threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionModel
from .gvm import PhaseMatchConfig, phase_mismatch_and_lc
from .poling import (
    MIN_DOMAIN_WIDTH_M,
    DesignResult,
    DomainArray,
    TargetProfile,
    greedy_track,
    tracking_cost,
)
from .analysis import optimize_pump_bandwidth

__all__ = ["DesignOptions", "design_cl_scl"]

# Covers every division factor seen in practice (including the non-integer
# 5.5) with modest compute; the loop stops early once l_c/beta < 1 um.
DEFAULT_BETA_LADDER = (1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 8.0, 10.0, 12.0, 15.0, 18.0, 25.0, 35.0, 50.0)

# Gaussian width factors swept on every rung: 4.0, 4.1, ..., 6.0.
ALPHA_VALUES = tuple(round(4.0 + 0.1 * k, 10) for k in range(21))


@dataclass(frozen=True)
class DesignOptions:
    beta_ladder: tuple[float, ...] = DEFAULT_BETA_LADDER
    purity_threshold: float = 0.995


def design_cl_scl(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    options: DesignOptions = DesignOptions(),
) -> DesignResult:
    """Search (alpha, beta, sign array, pump bandwidth) for a pure source.

    Deterministic: the alpha sweep runs in ascending order and ties keep the
    smaller alpha.
    """
    gp = phase_mismatch_and_lc(model, cfg)
    lc = gp.coherence_length_m
    dk0 = math.pi / lc  # tracker works with the normalized positive mismatch

    def tracked(alpha: float, beta: float) -> tuple[DomainArray, float]:
        profile = TargetProfile.from_alpha(alpha, cfg.length_m, dk0)
        arr = greedy_track(profile, beta, lc, cfg.length_m)
        return arr, tracking_cost(arr, profile)

    best: DesignResult | None = None
    for beta in options.beta_ladder:
        if lc / beta < MIN_DOMAIN_WIDTH_M:
            break
        results = [tracked(a, beta) for a in ALPHA_VALUES]
        costs = np.array([c for _, c in results])
        pick = int(np.argmin(costs))
        alpha = ALPHA_VALUES[pick]
        array = results[pick][0]

        bw_nm, pur = optimize_pump_bandwidth(model, cfg, array, gp.theta_deg)
        scheme = "cl" if beta == 1.0 else "scl"
        candidate = DesignResult(
            domains=array,
            scheme=scheme,
            config=cfg,
            alpha=float(alpha),
            beta=float(beta),
            pump_bandwidth_nm=bw_nm,
            purity=pur,
            theta_deg=gp.theta_deg,
            coherence_length_m=lc,
        )
        if pur >= options.purity_threshold:
            return candidate
        if best is None or candidate.purity > best.purity:
            best = candidate
    if best is None:
        raise ValueError(
            "beta ladder empty or every domain width below the fabrication floor"
        )
    best.below_threshold = True
    return best
