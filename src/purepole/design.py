"""Full source-design loop for the coherence-length poling schemes.

For each domain division factor beta on an escalation ladder, the Gaussian
width factor alpha is swept, every candidate array is greedy-tracked and the
array with the lowest endpoint tracking cost is kept.  Each rung is first
screened: its pump bandwidth is optimized on a coarse grid (step dw/10,
100 x 100, dw measured on it too).  Only a rung whose coarse purity is at
least the threshold minus `SCREEN_MARGIN` has its bandwidth optimized and its
purity evaluated on the standard grid, and the loop returns the first design
whose standard purity meets the threshold.  If the ladder is exhausted (the
domain width would drop below the 1 um fabrication floor), every screened-out
rung within twice the margin of the best coarse purity is searched on the
standard grid too, and the best standard design is returned flagged below
threshold.

The standard search on a rung is the unscreened loop's own call.  Wherever
every rung's coarse and standard purities differ by less than the margin,
the design (rung, alpha, sign array, bandwidth, purity) is that of the
unscreened loop bit for bit: a rung that passes has coarse purity above
threshold - margin, and the best rung's coarse purity lies within twice the
margin of the best coarse purity.
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
from .analysis import NoInteriorMaximum, optimize_pump_bandwidth
from .spectrum import COARSE_STEP_DIVISOR

__all__ = ["DesignOptions", "design_cl_scl"]

# Covers every division factor seen in practice (including the non-integer
# 5.5) with modest compute; the loop stops early once l_c/beta < 1 um.
DEFAULT_BETA_LADDER = (1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 8.0, 10.0, 12.0, 15.0, 18.0, 25.0, 35.0, 50.0)

# Gaussian width factors swept on every rung: 4.0, 4.1, ..., 6.0.
ALPHA_VALUES = tuple(round(4.0 + 0.1 * k, 10) for k in range(21))

# Rung screen: the margin delta on |coarse - standard| purity, the coarse
# grid being the duty-cycle swarm's (COARSE_STEP_DIVISOR, 100 x 100 at
# R = 10 dw).  Over the 69 rungs that the 14 presets' default 5 mm ladders
# visit, the largest difference is 9.0e-4, and 3.5e-4 where the purity
# exceeds 0.98.
SCREEN_MARGIN = 2e-3


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
    smaller alpha; among rungs of equal purity the earlier one is kept.  A
    coarse search that finds no interior maximum screens nothing: the rung
    gets its standard search.
    """
    gp = phase_mismatch_and_lc(model, cfg)
    lc = gp.coherence_length_m
    dk0 = math.pi / lc  # tracker works with the normalized positive mismatch
    threshold = options.purity_threshold

    def tracked(alpha: float, beta: float) -> tuple[DomainArray, float]:
        profile = TargetProfile.from_alpha(alpha, cfg.length_m, dk0)
        arr = greedy_track(profile, beta, lc, cfg.length_m)
        return arr, tracking_cost(arr, profile)

    def designed(beta: float, alpha: float, array: DomainArray) -> DesignResult:
        optimum = optimize_pump_bandwidth(model, cfg, array, gp.theta_deg)
        bw_nm, pur = optimum
        return DesignResult(
            domains=array,
            scheme="cl" if beta == 1.0 else "scl",
            config=cfg,
            alpha=float(alpha),
            beta=float(beta),
            pump_bandwidth_nm=bw_nm,
            purity=pur,
            theta_deg=gp.theta_deg,
            coherence_length_m=lc,
            delta_omega_rad_s=optimum.delta_omega,
        )

    rungs = []  # (coarse purity or None, beta, alpha, array), in ladder order
    designs: dict[int, DesignResult] = {}  # rung index -> its standard design
    for beta in options.beta_ladder:
        if lc / beta < MIN_DOMAIN_WIDTH_M:
            break
        results = [tracked(a, beta) for a in ALPHA_VALUES]
        pick = int(np.argmin([c for _, c in results]))
        alpha, array = ALPHA_VALUES[pick], results[pick][0]
        try:
            _, coarse = optimize_pump_bandwidth(
                model, cfg, array, gp.theta_deg, step_divisor=COARSE_STEP_DIVISOR)
        except NoInteriorMaximum:
            coarse = None
        rungs.append((coarse, beta, alpha, array))
        if coarse is not None and coarse < threshold - SCREEN_MARGIN:
            continue
        design = designs[len(rungs) - 1] = designed(beta, alpha, array)
        if design.purity >= threshold:
            return design
    if not rungs:
        raise ValueError(
            "beta ladder empty or every domain width below the fabrication floor"
        )
    coarse_best = max((r[0] for r in rungs if r[0] is not None), default=None)
    for n, (coarse, *rung) in enumerate(rungs):
        if n not in designs and coarse >= coarse_best - 2.0 * SCREEN_MARGIN:
            designs[n] = designed(*rung)
    # max keeps the first of equal purities: the earliest rung
    best = designs[max(sorted(designs), key=lambda n: designs[n].purity)]
    best.below_threshold = True
    return best
