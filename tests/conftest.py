"""Shared fixtures: dispersion model and the bench of wavelength cases."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from purepole import (
    Axis,
    DomainTooNarrow,
    KTP_KATO_2002,
    PhaseMatchConfig,
    TargetProfile,
    dc_domains,
    greedy_track,
    periodic_domains,
    phase_mismatch_and_lc,
)
from purepole.cli import PRESETS
from purepole.spectrum import _BAND_ROWS


@dataclass(frozen=True)
class CaseRow:
    """Published summary-table row used as a reference point."""

    pump_um: float
    signal_um: float
    signal_axis: Axis
    theta_deg: float
    lc_um: float
    partner_nm: float  # printed idler wavelength
    pp_purity: float


# O-band rows (heralded signal at 1310 nm) and C-band rows (1550 nm).
CASES: dict[str, CaseRow] = {
    "i": CaseRow(0.7100, 1.310, Axis.Z, 26.0, 18.86, 1550.0, 0.8301),
    "ii": CaseRow(0.6263, 1.310, Axis.Z, 2.0, 39.50, 1200.0, 0.9320),
    "iii": CaseRow(0.6550, 1.310, Axis.Z, 10.0, 27.33, 1310.0, 0.8616),
    "iv": CaseRow(0.7795, 1.310, Axis.Z, 45.0, 14.99, 1925.0, 0.8232),
    "v": CaseRow(0.8873, 1.310, Axis.Z, 85.0, 13.18, 2750.0, 0.8892),
    "vi": CaseRow(0.7100, 1.310, Axis.Y, 67.0, 31.40, 1550.0, 0.8330),
    "vii": CaseRow(0.6038, 1.310, Axis.Y, 89.0, 25.84, 1120.0, 0.9449),
    "viii": CaseRow(0.7878, 1.310, Axis.Y, 45.0, 44.71, 1977.0, 0.8231),
    "ix": CaseRow(0.6434, 1.550, Axis.Z, 3.0, 78.95, 1100.0, 0.9126),
    "x": CaseRow(0.7750, 1.550, Axis.Z, 40.0, 22.52, 1550.0, 0.8234),
    "xi": CaseRow(0.7977, 1.550, Axis.Z, 45.0, 20.94, 1644.0, 0.8232),
    "xii": CaseRow(0.9711, 1.550, Axis.Z, 87.0, 16.66, 2600.0, 0.9107),
    "xiii": CaseRow(0.5694, 1.550, Axis.Y, 87.0, 15.06, 900.0, 0.9141),
    "xiv": CaseRow(0.7992, 1.550, Axis.Y, 45.0, 24.37, 1650.0, 0.8232),
}


@pytest.fixture(scope="session")
def model():
    return KTP_KATO_2002


def case_config(name: str, length_m: float = 5e-3) -> PhaseMatchConfig:
    row = CASES[name]
    return PhaseMatchConfig.from_pump_signal(
        row.pump_um, row.signal_um, row.signal_axis, length_m=length_m
    )


@pytest.fixture
def case_i():
    return case_config("i")


def preset_structures(model, preset):
    """(config, GVM point, structures by label) for a preset in a 5 mm crystal:
    PP, the SCL arrays the tracker accepts at beta 10 and 18, a random DC."""
    pump_nm, signal_nm, axis = PRESETS[preset]
    cfg = PhaseMatchConfig.from_pump_signal(pump_nm * 1e-3, signal_nm * 1e-3, Axis(axis))
    gp = phase_mismatch_and_lc(model, cfg)
    lc = gp.coherence_length_m
    structures = {"pp": periodic_domains(cfg.length_m, lc)}
    profile = TargetProfile.from_alpha(5.0, cfg.length_m, math.pi / lc)
    for beta in (10.0, 18.0):
        try:
            structures[f"scl-{beta:g}"] = greedy_track(profile, beta, lc, cfg.length_m)
        except DomainTooNarrow:
            pass
    n_periods = int(math.floor(cfg.length_m / (2 * lc) + 1e-12))
    rng = np.random.default_rng(sum(map(ord, preset)))
    structures["dc"] = dc_domains(cfg.length_m, lc, rng.uniform(0.02, 0.98, n_periods))
    return cfg, gp, structures


# band rectangles (j0, j1, k0, k1) made by hand, by case, for an (n_s, n_i)
# grid of at least 3 blocks of `_BAND_ROWS` rows: a last row block shorter
# than `_BAND_ROWS`; blocks that touch column 0 and column n_i, one of them
# whole rows; a first block over the first third of the columns, which holds
# no valid point on the masked wide grid of `TestPurityVsRange` (its first
# 450 of 1000 idler columns leave the window); the whole grid as one rectangle
HAND_MADE_RECTS = {
    "short-last-block": lambda n_s, n_i: [(_BAND_ROWS, 2 * _BAND_ROWS, n_i // 4, n_i // 2),
                                          (n_s - _BAND_ROWS // 2, n_s, n_i // 2, n_i - 1)],
    "edge-columns": lambda n_s, n_i: [(0, _BAND_ROWS, 0, n_i // 2),
                                      (_BAND_ROWS, 2 * _BAND_ROWS, 0, n_i),
                                      (2 * _BAND_ROWS, 3 * _BAND_ROWS, n_i // 2, n_i)],
    "no-valid-point": lambda n_s, n_i: [(0, _BAND_ROWS, 0, n_i // 3),
                                        (_BAND_ROWS, 2 * _BAND_ROWS, n_i // 3, n_i)],
    "whole-grid": lambda n_s, n_i: [(0, n_s, 0, n_i)],
}
