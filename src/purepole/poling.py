"""Poling-domain structures: periodic, greedy-tracked, multi-order QPM, duty-cycle.

A structure is either a `DomainArray` (uniform domain width w, orientation
signs +-1) or a `DutyCycleStructure` (fixed period 2*l_c, per-period UP/DOWN
split).  The greedy tracker builds the sign array sequentially so that the
running phase-matching amplitude follows a Gaussian-integral target

    phi_T(z) = sqrt(2/pi) * sigma * [erf(L/(2*sqrt(2)*sigma))
                                     + erf((z - L/2)/(sqrt(2)*sigma))],

choosing each domain orientation to minimize |phi_eff(z) - phi_T(z)|^2 after
rotating phi_eff by the constant phase that puts fully constructive QPM
growth on the positive real axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .gvm import PhaseMatchConfig

__all__ = [
    "MIN_DOMAIN_WIDTH_M",
    "DomainTooNarrow",
    "CrystalTooShort",
    "ZeroPhaseMismatch",
    "InvalidOrderList",
    "DutyOutOfRange",
    "DomainArray",
    "TargetProfile",
    "DesignResult",
    "DutyCycleStructure",
    "periodic_domains",
    "target_pmf",
    "effective_pmf_tracked",
    "greedy_track",
    "tracking_cost",
    "check_mqpm_orders",
    "mqpm_order_map",
    "mqpm_domains",
    "dc_domains",
    "erf_duty_profile",
    "write_poling_file",
]

# Fabrication floor on a single poling domain (current technology limit).
MIN_DOMAIN_WIDTH_M = 1e-6

# Constant rotation that maps constructive QPM growth (phase +i for any
# integer domain division factor) onto the positive real axis, making the
# complex tracked amplitude directly comparable to the real-valued target.
ALIGNMENT_PHASE = -1j


class DomainTooNarrow(ValueError):
    """Domain width below the 1 um fabrication floor."""


class CrystalTooShort(ValueError):
    """Crystal shorter than the minimum usable poling length."""


class ZeroPhaseMismatch(ValueError):
    """The tracked amplitude formula requires a nonzero phase mismatch."""


class InvalidOrderList(ValueError):
    """Multi-order QPM orders must be odd, ascending, and start at 1."""


class DutyOutOfRange(ValueError):
    """A duty-cycle fraction falls outside its allowed interval."""


def _frozen_copy(values, dtype) -> np.ndarray:
    """A read-only copy, so that a structure cannot change under the values
    derived from it."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


class _Structure:
    """What every poling structure shares: a cache of derived values."""

    @cached_property
    def pmf_table(self) -> dict:
        """Phase-matching node sums and sub-cell coefficients of this
        structure, each one contiguous span of lattice blocks, and for a
        `DomainArray` the FFT of its signs they are taken from, filled by
        `spectrum.pmf_piecewise`; it lives and dies with the structure."""
        return {}


@dataclass(frozen=True)
class DomainArray(_Structure):
    """Uniform-width poling structure: width w and orientation signs A_j = +-1.

    The origin z = 0 is the crystal entrance; domain j (1-based) spans
    [(j-1) w, j w].  Any crystal remainder beyond len(signs)*w is unpoled and
    excluded from integration.  `signs` is a read-only copy of the input.
    """

    width_m: float
    signs: np.ndarray

    def __post_init__(self):
        signs = _frozen_copy(self.signs, np.int8)
        if signs.ndim != 1 or signs.size == 0:
            raise ValueError("signs must be a nonempty 1-D array")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("every domain orientation must be exactly +1 or -1")
        object.__setattr__(self, "signs", signs)
        if self.width_m <= 0:
            raise ValueError("domain width must be positive")

    @property
    def n_domains(self) -> int:
        return int(self.signs.size)

    @property
    def length_m(self) -> float:
        """Poled length N*w."""
        return self.n_domains * self.width_m

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z_start, z_end, sign) per domain."""
        edges = self.width_m * np.arange(self.n_domains + 1)
        return edges[:-1], edges[1:], self.signs.astype(float)


@dataclass(frozen=True)
class TargetProfile:
    """Gaussian tracking target: width factor alpha = L/sigma, crystal length
    L and phase mismatch dk0 = pi/l_c; the width sigma = L/alpha is derived."""

    alpha: float
    length_m: float
    delta_k0: float

    def __post_init__(self):
        if self.alpha <= 0 or self.length_m <= 0:
            raise ValueError("alpha and length must be positive")
        if self.delta_k0 <= 0:
            raise ValueError("target profile uses the normalized (positive) dk0")

    @classmethod
    def from_alpha(cls, alpha: float, length_m: float, delta_k0: float) -> "TargetProfile":
        return cls(alpha=alpha, length_m=length_m, delta_k0=delta_k0)

    @property
    def sigma_m(self) -> float:
        return self.length_m / self.alpha


@dataclass(frozen=True)
class DutyCycleStructure(_Structure):
    """Fixed-period poling with per-period duty cycle.

    Each period of length `period_m` = 2*l_c starts with an UP segment of
    length period_m * fraction followed by a DOWN segment of the remainder.
    Sub-domain widths are non-uniform, so this structure is evaluated with the
    general piecewise integral.  `fractions` is a read-only copy of the input.
    """

    period_m: float
    fractions: np.ndarray

    def __post_init__(self):
        fr = _frozen_copy(self.fractions, float)
        if fr.ndim != 1 or fr.size == 0:
            raise ValueError("fractions must be a nonempty 1-D array")
        object.__setattr__(self, "fractions", fr)
        if self.period_m <= 0:
            raise ValueError("period must be positive")

    @property
    def n_periods(self) -> int:
        return int(self.fractions.size)

    @property
    def length_m(self) -> float:
        return self.n_periods * self.period_m

    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z_start, z_end, sign) for the 2*n_periods UP/DOWN sub-domains."""
        starts = self.period_m * np.arange(self.n_periods)
        splits = starts + self.period_m * self.fractions
        ends = starts + self.period_m
        z_start = np.empty(2 * self.n_periods)
        z_end = np.empty_like(z_start)
        z_start[0::2], z_end[0::2] = starts, splits
        z_start[1::2], z_end[1::2] = splits, ends
        sign = np.tile([1.0, -1.0], self.n_periods)
        return z_start, z_end, sign


@dataclass
class DesignResult:
    """One optimized source design, mirroring a summary-table row."""

    domains: DomainArray | DutyCycleStructure
    scheme: str
    config: PhaseMatchConfig
    alpha: float | None
    beta: float | None
    pump_bandwidth_nm: float
    purity: float
    theta_deg: float
    coherence_length_m: float
    # dw of the standard grid on which `purity` was scored
    delta_omega_rad_s: float
    below_threshold: bool = False


def periodic_domains(length_m: float, coherence_length_m: float) -> DomainArray:
    """First-order QPM array: w = l_c, alternating signs starting with +1."""
    if coherence_length_m < MIN_DOMAIN_WIDTH_M:
        raise DomainTooNarrow(
            f"l_c = {coherence_length_m * 1e6:.3f} um below the "
            f"{MIN_DOMAIN_WIDTH_M * 1e6:.0f} um fabrication floor"
        )
    if length_m <= 2 * coherence_length_m:
        raise CrystalTooShort(
            f"crystal length {length_m} m must exceed two coherence lengths"
        )
    n = int(math.floor(length_m / coherence_length_m + 1e-12))
    signs = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int8)
    return DomainArray(width_m=coherence_length_m, signs=signs)


# math.erf per array element, as gvm does with math.atan2
_erf_elements = np.frompyfunc(math.erf, 1, 1)


def _erf(x: float | np.ndarray) -> np.ndarray:
    """math.erf of each element of x (a float gives a 0-d array).

    Callers pass whole arrays: the tracker its target at every domain end,
    the duty-cycle profile its period centers.
    """
    return np.asarray(_erf_elements(x), dtype=float)


def target_pmf(z_m: float | np.ndarray, profile: TargetProfile) -> float | np.ndarray:
    """Target amplitude phi_T(z) in length units; nondecreasing in z on [0, L]."""
    s = profile.sigma_m
    L = profile.length_m
    root2 = math.sqrt(2.0)
    return math.sqrt(2.0 / math.pi) * s * (
        _erf(L / (2.0 * root2 * s)) + _erf((z_m - L / 2.0) / (root2 * s))
    )


def effective_pmf_tracked(
    signs: Sequence[int] | np.ndarray, width_m: float, delta_k0: float
) -> complex:
    """Effective amplitude of a sign-array prefix at the design mismatch dk0."""
    if delta_k0 == 0.0:
        raise ZeroPhaseMismatch("effective amplitude undefined at dk0 = 0")
    a = np.asarray(signs, dtype=float)
    j = np.arange(1, a.size + 1)
    prefactor = (1j / delta_k0) * (np.exp(-1j * width_m * delta_k0) - 1.0)
    return complex(prefactor * np.sum(a * np.exp(1j * width_m * delta_k0 * j)))


def greedy_track(
    profile: TargetProfile,
    beta: float,
    coherence_length_m: float,
    length_m: float,
) -> DomainArray:
    """Sequentially choose domain orientations to follow the Gaussian target.

    Domain width is w = l_c / beta; at step j the orientation minimizing the
    aligned cost |(-i) phi_eff(j w) - phi_T(j w)|^2 is kept (ties choose +1).
    The target does not depend on the choices, so phi_T is evaluated at all
    N domain ends in one call; the loop carries only the running sum
    S = sum_j A_j e^{i w dk0 j} and its last phase term, and
    phi_eff = (i/dk0) (e^{-i w dk0} - 1) S.
    Deterministic: identical inputs yield identical arrays.
    """
    w = coherence_length_m / beta
    if w < MIN_DOMAIN_WIDTH_M:
        raise DomainTooNarrow(
            f"w = l_c/beta = {w * 1e6:.3f} um below the 1 um fabrication floor"
        )
    n = int(math.floor(length_m / w + 1e-12))
    dk0 = profile.delta_k0
    step = cmath.exp(1j * w * dk0)
    prefactor = (1j / dk0) * (cmath.exp(-1j * w * dk0) - 1.0)
    targets = target_pmf(w * np.arange(1, n + 1), profile).tolist()
    signs = np.empty(n, dtype=np.int8)
    total, term = 0j, 1.0 + 0j
    for j, t in enumerate(targets):
        term *= step
        plus, minus = total + term, total - term
        c_plus = abs(ALIGNMENT_PHASE * (prefactor * plus) - t) ** 2
        c_minus = abs(ALIGNMENT_PHASE * (prefactor * minus) - t) ** 2
        if c_plus <= c_minus:
            total, signs[j] = plus, 1
        else:
            total, signs[j] = minus, -1
    return DomainArray(width_m=w, signs=signs)


def tracking_cost(structure: DomainArray, profile: TargetProfile) -> float:
    """Endpoint cost |(-i) phi_eff(N w) - phi_T(N w)|^2 of a tracked array."""
    phi = effective_pmf_tracked(structure.signs, structure.width_m, profile.delta_k0)
    t = target_pmf(structure.length_m, profile)
    return abs(ALIGNMENT_PHASE * phi - t) ** 2


def _quantized_order(g: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Map normalized Gaussian values to the nearest level 1/m (midpoint thresholds)."""
    levels = np.array([1.0 / m for m in orders])  # descending
    midpoints = (levels[:-1] + levels[1:]) / 2.0
    # index i means level i, i.e. order orders[i]; g below the last midpoint
    # still maps to the last (smallest) level.
    idx = np.searchsorted(-midpoints, -np.asarray(g), side="right")
    return np.asarray(orders)[idx]


def check_mqpm_orders(orders: Sequence[int]) -> None:
    """Raise InvalidOrderList unless the QPM orders are odd, strictly
    ascending and start at 1."""
    orders = list(orders)
    if (
        not orders
        or orders[0] != 1
        or any(m % 2 == 0 or m < 1 for m in orders)
        or any(b <= a for a, b in zip(orders, orders[1:]))
    ):
        raise InvalidOrderList("orders must be odd, strictly ascending, and start at 1")


def mqpm_order_map(
    length_m: float,
    coherence_length_m: float,
    orders: Sequence[int],
    profile: TargetProfile,
) -> np.ndarray:
    """Per-unit-cell QPM order of the staircase apodization.

    The crystal is partitioned symmetrically about the poled-region center by
    quantizing the normalized Gaussian exp(-dz^2 / (2 sigma^2)) (dz the offset
    from that center) to the levels 1/m of the given odd orders at midpoint
    thresholds.  The map is exactly even-symmetric because the cell offsets
    from the center are symmetric half-integers.
    """
    orders = list(orders)
    check_mqpm_orders(orders)
    if coherence_length_m < MIN_DOMAIN_WIDTH_M:
        raise DomainTooNarrow("unit cell below the 1 um fabrication floor")
    n_cells = int(math.floor(length_m / coherence_length_m + 1e-12))
    if n_cells < 2:
        raise CrystalTooShort("crystal shorter than two unit cells")

    # offsets (2j + 1 - N)/2 are exact half-integers, bitwise symmetric in j
    offsets = (2.0 * np.arange(n_cells) + 1.0 - n_cells) / 2.0 * coherence_length_m
    g = np.exp(-(offsets**2) / (2.0 * profile.sigma_m**2))
    return _quantized_order(g, orders)


def mqpm_domains(
    length_m: float,
    coherence_length_m: float,
    orders: Sequence[int],
    profile: TargetProfile,
) -> DomainArray:
    """Multi-order QPM staircase apodization.

    Each region of the `mqpm_order_map` staircase is poled with blocks of m
    unit cells (cell width l_c) whose sign flips per block; odd orders advance
    the QPM phase by pi per block, so the phasing stays constructive across
    region changes.  A block straddling a region boundary keeps the order of
    its starting cell.
    """
    cell_order = mqpm_order_map(length_m, coherence_length_m, orders, profile)
    n_cells = cell_order.size

    signs = np.empty(n_cells, dtype=np.int8)
    cursor = 0
    sign = 1
    while cursor < n_cells:
        m = int(cell_order[cursor])
        block = min(m, n_cells - cursor)
        signs[cursor : cursor + block] = sign
        sign = -sign
        cursor += block
    return DomainArray(width_m=coherence_length_m, signs=signs)


def dc_domains(
    length_m: float,
    coherence_length_m: float,
    duty_profile: Sequence[float] | np.ndarray,
    fabricable: bool = False,
) -> DutyCycleStructure:
    """Duty-cycle structure: period 2*l_c split into UP/DOWN by each fraction.

    With `fabricable` the fractions are required to leave both sub-domains at
    least 1 um long; in pure-simulation mode any fraction in (0, 1) is valid.
    """
    period = 2.0 * coherence_length_m
    n_periods = int(math.floor(length_m / period + 1e-12))
    fr = np.asarray(duty_profile, dtype=float)
    if fr.size != n_periods:
        raise ValueError(
            f"duty profile must have floor(L / 2 l_c) = {n_periods} entries, got {fr.size}"
        )
    if fabricable:
        dmin = MIN_DOMAIN_WIDTH_M / period
        if np.any(fr < dmin) or np.any(fr > 1.0 - dmin):
            raise DutyOutOfRange(
                f"fabricable duty cycles must lie in [{dmin:.4f}, {1 - dmin:.4f}]"
            )
    elif np.any(fr <= 0.0) or np.any(fr >= 1.0):
        raise DutyOutOfRange("duty cycles must lie strictly inside (0, 1)")
    return DutyCycleStructure(period_m=period, fractions=fr)


def erf_duty_profile(
    length_m: float, coherence_length_m: float, alpha: float = 5.0
) -> np.ndarray:
    """Error-function duty profile, 0.5 at the crystal center.

    The effective per-period nonlinearity |sin(pi * delta)| of this sigmoid is
    a symmetric, Gaussian-like bump; used as the initial state of the
    duty-cycle optimization.
    """
    period = 2.0 * coherence_length_m
    n_periods = int(math.floor(length_m / period + 1e-12))
    centers = (np.arange(n_periods) + 0.5) * period
    sigma = length_m / alpha
    delta = 0.5 * (1.0 + _erf((centers - length_m / 2.0) / (math.sqrt(2.0) * sigma)))
    # keep strictly inside (0, 1) so the structure is always valid
    return np.clip(delta, 1e-6, 1.0 - 1e-6)


def write_poling_file(
    path: str | Path,
    structure: DomainArray | DutyCycleStructure,
    header: dict[str, object] | None = None,
) -> None:
    """Write one line per domain: start (um, 4 decimals), width (um, 4
    decimals), sign.  Header records scheme and design metadata."""
    from . import textfmt  # at the first write, so that importing purepole does not load it

    lines = [f"# {key}: {value}" for key, value in (header or {}).items()]
    lines.append("# columns: start_um width_um sign")
    z_start, z_end, sign = structure.segments()
    # both structures hold signs of exactly +1 or -1
    signs = textfmt.strings([f"{int(a):+d}" for a in (-1.0, 1.0)])[(sign > 0).astype(np.intp)]
    with open(path, "wb") as fh:
        fh.write("".join(f"{line}\n" for line in lines).encode())
        for rows in textfmt.row_blocks(z_start.size, 2):
            zs, ze = z_start[rows], z_end[rows]
            textfmt.write_lines(fh, [textfmt.render(zs * 1e6, ".4f"),
                                     textfmt.render((ze - zs) * 1e6, ".4f"), signs[rows]], sep=b" ")
