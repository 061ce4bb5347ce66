"""Schmidt purity, heralding efficiency, pump-bandwidth and duty-cycle optimization.

Heralded single-photon spectral purity is P = sum_j c_j^4 where the c_j are
the normalized singular values of the JSA matrix F (sum c_j^2 = 1).  Purity
is invariant under global scaling/phase and under transposition of the matrix.

P also equals Tr(rho_s^2) = ||F^H F||_F^2 / ||F||_F^4 (Law, Walmsley & Eberly,
PRL 84, 5304 (2000)), which needs no singular values: `jsa_purity`, used
wherever only the purity is needed, computes it from a blocked Gram matrix of
a unit-norm copy of F whose parts below eps / (16 sqrt(number of parts)) are
flushed to zero: about 1e-20 on a 1000^2 grid, a floor that provably moves
the purity by at most eps/2 and lies far above sqrt(tiny), so that no
product is subnormal.  A column block of the Gram whose first or last row
the flush left all zero is summed over pairs of column tiles whose nonzero
rows meet, over only the rows they share, which drops nothing but zeros;
where neither edge row is zero, its product is the untrimmed one bit for
bit.  It agrees with the SVD purity of `schmidt_decompose`, which still
gives the Schmidt coefficients themselves, to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dispersion import C_LIGHT, DispersionModel
from .gvm import PhaseMatchConfig, phase_mismatch_and_lc
from .poling import (
    DesignResult,
    DomainArray,
    DutyCycleStructure,
    dc_domains,
    erf_duty_profile,
)
from .spectrum import (
    COARSE_STEP_DIVISOR,
    JointSpectrum,
    PumpSpec,
    _FWHM_FACTOR,
    _JsaEvaluator,
    _grid_side,
    _ridge_slopes,
    _unit_norm,
    build_jsa,
    make_grid,
    measure_delta_omega,
    standard_jsa,
)

__all__ = [
    "ZeroSpectrum",
    "WindowExceedsGrid",
    "NoInteriorMaximum",
    "BandwidthOptimum",
    "SchmidtSpectrum",
    "RangeSweepCurve",
    "PsoSettings",
    "MIN_RANGE_DW",
    "schmidt_decompose",
    "purity",
    "jsa_purity",
    "heralding_efficiency",
    "heralding_efficiency_extended",
    "optimize_pump_bandwidth",
    "purity_vs_range",
    "pso_optimize_dc",
    "write_schmidt_csv",
    "write_curve_csv",
]

# Pump-bandwidth search: a log-spaced lattice of _N_COARSE points over the
# bounds, scored outward from a seed until the best point has _SCAN_MARGIN
# scored neighbours on each side, then Brent's bounded refinement (parabolic
# steps with a golden-section fallback; Brent, Algorithms for Minimization
# without Derivatives, 1973, ch. 5) to this absolute tolerance in log
# bandwidth.
_N_COARSE, _SCAN_MARGIN, _LOG_BW_TOL = 21, 2, 1e-3
# Gaussian fit of the sinc phase-matching function, sinc(x) ~ exp(-gamma x^2)
# (Branczyk et al., Opt. Express 19, 55 (2011)).
_SINC_GAMMA = 0.193
# Constriction-style particle-swarm coefficients, the half-width of the
# uniform spread of the initial swarm around its start, and duty-cycle bounds.
_PSO_INERTIA, _PSO_COGNITIVE, _PSO_SOCIAL = 0.729, 1.49, 1.49
_PSO_INIT_SPREAD = 0.05
_DUTY_MIN, _DUTY_MAX = 0.02, 0.98
# Gram purity: real and imaginary parts of the unit-norm amplitude below
# `_flush_floor` of its part count are zeroed, which provably moves the purity
# by at most eps/2; the Gram is built in column blocks of this width, and a
# block with an all-zero edge row in column tiles of the second (a divisor of
# the first; timed against 16, 32 and 128 on 1000^2 and 2000^2 range grids).
_GRAM_BLOCK = 128
_GRAM_TILE = 64
_FLUSH_BLOCK = 1 << 16  # parts per block of the flush to zero
# Smallest spectral range R, in units of dw, that a purity grid may span.
MIN_RANGE_DW = 2.0


class ZeroSpectrum(ValueError):
    """The JSA matrix is identically zero."""


class WindowExceedsGrid(ValueError):
    """A collection window is not contained in the evaluation grid."""


class NoInteriorMaximum(RuntimeError):
    """The bandwidth search's best lattice point is a search bound."""


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients c_j: descending, nonnegative, sum c_j^2 = 1."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        if np.any(c < 0) or np.any(np.diff(c) > 0):
            raise ValueError("coefficients must be nonnegative and descending")
        if abs(float(np.sum(c**2)) - 1.0) > 1e-9:
            raise ValueError("coefficients must satisfy sum c_j^2 = 1")


def schmidt_decompose(jsa: JointSpectrum | np.ndarray) -> SchmidtSpectrum:
    """Normalized singular values of the JSA amplitude matrix."""
    amp = jsa.amplitude if isinstance(jsa, JointSpectrum) else np.asarray(jsa)
    if not np.all(np.isfinite(amp)):
        raise ValueError("JSA contains non-finite entries")
    svals = np.linalg.svd(amp, compute_uv=False)
    total = float(np.sum(svals**2))
    if total == 0.0:
        raise ZeroSpectrum("all singular values vanish")
    return SchmidtSpectrum(coefficients=svals / math.sqrt(total))


def purity(spectrum: SchmidtSpectrum | np.ndarray) -> float:
    """P = sum_j c_j^4; equals 1 iff the spectrum is rank one."""
    c = spectrum.coefficients if isinstance(spectrum, SchmidtSpectrum) else np.asarray(spectrum)
    return float(np.sum(c**4))


def _flush_floor(n_parts: int) -> float:
    """The floor below which the real and imaginary parts of a unit-norm
    amplitude F of `n_parts` parts are zeroed: eps / (16 sqrt(n_parts)),
    eps = 2^-52, the largest floor for which the bound below holds the
    purity's shift to eps/2.

    Zeroing parts E of F moves ||F^H F||_F^2 by 4 Re<F F^H F, E> to first
    order, at most 4 ||E||_F since ||F F^H F||_F <= ||F||_2^2 ||F||_F <= 1,
    and ||F||_F^4 by 4 Re<F, E>, which moves P by at most 4 P ||E||_F <=
    4 ||E||_F more; so |dP| <= 8 ||E||_F <= 8 sqrt(n_parts) floor = eps/2.
    A complex N_s x N_i amplitude has 2 N_s N_i parts; at 1000^2 the floor
    is about 1e-20, far above sqrt(tiny) ~ 1.5e-154, so no product inside
    the Gram is subnormal.
    """
    return float(np.finfo(float).eps) / (16.0 * math.sqrt(n_parts))


def _unit_working_copy(amp: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """A C-ordered copy of `amp` scaled to unit Frobenius norm by way of its
    largest part, with every real or imaginary part below `_flush_floor` of
    its part count set to zero; with `overwrite`, `amp` itself when it is a
    writable C-contiguous float64 or complex128 array.  The copy is
    C-ordered, so that its parts are scaled and flushed through one flat
    view, whatever the order of `amp`.

    Raises ValueError for non-finite entries and ZeroSpectrum for an
    all-zero amplitude.
    """
    dtype = np.result_type(amp.dtype, float)
    in_place = (overwrite and amp.dtype == dtype and amp.flags.c_contiguous
                and amp.flags.writeable)
    work = amp if in_place else np.array(amp, dtype=dtype, order="C")
    parts = work.view(float).reshape(-1)  # real and imaginary parts, in place
    return _scaled_to_unit(work, [parts[start : start + _FLUSH_BLOCK]
                                  for start in range(0, parts.size, _FLUSH_BLOCK)])


def _scaled_to_unit(work: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """`work`, a C-contiguous float64 or complex128 array, scaled in place
    to unit Frobenius norm by way of its largest part, with every part below
    `_flush_floor` of its part count set to zero, touching only `blocks`:
    float views of its parts that hold every nonzero part between them.
    Each part takes the same divisions whatever the blocks, and the norm is
    one `np.dot` over all parts, so the result does not depend on them.

    Raises ValueError for non-finite entries and ZeroSpectrum for an
    all-zero amplitude.
    """
    parts = work.view(float).reshape(-1)
    high = max(float(block.max()) for block in blocks)
    low = min(float(block.min()) for block in blocks)
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError("JSA contains non-finite entries")
    peak = max(high, -low)
    if peak == 0.0:
        raise ZeroSpectrum("the JSA amplitude vanishes")
    for block in blocks:
        block /= peak
    norm = math.sqrt(float(np.dot(parts, parts)))
    floor = _flush_floor(parts.size)
    for block in blocks:
        block /= norm
        block[np.abs(block) < floor] = 0.0
    return work


def _tile_products(spans: list[tuple[int, int]], c0: int, c1: int, cols: int) -> list:
    """The Gram products of the column block c0 .. c1 - 1, from the nonzero
    row `spans` of the column tiles up to c1, as right operands (a, b, s0,
    s1, lefts): the columns a .. b - 1 over the rows s0 .. s1 - 1, each to
    be multiplied by the columns lo .. hi - 1 over the rows r0 .. r1 - 1 of
    every (r0, r1, lo, hi) in `lefts`.

    Each run of neighbouring tiles in the block with one nonzero span is a
    right operand, and each tile from column 0 to the run's end a left one,
    over the rows its span shares with the run's; neighbouring left tiles
    that share the same rows are one product, and tiles that share none are
    skipped.  So hi <= a, or hi = b with a to b the product's diagonal square.
    """
    products = []
    q, q_end = c0 // _GRAM_TILE, -(-c1 // _GRAM_TILE)
    while q < q_end:
        e = q + 1
        while e < q_end and spans[e] == spans[q]:
            e += 1
        s0, s1 = spans[q]
        shared = [(max(r0, s0), min(r1, s1)) for r0, r1 in spans[:e]]
        lefts = []
        p = 0
        while p < e:
            h = p + 1
            while h < e and shared[h] == shared[p]:
                h += 1
            r0, r1 = shared[p]
            if r0 < r1:
                lefts.append((r0, r1, p * _GRAM_TILE, min(h * _GRAM_TILE, cols)))
            p = h
        if lefts:
            products.append((q * _GRAM_TILE, min(e * _GRAM_TILE, cols), s0, s1, lefts))
        q = e
    return products


def jsa_purity(jsa: JointSpectrum | np.ndarray, overwrite: bool = False) -> float:
    """Schmidt purity Tr(rho_s^2) = sum_j c_j^4 of a joint spectrum, from the
    Gram matrix: P = ||F^H F||_F^2 / ||F||_F^4, with no singular values.

    A working copy of the amplitude F is scaled to unit Frobenius norm (by
    way of its largest part, so that no scale overflows or underflows), and
    every real or imaginary part below `_flush_floor` is set to zero: about
    1e-20 on a 1000^2 grid, a floor that provably moves the purity by at
    most eps/2 and lies far above sqrt(tiny), so each product inside the
    Gram is a normal float.  The Gram is built in column blocks of
    `_GRAM_BLOCK`, only its upper block triangle, and each block's squared
    norm is accumulated, off-diagonal blocks twice.  Agrees with
    `purity(schmidt_decompose(jsa))` to 1e-12.

    A row that is zero in a column block adds nothing to that block's Gram,
    nor does a pair of columns whose nonzero rows do not meet.  So when the
    block's first or last row is all zero after the flush (the flushed tails
    of a wide R = 50 grid, or masked edge rows), it is summed in column
    tiles of `_GRAM_TILE`: each tile's first-to-last nonzero-row span is
    found once per call, in one pass over the tile, and each right tile of
    the block is multiplied by each tile at or left of it over the rows both
    spans share (`_tile_products`).  Tile pairs that share no row are
    skipped, neighbouring tiles with the same span (right) or the same
    shared rows (left) are one product, and off-diagonal pairs count
    twice.  On the anti-diagonal band of the o-band-i R = 50 grids that is
    67 M complex multiply-adds in 78 products, where one product per block
    over its nonzero rows took 141 M.  It is exact in real arithmetic,
    though BLAS sums in another order, so the purity may differ from the
    untrimmed Gram's by a few eps.  When both edge rows are nonzero, the
    block is the single untrimmed product, bit for bit.

    With `overwrite` the amplitude may serve as the working copy (it does
    when it is a writable C-contiguous float64 or complex128 array) and is
    left scaled and flushed; the purity is the same bit for bit.

    Raises ValueError for non-finite entries and ZeroSpectrum for an
    all-zero amplitude.
    """
    amp = jsa.amplitude if isinstance(jsa, JointSpectrum) else np.asarray(jsa)
    if amp.ndim != 2:
        raise ValueError("JSA amplitude must be a 2-D array")
    return _gram_purity(_unit_working_copy(amp, overwrite))


def _gram_purity(work: np.ndarray) -> float:
    """`jsa_purity`'s Gram sum over a 2-D amplitude already scaled to unit
    norm and flushed (`_scaled_to_unit`)."""
    parts = work.view(float).reshape(-1)
    rows, cols = work.shape
    spans = []  # (first, last + 1) nonzero row of each column tile, as blocks trim
    gram_sq = 0.0
    for c0 in range(0, cols, _GRAM_BLOCK):
        c1 = min(c0 + _GRAM_BLOCK, cols)
        if work[0, c0:c1].any() and work[-1, c0:c1].any():
            products = [(c0, c1, 0, rows, [(0, rows, 0, c1)])]
        else:
            # rows zero in a column tile, and tile pairs that share no
            # nonzero row, add nothing to this block's Gram
            for t0 in range(len(spans) * _GRAM_TILE, c1, _GRAM_TILE):
                nonzero = np.flatnonzero(work[:, t0 : t0 + _GRAM_TILE].any(axis=1))
                spans.append((int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0))
            products = _tile_products(spans, c0, c1, cols)
        for a, b, s0, s1, lefts in products:
            right = work[s0:s1, a:b].conj()
            for r0, r1, lo, hi in lefts:
                block = (work[r0:r1, lo:hi].T @ right[r0 - s0 : r1 - s0]).reshape(-1)
                split = (min(hi, a) - lo) * (b - a)  # left columns below a are off the diagonal
                gram_sq += 2.0 * float(np.vdot(block[:split], block[:split]).real)
                gram_sq += float(np.vdot(block[split:], block[split:]).real)
    return gram_sq / float(np.dot(parts, parts)) ** 2


def heralding_efficiency(
    jsa: JointSpectrum,
    signal_window: tuple[float, float],
    idler_window: tuple[float, float],
) -> float:
    """Probability the signal lies in its window given the idler is in its own.

    eta = sum |f|^2 over (signal in W_s and idler in W_i)
          / sum |f|^2 over (idler in W_i),
    with the signal marginal taken over the whole (extended) grid.
    """
    ws = jsa.grid.omega_s
    wi = jsa.grid.omega_i
    for (lo, hi), axis in ((signal_window, ws), (idler_window, wi)):
        if lo >= hi:
            raise ValueError("window bounds must be ordered")
        if lo < axis[0] or hi > axis[-1]:
            raise WindowExceedsGrid(
                f"window [{lo:.6e}, {hi:.6e}] not contained in grid "
                f"[{axis[0]:.6e}, {axis[-1]:.6e}]"
            )
    power = np.abs(jsa.amplitude) ** 2
    in_s = (ws >= signal_window[0]) & (ws <= signal_window[1])
    in_i = (wi >= idler_window[0]) & (wi <= idler_window[1])
    denominator = float(power[:, in_i].sum())
    if denominator == 0.0:
        raise ZeroSpectrum("no weight in the idler window")
    numerator = float(power[np.ix_(in_s, in_i)].sum())
    return numerator / denominator


def heralding_efficiency_extended(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    theta_deg: float,
    delta_omega: float,
    r_window: float = 10.0,
    extension: float = 7.0,
) -> float:
    """Heralding efficiency for symmetric +-(r_window/2) dw windows, with the
    signal marginal integrated on an `extension`-times-wider grid."""
    jsa = standard_jsa(model, cfg, structure, pump, theta_deg, delta_omega, extension * r_window)
    half = 0.5 * r_window * delta_omega
    return heralding_efficiency(
        jsa,
        (cfg.omega_s0 - half, cfg.omega_s0 + half),
        (cfg.omega_i0 - half, cfg.omega_i0 + half),
    )


def _seed_index(model: DispersionModel, cfg: PhaseMatchConfig, logs: np.ndarray) -> int:
    """Index of the lattice point nearest in log bandwidth to the Gaussian-PMF
    optimum: the pump width that makes the Gaussian-PMF JSA separable,
    1/sigma_p^2 = (gamma L^2/4) |(k'_p - k'_s)(k'_p - k'_i)| for the envelope
    exp(-(Omega/sigma_p)^2).  A zero slope product (no finite optimum) gives
    the upper end, an infinite or NaN one the lower end."""
    slope_s, slope_i = _ridge_slopes(model, cfg)
    inv_var = 0.25 * _SINC_GAMMA * cfg.length_m**2 * abs(slope_s * slope_i)
    if inv_var == 0.0:
        return logs.size - 1
    if not math.isfinite(inv_var):
        return 0
    # the intensity-FWHM bandwidth of that width at the pump wavelength, in nm
    sigma_p = 1.0 / math.sqrt(inv_var)
    lam = 2.0 * math.pi * C_LIGHT / cfg.omega_p0
    bw_nm = sigma_p * _FWHM_FACTOR * lam**2 / (2.0 * math.pi * C_LIGHT) * 1e9
    return int(np.argmin(np.abs(logs - math.log(bw_nm))))


def _brent_maximize(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Maximize `f` over [a, b] by Brent's bounded method (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 5): parabolic steps
    through the three best points so far, a golden-section step where the
    parabola's step is not acceptable, until the best point is known to
    within about `xatol`.  Returns the best point scored and its value; the
    ends are never scored.

    A port of the bounded method behind `fminbound` that minimizes -f:
    every point and value equal `fminbound(lambda x: -f(x), a, b,
    xtol=xatol)`'s bit for bit, with the same evaluations, as long as that
    stays within its default of 500.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    # xf is the best point, nfc the second best, fulc the third (or older);
    # e is the step before last, rat the last
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    ffulc = fnfc = fx = -f(xf)
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # the parabola through (xf, fx), (nfc, fnfc) and (fulc, ffulc)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            # acceptable: inside (a, b) and shorter than half the step before last
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = -f(x)
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, -fx


class BandwidthOptimum(tuple):
    """The (bandwidth_nm, purity) pair of a pump-bandwidth search.  It also
    holds `delta_omega`, the dw of the grid that purity was scored on, so
    that the design's artifact needs no second measurement."""

    def __new__(cls, bandwidth_nm: float, purity: float, delta_omega: float):
        optimum = super().__new__(cls, (bandwidth_nm, purity))
        optimum.delta_omega = delta_omega
        return optimum


def optimize_pump_bandwidth(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    theta_deg: float,
    bounds_nm: tuple[float, float] = (0.05, 50.0),
    step_divisor: int | None = None,
) -> BandwidthOptimum:
    """Maximize purity over the pump bandwidth; returns (bandwidth_nm, purity)
    as a `BandwidthOptimum`, which also carries the dw of that candidate.

    The search runs on a lattice of `_N_COARSE` log-spaced bandwidths over
    `bounds_nm`, which must be finite with 0 < lo < hi (ValueError naming
    `bounds_nm` otherwise).  It does not score the whole lattice: it starts
    from the point nearest the Gaussian-PMF optimum (`_seed_index`), scores
    the window of `_SCAN_MARGIN` points on each side of it, and widens the
    window by one point on each side whose edge lies fewer than
    `_SCAN_MARGIN` points from the best point so far, until the best point
    has `_SCAN_MARGIN` scored neighbours on each side or the window reaches
    a bound.  Ties go to the lowest index.  A best point at either end of
    the lattice raises NoInteriorMaximum.  Brent's bounded method
    (`_brent_maximize`, parabolic steps with a golden-section fallback) then
    refines the optimum in log bandwidth between the best point's two
    neighbours, to an absolute tolerance of 1e-3, and the best candidate it
    scored is the result, with the purity and dw it was scored at.  The
    spectral grid is rebuilt (dw re-measured) for every candidate.  A search
    scores about 13 candidates (23 with the golden-section refinement of
    earlier releases, whose bandwidths differ by about 1e-4 relative and
    purities by about 1e-8).

    Contract: the walk finds the best point of a window, which is the whole
    lattice's maximum whenever purity has no higher maximum beyond a dip
    outside that window; wherever the two agree, (bandwidth, purity) equals
    that of a scan of all `_N_COARSE` points bit for bit.

    Every candidate is built and scored in two buffers that live as long as
    the search, one complex and one float array of the standard grid's
    size, which does not depend on dw: the build writes the JSA into them
    and the purity scales and flushes it in place (`standard_jsa`'s `out`
    and `work`, `jsa_purity`'s `overwrite`).  Each purity equals
    `jsa_purity(standard_jsa(...))` without them, bit for bit.

    `step_divisor` is `make_grid`'s for every candidate's dw measurement and
    grid; None, the default, is the standard grid.  `design_cl_scl` screens
    its rungs with a coarser one.
    """
    lo, hi = bounds_nm
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"bounds_nm: must be finite with 0 < lo < hi, got {bounds_nm!r}")
    side = _grid_side(theta_deg, step_divisor=step_divisor)[1]
    amplitude, work = np.empty((side, side), dtype=complex), np.empty((side, side))
    dws = {}  # each scored log bandwidth's dw

    def purity_at(log_bw: float) -> float:
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, math.exp(log_bw))
        jsa = standard_jsa(model, cfg, structure, pump, theta_deg, out=amplitude, work=work,
                           step_divisor=step_divisor)
        dws[log_bw] = jsa.grid.delta_omega
        return jsa_purity(jsa, overwrite=True)

    logs = np.log(np.geomspace(lo, hi, _N_COARSE))
    seed = _seed_index(model, cfg, logs)
    first = max(seed - _SCAN_MARGIN, 0)
    values = [purity_at(x) for x in logs[first:min(seed + _SCAN_MARGIN, _N_COARSE - 1) + 1]]
    while True:
        best = first + int(np.argmax(values))
        last = first + len(values) - 1
        grow_down = first > 0 and best - first < _SCAN_MARGIN
        grow_up = last < _N_COARSE - 1 and last - best < _SCAN_MARGIN
        if not (grow_down or grow_up):
            break
        if grow_down:
            first -= 1
            values.insert(0, purity_at(logs[first]))
        if grow_up:
            values.append(purity_at(logs[last + 1]))
    if best in (0, _N_COARSE - 1):
        raise NoInteriorMaximum(
            f"purity maximal at search bound {math.exp(logs[best]):.3g} nm"
        )

    x_best, pur = _brent_maximize(purity_at, float(logs[best - 1]), float(logs[best + 1]),
                                  _LOG_BW_TOL)
    return BandwidthOptimum(math.exp(x_best), pur, dws[x_best])


@dataclass
class RangeSweepCurve:
    """Purity versus spectral range R (in dw units) for one poling scheme."""

    r_values: np.ndarray
    purities: np.ndarray
    scheme: str
    masked_fractions: np.ndarray = field(default=None)  # type: ignore[assignment]
    delta_omega: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r_values, dtype=float)
        p = np.asarray(self.purities, dtype=float)
        if np.any(np.diff(r) <= 0):
            raise ValueError("R values must be ascending")
        if np.any((p <= 0) | (p > 1 + 1e-12)):
            raise ValueError("purities must lie in (0, 1]")
        self.r_values = r
        self.purities = p
        if self.masked_fractions is None:
            self.masked_fractions = np.zeros_like(r)


def purity_vs_range(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    r_values: list[float] | np.ndarray,
    theta_deg: float,
    delta_omega: float | None = None,
    tag: str = "piecewise",
) -> RangeSweepCurve:
    """Purity for each spectral range R (in dw units) at the fixed D rule.

    dw is measured once at the R = 10 baseline and frozen for the whole sweep
    so the R axis keeps a single unit; grid points that leave the transparency
    window are masked to zero and the masked fraction reported per point.
    `tag` labels the curve (poling scheme name) in exports.  `r_values` must
    be strictly ascending and at least `MIN_RANGE_DW`, and each must give a
    grid numpy can index (`make_grid`'s size rule); otherwise ValueError
    before dw is measured or anything is built.

    Every R is built and scored in one complex buffer that lives as long as
    the sweep, sized for the largest R's grid: each R's JSA is written into
    a C-contiguous prefix of it, reshaped to that R's standard grid.  Only
    the band of anti-diagonals whose parts can survive `jsa_purity`'s flush
    is filled (`_JsaEvaluator.band`, then `_JsaEvaluator.amplitude` over its
    rectangles, the fill that `build_jsa` makes of the whole grid; the rest
    is exactly 0), and the normalization, the scaling to unit norm and the
    flush touch only its rectangles, while both Frobenius norms are
    `np.dot`s over the whole grid.  On the R = 50 grids (1000 x 1000) of the
    o-band-i PP and CL sweeps the band keeps 16-17 % of the anti-diagonals,
    in rectangles of 34-36 % of the grid; at R = 10 they cover 93-100 %.
    The Gram sum finds the band's column tiles from the flushed data, as
    `jsa_purity` does, and multiplies only tile pairs whose nonzero rows
    meet.  A grid whose band is the whole grid, or that the PMF size rule
    might send to the exact sum, is built by `build_jsa` and scored by
    `jsa_purity` in place.  Each purity and masked fraction equals that of
    `jsa_purity(standard_jsa(...))`, bit for bit.
    """
    r_values = np.asarray(r_values, dtype=float)
    if np.any(r_values < MIN_RANGE_DW):
        raise ValueError(f"spectral range must be at least {MIN_RANGE_DW:g} dw")
    if np.any(np.diff(r_values) <= 0):
        raise ValueError("R values must be ascending")
    sides = [_grid_side(theta_deg, float(r))[1] for r in r_values]
    if delta_omega is None:
        delta_omega = measure_delta_omega(model, cfg, structure, pump, theta_deg)
    amplitude = np.empty(max(sides, default=0) ** 2, dtype=complex)
    purities = np.empty(r_values.size)
    masked = np.empty(r_values.size)
    for n, (r, side) in enumerate(zip(r_values, sides)):
        grid = make_grid(theta_deg, delta_omega, cfg.omega_s0, cfg.omega_i0, r_mult=float(r))
        f = amplitude[: side * side].reshape(side, side)
        evaluator = _JsaEvaluator(model, cfg, grid, pump)
        rects = evaluator.band(structure, _flush_floor(2 * f.size))
        if rects is None:
            jsa = build_jsa(model, cfg, structure, pump, grid, mask_invalid=True, out=f)
            purities[n] = jsa_purity(jsa, overwrite=True)
            masked[n] = jsa.masked_fraction
            continue
        _, masked_points = evaluator.amplitude(structure, out=f, rects=rects)
        blocks = [f[j0:j1, k0:k1].view(float) for j0, j1, k0, k1 in rects]
        _unit_norm(f, blocks)
        purities[n] = _gram_purity(_scaled_to_unit(f, blocks))
        masked[n] = masked_points / f.size
    return RangeSweepCurve(
        r_values=r_values,
        purities=purities,
        scheme=tag,
        masked_fractions=masked,
        delta_omega=delta_omega,
    )


@dataclass(frozen=True)
class PsoSettings:
    """Particle-swarm budget and stop target.

    `n_particles` must be at least 1 and `n_iterations` at least 0.  Each
    violation raises ValueError naming the field.
    """

    n_particles: int = 40
    n_iterations: int = 200
    target_purity: float | None = None

    def __post_init__(self):
        if not self.n_particles >= 1:
            raise ValueError(f"n_particles must be at least 1, got {self.n_particles!r}")
        if not self.n_iterations >= 0:
            raise ValueError(f"n_iterations must be at least 0, got {self.n_iterations!r}")


def _swarm_purities(evaluator: _JsaEvaluator, period_m: float, fractions: np.ndarray) -> np.ndarray:
    """Gram purity of each duty-cycle profile (rows of `fractions`) on the
    evaluator's grid, all profiles assembled in one batch."""
    stack = evaluator.duty_cycle_amplitudes(period_m, fractions)
    return np.array([jsa_purity(f, overwrite=True) for f in stack])


def pso_optimize_dc(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    pump: PumpSpec,
    settings: PsoSettings = PsoSettings(),
    seed: int = 0,
    initial_profile: np.ndarray | None = None,
) -> tuple[np.ndarray, DesignResult]:
    """Particle-swarm optimization of the per-period duty-cycle profile.

    The profile holds one duty cycle per period, floor(L / 2 l_c) of them.
    The swarm is initialized around the error-function profile (first
    particle exactly on it; `initial_profile` overrides it) and moves with
    reflecting bounds.  Particles are scored on the coarse R = 10 dw grid
    of step dw / `COARSE_STEP_DIVISOR` (100 x 100): one `_JsaEvaluator` is
    built on it, and the initial swarm and each iteration are scored as one
    batch (`_JsaEvaluator.duty_cycle_amplitudes`, then the Gram purity of
    each particle), within 1e-12 of `jsa_purity(build_jsa(...))` per
    particle.
    The best profile is re-scored on the standard grid, whose dw the result
    carries, and its `pump_bandwidth_nm` is `pump.bandwidth_nm`.  Fully
    deterministic for a fixed seed.
    """
    gp = phase_mismatch_and_lc(model, cfg)
    lc = gp.coherence_length_m
    n_periods = int(math.floor(cfg.length_m / (2.0 * lc) + 1e-12))

    if initial_profile is None:
        init = erf_duty_profile(cfg.length_m, lc, alpha=5.0)
    else:
        init = np.asarray(initial_profile, dtype=float)
        if init.size != n_periods:
            raise ValueError(f"initial profile must have floor(L / 2 l_c) = {n_periods} entries")
    lo, hi = _DUTY_MIN, _DUTY_MAX
    init = np.clip(init, lo, hi)

    dw = measure_delta_omega(
        model, cfg, dc_domains(cfg.length_m, lc, init), pump, gp.theta_deg
    )
    coarse_grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0,
                            step_divisor=COARSE_STEP_DIVISOR)

    evaluator = _JsaEvaluator(model, cfg, coarse_grid, pump)
    period = 2.0 * lc

    rng = np.random.default_rng(seed)
    spread = _PSO_INIT_SPREAD * rng.uniform(-1.0, 1.0, (settings.n_particles, n_periods))
    x = np.clip(init[None, :] + spread, lo, hi)
    x[0] = init
    v = np.zeros_like(x)
    best_x = x.copy()
    best_f = _swarm_purities(evaluator, period, x)
    g_idx = int(np.argmax(best_f))
    g_x = best_x[g_idx].copy()
    g_f = float(best_f[g_idx])

    exhausted = True
    for _ in range(settings.n_iterations):
        r1 = rng.uniform(size=x.shape)
        r2 = rng.uniform(size=x.shape)
        v = (
            _PSO_INERTIA * v
            + _PSO_COGNITIVE * r1 * (best_x - x)
            + _PSO_SOCIAL * r2 * (g_x[None, :] - x)
        )
        x = x + v
        # reflecting bounds
        over = x > hi
        under = x < lo
        x[over] = 2 * hi - x[over]
        x[under] = 2 * lo - x[under]
        v[over | under] *= -1.0
        x = np.clip(x, lo, hi)
        f = _swarm_purities(evaluator, period, x)
        improved = f > best_f
        best_x[improved] = x[improved]
        best_f[improved] = f[improved]
        if float(best_f.max()) > g_f:
            g_idx = int(np.argmax(best_f))
            g_x = best_x[g_idx].copy()
            g_f = float(best_f[g_idx])
        if settings.target_purity is not None and g_f >= settings.target_purity:
            exhausted = False
            break

    structure = dc_domains(cfg.length_m, lc, g_x)
    final = standard_jsa(model, cfg, structure, pump, gp.theta_deg)
    result = DesignResult(
        domains=structure,
        scheme="dc",
        config=cfg,
        alpha=None,
        beta=None,
        pump_bandwidth_nm=pump.bandwidth_nm,
        purity=jsa_purity(final, overwrite=True),
        theta_deg=gp.theta_deg,
        coherence_length_m=lc,
        delta_omega_rad_s=final.grid.delta_omega,
        below_threshold=exhausted and settings.target_purity is not None,
    )
    return g_x, result


def write_schmidt_csv(path: str | Path, spectrum: SchmidtSpectrum, header_lines: list[str] | None = None) -> None:
    lines = [f"# {h}" for h in (header_lines or [])]
    lines.append("j,c_j")
    for j, cj in enumerate(spectrum.coefficients, start=1):
        lines.append(f"{j},{cj:.12e}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_curve_csv(path: str | Path, curve: RangeSweepCurve, header_lines: list[str] | None = None) -> None:
    lines = [f"# {h}" for h in (header_lines or [])]
    lines.append(f"# delta_omega_rad_s: {curve.delta_omega!r}")
    lines.append("R_over_dw,purity,scheme,masked_fraction")
    for r, p, m in zip(curve.r_values, curve.purities, curve.masked_fractions):
        lines.append(f"{r:g},{p:.10f},{curve.scheme},{m:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
