"""Pump envelope, phase-matching functions, spectral grids and JSA assembly.

Grid rules: the spectral range R and resolution D are expressed in units of
the average signal/idler peak bandwidth dw (FWHM of the intensity cuts
through the JSA maximum).  The standard purity grid uses R = 10 dw with
D = dw/20 (200 x 200) when the GVM angle lies in [10, 80] degrees, and
D = dw/40 (400 x 400) otherwise, where one mode is much narrower than the
other.  N = R/D points are placed at cell centers so the cells tile exactly R.

Grid plan: both axes of a grid step by the same D, so omega_s[j] + omega_i[k]
takes only 2N - 1 values, one per j + k.  The pump wavenumber, the pump
envelope and the pump's transparency check are evaluated on those 2N - 1
sums, and dk[j, k] = k_p[j + k] - k_s[j] - k_i[k] is formed through a
sliding-window (Hankel) view: 3N - 1 Sellmeier evaluations instead of N^2 + 2N.
The phase mismatch is sign-normalized so the central mismatch is +pi/l_c
(the material value is negative for all KTP configurations handled here; the
sign flip conjugates the JSA and leaves every magnitude, purity and
efficiency unchanged).

The phase-matching function of a poling structure depends on the grid only
through dk, so `pmf_piecewise` sums the exact per-segment integral on a 1-D
lattice in dk and interpolates from it: nodes at the integer multiples of
(2 pi/L)/16, with the sum centred on the crystal (phase reference z = L/2) so
that it is band-limited to |z| <= L/2.  Each lattice cell is split into 8
sub-cells, and each point is evaluated from the degree-5 Chebyshev
interpolant, on its sub-cell, of the 12-node polynomial of degree 11 through
the nodes around its cell: a 6-term Horner pass (the interpolants leave about
7e-15 of the largest cell value).  One fixed (12 x 48) matrix fits the 48
sub-cell coefficients of a cell from its 12 node sums.  Because the nodes do
not depend on the points, each structure keeps its node sums and sub-cell
coefficients in a table that lives as long as the structure: one contiguous
span of aligned blocks, grown downward or upward as evaluations need, so the
builds of a bandwidth search and the points of a dw climb share it.  A block
is fitted once, when it enters the table; a call only indexes the table.
This holds to 1e-10 x max|Phi| against the per-segment sum on the standard
grids of all presets (at most 1.7e-13 measured).  Size rule: arrays with fewer
points than twice the lattice nodes they span, scalars among them, take the
exact sum at every point instead.

One `_JsaEvaluator` per (grid, pump) holds the grid plan, the sign
normalization and the envelope on the 2N - 1 pump sums, and assembles
envelope x PMF for the dw climb (chosen points), for `build_jsa` (the whole
grid) and for the duty-cycle swarm.  The swarm's profiles share one period
Lambda = 2 l_c, so per period only the split point moves: period m adds
(2 e^{i dk s_m} - e^{i dk a_m} - e^{i dk b_m}) / (i dk) at a lattice node,
and the node sums of a whole swarm come from one batch of exponentials and
one stacked matmul, with no per-structure table (nodes with |dk| Lambda < 1
take the per-segment sum instead); each profile then takes the same sub-cell
fit and the Horner pass over the grid's fixed sub-cells.

dw is measured without building the grid: an 8-neighbour hill climb from the
grid centre finds the |f|^2 peak, and only the row and the column through it
are evaluated.  A climb that reaches the grid edge falls back to a full
build, so that `PeakOnBoundary` keeps its meaning.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dispersion import C_LIGHT, DispersionModel, wavelength_um_from_omega
from .gvm import PhaseMatchConfig
from .poling import DomainArray, DutyCycleStructure

__all__ = [
    "PumpSpec",
    "SpectralGrid",
    "JointSpectrum",
    "PeakOnBoundary",
    "pump_envelope",
    "pmf_pp_analytic",
    "pmf_piecewise",
    "delta_k_grid",
    "make_grid",
    "estimate_bandwidths",
    "build_jsa",
    "measure_delta_omega",
    "standard_jsa",
    "write_jsa_csv",
    "write_jsa_binary",
    "read_jsa_binary",
]

# Intensity-FWHM convention: pump intensity ~ exp(-2 (dw/sigma_p)^2), so the
# angular-frequency FWHM is sigma_p * sqrt(2 ln 2).
_FWHM_FACTOR = math.sqrt(2.0 * math.log(2.0))


class PeakOnBoundary(RuntimeError):
    """The JSA maximum (or its half-max crossing) touches the grid edge."""


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump envelope: central frequency omega_p0 and width sigma_p
    of exp(-((w_s + w_i - w_p0)/sigma_p)^2), both in rad/s."""

    omega_p0: float
    sigma_p: float

    def __post_init__(self):
        if self.sigma_p <= 0 or self.omega_p0 <= 0:
            raise ValueError("pump frequency and bandwidth must be positive")

    @classmethod
    def from_bandwidth_nm(cls, lambda_p_um: float, bandwidth_nm: float) -> "PumpSpec":
        """Build from the pump intensity-FWHM bandwidth in nm."""
        lam = lambda_p_um * 1e-6
        omega_p0 = 2.0 * math.pi * C_LIGHT / lam
        dw_fwhm = 2.0 * math.pi * C_LIGHT / lam**2 * (bandwidth_nm * 1e-9)
        return cls(omega_p0=omega_p0, sigma_p=dw_fwhm / _FWHM_FACTOR)

    @property
    def bandwidth_nm(self) -> float:
        """Intensity-FWHM bandwidth in nm (inverse of `from_bandwidth_nm`)."""
        lam = 2.0 * math.pi * C_LIGHT / self.omega_p0
        return self.sigma_p * _FWHM_FACTOR * lam**2 / (2.0 * math.pi * C_LIGHT) * 1e9


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform signal/idler frequency grids centered on the nominal pair.

    Contract: `omega_s` and `omega_i` are nonempty 1-D arrays that both step
    by `step` (each point within 1e-6 step of omega[0] + n step), as
    `make_grid` builds them, so that omega_s[j] + omega_i[k] depends only on
    j + k.  `delta_k_grid` and `build_jsa` rely on it and raise ValueError
    for a grid that breaks it.
    """

    omega_s: np.ndarray
    omega_i: np.ndarray
    delta_omega: float
    r_mult: float
    step: float

    @property
    def n_signal(self) -> int:
        return int(self.omega_s.size)

    @property
    def n_idler(self) -> int:
        return int(self.omega_i.size)


@dataclass
class JointSpectrum:
    """Complex joint spectral amplitude f(omega_s, omega_i) on a grid.

    amplitude[j, k] corresponds to (omega_s[j], omega_i[k]).  When
    `normalized` is set the Frobenius norm is 1 (to 1e-12).  `masked_points`
    counts grid points zeroed because a wavelength left the transparency
    window (masking mode only).
    """

    grid: SpectralGrid
    amplitude: np.ndarray
    normalized: bool = True
    masked_points: int = 0

    @property
    def masked_fraction(self) -> float:
        return self.masked_points / self.amplitude.size


def pump_envelope(omega_s, omega_i, pump: PumpSpec):
    """Gaussian pump envelope; depends only on omega_s + omega_i."""
    x = (np.asarray(omega_s) + np.asarray(omega_i) - pump.omega_p0) / pump.sigma_p
    return np.exp(-np.square(x))


def _sinc(x):
    # sin(x)/x with sinc(0) = 1 (numpy's sinc is normalized to pi)
    return np.sinc(np.asarray(x) / np.pi)


def pmf_pp_analytic(delta_k, coherence_length_m: float, length_m: float):
    """First-order periodically-poled response
    (2/pi) sinc[(dk - pi/l_c) L/2] e^{i dk L/2}."""
    dk = np.asarray(delta_k, dtype=float)
    x = (dk - math.pi / coherence_length_m) * (length_m / 2.0)
    return (2.0 / math.pi) * _sinc(x) * np.exp(1j * dk * (length_m / 2.0))


# The dk lattice of `pmf_piecewise`: nodes m (2 pi/L) / LATTICE_NODES_PER_PERIOD
# for integer m, and an even number LATTICE_STENCIL of nodes around each
# lattice cell.  Each cell is split into SUBCELLS equal sub-cells, each with
# its own polynomial of degree SUBCELL_DEGREE.  A structure's table holds
# node sums and sub-cell coefficients in aligned blocks of _TABLE_BLOCK nodes
# or cells.
LATTICE_NODES_PER_PERIOD = 16
LATTICE_STENCIL = 12
SUBCELLS = 8
SUBCELL_DEGREE = 5
_TABLE_BLOCK = 64
_POINT_BLOCK = 8192  # points per interpolation block
_SUM_BLOCK = 1 << 16  # point x segment terms per block of the exact sum


def _lagrange_basis(nodes: np.ndarray) -> np.ndarray:
    """L[k, m]: coefficient of x^m in the Lagrange polynomial of node k,
    expanded from its roots (inverting the Vandermonde matrix instead loses
    digits at 12 nodes, and would need LAPACK)."""
    return np.array([
        np.poly(np.delete(nodes, k))[::-1] / np.prod(nodes[k] - np.delete(nodes, k))
        for k in range(nodes.size)
    ])


def _interval_polynomials() -> np.ndarray:
    """K[k, m]: coefficient of s^m, for s in [-1/2, 1/2] across one lattice
    cell, that node k of its stencil contributes to the cell's polynomial
    for G(dk) e^{i (dk - dk_mid) L/2}.

    The Lagrange basis of the stencil nodes s_k = k - (n - 1)/2 is
    multiplied by the Taylor series of e^{i theta s}, theta =
    pi / LATTICE_NODES_PER_PERIOD, truncated at the same degree.
    """
    n = LATTICE_STENCIL
    lagrange = _lagrange_basis(np.arange(n) - (n - 1) / 2.0)
    theta = math.pi / LATTICE_NODES_PER_PERIOD
    series = [(1j * theta) ** q / math.factorial(q) for q in range(n)]
    shift = np.array([[series[m - k] if m >= k else 0.0 for m in range(n)] for k in range(n)])
    return lagrange @ shift


def _subcell_polynomials() -> np.ndarray:
    """Q[j SUBCELLS + q, m]: coefficient of u^j, for u in [-1/2, 1/2]
    across sub-cell q of a lattice cell (s = (q + 1/2 + u) / SUBCELLS -
    1/2), that the s^m term of the cell polynomial contributes to the
    sub-cell's polynomial of degree SUBCELL_DEGREE.

    Each sub-cell polynomial interpolates the cell polynomial at the
    Chebyshev nodes of the sub-cell.  The cell polynomials of a band-limited
    G turn by at most pi/8 in phase per cell, so the dropped terms leave
    about 7e-15 of the largest cell value (measured on the presets' tables).
    Built in plain Python from the Lagrange basis of the nodes, without
    BLAS or LAPACK.
    """
    n = SUBCELL_DEGREE + 1
    u = [0.5 * math.cos((2 * k + 1) * math.pi / (2 * n)) for k in range(n)]
    lagrange = _lagrange_basis(np.array(u)).tolist()
    coef = [[0.0] * LATTICE_STENCIL for _ in range(n * SUBCELLS)]
    for q in range(SUBCELLS):
        for k in range(n):
            s = (q + 0.5 + u[k]) / SUBCELLS - 0.5
            for m in range(LATTICE_STENCIL):
                for j in range(n):
                    coef[j * SUBCELLS + q][m] += s**m * lagrange[k][j]
    return np.array(coef)


# _SUBCELL_FIT[j, k, q]: the u^j coefficient of sub-cell q's polynomial that
# node k of the cell's stencil contributes, the product of the two stages
# above (cell polynomial, then its sub-cell interpolants) as one
# (LATTICE_STENCIL x SUBCELLS) matrix per degree j.
_SUBCELL_FIT = (_interval_polynomials() @ _subcell_polynomials().T).reshape(
    LATTICE_STENCIL, SUBCELL_DEGREE + 1, SUBCELLS).transpose(1, 0, 2).copy()


def _segment_sum(dk: np.ndarray, centers: np.ndarray, widths: np.ndarray, weights: np.ndarray):
    """Exact sum_j weights_j sinc(widths_j dk/2) e^{i dk centers_j} over a
    1-D dk, in blocks of points; sinc is evaluated once per distinct width."""
    distinct, which = np.unique(widths, return_inverse=True)
    out = np.empty(dk.size, dtype=complex)
    rows = max(1, _SUM_BLOCK // widths.size)
    for start in range(0, dk.size, rows):
        x = dk[start : start + rows, None]
        envelope = _sinc(0.5 * x * distinct)[:, which]
        phase = x * centers
        out.real[start : start + rows] = (np.cos(phase) * envelope) @ weights
        out.imag[start : start + rows] = (np.sin(phase) * envelope) @ weights
    return out


def _segments(structure: DomainArray | DutyCycleStructure):
    """(centres relative to L/2, widths, signed widths) of the segments."""
    z_start, z_end, sign = structure.segments()
    widths = z_end - z_start
    return 0.5 * (z_start + z_end) - 0.5 * structure.length_m, widths, sign * widths


def _lattice_step(length_m: float) -> float:
    return 2.0 * math.pi / (length_m * LATTICE_NODES_PER_PERIOD)


def _lattice(dk: np.ndarray, length_m: float) -> tuple[int, int] | None:
    """(first, last) lattice cell of a 1-D dk, or None when the points are
    fewer than twice the nodes those cells need (or not all finite).  Cell c
    spans [c step, (c + 1) step]; its stencil is the nodes c - 5 .. c + 6."""
    if dk.size < 2 * LATTICE_STENCIL:
        return None
    scale = 1.0 / _lattice_step(length_m)
    lo, hi = float(dk.min()) * scale, float(dk.max()) * scale
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    first, last = math.floor(lo), math.floor(hi)
    if dk.size < 2 * (last - first + LATTICE_STENCIL):
        return None
    return first, last


def _subcell_fit(nodes: np.ndarray, first_cell: int, length_m: float) -> np.ndarray:
    """Sub-cell coefficients, shape (SUBCELL_DEGREE + 1, SUBCELLS x count),
    of the count = nodes.size - LATTICE_STENCIL + 1 cells from first_cell on,
    from their node sums (starting at the first cell's first stencil node):
    row j holds the u^j coefficient of sub-cell SUBCELLS c + q, with each
    cell's e^{i dk_mid L/2} folded in.  One product of a size fixed by count,
    so a coefficient depends only on count and its own cell's nodes."""
    windows = np.lib.stride_tricks.sliding_window_view(nodes, LATTICE_STENCIL)
    mids = _lattice_step(length_m) * (np.arange(first_cell, first_cell + len(windows)) + 0.5)
    fit = np.matmul(windows * np.exp(0.5j * length_m * mids)[:, None], _SUBCELL_FIT)
    return fit.reshape(SUBCELL_DEGREE + 1, -1)


def _cell_table(structure: DomainArray | DutyCycleStructure, first: int, last: int):
    """(first block, coefficients) of the structure's table, grown to cover
    the cell blocks first .. last: `coefficients` holds the rows of
    `_subcell_fit` over one contiguous span of aligned blocks of _TABLE_BLOCK
    cells, so sub-cell q of cell c is column SUBCELLS c + q, counted from the
    span's first cell.

    The node sums (one span of blocks, from one block before the cells to
    one after) grow with it.  A block is always summed by one call on the
    same nodes and fitted by one `_subcell_fit` of _TABLE_BLOCK cells when it
    enters the table, so no value depends on which evaluation needed the
    block first (the exact sum can differ in the last bit with the batch, a
    matmul with the number of rows).
    """
    table = structure.pmf_table
    if "subcells" not in table:
        table["subcells"] = (first, np.empty((SUBCELL_DEGREE + 1, 0), dtype=complex))
        table["nodes"] = np.empty((0, _TABLE_BLOCK), dtype=complex)
    have, coef = table["subcells"]
    blocks = coef.shape[1] // (SUBCELLS * _TABLE_BLOCK)
    if have <= first and last < have + blocks:
        return have, coef
    first, last = min(first, have), max(last, have + blocks - 1)
    nodes = table["nodes"]  # blocks have - 1 .. have + blocks
    step = _lattice_step(structure.length_m)
    segments = _segments(structure)

    def summed(blocks: range) -> np.ndarray:
        out = np.empty((len(blocks), _TABLE_BLOCK), dtype=complex)
        for row, b in zip(out, blocks):
            row[:] = _segment_sum(step * np.arange(b * _TABLE_BLOCK, (b + 1) * _TABLE_BLOCK), *segments)
        return out

    nodes = np.concatenate([summed(range(first - 1, have - 1)), nodes,
                            summed(range(have - 1 + len(nodes), last + 2))])
    flat = nodes.reshape(-1)
    lead = _TABLE_BLOCK - (LATTICE_STENCIL // 2 - 1)  # first stencil node of a block

    def fitted(b: int) -> np.ndarray:
        start = (b - first) * _TABLE_BLOCK + lead
        window = flat[start : start + _TABLE_BLOCK + LATTICE_STENCIL - 1]
        return _subcell_fit(window, b * _TABLE_BLOCK, structure.length_m)

    coef = np.concatenate([*map(fitted, range(first, have)), coef,
                           *map(fitted, range(have + blocks, last + 1))], axis=1)
    table["nodes"] = nodes
    table["subcells"] = (first, coef)
    return first, coef


def _subcells(dk: np.ndarray, length_m: float, first_cell: int) -> tuple[np.ndarray, np.ndarray]:
    """(sub-cell index counted from first_cell's first sub-cell, Horner
    offset u in [-1/2, 1/2) within the sub-cell) of each point of a 1-D dk."""
    u = dk * (SUBCELLS / _lattice_step(length_m))
    sub = np.floor(u)
    u -= sub
    u -= 0.5
    index = sub.astype(np.intp)
    index -= SUBCELLS * first_cell
    return index, u


def _horner(coef: np.ndarray, index: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j coef[j, index] u^j at each point, by Horner over the rows of
    `coef` (one per degree, lowest first)."""
    acc = coef[-1].take(index)
    for row in coef[-2::-1]:
        acc *= u
        acc += row.take(index)
    return acc


def _interpolate(dk: np.ndarray, structure: DomainArray | DutyCycleStructure) -> np.ndarray:
    """e^{i dk L/2} G(dk) at a nonempty, finite 1-D dk, from the structure's table.

    The table is looked up once, and grown to the cell blocks that the points
    span if it does not cover them; each point takes the coefficients of its
    sub-cell from the table's rows, evaluated by Horner in blocks of points.
    A point's value depends only on its dk.
    """
    # the blocks of the extreme points' sub-cells, scaled as `_subcells` does
    scale, width = SUBCELLS / _lattice_step(structure.length_m), SUBCELLS * _TABLE_BLOCK
    first, coef = _cell_table(structure, math.floor(float(dk.min()) * scale) // width,
                              math.floor(float(dk.max()) * scale) // width)
    out = np.empty(dk.size, dtype=complex)
    for start in range(0, dk.size, _POINT_BLOCK):
        part = slice(start, start + _POINT_BLOCK)
        out[part] = _horner(coef, *_subcells(dk[part], structure.length_m, first * _TABLE_BLOCK))
    return out


# A duty-cycle lattice node takes the closed form of `_duty_cycle_node_sums`
# where |dk| period is at least this, and the per-segment sum, which does not
# cancel, below it.
_CLOSED_FORM_MIN = 1.0


def _lattice_phase_sums(first: int, count: int, step: float, x: np.ndarray) -> np.ndarray:
    """S[..., n] = sum_m e^{i (first + n) step x[..., m]} for n < count.

    With n = b K + k, K about sqrt(count), the phase factors into
    e^{i (first + b K) step x} e^{i k step x}: about 2 sqrt(count)
    exponentials per position and one stacked matmul instead of `count`
    exponentials per position.  Each leading index is summed on its own.
    """
    inner_n = max(1, math.isqrt(count))
    outer_n = -(-count // inner_n)
    outer = np.exp(1j * (step * (first + inner_n * np.arange(outer_n)))[:, None] * x[..., None, :])
    inner = np.exp(1j * x[..., :, None] * (step * np.arange(inner_n)))
    sums = outer @ inner
    return sums.reshape(*x.shape[:-1], outer_n * inner_n)[..., :count]


def _duty_cycle_node_sums(
    first: int, count: int, period_m: float, fractions: np.ndarray, edge_sums: np.ndarray
) -> np.ndarray:
    """G at the lattice nodes first .. first + count - 1 of each row of duty
    fractions (shape (P, M), all of one period), shape (P, count).

    Period m is UP on [a_m, s_m] and DOWN on [s_m, b_m] (positions from the
    crystal centre), which adds (2 e^{i dk s_m} - e^{i dk a_m} - e^{i dk b_m})
    / (i dk) to G.  Only the split s_m depends on the row: `edge_sums` holds
    sum_m e^{i dk a_m} + e^{i dk b_m} at the same nodes
    (`_lattice_phase_sums` of the 2M edges), computed once per period.  Nodes
    with |dk| period < _CLOSED_FORM_MIN, where the closed form cancels, take
    the per-segment sum, which gives the limit sum(w_up - w_down) at dk = 0.
    """
    n_periods = fractions.shape[1]
    length = n_periods * period_m
    step = _lattice_step(length)
    starts = period_m * np.arange(n_periods)
    splits = starts + period_m * fractions - 0.5 * length
    dk = step * np.arange(first, first + count)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (2.0 * _lattice_phase_sums(first, count, step, splits) - edge_sums) / (1j * dk)
    small = np.abs(dk) * period_m < _CLOSED_FORM_MIN
    if small.any():
        for row, f in zip(out, fractions):
            row[small] = _segment_sum(dk[small], *_segments(DutyCycleStructure(period_m, f)))
    return out


def _duty_cycle_edge_sums(first: int, count: int, period_m: float, n_periods: int) -> np.ndarray:
    """sum_m e^{i dk a_m} + e^{i dk b_m} over the period edges a_m = m period
    - L/2, b_m = a_m + period, at the lattice nodes first .. first + count - 1."""
    length = n_periods * period_m
    starts = period_m * np.arange(n_periods)
    edges = np.concatenate([starts, starts + period_m]) - 0.5 * length
    return _lattice_phase_sums(first, count, _lattice_step(length), edges)


def pmf_piecewise(delta_k, structure: DomainArray | DutyCycleStructure):
    """Exact piecewise-constant PMF integral of a poling structure.

    Phi(dk) = e^{i dk L/2} G(dk), G(dk) = sum_j a_j w_j sinc(w_j dk/2)
    e^{i dk (m_j - L/2)} over the constant-sign segments (sign a_j, width
    w_j, midpoint m_j) of a crystal of length L.  The per-segment sinc form
    has no 0/0 at dk -> 0, so the limit sum(a_j w_j) is reproduced exactly at
    dk = 0.  Centring the sum on the crystal makes G band-limited to
    |z| <= L/2, half the bandwidth of Phi itself.

    Size rule: an array with at least twice as many points as the lattice
    nodes it needs is interpolated on the lattice of nodes m (2 pi/L) /
    LATTICE_NODES_PER_PERIOD, m integer: each of a lattice cell's SUBCELLS
    sub-cells has the Chebyshev interpolant of degree SUBCELL_DEGREE of the
    degree LATTICE_STENCIL - 1 polynomial through the LATTICE_STENCIL nodes
    around the cell, with e^{i dk L/2} folded in, fitted from the node sums
    by one fixed matrix, and each point takes the polynomial of its
    sub-cell.  The lattice spans the points' dk range plus LATTICE_STENCIL -
    1 end nodes.  Node sums and sub-cell coefficients are kept in the
    structure's table (`pmf_table`) and reused by later calls; a value does
    not depend on what the table held before.  Against the exact sum the
    error stays within 1e-10 x max|Phi| on the standard grids of all presets
    (at most 1.7e-13 measured, the rounding floor of the sum itself).  Smaller
    arrays, scalars and arrays with non-finite values take the exact sum at
    every point.
    """
    dk = np.asarray(delta_k, dtype=float)
    flat = dk.ravel()
    if _lattice(flat, structure.length_m) is None:
        out = _segment_sum(flat, *_segments(structure)) * np.exp(0.5j * structure.length_m * flat)
    else:
        out = _interpolate(flat, structure)
    return complex(out[0]) if dk.ndim == 0 else out.reshape(dk.shape)


# Points of a grid axis may sit this far, in units of the step, from the
# uniform lattice the grid plan assumes.
_GRID_TOLERANCE = 1e-6


def _pump_sums(grid: SpectralGrid) -> np.ndarray:
    """The 2N - 1 distinct omega_s[j] + omega_i[k], indexed by j + k, after
    checking the `SpectralGrid` contract."""
    for name in ("omega_s", "omega_i"):
        axis = np.asarray(getattr(grid, name), dtype=float)
        if axis.ndim != 1 or axis.size == 0:
            raise ValueError(f"SpectralGrid.{name} must be a nonempty 1-D array")
        drift = np.max(np.abs(axis - (axis[0] + grid.step * np.arange(axis.size))))
        if not (grid.step > 0 and drift <= _GRID_TOLERANCE * grid.step):
            raise ValueError(f"SpectralGrid.{name} does not step uniformly by step = {grid.step!r}")
    ws, wi = grid.omega_s, grid.omega_i
    return np.concatenate([ws + wi[0], ws[-1] + wi[1:]])


def _hankel(values: np.ndarray, columns: int) -> np.ndarray:
    """Read-only view H[j, k] = values[j + k]."""
    return np.lib.stride_tricks.sliding_window_view(values, columns)


@dataclass(frozen=True)
class _GridPlan:
    """The phase mismatch of a grid in 1-D pieces: dk[j, k] = k_pump[j + k]
    - k_signal[j] - k_idler[k], and a point is valid when its pump, signal
    and idler wavelengths all lie in the transparency window."""

    pump_sums: np.ndarray
    k_pump: np.ndarray
    k_signal: np.ndarray
    k_idler: np.ndarray
    valid_pump: np.ndarray
    valid_signal: np.ndarray
    valid_idler: np.ndarray

    def delta_k(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        return self.k_pump[j + k] - self.k_signal[j] - self.k_idler[k]

    def valid(self, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        return self.valid_pump[j + k] & self.valid_signal[j] & self.valid_idler[k]

    def full(self) -> tuple[np.ndarray, np.ndarray]:
        """(dk, valid) at every grid point, dk a new writable array."""
        n = self.k_idler.size
        dk = _hankel(self.k_pump, n) - self.k_signal[:, None]
        dk -= self.k_idler[None, :]
        valid = _hankel(self.valid_pump, n) & self.valid_signal[:, None] & self.valid_idler[None, :]
        return dk, valid


def _grid_plan(
    model: DispersionModel, cfg: PhaseMatchConfig, grid: SpectralGrid, mask_invalid: bool
) -> _GridPlan:
    """Wavenumbers and window flags of the signal, idler and pump sums of a
    grid: 3N - 1 Sellmeier evaluations.  See `delta_k_grid` for the modes."""
    wp = _pump_sums(grid)
    axes = ((wp, cfg.pump_axis), (grid.omega_s, cfg.signal_axis), (grid.omega_i, cfg.idler_axis))
    lams = [wavelength_um_from_omega(w) for w, _ in axes]
    valid = [model.in_window(lam) for lam in lams]
    if not mask_invalid:
        # strict mode: any out-of-window point is an error
        for lam in lams:
            model._check_window(lam)
        k = [model.wavenumber(w, axis) for w, axis in axes]
    else:
        # out-of-window points get a placeholder frequency well inside the
        # window; their delta_k is meaningless and flagged invalid
        omega_mid = 2.0 * math.pi * C_LIGHT / (0.5 * sum(model.window_um) * 1e-6)
        k = [model.wavenumber(np.where(ok, w, omega_mid), axis)
             for (w, axis), ok in zip(axes, valid)]
    return _GridPlan(wp, *k, *valid)


def delta_k_grid(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    grid: SpectralGrid,
    mask_invalid: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase mismatch k_p - k_s - k_i on the grid (raw material sign).

    Returns (delta_k, valid): with `mask_invalid`, points whose pump, signal
    or idler wavelength leaves the transparency window are flagged invalid
    (delta_k there is a placeholder); otherwise such points raise.  The pump
    terms come from the 2N - 1 pump sums of the grid plan.
    """
    return _grid_plan(model, cfg, grid, mask_invalid).full()


def make_grid(
    theta_deg: float,
    delta_omega: float,
    omega_s0: float,
    omega_i0: float,
    r_mult: float = 10.0,
    step_divisor: int | None = None,
) -> SpectralGrid:
    """Standard purity grid: D = dw/20 for 10 <= theta <= 80 deg, dw/40
    otherwise; N = R/D cell-centered points per axis, R = r_mult * dw.
    Both axes share the offsets, so they step by the same D.  Raises
    ValueError for step_divisor < 1 and for fewer than 2 points per axis."""
    if delta_omega <= 0:
        raise ValueError("delta_omega must be positive")
    if step_divisor is None:
        step_divisor = 20 if 10.0 <= theta_deg <= 80.0 else 40
    if not step_divisor >= 1:
        raise ValueError(f"step_divisor must be at least 1, got {step_divisor!r}")
    step = delta_omega / step_divisor
    n = int(round(r_mult * step_divisor))
    if n < 2:
        raise ValueError(
            f"r_mult = {r_mult!r} with step_divisor = {step_divisor!r} gives {n} points "
            "per axis; a grid needs at least 2")
    offsets = (np.arange(n) - (n - 1) / 2.0) * step
    return SpectralGrid(
        omega_s=omega_s0 + offsets,
        omega_i=omega_i0 + offsets,
        delta_omega=delta_omega,
        r_mult=float(r_mult),
        step=step,
    )


def _fwhm_linear(x: np.ndarray, y: np.ndarray) -> float:
    """FWHM of a peaked curve via linear interpolation of the half crossings
    nearest the maximum.  Raises PeakOnBoundary if a crossing is not bracketed."""
    j = int(np.argmax(y))
    if j == 0 or j == y.size - 1:
        raise PeakOnBoundary("cut maximum lies on the grid edge")
    half = y[j] / 2.0
    jl = j
    while jl > 0 and y[jl] > half:
        jl -= 1
    if y[jl] > half:
        raise PeakOnBoundary("left half-maximum crossing outside the grid")
    xl = x[jl] + (x[jl + 1] - x[jl]) * (half - y[jl]) / (y[jl + 1] - y[jl])
    jr = j
    while jr < y.size - 1 and y[jr] > half:
        jr += 1
    if y[jr] > half:
        raise PeakOnBoundary("right half-maximum crossing outside the grid")
    xr = x[jr] + (x[jr - 1] - x[jr]) * (half - y[jr]) / (y[jr - 1] - y[jr])
    return xr - xl


def estimate_bandwidths(jsa: JointSpectrum) -> tuple[float, float, float]:
    """(dw_s, dw_i, dw) intensity FWHMs of the signal/idler cuts through the
    JSA maximum; dw is their average."""
    power = np.abs(jsa.amplitude) ** 2
    j0, k0 = np.unravel_index(int(np.argmax(power)), power.shape)
    if j0 in (0, power.shape[0] - 1) or k0 in (0, power.shape[1] - 1):
        raise PeakOnBoundary("JSA maximum lies on the grid edge")
    dws = float(_fwhm_linear(jsa.grid.omega_s, power[:, k0]))
    dwi = float(_fwhm_linear(jsa.grid.omega_i, power[j0, :]))
    return dws, dwi, 0.5 * (dws + dwi)


def _central_mismatch(model: DispersionModel, cfg: PhaseMatchConfig) -> float:
    """dk0 = k_p0 - k_s0 - k_i0 at the nominal frequencies (raw material sign)."""
    kp0 = model.wavenumber(cfg.omega_p0, cfg.pump_axis)
    ks0 = model.wavenumber(cfg.omega_s0, cfg.signal_axis)
    ki0 = model.wavenumber(cfg.omega_i0, cfg.idler_axis)
    return kp0 - ks0 - ki0


class _JsaEvaluator:
    """Pump envelope x PMF on one grid for one (model, cfg, pump), shared by
    every structure evaluated there.

    It holds the grid plan, the sign that normalizes the central mismatch to
    +pi/l_c and the pump envelope on the 2N - 1 pump sums, and evaluates the
    unnormalized JSA three ways: `power` at chosen points (the dw climb),
    `amplitude` on the whole grid for one structure (`build_jsa`), and
    `duty_cycle_amplitudes` on the whole grid for many duty-cycle profiles of
    one period at once (the duty-cycle swarm).
    """

    def __init__(
        self,
        model: DispersionModel,
        cfg: PhaseMatchConfig,
        grid: SpectralGrid,
        pump: PumpSpec,
        mask_invalid: bool = True,
    ):
        self.grid = grid
        self.mask_invalid = mask_invalid
        self.plan = _grid_plan(model, cfg, grid, mask_invalid)
        self.sign = 1.0 if _central_mismatch(model, cfg) >= 0 else -1.0
        self.envelope = pump_envelope(self.plan.pump_sums, 0.0, pump)
        self._duty_cells: dict[tuple[float, int], tuple | None] = {}

    def power(self, structure: DomainArray | DutyCycleStructure, j: np.ndarray, k: np.ndarray):
        """|f|^2 at the grid points (j, k), zero at masked points; each point
        takes the lattice interpolation of `structure`'s table."""
        out = np.zeros(j.size)
        ok = self.plan.valid(j, k)
        if ok.any():
            j, k = j[ok], k[ok]
            f = self.envelope[j + k] * _interpolate(self.sign * self.plan.delta_k(j, k), structure)
            out[ok] = np.abs(f) ** 2
        return out

    def amplitude(self, structure: DomainArray | DutyCycleStructure) -> tuple[np.ndarray, int]:
        """(f, masked points) on the whole grid; see `build_jsa`.

        Its N^2 arrays are dk (sign-normalized in place), the valid mask,
        the PMF and f; the PMF kernel forms its per-point temporaries in
        blocks of points.  Four range sweeps (PP and CL at R = 10 and 50,
        up to 1000^2) in one process peaked at 85.8 MB RSS with a
        sign-normalized copy of dk, the kernel's N^2 cell and offset arrays
        and the purity flush's N^2 temporaries, and at 80.7 MB without them.
        Applying the envelope in place as well gave 81.4 MB, since glibc
        then serves the next large arrays from its heap.
        """
        dk, valid = self.plan.full()
        dk *= self.sign
        masked = int(valid.size - np.count_nonzero(valid)) if self.mask_invalid else 0
        if masked:
            # zeroed below anyway; the first valid point's dk keeps the
            # placeholder mismatch out of the structure's lattice table
            dk[~valid] = dk.flat[int(np.argmax(valid))]
        phi = pmf_piecewise(dk.ravel(), structure).reshape(dk.shape)
        f = _hankel(self.envelope, self.grid.n_idler) * phi
        if masked:
            f[~valid] = 0.0
        return f, masked

    @cached_property
    def _valid_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(flat indices, sign-normalized dk, envelope) of the valid points."""
        dk, valid = self.plan.full()
        index = np.flatnonzero(valid)
        envelope = _hankel(self.envelope, self.grid.n_idler).ravel()
        return index, self.sign * dk.ravel()[index], envelope[index]

    def _duty_cycle_cells(self, period_m: float, n_periods: int) -> tuple | None:
        """What the duty-cycle batch of one period keeps for the grid: None
        when the valid points are too few for the lattice (`_lattice`), else
        (first cell, first stencil node, node count, each point's sub-cell
        from the first cell's first, its Horner offset in the sub-cell, and
        the period edges' node sums)."""
        key = (period_m, n_periods)
        if key not in self._duty_cells:
            length = n_periods * period_m
            dk = self._valid_points[1]
            lattice = _lattice(dk, length)
            if lattice is None:
                self._duty_cells[key] = None
            else:
                first, last = lattice
                lo, count = first - (LATTICE_STENCIL // 2 - 1), last - first + LATTICE_STENCIL
                self._duty_cells[key] = (
                    first, lo, count, *_subcells(dk, length, first),
                    _duty_cycle_edge_sums(lo, count, period_m, n_periods))
        return self._duty_cells[key]

    def duty_cycle_amplitudes(self, period_m: float, fractions: np.ndarray) -> np.ndarray:
        """f, shape (P, N_s, N_i), of each row of duty fractions (shape
        (P, M), all of one period), with masked points zero.

        The lattice of `pmf_piecewise`, with the node sums of all rows from
        `_duty_cycle_node_sums`, then per row the sub-cell fit and the Horner
        pass over the grid's fixed sub-cells; a grid with too few points for the
        lattice takes the exact sum at each point, as `pmf_piecewise` does.
        """
        fractions = np.asarray(fractions, dtype=float)
        rows, n_periods = fractions.shape
        index, dk, envelope = self._valid_points
        out = np.zeros((rows, self.grid.n_signal * self.grid.n_idler), dtype=complex)
        cells = self._duty_cycle_cells(period_m, n_periods)
        if cells is None:
            phase = np.exp(0.5j * (n_periods * period_m) * dk)
            for row, f in zip(out, fractions):
                segments = _segments(DutyCycleStructure(period_m, f))
                row[index] = envelope * (_segment_sum(dk, *segments) * phase)
            return out.reshape(rows, self.grid.n_signal, self.grid.n_idler)

        first, lo, count, sub, offset, edge_sums = cells
        nodes = _duty_cycle_node_sums(lo, count, period_m, fractions, edge_sums)
        for row, row_nodes in zip(out, nodes):
            coef = _subcell_fit(row_nodes, first, n_periods * period_m)
            for start in range(0, sub.size, _POINT_BLOCK):
                part = slice(start, start + _POINT_BLOCK)
                value = _horner(coef, sub[part], offset[part])
                value *= envelope[part]
                row[index[part]] = value
        return out.reshape(rows, self.grid.n_signal, self.grid.n_idler)


def build_jsa(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    grid: SpectralGrid,
    mask_invalid: bool = False,
) -> JointSpectrum:
    """Assemble the normalized JSA f = pump envelope x PMF on the grid, with
    the PMF of the poling structure from `pmf_piecewise`.  The phase
    mismatch is sign-normalized so the central value is +pi/l_c.  The grid
    must keep the `SpectralGrid` contract.
    """
    f, masked = _JsaEvaluator(model, cfg, grid, pump, mask_invalid).amplitude(structure)
    parts = f.reshape(-1).view(float)
    norm = math.sqrt(float(np.dot(parts, parts)))
    if norm == 0.0:
        raise ValueError("JSA vanished on the grid (all points masked?)")
    f /= norm
    return JointSpectrum(grid=grid, amplitude=f, normalized=True, masked_points=masked)


def _ridge_slopes(model: DispersionModel, cfg: PhaseMatchConfig) -> tuple[float, float]:
    """(k'_p - k'_s, k'_p - k'_i) at the central frequencies: the slopes of
    dk along the signal and idler axes, in s/m."""
    kp_p = model.inverse_group_velocity(cfg.omega_p0, cfg.pump_axis)
    kp_s = model.inverse_group_velocity(cfg.omega_s0, cfg.signal_axis)
    kp_i = model.inverse_group_velocity(cfg.omega_i0, cfg.idler_axis)
    return kp_p - kp_s, kp_p - kp_i


def _initial_bandwidth_guess(
    model: DispersionModel, cfg: PhaseMatchConfig, pump: PumpSpec
) -> float:
    """Rough dw seed from the sinc phase-matching width and pump bandwidth."""
    dk_width = 5.566 / cfg.length_m  # FWHM of sinc^2 in dk
    pump_w = pump.sigma_p * _FWHM_FACTOR
    cuts = []
    for slope in _ridge_slopes(model, cfg):
        pmf_w = dk_width / abs(slope) if slope != 0.0 else np.inf
        cuts.append(1.0 / math.sqrt(1.0 / pmf_w**2 + 1.0 / pump_w**2))
    return 0.5 * (cuts[0] + cuts[1])


# The 8 neighbours of a grid cell, in the order the climb prefers them on a tie.
_NEIGHBOURS_J = np.array([-1, -1, -1, 0, 0, 1, 1, 1])
_NEIGHBOURS_K = np.array([-1, 0, 1, -1, 1, -1, 0, 1])


def _climbed_cuts(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    grid: SpectralGrid,
) -> tuple[tuple[int, int], np.ndarray, np.ndarray] | None:
    """((j0, k0), |f[:, k0]|^2, |f[j0, :]|^2) of the masked, unnormalized
    JSA on the grid, without building it; None when the climb reaches an
    edge row or column, or the peak has no weight.

    An 8-neighbour hill climb from the grid centre moves to the largest
    neighbour while it is strictly larger, then the two cuts through the
    peak are evaluated.  Each value equals that of `build_jsa` before its
    normalization: the points come from `_JsaEvaluator.power` on the same
    grid plan, envelope and lattice interpolation as the build.
    """
    evaluator = _JsaEvaluator(model, cfg, grid, pump)
    n_s, n_i = grid.n_signal, grid.n_idler
    j, k = n_s // 2, n_i // 2
    here = evaluator.power(structure, np.array([j]), np.array([k]))[0]
    while 0 < j < n_s - 1 and 0 < k < n_i - 1:
        around = evaluator.power(structure, j + _NEIGHBOURS_J, k + _NEIGHBOURS_K)
        best = int(np.argmax(around))
        if not around[best] > here:
            break
        j, k, here = j + _NEIGHBOURS_J[best], k + _NEIGHBOURS_K[best], around[best]
    else:
        return None
    if here == 0.0:
        return None
    rows, cols = np.arange(n_s), np.arange(n_i)
    cuts = evaluator.power(
        structure, np.concatenate([rows, np.full(n_i, j)]), np.concatenate([np.full(n_s, k), cols]))
    return (int(j), int(k)), cuts[:n_s], cuts[n_s:]


def measure_delta_omega(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    theta_deg: float,
    max_iter: int = 12,
) -> float:
    """Self-consistent average peak bandwidth dw on the standard R = 10 grid.

    Builds a probe grid from a physics-based seed, measures the FWHMs, and
    re-measures until dw changes by less than 2 %; the window is doubled
    whenever the peak or a half crossing leaves the grid.  Each measurement
    climbs to the peak and evaluates only the two cuts through it
    (`_climbed_cuts`); when the climb reaches the grid edge it builds the
    full JSA and reads the cuts from that instead.
    """
    dw = _initial_bandwidth_guess(model, cfg, pump)
    for _ in range(max_iter):
        grid = make_grid(theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
        try:
            climbed = _climbed_cuts(model, cfg, structure, pump, grid)
            if climbed is None:
                _, _, new = estimate_bandwidths(
                    build_jsa(model, cfg, structure, pump, grid, mask_invalid=True))
            else:
                _, column, row = climbed
                new = 0.5 * (float(_fwhm_linear(grid.omega_s, column))
                             + float(_fwhm_linear(grid.omega_i, row)))
        except PeakOnBoundary:
            dw *= 2.0
            continue
        if abs(new - dw) <= 0.02 * dw:
            return new
        dw = new
    return dw


def standard_jsa(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    theta_deg: float,
    delta_omega: float | None = None,
    r_mult: float = 10.0,
) -> JointSpectrum:
    """Masked JSA on the standard grid of range R = r_mult * dw.

    dw is measured with `measure_delta_omega` unless `delta_omega` is given;
    grid points outside the transparency window are zeroed.
    """
    if delta_omega is None:
        delta_omega = measure_delta_omega(model, cfg, structure, pump, theta_deg)
    grid = make_grid(theta_deg, delta_omega, cfg.omega_s0, cfg.omega_i0, r_mult=r_mult)
    return build_jsa(model, cfg, structure, pump, grid, mask_invalid=True)


# -- export ------------------------------------------------------------------

_JSA_MAGIC = b"PPJSA\x00\x01"


def write_jsa_csv(path: str | Path, jsa: JointSpectrum, header_lines: list[str] | None = None) -> None:
    """|f| matrix as CSV with signal/idler wavelength (nm) header row/column."""
    lam_s_nm = wavelength_um_from_omega(jsa.grid.omega_s) * 1e3
    lam_i_nm = wavelength_um_from_omega(jsa.grid.omega_i) * 1e3
    lines = [f"# {h}" for h in (header_lines or [])]
    lines.append("signal_nm\\idler_nm," + ",".join(f"{v:.6f}" for v in lam_i_nm))
    mag = np.abs(jsa.amplitude)
    # one %-format per row: the same text as a format(v, ".8e") per cell
    row = ",".join(["%.8e"] * mag.shape[1])
    for lam, values in zip(lam_s_nm.tolist(), mag.tolist()):
        lines.append(f"{lam:.6f}," + row % tuple(values))
    Path(path).write_text("\n".join(lines) + "\n")


def write_jsa_binary(
    path: str | Path,
    jsa: JointSpectrum,
    run_digest: str = "",
    sellmeier_name: str = "",
) -> None:
    """Raw little-endian dump: magic, provenance strings, dims, frequency
    ranges (rad/s, 64-bit), then row-major complex128 amplitudes."""
    meta = f"{run_digest}|{sellmeier_name}".encode()
    with open(path, "wb") as fh:
        fh.write(_JSA_MAGIC)
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<QQ", jsa.grid.n_signal, jsa.grid.n_idler))
        fh.write(
            struct.pack(
                "<dddd",
                float(jsa.grid.omega_s[0]),
                float(jsa.grid.omega_s[-1]),
                float(jsa.grid.omega_i[0]),
                float(jsa.grid.omega_i[-1]),
            )
        )
        fh.write(np.ascontiguousarray(jsa.amplitude, dtype="<c16").tobytes())


def read_jsa_binary(path: str | Path) -> tuple[np.ndarray, dict[str, object]]:
    """Inverse of `write_jsa_binary`; returns (amplitude, metadata)."""
    raw = Path(path).read_bytes()
    if raw[: len(_JSA_MAGIC)] != _JSA_MAGIC:
        raise ValueError("not a JSA binary file")
    off = len(_JSA_MAGIC)
    (meta_len,) = struct.unpack_from("<I", raw, off)
    off += 4
    digest, _, name = raw[off : off + meta_len].decode().partition("|")
    off += meta_len
    ns, ni = struct.unpack_from("<QQ", raw, off)
    off += 16
    ws0, ws1, wi0, wi1 = struct.unpack_from("<dddd", raw, off)
    off += 32
    amp = np.frombuffer(raw, dtype="<c16", offset=off, count=ns * ni).reshape(ns, ni)
    meta = {
        "run_digest": digest,
        "sellmeier": name,
        "omega_s_range": (ws0, ws1),
        "omega_i_range": (wi0, wi1),
    }
    return amp.copy(), meta
