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
is fitted once, when it enters the table; a call only indexes the table.  A
uniform-width array of N domains of width w has L = N w, so at the nodes
dk_n w = 2 pi n / (16 N) and its sign sum is one length-16N FFT of the signs,
taken once per structure (Cooley & Tukey, Math. Comp. 19, 297 (1965));
duty-cycle structures sum their nodes segment by segment.  The
interpolation holds to 1e-10 x max|Phi| against the per-segment sum on the
standard grids of all presets (at most 1.7e-13 measured).  Size rule: arrays
with fewer points than twice the lattice nodes they span, scalars among them,
take the exact sum at every point instead.

One `_JsaEvaluator` per (grid, pump) holds the grid plan, the sign
normalization and the envelope on the 2N - 1 pump sums, and assembles
envelope x PMF for the dw climb (chosen points), for the duty-cycle swarm,
and by one fill over rectangles of the grid for `build_jsa` (the whole grid
as one rectangle) and for the range sweep (a band of the grid).
The swarm's profiles share one period Lambda = 2 l_c, so per period only the
split point moves: period m adds (2 e^{i dk s_m} - e^{i dk a_m} - e^{i dk
b_m}) / (i dk) at a lattice node, and the node sums of a whole swarm come
from one batch of exponentials and one stacked matmul, with no per-structure
table (nodes with |dk| Lambda < 1 take the per-segment sum instead); each
profile then takes the same sub-cell fit and the Horner pass over the grid's
fixed sub-cells.

The range sweep's purity flushes every part below tau = eps / (16 sqrt(2 N^2))
after scaling the amplitude by its largest part and to unit norm, and on a
wide grid (R = 50 dw) most of the grid lies far down the pump envelope, which
depends only on m = j + k.  Since |G| <= L (the sum of the segment widths),
a part on anti-diagonal m is at most e_m L, so it cannot survive the flush
when e_m 2L < tau p, with p = max |f| / sqrt(2) on the anti-diagonal of
largest envelope, a lower bound on the largest part; the factor 2 covers the
lattice's 1e-10 relative error and the rounding of the scalings.  The sweep
fills only row blocks of 64 rows, each over the columns that meet the kept
anti-diagonals, and leaves the rest exactly 0: the flushed amplitude is the
whole build's, so every purity is too, bit for bit.  A grid whose blocks
would cover it all, or that the size rule might send to the exact sum, is
built whole by `build_jsa`.

dw is measured without building the grid: an 8-neighbour hill climb from the
grid centre finds the |f|^2 peak, and only the row and the column through it
are evaluated.  A climb that reaches the grid edge raises `PeakOnBoundary`,
as a full build's peak there would, and the window is doubled.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    """Gaussian pump of central wavelength `lambda_p_um` and intensity-FWHM
    bandwidth `bandwidth_nm`: the envelope exp(-((w_s + w_i - w_p0)/sigma_p)^2),
    whose central frequency omega_p0 and width sigma_p (rad/s) are derived."""

    lambda_p_um: float
    bandwidth_nm: float

    def __post_init__(self):
        if not (0 < self.sigma_p < math.inf and 0 < self.omega_p0 < math.inf):
            raise ValueError("pump frequency and bandwidth must be positive and finite")

    @classmethod
    def from_bandwidth_nm(cls, lambda_p_um: float, bandwidth_nm: float) -> "PumpSpec":
        """Build from the pump intensity-FWHM bandwidth in nm."""
        return cls(lambda_p_um, float(bandwidth_nm))

    @property
    def omega_p0(self) -> float:
        return 2.0 * math.pi * C_LIGHT / (self.lambda_p_um * 1e-6)

    @property
    def sigma_p(self) -> float:
        lam = self.lambda_p_um * 1e-6
        dw_fwhm = 2.0 * math.pi * C_LIGHT / lam**2 * (self.bandwidth_nm * 1e-9)
        return dw_fwhm / _FWHM_FACTOR


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform signal/idler frequency grids: `n_signal` and `n_idler`
    cell-centred points around omega_s0 and omega_i0, both stepping by
    `step`, so that omega_s[j] + omega_i[k] depends only on j + k.
    `delta_omega` is the dw the grid was sized from.  The axes are derived,
    read-only arrays."""

    omega_s0: float
    omega_i0: float
    n_signal: int
    n_idler: int
    step: float
    delta_omega: float

    def __post_init__(self):
        if not (self.n_signal >= 1 and self.n_idler >= 1 and self.step > 0):
            raise ValueError("a grid needs at least one point per axis and a positive step")

    @staticmethod
    def _axis(centre: float, n: int, step: float) -> np.ndarray:
        axis = centre + (np.arange(n) - (n - 1) / 2.0) * step
        axis.setflags(write=False)
        return axis

    @cached_property
    def omega_s(self) -> np.ndarray:
        return self._axis(self.omega_s0, self.n_signal, self.step)

    @cached_property
    def omega_i(self) -> np.ndarray:
        return self._axis(self.omega_i0, self.n_idler, self.step)


@dataclass
class JointSpectrum:
    """Complex joint spectral amplitude f(omega_s, omega_i) on a grid.

    amplitude[j, k] corresponds to (omega_s[j], omega_i[k]).  `build_jsa`
    normalizes the Frobenius norm to 1 (to 1e-12).  `masked_points` counts
    grid points zeroed because a wavelength left the transparency window
    (masking mode only).
    """

    grid: SpectralGrid
    amplitude: np.ndarray
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
_BAND_ROWS = 64  # rows per rectangle of a range sweep's band (`_JsaEvaluator.band`)
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
    return _lattice_cells(dk.size, float(dk.min()), float(dk.max()), length_m)


def _lattice_cells(size: int, lo: float, hi: float, length_m: float) -> tuple[int, int] | None:
    """`_lattice` of `size` points whose dk lies in [lo, hi].  Bounds wider
    than the points' own extremes can only turn a lattice into None."""
    scale = 1.0 / _lattice_step(length_m)
    lo, hi = lo * scale, hi * scale
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    first, last = math.floor(lo), math.floor(hi)
    if size < 2 * (last - first + LATTICE_STENCIL):
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


def _domain_node_sums(structure: DomainArray, nodes: np.ndarray) -> np.ndarray:
    """G at the lattice nodes dk_n = n step of a uniform-width array of N
    domains, from its sign spectrum S[n] = sum_j a_j e^{2 pi i n j / M}, the
    conjugated length-M DFT of the signs a_j (M = 16 N), computed once and
    kept in the structure's table: S is periodic in n, so it serves every
    node.  With L = N w, dk_n w = 2 pi n / M, so G(dk_n) = w sinc(dk_n w/2)
    e^{i dk_n (w - L)/2} S[n mod M], where dk_n w/2 = pi n / M and
    dk_n (w - L)/2 = pi n (1 - N) / M.  The phase is reduced in integers, as
    the FFT's own twiddles are exact: measured on c-band-xii's PP, SCL and CL
    arrays this leaves about 3e-16 of max|G| against the exact node sums,
    where the angle dk_n (w - L)/2 rounded in floats leaves about 3e-14."""
    table = structure.pmf_table
    if "sign_spectrum" not in table:
        # numpy.fft loads on first use, so importing purepole does not pay for it
        size = LATTICE_NODES_PER_PERIOD * structure.n_domains
        table["sign_spectrum"] = np.conj(np.fft.fft(structure.signs, size))
    sign_sums = table["sign_spectrum"]
    size = sign_sums.size
    turns = nodes * (1 - structure.n_domains) % (2 * size)  # e^{i pi turns / M}
    out = _sinc(np.pi * nodes / size) * np.exp(1j * np.pi * turns / size)
    out *= structure.width_m
    out *= sign_sums[nodes % size]
    return out


def _cell_table(structure: DomainArray | DutyCycleStructure, first: int, last: int):
    """(first block, coefficients) of the structure's table, grown to cover
    the cell blocks first .. last: `coefficients` holds the rows of
    `_subcell_fit` over one contiguous span of aligned blocks of _TABLE_BLOCK
    cells, so sub-cell q of cell c is column SUBCELLS c + q, counted from the
    span's first cell.

    The node sums (one span of blocks, from one block before the cells to
    one after) grow with it.  A `DomainArray`'s node sums come from its sign
    spectrum (`_domain_node_sums`, one FFT per structure, each node on its
    own); a duty-cycle structure's blocks are each summed by one
    `_segment_sum` call on the same nodes.  A block is fitted by one
    `_subcell_fit` of _TABLE_BLOCK cells when it enters the table, so no
    value depends on which evaluation needed the block first (the exact sum
    can differ in the last bit with the batch, a matmul with the number of
    rows).
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
        n = np.arange(blocks.start * _TABLE_BLOCK, blocks.stop * _TABLE_BLOCK)
        n = n.reshape(len(blocks), _TABLE_BLOCK)
        if isinstance(structure, DomainArray):
            return _domain_node_sums(structure, n)
        out = np.empty(n.shape, dtype=complex)
        for row, block_nodes in zip(out, n):
            row[:] = _segment_sum(step * block_nodes, *segments)
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


def _interpolate(
    dk: np.ndarray, structure: DomainArray | DutyCycleStructure, out: np.ndarray | None = None
) -> np.ndarray:
    """e^{i dk L/2} G(dk) at a nonempty, finite 1-D dk, from the structure's
    table, written to `out` (a complex array of dk's size) when given.

    The table is looked up once, and grown to the cell blocks that the points
    span if it does not cover them; each point takes the coefficients of its
    sub-cell from the table's rows, evaluated by Horner in blocks of points.
    A point's value depends only on its dk.
    """
    # the blocks of the extreme points' sub-cells, scaled as `_subcells` does
    scale, width = SUBCELLS / _lattice_step(structure.length_m), SUBCELLS * _TABLE_BLOCK
    first, coef = _cell_table(structure, math.floor(float(dk.min()) * scale) // width,
                              math.floor(float(dk.max()) * scale) // width)
    if out is None:
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


def _check_buffer(name: str, array, shape: tuple[int, ...], dtype) -> None:
    """ValueError naming `name` unless `array` is a writable C-contiguous
    ndarray of exactly this shape and dtype."""
    if not (isinstance(array, np.ndarray) and array.shape == shape
            and array.dtype == dtype and array.flags.c_contiguous and array.flags.writeable):
        got = (f"{array.dtype} array of shape {array.shape}" if isinstance(array, np.ndarray)
               else type(array).__name__)
        raise ValueError(f"{name}: must be a writable C-contiguous {np.dtype(dtype)} array "
                         f"of shape {shape}, got {got}")


def pmf_piecewise(delta_k, structure: DomainArray | DutyCycleStructure, out=None):
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
    not depend on what the table held before.  A `DomainArray`'s node sums
    come from one FFT of its signs per structure (`_domain_node_sums`), a
    duty-cycle structure's from the per-segment sum.  Against the exact sum
    the error stays within 1e-10 x max|Phi| on the standard grids of all
    presets (at most 1.7e-13 measured, the rounding floor of the sum
    itself).  Smaller arrays, scalars and arrays with non-finite values take
    the exact sum at every point.

    With `out`, a writable C-contiguous complex128 array of delta_k's shape
    (ValueError naming `out` otherwise), Phi is written there and `out` is
    returned; each value equals that of a call without it, bit for bit.
    """
    dk = np.asarray(delta_k, dtype=float)
    flat = dk.ravel()
    if out is not None:
        _check_buffer("out", out, dk.shape, complex)
    out_flat = None if out is None else out.reshape(-1)
    if _lattice(flat, structure.length_m) is None:
        phi = np.multiply(_segment_sum(flat, *_segments(structure)),
                          np.exp(0.5j * structure.length_m * flat), out=out_flat)
    else:
        phi = _interpolate(flat, structure, out_flat)
    if out is not None:
        return out
    return complex(phi[0]) if dk.ndim == 0 else phi.reshape(dk.shape)


# The most bytes numpy can index in one array: a grid whose complex128
# amplitude, 16 bytes a point, would hold more is refused by arithmetic.
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


def _hankel(values: np.ndarray, columns: int) -> np.ndarray:
    """Read-only view H[j, k] = values[j + k] of a 1-D `values`, with
    values.size - columns + 1 rows: `sliding_window_view(values, columns)`,
    without its argument checks (about 4 instead of 11 us a view)."""
    step = values.strides[0]
    return np.lib.stride_tricks.as_strided(values, (values.size - columns + 1, columns),
                                           (step, step), writeable=False)


def _hankel_block(values: np.ndarray, j0: int, j1: int, k0: int, k1: int) -> np.ndarray:
    """Read-only view H[j - j0, k - k0] = values[j + k] on the rows j0 ..
    j1 - 1 and the columns k0 .. k1 - 1."""
    return _hankel(values[j0 + k0 : j1 + k1 - 1], k1 - k0)


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

    def valid_block(self, j0: int, j1: int, k0: int, k1: int) -> np.ndarray:
        """The valid flags of the rows j0 .. j1 - 1 and columns k0 .. k1 - 1."""
        return (_hankel_block(self.valid_pump, j0, j1, k0, k1)
                & self.valid_signal[j0:j1, None] & self.valid_idler[None, k0:k1])

    def block(
        self, j0: int, j1: int, k0: int, k1: int, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(dk, valid) on the rows j0 .. j1 - 1 and columns k0 .. k1 - 1, dk
        written to `out` (a float array of that shape) when given, else a
        new writable array.  Each dk is the same operations in the same
        order whatever the block, so it is equal bit for bit to the whole
        grid's."""
        dk = np.subtract(_hankel_block(self.k_pump, j0, j1, k0, k1),
                         self.k_signal[j0:j1, None], out=out)
        dk -= self.k_idler[None, k0:k1]
        return dk, self.valid_block(j0, j1, k0, k1)

    def full(self) -> tuple[np.ndarray, np.ndarray]:
        """(dk, valid) at every grid point (`block` of the whole grid)."""
        return self.block(0, self.k_signal.size, 0, self.k_idler.size)


def _grid_plan(
    model: DispersionModel, cfg: PhaseMatchConfig, grid: SpectralGrid, mask_invalid: bool
) -> _GridPlan:
    """Wavenumbers and window flags of the signal, idler and pump sums of a
    grid: 3N - 1 Sellmeier evaluations.  See `delta_k_grid` for the modes."""
    # the N_s + N_i - 1 distinct omega_s[j] + omega_i[k], indexed by j + k
    ws, wi = grid.omega_s, grid.omega_i
    wp = np.concatenate([ws + wi[0], ws[-1] + wi[1:]])
    axes = ((wp, cfg.pump_axis), (ws, cfg.signal_axis), (wi, cfg.idler_axis))
    lams = [wavelength_um_from_omega(w) for w, _ in axes]
    valid = [model.in_window(lam) for lam in lams]
    if not mask_invalid:
        # strict mode: any out-of-window point is an error
        for lam in lams:
            model._check_window(lam)
    # out-of-window points (masking mode) get a placeholder frequency well
    # inside the window; their delta_k is meaningless and flagged invalid.
    # k = omega n(lam) / c as `model.wavenumber` forms it, from the
    # wavelengths already checked here
    omega_mid = 2.0 * math.pi * C_LIGHT / (0.5 * sum(model.window_um) * 1e-6)
    lam_mid = wavelength_um_from_omega(omega_mid)
    k = [np.where(ok, w, omega_mid) * model._sellmeier_index(np.where(ok, lam, lam_mid), axis)
         / C_LIGHT for (w, axis), lam, ok in zip(axes, lams, valid)]
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
    terms come from the 2N - 1 pump sums of the grid plan.  Builds take dk
    from their evaluator's plan; this stays as the full-grid dk reference
    that tests and perfbench's exact re-evaluation use.
    """
    return _grid_plan(model, cfg, grid, mask_invalid).full()


# The step divisor of the coarse R = 10 dw grids (100 x 100) on which the
# duty-cycle swarm scores its particles and `design_cl_scl` screens its rungs;
# `_grid_side`'s standard rule is 20, or 40 outside 10..80 degrees.
COARSE_STEP_DIVISOR = 10


def _grid_side(theta_deg: float, r_mult: float = 10.0, step_divisor: int | None = None):
    """(step divisor, points per axis) of `make_grid`'s rule, which does not
    depend on dw.  Raises ValueError for fewer than 2 points per axis, and
    for a grid whose complex amplitude holds more bytes than numpy can index
    (N^2 x 16 > intp max), decided by arithmetic before anything is
    allocated."""
    if step_divisor is None:
        step_divisor = 20 if 10.0 <= theta_deg <= 80.0 else 40
    if not step_divisor >= 1:
        raise ValueError(f"step_divisor must be at least 1, got {step_divisor!r}")
    points = r_mult * step_divisor
    if not (math.isfinite(points) and round(points) ** 2 * 16 <= _MAX_ARRAY_BYTES):
        raise ValueError(
            f"r_mult = {r_mult!r} with step_divisor = {step_divisor!r} gives {points:g} "
            "points per axis; numpy cannot index a complex grid of that side")
    n = int(round(points))
    if n < 2:
        raise ValueError(
            f"r_mult = {r_mult!r} with step_divisor = {step_divisor!r} gives {n} points "
            "per axis; a grid needs at least 2")
    return step_divisor, n


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
    Both axes step by the same D.  Raises ValueError for step_divisor < 1,
    for fewer than 2 points per axis and for more than numpy can index
    (`_grid_side`)."""
    if delta_omega <= 0:
        raise ValueError("delta_omega must be positive")
    step_divisor, n = _grid_side(theta_deg, r_mult, step_divisor)
    return SpectralGrid(omega_s0, omega_i0, n, n, delta_omega / step_divisor, delta_omega)


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


@lru_cache(maxsize=64)
def _central_mismatch(model: DispersionModel, cfg: PhaseMatchConfig) -> float:
    """dk0 = k_p0 - k_s0 - k_i0 at the nominal frequencies (raw material
    sign); kept per (model, cfg), since every evaluator needs it."""
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
    `amplitude` for one structure on rectangles of the grid, either the
    whole grid (`build_jsa`) or the rectangles of `band` that can survive
    the purity flush (the range sweep), and `duty_cycle_amplitudes` on the
    whole grid for many duty-cycle profiles of one period at once (the
    duty-cycle swarm).
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

    def amplitude(
        self,
        structure: DomainArray | DutyCycleStructure,
        out: np.ndarray | None = None,
        work: np.ndarray | None = None,
        rects: list[tuple[int, int, int, int]] | None = None,
    ) -> tuple[np.ndarray, int]:
        """(f, masked points of the whole grid): f on the rectangles of
        `rects`, each (j0, j1, k0, k1) the rows j0 .. j1 - 1 by the columns
        k0 .. k1 - 1, their row spans ascending without overlap, and exact
        zeros elsewhere; on the whole grid when `rects` is None
        (`build_jsa`).  With `out` (complex) and `work` (float), both
        C-contiguous (N_s, N_i) arrays, f is formed in `out` and each
        rectangle's dk in a C-contiguous prefix of `work`.

        Each rectangle takes the same steps: dk from the plan,
        sign-normalized; the masked points given the first valid point's dk,
        which keeps the placeholder mismatch out of the structure's lattice
        table; the PMF, written into f where the rectangle spans whole rows;
        the envelope, applied in place; the masked points zeroed.  A
        rectangle with no valid point is left 0 without a PMF.  A point's dk
        and PMF do not depend on the rectangle, so inside a rectangle f is
        the whole grid's bit for bit.  The kernel is chosen once per call:
        the whole grid takes `pmf_piecewise` and its size rule, the
        rectangles of `band`, which has judged the size rule, the lattice
        (`_interpolate`).  The bandwidth search passes two buffers that live
        only as long as the search, so that its candidates allocate no N^2
        float or complex array here (only the valid mask) and nothing
        outlives the search.
        """
        n_s, n_i = self.grid.n_signal, self.grid.n_idler
        f = np.empty((n_s, n_i), dtype=complex) if out is None else out
        if rects is None:
            rects, kernel = [(0, n_s, 0, n_i)], pmf_piecewise
        else:
            kernel = _interpolate
        edge = 0  # the first row not yet written
        for j0, j1, k0, k1 in rects:
            f[edge:j0] = 0.0
            f[j0:j1, :k0] = 0.0
            f[j0:j1, k1:] = 0.0
            edge = j1
            target = f[j0:j1, k0:k1]
            dk, ok = self.plan.block(j0, j1, k0, k1, None if work is None
                                     else work.reshape(-1)[: target.size].reshape(target.shape))
            dk *= self.sign
            masked = not ok.all()
            if masked:
                if not ok.any():
                    target[...] = 0.0
                    continue
                dk[~ok] = dk.flat[int(np.argmax(ok))]
            phi = kernel(dk.reshape(-1), structure,
                         target.reshape(-1) if target.flags.c_contiguous else None)
            np.multiply(_hankel_block(self.envelope, j0, j1, k0, k1), phi.reshape(ok.shape),
                        out=target)
            if masked:
                target[~ok] = 0.0
        f[edge:] = 0.0
        if ok.size < f.size:  # else the last rectangle's flags are the whole grid's
            ok = self.plan.valid_block(0, n_s, 0, n_i)
        return f, int(ok.size - np.count_nonzero(ok))

    def band(
        self, structure: DomainArray | DutyCycleStructure, floor: float
    ) -> list[tuple[int, int, int, int]] | None:
        """The rectangles (j0, j1, k0, k1) that hold every part of f that can
        survive a purity flush at `floor` (the module docstring gives the
        bound), or None where they would be the whole grid or the PMF size
        rule might take the exact sum, judged on the grid's dk range bounded
        from the plan's 1-D extremes.  A rectangle is a block of _BAND_ROWS
        rows j0 .. j1 - 1 over the columns k0 .. k1 - 1 that meet a kept
        anti-diagonal there.  With p = 0 the band is every anti-diagonal
        whose envelope is not 0.
        """
        n_s, n_i = self.grid.n_signal, self.grid.n_idler
        plan, envelope = self.plan, self.envelope
        lo = plan.k_pump.min() - plan.k_signal.max() - plan.k_idler.max()
        hi = plan.k_pump.max() - plan.k_signal.min() - plan.k_idler.min()
        if self.sign < 0:
            lo, hi = -hi, -lo
        if _lattice_cells(n_s * n_i, float(lo), float(hi), structure.length_m) is None:
            return None
        centre = int(np.argmax(envelope))
        j = np.arange(max(0, centre - n_i + 1), min(n_s, centre + 1))
        p = math.sqrt(float(self.power(structure, j, centre - j).max()) / 2.0)
        kept = np.flatnonzero((envelope > 0.0) & (envelope * (2.0 * structure.length_m) >= floor * p))
        if kept.size == 0:
            return None
        rects = []
        for j0 in range(0, n_s, _BAND_ROWS):
            j1 = min(j0 + _BAND_ROWS, n_s)
            # from the first column that meets m = kept[0] to the last that
            # meets m = kept[-1], clipped to the grid
            k0, k1 = max(0, int(kept[0]) - j1 + 1), min(n_i, int(kept[-1]) - j0 + 1)
            if k0 < k1:
                rects.append((j0, j1, k0, k1))
        if sum((j1 - j0) * (k1 - k0) for j0, j1, k0, k1 in rects) == n_s * n_i:
            return None
        return rects

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
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> JointSpectrum:
    """Assemble the normalized JSA f = pump envelope x PMF on the grid, with
    the PMF of the poling structure from `pmf_piecewise`.  The phase
    mismatch is sign-normalized so the central value is +pi/l_c.

    Buffers: `out`, a writable C-contiguous complex128 (N_s, N_i) array,
    receives the amplitude, and the result's `amplitude` is `out` itself;
    `work`, a float64 array of the same shape and layout, takes the phase
    mismatch on the way (its contents afterwards are unspecified).  Either
    may be given alone; a wrong shape, dtype or layout raises ValueError
    naming the argument.  The amplitude equals that of a call without
    them, bit for bit.
    """
    shape = (grid.n_signal, grid.n_idler)
    if out is not None:
        _check_buffer("out", out, shape, complex)
    if work is not None:
        _check_buffer("work", work, shape, float)
    f, masked = _JsaEvaluator(model, cfg, grid, pump, mask_invalid).amplitude(structure, out, work)
    _unit_norm(f, [f.reshape(-1).view(float)])
    return JointSpectrum(grid=grid, amplitude=f, masked_points=masked)


def _unit_norm(f: np.ndarray, blocks: list[np.ndarray]) -> None:
    """Scale a C-contiguous complex f to unit Frobenius norm in place, bit
    for bit as numpy's f /= norm does, by multiplying `blocks`, float views
    that hold every nonzero part of f between them, by 1 / norm; the norm is
    one `np.dot` over all parts.  Raises ValueError when f vanishes.

    numpy divides a + bi by a real n as (a + b 0) (1/n) + (b - a 0) (1/n) i,
    which is a (1/n) + b (1/n) i except for the sign of a zero part, so a
    block that holds a zero part first takes the b 0 and a 0 terms (the
    second with the first's new a, which gives the same result).
    """
    parts = f.reshape(-1).view(float)
    norm = math.sqrt(float(np.dot(parts, parts)))
    if norm == 0.0:
        raise ValueError("JSA vanished on the grid (all points masked?)")
    scale = 1.0 / norm
    for block in blocks:
        if not block.all():
            real, imag = block[..., 0::2], block[..., 1::2]
            real += imag * 0.0
            imag -= real * 0.0
        block *= scale


@lru_cache(maxsize=64)
def _ridge_slopes(model: DispersionModel, cfg: PhaseMatchConfig) -> tuple[float, float]:
    """(k'_p - k'_s, k'_p - k'_i) at the central frequencies: the slopes of
    dk along the signal and idler axes, in s/m; kept per (model, cfg), since
    every dw measurement needs them."""
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
) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """((j0, k0), |f[:, k0]|^2, |f[j0, :]|^2) of the masked, unnormalized
    JSA on the grid, without building it.  Raises PeakOnBoundary when the
    climb reaches an edge row or column, and ValueError when the peak it
    reaches has no weight.

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
        raise PeakOnBoundary("the climb to the JSA maximum reached the grid edge")
    if here == 0.0:
        raise ValueError("JSA vanished around the grid centre (all points masked?)")
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
    step_divisor: int | None = None,
) -> float:
    """Self-consistent average peak bandwidth dw on the standard R = 10 grid.

    Builds a probe grid from a physics-based seed, measures the FWHMs, and
    re-measures until dw changes by less than 2 %; the window is doubled
    whenever the climb to the peak reaches the grid edge or a half crossing
    leaves the grid.  Each measurement climbs to the peak and evaluates only
    the two cuts through it (`_climbed_cuts`).  `step_divisor` is
    `make_grid`'s for the probe grids; None keeps its theta rule.
    """
    dw = _initial_bandwidth_guess(model, cfg, pump)
    for _ in range(max_iter):
        grid = make_grid(theta_deg, dw, cfg.omega_s0, cfg.omega_i0, step_divisor=step_divisor)
        try:
            _, column, row = _climbed_cuts(model, cfg, structure, pump, grid)
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
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
    step_divisor: int | None = None,
) -> JointSpectrum:
    """Masked JSA on the standard grid of range R = r_mult * dw.

    dw is measured with `measure_delta_omega` unless `delta_omega` is given;
    grid points outside the transparency window are zeroed.  `out` and
    `work` are `build_jsa`'s buffers; the grid's side, and so their shape,
    does not depend on dw (`_grid_side`).  `step_divisor` is `make_grid`'s,
    for the dw measurement and the grid alike; None keeps its theta rule.
    """
    if delta_omega is None:
        delta_omega = measure_delta_omega(
            model, cfg, structure, pump, theta_deg, step_divisor=step_divisor)
    grid = make_grid(theta_deg, delta_omega, cfg.omega_s0, cfg.omega_i0, r_mult=r_mult,
                     step_divisor=step_divisor)
    return build_jsa(model, cfg, structure, pump, grid, mask_invalid=True, out=out, work=work)


# -- export ------------------------------------------------------------------

_JSA_MAGIC = b"PPJSA\x00\x01"


def write_jsa_csv(path: str | Path, jsa: JointSpectrum, header_lines: list[str] | None = None) -> None:
    """|f| matrix as CSV with signal/idler wavelength (nm) header row/column:
    wavelengths as format(v, ".6f"), magnitudes as format(v, ".8e")."""
    from . import textfmt  # at the first write, so that importing purepole does not load it

    lam_s_nm = wavelength_um_from_omega(jsa.grid.omega_s) * 1e3
    lam_i_nm = wavelength_um_from_omega(jsa.grid.omega_i) * 1e3
    with open(path, "wb") as fh:
        fh.write("".join(f"# {h}\n" for h in header_lines or []).encode())
        fh.write(b"signal_nm\\idler_nm,")
        textfmt.write_lines(fh, [textfmt.render(lam_i_nm[None, :], ".6f")])
        for rows in textfmt.row_blocks(*jsa.amplitude.shape):
            textfmt.write_lines(fh, [textfmt.render(lam_s_nm[rows], ".6f"),
                                     textfmt.render(np.abs(jsa.amplitude[rows]), ".8e")])


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
