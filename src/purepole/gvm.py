"""Group-velocity-matching geometry: wavelength triples, GVM angle, coherence length.

A collinear Type-II configuration is described by a `PhaseMatchConfig` of
the pump and signal wavelengths, the signal's axis and the crystal length:
the pump is always Y-polarized, the heralded "signal" photon sits on the
caller's chosen axis, and its partner "idler" takes the other axis and the
wavelength of energy conservation, both derived rather than stored.  The
GVM angle is the orientation of the phase-matching ridge in the (signal,
idler) frequency plane,

    theta = arctan(-(k'_p - k'_s) / (k'_p - k'_i)),

folded into (-90 deg, 90 deg]; separable joint spectra require
0 <= theta <= 90 deg.  The coherence length is l_c = pi / |dk0| with
dk0 = k_p - k_s - k_i at the central wavelengths.

One private function, `_geometry`, computes the angle and dk0 for scalars
and arrays alike: `gvm_angle` and `phase_mismatch_and_lc` call it on one
triple, `gvm_map` once on all valid cells of a scan, so a map cell equals
the point query bit for bit.  The arctangent is `math.atan2` applied per
element rather than `np.arctan2`, whose SIMD loop can differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .dispersion import Axis, DispersionModel, omega_from_wavelength_um

__all__ = [
    "NonPositiveIdler",
    "EmptyRange",
    "PhaseMatchConfig",
    "GvmPoint",
    "GvmMap",
    "idler_wavelength",
    "gvm_angle",
    "phase_mismatch_and_lc",
    "gvm_map",
    "scan_points",
    "write_gvm_map_csv",
]

DEFAULT_CRYSTAL_LENGTH_M = 5e-3


class NonPositiveIdler(ValueError):
    """Energy conservation gives no positive idler wavelength (lambda_s <= lambda_p)."""


class EmptyRange(ValueError):
    """A scan range contains no grid points."""


def idler_wavelength(lambda_p_um: float, lambda_s_um: float) -> float:
    """Idler wavelength from energy conservation 1/lp = 1/ls + 1/li (um)."""
    if lambda_s_um <= lambda_p_um:
        raise NonPositiveIdler(
            f"signal {lambda_s_um} um must exceed pump {lambda_p_um} um"
        )
    return 1.0 / (1.0 / lambda_p_um - 1.0 / lambda_s_um)


def _other_axis(axis: Axis) -> Axis:
    return Axis.Z if axis is Axis.Y else Axis.Y


@dataclass(frozen=True)
class PhaseMatchConfig:
    """Pump and signal wavelengths, the signal's polarization axis and the
    crystal length.  The idler's wavelength follows from energy conservation
    and its axis is the other one (Type-II); the pump is Y-polarized.

    Raises ValueError for a nonpositive pump wavelength or length, and
    NonPositiveIdler unless the signal is longer than the pump."""

    lambda_p_um: float
    lambda_s_um: float
    signal_axis: Axis
    length_m: float = DEFAULT_CRYSTAL_LENGTH_M
    pump_axis: ClassVar[Axis] = Axis.Y

    def __post_init__(self):
        if self.lambda_p_um <= 0:
            raise ValueError("wavelengths must be positive")
        idler_wavelength(self.lambda_p_um, self.lambda_s_um)  # NonPositiveIdler
        if self.length_m <= 0:
            raise ValueError("crystal length must be positive")

    @classmethod
    def from_pump_signal(
        cls,
        lambda_p_um: float,
        lambda_s_um: float,
        signal_axis: Axis,
        length_m: float = DEFAULT_CRYSTAL_LENGTH_M,
        model: DispersionModel | None = None,
    ) -> "PhaseMatchConfig":
        """Build a config from pump/signal wavelengths.  If `model` is given,
        all three wavelengths are checked against its transparency window."""
        cfg = cls(lambda_p_um, lambda_s_um, signal_axis, length_m)
        if model is not None:
            for lam in (lambda_p_um, lambda_s_um, cfg.lambda_i_um):
                model._check_window(lam)
        return cfg

    @property
    def lambda_i_um(self) -> float:
        return idler_wavelength(self.lambda_p_um, self.lambda_s_um)

    @property
    def idler_axis(self) -> Axis:
        return _other_axis(self.signal_axis)

    @property
    def omega_p0(self) -> float:
        return omega_from_wavelength_um(self.lambda_p_um)

    @property
    def omega_s0(self) -> float:
        return omega_from_wavelength_um(self.lambda_s_um)

    @property
    def omega_i0(self) -> float:
        return omega_from_wavelength_um(self.lambda_i_um)


@dataclass(frozen=True)
class GvmPoint:
    """GVM angle (degrees, in (-90, 90]), phase mismatch dk0 (rad/m) and
    coherence length l_c = pi/|dk0| (m)."""

    theta_deg: float
    delta_k0: float
    coherence_length_m: float


# math.atan2 per element: numpy's SIMD arctan2 can differ from it in the last
# bit, which would split map cells from point queries
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _geometry(model: DispersionModel, lambda_p_um, lambda_s_um, lambda_i_um, signal_axis: Axis):
    """GVM angle (degrees, in (-90, 90]) and dk0 = k_p - k_s - k_i (rad/m) for
    in-window wavelength triples, scalars or arrays alike."""
    axes = (Axis.Y, signal_axis, _other_axis(signal_axis))
    omegas = [omega_from_wavelength_um(lam) for lam in (lambda_p_um, lambda_s_um, lambda_i_um)]
    kp_p, kp_s, kp_i = (model.inverse_group_velocity(w, ax) for w, ax in zip(omegas, axes))
    # atan2 lies in [-180, 180] degrees, so one half-turn folds it
    theta = np.degrees(np.asarray(_atan2(-(kp_p - kp_s), kp_p - kp_i), dtype=float))
    theta = np.where(theta <= -90.0, theta + 180.0, np.where(theta > 90.0, theta - 180.0, theta))
    k_p, k_s, k_i = (model.wavenumber(w, ax) for w, ax in zip(omegas, axes))
    return theta, k_p - k_s - k_i


def gvm_angle(model: DispersionModel, lambda_p_um: float, lambda_s_um: float, signal_axis: Axis) -> float:
    """GVM angle in degrees for a pump/signal pair, quadrant-aware, folded
    into (-90, 90]."""
    lambda_i_um = idler_wavelength(lambda_p_um, lambda_s_um)
    model._check_window(lambda_i_um)
    theta, _ = _geometry(model, lambda_p_um, lambda_s_um, lambda_i_um, signal_axis)
    return float(theta)


def phase_mismatch_and_lc(model: DispersionModel, cfg: PhaseMatchConfig) -> GvmPoint:
    """Central phase mismatch dk0 = k_p - k_s - k_i, l_c = pi/|dk0| and the
    GVM angle."""
    theta, dk0 = _geometry(model, cfg.lambda_p_um, cfg.lambda_s_um, cfg.lambda_i_um, cfg.signal_axis)
    if dk0 == 0.0:
        raise ValueError("configuration is exactly phase matched; l_c undefined")
    return GvmPoint(theta_deg=float(theta), delta_k0=dk0, coherence_length_m=math.pi / abs(dk0))


@dataclass
class GvmMap:
    """Wavelength-scan map of GVM angle and coherence length.

    theta_deg is NaN where the cell is invalid (idler or any wavelength
    outside the transparency window, or lambda_s <= lambda_p) or where theta
    falls outside the [0, 90] degree map convention.  coherence_length_um is
    NaN only where the cell is invalid.
    """

    lambda_p_um: np.ndarray
    lambda_s_um: np.ndarray
    signal_axis: Axis
    lambda_i_um: np.ndarray = field(repr=False)
    theta_deg: np.ndarray = field(repr=False)
    coherence_length_um: np.ndarray = field(repr=False)


def scan_points(lo: float, hi: float, step: float) -> int:
    """Number of scan points lo + i step (i = 0, 1, ...) up to hi, with a
    1e-9 step of slack; 0 when hi < lo.  Counted by arithmetic, so a caller
    can refuse a scan before anything is allocated.  ValueError unless the
    step is positive and the count finite."""
    if not step > 0:
        raise ValueError("scan step must be positive")
    span = (hi - lo) / step + 1e-9
    if not math.isfinite(span):
        raise ValueError(f"range [{lo}, {hi}] with step {step} has no finite point count")
    return max(int(math.floor(span)) + 1, 0)


def _scan_axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = scan_points(lo, hi, step)
    if n == 0:
        raise EmptyRange(f"range [{lo}, {hi}] with step {step} has no points")
    return lo + step * np.arange(n)


def gvm_map(
    model: DispersionModel,
    pump_range_um: tuple[float, float],
    signal_range_um: tuple[float, float],
    signal_axis: Axis,
    pump_step_um: float = 0.001,
    signal_step_um: float = 0.005,
) -> GvmMap:
    """Scan (lambda_p, lambda_s) and map GVM angle and coherence length.

    Cells whose idler falls outside the transparency window are masked, not
    errors.  Default steps are 1 nm in pump and 5 nm in signal.
    """
    lps = _scan_axis(*pump_range_um, pump_step_um)
    lss = _scan_axis(*signal_range_um, signal_step_um)

    lp, ls = np.meshgrid(lps, lss, indexing="ij")
    with np.errstate(divide="ignore"):
        li = 1.0 / (1.0 / lp - 1.0 / ls)
    valid = (ls > lp) & model.in_window(lp) & model.in_window(ls) & model.in_window(li)

    theta = np.full(valid.shape, np.nan)
    lc_um = np.full(valid.shape, np.nan)
    th, dk0 = _geometry(model, lp[valid], ls[valid], li[valid], signal_axis)
    lc_um[valid] = math.pi / np.abs(dk0) * 1e6
    theta[valid] = np.where((th >= 0.0) & (th <= 90.0), th, np.nan)
    return GvmMap(
        lambda_p_um=lps,
        lambda_s_um=lss,
        signal_axis=signal_axis,
        lambda_i_um=np.where(valid, li, np.nan),
        theta_deg=theta,
        coherence_length_um=lc_um,
    )


def _write_maps(gmap: GvmMap, theta_file, lc_file=None) -> None:
    """Write the cell rows of the theta file and of the l_c file (open binary
    files, the l_c one or None) in one pass over blocks of cells: every
    wavelength, theta and l_c is formatted once and shared by the files that
    print it (wavelengths as format(v, ".4f"), theta and l_c as ".6f")."""
    from . import textfmt  # at the first write, so that importing purepole does not load it

    pump = textfmt.render(gmap.lambda_p_um * 1e3, ".4f")
    signal = textfmt.render(gmap.lambda_s_um * 1e3, ".4f")
    idler, theta, lc = (a.ravel() for a in (gmap.lambda_i_um, gmap.theta_deg, gmap.coherence_length_um))
    for cells in textfmt.row_blocks(idler.size, 5):  # five numbers per theta line
        i, j = np.divmod(np.arange(cells.start, cells.stop), signal.shape[0])
        wavelengths = [pump[i], signal[j], textfmt.render(idler[cells] * 1e3, ".4f")]
        lc_text = textfmt.render(lc[cells], ".6f")
        textfmt.write_lines(theta_file, [*wavelengths, textfmt.render(theta[cells], ".6f"), lc_text])
        if lc_file is not None:
            textfmt.write_lines(lc_file, [*wavelengths, lc_text])


def _write_header(fh, comments: list[str], columns: list[str]) -> None:
    """`comments` as '# ' lines, then a header of lambda_p_nm, lambda_s_nm,
    lambda_i_nm and `columns`."""
    header = ",".join(["lambda_p_nm", "lambda_s_nm", "lambda_i_nm", *columns])
    fh.write("".join(f"{line}\n" for line in [*(f"# {c}" for c in comments), header]).encode())


def write_gvm_map_csv(
    path: str | Path,
    gmap: GvmMap,
    header_lines: list[str] | None = None,
    lc_path: str | Path | None = None,
) -> None:
    """Write one row per map cell: lambda_p_nm, lambda_s_nm, lambda_i_nm,
    theta_deg (nan = masked), l_c_um (nan = invalid cell).

    With `lc_path`, also write there one row per map cell of lambda_p_nm,
    lambda_s_nm, lambda_i_nm and l_c_um (nan = invalid cell), with the same
    header lines, in the same pass over the map's cells."""
    header_lines = header_lines or []
    with open(path, "wb") as theta_file:
        _write_header(theta_file, [*header_lines, f"signal_axis: {gmap.signal_axis.value}"],
                      ["theta_deg", "l_c_um"])
        if lc_path is None:
            _write_maps(gmap, theta_file)
            return
        with open(lc_path, "wb") as lc_file:
            _write_header(lc_file, header_lines, ["l_c_um"])
            _write_maps(gmap, theta_file, lc_file)
