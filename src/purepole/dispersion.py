"""Refractive-index dispersion of KTP along the crystallographic Y and Z axes.

The model is a two-pole Sellmeier form with a quadratic infrared correction,

    n^2(lam) = A + B1 / (lam^2 - C1) + B2 / (lam^2 - C2) - D * lam^2,

with lam in micrometers.  The built-in coefficient set for flux-grown KTP is
from W. Kato and E. Takaoka, Appl. Opt. 41, 5040 (2002); alternative sets can
be loaded from a small key-value text file (see `DispersionModel.from_file`).

All evaluations are pure functions of their inputs: no caching, no global
state, safe to call from any number of workers.  Scalars and arrays go
through the same numpy operations (squares by `np.square`, never `** 2`,
which on a numpy scalar calls libm `pow`), so an array evaluation equals the
scalar call element by element, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "Axis",
    "OutOfTransparencyWindow",
    "DispersionModel",
    "KTP_KATO_2002",
    "omega_from_wavelength_um",
    "wavelength_um_from_omega",
]

FloatOrArray = Union[float, np.ndarray]

# speed of light in vacuum, m/s (exact by the SI definition of the metre)
C_LIGHT = 299792458.0


class Axis(Enum):
    """Crystallographic polarization axis.  The pump is always Y-polarized."""

    Y = "Y"
    Z = "Z"


class OutOfTransparencyWindow(ValueError):
    """Wavelength outside the transparency window of the dispersion model."""


def omega_from_wavelength_um(lambda_um: FloatOrArray) -> FloatOrArray:
    """Vacuum wavelength in micrometers to angular frequency in rad/s."""
    return 2.0 * np.pi * C_LIGHT / (lambda_um * 1e-6)


def wavelength_um_from_omega(omega: FloatOrArray) -> FloatOrArray:
    """Angular frequency in rad/s to vacuum wavelength in micrometers."""
    return 2.0 * np.pi * C_LIGHT / omega * 1e6


@dataclass(frozen=True)
class DispersionModel:
    """Named Sellmeier coefficient set for the Y and Z axes.

    Attributes:
        name: identifier recorded in every output artifact.
        y_coefficients: (A, B1, C1, B2, C2, D) for the Y axis, lam in um.
        z_coefficients: same layout for the Z axis.
        window_um: (lam_min, lam_max) transparency window in um; evaluation
            outside raises OutOfTransparencyWindow, never extrapolates
            silently.
    """

    name: str
    y_coefficients: tuple[float, ...]
    z_coefficients: tuple[float, ...]
    window_um: tuple[float, float]

    def __post_init__(self):
        if len(self.y_coefficients) != 6 or len(self.z_coefficients) != 6:
            raise ValueError("coefficient sets must have 6 entries (A, B1, C1, B2, C2, D)")
        lo, hi = self.window_um
        if not (0.0 < lo < hi):
            raise ValueError(f"invalid transparency window {self.window_um}")

    def coefficients(self, axis: Axis) -> tuple[float, ...]:
        return self.y_coefficients if axis is Axis.Y else self.z_coefficients

    def in_window(self, lambda_um: FloatOrArray) -> FloatOrArray:
        """Boolean mask of wavelengths inside the transparency window."""
        lam = np.asarray(lambda_um)
        lo, hi = self.window_um
        return (lam >= lo) & (lam <= hi)

    def _check_window(self, lambda_um: FloatOrArray) -> None:
        ok = self.in_window(lambda_um)
        if not np.all(ok):
            bad = np.asarray(lambda_um)[~np.asarray(ok, dtype=bool)] if np.ndim(lambda_um) else lambda_um
            raise OutOfTransparencyWindow(
                f"wavelength {bad} um outside transparency window "
                f"[{self.window_um[0]}, {self.window_um[1]}] um of set '{self.name}'"
            )

    def refractive_index(self, lambda_um: FloatOrArray, axis: Axis) -> FloatOrArray:
        """n(lam, axis) for lam inside the transparency window."""
        self._check_window(lambda_um)
        return self._sellmeier_index(lambda_um, axis)

    def _sellmeier_index(self, lambda_um: FloatOrArray, axis: Axis) -> FloatOrArray:
        """n(lam, axis) without the window check, for callers that have
        checked or masked lam themselves."""
        A, B1, C1, B2, C2, D = self.coefficients(axis)
        x = np.square(lambda_um)
        n2 = A + B1 / (x - C1) + B2 / (x - C2) - D * x
        return np.sqrt(n2)

    def _dn_dlambda(self, lambda_um: FloatOrArray, axis: Axis) -> FloatOrArray:
        # d(n^2)/dlam = -2 lam [B1/(lam^2-C1)^2 + B2/(lam^2-C2)^2 + D]
        A, B1, C1, B2, C2, D = self.coefficients(axis)
        x = np.square(lambda_um)
        dn2 = -2.0 * np.asarray(lambda_um) * (B1 / np.square(x - C1) + B2 / np.square(x - C2) + D)
        return dn2 / (2.0 * self.refractive_index(lambda_um, axis))

    def wavenumber(self, omega: FloatOrArray, axis: Axis) -> FloatOrArray:
        """k = omega * n(omega) / c in rad/m."""
        lam_um = wavelength_um_from_omega(omega)
        return omega * self.refractive_index(lam_um, axis) / C_LIGHT

    def inverse_group_velocity(self, omega: FloatOrArray, axis: Axis) -> FloatOrArray:
        """dk/domega in s/m, from the analytic derivative of the Sellmeier form.

        Equals the group index over c: k' = (n - lam * dn/dlam) / c.
        """
        lam_um = wavelength_um_from_omega(omega)
        n = self.refractive_index(lam_um, axis)
        return (n - lam_um * self._dn_dlambda(lam_um, axis)) / C_LIGHT

    # -- persistence ---------------------------------------------------------

    def to_file(self, path: str | Path) -> None:
        """Write the coefficient set in the key-value text format."""
        lines = [
            "# Sellmeier coefficient set: n^2 = A + B1/(l^2-C1) + B2/(l^2-C2) - D*l^2, l in um",
            f"name = {self.name}",
            "y = " + " ".join(repr(v) for v in self.y_coefficients),
            "z = " + " ".join(repr(v) for v in self.z_coefficients),
            f"window_um = {self.window_um[0]!r} {self.window_um[1]!r}",
        ]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path: str | Path) -> "DispersionModel":
        """Load a coefficient set from the key-value text format.

        Expected keys: `name`, `y`, `z` (6 whitespace-separated numbers each)
        and `window_um` (two numbers).  Lines starting with `#` are ignored.
        """
        entries: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed line in coefficient file: {raw!r}")
            key, value = line.split("=", 1)
            entries[key.strip().lower()] = value.strip()
        missing = {"name", "y", "z", "window_um"} - entries.keys()
        if missing:
            raise ValueError(f"coefficient file missing keys: {sorted(missing)}")
        window = tuple(float(v) for v in entries["window_um"].split())
        if len(window) != 2:
            raise ValueError("window_um must contain exactly two numbers")
        return cls(
            name=entries["name"],
            y_coefficients=tuple(float(v) for v in entries["y"].split()),
            z_coefficients=tuple(float(v) for v in entries["z"].split()),
            window_um=window,  # type: ignore[arg-type]
        )


# Flux-grown KTP, room temperature (Kato & Takaoka 2002, doi:10.1364/AO.41.005040).
# The quoted fit range is 0.43-3.54 um; the window below extends to the 4 um
# KTP transparency edge used for idler masking, a mild extrapolation.
KTP_KATO_2002 = DispersionModel(
    name="ktp-kato-takaoka-2002",
    y_coefficients=(3.45018, 0.04341, 0.04597, 16.98825, 39.43799, 0.0),
    z_coefficients=(4.59423, 0.06206, 0.04763, 110.80672, 86.12171, 0.0),
    window_um=(0.35, 4.0),
)
