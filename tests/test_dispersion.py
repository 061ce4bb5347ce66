"""Dispersion model: Sellmeier evaluation, wavenumbers, group velocities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from purepole import (
    Axis,
    DispersionModel,
    KTP_KATO_2002,
    OutOfTransparencyWindow,
    omega_from_wavelength_um,
)
from scipy.constants import c as C_LIGHT

# Frozen oracle values: built-in coefficient set evaluated independently with
# a 50-digit mpmath script.
N_1310_Z = 1.8217127064409981
N_1310_Y = 1.7394875022537725
K_1310_Z = 8737525.5809255254  # 2 pi n / lambda, rad/m


class TestRefractiveIndex:
    def test_frozen_value_z(self, model):
        assert model.refractive_index(1.310, Axis.Z) == pytest.approx(N_1310_Z, rel=1e-12)

    def test_frozen_value_y(self, model):
        assert model.refractive_index(1.310, Axis.Y) == pytest.approx(N_1310_Y, rel=1e-12)

    def test_outside_window_raises(self, model):
        with pytest.raises(OutOfTransparencyWindow):
            model.refractive_index(5.0, Axis.Z)
        with pytest.raises(OutOfTransparencyWindow):
            model.refractive_index(0.2, Axis.Y)

    def test_vectorized_matches_scalar(self, model):
        lams = np.array([0.71, 1.31, 1.55])
        vec = model.refractive_index(lams, Axis.Z)
        for lam, v in zip(lams, vec):
            assert v == model.refractive_index(float(lam), Axis.Z)

    @given(
        lam=st.floats(min_value=0.4, max_value=3.9),
        axis=st.sampled_from([Axis.Y, Axis.Z]),
    )
    @settings(deadline=None, max_examples=60)
    def test_index_real_finite_above_one(self, lam, axis):
        n = KTP_KATO_2002.refractive_index(lam, axis)
        assert np.isfinite(n) and n > 1.0

    def test_pure_bit_identical(self, model):
        a = model.refractive_index(1.3456789, Axis.Y)
        b = model.refractive_index(1.3456789, Axis.Y)
        assert a == b


class TestWavenumber:
    def test_frozen_value(self, model):
        omega = omega_from_wavelength_um(1.310)
        assert model.wavenumber(omega, Axis.Z) == pytest.approx(K_1310_Z, rel=1e-12)

    def test_linear_in_omega_at_fixed_index(self, model):
        # k = omega n / c: doubling omega at frozen n doubles k
        omega = omega_from_wavelength_um(1.310)
        n = model.refractive_index(1.310, Axis.Z)
        assert model.wavenumber(omega, Axis.Z) == pytest.approx(omega * n / C_LIGHT, rel=1e-15)
        assert 2 * omega * n / C_LIGHT == pytest.approx(2 * model.wavenumber(omega, Axis.Z), rel=1e-15)

    def test_round_trip_against_2pi_n_over_lambda(self, model):
        lam_um = 1.550
        omega = omega_from_wavelength_um(lam_um)
        expected = 2 * math.pi * model.refractive_index(lam_um, Axis.Y) / (lam_um * 1e-6)
        assert model.wavenumber(omega, Axis.Y) == pytest.approx(expected, rel=1e-12)

    def test_positive(self, model):
        omega = omega_from_wavelength_um(0.71)
        assert model.wavenumber(omega, Axis.Y) > 0


def _finite_difference_igv(model, omega, axis, rel_step=1e-6):
    h = omega * rel_step
    return (model.wavenumber(omega + h, axis) - model.wavenumber(omega - h, axis)) / (2 * h)


class TestInverseGroupVelocity:
    @pytest.mark.parametrize(
        "lam_um,axis",
        [(1.310, Axis.Z), (1.550, Axis.Y), (0.710, Axis.Y), (2.750, Axis.Y)],
    )
    def test_matches_central_difference(self, model, lam_um, axis):
        omega = omega_from_wavelength_um(lam_um)
        analytic = model.inverse_group_velocity(omega, axis)
        numeric = _finite_difference_igv(model, omega, axis)
        assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_exceeds_phase_index_in_normal_dispersion(self, model):
        # KTP has dn/domega > 0 throughout, so k' > n/c
        for lam_um in (0.71, 1.31, 1.55):
            omega = omega_from_wavelength_um(lam_um)
            n_over_c = model.refractive_index(lam_um, Axis.Z) / C_LIGHT
            assert model.inverse_group_velocity(omega, Axis.Z) > n_over_c

    def test_window_error(self, model):
        with pytest.raises(OutOfTransparencyWindow):
            model.inverse_group_velocity(omega_from_wavelength_um(4.5), Axis.Z)


class TestArrayMatchesScalar:
    # 3.134786823690389 um on Z and 3.865187653742876 um on Y are wavelengths
    # where a squared difference written `** 2` on a numpy scalar (libm pow)
    # lands one bit away from the array square
    @pytest.mark.parametrize("axis", [Axis.Y, Axis.Z])
    def test_bit_identical_element_by_element(self, model, axis):
        rng = np.random.default_rng(11)
        lams = np.concatenate([
            [3.134786823690389, 3.865187653742876, 0.71, 1.31, 1.55],
            rng.uniform(*model.window_um, 2000),
        ])
        omegas = omega_from_wavelength_um(lams)
        igv = model.inverse_group_velocity(omegas, axis)
        k = model.wavenumber(omegas, axis)
        for i, omega in enumerate(omegas):
            assert igv[i] == model.inverse_group_velocity(float(omega), axis)
            assert k[i] == model.wavenumber(float(omega), axis)


class TestCoefficientFile:
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "set.txt"
        model.to_file(path)
        loaded = DispersionModel.from_file(path)
        assert loaded == model

    def test_override_changes_values(self, model, tmp_path):
        path = tmp_path / "set.txt"
        custom = DispersionModel(
            name="custom",
            y_coefficients=(3.0, 0.04, 0.05, 17.0, 39.0, 0.0),
            z_coefficients=(4.0, 0.06, 0.05, 111.0, 86.0, 0.0),
            window_um=(0.5, 3.5),
        )
        custom.to_file(path)
        loaded = DispersionModel.from_file(path)
        assert loaded.name == "custom"
        assert loaded.refractive_index(1.31, Axis.Z) != model.refractive_index(1.31, Axis.Z)
        with pytest.raises(OutOfTransparencyWindow):
            loaded.refractive_index(3.8, Axis.Z)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("name = broken\ny = 1 2 3 4 5 6\n")
        with pytest.raises(ValueError, match="missing keys"):
            DispersionModel.from_file(path)

    def test_bad_coefficient_count_rejected(self):
        with pytest.raises(ValueError, match="6 entries"):
            DispersionModel(
                name="bad",
                y_coefficients=(1.0, 2.0),
                z_coefficients=(4.59423, 0.06206, 0.04763, 110.80672, 86.12171, 0.0),
                window_um=(0.35, 4.0),
            )
