"""GVM geometry: idler wavelengths, angles, coherence lengths, scan maps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from purepole import (
    Axis,
    DispersionModel,
    EmptyRange,
    NonPositiveIdler,
    PhaseMatchConfig,
    gvm_angle,
    gvm_map,
    idler_wavelength,
    phase_mismatch_and_lc,
)
from purepole import gvm, textfmt
from purepole.gvm import write_gvm_map_csv

from conftest import CASES, case_config


def _per_row_formatter(comments, gmap, columns) -> str:
    """A map file as the writer formatted it before, one format call per
    cell: comments, header, then lambda_p, lambda_s, lambda_i and the
    columns of every cell."""
    row = ",".join(["{:.4f}"] * 3 + ["{:.6f}"] * len(columns))
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(["lambda_p_nm", "lambda_s_nm", "lambda_i_nm", *columns]))
    ls_nm = (gmap.lambda_s_um * 1e3).tolist()
    for i, lp_nm in enumerate((gmap.lambda_p_um * 1e3).tolist()):
        cells = [(gmap.lambda_i_um[i] * 1e3).tolist(), *(col[i].tolist() for col in columns.values())]
        lines.extend(row.format(lp_nm, ls, *values) for ls, *values in zip(ls_nm, *cells))
    return "\n".join(lines) + "\n"


class TestIdlerWavelength:
    def test_case_i(self):
        assert idler_wavelength(0.710, 1.310) == pytest.approx(1.5502, abs=5e-5)

    def test_degenerate(self):
        assert idler_wavelength(0.655, 1.310) == pytest.approx(1.310, rel=1e-12)

    def test_case_iv(self):
        assert idler_wavelength(0.7795, 1.310) == pytest.approx(1.925, abs=1e-3)

    def test_nonpositive_idler(self):
        with pytest.raises(NonPositiveIdler):
            idler_wavelength(1.310, 1.310)
        with pytest.raises(NonPositiveIdler):
            idler_wavelength(1.4, 1.3)

    @given(
        lp=st.floats(min_value=0.45, max_value=1.0),
        ls=st.floats(min_value=1.05, max_value=3.0),
    )
    @settings(deadline=None, max_examples=80)
    def test_involution_consistency(self, lp, ls):
        li = idler_wavelength(lp, ls)
        assert idler_wavelength(lp, li) == pytest.approx(ls, rel=1e-12)

    @given(lp=st.floats(min_value=0.45, max_value=1.2))
    @settings(deadline=None, max_examples=40)
    def test_degenerate_line(self, lp):
        assert idler_wavelength(lp, 2 * lp) == pytest.approx(2 * lp, rel=1e-12)


class TestGvmAngle:
    def test_case_i(self, model):
        assert gvm_angle(model, 0.710, 1.310, Axis.Z) == pytest.approx(26.0, abs=2.0)

    def test_case_iv(self, model):
        assert gvm_angle(model, 0.7795, 1.310, Axis.Z) == pytest.approx(45.0, abs=2.0)

    def test_case_vii_y_signal(self, model):
        # heralded 1310 nm photon is Y-polarized; partner at 1120 nm on Z
        assert gvm_angle(model, 0.6038, 1.310, Axis.Y) == pytest.approx(89.0, abs=2.0)

    def test_folded_range(self, model):
        for name, row in CASES.items():
            th = gvm_angle(model, row.pump_um, row.signal_um, row.signal_axis)
            assert -90.0 < th <= 90.0


class TestPhaseMismatch:
    @pytest.mark.parametrize("name,lc_um", [("i", 18.86), ("ii", 39.50), ("ix", 78.95)])
    def test_coherence_lengths(self, model, name, lc_um):
        gp = phase_mismatch_and_lc(model, case_config(name))
        assert gp.coherence_length_m * 1e6 == pytest.approx(lc_um, rel=0.05)

    def test_lc_dk0_product(self, model):
        for name in CASES:
            gp = phase_mismatch_and_lc(model, case_config(name))
            assert gp.coherence_length_m * abs(gp.delta_k0) == pytest.approx(math.pi, rel=1e-12)

    def test_energy_conservation_enforced(self):
        # the idler is derived, so no config can break energy conservation
        cfg = PhaseMatchConfig(0.710, 1.310, Axis.Z)
        assert cfg.lambda_i_um == idler_wavelength(0.710, 1.310)
        assert 1 / cfg.lambda_p_um == pytest.approx(1 / cfg.lambda_s_um + 1 / cfg.lambda_i_um,
                                                    rel=1e-15)
        with pytest.raises(TypeError, match="lambda_i_um"):
            PhaseMatchConfig(lambda_p_um=0.710, lambda_s_um=1.310, lambda_i_um=1.500,
                             signal_axis=Axis.Z)
        with pytest.raises(NonPositiveIdler):
            PhaseMatchConfig(0.71, 0.70, Axis.Z)

    def test_type_ii_required(self):
        # the idler takes the other axis and the pump is Y, by construction
        for signal, idler in ((Axis.Z, Axis.Y), (Axis.Y, Axis.Z)):
            cfg = PhaseMatchConfig(0.710, 1.310, signal)
            assert (cfg.signal_axis, cfg.idler_axis, cfg.pump_axis) == (signal, idler, Axis.Y)
        assert [f.name for f in dataclasses.fields(PhaseMatchConfig)] == [
            "lambda_p_um", "lambda_s_um", "signal_axis", "length_m"]
        with pytest.raises(TypeError, match="idler_axis"):
            PhaseMatchConfig(lambda_p_um=0.710, lambda_s_um=1.310, signal_axis=Axis.Z,
                             idler_axis=Axis.Z)

    @given(pump=st.floats(0.3, 2.0), ratio=st.floats(1.0001, 10.0))
    @settings(deadline=None, max_examples=200)
    def test_idler_keeps_its_bits(self, pump, ratio):
        # the expression from_pump_signal stored before the idler was derived
        signal = pump * ratio
        cfg = PhaseMatchConfig.from_pump_signal(pump, signal, Axis.Z)
        assert cfg.lambda_i_um == 1.0 / (1.0 / pump - 1.0 / signal)

    @pytest.mark.parametrize("pump, length", [(0.0, 5e-3), (-0.71, 5e-3), (0.71, 0.0)])
    def test_nonpositive_input_rejected(self, pump, length):
        with pytest.raises(ValueError, match="positive"):
            PhaseMatchConfig(pump, 1.310, Axis.Z, length)


class TestGvmMap:
    def test_single_point_case_i(self, model):
        gmap = gvm_map(model, (0.710, 0.710), (1.310, 1.310), Axis.Z)
        assert gmap.theta_deg.shape == (1, 1)
        assert gmap.theta_deg[0, 0] == pytest.approx(26.0, abs=2.0)
        assert gmap.coherence_length_um[0, 0] == pytest.approx(18.86, rel=0.05)

    def test_map_cell_bit_identical_to_point_query(self, model):
        # the window holds masked idlers, negative angles and signal <= pump
        for axis in (Axis.Y, Axis.Z):
            gmap = gvm_map(model, (0.40, 1.20), (0.5, 3.0), axis,
                           pump_step_um=0.02, signal_step_um=0.05)
            valid = np.isfinite(gmap.coherence_length_um)
            assert valid.any() and not valid.all()
            assert np.any(gmap.lambda_s_um[None, :] <= gmap.lambda_p_um[:, None])
            negative = 0
            for i, lp in enumerate(gmap.lambda_p_um):
                for j, ls in enumerate(gmap.lambda_s_um):
                    if not valid[i, j]:
                        assert np.isnan(gmap.theta_deg[i, j])
                        continue
                    theta = gvm_angle(model, lp, ls, axis)
                    cfg = PhaseMatchConfig.from_pump_signal(lp, ls, axis)
                    assert gmap.coherence_length_um[i, j] == (
                        phase_mismatch_and_lc(model, cfg).coherence_length_m * 1e6)
                    if 0.0 <= theta <= 90.0:
                        assert gmap.theta_deg[i, j] == theta
                    else:
                        negative += theta < 0.0
                        assert np.isnan(gmap.theta_deg[i, j])
            assert negative > 0

    def test_wavenumber_calls_independent_of_map_size(self, model, monkeypatch):
        calls = []
        wavenumber = DispersionModel.wavenumber

        def counting(self, omega, axis):
            calls.append(axis)
            return wavenumber(self, omega, axis)

        monkeypatch.setattr(DispersionModel, "wavenumber", counting)
        counts = []
        for step in (0.01, 0.001):
            calls.clear()
            gvm_map(model, (0.60, 0.80), (1.30, 1.60), Axis.Z,
                    pump_step_um=step, signal_step_um=step)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3

    def test_idler_beyond_4um_masked(self, model):
        # lambda_i = 1/(1/0.72 - 1/0.87) = 4.176 um, outside the window
        gmap = gvm_map(model, (0.72, 0.72), (0.87, 0.87), Axis.Z)
        assert np.isnan(gmap.theta_deg[0, 0])
        assert np.isnan(gmap.coherence_length_um[0, 0])

    def test_degenerate_diagonal_included(self, model):
        gmap = gvm_map(model, (0.655, 0.655), (1.310, 1.310), Axis.Z)
        assert gmap.lambda_i_um[0, 0] == pytest.approx(1.310, rel=1e-12)
        assert np.isfinite(gmap.coherence_length_um[0, 0])

    def test_theta_outside_convention_masked_but_lc_reported(self, model):
        # theta_Z(0.55 um, 1.4 um) = -22 deg: outside the [0, 90] convention
        assert gvm_angle(model, 0.55, 1.4, Axis.Z) < 0.0
        gmap = gvm_map(model, (0.55, 0.55), (1.4, 1.4), Axis.Z)
        assert np.isnan(gmap.theta_deg[0, 0])
        assert np.isfinite(gmap.coherence_length_um[0, 0])

    @pytest.mark.parametrize("lo, hi, step, points", [
        (0.7, 0.72, 0.01, 3), (0.7, 0.7, 1.0, 1), (0.72, 0.7, 0.01, 0),
        (0.55, 1.0, 0.0005, 901), (1.27, 1.59, 0.02, 17)])
    def test_scan_points_counts_the_axis(self, model, lo, hi, step, points):
        assert gvm.scan_points(lo, hi, step) == points
        if points:
            assert gvm._scan_axis(lo, hi, step).size == points

    @pytest.mark.parametrize("step", [0.0, -1.0, 5e-324])
    def test_scan_points_needs_a_positive_step_and_a_finite_count(self, step):
        with pytest.raises(ValueError):
            gvm.scan_points(0.7, 1e300, step)

    def test_empty_range(self, model):
        with pytest.raises(EmptyRange):
            gvm_map(model, (0.72, 0.70), (1.30, 1.32), Axis.Z)

    def test_signal_below_pump_masked(self, model):
        gmap = gvm_map(model, (1.0, 1.0), (0.9, 0.9), Axis.Z)
        assert np.isnan(gmap.theta_deg[0, 0])

    def test_csv_export(self, model, tmp_path):
        gmap = gvm_map(model, (0.710, 0.710), (1.310, 1.310), Axis.Z)
        dest = tmp_path / "map.csv"
        write_gvm_map_csv(dest, gmap, header_lines=["digest: abc"])
        text = dest.read_text()
        assert text.startswith("# digest: abc")
        assert "lambda_p_nm,lambda_s_nm,lambda_i_nm,theta_deg,l_c_um" in text
        row = text.strip().splitlines()[-1].split(",")
        assert float(row[0]) == pytest.approx(710.0)
        assert float(row[4]) == pytest.approx(18.86, rel=0.05)

    def test_csv_rows_format_each_cell(self, model, tmp_path):
        # masked and invalid cells included; each row formats its cell's values
        gmap = gvm_map(model, (0.55, 0.72), (0.6, 1.4), Axis.Z,
                       pump_step_um=0.01, signal_step_um=0.1)
        write_gvm_map_csv(tmp_path / "theta.csv", gmap, header_lines=["h"], lc_path=tmp_path / "lc.csv")
        theta_rows = (tmp_path / "theta.csv").read_text().splitlines()
        lc_rows = (tmp_path / "lc.csv").read_text().splitlines()
        assert theta_rows[:3] == ["# h", "# signal_axis: Z",
                                  "lambda_p_nm,lambda_s_nm,lambda_i_nm,theta_deg,l_c_um"]
        assert lc_rows[:2] == ["# h", "lambda_p_nm,lambda_s_nm,lambda_i_nm,l_c_um"]
        expected_theta, expected_lc = [], []
        for i, lp in enumerate(gmap.lambda_p_um):
            for j, ls in enumerate(gmap.lambda_s_um):
                cell = f"{lp * 1e3:.4f},{ls * 1e3:.4f},{gmap.lambda_i_um[i, j] * 1e3:.4f}"
                lc = gmap.coherence_length_um[i, j]
                expected_theta.append(f"{cell},{gmap.theta_deg[i, j]:.6f},{lc:.6f}")
                expected_lc.append(f"{cell},{lc:.6f}")
        assert theta_rows[3:] == expected_theta
        assert lc_rows[2:] == expected_lc
        assert (tmp_path / "lc.csv").read_text() == _per_row_formatter(
            ["h"], gmap, {"l_c_um": gmap.coherence_length_um})
        assert any("nan" in row for row in expected_lc)
        assert any("nan" not in row for row in expected_lc)

    def test_maps_larger_than_a_block_equal_the_per_row_formatter(self, model, tmp_path):
        # 341 x 17 cells, several blocks that end inside pump rows; masked
        # and invalid cells, and negative, infinite and tied values in the
        # first and the last block
        gmap = gvm_map(model, (0.55, 0.72), (0.6, 1.4), Axis.Z,
                       pump_step_um=0.0005, signal_step_um=0.05)
        cells = gmap.theta_deg.size
        assert cells > 3 * textfmt._POINT_BLOCK // 5 and cells % (textfmt._POINT_BLOCK // 5) != 0
        theta, lc = gmap.theta_deg.copy(), gmap.coherence_length_um.copy()
        theta[0, :4] = [-12.5, -0.0, -np.inf, 0.0000005]
        theta[-1, -4:] = [97.25, np.inf, -1e-9, 1e300]
        lc[-1, 0] = 2.0**52
        gmap = dataclasses.replace(gmap, theta_deg=theta, coherence_length_um=lc)
        write_gvm_map_csv(tmp_path / "theta.csv", gmap, header_lines=["h"],
                          lc_path=tmp_path / "lc.csv")
        assert (tmp_path / "theta.csv").read_bytes() == _per_row_formatter(
            ["h", "signal_axis: Z"], gmap, {"theta_deg": theta, "l_c_um": lc}).encode()
        assert (tmp_path / "lc.csv").read_bytes() == _per_row_formatter(
            ["h"], gmap, {"l_c_um": lc}).encode()

    def test_both_files_in_one_pass_equal_the_per_row_formatter(self, model, tmp_path):
        # masked and invalid cells, and theta values outside [0, 90] (which
        # gvm_map itself masks) to show that every value is printed as given
        gmap = gvm_map(model, (0.55, 0.72), (0.6, 1.4), Axis.Z,
                       pump_step_um=0.01, signal_step_um=0.1)
        theta = gmap.theta_deg.copy()
        theta[1, 2], theta[2, 3], theta[3, 4] = -12.5, 97.25, np.inf
        gmap = dataclasses.replace(gmap, theta_deg=theta)
        write_gvm_map_csv(tmp_path / "theta.csv", gmap, header_lines=["h", "k"],
                          lc_path=tmp_path / "lc.csv")
        # without lc_path, the theta file alone, and no l_c file
        write_gvm_map_csv(tmp_path / "theta_alone.csv", gmap, header_lines=["h", "k"])
        for name, columns, comments in (
            ("theta.csv", {"theta_deg": theta, "l_c_um": gmap.coherence_length_um},
             ["h", "k", "signal_axis: Z"]),
            ("theta_alone.csv", {"theta_deg": theta, "l_c_um": gmap.coherence_length_um},
             ["h", "k", "signal_axis: Z"]),
            ("lc.csv", {"l_c_um": gmap.coherence_length_um}, ["h", "k"]),
        ):
            want = _per_row_formatter(comments, gmap, columns)
            assert (tmp_path / name).read_bytes() == want.encode()
        assert "-12.500000" in (tmp_path / "theta.csv").read_text()
