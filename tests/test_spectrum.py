"""Spectral machinery: envelopes, PMFs, grids, bandwidths, JSA assembly."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c as C_LIGHT

from purepole import (
    Axis,
    DomainArray,
    DutyCycleStructure,
    JointSpectrum,
    PeakOnBoundary,
    PhaseMatchConfig,
    PumpSpec,
    build_jsa,
    dc_domains,
    estimate_bandwidths,
    make_grid,
    measure_delta_omega,
    periodic_domains,
    phase_mismatch_and_lc,
    pmf_piecewise,
    pmf_pp_analytic,
    pump_envelope,
    purity,
    schmidt_decompose,
    standard_jsa,
)
from purepole import spectrum, textfmt
from purepole.cli import PRESETS
from purepole.spectrum import (
    LATTICE_NODES_PER_PERIOD,
    LATTICE_STENCIL,
    delta_k_grid,
    read_jsa_binary,
    write_jsa_binary,
    write_jsa_csv,
)
from purepole.dispersion import wavelength_um_from_omega

from conftest import case_config, preset_structures


@pytest.fixture(scope="module")
def pump_i():
    return PumpSpec.from_bandwidth_nm(0.710, 3.07)


class TestPumpSpec:
    def test_bandwidth_round_trip(self):
        pump = PumpSpec.from_bandwidth_nm(0.710, 3.07)
        assert pump.bandwidth_nm == pytest.approx(3.07, rel=1e-12)

    @pytest.mark.parametrize("bandwidth", [3.0, 3, 1.7133511972345823, 0.05, 50.0])
    def test_keeps_the_bandwidth_it_was_built_from(self, bandwidth):
        # the bandwidth is the record's input, not a value computed back from
        # sigma_p (which brings 3 nm back as 3.0000000000000004)
        pump = PumpSpec.from_bandwidth_nm(0.710, bandwidth)
        assert type(pump.bandwidth_nm) is float and pump.bandwidth_nm == bandwidth
        for other in (bandwidth, 3.0, 0.3):
            assert dataclasses.replace(pump, bandwidth_nm=other).bandwidth_nm == other

    def test_pumps_compare_by_wavelength_and_bandwidth(self):
        pump = PumpSpec.from_bandwidth_nm(0.710, 3.0)
        same = PumpSpec(lambda_p_um=0.710, bandwidth_nm=3.0)
        assert pump == same and hash(pump) == hash(same) and repr(pump) == repr(same)
        assert [f.name for f in dataclasses.fields(PumpSpec)] == ["lambda_p_um", "bandwidth_nm"]
        # a pump made from another one derives its width from its own bandwidth
        wider = dataclasses.replace(pump, bandwidth_nm=6.0)
        assert wider != pump and wider.sigma_p == pytest.approx(2.0 * pump.sigma_p, rel=1e-15)
        assert wider.omega_p0 == pump.omega_p0

    @given(lambda_p=st.floats(0.3, 5.0), bandwidth=st.floats(1e-3, 100.0))
    @settings(deadline=None, max_examples=200)
    def test_derived_frequency_and_width_keep_their_bits(self, lambda_p, bandwidth):
        # the expressions from_bandwidth_nm stored before they were derived
        pump = PumpSpec.from_bandwidth_nm(lambda_p, bandwidth)
        lam = lambda_p * 1e-6
        c = spectrum.C_LIGHT
        assert pump.omega_p0 == 2.0 * math.pi * c / lam
        dw_fwhm = 2.0 * math.pi * c / lam**2 * (bandwidth * 1e-9)
        assert pump.sigma_p == dw_fwhm / math.sqrt(2.0 * math.log(2.0))

    @pytest.mark.parametrize("lambda_p, bandwidth", [
        (0.710, 0.0), (0.710, -1.0), (-0.710, 3.0), (0.710, math.nan), (0.710, math.inf)])
    def test_nonpositive_input_rejected(self, lambda_p, bandwidth):
        with pytest.raises(ValueError, match="positive"):
            PumpSpec(lambda_p, bandwidth)

    def test_documented_conversion(self):
        # sigma_p = (2 pi c / lambda^2) * dl / sqrt(2 ln 2)
        from scipy.constants import c

        pump = PumpSpec.from_bandwidth_nm(0.710, 3.07)
        dw_fwhm = 2 * math.pi * c / (0.710e-6) ** 2 * 3.07e-9
        assert pump.sigma_p == pytest.approx(dw_fwhm / math.sqrt(2 * math.log(2)), rel=1e-12)

    def test_envelope_peak_and_width(self, pump_i):
        w0 = pump_i.omega_p0
        assert pump_envelope(w0 / 2, w0 / 2, pump_i) == pytest.approx(1.0)
        assert pump_envelope(w0 / 2, w0 / 2 + pump_i.sigma_p, pump_i) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    @given(
        split=st.floats(min_value=-3e12, max_value=3e12),
        detune=st.floats(min_value=-5e12, max_value=5e12),
    )
    @settings(deadline=None, max_examples=50)
    def test_envelope_depends_only_on_sum(self, split, detune):
        pump = PumpSpec.from_bandwidth_nm(0.710, 3.0)
        base = pump.omega_p0 / 2
        a = pump_envelope(base + detune + split, base - split, pump)
        b = pump_envelope(base - split, base + detune + split, pump)
        assert a == b


class TestPmfAnalytic:
    def test_peak_magnitude(self):
        lc, length = 20e-6, 5e-3
        assert abs(pmf_pp_analytic(math.pi / lc, lc, length)) == pytest.approx(2 / math.pi, rel=1e-12)

    def test_first_zero(self):
        lc, length = 20e-6, 5e-3
        dk = math.pi / lc + 2 * math.pi / length
        assert abs(pmf_pp_analytic(dk, lc, length)) < 1e-12

    def test_first_side_lobe(self):
        lc, length = 20e-6, 5e-3
        dk = math.pi / lc + 3 * math.pi / length
        assert abs(pmf_pp_analytic(dk, lc, length)) == pytest.approx(
            (2 / math.pi) * (2 / (3 * math.pi)), rel=1e-12
        )


class TestPmfPiecewise:
    def test_single_segment_dk_zero(self):
        length = 5e-3
        arr = DomainArray(width_m=length, signs=np.array([1]))
        assert pmf_piecewise(0.0, arr) == pytest.approx(length, rel=1e-15)

    def test_balanced_pair_cancels(self):
        w = 25e-6
        arr = DomainArray(width_m=w, signs=np.array([1, -1]))
        assert abs(pmf_piecewise(0.0, arr)) < 1e-18
        assert abs(pmf_piecewise(2 * math.pi / w, arr)) < 1e-12 * w

    def test_matches_analytic_over_central_lobe(self):
        lc = 20e-6
        arr = periodic_domains(5e-3, lc)
        length = arr.length_m
        dk = math.pi / lc + np.linspace(-2 * math.pi / length, 2 * math.pi / length, 41)
        exact = np.abs(pmf_piecewise(dk, arr))
        # the analytic response is normalized to 2/pi at peak; the piecewise
        # integral carries length units
        approx = np.abs(pmf_pp_analytic(dk, lc, length)) * length
        # 1% agreement, absolute near the lobe-edge zeros
        np.testing.assert_allclose(exact, approx, rtol=0.01, atol=0.01 * exact.max())

    def test_continuity_through_small_dk_switchover(self):
        length = 5e-3
        bulk = DomainArray(width_m=length, signs=np.array([1]))
        below = pmf_piecewise(0.999e-8 / length, bulk)
        above = pmf_piecewise(1.001e-8 / length, bulk)
        assert below == pytest.approx(above, rel=1e-10)
        # the dk -> 0 limit sum(A_j w_j) is reproduced exactly at dk = 0
        assert pmf_piecewise(0.0, bulk) == length

    def test_horner_matches_direct_segment_sum(self):
        rng = np.random.default_rng(11)
        signs = rng.choice([1, -1], size=3200).astype(np.int8)
        arr = DomainArray(width_m=1.5e-6, signs=signs)
        dk = rng.uniform(1e5, 4e5, size=64)
        fast = pmf_piecewise(dk, arr)
        z_start, z_end, sign = arr.segments()
        direct = np.zeros(dk.size, dtype=complex)
        for zs, ze, a in zip(z_start, z_end, sign):
            direct += a * (np.exp(1j * dk * ze) - np.exp(1j * dk * zs)) / (1j * dk)
        np.testing.assert_allclose(fast, direct, rtol=1e-10, atol=1e-10 * arr.length_m)

    def test_sinc_envelope_symmetry(self):
        lc = 20e-6
        arr = periodic_domains(8.0e-3 + 1e-9, lc)  # even domain count (400)
        assert arr.n_domains % 2 == 0
        center = math.pi / lc
        offsets = np.linspace(0, 2 * math.pi / arr.length_m, 21)
        hi = np.abs(pmf_piecewise(center + offsets, arr))
        lo = np.abs(pmf_piecewise(center - offsets, arr))
        np.testing.assert_allclose(hi, lo, rtol=0.01, atol=0.01 * hi.max())

    def test_duty_cycle_half_equals_periodic(self):
        # even unit-cell count so both structures cover the same length
        lc = 20e-6
        length = 40 * lc + 1e-12
        pp = periodic_domains(length, lc)
        dc = dc_domains(length, lc, np.full(20, 0.5))
        assert pp.n_domains == 40
        dk = np.linspace(0.2 * math.pi / lc, 2.5 * math.pi / lc, 301)
        a = pmf_piecewise(dk, pp)
        b = pmf_piecewise(dk, dc)
        # zeros of the response need an absolute floor; 1e-12 of the
        # structure scale is still far below any physical feature
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * length)

    def test_performance_contract_400x400_3200_domains(self):
        rng = np.random.default_rng(3)
        arr = DomainArray(width_m=1.5e-6, signs=rng.choice([1, -1], 3200).astype(np.int8))
        dk = rng.uniform(1e5, 4e5, size=400 * 400)
        t0 = time.perf_counter()
        pmf_piecewise(dk, arr)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"400x400 x 3200 domains took {elapsed:.1f} s"


def _per_segment_sum(dk, structure):
    """The phase-matching function summed one segment at a time."""
    out = np.zeros(np.shape(dk), dtype=complex)
    for zs, ze, a in zip(*structure.segments()):
        w = ze - zs
        out += a * w * np.sinc(0.5 * w * dk / np.pi) * np.exp(0.5j * (zs + ze) * dk)
    return out


def _lattice_step(structure):
    return 2 * math.pi / (structure.length_m * LATTICE_NODES_PER_PERIOD)


def _standard_grid(model, cfg, gp, pp, r_mult):
    """The standard grid of range r_mult dw for the preset's PP crystal at 2 nm."""
    pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 2.0)
    dw = measure_delta_omega(model, cfg, pp, pump, gp.theta_deg)
    return make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=r_mult)


def _standard_delta_k(model, cfg, gp, pp, r_mult):
    """Sign-normalised dk on the standard grid of the preset's PP crystal."""
    grid = _standard_grid(model, cfg, gp, pp, r_mult)
    dk, _ = delta_k_grid(model, cfg, grid, mask_invalid=True)
    return math.copysign(1.0, gp.delta_k0) * dk.ravel()


def _table_cell_polynomials(structure):
    """(first block, sub-cell coefficients, degree-11 cell polynomials of
    shape (cells, LATTICE_STENCIL)) of the structure's table, the cell
    polynomials formed from its stored node sums with the cell's
    e^{i dk_mid L/2} as the kernel rounds it."""
    first, coef = structure.pmf_table["subcells"]
    n_cells = coef.shape[1] // spectrum.SUBCELLS
    lead = spectrum._TABLE_BLOCK - (LATTICE_STENCIL // 2 - 1)
    nodes = structure.pmf_table["nodes"].ravel()[lead : lead + n_cells + LATTICE_STENCIL - 1]
    windows = np.lib.stride_tricks.sliding_window_view(nodes, LATTICE_STENCIL)
    length = structure.length_m
    mids = spectrum._lattice_step(length) * (first * spectrum._TABLE_BLOCK + np.arange(n_cells) + 0.5)
    cells = (windows @ spectrum._interval_polynomials()) * np.exp(0.5j * length * mids)[:, None]
    return first, coef, cells


def _assert_lattice_matches_segment_sum(dk, structure, rng):
    # the lattice path is taken, and compared at the peak plus 1500 points
    assert spectrum._lattice(dk, structure.length_m) is not None
    fast = pmf_piecewise(dk, structure)
    pick = np.append(rng.choice(dk.size, 1500, replace=False), np.argmax(np.abs(fast)))
    exact = _per_segment_sum(dk[pick], structure)
    err = np.max(np.abs(fast[pick] - exact)) / np.max(np.abs(exact))
    assert err <= 1e-10, f"lattice error {err:.2e} of max|Phi|"


class TestPmfLattice:
    """The Δk-lattice evaluation of `pmf_piecewise` against the exact sum."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_standard_grid(self, model, preset):
        cfg, gp, structures = preset_structures(model, preset)
        assert {"pp", "scl-10", "dc"} <= set(structures)
        dk = _standard_delta_k(model, cfg, gp, structures["pp"], 10.0)
        rng = np.random.default_rng(0)
        for structure in structures.values():
            _assert_lattice_matches_segment_sum(dk, structure, rng)

    def test_wide_range_grid(self, model):
        cfg, gp, structures = preset_structures(model, "o-band-i")
        dk = _standard_delta_k(model, cfg, gp, structures["pp"], 50.0)
        assert dk.size == 1000 * 1000
        rng = np.random.default_rng(1)
        for label in ("pp", "scl-10", "dc"):
            _assert_lattice_matches_segment_sum(dk, structures[label], rng)

    def test_both_sides_of_the_size_rule_agree(self, monkeypatch):
        arr = periodic_domains(5e-3, 20e-6)
        step = _lattice_step(arr)
        # 40.5 steps of dk inside the anchored cells c0 .. c0 + 40: 41 lattice
        # cells, 41 + LATTICE_STENCIL - 1 nodes
        n_nodes = 41 + LATTICE_STENCIL - 1
        c0 = math.floor(math.pi / 20e-6 / step) - 20
        below = step * (c0 + np.linspace(0.25, 40.75, 2 * n_nodes - 1))
        above = np.append(below, below[0])
        assert spectrum._lattice(below, arr.length_m) is None
        assert spectrum._lattice(above, arr.length_m) == (c0, c0 + 40)
        summed = []
        real_sum = spectrum._segment_sum

        def counting_sum(dk, *segments):
            summed.append(dk.size)
            return real_sum(dk, *segments)

        monkeypatch.setattr(spectrum, "_segment_sum", counting_sum)
        phi_below = pmf_piecewise(below, arr)
        phi_above = pmf_piecewise(above, arr)
        # the exact sum at every point; the array's table takes its node sums
        # from its sign spectrum, with no block sum
        assert summed == [below.size]
        scale = np.max(np.abs(phi_below))
        assert np.max(np.abs(phi_above[:-1] - phi_below)) <= 1e-12 * scale
        assert phi_above[-1] == phi_above[0]
        # the same cells of the same crystal as duty cycles: the table sums
        # the aligned node blocks around the cell blocks of c0 .. c0 + 40
        duty = dc_domains(arr.length_m, 20e-6, np.full(arr.n_domains // 2, 0.5))
        assert duty.length_m == arr.length_m
        summed.clear()
        phi_duty = pmf_piecewise(above, duty)
        block = spectrum._TABLE_BLOCK
        cell_blocks = (c0 + 40) // block - c0 // block + 1
        assert summed == [block] * (cell_blocks + 2)
        assert np.max(np.abs(phi_duty - phi_above)) <= 1e-12 * scale

    @pytest.mark.parametrize("n_domains", [1, 2, 133, 400, 1516, 3792])
    def test_sign_spectrum_node_sums(self, n_domains):
        # a uniform-width array's node sums from its sign spectrum against the
        # per-segment sum: below, at and above n = 0, and across n = +-16N,
        # where the spectrum wraps around
        rng = np.random.default_rng(n_domains)
        arr = DomainArray(width_m=rng.uniform(1e-6, 5e-5), signs=rng.choice([1, -1], n_domains))
        period = LATTICE_NODES_PER_PERIOD * n_domains
        nodes = np.concatenate([np.arange(-70, 71), np.arange(period - 70, period + 71),
                                np.arange(-period - 70, -period + 71)])
        fast = spectrum._domain_node_sums(arr, nodes)
        exact = spectrum._segment_sum(_lattice_step(arr) * nodes, *spectrum._segments(arr))
        assert np.max(np.abs(fast - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert arr.pmf_table["sign_spectrum"].shape == (period,)

    def test_sign_spectrum_tables_grow_bit_for_bit(self):
        # the node blocks and values of a table filled cold equal those of
        # tables first filled above or below the points, then grown down or up
        rng = np.random.default_rng(7)
        arr = DomainArray(width_m=9.4e-6, signs=rng.choice([1, -1], 1516))
        step = _lattice_step(arr)
        block = spectrum._TABLE_BLOCK
        # cells from just below n = 0 to past n = 16N, where the spectrum wraps
        period = LATTICE_NODES_PER_PERIOD * arr.n_domains
        dk = step * rng.uniform(-40.0, period + 40.0, 4 * period)
        cold = dataclasses.replace(arr)
        from_cold = pmf_piecewise(dk, cold)
        spectrum_cold = cold.pmf_table["sign_spectrum"]
        first, coef = cold.pmf_table["subcells"]
        nodes = cold.pmf_table["nodes"]
        for shift in (3, -3):
            warm = dataclasses.replace(arr)
            pmf_piecewise(dk + shift * block * step, warm)
            spectrum_warm = warm.pmf_table["sign_spectrum"]
            assert np.array_equal(pmf_piecewise(dk, warm), from_cold)
            assert warm.pmf_table["sign_spectrum"] is spectrum_warm
            assert np.array_equal(spectrum_warm, spectrum_cold)
            start, span = warm.pmf_table["subcells"]
            assert start == min(first, first + shift)
            rows = first - start
            assert np.array_equal(span[:, rows * block * spectrum.SUBCELLS:][:, :coef.shape[1]], coef)
            assert np.array_equal(warm.pmf_table["nodes"][rows : rows + len(nodes)], nodes)
        exact = _per_segment_sum(dk, arr)
        assert np.max(np.abs(from_cold - exact)) <= 1e-10 * np.max(np.abs(exact))

    def test_values_on_lattice_nodes(self):
        arr = dc_domains(5e-3, 20e-6, np.linspace(0.2, 0.8, 125))
        step = _lattice_step(arr)
        # the nodes are the integer multiples of the step: these points sit
        # exactly on them
        lowest = round(math.pi / 20e-6 / step) - 20
        dk = step * (lowest + np.repeat(np.arange(40), 10))
        assert spectrum._lattice(dk, arr.length_m) is not None
        phi = pmf_piecewise(dk, arr)
        exact = _per_segment_sum(dk, arr)
        assert np.all(np.isfinite(phi))
        assert np.max(np.abs(phi - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_values_do_not_depend_on_the_table(self, model):
        cfg, gp, structures = preset_structures(model, "o-band-i")
        dk = _standard_delta_k(model, cfg, gp, structures["pp"], 10.0)
        blocks = spectrum._TABLE_BLOCK * _lattice_step(structures["pp"])
        width = spectrum.SUBCELLS * spectrum._TABLE_BLOCK  # columns per block
        for structure in structures.values():
            cold, warm = dataclasses.replace(structure), dataclasses.replace(structure)
            from_cold = pmf_piecewise(dk, cold)
            first, coef = cold.pmf_table["subcells"]
            assert coef.shape[0] == spectrum.SUBCELL_DEGREE + 1 and coef.shape[1] % width == 0
            assert len(cold.pmf_table["nodes"]) == coef.shape[1] // width + 2
            # warm the table on an overlapping range shifted by 37.3 steps
            pmf_piecewise(dk[::7] + 37.3 * _lattice_step(structure), warm)
            assert np.array_equal(pmf_piecewise(dk, warm), from_cold)
            # and a table that already holds every block gives them again
            assert np.array_equal(pmf_piecewise(dk, cold), from_cold)
            assert cold.pmf_table["subcells"][1] is coef
            # a span built three blocks above the points grows downward to
            # them, one built three blocks below grows upward
            for shift, grows in ((3.0, "down"), (-3.0, "up")):
                other = dataclasses.replace(structure)
                pmf_piecewise(dk + shift * blocks, other)
                before = other.pmf_table["subcells"][0]
                assert np.array_equal(pmf_piecewise(dk, other), from_cold)
                after, span = other.pmf_table["subcells"]
                if grows == "down":
                    assert after == first < before
                else:
                    assert after == before < first
                assert span.flags.c_contiguous and span.shape[1] >= coef.shape[1] + 3 * width
                assert len(other.pmf_table["nodes"]) == span.shape[1] // width + 2

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_subcells_reproduce_the_cell_polynomial(self, model, preset):
        # each stored sub-cell polynomial against the degree-11 polynomial of
        # its cell, formed here from the stored node sums, on a dense sample
        # of every cell of the tables the standard grid needs; and the stored
        # rows, fitted by one fused matrix, against the two stages it fuses:
        # the cell polynomial, then its Chebyshev sub-cell interpolants
        degrees = spectrum.SUBCELL_DEGREE + 1
        two_stage = spectrum._interval_polynomials() @ spectrum._subcell_polynomials().T
        assert np.array_equal(spectrum._SUBCELL_FIT, two_stage.reshape(
            LATTICE_STENCIL, degrees, spectrum.SUBCELLS).transpose(1, 0, 2))
        cfg, gp, structures = preset_structures(model, preset)
        dk = _standard_delta_k(model, cfg, gp, structures["pp"], 10.0)
        s = np.linspace(-0.5, 0.5, 2001)
        sub = np.minimum(np.floor((s + 0.5) * spectrum.SUBCELLS), spectrum.SUBCELLS - 1)
        u = (s + 0.5) * spectrum.SUBCELLS - sub - 0.5
        for structure in structures.values():
            pmf_piecewise(dk, structure)
            _, coef, cells = _table_cell_polynomials(structure)
            # the scale of the table is its largest cell value; a cell far
            # from phase matching, whose own coefficients nearly cancel,
            # keeps the absolute error and not a relative one
            scale = np.max(np.abs(cells[:, 0]))
            staged = spectrum._subcell_polynomials() @ cells.T  # [j SUBCELLS + q, cell]
            staged = staged.reshape(degrees, spectrum.SUBCELLS, -1).transpose(0, 2, 1)
            assert np.max(np.abs(coef - staged.reshape(degrees, -1))) <= 2e-15 * scale
            want = np.polynomial.polynomial.polyval(s, cells.T)
            index = spectrum.SUBCELLS * np.arange(len(cells))[:, None] + sub.astype(int)
            got = spectrum._horner(coef, index, u)
            assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        width=st.floats(1e-6, 5e-5),
        duty=st.booleans(),
        dk0=st.floats(0.0, 4e5),
        periods=st.floats(0.0, 40.0),
    )
    @settings(deadline=None, max_examples=40)
    def test_lattice_matches_exact_sum(self, seed, n, width, duty, dk0, periods):
        rng = np.random.default_rng(seed)
        if duty:
            structure = DutyCycleStructure(period_m=2 * width, fractions=rng.uniform(0.0, 1.0, n))
        else:
            structure = DomainArray(width_m=width, signs=rng.choice([1, -1], n))
        step = _lattice_step(structure)
        cells = periods * LATTICE_NODES_PER_PERIOD
        size = 2 * (int(cells) + LATTICE_STENCIL) + 16
        dk = dk0 + step * cells * rng.uniform(-0.5, 0.5, size)
        assert spectrum._lattice(dk, structure.length_m) is not None
        np.testing.assert_allclose(pmf_piecewise(dk, structure), _per_segment_sum(dk, structure),
                                   rtol=1e-10, atol=1e-10 * structure.length_m)


def _n2_delta_k(model, cfg, grid, rows):
    """delta_k_grid(mask_invalid=True) on the given rows, with the pump
    evaluated at every omega_s[j] + omega_i[k]: the N^2 reference."""
    ws, wi = grid.omega_s[rows], grid.omega_i
    wsum = ws[:, None] + wi[None, :]
    omega_mid = 2 * math.pi * C_LIGHT / (0.5 * sum(model.window_um) * 1e-6)
    lam = [wavelength_um_from_omega(w) for w in (ws, wi, wsum)]
    ok = [model.in_window(x) for x in lam]
    ks, ki, kp = (model.wavenumber(np.where(v, w, omega_mid), axis) for v, w, axis in
                  zip(ok, (ws, wi, wsum), (cfg.signal_axis, cfg.idler_axis, cfg.pump_axis)))
    return kp - ks[:, None] - ki[None, :], ok[0][:, None] & ok[1][None, :] & ok[2]


class TestGridPlan:
    """The Hankel grid plan against the N^2 evaluation it replaces."""

    @pytest.mark.parametrize("r_mult", [10.0, 50.0])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_hankel_delta_k_matches_n2(self, model, preset, r_mult):
        cfg, gp, structures = preset_structures(model, preset)
        grid = _standard_grid(model, cfg, gp, structures["pp"], r_mult)
        dk, valid = delta_k_grid(model, cfg, grid, mask_invalid=True)
        assert dk.shape == valid.shape == (grid.n_signal, grid.n_idler)
        worst = 0.0
        for start in range(0, grid.n_signal, 250):
            rows = np.arange(start, min(start + 250, grid.n_signal))
            ref_dk, ref_valid = _n2_delta_k(model, cfg, grid, rows)
            assert np.array_equal(valid[rows], ref_valid)
            if ref_valid.any():
                worst = max(worst, np.max(np.abs(dk[rows] - ref_dk)[ref_valid]))
        assert worst * cfg.length_m <= 1e-9

    @pytest.mark.parametrize("size, columns", [
        (1, 1), (7, 1), (7, 7), (7, 3), (400, 200), (1999, 1000)])
    @pytest.mark.parametrize("dtype", [float, complex, bool])
    def test_hankel_is_the_sliding_window_view(self, size, columns, dtype):
        # one-column and one-row views included, on a strided base too
        rng = np.random.default_rng(size * columns)
        base = rng.standard_normal(2 * size).astype(dtype)
        for values in (base[:size], base[::2], base[size - 1 :: -1]):
            got = spectrum._hankel(values, columns)
            want = np.lib.stride_tricks.sliding_window_view(values, columns)
            assert got.shape == want.shape == (size - columns + 1, columns)
            assert got.dtype == values.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = values[0]
        j0, j1, k0, k1 = 0, size - columns + 1, 0, columns
        assert np.array_equal(spectrum._hankel_block(base, j0, j1, k0, k1),
                              spectrum._hankel(base[:size], columns))

    def test_strict_mode_matches_masked_mode_inside_the_window(self, model):
        cfg, gp, structures = preset_structures(model, "o-band-i")
        grid = _standard_grid(model, cfg, gp, structures["pp"], 10.0)
        strict, _ = delta_k_grid(model, cfg, grid)
        masked, valid = delta_k_grid(model, cfg, grid, mask_invalid=True)
        assert valid.all() and np.array_equal(strict, masked)

    @pytest.mark.parametrize("bend", ["signal", "idler", "steps"])
    def test_non_uniform_grid_rejected(self, model, pump_i, bend):
        # a grid holds its centres, point counts and step, and derives its
        # axes from them: an axis cannot be bent in place or replaced, and a
        # new step moves both axes with it
        cfg = case_config("i")
        grid = make_grid(26.0, 1e12, cfg.omega_s0, cfg.omega_i0)
        if bend == "steps":
            bent = dataclasses.replace(grid, step=1.01 * grid.step)
            for axis in (bent.omega_s, bent.omega_i):
                assert np.allclose(np.diff(axis), bent.step, rtol=1e-6, atol=0)
            build_jsa(model, cfg, periodic_domains(cfg.length_m, 18.86e-6), pump_i, bent)
            return
        name = {"signal": "omega_s", "idler": "omega_i"}[bend]
        axis = getattr(grid, name)
        with pytest.raises(ValueError, match="read-only"):
            axis[-1] += grid.step
        with pytest.raises(TypeError, match=name):
            dataclasses.replace(grid, **{name: axis + 1e-3 * grid.step * np.arange(axis.size) ** 2})
        with pytest.raises(ValueError, match="step"):
            dataclasses.replace(grid, step=0.0)

    @pytest.mark.parametrize("n_signal, n_idler", [(120, 200), (200, 70), (1, 5)])
    def test_rectangular_grid_matches_n2(self, model, n_signal, n_idler):
        # the plan needs only a common step, not a common point count
        cfg, gp, structures = preset_structures(model, "o-band-ii")
        square = _standard_grid(model, cfg, gp, structures["pp"], 10.0)
        grid = dataclasses.replace(square, n_signal=n_signal, n_idler=n_idler)
        dk, valid = delta_k_grid(model, cfg, grid, mask_invalid=True)
        ref_dk, ref_valid = _n2_delta_k(model, cfg, grid, np.arange(n_signal))
        assert dk.shape == (n_signal, n_idler) and np.array_equal(valid, ref_valid)
        assert np.max(np.abs(dk - ref_dk)) * cfg.length_m <= 1e-9


class TestMakeGrid:
    @pytest.mark.parametrize("divisor", [0, 0.5, -3])
    def test_step_divisor_below_one_rejected(self, divisor):
        with pytest.raises(ValueError, match="step_divisor"):
            make_grid(26.0, 1e12, 1e15, 1.2e15, step_divisor=divisor)

    @pytest.mark.parametrize("r_mult, divisor", [(0.01, None), (0.0, None), (0.1, 10)])
    def test_fewer_than_two_points_rejected(self, r_mult, divisor):
        with pytest.raises(ValueError, match="r_mult"):
            make_grid(26.0, 1e12, 1e15, 1.2e15, r_mult=r_mult, step_divisor=divisor)
        assert make_grid(26.0, 1e12, 1e15, 1.2e15, r_mult=0.1, step_divisor=20).n_signal == 2

    def test_standard_rule_200(self):
        grid = make_grid(26.0, 1e12, 1e15, 1.2e15)
        assert grid.n_signal == grid.n_idler == 200
        assert grid.step == pytest.approx(1e12 / 20)

    def test_fine_rule_400(self):
        grid = make_grid(2.0, 1e12, 1e15, 1.2e15)
        assert grid.n_signal == 400
        assert grid.step == pytest.approx(1e12 / 40)
        assert make_grid(85.0, 1e12, 1e15, 1.2e15).n_signal == 400

    def test_r_mult_scaling(self):
        grid = make_grid(26.0, 1e12, 1e15, 1.2e15, r_mult=70)
        assert grid.n_signal == 1400

    @given(centre=st.floats(1e14, 5e15), dw=st.floats(1e10, 1e14),
           theta=st.floats(0.0, 90.0), r_mult=st.floats(2.0, 30.0))
    @settings(deadline=None, max_examples=200)
    def test_axes_keep_their_bits(self, centre, dw, theta, r_mult):
        # the expression make_grid filled the axes with before they were derived
        grid = make_grid(theta, dw, centre, 1.2 * centre, r_mult=r_mult)
        n = grid.n_signal
        offsets = (np.arange(n) - (n - 1) / 2.0) * grid.step
        assert grid.n_idler == n and grid.step == dw / (20 if 10.0 <= theta <= 80.0 else 40)
        assert np.array_equal(grid.omega_s, centre + offsets)
        assert np.array_equal(grid.omega_i, 1.2 * centre + offsets)
        assert not (grid.omega_s.flags.writeable or grid.omega_i.flags.writeable)

    def test_cell_centered_and_centered_on_nominal(self):
        grid = make_grid(26.0, 1e12, 1e15, 1.2e15)
        assert np.mean(grid.omega_s) == pytest.approx(1e15, rel=1e-12)
        span = grid.omega_s[-1] - grid.omega_s[0]
        assert span == pytest.approx(10e12 - grid.step, rel=1e-12)


def _separable_gaussian_jsa(width_s, width_i, n=201):
    w_s0, w_i0 = 1.0e15, 1.2e15
    grid = make_grid(45.0, (width_s + width_i) / 2, w_s0, w_i0, r_mult=10.0,
                     step_divisor=max(1, n // 10))
    xs = (grid.omega_s - w_s0) / width_s
    xi = (grid.omega_i - w_i0) / width_i
    amp = np.exp(-np.square(xs))[:, None] * np.exp(-np.square(xi))[None, :]
    amp = amp / np.sqrt((amp**2).sum())
    return JointSpectrum(grid=grid, amplitude=amp.astype(complex))


class TestEstimateBandwidths:
    def test_known_gaussian_widths(self):
        width = 1e12
        jsa = _separable_gaussian_jsa(width, 2 * width)
        dws, dwi, dw = estimate_bandwidths(jsa)
        # |f|^2 = exp(-2 x^2): FWHM = sqrt(2 ln 2) * width
        expect_s = math.sqrt(2 * math.log(2)) * width
        expect_i = math.sqrt(2 * math.log(2)) * 2 * width
        assert abs(dws - expect_s) < jsa.grid.step
        assert abs(dwi - expect_i) < jsa.grid.step
        assert dw == pytest.approx(0.5 * (dws + dwi))

    def test_flat_matrix_rejected(self):
        grid = make_grid(45.0, 1e12, 1e15, 1.2e15)
        flat = JointSpectrum(grid=grid, amplitude=np.ones((200, 200), complex))
        with pytest.raises(PeakOnBoundary):
            estimate_bandwidths(flat)


class TestBuildJsa:
    def test_normalized_frobenius(self, model, pump_i):
        cfg = case_config("i")
        arr = periodic_domains(cfg.length_m, phase_mismatch_and_lc(model, cfg).coherence_length_m)
        dw = measure_delta_omega(model, cfg, arr, pump_i, 27.0)
        grid = make_grid(27.0, dw, cfg.omega_s0, cfg.omega_i0)
        jsa = build_jsa(model, cfg, arr, pump_i, grid)
        assert float(np.sum(np.abs(jsa.amplitude) ** 2)) == pytest.approx(1.0, abs=1e-12)
        assert jsa.masked_points == 0

    def test_normalization_is_complex_division_bit_for_bit(self, model):
        # at R = 50 the envelope underflows, so f holds -0.0 parts; numpy's
        # complex f / norm turns some of them into +0.0, which scaling the
        # real parts by 1 / norm would not
        cfg, gp, structures = preset_structures(model, "o-band-i")
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.71)
        dw = measure_delta_omega(model, cfg, structures["pp"], pump, gp.theta_deg)
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=50.0)
        f, _ = spectrum._JsaEvaluator(model, cfg, grid, pump).amplitude(structures["pp"])
        parts = f.reshape(-1).view(float)
        assert np.any((parts == 0.0) & np.signbit(parts))
        want = f / math.sqrt(float(np.dot(parts, parts)))
        got = build_jsa(model, cfg, structures["pp"], pump, grid, mask_invalid=True).amplitude
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_analytic_pp_and_piecewise_agree_in_purity(self, model, pump_i):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        dw = measure_delta_omega(model, cfg, arr, pump_i, gp.theta_deg)
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
        p_exact = purity(schmidt_decompose(build_jsa(model, cfg, arr, pump_i, grid)))
        # the first-order formula on the same grid, with dk sign-normalised
        # to +pi/l_c at the centre as `build_jsa` does
        dk, _ = delta_k_grid(model, cfg, grid)
        envelope = pump_envelope(grid.omega_s[:, None], grid.omega_i[None, :], pump_i)
        phi = pmf_pp_analytic(math.copysign(1.0, gp.delta_k0) * dk, gp.coherence_length_m,
                              cfg.length_m)
        f = envelope * phi
        analytic = JointSpectrum(grid=grid, amplitude=f / np.linalg.norm(f))
        assert purity(schmidt_decompose(analytic)) == pytest.approx(p_exact, abs=1e-3)

    @pytest.mark.parametrize("case", ["pp", "scl-10", "masked", "zero-signs"])
    def test_normalization_scales_the_parts_as_complex_division(self, model, case):
        # build_jsa multiplies the float parts by 1 / norm; a block holding a
        # zero part first takes the b 0 and a 0 terms of numpy's division
        if case == "zero-signs":
            values = [0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324]
            f = np.array([complex(a, b) for a in values for b in values] * 2).reshape(6, 12)
            parts = f.reshape(-1).view(float)
            want = f / math.sqrt(float(np.dot(parts, parts)))
            for rows in ([slice(0, 6)], [slice(0, 3), slice(3, 6)]):
                got = f.copy()
                spectrum._unit_norm(got, [got[r].view(float) for r in rows])
                assert np.array_equal(_bits(got), _bits(want))
            return
        if case == "masked":
            cfg = PhaseMatchConfig.from_pump_signal(0.650, 0.780, Axis.Z)
            pump = PumpSpec.from_bandwidth_nm(0.650, 2.0)
            grid = make_grid(45.0, 0.05 * cfg.omega_i0, cfg.omega_s0, cfg.omega_i0)
            structure = periodic_domains(cfg.length_m, 20e-6)
        else:
            cfg, gp, structures = preset_structures(model, "o-band-i")
            structure = structures[case]
            pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 2.0)
            dw = measure_delta_omega(model, cfg, structure, pump, gp.theta_deg)
            grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
        f, masked = spectrum._JsaEvaluator(model, cfg, grid, pump).amplitude(structure)
        assert (masked > 0) == (case == "masked")
        parts = f.reshape(-1).view(float)
        want = f / math.sqrt(float(np.dot(parts, parts)))
        got = build_jsa(model, cfg, structure, pump, grid, mask_invalid=True).amplitude
        assert np.array_equal(_bits(got), _bits(want))

    def test_no_valid_point_skips_the_pmf(self, model):
        # a grid whose signal axis lies wholly beyond the 4 um window edge:
        # the build raises as before, and the placeholder mismatch of the
        # masked points no longer grows the structure's lattice table
        cfg, gp, structures = preset_structures(model, "o-band-i")
        structure = structures["pp"]
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 2.0)
        jsa = standard_jsa(model, cfg, structure, pump, gp.theta_deg)
        grid = dataclasses.replace(jsa.grid, omega_s0=2.0 * math.pi * C_LIGHT / 6e-6)
        table = structure.pmf_table["subcells"]
        with pytest.raises(ValueError, match=r"^JSA vanished on the grid \(all points masked\?\)$"):
            build_jsa(model, cfg, structure, pump, grid, mask_invalid=True)
        # nor does a band build, whose rectangles hold no valid point
        evaluator = spectrum._JsaEvaluator(model, cfg, grid, pump)
        out = np.full((grid.n_signal, grid.n_idler), np.nan + 1j * np.nan)
        masked = evaluator.band_amplitude(structure, [(0, 64, 0, 200), (64, 128, 10, 20)], out)
        assert masked == out.size and not _bits(out).any()
        assert structure.pmf_table["subcells"] is table

    def test_masking_counts_out_of_window_points(self, model):
        # idler at 3.9 um sits near the 4 um transparency edge: a wide grid
        # pushes part of the idler axis outside the window
        cfg = PhaseMatchConfig.from_pump_signal(0.650, 0.780, Axis.Z)
        pump = PumpSpec.from_bandwidth_nm(0.650, 2.0)
        assert cfg.lambda_i_um == pytest.approx(3.9, abs=0.01)
        dw = 0.05 * cfg.omega_i0
        grid = make_grid(45.0, dw, cfg.omega_s0, cfg.omega_i0)
        arr = periodic_domains(cfg.length_m, 20e-6)
        from purepole import OutOfTransparencyWindow

        with pytest.raises(OutOfTransparencyWindow):
            build_jsa(model, cfg, arr, pump, grid)
        jsa = build_jsa(model, cfg, arr, pump, grid, mask_invalid=True)
        assert jsa.masked_points > 0
        assert float(np.sum(np.abs(jsa.amplitude) ** 2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("delta_omega, r_mult", [(None, 10.0), (2.0e12, 4.0)])
    def test_standard_jsa_is_the_explicit_chain(self, model, pump_i, delta_omega, r_mult):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        dw = delta_omega or measure_delta_omega(model, cfg, arr, pump_i, gp.theta_deg)
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=r_mult)
        want = build_jsa(model, cfg, arr, pump_i, grid, mask_invalid=True)
        if delta_omega is None:
            got = standard_jsa(model, cfg, arr, pump_i, gp.theta_deg)
        else:
            got = standard_jsa(model, cfg, arr, pump_i, gp.theta_deg, delta_omega, r_mult)
        assert got.grid == want.grid
        assert np.array_equal(got.grid.omega_s, want.grid.omega_s)
        assert np.array_equal(got.grid.omega_i, want.grid.omega_i)
        assert np.array_equal(got.amplitude, want.amplitude)
        assert got.masked_points == want.masked_points

    def test_measure_delta_omega_deterministic(self, model, pump_i):
        cfg = case_config("i")
        arr = periodic_domains(cfg.length_m, phase_mismatch_and_lc(model, cfg).coherence_length_m)
        a = measure_delta_omega(model, cfg, arr, pump_i, 27.0)
        b = measure_delta_omega(model, cfg, arr, pump_i, 27.0)
        assert a == b > 0
        # a plain float, so that exports print it as a number
        assert type(a) is float


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float or complex array, so that signed zeros count."""
    return a.view(np.int64)


class TestBuildBuffers:
    """`build_jsa` into caller-owned buffers against a fresh build: equal bit
    for bit, whatever the buffers held before."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_reused_buffers_equal_a_fresh_build(self, model, preset):
        from purepole.analysis import jsa_purity

        cfg, gp, structures = preset_structures(model, preset)
        out = work = None
        for bw_nm in (1.0, 6.0):
            pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, bw_nm)
            dw = measure_delta_omega(model, cfg, structures["pp"], pump, gp.theta_deg)
            grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
            if out is None:
                # NaN at first, then whatever the previous build left
                out = np.full((grid.n_signal, grid.n_idler), np.nan + 1j * np.nan)
                work = np.full(out.shape, np.nan)
            for label in ("pp", "scl-10", "dc"):
                if label not in structures:
                    continue
                fresh = build_jsa(model, cfg, structures[label], pump, grid, mask_invalid=True)
                got = build_jsa(model, cfg, structures[label], pump, grid, mask_invalid=True,
                                out=out, work=work)
                assert got.amplitude is out
                assert got.masked_points == fresh.masked_points
                assert np.array_equal(_bits(got.amplitude), _bits(fresh.amplitude)), label
                # the in-place purity of the buffer against the copying one
                want = jsa_purity(fresh)
                assert _bits(np.float64(jsa_purity(got, overwrite=True))) == _bits(np.float64(want))

    @pytest.mark.parametrize("case", ["masked", "r50-signed-zeros"])
    def test_masked_and_underflowing_grids(self, model, case):
        if case == "masked":
            # part of the idler axis leaves the transparency window
            cfg = PhaseMatchConfig.from_pump_signal(0.650, 0.780, Axis.Z)
            pump = PumpSpec.from_bandwidth_nm(0.650, 2.0)
            grid = make_grid(45.0, 0.05 * cfg.omega_i0, cfg.omega_s0, cfg.omega_i0)
            structure = periodic_domains(cfg.length_m, 20e-6)
        else:
            # the envelope underflows, so f holds -0.0 parts
            cfg, gp, structures = preset_structures(model, "o-band-i")
            structure = structures["pp"]
            pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.71)
            dw = measure_delta_omega(model, cfg, structure, pump, gp.theta_deg)
            grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=50.0)
        fresh = build_jsa(model, cfg, structure, pump, grid, mask_invalid=True)
        out = np.full((grid.n_signal, grid.n_idler), np.nan + 1j * np.nan)
        got = build_jsa(model, cfg, structure, pump, grid, mask_invalid=True, out=out,
                        work=np.full(out.shape, np.nan))
        assert (fresh.masked_points > 0) == (case == "masked")
        assert got.masked_points == fresh.masked_points
        assert np.array_equal(_bits(got.amplitude), _bits(fresh.amplitude))

    def test_standard_jsa_passes_the_buffers(self, model, pump_i):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        fresh = standard_jsa(model, cfg, arr, pump_i, gp.theta_deg)
        out = np.empty_like(fresh.amplitude)
        got = standard_jsa(model, cfg, arr, pump_i, gp.theta_deg, out=out,
                           work=np.empty(out.shape))
        assert got.amplitude is out
        assert np.array_equal(_bits(got.amplitude), _bits(fresh.amplitude))

    def test_pmf_into_out(self, model):
        cfg, gp, structures = preset_structures(model, "o-band-i")
        step = _lattice_step(structures["pp"])
        for dk in (np.linspace(0.0, 40 * step, 3000).reshape(60, 50),  # the lattice
                   np.linspace(0.0, 4 * step, 7)):  # the exact sum
            want = pmf_piecewise(dk, structures["pp"])
            out = np.full(dk.shape, np.nan + 0j)
            assert pmf_piecewise(dk, structures["pp"], out=out) is out
            assert np.array_equal(_bits(out), _bits(want))

    @pytest.mark.parametrize("name", ["out", "work"])
    @pytest.mark.parametrize("bad", ["shape", "dtype", "strided", "fortran", "read-only", "list"])
    def test_bad_buffer_names_the_argument(self, model, pump_i, name, bad):
        cfg = case_config("i")
        arr = periodic_domains(cfg.length_m, phase_mismatch_and_lc(model, cfg).coherence_length_m)
        grid = make_grid(27.0, 2e12, cfg.omega_s0, cfg.omega_i0, r_mult=2.0)
        shape, dtype = (grid.n_signal, grid.n_idler), complex if name == "out" else float
        buffer = {
            "shape": lambda: np.empty((shape[0], shape[1] + 1), dtype),
            "dtype": lambda: np.empty(shape, float if name == "out" else np.float32),
            "strided": lambda: np.empty((shape[0], 2 * shape[1]), dtype)[:, ::2],
            "fortran": lambda: np.empty(shape, dtype, order="F"),
            "read-only": lambda: np.broadcast_to(np.zeros(1, dtype), shape),
            "list": lambda: np.zeros(shape, dtype).tolist(),
        }[bad]()
        with pytest.raises(ValueError, match=f"^{name}: "):
            build_jsa(model, cfg, arr, pump_i, grid, **{name: buffer})
        if name == "out":
            dk = np.zeros(shape)
            with pytest.raises(ValueError, match="^out: "):
                pmf_piecewise(dk, arr, out=buffer)


def _full_grid_delta_omega(model, cfg, structure, pump, theta_deg, max_iter=12):
    """measure_delta_omega with a full build on every grid, the reference
    path; on each grid the climb must find the full-grid peak cell, or reach
    an edge only where the full grid's peak or half crossing lies on one."""
    dw = spectrum._initial_bandwidth_guess(model, cfg, pump)
    for _ in range(max_iter):
        grid = make_grid(theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
        jsa = build_jsa(model, cfg, structure, pump, grid, mask_invalid=True)
        power = np.abs(jsa.amplitude) ** 2
        peak = np.unravel_index(int(np.argmax(power)), power.shape)
        try:
            climbed = spectrum._climbed_cuts(model, cfg, structure, pump, grid)
        except PeakOnBoundary:
            climbed = None
        else:
            assert climbed[0] == peak
        try:
            _, _, new = estimate_bandwidths(jsa)
        except PeakOnBoundary:
            dw *= 2.0
            continue
        assert climbed is not None
        if abs(new - dw) <= 0.02 * dw:
            return new
        dw = new
    return dw


class TestClimbedCuts:
    """dw from the climbed peak and two cuts against the full-grid path."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_same_peak_and_delta_omega_as_full_grid(self, model, preset):
        cfg, gp, structures = preset_structures(model, preset)
        for structure in structures.values():
            for bw_nm in (0.3, 1.0, 3.0, 10.0):
                pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, bw_nm)
                want = _full_grid_delta_omega(model, cfg, structure, pump, gp.theta_deg)
                got = measure_delta_omega(model, cfg, structure, pump, gp.theta_deg)
                assert abs(got - want) <= 1e-10 * want

    def test_cut_values_equal_the_build_before_normalization(self, model, pump_i):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        grid = make_grid(gp.theta_deg, 4e12, cfg.omega_s0, cfg.omega_i0)
        (j0, k0), column, row = spectrum._climbed_cuts(model, cfg, arr, pump_i, grid)
        power = np.abs(build_jsa(model, cfg, arr, pump_i, grid, mask_invalid=True).amplitude) ** 2
        scale = power[j0, k0] / column[j0]
        np.testing.assert_allclose(column * scale, power[:, k0], rtol=1e-13, atol=0)
        np.testing.assert_allclose(row * scale, power[j0, :], rtol=1e-13, atol=0)

    def test_builds_only_when_the_climb_reaches_an_edge(self, model, monkeypatch):
        # and not even then: a climb that reaches an edge raises
        # PeakOnBoundary, as the full build's peak there would, and the
        # window doubles
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 0.3)
        builds = []
        real_build = spectrum.build_jsa

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(spectrum, "build_jsa", counting_build)
        on_design = periodic_domains(cfg.length_m, gp.coherence_length_m)
        measure_delta_omega(model, cfg, on_design, pump, gp.theta_deg)
        assert builds == []
        # a period 0.5 % off the design moves the peak off the grid centre,
        # and a seed ten times too small puts it beyond the first grid's edge
        off_design = periodic_domains(cfg.length_m, 1.005 * gp.coherence_length_m)
        seed = spectrum._initial_bandwidth_guess
        monkeypatch.setattr(spectrum, "_initial_bandwidth_guess", lambda *a: 0.1 * seed(*a))
        grid = make_grid(gp.theta_deg, 0.1 * seed(model, cfg, pump), cfg.omega_s0, cfg.omega_i0)
        with pytest.raises(PeakOnBoundary):
            spectrum._climbed_cuts(model, cfg, off_design, pump, grid)
        got = measure_delta_omega(model, cfg, off_design, pump, gp.theta_deg)
        assert builds == []
        monkeypatch.setattr(spectrum, "build_jsa", real_build)
        want = _full_grid_delta_omega(model, cfg, off_design, pump, gp.theta_deg)
        assert abs(got - want) <= 1e-10 * want


class TestExports:
    def test_csv_layout(self, tmp_path):
        jsa = _separable_gaussian_jsa(1e12, 1e12, n=41)
        dest = tmp_path / "jsa.csv"
        write_jsa_csv(dest, jsa, header_lines=["digest: xyz"])
        lines = dest.read_text().splitlines()
        assert lines[0] == "# digest: xyz"
        assert lines[1].startswith("signal_nm\\idler_nm,")
        assert len(lines) == 2 + jsa.grid.n_signal

    def test_csv_rows_format_each_cell(self, tmp_path):
        # zero, subnormal and large magnitudes included; each row formats its
        # cells one by one
        jsa = _separable_gaussian_jsa(1e12, 1.5e12, n=41)
        amp = jsa.amplitude.copy()
        amp[0, :4] = [0.0, 5e-324, -2.5e-310 + 1e-320j, 1e300j]
        amp[3, 7] = -0.0
        jsa = dataclasses.replace(jsa, amplitude=amp)
        write_jsa_csv(tmp_path / "jsa.csv", jsa, header_lines=["h"])
        lines = (tmp_path / "jsa.csv").read_text().splitlines()
        lam_s = wavelength_um_from_omega(jsa.grid.omega_s) * 1e3
        lam_i = wavelength_um_from_omega(jsa.grid.omega_i) * 1e3
        assert lines[:2] == ["# h", "signal_nm\\idler_nm," + ",".join(f"{v:.6f}" for v in lam_i)]
        expected = [f"{lam_s[j]:.6f}," + ",".join(f"{v:.8e}" for v in np.abs(amp[j]))
                    for j in range(amp.shape[0])]
        assert lines[2:] == expected
        assert expected[0].split(",")[1:5] == [
            "0.00000000e+00", "4.94065646e-324", "2.50000000e-310", "1.00000000e+300"]

    def test_csv_rows_that_span_row_blocks_format_each_cell(self, tmp_path):
        # rows that do not divide a block, with nan, inf, zero, subnormal and
        # huge cells in the first, a middle and the last block
        grid = make_grid(45.0, 1e12, 1.0e15, 1.2e15, r_mult=10.15, step_divisor=20)
        n_s, n_i = grid.n_signal, grid.n_idler
        rng = np.random.default_rng(203)
        jsa = JointSpectrum(grid=grid, amplitude=rng.normal(size=(n_s, n_i)) * 10.0 ** rng.uniform(
            -30, 2, (n_s, n_i)) + 1j * rng.normal(size=(n_s, n_i)))
        per_block = textfmt._POINT_BLOCK // n_i
        assert (n_s, n_i) == (203, 203) and n_s % per_block != 0
        amp = jsa.amplitude.copy()
        specials = [np.nan, np.inf, 0.0, -0.0, 5e-324, 1e300, -2.5e-310j, np.nan * 1j]
        for row in (0, per_block - 1, per_block, n_s // 2, n_s - 1):
            amp[row, : len(specials)] = specials
            amp[row, -1] = 1e300
        jsa = dataclasses.replace(jsa, amplitude=amp)
        write_jsa_csv(tmp_path / "jsa.csv", jsa, header_lines=["h", "k"])
        lam_s = (wavelength_um_from_omega(jsa.grid.omega_s) * 1e3).tolist()
        lam_i = (wavelength_um_from_omega(jsa.grid.omega_i) * 1e3).tolist()
        with np.errstate(invalid="ignore"):
            mag = np.abs(amp).tolist()
        lines = ["# h", "# k", "signal_nm\\idler_nm," + ",".join(format(v, ".6f") for v in lam_i)]
        lines += [format(lam, ".6f") + "," + ",".join(format(v, ".8e") for v in row)
                  for lam, row in zip(lam_s, mag)]
        assert (tmp_path / "jsa.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_binary_round_trip(self, tmp_path):
        jsa = _separable_gaussian_jsa(1e12, 2e12, n=31)
        dest = tmp_path / "jsa.bin"
        write_jsa_binary(dest, jsa, run_digest="deadbeef", sellmeier_name="test-set")
        amp, meta = read_jsa_binary(dest)
        np.testing.assert_array_equal(amp, jsa.amplitude)
        assert meta["run_digest"] == "deadbeef"
        assert meta["sellmeier"] == "test-set"
        assert meta["omega_s_range"] == (jsa.grid.omega_s[0], jsa.grid.omega_s[-1])
