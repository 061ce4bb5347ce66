"""Schmidt purity, heralding efficiency, optimizers."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.constants import c as C_LIGHT

import purepole
from purepole import analysis, spectrum
from purepole import (
    Axis,
    DutyCycleStructure,
    JointSpectrum,
    NoInteriorMaximum,
    PhaseMatchConfig,
    PsoSettings,
    PumpSpec,
    SchmidtSpectrum,
    TargetProfile,
    WindowExceedsGrid,
    ZeroSpectrum,
    build_jsa,
    dc_domains,
    greedy_track,
    heralding_efficiency,
    jsa_purity,
    make_grid,
    measure_delta_omega,
    optimize_pump_bandwidth,
    periodic_domains,
    phase_mismatch_and_lc,
    pso_optimize_dc,
    purity,
    purity_vs_range,
    schmidt_decompose,
    standard_jsa,
)
from purepole.analysis import (
    _GRAM_BLOCK,
    _GRAM_TILE,
    _flush_floor,
    _tile_products,
    _unit_working_copy,
    write_curve_csv,
    write_schmidt_csv,
)
from purepole.cli import PRESETS
from purepole.spectrum import _JsaEvaluator, _grid_side, _interpolate

from conftest import HAND_MADE_RECTS, case_config, preset_structures


def _complex_matrix(seed: int, shape=(24, 24)) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSchmidtDecompose:
    def test_rank_one_separable(self):
        u = np.linspace(1.0, 2.0, 16)
        v = np.linspace(0.5, 1.5, 20) * 1j
        s = schmidt_decompose(np.outer(u, v))
        assert s.coefficients[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(s.coefficients[1:] < 1e-10)

    def test_two_equal_blocks(self):
        a = np.outer([1.0, 0.0], [1.0, 0.0])
        b = np.outer([0.0, 1.0], [0.0, 1.0])
        s = schmidt_decompose(a + b)
        assert s.coefficients[0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert s.coefficients[1] == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_mehler_geometric_spectrum(self):
        # correlated Gaussian exp(-A(x^2+y^2) + Bxy) has Schmidt coefficients
        # c_n = mu^n sqrt(1 - mu^2) with A = (1+mu^2)/(2(1-mu^2)), B = 2mu/(1-mu^2)
        mu = 0.5
        A = (1 + mu**2) / (2 * (1 - mu**2))
        B = 2 * mu / (1 - mu**2)
        x = np.linspace(-9.0, 9.0, 601)
        f = np.exp(-A * (x[:, None] ** 2 + x[None, :] ** 2) + B * x[:, None] * x[None, :])
        s = schmidt_decompose(f)
        expected = mu ** np.arange(12) * math.sqrt(1 - mu**2)
        np.testing.assert_allclose(s.coefficients[:12], expected, atol=1e-6)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroSpectrum):
            schmidt_decompose(np.zeros((4, 4), complex))

    def test_normalization_invariant(self):
        s = schmidt_decompose(_complex_matrix(1))
        assert float(np.sum(s.coefficients**2)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(s.coefficients) <= 0)


class TestPurity:
    def test_single_mode(self):
        assert purity(SchmidtSpectrum(coefficients=np.array([1.0]))) == 1.0

    def test_two_equal_modes(self):
        c = np.array([1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert purity(SchmidtSpectrum(coefficients=c)) == pytest.approx(0.5, rel=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=30)
    def test_scale_and_phase_invariance(self, seed):
        f = _complex_matrix(seed)
        rng = np.random.default_rng(seed + 1)
        scale = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        p0 = purity(schmidt_decompose(f))
        p1 = purity(schmidt_decompose(scale * f))
        assert p1 == pytest.approx(p0, abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(deadline=None, max_examples=30)
    def test_transpose_invariance(self, seed):
        f = _complex_matrix(seed, shape=(18, 30))
        p0 = purity(schmidt_decompose(f))
        p1 = purity(schmidt_decompose(f.T))
        assert p1 == pytest.approx(p0, abs=1e-12)


def _svd_purity(jsa) -> float:
    return purity(schmidt_decompose(jsa))


def _standard_pump_and_dw(model, cfg, gp, pp):
    """A 2 nm pump and the dw it gives the preset's PP crystal."""
    pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 2.0)
    return pump, measure_delta_omega(model, cfg, pp, pump, gp.theta_deg)


# the flush floor of the Gram purity before it was derived from the part count
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _old_working_copy(amp, floor=None):
    """The working copy as formed before it lost its N^2 temporaries: the
    peak from np.abs and the flush through one N^2 mask, at `floor`
    (default: `_flush_floor` of the part count)."""
    work = np.array(amp, dtype=np.result_type(amp.dtype, float), order="C")
    parts = work.view(float).reshape(-1)
    parts /= float(np.max(np.abs(parts)))
    parts /= math.sqrt(float(np.dot(parts, parts)))
    parts[np.abs(parts) < (_flush_floor(parts.size) if floor is None else floor)] = 0.0
    return work


class TestGramPurity:
    """`jsa_purity` (Gram matrix) against the SVD purity it replaces."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_standard_grid(self, model, preset):
        cfg, gp, structures = preset_structures(model, preset)
        pump, dw = _standard_pump_and_dw(model, cfg, gp, structures["pp"])
        for structure in structures.values():
            jsa = standard_jsa(model, cfg, structure, pump, gp.theta_deg, dw)
            assert jsa.amplitude.shape in ((200, 200), (400, 400))
            assert abs(jsa_purity(jsa) - _svd_purity(jsa)) <= 1e-12

    def test_wide_range_grid(self, model):
        cfg, gp, structures = preset_structures(model, "o-band-i")
        pump, dw = _standard_pump_and_dw(model, cfg, gp, structures["pp"])
        jsa = standard_jsa(model, cfg, structures["pp"], pump, gp.theta_deg, dw, 50.0)
        assert jsa.amplitude.shape == (1000, 1000)
        # the tails hold subnormal entries, which the flush removes
        tiny = np.finfo(float).tiny
        assert np.any((np.abs(jsa.amplitude.real) < tiny) & (jsa.amplitude.real != 0))
        assert abs(jsa_purity(jsa) - _svd_purity(jsa)) <= 1e-12

    def test_working_copy_holds_no_subnormal_part(self, model):
        cfg, gp, structures = preset_structures(model, "o-band-i")
        pump, dw = _standard_pump_and_dw(model, cfg, gp, structures["pp"])
        jsa = standard_jsa(model, cfg, structures["pp"], pump, gp.theta_deg, dw, 50.0)
        tiny = np.finfo(float).tiny
        raw = np.abs(jsa.amplitude.view(float))
        assert np.any((raw < tiny) & (raw != 0))
        work = np.abs(_unit_working_copy(jsa.amplitude).view(float))
        floor = _flush_floor(work.size)
        assert 1e-21 < floor < 1e-20 and floor > 1e100 * math.sqrt(tiny)
        assert not np.any((work < floor) & (work != 0))
        assert not np.any((work < tiny) & (work != 0))
        # every product inside the Gram of the parts kept is a normal float
        assert float(work[work != 0].min()) ** 2 > tiny

    @pytest.mark.parametrize("shape", [(40, 40), (257, 131), (1000, 1000)])
    def test_working_copy_equals_the_old_formulas(self, shape):
        # exact zeros of both signs, masked (zeroed) rows and subnormal parts;
        # equal bit for bit, the signs of zeros included
        f = _complex_matrix(shape[0], shape)
        rng = np.random.default_rng(shape[1])
        parts = f.view(float).reshape(-1)
        pick = rng.random(parts.size)
        parts[pick < 0.05] = 0.0
        parts[(pick >= 0.05) & (pick < 0.1)] = -0.0
        parts[(pick >= 0.1) & (pick < 0.15)] *= 1e-310
        f[: shape[0] // 4] = 0.0
        for amp in (f, -f, f * 1e300, f.real.copy()):
            want = _old_working_copy(amp)
            got = _unit_working_copy(amp)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_working_copy_peak_from_a_negative_part(self):
        f = np.array([[1.0, -4.0], [2.0, 0.5]])
        got = _unit_working_copy(f)
        assert np.array_equal(got, _old_working_copy(f))
        for bad in (np.nan, np.inf, -np.inf):
            g = f.copy()
            g[1, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                _unit_working_copy(g)

    def test_pso_coarse_grid(self, model):
        cfg, gp, structures = preset_structures(model, "o-band-i")
        pump, dw = _standard_pump_and_dw(model, cfg, gp, structures["pp"])
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=10.0,
                         step_divisor=10)
        jsa = build_jsa(model, cfg, structures["dc"], pump, grid, mask_invalid=True)
        assert jsa.amplitude.shape == (100, 100)
        assert abs(jsa_purity(jsa) - _svd_purity(jsa)) <= 1e-12

    def test_subnormal_entries_count_as_zero(self):
        f = _complex_matrix(3, shape=(150, 131))
        f /= np.linalg.norm(f)
        rng = np.random.default_rng(4)
        seeded = f.copy()
        cells = rng.random(f.shape) < 0.3
        seeded[cells] = 1e-320 * (rng.standard_normal(np.count_nonzero(cells)) + 1j)
        # a normal real part with a subnormal imaginary part
        seeded[0, 0] = f[0, 0].real + 2e-320j
        zeroed = np.where(cells, 0.0, f)
        zeroed[0, 0] = f[0, 0].real
        assert jsa_purity(seeded) == jsa_purity(zeroed)
        assert abs(jsa_purity(seeded) - _svd_purity(zeroed)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        f = _complex_matrix(6)
        f[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jsa_purity(f)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ZeroSpectrum):
            jsa_purity(np.zeros((4, 4), complex))
        jsa = _gaussian_jsa(1e12, 1.5e12)
        with pytest.raises(ZeroSpectrum):
            jsa_purity(JointSpectrum(grid=jsa.grid, amplitude=np.zeros_like(jsa.amplitude)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 300).filter(lambda n: n % _GRAM_BLOCK),
        cols=st.integers(1, 300).filter(lambda n: n % _GRAM_BLOCK),
        rank=st.integers(1, 6),
        exponent=st.integers(-290, 290),
    )
    @settings(deadline=None, max_examples=40)
    def test_matches_svd_purity(self, seed, rows, cols, rank, exponent):
        # a sum of `rank` separable terms plus noise, at any overall scale
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        v = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        f = u @ v + 0.1 * rng.standard_normal((rows, cols))
        assert abs(jsa_purity(10.0**exponent * f) - _svd_purity(f)) <= 1e-12

    def test_purity_callers_make_no_svd(self, model, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cfg = case_config("i", length_m=1.5e-3)
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        bw, p = optimize_pump_bandwidth(model, cfg, arr, gp.theta_deg)
        assert 0 < p < 1
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, bw)
        curve = purity_vs_range(model, cfg, arr, pump, [5.0, 10.0], gp.theta_deg)
        assert curve.purities[1] == pytest.approx(p, abs=1e-9)
        _, res = pso_optimize_dc(model, cfg, pump,
                                 PsoSettings(n_particles=2, n_iterations=1), seed=0)
        assert 0 < res.purity < 1


_EPS = float(np.finfo(float).eps)


def _untrimmed_purity(f, floor=None) -> float:
    """`jsa_purity` as computed before zero edge rows and columns were
    trimmed: every column block's Gram summed over all rows and all columns
    to its left, the working copy flushed at `floor` (default: the
    `_flush_floor` of `jsa_purity`)."""
    work = _old_working_copy(f.amplitude if isinstance(f, JointSpectrum) else np.asarray(f),
                             floor)
    parts = work.view(float).reshape(-1)
    gram_sq = 0.0
    for c0 in range(0, work.shape[1], _GRAM_BLOCK):
        c1 = min(c0 + _GRAM_BLOCK, work.shape[1])
        block = (work[:, :c1].T @ work[:, c0:c1].conj()).reshape(-1)
        split = c0 * (c1 - c0)
        gram_sq += 2.0 * float(np.vdot(block[:split], block[:split]).real)
        gram_sq += float(np.vdot(block[split:], block[split:]).real)
    return gram_sq / float(np.dot(parts, parts)) ** 2


def _trimmed_blocks(f, floor=None) -> int:
    """Column blocks of the working copy of `f` flushed at `floor` (default:
    the `_flush_floor` of `jsa_purity`) whose first or last row is all zero:
    at the default floor, the blocks whose Gram `jsa_purity` trims."""
    work = _old_working_copy(f.amplitude if isinstance(f, JointSpectrum) else np.asarray(f),
                             floor)
    return sum(not (work[0, c0:c0 + _GRAM_BLOCK].any() and work[-1, c0:c0 + _GRAM_BLOCK].any())
               for c0 in range(0, work.shape[1], _GRAM_BLOCK))


def _column_trimmed_blocks(f) -> int:
    """Trimmed column blocks (`_trimmed_blocks`) right of the first that
    share no row with some column at their left: the first column whose
    first-to-last nonzero row span meets the block's nonzero rows lies right
    of column 0, found column by column."""
    work = _unit_working_copy(f.amplitude if isinstance(f, JointSpectrum) else np.asarray(f))
    spans = []
    for j in range(work.shape[1]):
        nonzero = np.flatnonzero(work[:, j])
        spans.append((nonzero[0], nonzero[-1]) if nonzero.size else (work.shape[0], -1))
    count = 0
    for c0 in range(_GRAM_BLOCK, work.shape[1], _GRAM_BLOCK):
        block = work[:, c0:c0 + _GRAM_BLOCK]
        rows = np.flatnonzero(block.any(axis=1))
        if rows.size == 0 or (block[0].any() and block[-1].any()):
            continue
        lo = next((j for j in range(c0) if spans[j][0] <= rows[-1] and spans[j][1] >= rows[0]),
                  c0)
        count += lo > 0
    return count


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _bits_of(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float or complex array, so that signed zeros count."""
    return a.view(np.int64)


def _zero_rows(f: np.ndarray, pattern: str) -> np.ndarray:
    """`f` with the rows of one zero pattern set to zero."""
    f = f.copy()
    rows, cols = f.shape
    if pattern == "leading":
        f[: rows // 3] = 0.0
    elif pattern == "trailing":
        f[rows - rows // 4 :] = 0.0
    elif pattern == "both":
        f[: rows // 5] = 0.0
        f[rows - rows // 3 :] = 0.0
    elif pattern == "ridge":
        # each column block has zero edge rows of its own, as on a JSA ridge
        for c0 in range(0, cols, _GRAM_BLOCK):
            lo = min(rows - 1, c0 * rows // (2 * cols) + 1)
            f[:lo, c0 : c0 + _GRAM_BLOCK] = 0.0
            f[lo + rows // 2 :, c0 : c0 + _GRAM_BLOCK] = 0.0
    elif pattern == "zero-block":
        f[:, _GRAM_BLOCK : 2 * _GRAM_BLOCK] = 0.0
    elif pattern == "single-row":
        f[: rows // 2] = 0.0
        f[rows // 2 + 1 :] = 0.0
    elif pattern == "interior":
        f[rows // 4 : rows // 2] = 0.0
    return f


class TestGramRowTrim:
    """The Gram purity of column blocks with an all-zero edge row, summed
    over pairs of column tiles that share nonzero rows and only over those
    rows, against the SVD purity and the untrimmed Gram."""

    @pytest.mark.parametrize("pattern", [
        "leading", "trailing", "both", "ridge", "zero-block", "single-row", "interior"])
    @pytest.mark.parametrize("shape", [(300, 300), (257, 131), (131, 400), (90, 385)])
    def test_zero_rows(self, pattern, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        u = rng.standard_normal((shape[0], 3)) + 1j * rng.standard_normal((shape[0], 3))
        v = rng.standard_normal((3, shape[1])) + 1j * rng.standard_normal((3, shape[1]))
        f = _zero_rows(u @ v + 0.1 * rng.standard_normal(shape), pattern)
        trimmed = _trimmed_blocks(f)
        if pattern == "interior":
            assert trimmed == 0
            assert _bits(jsa_purity(f)) == _bits(_untrimmed_purity(f))
        else:
            assert trimmed > 0
        got = jsa_purity(f)
        assert abs(got - _svd_purity(f)) <= 1e-12
        assert abs(got - _untrimmed_purity(f)) <= 1e-12
        if pattern == "single-row":
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_masked_points(self, model):
        # part of the idler axis leaves the transparency window, which zeroes
        # edge rows of some column blocks, in the JSA and in its transpose
        cfg = PhaseMatchConfig.from_pump_signal(0.650, 0.780, Axis.Z)
        pump = PumpSpec.from_bandwidth_nm(0.650, 2.0)
        grid = make_grid(45.0, 0.05 * cfg.omega_i0, cfg.omega_s0, cfg.omega_i0)
        jsa = build_jsa(model, cfg, periodic_domains(cfg.length_m, 20e-6), pump, grid,
                        mask_invalid=True)
        assert jsa.masked_points > 0
        want = _svd_purity(jsa)
        for amp in (jsa.amplitude, jsa.amplitude.T, np.ascontiguousarray(jsa.amplitude.T)):
            assert abs(jsa_purity(amp) - want) <= 1e-12
            assert abs(jsa_purity(amp) - _untrimmed_purity(amp)) <= 1e-12
        assert _trimmed_blocks(jsa.amplitude) > 0 and _trimmed_blocks(jsa.amplitude.T) > 0

    def test_wide_range_grid_is_trimmed(self, model):
        # the R = 50 tails underflow to zero rows in every column block
        cfg, gp, structures = preset_structures(model, "o-band-i")
        pump, dw = _standard_pump_and_dw(model, cfg, gp, structures["pp"])
        jsa = standard_jsa(model, cfg, structures["pp"], pump, gp.theta_deg, dw, 50.0)
        assert _trimmed_blocks(jsa) == 8
        assert abs(jsa_purity(jsa) - _untrimmed_purity(jsa)) <= 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 300),
        cols=st.integers(1, 300),
        real=st.booleans(),
    )
    @settings(deadline=None, max_examples=40)
    def test_untrimmed_bit_for_bit_without_zero_edge_rows(self, seed, rows, cols, real):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((rows, cols))
        if not real:
            f = f + 1j * rng.standard_normal((rows, cols))
        assert _trimmed_blocks(f) == 0
        assert _bits(jsa_purity(f)) == _bits(_untrimmed_purity(f))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_standard_grids_are_not_trimmed(self, model, preset):
        # PP, DC, CL (beta 1) and the SCL arrays on each preset's standard
        # grid. Flushed at sqrt(tiny), the floor before it was derived from
        # the part count, no column block has a zero edge row. The derived
        # floor zeroes edge rows of some blocks (six presets): those blocks'
        # tile products sum in another order than the untrimmed Gram, so
        # the purity is bit for bit the untrimmed Gram only where no block
        # trims, and within 4 eps of it elsewhere; always within 1e-12 of
        # the SVD and within 4 eps of the untrimmed Gram flushed at sqrt(tiny).
        cfg, gp, structures = preset_structures(model, preset)
        pump, dw = _standard_pump_and_dw(model, cfg, gp, structures["pp"])
        lc = gp.coherence_length_m
        profile = TargetProfile.from_alpha(5.0, cfg.length_m, math.pi / lc)
        structures = {**structures, "cl": greedy_track(profile, 1.0, lc, cfg.length_m)}
        for label, structure in structures.items():
            jsa = standard_jsa(model, cfg, structure, pump, gp.theta_deg, dw)
            got = jsa_purity(jsa)
            assert _trimmed_blocks(jsa, _SQRT_TINY) == 0, label
            if _trimmed_blocks(jsa) == 0:
                assert _bits(got) == _bits(_untrimmed_purity(jsa)), label
            else:
                assert abs(got - _untrimmed_purity(jsa)) <= 4 * _EPS, label
            assert abs(got - _svd_purity(jsa)) <= 1e-12, label
            assert abs(got - _untrimmed_purity(jsa, _SQRT_TINY)) <= 4 * _EPS, label

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 300),
        cols=st.one_of(st.integers(2, 420).filter(lambda n: n % _GRAM_BLOCK),
                       st.sampled_from([_GRAM_TILE * k + d for k in range(1, 7) for d in (-1, 1)]
                                       + [_GRAM_BLOCK * k + 1 for k in range(1, 4)])),
        anti=st.booleans(),
        width=st.floats(0.01, 0.4),
        zero_run=st.integers(0, 200),
        zero_tiles=st.lists(st.integers(0, 6), max_size=3),
        bracket=st.booleans(),
        real=st.booleans(),
    )
    @example(seed=1, rows=300, cols=385, anti=True, width=0.1, zero_run=60, zero_tiles=[],
             bracket=True, real=False)
    @example(seed=2, rows=131, cols=300, anti=False, width=0.05, zero_run=0, zero_tiles=[],
             bracket=True, real=False)
    @example(seed=3, rows=300, cols=_GRAM_TILE * 5 + 1, anti=True, width=0.05, zero_run=0,
             zero_tiles=[2], bracket=False, real=False)
    @example(seed=4, rows=200, cols=_GRAM_TILE * 3 - 1, anti=False, width=0.1, zero_run=0,
             zero_tiles=[], bracket=False, real=True)
    @example(seed=5, rows=257, cols=_GRAM_BLOCK * 3 + 1, anti=True, width=0.2, zero_run=0,
             zero_tiles=[0, 6], bracket=True, real=False)
    @settings(deadline=None, max_examples=60)
    def test_column_trim(self, seed, rows, cols, anti, width, zero_run, zero_tiles, bracket,
                         real):
        # a diagonal or anti-diagonal band, whose column tiles pair with only
        # the tiles whose rows they share, a run of all-zero columns with
        # nonzeros left of it, whole zero tiles, scattered all-zero columns
        # and a column whose nonzero span brackets rows it is zero in
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((rows, cols))
        if not real:
            f = f + 1j * rng.standard_normal((rows, cols))
        r = np.arange(rows)[:, None] / rows
        c = np.arange(cols)[None, :] / cols
        f[np.abs(r + c - 1.0 if anti else r - c) > width] = 0.0
        start = int(rng.integers(cols))
        f[:, start : start + zero_run] = 0.0
        for t in zero_tiles:
            f[:, t * _GRAM_TILE : (t + 1) * _GRAM_TILE] = 0.0
        f[:, rng.random(cols) < 0.1] = 0.0
        if bracket:
            j = int(rng.integers(cols))
            f[:, j] = 0.0
            f[int(rng.integers(rows // 3 + 1)), j] = 1.0
            f[rows - 1 - int(rng.integers(rows // 3 + 1)), j] = -1.0 if real else 1.0j
        assume(np.any(f))
        got = jsa_purity(f)
        assert abs(got - _svd_purity(f)) <= 1e-12
        assert abs(got - _untrimmed_purity(f)) <= 1e-12

    def test_anti_diagonal_band_trims_columns(self):
        # the three blocks right of the first (the last one column wide) see
        # only rows of the band above those the columns at the left reach
        rows, cols = 300, 385
        f = _complex_matrix(8, (rows, cols))
        r = np.arange(rows)[:, None] / rows
        c = np.arange(cols)[None, :] / cols
        f[np.abs(r + c - 1.0) > 0.1] = 0.0
        assert _column_trimmed_blocks(f) == 3
        assert abs(jsa_purity(f) - _svd_purity(f)) <= 1e-12
        assert abs(jsa_purity(f) - _untrimmed_purity(f)) <= 1e-12

    def test_tile_pairs_exact(self):
        # a banded matrix of three tiles, the last one column wide: block 0
        # trims, and its right tiles pair with left tiles over different rows
        rows, cols = 12, 2 * _GRAM_TILE + 1
        f = _complex_matrix(5, (rows, cols))
        r = np.arange(rows)[:, None] / rows
        c = np.arange(cols)[None, :] / cols
        f[np.abs(r + c - 1.0) > 0.15] = 0.0
        assert _trimmed_blocks(f) == 1
        assert abs(jsa_purity(f) - _exact_purity(f)) <= 4 * _EPS

    def test_tile_products(self):
        # products from the (first, last + 1) nonzero row of each tile
        t = _GRAM_TILE
        cols = 4 * t
        # a dense block with zero edge rows, whose tiles share one span with
        # every tile at its left, is one product against every column from 0
        assert _tile_products([(3, 97)] * 4, 2 * t, 4 * t, cols) == [
            (2 * t, 4 * t, 3, 97, [(3, 97, 0, 4 * t)])]
        # left tiles that share fewer of its rows are a product of their own
        assert _tile_products([(0, 90), (0, 90), (3, 97), (3, 97)], 2 * t, 4 * t, cols) == [
            (2 * t, 4 * t, 3, 97, [(3, 90, 0, 2 * t), (3, 97, 2 * t, 4 * t)])]
        # an anti-diagonal band: tile 3 shares no row with tile 0, tile 2 is zero
        spans = [(60, 100), (30, 70), (0, 0), (0, 40)]
        assert _tile_products(spans, 2 * t, 4 * t, cols) == [
            (3 * t, 4 * t, 0, 40, [(30, 40, t, 2 * t), (0, 40, 3 * t, 4 * t)])]
        # a last tile one column wide
        assert _tile_products([(0, 5), (2, 9)], 0, t + 1, t + 1) == [
            (0, t, 0, 5, [(0, 5, 0, t)]), (t, t + 1, 2, 9, [(2, 5, 0, t), (2, 9, t, t + 1)])]

    @pytest.mark.parametrize("real", [False, True])
    def test_transposed_input(self, real):
        # a Fortran-ordered amplitude is scored as its C-ordered copy, at any scale
        f = _complex_matrix(7, shape=(40, 30))
        f = f.real if real else f
        for scale in (1.0, 1e300, 1e-300):
            g = scale * f
            assert not g.T.flags.c_contiguous
            assert _bits(jsa_purity(g.T)) == _bits(jsa_purity(np.ascontiguousarray(g.T)))
            assert abs(jsa_purity(g.T) - _svd_purity(f)) <= 1e-12


def _exact_purity(f) -> Fraction:
    """||F^H F||_F^2 / ||F||_F^4 of the float entries of `f`, in exact
    rational arithmetic."""
    re = [[Fraction(float(x)) for x in row] for row in f.real]
    im = [[Fraction(float(x)) for x in row] for row in f.imag]
    rows, cols = f.shape
    gram_sq = Fraction(0)
    for j in range(cols):
        for k in range(cols):
            g_re = sum(re[r][j] * re[r][k] + im[r][j] * im[r][k] for r in range(rows))
            g_im = sum(re[r][j] * im[r][k] - im[r][j] * re[r][k] for r in range(rows))
            gram_sq += g_re * g_re + g_im * g_im
    norm_sq = sum(x * x for row in re + im for x in row)
    return gram_sq / norm_sq**2


class TestFlushFloor:
    """The flush floor eps / (16 sqrt(parts)) moves the purity by at most eps."""

    @pytest.mark.parametrize("seed, shape", [(1, (9, 7)), (2, (6, 11)), (3, (12, 12))])
    def test_parts_just_below_the_floor_move_purity_at_most_eps(self, seed, shape):
        # a unit-norm amplitude with 40 % of its cells zero, then every part
        # of those cells raised to 0.99 of the floor in the direction that
        # raises or lowers the purity most, FG - PF with G = F^H F: the
        # flush zeroes them again, and the exact purity moves by at most eps
        rng = np.random.default_rng(seed)
        f = _complex_matrix(seed, shape)
        small = rng.random(shape) < 0.4
        f[small] = 0.0
        f = _unit_working_copy(f)
        floor = _flush_floor(2 * f.size)
        p = _svd_purity(f)
        for direction in (1.0, -1.0):
            grad = direction * (f @ (f.conj().T @ f) - p * f)
            raised = f + np.where(small, 0.99 * floor * (np.sign(grad.real)
                                                         + 1j * np.sign(grad.imag)), 0.0)
            assert np.count_nonzero(raised.view(float)) > np.count_nonzero(f.view(float))
            assert not np.any(_unit_working_copy(raised)[small])
            assert _bits(jsa_purity(raised)) == _bits(jsa_purity(f))
            shift = abs(_exact_purity(raised) - _exact_purity(f))
            assert 0 < shift <= _EPS


def test_runtime_loads_no_scipy():
    # the package runs on numpy and the standard library; scipy would add
    # about 0.1 s of import and 20 MB of resident memory to every run
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "import purepole, purepole.cli\n"
        "profile = purepole.TargetProfile.from_alpha(5.0, 1e-3, math.pi / 20e-6)\n"
        "purepole.greedy_track(profile, 3.0, 20e-6, 1e-3)\n"
        "purepole.erf_duty_profile(1e-3, 20e-6)\n"
        "purepole.jsa_purity(np.outer([1.0, 2.0], [1.0, 1j]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(purepole.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _gaussian_jsa(width_s, width_i, r_mult=10.0, n_per_dw=20):
    w_s0, w_i0 = 1.4e15, 1.2e15
    dw = 0.5 * (width_s + width_i)
    grid = make_grid(45.0, dw, w_s0, w_i0, r_mult=r_mult, step_divisor=n_per_dw)
    amp = np.exp(-(((grid.omega_s - w_s0) / width_s) ** 2))[:, None] * np.exp(
        -(((grid.omega_i - w_i0) / width_i) ** 2)
    )[None, :]
    amp = amp / np.sqrt((amp**2).sum())
    return JointSpectrum(grid=grid, amplitude=amp.astype(complex))


class TestHeraldingEfficiency:
    def test_full_grid_window_is_unity(self):
        jsa = _gaussian_jsa(1e12, 1.5e12)
        ws, wi = jsa.grid.omega_s, jsa.grid.omega_i
        eta = heralding_efficiency(jsa, (ws[0], ws[-1]), (wi[0], wi[-1]))
        assert eta == pytest.approx(1.0, abs=1e-15)

    def test_wide_windows_near_unity(self):
        jsa = _gaussian_jsa(1e12, 1e12)
        w_s0, w_i0 = 1.4e15, 1.2e15
        eta = heralding_efficiency(
            jsa, (w_s0 - 4e12, w_s0 + 4e12), (w_i0 - 4e12, w_i0 + 4e12)
        )
        assert eta == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_signal_window(self):
        jsa = _gaussian_jsa(1e12, 1e12)
        w_s0, w_i0 = 1.4e15, 1.2e15
        idler_window = (w_i0 - 1e12, w_i0 + 1e12)
        last = 0.0
        for half in (0.5e12, 1e12, 2e12, 3e12, 4.5e12):
            eta = heralding_efficiency(jsa, (w_s0 - half, w_s0 + half), idler_window)
            assert eta >= last
            last = eta

    def test_window_containment_enforced(self):
        jsa = _gaussian_jsa(1e12, 1e12)
        ws = jsa.grid.omega_s
        with pytest.raises(WindowExceedsGrid):
            heralding_efficiency(jsa, (ws[0] - 1e12, ws[-1]), (ws[0], ws[-1]))


# The golden-section refinement that Brent's bounded method replaced, kept as
# its reference: the bracket narrowed by the golden ratio down to `xatol`,
# then its midpoint scored.
_REF_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, a, b, xatol):
    x1 = b - _REF_GOLDEN * (b - a)
    x2 = a + _REF_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > xatol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _REF_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _REF_GOLDEN * (b - a)
            f1 = f(x1)
    x_best = 0.5 * (a + b)
    return x_best, f(x_best)


# The full coarse scan that the bandwidth walk replaced, kept as its reference
# path: every lattice point is scored, then the bracket around the best one is
# refined, by the package's Brent refinement unless `refine` says otherwise.
# Purity goes through the `analysis` module so that a test can route both
# searches through one cache or one synthetic curve.
_REF_N_COARSE, _REF_LOG_BW_TOL = 21, 1e-3


def _full_scan_bandwidth(model, cfg, structure, theta_deg, bounds_nm=(0.05, 50.0), refine=None):
    def purity_at(log_bw: float) -> float:
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, math.exp(log_bw))
        return analysis.jsa_purity(analysis.standard_jsa(model, cfg, structure, pump, theta_deg))

    logs = np.log(np.geomspace(bounds_nm[0], bounds_nm[1], _REF_N_COARSE))
    values = [purity_at(x) for x in logs]
    best = int(np.argmax(values))
    if best in (0, _REF_N_COARSE - 1):
        raise NoInteriorMaximum(
            f"purity maximal at search bound {math.exp(logs[best]):.3g} nm"
        )
    refine = refine or analysis._brent_maximize
    x_best, p = refine(purity_at, float(logs[best - 1]), float(logs[best + 1]), _REF_LOG_BW_TOL)
    return math.exp(x_best), p


def _unbuilt(model, cfg, structure, pump, theta_deg, *args, **kwargs):
    """Stand-in for `standard_jsa` that builds nothing: the pump, for a
    stubbed purity to score, on a grid of unknown dw."""
    return SimpleNamespace(pump=pump, grid=SimpleNamespace(delta_omega=math.nan))


@pytest.fixture(scope="module")
def preset_purities():
    """Purity caches of the preset searches, by (preset, structure label),
    shared by the tests that score the same lattice points."""
    return {}


def _memoized_purity(monkeypatch, model, cfg, structure, theta_deg, cache=None):
    """Route the searches' purity evaluations through one cache keyed by the
    pump, so that a point scored by both is built once."""
    cache = {} if cache is None else cache

    def purity_of(spectrum, overwrite=False):
        pump = spectrum.pump
        if pump not in cache:
            cache[pump] = jsa_purity(standard_jsa(model, cfg, structure, pump, theta_deg))
        return cache[pump]

    monkeypatch.setattr(analysis, "standard_jsa", _unbuilt)
    monkeypatch.setattr(analysis, "jsa_purity", purity_of)


_LOGS = np.log(np.geomspace(0.05, 50.0, 21))


def _lattice_curve(monkeypatch, lattice_values, seed=None):
    """Replace purity by a curve in log bandwidth that takes `lattice_values`
    on the 21 default lattice points and is linear between them, and pin the
    seed index unless `seed` is None.  Returns the list of lattice indices
    scored, in order."""
    scored = []

    def purity_of(spectrum, overwrite=False):
        x = math.log(spectrum.pump.bandwidth_nm)
        on = np.flatnonzero(np.abs(_LOGS - x) < 1e-9)
        if on.size:
            scored.append(int(on[0]))
            return float(lattice_values[on[0]])
        return float(np.interp(x, _LOGS, lattice_values))

    monkeypatch.setattr(analysis, "standard_jsa", _unbuilt)
    monkeypatch.setattr(analysis, "jsa_purity", purity_of)
    if seed is not None:
        monkeypatch.setattr(analysis, "_seed_index", lambda *args: seed)
    return scored


def _peaks(*peaks):
    """Lattice values: the largest of triangular peaks (index, height)."""
    idx = np.arange(21)
    return np.max([h - 0.05 * np.abs(idx - i) for i, h in peaks], axis=0)


def _skewed_gaussian(x):
    # a skewed peak with a small ripple, so that parabolic steps miss
    return (math.exp(-((x - 0.2) ** 2) / 0.1) * (1.0 + 0.3 * math.erf(3.0 * (x - 0.2)))
            + 1e-3 * math.sin(40.0 * x))


def _lattice_interp(values):
    return lambda x: float(np.interp(x, _LOGS, values))


class TestBrentRefinement:
    @pytest.mark.parametrize("curve, a, b", [
        (lambda x: 1.0 - (x - 0.3) ** 2, 0.0, 0.7),
        (lambda x: 0.99 - 0.1 * (x + 1.0) ** 2, -1.7, -0.1),
        (_skewed_gaussian, -0.3, 0.5),
        (_skewed_gaussian, -1.0, 1.0),
        (_lattice_interp(_peaks((8, 0.9), (10, 0.9))), _LOGS[7], _LOGS[9]),
        (_lattice_interp(_peaks((14, 0.9))), _LOGS[13], _LOGS[15]),
        (_lattice_interp(_peaks((5, 0.8), (12, 0.9))), _LOGS[4], _LOGS[6]),
        (lambda x: 0.5, 0.0, 1.0),
    ], ids=["parabola", "parabola-off-centre", "skewed", "skewed-wide", "peaks-tie",
            "peak", "peaks-two", "flat"])
    def test_equals_fminbound(self, curve, a, b):
        # the package's refinement is the bounded Brent method of
        # fminbound, applied to -f, bit for bit and point for point
        from scipy.optimize import fminbound

        ours, theirs = [], []

        def scored(x):
            ours.append(x)
            return curve(x)

        def negated(x):
            theirs.append(float(x))
            return -curve(x)

        x, p = analysis._brent_maximize(scored, float(a), float(b), 1e-3)
        want_x, want_f, status, evaluations = fminbound(negated, a, b, xtol=1e-3, full_output=True)
        assert status == 0
        assert (x, p) == (want_x, -want_f)
        assert ours == theirs
        assert len(ours) == evaluations
        assert a < x < b and p == curve(x)


class TestOptimizePumpBandwidth:
    def test_case_i_pp_optimum_is_interior_maximum(self, model):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        bw, p = optimize_pump_bandwidth(model, cfg, arr, gp.theta_deg)

        def purity_at(b):
            pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, b)
            dw = measure_delta_omega(model, cfg, arr, pump, gp.theta_deg)
            grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
            return purity(schmidt_decompose(build_jsa(model, cfg, arr, pump, grid)))

        assert p >= purity_at(0.5 * bw)
        assert p >= purity_at(2.0 * bw)
        assert 0.5 < bw < 5.0

    def test_bounds_without_interior_maximum(self, model):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        with pytest.raises(NoInteriorMaximum):
            optimize_pump_bandwidth(model, cfg, arr, gp.theta_deg, bounds_nm=(10.0, 50.0))

    @pytest.mark.parametrize("bounds", [
        (50.0, 0.05), (5.0, 5.0), (0.0, 50.0), (-1.0, 50.0), (0.05, math.inf),
        (math.nan, 50.0),
    ])
    def test_invalid_bounds_rejected(self, model, bounds):
        cfg = case_config("i")
        with pytest.raises(ValueError, match="bounds_nm"):
            optimize_pump_bandwidth(model, cfg, None, 26.0, bounds_nm=bounds)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_walk_equals_full_scan(self, model, preset, monkeypatch, preset_purities):
        # the reference gate: bit for bit on PP and on the beta = 10 SCL array
        cfg, gp, structures = preset_structures(model, preset)
        for label in ("pp", "scl-10"):
            if label not in structures:
                continue
            _memoized_purity(monkeypatch, model, cfg, structures[label], gp.theta_deg,
                             preset_purities.setdefault((preset, label), {}))
            want = _full_scan_bandwidth(model, cfg, structures[label], gp.theta_deg)
            assert optimize_pump_bandwidth(
                model, cfg, structures[label], gp.theta_deg) == want, label

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_brent_against_golden_section(self, model, preset, monkeypatch, preset_purities):
        # the refinement Brent's method replaced, on the same bracket: the
        # same optimum to the tolerance, no lower purity, fewer candidates
        cfg, gp, structures = preset_structures(model, preset)
        for label in ("pp", "scl-10"):
            if label not in structures:
                continue
            _memoized_purity(monkeypatch, model, cfg, structures[label], gp.theta_deg,
                             preset_purities.setdefault((preset, label), {}))
            counts = []

            def counted(refine):
                def run(f, a, b, xatol):
                    scored = []
                    x, p = refine(lambda x: scored.append(x) or f(x), a, b, xatol)
                    counts.append(len(scored))
                    return x, p
                return run

            bw, p = _full_scan_bandwidth(model, cfg, structures[label], gp.theta_deg,
                                         refine=counted(analysis._brent_maximize))
            golden_bw, golden_p = _full_scan_bandwidth(model, cfg, structures[label],
                                                       gp.theta_deg, refine=counted(_golden_section))
            assert abs(math.log(bw) - math.log(golden_bw)) <= 1e-3, label
            assert p >= golden_p - 1e-7, label
            assert counts[0] < counts[1], label

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_periodic_optimum_round_trips(self, model, preset, monkeypatch, preset_purities):
        # the pump built from the optimum reports that bandwidth exactly
        cfg, gp, structures = preset_structures(model, preset)
        _memoized_purity(monkeypatch, model, cfg, structures["pp"], gp.theta_deg,
                         preset_purities.setdefault((preset, "pp"), {}))
        bw, _ = optimize_pump_bandwidth(model, cfg, structures["pp"], gp.theta_deg)
        assert PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, bw).bandwidth_nm == bw

    def test_walk_evaluation_counts(self, model, monkeypatch):
        bandwidths = []
        real = analysis.standard_jsa

        def counted(model, cfg, structure, pump, theta_deg, **buffers):
            bandwidths.append(pump.bandwidth_nm)
            return real(model, cfg, structure, pump, theta_deg, **buffers)

        monkeypatch.setattr(analysis, "standard_jsa", counted)
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        optimize_pump_bandwidth(
            model, cfg, periodic_domains(cfg.length_m, gp.coherence_length_m), gp.theta_deg)
        assert len(bandwidths) <= 15  # 13; golden-section refinement made 23, the full scan 38
        bandwidths.clear()
        cfg, gp, structures = preset_structures(model, "o-band-ii")
        optimize_pump_bandwidth(model, cfg, structures["pp"], gp.theta_deg)
        assert max(bandwidths) < 0.99 * 50.0

    @pytest.mark.parametrize("preset, length_mm, beta", [
        ("o-band-i", 5.0, None), ("c-band-x", 3.0, 3.0), ("c-band-ix", 5.0, None),
    ])
    def test_search_purity_is_the_unbuffered_purity(self, model, preset, length_mm, beta):
        # unpatched, so the candidates go through the search's own buffers;
        # c-band-ix (theta 3.1 deg) scores on 400^2 grids
        pump_nm, signal_nm, axis = PRESETS[preset]
        cfg = PhaseMatchConfig.from_pump_signal(pump_nm * 1e-3, signal_nm * 1e-3, Axis(axis),
                                                length_m=length_mm * 1e-3)
        gp = phase_mismatch_and_lc(model, cfg)
        lc = gp.coherence_length_m
        if beta is None:
            structure = periodic_domains(cfg.length_m, lc)
        else:  # the design-ladder workload's accepted rung
            profile = TargetProfile.from_alpha(4.6, cfg.length_m, math.pi / lc)
            structure = greedy_track(profile, beta, lc, cfg.length_m)
        optimum = optimize_pump_bandwidth(model, cfg, structure, gp.theta_deg)
        # the optimum is a candidate the search scored, not a point scored
        # after it: its purity and dw are those of a fresh build at the
        # bandwidth it reports, bit for bit
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, optimum[0])
        fresh = standard_jsa(model, cfg, structure, pump, gp.theta_deg)
        got = np.array([optimum[1], optimum.delta_omega]).view(np.int64)
        want = np.array([jsa_purity(fresh), fresh.grid.delta_omega]).view(np.int64)
        assert got.tolist() == want.tolist()
        assert optimum.delta_omega == measure_delta_omega(model, cfg, structure, pump, gp.theta_deg)

    @pytest.mark.parametrize("step_divisor, side", [(None, 200), (10, 100)])
    def test_search_grid_and_its_dw(self, model, monkeypatch, step_divisor, side):
        # every candidate, dw measurement included, is on the given grid;
        # the optimum carries the dw of its own candidate, at its bandwidth
        sides = []
        real = analysis.standard_jsa

        def counted(*args, **kwargs):
            jsa = real(*args, **kwargs)
            sides.append(jsa.amplitude.shape)
            return jsa

        monkeypatch.setattr(analysis, "standard_jsa", counted)
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        optimum = optimize_pump_bandwidth(model, cfg, arr, gp.theta_deg, step_divisor=step_divisor)
        assert set(sides) == {(side, side)}
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, optimum[0])
        assert optimum.delta_omega == measure_delta_omega(
            model, cfg, arr, pump, gp.theta_deg, step_divisor=step_divisor)
        if step_divisor is None:
            assert optimum.delta_omega == measure_delta_omega(model, cfg, arr, pump, gp.theta_deg)
        # dw alone outlives the search, not its last spectrum and buffers
        assert list(vars(optimum)) == ["delta_omega"]
        assert isinstance(optimum.delta_omega, float)

    @pytest.mark.parametrize("peak, seed", [(0, 6), (20, 14), (0, 0), (20, 20)])
    def test_peak_at_a_bound_raises(self, model, monkeypatch, peak, seed):
        _lattice_curve(monkeypatch, _peaks((peak, 0.9)), seed=seed)
        cfg = case_config("i")
        with pytest.raises(NoInteriorMaximum):
            optimize_pump_bandwidth(model, cfg, None, 26.0)

    @pytest.mark.parametrize("seed, peak, window", [(0, 7, range(0, 10)), (20, 13, range(11, 21))])
    def test_seed_at_a_lattice_end(self, model, monkeypatch, seed, peak, window):
        scored = _lattice_curve(monkeypatch, _peaks((peak, 0.9)), seed=seed)
        cfg = case_config("i")
        got = optimize_pump_bandwidth(model, cfg, None, 26.0)
        # the walk scores the window first; a refinement step may land on
        # the kink at its best point, but on no other lattice point
        assert sorted(scored[:len(window)]) == list(window)
        assert len(set(scored)) == len(window)
        assert got == _full_scan_bandwidth(model, cfg, None, 26.0)

    def test_zero_slope_product_clamps_the_seed(self, model, monkeypatch):
        cfg = case_config("i")
        monkeypatch.setattr(analysis, "_ridge_slopes", lambda *args: (0.0, -1e-9))
        assert analysis._seed_index(model, cfg, _LOGS) == 20
        scored = _lattice_curve(monkeypatch, _peaks((14, 0.9)))
        got = optimize_pump_bandwidth(model, cfg, None, 26.0)
        assert scored[:3] == [18, 19, 20]
        assert got == _full_scan_bandwidth(model, cfg, None, 26.0)

    @pytest.mark.parametrize("slopes", [(math.inf, 1e-9), (math.nan, 1e-9)])
    def test_non_finite_slope_product_clamps_the_seed(self, model, monkeypatch, slopes):
        monkeypatch.setattr(analysis, "_ridge_slopes", lambda *args: slopes)
        assert analysis._seed_index(model, case_config("i"), _LOGS) == 0

    def test_seed_is_nearest_lattice_point(self, model):
        cfg = case_config("i")
        slope_s, slope_i = analysis._ridge_slopes(model, cfg)
        sigma = 1.0 / math.sqrt(0.25 * 0.193 * cfg.length_m**2 * abs(slope_s * slope_i))
        # the bandwidth of a pump of that width at lambda_p
        lam = cfg.lambda_p_um * 1e-6
        bw = sigma * math.sqrt(2 * math.log(2)) * lam**2 / (2 * math.pi * C_LIGHT) * 1e9
        assert PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, bw).sigma_p == pytest.approx(
            sigma, rel=1e-12)
        seed = analysis._seed_index(model, cfg, _LOGS)
        assert abs(_LOGS[seed] - math.log(bw)) <= 0.5 * (_LOGS[1] - _LOGS[0])

    def test_tie_goes_to_the_lowest_index(self, model, monkeypatch):
        # equal maxima at 8 and 10 with a dip between: the bracket is [7, 9]
        cfg = case_config("i")
        _lattice_curve(monkeypatch, _peaks((8, 0.9), (10, 0.9)), seed=9)
        bw, p = optimize_pump_bandwidth(model, cfg, None, 26.0)
        assert math.exp(_LOGS[7]) < bw < math.exp(_LOGS[9])
        assert (bw, p) == _full_scan_bandwidth(model, cfg, None, 26.0)

    def test_higher_maximum_beyond_the_margin_is_not_found(self, model, monkeypatch):
        # the documented contract: the walk stops once its best point has
        # _SCAN_MARGIN scored neighbours on each side
        cfg = case_config("i")
        scored = _lattice_curve(monkeypatch, _peaks((5, 0.8), (12, 0.9)), seed=5)
        bw, p = optimize_pump_bandwidth(model, cfg, None, 26.0)
        assert sorted(set(scored)) == [3, 4, 5, 6, 7]
        assert math.exp(_LOGS[4]) < bw < math.exp(_LOGS[6])
        full_bw, full_p = _full_scan_bandwidth(model, cfg, None, 26.0)
        assert math.exp(_LOGS[11]) < full_bw < math.exp(_LOGS[13])
        assert p < full_p


class TestPurityVsRange:
    def test_rejects_tiny_range(self, model):
        cfg = case_config("i")
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.7)
        arr = periodic_domains(cfg.length_m, 18.85e-6)
        with pytest.raises(ValueError, match="at least 2"):
            purity_vs_range(model, cfg, arr, pump, [1.0], 27.0)

    def test_monotone_r_required(self):
        from purepole import RangeSweepCurve

        with pytest.raises(ValueError, match="ascending"):
            RangeSweepCurve(
                r_values=np.array([10.0, 5.0]),
                purities=np.array([0.9, 0.8]),
                scheme="pp",
            )

    @pytest.mark.parametrize("r_values", [[10.0, 10.0], [50.0, 10.0], [2.0, 20.0, 10.0]])
    def test_unordered_r_rejected_before_any_build(self, model, monkeypatch, r_values):
        def no_build(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(analysis, "standard_jsa", no_build)
        monkeypatch.setattr(analysis, "measure_delta_omega", no_build)
        cfg = case_config("i")
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.7)
        arr = periodic_domains(cfg.length_m, 18.85e-6)
        with pytest.raises(ValueError, match="ascending"):
            purity_vs_range(model, cfg, arr, pump, r_values, 27.0)

    @pytest.mark.parametrize("r_values", [[10.0, 1e9], [1e9]])
    def test_oversized_r_rejected_before_any_build(self, model, monkeypatch, r_values):
        # a side of 2e10 points: N^2 x 16 bytes exceeds what numpy can index,
        # which is decided by arithmetic, never by trying the allocation
        def no_build(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(analysis, "standard_jsa", no_build)
        monkeypatch.setattr(analysis, "measure_delta_omega", no_build)
        cfg = case_config("i")
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.7)
        arr = periodic_domains(cfg.length_m, 18.85e-6)
        with pytest.raises(ValueError, match="cannot index"):
            purity_vs_range(model, cfg, arr, pump, r_values, 27.0)
        with pytest.raises(ValueError, match="cannot index"):
            make_grid(27.0, 1e12, cfg.omega_s0, cfg.omega_i0, r_mult=1e9)

    def test_empty_r_list(self, model):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.7)
        curve = purity_vs_range(model, cfg, arr, pump, [], gp.theta_deg)
        assert curve.r_values.size == curve.purities.size == curve.masked_fractions.size == 0
        assert curve.delta_omega == measure_delta_omega(model, cfg, arr, pump, gp.theta_deg)

    @pytest.mark.parametrize("preset, r_values, sides", [
        ("o-band-i", [2.0, 10.0, 50.0], (40, 200, 1000)),
        ("o-band-ii", [2.0, 10.0, 25.0], (80, 400, 1000)),
    ])
    def test_buffered_sweep_is_the_unbuffered_chain(self, model, preset, r_values, sides):
        # every R built into the sweep's buffers scores as a fresh standard
        # grid does, bit for bit, from small sides to large
        cfg, gp, structures = preset_structures(model, preset)
        for label in ("pp", "scl-10"):
            structure = structures[label]
            pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 2.0)
            dw = measure_delta_omega(model, cfg, structure, pump, gp.theta_deg)
            curve = purity_vs_range(model, cfg, structure, pump, r_values, gp.theta_deg, dw)
            for r, side, got, got_masked in zip(r_values, sides, curve.purities,
                                                curve.masked_fractions):
                jsa = standard_jsa(model, cfg, structure, pump, gp.theta_deg, dw, r)
                assert jsa.amplitude.shape == (side, side)
                assert _bits(got) == _bits(jsa_purity(jsa)), (label, r)
                assert got_masked == jsa.masked_fraction

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_band_sweep_is_the_standard_chain(self, model, preset):
        # the 1000^2 grid, R = 50 (R = 25 where the standard grid is 400^2),
        # built only on its band, scores as the whole standard grid does
        cfg, gp, structures = preset_structures(model, preset)
        r = 50.0 if _grid_side(gp.theta_deg)[1] == 200 else 25.0
        for label in ("pp", "dc"):
            structure = structures[label]
            pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 2.0)
            dw = measure_delta_omega(model, cfg, structure, pump, gp.theta_deg)
            curve = purity_vs_range(model, cfg, structure, pump, [r], gp.theta_deg, dw)
            jsa = standard_jsa(model, cfg, structure, pump, gp.theta_deg, dw, r)
            assert jsa.amplitude.shape == (1000, 1000)
            assert _bits(curve.purities[0]) == _bits(jsa_purity(jsa)), label
            assert curve.masked_fractions[0] == jsa.masked_fraction

    @staticmethod
    def _masked_wide_case():
        # part of the idler axis leaves the transparency window; at R = 50
        # about 45 % of the 1000^2 grid is masked
        cfg = PhaseMatchConfig.from_pump_signal(0.650, 0.780, Axis.Z)
        pump = PumpSpec.from_bandwidth_nm(0.650, 2.0)
        return cfg, periodic_domains(cfg.length_m, 20e-6), pump, 45.0, 0.01 * cfg.omega_i0

    def test_band_sweep_of_a_masked_wide_grid(self, model):
        cfg, structure, pump, theta, dw = self._masked_wide_case()
        curve = purity_vs_range(model, cfg, structure, pump, [10.0, 50.0], theta, dw)
        for r, got, got_masked in zip((10.0, 50.0), curve.purities, curve.masked_fractions):
            jsa = standard_jsa(model, cfg, structure, pump, theta, dw, r)
            assert jsa.masked_points > 0
            assert _bits(got) == _bits(jsa_purity(jsa)), r
            assert got_masked == jsa.masked_fraction

    @staticmethod
    def _band(evaluator, structure, rects=None):
        """(band f, masked points, mask of the rectangles) on a grid that held
        NaN, over `rects` or, when None, the rectangles of `band`."""
        shape = (evaluator.grid.n_signal, evaluator.grid.n_idler)
        f = np.full(shape, np.nan + 1j * np.nan)
        if rects is None:
            rects = evaluator.band(structure, _flush_floor(2 * f.size))
        _, masked = evaluator.amplitude(structure, out=f, rects=rects)
        inside = np.zeros(shape, dtype=bool)
        for j0, j1, k0, k1 in rects:
            inside[j0:j1, k0:k1] = True
        return f, masked, inside

    @pytest.mark.parametrize("case, rects", [
        *(pytest.param(case, None, id=case) for case in ("pp", "scl-10", "masked")),
        *(pytest.param("masked", name, id=f"masked-{name}") for name in HAND_MADE_RECTS)])
    def test_band_holds_every_part_the_flush_keeps(self, model, case, rects):
        if case == "masked":
            cfg, structure, pump, theta, dw = self._masked_wide_case()
        else:
            cfg, gp, structures = preset_structures(model, "o-band-i")
            structure, theta = structures[case], gp.theta_deg
            pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.71)
            dw = measure_delta_omega(model, cfg, structure, pump, theta)
        grid = make_grid(theta, dw, cfg.omega_s0, cfg.omega_i0, r_mult=50.0)
        evaluator = _JsaEvaluator(model, cfg, grid, pump)
        if rects is not None:
            name, rects = rects, HAND_MADE_RECTS[rects](grid.n_signal, grid.n_idler)
            # the block the case names holds no valid point on this grid
            assert evaluator.plan.valid_block(*rects[0]).any() != (name == "no-valid-point")
        f, masked, inside = self._band(evaluator, structure, rects)
        whole, whole_masked = evaluator.amplitude(structure)
        assert masked == whole_masked and (masked > 0) == (case == "masked")
        # the rectangles hold the whole build bit for bit, and +0.0 elsewhere
        assert np.array_equal(_bits_of(f[inside]), _bits_of(whole[inside]))
        assert not _bits_of(f[~inside]).any()
        # the masked points' placeholder mismatch grows the structure's table
        # no further than the valid points' own dk do
        dk, valid = evaluator.plan.full()
        alone = dataclasses.replace(structure)  # the same structure, an empty table
        _interpolate(evaluator.sign * dk[valid], alone)
        have, coef = structure.pmf_table["subcells"]
        assert (have, coef.shape) == (alone.pmf_table["subcells"][0],
                                      alone.pmf_table["subcells"][1].shape)
        if rects is not None:
            return
        assert 0.2 < inside.mean() < 0.6
        # every part the band leaves out lies below the flush floor once the
        # whole build is scaled by its largest part and to unit norm
        parts = whole.view(float)
        scaled = parts / np.abs(parts).max()
        scaled /= math.sqrt(float(np.dot(scaled.ravel(), scaled.ravel())))
        outside = np.abs(scaled.reshape(*inside.shape, 2)[~inside])
        assert outside.max() < _flush_floor(parts.size)

    def test_masked_centre_keeps_every_nonzero_envelope(self, model):
        # with the anti-diagonal of largest envelope masked, p = 0: the band
        # is every anti-diagonal whose envelope has not underflowed to 0
        cfg, gp, structures = preset_structures(model, "o-band-i")
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.71)
        dw = measure_delta_omega(model, cfg, structures["pp"], pump, gp.theta_deg)
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=50.0)
        evaluator = _JsaEvaluator(model, cfg, grid, pump)
        centre = int(np.argmax(evaluator.envelope))
        valid_pump = evaluator.plan.valid_pump.copy()
        valid_pump[centre] = False
        evaluator.plan = dataclasses.replace(evaluator.plan, valid_pump=valid_pump)
        f, masked, inside = self._band(evaluator, structures["pp"])
        whole, whole_masked = evaluator.amplitude(structures["pp"])
        kept = np.flatnonzero(evaluator.envelope > 0.0)
        assert 0 < kept[0] and kept[-1] < evaluator.envelope.size - 1
        block = spectrum._BAND_ROWS
        rows = np.arange(grid.n_signal)[:, None] // block * block
        lo = np.clip(kept[0] - np.minimum(rows + block, grid.n_signal) + 1, 0, grid.n_idler)
        hi = np.clip(kept[-1] - rows + 1, 0, grid.n_idler)
        cols = np.arange(grid.n_idler)[None, :]
        assert np.array_equal(inside, (lo <= cols) & (cols < hi))
        assert masked == whole_masked == min(centre + 1, 2 * grid.n_signal - 1 - centre)
        assert np.array_equal(_bits_of(f[inside]), _bits_of(whole[inside]))
        assert not _bits_of(f[~inside]).any() and not whole[~inside].any()

    def test_tight_filtering_raises_purity(self, model):
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        arr = periodic_domains(cfg.length_m, gp.coherence_length_m)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 1.7)
        curve = purity_vs_range(model, cfg, arr, pump, [2.0, 10.0], gp.theta_deg, tag="pp")
        assert curve.purities[0] > curve.purities[1]
        assert curve.purities[0] > 0.95
        assert curve.scheme == "pp"


class TestPsoDutyCycle:
    @pytest.mark.parametrize("field, value", [("n_particles", 0), ("n_iterations", -1)])
    def test_invalid_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            PsoSettings(**{field: value})

    def test_deterministic_bit_for_bit(self, model):
        cfg = case_config("i", length_m=1.0e-3)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
        settings_ = PsoSettings(n_particles=4, n_iterations=3)
        prof_a, res_a = pso_optimize_dc(model, cfg, pump, settings_, seed=42)
        prof_b, res_b = pso_optimize_dc(model, cfg, pump, settings_, seed=42)
        assert np.array_equal(prof_a, prof_b)
        assert res_a.purity == res_b.purity

    def test_seed_changes_search(self, model):
        cfg = case_config("i", length_m=1.0e-3)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
        settings_ = PsoSettings(n_particles=4, n_iterations=2)
        prof_a, _ = pso_optimize_dc(model, cfg, pump, settings_, seed=1)
        prof_b, _ = pso_optimize_dc(model, cfg, pump, settings_, seed=2)
        assert not np.array_equal(prof_a, prof_b)

    def test_budget_exhausted_flag(self, model):
        cfg = case_config("i", length_m=1.0e-3)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
        settings_ = PsoSettings(n_particles=2, n_iterations=1, target_purity=0.999999)
        _, res = pso_optimize_dc(model, cfg, pump, settings_, seed=0)
        assert res.below_threshold

    def test_result_carries_the_dw_it_was_scored_at(self, model):
        cfg = case_config("i", length_m=1.0e-3)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
        _, res = pso_optimize_dc(model, cfg, pump, PsoSettings(n_particles=2, n_iterations=1))
        assert res.delta_omega_rad_s == measure_delta_omega(
            model, cfg, res.domains, pump, res.theta_deg)

    def test_initial_profile_size_checked(self, model):
        cfg = case_config("i", length_m=1.0e-3)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
        with pytest.raises(ValueError, match="floor"):
            pso_optimize_dc(model, cfg, pump, PsoSettings(n_particles=2, n_iterations=1),
                            initial_profile=np.full(7, 0.5))

    def test_duty_cycle_beats_periodic_at_standard_range(self, model):
        # the apodized duty-cycle source outperforms plain periodic poling at
        # R = 10 dw even with a small search budget on top of the erf start
        cfg = case_config("i")
        gp = phase_mismatch_and_lc(model, cfg)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
        settings_ = PsoSettings(n_particles=4, n_iterations=2)
        _, res = pso_optimize_dc(model, cfg, pump, settings_, seed=0)
        pp = periodic_domains(cfg.length_m, gp.coherence_length_m)
        _, p_pp = optimize_pump_bandwidth(model, cfg, pp, gp.theta_deg)
        assert res.purity > p_pp

    def test_half_duty_start_matches_periodic_purity(self, model):
        # even unit-cell geometry so dc(0.5) covers the same poled length
        gp = phase_mismatch_and_lc(model, case_config("i"))
        lc = gp.coherence_length_m
        cfg = case_config("i", length_m=266 * lc + 1e-12)
        n = int(cfg.length_m / (2 * lc))
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.07)
        settings_ = PsoSettings(n_particles=1, n_iterations=0)
        _, res = pso_optimize_dc(
            model, cfg, pump, settings_, seed=0,
            initial_profile=np.full(n, 0.5),
        )
        pp = periodic_domains(cfg.length_m, lc)
        dw = measure_delta_omega(model, cfg, pp, pump, gp.theta_deg)
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
        p_pp = purity(schmidt_decompose(build_jsa(model, cfg, pp, pump, grid)))
        assert res.purity == pytest.approx(p_pp, abs=1e-6)


class TestDutyCycleBatch:
    """The swarm's batch scores against `jsa_purity(build_jsa(...))` per
    structure, at the 1e-12 the per-structure path is held to."""

    @staticmethod
    def _per_structure(model, cfg, lc, pump, grid, profiles):
        return np.array([
            jsa_purity(build_jsa(model, cfg, dc_domains(cfg.length_m, lc, p), pump, grid,
                                 mask_invalid=True))
            for p in profiles])

    @pytest.mark.parametrize("coarse_points", [60, 100])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_coarse_grid(self, model, preset, coarse_points):
        cfg, gp, structures = preset_structures(model, preset)
        lc = gp.coherence_length_m
        pump, dw = _standard_pump_and_dw(model, cfg, gp, structures["pp"])
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=10.0,
                         step_divisor=coarse_points // 10)
        random = structures["dc"].fractions
        rng = np.random.default_rng(coarse_points)
        pinned = rng.choice([0.02, 0.98], random.size)
        profiles = np.stack([random, pinned])
        evaluator = spectrum._JsaEvaluator(model, cfg, grid, pump)
        assert evaluator._duty_cycle_cells(2 * lc, random.size) is not None
        batch = analysis._swarm_purities(evaluator, 2 * lc, profiles)
        want = self._per_structure(model, cfg, lc, pump, grid, profiles)
        assert np.max(np.abs(batch - want)) <= 1e-12

    def test_grid_below_the_size_rule(self, model):
        # 10 x 10 points are fewer than twice the lattice nodes they span:
        # the batch takes the exact sum at each point, as pmf_piecewise does
        cfg = case_config("i", length_m=1.5e-3)
        gp = phase_mismatch_and_lc(model, cfg)
        lc = gp.coherence_length_m
        pump, dw = _standard_pump_and_dw(model, cfg, gp,
                                         periodic_domains(cfg.length_m, lc))
        grid = make_grid(gp.theta_deg, dw, cfg.omega_s0, cfg.omega_i0, r_mult=10.0,
                         step_divisor=1)
        n_periods = int(cfg.length_m / (2 * lc) + 1e-12)
        profiles = np.random.default_rng(5).uniform(0.02, 0.98, (3, n_periods))
        evaluator = spectrum._JsaEvaluator(model, cfg, grid, pump)
        assert evaluator._duty_cycle_cells(2 * lc, n_periods) is None
        batch = analysis._swarm_purities(evaluator, 2 * lc, profiles)
        want = self._per_structure(model, cfg, lc, pump, grid, profiles)
        assert np.max(np.abs(batch - want)) <= 1e-12

    def test_swarm_first_iteration(self, model, monkeypatch):
        cfg = case_config("i", length_m=1.5e-3)
        gp = phase_mismatch_and_lc(model, cfg)
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
        calls = []
        real = analysis._swarm_purities

        def recording(evaluator, period_m, fractions):
            scores = real(evaluator, period_m, fractions)
            calls.append((evaluator.grid, fractions.copy(), scores.copy()))
            return scores

        monkeypatch.setattr(analysis, "_swarm_purities", recording)
        pso_optimize_dc(model, cfg, pump, PsoSettings(n_particles=6, n_iterations=1), seed=3)
        # one call for the initial swarm and one per iteration
        assert len(calls) == 2
        for grid, profiles, scores in calls:
            assert profiles.shape[0] == 6
            want = self._per_structure(model, cfg, gp.coherence_length_m, pump, grid, profiles)
            assert np.max(np.abs(scores - want)) <= 1e-12

    def test_node_sums_at_and_near_zero_mismatch(self):
        # the closed form divides by dk: at dk = 0 and at small |dk| period
        # the per-segment sum takes over, and the limit is sum(w_up - w_down)
        period = 40e-6
        fractions = np.random.default_rng(2).uniform(0.02, 0.98, (3, 25))
        step = spectrum._lattice_step(25 * period)
        first, count = -40, 120
        small = np.abs(step * np.arange(first, first + count)) * period < spectrum._CLOSED_FORM_MIN
        assert small[-first] and 1 < np.count_nonzero(small) < count
        edges = spectrum._duty_cycle_edge_sums(first, count, period, 25)
        got = spectrum._duty_cycle_node_sums(first, count, period, fractions, edges)
        for row, f in zip(got, fractions):
            structure = DutyCycleStructure(period_m=period, fractions=f)
            segments = spectrum._segments(structure)
            want = spectrum._segment_sum(step * np.arange(first, first + count), *segments)
            assert row[-first] == want[-first] == pytest.approx(period * np.sum(2 * f - 1),
                                                                rel=1e-12)
            assert np.array_equal(row[small], want[small])
            assert np.max(np.abs(row - want)) <= 1e-12 * structure.length_m


class TestExports:
    def test_schmidt_csv(self, tmp_path):
        s = schmidt_decompose(_complex_matrix(5))
        dest = tmp_path / "schmidt.csv"
        write_schmidt_csv(dest, s, header_lines=["digest: d"])
        lines = dest.read_text().splitlines()
        assert lines[0] == "# digest: d"
        assert lines[1] == "j,c_j"
        assert len(lines) == 2 + s.coefficients.size

    def test_curve_csv(self, tmp_path):
        from purepole import RangeSweepCurve

        curve = RangeSweepCurve(
            r_values=np.array([10.0, 20.0]),
            purities=np.array([0.99, 0.95]),
            scheme="cl",
            masked_fractions=np.array([0.0, 0.01]),
            delta_omega=1e12,
        )
        dest = tmp_path / "curve.csv"
        write_curve_csv(dest, curve)
        text = dest.read_text()
        assert "R_over_dw,purity,scheme,masked_fraction" in text
        assert "10,0.9900000000,cl,0.000000" in text
