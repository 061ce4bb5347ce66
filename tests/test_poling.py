"""Poling structures: periodic, tracked, multi-order, duty-cycle."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf as scipy_erf

from purepole import (
    Axis,
    CrystalTooShort,
    DomainArray,
    DomainTooNarrow,
    DutyCycleStructure,
    DutyOutOfRange,
    InvalidOrderList,
    PhaseMatchConfig,
    TargetProfile,
    ZeroPhaseMismatch,
    dc_domains,
    effective_pmf_tracked,
    erf_duty_profile,
    greedy_track,
    mqpm_domains,
    periodic_domains,
    phase_mismatch_and_lc,
    pmf_piecewise,
    target_pmf,
)
from purepole import poling
from purepole.cli import PRESETS
from purepole.poling import ALIGNMENT_PHASE, tracking_cost, write_poling_file

from conftest import case_config

# target amplitude at z = L for alpha = 5, in units of sigma
# (2 sqrt(2/pi) erf(5 / (2 sqrt 2)), frozen from a 50-digit mpmath evaluation)
PHI_T_END_ALPHA5 = 1.575950737240972

LC_I = 18.86e-6  # published case-(i) coherence length
L5MM = 5e-3


class TestPeriodicDomains:
    def test_case_i_count_and_alternation(self):
        arr = periodic_domains(L5MM, LC_I)
        assert arr.n_domains == 265
        assert arr.width_m == LC_I
        assert np.all(arr.signs[0::2] == 1)
        assert np.all(arr.signs[1::2] == -1)

    def test_two_domain_crystal(self):
        arr = periodic_domains(5e-3, 2.49e-3)
        assert list(arr.signs) == [1, -1]

    def test_domain_too_narrow(self):
        with pytest.raises(DomainTooNarrow):
            periodic_domains(5e-3, 0.5e-6)

    def test_crystal_too_short(self):
        with pytest.raises(CrystalTooShort):
            periodic_domains(30e-6, 18.86e-6)

    def test_sign_validation(self):
        with pytest.raises(ValueError, match="exactly"):
            DomainArray(width_m=1e-6, signs=np.array([1, 0, -1]))


@pytest.mark.parametrize("make, name, values", [
    (lambda v: DomainArray(width_m=20e-6, signs=v), "signs", np.array([1, -1, 1, 1, -1], np.int8)),
    (lambda v: DutyCycleStructure(period_m=40e-6, fractions=v), "fractions",
     np.array([0.3, 0.5, 0.7])),
])
def test_structure_owns_a_read_only_copy_and_its_table(make, name, values):
    # the structure's phase-matching table is derived from these arrays, so
    # neither the caller's array nor the structure's own may change them
    first = values[0]
    structure = make(values)
    values[0] = -values[0]
    assert getattr(structure, name)[0] == first
    with pytest.raises(ValueError):
        getattr(structure, name)[0] = -first
    pmf_piecewise(np.linspace(0.0, 4e5, 2000), structure)
    assert structure.pmf_table
    # the table belongs to the structure and goes with it
    gone = weakref.ref(structure)
    del structure
    gc.collect()
    assert gone() is None


class TestTargetProfile:
    @pytest.mark.parametrize("alpha", [4.0, 4.6, 5.1, 6.0, 0.01])
    def test_width_is_derived(self, alpha):
        # the expression from_alpha stored before sigma was derived
        profile = TargetProfile.from_alpha(alpha, L5MM, math.pi / LC_I)
        assert profile.sigma_m == L5MM / alpha
        assert profile == TargetProfile(alpha=alpha, length_m=L5MM, delta_k0=math.pi / LC_I)
        assert [f.name for f in dataclasses.fields(TargetProfile)] == [
            "alpha", "length_m", "delta_k0"]

    @pytest.mark.parametrize("alpha, length, dk0", [
        (0.0, L5MM, 1e5), (-5.0, L5MM, 1e5), (5.0, 0.0, 1e5), (5.0, L5MM, 0.0)])
    def test_nonpositive_input_rejected(self, alpha, length, dk0):
        with pytest.raises(ValueError, match="positive"):
            TargetProfile(alpha, length, dk0)


class TestTargetPmf:
    def test_zero_at_entrance(self):
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        assert abs(target_pmf(0.0, profile)) < 1e-18

    def test_half_height_at_center(self):
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        from scipy.special import erf as sp_erf

        expected = math.sqrt(2 / math.pi) * profile.sigma_m * sp_erf(5.0 / (2 * math.sqrt(2)))
        assert target_pmf(L5MM / 2, profile) == pytest.approx(expected, rel=1e-14)

    def test_endpoint_frozen_value(self):
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        assert target_pmf(L5MM, profile) == pytest.approx(
            PHI_T_END_ALPHA5 * profile.sigma_m, rel=1e-12
        )

    def test_monotone_nondecreasing(self):
        profile = TargetProfile.from_alpha(4.7, L5MM, math.pi / LC_I)
        z = np.linspace(0, L5MM, 400)
        values = target_pmf(z, profile)
        assert np.all(np.diff(values) >= 0)


class TestErfAgainstScipy:
    """poling takes erf from math.erf; scipy's erf is the independent reference."""

    def test_elementwise_erf_within_4_ulp(self):
        x = np.linspace(-6.0, 6.0, 20001)
        got, want = poling._erf(x), scipy_erf(x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("alpha", [4.0, 5.0, 6.0])
    def test_target_pmf_scalars_and_arrays(self, monkeypatch, alpha):
        # relative to the full height phi_T(L): near z = 0 the two erf terms
        # cancel, so a pointwise ratio would measure that cancellation instead
        profile = TargetProfile.from_alpha(alpha, L5MM, math.pi / LC_I)
        z = np.linspace(0.0, L5MM, 1001)
        got_array = target_pmf(z, profile)
        got_scalar = np.array([target_pmf(float(v), profile) for v in z])
        monkeypatch.setattr(poling, "_erf", scipy_erf)
        want = target_pmf(z, profile)
        height = target_pmf(L5MM, profile)
        assert np.max(np.abs(got_array - want)) <= 1e-15 * height
        assert np.max(np.abs(got_scalar - want)) <= 1e-15 * height

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_tracked_signs_identical(self, model, monkeypatch, preset):
        pump_nm, signal_nm, axis = PRESETS[preset]
        cfg = PhaseMatchConfig.from_pump_signal(pump_nm * 1e-3, signal_nm * 1e-3, Axis(axis))
        lc = phase_mismatch_and_lc(model, cfg).coherence_length_m
        runs = [(alpha, beta) for alpha in (4.0, 5.0, 6.0) for beta in (1.0, 3.0, 10.0)]

        def tracks():
            return [greedy_track(TargetProfile.from_alpha(alpha, cfg.length_m, math.pi / lc),
                                 beta, lc, cfg.length_m).signs for alpha, beta in runs]

        got = tracks()
        monkeypatch.setattr(poling, "_erf", scipy_erf)
        for signs, want in zip(got, tracks()):
            assert np.array_equal(signs, want)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_erf_duty_profile_within_4_ulp(self, model, monkeypatch, preset):
        # ulps of 1, the scale of 1 + erf, from which the duty fraction is formed
        pump_nm, signal_nm, axis = PRESETS[preset]
        cfg = PhaseMatchConfig.from_pump_signal(pump_nm * 1e-3, signal_nm * 1e-3, Axis(axis))
        lc = phase_mismatch_and_lc(model, cfg).coherence_length_m
        lengths, alphas = (1.5e-3, 5e-3), (3.0, 5.0, 7.0)
        got = [erf_duty_profile(L, lc, a) for L in lengths for a in alphas]
        monkeypatch.setattr(poling, "_erf", scipy_erf)
        want = [erf_duty_profile(L, lc, a) for L in lengths for a in alphas]
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 4 * np.spacing(1.0)


class TestTrackedAmplitude:
    def test_single_up_domain_magnitude(self):
        dk0 = math.pi / LC_I
        phi = effective_pmf_tracked([1], LC_I, dk0)
        assert abs(phi) == pytest.approx(2.0 / dk0, rel=1e-12)

    def test_alternating_growth(self):
        dk0 = math.pi / LC_I
        n = 40
        signs = [1 if j % 2 == 0 else -1 for j in range(n)]
        phi = effective_pmf_tracked(signs, LC_I, dk0)
        assert abs(phi) == pytest.approx(n * 2.0 * LC_I / math.pi, rel=1e-10)

    def test_alternating_alignment_phase(self):
        # constructive growth rotated by -i is real positive
        dk0 = math.pi / LC_I
        signs = [1, -1] * 10
        phi = ALIGNMENT_PHASE * effective_pmf_tracked(signs, LC_I, dk0)
        assert phi.real > 0
        assert abs(phi.imag) < 1e-9 * abs(phi)

    def test_zero_mismatch_rejected(self):
        with pytest.raises(ZeroPhaseMismatch):
            effective_pmf_tracked([1, -1], 1e-5, 0.0)


class TestGreedyTrack:
    def test_endpoint_tracks_target_case_i(self, model):
        gp = phase_mismatch_and_lc(model, case_config("i"))
        lc = gp.coherence_length_m
        profile = TargetProfile.from_alpha(5.1, L5MM, math.pi / lc)
        arr = greedy_track(profile, 1.0, lc, L5MM)
        phi = abs(effective_pmf_tracked(arr.signs, arr.width_m, math.pi / lc))
        target = target_pmf(arr.length_m, profile)
        assert phi == pytest.approx(target, rel=0.05)

    def test_central_region_alternates(self, model):
        gp = phase_mismatch_and_lc(model, case_config("i"))
        lc = gp.coherence_length_m
        profile = TargetProfile.from_alpha(5.1, L5MM, math.pi / lc)
        arr = greedy_track(profile, 1.0, lc, L5MM)
        mid = arr.n_domains // 2
        window = arr.signs[mid - 10 : mid + 10]
        assert np.all(window[0::2] == window[0])
        assert np.all(window[1::2] == -window[0])

    def test_flat_target_reproduces_periodic(self):
        # sigma >> L: constant-slope target, maximal growth everywhere
        lc = 20e-6
        profile = TargetProfile.from_alpha(0.01, L5MM, math.pi / lc)
        arr = greedy_track(profile, 1.0, lc, L5MM)
        ref = periodic_domains(L5MM, lc)
        assert arr.width_m == ref.width_m
        assert np.array_equal(arr.signs, ref.signs)

    def test_deterministic(self):
        lc = 20e-6
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / lc)
        a = greedy_track(profile, 2.0, lc, L5MM)
        b = greedy_track(profile, 2.0, lc, L5MM)
        assert a.width_m == b.width_m
        assert np.array_equal(a.signs, b.signs)

    def test_greedy_step_optimality(self):
        # every chosen sign has cost <= the rejected alternative; both costs
        # come from the direct sum over the prefix, not the tracker's
        # running sum
        lc = 20e-6
        dk0 = math.pi / lc
        for alpha in (4.0, 4.7, 6.0):
            profile = TargetProfile.from_alpha(alpha, L5MM, dk0)
            for beta in (1.0, 3.0):
                arr = greedy_track(profile, beta, lc, L5MM)
                for j in range(1, arr.n_domains + 1):
                    t = target_pmf(j * arr.width_m, profile)
                    prefix = arr.signs[:j].astype(int)
                    chosen = abs(ALIGNMENT_PHASE * effective_pmf_tracked(
                        prefix, arr.width_m, dk0) - t) ** 2
                    prefix[-1] = -prefix[-1]
                    other = abs(ALIGNMENT_PHASE * effective_pmf_tracked(
                        prefix, arr.width_m, dk0) - t) ** 2
                    assert chosen <= other

    def test_width_floor(self):
        lc = 10e-6
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / lc)
        with pytest.raises(DomainTooNarrow):
            greedy_track(profile, 12.0, lc, L5MM)

    def test_non_integer_beta(self):
        lc = 20e-6
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / lc)
        arr = greedy_track(profile, 5.5, lc, L5MM)
        assert arr.width_m == pytest.approx(lc / 5.5)
        assert arr.n_domains == int(L5MM / (lc / 5.5))

    def test_tracking_cost_small_for_good_track(self):
        lc = 20e-6
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / lc)
        arr = greedy_track(profile, 1.0, lc, L5MM)
        # residual endpoint cost is at most one domain step squared
        step = 2.0 * lc / math.pi
        assert tracking_cost(arr, profile) <= step**2


class TestMqpm:
    def test_single_order_equals_periodic(self):
        arr = mqpm_domains(L5MM, LC_I, [1], TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I))
        ref = periodic_domains(L5MM, LC_I)
        assert arr.width_m == ref.width_m
        assert np.array_equal(arr.signs, ref.signs)

    def test_invalid_orders(self):
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        for bad in ([], [3, 5], [1, 2, 3], [1, 5, 3]):
            with pytest.raises(InvalidOrderList):
                mqpm_domains(L5MM, LC_I, bad, profile)

    def test_six_plateau_levels(self):
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        arr = mqpm_domains(L5MM, LC_I, [1, 3, 5, 7, 9, 11], profile)
        # run lengths of the sign array reveal the local QPM order
        flips = np.flatnonzero(np.diff(arr.signs)) + 1
        runs = np.diff(np.concatenate([[0], flips, [arr.n_domains]]))
        interior = runs[1:-1]  # first/last block may straddle the crystal end
        assert set(interior.tolist()) == {1, 3, 5, 7, 9, 11}

    def test_center_is_first_order_edges_highest(self):
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        arr = mqpm_domains(L5MM, LC_I, [1, 3, 5, 7, 9, 11], profile)
        flips = np.flatnonzero(np.diff(arr.signs)) + 1
        runs = np.diff(np.concatenate([[0], flips, [arr.n_domains]]))
        centers = np.cumsum(runs) - runs / 2.0
        mid_run = int(np.argmin(np.abs(centers - arr.n_domains / 2)))
        assert runs[mid_run] == 1
        assert runs[1] == 11 and runs[-2] == 11

    def test_staircase_even_symmetric(self):
        from purepole import mqpm_order_map

        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        cell_order = mqpm_order_map(L5MM, LC_I, [1, 3, 5, 7, 9, 11], profile)
        assert np.array_equal(cell_order, cell_order[::-1])
        assert set(np.unique(cell_order)) == {1, 3, 5, 7, 9, 11}

    def test_effective_growth_rates(self):
        # per-region amplitude growth at dk0 scales like 1/m
        profile = TargetProfile.from_alpha(5.0, L5MM, math.pi / LC_I)
        arr = mqpm_domains(L5MM, LC_I, [1, 3, 5], profile)
        dk0 = math.pi / LC_I
        flips = np.flatnonzero(np.diff(arr.signs)) + 1
        runs = np.diff(np.concatenate([[0], flips, [arr.n_domains]]))
        edges = np.concatenate([[0], np.cumsum(runs)])
        # longest contiguous stretch of unit runs = the central m = 1 region
        # (the final run can be a truncated block and must not be counted)
        best_start = best_len = cursor = 0
        for k, r in enumerate(runs):
            if r == 1:
                if cursor == 0:
                    start = k
                cursor += 1
                if cursor > best_len:
                    best_start, best_len = start, cursor
            else:
                cursor = 0
        lo, hi = edges[best_start], edges[best_start + best_len]
        phi_lo = effective_pmf_tracked(arr.signs[:lo], arr.width_m, dk0) if lo else 0.0
        phi_hi = effective_pmf_tracked(arr.signs[:hi], arr.width_m, dk0)
        rate = abs(phi_hi - phi_lo) / ((hi - lo) * arr.width_m)
        assert rate == pytest.approx(2.0 / math.pi, rel=0.05)


class TestDutyCycle:
    def test_segments_layout(self):
        struct = dc_domains(10 * 2 * LC_I, LC_I, np.full(10, 0.25))
        z_start, z_end, sign = struct.segments()
        assert z_start.size == 20
        assert sign[0] == 1 and sign[1] == -1
        widths = z_end - z_start
        assert widths[0] == pytest.approx(0.25 * 2 * LC_I)
        assert widths[1] == pytest.approx(0.75 * 2 * LC_I)

    def test_wrong_profile_length(self):
        with pytest.raises(ValueError, match="entries"):
            dc_domains(L5MM, LC_I, [0.5, 0.5])

    def test_duty_out_of_range(self):
        n = int(L5MM / (2 * LC_I))
        with pytest.raises(DutyOutOfRange):
            dc_domains(L5MM, LC_I, np.full(n, 1.0))
        with pytest.raises(DutyOutOfRange):
            dc_domains(L5MM, LC_I, np.full(n, 0.0))

    def test_fabricable_floor(self):
        n = int(L5MM / (2 * LC_I))
        # 0.02 of 37.72 um is below 1 um
        with pytest.raises(DutyOutOfRange):
            dc_domains(L5MM, LC_I, np.full(n, 0.02), fabricable=True)
        dc_domains(L5MM, LC_I, np.full(n, 0.05), fabricable=True)

    def test_quarter_duty_follows_sine_law(self):
        # single period: |phi(dk0)| ratio between duty 0.25 and 0.5 equals
        # sin(pi/4)/sin(pi/2); oracle is direct numerical quadrature
        lc = 20e-6
        dk0 = math.pi / lc
        length = 2 * lc

        def quad_pmf(delta):
            def g(z):
                return 1.0 if z < 2 * lc * delta else -1.0

            re = quad(lambda z: g(z) * math.cos(dk0 * z), 0, length, limit=200)[0]
            im = quad(lambda z: g(z) * math.sin(dk0 * z), 0, length, limit=200)[0]
            return complex(re, im)

        from purepole import pmf_piecewise

        for delta in (0.25, 0.5):
            struct = dc_domains(length, lc, [delta])
            assert pmf_piecewise(dk0, struct) == pytest.approx(quad_pmf(delta), rel=1e-8)
        ratio = abs(pmf_piecewise(dk0, dc_domains(length, lc, [0.25]))) / abs(
            pmf_piecewise(dk0, dc_domains(length, lc, [0.5]))
        )
        assert ratio == pytest.approx(math.sin(math.pi * 0.25) / math.sin(math.pi * 0.5), rel=1e-10)

    def test_erf_profile_shape(self):
        n = int(L5MM / (2 * LC_I))
        delta = erf_duty_profile(L5MM, LC_I)
        assert delta.size == n
        assert np.all(np.diff(delta) >= 0)
        mid = delta[n // 2 - 1 : n // 2 + 1].mean()
        assert mid == pytest.approx(0.5, abs=0.02)
        assert np.all((delta > 0) & (delta < 1))


class TestPolingExport:
    def test_format_round_trip(self, tmp_path):
        arr = periodic_domains(10 * 20e-6 + 1e-9, 20e-6)
        dest = tmp_path / "poling.txt"
        write_poling_file(dest, arr, header={"scheme": "pp", "alpha": None})
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "# scheme: pp"
        body = [ln for ln in lines if not ln.startswith("#")]
        assert len(body) == arr.n_domains
        start, width, sign = body[3].split()
        assert float(start) == pytest.approx(60.0, abs=1e-4)
        assert float(width) == pytest.approx(20.0, abs=1e-4)
        assert sign == "-1"

    @pytest.mark.parametrize("structure", [
        periodic_domains(10 * 20e-6 + 1e-9, 20e-6),
        DutyCycleStructure(period_m=37.72e-6, fractions=np.linspace(0.02, 0.98, 39)),
        # more lines than one block, random signs, a width with float noise
        DomainArray(width_m=1.3178e-6 / 10, signs=np.where(
            np.random.default_rng(3792).random(9000) < 0.5, 1, -1).astype(np.int8)),
    ], ids=["pp", "dc", "long"])
    def test_lines_equal_one_format_per_number(self, tmp_path, structure):
        dest = tmp_path / "poling.txt"
        write_poling_file(dest, structure, header={"scheme": "x", "beta": 10.0})
        lines = ["# scheme: x", "# beta: 10.0", "# columns: start_um width_um sign"]
        lines += [f"{zs * 1e6:.4f} {(ze - zs) * 1e6:.4f} {int(a):+d}"
                  for zs, ze, a in zip(*structure.segments())]
        assert dest.read_bytes() == ("\n".join(lines) + "\n").encode()
