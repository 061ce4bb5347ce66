"""Full design loop: ladder behavior, the rung screen and determinism."""

import math

import numpy as np
import pytest

from purepole import Axis, PhaseMatchConfig, TargetProfile, greedy_track, phase_mismatch_and_lc
from purepole import design
from purepole.analysis import BandwidthOptimum, NoInteriorMaximum, optimize_pump_bandwidth
from purepole.cli import PRESETS
from purepole.design import (
    ALPHA_VALUES,
    DEFAULT_BETA_LADDER,
    SCREEN_MARGIN,
    DesignOptions,
    design_cl_scl,
)
from purepole.poling import MIN_DOMAIN_WIDTH_M, DesignResult, tracking_cost
from purepole.spectrum import COARSE_STEP_DIVISOR

from conftest import case_config


class TestDesignLoop:
    def test_default_ladder_covers_published_division_factors(self):
        for beta in (1, 4, 5.5, 6, 10, 12, 18, 50):
            assert beta in DEFAULT_BETA_LADDER

    def test_case_i_single_rung(self, model):
        result = design_cl_scl(model, case_config("i"), DesignOptions(beta_ladder=(1.0,)))
        assert result.scheme == "cl"
        assert result.beta == 1.0
        assert result.alpha == pytest.approx(5.1)
        assert result.purity > 0.99
        assert not result.below_threshold

    def test_unreachable_threshold_flags_best_effort(self, model):
        result = design_cl_scl(
            model,
            case_config("i"),
            DesignOptions(beta_ladder=(1.0,), purity_threshold=0.99999),
        )
        assert result.below_threshold
        assert result.purity > 0.99

    def test_ladder_halts_at_fabrication_floor(self, model):
        # l_c ~ 18.85 um: beta = 25 gives w < 1 um, so only beta = 25 entries
        # leave nothing to run
        with pytest.raises(ValueError, match="fabrication floor"):
            design_cl_scl(
                model, case_config("i"), DesignOptions(beta_ladder=(25.0, 50.0))
            )

    def test_escalation_stops_at_first_passing_rung(self, model):
        # threshold below the beta = 1 purity: the first rung must be returned
        result = design_cl_scl(
            model,
            case_config("i"),
            DesignOptions(beta_ladder=(1.0, 2.0), purity_threshold=0.95),
        )
        assert result.beta == 1.0

    def test_purity_recomputable_from_stored_fields(self, model):
        from purepole import (
            PumpSpec, build_jsa, make_grid, measure_delta_omega, purity,
            schmidt_decompose,
        )

        result = design_cl_scl(model, case_config("i"), DesignOptions(beta_ladder=(1.0,)))
        cfg = result.config
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, result.pump_bandwidth_nm)
        dw = measure_delta_omega(model, cfg, result.domains, pump, result.theta_deg)
        grid = make_grid(result.theta_deg, dw, cfg.omega_s0, cfg.omega_i0)
        jsa = build_jsa(model, cfg, result.domains, pump, grid, mask_invalid=True)
        assert purity(schmidt_decompose(jsa)) == pytest.approx(result.purity, abs=1e-6)


def _scripted(monkeypatch, coarse, standard):
    """Route the design loop's searches to scripted purities: `coarse[beta]`
    for the screen, `standard[beta]` for the standard grid; an exception
    instance is raised instead.  The tracker is stubbed out, so a rung's
    array is its beta.  Returns the (beta, kind) of every search, in order."""
    searches = []
    monkeypatch.setattr(design, "greedy_track", lambda profile, beta, lc, length: beta)
    monkeypatch.setattr(design, "tracking_cost", lambda array, profile: 0.0)

    def search(model, cfg, beta, theta_deg, step_divisor=None):
        assert step_divisor in (None, COARSE_STEP_DIVISOR)
        kind = "standard" if step_divisor is None else "coarse"
        searches.append((beta, kind))
        value = (standard if step_divisor is None else coarse)[beta]
        if isinstance(value, Exception):
            raise value
        return BandwidthOptimum(beta, value, 1e12 * beta)

    monkeypatch.setattr(design, "optimize_pump_bandwidth", search)
    return searches


def _ladder(model, ladder, threshold):
    return design_cl_scl(model, case_config("i"),
                         DesignOptions(beta_ladder=ladder, purity_threshold=threshold))


class TestRungScreen:
    def test_rung_below_threshold_minus_margin_gets_no_standard_search(self, model, monkeypatch):
        searches = _scripted(
            monkeypatch,
            coarse={1.0: 0.995 - SCREEN_MARGIN - 1e-9, 2.0: 0.995 - SCREEN_MARGIN, 3.0: 0.996},
            standard={2.0: 0.9938, 3.0: 0.9962})
        result = _ladder(model, (1.0, 2.0, 3.0, 4.0), 0.995)
        assert searches == [(1.0, "coarse"), (2.0, "coarse"), (2.0, "standard"),
                            (3.0, "coarse"), (3.0, "standard")]
        assert (result.beta, result.purity, result.pump_bandwidth_nm) == (3.0, 0.9962, 3.0)
        assert result.delta_omega_rad_s == 3e12
        assert not result.below_threshold

    def test_exit_3_searches_the_rungs_within_twice_the_margin(self, model, monkeypatch):
        # every rung is screened out at 0.999; the best coarse purity is
        # beta 3's, and beta 4 lies between one and two margins below it
        best = 0.996
        searches = _scripted(
            monkeypatch,
            coarse={1.0: best - 2 * SCREEN_MARGIN - 1e-6, 2.0: best - 1e-3, 3.0: best,
                    4.0: best - 1.75 * SCREEN_MARGIN},
            standard={2.0: 0.9950, 3.0: 0.9948, 4.0: 0.9951})
        result = _ladder(model, (1.0, 2.0, 3.0, 4.0), 0.999)
        assert searches[:4] == [(b, "coarse") for b in (1.0, 2.0, 3.0, 4.0)]
        assert searches[4:] == [(b, "standard") for b in (2.0, 3.0, 4.0)]
        assert (result.beta, result.purity, result.below_threshold) == (4.0, 0.9951, True)

    @pytest.mark.parametrize("coarse", [{1.0: 0.9965, 2.0: 0.9975}, {1.0: 0.9975, 2.0: 0.9965}])
    def test_ties_keep_the_lower_rung(self, model, monkeypatch, coarse):
        # one rung is searched in the climb, the other only after it
        searches = _scripted(monkeypatch, coarse=coarse, standard={1.0: 0.996, 2.0: 0.996})
        result = _ladder(model, (1.0, 2.0), 0.999)
        assert sorted(searches) == [(1.0, "coarse"), (1.0, "standard"),
                                    (2.0, "coarse"), (2.0, "standard")]
        assert (result.beta, result.below_threshold) == (1.0, True)

    def test_coarse_search_without_interior_maximum_screens_nothing(self, model, monkeypatch):
        searches = _scripted(monkeypatch, coarse={1.0: NoInteriorMaximum("bound"), 2.0: 0.9},
                             standard={1.0: 0.996})
        result = _ladder(model, (1.0, 2.0), 0.995)
        assert searches == [(1.0, "coarse"), (1.0, "standard")]
        assert result.beta == 1.0
        # a standard search that has none either still stops the design
        _scripted(monkeypatch, coarse={1.0: NoInteriorMaximum("bound")},
                  standard={1.0: NoInteriorMaximum("bound")})
        with pytest.raises(NoInteriorMaximum):
            _ladder(model, (1.0, 2.0), 0.995)

    def test_single_rung_ladder_gets_its_standard_search(self, model, monkeypatch):
        searches = _scripted(monkeypatch, coarse={1.0: 0.5}, standard={1.0: 0.6})
        result = _ladder(model, (1.0,), 0.995)
        assert searches == [(1.0, "coarse"), (1.0, "standard")]
        assert (result.beta, result.purity, result.below_threshold) == (1.0, 0.6, True)


def _unscreened(model, cfg, options):
    """The design loop without the screen: every rung's bandwidth searched
    on the standard grid, the first passing rung returned, else the best."""
    gp = phase_mismatch_and_lc(model, cfg)
    lc = gp.coherence_length_m
    best = None
    for beta in options.beta_ladder:
        if lc / beta < MIN_DOMAIN_WIDTH_M:
            break
        results = []
        for alpha in ALPHA_VALUES:
            profile = TargetProfile.from_alpha(alpha, cfg.length_m, math.pi / lc)
            array = greedy_track(profile, beta, lc, cfg.length_m)
            results.append((array, tracking_cost(array, profile)))
        pick = int(np.argmin([c for _, c in results]))
        optimum = optimize_pump_bandwidth(model, cfg, results[pick][0], gp.theta_deg)
        candidate = DesignResult(
            domains=results[pick][0], scheme="cl" if beta == 1.0 else "scl", config=cfg,
            alpha=ALPHA_VALUES[pick], beta=beta, pump_bandwidth_nm=optimum[0],
            purity=optimum[1], theta_deg=gp.theta_deg, coherence_length_m=lc,
            delta_omega_rad_s=optimum.delta_omega)
        if candidate.purity >= options.purity_threshold:
            return candidate
        if best is None or candidate.purity > best.purity:
            best = candidate
    best.below_threshold = True
    return best


def _bits(result):
    """Every field of a design, arrays and floats as their bytes."""
    return tuple(
        (value.width_m, value.signs.tobytes()) if name == "domains"
        else np.float64(value).tobytes() if isinstance(value, float) else value
        for name, value in vars(result).items())


def _preset_config(preset, length_mm=5.0):
    pump_nm, signal_nm, axis = PRESETS[preset]
    return PhaseMatchConfig.from_pump_signal(pump_nm * 1e-3, signal_nm * 1e-3, Axis(axis),
                                             length_m=length_mm * 1e-3)


@pytest.mark.parametrize("threshold, below", [(0.995, False), (0.9999, True)])
def test_screened_ladder_equals_the_unscreened_loop(model, monkeypatch, threshold, below):
    # c-band-x in 3 mm: beta 1 and 2 are far below 0.995, beta 3 passes it
    cfg = _preset_config("c-band-x", 3.0)
    options = DesignOptions(beta_ladder=(1.0, 2.0, 3.0), purity_threshold=threshold)
    want = _unscreened(model, cfg, options)
    standard = []
    search = design.optimize_pump_bandwidth

    def counted(*args, **kwargs):
        standard.append(kwargs.get("step_divisor") is None)
        return search(*args, **kwargs)

    monkeypatch.setattr(design, "optimize_pump_bandwidth", counted)
    got = design_cl_scl(model, cfg, options)
    assert (got.beta, got.below_threshold) == (3.0, below)
    assert _bits(got) == _bits(want)
    assert standard == [False, False, False, True]


# Every rung the 14 presets' default 5 mm ladders visit at threshold 0.995:
# (preset, beta, alpha, purity on the standard grid at the optimum), taken
# from the unscreened loop with one BLAS thread.
LADDER_RUNGS = (
    ("c-band-ix", 1.0, 4.4, 0.8582076291980167),
    ("c-band-ix", 2.0, 4.4, 0.8529989668285706),
    ("c-band-ix", 3.0, 5.2, 0.8968595775120024),
    ("c-band-ix", 4.0, 4.3, 0.9711610293869084),
    ("c-band-ix", 5.0, 4.8, 0.9761605803539849),
    ("c-band-ix", 5.5, 5.4, 0.9550308816602285),
    ("c-band-ix", 6.0, 4.0, 0.9752121373701381),
    ("c-band-ix", 8.0, 4.9, 0.9842077644289213),
    ("c-band-ix", 10.0, 5.6, 0.9877450281394712),
    ("c-band-ix", 12.0, 4.7, 0.9934973750848844),
    ("c-band-ix", 15.0, 5.4, 0.9891443433413571),
    ("c-band-ix", 18.0, 4.0, 0.9934872410878965),
    ("c-band-ix", 25.0, 5.7, 0.9940207785472048),
    ("c-band-ix", 35.0, 4.0, 0.9956231240162247),
    ("c-band-x", 1.0, 4.9, 0.9895681570272924),
    ("c-band-x", 2.0, 4.9, 0.9930452468382632),
    ("c-band-x", 3.0, 4.4, 0.9962979075789299),
    ("c-band-xi", 1.0, 5.4, 0.9965688467792648),
    ("c-band-xii", 1.0, 5.5, 0.9839511629484937),
    ("c-band-xii", 2.0, 5.5, 0.9823078594012187),
    ("c-band-xii", 3.0, 5.5, 0.9895477628830356),
    ("c-band-xii", 4.0, 4.1, 0.992694269520852),
    ("c-band-xii", 5.0, 4.5, 0.993401871101901),
    ("c-band-xii", 5.5, 4.2, 0.9927894691872109),
    ("c-band-xii", 6.0, 6.0, 0.9906596134961123),
    ("c-band-xii", 8.0, 5.9, 0.9910090094712118),
    ("c-band-xii", 10.0, 5.4, 0.992391112173605),
    ("c-band-xii", 12.0, 4.1, 0.9931755335740723),
    ("c-band-xii", 15.0, 4.3, 0.9934264497186466),
    ("c-band-xiii", 1.0, 5.4, 0.9909648492717981),
    ("c-band-xiii", 2.0, 4.8, 0.9914656772344309),
    ("c-band-xiii", 3.0, 5.3, 0.9966821833781108),
    ("c-band-xiv", 1.0, 5.5, 0.9962008329208797),
    ("o-band-i", 1.0, 5.1, 0.9986625860799495),
    ("o-band-ii", 1.0, 4.4, 0.9545644970387726),
    ("o-band-ii", 2.0, 5.8, 0.9120455125557907),
    ("o-band-ii", 3.0, 4.1, 0.9766321766519963),
    ("o-band-ii", 4.0, 5.2, 0.9665963606293981),
    ("o-band-ii", 5.0, 5.1, 0.9884507308506428),
    ("o-band-ii", 5.5, 4.4, 0.9925646016984968),
    ("o-band-ii", 6.0, 5.3, 0.9914768278457575),
    ("o-band-ii", 8.0, 6.0, 0.9909848668388218),
    ("o-band-ii", 10.0, 4.2, 0.9955885445129841),
    ("o-band-iii", 1.0, 5.7, 0.9814577196298884),
    ("o-band-iii", 2.0, 4.6, 0.9823677300041531),
    ("o-band-iii", 3.0, 4.7, 0.996065695262997),
    ("o-band-iv", 1.0, 6.0, 0.9970016716849686),
    ("o-band-v", 1.0, 5.2, 0.9882017557257052),
    ("o-band-v", 2.0, 5.2, 0.9898049110575249),
    ("o-band-v", 3.0, 6.0, 0.9910914894192849),
    ("o-band-v", 4.0, 4.6, 0.9947483711443307),
    ("o-band-v", 5.0, 5.7, 0.9931842505366919),
    ("o-band-v", 5.5, 4.8, 0.9946048256894737),
    ("o-band-v", 6.0, 5.3, 0.994204950759843),
    ("o-band-v", 8.0, 4.0, 0.9931864927904973),
    ("o-band-v", 10.0, 5.2, 0.9943406284602745),
    ("o-band-v", 12.0, 6.0, 0.9925259234311726),
    ("o-band-vi", 1.0, 5.6, 0.9864589336250182),
    ("o-band-vi", 2.0, 5.6, 0.9845259800599485),
    ("o-band-vi", 3.0, 5.2, 0.995151451801403),
    ("o-band-vii", 1.0, 4.5, 0.9666911793511761),
    ("o-band-vii", 2.0, 4.5, 0.9646347646622807),
    ("o-band-vii", 3.0, 5.3, 0.9755223370623296),
    ("o-band-vii", 4.0, 4.3, 0.9937055288879618),
    ("o-band-vii", 5.0, 4.5, 0.9958240084822594),
    ("o-band-viii", 1.0, 5.7, 0.9645018136227648),
    ("o-band-viii", 2.0, 4.7, 0.9702114015887247),
    ("o-band-viii", 3.0, 5.9, 0.9800993738492048),
    ("o-band-viii", 4.0, 4.7, 0.9966810050099735),
)
# rows recomputed here from the full alpha sweep and standard search,
# including the largest gap (c-band-ix beta 3) and the largest above 0.98
# (o-band-vi beta 2)
RECOMPUTED = {("c-band-ix", 3.0), ("c-band-x", 1.0), ("o-band-i", 1.0), ("o-band-vi", 2.0)}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_coarse_purity_lies_within_the_margin_on_every_default_rung(model, preset):
    cfg = _preset_config(preset)
    gp = phase_mismatch_and_lc(model, cfg)
    lc = gp.coherence_length_m
    rows = [row for row in LADDER_RUNGS if row[0] == preset]
    assert [beta for _, beta, _, _ in rows] == list(DEFAULT_BETA_LADDER[:len(rows)])
    for _, beta, alpha, standard in rows:
        if (preset, beta) in RECOMPUTED:
            costs = [tracking_cost(greedy_track(p, beta, lc, cfg.length_m), p)
                     for p in (TargetProfile.from_alpha(a, cfg.length_m, math.pi / lc)
                               for a in ALPHA_VALUES)]
            assert ALPHA_VALUES[int(np.argmin(costs))] == alpha
        profile = TargetProfile.from_alpha(alpha, cfg.length_m, math.pi / lc)
        array = greedy_track(profile, beta, lc, cfg.length_m)
        if (preset, beta) in RECOMPUTED:
            # the table was taken with one BLAS thread; other thread counts
            # sum the Gram in another order
            assert optimize_pump_bandwidth(model, cfg, array, gp.theta_deg)[1] == pytest.approx(
                standard, rel=0.0, abs=1e-12)
        _, coarse = optimize_pump_bandwidth(
            model, cfg, array, gp.theta_deg, step_divisor=COARSE_STEP_DIVISOR)
        assert abs(coarse - standard) < SCREEN_MARGIN, (preset, beta)
