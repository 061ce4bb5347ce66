"""Full design loop: ladder behavior and determinism."""

import pytest

from purepole.design import DEFAULT_BETA_LADDER, DesignOptions, design_cl_scl

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
