import math
from fractions import Fraction

import numpy as np
import pytest

from coolsign import (
    BudgetError,
    RefrigeratorConfig,
    ShotExperiment,
    chebyshev_bound,
    exact_sign_error,
    monte_carlo_sign_error,
    predict_error_bound,
    resource_matched_comparison,
    steady_state,
)


def binomial_cdf_fraction(successes, k, p: Fraction) -> Fraction:
    """Independently coded binomial CDF in exact rational arithmetic."""
    q = 1 - p
    return sum(math.comb(k, s) * p**s * q ** (k - s) for s in range(successes + 1))


class TestChebyshevBound:
    def test_direct_evaluation(self):
        assert chebyshev_bound(1.0, 100, 0.5) == pytest.approx(0.04, abs=1e-15)

    def test_zero_variance(self):
        assert chebyshev_bound(0.0, 7, 0.3) == 0.0

    def test_clamped_to_one(self):
        assert chebyshev_bound(1.0, 1, 0.1) == 1.0

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            chebyshev_bound(1.0, 10, 0.0)


class TestPredictErrorBound:
    def test_direct_evaluation(self):
        assert predict_error_bound(0.5, 100) == pytest.approx(0.03, abs=1e-15)

    def test_deterministic_outcome(self):
        assert predict_error_bound(1.0, 5) == 0.0

    def test_resource_story_three_qubits(self):
        # one third of the shots at the compressed polarization gives a
        # comparable bound: 0.0338 vs 0.03
        boosted = predict_error_bound(0.6875, 33)
        assert boosted == pytest.approx((1 - 0.6875**2) / (33 * 0.6875**2), abs=1e-15)
        assert boosted == pytest.approx(predict_error_bound(0.5, 100), abs=0.005)

    def test_undefined_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            predict_error_bound(0.0, 10)


class TestExactSignError:
    def test_binomial_cdf_oracle(self):
        expected = binomial_cdf_fraction(12, 25, Fraction(6, 10))
        assert exact_sign_error(0.2, 25) == pytest.approx(float(expected), abs=1e-12)
        assert exact_sign_error(0.2, 25) == pytest.approx(0.1538, abs=1e-4)

    def test_even_shots_tie_weight(self):
        p = Fraction(3, 4)
        expected = binomial_cdf_fraction(1, 4, p) + Fraction(1, 2) * (
            math.comb(4, 2) * p**2 * (1 - p) ** 2
        )
        assert exact_sign_error(0.5, 4) == pytest.approx(float(expected), abs=1e-14)

    def test_symmetric_at_zero(self):
        assert exact_sign_error(0.0, 17) == 0.5
        assert exact_sign_error(0.0, 10) == 0.5

    def test_pure_state(self):
        assert exact_sign_error(1.0, 9) == 0.0
        assert exact_sign_error(-1.0, 9) == 0.0

    def test_exactly_even_in_alpha(self):
        for alpha in (0.1, 0.33, 0.8):
            for k in (7, 24):
                assert exact_sign_error(-alpha, k) == exact_sign_error(alpha, k)

    def test_monotone_in_magnitude_and_shots(self):
        grid = np.linspace(0.05, 0.95, 10)
        for k in (5, 25, 101):
            errors = [exact_sign_error(float(a), k) for a in grid]
            assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        for alpha in (0.1, 0.5):
            errors = [exact_sign_error(alpha, k) for k in (1, 5, 25, 125, 625)]
            assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_chebyshev_dominates(self):
        for alpha in np.linspace(-0.95, 0.95, 20):
            if alpha == 0:
                continue
            for k in (1, 5, 24, 101, 400):
                assert exact_sign_error(float(alpha), k) <= predict_error_bound(
                    float(alpha), k
                ) + 1e-15


class TestMonteCarlo:
    def test_within_clt_band_of_exact(self):
        for alpha, k in ((0.2, 25), (0.5, 10), (-0.4, 51), (0.1, 4)):
            exact = exact_sign_error(alpha, k)
            mc = monte_carlo_sign_error(ShotExperiment(alpha, k, 100_000, seed=20240612))
            stderr = math.sqrt(exact * (1 - exact) / 100_000)
            assert abs(mc - exact) <= 4 * stderr

    def test_pure_state_never_errs(self):
        assert monte_carlo_sign_error(ShotExperiment(1.0, 3, 1000, seed=1)) == 0.0

    def test_same_seed_identical(self):
        exp = ShotExperiment(0.3, 20, 50_000, seed=777)
        assert monte_carlo_sign_error(exp) == monte_carlo_sign_error(exp)

    def test_different_seeds_differ(self):
        a = monte_carlo_sign_error(ShotExperiment(0.2, 25, 50_000, seed=1))
        b = monte_carlo_sign_error(ShotExperiment(0.2, 25, 50_000, seed=2))
        assert a != b

    def test_trials_not_multiple_of_chunk(self):
        exp = ShotExperiment(0.2, 9, 5000, seed=5)
        value = monte_carlo_sign_error(exp)
        assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShotExperiment(0.2, 0, 10, seed=1)
        with pytest.raises(ValueError):
            ShotExperiment(0.2, 5, 0, seed=1)
        with pytest.raises(ValueError):
            ShotExperiment(1.2, 5, 10, seed=1)


class TestResourceMatchedComparison:
    def test_three_qubit_budget_split(self):
        cfg = RefrigeratorConfig(3, 2, 1)
        rec = resource_matched_comparison(0.5, cfg, 300, seed=11, trials=2000)
        assert rec.k_raw == 300
        assert rec.k_cooled == 100
        assert rec.alpha_cooled == pytest.approx(0.6875, abs=1e-14)
        assert rec.exact_error_raw == pytest.approx(exact_sign_error(0.5, 300), abs=0)
        assert rec.exact_error_cooled == pytest.approx(exact_sign_error(0.6875, 100), abs=1e-14)

    def test_zero_polarization_both_coin_flips(self):
        rec = resource_matched_comparison(0.0, RefrigeratorConfig(4, 2, 1), 60, seed=3)
        assert rec.exact_error_raw == 0.5
        assert rec.exact_error_cooled == 0.5
        assert math.isnan(rec.reduction_factor)

    def test_high_polarization_cooling_wins_empirically(self):
        cfg = RefrigeratorConfig(5, 2, 5)
        rec = resource_matched_comparison(0.8, cfg, 11, seed=42, trials=200_000)
        assert rec.mc_error_cooled < rec.mc_error_raw
        assert rec.exact_error_cooled < rec.exact_error_raw

    def test_cooling_wins_for_moderate_polarizations(self):
        cfg = RefrigeratorConfig(5, 2, 5)
        for alpha in np.arange(0.5, 0.901, 0.05):
            rec = resource_matched_comparison(float(alpha), cfg, 55, seed=9, trials=100)
            assert rec.exact_error_cooled < rec.exact_error_raw

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            resource_matched_comparison(0.5, RefrigeratorConfig(5, 2, 5), 10, seed=1)

    def test_reduction_factor_reported(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        rec = resource_matched_comparison(0.6, cfg, 50, seed=2, trials=500)
        from coolsign import reduction_factor_qr

        assert rec.reduction_factor == reduction_factor_qr(cfg, 0.6)

    def test_seed_determinism(self):
        cfg = RefrigeratorConfig(4, 2, 1)
        a = resource_matched_comparison(0.4, cfg, 30, seed=123, trials=20_000)
        b = resource_matched_comparison(0.4, cfg, 30, seed=123, trials=20_000)
        assert a == b
        c = resource_matched_comparison(0.4, cfg, 30, seed=124, trials=20_000)
        assert c.mc_error_raw != a.mc_error_raw


def test_steady_state_feeds_cooled_polarization():
    cfg = RefrigeratorConfig(5, 2, 5)
    rec = resource_matched_comparison(0.6, cfg, 22, seed=5, trials=100)
    assert rec.alpha_cooled == steady_state(cfg, 0.6).alpha_enhanced
