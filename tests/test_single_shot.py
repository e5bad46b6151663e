import math
from fractions import Fraction

import numpy as np
import pytest

from coolsign import (
    alpha_ac,
    alpha_ac_erf,
    compress_products,
    compression_permutation,
    marginal_targets,
    product_probs,
    reduction_factor_ac,
)


def sort_oracle_marginal(n, alpha):
    """Independent oracle: sort the product-state diagonal by Hamming weight
    (ascending weight, i.e. descending populations for alpha > 0) and read off
    the target marginal."""
    probs = product_probs(alpha, n)
    order = sorted(range(1 << n), key=lambda i: (bin(i).count("1"), i))
    reordered = probs[order]
    half = 1 << (n - 1)
    return float(np.sum(reordered[:half]) - np.sum(reordered[half:]))


def alpha_ac_fraction(n, alpha):
    """Exact rational evaluation of the compressed target polarization."""
    p = (1 + Fraction(alpha)) / 2
    q = 1 - p
    total = sum(
        math.comb(n, i) * (p ** (n - i) * q**i - q ** (n - i) * p**i)
        for i in range((n - 1) // 2 + 1)
    )
    return total


def compressed(alpha, n):
    """The weight-ordered compression of one product state."""
    return compress_products(product_probs(alpha, n), n)


def compressed_target(alpha, n):
    """The target polarization after compressing one product state."""
    return float(marginal_targets(compressed(alpha, n)))


class TestOptimalCompression:
    def test_half_polarized_three_qubits(self):
        assert compressed_target(0.5, 3) == pytest.approx(0.6875, abs=1e-15)

    def test_zero_polarization_all_entries_equal(self):
        assert compressed_target(0.0, 5) == 0.0

    def test_bidirectional_mirror(self):
        down = compressed_target(-0.5, 3)
        assert down == pytest.approx(-0.6875, abs=1e-15)
        assert down == pytest.approx(-sort_oracle_marginal(3, 0.5), abs=1e-15)

    def test_output_is_weight_sorted_rearrangement(self):
        n, alpha = 4, 0.62
        out = compressed(alpha, n)
        probs = product_probs(alpha, n)
        assert np.array_equal(np.sort(out), np.sort(probs))
        assert np.array_equal(out, np.sort(probs)[::-1])

    def test_ascending_for_negative_bias(self):
        out = compressed(-0.62, 4)
        assert np.array_equal(out, np.sort(out))

    def test_same_permutation_both_signs(self):
        perm = compression_permutation(3)
        assert np.array_equal(perm.perm, compression_permutation(3).perm)
        # the fixed ordering maps |011> and |100> onto each other for n=3
        assert perm.perm[3] == 4 and perm.perm[4] == 3

    def test_majorization_for_positive_bias(self):
        probs = product_probs(0.7, 5)
        out = compressed(0.7, 5)
        assert np.all(np.cumsum(out) >= np.cumsum(probs) - 1e-15)

    def test_non_product_input_rejected(self):
        correlated = np.array([0.5, 0, 0, 0, 0, 0, 0, 0.5])
        with pytest.raises(ValueError):
            compress_products(correlated, 3)

    def test_rows_compress_as_single_states_and_any_correlated_row_is_rejected(self):
        alphas = [0.3, -0.5, 0.0, 0.99]
        rows = np.array([product_probs(a, 4) for a in alphas])
        got = compress_products(rows, 4)
        for a, row in zip(alphas, got):
            assert np.array_equal(row, compressed(a, 4))
        rows[2] = np.eye(16)[0] / 2 + np.eye(16)[15] / 2
        with pytest.raises(ValueError):
            compress_products(rows, 4)


class TestAlphaAc:
    def test_five_qubits_binomial_sum(self):
        exact = alpha_ac_fraction(5, Fraction(1, 5))
        assert exact == Fraction(1141, 3125)
        assert alpha_ac(5, 0.2) == pytest.approx(float(exact), abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_zero_fixed_point(self, n):
        assert alpha_ac(n, 0.0) == 0.0

    def test_closed_form_vs_compression_op(self):
        for n in (3, 4, 6, 7):
            for alpha in (-0.9, -0.3, 0.2, 0.8):
                got = compressed_target(alpha, n)
                assert alpha_ac(n, alpha) == pytest.approx(got, abs=1e-12)

    def test_beyond_float_binomials_matches_exact_rational(self):
        # C(1101, 550) exceeds float range; the saddle-point tail never forms it
        exact = alpha_ac_fraction(1101, Fraction(1, 100))
        assert alpha_ac(1101, 0.01) == pytest.approx(float(exact), rel=1e-11, abs=0.0)

    def test_bounded_and_exact_at_large_n(self):
        grid = [round(0.01 * i, 2) for i in range(1, 100)]
        for n in (50, 200, 1030, 2001, 20001):
            assert all(-1.0 <= alpha_ac(n, sign * a) <= 1.0 for a in grid for sign in (1, -1))
        for n in (200, 1031):
            for alpha in (1 / 64, 1 / 16, 1 / 8, 3 / 16):  # dyadic, so the rationals stay small
                exact = float(alpha_ac_fraction(n, Fraction(alpha)))
                assert alpha_ac(n, alpha) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_exact_odd_symmetry(self):
        for n in [*range(1, 12), 1029, 1030, 2001]:
            for alpha in np.linspace(0.01, 0.99, 17):
                assert alpha_ac(n, -float(alpha)) == -alpha_ac(n, float(alpha))

    def test_monotone_in_n_same_parity(self):
        for n in range(3, 22):
            for alpha in np.linspace(0.01, 0.99, 25):
                gap = alpha_ac(n + 2, float(alpha)) - alpha_ac(n, float(alpha))
                assert gap >= -1e-12

    def test_even_n_matches_preceding_odd(self):
        # the optimal compression gains nothing from the 2k-th qubit
        for alpha in (0.2, 0.5, 0.9):
            assert alpha_ac(4, alpha) == pytest.approx(alpha_ac(3, alpha), abs=1e-15)
            assert alpha_ac(6, alpha) == pytest.approx(alpha_ac(5, alpha), abs=1e-15)

    def test_saturation_at_unit_polarization(self):
        for n in (5, 2001):
            assert alpha_ac(n, 1.0) == 1.0
            assert alpha_ac(n, -1.0) == -1.0


class TestAlphaAcErf:
    def test_spot_value(self):
        assert alpha_ac_erf(3, 0.5) == pytest.approx(math.erf(1.5 / math.sqrt(4.5)), abs=1e-15)
        assert alpha_ac_erf(3, 0.5) == pytest.approx(0.68269, abs=5e-6)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_zero(self, n):
        assert alpha_ac_erf(n, 0.0) == 0.0

    def test_approximation_quality(self):
        assert abs(alpha_ac_erf(3, 0.5) - alpha_ac(3, 0.5)) < 0.01

    def test_unit_limit(self):
        assert alpha_ac_erf(4, 1.0) == 1.0
        assert alpha_ac_erf(4, -1.0) == -1.0


class TestReductionFactorAc:
    def test_small_alpha_regime_approximation(self):
        # 2(1-a^2)/(pi - 2 n a^2) tracks the factor to a few percent here
        for n in range(3, 8):
            for alpha in np.linspace(0.005, 0.05, 8):
                a = float(alpha)
                approx = 2 * (1 - a * a) / (math.pi - 2 * n * a * a)
                assert approx == pytest.approx(reduction_factor_ac(n, a), rel=0.05)

    def test_even_in_alpha(self):
        assert reduction_factor_ac(5, -0.4) == reduction_factor_ac(5, 0.4)

    def test_undefined_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            reduction_factor_ac(3, 0.0)

    @pytest.mark.parametrize("n", [3, 5, 11, 21])
    def test_raises_where_erf_squared_underflows(self, n):
        # c (2 - c) / erf(xi)^2 overflows to inf, and so does alpha^-2: no NaN
        with pytest.raises(ZeroDivisionError, match="underflows"):
            reduction_factor_ac(n, 1e-158)
        assert reduction_factor_ac(n, 1e-154) == pytest.approx(2 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1e-163, 1e-162])
    def test_underflow_names_the_alpha(self, alpha):
        # erf(xi)^2 rounds to 0 at n = 3, and alpha^2 alone at n = 10^20:
        # each once raised a bare division by zero
        for n in (3, 10**20):
            with pytest.raises(ZeroDivisionError, match=rf"^reduction factor underflows at "
                                                        rf"alpha = {alpha!r}$"):
                reduction_factor_ac(n, alpha)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_empty_register(self, n):
        with pytest.raises(ValueError):
            reduction_factor_ac(n, 0.5)

    def test_diverges_toward_unit_polarization(self):
        previous = reduction_factor_ac(5, 0.9)
        for alpha in (0.99, 0.995, 0.999):
            current = reduction_factor_ac(5, alpha)
            assert current > previous
            previous = current
        assert reduction_factor_ac(5, 1.0) == math.inf

    def test_finite_on_wide_grids(self):
        for n in (3, 5, 11, 21):
            values = [reduction_factor_ac(n, a) for a in np.arange(0.01, 0.9901, 0.01)]
            assert all(math.isfinite(v) and v > 0 for v in values)

