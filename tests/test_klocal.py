import math

import numpy as np
import pytest

from coolsign import (
    PermutationSpec,
    RefrigeratorConfig,
    alpha_infinity,
    alpha_infinity_3local,
    asymptotic_population_vector,
    build_round_matrix,
    build_uqr,
    build_uqr_3local,
    fibonacci,
    marginal_targets,
    optimal_bounds,
    product_probs,
    steady_states,
)
from coolsign.refrigerator import compression_permutation_for
from oracles import full_round, sum_last


def expected_m4_3local(p):
    q = 1 - p
    return np.array(
        [
            [p * (2 - p), p**2, 0, 0],
            [q**2, p * q, p, 0],
            [0, q, p * q, p**2],
            [0, 0, q**2, 1 - p**2],
        ]
    )


def expected_m5_3local(p):
    q = 1 - p
    return np.array(
        [
            [p * (2 - p), p**2, 0, 0, 0, 0, 0, 0],
            [q**2, p * q, p, 0, 0, 0, 0, 0],
            [0, q, p * q, p**2, 0, 0, 0, 0],
            [0, 0, 0, 0, p * (2 - p), p**2, 0, 0],
            [0, 0, q**2, 1 - p**2, 0, 0, 0, 0],
            [0, 0, 0, 0, q**2, p * q, p, 0],
            [0, 0, 0, 0, 0, q, p * q, p**2],
            [0, 0, 0, 0, 0, 0, q**2, 1 - p**2],
        ]
    )


def reduction_qr(cfg, alpha):
    """The refrigerator's reduction factor at one polarization."""
    return steady_states(cfg, [alpha])[0].reduction_factor(alpha, cfg.cost)


def stationary_by_power_iteration(matrix):
    power = matrix
    for _ in range(60):  # matrix^(2^60) via repeated squaring
        power = power @ power
        power /= power.sum(axis=0, keepdims=True)
    vec = power[:, 0]
    return vec / vec.sum()


class TestPermutation:
    def test_n3_equals_full_staircase(self):
        assert np.array_equal(build_uqr_3local(3).perm, build_uqr(3).perm)

    def test_n4_window_swaps(self):
        # last-3 window swaps {3,4},{11,12}; top window then swaps {6,8},{7,9}
        probs = product_probs(0.37, 4)
        manual = probs.copy()
        for a, b in ((3, 4), (11, 12), (6, 8), (7, 9)):
            manual[[a, b]] = manual[[b, a]]
        out = build_uqr_3local(4)(probs)
        assert np.allclose(out, manual, atol=0)

    def test_inverse_roundtrip(self):
        for n in (3, 4, 5, 6):
            perm = build_uqr_3local(n)
            inverse = PermutationSpec(n, np.argsort(perm.perm))
            probs = product_probs(0.61, n)
            assert np.array_equal(inverse(perm(probs)), probs)

    def test_bijection(self):
        for n in (3, 4, 5, 6, 7):
            perm = build_uqr_3local(n).perm
            assert np.array_equal(np.sort(perm), np.arange(1 << n))

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            build_uqr_3local(2)


class TestRoundMatrices:
    def test_reproduces_symbolic_m4(self):
        rng = np.random.default_rng(17)
        for p in rng.uniform(0.05, 0.95, size=5):
            alpha = 2 * p - 1
            got = build_round_matrix(4, 2, alpha, build_uqr_3local(4))
            assert np.abs(got - expected_m4_3local((1 + alpha) / 2)).max() < 1e-12

    def test_reproduces_symbolic_m5(self):
        rng = np.random.default_rng(18)
        for p in rng.uniform(0.05, 0.95, size=5):
            alpha = 2 * p - 1
            got = build_round_matrix(5, 2, alpha, build_uqr_3local(5))
            assert np.abs(got - expected_m5_3local((1 + alpha) / 2)).max() < 1e-12

    def test_column_stochastic(self):
        for n in (4, 5, 6, 7):
            for alpha in (-0.7, 0.2, 0.9):
                matrix = build_round_matrix(n, 2, alpha, build_uqr_3local(n))
                assert np.abs(matrix.sum(axis=0) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matrix_matches_full_simulation(self, n):
        cfg = RefrigeratorConfig(n, 2, 1, locality="3local")
        matrix = build_round_matrix(n, 2, 0.5, build_uqr_3local(n))
        vec = product_probs(0.5, n - 2)
        full = product_probs(0.5, n)
        for _ in range(5):
            vec = matrix @ vec
            full = full_round(full, cfg, 0.5)
            assert np.abs(vec - sum_last(full, 2)).max() < 1e-12


class TestFibonacci:
    def test_seed_values(self):
        assert fibonacci(1) == 1
        assert fibonacci(2) == 1

    def test_recurrence(self):
        assert fibonacci(5) == 5
        assert [fibonacci(j) for j in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fibonacci(0)


class TestAlphaInfinity3Local:
    def test_five_qubits_half_polarized(self):
        assert alpha_infinity_3local(5, 0.5) == pytest.approx((3**5 - 1) / (3**5 + 1), abs=1e-15)
        assert alpha_infinity_3local(5, 0.5) == pytest.approx(0.991803, abs=5e-7)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_zero(self, n):
        assert alpha_infinity_3local(n, 0.0) == 0.0

    def test_n3_double_angle(self):
        for alpha in (0.1, 0.5, -0.7):
            assert alpha_infinity_3local(3, alpha) == pytest.approx(
                2 * alpha / (1 + alpha * alpha), abs=1e-15
            )
            assert alpha_infinity_3local(3, alpha) == pytest.approx(
                alpha_infinity(3, 2, alpha), abs=1e-15
            )

    def test_matches_tanh_composition(self):
        for n in (4, 5, 6, 7):
            for alpha in (0.2, 0.5, 0.8, -0.35):
                expect = math.tanh(fibonacci(n) * math.atanh(alpha))
                assert alpha_infinity_3local(n, alpha) == pytest.approx(expect, abs=1e-14)

    def test_exactly_odd(self):
        for n in (3, 5, 9):
            for alpha in (0.13, 0.5, 0.92):
                assert alpha_infinity_3local(n, -alpha) == -alpha_infinity_3local(n, alpha)

    def test_large_fibonacci_exponent_saturates(self):
        assert alpha_infinity_3local(30, 0.5) == 1.0
        assert alpha_infinity_3local(90, 0.1) == 1.0  # both powers underflow

    def test_unit_polarization(self):
        assert alpha_infinity_3local(5, 1.0) == 1.0
        assert alpha_infinity_3local(5, -1.0) == -1.0


class TestAsymptoticPopulations:
    def test_four_qubits_half_polarized(self):
        pops = asymptotic_population_vector(4, 0.5)
        assert np.allclose(pops, [0.75, 0.75, 0.9, 27 / 28], atol=1e-14)

    def test_zero_polarization_all_half(self):
        assert np.allclose(asymptotic_population_vector(5, 0.0), 0.5, atol=0)

    def test_five_qubit_target_population(self):
        target = asymptotic_population_vector(5, 0.5)[-1]
        assert target == pytest.approx(3**5 / (3**5 + 1), abs=1e-14)
        assert target == pytest.approx(0.995902, abs=5e-7)

    def test_reset_qubits_keep_reservoir_population(self):
        for alpha in (0.3, -0.6):
            pops = asymptotic_population_vector(6, alpha)
            assert pops[0] == pops[1] == (1 + alpha) / 2

    def test_nondecreasing_toward_target(self):
        pops = asymptotic_population_vector(7, 0.4)
        assert np.all(np.diff(pops) >= -1e-15)

    def test_alpha_target_consistency(self):
        pops = asymptotic_population_vector(6, 0.55)
        assert 2 * pops[-1] - 1 == pytest.approx(alpha_infinity_3local(6, 0.55), abs=1e-14)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_steady_state_factorizes(self, n):
        for alpha in (0.2, 0.5, 0.8):
            matrix = build_round_matrix(n, 2, alpha, build_uqr_3local(n))
            fixed = stationary_by_power_iteration(matrix)
            pops = asymptotic_population_vector(n, alpha)
            product = np.array([1.0])
            for pop in pops[:1:-1]:  # target first, down to the last auxiliary
                product = np.kron(product, np.array([pop, 1.0 - pop]))
            assert np.abs(fixed - product).max() < 1e-9
            assert abs(marginal_targets(fixed) - alpha_infinity_3local(n, alpha)) < 1e-9


class TestReduction3Local:
    def test_n3_equals_full_staircase(self):
        cfg = RefrigeratorConfig(3, 2, 4)
        local_cfg = RefrigeratorConfig(3, 2, 4, locality="3local")
        assert reduction_qr(local_cfg, 0.5) == reduction_qr(cfg, 0.5)

    def test_never_exceeds_full_staircase_from_three_rounds(self):
        for rounds in (1, 3, 5, 9):
            for alpha in (0.2, 0.4, 0.6, 0.8):
                local = steady_states(
                    RefrigeratorConfig(5, 2, rounds, locality="3local"), [alpha]
                )[0].alpha_enhanced
                full = steady_states(RefrigeratorConfig(5, 2, rounds), [alpha])[0].alpha_enhanced
                assert local <= full + 1e-14

    def test_two_round_low_polarization_anomaly(self):
        # with exactly two rounds the sliding windows do more compression work
        # per round than the staircase and transiently come out ahead at low
        # polarization; confirmed against the full 2^n simulation
        local = steady_states(RefrigeratorConfig(5, 2, 2, locality="3local"), [0.2])[0]
        full = steady_states(RefrigeratorConfig(5, 2, 2), [0.2])[0]
        assert local.alpha_enhanced > full.alpha_enhanced

    def test_below_optimal_bound_on_grid(self):
        cfg = RefrigeratorConfig(5, 2, 9)
        local_cfg = RefrigeratorConfig(5, 2, 9, locality="3local")
        for alpha in np.arange(0.3, 0.901, 0.1):
            alpha = float(alpha)
            bound = optimal_bounds(cfg, [alpha])[0].reduction_factor(alpha, cfg.cost)
            local = reduction_qr(local_cfg, alpha)
            assert local <= bound * (1 + 1e-9)

    def test_no_advantage_at_low_polarization(self):
        cfg = RefrigeratorConfig(5, 2, 9, locality="3local")
        assert reduction_qr(cfg, 0.05) < 1.0

    def test_even_in_alpha(self):
        cfg = RefrigeratorConfig(5, 2, 3, locality="3local")
        assert reduction_qr(cfg, -0.6) == reduction_qr(cfg, 0.6)

    def test_locality_field_dispatch(self):
        # the locality field alone selects the sliding windows
        cfg = RefrigeratorConfig(5, 2, 4, locality="3local")
        assert compression_permutation_for(cfg) is build_uqr_3local(5)
        direct = reduction_qr(cfg, 0.5)
        assert reduction_qr(RefrigeratorConfig(5, 2, 4), 0.5) != direct
