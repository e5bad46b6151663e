import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolsign import (
    PermutationSpec,
    RefrigeratorConfig,
    ShotExperiment,
    alpha_ac,
    alpha_ac_erf,
    alpha_infinity,
    alpha_infinity_3local,
    asymptotic_population_vector,
    build_round_matrix,
    exact_sign_error,
    marginal_targets,
    optimal_bounds,
    pairwise_sum,
    predict_error_bound,
    product_probs,
    reduction_factor_ac,
    steady_states,
    window_swaps,
)
from coolsign.states import _attach, ground_excited_pair


def dyadic_probs(n, rng):
    """Random probability vector of dyadic rationals summing to 1.0 exactly,
    so sums can be checked bit-for-bit."""
    denom = 1 << 20
    counts = rng.multinomial(denom, np.full(1 << n, 1.0 / (1 << n)))
    return counts / denom


class TestProductState:
    def test_maximally_mixed(self):
        assert np.array_equal(product_probs(0.0, 2), [0.25, 0.25, 0.25, 0.25])

    def test_pure_ground(self):
        assert np.array_equal(product_probs(1.0, 3), [1, 0, 0, 0, 0, 0, 0, 0])

    def test_half_polarized_single_qubit(self):
        assert np.array_equal(product_probs(0.5, 1), [0.75, 0.25])

    def test_hamming_weight_structure(self):
        p, q = 0.75, 0.25
        probs = product_probs(0.5, 4)
        for idx in range(16):
            w = bin(idx).count("1")
            assert probs[idx] == pytest.approx(p ** (4 - w) * q**w, abs=1e-15)

    @pytest.mark.parametrize("alpha,n", [(1.5, 2), (-1.01, 1)])
    def test_invalid_polarization(self, alpha, n):
        with pytest.raises(ValueError):
            product_probs(alpha, n)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            product_probs(0.3, 0)

    def test_empty_batch_keeps_zero_rows(self):
        # the steady-state solve asks for the product states of an empty
        # selection of its grid on every call
        assert product_probs(np.array([]), 3).shape == (0, 8)
        assert _attach(np.ones((0, 4)), np.ones((0, 2))).shape == (0, 8)


#: every function that takes a polarization, called at ``alpha``
POLARIZATION_ENTRY_POINTS = {
    "ground_excited_pair": lambda alpha: ground_excited_pair(alpha),
    "product_probs": lambda alpha: product_probs(alpha, 3),
    "alpha_ac": lambda alpha: alpha_ac(5, alpha),
    "alpha_ac_erf": lambda alpha: alpha_ac_erf(5, alpha),
    "reduction_factor_ac": lambda alpha: reduction_factor_ac(5, alpha),
    "alpha_infinity": lambda alpha: alpha_infinity(5, 2, alpha),
    "alpha_infinity_3local": lambda alpha: alpha_infinity_3local(5, alpha),
    "asymptotic_population_vector": lambda alpha: asymptotic_population_vector(5, alpha),
    "build_round_matrix": lambda alpha: build_round_matrix(5, 2, alpha),
    "steady_states": lambda alpha: steady_states(RefrigeratorConfig(5, 2, 3), [0.3, alpha]),
    "optimal_bounds": lambda alpha: optimal_bounds(RefrigeratorConfig(5, 2, 3), [alpha]),
    "exact_sign_error": lambda alpha: exact_sign_error(alpha, 5),
    "predict_error_bound": lambda alpha: predict_error_bound(alpha, 5),
    "ShotExperiment": lambda alpha: ShotExperiment(alpha, 5, 10, 1),
}


@pytest.mark.parametrize("alpha", [math.nan, -math.nan, 1.5, -math.inf])
@pytest.mark.parametrize("entry", sorted(POLARIZATION_ENTRY_POINTS))
def test_polarization_outside_unit_range_or_nan_is_rejected(entry, alpha):
    with pytest.raises(ValueError, match="polarization must lie in"):
        POLARIZATION_ENTRY_POINTS[entry](alpha)


class TestMarginalTarget:
    def test_marginal_of_product(self):
        assert marginal_targets(product_probs(0.5, 3)) == pytest.approx(0.5, abs=1e-15)

    def test_excited_pure_state(self):
        assert marginal_targets([0, 0, 0, 1]) == -1.0

    def test_msb_mass_conversion(self):
        # ground mass 0.84375 on the target <=> polarization 2p - 1
        assert marginal_targets([0.6, 0.24375, 0.1, 0.05625]) == pytest.approx(0.6875, abs=1e-15)

    def test_grid_identity(self):
        for alpha in np.linspace(-1, 1, 41):
            for n in (1, 3, 6):
                assert abs(marginal_targets(product_probs(float(alpha), n)) - alpha) < 1e-14


class TestPermutations:
    def test_identity_fixes_state(self):
        probs = product_probs(0.37, 3)
        identity = PermutationSpec(3, np.arange(1 << 3))
        assert np.array_equal(identity(probs), probs)

    def test_swap_exchanges_entries(self):
        probs = product_probs(0.5, 3)
        out = window_swaps(3, [(0, 3)])(probs)
        expect = probs.copy()
        expect[[3, 4]] = expect[[4, 3]]
        assert np.array_equal(out, expect)

    def test_mass_conserved(self):
        rng = np.random.default_rng(3)
        perm = PermutationSpec(3, rng.permutation(8))
        probs = dyadic_probs(3, rng)
        assert perm(probs).sum() == probs.sum()

    def test_inverse_roundtrip_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            perm = PermutationSpec(4, rng.permutation(16))
            inverse = PermutationSpec(4, np.argsort(perm.perm))
            probs = rng.dirichlet(np.ones(16))
            assert np.array_equal(inverse(perm(probs)), probs)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            PermutationSpec(3, np.arange(1 << 2))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            PermutationSpec(2, np.array([0, 0, 1, 2]))


class TestValidation:
    def test_pairwise_sum_requires_power_of_two(self):
        with pytest.raises(ValueError):
            pairwise_sum(np.ones(3))

    def test_pairwise_sum_reversal_invariant(self):
        rng = np.random.default_rng(5)
        v = rng.random(64)
        assert pairwise_sum(v) == pairwise_sum(v[::-1])


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=-1, max_value=1, allow_nan=False),
    n=st.integers(min_value=1, max_value=6),
)
def test_product_state_normalized_nonnegative(alpha, n):
    probs = product_probs(alpha, n)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs >= 0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
def test_random_permutation_roundtrip(data, n):
    order = data.draw(st.permutations(list(range(1 << n))))
    perm = PermutationSpec(n, np.array(order))
    inverse = PermutationSpec(n, np.argsort(perm.perm))
    probs = product_probs(0.3, n)
    assert np.array_equal(inverse(perm(probs)), probs)
