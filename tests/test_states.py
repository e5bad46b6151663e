import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolsign import (
    DiagonalState,
    PermutationSpec,
    marginal_target,
    pairwise_sum,
    product_state,
    window_swaps,
)


def dyadic_state(n, rng):
    """Random state whose probabilities are dyadic rationals summing to 1.0
    exactly, so sums can be checked bit-for-bit."""
    denom = 1 << 20
    counts = rng.multinomial(denom, np.full(1 << n, 1.0 / (1 << n)))
    return DiagonalState(n, counts / denom)


class TestProductState:
    def test_maximally_mixed(self):
        assert np.array_equal(product_state(0.0, 2).probs, [0.25, 0.25, 0.25, 0.25])

    def test_pure_ground(self):
        assert np.array_equal(product_state(1.0, 3).probs, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_half_polarized_single_qubit(self):
        assert np.array_equal(product_state(0.5, 1).probs, [0.75, 0.25])

    def test_hamming_weight_structure(self):
        p, q = 0.75, 0.25
        probs = product_state(0.5, 4).probs
        for idx in range(16):
            w = bin(idx).count("1")
            assert probs[idx] == pytest.approx(p ** (4 - w) * q**w, abs=1e-15)

    @pytest.mark.parametrize("alpha,n", [(1.5, 2), (-1.01, 1)])
    def test_invalid_polarization(self, alpha, n):
        with pytest.raises(ValueError):
            product_state(alpha, n)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            product_state(0.3, 0)


class TestMarginalTarget:
    def test_marginal_of_product(self):
        assert marginal_target(product_state(0.5, 3)) == pytest.approx(0.5, abs=1e-15)

    def test_excited_pure_state(self):
        assert marginal_target(DiagonalState(2, [0, 0, 0, 1])) == -1.0

    def test_msb_mass_conversion(self):
        # ground mass 0.84375 on the target <=> polarization 2p - 1
        d = DiagonalState(2, [0.6, 0.24375, 0.1, 0.05625])
        assert marginal_target(d) == pytest.approx(0.6875, abs=1e-15)

    def test_grid_identity(self):
        for alpha in np.linspace(-1, 1, 41):
            for n in (1, 3, 6):
                assert abs(marginal_target(product_state(float(alpha), n)) - alpha) < 1e-14


class TestPermutations:
    def test_identity_fixes_state(self):
        d = product_state(0.37, 3)
        identity = PermutationSpec(3, np.arange(1 << 3))
        assert np.array_equal(identity(d.probs), d.probs)

    def test_swap_exchanges_entries(self):
        d = product_state(0.5, 3)
        out = window_swaps(3, [(0, 3)])(d.probs)
        expect = d.probs.copy()
        expect[[3, 4]] = expect[[4, 3]]
        assert np.array_equal(out, expect)

    def test_mass_conserved(self):
        rng = np.random.default_rng(3)
        perm = PermutationSpec(3, rng.permutation(8))
        d = dyadic_state(3, rng)
        assert perm(d.probs).sum() == d.probs.sum()

    def test_inverse_roundtrip_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            perm = PermutationSpec(4, rng.permutation(16))
            inverse = PermutationSpec(4, np.argsort(perm.perm))
            d = DiagonalState(4, rng.dirichlet(np.ones(16)))
            assert np.array_equal(inverse(perm(d.probs)), d.probs)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            PermutationSpec(3, np.arange(1 << 2))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            PermutationSpec(2, np.array([0, 0, 1, 2]))


class TestValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            DiagonalState(1, [1.1, -0.1])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            DiagonalState(2, [0.5, 0.5])

    def test_mass_drift_warns_and_renormalizes(self):
        with pytest.warns(RuntimeWarning):
            d = DiagonalState(1, [0.6, 0.5])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_renormalization_is_mirror_exact(self, n):
        rng = np.random.default_rng(n)
        for drift in np.geomspace(2e-12, 1e-9, 25):
            x = rng.random(1 << n)
            x = x / x.sum() * (1.0 + drift)
            with pytest.warns(RuntimeWarning):
                forward = DiagonalState(n, x)
            with pytest.warns(RuntimeWarning):
                backward = DiagonalState(n, x[::-1])
            assert np.array_equal(backward.probs, forward.probs[::-1])

    def test_probs_read_only(self):
        d = product_state(0.2, 2)
        with pytest.raises(ValueError):
            d.probs[0] = 0.0

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
    d = product_state(alpha, n)
    assert abs(d.probs.sum() - 1.0) < 1e-12
    assert np.all(d.probs >= 0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
def test_random_permutation_roundtrip(data, n):
    order = data.draw(st.permutations(list(range(1 << n))))
    perm = PermutationSpec(n, np.array(order))
    inverse = PermutationSpec(n, np.argsort(perm.perm))
    d = product_state(0.3, n)
    assert np.array_equal(inverse(perm(d.probs)), d.probs)
