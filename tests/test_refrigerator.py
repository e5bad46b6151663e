import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coolsign import (
    ConvergenceError,
    RefrigeratorConfig,
    SteadyStateResult,
    alpha_infinity,
    build_round_matrix,
    build_uqr,
    build_uqr_3local,
    marginal_targets,
    optimal_bounds,
    pairwise_sum,
    product_probs,
    steady_states,
    window_swaps,
)
from coolsign import refrigerator
from coolsign.refrigerator import (
    GTH_PANEL,
    LOCALITIES,
    _carried_cycle_rows,
    _mirror,
    _recycle_step,
    _stationary_gth,
    _target,
    compression_permutation_for,
    fixed_point,
)
from coolsign.states import ground_excited_pair, product_probs
from oracles import attach, full_cycle, full_round, qubits, sum_last


def uniform_gth(rows):
    """A broken GTH: the uniform vector, which no recycle cycle keeps."""
    return np.full(rows.shape[:-1], 1.0 / rows.shape[-1])


def recycle(a, cfg, alpha):
    """One recycle cycle from the vector ``a``: ``(recycled, alpha_enhanced)``."""
    step = _recycle_step(cfg, alpha, compression_permutation_for(cfg))
    recycled, evolved = step(np.asarray(a, dtype=float))
    return recycled, float(_target(evolved)[2])


def reduction_qr(cfg, alpha):
    """The refrigerator's reduction factor at one polarization."""
    return steady_states(cfg, [alpha])[0].reduction_factor(alpha, cfg.cost)


def expected_m4(p):
    """Hand-derived 4x4 round matrix for n=4, m=2 (tridiagonal in the band)."""
    q = 1 - p
    return np.array(
        [
            [p * (2 - p), p**2, 0, 0],
            [q**2, 2 * p * q, p**2, 0],
            [0, q**2, 2 * p * q, p**2],
            [0, 0, q**2, 1 - p**2],
        ]
    )


def full_simulation_marginal(cfg, alpha, start_vec):
    """Oracle: run the rounds on the complete 2^n diagonal, no matrix shortcut."""
    full = attach(np.asarray(start_vec, dtype=float), qubits(alpha, cfg.m))
    for _ in range(cfg.rounds):
        full = full_round(full, cfg, alpha)
    return marginal_targets(full), sum_last(full, cfg.m)


def staircase_transpositions(n, locality):
    """Every transposition of a staircase, in application order, listed one
    by one from the basis patterns (no bit windows)."""
    swaps = []
    if locality == "full":
        for j in range(3, n + 1):
            half = 1 << (j - 1)
            swaps += [(x * (1 << j) + half - 1, x * (1 << j) + half) for x in range(1 << (n - j))]
    else:
        for low in range(n - 2):  # qubits below the window
            for hi in range(1 << (n - 3 - low)):
                for lo in range(1 << low):
                    base = hi * (1 << (low + 3)) + lo
                    swaps.append((base + 3 * (1 << low), base + 4 * (1 << low)))
    return swaps


def swap_by_swap(n, swaps):
    """Labels of the basis states after exchanging entries one pair at a time."""
    labels = np.arange(1 << n)
    for a, b in swaps:
        labels[[a, b]] = labels[[b, a]]
    return labels


def moved_labels(perm):
    """The same labels moved by an index map: ``out[perm[i]] = i``."""
    out = np.empty_like(perm.perm)
    out[perm.perm] = np.arange(perm.perm.size)
    return out


class TestCompressionPermutations:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_staircases_match_swap_by_swap_oracle(self, n):
        for locality, build in (("full", build_uqr), ("3local", build_uqr_3local)):
            expect = swap_by_swap(n, staircase_transpositions(n, locality))
            assert np.array_equal(moved_labels(build(n)), expect), locality
        half = 1 << (n - 1)
        single = swap_by_swap(n, [(half - 1, half)])
        assert np.array_equal(moved_labels(window_swaps(n, [(0, n)])), single)

    def test_sixteen_qubit_staircases(self):
        perm = build_uqr(16).perm
        assert np.array_equal(perm[perm], np.arange(1 << 16))
        local = build_uqr_3local(16).perm
        assert np.array_equal(np.sort(local), np.arange(1 << 16))

    def test_ucj_examples(self):
        for j, (a, b) in ((3, (3, 4)), (4, (7, 8)), (2, (1, 2))):
            expect = np.arange(1 << j)
            expect[[a, b]] = [b, a]
            assert np.array_equal(window_swaps(j, [(0, j)]).perm, expect)

    def test_uqr3_is_single_swap(self):
        perm = build_uqr(3)
        moved = {i for i in range(8) if perm.perm[i] != i}
        assert moved == {3, 4}

    def test_uqr4_net_swaps(self):
        perm = build_uqr(4)
        expect = np.arange(16)
        for a, b in ((3, 4), (7, 8), (11, 12)):
            expect[[a, b]] = expect[[b, a]]
        assert np.array_equal(perm.perm, expect)

    def test_uqr5_identity_blocks_at_both_ends(self):
        perm = build_uqr(5)
        assert np.array_equal(perm.perm[:3], [0, 1, 2])
        assert np.array_equal(perm.perm[-3:], [29, 30, 31])

    def test_uqr_moves_only_staircase_patterns(self):
        for n in (3, 4, 5, 6, 7):
            perm = build_uqr(n).perm
            moved = {int(i) for i in np.nonzero(perm != np.arange(1 << n))[0]}
            expected = set()
            for j in range(3, n + 1):
                half = 1 << (j - 1)
                for x in range(1 << (n - j)):
                    expected |= {x * (1 << j) + half - 1, x * (1 << j) + half}
            assert moved == expected

    def test_uqr3_involution(self):
        perm = build_uqr(3).perm
        assert np.array_equal(perm[perm], np.arange(8))

    def test_uqr_bijection_for_all_n(self):
        for n in range(3, 9):
            perm = build_uqr(n).perm
            assert np.array_equal(np.sort(perm), np.arange(1 << n))

    def test_uqr_requires_three_qubits(self):
        with pytest.raises(ValueError):
            build_uqr(2)


def scattered_round_matrix(n, m, alpha, permutation):
    """The round matrix as a ``(2^n, d)`` scatter summed over the resets by
    ``pairwise_sum``: the in-place fold's oracle."""
    dim, res_dim = 1 << (n - m), 1 << m
    reset = product_probs(alpha, m)
    scattered = np.zeros(reset.shape[:-1] + (dim * res_dim, dim))
    src = np.arange(dim * res_dim)
    scattered[..., permutation.perm[src], src // res_dim] = reset[..., src % res_dim]
    scattered = scattered.reshape(reset.shape[:-1] + (dim, res_dim, dim))
    return pairwise_sum(np.moveaxis(scattered, -2, -1))


class TestRoundMatrix:
    def test_fold_equals_scatter_and_sum(self):
        alphas = np.array([0.0, 0.1, -0.37, 0.9, 1.0])
        for n in range(3, 11):
            for perm in (build_uqr(n), build_uqr_3local(n)):
                for m in (1, 2, 3):
                    if m > n - 1:
                        continue
                    want = scattered_round_matrix(n, m, alphas, perm)
                    assert np.array_equal(build_round_matrix(n, m, alphas, perm), want)
                    for alpha, matrix in zip(alphas, want):
                        got = build_round_matrix(n, m, float(alpha), perm)
                        assert np.array_equal(got, matrix)

    def test_build_holds_one_matrix_per_reset_pattern_and_the_result(self):
        perm = build_uqr(11)
        tracemalloc.start()
        try:
            matrix = build_round_matrix(11, 2, 0.5, perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.25 * matrix.nbytes

    def test_reproduces_symbolic_entries(self):
        rng = np.random.default_rng(20240607)
        for p in rng.uniform(0.02, 0.98, size=5):
            alpha = 2 * p - 1
            got = build_round_matrix(4, 2, alpha)
            assert np.abs(got - expected_m4((1 + alpha) / 2)).max() < 1e-12

    def test_spot_entry(self):
        assert build_round_matrix(4, 2, 0.5)[0, 0] == pytest.approx(0.9375, abs=1e-15)

    def test_column_stochastic(self):
        rng = np.random.default_rng(99)
        for alpha in rng.uniform(-0.99, 0.99, size=5):
            for n, m in ((4, 2), (5, 2), (6, 3), (5, 1)):
                matrix = build_round_matrix(n, m, float(alpha))
                assert np.abs(matrix.sum(axis=0) - 1.0).max() < 1e-12
                assert np.all(matrix >= 0)

    @pytest.mark.parametrize("locality", ["full", "3local"])
    def test_mirror_is_reversal(self, locality):
        # the round matrix commutes with the bit flip, as the kernel does, so
        # the direct solve at |alpha| reversed is the direct solve at -alpha
        for n in range(3, 10):
            perm = build_uqr(n) if locality == "full" else build_uqr_3local(n)
            for m in (1, 2, 3):
                if m > n - 1:
                    continue
                for alpha in (0.0, 0.1, 0.37, 0.9, 1.0):
                    matrix = build_round_matrix(n, m, alpha, perm)
                    mirror = build_round_matrix(n, m, -alpha, perm)
                    assert np.array_equal(mirror, matrix[::-1, ::-1])

    def test_matches_definition_on_random_vectors(self):
        cfg = RefrigeratorConfig(5, 2, 1)
        matrix = build_round_matrix(5, 2, 0.4)
        rng = np.random.default_rng(1)
        for _ in range(3):
            vec = rng.dirichlet(np.ones(8))
            expect = full_simulation_marginal(cfg, 0.4, vec)[1]
            assert np.abs(matrix @ vec - expect).max() < 1e-13


class TestMatrixVsFullSimulation:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_alpha_enhanced_identical(self, n):
        for locality, perm in (("full", build_uqr(n)), ("3local", build_uqr_3local(n))):
            for m in (1, 2, 3):
                if m > n - 1:
                    continue
                for alpha in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
                    matrix = build_round_matrix(n, m, alpha, perm)
                    vec = product_probs(alpha, n - m)
                    cfg1 = RefrigeratorConfig(n, m, 1, locality=locality)
                    full = attach(product_probs(alpha, n - m), qubits(alpha, m))
                    for _ in range(10):
                        vec = matrix @ vec
                        full = full_round(full, cfg1, alpha)
                        traced = sum_last(full, m)
                        assert np.abs(vec - traced).max() < 1e-12
                        assert abs(marginal_targets(vec) - marginal_targets(traced)) < 1e-12


class TestRecycleCycle:
    def test_n3_recycling_is_memoryless(self):
        cfg = RefrigeratorConfig(3, 2, 1)
        fresh = product_probs(0.3, 1)
        for start in ([0.9, 0.1], [0.2, 0.8], [1.0, 0.0]):
            recycled, _ = recycle(np.array(start), cfg, 0.3)
            assert np.allclose(recycled, fresh, atol=1e-14)

    def test_zero_polarization_fixed_point(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        recycled, enhanced = recycle(np.full(4, 0.25), cfg, 0.0)
        assert enhanced == 0.0
        assert np.allclose(recycled, 0.25, atol=1e-15)

    def test_single_round_matches_full_oracle(self):
        cfg = RefrigeratorConfig(4, 2, 1)
        start = product_probs(0.5, 2)
        _, enhanced = recycle(start, cfg, 0.5)
        oracle, _ = full_simulation_marginal(cfg, 0.5, start)
        assert enhanced == pytest.approx(oracle, abs=1e-13)


class TestSteadyState:
    def test_n3_converges_immediately(self):
        result = steady_states(RefrigeratorConfig(3, 2, 1), [0.5])[0]
        assert result.alpha_enhanced == pytest.approx(0.6875, abs=1e-14)
        assert result.residual <= 1e-12

    def test_zero_polarization(self):
        result = steady_states(RefrigeratorConfig(5, 2, 4), [0.0])[0]
        assert result.alpha_enhanced == 0.0
        assert result.residual == 0.0

    def test_matches_full_recycle_history(self):
        cfg = RefrigeratorConfig(5, 2, 9)
        for alpha in (0.5, -0.5, 0.2):
            full = product_probs(alpha, 5)
            enhanced = math.inf
            for _ in range(200):
                full, evolved = full_cycle(full, cfg, alpha)
                previous, enhanced = enhanced, marginal_targets(evolved)
                if abs(enhanced - previous) <= 1e-14:
                    break
            result = steady_states(cfg, [alpha])[0]
            assert abs(result.alpha_enhanced - enhanced) < 1e-10

    def test_residual_contract(self):
        cfg = RefrigeratorConfig(5, 2, 3)
        for alpha in (0.4, -0.4):
            result = steady_states(cfg, [alpha])[0]
            recycled, _ = recycle(result.a_fixed, cfg, alpha)
            assert np.abs(recycled - result.a_fixed).sum() <= 1e-12

    def test_sign_preserved_and_exactly_odd(self):
        for n, m, rounds in ((4, 1, 3), (5, 2, 5), (6, 3, 2), (7, 2, 9)):
            cfg = RefrigeratorConfig(n, m, rounds)
            for alpha in (0.05, 0.1, 0.37, 0.5, 0.9):
                up = steady_states(cfg, [alpha])[0]
                down = steady_states(cfg, [-alpha])[0]
                assert up.alpha_enhanced > 0
                assert down.alpha_enhanced == -up.alpha_enhanced

    def test_monotone_in_rounds(self):
        values = [
            steady_states(RefrigeratorConfig(5, 2, r), [0.3])[0].alpha_enhanced
            for r in (1, 2, 4, 8, 16, 50)
        ]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_convergence_failure_carries_residual(self):
        # swapping [1, 0] moves the vector by exactly 2.0 every cycle
        def swap(a):
            return a[::-1].copy(), a

        with pytest.raises(ConvergenceError) as excinfo:
            fixed_point(swap, np.array([1.0, 0.0]), tol=1e-300, max_cycles=5)
        assert excinfo.value.residual >= 0.0
        assert excinfo.value.residual == 2.0

    def test_failure_message_names_alpha_rounds_and_residual(self, monkeypatch):
        monkeypatch.setattr(refrigerator, "_stationary_gth", uniform_gth)
        with pytest.raises(ConvergenceError) as excinfo:
            steady_states(RefrigeratorConfig(5, 2, 3), [0.25])
        message = str(excinfo.value)
        assert "alpha=0.25" in message and "rounds=3" in message and "residual" in message
        assert "\n" not in message

    @pytest.mark.parametrize(
        "cfg,alpha",
        [(RefrigeratorConfig(8, 2, 3), 0.98), (RefrigeratorConfig(7, 2, 4, locality="3local"), 0.99)],
    )
    def test_converges_near_saturation(self, cfg, alpha):
        # power iteration from the product state stalled on these cells
        result = steady_states(cfg, [alpha])[0]
        assert result.residual <= 1e-12
        recycled, enhanced = recycle(result.a_fixed, cfg, alpha)
        assert np.abs(recycled - result.a_fixed).sum() <= 1e-12
        assert enhanced == result.alpha_enhanced

    def test_target_masses(self):
        for alpha in (0.3, -0.3, 0.95):
            result = steady_states(RefrigeratorConfig(6, 2, 4), [alpha])[0]
            assert result.ground - result.excited == result.alpha_enhanced
            assert abs(result.ground + result.excited - 1.0) < 1e-14

    def test_unit_polarization(self):
        for alpha in (1.0, -1.0):
            result = steady_states(RefrigeratorConfig(5, 2, 3), [alpha])[0]
            assert result.alpha_enhanced == alpha
            assert result.residual == 0.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 7),
    m=st.integers(1, 3),
    rounds=st.integers(1, 5),
    locality=st.sampled_from(["full", "3local"]),
    alpha=st.floats(-0.97, 0.97, exclude_min=True, exclude_max=True),
)
def test_seeded_steady_state_matches_full_recycle_history(n, m, rounds, locality, alpha):
    assume(m <= n - 1)
    cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
    # the full-register history after 2^60 cycles, by repeated squaring of
    # the cycle's matrix, whose column j is the recycled image of e_j
    power = full_cycle(np.eye(1 << n), cfg, alpha)[0].T
    for _ in range(60):
        power = power @ power
        power /= power.sum(axis=0, keepdims=True)
    history = power @ product_probs(alpha, n)
    cycle_start = history / history.sum()
    evolved = full_cycle(cycle_start, cfg, alpha)[1]
    result = steady_states(cfg, [alpha])[0]
    assert abs(result.alpha_enhanced - marginal_targets(evolved)) < 1e-9
    assert np.abs(result.a_fixed - sum_last(cycle_start, m)).max() < 1e-9
    assert steady_states(cfg, [-alpha])[0].alpha_enhanced == -result.alpha_enhanced


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 7),
    m=st.integers(1, 3),
    rounds=st.integers(1, 9),
    locality=st.sampled_from(["full", "3local"]),
    alpha=st.floats(0.0, 1.0),
)
@example(n=5, m=2, rounds=9, locality="full", alpha=0.99)  # read 1.0000000000000016
def test_polarization_stays_within_unit_range(n, m, rounds, locality, alpha):
    assume(m <= n - 1)
    cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
    up, down = steady_states(cfg, [alpha])[0], steady_states(cfg, [-alpha])[0]
    assert abs(up.alpha_enhanced) <= 1.0
    assert down.alpha_enhanced == -up.alpha_enhanced
    assert abs(optimal_bounds(cfg, [alpha])[0].alpha_enhanced) <= 1.0


def assert_same_result(got, want):
    assert np.array_equal(got.a_fixed, want.a_fixed)
    fields = ("alpha_enhanced", "residual", "ground", "excited")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 7),
    m=st.integers(1, 3),
    rounds=st.integers(1, 4),
    locality=st.sampled_from(["full", "3local"]),
    alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    data=st.data(),
)
def test_batched_grid_equals_one_point_solves(n, m, rounds, locality, alphas, data):
    assume(m <= n - 1)
    cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
    grid = data.draw(st.permutations([0.0, 1.0, -1.0] + alphas + [-a for a in alphas]))
    shuffled = data.draw(st.permutations(grid))
    for batched, one_point in ((steady_states, lambda cfg, a: steady_states(cfg, [a])[0]),
                               (optimal_bounds, lambda cfg, a: optimal_bounds(cfg, [a])[0])):
        results = batched(cfg, grid)
        for alpha, got in zip(grid, results):
            assert_same_result(got, one_point(cfg, alpha))
        by_alpha = dict(zip(grid, results))
        for alpha, got in zip(shuffled, batched(cfg, shuffled)):
            assert_same_result(got, by_alpha[alpha])


def descending(full):
    return np.sort(full, axis=-1)[..., ::-1]


def ascending(full):
    return np.sort(full, axis=-1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 8),
    m=st.integers(1, 3),
    rounds=st.integers(1, 5),
    locality=st.sampled_from(LOCALITIES),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_recycle_step_commutes_with_the_bit_flip(n, m, rounds, locality, alpha, seed):
    # the solvers return the mirror of the |alpha| solve for a negative alpha;
    # this holds that mirror to the -alpha step itself, bit for bit
    assume(m <= n - 1)
    cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
    x = np.random.default_rng(seed).dirichlet(np.ones(1 << (n - m)))
    staircase = compression_permutation_for(cfg)
    for up, down in ((staircase, staircase), (descending, ascending)):
        recycled, evolved = _recycle_step(cfg, alpha, up)(x)
        flipped = _recycle_step(cfg, -alpha, down)(x[::-1])
        assert np.array_equal(flipped[0], recycled[::-1])
        assert np.array_equal(flipped[1], evolved[::-1])
        ground, excited, polarization = _target(evolved)
        assert _target(evolved[::-1]) == (excited, ground, -polarization)


def test_grid_solves_each_magnitude_once(monkeypatch):
    calls = []
    for name in ("build_round_matrix", "_stationary_gth"):
        def counted(*args, _call=getattr(refrigerator, name), _name=name):
            calls.append(_name)
            return _call(*args)

        monkeypatch.setattr(refrigerator, name, counted)
    down, up = steady_states(RefrigeratorConfig(5, 2, 3), [-0.5, 0.5])
    assert calls == ["_stationary_gth"]
    assert_same_result(down, _mirror(up))


def test_chunks_do_not_change_results(monkeypatch):
    cfg = RefrigeratorConfig(6, 2, 3)
    grid = [0.3, -0.9, 0.0, 0.9, 1.0, -0.3, 0.6]
    whole = steady_states(cfg, grid) + optimal_bounds(cfg, grid)
    monkeypatch.setattr(refrigerator, "CHUNK_BYTES", 2 * 8 * 8 * 8)  # two points per chunk
    for got, want in zip(steady_states(cfg, grid) + optimal_bounds(cfg, grid), whole):
        assert_same_result(got, want)


class TestBatchedNonConvergence:
    def test_names_the_point_that_stalls(self, monkeypatch):
        # the all-fresh start is already fixed at alpha = 0 only
        cfg = RefrigeratorConfig(5, 2, 3)
        monkeypatch.setattr(refrigerator, "MAX_CYCLES", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            optimal_bounds(cfg, [0.0, 0.25, 0.5])
        message = str(excinfo.value)
        assert "alpha=0.25" in message and "rounds=3" in message and "residual" in message
        assert excinfo.value.residual > 1e-12

    def test_zero_cycle_budget(self, monkeypatch):
        monkeypatch.setattr(refrigerator, "MAX_CYCLES", 0)
        with pytest.raises(ConvergenceError, match=r"alpha=-0\.5, rounds=2: .*residual"):
            optimal_bounds(RefrigeratorConfig(4, 2, 2, locality="3local"), [-0.5, 0.5])

    def test_failed_check_names_the_first_grid_alpha(self, monkeypatch):
        # the product state stands in at alpha = 0, so the check fails on row 1
        monkeypatch.setattr(refrigerator, "_stationary_gth", uniform_gth)
        with pytest.raises(ConvergenceError, match=r"alpha=-0\.5, rounds=2: .*residual"):
            steady_states(RefrigeratorConfig(4, 2, 2, locality="3local"), [0.0, -0.5, 0.5])


def scalar_gth(rows):
    """Oracle: GTH elimination one state at a time, each step a rank-one
    update of the whole block that is left."""
    p = np.array(rows, dtype=float)
    dim = p.shape[-1]
    for k in range(dim - 1, 0, -1):
        pivot = p[..., k, :k].sum(axis=-1)
        pivot = np.where(pivot > 0.0, pivot, np.nan)
        p[..., :k, k] /= pivot[..., None]
        p[..., :k, :k] += p[..., :k, k, None] * p[..., k, None, :k]
    pi = np.ones(p.shape[:-1])
    for k in range(1, dim):
        pi[..., k] = (pi[..., :k] * p[..., :k, k]).sum(axis=-1)
    return pi / pi.sum(axis=-1, keepdims=True)


def random_chain(seed, size, batch, spread, density):
    """Row-stochastic matrices with entries over many magnitudes; each state
    steps to the one before it (state 0 to the last), so every pivot is
    positive."""
    rng = np.random.default_rng(seed)
    shape = batch + (size, size)
    rows = rng.random(shape) ** spread * (rng.random(shape) < density)
    states = np.arange(size)
    rows[..., states, states - 1] += rng.random(batch + (size,)) ** spread + 1e-300
    return rows / rows.sum(axis=-1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(2, 100),
    batch=st.sampled_from([(), (3,)]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 30.0),
    density=st.floats(0.05, 1.0),
)
@example(size=GTH_PANEL, batch=(), seed=1, spread=1.0, density=1.0)
@example(size=GTH_PANEL + 1, batch=(3,), seed=2, spread=20.0, density=0.3)
@example(size=2 * GTH_PANEL + 7, batch=(3,), seed=3, spread=30.0, density=0.1)
def test_blocked_gth_matches_scalar_elimination(size, batch, seed, spread, density):
    rows = random_chain(seed, size, batch, spread, density)
    got, want = _stationary_gth(rows), scalar_gth(rows)
    assert np.isfinite(want).all()
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    for index in np.ndindex(batch):
        assert np.array_equal(got[index], _stationary_gth(rows[index]))


def test_blocked_gth_keeps_tiny_masses_of_a_real_cycle():
    # the carried chain has eight panels; its stationary masses span 1 down
    # to about 8e-16
    cfg = RefrigeratorConfig(11, 2, 5, locality="3local")
    rows = _carried_cycle_rows(cfg, np.array([0.97]), compression_permutation_for(cfg))
    got, want = _stationary_gth(rows), scalar_gth(rows)
    assert want.min() < 1e-15
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_blocked_gth_flags_a_closed_set_across_panels():
    # states 3 and size - 5 step only to each other, away from state 0;
    # state size - 5 is eliminated in the first panel and state 3 in the last
    size = GTH_PANEL + 8
    rows = random_chain(5, size, (), 1.0, 1.0)
    rows[[3, size - 5]] = 0.0
    rows[3, size - 5] = rows[size - 5, 3] = 1.0
    assert np.isnan(_stationary_gth(rows)).all()
    batch = np.stack([random_chain(6, size, (), 1.0, 1.0), rows])
    assert np.isnan(_stationary_gth(batch)[1]).all()


def dense_carried_rows(cfg, alphas, permutation):
    """Oracle: the carried chains from the dense round matrix and its power.

    Row ``i`` runs the rounds on ``e_i`` with a fresh qubit appended and
    sums the target out of the result."""
    fresh = ground_excited_pair(alphas)
    power = np.linalg.matrix_power(
        build_round_matrix(cfg.n, cfg.m, alphas, permutation), cfg.rounds)
    evolved = (fresh[:, 0, None, None] * power[..., 0::2].swapaxes(-1, -2)
               + fresh[:, 1, None, None] * power[..., 1::2].swapaxes(-1, -2))
    half = evolved.shape[-1] >> 1
    return evolved[..., :half] + evolved[..., half:]


@pytest.mark.parametrize("locality", LOCALITIES)
@pytest.mark.parametrize("n,m", [(n, m) for n in range(3, 10) for m in (1, 2, 3) if m < n])
def test_carried_cycle_rows_match_the_dense_power(n, m, locality):
    alphas = np.array([0.0, 1e-9, 0.1, 0.37, 0.5, 0.9, 0.999, 1.0])
    for rounds in (1, 2, 3, 5, 9):
        cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
        permutation = compression_permutation_for(cfg)
        got = _carried_cycle_rows(cfg, alphas, permutation)
        want = dense_carried_rows(cfg, alphas, permutation)
        assert np.array_equal(got != 0.0, want != 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        for row in range(len(alphas)):
            assert np.array_equal(_carried_cycle_rows(cfg, alphas[row:row + 1], permutation)[0],
                                  got[row])


@pytest.mark.parametrize("locality", LOCALITIES)
@pytest.mark.parametrize("n", range(3, 9))
def test_seed_is_the_stationary_vector_of_the_full_cycle(n, locality):
    # the fixed point, the carried chain's stationary vector with the
    # recycled fresh qubit appended, is with fresh resets appended the
    # stationary vector of the whole cycle on the full 2^n register
    alphas = [0.1, 0.37, 0.9, 0.999]
    for m in range(1, min(3, n - 1) + 1):
        for rounds in (1, 3, 9):
            cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
            for result, alpha in zip(steady_states(cfg, alphas), alphas):
                want = scalar_gth(full_cycle(np.eye(1 << n), cfg, alpha)[0])
                np.testing.assert_allclose(attach(result.a_fixed, qubits(alpha, m)), want,
                                           rtol=1e-14, atol=0)


def test_steady_states_run_one_cycle_per_chunk_and_no_fixed_point(monkeypatch):
    def no_fixed_point(*args):
        raise AssertionError("steady_states iterated a fixed point")

    steps = []

    def counted(cfg, alphas, compress):
        step = _recycle_step(cfg, alphas, compress)

        def recorded(a):
            steps.append(len(alphas))
            return step(a)

        return recorded

    monkeypatch.setattr(refrigerator, "fixed_point", no_fixed_point)
    monkeypatch.setattr(refrigerator, "_recycle_step", counted)
    monkeypatch.setattr(refrigerator, "CHUNK_BYTES", 2 * 8 * 8 * 8)  # two points per chunk
    steady_states(RefrigeratorConfig(6, 2, 3), [0.3, -0.9, 0.0, 0.9, 1.0, -0.3, 0.6])
    assert steps == [2, 2, 1]


@pytest.mark.parametrize("locality", LOCALITIES)
@pytest.mark.parametrize("n", [8, 10])
def test_multi_panel_registers_stay_odd_and_batch_exact(n, locality):
    cfg = RefrigeratorConfig(n, 2, 5, locality=locality)
    grid = [0.3, -0.3, 0.0, -0.6, 0.6, 0.95, -0.95]
    for alpha in (0.3, 0.6, 0.95):
        up, down = steady_states(cfg, [alpha])[0], steady_states(cfg, [-alpha])[0]
        assert np.array_equal(down.a_fixed, up.a_fixed[::-1])
        assert down.alpha_enhanced == -up.alpha_enhanced
    for alpha, got in zip(grid, steady_states(cfg, grid)):
        assert_same_result(got, steady_states(cfg, [alpha])[0])


def exact_reduction_factor(n, m, rounds, alpha):
    """Reduction factor of the staircase refrigerator in rational arithmetic.

    The recycle cycle is simulated on the full 2^n register for each basis
    input of the non-reset qubits, its stationary vector solved by exact
    Gaussian elimination, and the target masses read after the rounds.
    """
    p, q = (1 + alpha) / 2, (1 - alpha) / 2
    dim, res_dim = 1 << (n - m), 1 << m

    def fresh(count):
        out = [Fraction(1)]
        for _ in range(count):
            out = [x * c for x in out for c in (p, q)]
        return out

    def image(x):
        # the j-qubit compression swap on the last j qubits, for j = 3..n
        for j in range(3, n + 1):
            low, half = x & ((1 << j) - 1), 1 << (j - 1)
            if low == half - 1:
                x += 1
            elif low == half:
                x -= 1
        return x

    reset = fresh(m)

    def run_rounds(vec):
        for _ in range(rounds):
            moved = [Fraction(0)] * (dim * res_dim)
            for x in range(dim * res_dim):
                moved[image(x)] += vec[x // res_dim] * reset[x % res_dim]
            vec = [sum(moved[i * res_dim:(i + 1) * res_dim]) for i in range(dim)]
        return vec

    def recycle(vec):
        half = dim // 2
        return [(vec[i] + vec[i + half]) * c for i in range(half) for c in (p, q)]

    cycle = [recycle(run_rounds([Fraction(int(i == j)) for i in range(dim)])) for j in range(dim)]
    # solve (C - I) x = 0 with the last equation replaced by sum(x) = 1
    system = [[cycle[j][i] - (i == j) for j in range(dim)] + [Fraction(0)] for i in range(dim)]
    system[-1] = [Fraction(1)] * dim + [Fraction(1)]
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if system[r][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(dim):
            if r != col and system[r][col] != 0:
                factor = system[r][col] / system[col][col]
                system[r] = [a - factor * b for a, b in zip(system[r], system[col])]
    stationary = [system[i][-1] / system[i][i] for i in range(dim)]
    evolved = run_rounds(stationary)
    ground, excited = sum(evolved[: dim // 2]), sum(evolved[dim // 2:])
    raw = (1 - alpha * alpha) / (alpha * alpha)
    enhanced = 4 * ground * excited / (ground - excited) ** 2
    return raw / enhanced / (m * rounds + 1)


def test_reduction_factor_matches_exact_rational_solve():
    exact = exact_reduction_factor(5, 2, 3, Fraction(99, 100))
    assert float(exact) == pytest.approx(6.73e8, rel=1e-3)
    got = reduction_qr(RefrigeratorConfig(5, 2, 3), 0.99)
    assert abs(got - float(exact)) <= 1e-9 * float(exact)


class TestAlphaInfinity:
    def test_double_angle_identity(self):
        assert alpha_infinity(3, 2, 0.5) == 0.8

    def test_tanh_form(self):
        expect = math.tanh(8 * math.atanh(0.2))
        assert alpha_infinity(5, 2, 0.2) == pytest.approx(expect, abs=1e-15)
        assert alpha_infinity(5, 2, 0.2) == pytest.approx(0.92489, abs=5e-6)

    @pytest.mark.parametrize("n,m", [(3, 2), (5, 2), (6, 1), (8, 4)])
    def test_zero(self, n, m):
        assert alpha_infinity(n, m, 0.0) == 0.0

    def test_unit_polarization(self):
        assert alpha_infinity(4, 2, 1.0) == 1.0
        assert alpha_infinity(4, 2, -1.0) == -1.0

    def test_exactly_odd(self):
        for alpha in (0.1, 0.33, 0.77):
            assert alpha_infinity(5, 2, -alpha) == -alpha_infinity(5, 2, alpha)

    def test_huge_exponent_saturates(self):
        assert alpha_infinity(40, 2, 0.5) == 1.0

    def test_rounds_converge_to_limit(self):
        for n in (3, 4, 5):
            for alpha in (0.2, 0.5, 0.8):
                result = steady_states(RefrigeratorConfig(n, 2, 200), [alpha])[0]
                assert abs(result.alpha_enhanced - alpha_infinity(n, 2, alpha)) < 1e-6


class TestReductionFactorQr:
    def test_three_qubit_arithmetic(self):
        # same gain algebra as the single-shot case, with cost m*rounds+1 = 3
        value = reduction_qr(RefrigeratorConfig(3, 2, 1), 0.5)
        assert value == pytest.approx(121 / 135, abs=1e-12)

    def test_even_in_alpha(self):
        cfg = RefrigeratorConfig(5, 2, 3)
        assert reduction_qr(cfg, -0.4) == reduction_qr(cfg, 0.4)

    def test_undefined_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            reduction_qr(RefrigeratorConfig(4, 2, 1), 0.0)

    def test_grows_toward_unit_polarization(self):
        cfg = RefrigeratorConfig(5, 2, 9)
        assert reduction_qr(cfg, 0.99) > reduction_qr(cfg, 0.9) > reduction_qr(cfg, 0.5)

    def test_finite_on_default_grid_edge(self):
        value = reduction_qr(RefrigeratorConfig(5, 2, 9), 0.99)
        assert math.isfinite(value) and value > 0

    def test_finite_near_saturated_polarization(self):
        cfg = RefrigeratorConfig(5, 2, 200)
        assert steady_states(cfg, [0.99])[0].alpha_enhanced > 1 - 1e-14
        value = reduction_qr(cfg, 0.99)
        assert math.isfinite(value) and value > 0


def from_masses(ground, excited):
    """A steady state that carries only its target's two masses."""
    return SteadyStateResult(np.zeros(0), (ground - excited) / (ground + excited), 0.0,
                             ground, excited)


class TestReductionFromMasses:
    def test_spec_arithmetic_for_three_qubits(self):
        # (alpha^-2 - 1)/(alpha_ac^-2 - 1)/n with the exact closed-form gain:
        # alpha_ac(3, 0.5) = 11/16 leaves the masses 27/32 and 5/32
        value = from_masses(27 / 32, 5 / 32).reduction_factor(0.5, 3)
        assert value == pytest.approx(float(Fraction(121, 135)), abs=1e-14)
        assert value == pytest.approx(0.89630, abs=1e-5)

    def test_identity_case(self):
        assert from_masses(0.7, 0.3).reduction_factor(0.4, 1) == pytest.approx(1.0, abs=1e-14)

    def test_undefined_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            from_masses(0.75, 0.25).reduction_factor(0.0, 3)

    @pytest.mark.parametrize("cfg", [RefrigeratorConfig(5, 2, 5), RefrigeratorConfig(5, 2, 9),
                                     RefrigeratorConfig(6, 2, 4, locality="3local")])
    def test_mass_drift_does_not_leak_in(self, cfg):
        # scaling both masses alike leaves 4 g e / (g - e)^2 as it is; the
        # scaled masses are themselves rounded, and |g - e| amplifies that
        # rounding by 1 / alpha_enhanced
        grid = [0.0005, 0.001, 0.003, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        for alpha, result in zip(grid, steady_states(cfg, grid)):
            drifted = dataclasses.replace(result, ground=result.ground * (1 + 1e-12),
                                          excited=result.excited * (1 + 1e-12))
            want = result.reduction_factor(alpha, cfg.cost)
            got = drifted.reduction_factor(alpha, cfg.cost)
            assert abs(got - want) <= 1e-15 / result.alpha_enhanced * want
            assert _mirror(drifted).reduction_factor(-alpha, cfg.cost) == got


class TestOptimalBound:
    def test_matches_staircase_for_n3(self):
        cfg = RefrigeratorConfig(3, 2, 1)
        bound = optimal_bounds(cfg, [0.5])[0]
        protocol = steady_states(cfg, [0.5])[0]
        assert bound.alpha_enhanced == pytest.approx(protocol.alpha_enhanced, abs=1e-14)

    def test_zero_polarization(self):
        assert optimal_bounds(RefrigeratorConfig(5, 2, 3), [0.0])[0].alpha_enhanced == 0.0

    def test_dominates_protocol(self):
        cfg = RefrigeratorConfig(5, 2, 9)
        for alpha in np.arange(0.3, 0.901, 0.1):
            alpha = float(alpha)
            r_bound = optimal_bounds(cfg, [alpha])[0].reduction_factor(alpha, cfg.cost)
            assert r_bound >= reduction_qr(cfg, alpha) * (1 - 1e-9)

    def test_negative_bias_sorts_ascending(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        up, down = optimal_bounds(cfg, [0.6])[0], optimal_bounds(cfg, [-0.6])[0]
        assert down.alpha_enhanced == pytest.approx(-up.alpha_enhanced, abs=1e-13)
