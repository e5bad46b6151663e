import ast
import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coolsign import (
    ConvergenceError,
    RefrigeratorConfig,
    SteadyStateResult,
    alpha_infinity,
    alpha_infinity_3local,
    build_uqr,
    build_uqr_3local,
    marginal_targets,
    optimal_bounds,
    pairwise_sum,
    product_probs,
    steady_states,
    window_swaps,
)
from coolsign import oracles, refrigerator
from coolsign.cli import parse_alpha_grid
from coolsign.oracles import (
    attach,
    full_round,
    gth,
    qubits,
    staircase_transpositions,
    steady,
    sum_last,
    swap_by_swap,
)
from coolsign.refrigerator import (
    GTH_PANEL,
    LOCALITIES,
    _carried_cycle_rows,
    _mirror,
    _recycle_step,
    _solve_grid,
    _stationary_gth,
    _target,
    compression_permutation_for,
)
from coolsign.states import PermutationSpec, ground_excited_pair, product_probs
from kernel_matrix import round_matrix


def uniform_gth(rows):
    """A broken GTH: the uniform vector, which no recycle cycle keeps."""
    return np.full(rows.shape[:-1], 1.0 / rows.shape[-1])


def recycle(a, cfg, alpha):
    """One recycle cycle from the vector ``a``: ``(recycled, alpha_enhanced)``."""
    step = _recycle_step(cfg, alpha, compression_permutation_for(cfg))
    recycled, evolved = step(np.asarray(a, dtype=float))
    return recycled, float(from_masses(*_target(evolved)).alpha_enhanced)


def reduction_qr(cfg, alpha):
    """The refrigerator's reduction factor at one polarization."""
    return steady_states(cfg, [alpha])[0].reduction_factor(alpha, cfg.cost)


def full_simulation_marginal(cfg, alpha, start_vec):
    """Oracle: run the rounds on the complete 2^n diagonal, no matrix shortcut."""
    full = attach(np.asarray(start_vec, dtype=float), qubits(alpha, cfg.m))
    for _ in range(cfg.rounds):
        full = full_round(full, cfg, alpha)
    return marginal_targets(full), sum_last(full, cfg.m)


def moved_labels(perm):
    """The same labels moved by an index map: ``out[perm[i]] = i``."""
    out = np.empty_like(perm.perm)
    out[perm.perm] = np.arange(perm.perm.size)
    return out


def test_oracles_import_nothing_from_the_package():
    # an oracle that shared code with the package would share its faults:
    # numpy and the standard library only, and no relative import
    tree = ast.parse(Path(oracles.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "numpy" in modules
    assert not [name for name in modules
                if name.split(".")[0] not in {"numpy", *sys.stdlib_module_names}]


class TestCompressionPermutations:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_staircases_match_swap_by_swap_oracle(self, n):
        for locality, build in (("full", build_uqr), ("3local", build_uqr_3local)):
            expect = swap_by_swap(n, staircase_transpositions(n, locality))
            assert np.array_equal(moved_labels(build(n)), expect), locality
        # the full staircase is an involution, so its labels are its index map
        full = oracles.staircase_labels(n, "full")
        assert np.array_equal(full[full], np.arange(1 << n))
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
                    assert np.array_equal(round_matrix(n, m, alphas, perm), want)
                    for alpha, matrix in zip(alphas, want):
                        got = round_matrix(n, m, float(alpha), perm)
                        assert np.array_equal(got, matrix)

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
                    matrix = round_matrix(n, m, alpha, perm)
                    mirror = round_matrix(n, m, -alpha, perm)
                    assert np.array_equal(mirror, matrix[::-1, ::-1])

    def test_matches_definition_on_random_vectors(self):
        cfg = RefrigeratorConfig(5, 2, 1)
        matrix = round_matrix(5, 2, 0.4)
        rng = np.random.default_rng(1)
        for _ in range(3):
            vec = rng.dirichlet(np.ones(8))
            expect = full_simulation_marginal(cfg, 0.4, vec)[1]
            assert np.abs(matrix @ vec - expect).max() < 1e-13


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

    def test_convergence_failure_carries_residual(self, monkeypatch):
        def use_step(step):
            monkeypatch.setattr(refrigerator, "_recycle_step",
                                lambda cfg, chunk, compress, rounds: step)

        def solve(start, cycles=5):
            return _solve_grid([cfg], [0.5], None, lambda rounds, chunk: np.array([start]),
                               cycles, "test")[0]

        cfg = RefrigeratorConfig(3, 1, 2)
        # counting up moves entry 0 by 1/2, 1/3, ..., 1/6 and entry 1 (0 on
        # both sides) by nothing
        use_step(lambda a: (a + [1.0, 0.0], a))
        message = r"^test at alpha=0\.5, rounds=2: relative residual 1\.667e-01 is not within 1e-12"
        with pytest.raises(ConvergenceError, match=message) as excinfo:
            solve([1.0, 0.0])
        assert excinfo.value.residual == 1 / 6
        # a NaN never settles
        use_step(lambda a: (np.full_like(a, np.nan), a))
        with pytest.raises(ConvergenceError) as excinfo:
            solve([0.75, 0.25])
        assert math.isnan(excinfo.value.residual)
        # a step that returns its input is fixed from the start
        use_step(lambda a: (a, a))
        result = solve([0.75, 0.25], cycles=1)[0]
        assert result.residual == 0.0
        assert np.array_equal(result.a_fixed, [0.75, 0.25])
        assert (result.ground, result.excited) == (0.75, 0.25)

    def test_failure_message_names_alpha_rounds_and_residual(self, monkeypatch):
        monkeypatch.setattr(refrigerator, "_stationary_gth", uniform_gth)
        with pytest.raises(ConvergenceError) as excinfo:
            steady_states(RefrigeratorConfig(5, 2, 3), [0.25])
        message = str(excinfo.value)
        assert "alpha=0.25" in message and "rounds=3" in message and "residual" in message
        assert "\n" not in message

    @pytest.mark.parametrize(
        "cfg,alpha",
        [(RefrigeratorConfig(8, 2, 3), 0.98), (RefrigeratorConfig(7, 2, 4, locality="3local"), 0.99),
         (RefrigeratorConfig(5, 2, 3), 0.4), (RefrigeratorConfig(5, 2, 3), -0.4)],
    )
    def test_converges_near_saturation(self, cfg, alpha):
        # power iteration from the product state stalled on the first two cells
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
    rounds=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
    locality=st.sampled_from(["full", "3local"]),
    alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    data=st.data(),
)
def test_batched_grid_equals_one_point_solves(n, m, rounds, locality, alphas, data):
    assume(m <= n - 1)
    cfgs = [RefrigeratorConfig(n, m, r, locality=locality) for r in rounds]
    cfg = cfgs[0]
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
    # each (rounds, alpha) row of a many-config solve is its one-config, one-point solve
    for cfg, results in zip(cfgs, steady_states(cfgs, grid)):
        for alpha, got in zip(grid, results):
            assert_same_result(got, steady_states(cfg, [alpha])[0])


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
        ground, excited = _target(evolved)
        assert _target(evolved[::-1]) == (excited, ground)
        up, down = from_masses(ground, excited), from_masses(excited, ground)
        assert down.alpha_enhanced == -up.alpha_enhanced


def test_grid_solves_each_magnitude_once(monkeypatch):
    calls = []

    def counted(*args, _call=refrigerator._stationary_gth):
        calls.append("_stationary_gth")
        return _call(*args)

    monkeypatch.setattr(refrigerator, "_stationary_gth", counted)
    down, up = steady_states(RefrigeratorConfig(5, 2, 3), [-0.5, 0.5])
    assert calls == ["_stationary_gth"]
    assert_same_result(down, _mirror(up))
    # a three-count figure is one batch: one call per chunk of (rounds, |alpha|) rows
    figure = [RefrigeratorConfig(5, 2, r) for r in (9, 3, 4)]
    grid = [0.1, -0.1, 0.5, 0.9]
    calls.clear()
    steady_states(figure, grid)
    assert calls == ["_stationary_gth"]
    monkeypatch.setattr(refrigerator, "CHUNK_BYTES", 2 * 8 * 4 * 4)  # two rows per chunk
    calls.clear()
    steady_states(figure, grid)
    assert len(calls) == 5  # 3 round counts x 3 magnitudes = 9 rows, two per chunk


@pytest.mark.parametrize("layouts", [[], [(5, 2, "full"), (6, 2, "full")],
                                     [(5, 2, "full"), (5, 1, "full")],
                                     [(5, 2, "3local"), (5, 2, "full")]])
def test_one_solve_takes_configs_that_differ_in_rounds_alone(layouts):
    cfgs = [RefrigeratorConfig(n, m, 3 + i, locality) for i, (n, m, locality) in enumerate(layouts)]
    with pytest.raises(ValueError, match="differ in rounds alone"):
        steady_states(cfgs, [0.5])


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
        # no cycle runs, so no move was measured
        monkeypatch.setattr(refrigerator, "MAX_CYCLES", 0)
        with pytest.raises(ConvergenceError, match=r"alpha=-0\.5, rounds=2: .*residual") as exc:
            optimal_bounds(RefrigeratorConfig(4, 2, 2, locality="3local"), [-0.5, 0.5])
        assert exc.value.residual == math.inf

    @pytest.mark.parametrize("rounds", [(4, 2), (2, 4)])
    def test_names_the_first_round_count_listed(self, monkeypatch, rounds):
        # both round counts stall; so do both magnitudes of each
        monkeypatch.setattr(refrigerator, "_stationary_gth", uniform_gth)
        cfgs = [RefrigeratorConfig(4, 2, r) for r in rounds]
        with pytest.raises(ConvergenceError, match=rf"alpha=-0\.5, rounds={rounds[0]}: "):
            steady_states(cfgs, [0.0, -0.5, 0.5, 0.7])

    def test_failed_check_names_the_first_grid_alpha(self, monkeypatch):
        # the product state stands in at alpha = 0, so the check fails on row 1
        monkeypatch.setattr(refrigerator, "_stationary_gth", uniform_gth)
        with pytest.raises(ConvergenceError, match=r"alpha=-0\.5, rounds=2: .*residual"):
            steady_states(RefrigeratorConfig(4, 2, 2, locality="3local"), [0.0, -0.5, 0.5])


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
    got, want = _stationary_gth(rows), gth(rows)
    assert np.isfinite(want).all()
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    for index in np.ndindex(batch):
        assert np.array_equal(got[index], _stationary_gth(rows[index]))


def test_blocked_gth_keeps_tiny_masses_of_a_real_cycle():
    # the carried chain has eight panels; its stationary masses span 1 down
    # to about 8e-16
    cfg = RefrigeratorConfig(11, 2, 5, locality="3local")
    rows = _carried_cycle_rows(cfg, np.array([0.97]), compression_permutation_for(cfg))
    got, want = _stationary_gth(rows), gth(rows)
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
        round_matrix(cfg.n, cfg.m, alphas, permutation), cfg.rounds)
    evolved = (fresh[:, 0, None, None] * power[..., 0::2].swapaxes(-1, -2)
               + fresh[:, 1, None, None] * power[..., 1::2].swapaxes(-1, -2))
    half = evolved.shape[-1] >> 1
    return evolved[..., :half] + evolved[..., half:]


@pytest.mark.parametrize("locality", LOCALITIES)
@pytest.mark.parametrize("n,m", [(n, m) for n in range(3, 10) for m in (1, 2, 3) if m < n])
def test_carried_cycle_rows_match_the_dense_power(n, m, locality):
    alphas = np.array([0.0, 1e-9, 0.1, 0.37, 0.5, 0.9, 0.999, 1.0])
    counts = (1, 2, 3, 5, 9)
    one_count = {}
    for rounds in counts:
        cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
        permutation = compression_permutation_for(cfg)
        got = one_count[rounds] = _carried_cycle_rows(cfg, alphas, permutation)
        want = dense_carried_rows(cfg, alphas, permutation)
        assert np.array_equal(got != 0.0, want != 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        for row in range(len(alphas)):
            assert np.array_equal(_carried_cycle_rows(cfg, alphas[row:row + 1], permutation)[0],
                                  got[row])
    # one pass, its rows' counts unsorted: each snapshot is the one-count compose
    rng = np.random.default_rng(n * 8 + m)
    rows = rng.permutation([(r, i) for r in counts for i in range(len(alphas))])
    snapshots = _carried_cycle_rows(cfg, alphas[rows[:, 1]], permutation, rows[:, 0])
    for (rounds, i), got in zip(rows, snapshots):
        assert np.array_equal(got, one_count[rounds][i])


@pytest.mark.parametrize("locality", LOCALITIES)
@pytest.mark.parametrize("n", range(3, 9))
def test_seed_is_the_stationary_vector_of_the_full_cycle(n, locality):
    # the fixed point, the carried chain's stationary vector with the
    # recycled fresh qubit appended, is with fresh resets appended the
    # stationary vector of the whole cycle on the full 2^n register, the
    # limit of the full register's history; so are the target's masses
    alphas = [0.1, 0.37, 0.9, 0.999]
    for m in range(1, min(3, n - 1) + 1):
        for rounds in (1, 3, 9):
            cfg = RefrigeratorConfig(n, m, rounds, locality=locality)
            for result, alpha in zip(steady_states(cfg, alphas), alphas):
                stationary, ground, excited = steady(cfg, alpha)
                np.testing.assert_allclose(
                    [*attach(result.a_fixed, qubits(alpha, m)), result.ground, result.excited],
                    [*stationary, ground, excited], rtol=1e-14, atol=0)


@pytest.fixture
def stepped_rows(monkeypatch):
    """The row count of each recycle step call, in call order."""
    steps = []

    def counted(cfg, alphas, compress, rounds):
        step = _recycle_step(cfg, alphas, compress, rounds)

        def recorded(a):
            steps.append(len(alphas))
            return step(a)

        return recorded

    monkeypatch.setattr(refrigerator, "_recycle_step", counted)
    return steps


def test_steady_states_run_one_cycle_per_chunk_and_no_fixed_point(monkeypatch, stepped_rows):
    monkeypatch.setattr(refrigerator, "CHUNK_BYTES", 2 * 8 * 8 * 8)  # two points per chunk
    steady_states(RefrigeratorConfig(6, 2, 3), [0.3, -0.9, 0.0, 0.9, 1.0, -0.3, 0.6])
    assert stepped_rows == [2, 2, 1]


def test_settled_rows_leave_the_batch(stepped_rows):
    # the bound at 0.6 settles in its 17th cycle and steps no more; 0.3 in its 28th
    cfg, grid = RefrigeratorConfig(5, 2, 9), [0.3, -0.6]
    results = optimal_bounds(cfg, grid)
    assert stepped_rows == [2] * 17 + [1] * 11
    for alpha, got in zip(grid, results):
        assert_same_result(got, optimal_bounds(cfg, [alpha])[0])


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


@pytest.mark.parametrize("n,m,counts,locality,alpha,spot", [
    (5, 2, (3,), "full", Fraction(99, 100), 6.73e8),
    (5, 2, (3,), "3local", Fraction(99, 100), None),
    (4, 1, (5,), "full", Fraction(1, 3), None),
    (5, 2, (9,), "3local", Fraction(1, 100), None),
    (6, 2, (3, 9), "full", Fraction(1, 2), None),  # one solve over both round counts
], ids=["n5-m2-r3-full-0.99", "n5-m2-r3-3local-0.99", "n4-m1-r5-full-1_3",
        "n5-m2-r9-3local-0.01", "n6-m2-r3_9-full-0.5"])
def test_steady_state_matches_exact_rational_solve(n, m, counts, locality, alpha, spot):
    # the oracle runs the full register in rationals, and GTH never
    # subtracts, so the float solve must match it to rounding
    cfgs = [RefrigeratorConfig(n, m, rounds, locality=locality) for rounds in counts]
    for cfg, (up, down) in zip(cfgs, steady_states(cfgs, [float(alpha), -float(alpha)])):
        stationary, ground, excited = steady(cfg, alpha)
        raw, enhanced = (1 - alpha**2) / alpha**2, 4 * ground * excited / (ground - excited) ** 2
        factor = raw / enhanced / cfg.cost
        np.testing.assert_allclose(
            [*attach(up.a_fixed, qubits(float(alpha), m)), up.ground, up.excited,
             up.reduction_factor(float(alpha), cfg.cost)],
            np.array([*stationary, ground, excited, factor], dtype=float), rtol=1e-14, atol=0)
        assert np.array_equal(down.a_fixed, up.a_fixed[::-1])
        assert (down.ground, down.excited) == (up.excited, up.ground)
    if spot is not None:
        assert float(factor) == pytest.approx(spot, rel=1e-3)


class TestAlphaInfinity:
    def test_tanh_form(self):
        expect = math.tanh(8 * math.atanh(0.2))
        assert alpha_infinity(5, 2, 0.2) == pytest.approx(expect, abs=1e-15)
        assert alpha_infinity(5, 2, 0.2) == pytest.approx(0.92489, abs=5e-6)

    @pytest.mark.parametrize("n,m", [(3, 2), (5, 2), (6, 1), (8, 4)])
    def test_zero(self, n, m):
        assert alpha_infinity(n, m, 0.0) == 0.0

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_resets_that_leave_no_target_are_rejected(self, m):
        # alpha_infinity once raised "negative shift count" here
        message = rf"^need 1 <= m <= n-1, got m={m}, n=3$"
        with pytest.raises(ValueError, match=message):
            RefrigeratorConfig(3, m, 1)
        with pytest.raises(ValueError, match=message):
            alpha_infinity(3, m, 0.5)

    def test_unit_polarization(self):
        assert alpha_infinity(4, 2, 1.0) == 1.0
        assert alpha_infinity(4, 2, -1.0) == -1.0

    def test_exactly_odd(self):
        for alpha in (0.1, 0.33, 0.77):
            assert alpha_infinity(5, 2, -alpha) == -alpha_infinity(5, 2, alpha)

    def test_huge_exponent_saturates(self):
        assert alpha_infinity(40, 2, 0.5) == 1.0

    def test_relative_accuracy_down_to_tiny_polarizations(self):
        # 1 +- alpha rounds before the power ratio's powers: alpha_infinity(5, 2,
        # 1e-17) once read 0
        mpmath = pytest.importorskip("mpmath")
        limits = [(K, lambda a, n=n, m=m: alpha_infinity(n, m, a))
                  for n, m, K in ((3, 2, 2), (5, 2, 8), (6, 1, 16), (8, 4, 32), (22, 1, 2**20))]
        limits += [(K, lambda a, n=n: alpha_infinity_3local(n, a))
                   for n, K in ((4, 3), (5, 5), (10, 55))]
        for alpha in np.logspace(-300, -1, 300):
            alpha = float(alpha)
            for K, limit in limits:
                with mpmath.workdps(50):
                    want = float(mpmath.tanh(K * mpmath.atanh(mpmath.mpf(alpha))))
                assert limit(alpha) == pytest.approx(want, rel=1e-14, abs=0), (K, alpha)
                assert limit(-alpha) == -limit(alpha)


class TestReductionFactorQr:
    def test_three_qubit_arithmetic(self):
        # same gain algebra as the single-shot case, with cost m*rounds+1 = 3
        value = reduction_qr(RefrigeratorConfig(3, 2, 1), 0.5)
        assert value == pytest.approx(121 / 135, abs=1e-12)

    def test_even_in_alpha(self):
        cfg = RefrigeratorConfig(5, 2, 3)
        assert reduction_qr(cfg, -0.4) == reduction_qr(cfg, 0.4)

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
    return SteadyStateResult(np.zeros(0), 0.0, ground, excited)


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

    @pytest.mark.parametrize("ground, alpha", [(0.5, 3e-17), (0.75, 1e-170)])
    def test_underflow_names_the_alpha(self, ground, alpha):
        # equal masses, or alpha^2 rounding to 0, once raised a bare division
        with pytest.raises(ZeroDivisionError, match=rf"^reduction factor underflows at alpha = "
                                                    rf"{alpha!r}$"):
            from_masses(ground, 1 - ground).reduction_factor(alpha, 3)

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

    def test_negative_bias_sorts_ascending(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        assert_same_result(optimal_bounds(cfg, [-0.6])[0], _mirror(optimal_bounds(cfg, [0.6])[0]))

    @pytest.mark.parametrize(
        "cfg,grid",
        [
            # README fig4, whose bound column fig6 prints too
            (RefrigeratorConfig(5, 2, 9), parse_alpha_grid("0.01:0.99:0.01")),
            # an excited mass near 1e-50, which an absolute stop cannot see
            (RefrigeratorConfig(7, 2, 20), (0.9, 0.93, 0.96, 0.99)),
        ],
        ids=["fig4", "n7-r20"],
    )
    def test_dominates_the_top_staircase_at_rounding_level(self, cfg, grid):
        pairs = zip(grid, steady_states(cfg, grid), optimal_bounds(cfg, grid))
        for alpha, staircase, bound in pairs:
            got = bound.reduction_factor(alpha, cfg.cost)
            assert got >= staircase.reduction_factor(alpha, cfg.cost) * (1 - 1e-11), alpha

    def test_matches_a_long_plain_sort_iteration(self):
        # n = 8, r = 3 near saturation: the bound's excited mass is 1.2e-24
        n, m, rounds, alpha = 8, 2, 3, 0.98
        carried = qubits(alpha, n - m)
        for _ in range(5000):
            evolved = carried
            for _ in range(rounds):
                evolved = sum_last(np.sort(attach(evolved, qubits(alpha, m)))[::-1], m)
            carried = attach(evolved.reshape(2, -1).sum(0), qubits(alpha, 1))
        want = evolved[evolved.size // 2:].sum()
        got = optimal_bounds(RefrigeratorConfig(n, m, rounds), [alpha])[0].excited
        assert abs(got - want) <= 1e-9 * want


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 5),
    m=st.integers(1, 2),
    rounds=st.integers(1, 3),
    alpha=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_compression_beats_the_sort(n, m, rounds, alpha, seed):
    # any relabeling of the register, run as the protocol's compression,
    # leaves at least the sort oracle's excited mass on the target
    cfg = RefrigeratorConfig(n, m, rounds)
    rng = np.random.default_rng(seed)
    bound = optimal_bounds(cfg, [alpha])[0].excited
    for _ in range(5):
        permutation = PermutationSpec(n, rng.permutation(1 << n))
        carried = _stationary_gth(_carried_cycle_rows(cfg, np.array(alpha), permutation))
        if np.isnan(carried).any():  # a closed set of states avoids state 0
            continue
        a = attach(carried, qubits(alpha, 1))
        _, excited = _target(_recycle_step(cfg, alpha, permutation)(a)[1])
        assert excited >= bound * (1 - 1e-12)
