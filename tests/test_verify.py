"""The ``--suite`` checks run as row blocks; these per-point loops are the
suites as they ran one state at a time, and serve as their oracle."""

import tracemalloc

import numpy as np
import pytest

from coolsign import refrigerator, single_shot, states, verify
from coolsign.verify import _check


def reference_theorem1():
    alphas = np.round(np.arange(0.01, 0.9901, 0.01), 10)
    alphas = np.concatenate([-alphas[::-1], alphas])
    worst_closed = 0.0
    worst_gain = 0.0
    sign_ok = True
    for n in range(3, 10):
        for a in alphas:
            a = float(a)
            closed = single_shot.alpha_ac(n, a)
            compressed = single_shot.compress_products(states.product_probs(a, n), n)
            target = float(states.marginal_targets(compressed))
            worst_closed = max(worst_closed, abs(closed - target))
            worst_gain = max(worst_gain, max(0.0, abs(a) - abs(closed)))
            sign_ok &= np.sign(closed) == np.sign(a)
    spot = abs(single_shot.alpha_ac(3, 0.5) - 11 / 16)
    return [
        _check("theorem1 closed form vs sort oracle", worst_closed, 1e-12),
        _check("theorem1 |alpha_ac| >= |alpha|", worst_gain, 0.0),
        _check("theorem1 sign preserved", 0.0 if sign_ok else 1.0, 0.0),
        _check("theorem1 alpha_ac(3, 0.5) = 11/16", spot, 0.0),
    ]


def reference_bqr_oracle():
    worst = 0.0
    for n in range(3, 8):
        perm = refrigerator.build_uqr(n)
        for m in (1, 2, 3):
            if m > n - 1:
                continue
            for alpha in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
                matrix = refrigerator.build_round_matrix(n, m, alpha, perm)
                reset = states.product_probs(alpha, m)
                a = states.product_probs(alpha, n - m)
                full = states.product_probs(alpha, n)
                for _ in range(10):
                    a = matrix @ a
                    full = states._attach(refrigerator._round(full, perm, m), reset)
                    traced = states.pairwise_sum(full.reshape(-1, 1 << m))
                    worst = max(
                        worst,
                        float(np.abs(a - traced).max()),
                        abs(states.marginal_targets(a) - states.marginal_targets(traced)),
                    )
    col_worst = 0.0
    rng = np.random.default_rng(20240611)
    for _ in range(5):
        alpha = float(rng.uniform(-0.95, 0.95))
        matrix = refrigerator.build_round_matrix(5, 2, alpha)
        col_worst = max(col_worst, float(np.abs(matrix.sum(axis=0) - 1.0).max()))
    return [
        _check("bqr matrix path vs full simulation (n<=7)", worst, 1e-12),
        _check("bqr round matrices column-stochastic", col_worst, 1e-12),
    ]


@pytest.mark.parametrize("suite, reference", [
    (verify.verify_theorem1, reference_theorem1),
    (verify.verify_bqr_oracle, reference_bqr_oracle),
])
def test_row_blocks_equal_per_point_loops(suite, reference):
    got, want = suite(), reference()
    assert [(r.name, r.passed, r.residual) for r in got] == [
        (r.name, r.passed, r.residual) for r in want]
    assert got == want


def test_small_blocks_do_not_change_residuals(monkeypatch):
    want = verify.verify_theorem1() + verify.verify_bqr_oracle()
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 1)
    assert verify.verify_theorem1() + verify.verify_bqr_oracle() == want


def failed(results):
    return [r.name for r in results if not r.passed]


def test_theorem1_catches_an_identity_compression(monkeypatch):
    monkeypatch.setattr(single_shot, "compression_permutation",
                        lambda n: states.PermutationSpec(n, np.arange(1 << n)))
    assert failed(verify.verify_theorem1()) == ["theorem1 closed form vs sort oracle"]


def test_bqr_oracle_catches_a_staircase_with_a_window_dropped(monkeypatch):
    # the staircase without its first window, (0, 3); the full-register
    # simulation lists its own staircase, so only the matrix path sees this
    monkeypatch.setattr(refrigerator, "build_uqr",
                        lambda n: states.window_swaps(n, [(0, j) for j in range(4, n + 1)]))
    assert failed(verify.verify_bqr_oracle()) == ["bqr matrix path vs full simulation (n<=7)"]


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_peak_memory_stays_small(name):
    suite = verify.SUITES[name]
    suite()  # fill the permutation caches
    tracemalloc.start()
    try:
        suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
