"""The ``--suite`` checks themselves.  The acceptance criteria run the
shipped suites and assert that they pass; these tests show that each suite
can fail, that its row blocks do not move a residual, and that its memory
stays small."""

import tracemalloc

import pytest

from coolsign import klocal, refrigerator, sampling, single_shot, states, verify


def test_small_blocks_do_not_change_residuals(monkeypatch):
    want = verify.verify_theorem1() + verify.verify_bqr_oracle()
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 1)
    assert verify.verify_theorem1() + verify.verify_bqr_oracle() == want


def failed(results):
    return [r.name for r in results if not r.passed]


def test_theorem1_catches_a_closed_form_1e_9_off(monkeypatch):
    # alpha_ac = 1 - 2 u: this tail u puts it 1e-9 relative low from four
    # shots on, which leaves the three-shot 11/16 spot exact
    exact = single_shot.exact_sign_error

    def tail(alpha, k):
        u = exact(alpha, k)
        return u + (1 - 2 * u) * 5e-10 if k > 3 else u

    monkeypatch.setattr(single_shot, "exact_sign_error", tail)
    results = verify.verify_theorem1()
    assert failed(results) == ["theorem1 closed form vs sort oracle"]
    assert results[0].residual > 1e-10


def test_bqr_oracle_catches_a_staircase_with_a_window_dropped(monkeypatch):
    # the staircase without its first window, (0, 3); the full recycle cycle
    # lists its own staircase, so only the steady state sees this
    monkeypatch.setattr(refrigerator, "build_uqr",
                        lambda n: states.window_swaps(n, [(0, j) for j in range(4, n + 1)]))
    assert failed(verify.verify_bqr_oracle()) == ["bqr steady state vs full recycle cycle (n<=7)"]


def test_bqr_oracle_catches_a_carried_chain_one_round_short(monkeypatch):
    compose = refrigerator._carried_cycle_rows
    monkeypatch.setattr(
        refrigerator, "_carried_cycle_rows",
        lambda cfg, alphas, perm, rounds: compose(cfg, alphas, perm, rounds - 1))
    results = verify.verify_bqr_oracle()
    assert failed(results) == ["bqr steady state vs full recycle cycle (n<=7)"]
    assert results[0].residual > 1e-6


def test_klocal_suite_catches_the_full_staircase(monkeypatch):
    monkeypatch.setattr(klocal, "build_uqr_3local", refrigerator.build_uqr)
    assert failed(verify.verify_klocal_fixedpoint()) == [
        "3-local steady state factorizes (fibonacci populations)",
        "3-local asymptotic polarization tanh(F_n artanh)"]


def test_sampling_suite_catches_a_tail_1e_9_off(monkeypatch):
    exact = sampling.exact_sign_error
    monkeypatch.setattr(sampling, "exact_sign_error", lambda alpha, k: exact(alpha, k) * (1 + 1e-9))
    assert failed(verify.verify_sampling()) == [
        "exact_sign_error(0.2, 25) vs independent binomial CDF"]


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
