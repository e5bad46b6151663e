"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one ``[criterion N] PASS`` line (visible with ``pytest -s``
or in captured output) and enforces the stated runtime budget.  Criteria 1,
6 and 8 run their ``--suite`` as shipped (:mod:`coolsign.verify`) and check
only what the suite does not.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from coolsign import (
    RefrigeratorConfig,
    alpha_ac,
    alpha_infinity,
    alpha_infinity_3local,
    build_uqr,
    build_uqr_3local,
    exact_sign_error,
    marginal_targets,
    optimal_bounds,
    predict_error_bound,
    product_probs,
    reduction_factor_ac,
    resource_matched_comparisons,
    steady_states,
)
from coolsign.cli import main
from coolsign.oracles import full_round, sum_last
from coolsign.verify import verify_klocal_fixedpoint, verify_sampling, verify_theorem1
from kernel_matrix import round_matrix


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"[criterion {number}] PASS ({elapsed:.2f}s) - {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime budget"


def suite_passes(suite) -> None:
    """Run a ``--suite`` as shipped and assert that every check passes."""
    results = suite()
    assert results and [r.line() for r in results if not r.passed] == []


def test_criterion_1_theorem1_suite():
    start = time.perf_counter()
    # sign, |alpha_ac| >= |alpha| and the sort oracle, on n = 3..9, +-0.01..0.99
    suite_passes(verify_theorem1)
    grid = np.round(np.arange(0.01, 0.9901, 0.01), 10)
    for n in range(3, 10):
        for a in grid:
            for alpha in (float(a), -float(a)):
                assert abs(alpha_ac(n, alpha)) > abs(alpha)
    # spot value in exact rational arithmetic: p = 3/4 gives 11/16
    p, q = Fraction(3, 4), Fraction(1, 4)
    rational = sum(
        math.comb(3, i) * (p ** (3 - i) * q**i - q ** (3 - i) * p**i) for i in (0, 1)
    )
    assert rational == Fraction(11, 16)
    assert alpha_ac(3, 0.5) == float(rational) == 0.6875
    report(1, "theorem-1 suite (sign, gain, sort oracle, rational spot)",
           time.perf_counter() - start, 5.0)


def test_criterion_2_low_alpha_regimes():
    start = time.perf_counter()
    for n in (3, 5, 7):
        assert reduction_factor_ac(n, 1e-3) == pytest.approx(2 / math.pi, rel=0.01)
        for alpha in (1e-14, 1e-12, 1e-9):
            assert reduction_factor_ac(n, alpha) == pytest.approx(2 / math.pi, rel=1e-14)
    for n in range(9, 26):
        exponent = n * 0.25 / (2 * 0.75)
        assert abs(math.log(reduction_factor_ac(n, 0.5)) - exponent) < 2.0
    for n in (3, 5, 7):
        assert (
            reduction_factor_ac(n, 0.99)
            > reduction_factor_ac(n, 0.9)
            > reduction_factor_ac(n, 0.5)
        )
    report(2, "low/intermediate/high polarization regimes of the reduction factor",
           time.perf_counter() - start, 1.0)


def test_criterion_3_bqr_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 8):
        for locality, perm in (("full", build_uqr(n)), ("3local", build_uqr_3local(n))):
            for m in (1, 2, 3):
                if m > n - 1:
                    continue
                cfg = RefrigeratorConfig(n, m, 1, locality=locality)
                for alpha in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9):
                    matrix = round_matrix(n, m, alpha, perm)
                    vec = product_probs(alpha, n - m)
                    full = product_probs(alpha, n)
                    for _ in range(10):
                        vec = matrix @ vec
                        full = full_round(full, cfg, alpha)
                        traced = sum_last(full, m)
                        worst = max(
                            worst,
                            float(np.abs(vec - traced).max()),
                            abs(marginal_targets(vec) - marginal_targets(traced)),
                        )
    assert worst < 1e-12
    report(3, f"matrix path vs full 2^n simulation, both staircases (worst {worst:.2e})",
           time.perf_counter() - start, 30.0)


def test_criterion_4_round_matrix_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(20240604)
    for p in rng.uniform(0.02, 0.98, size=5):
        p = float(p)
        q = 1 - p
        reference = np.array(
            [
                [p * (2 - p), p**2, 0, 0],
                [q**2, 2 * p * q, p**2, 0],
                [0, q**2, 2 * p * q, p**2],
                [0, 0, q**2, 1 - p**2],
            ]
        )
        assert np.abs(round_matrix(4, 2, 2 * p - 1) - reference).max() < 1e-15
    for n, m in ((4, 2), (5, 1), (5, 2), (6, 2), (6, 3), (7, 1), (7, 2)):
        for alpha in (-0.9, -0.7, -0.3, 0.2, 0.4, 0.9, 0.99):
            for perm in (build_uqr(n), build_uqr_3local(n)):
                matrix = round_matrix(n, m, alpha, perm)
                assert np.abs(matrix.sum(axis=0) - 1.0).max() < 1e-12
                assert np.all(matrix >= 0)
    report(4, "symbolic 4x4 round matrix reproduced; all matrices column-stochastic",
           time.perf_counter() - start, 5.0)


def test_criterion_5_asymptotic_polarization():
    start = time.perf_counter()
    # the closed form is the limit for m >= 2; at m = 1 the staircase never cools
    for n, m in ((3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3), (5, 4)):
        for alpha in (0.2, 0.5, 0.8):
            result = steady_states(RefrigeratorConfig(n, m, 200), [alpha])[0]
            assert abs(result.alpha_enhanced - alpha_infinity(n, m, alpha)) < 1e-6, (n, m, alpha)
    # at m = 1 the sort bound reaches it: the heat-bath algorithmic cooling
    # limit (Raeisi & Mosca, PRL 114, 100404, 2015); (5, 0.1) needs more rounds
    for n, alpha in ((4, 0.1), (4, 0.3), (5, 0.3)):
        bound = optimal_bounds(RefrigeratorConfig(n, 1, 200), [alpha])[0]
        assert abs(bound.alpha_enhanced - alpha_infinity(n, 1, alpha)) < 1e-6, (n, alpha)
    assert alpha_infinity(3, 2, 0.5) == 0.8
    report(5, "200-round polarization reaches tanh(m 2^(n-m-1) artanh) limit",
           time.perf_counter() - start, 10.0)


def test_criterion_6_klocal_asymptotics():
    start = time.perf_counter()
    # the 3-local steady state factorizes and its target reaches tanh(F_n artanh)
    suite_passes(verify_klocal_fixedpoint)
    assert alpha_infinity_3local(5, 0.5) == pytest.approx((3**5 - 1) / (3**5 + 1), abs=1e-15)
    report(6, "3-local steady state factorizes into fibonacci-population product",
           time.perf_counter() - start, 10.0)


def test_criterion_7_upper_bound_dominance():
    start = time.perf_counter()
    cfg = RefrigeratorConfig(5, 2, 9)
    local_cfg = RefrigeratorConfig(5, 2, 9, locality="3local")
    for a in np.round(np.arange(0.30, 0.9001, 0.05), 10):
        alpha = float(a)
        r_bound = optimal_bounds(cfg, [alpha])[0].reduction_factor(alpha, cfg.cost)
        r_full = steady_states(cfg, [alpha])[0].reduction_factor(alpha, cfg.cost)
        r_local = steady_states(local_cfg, [alpha])[0].reduction_factor(alpha, local_cfg.cost)
        assert r_bound >= r_full * (1 - 1e-9)
        assert r_full >= r_local * (1 - 1e-9)
        assert r_bound * (1 + 1e-9) >= r_local
        assert r_full >= 0.9 * r_bound
    report(7, "bound >= staircase >= 3-local, staircase within 10% of bound",
           time.perf_counter() - start, 30.0)


def test_criterion_8_sampling_suite():
    start = time.perf_counter()
    # the rational binomial CDF, the Monte Carlo's 4-sigma band and Chebyshev
    # dominance on 15 points; the grid below holds dominance on 228 more
    suite_passes(verify_sampling)
    for a in np.arange(0.05, 0.951, 0.05):
        for k in (1, 5, 24, 25, 101, 400):
            for alpha in (float(a), -float(a)):
                assert exact_sign_error(alpha, k) <= predict_error_bound(alpha, k) + 1e-15

    cfg = RefrigeratorConfig(5, 2, 5)
    grid = [float(a) for a in np.round(np.arange(0.5, 0.901, 0.05), 10)]
    for rec in resource_matched_comparisons(grid, steady_states(cfg, grid), cfg.cost, 55,
                                            seed=7, trials=1000):
        assert rec.exact_error_cooled < rec.exact_error_raw
    report(8, "sampling: CDF oracle, CLT band, bound dominance, cooling wins",
           time.perf_counter() - start, 60.0)


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    args = ["--sample", "--n", "5", "--m", "2", "--rounds", "5",
            "--alpha-grid", "0.1:0.9:0.1", "--budget", "550", "--trials", "20000",
            "--seed", "2024"]
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert main(args + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(threaded), "--jobs", "8"]) == 0
    assert serial.read_bytes() == threaded.read_bytes()
    report(9, "sample command byte-identical across parallelism settings",
           time.perf_counter() - start, 60.0)
