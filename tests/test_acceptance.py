"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one ``[criterion N] PASS`` line (visible with ``pytest -s``
or in captured output) and enforces the stated runtime budget.
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
    asymptotic_population_vector,
    build_uqr,
    build_uqr_3local,
    exact_sign_error,
    marginal_targets,
    monte_carlo_sign_errors,
    optimal_bounds,
    predict_error_bound,
    product_probs,
    reduction_factor_ac,
    resource_matched_comparisons,
    steady_states,
)
from coolsign.cli import main
from kernel_matrix import round_matrix
from oracles import full_round, sum_last


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"[criterion {number}] PASS ({elapsed:.2f}s) - {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime budget"


def value_sort_marginal(n: int, alpha: float) -> float:
    """Sort-oracle: order populations by value (descending for positive bias)."""
    probs = np.sort(product_probs(alpha, n))
    if alpha > 0:
        probs = probs[::-1]
    half = 1 << (n - 1)
    return float(probs[:half].sum() - probs[half:].sum())


def test_criterion_1_theorem1_suite():
    start = time.perf_counter()
    grid = np.round(np.arange(0.01, 0.9901, 0.01), 10)
    for n in range(3, 10):
        for a in grid:
            for alpha in (float(a), -float(a)):
                closed = alpha_ac(n, alpha)
                assert math.copysign(1, closed) == math.copysign(1, alpha)
                assert abs(closed) >= abs(alpha)
                assert abs(closed - value_sort_marginal(n, alpha)) < 1e-12
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
        assert np.abs(round_matrix(4, 2, 2 * p - 1) - reference).max() < 1e-12
    for n, m in ((4, 2), (5, 2), (6, 3), (7, 1)):
        for alpha in (-0.9, -0.3, 0.4, 0.99):
            matrix = round_matrix(n, m, alpha)
            assert np.abs(matrix.sum(axis=0) - 1.0).max() < 1e-12
            local = round_matrix(n, m, alpha, build_uqr_3local(n))
            assert np.abs(local.sum(axis=0) - 1.0).max() < 1e-12
    report(4, "symbolic 4x4 round matrix reproduced; all matrices column-stochastic",
           time.perf_counter() - start, 5.0)


def test_criterion_5_asymptotic_polarization():
    start = time.perf_counter()
    for n in (3, 4, 5):
        for alpha in (0.2, 0.5, 0.8):
            result = steady_states(RefrigeratorConfig(n, 2, 200), [alpha])[0]
            assert abs(result.alpha_enhanced - alpha_infinity(n, 2, alpha)) < 1e-6
    assert alpha_infinity(3, 2, 0.5) == 0.8
    report(5, "200-round polarization reaches tanh(m 2^(n-m-1) artanh) limit",
           time.perf_counter() - start, 10.0)


def test_criterion_6_klocal_asymptotics():
    start = time.perf_counter()
    for n in (4, 5, 6):
        for alpha in (0.2, 0.5, 0.8):
            matrix = round_matrix(n, 2, alpha, build_uqr_3local(n))
            power = matrix
            for _ in range(40):  # matrix^(2^40): far past mixing
                power = power @ power
                power /= power.sum(axis=0, keepdims=True)
            fixed = power[:, 0] / power[:, 0].sum()
            pops = asymptotic_population_vector(n, alpha)
            product = np.array([1.0])
            for pop in pops[:1:-1]:
                product = np.kron(product, np.array([pop, 1.0 - pop]))
            assert np.abs(fixed - product).max() < 1e-9
    assert alpha_infinity_3local(5, 0.5) == pytest.approx((3**5 - 1) / (3**5 + 1), abs=1e-12)
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
        assert r_full >= 0.9 * r_bound
    report(7, "bound >= staircase >= 3-local, staircase within 10% of bound",
           time.perf_counter() - start, 30.0)


def test_criterion_8_sampling_suite():
    start = time.perf_counter()
    # independently coded binomial CDF in exact rational arithmetic
    p, q = Fraction(6, 10), Fraction(4, 10)
    cdf = sum(math.comb(25, s) * p**s * q ** (25 - s) for s in range(13))
    assert abs(exact_sign_error(0.2, 25) - float(cdf)) < 1e-12

    for alpha, k in ((0.2, 25), (0.5, 10), (-0.4, 51), (0.1, 4)):
        exact = exact_sign_error(alpha, k)
        mc = monte_carlo_sign_errors([alpha], k, 100_000, seed=20240612)[0]
        stderr = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(mc - exact) <= 4 * stderr

    for a in np.arange(0.05, 0.951, 0.05):
        for k in (1, 5, 25, 101, 400):
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
