import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coolsign import (
    BudgetError,
    RefrigeratorConfig,
    ShotExperiment,
    exact_sign_error,
    monte_carlo_sign_errors,
    predict_error_bound,
    resource_matched_comparisons,
    sampling,
    steady_states,
)
from coolsign.sampling import MAX_JOBS, MC_CHUNK, TASK_CHUNKS, _stirlerr


def binomial_cdf_fraction(successes, k, p: Fraction) -> Fraction:
    """Independently coded binomial CDF in exact rational arithmetic."""
    q = 1 - p
    return sum(math.comb(k, s) * p**s * q ** (k - s) for s in range(successes + 1))


def wrong_sign_fraction(alpha: float, k: int) -> Fraction:
    """The wrong-sign probability with ``p`` and ``q`` the exact rationals of
    the float ``alpha``: the lower tail, plus half the tie for even ``k``."""
    p = (1 + abs(Fraction(alpha))) / 2
    tail = binomial_cdf_fraction((k - 1) // 2, k, p)
    if k % 2 == 0:
        tail += Fraction(1, 2) * math.comb(k, k // 2) * (p * (1 - p)) ** (k // 2)
    return tail


def wrong_sign_mpmath(alpha: float, k: int):
    """The same probability in mpmath at 40 digits, summed down from the
    tail's largest term until the terms stop mattering."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = abs(mpmath.mpf(alpha))
        p, q = (1 + a) / 2, (1 - a) / 2
        s = (k - 1) // 2
        term = mpmath.binomial(k, s) * p**s * q ** (k - s)
        total = mpmath.mpf(0)
        while s >= 0 and term >= total * mpmath.mpf(10) ** -35:
            total += term
            term *= s * q / ((k - s + 1) * p)
            s -= 1
        if k % 2 == 0:
            total += mpmath.binomial(k, k // 2) * (p * q) ** (k // 2) / 2
        return +total


class TestChebyshevBound:
    """``predict_error_bound`` is Chebyshev's bound with variance
    ``1 - alpha^2`` and deviation ``|alpha|``."""

    def test_direct_evaluation(self):
        assert predict_error_bound(-0.8, 3) == pytest.approx(0.36 / (3 * 0.64), abs=1e-15)

    def test_zero_variance(self):
        assert predict_error_bound(1.0, 7) == 0.0
        assert predict_error_bound(-1.0, 7) == 0.0

    def test_clamped_to_one(self):
        assert predict_error_bound(0.1, 1) == 1.0
        assert predict_error_bound(-0.1, 1) == 1.0


class TestPredictErrorBound:
    def test_direct_evaluation(self):
        assert predict_error_bound(0.5, 100) == pytest.approx(0.03, abs=1e-15)

    def test_deterministic_outcome(self):
        assert predict_error_bound(1.0, 5) == 0.0

    def test_resource_story_three_qubits(self):
        # one third of the shots at the compressed polarization gives a
        # comparable bound: 0.0338 vs 0.03
        boosted = predict_error_bound(0.6875, 33)
        assert boosted == pytest.approx((1 - 0.6875**2) / (33 * 0.6875**2), abs=1e-15)
        assert boosted == pytest.approx(predict_error_bound(0.5, 100), abs=0.005)

    def test_undefined_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            predict_error_bound(0.0, 10)


class TestExactSignError:
    def test_binomial_cdf_oracle(self):
        expected = binomial_cdf_fraction(12, 25, Fraction(6, 10))
        assert exact_sign_error(0.2, 25) == pytest.approx(float(expected), abs=1e-12)
        assert exact_sign_error(0.2, 25) == pytest.approx(0.1538, abs=1e-4)

    def test_even_shots_tie_weight(self):
        p = Fraction(3, 4)
        expected = binomial_cdf_fraction(1, 4, p) + Fraction(1, 2) * (
            math.comb(4, 2) * p**2 * (1 - p) ** 2
        )
        assert exact_sign_error(0.5, 4) == pytest.approx(float(expected), abs=1e-14)

    def test_symmetric_at_zero(self):
        assert exact_sign_error(0.0, 17) == 0.5
        assert exact_sign_error(0.0, 10) == 0.5

    def test_pure_state(self):
        for k in (1, 2, 9, 10, 100_000):
            assert exact_sign_error(1.0, k) == 0.0
            assert exact_sign_error(-1.0, k) == 0.0

    @settings(deadline=None)
    @given(st.floats(-1.0, 1.0), st.integers(1, 80))
    def test_fraction_binomial_sum(self, alpha, k):
        # a log-space pmf resolves ln P to a few of its ulps, so below e^-100
        # the relative tolerance grows with |ln P|; below the normal range
        # only the absolute error is meaningful
        want = float(wrong_sign_fraction(alpha, k))
        rtol = 1e-13 * max(1.0, -math.log(want) / 100) if want > 0 else 0.0
        assert math.isclose(exact_sign_error(alpha, k), want,
                            rel_tol=rtol, abs_tol=sys.float_info.min)

    @pytest.mark.parametrize("k", [1000, 9090, 10_000, 100_000])
    def test_mpmath_tail_at_large_shot_counts(self, k):
        for alpha in (0.0005, 0.01, 0.1, 0.3, 0.7):
            got = exact_sign_error(alpha, k)
            want = wrong_sign_mpmath(alpha, k)
            if want < 1e-300:  # too small to ask a double for relative accuracy
                assert 0.0 <= got < 1e-300, alpha
            else:
                assert got == pytest.approx(float(want), rel=1e-11, abs=0), alpha
            assert exact_sign_error(-alpha, k) == got

    def test_stirling_error_table_and_series(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            def want(n):
                return float(mpmath.loggamma(n + 1) - (n + mpmath.mpf(1) / 2) * mpmath.log(n)
                             + n - mpmath.log(2 * mpmath.pi) / 2)

            for n in range(1, 16):
                assert _stirlerr(n) == want(n), n
            # the series's first omitted term, 691 / (360360 n^11), is 1.1e-16 at n = 16
            for n in (16, 17, 20, 35, 36, 80, 81, 500, 501, 100_000):
                assert _stirlerr(n) == pytest.approx(want(n), rel=0, abs=2e-16), n

    def test_deep_underflow_is_finite_and_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, k in ((0.9, 100_000), (-0.7, 9090), (1 - 2**-52, 100_001), (0.99, 500)):
                got = exact_sign_error(alpha, k)
                assert math.isfinite(got) and 0.0 <= got < 1e-300, (alpha, k)

    def test_numpy_integer_shot_count(self):
        k = 5_000_000_001  # k * k overflows a 64-bit integer
        assert exact_sign_error(1e-4, np.int64(k)) == exact_sign_error(1e-4, k)

    def test_half_tie_makes_even_shots_read_as_one_fewer(self):
        # a tie's half error equals what the last shot adds to the tail of the
        # others, so P(2j) == P(2j - 1) and a search for the fewest shots that
        # reach a target error need only try odd counts
        for alpha in (0.001, 0.1, 0.5, 0.9, 0.999, -0.3):
            for j in range(1, 60):
                assert exact_sign_error(alpha, 2 * j) == exact_sign_error(alpha, 2 * j - 1)

    def test_exactly_even_in_alpha(self):
        for alpha in (0.1, 0.33, 0.8):
            for k in (7, 24):
                assert exact_sign_error(-alpha, k) == exact_sign_error(alpha, k)

    def test_monotone_in_magnitude_and_shots(self):
        grid = np.linspace(0.05, 0.95, 10)
        for k in (5, 25, 101):
            errors = [exact_sign_error(float(a), k) for a in grid]
            assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        for alpha in (0.1, 0.5):
            errors = [exact_sign_error(alpha, k) for k in (1, 5, 25, 125, 625)]
            assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_chebyshev_dominates(self):
        for alpha in np.linspace(-0.95, 0.95, 20):
            if alpha == 0:
                continue
            for k in (1, 5, 24, 101, 400):
                assert exact_sign_error(float(alpha), k) <= predict_error_bound(
                    float(alpha), k
                ) + 1e-15


class TestMonteCarlo:
    def test_within_clt_band_of_exact(self):
        for alpha, k in ((0.2, 25), (0.5, 10), (-0.4, 51), (0.1, 4)):
            exact = exact_sign_error(alpha, k)
            mc = monte_carlo_sign_errors([ShotExperiment(alpha, k, 100_000, seed=20240612)])[0]
            stderr = math.sqrt(exact * (1 - exact) / 100_000)
            assert abs(mc - exact) <= 4 * stderr

    def test_pure_state_never_errs(self):
        assert monte_carlo_sign_errors([ShotExperiment(1.0, 3, 1000, seed=1)])[0] == 0.0

    def test_same_seed_identical(self):
        exp = ShotExperiment(0.3, 20, 50_000, seed=777)
        assert monte_carlo_sign_errors([exp])[0] == monte_carlo_sign_errors([exp])[0]

    def test_different_seeds_differ(self):
        a = monte_carlo_sign_errors([ShotExperiment(0.2, 25, 50_000, seed=1)])[0]
        b = monte_carlo_sign_errors([ShotExperiment(0.2, 25, 50_000, seed=2)])[0]
        assert a != b

    def test_trials_not_multiple_of_chunk(self):
        exp = ShotExperiment(0.2, 9, 5000, seed=5)
        value = monte_carlo_sign_errors([exp])[0]
        assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShotExperiment(0.2, 0, 10, seed=1)
        with pytest.raises(ValueError):
            ShotExperiment(0.2, 5, 0, seed=1)
        with pytest.raises(ValueError):
            ShotExperiment(1.2, 5, 10, seed=1)

    @pytest.mark.parametrize("call", [
        lambda: ShotExperiment(0.5, 2.5, 10, seed=1),
        lambda: ShotExperiment(0.5, 3.0, 10, seed=1),
        lambda: ShotExperiment(0.5, 3, 10.5, seed=1),
        lambda: exact_sign_error(0.5, 2.5),
        lambda: predict_error_bound(0.5, 2.5),
        lambda: predict_error_bound(-0.5, 4.0),
    ], ids=["shots", "integral-float-shots", "trials", "exact-k", "bound-k", "chebyshev-k"])
    def test_non_integer_counts_rejected(self, call):
        # numpy would draw floor(k) shots while the tie rule reads ties at k/2
        with pytest.raises(ValueError, match="integer"):
            call()

    def test_numpy_integer_counts_accepted(self):
        plain = ShotExperiment(0.3, 5, 1000, seed=1)
        numpy_counts = ShotExperiment(0.3, np.int64(5), np.int32(1000), seed=1)
        assert monte_carlo_sign_errors([numpy_counts]) == monte_carlo_sign_errors([plain])
        assert exact_sign_error(0.3, np.int64(25)) == exact_sign_error(0.3, 25)
        assert predict_error_bound(0.3, np.uint8(25)) == predict_error_bound(0.3, 25)


def chunk_by_chunk(exp: ShotExperiment) -> float:
    """The Monte Carlo as one loop over its chunks, a tie counting half: the
    per-chunk float sum the batched counts must reproduce bit for bit."""
    wrong = 0.0
    for chunk in range((exp.trials + MC_CHUNK - 1) // MC_CHUNK):
        size = min(MC_CHUNK, exp.trials - chunk * MC_CHUNK)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(exp.seed, spawn_key=(chunk,))))
        lean = 2 * rng.binomial(exp.shots, (1.0 + exp.alpha_true) / 2.0, size=size) - exp.shots
        against = lean < 0 if exp.alpha_true >= 0 else lean > 0
        wrong += np.count_nonzero(against) + 0.5 * np.count_nonzero(lean == 0)
    return wrong / exp.trials


#: negative alpha, alpha = +-1, even and odd shots, and trials that are not
#: a multiple of MC_CHUNK or of a task's TASK_CHUNKS chunks
BATCH = [
    ShotExperiment(0.2, 25, 3 * MC_CHUNK * TASK_CHUNKS // 2 + 17, seed=3),
    ShotExperiment(-0.3, 24, MC_CHUNK * TASK_CHUNKS + 1, seed=4),
    ShotExperiment(1.0, 7, 5000, seed=5),
    ShotExperiment(-1.0, 8, 100, seed=6),
    ShotExperiment(0.0, 10, MC_CHUNK + 3, seed=7),
    ShotExperiment(0.05, 101, 2 * MC_CHUNK * TASK_CHUNKS, seed=8),
]


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_equals_lone_calls_and_chunk_loop(self, jobs):
        lone = [monte_carlo_sign_errors([exp])[0] for exp in BATCH]
        assert monte_carlo_sign_errors(BATCH, jobs=jobs) == lone
        assert lone == [chunk_by_chunk(exp) for exp in BATCH]

    def test_pure_states(self):
        assert monte_carlo_sign_errors(BATCH[2:4], jobs=2) == [0.0, 0.0]

    def test_same_experiment_twice(self):
        assert monte_carlo_sign_errors([BATCH[0], BATCH[0]], jobs=2) == [
            monte_carlo_sign_errors([BATCH[0]])[0]] * 2

    def test_empty(self):
        assert monte_carlo_sign_errors([], jobs=3) == []

    def test_many_threads_take_each_task_once(self):
        # eight threads, more than the cores, take 400 one-chunk tasks from
        # one shared generator with a switch forced every microsecond; a task
        # lost or taken twice moves a count
        batch = [ShotExperiment(0.1, 3, 100 + i, seed=i) for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = monte_carlo_sign_errors(batch, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [chunk_by_chunk(exp) for exp in batch]

    def test_default_jobs_follow_usable_cpus(self, monkeypatch):
        sizes, pool = [], sampling.ThreadPoolExecutor

        def recorded(max_workers):
            sizes.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", recorded)
        expected = [chunk_by_chunk(exp) for exp in BATCH]
        for cpus in (1, 4, 10**6):
            monkeypatch.setattr(sampling, "_usable_cpus", lambda cpus=cpus: cpus)
            assert monte_carlo_sign_errors(BATCH) == expected
        # one thread runs inline; the batch's 2+2+1+1+1+2 tasks cap the pool
        assert sizes == [4, 9]

    @pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1, 10**9])
    def test_jobs_outside_range_start_no_thread(self, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a thread pool")

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=str(MAX_JOBS)):
            monte_carlo_sign_errors(BATCH, jobs=jobs)

    def test_comparisons_equal_lone_comparisons(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        grid = [-0.6, 0.0, 0.3, 1.0]
        cooled = steady_states(cfg, grid)
        lone = [sampling._compare([a], [c], cfg.cost, 40, [sampling._derived_seed(9, i)], 5000,
                                  None)[0]
                for i, (a, c) in enumerate(zip(grid, cooled))]
        for jobs in (1, 3):
            rows = resource_matched_comparisons(grid, cooled, cfg.cost, 40, 9, trials=5000,
                                                jobs=jobs)
            assert [dataclasses.astuple(r) for r in rows] == [
                dataclasses.astuple(r) for r in lone]


def test_non_finite_polarization_rejected_fast():
    """NaN once sent ``exact_sign_error`` into an endless series loop, so the
    calls run in a child process that a timeout stops."""
    code = (
        "import json, math\n"
        "from coolsign import sampling\n"
        "calls = [lambda a: sampling.exact_sign_error(a, 5),\n"
        "         lambda a: sampling.predict_error_bound(a, 11),\n"
        "         lambda a: sampling.ShotExperiment(a, 5, 10, seed=1)]\n"
        "raised = []\n"
        "for alpha in (math.nan, math.inf, -math.inf):\n"
        "    for call in calls:\n"
        "        try:\n"
        "            call(alpha)\n"
        "            raised.append(None)\n"
        "        except ValueError as exc:\n"
        "            raised.append(str(exc))\n"
        "print(json.dumps(raised))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    raised = json.loads(proc.stdout)
    assert len(raised) == 9
    assert all(message and "[-1, 1]" in message for message in raised), raised


def compare(alpha, cfg, budget, **kwargs):
    """The resource-matched comparison at ``alpha``, read off its lone
    steady-state solve."""
    cooled = steady_states(cfg, [alpha])[0]
    return resource_matched_comparisons([alpha], [cooled], cfg.cost, budget, **kwargs)[0]


class TestResourceMatchedComparison:
    def test_three_qubit_budget_split(self):
        cfg = RefrigeratorConfig(3, 2, 1)
        rec = compare(0.5, cfg, 300, seed=11, trials=2000)
        assert rec.k_raw == 300
        assert rec.k_cooled == 100
        assert rec.alpha_cooled == pytest.approx(0.6875, abs=1e-14)
        assert rec.exact_error_raw == pytest.approx(exact_sign_error(0.5, 300), abs=0)
        assert rec.exact_error_cooled == pytest.approx(exact_sign_error(0.6875, 100), abs=1e-14)

    def test_zero_polarization_both_coin_flips(self):
        rec = compare(0.0, RefrigeratorConfig(4, 2, 1), 60, seed=3)
        assert rec.exact_error_raw == 0.5
        assert rec.exact_error_cooled == 0.5
        assert math.isnan(rec.reduction_factor)

    def test_high_polarization_cooling_wins_empirically(self):
        cfg = RefrigeratorConfig(5, 2, 5)
        rec = compare(0.8, cfg, 11, seed=42, trials=200_000)
        assert rec.mc_error_cooled < rec.mc_error_raw
        assert rec.exact_error_cooled < rec.exact_error_raw

    def test_cooling_wins_for_moderate_polarizations(self):
        cfg = RefrigeratorConfig(5, 2, 5)
        for alpha in np.arange(0.5, 0.901, 0.05):
            rec = compare(float(alpha), cfg, 55, seed=9, trials=100)
            assert rec.exact_error_cooled < rec.exact_error_raw

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            compare(0.5, RefrigeratorConfig(5, 2, 5), 10, seed=1)

    def test_reduction_factor_reported(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        rec = compare(0.6, cfg, 50, seed=2, trials=500)
        assert rec.reduction_factor == steady_states(cfg, [0.6])[0].reduction_factor(0.6, cfg.cost)

    def test_seed_determinism(self):
        cfg = RefrigeratorConfig(4, 2, 1)
        a = compare(0.4, cfg, 30, seed=123, trials=20_000)
        b = compare(0.4, cfg, 30, seed=123, trials=20_000)
        assert a == b
        c = compare(0.4, cfg, 30, seed=124, trials=20_000)
        assert c.mc_error_raw != a.mc_error_raw


def test_steady_state_feeds_cooled_polarization():
    cfg = RefrigeratorConfig(5, 2, 5)
    rec = compare(0.6, cfg, 22, seed=5, trials=100)
    assert rec.alpha_cooled == steady_states(cfg, [0.6])[0].alpha_enhanced


def test_sampling_runs_no_refrigerator():
    # the comparison reads a steady state solved elsewhere
    tree = ast.parse(Path(sampling.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("refrigerator" in name for name in names), ast.unparse(node)

