import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
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
    exact_sign_error,
    monte_carlo_sign_errors,
    predict_error_bound,
    resource_matched_comparisons,
    sampling,
    steady_states,
)
from coolsign.oracles import wrong_sign_fraction
from coolsign.sampling import MAX_JOBS, MC_CHUNK, _stirlerr


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


@pytest.fixture
def nothing_drawn(monkeypatch):
    """Fail on any thread pool started or substream drawn: a one-worker
    call draws on the calling thread with no pool."""
    def no_work(*args, **kwargs):
        raise AssertionError("started a thread pool or drew a substream")

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_work)
    monkeypatch.setattr(sampling, "_substream", no_work)


class TestPredictErrorBound:
    """``predict_error_bound`` is Chebyshev's bound with variance
    ``1 - alpha^2`` and deviation ``|alpha|``."""

    def test_direct_evaluation(self):
        assert predict_error_bound(0.5, 100) == pytest.approx(0.03, abs=1e-15)

    def test_direct_evaluation_at_negative_alpha(self):
        assert predict_error_bound(-0.8, 3) == pytest.approx(0.36 / (3 * 0.64), abs=1e-15)

    def test_zero_variance(self):
        assert predict_error_bound(1.0, 7) == 0.0
        assert predict_error_bound(-1.0, 7) == 0.0

    def test_clamped_to_one(self):
        assert predict_error_bound(0.1, 1) == 1.0
        assert predict_error_bound(-0.1, 1) == 1.0

    def test_resource_story_three_qubits(self):
        # one third of the shots at the compressed polarization gives a
        # comparable bound: 0.0338 vs 0.03
        boosted = predict_error_bound(0.6875, 33)
        assert boosted == pytest.approx((1 - 0.6875**2) / (33 * 0.6875**2), abs=1e-15)
        assert boosted == pytest.approx(predict_error_bound(0.5, 100), abs=0.005)

    def test_undefined_at_zero(self):
        with pytest.raises(ZeroDivisionError):
            predict_error_bound(0.0, 10)

    @pytest.mark.parametrize("alpha", [1e-200, -1e-200, 5e-324])
    def test_underflow_names_the_alpha(self, alpha):
        # k alpha^2 rounds to 0 here, as it does at alpha = 0
        with pytest.raises(ZeroDivisionError, match=rf"^prediction bound underflows at alpha = "
                                                    rf"{alpha!r}$"):
            predict_error_bound(alpha, 10000)
        assert predict_error_bound(1e-150, 10000) == 1.0


class TestExactSignError:
    def test_even_shots_tie_weight(self):
        p = Fraction(3, 4)
        expected = wrong_sign_fraction(Fraction(1, 2), 4)
        assert expected == (1 - p) ** 4 + 4 * p * (1 - p) ** 3 + 3 * p**2 * (1 - p) ** 2
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


class TestMonteCarlo:
    def test_different_seeds_differ(self):
        a = monte_carlo_sign_errors([0.2], 25, 50_000, seed=1)[0]
        b = monte_carlo_sign_errors([0.2], 25, 50_000, seed=2)[0]
        assert a != b

    @pytest.mark.parametrize("k", [24, 25])
    def test_exactly_even_in_alpha(self, k):
        # one call draws once for its 99 alphas, and each reads the draw at
        # p = (1 + |a|) / 2 alone: -a reads the p of a, and a larger |a| a p
        # no smaller.  A ground probability formed from the signed
        # polarization, as 1 - (1 + a)/2, would not equal (1 - a)/2 at 40 of
        # these alphas
        alphas = np.round(np.arange(0.01, 0.9901, 0.01), 10).tolist()
        assert sum(1 - (1 + a) / 2 != (1 - a) / 2 for a in alphas) == 40
        trials = MC_CHUNK + 17
        plus = monte_carlo_sign_errors(alphas, k, trials, seed=13)
        minus = monte_carlo_sign_errors([-a for a in alphas], k, trials, seed=13)
        assert minus == plus
        assert all(smaller >= larger for smaller, larger in zip(plus, plus[1:]))
        assert plus[0] > plus[-1]

    @pytest.mark.parametrize("k", [2, 10, 24, 100])
    def test_even_tie_fraction_is_the_middle_binomial_term(self, k):
        # a trial ties where U_(k/2) < p <= U_(k/2 + 1), which k shots do
        # with probability C(k, k/2) (pq)^(k/2)
        trials = 200_000
        lower, upper = sampling._order_statistics(k, trials, np.random.default_rng(k))
        for alpha in (0.0, 0.2, 0.5):
            p, q = (1 + alpha) / 2, (1 - alpha) / 2
            ties = (np.searchsorted(lower, p) - np.searchsorted(upper, p)) / trials
            want = math.comb(k, k // 2) * (p * q) ** (k // 2)
            assert abs(ties - want) <= 4 * math.sqrt(want * (1 - want) / trials), alpha

    def test_ten_trials_at_a_trillion_shots(self):
        # one Beta draw per trial stands for its 10^12 shots; at alpha = 0.01
        # the majority is 10^4 standard deviations from a wrong sign
        errors = monte_carlo_sign_errors([0.0, 1e-6, 0.01], 10**12, 10, seed=1)
        assert errors[0] >= errors[1] >= errors[2] == 0.0

    def test_validation(self, nothing_drawn):
        for args, message in (
            (([0.2], 0, 10, 1), "integer shots >= 1"),
            (([0.2], 5, 0, 1), "integer trials >= 1"),
            (([0.3, 1.2], 5, 10, 1), r"polarization must lie in \[-1, 1\], got 1.2"),
            (([0.3, math.nan], 5, 10, 1), r"polarization must lie in \[-1, 1\], got nan"),
        ):
            with pytest.raises(ValueError, match=message):
                monte_carlo_sign_errors(*args, jobs=2)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected_before_any_thread(self, nothing_drawn, seed):
        # numpy would reject both only inside a worker
        with pytest.raises(ValueError, match="integer seed >= 0"):
            monte_carlo_sign_errors([0.2], 25, 100, seed, jobs=2)

    @pytest.mark.parametrize("call", [
        lambda: monte_carlo_sign_errors([0.5], 2.5, 10, seed=1),
        lambda: monte_carlo_sign_errors([0.5], 3.0, 10, seed=1),
        lambda: monte_carlo_sign_errors([0.5], 3, 10.5, seed=1),
        lambda: exact_sign_error(0.5, 2.5),
        lambda: predict_error_bound(0.5, 2.5),
        lambda: predict_error_bound(-0.5, 4.0),
    ], ids=["shots", "integral-float-shots", "trials", "exact-k", "bound-k", "chebyshev-k"])
    def test_non_integer_counts_rejected(self, call):
        # numpy would draw floor(k) shots while the tie rule reads ties at k/2
        with pytest.raises(ValueError, match="integer"):
            call()

    def test_numpy_integer_counts_accepted(self):
        plain = monte_carlo_sign_errors([0.3], 5, 1000, seed=1)
        assert monte_carlo_sign_errors([0.3], np.int64(5), np.int32(1000), np.uint8(1)) == plain
        assert exact_sign_error(0.3, np.int64(25)) == exact_sign_error(0.3, 25)
        assert predict_error_bound(0.3, np.uint8(25)) == predict_error_bound(0.3, 25)


def chunk_by_chunk(alpha: float, shots: int, trials: int, seed: int) -> float:
    """The Monte Carlo at one ``alpha`` as one loop over its substreams, a
    tie counting half: substream ``i`` holds trials ``i * MC_CHUNK`` on and
    is drawn from ``default_rng(SeedSequence(seed, spawn_key=(i,)))``.  With
    ``t = (shots + 1) // 2``, an odd count draws each trial's ``U_(t)`` from
    Beta(t, t); an even count draws ``U_(t+1)`` from Beta(t + 1, t) and then
    ``U_(t) = U_(t+1) exp(-E / t)``, ``E`` exponential.  A trial errs where
    ``U_(t) >= p`` and ties where ``U_(t) < p <= U_(t+1)``, compared trial by
    trial here with no sort.  This per-substream float sum is what the
    threaded counts must reproduce bit for bit."""
    p = (1.0 + abs(alpha)) / 2.0
    t = (shots + 1) // 2
    wrong = 0.0
    for i in range((trials + MC_CHUNK - 1) // MC_CHUNK):
        size = min(MC_CHUNK, trials - i * MC_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        if shots % 2:
            lower = upper = rng.beta(t, t, size)
        else:
            upper = rng.beta(t + 1, t, size)
            lower = upper * np.exp(-rng.standard_exponential(size) / t)
        wrong += np.count_nonzero(lower >= p) + 0.5 * np.count_nonzero((lower < p) & (upper >= p))
    return wrong / trials


#: ``(alphas, shots, trials, seed)`` calls: negative alpha, alpha = +-1,
#: even and odd shots, and trials that are a multiple of MC_CHUNK or not;
#: 2+2+1+1+2+2 substreams
BATCH = [
    ([0.2, -0.45], 25, 3 * MC_CHUNK // 2 + 17, 3),
    ([-0.3], 24, MC_CHUNK + 1, 4),
    ([1.0, -1.0], 7, 5000, 5),
    ([-1.0], 8, 100, 6),
    ([0.0], 10, MC_CHUNK + 3, 7),
    ([0.05, 0.0, 0.5], 101, 2 * MC_CHUNK, 8),
]

#: one call at many alphas: a negative alpha, alpha = 0 and 1, and one
#: alpha twice; 2 substreams
SHARED = ([0.3, -0.1, 0.0, 0.3, 1.0, 0.05], 24, MC_CHUNK + 5, 11)


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_equals_lone_calls_and_chunk_loop(self, jobs):
        for alphas, *rest in BATCH + [SHARED]:
            lone = [monte_carlo_sign_errors([a], *rest)[0] for a in alphas]
            assert monte_carlo_sign_errors(alphas, *rest, jobs=jobs) == lone
            assert lone == [chunk_by_chunk(a, *rest) for a in alphas]

    def test_pure_states(self):
        for alphas, *rest in BATCH[2:4]:
            assert monte_carlo_sign_errors(alphas, *rest, jobs=2) == [0.0] * len(alphas)

    def test_same_experiment_twice(self):
        alphas, *rest = BATCH[0]
        assert monte_carlo_sign_errors([alphas[0]] * 2, *rest, jobs=2) == [
            monte_carlo_sign_errors(alphas[:1], *rest)[0]] * 2

    def test_empty(self, nothing_drawn):
        # validated, but nothing drawn and no thread started
        assert monte_carlo_sign_errors([], 24, MC_CHUNK + 1, 1, jobs=3) == []
        with pytest.raises(ValueError, match="integer trials"):
            monte_carlo_sign_errors([], 24, 0, 1)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_each_substream_drawn_once(self, monkeypatch, jobs):
        drawn, substream = [], sampling._substream

        def recorded(seed, index):
            drawn.append((seed, index))
            return substream(seed, index)

        monkeypatch.setattr(sampling, "_substream", recorded)
        for alphas, shots, trials, seed in BATCH + [SHARED]:
            drawn.clear()
            monte_carlo_sign_errors(alphas, shots, trials, seed, jobs=jobs)
            # however many alphas read it, each substream is drawn once
            assert sorted(drawn) == [(seed, i) for i in range((trials + MC_CHUNK - 1) // MC_CHUNK)]

    def test_many_threads_take_each_task_once(self):
        # eight threads, more than the cores, take 200 substreams from one
        # shared iterator with a switch forced every microsecond; a substream
        # lost or taken twice moves a count
        alphas, shots, trials, seed = [0.1, 0.6], 3, 199 * MC_CHUNK + 100, 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = monte_carlo_sign_errors(alphas, shots, trials, seed, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [chunk_by_chunk(a, shots, trials, seed) for a in alphas]

    def test_default_jobs_follow_usable_cpus(self, monkeypatch):
        sizes, pool = [], sampling.ThreadPoolExecutor

        def recorded(max_workers):
            sizes.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", recorded)
        alphas, shots, trials, seed = [0.2, -0.05], 4, 9 * MC_CHUNK + 1, 12
        expected = [chunk_by_chunk(a, shots, trials, seed) for a in alphas]
        for cpus in (1, 4, 10**6):
            monkeypatch.setattr(sampling, "_usable_cpus", lambda cpus=cpus: cpus)
            assert monte_carlo_sign_errors(alphas, shots, trials, seed) == expected
        # 1, 4 and 10 workers, the call's ten substreams capping the last;
        # the calling thread is one of them, so one CPU starts no pool
        assert sizes == [3, 9]

    @pytest.mark.parametrize("jobs, trials", [
        (1, 3 * MC_CHUNK + 1), (5, MC_CHUNK), (None, 7)])
    def test_one_worker_draws_on_the_calling_thread(self, monkeypatch, jobs, trials):
        drawn, substream = [], sampling._substream

        def no_pool(*args, **kwargs):
            raise AssertionError("started a thread pool")

        def recorded(seed, index):
            drawn.append((threading.get_ident(), index))
            return substream(seed, index)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(sampling, "_substream", recorded)
        alphas, shots, seed = [0.1, -0.4], 6, 2
        assert monte_carlo_sign_errors(alphas, shots, trials, seed, jobs=jobs) == [
            chunk_by_chunk(a, shots, trials, seed) for a in alphas]
        substreams = (trials + MC_CHUNK - 1) // MC_CHUNK
        assert drawn == [(threading.get_ident(), i) for i in range(substreams)]

    @pytest.mark.parametrize("failing", [0, 5])
    def test_failed_draw_leaves_no_thread_running(self, monkeypatch, failing):
        # the caller most likely draws substream 0, and the pool's one thread 5
        count, drawn = sampling._count_substream, []

        def broken(shots, trials, seed, grounds, index):
            drawn.append(index)
            if index == failing:
                raise RuntimeError(f"substream {index} failed")
            return count(shots, trials, seed, grounds, index)

        monkeypatch.setattr(sampling, "_count_substream", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"substream {failing} failed"):
            monte_carlo_sign_errors([0.2, 0.5], 5, 62 * MC_CHUNK, 1, jobs=2)
        assert threading.active_count() == before
        # the other worker ends after its draw in progress, not after all 62
        assert len(drawn) - drawn.index(failing) - 1 <= 4, drawn

    @pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1, 10**9, 2.5, 1.0, "2"])
    def test_jobs_outside_range_start_no_thread(self, nothing_drawn, jobs):
        with pytest.raises(ValueError, match=str(MAX_JOBS)):
            monte_carlo_sign_errors(*SHARED, jobs=jobs)

    def test_memory_flat_in_the_trial_count(self):
        # the threads take substreams one at a time, so a call holds a few
        # substreams' draws however many trials it has; pool.map, which
        # submits a future per substream up front, adds about 1.8 KB each
        def peak(substreams: int) -> int:
            tracemalloc.reset_peak()
            monte_carlo_sign_errors([0.1, 0.5], 3, substreams * MC_CHUNK, 1, jobs=2)
            return tracemalloc.get_traced_memory()[1]

        monte_carlo_sign_errors([0.1, 0.5], 3, 4 * MC_CHUNK, 1, jobs=2)
        tracemalloc.start()
        try:
            small, large = peak(64), peak(256)
        finally:
            tracemalloc.stop()
        assert abs(large - small) < MC_CHUNK * 8, (small, large)

    def test_comparisons_equal_lone_comparisons(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        grid = [-0.6, 0.0, 0.3, 1.0]
        cooled = steady_states(cfg, grid)
        lone = [resource_matched_comparisons([a], [c], cfg.cost, 40, 9, trials=5000)[0]
                for a, c in zip(grid, cooled)]
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
        "         lambda a: sampling.monte_carlo_sign_errors([a], 5, 10, seed=1)]\n"
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

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            compare(0.5, RefrigeratorConfig(5, 2, 5), 10, seed=1)

    def test_one_steady_state_per_alpha(self, monkeypatch):
        # a zip over both would drop the alphas past the last steady state
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a trial")

        monkeypatch.setattr(sampling, "monte_carlo_sign_errors", no_draw)
        cfg = RefrigeratorConfig(5, 2, 5)
        with pytest.raises(ValueError, match="got 3 alphas and 1 steady states"):
            resource_matched_comparisons([0.3, 0.6, 0.9], steady_states(cfg, [0.3]), cfg.cost,
                                         55, seed=1)

    @pytest.mark.parametrize("bad, message", [
        (dict(seed=-1), "need an integer seed >= 0"),
        (dict(seed=1.5), "need an integer seed >= 0"),
        (dict(seed="3"), "need an integer seed >= 0"),
        (dict(seed=1, trials=0), "need an integer trials >= 1"),
    ], ids=["seed=-1", "seed=1.5", "seed='3'", "trials=0"])
    def test_seed_and_trials_checked_first(self, monkeypatch, nothing_drawn, bad, message):
        # numpy would reject a bad seed only while deriving a side's seed
        def no_tail(*args, **kwargs):
            raise AssertionError("summed an exact tail")

        cfg = RefrigeratorConfig(3, 2, 1)
        cooled = steady_states(cfg, [0.5])
        monkeypatch.setattr(sampling, "exact_sign_error", no_tail)
        with pytest.raises(ValueError, match=message):
            resource_matched_comparisons([0.5], cooled, cfg.cost, 30, **bad)

    def test_reduction_factor_reported(self):
        cfg = RefrigeratorConfig(4, 2, 2)
        rec = compare(0.6, cfg, 50, seed=2, trials=500)
        assert rec.reduction_factor == steady_states(cfg, [0.6])[0].reduction_factor(0.6, cfg.cost)

    def test_exactly_odd_in_alpha(self):
        # every cell at -a is the cell at a, with the two polarizations
        # negated; 1 - (1 + a)/2 != (1 - a)/2 in floats at a = 0.37.  Cells
        # compare as written, so a signed zero shows and NaN equals NaN: at
        # 0.6 every wrong-sign fraction is 0, at 0.02 none is
        cfg = RefrigeratorConfig(5, 2, 5)
        for alpha in (0.37, 0.6, 0.02):
            plus = compare(alpha, cfg, 10_000, seed=9, trials=MC_CHUNK + 17)
            minus = compare(-alpha, cfg, 10_000, seed=9, trials=MC_CHUNK + 17)
            mirror = dataclasses.replace(plus, alpha=-plus.alpha, alpha_cooled=-plus.alpha_cooled)
            assert list(map(repr, dataclasses.astuple(minus))) == list(
                map(repr, dataclasses.astuple(mirror))), alpha
        assert 0 < plus.mc_error_raw < 1 and 0 < plus.mc_error_cooled < 1  # at 0.02

    def test_seed_determinism(self):
        cfg = RefrigeratorConfig(4, 2, 1)
        a = compare(0.4, cfg, 30, seed=123, trials=20_000)
        b = compare(0.4, cfg, 30, seed=123, trials=20_000)
        assert a == b
        c = compare(0.4, cfg, 30, seed=124, trials=20_000)
        assert c.mc_error_raw != a.mc_error_raw


class TestCooledShots:
    @pytest.mark.parametrize("cost", [0, -1, 11.5])
    def test_cost_must_be_a_count(self, cost):
        # the error names cost, not a division by zero, k or the budget
        with pytest.raises(ValueError, match=f"need an integer cost >= 1, got {cost}"):
            sampling.cooled_shots(55, cost)

    @pytest.mark.parametrize("budget", [55.9, "55"])
    def test_budget_must_be_an_integer(self, budget):
        # neither is rounded or parsed into a budget of 55
        with pytest.raises(ValueError, match="need an integer total_budget") as excinfo:
            sampling.cooled_shots(budget, 11)
        assert not isinstance(excinfo.value, BudgetError)

    @pytest.mark.parametrize("budget", [0, -3, 10])
    def test_integer_budget_below_the_cost(self, budget):
        with pytest.raises(BudgetError, match=f"budget {budget} cannot afford"):
            sampling.cooled_shots(budget, 11)

    def test_numpy_integers_accepted(self):
        assert sampling.cooled_shots(np.int64(55), np.int32(11)) == sampling.cooled_shots(55, 11)


def test_steady_state_feeds_cooled_polarization():
    cfg = RefrigeratorConfig(5, 2, 5)
    rec = compare(0.6, cfg, 22, seed=5, trials=100)
    assert rec.alpha_cooled == steady_states(cfg, [0.6])[0].alpha_enhanced


def test_monte_carlo_shares_no_code_with_the_exact_law():
    # the Monte Carlo checks exact_sign_error empirically, so no function or
    # constant of the module that it reaches may be one the exact law reaches
    tree = ast.parse(Path(sampling.__file__).read_text())
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined.update((target.id, node) for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets if isinstance(target, ast.Name))

    def reached(name: str) -> set[str]:
        seen, todo = {name}, [name]
        while todo:
            for node in ast.walk(defined[todo.pop()]):
                if isinstance(node, ast.Name) and node.id in defined and node.id not in seen:
                    seen.add(node.id)
                    todo.append(node.id)
        return seen

    monte_carlo, exact = reached("monte_carlo_sign_errors"), reached("exact_sign_error")
    assert {"_order_statistics", "MC_CHUNK"} <= monte_carlo
    assert {"_binomial_pmf", "_STIRLERR_TABLE"} <= exact
    assert monte_carlo.isdisjoint(exact)


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

