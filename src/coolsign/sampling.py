"""Finite-sampling error analysis for sign-based classification.

A classifier's decision is the sign of a single-qubit polarization ``alpha``
estimated from ``k`` projective shots.  This module provides the Chebyshev
prediction bound (:func:`predict_error_bound`), the exact wrong-sign
probability from the binomial law, a reproducible Monte Carlo counterpart
(:func:`monte_carlo_sign_errors`, one call for a list of experiments), and
resource-matched comparisons of raw versus cooled estimation at a fixed
qubit budget over a grid (:func:`resource_matched_comparisons`).

The comparisons read cooled polarizations that are already solved: the
module runs no refrigerator.  ``coolsign --sample`` solves its whole grid
with one batched :func:`coolsign.refrigerator.steady_states` call and
samples it with one :func:`resource_matched_comparisons` call.

The Monte Carlo draws each chunk of :data:`MC_CHUNK` trials from its own
counter-based Philox substream, so the chunks may run in any order on any
number of threads and give the same counts.  :func:`monte_carlo_sign_errors`
cuts every experiment of a call into tasks of :data:`TASK_CHUNKS` chunks,
and the threads of one pool per call take those tasks in turn; the pool is
by default as large as the CPUs this process may use, and numpy releases
the GIL while it draws.  The integer counts are added back per experiment,
so the result is byte-identical for any thread count.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import _check_polarization

#: trials per RNG substream; chunk boundaries depend only on the trial count,
#: so results are identical however the chunks are scheduled
MC_CHUNK = 4096

#: chunks per thread-pool task; fixed, so task boundaries never depend on the
#: thread count
TASK_CHUNKS = 16

#: most worker threads a Monte Carlo call may start
MAX_JOBS = 256


class BudgetError(ValueError):
    """Total shot budget too small to afford a single cooled shot."""


@dataclass(frozen=True)
class ShotExperiment:
    """A seeded wrong-sign estimation experiment: ``trials`` runs of ``k`` shots."""

    alpha_true: float
    shots: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        _check_polarization(self.alpha_true)
        _check_count("shots", self.shots)
        _check_count("trials", self.trials)


def _check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too) >= 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"need an integer {name} >= 1, got {value}")


def predict_error_bound(alpha: float, k: int) -> float:
    """Wrong-sign probability bound ``min(1, (1 - alpha^2) / (k alpha^2))``,
    Chebyshev's for a k-shot mean of variance ``1 - alpha^2``."""
    if alpha == 0.0:
        raise ZeroDivisionError("prediction bound is undefined at alpha = 0")
    _check_polarization(alpha)
    _check_count("k", k)
    return min(1.0, (1.0 - alpha * alpha) / (k * abs(alpha) * abs(alpha)))


def exact_sign_error(alpha: float, k: int) -> float:
    """Exact probability that a k-shot mean has the wrong sign.

    Shots are Bernoulli Z-outcomes with ground probability ``(1+alpha)/2``;
    an exact zero mean (k even) counts as half an error.  That half is
    exactly what the k-th shot adds to the wrong-sign tail of the first
    ``k - 1``, so an even ``k`` reads the same as ``k - 1`` and only odd
    counts are summed.  The lower binomial tail at ``|alpha|`` is summed
    from its largest term, which Loader's saddle-point pmf evaluates, with
    the ratio recurrence giving the terms below it.  Only ``|alpha|``
    enters, so the result is exactly even in ``alpha``.
    """
    _check_polarization(alpha)
    _check_count("k", k)
    if alpha == 0.0:
        return 0.5
    p, q = (1.0 + abs(alpha)) / 2.0, (1.0 - abs(alpha)) / 2.0
    if q == 0.0:
        return 0.0
    j = (k - 1) // 2
    odd = 2 * j + 1
    # with t[s] the chance of s ground outcomes in `odd` shots, t[s-1] / t[s]
    # for s = j down: each ratio is at most 1 since p >= q, and 5 sqrt(odd)
    # + 40 of them multiply to below e^-50
    s = np.arange(j, max(0, j - int(5 * math.sqrt(odd)) - 40), -1)
    ratios = s * q / ((odd - s + 1) * p)
    return _binomial_pmf(j, odd, p, q) * (1.0 + float(np.sum(np.cumprod(ratios))))


#: ``_stirlerr(n)`` for n = 0..15, from mpmath's ``loggamma`` at 50 digits
#: (n = 0 is 0 by convention; no pmf term asks for it)
_STIRLERR_TABLE = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)


def _stirlerr(n: int) -> float:
    """``log(n!) - log(sqrt(2 pi n) (n/e)^n)``: Stirling's error term."""
    if n < len(_STIRLERR_TABLE):
        return _STIRLERR_TABLE[n]
    nn = float(n) * n  # a numpy integer n would overflow n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """``x log(x / mean) + mean - x``, the deviance term of Loader's method.
    Where ``|x - mean| < 0.1 (x + mean)`` its two parts cancel, so there it
    is summed as a series in ``v = (x - mean) / (x + mean)`` instead."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log1p((x - mean) / mean) - (x - mean)
    v = (x - mean) / (x + mean)
    total, term, odd = (x - mean) * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        odd += 2
        grown = total + term / odd
        if grown == total:
            return total
        total = grown


def _binomial_pmf(x: int, n: int, p: float, q: float) -> float:
    """``C(n, x) p^x q^(n-x)`` for ``0 <= x < n``, by Loader's saddle-point
    method (C. Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000).  Its relative error is a few ulps of the
    probability's logarithm, at any ``n``."""
    if x == 0:
        return q**n
    lc = (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
          - _bd0(x, n * p) - _bd0(n - x, n * q))
    return math.exp(lc - 0.5 * math.log(2.0 * math.pi * x * (n - x) / n))


def _substream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _count_chunks(exp: ShotExperiment, first: int, stop: int) -> tuple[int, int]:
    """Wrong-sign and tied trials of chunks ``first`` to ``stop - 1``."""
    p = (1.0 + exp.alpha_true) / 2.0
    wrong = ties = 0
    for chunk in range(first, stop):
        size = min(MC_CHUNK, exp.trials - chunk * MC_CHUNK)
        successes = _substream(exp.seed, (chunk,)).binomial(exp.shots, p, size=size)
        # the shot mean leans the wrong way below (k+1)//2 ground outcomes
        # for alpha >= 0 and above k//2 for alpha < 0, and ties at k/2
        if exp.alpha_true >= 0:
            wrong += int(np.count_nonzero(successes < (exp.shots + 1) // 2))
        else:
            wrong += int(np.count_nonzero(successes > exp.shots // 2))
        if exp.shots % 2 == 0:
            ties += int(np.count_nonzero(successes == exp.shots // 2))
    return wrong, ties


def monte_carlo_sign_errors(
    experiments: Sequence[ShotExperiment], jobs: int | None = None
) -> list[float]:
    """Empirical wrong-sign fraction of each experiment, a tie counting half.

    Each experiment's trials are drawn in chunks of :data:`MC_CHUNK`, each
    from its own counter-based substream keyed by the chunk index.  The
    chunks of every experiment are cut into tasks of :data:`TASK_CHUNKS`,
    which ``min(jobs, tasks)`` threads take in turn; ``jobs`` defaults to
    the CPUs this process may use, at most :data:`MAX_JOBS`.  Each thread
    adds up integer counts per experiment, which are exact in any order, so
    each fraction is the same for any ``jobs`` and equals a lone call's.
    Memory does not grow with the trial count.
    """
    if jobs is None:
        jobs = min(_usable_cpus(), MAX_JOBS)
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"need 1 <= jobs <= {MAX_JOBS}, got {jobs}")
    chunks = [(exp.trials + MC_CHUNK - 1) // MC_CHUNK for exp in experiments]
    tasks = ((index, first, min(first + TASK_CHUNKS, count))
             for index, count in enumerate(chunks) for first in range(0, count, TASK_CHUNKS))
    taking = threading.Lock()

    def work() -> tuple[list[int], list[int]]:
        wrong, ties = [0] * len(experiments), [0] * len(experiments)
        while True:
            with taking:
                task = next(tasks, None)
            if task is None:
                return wrong, ties
            index, first, stop = task
            task_wrong, task_ties = _count_chunks(experiments[index], first, stop)
            wrong[index] += task_wrong
            ties[index] += task_ties

    workers = min(jobs, sum((count + TASK_CHUNKS - 1) // TASK_CHUNKS for count in chunks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = [future.result() for future in [pool.submit(work) for _ in range(workers)]]
    else:
        parts = [work()]
    wrong = [sum(counts) for counts in zip(*(part[0] for part in parts))]
    ties = [sum(counts) for counts in zip(*(part[1] for part in parts))]
    return [(w + 0.5 * t) / exp.trials for exp, w, t in zip(experiments, wrong, ties)]


@dataclass(frozen=True)
class ResourceComparison:
    """Raw versus cooled sign estimation at the same total qubit budget.

    The fields are declared in the column order of ``coolsign --sample``.
    """

    alpha: float
    k_raw: int
    k_cooled: int
    alpha_cooled: float
    exact_error_raw: float
    exact_error_cooled: float
    mc_error_raw: float
    mc_error_cooled: float
    bound_raw: float
    bound_cooled: float
    empirical_ratio: float
    reduction_factor: float


def cooled_shots(total_budget: int, cost: int) -> int:
    """Cooled shots that ``total_budget`` fresh qubits buy at ``cost`` qubits
    each; raises :class:`BudgetError` when that is not one."""
    k_cooled = int(total_budget) // cost
    if k_cooled < 1:
        raise BudgetError(f"budget {total_budget} cannot afford one cooled shot (cost {cost})")
    return k_cooled


def resource_matched_comparisons(
    alphas: Sequence[float],
    cooled: Sequence,
    cost: int,
    total_budget: int,
    seed: int,
    trials: int = 10_000,
    jobs: int | None = None,
) -> list[ResourceComparison]:
    """At each ``alphas[i]``, spend ``total_budget`` fresh qubits on raw
    shots or on ``total_budget // cost`` shots at the ``alpha_enhanced`` of
    the steady state ``cooled[i]``, and compare wrong-sign error rates.  One
    :func:`monte_carlo_sign_errors` call on ``jobs`` threads samples every
    point, point ``i`` from the seed ``_derived_seed(seed, i)``."""
    seeds = [_derived_seed(seed, index) for index in range(len(alphas))]
    return _compare(alphas, cooled, cost, total_budget, seeds, trials, jobs)


def _compare(alphas, cooled, cost, total_budget, seeds, trials, jobs) -> list[ResourceComparison]:
    k_raw = int(total_budget)
    k_cooled = cooled_shots(total_budget, cost)
    points, experiments = [], []
    for alpha, steady, seed in zip(alphas, cooled, seeds):
        alpha_cooled = steady.alpha_enhanced
        if alpha == 0.0:
            bound_raw = bound_cooled = 1.0
            reduction = math.nan
        else:
            bound_raw = predict_error_bound(alpha, k_raw)
            bound_cooled = predict_error_bound(alpha_cooled, k_cooled)
            reduction = steady.reduction_factor(alpha, cost)
        points.append(dict(
            alpha=alpha,
            k_raw=k_raw,
            k_cooled=k_cooled,
            alpha_cooled=alpha_cooled,
            exact_error_raw=exact_sign_error(alpha, k_raw),
            exact_error_cooled=exact_sign_error(alpha_cooled, k_cooled),
            bound_raw=bound_raw,
            bound_cooled=bound_cooled,
            reduction_factor=reduction,
        ))
        experiments += [ShotExperiment(alpha, k_raw, trials, _derived_seed(seed, 0)),
                        ShotExperiment(alpha_cooled, k_cooled, trials, _derived_seed(seed, 1))]
    errors = monte_carlo_sign_errors(experiments, jobs)
    rows = []
    for point, mc_raw, mc_cooled in zip(points, errors[::2], errors[1::2]):
        ratio = mc_cooled / mc_raw if mc_raw > 0 else math.inf if mc_cooled > 0 else math.nan
        rows.append(ResourceComparison(**point, mc_error_raw=mc_raw, mc_error_cooled=mc_cooled,
                                       empirical_ratio=ratio))
    return rows


def _derived_seed(seed: int, branch: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(branch,)).generate_state(1, np.uint64)[0])
