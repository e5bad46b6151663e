"""Finite-sampling error analysis for sign-based classification.

A classifier's decision is the sign of a single-qubit polarization ``alpha``
estimated from ``k`` projective shots.  This module provides the Chebyshev
prediction bound (:func:`predict_error_bound`), the exact wrong-sign
probability from the binomial law, a reproducible Monte Carlo counterpart
(:func:`monte_carlo_sign_errors`, one set of draws read at a list of
polarizations), and resource-matched comparisons of raw versus cooled
estimation at a fixed qubit budget over a grid
(:func:`resource_matched_comparisons`).

The comparisons read cooled polarizations that are already solved: the
module runs no refrigerator.  ``coolsign --sample`` solves its whole grid
with one batched :func:`coolsign.refrigerator.steady_states` call and
samples it with one :func:`resource_matched_comparisons` call.

The Monte Carlo stands for a trial's ``k`` uniform shots, a shot ground when
it falls below ``p = (1 + |alpha|) / 2``, by their ``t``-th smallest,
``t = (k + 1) // 2``: the trial errs exactly when that number is at least
``p``, and for an even ``k`` ties when ``p`` falls between it and the next
one.  Neither depends on ``p``, so one call's trials, all of the same
shots, trials and seed, are drawn once, in substreams of :data:`MC_CHUNK`,
sorted, and counted at each polarization's ``p`` by binary search.  Each
substream comes from its own PCG64 generator, seeded by the call's seed and
the substream's index, so the substreams may run in any order on any
number of threads and give the same counts.  Only ``|alpha|`` enters, so
the fractions are exactly even in ``alpha`` for a given seed, as the exact
ones are, and within a call they never grow with ``|alpha|``.  One
substream is one task: a :func:`monte_carlo_sign_errors` call's workers,
the calling thread and the threads of a pool it starts for the rest, take
the tasks in turn.  They are by default as many as the CPUs this process
may use, and numpy releases the GIL while it draws.  Each task's count, a
tie counting half, is a half-integer per polarization, which floats add
exactly in any order, so the result is byte-identical for any thread count.
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

from .states import _check_count, _check_polarization

#: trials per RNG substream, the unit a thread takes; substream boundaries
#: depend only on the trial count, so results are identical however the
#: substreams are scheduled
MC_CHUNK = 16384

#: most workers a Monte Carlo call may draw on: the calling thread and at
#: most ``MAX_JOBS - 1`` threads it starts
MAX_JOBS = 256


class BudgetError(ValueError):
    """Total shot budget too small to afford a single cooled shot."""


def predict_error_bound(alpha: float, k: int) -> float:
    """Wrong-sign probability bound ``min(1, (1 - alpha^2) / (k alpha^2))``,
    Chebyshev's for a k-shot mean of variance ``1 - alpha^2``.  It raises
    ZeroDivisionError at ``alpha = 0`` and where ``k alpha^2`` underflows
    to 0, naming the alpha."""
    if alpha == 0.0:
        raise ZeroDivisionError("prediction bound is undefined at alpha = 0")
    _check_polarization(alpha)
    _check_count("k", k)
    spread = k * abs(alpha) * abs(alpha)
    if spread == 0.0:
        raise ZeroDivisionError(f"prediction bound underflows at alpha = {alpha!r}")
    return min(1.0, (1.0 - alpha * alpha) / spread)


def exact_sign_error(alpha: float, k: int) -> float:
    """Exact probability that a k-shot mean has the wrong sign.

    Shots are Bernoulli Z-outcomes with ground probability ``(1+alpha)/2``;
    an exact zero mean (k even) counts as half an error.  That half is
    exactly what the k-th shot adds to the wrong-sign tail of the first
    ``k - 1``, so an even ``k`` reads the same as ``k - 1`` and only odd
    counts are summed.  The lower binomial tail at ``|alpha|`` is summed
    from its largest term, which Loader's saddle-point pmf evaluates, with
    the ratio recurrence giving the terms below it, until a term no longer
    moves the sum.  A tiny ``alpha`` needs the most terms, about
    ``3.4 sqrt(k)`` (3.4 million at ``k = 10^12``); a large ``alpha
    sqrt(k)`` needs far fewer.  Only ``|alpha|`` enters, so the result is
    exactly even in ``alpha``.
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
    # with t[s] the chance of s ground outcomes in `odd` shots, sum t[s] / t[j]
    # for s = j down; each ratio t[s-1] / t[s] is below 1 since p > q, and
    # shrinks as s falls, so the terms fall too
    total = term = 1.0
    for s in range(j, 0, -1):
        term *= s * q / ((odd - s + 1) * p)
        grown = total + term
        if grown == total:
            break
        total = grown
    return _binomial_pmf(j, odd, p, q) * total


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


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _order_statistics(shots: int, size: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """For ``size`` trials of ``shots`` uniform shots each, the ``t``-th and
    ``(t+1)``-th smallest shot, ``t = (shots + 1) // 2``, each array sorted.

    At ground probability ``p`` a trial errs when its ``U_(t) >= p`` and, for
    an even count, ties when ``U_(t) < p <= U_(t+1)``.  An odd count has no
    tie, so both arrays are its ``U_(t)``, of law Beta(t, t).  For an even
    count ``U_(t+1)`` has the law Beta(t + 1, t), and the ``t`` shots below
    it are uniform under it, so their largest is ``U_(t+1) exp(-E / t)`` with
    ``E`` exponential (David & Nagaraja, *Order Statistics*, section 2.2).
    """
    t = (shots + 1) // 2
    if shots % 2:
        lower = upper = rng.beta(t, t, size)
    else:
        upper = rng.beta(t + 1, t, size)
        lower = rng.standard_exponential(size)
        lower /= -t
        np.exp(lower, out=lower)
        lower *= upper
        upper.sort()
    lower.sort()
    return lower, upper


def _count_substream(shots: int, trials: int, seed: int, grounds: np.ndarray,
                     index: int) -> np.ndarray:
    """Wrong-sign trials of substream ``index`` at each ground probability of
    ``grounds``, a tie counting half: one draw serves them all."""
    size = min(MC_CHUNK, trials - index * MC_CHUNK)
    lower, upper = _order_statistics(shots, size, _substream(seed, index))
    below_lower = np.searchsorted(lower, grounds)  # trials whose U_(t) < p
    wrong = size - below_lower
    ties = below_lower - np.searchsorted(upper, grounds)
    return wrong + 0.5 * ties


def monte_carlo_sign_errors(alphas: Sequence[float], shots: int, trials: int, seed: int,
                            jobs: int | None = None) -> list[float]:
    """Empirical wrong-sign fraction of ``trials`` runs of ``shots`` shots at
    each of ``alphas``, a tie counting half.

    The trials are drawn once, in substreams of :data:`MC_CHUNK`, substream
    ``i`` from ``default_rng(SeedSequence(seed, spawn_key=(i,)))``, and read
    at every ``|alpha|``.  ``min(jobs, substreams)`` workers take the
    substreams in turn: the calling thread and a pool it starts and joins
    for the rest, so one worker starts no thread.  ``jobs`` defaults to the
    CPUs this process may use, at most :data:`MAX_JOBS`.  Each worker adds
    up half-integer counts per polarization, which are exact in any order,
    so each fraction is the same for any ``jobs`` and equals a
    one-polarization call's.  Memory does not grow with the trial count, and
    an empty ``alphas`` draws nothing.  A failed draw, or an interrupt, hands
    out no further substream, so the call ends after the draws in progress.
    """
    _check_polarization(alphas)
    _check_count("shots", shots)
    _check_count("trials", trials)
    _check_count("seed", seed, least=0)
    if jobs is None:
        jobs = min(_usable_cpus(), MAX_JOBS)
    if not isinstance(jobs, numbers.Integral) or not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"need 1 <= jobs <= {MAX_JOBS}, got {jobs}")
    if len(alphas) == 0:
        return []
    shots, trials, seed = int(shots), int(trials), int(seed)
    grounds = (1.0 + np.abs(alphas)) / 2.0
    substreams = (trials + MC_CHUNK - 1) // MC_CHUNK
    tasks = iter(range(substreams))
    taking = threading.Lock()

    def stop() -> None:
        # hand out nothing more; the iterator is not drained, as it may hold
        # any number of substreams
        nonlocal tasks
        with taking:
            tasks = iter(())

    def work() -> np.ndarray:
        wrong = np.zeros(len(grounds))
        try:
            while True:
                with taking:
                    index = next(tasks, None)
                if index is None:
                    return wrong
                wrong += _count_substream(shots, trials, seed, grounds, index)
        except BaseException:
            stop()
            raise

    # the calling thread is one of the workers, so one worker starts no pool
    helpers = min(jobs, substreams) - 1
    if helpers == 0:
        return [float(wrong / trials) for wrong in work()]
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        try:
            counts = work()
            for future in futures:
                counts += future.result()
        except BaseException:  # an interrupt while waiting stops the helpers too
            stop()
            raise
    return [float(wrong / trials) for wrong in counts]


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
    each; raises :class:`BudgetError` when an integer budget does not buy
    one."""
    _check_count("cost", cost)
    if not isinstance(total_budget, numbers.Integral):
        raise ValueError(f"need an integer total_budget, got {total_budget!r}")
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
    the steady state ``cooled[i]``, and compare wrong-sign error rates.

    ``alphas`` and ``cooled`` must have one length, and the seed, the trial
    count and every point are checked before any draw.  Then
    :func:`monte_carlo_sign_errors` runs once per side, on ``jobs`` workers:
    the raw side draws from the seed ``_derived_seed(seed, 0)`` and the
    cooled side from ``_derived_seed(seed, 1)``.  So one side's points share
    their draws: their Monte Carlo cells are correlated across rows and never
    grow with ``|alpha|``, and each row equals a one-point grid's row.

    ``exact_error_cooled``, ``mc_error_cooled`` and ``bound_cooled`` treat
    the ``k_cooled`` outputs as independent draws at ``alpha_cooled``; in
    fact successive outputs of one recycling refrigerator share its carried
    register, so they are correlated."""
    _check_count("seed", seed, least=0)
    _check_count("trials", trials)
    if len(alphas) != len(cooled):
        raise ValueError(f"need one steady state per alpha, got {len(alphas)} alphas "
                         f"and {len(cooled)} steady states")
    k_cooled = cooled_shots(total_budget, cost)
    k_raw = int(total_budget)
    points = []
    for alpha, steady in zip(alphas, cooled):
        alpha_cooled = steady.alpha_enhanced
        if alpha == 0.0:
            bound_raw = bound_cooled = 1.0
            reduction = math.nan
        elif alpha_cooled == 0.0:
            raise ZeroDivisionError(f"the cooled polarization at alpha = {alpha} rounds to 0")
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
    errors_raw = monte_carlo_sign_errors(alphas, k_raw, trials, _derived_seed(seed, 0), jobs)
    errors_cooled = monte_carlo_sign_errors([point["alpha_cooled"] for point in points],
                                            k_cooled, trials, _derived_seed(seed, 1), jobs)
    rows = []
    for point, mc_raw, mc_cooled in zip(points, errors_raw, errors_cooled):
        ratio = mc_cooled / mc_raw if mc_raw > 0 else math.inf if mc_cooled > 0 else math.nan
        rows.append(ResourceComparison(**point, mc_error_raw=mc_raw, mc_error_cooled=mc_cooled,
                                       empirical_ratio=ratio))
    return rows


def _derived_seed(seed: int, branch: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(branch,)).generate_state(1, np.uint64)[0])
