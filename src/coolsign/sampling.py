"""Finite-sampling error analysis for sign-based classification.

A classifier's decision is the sign of a single-qubit polarization ``alpha``
estimated from ``k`` projective shots.  This module provides the Chebyshev
bound and its prediction specialization, the exact wrong-sign probability
from the binomial law, a reproducible Monte Carlo counterpart, and a
resource-matched comparison of raw versus cooled estimation at a fixed
qubit budget.

The comparison reads a cooled polarization that is already solved: the
module runs no refrigerator.  ``coolsign --sample`` solves its whole grid
with one batched :func:`coolsign.refrigerator.steady_states` call, and its
``--jobs`` threads split only the sampling of the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: trials per RNG substream; chunk boundaries depend only on the trial count,
#: so results are identical however the chunks are scheduled
MC_CHUNK = 4096


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
        if abs(self.alpha_true) > 1:
            raise ValueError(f"polarization must lie in [-1, 1], got {self.alpha_true}")
        if self.shots < 1:
            raise ValueError(f"need shots >= 1, got {self.shots}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")


def chebyshev_bound(variance: float, k: int, epsilon: float) -> float:
    """``min(1, variance / (k epsilon^2))``: tail bound for a k-shot mean."""
    if epsilon <= 0:
        raise ValueError(f"need epsilon > 0, got {epsilon}")
    if variance < 0:
        raise ValueError(f"need variance >= 0, got {variance}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return min(1.0, variance / (k * epsilon * epsilon))


def predict_error_bound(alpha: float, k: int) -> float:
    """Wrong-sign probability bound ``min(1, (1 - alpha^2) / (k alpha^2))``."""
    if alpha == 0.0:
        raise ZeroDivisionError("prediction bound is undefined at alpha = 0")
    if abs(alpha) > 1:
        raise ValueError(f"polarization must lie in [-1, 1], got {alpha}")
    return chebyshev_bound(1.0 - alpha * alpha, k, abs(alpha))


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
    if abs(alpha) > 1:
        raise ValueError(f"polarization must lie in [-1, 1], got {alpha}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
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


def monte_carlo_sign_error(exp: ShotExperiment) -> float:
    """Empirical wrong-sign fraction over ``exp.trials`` seeded repetitions.

    Trials are drawn in fixed-size chunks, each from its own counter-based
    substream keyed by the chunk index, so the result is reproducible for a
    fixed seed no matter how the chunks are scheduled or parallelized.
    """
    p = (1.0 + exp.alpha_true) / 2.0
    wrong = 0.0
    n_chunks = (exp.trials + MC_CHUNK - 1) // MC_CHUNK
    for chunk in range(n_chunks):
        size = min(MC_CHUNK, exp.trials - chunk * MC_CHUNK)
        rng = _substream(exp.seed, (chunk,))
        successes = rng.binomial(exp.shots, p, size=size)
        lean = 2 * successes - exp.shots
        ties = np.count_nonzero(lean == 0)
        if exp.alpha_true >= 0:
            wrong += np.count_nonzero(lean < 0) + 0.5 * ties
        else:
            wrong += np.count_nonzero(lean > 0) + 0.5 * ties
    return wrong / exp.trials


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


def resource_matched_comparison(
    alpha: float,
    cooled,
    cost: int,
    total_budget: int,
    seed: int,
    trials: int = 10_000,
) -> ResourceComparison:
    """Spend ``total_budget`` fresh qubits either on raw shots at ``alpha`` or
    on ``total_budget // cost`` cooled shots, and compare wrong-sign error
    rates.  ``cooled`` is the refrigerator's solved steady state at
    ``alpha`` (a ``SteadyStateResult``) and ``cost`` its fresh qubits per
    cooled shot; the shots read its ``alpha_enhanced``."""
    k_raw = int(total_budget)
    k_cooled = cooled_shots(total_budget, cost)
    alpha_cooled = cooled.alpha_enhanced

    exact_raw = exact_sign_error(alpha, k_raw)
    exact_cooled = exact_sign_error(alpha_cooled, k_cooled)
    mc_raw = monte_carlo_sign_error(
        ShotExperiment(alpha, k_raw, trials, _derived_seed(seed, 0))
    )
    mc_cooled = monte_carlo_sign_error(
        ShotExperiment(alpha_cooled, k_cooled, trials, _derived_seed(seed, 1))
    )
    if alpha == 0.0:
        bound_raw = bound_cooled = 1.0
        reduction = math.nan
    else:
        bound_raw = predict_error_bound(alpha, k_raw)
        bound_cooled = predict_error_bound(alpha_cooled, k_cooled)
        reduction = cooled.reduction_factor(alpha, cost)
    ratio = mc_cooled / mc_raw if mc_raw > 0 else math.inf if mc_cooled > 0 else math.nan
    return ResourceComparison(
        alpha=alpha,
        k_raw=k_raw,
        k_cooled=k_cooled,
        alpha_cooled=alpha_cooled,
        exact_error_raw=exact_raw,
        exact_error_cooled=exact_cooled,
        mc_error_raw=mc_raw,
        mc_error_cooled=mc_cooled,
        bound_raw=bound_raw,
        bound_cooled=bound_cooled,
        empirical_ratio=ratio,
        reduction_factor=reduction,
    )


def _derived_seed(seed: int, branch: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(branch,)).generate_state(1, np.uint64)[0])
