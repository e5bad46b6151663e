"""Reference computations for the benchmark's output checks.

Everything here is written from the protocol definitions and shares no
code with ``coolsign``:

* the refrigerator as a full ``2^n`` diagonal simulation (compression
  staircase or sliding 3-local windows, reset, recycle), whose recycle-cycle
  map is solved for its stationary vector directly by the
  Grassmann-Taksar-Heyman (GTH) elimination;
* the single-shot polarization ``alpha_ac`` by sorting the ``2^n`` product
  populations, in exact ``Fraction`` arithmetic;
* closed forms (cooling limit, Gaussian single-shot reduction, binomial
  wrong-sign tails) in ``mpmath`` at 30 or more digits.  ``mpmath`` is
  imported on first use, so it stays out of the measured process until the
  passes are over.

GTH uses no subtraction, so every stationary entry, including the tiny
excited-state masses near saturation, carries a small relative error.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# refrigerator: full 2^n simulation and the recycle-cycle map

def _apply_window_swaps(index: np.ndarray, windows) -> np.ndarray:
    """Image of each basis index under a sequence of window swaps.

    A window ``(shift, width)`` covers the ``width`` bits starting ``shift``
    bits above the least significant one (the end of the string).  It swaps
    the window patterns ``0 1...1`` and ``1 0...0``: the values ``2^(w-1)-1``
    and ``2^(w-1)``.  Windows act one after the other, in the given order.
    """
    image = index.copy()
    for shift, width in windows:
        window = (image >> shift) & ((1 << width) - 1)
        low_pattern = (1 << (width - 1)) - 1
        up = window == low_pattern
        down = window == low_pattern + 1
        image[up] += 1 << shift
        image[down] -= 1 << shift
    return image


def compression_image(n: int, locality: str) -> np.ndarray:
    """Basis-index image of one compression step on ``n`` qubits.

    ``full``: for ``j = 3..n``, the ``j``-qubit swap on the last ``j``
    qubits.  ``3local``: the 3-qubit swap on every window of neighbouring
    qubits, from the end of the string up to the target.
    """
    if locality == "full":
        windows = [(0, j) for j in range(3, n + 1)]
    elif locality == "3local":
        windows = [(low, 3) for low in range(n - 2)]
    else:
        raise ValueError(f"unknown locality {locality!r}")
    return _apply_window_swaps(np.arange(1 << n), windows)


def qubit_probs(alpha: float, count: int) -> np.ndarray:
    """Diagonal of ``count`` fresh qubits at polarization ``alpha``; the
    first qubit is the most significant bit."""
    cell = np.array([(1.0 + alpha) / 2.0, (1.0 - alpha) / 2.0])
    out = np.ones(1)
    for _ in range(count):
        out = np.outer(out, cell).ravel()
    return out


def cycle_maps(n: int, m: int, rounds: int, alpha: float, locality: str = "full"):
    """Linear maps of the refrigerator on the non-reset ``n - m`` qubits.

    Returns ``(rounds_map, cycle_map)``, both column-stochastic
    ``d x d`` with ``d = 2^(n-m)``.  ``rounds_map`` takes the input vector
    through ``rounds`` rounds (attach fresh resets, compress the whole
    register, trace the resets out).  ``cycle_map`` adds the recycle step:
    trace the target out and append one fresh qubit at the end.
    Each column is simulated on the full ``2^n`` register.
    """
    d, r = 1 << (n - m), 1 << m
    image = compression_image(n, locality)
    reset = qubit_probs(alpha, m)
    columns = np.eye(d)
    for _ in range(rounds):
        full = (columns[:, None, :] * reset[None, :, None]).reshape(d * r, d)
        moved = np.empty_like(full)
        moved[image] = full
        columns = moved.reshape(d, r, d).sum(axis=1)
    rounds_map = columns
    traced = rounds_map[: d // 2] + rounds_map[d // 2:]
    fresh = qubit_probs(alpha, 1)
    cycle_map = (traced[:, None, :] * fresh[None, :, None]).reshape(d, d)
    return rounds_map, cycle_map


def stationary_gth(matrix: np.ndarray) -> np.ndarray:
    """Stationary vector of a column-stochastic matrix by GTH elimination.

    Works on the row-stochastic transpose; each pivot is the sum of the
    off-diagonal mass of its row, so no entry is ever formed by subtraction.
    """
    p = np.array(matrix, dtype=float).T.copy()
    d = p.shape[0]
    for k in range(d - 1, 0, -1):
        pivot = p[k, :k].sum()
        if not pivot > 0.0:
            raise ZeroDivisionError(f"GTH pivot {k} is {pivot}: chain is reducible")
        p[:k, k] /= pivot
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.zeros(d)
    pi[0] = 1.0
    for k in range(1, d):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


@functools.lru_cache(maxsize=None)
def steady_masses(n: int, m: int, rounds: int, alpha: float, locality: str = "full"):
    """Ground and excited masses ``(g, u)`` of the target after the rounds
    of a steady-state cycle; cached, as checks ask for one point many times."""
    rounds_map, cycle_map = cycle_maps(n, m, rounds, alpha, locality)
    evolved = rounds_map @ stationary_gth(cycle_map)
    half = evolved.size // 2
    return math.fsum(evolved[:half]), math.fsum(evolved[half:])


def steady_polarization(n: int, m: int, rounds: int, alpha: float, locality: str = "full") -> float:
    ground, excited = steady_masses(n, m, rounds, alpha, locality)
    return ground - excited


def steady_reduction(n: int, m: int, rounds: int, alpha: float, locality: str = "full") -> float:
    """``(alpha^-2 - 1) / (alpha_qr^-2 - 1) / (m rounds + 1)`` with
    ``alpha_qr^-2 - 1 = 4 g u / (g - u)^2`` from the steady target masses."""
    ground, excited = steady_masses(n, m, rounds, alpha, locality)
    raw = (1.0 - alpha * alpha) / (alpha * alpha)
    cooled = 4.0 * ground * excited / (ground - excited) ** 2
    return raw / cooled / (m * rounds + 1)


# ---------------------------------------------------------------------------
# closed forms

def cooling_limit(n: int, m: int, alpha: float) -> float:
    """Heat-bath cooling limit ``tanh(m 2^(n-m-1) artanh alpha)``."""
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.tanh(m * 2 ** (n - m - 1) * mpmath.atanh(mpmath.mpf(alpha))))


def alpha_ac_sorted(n: int, alpha) -> Fraction:
    """Target polarization after sorting the ``2^n`` populations of ``n``
    identical qubits toward their bias, exactly.

    For ``alpha >= 0`` the larger half of the populations goes to target
    ``|0>``; for ``alpha < 0`` to ``|1>``, which negates the result.  The
    populations are taken per Hamming-weight class (``C(n, w)`` equal
    values ``p^(n-w) q^w``), sorted by value; a class that straddles the
    middle is split.
    """
    a = abs(Fraction(alpha))
    p, q = (1 + a) / 2, (1 - a) / 2
    classes = sorted(
        ((p ** (n - w) * q**w, math.comb(n, w)) for w in range(n + 1)), reverse=True
    )
    slots = 1 << (n - 1)
    ground = Fraction(0)
    for value, count in classes:
        take = min(count, slots)
        ground += take * value
        slots -= take
        if slots == 0:
            break
    return (2 * ground - 1) if alpha >= 0 else (1 - 2 * ground)


def single_shot_reduction(n: int, alpha: float) -> float:
    """Gaussian single-shot reduction ``(1/n)(alpha^-2 - 1)/(erf(xi)^-2 - 1)``
    with ``xi = n alpha / sqrt(2 n (1 - alpha^2))``.  ``erf(xi)^-2 - 1`` is
    written through ``c = erfc(xi)`` as ``c (2 - c) / (1 - c)^2``, which
    stays exact when ``erf(xi)`` rounds to 1."""
    import mpmath

    with mpmath.workdps(50):
        a = mpmath.mpf(abs(alpha))
        xi = n * a / mpmath.sqrt(2 * n * (1 - a * a))
        c = mpmath.erfc(xi)
        return float((1 / a**2 - 1) / (c * (2 - c) / (1 - c) ** 2) / n)


def wrong_sign_probability(alpha: float, k: int):
    """Probability that the mean of ``k`` shots has the wrong sign.

    Shots land in ``|0>`` with probability ``p = (1 + |alpha|) / 2``; fewer
    than ``k/2`` ground outcomes is wrong, exactly ``k/2`` counts half.  The
    lower binomial tail is summed downward from its largest term until the
    terms stop mattering at 30 digits.  Returns an ``mpmath.mpf``.
    """
    import mpmath

    if alpha == 0.0:
        return mpmath.mpf("0.5")
    with mpmath.workdps(40):
        a = abs(mpmath.mpf(alpha))
        p, q = (1 + a) / 2, (1 - a) / 2
        s = (k - 1) // 2
        term = mpmath.binomial(k, s) * p**s * q ** (k - s)
        total = mpmath.mpf(0)
        cutoff = mpmath.mpf(10) ** -32
        while s >= 0:
            total += term
            if term < total * cutoff:
                break
            term *= mpmath.mpf(s) / (k - s + 1) * q / p
            s -= 1
        if k % 2 == 0:
            total += mpmath.binomial(k, k // 2) * (p * q) ** (k // 2) / 2
        return +total


def chebyshev_bound(alpha: float, k: int) -> float:
    """``min(1, (1 - alpha^2) / (k alpha^2))``."""
    return min(1.0, (1.0 - alpha * alpha) / (k * alpha * alpha))
