"""Full-register oracle of the refrigerator: every round runs on the whole
``2^n`` diagonal in plain numpy, and the staircases are listed here one
transposition at a time, so no code is shared with the package.  Rows along
leading axes run side by side.  Every helper keeps the type of the
polarization, so a ``Fraction`` alpha runs the whole oracle exactly."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def staircase_transpositions(n, locality):
    """Every transposition of a staircase, in application order, listed one
    by one from the basis patterns (no bit windows)."""
    swaps = []
    if locality == "full":
        for j in range(3, n + 1):
            half = 1 << (j - 1)
            swaps += [(x * (1 << j) + half - 1, x * (1 << j) + half) for x in range(1 << (n - j))]
    else:
        for low in range(n - 2):  # qubits below the window
            for hi in range(1 << (n - 3 - low)):
                for lo in range(1 << low):
                    base = hi * (1 << (low + 3)) + lo
                    swaps.append((base + 3 * (1 << low), base + 4 * (1 << low)))
    return swaps


def swap_by_swap(n, swaps):
    """Labels of the basis states after exchanging entries one pair at a time."""
    labels = np.arange(1 << n)
    for a, b in swaps:
        labels[[a, b]] = labels[[b, a]]
    return labels


@lru_cache(maxsize=None)
def staircase_labels(n, locality):
    """Basis state ``j`` of the relabeled register holds the old state
    ``labels[j]``."""
    return swap_by_swap(n, staircase_transpositions(n, locality))


def qubits(alpha, count):
    """``count`` fresh qubits at polarization ``alpha``, as one vector."""
    probs = np.array([alpha * 0 + 1])
    for _ in range(count):
        probs = np.kron(probs, [(1 + alpha) / 2, (1 - alpha) / 2])
    return probs


def attach(rows, fresh):
    """Append the qubits of ``fresh`` after the last qubit of each row."""
    return (rows[..., :, None] * fresh).reshape(rows.shape[:-1] + (-1,))


def sum_last(rows, m):
    """Each row with its last ``m`` qubits summed out."""
    return rows.reshape(rows.shape[:-1] + (-1, 1 << m)).sum(-1)


def full_round(rows, cfg, alpha):
    """One round: relabel by the staircase, sum the resets out, attach fresh
    resets."""
    moved = rows[..., staircase_labels(cfg.n, cfg.locality)]
    return attach(sum_last(moved, cfg.m), qubits(alpha, cfg.m))


def full_cycle(rows, cfg, alpha):
    """One recycle cycle: ``cfg.rounds`` rounds, then the target summed out and
    a fresh qubit appended.  Returns ``(recycled, evolved)``, where
    ``evolved`` is the register after the rounds."""
    for _ in range(cfg.rounds):
        rows = full_round(rows, cfg, alpha)
    halves = rows.reshape(rows.shape[:-1] + (2, -1))
    return attach(halves.sum(-2), qubits(alpha, 1)), rows


def gth(rows):
    """Stationary vector of each row-stochastic matrix by GTH elimination, one
    state at a time, each step a rank-one update of the whole block that is
    left.  It never subtracts, and it keeps the entries' type, so it is
    exact on ``Fraction``s; a closed set that avoids state 0 gives NaN."""
    p = np.array(rows)
    dim = p.shape[-1]
    for k in range(dim - 1, 0, -1):
        # a 2-D object array sums to a bare scalar
        pivot = np.asarray(p[..., k, :k].sum(axis=-1))
        pivot = np.where(pivot > 0, pivot, np.nan)
        p[..., :k, k] /= pivot[..., None]
        p[..., :k, :k] += p[..., :k, k, None] * p[..., k, None, :k]
    pi = np.ones(p.shape[:-1], dtype=p.dtype)
    for k in range(1, dim):
        pi[..., k] = (pi[..., :k] * p[..., :k, k]).sum(axis=-1)
    return pi / pi.sum(axis=-1, keepdims=True)


def steady(cfg, alpha):
    """The full recycle cycle's stationary register and the target's ground
    and excited masses after the rounds that follow it:
    ``(stationary, ground, excited)``."""
    one = alpha * 0 + 1
    stationary = gth(full_cycle(np.eye(1 << cfg.n, dtype=int) * one, cfg, alpha)[0])
    halves = full_cycle(stationary, cfg, alpha)[1].reshape(2, -1).sum(-1)
    return stationary, halves[0], halves[1]


def wrong_sign_fraction(alpha, k):
    """The wrong-sign probability of a majority of ``k`` shots, with ``p`` the
    exact rational of ``(1 + |alpha|) / 2``: the lower tail, plus half the
    tie for even ``k``."""
    p = (1 + abs(Fraction(alpha))) / 2
    terms = [math.comb(k, s) * p**s * (1 - p) ** (k - s) for s in range(k // 2 + 1)]
    if k % 2 == 0:
        terms[-1] /= 2
    return sum(terms)
