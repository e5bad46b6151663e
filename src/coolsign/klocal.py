"""Hardware-friendly variant: sliding 3-qubit compression windows.

Instead of the full staircase (whose widest swap spans all ``n`` qubits), one
round applies the 3-qubit compression swap to every window of neighboring
qubits, starting at the end of the string and sliding up to the target.  The
price of locality is a slower cooling limit: with two reset qubits the
asymptotic per-qubit ground populations follow Fibonacci-number exponents
rather than powers of two (:func:`asymptotic_population_vector`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .single_shot import _power_ratio
from .states import PermutationSpec, window_swaps


@lru_cache(maxsize=None)
def build_uqr_3local(n: int) -> PermutationSpec:
    """Sliding staircase of 3-qubit swaps, last window first.

    The window on qubits ``(w, w+1, w+2)`` swaps basis states whose window
    bits read ``011``/``100``, for every setting of the remaining bits.
    Windows overlap, so unlike the full staircase the order matters and the
    composition is generally not an involution.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return window_swaps(n, [(low, 3) for low in range(n - 2)])


def fibonacci(j: int) -> int:
    """F(1) = F(2) = 1, F(j) = F(j-1) + F(j-2)."""
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    a, b = 1, 1
    for _ in range(j - 1):
        a, b = b, a + b
    return a


def alpha_infinity_3local(n: int, alpha: float) -> float:
    """Cooling limit of the 3-local refrigerator: ``tanh(F_n artanh(alpha))``,
    evaluated as in :func:`coolsign.refrigerator.alpha_infinity`."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return _power_ratio(alpha, fibonacci(n))


def asymptotic_population_vector(n: int, alpha: float) -> np.ndarray:
    """Ground populations ``(1 + tanh(F_j artanh(alpha))) / 2``, i.e.
    ``p^F_j / (p^F_j + q^F_j)``, of the 3-local cooling limit (m = 2), for
    the j-th qubit from the end of the string, j = 1..n; the last entry is
    the target, at polarization :func:`alpha_infinity_3local`.

    The first two entries (the reset qubits) stay at ``p`` since ``F_1 = F_2
    = 1``; the steady state of the 3-local round map factorizes into exactly
    this product state.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return np.array([(1.0 + _power_ratio(alpha, fibonacci(j))) / 2.0 for j in range(1, n + 1)])
