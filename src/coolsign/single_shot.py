"""Single-shot entropy compression on identical qubits.

For ``n`` identical qubits the optimal compression permutation is fixed: it
groups basis states by Hamming weight (ascending weight first, the all-ground
state at index 0).  On a product state this sorts the populations descending
when ``alpha > 0`` and ascending when ``alpha < 0``, so the same permutation
amplifies the target's polarization toward whichever bias the input carries.
:func:`compress_products` applies it to rows of product states.  The target
it leaves reads the sign exactly as well as a majority vote of ``n`` shots,
so :func:`alpha_ac` is one minus twice that vote's wrong-sign probability,
:func:`coolsign.sampling.exact_sign_error`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .sampling import exact_sign_error
from .states import (
    PermutationSpec,
    _check_count,
    _check_polarization,
    marginal_targets,
    product_probs,
)

#: rows passed to compress_products must match a product state this closely
PRODUCT_ATOL = 1e-10


@lru_cache(maxsize=None, typed=True)  # n = 3.0 must not hit n = 3's entry
def compression_permutation(n: int) -> PermutationSpec:
    """Fixed reordering permutation: group basis indices by Hamming weight.

    The ordering is structural (weight, then index: the sort is stable), so
    it is well defined even when all populations are equal (``alpha = 0``).
    """
    _check_count("n", n)
    idx = np.arange(1 << n)
    weights = sum((idx >> b) & 1 for b in range(n))
    perm = np.empty(1 << n, dtype=np.intp)
    perm[np.argsort(weights, kind="stable")] = idx
    return PermutationSpec(n, perm)


def compress_products(probs: np.ndarray, n: int) -> np.ndarray:
    """Apply the fixed weight-ordering compression to rows of ``n``-qubit
    probability vectors, each a product of identical qubits.

    Raises ValueError if any row is not such a product (within
    :data:`PRODUCT_ATOL` of the product at its own target polarization); the
    optimality guarantee only covers that case.
    """
    expected = product_probs(marginal_targets(probs), n)
    if not np.allclose(probs, expected, atol=PRODUCT_ATOL, rtol=0.0):
        raise ValueError("compress_products requires product states of identical qubits")
    return compression_permutation(n)(probs)


def alpha_ac(n: int, alpha: float) -> float:
    """Target polarization after optimal compression of ``n`` identical qubits.

    The weight-ordered compression leaves the target in ground exactly when
    most of the ``n`` qubits are ground, and splits a middle-weight tie
    evenly, so the target reads the sign as well as a majority vote of ``n``
    shots: ``alpha_ac = sign(alpha) (1 - 2 exact_sign_error(|alpha|, n))``.
    That tail is accurate at any ``n`` and at most 1/2, so the result is
    exactly odd, bounded by 1, and the same for an even ``n`` as for
    ``n - 1``.
    """
    _check_count("n", n)
    return math.copysign(1.0 - 2.0 * exact_sign_error(abs(alpha), n), alpha)


def compression_xi(n: int, alpha: float) -> float:
    """Argument of the Gaussian-limit approximation of alpha_ac."""
    _check_polarization(alpha)
    return n * alpha / math.sqrt(2.0 * n * (1.0 - alpha * alpha))


def alpha_ac_erf(n: int, alpha: float) -> float:
    """Gaussian (erf) approximation of :func:`alpha_ac`, good for large n."""
    _check_count("n", n)
    if abs(alpha) == 1:
        return math.copysign(1.0, alpha)
    return math.erf(compression_xi(n, alpha))


def _power_ratio(alpha: float, exponent: int) -> float:
    """``tanh(exponent * artanh(alpha))`` for ``|alpha| <= 1``, else ValueError.

    Evaluated through the equivalent power ratio
    ``((1+a)^K - (1-a)^K) / ((1+a)^K + (1-a)^K)`` whenever the powers stay
    within floating-point range, and through ``tanh`` when one overflows or
    ``|alpha| < 0.01``.  The ratio form is exact for small ``K`` and exactly
    odd in ``alpha``, and so are ``tanh`` and ``atanh``.  ``K = 1`` returns
    ``alpha`` itself, so that ``(1 + t) / 2`` reproduces the reservoir
    population ``(1 + alpha) / 2`` bit for bit.
    """
    _check_polarization(alpha)
    if abs(alpha) == 1.0:
        return math.copysign(1.0, alpha)
    if exponent == 1:
        return alpha
    # 1 +- alpha rounds before the powers, so the ratio cancels toward 0 as
    # alpha does (5.5e-2 relative at 1e-15, and 0 from 1e-17); tanh keeps
    # 3.2e-16 below 0.01, where the default grids start, so their bytes stay
    if abs(alpha) < 0.01:
        return math.tanh(exponent * math.atanh(alpha))
    try:
        hi = (1.0 + alpha) ** exponent
        lo = (1.0 - alpha) ** exponent
    except OverflowError:
        return math.tanh(exponent * math.atanh(alpha))
    return (hi - lo) / (hi + lo)


def _reduction(alpha: float, enhanced: float, cost: float) -> float:
    """``(alpha^-2 - 1) / enhanced / cost``, where ``enhanced`` is the
    enhanced polarization's ``alpha_e^-2 - 1``: ZeroDivisionError at
    ``alpha = 0``, and naming ``alpha`` where ``enhanced`` is ``inf`` or
    ``alpha^2`` rounds to 0; ``inf`` where ``enhanced`` is 0."""
    if alpha == 0.0:
        raise ZeroDivisionError("reduction factor is undefined at alpha = 0")
    if enhanced == math.inf or alpha * alpha == 0.0:
        raise ZeroDivisionError(f"reduction factor underflows at alpha = {alpha!r}")
    if enhanced == 0.0:
        return math.inf
    return (1.0 - alpha * alpha) / (alpha * alpha) / enhanced / cost


def reduction_factor_ac(n: int, alpha: float) -> float:
    """Error-bound reduction from single-shot compression at matched budget.

    Uses the Gaussian form ``(1/n) (alpha^-2 - 1) / (erf(xi)^-2 - 1)``, whose
    polarization-regime behavior (2/pi plateau at low alpha, exp(xi^2) growth,
    divergence as alpha -> 1) is the basis of the regime approximations.  The
    erf complement is evaluated with ``erfc`` so the result stays finite for
    grid polarizations up to 0.99 at any ``n``, and the enhanced
    polarization is ``erf(xi)`` itself, not ``1 - erfc(xi)``, so the factor
    keeps its relative accuracy as ``alpha -> 0``, down to where ``erf(xi)^2``
    underflows (``|alpha|`` below about 5e-155).
    """
    _check_count("n", n)
    if abs(alpha) == 1:
        return math.inf
    xi = abs(compression_xi(n, alpha))  # exactly xi at |alpha|: the form is odd
    c = math.erfc(xi)  # twice the excited mass u: 4u(1-u) = c(2-c)
    square = math.erf(xi) ** 2
    return _reduction(alpha, c * (2.0 - c) / square if square else math.inf, n)
