"""Diagonal-state algebra on qubit registers.

Every state handled by this package is diagonal in the computational basis, so
an ``n``-qubit state is stored as a probability vector of length ``2**n``.
Conventions used throughout:

* qubit 1 (the *target*) is the most significant bit of the basis index,
* index 0 is ``|0...0>``,
* reset qubits, when present, occupy the last ``m`` positions of the string.

All reductions over basis indices (sums, marginals, L1 norms) go through
:func:`pairwise_sum`, a balanced binary-tree fold.  Because every pair-add is
commutative, folding a bit-reversed vector yields the bit-reversed fold.  This
makes the simulators exactly symmetric under a global polarization flip
``alpha -> -alpha`` without ever branching on the sign, which downstream
modules rely on.  A batch of states is a stack of such vectors, one row
per polarization, and :func:`_attach` appends qubits to every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis (power-of-two length) via pairwise halving.

    Unlike ``np.sum``, the result is invariant under reversal of the summed
    axis, which is what makes polarization-flip symmetry bit-exact.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] & (x.shape[-1] - 1):
        raise ValueError(f"pairwise_sum needs a power-of-two length, got {x.shape[-1]}")
    while x.shape[-1] > 1:
        x = x[..., ::2] + x[..., 1::2]
    return x[..., 0]


def _check_polarization(alpha) -> None:
    """Raise ValueError unless every entry of ``alpha`` lies in [-1, 1]."""
    outside = ~(np.abs(alpha) <= 1)  # NaN fails this too
    if outside.any():
        raise ValueError(f"polarization must lie in [-1, 1], got {np.asarray(alpha)[outside][0]}")


def ground_excited_pair(alpha) -> np.ndarray:
    """Single-qubit diagonal ``[(1+alpha)/2, (1-alpha)/2]``, one along the
    last axis for each entry of an array of polarizations.

    Both entries are computed from their own expression (never as ``1 - p``)
    so that negating ``alpha`` swaps them bit-exactly.
    """
    alpha = np.asarray(alpha, dtype=float)
    _check_polarization(alpha)
    return np.stack([(1.0 + alpha) / 2.0, (1.0 - alpha) / 2.0], axis=-1)


@dataclass(frozen=True)
class PermutationSpec:
    """Bijection on basis indices: ``perm[i]`` is the image of index ``i``."""

    n: int
    perm: np.ndarray

    def __post_init__(self) -> None:
        perm = np.array(self.perm, dtype=np.intp)  # a copy, made read-only below
        if perm.shape != (1 << self.n,):
            raise ValueError(f"permutation length {perm.shape} does not match n={self.n}")
        if not np.array_equal(np.sort(perm), np.arange(1 << self.n)):
            raise ValueError("index map is not a bijection")
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Relabel vectors over basis indices along the last axis:
        ``out[..., perm[i]] = values[..., i]``."""
        out = np.empty_like(values)
        out[..., self.perm] = values
        return out


def window_swaps(n: int, windows) -> PermutationSpec:
    """Compose compression swaps on bit windows, applied in order.

    A window ``(low, width)`` covers ``width`` adjacent bits starting ``low``
    bits above the least significant one.  It swaps the window patterns
    ``0 1...1`` and ``1 0...0`` for every setting of the other bits, which
    moves an image up or down by ``1 << low``.
    """
    perm = np.arange(1 << n)
    for low, width in windows:
        pattern = (perm >> low) & ((1 << width) - 1)
        half = 1 << (width - 1)
        perm[pattern == half - 1] += 1 << low
        perm[pattern == half] -= 1 << low
    return PermutationSpec(n, perm)


def product_probs(alpha, n: int) -> np.ndarray:
    """Probability vector of ``n`` identical qubits, each with polarization
    ``alpha``; an array of polarizations gives one vector per entry, along a
    new last axis."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    cell = ground_excited_pair(alpha)
    probs = np.ones(cell.shape[:-1] + (1,))
    for _ in range(n):
        probs = _attach(probs, cell)
    return probs


def _attach(a: np.ndarray, qubits: np.ndarray) -> np.ndarray:
    """Append qubits with the probabilities ``qubits`` after the last qubit of
    each row of ``a``; the leading axes of ``qubits`` broadcast against the
    rows."""
    return (a[..., :, None] * qubits[..., None, :]).reshape(
        a.shape[:-1] + (a.shape[-1] * qubits.shape[-1],))


def marginal_targets(probs: np.ndarray) -> np.ndarray:
    """Polarization ``Tr(Z rho_target)`` of the most significant qubit of
    each probability vector along the last axis."""
    probs = np.asarray(probs, dtype=float)
    half = probs.shape[-1] >> 1
    return pairwise_sum(probs[..., :half]) - pairwise_sum(probs[..., half:])
