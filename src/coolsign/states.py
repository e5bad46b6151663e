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
modules rely on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

#: accepted drift of a probability vector's total mass
NORM_ATOL = 1e-12


def pairwise_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over ``axis`` (power-of-two length) via pairwise halving.

    Unlike ``np.sum``, the result is invariant under reversal of the summed
    axis, which is what makes polarization-flip symmetry bit-exact.
    """
    x = np.asarray(x, dtype=float)
    if axis not in (-1, x.ndim - 1):
        x = np.moveaxis(x, axis, -1)
    if x.shape[-1] & (x.shape[-1] - 1):
        raise ValueError(f"pairwise_sum needs a power-of-two length, got {x.shape[-1]}")
    while x.shape[-1] > 1:
        x = x[..., ::2] + x[..., 1::2]
    return x[..., 0]


def ground_excited_pair(alpha) -> np.ndarray:
    """Single-qubit diagonal ``[(1+alpha)/2, (1-alpha)/2]``, one along the
    last axis for each entry of an array of polarizations.

    Both entries are computed from their own expression (never as ``1 - p``)
    so that negating ``alpha`` swaps them bit-exactly.
    """
    alpha = np.asarray(alpha, dtype=float)
    outside = np.abs(alpha) > 1
    if outside.any():
        raise ValueError(f"polarization must lie in [-1, 1], got {alpha[outside].flat[0]}")
    return np.stack([(1.0 + alpha) / 2.0, (1.0 - alpha) / 2.0], axis=-1)


def _check_mass(probs: np.ndarray, where: str) -> np.ndarray:
    total = float(pairwise_sum(probs))
    drift = abs(total - 1.0)
    if drift > NORM_ATOL:
        warnings.warn(
            f"{where}: probability mass drifted by {drift:.3e}; renormalizing",
            RuntimeWarning,
            stacklevel=3,
        )
        probs = probs / total
    return probs


@dataclass(frozen=True)
class DiagonalState:
    """Probability vector over the computational basis of ``n`` qubits."""

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} entries for n={self.n}, got {probs.shape}")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be non-negative")
        probs = _check_mass(probs, "DiagonalState")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class PermutationSpec:
    """Bijection on basis indices: ``perm[i]`` is the image of index ``i``."""

    n: int
    perm: np.ndarray

    def __post_init__(self) -> None:
        perm = np.asarray(self.perm, dtype=np.intp)
        if perm.shape != (1 << self.n,):
            raise ValueError(f"permutation length {perm.shape} does not match n={self.n}")
        if not np.array_equal(np.sort(perm), np.arange(1 << self.n)):
            raise ValueError("index map is not a bijection")
        perm = perm.copy()
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
    cell = ground_excited_pair(alpha)
    batch = cell.shape[:-1]
    probs = np.ones(batch + (1,))
    for _ in range(n):
        probs = (probs[..., :, None] * cell[..., None, :]).reshape(batch + (2 * probs.shape[-1],))
    return probs


def product_state(alpha: float, n: int) -> DiagonalState:
    """State of ``n`` identical qubits, each with polarization ``alpha``."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    return DiagonalState(n, product_probs(alpha, n))


def marginal_targets(probs: np.ndarray) -> np.ndarray:
    """Polarization ``Tr(Z rho_target)`` of the most significant qubit of
    each probability vector along the last axis."""
    probs = np.asarray(probs, dtype=float)
    half = probs.shape[-1] >> 1
    return pairwise_sum(probs[..., :half]) - pairwise_sum(probs[..., half:])


def marginal_target(d: DiagonalState | np.ndarray) -> float:
    """Polarization ``Tr(Z rho_target)`` of the most significant qubit: the
    one-vector case of :func:`marginal_targets`."""
    return float(marginal_targets(d.probs if isinstance(d, DiagonalState) else d))

