"""Multi-round bidirectional cooling with reset qubits and recycling.

A register of ``n`` qubits is split into one target qubit (most significant
bit), ``n - m - 1`` auxiliaries, and ``m`` reset qubits at the end of the
string.  Each round applies a staircase of compression swaps and then replaces
the reset qubits with fresh ones at the reservoir polarization ``alpha``.
After ``rounds`` rounds the enhanced target is extracted; the remaining
qubits, plus one fresh qubit appended at the end, are recycled as the next
input.  The recycle cycle has a fixed point whose target polarization is the
protocol's figure of merit.

One scatter kernel runs every round: it compresses the full register (by the
staircase's index map, or by a full sort for the bound oracle) and traces
the resets out.  A round is also a column-stochastic matrix on the non-reset
vector.  That matrix feeds the direct solve of the fixed point, which kernel
cycles then polish (:func:`steady_state`), and serves as a verification oracle.

None of the protocol code inspects the sign of ``alpha``: the same staircase
amplifies whichever bias the sample carries.  The only sign-aware routine is
the compression of :func:`optimal_bound_simulate`, a benchmarking oracle
that replaces the staircase with a full population sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .single_shot import reduction_from_excited_mass
from .states import (
    DiagonalState,
    PermutationSpec,
    ground_excited_pair,
    marginal_target,
    pairwise_sum,
    product_state,
    window_swaps,
)

LOCALITIES = ("full", "3local")


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class RefrigeratorConfig:
    """Register layout and schedule: ``n`` qubits, ``m`` resets, ``rounds``."""

    n: int
    m: int
    rounds: int
    locality: str = "full"

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"need n >= 3, got n={self.n}")
        if not 1 <= self.m <= self.n - 1:
            raise ValueError(f"need 1 <= m <= n-1, got m={self.m}, n={self.n}")
        if self.rounds < 1:
            raise ValueError(f"need rounds >= 1, got {self.rounds}")
        if self.locality not in LOCALITIES:
            raise ValueError(f"locality must be one of {LOCALITIES}, got {self.locality!r}")

    @property
    def cost(self) -> int:
        """Fresh qubits consumed per enhanced qubit in steady operation."""
        return self.m * self.rounds + 1


@dataclass(frozen=True)
class SteadyStateResult:
    """Fixed point of the recycle cycle and the polarization it delivers.

    ``ground`` and ``excited`` are the target's masses after the rounds run
    on ``a_fixed``, and ``alpha_enhanced`` is their difference.  ``residual``
    is the L1 distance between ``a_fixed`` and its own recycled image.
    """

    a_fixed: np.ndarray
    alpha_enhanced: float
    cycles_used: int
    residual: float
    ground: float
    excited: float

    def reduction_factor(self, alpha: float, cost: float) -> float:
        """``(alpha^-2 - 1) / (alpha_enhanced^-2 - 1) / cost`` at reservoir
        polarization ``alpha``.

        The enhanced term is read off the target's smaller mass, so it stays
        finite when ``alpha_enhanced`` rounds to +-1, and it is exactly even
        in ``alpha`` because the two masses swap.
        """
        return reduction_from_excited_mass(alpha, min(self.ground, self.excited), cost)


@lru_cache(maxsize=None)
def build_ucj(j: int) -> PermutationSpec:
    """Compression swap on ``j`` qubits: ``|0 1...1>  <->  |1 0...0>``."""
    if j < 2:
        raise ValueError(f"need j >= 2, got {j}")
    return window_swaps(j, [(0, j)])


@lru_cache(maxsize=None)
def build_uqr(n: int) -> PermutationSpec:
    """Full staircase: the swap of ``build_ucj(j)`` on the last ``j`` qubits,
    applied for j = 3 up to n.  All the transpositions are disjoint, so the
    result is an involution."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return window_swaps(n, [(0, j) for j in range(3, n + 1)])


def compression_permutation_for(cfg: RefrigeratorConfig) -> PermutationSpec:
    if cfg.locality == "full":
        return build_uqr(cfg.n)
    from .klocal import build_uqr_3local

    return build_uqr_3local(cfg.n)


#: relabels a full-register population vector, as a staircase's PermutationSpec does
Compression = Callable[[np.ndarray], np.ndarray]


def _round(full: np.ndarray, compress: Compression, m: int) -> np.ndarray:
    """The round kernel: compress a full-register vector and trace its last
    ``m`` (reset) qubits out, leaving the non-reset vector."""
    return pairwise_sum(compress(full).reshape(-1, 1 << m), axis=1)


def round_channel(d: DiagonalState, cfg: RefrigeratorConfig, alpha: float) -> DiagonalState:
    """One compression-plus-reset round on a full ``n``-qubit DiagonalState."""
    if d.n != cfg.n:
        raise ValueError(f"state has {d.n} qubits, config expects {cfg.n}")
    reduced = _round(d.probs, compression_permutation_for(cfg), cfg.m)
    reset = product_state(alpha, cfg.m).probs
    return DiagonalState(cfg.n, np.multiply.outer(reduced, reset).ravel())


def build_round_matrix(
    n: int, m: int, alpha: float, permutation: PermutationSpec | None = None
) -> np.ndarray:
    """Column-stochastic matrix of one round on the non-reset diagonal vector.

    Column ``j`` is the image of the basis vector ``e_j`` under
    permute-then-trace with fresh resets attached, assembled column-by-column
    from the permutation's action on the product layout.
    """
    if n - m < 1:
        raise ValueError(f"need n - m >= 1, got n={n}, m={m}")
    perm = (permutation if permutation is not None else build_uqr(n)).perm
    dim, res_dim = 1 << (n - m), 1 << m
    reset = product_state(alpha, m).probs
    scattered = np.zeros((dim * res_dim, dim))
    src = np.arange(dim * res_dim)
    scattered[perm[src], src // res_dim] = reset[src % res_dim]
    return pairwise_sum(scattered.reshape(dim, res_dim, dim), axis=1)


def _recycle_array(evolved: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Trace the target out of each row and append a qubit in state ``fresh``."""
    half = evolved.shape[-1] >> 1
    reduced = evolved[..., :half] + evolved[..., half:]
    return np.multiply.outer(reduced, fresh).reshape(evolved.shape)


#: one recycle cycle: ``step(a)`` returns ``(recycled, evolved)``, where
#: ``evolved`` is ``a`` after the rounds and ``recycled`` the next input
Step = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _recycle_step(cfg: RefrigeratorConfig, alpha: float, compress: Compression) -> Step:
    """``cfg.rounds`` kernel rounds with fresh resets, then the recycling."""
    reset = product_state(alpha, cfg.m).probs
    fresh = ground_excited_pair(alpha)

    def step(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        for _ in range(cfg.rounds):
            a = _round(np.multiply.outer(a, reset).ravel(), compress, cfg.m)
        return _recycle_array(a, fresh), a

    return step


def recycle_cycle(
    a: np.ndarray, cfg: RefrigeratorConfig, alpha: float
) -> tuple[np.ndarray, float]:
    """Run ``cfg.rounds`` rounds on the vector ``a``, extract the target, and
    rebuild the next input (target removed, fresh qubit appended at the end).

    Returns ``(recycled_vector, alpha_enhanced)``.
    """
    a = np.asarray(a, dtype=float)
    if a.size != 1 << (cfg.n - cfg.m):
        raise ValueError(f"vector has {a.size} entries, expected {1 << (cfg.n - cfg.m)}")
    recycled, evolved = _recycle_step(cfg, alpha, compression_permutation_for(cfg))(a)
    return recycled, marginal_target(evolved)


def fixed_point(
    step: Step, start: np.ndarray, tol: float, max_cycles: int
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Iterate the recycle ``step`` from ``start`` until one cycle moves the
    vector by at most ``tol`` in L1 distance.

    Returns ``(a, evolved, cycles, residual)``: the last iterate, its evolved
    vector, the cycle count and the L1 distance from ``a`` to its own image.
    The cycle maps are L1 non-expansive, so that residual is at most the last
    cycle's move.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a = start
    image, _ = step(a)
    moved = math.inf
    for cycle in range(1, max_cycles + 1):
        moved = float(pairwise_sum(np.abs(image - a)))
        a = image
        image, evolved = step(a)
        if moved <= tol:
            return a, evolved, cycle, float(pairwise_sum(np.abs(image - a)))
    raise ConvergenceError(
        f"did not converge within {max_cycles} cycles (last residual {moved:.3e})", moved
    )


def _steady_result(
    step: Step, start: np.ndarray, tol: float, max_cycles: int, where: str
) -> SteadyStateResult:
    try:
        a, evolved, cycles, residual = fixed_point(step, start, tol, max_cycles)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{where}: {exc}", exc.residual) from None
    half = evolved.size >> 1
    ground = float(pairwise_sum(evolved[:half]))
    excited = float(pairwise_sum(evolved[half:]))
    return SteadyStateResult(a, ground - excited, cycles, residual, ground, excited)


def _stationary_gth(rows: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by Grassmann-Taksar-Heyman
    elimination.

    Each pivot is the off-diagonal mass of its row, so no entry is formed by
    subtraction and tiny stationary masses keep their relative accuracy.
    Raises ZeroDivisionError when a pivot vanishes: some closed set of
    states then avoids index 0.
    """
    p = np.array(rows, dtype=float)
    dim = p.shape[0]
    for k in range(dim - 1, 0, -1):
        pivot = p[k, :k].sum()
        if not pivot > 0.0:
            raise ZeroDivisionError(f"GTH pivot {k} vanishes: the chain has a closed subset")
        p[:k, k] /= pivot
        p[:k, :k] += np.multiply.outer(p[:k, k], p[k, :k])
    pi = np.ones(dim)
    for k in range(1, dim):
        pi[k] = (pi[:k] * p[:k, k]).sum()
    return pi / pi.sum()


def _cycle_rows(cfg: RefrigeratorConfig, alpha: float, matrix: np.ndarray) -> np.ndarray:
    """The recycle cycle ``K R^rounds`` as a row-stochastic matrix: row ``j``
    is the next input when the current one is the basis vector ``e_j``."""
    evolved = np.linalg.matrix_power(matrix, cfg.rounds).T
    return _recycle_array(evolved, ground_excited_pair(alpha))


def _mirrored_seed(cfg: RefrigeratorConfig, alpha: float) -> np.ndarray:
    """Direct solve of the recycle fixed point, made exactly mirror-symmetric.

    The cycle at ``-alpha`` is the cycle at ``alpha`` with every bit flipped,
    so its solution reversed is the same vector up to rounding.  Averaging
    the two makes ``seed(-alpha) == seed(alpha)[::-1]`` hold bit for bit,
    since addition commutes; the staircases commute with the flip, so the
    round matrix at ``-alpha`` is ``matrix[::-1, ::-1]`` bit for bit.  At
    ``|alpha| = 1`` a pure reset leaves a chain with a closed subset; the
    product state is the seed there.
    """
    matrix = build_round_matrix(cfg.n, cfg.m, alpha, compression_permutation_for(cfg))
    try:
        up = _stationary_gth(_cycle_rows(cfg, alpha, matrix))
        down = _stationary_gth(_cycle_rows(cfg, -alpha, matrix[::-1, ::-1]))
    except ZeroDivisionError:
        return product_state(alpha, cfg.n - cfg.m).probs
    return (up + down[::-1]) / 2.0


def steady_state(
    cfg: RefrigeratorConfig,
    alpha: float,
    tol: float = 1e-12,
    max_cycles: int = 10_000,
) -> SteadyStateResult:
    """Fixed point of the recycle cycle, to an L1 residual of ``tol``.

    The stationary vectors of the cycle's matrix ``K R^rounds`` at ``alpha``
    and ``-alpha`` are solved directly and averaged into an exactly
    mirror-symmetric seed.  Order-canonical kernel recycle cycles then polish
    it until one cycle moves it by at most ``tol``; one or two suffice.
    """
    return _steady_result(
        _recycle_step(cfg, alpha, compression_permutation_for(cfg)),
        _mirrored_seed(cfg, alpha),
        tol,
        max_cycles,
        f"steady state at alpha={alpha!r}, rounds={cfg.rounds}",
    )


def _power_ratio(alpha: float, exponent: int) -> float:
    """``tanh(exponent * artanh(alpha))`` for ``|alpha| <= 1``.

    Evaluated through the equivalent power ratio
    ``((1+a)^K - (1-a)^K) / ((1+a)^K + (1-a)^K)`` whenever the powers stay
    within floating-point range, and through ``tanh`` when one overflows.
    The ratio form is exact for small ``K`` and exactly odd in ``alpha``.
    ``K = 1`` returns ``alpha`` itself, so that ``(1 + t) / 2`` reproduces
    the reservoir population ``(1 + alpha) / 2`` bit for bit.
    """
    if abs(alpha) == 1.0:
        return math.copysign(1.0, alpha)
    if exponent == 1:
        return alpha
    try:
        hi = (1.0 + alpha) ** exponent
        lo = (1.0 - alpha) ** exponent
    except OverflowError:
        return math.tanh(exponent * math.atanh(alpha))
    return (hi - lo) / (hi + lo)


def alpha_infinity(n: int, m: int, alpha: float) -> float:
    """Cooling-limit polarization ``tanh(m 2^(n-m-1) artanh(alpha))``.

    Evaluated as the power ratio ``((1+a)^K - (1-a)^K) / ((1+a)^K + (1-a)^K)``
    with ``K = m 2^(n-m-1)``, which is exact for small ``K`` (e.g.
    ``alpha_infinity(3, 2, 0.5) == 0.8``) and exactly odd in ``alpha``; the
    tanh form takes over when a power overflows.
    """
    if abs(alpha) > 1:
        raise ValueError(f"polarization must lie in [-1, 1], got {alpha}")
    return _power_ratio(alpha, m * (1 << (n - m - 1)))


def reduction_factor_qr(cfg: RefrigeratorConfig, alpha: float) -> float:
    """Error-bound reduction of the refrigerator at matched qubit budget.

    ``(alpha^-2 - 1) / (alpha_qr^-2 - 1) / (m * rounds + 1)`` with
    ``alpha_qr`` taken from the steady state's target masses (see
    :meth:`SteadyStateResult.reduction_factor`).
    """
    return steady_state(cfg, alpha).reduction_factor(alpha, cfg.cost)


def optimal_bound_simulate(
    cfg: RefrigeratorConfig,
    alpha: float,
    tol: float = 1e-12,
    max_cycles: int = 10_000,
) -> SteadyStateResult:
    """Upper-bound oracle: the protocol's recycle step, but every round
    applies the optimal sign-aware compression (a full population sort of
    the register) instead of the staircase.

    Unlike the protocol itself, this benchmark's compression branches on the
    sign of ``alpha``: it sorts descending for positive bias and ascending for
    negative bias, which is the best any compression can do.  The sort is
    only piecewise linear, so the iteration starts from the all-fresh state
    rather than from a direct solve.
    """
    sort = (lambda full: np.sort(full)[::-1]) if alpha > 0 else np.sort
    return _steady_result(
        _recycle_step(cfg, alpha, sort),
        product_state(alpha, cfg.n - cfg.m).probs,
        tol,
        max_cycles,
        f"optimal bound at alpha={alpha!r}, rounds={cfg.rounds}",
    )


def reduction_factor_bound(cfg: RefrigeratorConfig, alpha: float) -> float:
    """Reduction factor of the sort-based upper bound, same cost accounting."""
    return optimal_bound_simulate(cfg, alpha).reduction_factor(alpha, cfg.cost)
