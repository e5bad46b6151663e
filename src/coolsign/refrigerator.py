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
the resets out.  The fixed point is solved directly on the carried chain, the
chain on the qubits that the recycle carries into the next cycle, composed
sparsely from the same index map, and checked by one kernel cycle
(:func:`steady_states`).  A round is also a column-stochastic matrix on the
non-reset vector (:func:`build_round_matrix`), which serves only as a
verification oracle.

A grid of reservoir polarizations is solved as one batch.  Each distinct
``|alpha|`` owns a row along a leading batch axis: ``(G, 2^n)`` full
registers, ``(G, d)`` non-reset vectors and ``(G, d/2, d/2)`` carried chains
with ``d = 2^(n-m)``.  Every operation acts on each row alone with the
arithmetic of a lone solve, so a row's result is bit for bit that of a
one-point grid: ``steady_states(cfg, [alpha])[0]`` is the steady state and
``optimal_bounds(cfg, [alpha])[0]`` the bound at one polarization.  Chunks
of the grid are capped by :data:`CHUNK_BYTES`.

The kernel and the staircases never read the sign of ``alpha``: the same
staircase amplifies whichever bias the sample carries, and the fixed point at
``-alpha`` is the one at ``alpha`` with every bit flipped.  The solvers
therefore solve ``|alpha|`` and return the exact mirror for a negative alpha;
:func:`_solve_grid` is the one place that reads the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .klocal import build_uqr_3local
from .single_shot import _power_ratio
from .states import (
    PermutationSpec,
    _attach,
    ground_excited_pair,
    pairwise_sum,
    product_probs,
    window_swaps,
)

LOCALITIES = ("full", "3local")


#: bytes of stacked ``d/2 x d/2`` carried chains (``d = 2^(n-m)``) one chunk
#: of a batched solve may hold.  Batching pays where per-call overhead
#: dominates (small ``d``); from ``d = 512`` a chunk is one point, so it holds
#: what a lone solve holds
CHUNK_BYTES = 512 << 10

#: states one panel of the blocked GTH elimination holds.  A panel's steps
#: are element-wise and the update they leave for the states below it is one
#: matmul.  16 and 32 measured alike from ``d = 256`` and 64 slower at
#: ``d = 1024``; 32 keeps every matrix of ``d <= 32`` in one panel
GTH_PANEL = 32

#: largest L1 distance between a fixed point and its own recycled image
RESIDUAL_TOL = 1e-12

#: recycle cycles the sort oracle may iterate toward :data:`RESIDUAL_TOL`
MAX_CYCLES = 10_000


class ConvergenceError(RuntimeError):
    """A steady state failed its check by one cycle, or the sort oracle did
    not converge; carries the residual and the flat index of the batch row."""

    def __init__(self, message: str, residual: float, row: int = 0):
        super().__init__(message)
        self.residual = residual
        self.row = row


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
    on ``a_fixed``, and ``alpha_enhanced`` is their difference over their
    sum, so a drift of the total mass never carries it past +-1.  ``residual``
    is the L1 distance between ``a_fixed`` and its recycled image.
    """

    a_fixed: np.ndarray
    alpha_enhanced: float
    residual: float
    ground: float
    excited: float

    def reduction_factor(self, alpha: float, cost: float) -> float:
        """``(alpha^-2 - 1) / (alpha_enhanced^-2 - 1) / cost`` at reservoir
        polarization ``alpha``.

        The enhanced term is ``4 ground excited / (ground - excited)^2``, read
        off both masses: it stays finite when ``alpha_enhanced`` rounds to
        +-1, a drift that scales both masses alike leaves it as it is, and it
        is exactly even in ``alpha`` because the two masses swap.
        """
        if alpha == 0.0:
            raise ZeroDivisionError("reduction factor is undefined at alpha = 0")
        enhanced = 4.0 * (self.ground * self.excited) / (self.ground - self.excited) ** 2
        if enhanced == 0.0:
            return math.inf
        return (1.0 - alpha * alpha) / (alpha * alpha) / enhanced / cost


@lru_cache(maxsize=None)
def build_uqr(n: int) -> PermutationSpec:
    """Full staircase: the compression swap ``|0 1...1>  <->  |1 0...0>`` on
    the last ``j`` qubits, applied for j = 3 up to n.  All the transpositions
    are disjoint, so the result is an involution."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return window_swaps(n, [(0, j) for j in range(3, n + 1)])


def compression_permutation_for(cfg: RefrigeratorConfig) -> PermutationSpec:
    if cfg.locality == "full":
        return build_uqr(cfg.n)
    return build_uqr_3local(cfg.n)


#: relabels full-register population rows, as a staircase's PermutationSpec does
Compression = Callable[[np.ndarray], np.ndarray]


def _round(full: np.ndarray, compress: Compression, m: int) -> np.ndarray:
    """The round kernel: compress full-register rows and trace their last
    ``m`` (reset) qubits out, leaving the non-reset rows."""
    compressed = compress(full)
    return pairwise_sum(compressed.reshape(compressed.shape[:-1] + (-1, 1 << m)))


def build_round_matrix(
    n: int, m: int, alpha, permutation: PermutationSpec | None = None
) -> np.ndarray:
    """Column-stochastic matrix of one round on the non-reset diagonal vector.

    Column ``j`` is the image of the basis vector ``e_j`` under
    permute-then-trace with fresh resets attached, assembled column-by-column
    from the permutation's action on the product layout.  An array of
    polarizations gives a stack of matrices, one per entry.

    Each image is scattered into one ``d x d`` slice per reset pattern, and
    the slices are folded in place in :func:`pairwise_sum`'s order, so the
    build holds ``2^m + 1`` matrices at its peak.
    """
    if n - m < 1:
        raise ValueError(f"need n - m >= 1, got n={n}, m={m}")
    perm = (permutation if permutation is not None else build_uqr(n)).perm
    dim, res_dim = 1 << (n - m), 1 << m
    reset = product_probs(alpha, m)
    scattered = np.zeros(reset.shape[:-1] + (res_dim, dim, dim))
    src = np.arange(dim * res_dim)
    scattered[..., perm % res_dim, perm // res_dim, src // res_dim] = reset[..., src % res_dim]
    step = 1
    while step < res_dim:
        scattered[..., ::2 * step, :, :] += scattered[..., step::2 * step, :, :]
        step *= 2
    return scattered[..., 0, :, :].copy()


#: one recycle cycle: ``step(a)`` returns ``(recycled, evolved)``, where
#: ``evolved`` is ``a`` after the rounds and ``recycled`` the next input
Step = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _recycle_step(cfg: RefrigeratorConfig, alpha, compress: Compression) -> Step:
    """``cfg.rounds`` kernel rounds with fresh resets, then the recycling:
    the target traced out and a fresh qubit appended.  An array of
    polarizations steps one row per entry."""
    reset = product_probs(alpha, cfg.m)
    fresh = ground_excited_pair(alpha)

    def step(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        for _ in range(cfg.rounds):
            a = _round(_attach(a, reset), compress, cfg.m)
        half = a.shape[-1] >> 1
        return _attach(a[..., :half] + a[..., half:], fresh), a

    return step


def _target(evolved: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ground, excited, polarization)`` of the target qubit of each row.

    The polarization is the mass difference over the mass sum: it stays
    within [-1, 1] when the rounds drift the total mass off 1, and it is
    exactly odd because the two masses swap under the bit flip.
    """
    half = evolved.shape[-1] >> 1
    ground = pairwise_sum(evolved[..., :half])
    excited = pairwise_sum(evolved[..., half:])
    return ground, excited, (ground - excited) / (ground + excited)


#: ``(a, evolved, residual)``, one row per polarization of a solve
Solved = tuple[np.ndarray, np.ndarray, np.ndarray]


def fixed_point(step: Step, start: np.ndarray, tol: float, max_cycles: int) -> Solved:
    """Iterate the recycle ``step`` from ``start`` until one cycle moves each
    row by at most ``tol`` in L1 distance.

    Vectors lie along the last axis and rows along any leading axes.  Each
    row keeps what it had at the cycle where it converged: returns
    ``(a, evolved, residual)``, the iterate, its evolved vector and the L1
    distance from the iterate to its own image.  Rows that have converged
    step on with the rest; rows never mix, so their records stay as they
    were.  The cycle maps are L1 non-expansive, so a residual is at most
    its row's last move.
    """
    image, evolved = step(start)
    moved = pairwise_sum(np.abs(image - start))
    done = np.zeros(moved.shape, dtype=bool)
    fixed, fixed_evolved, residual = start, evolved, moved
    for _ in range(max_cycles):
        a = image
        image, evolved = step(a)
        remaining = pairwise_sum(np.abs(image - a))
        now = (moved <= tol) & ~done
        fixed = np.where(now[..., None], a, fixed)
        fixed_evolved = np.where(now[..., None], evolved, fixed_evolved)
        residual = np.where(now, remaining, residual)
        done |= now
        if done.all():
            return fixed, fixed_evolved, residual
        moved = remaining
    row = int(np.flatnonzero(~done)[0])
    last = float(np.ravel(moved)[row])
    raise ConvergenceError(
        f"did not converge within {max_cycles} cycles (last residual {last:.3e})", last, row
    )


def _mirror(result: SteadyStateResult) -> SteadyStateResult:
    """The result at ``-alpha``, given the result at ``alpha``."""
    return SteadyStateResult(result.a_fixed[::-1], -result.alpha_enhanced, result.residual,
                             result.excited, result.ground)


def _solve_grid(
    cfg: RefrigeratorConfig, alphas, solve: Callable[[np.ndarray], Solved], what: str
) -> list[SteadyStateResult]:
    """One fixed point per entry of ``alphas``, in grid order: the one
    solver driver, and the only code that reads the sign of ``alpha``.

    Each distinct ``|alpha|`` is solved once, by ``solve(chunk)`` on chunks
    capped by :data:`CHUNK_BYTES`.  A negative alpha gets the mirror image of its
    ``|alpha|`` result, which is its own solve bit for bit: the kernel, the
    staircases and the sort commute with the bit flip.  A failure names the
    first grid alpha of the failing row.
    """
    grid = [float(alpha) for alpha in alphas]
    distinct = list(dict.fromkeys(abs(alpha) for alpha in grid))
    half = 1 << (cfg.n - cfg.m - 1)
    size = max(1, CHUNK_BYTES // (8 * half * half))
    solved: dict[float, SteadyStateResult] = {}
    for low in range(0, len(distinct), size):
        chunk = np.array(distinct[low:low + size])
        try:
            a, evolved, residual = solve(chunk)
        except ConvergenceError as exc:
            alpha = next(alpha for alpha in grid if abs(alpha) == chunk[exc.row])
            where = f"{what} at alpha={alpha!r}, rounds={cfg.rounds}"
            raise ConvergenceError(f"{where}: {exc}", exc.residual) from None
        ground, excited, enhanced = _target(evolved)
        for i, key in enumerate(distinct[low:low + size]):
            solved[key] = SteadyStateResult(a[i], float(enhanced[i]), float(residual[i]),
                                            float(ground[i]), float(excited[i]))
    return [_mirror(solved[-alpha]) if alpha < 0 else solved[alpha] for alpha in grid]


def _stationary_gth(rows: np.ndarray) -> np.ndarray:
    """Stationary vectors of row-stochastic matrices, stacked along any
    leading axes, by Grassmann-Taksar-Heyman elimination.

    Each pivot is the off-diagonal mass of its row, so no entry is formed by
    subtraction and tiny stationary masses keep their relative accuracy.
    A matrix whose pivot vanishes gets a NaN vector: some closed set of its
    states avoids index 0.

    States are eliminated from the last down, in panels of
    :data:`GTH_PANEL` states aligned on multiples of it (a right-looking
    blocked elimination).  Within a panel each step updates only the
    panel's rows and the panel's columns above them; the block above and
    left of the panel then takes all of the panel's rank-one terms in one
    matmul.  Those terms are products of non-negative entries, so blocking
    keeps the relative accuracy.  The panel holding state 0 has nothing
    above it, so a matrix of at most :data:`GTH_PANEL` states runs the
    one-state-at-a-time updates alone.
    """
    p = np.array(rows, dtype=float)
    dim = p.shape[-1]
    for low in range((dim - 1) // GTH_PANEL * GTH_PANEL, -1, -GTH_PANEL):
        top = min(dim, low + GTH_PANEL)
        for k in range(top - 1, max(low, 1) - 1, -1):
            pivot = p[..., k, :k].sum(axis=-1)
            pivot = np.where(pivot > 0.0, pivot, np.nan)
            p[..., :k, k] /= pivot[..., None]
            p[..., low:k, :k] += p[..., low:k, k, None] * p[..., k, None, :k]
            if low:
                p[..., :low, low:k] += p[..., :low, k, None] * p[..., k, None, low:k]
        p[..., :low, :low] += p[..., :low, low:top] @ p[..., low:top, :low]
    pi = np.ones(p.shape[:-1])
    for k in range(1, dim):
        pi[..., k] = (pi[..., :k] * p[..., :k, k]).sum(axis=-1)
    return pi / pi.sum(axis=-1, keepdims=True)


def _merge(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the weights of equal keys: returns the sorted distinct keys and,
    along the last axis of ``weights``, each one's summed weight, added in
    the order the entries came."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(weights[..., order], starts, axis=-1)


def _carried_cycle_rows(
    cfg: RefrigeratorConfig, alphas: np.ndarray, permutation: PermutationSpec
) -> np.ndarray:
    """The carried chains of the recycle cycle at each of ``alphas``, as
    stacked row-stochastic ``d/2 x d/2`` matrices with ``d = 2^(n-m)``.

    Row ``i`` is the carried part (the target traced out) of the register
    after the rounds, when the input is ``e_i`` with a fresh qubit appended.
    The rows are composed sparsely from the staircase's index map, one round
    at a time: entry ``j`` of the non-reset vector moves to ``perm[j 2^m +
    s] // 2^m`` with the weight of reset pattern ``s``.  Each entry is keyed
    by its row and column; the keys do not depend on alpha, so the batch
    rows share them and each row sums its weights as a lone one would.
    """
    half = 1 << (cfg.n - cfg.m - 1)
    dim, res_dim = 2 * half, 1 << cfg.m
    reset = product_probs(alphas, cfg.m)
    images = (permutation.perm // res_dim).reshape(dim, res_dim)
    # key = row * d + column; row i starts at columns 2i and 2i + 1
    keys = (np.arange(dim) >> 1) * dim + np.arange(dim)
    weights = np.tile(ground_excited_pair(alphas), half)
    for _ in range(cfg.rounds):
        cols = keys % dim
        keys, weights = _merge(((keys - cols)[:, None] + images[cols]).ravel(),
                               _attach(weights, reset))
    keys, weights = _merge(keys // dim * half + keys % half, weights)
    carried = np.zeros(alphas.shape + (half * half,))
    carried[..., keys] = weights
    return carried.reshape(alphas.shape + (half, half))


def steady_states(cfg: RefrigeratorConfig, alphas) -> list[SteadyStateResult]:
    """Fixed points of the recycle cycle at each polarization of a grid, as
    one batched solve checked by one cycle.

    Every recycled input ends in a fresh qubit, so the cycle's stationary
    vector is ``v (x) fresh``, where ``v`` is the stationary vector of the
    carried chain on the ``d/2`` states the recycle carries over
    (:func:`_carried_cycle_rows`, ``d = 2^(n-m)``).  ``v`` is solved at
    ``|alpha|`` by the blocked GTH elimination of :func:`_stationary_gth`,
    one call per chunk, and ``v (x) fresh`` is renormalized, because the
    fresh masses need not sum to exactly 1; a negative alpha gets its exact
    mirror (:func:`_solve_grid`).  That solve costs ``O((d/2)^3)``, most of
    it one matmul per panel of :data:`GTH_PANEL` states, and dominates the
    call from ``n = 10`` on.  The product state stands in at ``alpha = 0``,
    where it is the exact fixed point, and at ``|alpha| = 1``, where a pure
    reset leaves a chain with a closed subset.  One kernel recycle cycle
    then checks the solve and reads its target masses; a row it moves by
    more than :data:`RESIDUAL_TOL` in L1 distance raises
    :class:`ConvergenceError`.
    """
    permutation = compression_permutation_for(cfg)

    def solve(chunk: np.ndarray) -> Solved:
        carried = _stationary_gth(_carried_cycle_rows(cfg, chunk, permutation))
        a = _attach(carried, ground_excited_pair(chunk))
        a /= a.sum(axis=-1, keepdims=True)
        product = (chunk == 0.0) | np.isnan(a).any(axis=-1)
        a[product] = product_probs(chunk[product], cfg.n - cfg.m)
        image, evolved = _recycle_step(cfg, chunk, permutation)(a)
        residual = pairwise_sum(np.abs(image - a))
        failed = np.flatnonzero(~(residual <= RESIDUAL_TOL))  # a NaN fails too
        if failed.size:
            row = int(failed[0])
            raise ConvergenceError(
                f"residual {residual[row]:.3e} after one cycle is above {RESIDUAL_TOL:g}",
                float(residual[row]), row)
        return a, evolved, residual

    return _solve_grid(cfg, alphas, solve, "steady state")


def alpha_infinity(n: int, m: int, alpha: float) -> float:
    """Cooling-limit polarization ``tanh(m 2^(n-m-1) artanh(alpha))``, by the
    power ratio of :func:`coolsign.single_shot._power_ratio`: exact for small
    exponents (``alpha_infinity(3, 2, 0.5) == 0.8``) and exactly odd."""
    return _power_ratio(alpha, m * (1 << (n - m - 1)))


def optimal_bounds(cfg: RefrigeratorConfig, alphas) -> list[SteadyStateResult]:
    """Upper-bound oracle at each polarization of a grid, as one batched
    solve: the protocol's recycle step, but every round applies the optimal
    compression (a full population sort of the register) instead of the
    staircase.

    The sort runs descending at ``|alpha|``, the best any compression can do
    for a positive bias; a negative alpha gets the exact mirror, which is the
    ascending sort's solve (:func:`_solve_grid`).  The sort is only piecewise
    linear, so :func:`fixed_point` iterates from the all-fresh state, rather
    than from a direct solve, to a residual of :data:`RESIDUAL_TOL` within
    :data:`MAX_CYCLES` cycles.
    """

    def sort(full: np.ndarray) -> np.ndarray:
        return np.sort(full, axis=-1)[..., ::-1]

    def solve(chunk: np.ndarray) -> Solved:
        return fixed_point(_recycle_step(cfg, chunk, sort), product_probs(chunk, cfg.n - cfg.m),
                           RESIDUAL_TOL, MAX_CYCLES)

    return _solve_grid(cfg, alphas, solve, "optimal bound")
