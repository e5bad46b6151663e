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
(:func:`steady_states`).  Where a check needs a round as a dense matrix, it
runs the same kernel on the identity.  Each solver hands
:func:`_solve_grid` a compression, a start and a cycle budget;
:func:`_solve_grid` runs every solve's cycles and judges them all by one
relative residual; a row leaves the batch in the cycle it settles.

A grid of reservoir polarizations, at one or more round counts, is solved
as one batch.  Each distinct ``(round count, |alpha|)`` pair owns a row
along a leading batch axis: ``(G, 2^n)`` full registers, ``(G, d)``
non-reset vectors and ``(G, d/2, d/2)`` carried chains with ``d =
2^(n-m)``.  Every operation acts on each row alone with the arithmetic of a
lone solve, and a row's rounds stop at its own count, so a row's result is
bit for bit that of a one-config, one-point grid: ``steady_states(cfg,
[alpha])[0]`` is the steady state and ``optimal_bounds(cfg, [alpha])[0]``
the bound at one polarization.  A figure hands :func:`steady_states` one
config per round count; the bound oracle solves one.  Chunks of the rows
are capped by :data:`CHUNK_BYTES`.

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
from .single_shot import _power_ratio, _reduction
from .states import (
    PermutationSpec,
    _attach,
    _check_count,
    _target,
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

#: largest relative move, ``|image - a| / max(image, a)``, of any entry of
#: a fixed point under its own recycle cycle.  It resolves tiny masses, such
#: as a target's excited mass of 1e-50 near saturation, as well as large ones
RESIDUAL_TOL = 1e-12

#: recycle cycles the sort oracle may iterate toward :data:`RESIDUAL_TOL`
MAX_CYCLES = 10_000


class ConvergenceError(RuntimeError):
    """A fixed point that did not settle, raised by :func:`_solve_grid`
    alone; carries the residual of the first grid alpha it names."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _check_register(n, m) -> None:
    """Raise ValueError unless ``n >= 3`` and ``1 <= m <= n - 1`` are integer
    qubit and reset counts, so the resets leave the target."""
    _check_count("n", n, least=3)
    _check_count("m", m)
    if m > n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got m={m}, n={n}")


@dataclass(frozen=True)
class RefrigeratorConfig:
    """Register layout and schedule: ``n`` qubits, ``m`` resets, ``rounds``."""

    n: int
    m: int
    rounds: int
    locality: str = "full"

    def __post_init__(self) -> None:
        _check_register(self.n, self.m)
        _check_count("rounds", self.rounds)
        if self.locality not in LOCALITIES:
            raise ValueError(f"locality must be one of {LOCALITIES}, got {self.locality!r}")

    @property
    def cost(self) -> int:
        """Fresh qubits consumed per enhanced qubit in steady operation."""
        return self.m * self.rounds + 1


@dataclass(frozen=True)
class SteadyStateResult:
    """Fixed point of the recycle cycle and what a solve measured of it.

    ``residual`` is the largest relative move of an entry of ``a_fixed``
    under its recycle cycle; ``ground`` and ``excited`` are the target's
    masses after the rounds run on ``a_fixed``.
    """

    a_fixed: np.ndarray
    residual: float
    ground: float
    excited: float

    @property
    def alpha_enhanced(self) -> float:
        """The target's mass difference over its mass sum: a drift of the
        total mass never carries it past +-1, and it is exactly odd because
        the two masses swap under the bit flip."""
        return (self.ground - self.excited) / (self.ground + self.excited)

    def reduction_factor(self, alpha: float, cost: float) -> float:
        """``(alpha^-2 - 1) / (alpha_enhanced^-2 - 1) / cost`` at reservoir
        polarization ``alpha``.

        The enhanced term is ``4 ground excited / (ground - excited)^2``, read
        off both masses: it stays finite when ``alpha_enhanced`` rounds to
        +-1, a drift that scales both masses alike leaves it as it is, and it
        is exactly even in ``alpha`` because the two masses swap.
        """
        g, e = self.ground, self.excited
        return _reduction(alpha, 4.0 * (g * e) / (g - e) ** 2 if g != e else math.inf, cost)


@lru_cache(maxsize=None, typed=True)  # n = 3.0 must not hit n = 3's entry
def build_uqr(n: int) -> PermutationSpec:
    """Full staircase: the compression swap ``|0 1...1>  <->  |1 0...0>`` on
    the last ``j`` qubits, applied for j = 3 up to n.  All the transpositions
    are disjoint, so the result is an involution."""
    _check_count("n", n, least=3)
    return window_swaps(n, [(0, j) for j in range(3, n + 1)])


def compression_permutation_for(cfg: RefrigeratorConfig) -> PermutationSpec:
    return {"full": build_uqr, "3local": build_uqr_3local}[cfg.locality](cfg.n)


#: relabels full-register population rows, as a staircase's PermutationSpec does
Compression = Callable[[np.ndarray], np.ndarray]


def _round(full: np.ndarray, compress: Compression, m: int) -> np.ndarray:
    """The round kernel: compress full-register rows and trace their last
    ``m`` (reset) qubits out, leaving the non-reset rows."""
    compressed = compress(full)
    return pairwise_sum(compressed.reshape(compressed.shape[:-1] + (-1, 1 << m)))


#: one recycle cycle: ``step(a)`` returns ``(recycled, evolved)``, where
#: ``evolved`` is ``a`` after the rounds and ``recycled`` the next input
Step = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _recycle_step(cfg: RefrigeratorConfig, alpha, compress: Compression, rounds=None) -> Step:
    """``cfg.rounds`` kernel rounds with fresh resets, then the recycling:
    the target traced out and a fresh qubit appended.  An array of
    polarizations steps one row per entry.  ``rounds``, an array of round
    counts beside ``alpha``, gives each row its own: the kernel runs up to
    the largest, and a row past its own count stays as it is."""
    reset = product_probs(alpha, cfg.m)
    fresh = ground_excited_pair(alpha)
    counts = np.asarray(cfg.rounds if rounds is None else rounds)[..., None]
    least, top = int(counts.min()), int(counts.max())

    def step(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        for k in range(1, top + 1):
            stepped = _round(_attach(a, reset), compress, cfg.m)
            a = stepped if k <= least else np.where(counts < k, a, stepped)
        half = a.shape[-1] >> 1
        return _attach(a[..., :half] + a[..., half:], fresh), a

    return step


def _mirror(result: SteadyStateResult) -> SteadyStateResult:
    """The result at ``-alpha``, given the result at ``alpha``."""
    return SteadyStateResult(result.a_fixed[::-1], result.residual, result.excited,
                             result.ground)


def _solve_grid(
    cfgs: list[RefrigeratorConfig],
    alphas,
    compress: Compression,
    start: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cycles: int,
    what: str,
) -> list[list[SteadyStateResult]]:
    """One fixed point per config of ``cfgs`` (which differ in ``rounds``
    alone) and entry of ``alphas``, one list per config in grid order: the
    one cycle loop, the only code that reads the sign of ``alpha``, and the
    only code that judges a solve.

    Each distinct ``(rounds, |alpha|)`` pair is a row, solved once, rounds
    in the order of ``cfgs`` and magnitudes in grid order, on chunks capped
    by :data:`CHUNK_BYTES`: the recycle step with ``compress`` runs each
    row's own round count from ``start(rounds, chunk)`` for at most
    ``cycles`` cycles.  A row settles at the first iterate whose own cycle
    moves every entry by at most :data:`RESIDUAL_TOL` relative, ``|image -
    a| <= tol max(image, a)``, where an entry that is 0 on both sides moves
    0 and a NaN never settles.  It leaves the batch in the cycle it settles,
    with that iterate, its evolved vector's target masses and that move as
    its residual; the rest step on, and rows never mix.  A negative alpha
    gets the mirror image of its ``|alpha|`` result, which is its own solve
    bit for bit: the kernel, the staircases and the sort commute with the
    bit flip.  The first row of a chunk still in the batch when the budget
    ends raises :class:`ConvergenceError`, naming ``what``, the first grid
    alpha of that row, its rounds and its last move (``inf`` if no cycle
    ran).
    """
    grid = [float(alpha) for alpha in alphas]
    distinct = list(dict.fromkeys(abs(alpha) for alpha in grid))
    pairs = [(rounds, alpha) for rounds in dict.fromkeys(cfg.rounds for cfg in cfgs)
             for alpha in distinct]
    cfg = cfgs[0]
    half = 1 << (cfg.n - cfg.m - 1)
    size = max(1, CHUNK_BYTES // (8 * half * half))
    solved: dict[tuple[int, float], SteadyStateResult] = {}
    for low in range(0, len(pairs), size):
        keys = pairs[low:low + size]
        rounds, chunk = (np.array(column) for column in zip(*keys))
        step, a = _recycle_step(cfg, chunk, compress, rounds), start(rounds, chunk)
        live, move = np.arange(len(keys)), np.full(chunk.shape, np.inf)
        for _ in range(cycles):
            image, evolved = step(a)
            move = np.abs(image - a)
            np.divide(move, np.maximum(image, a), out=move, where=move > 0.0)
            move = move.max(axis=-1)
            settled = move <= RESIDUAL_TOL
            if settled.any():
                rows = zip(live[settled], a[settled], move[settled], *_target(evolved[settled]))
                for row, fixed, *measured in rows:  # residual, ground, excited
                    solved[keys[row]] = SteadyStateResult(fixed, *map(float, measured))
                live, image, move = live[~settled], image[~settled], move[~settled]
                if not live.size:
                    break
                step = _recycle_step(cfg, chunk[live], compress, rounds[live])
            a = image
        if live.size:
            row = live[0]
            alpha = next(alpha for alpha in grid if abs(alpha) == chunk[row])
            raise ConvergenceError(f"{what} at alpha={alpha!r}, rounds={rounds[row]}: relative "
                                   f"residual {move[0]:.3e} is not within "
                                   f"{RESIDUAL_TOL:g}", float(move[0]))
    return [[_mirror(solved[cfg.rounds, -alpha]) if alpha < 0 else solved[cfg.rounds, alpha]
             for alpha in grid] for cfg in cfgs]


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
    cfg: RefrigeratorConfig, alphas: np.ndarray, permutation: PermutationSpec, rounds=None
) -> np.ndarray:
    """The carried chains of the recycle cycle at each of ``alphas``, as
    stacked row-stochastic ``d/2 x d/2`` matrices with ``d = 2^(n-m)``;
    ``rounds``, an array of round counts beside ``alphas``, gives each
    matrix its own count, ``cfg.rounds`` by default.

    Row ``i`` is the carried part (the target traced out) of the register
    after the rounds, when the input is ``e_i`` with a fresh qubit appended.
    The rows are composed sparsely from the staircase's index map, one round
    at a time: entry ``j`` of the non-reset vector moves to ``perm[j 2^m +
    s] // 2^m`` with the weight of reset pattern ``s``.  Each entry is keyed
    by its row and column; the keys do not depend on alpha, so the distinct
    alphas share them and each sums its weights as a lone one would.  One
    pass runs up to the largest count and folds the target out at each
    count listed, so a matrix is bit for bit the one a pass of its own count
    composes.
    """
    half = 1 << (cfg.n - cfg.m - 1)
    dim, res_dim = 2 * half, 1 << cfg.m
    alphas = np.asarray(alphas)
    counts = np.broadcast_to(cfg.rounds if rounds is None else rounds, alphas.shape).ravel()
    values, inverse = np.unique(alphas.ravel(), return_inverse=True)
    reset = product_probs(values, cfg.m)
    images = (permutation.perm // res_dim).reshape(dim, res_dim)
    # key = row * d + column; row i starts at columns 2i and 2i + 1
    keys = (np.arange(dim) >> 1) * dim + np.arange(dim)
    weights = np.tile(ground_excited_pair(values), half)
    carried = np.zeros(counts.shape + (half * half,))
    for k in range(1, int(counts.max()) + 1):
        cols = keys % dim
        keys, weights = _merge(((keys - cols)[:, None] + images[cols]).ravel(),
                               _attach(weights, reset))
        rows = np.flatnonzero(counts == k)
        if rows.size:
            folded, sums = _merge(keys // dim * half + keys % half, weights)
            carried[rows[:, None], folded] = sums[inverse[rows]]
    return carried.reshape(alphas.shape + (half, half))


def steady_states(cfg, alphas) -> list:
    """Fixed points of the recycle cycle at each polarization of a grid, as
    one batched solve checked by one cycle.

    ``cfg`` is one :class:`RefrigeratorConfig`, which gives one result per
    grid alpha, or a sequence of configs that differ in ``rounds`` alone,
    which gives one such list per config: every ``(rounds, |alpha|)`` pair
    is a row of the one solve (:func:`_solve_grid`), and each row's result
    is bit for bit the one-config, one-point solve's.

    Every recycled input ends in a fresh qubit, so the cycle's stationary
    vector is ``v (x) fresh``, where ``v`` is the stationary vector of the
    carried chain on the ``d/2`` states the recycle carries over
    (:func:`_carried_cycle_rows`, ``d = 2^(n-m)``, one pass per chunk up to
    its largest round count).  ``v`` is solved at ``|alpha|`` by the
    blocked GTH elimination of :func:`_stationary_gth`, one call per chunk,
    and ``v (x) fresh`` is renormalized, because the fresh masses need not
    sum to exactly 1; a negative alpha gets its exact mirror
    (:func:`_solve_grid`).  That solve costs ``O((d/2)^3)``, most of it one
    matmul per panel of :data:`GTH_PANEL` states, and dominates the call
    from ``n = 10`` on.  The product state stands in at ``alpha = 0``,
    where it is the exact fixed point, and at ``|alpha| = 1``, where a pure
    reset leaves a chain with a closed subset.  :func:`_solve_grid` runs one
    kernel recycle cycle from that seed, up to the chunk's largest round
    count, which measures each row's relative residual and target masses at
    its own count, and judges the rows.
    """
    single = isinstance(cfg, RefrigeratorConfig)
    cfgs = [cfg] if single else list(cfg)
    if len({(c.n, c.m, c.locality) for c in cfgs}) != 1:
        raise ValueError("steady_states needs one or more configs that differ in rounds alone")
    base = cfgs[0]
    permutation = compression_permutation_for(base)

    def seed(rounds: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        carried = _stationary_gth(_carried_cycle_rows(base, chunk, permutation, rounds))
        a = _attach(carried, ground_excited_pair(chunk))
        a /= a.sum(axis=-1, keepdims=True)
        product = (chunk == 0.0) | np.isnan(a).any(axis=-1)
        a[product] = product_probs(chunk[product], base.n - base.m)
        return a

    solved = _solve_grid(cfgs, alphas, permutation, seed, 1, "steady state")
    return solved[0] if single else solved


def alpha_infinity(n: int, m: int, alpha: float) -> float:
    """Cooling-limit polarization ``tanh(m 2^(n-m-1) artanh(alpha))``, by the
    power ratio of :func:`coolsign.single_shot._power_ratio`: exact for small
    exponents (``alpha_infinity(3, 2, 0.5) == 0.8``) and exactly odd.  The
    steady state tends to it as the rounds grow for ``m >= 2`` only."""
    _check_register(n, m)
    return _power_ratio(alpha, m * (1 << (n - m - 1)))


def optimal_bounds(cfg: RefrigeratorConfig, alphas) -> list[SteadyStateResult]:
    """Upper-bound oracle at each polarization of a grid, as one batched
    solve: the protocol's recycle step, but every round applies the optimal
    compression (a full population sort of the register) instead of the
    staircase.

    The sort runs descending at ``|alpha|``, the best any compression can do
    for a positive bias; a negative alpha gets the exact mirror, which is the
    ascending sort's solve (:func:`_solve_grid`).  The sort is only piecewise
    linear, so :func:`_solve_grid` iterates from the all-fresh state, rather
    than from a direct solve, to a relative residual of :data:`RESIDUAL_TOL`
    within :data:`MAX_CYCLES` cycles, and judges the rows.
    """

    def sort(full: np.ndarray) -> np.ndarray:
        return np.sort(full, axis=-1)[..., ::-1]

    def fresh(rounds: np.ndarray, chunk: np.ndarray) -> np.ndarray:
        return product_probs(chunk, cfg.n - cfg.m)

    return _solve_grid([cfg], alphas, sort, fresh, MAX_CYCLES, "optimal bound")[0]
