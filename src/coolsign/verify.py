"""Pinned verification suites behind the command line's ``--suite`` flag.

Each suite re-derives a module's key guarantees on a fixed grid and reports
worst-case residuals, so a release can be smoke-checked without the test
harness.  Acceptance criteria 1, 6 and 8 run these suites as shipped.

The theorem-1 and bqr-oracle suites run a register size's polarization grid
as rows along a leading axis.  Their references (the sorted full register,
and the full recycle cycle the steady states are checked against) go in
blocks of at most :data:`_BLOCK_BYTES` of rows, so a suite's memory stays
flat as ``n`` grows.  Every row goes through the arithmetic of a lone
one-state call, so each residual equals, bit for bit, the one a loop over
single points reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import klocal, refrigerator, sampling, single_shot, states


#: bytes of rows one block of a suite may hold; its temporaries are a few
#: times this
_BLOCK_BYTES = 64 << 10


def _blocks(values: np.ndarray, row_bytes: int) -> list[np.ndarray]:
    """Consecutive slices of ``values``, as many per slice as rows of
    ``row_bytes`` fit in :data:`_BLOCK_BYTES` (at least one)."""
    size = max(1, _BLOCK_BYTES // row_bytes)
    return [values[i:i + size] for i in range(0, len(values), size)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: max residual {self.residual:.3e} (tol {self.tolerance:.0e})"


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, residual <= tolerance, float(residual), tolerance)


def verify_theorem1() -> list[CheckResult]:
    alphas = np.round(np.arange(0.01, 0.9901, 0.01), 10)
    alphas = np.concatenate([-alphas[::-1], alphas])
    worst_closed = 0.0
    worst_gain = 0.0
    sign_ok = True
    for n in range(3, 10):
        closed = np.array([single_shot.alpha_ac(n, a) for a in alphas.tolist()])
        # the value sort reads no sign, so it holds |alpha_ac|
        targets = np.concatenate([
            states.marginal_targets(np.sort(states.product_probs(block, n))[..., ::-1])
            for block in _blocks(alphas, 8 << n)
        ])
        worst_closed = max(worst_closed, float(np.max(np.abs(np.abs(closed) - targets))))
        worst_gain = max(worst_gain, float(np.max(np.abs(alphas) - np.abs(closed))))
        sign_ok &= bool(np.all(np.sign(closed) == np.sign(alphas)))
    spot = abs(single_shot.alpha_ac(3, 0.5) - float(Fraction(11, 16)))
    return [
        _check("theorem1 closed form vs sort oracle", worst_closed, 1e-12),
        _check("theorem1 |alpha_ac| >= |alpha|", worst_gain, 0.0),
        _check("theorem1 sign preserved", 0.0 if sign_ok else 1.0, 0.0),
        _check("theorem1 alpha_ac(3, 0.5) = 11/16", spot, 0.0),
    ]


def _listed_staircase(n: int) -> states.PermutationSpec:
    """The full staircase composed one transposition at a time, listed from
    the basis patterns ``x 0 1...1 <-> x 1 0...0`` of each width j = 3..n:
    an oracle that shares no code with :func:`refrigerator.build_uqr`."""
    image = np.arange(1 << n)
    for j in range(3, n + 1):
        low = (np.arange(1 << (n - j)) << j) + (1 << (j - 1)) - 1
        swap = np.arange(1 << n)
        swap[low], swap[low + 1] = low + 1, low
        image = swap[image]
    return states.PermutationSpec(n, image)


def _round_rows(n: int, m: int, alpha, perm: states.PermutationSpec) -> np.ndarray:
    """One round as a row-stochastic matrix: row ``i`` is the round kernel's
    image of ``e_i`` with fresh resets attached.  An array of polarizations
    gives a stack of matrices, one per entry."""
    reset = states.product_probs(alpha, m)
    eye = np.eye(1 << (n - m))
    eye = np.broadcast_to(eye, reset.shape[:-1] + eye.shape)
    return refrigerator._round(states._attach(eye, reset[..., None, :]), perm, m)


def verify_bqr_oracle() -> list[CheckResult]:
    alphas = np.array([0.1, 0.5, 0.9])
    worst = 0.0
    try:
        for n in range(3, 8):
            listed = _listed_staircase(n)
            for m in (1, 2, 3):
                if m > n - 1:
                    continue
                cfg = refrigerator.RefrigeratorConfig(n, m, 3)
                got = np.array([r.a_fixed for r in refrigerator.steady_states(cfg, alphas)])
                # the reference: GTH on the full 2^(n-m)-state recycle cycle
                eye = np.eye(1 << (n - m))
                want = []
                for block in _blocks(alphas, eye.nbytes << m):
                    step = refrigerator._recycle_step(cfg, block[:, None], listed)
                    want.append(refrigerator._stationary_gth(
                        step(np.broadcast_to(eye, block.shape + eye.shape))[0]))
                want = np.concatenate(want)
                worst = float(np.max([worst, np.abs(got - want).max()]))  # keeps a NaN
    except refrigerator.ConvergenceError as exc:
        worst = exc.residual
    col_worst = 0.0
    rng = np.random.default_rng(20240611)
    for _ in range(5):
        alpha = float(rng.uniform(-0.95, 0.95))
        rows = _round_rows(5, 2, alpha, refrigerator.build_uqr(5))
        col_worst = max(col_worst, float(np.abs(rows.sum(axis=-1) - 1.0).max()))
    return [
        _check("bqr steady state vs full recycle cycle (n<=7)", worst, 1e-12),
        _check("bqr round matrices column-stochastic", col_worst, 1e-12),
    ]


def verify_klocal_fixedpoint() -> list[CheckResult]:
    worst_factor = 0.0
    worst_tanh = 0.0
    for n in (4, 5, 6):
        perm = klocal.build_uqr_3local(n)
        for alpha in (0.2, 0.5, 0.8):
            fixed = refrigerator._stationary_gth(_round_rows(n, 2, alpha, perm))
            pops = klocal.asymptotic_population_vector(n, alpha)
            product = np.array([1.0])
            for pop in pops[:1:-1]:  # target down to last auxiliary
                product = np.kron(product, np.array([pop, 1.0 - pop]))
            worst_factor = max(worst_factor, float(np.abs(fixed - product).max()))
            target = klocal.alpha_infinity_3local(n, alpha)
            worst_tanh = max(worst_tanh, abs(float(states.marginal_targets(fixed)) - target))
    return [
        _check("3-local steady state factorizes (fibonacci populations)", worst_factor, 1e-9),
        _check("3-local asymptotic polarization tanh(F_n artanh)", worst_tanh, 1e-9),
    ]


def verify_sampling() -> list[CheckResult]:
    oracle = sum(
        comb(25, s) * Fraction(6, 10) ** s * Fraction(4, 10) ** (25 - s) for s in range(13)
    )
    cdf_residual = abs(sampling.exact_sign_error(0.2, 25) - float(oracle))

    worst_band = 0.0
    worst_dominance = 0.0
    alphas = (0.1, 0.2, 0.4, -0.3, 0.6)
    for k in (5, 24, 101):
        mcs = sampling.monte_carlo_sign_errors(alphas, k, 100_000, 20240613)
        for alpha, mc in zip(alphas, mcs):
            exact = sampling.exact_sign_error(alpha, k)
            stderr = max(np.sqrt(exact * (1 - exact) / 100_000), 1e-12)
            worst_band = max(worst_band, abs(mc - exact) / stderr / 4.0)
            worst_dominance = max(worst_dominance, exact - sampling.predict_error_bound(alpha, k))
    return [
        _check("exact_sign_error(0.2, 25) vs independent binomial CDF", cdf_residual, 1e-12),
        _check("monte carlo within 4 standard errors of exact", worst_band, 1.0),
        _check("chebyshev bound dominates exact error", worst_dominance, 0.0),
    ]


SUITES = {
    "theorem1": verify_theorem1,
    "bqr-oracle": verify_bqr_oracle,
    "klocal-fixedpoint": verify_klocal_fixedpoint,
    "sampling": verify_sampling,
}
