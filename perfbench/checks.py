"""Checks of the files the CLI writes, against ``reference`` and against
properties the method must have.

Each check raises :class:`CheckFailed` naming what failed, and returns the
misses that fall in cells the workload declares faulty (an empty list when
there are none).  The tolerances and the reasons they hold are listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import math
from typing import Callable

import reference as ref

#: steady polarizations (``rounds*`` of bqr-polarization, ``alpha_cooled``)
#: against the GTH direct solve; 5x the worst miss measured, 2e-10
POLARIZATION_RTOL = 1e-9
#: reduction factors against the GTH direct solve; they hang on the target's
#: excited mass, which an absolute stopping residual does not resolve
REDUCTION_RTOL = 1e-6
#: closed forms (alpha_ac, cooling limit, Gaussian single-shot reduction)
CLOSED_FORM_RTOL = 1e-12
#: exact binomial wrong-sign probability against the mpmath tail
BINOMIAL_RTOL = 1e-9
#: below this a wrong-sign probability underflows double precision
UNDERFLOW = 1e-300
#: Monte Carlo band around the exact error, in standard errors
MC_SIGMAS = 5.0


class CheckFailed(Exception):
    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as handle:
        table = list(csv.reader(handle))
    return table[0], [[float(v) for v in row] for row in table[1:]]


def _close(name: str, got: float, want: float, rtol: float, where: str) -> None:
    if not abs(got - want) <= rtol * abs(want):
        raise CheckFailed(
            name, f"{where}: got {got!r}, reference {want!r} (rtol {rtol:g})"
        )


#: ``(column, alpha) -> bool``: the cells of an output with a known fault
Cells = Callable[[str, float], bool]


def no_cells(column: str, alpha: float) -> bool:
    return False


def _reduction_cell(name, got, want, column, alpha, known: Cells, missed: list[str]) -> None:
    """Compare one reduction-factor cell.  A miss in a cell ``known`` declares
    faulty is appended to ``missed``; a miss anywhere else is raised."""
    try:
        _close(name, got, want, REDUCTION_RTOL, f"{column} at alpha={alpha!r}")
    except CheckFailed as exc:
        if not known(column, alpha):
            raise
        missed.append(str(exc))


def _exact(name: str, got, want, where: str) -> None:
    if got != want:
        raise CheckFailed(name, f"{where}: got {got!r}, expected {want!r}")


def _check_grid(name: str, rows: list[list[float]], grid: list[float]) -> None:
    alphas = [row[0] for row in rows]
    _exact(name, len(alphas), len(grid), "row count")
    for got, want in zip(alphas, grid):
        _close(name, got, want, 1e-12, "alpha column")


def single_shot_polarization(path, grid, n_list) -> list[str]:
    name = "single-shot-polarization"
    header, rows = read_csv(path)
    _exact(name, header, ["alpha"] + [f"n{n}" for n in n_list] + ["baseline"], "columns")
    _check_grid(name, rows, grid)
    for row in rows:
        alpha = row[0]
        for n, got in zip(n_list, row[1:]):
            want = float(ref.alpha_ac_sorted(n, alpha))
            _close(name, got, want, CLOSED_FORM_RTOL, f"alpha_ac(n={n}, alpha={alpha!r})")
        _exact(name, row[-1], alpha, f"baseline at alpha={alpha!r}")
    return []


def bqr_reduction(path, grid, n, m, rounds_list, locality, known: Cells = no_cells) -> list[str]:
    name = f"{'klocal' if locality == '3local' else 'bqr'}-reduction"
    header, rows = read_csv(path)
    top = max(rounds_list)
    _exact(
        name,
        header,
        ["alpha"]
        + [f"rounds{r}" for r in rounds_list]
        + [f"single_shot_n{n}", f"optimal_bound_rounds{top}", "baseline"],
        "columns",
    )
    _check_grid(name, rows, grid)
    missed: list[str] = []
    for row in rows:
        alpha = row[0]
        curve = dict(zip(rounds_list, row[1:]))
        for rounds, got in curve.items():
            want = ref.steady_reduction(n, m, rounds, alpha, locality)
            _reduction_cell(name, got, want, f"rounds{rounds}", alpha, known, missed)
        single, bound, baseline = row[-3:]
        _close(
            name, single, ref.single_shot_reduction(n, alpha), CLOSED_FORM_RTOL,
            f"single_shot_n{n} at alpha={alpha!r}",
        )
        # the sort oracle is the optimal compression: nothing beats it
        if not bound >= curve[top] * (1.0 - REDUCTION_RTOL):
            raise CheckFailed(
                name, f"optimal_bound_rounds{top} {bound!r} < rounds{top} {curve[top]!r} "
                f"at alpha={alpha!r}",
            )
        _exact(name, baseline, 1.0, f"baseline at alpha={alpha!r}")
    return missed


def bqr_polarization(path, grid, n, m, rounds_list) -> list[str]:
    name = "bqr-polarization"
    header, rows = read_csv(path)
    _exact(
        name,
        header,
        ["alpha"] + [f"rounds{r}" for r in rounds_list] + ["baseline", "asymptotic"],
        "columns",
    )
    _check_grid(name, rows, grid)
    by_alpha = {}
    for row in rows:
        alpha = row[0]
        by_alpha[alpha] = row
        for rounds, got in zip(rounds_list, row[1:]):
            want = ref.steady_polarization(n, m, rounds, alpha)
            _close(name, got, want, POLARIZATION_RTOL, f"rounds{rounds} at alpha={alpha!r}")
        _exact(name, row[-2], alpha, f"baseline at alpha={alpha!r}")
        _close(
            name, row[-1], ref.cooling_limit(n, m, alpha), CLOSED_FORM_RTOL,
            f"asymptotic at alpha={alpha!r}",
        )
    # no protocol code branches on the sign of alpha: the rows are exactly odd
    for alpha, row in by_alpha.items():
        mirror = by_alpha.get(-alpha)
        if mirror is not None and [-v for v in row] != mirror:
            raise CheckFailed(name, f"row at {-alpha!r} is not the negated row at {alpha!r}")
    return []


def _mc_band(name, mc, exact, trials, where) -> None:
    # normal band, with the standard error floored at one count so that a
    # probability far below 1/trials still admits a stray count or two
    stderr = math.sqrt(max(exact, 1.0 / trials) * (1.0 - exact) / trials)
    if not abs(mc - exact) <= MC_SIGMAS * stderr:
        raise CheckFailed(
            name, f"{where}: monte carlo {mc!r} is {abs(mc - exact) / stderr:.1f} standard "
            f"errors from exact {exact!r}",
        )


def _binomial(name, got, alpha, k, where) -> float:
    want = ref.wrong_sign_probability(alpha, k)
    if want < UNDERFLOW:
        if not got < UNDERFLOW:
            raise CheckFailed(name, f"{where}: got {got!r}, reference {want} underflows")
    else:
        _close(name, got, float(want), BINOMIAL_RTOL, where)
    return float(want)


SAMPLE_COLUMNS = [
    "alpha", "k_raw", "k_cooled", "alpha_cooled", "exact_error_raw", "exact_error_cooled",
    "mc_error_raw", "mc_error_cooled", "bound_raw", "bound_cooled", "empirical_ratio",
    "reduction_factor",
]


def sample(path, grid, n, m, rounds, budget, trials) -> list[str]:
    name = "sample"
    header, rows = read_csv(path)
    _exact(name, header, SAMPLE_COLUMNS, "columns")
    _check_grid(name, rows, grid)
    for row in rows:
        rec = dict(zip(SAMPLE_COLUMNS, row))
        alpha = rec["alpha"]
        at = f"alpha={alpha!r}"
        _exact(name, rec["k_raw"], float(budget), f"k_raw at {at}")
        _exact(name, rec["k_cooled"], float(budget // (m * rounds + 1)), f"k_cooled at {at}")
        cooled = rec["alpha_cooled"]
        _close(name, cooled, ref.steady_polarization(n, m, rounds, alpha), POLARIZATION_RTOL,
               f"alpha_cooled at {at}")
        _close(name, rec["reduction_factor"], ref.steady_reduction(n, m, rounds, alpha),
               REDUCTION_RTOL, f"reduction_factor at {at}")
        for side, a, k in (("raw", alpha, budget), ("cooled", cooled, budget // (m * rounds + 1))):
            exact = _binomial(name, rec[f"exact_error_{side}"], a, k, f"exact_error_{side} at {at}")
            _mc_band(name, rec[f"mc_error_{side}"], exact, trials, f"mc_error_{side} at {at}")
            bound = rec[f"bound_{side}"]
            _close(name, bound, ref.chebyshev_bound(a, k), 1e-15, f"bound_{side} at {at}")
            if not bound >= rec[f"exact_error_{side}"]:
                raise CheckFailed(name, f"chebyshev bound_{side} {bound!r} below the exact "
                                  f"error at {at}")
        mc_raw, mc_cooled = rec["mc_error_raw"], rec["mc_error_cooled"]
        if mc_raw > 0:
            _exact(name, rec["empirical_ratio"], mc_cooled / mc_raw, f"empirical_ratio at {at}")
        elif not (math.isnan(rec["empirical_ratio"]) or math.isinf(rec["empirical_ratio"])):
            raise CheckFailed(name, f"empirical_ratio at {at} should be nan or inf")
    return []
