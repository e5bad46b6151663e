"""The benchmark's workloads: lists of ``coolsign`` command lines.

One operation is one ``coolsign.cli.main(argv)`` call.  Each operation
names the check its output file must pass (see ``checks``).  Known faults
are declared narrowly, and only they are counted as failed operations
rather than stopping the run: an exception type the call ``raises`` every
time today, or output cells the check is told are faulty.  ``fault`` says
why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

#: output placeholder in an argv; replaced by a path in the pass directory
OUT = "{out}"


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    #: checks the output file; returns the misses in declared faulty cells
    check: Callable[[str], list[str]] | None = None
    #: name of the exception type the call raises every time today
    raises: str = ""
    fault: str = ""

    def out_file(self) -> str | None:
        return f"{self.name}.csv" if OUT in self.argv else None

    def argv_in(self, directory: str) -> list[str]:
        return [f"{directory}/{self.out_file()}" if a == OUT else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    #: one-point version of the first command, for the set-up measurement
    setup: Op


def grid(start: float, stop: float, step: float) -> list[float]:
    count = round((stop - start) / step)
    return [start + k * step for k in range(count + 1)]


def _args(text: str) -> tuple[str, ...]:
    return tuple(text.split()) + ("--out", OUT)


STEADY_STATE_STOP = (
    "steady_state stops on an absolute L1 residual of 1e-12, so the tiny excited "
    "mass behind a reduction factor near saturation is not converged"
)


def fig4_faulty(column: str, alpha: float) -> bool:
    """The cells of the README's bqr-reduction figure that miss 1e-6:
    ``rounds3`` from alpha = 0.93 and ``rounds4`` from alpha = 0.95."""
    return (column == "rounds3" and alpha > 0.925) or (column == "rounds4" and alpha > 0.945)


def readme(seed: int) -> Workload:
    """Every command of the README "Command line" block, as written."""
    rounds = (3, 4, 5, 6, 7, 8, 9)
    figure_grid = grid(0.01, 0.99, 0.01)
    ops = (
        Op("fig1", _args("--figure single-shot-polarization"),
           lambda p: checks.single_shot_polarization(p, figure_grid, (3, 5, 11, 21))),
        Op("fig4", _args("--figure bqr-reduction --n 5 --m 2 --rounds 3,4,5,6,7,8,9"),
           lambda p: checks.bqr_reduction(p, figure_grid, 5, 2, rounds, "full", fig4_faulty),
           fault=STEADY_STATE_STOP + " (rounds3 at alpha=0.99 is 30% low)"),
        Op("fig6", _args("--figure klocal-reduction --n 5 --m 2 --rounds 3,5,9"),
           lambda p: checks.bqr_reduction(p, figure_grid, 5, 2, (3, 5, 9), "3local")),
        Op("fig3", _args("--figure bqr-polarization --n 5 --m 2"),
           lambda p: checks.bqr_polarization(p, figure_grid, 5, 2, rounds)),
        Op("suite-all", ("--suite", "all")),
        Op("comparison", _args("--sample --n 5 --m 2 --rounds 5 --budget 10000 --trials 100000 "
                               "--seed 7 --alpha-grid 0.1:0.9:0.1"),
           lambda p: checks.sample(p, grid(0.1, 0.9, 0.1), 5, 2, 5, 10_000, 100_000)),
    )
    setup = Op("setup", _args("--figure single-shot-polarization --alpha-grid 0.01:0.01:0.01"))
    return Workload("readme", ops, setup)


def fridge_large(seed: int) -> Workload:
    """Single-threaded solves that are expensive: large registers, and
    single points near saturation."""
    ops = [
        Op("klocal-reduction-n10",
           _args("--figure klocal-reduction --n 10 --rounds 5 --alpha-grid 0.2:0.8:0.6"),
           lambda p: checks.bqr_reduction(p, grid(0.2, 0.8, 0.6), 10, 2, (5,), "3local")),
        Op("bqr-polarization-n10",
           _args("--figure bqr-polarization --n 10 --rounds 3,5 --alpha-grid=-0.5:0.5:1.0"),
           lambda p: checks.bqr_polarization(p, grid(-0.5, 0.5, 1.0), 10, 2, (3, 5))),
    ]
    escapes = "steady_state raises ConvergenceError after 10000 cycles; cli.main lets it escape"
    for hundredths in (90, 92, 94, 96, 98):
        alpha = hundredths / 100
        faulty, raises, fault = checks.no_cells, "", ""
        if hundredths == 92:  # the one rounds3 cell misses 1e-6
            faulty, fault = (lambda column, a: column == "rounds3"), STEADY_STATE_STOP
        elif hundredths >= 94:
            raises, fault = "ConvergenceError", escapes
        ops.append(Op(
            f"bqr-reduction-n8-a{hundredths}",
            _args(f"--figure bqr-reduction --n 8 --m 2 --rounds 3 "
                  f"--alpha-grid {alpha}:{alpha}:0.01"),
            lambda p, a=alpha, f=faulty: checks.bqr_reduction(p, [a], 8, 2, (3,), "full", f),
            raises=raises,
            fault=fault,
        ))
    setup = Op("setup", _args("--figure klocal-reduction --n 10 --rounds 5 "
                              "--alpha-grid 0.2:0.2:0.6"))
    return Workload("fridge-large", tuple(ops), setup)


def sample_mc(seed: int) -> Workload:
    """Monte Carlo and exact binomial tails at a large budget, on two threads."""
    common = (f"--sample --n 5 --m 2 --rounds 5 --budget 100000 --trials 1000000 "
              f"--seed {seed} --jobs 2")
    ops = (
        Op("sample", _args(f"{common} --alpha-grid 0.0005:0.01:0.0005"),
           lambda p: checks.sample(p, grid(0.0005, 0.01, 0.0005), 5, 2, 5, 100_000,
                                   1_000_000)),
    )
    setup = Op("setup", _args(f"{common} --alpha-grid 0.0005:0.0005:0.0005"))
    return Workload("sample-mc", ops, setup)


WORKLOADS = {"readme": readme, "fridge-large": fridge_large, "sample-mc": sample_mc}
