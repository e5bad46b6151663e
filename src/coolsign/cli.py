"""Command-line front end: figure-data sweeps, verification suites, and
resource-matched sampling experiments.

Figures are emitted as data files (CSV or JSON), one row per grid
polarization and one column per curve; CSV uses a header row, LF line
endings, and 17-significant-digit numbers so files round-trip and are
byte-identical for identical flags and seed.  Every refrigerator command
solves each figure's whole grid as one batched fixed point, ``--sample``
included.  ``--sample`` then runs the Monte Carlo of every point in one
:func:`coolsign.sampling.resource_matched_comparisons` call.  Each side,
raw and cooled, draws one set of seeded substreams that all its points
read, so a row equals a one-point grid's row.  ``--jobs N`` splits those
substreams over the calling thread and up to ``N - 1`` threads each side
starts, so ``--jobs 1`` starts none; ``--jobs`` defaults to the CPUs this
process may use, and the bytes are the same for any count.

Each mode reads its own sweep flags: ``--suite`` none of them, the
single-shot figures ``--n``, ``--alpha-grid``, ``--out`` and ``--format``,
the refrigerator figures also ``--m`` and ``--rounds``, and ``--sample``
all of them, the one mode that reads ``--locality``.

:func:`main` parses the command line; :func:`_sweep` checks a sweep's
namespace, stores the parsed ``--n``, ``--rounds`` and ``--alpha-grid``
tuples back on it and runs its builder.  A figure's staircase, looked up
once in :data:`FIGURES`, picks the flags it reads, its ``--n`` default, its
one-register rule and its builder.  Each builder reads the namespace and
returns a header and rows; :func:`main` makes the one :func:`write_rows`
call and prints one ``wrote PATH (N rows, M columns)`` line.

Exit codes: 0 success, 1 verification failure, 2 usage error (an argparse
error, an unknown figure or suite among them, a sweep flag the mode does
not read, parameters a config or grid rejects, a list of ``--n`` values for
a refrigerator figure or of ``--n`` or ``--rounds`` values for
``--sample``, a value repeated in ``--n`` or ``--rounds``, a ``--jobs``,
``--seed`` or ``--trials`` below its least value, a ``--budget`` or
``--n`` above :data:`MAX_BUDGET` or a ``--jobs`` above
:data:`coolsign.sampling.MAX_JOBS`, an ``--m 1`` for a refrigerator figure
or ``--sample``, since the staircase needs two resets to cool, and a
register too large to simulate in memory), 3 output I/O error, 4 budget
too small, 5 a fixed point whose relative residual is not within
:data:`coolsign.refrigerator.RESIDUAL_TOL`, as judged by the one cycle
loop :func:`coolsign.refrigerator._solve_grid`:
a steady state after its one-cycle check, or a sort-oracle bound after
:data:`coolsign.refrigerator.MAX_CYCLES` cycles.  Each exit 2 to 5,
argparse's own errors included, prints one stderr line,
``coolsign: <message>``, and no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import refrigerator, sampling, single_shot, verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_CONVERGENCE = 5

#: each figure and the staircase it runs; None for the single-shot figures
FIGURES = {"single-shot-polarization": None, "single-shot-reduction": None,
           "bqr-polarization": "full", "bqr-reduction": "full", "klocal-reduction": "3local"}

DEFAULT_SINGLE_SHOT_N = (3, 5, 11, 21)
DEFAULT_BQR_ROUNDS = (3, 4, 5, 6, 7, 8, 9)

#: the sweep flags, all of which ``--sample`` reads; ``--suite`` reads none
SWEEP_FLAGS = ("--n", "--m", "--rounds", "--locality", "--alpha-grid", "--budget", "--trials",
               "--seed", "--out", "--format", "--jobs")
SINGLE_SHOT_FLAGS = ("--n", "--alpha-grid", "--out", "--format")
REFRIGERATOR_FLAGS = SINGLE_SHOT_FLAGS + ("--m", "--rounds")

#: values of the sweep flags a command line leaves out, by argparse dest; the
#: parser's own defaults are None, so a given flag is told from an absent one.
#: ``--jobs`` stays None, which the sampling reads as every usable CPU
SWEEP_DEFAULTS = {"m": 2, "locality": "full", "budget": 10_000, "trials": 100_000, "seed": 0,
                  "format": "csv"}


#: most points an ``--alpha-grid`` may hold
MAX_GRID_POINTS = 1_000_000

#: largest ``--budget`` and ``--n``, the shot count ``k`` of an exact binomial
#: tail for ``--sample`` and a single-shot figure: the tail sums terms until one
#: no longer moves the sum, about ``3.4 sqrt(k)`` of them at a tiny alpha: 3.4
#: million here, 0.6-0.7 s per point on one Xeon vCPU (Python 3.11)
MAX_BUDGET = 10**12


def parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` into an inclusive, strictly increasing grid."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:  # not three parts, or a part that is not a number
        raise ValueError(f"--alpha-grid expects start:stop:step, got {text!r}") from None
    if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
        raise ValueError(f"--alpha-grid needs finite bounds, step > 0 and stop >= start, "
                         f"got {text!r}")
    span = (stop - start) / step
    if span >= MAX_GRID_POINTS - 0.5:  # counted before any point is built; inf too
        raise ValueError(f"--alpha-grid {text!r} has {span + 1:.7g} points, "
                         f"more than {MAX_GRID_POINTS}")
    count = int(round(span))
    # float noise in start + k * step snaps at the step's scale; start stays as typed
    digits = 12 - math.floor(math.log10(step))
    grid = (start,) + tuple(round(start + k * step, digits) for k in range(1, count + 1))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"--alpha-grid {text!r} is not strictly increasing")
    return grid


def _format_number(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_rows(path: str, fmt: str, header: list[str], rows: list[list]) -> None:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_format_number(v) for v in row) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps(
            {"columns": header, "rows": [[_json_value(v) for v in row] for row in rows]},
            indent=2,
        )
        payload += "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(payload)


def _json_value(v):
    if isinstance(v, (int, np.integer)):
        return int(v)
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        return repr(v)
    return v


# ---------------------------------------------------------------------------
# figure sweeps

def _figure_single_shot(args: argparse.Namespace,
                        reduction: bool) -> tuple[list[str], list[list]]:
    header = ["alpha"] + [f"n{n}" for n in args.n] + ["baseline"]
    curve = single_shot.reduction_factor_ac if reduction else single_shot.alpha_ac
    return header, [[a, *(curve(n, a) for n in args.n), 1.0 if reduction else a]
                    for a in args.alpha_grid]


def _figure_bqr(args: argparse.Namespace, reduction: bool,
                locality: str) -> tuple[list[str], list[list]]:
    n = args.n[0]
    bound_rounds = max(args.rounds)
    header = ["alpha"] + [f"rounds{r}" for r in args.rounds]
    if reduction:
        header += [f"single_shot_n{n}", f"optimal_bound_rounds{bound_rounds}", "baseline"]
    else:
        header += ["baseline", "asymptotic"]

    grid = args.alpha_grid

    def column(cfg: refrigerator.RefrigeratorConfig, results) -> list[float]:
        if reduction:
            return [res.reduction_factor(a, cfg.cost) for a, res in zip(grid, results)]
        return [res.alpha_enhanced for res in results]

    cfgs = [refrigerator.RefrigeratorConfig(n, args.m, r, locality=locality) for r in args.rounds]
    columns = [column(cfg, results)
               for cfg, results in zip(cfgs, refrigerator.steady_states(cfgs, grid))]
    if reduction:
        bound_cfg = refrigerator.RefrigeratorConfig(n, args.m, bound_rounds)
        bound = column(bound_cfg, refrigerator.optimal_bounds(bound_cfg, grid))
        columns += [[single_shot.reduction_factor_ac(n, a) for a in grid], bound,
                    [1.0] * len(grid)]
    else:
        columns += [list(grid), [refrigerator.alpha_infinity(n, args.m, a) for a in grid]]
    return header, [[a, *values] for a, values in zip(grid, zip(*columns))]


# ---------------------------------------------------------------------------
# verification suites

def cmd_verify(suite: str) -> int:
    results = [r for name, run in verify.SUITES.items() if suite in (name, "all") for r in run()]
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print(f"suite {suite}: all {len(results)} checks passed")
        return EXIT_OK
    failed = sum(not r.passed for r in results)
    print(f"suite {suite}: {failed} of {len(results)} checks FAILED", file=sys.stderr)
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# resource-matched sampling

SAMPLE_HEADER = [f.name for f in dataclasses.fields(sampling.ResourceComparison)]


def _sample(args: argparse.Namespace) -> tuple[list[str], list[tuple]]:
    cfg = refrigerator.RefrigeratorConfig(args.n[0], args.m, args.rounds[0], args.locality)
    # a budget too small for one cooled shot fails before any refrigerator work
    sampling.cooled_shots(args.budget, cfg.cost)
    cooled = refrigerator.steady_states(cfg, args.alpha_grid)
    comparisons = sampling.resource_matched_comparisons(
        args.alpha_grid, cooled, cfg.cost, args.budget, args.seed, trials=args.trials,
        jobs=args.jobs)
    return SAMPLE_HEADER, [dataclasses.astuple(comparison) for comparison in comparisons]


# ---------------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own errors take main's one error path
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coolsign",
        description="Bidirectional-cooling sweeps, verification suites, and "
        "resource-matched sampling experiments.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--figure", choices=FIGURES, metavar="NAME",
                      help=f"emit curve data; one of {tuple(FIGURES)}")
    mode.add_argument("--suite", choices=[*verify.SUITES, "all"], metavar="NAME",
                      help=f"run a verification suite ({', '.join([*verify.SUITES, 'all'])})")
    mode.add_argument("--sample", action="store_true",
                      help="sweep resource-matched raw-vs-cooled comparisons")
    parser.add_argument("--n", default=None, help="qubit count(s), comma separated; "
                        "one for a refrigerator figure or --sample")
    parser.add_argument("--m", type=int, help="reset qubits (default 2)")
    parser.add_argument("--rounds", default=None, help="round count(s), comma separated; "
                        "one for --sample")
    parser.add_argument("--locality", choices=refrigerator.LOCALITIES, default=None,
                        help="staircase for --sample (default full); each figure fixes its own")
    parser.add_argument("--alpha-grid", default=None, metavar="START:STOP:STEP",
                        help="polarization grid; a negative START needs the = form, "
                        "as in --alpha-grid=-0.5:0.5:0.1")
    parser.add_argument("--budget", type=int,
                        help="total fresh-qubit budget for --sample (default 10000)")
    parser.add_argument("--trials", type=int,
                        help="monte carlo trials per --sample grid point (default 100000)")
    parser.add_argument("--seed", type=int, help="--sample seed (default 0)")
    parser.add_argument("--out", metavar="PATH", help="output data file")
    parser.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    parser.add_argument("--jobs", type=int,
                        help="workers that split the --sample Monte Carlo's seeded "
                        "substreams, each drawn once for every grid point of its side: the "
                        "calling thread and up to JOBS - 1 started threads, "
                        f"1 to {sampling.MAX_JOBS} (default: the CPUs this process may use; "
                        "output is byte-identical for any value)")
    return parser


def _parse_int_list(flag: str, text: str | None,
                    default: tuple[int, ...]) -> tuple[int, ...]:
    if text is None:
        return default
    try:
        values = tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        values = ()
    if not values:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    return values


def _mode(args: argparse.Namespace) -> tuple[str, str | None]:
    """The mode's name and a refrigerator figure's staircase, None for the other
    modes; rejects a sweep flag the mode does not read, as ``--locality`` on a figure."""
    locality = FIGURES.get(args.figure)
    if args.suite is not None:
        mode, reads = "--suite", ()
    elif args.sample:
        mode, reads = "--sample", SWEEP_FLAGS
    else:
        mode = f"--figure {args.figure}"
        reads = REFRIGERATOR_FLAGS if locality else SINGLE_SHOT_FLAGS
    unread = [flag for flag in SWEEP_FLAGS
              if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None]
    if unread:
        raise ValueError(f"{mode} does not read {', '.join(unread)}")
    return mode, locality


def _sweep(args: argparse.Namespace, mode: str,
           locality: str | None) -> tuple[list[str], list]:
    """Check a ``--figure`` or ``--sample`` namespace, each failed check
    raising ``ValueError`` before any refrigerator work, then run its builder."""
    for dest, value in SWEEP_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    n_list = _parse_int_list("--n", args.n, (5,) if locality or args.sample
                             else DEFAULT_SINGLE_SHOT_N)
    rounds_list = _parse_int_list("--rounds", args.rounds,
                                  (5,) if args.sample else DEFAULT_BQR_ROUNDS)
    alpha_grid = parse_alpha_grid(args.alpha_grid
                                  or ("0.1:0.9:0.1" if args.sample else "0.01:0.99:0.01"))
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs is not None and args.jobs > sampling.MAX_JOBS:
        raise ValueError(f"--jobs {args.jobs} is more than {sampling.MAX_JOBS}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    for flag, value in (("--budget", args.budget), ("--n", max(n_list))):
        if value > MAX_BUDGET:
            raise ValueError(f"{flag} {value} is more than {MAX_BUDGET}")
    if not args.out:
        raise ValueError("--out PATH is required for --figure/--sample")

    # a refrigerator figure runs one register, and --sample one register and schedule
    single = [("--n", args.n, n_list)] if locality or args.sample else []
    if args.sample:
        single.append(("--rounds", args.rounds, rounds_list))
    listed = [f"{flag} {text}" for flag, text, values in single if len(values) > 1]
    if listed:
        raise ValueError(f"{mode} takes one value per flag, got {' '.join(listed)}")
    # each value names a column, so a repeated one would name two
    for flag, values in (("--n", n_list), ("--rounds", rounds_list)):
        repeated = [value for value in values if values.count(value) > 1]
        if repeated:
            raise ValueError(f"{flag} lists {repeated[0]} more than once")
    # with one reset neither staircase cools past the raw polarization
    if (locality or args.sample) and args.m == 1:
        raise ValueError("the staircase needs two resets to cool, got --m 1")
    reduction = "reduction" in (args.figure or "")
    if reduction and any(a <= 0.0 for a in alpha_grid):
        raise ValueError("reduction-factor sweeps need a grid within (0, 1]")
    args.n, args.rounds, args.alpha_grid = n_list, rounds_list, alpha_grid

    if args.sample:
        return _sample(args)
    if locality:
        return _figure_bqr(args, reduction, locality)
    return _figure_single_shot(args, reduction)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        mode, locality = _mode(args)
        if args.suite is not None:
            return cmd_verify(args.suite)
        header, rows = _sweep(args, mode, locality)
        write_rows(args.out, args.format, header, rows)
    except OSError as exc:
        print(f"coolsign: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    except sampling.BudgetError as exc:  # a ValueError, but its own exit code
        print(f"coolsign: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except refrigerator.ConvergenceError as exc:
        print(f"coolsign: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"coolsign: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroDivisionError as exc:
        # alpha^2 or the cooled polarization underflows to 0 for a tiny alpha
        print(f"coolsign: {exc}; a grid polarization is too close to 0", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"coolsign: a register of n={args.n[0]} qubits with m={args.m} resets "
              f"is too large to simulate in memory", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out} ({len(rows)} rows, {len(header)} columns)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
