"""Command-line front end: figure-data sweeps, verification suites, and
resource-matched sampling experiments.

Figures are emitted as data files (CSV or JSON), one row per grid
polarization and one column per curve; CSV uses a header row, LF line
endings, and 17-significant-digit numbers so files round-trip and are
byte-identical for identical flags and seed.  Every refrigerator command
solves each curve's whole grid as one batched fixed point, ``--sample``
included; ``--jobs`` threads split only the sampling of the ``--sample``
points, with the same bytes for any count.

Each mode reads its own sweep flags: ``--suite`` none of them, the
single-shot figures ``--n``, ``--alpha-grid``, ``--out`` and ``--format``,
the refrigerator figures also ``--m``, ``--rounds`` and ``--locality``, and
``--sample`` all of them.

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
sweep flag the mode does not read, parameters a config or grid rejects, a
``--locality`` that contradicts the figure, a list of ``--n`` values for a
refrigerator figure or of ``--n`` or ``--rounds`` values for ``--sample``,
a ``--jobs``, ``--seed`` or ``--trials`` below its least value, a
``--budget`` above :data:`MAX_BUDGET`, and a register too large to simulate
in memory), 3 output I/O error, 4 budget too small, 5 a steady state that
failed its one-cycle residual check or a sort-oracle bound that did not
converge.  Errors are reported on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import klocal, refrigerator, sampling, single_shot, verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_CONVERGENCE = 5

FIGURES = (
    "single-shot-polarization",
    "single-shot-reduction",
    "bqr-polarization",
    "bqr-reduction",
    "klocal-reduction",
)

#: the staircase each refrigerator figure runs
FIGURE_LOCALITY = {"bqr-polarization": "full", "bqr-reduction": "full",
                   "klocal-reduction": "3local"}

DEFAULT_SINGLE_SHOT_N = (3, 5, 11, 21)
DEFAULT_BQR_ROUNDS = (3, 4, 5, 6, 7, 8, 9)

#: the sweep flags, all of which ``--sample`` reads; ``--suite`` reads none
SWEEP_FLAGS = ("--n", "--m", "--rounds", "--locality", "--alpha-grid", "--budget", "--trials",
               "--seed", "--out", "--format", "--jobs")
SINGLE_SHOT_FLAGS = ("--n", "--alpha-grid", "--out", "--format")
REFRIGERATOR_FLAGS = SINGLE_SHOT_FLAGS + ("--m", "--rounds", "--locality")

#: values of the sweep flags a command line leaves out, by argparse dest; the
#: parser's own defaults are None, so a given flag is told from an absent one
SWEEP_DEFAULTS = {"m": 2, "budget": 10_000, "trials": 100_000, "seed": 0, "format": "csv",
                  "jobs": 1}


#: most points an ``--alpha-grid`` may hold
MAX_GRID_POINTS = 1_000_000

#: largest ``--budget``: the exact binomial tail of a point sums about
#: ``5 sqrt(budget)`` terms, at most about 5 million here
MAX_BUDGET = 10**12


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Parsed sweep parameters shared by the figure and sample commands."""

    alpha_grid: tuple[float, ...]
    n_list: tuple[int, ...]
    m: int
    rounds_list: tuple[int, ...]
    locality: str | None  # None when --locality is not given
    budget: int
    trials: int
    seed: int
    out: str
    fmt: str
    jobs: int = 1


def parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` into an inclusive, strictly increasing grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
        raise ValueError(f"need finite bounds, step > 0 and stop >= start, got {text!r}")
    span = (stop - start) / step
    if span >= MAX_GRID_POINTS - 0.5:  # counted before any point is built; inf too
        raise ValueError(f"grid from {text!r} has {span + 1:.7g} points, "
                         f"more than {MAX_GRID_POINTS}")
    count = int(round(span))
    # float noise in start + k * step snaps at the step's scale; start stays as typed
    digits = 12 - math.floor(math.log10(step))
    grid = (start,) + tuple(round(start + k * step, digits) for k in range(1, count + 1))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid from {text!r} is not strictly increasing")
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

def _figure_single_shot(spec: SweepSpec, reduction: bool) -> tuple[list[str], list[list]]:
    header = ["alpha"] + [f"n{n}" for n in spec.n_list] + ["baseline"]
    rows = []
    for a in spec.alpha_grid:
        if reduction:
            row = [a] + [single_shot.reduction_factor_ac(n, a) for n in spec.n_list] + [1.0]
        else:
            row = [a] + [single_shot.alpha_ac(n, a) for n in spec.n_list] + [a]
        rows.append(row)
    return header, rows


def _figure_bqr(spec: SweepSpec, reduction: bool, locality: str) -> tuple[list[str], list[list]]:
    n = spec.n_list[0]
    bound_rounds = max(spec.rounds_list)
    header = ["alpha"] + [f"rounds{r}" for r in spec.rounds_list]
    if reduction:
        header += [f"single_shot_n{n}", f"optimal_bound_rounds{bound_rounds}", "baseline"]
    else:
        header += ["baseline", "asymptotic"]

    grid = spec.alpha_grid

    def column(cfg: refrigerator.RefrigeratorConfig, results) -> list[float]:
        if reduction:
            return [res.reduction_factor(a, cfg.cost) for a, res in zip(grid, results)]
        return [res.alpha_enhanced for res in results]

    columns = []
    for r in spec.rounds_list:
        cfg = refrigerator.RefrigeratorConfig(n, spec.m, r, locality=locality)
        columns.append(column(cfg, refrigerator.steady_states(cfg, grid)))
    if reduction:
        bound_cfg = refrigerator.RefrigeratorConfig(n, spec.m, bound_rounds)
        bound = column(bound_cfg, refrigerator.optimal_bounds(bound_cfg, grid))
        columns += [[single_shot.reduction_factor_ac(n, a) for a in grid], bound,
                    [1.0] * len(grid)]
    else:
        columns += [list(grid), [refrigerator.alpha_infinity(n, spec.m, a) for a in grid]]
    return header, [[a, *values] for a, values in zip(grid, zip(*columns))]


def _map_grid(fn, items, jobs: int) -> list[list]:
    """``[fn(item) for item in items]``, on ``jobs`` threads when above one."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def cmd_figure(name: str, spec: SweepSpec) -> int:
    locality = FIGURE_LOCALITY.get(name)
    if locality and spec.locality not in (None, locality):
        others = " or ".join(f for f, loc in FIGURE_LOCALITY.items() if loc == spec.locality)
        print(f"--figure {name} runs the {locality} staircase only; for --locality "
              f"{spec.locality} use --figure {others} or --sample", file=sys.stderr)
        return EXIT_USAGE
    if "reduction" in name and any(a <= 0.0 for a in spec.alpha_grid):
        print("reduction-factor sweeps need a grid within (0, 1)", file=sys.stderr)
        return EXIT_USAGE
    if name == "single-shot-polarization":
        header, rows = _figure_single_shot(spec, reduction=False)
    elif name == "single-shot-reduction":
        header, rows = _figure_single_shot(spec, reduction=True)
    else:
        header, rows = _figure_bqr(spec, reduction=name != "bqr-polarization", locality=locality)
    try:
        write_rows(spec.out, spec.fmt, header, rows)
    except OSError as exc:
        print(f"cannot write {spec.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {spec.out} ({len(rows)} rows, {len(header)} columns)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites

def cmd_verify(suite: str) -> int:
    try:
        results = verify.run_suite(suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_USAGE
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


def cmd_sample(spec: SweepSpec) -> int:
    cfg = refrigerator.RefrigeratorConfig(
        spec.n_list[0], spec.m, spec.rounds_list[0], locality=spec.locality or "full"
    )

    try:
        sampling.cooled_shots(spec.budget, cfg.cost)
    except sampling.BudgetError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    cooled = refrigerator.steady_states(cfg, spec.alpha_grid)

    def one_point(item: tuple[int, tuple[float, refrigerator.SteadyStateResult]]) -> tuple:
        index, (alpha, steady) = item
        return dataclasses.astuple(sampling.resource_matched_comparison(
            alpha, steady, cfg.cost, spec.budget, sampling._derived_seed(spec.seed, index),
            trials=spec.trials))

    rows = _map_grid(one_point, enumerate(zip(spec.alpha_grid, cooled)), spec.jobs)
    try:
        write_rows(spec.out, spec.fmt, SAMPLE_HEADER, rows)
    except OSError as exc:
        print(f"cannot write {spec.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {spec.out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coolsign",
        description="Bidirectional-cooling sweeps, verification suites, and "
        "resource-matched sampling experiments.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--figure", metavar="NAME", help=f"emit curve data; one of {FIGURES}")
    mode.add_argument("--suite", metavar="NAME", help="run a verification suite "
                      "(theorem1, bqr-oracle, klocal-fixedpoint, sampling, all)")
    mode.add_argument("--sample", action="store_true",
                      help="sweep resource-matched raw-vs-cooled comparisons")
    parser.add_argument("--n", default=None, help="qubit count(s), comma separated; "
                        "one for a refrigerator figure or --sample")
    parser.add_argument("--m", type=int, help="reset qubits (default 2)")
    parser.add_argument("--rounds", default=None, help="round count(s), comma separated; "
                        "one for --sample")
    parser.add_argument("--locality", choices=refrigerator.LOCALITIES, default=None,
                        help="staircase for --sample (default full); each figure fixes its own")
    parser.add_argument("--alpha-grid", default=None, metavar="START:STOP:STEP")
    parser.add_argument("--budget", type=int,
                        help="total fresh-qubit budget for --sample (default 10000)")
    parser.add_argument("--trials", type=int,
                        help="monte carlo trials per --sample grid point (default 100000)")
    parser.add_argument("--seed", type=int, help="--sample seed (default 0)")
    parser.add_argument("--out", metavar="PATH", help="output data file")
    parser.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    parser.add_argument("--jobs", type=int,
                        help="worker threads that split the sampling of the --sample points, "
                        "at least 1 (default 1; output is byte-identical for any value)")
    return parser


def _parse_int_list(text: str | None, default: tuple[int, ...]) -> tuple[int, ...]:
    if text is None:
        return default
    values = tuple(int(p) for p in text.split(",") if p)
    if not values:
        raise ValueError(f"empty integer list {text!r}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.figure is not None and args.figure not in FIGURES:
        print(f"unknown figure {args.figure!r}; choose from {FIGURES}", file=sys.stderr)
        return EXIT_USAGE

    if args.suite is not None:
        mode, reads = "--suite", ()
    elif args.sample:
        mode, reads = "--sample", SWEEP_FLAGS
    else:
        mode = f"--figure {args.figure}"
        reads = REFRIGERATOR_FLAGS if args.figure in FIGURE_LOCALITY else SINGLE_SHOT_FLAGS
    unread = [flag for flag in SWEEP_FLAGS
              if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None]
    if unread:
        print(f"{mode} does not read {', '.join(unread)}", file=sys.stderr)
        return EXIT_USAGE
    if args.suite is not None:
        return cmd_verify(args.suite)
    for dest, value in SWEEP_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)

    try:
        if args.figure in ("single-shot-polarization", "single-shot-reduction"):
            n_list = _parse_int_list(args.n, DEFAULT_SINGLE_SHOT_N)
        else:
            n_list = _parse_int_list(args.n, (5,))
        if args.sample:
            rounds_list = _parse_int_list(args.rounds, (5,))
            default_grid = "0.1:0.9:0.1"
        else:
            rounds_list = _parse_int_list(args.rounds, DEFAULT_BQR_ROUNDS)
            default_grid = "0.01:0.99:0.01"
        alpha_grid = parse_alpha_grid(args.alpha_grid or default_grid)
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"--seed must be at least 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    if args.trials < 1:
        print(f"--trials must be at least 1, got {args.trials}", file=sys.stderr)
        return EXIT_USAGE
    if args.budget > MAX_BUDGET:
        print(f"--budget {args.budget} is more than {MAX_BUDGET}", file=sys.stderr)
        return EXIT_USAGE

    if not args.out:
        parser.print_usage(sys.stderr)
        print("--out PATH is required for --figure/--sample", file=sys.stderr)
        return EXIT_USAGE

    # a refrigerator figure runs one register, and --sample one register and schedule
    single = [("--n", args.n, n_list)] if args.sample or args.figure in FIGURE_LOCALITY else []
    if args.sample:
        single.append(("--rounds", args.rounds, rounds_list))
    listed = [f"{flag} {text}" for flag, text, values in single if len(values) > 1]
    if listed:
        print(f"{mode} takes one value per flag, got {' '.join(listed)}", file=sys.stderr)
        return EXIT_USAGE

    spec = SweepSpec(
        alpha_grid=alpha_grid,
        n_list=n_list,
        m=args.m,
        rounds_list=rounds_list,
        locality=args.locality,
        budget=args.budget,
        trials=args.trials,
        seed=args.seed,
        out=args.out,
        fmt=args.format,
        jobs=args.jobs,
    )

    try:
        if args.figure:
            return cmd_figure(args.figure, spec)
        return cmd_sample(spec)
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
        print(f"coolsign: a register of n={spec.n_list[0]} qubits with m={spec.m} resets "
              f"is too large to simulate in memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
