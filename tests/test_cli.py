"""The command line.  Every command line that writes a file is a row of
:data:`SUCCESS_PATHS`, held byte for byte to its one-point reference, and
every documented refusal a row of :data:`EXIT_PATHS`; the tests between them
hold the parsing, the batching, the threads and the suites."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from coolsign import (
    alpha_ac,
    alpha_infinity,
    reduction_factor_ac,
    refrigerator,
    sampling,
    single_shot,
    verify,
)
from coolsign.cli import (
    DEFAULT_BQR_ROUNDS,
    DEFAULT_SINGLE_SHOT_N,
    EXIT_BUDGET,
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    FIGURES,
    MAX_BUDGET,
    SAMPLE_HEADER,
    SWEEP_DEFAULTS,
    main,
    parse_alpha_grid,
    write_rows,
)


def cell(value):
    """A cell as a written file reads back: a number, or the name of a
    non-finite one."""
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def bare(constant):
    raise AssertionError(f"bare {constant} in the JSON")


def read_table(path, fmt):
    """A written file's columns and rows, each cell as :func:`cell` reads it;
    a JSON file may hold no bare NaN or Infinity."""
    if fmt == "json":
        payload = json.loads(path.read_text(), parse_constant=bare)
        return payload["columns"], payload["rows"]
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, [[cell(text) for text in row] for row in rows]


def decimal_grid(text):
    """The points of ``start:stop:step``, each the nearest float to its decimal."""
    start, stop, step = map(Decimal, text.split(":"))
    return tuple(float(start + k * step) for k in range(int((stop - start) / step) + 1))


def started_work(*args, **kwargs):
    raise AssertionError("started work")


def forbid_work(monkeypatch):
    """Fail the test at any steady state, bound, single-shot curve, draw or
    thread pool: a check that should reject before any work reached it."""
    for module, name in ((refrigerator, "steady_states"), (refrigerator, "optimal_bounds"),
                         (single_shot, "alpha_ac"), (single_shot, "reduction_factor_ac"),
                         (sampling, "resource_matched_comparisons"),
                         (sampling, "monte_carlo_sign_errors"), (sampling, "ThreadPoolExecutor")):
        monkeypatch.setattr(module, name, started_work)


def uniform_gth(rows):
    """A broken GTH: the uniform vector, which no recycle cycle keeps."""
    return np.full(rows.shape[:-1], 1.0 / rows.shape[-1])


def out_of_memory(cfg, alphas):
    """Stands in for the 128 GiB carried chain of n = 20 without allocating it."""
    raise MemoryError("Unable to allocate 128. GiB")


class TestAlphaGridParsing:
    def test_inclusive_endpoints(self):
        assert parse_alpha_grid("0.1:0.5:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_default_sized_grid(self):
        grid = parse_alpha_grid("0.01:0.99:0.01")
        assert len(grid) == 99
        assert grid[0] == 0.01 and grid[-1] == 0.99

    def test_strictly_increasing(self):
        grid = parse_alpha_grid("0.05:0.95:0.05")
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("bad", ["0.5:0.1:0.1", "0.1:0.9:0", "0:1:0", "1:2", "a:b:c",
                                     "0:inf:1", "0:1:1e-8", "0:1:1e-300"])
    def test_rejects_malformed(self, bad):
        # the message names the flag and the text as typed
        with pytest.raises(ValueError, match="--alpha-grid") as excinfo:
            parse_alpha_grid(bad)
        assert repr(bad) in str(excinfo.value)

    @pytest.mark.parametrize("text", ["0.01:0.99:0.01", "0.1:0.9:0.1", "0.0005:0.01:0.0005",
                                      "-0.5:0.5:1.0", "0.2:0.8:0.6", "-0.3:0.3:0.1"])
    def test_points_are_the_nearest_floats_to_their_decimals(self, text):
        assert parse_alpha_grid(text) == decimal_grid(text)

    def test_start_stays_as_typed(self):
        assert parse_alpha_grid("1e-13:1e-13:1") == (1e-13,)
        assert parse_alpha_grid("6e-13:6e-13:1") == (6e-13,)
        assert parse_alpha_grid("1e-300:1e-300:1") == (1e-300,)

    def test_help_names_the_equals_form_for_a_negative_start(self, capsys):
        # with a space, argparse reads "-0.5:0.5:0.1" as a flag
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == EXIT_OK
        assert "--alpha-grid=-0.5:0.5:0.1" in capsys.readouterr().out


#: every command line that writes a file, by name: its argv, split as a shell
#: would and without the ``--out PATH`` the test appends; each names its grid
SUCCESS_PATHS = {
    # the single-shot figures: the default --n and listed ones, in each format
    "single-shot-polarization": "--figure single-shot-polarization --alpha-grid 0.1:0.9:0.1",
    "single-shot-polarization-n3": "--figure single-shot-polarization --n 3 "
                                   "--alpha-grid 0.1:0.9:0.1",
    **{f"single-shot-polarization-{fmt}": "--figure single-shot-polarization --n 3 "
                                          f"--alpha-grid 0.2:0.8:0.2 --format {fmt}"
       for fmt in ("csv", "json")},
    "single-shot-reduction": "--figure single-shot-reduction --n 3,7 --alpha-grid 0.2:0.8:0.2",
    "single-shot-reduction-json": "--figure single-shot-reduction --n 4 "
                                  "--alpha-grid 0.5:0.5:0.1 --format json",
    # the refrigerator figures, at the default --rounds too
    "bqr-polarization": "--figure bqr-polarization --n 4 --rounds 1,3 --alpha-grid 0.2:0.8:0.3",
    "bqr-polarization-json": "--figure bqr-polarization --n 4 --alpha-grid 0.5:0.5:0.1 "
                             "--format json",
    **{figure: f"--figure {figure} --n 5 --rounds 3,9 --alpha-grid 0.3:0.9:0.3"
       for figure in ("bqr-reduction", "klocal-reduction")},
    # every round count is a batch row of the figure's one solve, listed in any order
    **{f"{figure}-{rounds}-{grid}": f"--figure {figure} --n 5 --m 2 --rounds {rounds} "
                                   f"--alpha-grid={grid}"
       for figure, grid in (("bqr-polarization", "0.05:0.95:0.15"),
                            ("bqr-polarization", "-0.5:0.5:0.25"),
                            ("bqr-reduction", "0.05:0.95:0.15"),
                            ("klocal-reduction", "0.05:0.95:0.15"))
       for rounds in ("3,4,9", "9,3,4")},
    # --sample: every point of a side reads one set of seeded substreams, so a
    # row is the row of its one-point grid
    "sample": "--sample --n 3 --m 2 --rounds 1 --alpha-grid 0.1:0.9:0.1 --budget 300 "
              "--trials 400 --seed 5",
    # the grid holds negative alphas and alpha = 0
    **{f"sample-{locality}": f"--sample --n 6 --m 2 --rounds 3 --locality {locality} "
                             "--budget 700 --trials 300 --seed 4 --alpha-grid=-0.6:0.9:0.3"
       for locality in refrigerator.LOCALITIES},
    # at alpha = 0 the reduction factor is NaN, and at |alpha| = 0.5 both
    # Monte Carlo errors are 0, so their ratio is NaN: JSON strings
    "sample-json": "--sample --trials 10 --format json --alpha-grid=-0.5:0.5:0.5 --budget 1000000",
    # written as typed where the arithmetic holds; the usage lines where
    # alpha^2 or the cooled polarization underflows are rows of EXIT_PATHS
    "sample-1e-13": "--sample --n 3 --m 2 --rounds 1 --trials 10 --alpha-grid 1e-13:1e-13:1",
    # the rounds drift the target's total mass above 1 here; its
    # polarization once read 1.0000000000000016 and was rejected
    "sample-saturated": "--sample --n 5 --m 2 --rounds 9 --alpha-grid 0.99:0.99:0.01",
}


def named_flags(argv):
    """A command line's flags by argparse dest, over :data:`SWEEP_DEFAULTS`,
    each as typed; a flag without a value, as ``--sample``, reads True."""
    named, dest = dict(SWEEP_DEFAULTS), None
    for word in shlex.split(argv.replace("=", " ")):
        if word.startswith("--"):
            dest = word[2:].replace("-", "_")
            named[dest] = True
        else:
            named[dest] = word
    return named


def one_point_rows(named):
    """The header and rows that the flags ``named`` should write: each
    ``--sample`` row from a one-point grid, and each figure cell from its
    own one-point solve or single-shot call."""
    figure, m, grid = named.get("figure"), int(named["m"]), decimal_grid(named["alpha_grid"])
    if figure is None:
        cfg = refrigerator.RefrigeratorConfig(int(named.get("n", 5)), m,
                                              int(named.get("rounds", 5)), named["locality"])
        budget, seed, trials = (int(named[flag]) for flag in ("budget", "seed", "trials"))
        return SAMPLE_HEADER, [dataclasses.astuple(sampling.resource_matched_comparisons(
                                   [a], refrigerator.steady_states(cfg, [a]), cfg.cost, budget,
                                   seed, trials=trials)[0])
                               for a in grid]
    reduction = figure.endswith("reduction")
    if FIGURES[figure] is None:
        n_list = tuple(map(int, named["n"].split(","))) if "n" in named else DEFAULT_SINGLE_SHOT_N
        curve = reduction_factor_ac if reduction else alpha_ac
        return (["alpha", *(f"n{n}" for n in n_list), "baseline"],
                [[a, *(curve(n, a) for n in n_list), 1.0 if reduction else a] for a in grid])
    n = int(named.get("n", 5))
    rounds_list = (tuple(map(int, named["rounds"].split(","))) if "rounds" in named
                   else DEFAULT_BQR_ROUNDS)
    cfgs = [refrigerator.RefrigeratorConfig(n, m, r, locality=FIGURES[figure])
            for r in rounds_list]
    header = ["alpha"] + [f"rounds{r}" for r in rounds_list]
    if not reduction:
        header += ["baseline", "asymptotic"]
        rows = [[a] + [refrigerator.steady_states(cfg, [a])[0].alpha_enhanced for cfg in cfgs]
                + [a, alpha_infinity(n, m, a)] for a in grid]
        return header, rows
    top = max(rounds_list)
    header += [f"single_shot_n{n}", f"optimal_bound_rounds{top}", "baseline"]
    bound_cfg = refrigerator.RefrigeratorConfig(n, m, top)
    rows = [[a] + [refrigerator.steady_states(cfg, [a])[0].reduction_factor(a, cfg.cost)
                   for cfg in cfgs]
            + [reduction_factor_ac(n, a),
               refrigerator.optimal_bounds(bound_cfg, [a])[0].reduction_factor(a, bound_cfg.cost),
               1.0]
            for a in grid]
    return header, rows


@pytest.mark.parametrize("row", list(SUCCESS_PATHS), ids=list(SUCCESS_PATHS))
def test_every_success_path_writes_its_reference(tmp_path, capsys, row):
    named = named_flags(SUCCESS_PATHS[row])
    fmt = named["format"]
    out, expect = tmp_path / f"out.{fmt}", tmp_path / f"expect.{fmt}"
    assert main([*shlex.split(SUCCESS_PATHS[row]), "--out", str(out)]) == EXIT_OK
    header, rows = one_point_rows(named)
    assert capsys.readouterr() == (f"wrote {out} ({len(rows)} rows, {len(header)} columns)\n", "")
    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    write_rows(str(expect), fmt, header, rows)
    assert raw == expect.read_bytes()
    # 17 significant digits, and non-finite cells as strings, read back exactly
    assert read_table(out, fmt) == (header, [[cell(v) for v in row] for row in rows])
    # every reduction cell is finite and positive, a bound is at least its
    # top round count, and |polarization| grows with the rounds to its limit
    columns = {name: np.array(values) for name, values in zip(header, zip(*rows))}
    rounds = [columns[f"rounds{r}"]
              for r in sorted(int(name[6:]) for name in header if name.startswith("rounds"))]
    if named.get("figure", "").endswith("reduction"):
        cells = np.array([row[1:] for row in rows])
        assert np.isfinite(cells).all() and (cells > 0).all()
    if "asymptotic" in columns:
        for low, high in zip(rounds, rounds[1:]):
            assert (abs(low) <= abs(high) + 1e-12).all()
        assert (abs(rounds[-1]) + 1e-12 <= abs(columns["asymptotic"]) + 1e-9).all()
    for name, bound in columns.items():
        if name.startswith("optimal_bound"):
            assert (bound >= rounds[-1] * (1 - 1e-9)).all()


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_sample_solves_its_grid_in_one_call(tmp_path, monkeypatch, jobs):
    calls, solve = [], refrigerator.steady_states

    def counted(cfg, alphas, **kwargs):
        calls.append(tuple(alphas))
        return solve(cfg, alphas, **kwargs)

    monkeypatch.setattr(refrigerator, "steady_states", counted)
    code = main(["--sample", "--n", "4", "--m", "2", "--rounds", "2", "--trials", "50",
                 "--budget", "100", "--alpha-grid=-0.4:0.8:0.2", "--jobs", jobs,
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_OK
    assert calls == [parse_alpha_grid("-0.4:0.8:0.2")]


def test_figure_solves_every_round_count_in_one_call(tmp_path, monkeypatch):
    calls, solve = [], refrigerator.steady_states

    def counted(cfg, alphas, **kwargs):
        calls.append([c.rounds for c in cfg])
        return solve(cfg, alphas, **kwargs)

    monkeypatch.setattr(refrigerator, "steady_states", counted)
    code = main(["--figure", "bqr-polarization", "--n", "4", "--rounds", "5,2,3",
                 "--alpha-grid=-0.4:0.8:0.2", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_OK
    assert calls == [[5, 2, 3]]


@pytest.mark.parametrize("jobs", [["--jobs", "1"], ["--jobs", "3"], []])
def test_sample_holds_at_most_jobs_threads(tmp_path, monkeypatch, jobs):
    # without --jobs the workers are the usable CPUs, patched to 2
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
    limit = int(jobs[1]) if jobs else 2
    sizes, threads = [], []
    pool, count, call = (sampling.ThreadPoolExecutor, sampling._count_substream,
                         sampling.monte_carlo_sign_errors)

    def recorded(max_workers):
        sizes.append(max_workers)
        return pool(max_workers)

    def called(*args, **kwargs):
        threads.append(set())
        return call(*args, **kwargs)

    def counted(*args):
        threads[-1].add(threading.get_ident())
        return count(*args)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", recorded)
    monkeypatch.setattr(sampling, "monte_carlo_sign_errors", called)
    monkeypatch.setattr(sampling, "_count_substream", counted)
    # one call per side, one after the other: each side's 5 points share
    # one call of 2 substreams, which cap its workers; the calling thread is
    # one of them, so a pool holds the rest and one worker starts none
    trials = str(sampling.MC_CHUNK + 1)
    code = main(["--sample", "--n", "4", "--m", "2", "--rounds", "2", "--trials", trials,
                 "--budget", "100", "--alpha-grid", "0.1:0.9:0.2", *jobs,
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_OK
    assert sizes == ([min(limit, 2) - 1] * 2 if limit > 1 else [])
    assert len(threads) == 2
    assert all(1 <= len(held) <= limit for held in threads)


def test_sampling_suite_output_independent_of_usable_cpus(monkeypatch, capsys):
    outputs = []
    for cpus in (1, 4):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda cpus=cpus: cpus)
        assert main(["--suite", "sampling"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


class TestFigureCommand:
    def test_unknown_figure_usage_error(self, tmp_path, capsys, monkeypatch):
        check_exit_paths(tmp_path, capsys, monkeypatch, "unknown-figure")

    def test_missing_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        check_exit_paths(tmp_path, capsys, monkeypatch, "no-out")

    def test_unwritable_path(self, tmp_path, capsys, monkeypatch):
        check_exit_paths(tmp_path, capsys, monkeypatch, "unwritable", "unwritable-sample")


class TestSampleCommand:
    def test_budget_too_small(self, tmp_path, capsys, monkeypatch):
        check_exit_paths(tmp_path, capsys, monkeypatch, "budget")


class TestVerifyCommand:
    @pytest.mark.parametrize("suite, checks", [
        pytest.param(suite, checks, id=suite) for suite, checks in
        (("theorem1", 4), ("all", 11))
    ])
    def test_suites_pass(self, suite, checks, capsys):
        assert main(["--suite", suite]) == EXIT_OK
        output = capsys.readouterr().out
        assert "[PASS]" in output and "[FAIL]" not in output
        assert output.endswith(f"suite {suite}: all {checks} checks passed\n")

    def test_unknown_suite(self, tmp_path, capsys, monkeypatch):
        check_exit_paths(tmp_path, capsys, monkeypatch, "unknown-suite")


class TestExitCodes:
    """Exit 1, which prints its verdict on standard output, the exits when a
    solve does not converge, and the exits 0 on a default grid that once
    failed; the rest of the exits are rows of :data:`SUCCESS_PATHS` and
    :data:`EXIT_PATHS`."""

    def test_convergence_failure(self, tmp_path, capsys, monkeypatch):
        check_exit_paths(tmp_path, capsys, monkeypatch,
                         "convergence", "convergence-sample", "convergence-bound")

    def test_verification_failure(self, capsys, monkeypatch):
        failing = verify.CheckResult("always fails", False, 1.0, 0.0)
        monkeypatch.setitem(verify.SUITES, "theorem1", lambda: [failing])
        assert main(["--suite", "theorem1"]) == EXIT_VERIFY
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "FAILED" in err

    def test_solver_failure_in_a_suite_is_a_fail_line(self, capsys, monkeypatch):
        # a broken GTH makes every steady state fail its one-cycle check
        monkeypatch.setattr(refrigerator, "_stationary_gth", uniform_gth)
        assert main(["--suite", "bqr-oracle"]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert "[FAIL] bqr steady state vs full recycle cycle" in captured.out
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_large_registers_on_default_grid(self, tmp_path):
        # power iteration stalled on these near saturation
        for figure, n in (("bqr-reduction", "8"), ("klocal-reduction", "7")):
            code = main(["--figure", figure, "--n", n, "--m", "2", "--rounds", "3,4",
                         "--out", str(tmp_path / "x.csv")])
            assert code == EXIT_OK


#: a row's ``early``: refused before any work, so it runs under :func:`forbid_work`
EARLY, LATE = True, False
POINT = "--alpha-grid 0.5:0.5:0.1 --out {out}"
TINY = "; a grid polarization is too close to 0"
BQR_FIGURES = [figure for figure, staircase in FIGURES.items() if staircase]
UNWRITABLE = "/nonexistent-dir/x.csv"

#: every documented exit from 2 to 5, by name: ``(argv, code, pattern, early,
#: patches)``.  ``argv`` is split as a shell would, with ``{out}`` the output
#: path; ``pattern`` is fullmatched against the one stderr line after its
#: ``coolsign: ``; ``patches`` are ``(module, name, value)`` triples that break
#: a part for the row
EXIT_PATHS = {
    # argparse's own errors
    "no-mode": ("", EXIT_USAGE,
                re.escape("one of the arguments --figure --suite --sample is required"), EARLY,
                ()),
    "two-modes": ("--figure bqr-reduction --suite theorem1 --out {out}", EXIT_USAGE,
                  re.escape("argument --suite: not allowed with argument --figure"), EARLY, ()),
    "unknown-figure": ("--figure nonsense --out {out}", EXIT_USAGE,
                       r"argument --figure: invalid choice: 'nonsense' \(.*\)", EARLY, ()),
    "unknown-suite": ("--suite bogus", EXIT_USAGE,
                      r"argument --suite: invalid choice: 'bogus' \(.*\)", EARLY, ()),
    "argparse-type": ("--sample --m abc --out {out}", EXIT_USAGE,
                      re.escape("argument --m: invalid int value: 'abc'"), EARLY, ()),
    # the sweep flags, as parsed
    "grid": ("--figure single-shot-polarization --alpha-grid a:b:c --out {out}", EXIT_USAGE,
             re.escape("--alpha-grid expects start:stop:step, got 'a:b:c'"), EARLY, ()),
    "grid-order": ("--figure single-shot-polarization --alpha-grid 0.5:0.1:0.1 --out {out}",
                   EXIT_USAGE, re.escape("--alpha-grid needs finite bounds, step > 0 and stop >= "
                                         "start, got '0.5:0.1:0.1'"), EARLY, ()),
    "n-list": ("--figure single-shot-polarization --n 5,x --out {out}", EXIT_USAGE,
               re.escape("--n expects comma-separated integers, got '5,x'"), EARLY, ()),
    **{f"list{flag}={text}": (f"--figure bqr-polarization {flag} '{text}' " + POINT, EXIT_USAGE,
                              re.escape(f"{flag} expects comma-separated integers, got {text!r}"),
                              EARLY, ())
       for flag, text in (("--n", "5,x"), ("--n", ","), ("--rounds", ""), ("--rounds", "3,4.5"))},
    "no-out": ("--figure single-shot-polarization", EXIT_USAGE,
               re.escape("--out PATH is required for --figure/--sample"), EARLY, ()),
    # a sweep flag the mode does not read; each refrigerator figure fixes its
    # own staircase, so even the matching --locality is one
    "unread-flag": ("--figure single-shot-polarization --m 3 --out {out}", EXIT_USAGE,
                    re.escape("--figure single-shot-polarization does not read --m"), EARLY, ()),
    "unread-flags": ("--figure single-shot-polarization --m 7 --rounds 3,9 --seed 4 --locality "
                     "3local --trials 0 --jobs 2 " + POINT, EXIT_USAGE,
                     re.escape("--figure single-shot-polarization does not read --m, --rounds, "
                               "--locality, --trials, --seed, --jobs"), EARLY, ()),
    **{f"{figure}{flag}": (f"--figure {figure} --n 4 --rounds 3 {flag} {value} " + POINT,
                           EXIT_USAGE, re.escape(f"--figure {figure} does not read {flag}"),
                           EARLY, ())
       for figure in BQR_FIGURES
       for flag, value in (("--budget", "5"), ("--trials", "10"), ("--seed", "4"),
                           ("--jobs", "2"))},
    **{f"{figure}-{locality}": (f"--figure {figure} --n 5 --rounds 3 --locality {locality} "
                                + POINT, EXIT_USAGE,
                                re.escape(f"--figure {figure} does not read --locality"),
                                EARLY, ())
       for figure in BQR_FIGURES for locality in refrigerator.LOCALITIES},
    "suite-flags": ("--suite klocal-fixedpoint --n 5,8 --rounds 3,9 --budget 1", EXIT_USAGE,
                    re.escape("--suite does not read --n, --rounds, --budget"), EARLY, ()),
    **{f"suite{flag}": (f"--suite theorem1 {flag} {value}", EXIT_USAGE,
                        re.escape(f"--suite does not read {flag}"), EARLY, ())
       for flag, value in (("--out", "{out}"), ("--format", "json"), ("--jobs", "2"),
                           ("--n", "x"))},
    # one register, and for --sample one schedule; each value names a column
    **{f"{figure}-registers": (f"--figure {figure} --n 5,8 --rounds 3 " + POINT, EXIT_USAGE,
                               re.escape(f"--figure {figure} takes one value per flag, "
                                         f"got --n 5,8"), EARLY, ())
       for figure in BQR_FIGURES},
    "sample-registers": ("--sample --n 5,7 --rounds 3,9 --out {out}", EXIT_USAGE,
                         re.escape("--sample takes one value per flag, got --n 5,7 --rounds 3,9"),
                         EARLY, ()),
    "sample-schedules": ("--sample --n 5 --rounds 3,9 --out {out}", EXIT_USAGE,
                         re.escape("--sample takes one value per flag, got --rounds 3,9"),
                         EARLY, ()),
    "repeated-n": ("--figure single-shot-polarization --n 5,3,05 " + POINT, EXIT_USAGE,
                   re.escape("--n lists 5 more than once"), EARLY, ()),
    "repeated-rounds": ("--figure bqr-polarization --n 5 --rounds 3,4,3 " + POINT, EXIT_USAGE,
                        re.escape("--rounds lists 3 more than once"), EARLY, ()),
    "repeated-rounds-3local": ("--figure klocal-reduction --n 5 --rounds 3,3 " + POINT,
                               EXIT_USAGE, re.escape("--rounds lists 3 more than once"), EARLY,
                               ()),
    # the least and largest values; a single-shot --n is the shot count of an
    # exact binomial tail, as --budget is
    **{f"jobs{jobs}": ("--sample --n 3 --m 2 --rounds 1 --trials 10 --jobs " + jobs + " " + POINT,
                       EXIT_USAGE, re.escape(f"--jobs must be at least 1, got {jobs}"), EARLY, ())
       for jobs in ("0", "-2")},
    **{f"jobs{jobs}": ("--sample --n 3 --m 2 --rounds 1 --trials 1000000 --jobs " + jobs + " "
                       + POINT, EXIT_USAGE,
                       re.escape(f"--jobs {jobs} is more than {sampling.MAX_JOBS}"), EARLY, ())
       for jobs in (str(sampling.MAX_JOBS + 1), str(10**9))},
    "seed-1": ("--sample --n 3 --m 2 --rounds 1 --trials 10 --seed -1 " + POINT, EXIT_USAGE,
               re.escape("--seed must be at least 0, got -1"), EARLY, ()),
    **{f"trials{trials}": (f"--sample --n 5 --m 2 --rounds 5 --trials {trials} " + POINT,
                           EXIT_USAGE, re.escape(f"--trials must be at least 1, got {trials}"),
                           EARLY, ())
       for trials in ("0", "-3")},
    **{f"budget{budget}": ("--sample --n 5 --m 2 --rounds 5 --trials 1 --alpha-grid 0.5:0.5:1 "
                           f"--budget {budget} --out {{out}}", EXIT_USAGE,
                           re.escape(f"--budget {budget} is more than {MAX_BUDGET}"), EARLY, ())
       for budget in (str(10**20), str(2**63 - 1), str(10**12 + 1))},
    **{f"n{n}": (f"--figure single-shot-polarization --n {n} --alpha-grid 1e-8:1e-8:1 "
                 "--out {out}", EXIT_USAGE,
                 re.escape(f"--n {largest} is more than {MAX_BUDGET}"), EARLY, ())
       for n, largest in ((str(10**12 + 1), 10**12 + 1), ("3," + str(10**16), 10**16))},
    # the parameters a config or grid rejects
    "config": ("--figure bqr-reduction --n 5 --m 9 --out {out}", EXIT_USAGE,
               re.escape("need 1 <= m <= n-1, got m=9, n=5"), EARLY, ()),
    "sample-config": ("--sample --n 4 --m 4 --out {out}", EXIT_USAGE,
                      re.escape("need 1 <= m <= n-1, got m=4, n=4"), EARLY, ()),
    **{f"{figure}-zero": (f"--figure {figure} {grid} --out {{out}}", EXIT_USAGE,
                          re.escape("reduction-factor sweeps need a grid within (0, 1]"), EARLY,
                          ())
       for figure, grid in (("single-shot-reduction", "--alpha-grid 0.0:0.5:0.1"),
                            ("bqr-reduction", "--n 5 --rounds 3 --alpha-grid=-0.5:0.5:0.5"))},
    # one reset: the staircase never cools, so no refrigerator mode takes it
    **{f"{name}-m1": (mode + " --n 5 --m 1 --rounds 3 " + POINT, EXIT_USAGE,
                      re.escape("the staircase needs two resets to cool, got --m 1"), EARLY, ())
       for name, mode in [*((figure, f"--figure {figure}") for figure in BQR_FIGURES),
                          ("sample", "--sample")]},
    # refused inside the steady-state solve
    "polarization-range": ("--figure bqr-polarization --n 4 --rounds 1 --alpha-grid 0.5:1.5:0.5 "
                           "--out {out}", EXIT_USAGE,
                           re.escape("polarization must lie in [-1, 1], got 1.5"), LATE, ()),
    # a polarization so close to 0 that alpha^2, erf(xi)^2, the target's two
    # masses or the cooled polarization round away; every --sample point is
    # checked before any draw
    **{name: (argv + " --alpha-grid 1e-300:1e-300:1 --out {out}", EXIT_USAGE,
              re.escape(message + TINY), LATE, ())
       for name, argv, message in (
           ("bqr-reduction-1e-300", "--figure bqr-reduction --n 4 --rounds 1",
            "reduction factor underflows at alpha = 1e-300"),
           ("single-shot-reduction-1e-300", "--figure single-shot-reduction",
            "reduction factor underflows at alpha = 1e-300"),
           ("sample-1e-300", "--sample --trials 10",
            "the cooled polarization at alpha = 1e-300 rounds to 0"))},
    "sample-1e-150": ("--sample --trials 10 --alpha-grid 1e-150:1e-150:1 --out {out}", EXIT_USAGE,
                      re.escape("the cooled polarization at alpha = 1e-150 rounds to 0" + TINY),
                      LATE, ((sampling, "monte_carlo_sign_errors", started_work),)),
    **{f"{figure}-{alpha}": (f"--figure {figure} {flags}--alpha-grid {alpha}:{alpha}:1 "
                             "--out {out}", EXIT_USAGE,
                             re.escape(f"reduction factor underflows at alpha = {alpha}" + TINY),
                             LATE, ())
       for figure, flags, alpha in (
           *(("single-shot-reduction", "", alpha)
             for alpha in ("1e-155", "1e-158", "1e-160", "1e-163")),
           ("bqr-reduction", "--n 5 --rounds 3 ", "3e-17"),
           ("klocal-reduction", "--n 5 --rounds 3 ", "1e-17"))},
    # a register too large to simulate in memory
    **{name: (mode + " --n 20 --rounds 3 " + POINT, EXIT_USAGE,
              re.escape("a register of n=20 qubits with m=2 resets is too large to simulate "
                        "in memory"), LATE, ((refrigerator, "steady_states", out_of_memory),))
       for name, mode in (("bqr-polarization-memory", "--figure bqr-polarization"),
                          ("sample-memory", "--sample --trials 10"))},
    # 3: the output file cannot be written; a figure and --sample reach the
    # same writer
    "unwritable": ("--figure single-shot-polarization --n 3 --alpha-grid 0.2:0.8:0.2 --out "
                   + UNWRITABLE, EXIT_IO, re.escape(f"cannot write {UNWRITABLE}: ") + ".+", LATE,
                   ()),
    "unwritable-sample": ("--sample --n 3 --m 2 --rounds 1 --trials 10 --alpha-grid 0.2:0.8:0.2 "
                          "--out " + UNWRITABLE, EXIT_IO,
                          re.escape(f"cannot write {UNWRITABLE}: ") + ".+", LATE, ()),
    # 4: a budget below one cooled shot
    "budget": ("--sample --budget 10 --trials 10 " + POINT, EXIT_BUDGET,
               re.escape("budget 10 cannot afford one cooled shot (cost 11)"), EARLY, ()),
    # 5: a fixed point outside the residual tolerance; a broken GTH hands the
    # check the uniform vector, and one sort cycle leaves the bound short
    **{name: (mode + " --n 4 --rounds 3 --alpha-grid 0.25:0.25:0.1 --out {out}",
              EXIT_CONVERGENCE,
              re.escape(f"{solve} at alpha=0.25, rounds=3: relative residual ") + r"\S+"
              + re.escape(f" is not within {refrigerator.RESIDUAL_TOL:g}"), LATE, patches)
       for name, mode, solve, patches in (
           ("convergence", "--figure bqr-polarization", "steady state",
            ((refrigerator, "_stationary_gth", uniform_gth),)),
           ("convergence-sample", "--sample --trials 10", "steady state",
            ((refrigerator, "_stationary_gth", uniform_gth),)),
           ("convergence-bound", "--figure bqr-reduction", "optimal bound",
            ((refrigerator, "MAX_CYCLES", 1),)))},
}


def check_exit_paths(tmp_path, capsys, monkeypatch, *names):
    """Run the :data:`EXIT_PATHS` rows ``names``, each under its own patches."""
    for row in names:
        argv, code, pattern, early, patches = EXIT_PATHS[row]
        with monkeypatch.context() as patch:
            if early:
                forbid_work(patch)
            for module, name, value in patches:
                patch.setattr(module, name, value)
            argv = [arg.format(out=tmp_path / "x.csv") for arg in shlex.split(argv)]
            assert main(argv) == code, row
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("coolsign: ") and err.endswith("\n") and err.count("\n") == 1, err
        assert "Traceback" not in err and captured.out == ""
        assert re.fullmatch(pattern, err[len("coolsign: "):-1]), err
        assert not any(tmp_path.iterdir())
        assert not any(os.path.exists(path)
                       for flag, path in zip(argv, argv[1:]) if flag == "--out")


@pytest.mark.parametrize("row", list(EXIT_PATHS), ids=list(EXIT_PATHS))
def test_every_exit_path_prints_one_coolsign_line(tmp_path, capsys, monkeypatch, row):
    check_exit_paths(tmp_path, capsys, monkeypatch, row)


def test_mutually_exclusive_modes(tmp_path, capsys, monkeypatch):
    check_exit_paths(tmp_path, capsys, monkeypatch, "two-modes")


def run_quietly(argv):
    """Exit code, standard output and standard error of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def grids(starts, spans):
    """``start:stop:step`` in hundredths, the stop at most 0.99."""
    return st.builds(
        lambda start, span, step: f"{start / 100}:{min(start + span, 99) / 100}:{step / 100}",
        starts, spans, st.integers(10, 100),
    )


# within (0, 1), which every mode reads, and within (-1, 1), which only the
# reduction figures refuse
POSITIVE_GRIDS = grids(st.integers(1, 99), st.integers(0, 60))
SIGNED_GRIDS = grids(st.integers(-99, 99), st.integers(0, 90))
GRIDS = st.one_of(
    POSITIVE_GRIDS, SIGNED_GRIDS,
    st.builds(
        lambda start, stop, step: f"{start / 100}:{stop / 100}:{step / 100}",
        st.integers(-150, 150), st.integers(-150, 150), st.integers(10, 100),
    ),
    st.sampled_from(["1:2", "a:b:c", "0.5:0.1:0.1", "0.1:0.9:0", "0:inf:1", "nan:0.5:0.1"]),
)
# one point at each edge of the float range the grids can hold, of either sign
EDGE_GRIDS = st.sampled_from([
    f"{sign}{v!r}:{sign}{v!r}:1" for sign in ("", "-")
    for v in (0.0, 1.0, 5e-324, 1e-320, 1e-300, 1e-170, 1e-14, 1e-8, 0.999, 1 - 2**-53, 1 + 2**-52)
])


def n_lists(values, unique):
    return st.lists(values, min_size=1, max_size=3, unique=unique).map(
        lambda n: ",".join(map(str, n)))


def command(modes, **flags):
    """A drawn mode, then each flag as ``--flag=value``; a flag that draws None
    is left out."""
    parts = [values.map(lambda v, flag="--" + name.replace("_", "-"):
                        [] if v is None else [f"{flag}={v}"])
             for name, values in flags.items()]
    return st.tuples(modes, *parts).map(lambda drawn: [arg for part in drawn for arg in part])


SINGLE_SHOT = st.sampled_from([["--figure", "single-shot-polarization"],
                               ["--figure", "single-shot-reduction"]])
BQR = st.sampled_from([["--figure", figure] for figure in BQR_FIGURES])
SAMPLE = st.just(["--sample", "--trials=100"])
LOCALITY = st.none() | st.sampled_from(refrigerator.LOCALITIES)
FORMAT = st.sampled_from([None, "csv", "json"])

# about half the command lines are drawn valid, so that they write a file
VALID_ARGV = st.one_of(
    command(SINGLE_SHOT, n=n_lists(st.integers(1, 3000), unique=True),
            alpha_grid=POSITIVE_GRIDS, format=FORMAT),
    command(BQR, n=st.integers(3, 6), m=st.integers(2, 3), rounds=st.integers(1, 40),
            alpha_grid=POSITIVE_GRIDS | EDGE_GRIDS, format=FORMAT),
    command(SAMPLE, n=st.integers(3, 6), m=st.integers(2, 3), rounds=st.integers(1, 3),
            locality=LOCALITY, budget=st.none() | st.integers(11, 10**6),
            alpha_grid=SIGNED_GRIDS | EDGE_GRIDS, format=FORMAT),
)
ANY_ARGV = st.one_of(
    command(SINGLE_SHOT, n=n_lists(st.integers(-2, 3000), unique=False), alpha_grid=GRIDS,
            format=FORMAT),
    command(BQR | SAMPLE, n=st.integers(-1, 6), m=st.integers(-1, 7), rounds=st.integers(-1, 3),
            locality=LOCALITY, budget=st.none() | st.integers(-1, 10**6), alpha_grid=GRIDS,
            format=FORMAT),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=VALID_ARGV | ANY_ARGV)
@example(argv=["--figure", "single-shot-polarization", "--n", "3,2001",
               "--alpha-grid", "0.1:0.1:0.1"])
@example(argv=["--figure", "single-shot-reduction", "--n", "3", "--alpha-grid=a:b:c"])
def test_any_argv_exits_cleanly(tmp_path_factory, argv):
    folder = tmp_path_factory.mktemp("argv")
    out = folder / "x.out"
    code, stdout, err = run_quietly(argv + ["--out", str(out)])
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_BUDGET, EXIT_CONVERGENCE), (argv, err)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("coolsign: ") and err.count("\n") == 1, (argv, err)
        assert stdout == "" and not out.exists(), argv
        if err.endswith(TINY + "\n"):
            # the message names the grid point it stopped at
            grid = next(arg.split("=", 1)[1] for arg in argv if arg.startswith("--alpha-grid="))
            named = re.search(r"\balpha = ([^\s;]+)", err)
            assert named and float(named[1]) in parse_alpha_grid(grid), (argv, err)
            event("names a tiny alpha")
        return
    fmt = "json" if "--format=json" in argv else "csv"
    header, rows = read_table(out, fmt)
    assert stdout == f"wrote {out} ({len(rows)} rows, {len(header)} columns)\n"
    assert all(len(row) == len(header) for row in rows), argv
    # a polarization, a wrong-sign probability (at most a coin's) and a bound
    # on one, each within its range
    polarization = argv[1].endswith("polarization")
    for column, *cells in zip(header, *rows):
        if polarization or column.startswith(("alpha", "exact_error_", "bound_")):
            low = -1.0 if polarization or column.startswith("alpha") else 0.0
            high = 0.5 if column.startswith("exact_error_") else 1.0
            assert all(low <= float(value) <= high for value in cells), (argv, column, cells)
    # the same command in the other format: the same columns and cells
    other_fmt = "json" if fmt == "csv" else "csv"
    other = folder / "other.out"
    assert run_quietly(argv + [f"--format={other_fmt}", "--out", str(other)])[0] == EXIT_OK
    assert read_table(other, other_fmt) == (header, rows), argv


def test_no_mode_imports_scipy(tmp_path):
    """The package runs on numpy alone: a one-point ``--sample``, ``--suite
    all`` and the README's first figure load no ``scipy`` module.  Run
    first, ``--suite bqr-oracle`` draws no random number, so it loads no
    ``numpy.random`` that importing the command line did not."""
    argvs = [
        ["--suite", "bqr-oracle"],
        ["--sample", "--n", "5", "--m", "2", "--rounds", "5", "--budget", "10000",
         "--trials", "1000", "--seed", "7", "--alpha-grid", "0.5:0.5:0.1",
         "--out", str(tmp_path / "sample.csv")],
        ["--suite", "all"],
        ["--figure", "single-shot-polarization", "--out", str(tmp_path / "fig1.csv")],
    ]
    code = ("import json, sys\n"
            "from coolsign.cli import main\n"
            "argvs = json.loads(sys.argv[1])\n"
            "random = ['numpy.random' in sys.modules]\n"
            "codes = [main(argvs[0])]\n"
            "random.append('numpy.random' in sys.modules)\n"
            "codes += [main(argv) for argv in argvs[1:]]\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(json.dumps([codes, random, loaded]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, (imported, after_suite), loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * len(argvs)
    assert after_suite == imported and loaded == []
