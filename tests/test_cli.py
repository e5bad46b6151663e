import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coolsign import (
    alpha_ac,
    alpha_infinity,
    reduction_factor_ac,
    refrigerator,
    sampling,
    verify,
)
from coolsign.cli import (
    EXIT_BUDGET,
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    FIGURE_LOCALITY,
    MAX_BUDGET,
    SAMPLE_HEADER,
    main,
    parse_alpha_grid,
    write_rows,
)


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


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

    @pytest.mark.parametrize("bad", ["0.5:0.1:0.1", "0.1:0.9:0", "1:2", "a:b:c", "0:inf:1",
                                     "0:1:1e-8", "0:1:1e-300"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_alpha_grid(bad)

    @pytest.mark.parametrize("text", ["0.01:0.99:0.01", "0.1:0.9:0.1", "0.0005:0.01:0.0005",
                                      "-0.5:0.5:1.0", "0.2:0.8:0.6", "-0.3:0.3:0.1"])
    def test_points_are_the_nearest_floats_to_their_decimals(self, text):
        start, stop, step = map(Decimal, text.split(":"))
        count = int((stop - start) / step)
        assert parse_alpha_grid(text) == tuple(float(start + k * step) for k in range(count + 1))

    def test_start_stays_as_typed(self):
        assert parse_alpha_grid("1e-13:1e-13:1") == (1e-13,)
        assert parse_alpha_grid("6e-13:6e-13:1") == (6e-13,)
        assert parse_alpha_grid("1e-300:1e-300:1") == (1e-300,)


class TestFigureCommand:
    def test_single_shot_polarization_columns(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(
            ["--figure", "single-shot-polarization", "--alpha-grid", "0.1:0.9:0.1",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["alpha", "n3", "n5", "n11", "n21", "baseline"]
        alphas = [row[0] for row in rows]
        assert alphas == sorted(alphas) and len(set(alphas)) == len(alphas)
        for row in rows:
            assert row[1] == pytest.approx(alpha_ac(3, row[0]), abs=1e-15)
            assert row[-1] == row[0]

    def test_custom_n_list(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(
            ["--figure", "single-shot-reduction", "--n", "3,7",
             "--alpha-grid", "0.2:0.8:0.2", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["alpha", "n3", "n7", "baseline"]
        for row in rows:
            assert row[1] == pytest.approx(reduction_factor_ac(3, row[0]), abs=1e-12)
            assert row[-1] == 1.0

    def test_bqr_polarization_includes_asymptote(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(
            ["--figure", "bqr-polarization", "--n", "4", "--rounds", "1,3",
             "--alpha-grid", "0.2:0.8:0.3", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["alpha", "rounds1", "rounds3", "baseline", "asymptotic"]
        for row in rows:
            assert row[-1] == pytest.approx(alpha_infinity(4, 2, row[0]), abs=1e-14)
            assert row[1] <= row[2] + 1e-12 <= row[-1] + 1e-9

    def test_bqr_reduction_extra_columns(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(
            ["--figure", "bqr-reduction", "--n", "5", "--rounds", "3,9",
             "--alpha-grid", "0.3:0.9:0.3", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == [
            "alpha", "rounds3", "rounds9", "single_shot_n5",
            "optimal_bound_rounds9", "baseline",
        ]
        for row in rows:
            assert all(math.isfinite(v) and v > 0 for v in row[1:])
            bound, r9 = row[4], row[2]
            assert bound >= r9 * (1 - 1e-9)

    def test_klocal_reduction(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(
            ["--figure", "klocal-reduction", "--n", "5", "--rounds", "3,9",
             "--alpha-grid", "0.3:0.9:0.3", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[3] == "single_shot_n5"
        for row in rows:
            assert row[4] >= row[2] * (1 - 1e-9)  # bound dominates 3-local

    def test_seventeen_digit_roundtrip(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["--figure", "single-shot-polarization", "--n", "3",
              "--alpha-grid", "0.1:0.9:0.1", "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            assert row[1] == alpha_ac(3, row[0])

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig.json"
        code = main(
            ["--figure", "single-shot-polarization", "--n", "3",
             "--alpha-grid", "0.2:0.8:0.2", "--out", str(out), "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["alpha", "n3", "baseline"]
        assert payload["rows"][0][1] == alpha_ac(3, payload["rows"][0][0])

    def test_unknown_figure_usage_error(self, tmp_path):
        code = main(["--figure", "nonsense", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_reduction_grid_with_zero_rejected(self, tmp_path):
        code = main(
            ["--figure", "single-shot-reduction", "--alpha-grid", "0.0:0.5:0.1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_USAGE

    def test_missing_out_is_usage_error(self):
        assert main(["--figure", "single-shot-polarization"]) == EXIT_USAGE

    def test_unwritable_path(self):
        code = main(
            ["--figure", "single-shot-polarization", "--n", "3",
             "--alpha-grid", "0.2:0.8:0.2", "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == EXIT_IO

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["--figure", "single-shot-polarization", "--n", "3",
              "--alpha-grid", "0.2:0.8:0.2", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def one_point_rows(figure, n, m, rounds_list, grid):
    """A refrigerator figure's header and rows, each cell from its own
    one-point solve."""
    cfgs = [refrigerator.RefrigeratorConfig(n, m, r, locality=FIGURE_LOCALITY[figure])
            for r in rounds_list]
    header = ["alpha"] + [f"rounds{r}" for r in rounds_list]
    if figure == "bqr-polarization":
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


@pytest.mark.parametrize(
    "figure,grid",
    [("bqr-polarization", "0.05:0.95:0.15"), ("bqr-polarization", "-0.5:0.5:0.25"),
     ("bqr-reduction", "0.05:0.95:0.15"), ("klocal-reduction", "0.05:0.95:0.15")],
)
def test_batched_figure_matches_one_point_solves(tmp_path, figure, grid):
    out, expect = tmp_path / "fig.csv", tmp_path / "expect.csv"
    argv = ["--figure", figure, "--n", "5", "--m", "2", "--rounds", "3,4,9",
            "--alpha-grid=" + grid, "--out", str(out)]
    assert main(argv) == EXIT_OK
    write_rows(str(expect), "csv", *one_point_rows(figure, 5, 2, (3, 4, 9),
                                                   parse_alpha_grid(grid)))
    assert out.read_bytes() == expect.read_bytes()


@pytest.mark.parametrize("locality", ["full", "3local"])
def test_batched_sample_matches_one_point_solves(tmp_path, locality):
    # the grid holds negative alphas and alpha = 0
    grid, budget, trials, seed = "-0.6:0.9:0.3", 700, 300, 4
    out, expect = tmp_path / "sample.csv", tmp_path / "expect.csv"
    argv = ["--sample", "--n", "6", "--m", "2", "--rounds", "3", "--locality", locality,
            "--budget", str(budget), "--trials", str(trials), "--seed", str(seed),
            "--alpha-grid=" + grid, "--out", str(out)]
    assert main(argv) == EXIT_OK
    cfg = refrigerator.RefrigeratorConfig(6, 2, 3, locality=locality)
    rows = [dataclasses.astuple(sampling._compare(
                [alpha], [refrigerator.steady_states(cfg, [alpha])[0]], cfg.cost, budget,
                [sampling._derived_seed(seed, index)], trials, None)[0])
            for index, alpha in enumerate(parse_alpha_grid(grid))]
    assert 0.0 in [row[0] for row in rows]
    write_rows(str(expect), "csv", SAMPLE_HEADER, rows)
    assert out.read_bytes() == expect.read_bytes()


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


@pytest.mark.parametrize("jobs", [["--jobs", "1"], ["--jobs", "3"], []])
def test_sample_holds_at_most_jobs_threads(tmp_path, monkeypatch, jobs):
    # without --jobs the pool is sized by the usable CPUs, patched to 2
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
    limit = int(jobs[1]) if jobs else 2
    sizes, threads, pool, count = [], set(), sampling.ThreadPoolExecutor, sampling._count_chunks

    def recorded(max_workers):
        sizes.append(max_workers)
        return pool(max_workers)

    def counted(*args):
        threads.add(threading.get_ident())
        return count(*args)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", recorded)
    monkeypatch.setattr(sampling, "_count_chunks", counted)
    # 20 tasks: 5 points, 2 experiments each, 2 tasks of chunks each
    trials = str(sampling.MC_CHUNK * sampling.TASK_CHUNKS + 1)
    code = main(["--sample", "--n", "4", "--m", "2", "--rounds", "2", "--trials", trials,
                 "--budget", "100", "--alpha-grid", "0.1:0.9:0.2", *jobs,
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_OK
    assert sizes == ([] if limit == 1 else [limit])
    assert 1 <= len(threads) <= limit


def test_sampling_suite_output_independent_of_usable_cpus(monkeypatch, capsys):
    outputs = []
    for cpus in (1, 4):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda cpus=cpus: cpus)
        assert main(["--suite", "sampling"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["theorem1", "klocal-fixedpoint"])
    def test_suites_pass(self, suite, capsys):
        assert main(["--suite", suite]) == EXIT_OK
        output = capsys.readouterr().out
        assert "[PASS]" in output and "[FAIL]" not in output

    def test_unknown_suite(self):
        assert main(["--suite", "bogus"]) == EXIT_USAGE


class TestSampleCommand:
    def test_rows_and_columns(self, tmp_path):
        out = tmp_path / "sample.csv"
        code = main(
            ["--sample", "--n", "3", "--m", "2", "--rounds", "1",
             "--alpha-grid", "0.1:0.9:0.1", "--budget", "300", "--trials", "400",
             "--seed", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[0] == "alpha" and "reduction_factor" in header
        assert len(rows) == 9
        assert rows[0][1] == 300 and rows[0][2] == 100

    def test_byte_identical_across_parallelism(self, tmp_path):
        args = ["--sample", "--n", "4", "--m", "2", "--rounds", "2",
                "--alpha-grid", "0.2:0.8:0.2", "--budget", "100", "--trials", "5000",
                "--seed", "99"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first), "--jobs", "1"]) == EXIT_OK
        assert main(args + ["--out", str(second), "--jobs", "4"]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_repeat_run_identical(self, tmp_path):
        args = ["--sample", "--n", "3", "--m", "2", "--rounds", "1",
                "--alpha-grid", "0.3:0.6:0.3", "--budget", "60", "--trials", "2000",
                "--seed", "17"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(first)])
        main(args + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_json_writes_non_finite_cells_as_strings(self, tmp_path):
        # at alpha = 0 the reduction factor is NaN, and at |alpha| = 0.5 both
        # Monte Carlo errors are 0, so their ratio is NaN
        def reject(constant):
            raise AssertionError(f"bare {constant} in the JSON")

        out = tmp_path / "sample.json"
        code = main(["--sample", "--trials", "10", "--format", "json",
                     "--alpha-grid=-0.5:0.5:0.5", "--budget", "1000000", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text(), parse_constant=reject)
        rows = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
        assert [row["alpha"] for row in rows] == [-0.5, 0.0, 0.5]
        strings = {(column, row["alpha"], v) for row in rows for column, v in row.items()
                   if isinstance(v, str)}
        assert strings == {("empirical_ratio", -0.5, "nan"), ("reduction_factor", 0.0, "nan"),
                           ("empirical_ratio", 0.5, "nan")}

    def test_budget_too_small(self, tmp_path, capsys, monkeypatch):
        # rejected before any refrigerator work
        def no_work(*args, **kwargs):
            raise AssertionError("solved a steady state")

        monkeypatch.setattr(refrigerator, "steady_states", no_work)
        out = tmp_path / "x.csv"
        code = main(
            ["--sample", "--n", "5", "--m", "2", "--rounds", "5",
             "--alpha-grid", "0.5:0.5:0.1", "--budget", "10", "--trials", "100",
             "--out", str(out)]
        )
        assert code == EXIT_BUDGET
        assert capsys.readouterr().err == "budget 10 cannot afford one cooled shot (cost 11)\n"
        assert not out.exists()


class TestExitCodes:
    """One test per documented exit code that the classes above do not cover;
    every failure is one line on stderr, never a traceback."""

    def one_line(self, capsys):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_verification_failure(self, capsys, monkeypatch):
        failing = verify.CheckResult("always fails", False, 1.0, 0.0)
        monkeypatch.setitem(verify.SUITES, "theorem1", lambda: [failing])
        assert main(["--suite", "theorem1"]) == EXIT_VERIFY
        assert "FAILED" in self.one_line(capsys)

    def test_config_rejected_is_usage_error(self, tmp_path, capsys):
        code = main(["--figure", "bqr-reduction", "--n", "5", "--m", "9",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "m=9" in self.one_line(capsys)

    def test_polarization_out_of_range_is_usage_error(self, tmp_path, capsys):
        code = main(["--figure", "bqr-polarization", "--n", "4", "--rounds", "1",
                     "--alpha-grid", "0.5:1.5:0.5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "1.5" in self.one_line(capsys)

    def test_sample_config_rejected_is_usage_error(self, tmp_path, capsys):
        code = main(["--sample", "--n", "4", "--m", "4", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        self.one_line(capsys)

    def test_locality_rejected_by_full_staircase_figures(self, tmp_path, capsys):
        # their asymptotic column is the full-staircase limit; the 3-local
        # figure likewise runs its own staircase only
        out = tmp_path / "x.csv"
        for figure, locality, other in (
            ("bqr-polarization", "3local", "klocal-reduction"),
            ("bqr-reduction", "3local", "klocal-reduction"),
            ("klocal-reduction", "full", "bqr-reduction"),
        ):
            code = main(["--figure", figure, "--n", "5", "--rounds", "3", "--locality", locality,
                         "--alpha-grid", "0.5:0.5:0.1", "--out", str(out)])
            assert code == EXIT_USAGE
            err = self.one_line(capsys)
            assert other in err and "--sample" in err
        assert not out.exists()

    def test_refrigerator_figures_take_one_register(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for figure in FIGURE_LOCALITY:
            code = main(["--figure", figure, "--n", "5,8", "--rounds", "3",
                         "--alpha-grid", "0.5:0.5:0.1", "--out", str(out)])
            assert code == EXIT_USAGE
            assert "--n 5,8" in self.one_line(capsys)
        assert not out.exists()

    def test_sample_takes_one_register_and_schedule(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["--sample", "--n", "5,7", "--rounds", "3,9", "--out", str(out)]) == EXIT_USAGE
        err = self.one_line(capsys)
        assert "--n 5,7" in err and "--rounds 3,9" in err
        assert main(["--sample", "--n", "5", "--rounds", "3,9", "--out", str(out)]) == EXIT_USAGE
        err = self.one_line(capsys)
        assert "--rounds 3,9" in err and "--n" not in err
        assert not out.exists()

    def test_suite_reads_no_sweep_flag(self, tmp_path, capsys):
        argv = ["--suite", "klocal-fixedpoint", "--n", "5,8", "--rounds", "3,9", "--budget", "1"]
        assert main(argv) == EXIT_USAGE
        err = self.one_line(capsys)
        assert all(flag in err for flag in ("--suite", "--n", "--rounds", "--budget"))
        out = tmp_path / "x.csv"
        for flags in (["--out", str(out)], ["--format", "json"], ["--jobs", "2"], ["--n", "x"]):
            assert main(["--suite", "theorem1"] + flags) == EXIT_USAGE
            assert flags[0] in self.one_line(capsys)
        assert not out.exists()

    def test_figures_reject_flags_they_do_not_read(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["--figure", "single-shot-polarization", "--alpha-grid", "0.5:0.5:0.1",
                "--out", str(out)]
        assert main(argv + ["--m", "7", "--rounds", "3,9", "--seed", "4", "--locality",
                            "3local", "--trials", "0", "--jobs", "2"]) == EXIT_USAGE
        err = self.one_line(capsys)
        assert all(flag in err for flag in ("--m", "--rounds", "--seed", "--locality", "--trials",
                                            "--jobs"))
        for figure in FIGURE_LOCALITY:
            for flag, value in (("--budget", "5"), ("--trials", "10"), ("--seed", "4"),
                                ("--jobs", "2")):
                code = main(["--figure", figure, "--n", "4", "--rounds", "3",
                             "--alpha-grid", "0.5:0.5:0.1", "--out", str(out), flag, value])
                assert code == EXIT_USAGE
                assert f"--figure {figure} does not read {flag}\n" == self.one_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("figure", ["single-shot-reduction", "bqr-polarization"])
    def test_figures_accept_jobs_and_format(self, tmp_path, figure):
        code = main(["--figure", figure, "--n", "4", "--alpha-grid", "0.5:0.5:0.1",
                     "--out", str(tmp_path / "x.json"), "--format", "json"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "x.csv"
        code = main(["--sample", "--n", "3", "--m", "2", "--rounds", "1", "--trials", "10",
                     "--alpha-grid", "0.5:0.5:0.1", "--out", str(out), "--jobs", jobs])
        assert code == EXIT_USAGE
        assert f"--jobs must be at least 1, got {jobs}\n" == self.one_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [str(sampling.MAX_JOBS + 1), str(10**9)])
    def test_jobs_above_the_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, jobs):
        # rejected before any work, and without starting a thread
        def no_work(*args, **kwargs):
            raise AssertionError("started work")

        monkeypatch.setattr(refrigerator, "steady_states", no_work)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", no_work)
        out = tmp_path / "x.csv"
        code = main(["--sample", "--n", "3", "--m", "2", "--rounds", "1", "--trials", "1000000",
                     "--alpha-grid", "0.5:0.5:0.1", "--out", str(out), "--jobs", jobs])
        assert code == EXIT_USAGE
        assert f"--jobs {jobs} is more than {sampling.MAX_JOBS}\n" == self.one_line(capsys)
        assert not out.exists()

    def test_seed_below_zero_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["--sample", "--n", "3", "--m", "2", "--rounds", "1", "--trials", "10",
                     "--alpha-grid", "0.5:0.5:0.1", "--out", str(out), "--seed", "-1"])
        assert code == EXIT_USAGE
        assert "--seed must be at least 0, got -1\n" == self.one_line(capsys)
        assert not out.exists()

    def test_trials_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # rejected before any refrigerator work
        def no_work(*args, **kwargs):
            raise AssertionError("solved a steady state")

        monkeypatch.setattr(refrigerator, "steady_states", no_work)
        out = tmp_path / "x.csv"
        for trials in ("0", "-3"):
            code = main(["--sample", "--n", "5", "--m", "2", "--rounds", "5", "--trials", trials,
                         "--alpha-grid", "0.5:0.5:0.1", "--out", str(out)])
            assert code == EXIT_USAGE
            assert f"--trials must be at least 1, got {trials}\n" == self.one_line(capsys)
            assert not out.exists()

    @pytest.mark.parametrize("budget", [str(10**20), str(2**63 - 1), str(10**12 + 1)])
    def test_budget_above_the_cap_is_usage_error(self, tmp_path, capsys, monkeypatch, budget):
        # rejected before any point is sampled
        def no_work(*args, **kwargs):
            raise AssertionError("sampled a point")

        monkeypatch.setattr(sampling, "resource_matched_comparisons", no_work)
        out = tmp_path / "x.csv"
        code = main(["--sample", "--n", "5", "--m", "2", "--rounds", "5", "--trials", "1",
                     "--alpha-grid", "0.5:0.5:1", "--out", str(out), "--budget", budget])
        assert code == EXIT_USAGE
        assert f"--budget {budget} is more than {MAX_BUDGET}\n" == self.one_line(capsys)
        assert not out.exists()

    def test_polarization_typed_near_zero(self, tmp_path, capsys):
        # written as typed where the arithmetic holds, one usage line where
        # alpha^2 or the cooled polarization underflows
        out = tmp_path / "x.csv"
        code = main(["--sample", "--n", "3", "--m", "2", "--rounds", "1", "--trials", "10",
                     "--alpha-grid", "1e-13:1e-13:1", "--out", str(out)])
        assert code == EXIT_OK
        assert read_csv(out)[1][0][0] == 1e-13
        for argv in (["--figure", "bqr-reduction", "--n", "4", "--rounds", "1"],
                     ["--figure", "single-shot-reduction"], ["--sample", "--trials", "10"]):
            code = main(argv + ["--alpha-grid", "1e-300:1e-300:1", "--out", str(out)])
            assert code == EXIT_USAGE
            assert "too close to 0" in self.one_line(capsys)

    def test_register_too_large_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # stands in for the 128 GiB carried chain of n = 20 without allocating it
        def out_of_memory(cfg, alphas):
            raise MemoryError("Unable to allocate 128. GiB")

        monkeypatch.setattr(refrigerator, "steady_states", out_of_memory)
        for mode in (["--figure", "bqr-polarization"], ["--sample", "--trials", "10"]):
            code = main(mode + ["--n", "20", "--rounds", "3", "--alpha-grid", "0.5:0.5:0.1",
                                "--out", str(tmp_path / "x.csv")])
            assert code == EXIT_USAGE
            err = self.one_line(capsys)
            assert "n=20" in err and "m=2" in err

    def test_convergence_failure(self, tmp_path, capsys, monkeypatch):
        # a broken GTH hands the check the uniform vector, which no cycle keeps
        def uniform(rows):
            return np.full(rows.shape[:-1], 1.0 / rows.shape[-1])

        monkeypatch.setattr(refrigerator, "_stationary_gth", uniform)
        for mode in (["--figure", "bqr-polarization"], ["--sample", "--trials", "10"]):
            out = tmp_path / "x.csv"
            code = main(mode + ["--n", "4", "--rounds", "3", "--alpha-grid", "0.25:0.25:0.1",
                                "--out", str(out)])
            assert code == EXIT_CONVERGENCE
            err = self.one_line(capsys)
            assert "alpha=0.25" in err and "rounds=3" in err and "residual" in err
            assert not out.exists()

    def test_saturated_sample_point(self, tmp_path):
        # the rounds drift the target's total mass above 1 here; its
        # polarization once read 1.0000000000000016 and was rejected
        code = main(["--sample", "--n", "5", "--m", "2", "--rounds", "9",
                     "--alpha-grid", "0.99:0.99:0.01", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_OK

    def test_large_registers_on_default_grid(self, tmp_path):
        # power iteration stalled on these near saturation
        for figure, n in (("bqr-reduction", "8"), ("klocal-reduction", "7")):
            code = main(["--figure", figure, "--n", n, "--m", "2", "--rounds", "3,4",
                         "--out", str(tmp_path / "x.csv")])
            assert code == EXIT_OK


def run_quietly(argv):
    """Exit code and standard error of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag this way
            code = exc.code
    return code, err.getvalue()


GRIDS = st.one_of(
    st.builds(
        lambda start, stop, step: f"{start / 100}:{stop / 100}:{step / 100}",
        st.integers(-150, 150), st.integers(-150, 150), st.integers(10, 100),
    ),
    st.sampled_from(["1:2", "a:b:c", "0.5:0.1:0.1", "0.1:0.9:0", "0:inf:1", "nan:0.5:0.1"]),
)

SINGLE_SHOT_ARGV = st.builds(
    lambda figure, n_list, grid: ["--figure", figure, "--n", ",".join(map(str, n_list)),
                                  "--alpha-grid=" + grid],
    st.sampled_from(["single-shot-polarization", "single-shot-reduction"]),
    st.lists(st.integers(-2, 3000), min_size=1, max_size=3),
    GRIDS,
)

REFRIGERATOR_ARGV = st.builds(
    lambda mode, n, m, rounds, locality, grid: (
        mode + ["--n", str(n), "--m", str(m), "--rounds", str(rounds), "--alpha-grid=" + grid]
        + (["--locality", locality] if locality else [])
    ),
    st.sampled_from([["--figure", "bqr-polarization"], ["--figure", "bqr-reduction"],
                     ["--figure", "klocal-reduction"], ["--sample", "--trials", "100"]]),
    st.integers(-1, 6), st.integers(-1, 7), st.integers(-1, 3),
    st.sampled_from([None, "full", "3local"]),
    GRIDS,
)


@settings(max_examples=60, deadline=None)
@given(argv=st.one_of(SINGLE_SHOT_ARGV, REFRIGERATOR_ARGV))
@example(argv=["--figure", "single-shot-polarization", "--n", "3,2001",
               "--alpha-grid", "0.1:0.1:0.1"])
def test_any_argv_exits_cleanly(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("argv") / "x.csv"
    code, err = run_quietly(argv + ["--out", str(out)])
    assert code in (EXIT_OK, EXIT_USAGE), (argv, err)
    assert "Traceback" not in err


def test_mutually_exclusive_modes():
    with pytest.raises(SystemExit) as excinfo:
        main(["--figure", "bqr-reduction", "--suite", "theorem1"])
    assert excinfo.value.code == EXIT_USAGE


def test_mode_required():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


def test_no_mode_imports_scipy(tmp_path):
    """The package runs on numpy alone: a one-point ``--sample``, ``--suite
    all`` and the README's first figure load no ``scipy`` module."""
    argvs = [
        ["--sample", "--n", "5", "--m", "2", "--rounds", "5", "--budget", "10000",
         "--trials", "1000", "--seed", "7", "--alpha-grid", "0.5:0.5:0.1",
         "--out", str(tmp_path / "sample.csv")],
        ["--suite", "all"],
        ["--figure", "single-shot-polarization", "--out", str(tmp_path / "fig1.csv")],
    ]
    code = ("import json, sys\n"
            "from coolsign.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(json.dumps([codes, loaded]))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * len(argvs)
    assert loaded == []
