"""Tests of how a run judges its operations.

    python3 -m pytest perfbench

Only a declared known fault may count as a failed operation; anything else
must stop the run with ``CheckFailed``.
"""

from __future__ import annotations

import pytest

import checks
from run import judge
from workloads import OUT, Op, Workload


class ConvergenceError(Exception):
    pass


def _judge(tmp_path, ops, outcomes):
    (tmp_path / "pass0").mkdir()
    workload = Workload("test", tuple(ops), Op("setup", ()))
    return judge(workload, [(0.0, outcomes)], tmp_path)


def test_a_non_zero_exit_without_a_known_fault_stops_the_run(tmp_path):
    with pytest.raises(checks.CheckFailed, match="suite-all: exited 1"):
        _judge(tmp_path, [Op("suite-all", ("--suite", "all"))], [1])


def test_an_undeclared_exception_stops_the_run(tmp_path):
    with pytest.raises(checks.CheckFailed, match="fig1: raised ValueError"):
        _judge(tmp_path, [Op("fig1", ())], [ValueError("boom")])


def test_an_exception_of_another_type_than_declared_stops_the_run(tmp_path):
    op = Op("cell", (), raises="ConvergenceError", fault="stalls")
    with pytest.raises(checks.CheckFailed, match="cell: raised ValueError"):
        _judge(tmp_path, [op], [ValueError("boom")])


def test_declared_faults_count_as_failed(tmp_path):
    ops = [
        Op("ok", ()),
        Op("cell", (), raises="ConvergenceError", fault="stalls"),
        Op("figure", ("--out", OUT), check=lambda path: ["rounds3 at alpha=0.99"],
           fault="not converged"),
        Op("mended", ("--out", OUT), check=lambda path: [], fault="not converged"),
    ]
    assert _judge(tmp_path, ops, [0, ConvergenceError("10000 cycles"), 0, 0]) == 2


def test_a_check_miss_outside_the_declared_cells_stops_the_run(tmp_path):
    def check(path):
        raise checks.CheckFailed("bqr-reduction", "rounds5 at alpha=0.5")

    op = Op("figure", ("--out", OUT), check=check, fault="not converged")
    with pytest.raises(checks.CheckFailed, match="rounds5"):
        _judge(tmp_path, [op], [0])
