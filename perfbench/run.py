"""Benchmark of the ``coolsign`` command line, run in-process.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics ``setup_s``,
``pass_s`` and ``peak_rss_mb``; with ``--trace 1`` the per-layer metrics.
The last line of standard output is one JSON object; progress goes to
standard error.  Exit code 0 when every check passed; non-zero when a
check failed or there is no program in ``src/`` to measure.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: fresh interpreters timed for setup_s, and -X importtime reports per trace
SETUP_PROCESSES = 5
IMPORT_PROCESSES = 3

SETUP_CODE = (
    "import json, sys\nfrom coolsign import cli\nsys.exit(cli.main(json.loads(sys.argv[1])))"
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_cli():
    """Import ``coolsign.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "coolsign" / "cli.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'coolsign' / 'cli.py'} is missing")
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import coolsign.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "coolsign":
        raise SystemExit(f"imported {cli.__file__}, not the checkout's program")
    return cli


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_pass(cli, ops, directory: Path):
    """One pass through the command list; returns (seconds, outcomes).

    An outcome is the exit code, or the exception the call raised.  The
    time of failing calls counts in the pass.
    """
    directory.mkdir(parents=True)
    argvs = [op.argv_in(str(directory)) for op in ops]
    outcomes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                outcome = cli.main(argv)
            except (Exception, SystemExit) as exc:  # judged later, see judge()
                outcome = exc
            outcomes.append(outcome)
    return time.perf_counter() - start, outcomes


def setup_seconds(workload, directory: Path) -> float:
    """Median wall time of fresh interpreters that import ``coolsign.cli``
    and run the one-point version of the workload's first command."""
    times = []
    for i in range(SETUP_PROCESSES):
        argv = workload.setup.argv_in(str(directory / f"setup{i}"))
        (directory / f"setup{i}").mkdir(parents=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(argv)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"set-up command {argv} exited {proc.returncode}:\n{proc.stderr}")
    return statistics.median(times)


def import_seconds() -> dict[str, float]:
    reports = []
    for _ in range(IMPORT_PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import coolsign.cli"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120, cwd=str(OUT_DIR),
        )
        if proc.returncode != 0:
            raise SystemExit(f"import coolsign.cli failed:\n{proc.stderr}")
        reports.append(tracing.import_split(proc.stderr))
    return {key: statistics.median(r[key] for r in reports) for key in reports[0]}


def judge(workload, passes, directory: Path):
    """Check the outputs; return the failed-operation count per pass.

    The first pass's files are checked against the references; every later
    pass must write the same bytes and fail the same operations.  Only a
    known fault makes a failed operation: the exception type the operation
    declares it ``raises``, or a check miss in the cells it declares faulty.
    Any other non-zero exit, exception or check miss raises ``CheckFailed``.
    """
    first = passes[0][1]
    files = {}
    for op in workload.ops:
        name = op.out_file()
        if name and (directory / "pass0" / name).is_file():
            files[op.name] = (directory / "pass0" / name).read_bytes()
    for index, (_, outcomes) in enumerate(passes[1:], start=1):
        for op, outcome, reference in zip(workload.ops, outcomes, first):
            if (outcome == 0) != (reference == 0):
                raise checks.CheckFailed("determinism", f"{op.name} failed in some passes only")
            written = directory / f"pass{index}" / str(op.out_file())
            if op.name in files and written.read_bytes() != files[op.name]:
                raise checks.CheckFailed("determinism", f"{op.name} changed bytes in pass {index}")
    failed = 0
    for op, outcome in zip(workload.ops, first):
        if outcome != 0:
            if not (op.raises and type(outcome).__name__ == op.raises):
                what = f"raised {outcome!r}" if isinstance(outcome, BaseException) else (
                    f"exited {outcome!r}")
                raise checks.CheckFailed(op.name, what[:300])
            log(f"  failed: {op.name}: {outcome!r}; known fault: {op.fault}"[:300])
            failed += 1
            continue
        if op.check is None:
            continue
        missed = op.check(str(directory / "pass0" / op.out_file()))
        if missed:
            log(f"  failed: {op.name}: {len(missed)} declared cells miss, first {missed[0]}; "
                f"known fault: {op.fault}"[:400])
            failed += 1
    return failed


def timed_run(cli, workload, seconds: float, directory: Path):
    setup = setup_seconds(workload, directory)
    log(f"setup_s {setup:.3f}")
    passes = [run_pass(cli, workload.ops, directory / "pass0")]
    log(f"warm-up pass {passes[0][0]:.3f} s")
    start = time.perf_counter()
    while len(passes) == 1 or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, workload.ops, directory / f"pass{len(passes)}"))
        log(f"pass {passes[-1][0]:.3f} s")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup, "s"),
        "pass_s": (statistics.median(t for t, _ in passes[1:]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return passes, metrics


def traced_run(cli, workload, seconds: float, directory: Path, trace_path: Path):
    import coolsign

    metrics = {k: (v, "s") for k, v in import_seconds().items()}
    tracer = tracing.Tracer()
    tracer.install(coolsign)
    passes = [run_pass(cli, workload.ops, directory / "pass0")]
    cold = tracer.collect()
    log(f"cold traced pass {passes[0][0]:.3f} s")
    traced, untraced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        tracer.uninstall()
        passes.append(run_pass(cli, workload.ops, directory / f"pass{len(passes)}"))
        untraced.append(passes[-1][0])
        tracer.install(coolsign)
        passes.append(run_pass(cli, workload.ops, directory / f"pass{len(passes)}"))
        traced.append(passes[-1][0])
        layers.append(tracing.layer_metrics(tracer.collect()))
        log(f"pass {untraced[-1]:.3f} s untraced, {traced[-1]:.3f} s traced")
    tracer.uninstall()
    tracer.save(str(trace_path))
    for key, value in tracing.cold_metrics(cold).items():
        metrics[key] = (value, "s")
    for key in layers[0]:
        metrics[key] = (statistics.median(m[key] for m in layers), tracing.unit_of(key))
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_pass_s"] = (statistics.median(untraced), "s")
    overhead = metrics["trace.pass_s"][0] - metrics["trace.untraced_pass_s"][0]
    metrics["trace.overhead_s"] = (overhead, "s")
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed % 2**63)
    OUT_DIR.mkdir(exist_ok=True)
    directory = OUT_DIR / f"run-{os.getpid()}"
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
            passes, metrics = traced_run(cli, workload, args.seconds, directory, trace_path)
        else:
            passes, metrics = timed_run(cli, workload, args.seconds, directory)
        try:
            failed = judge(workload, passes, directory)
            correct = True
        except checks.CheckFailed as exc:
            log(f"CHECK FAILED: {exc}")
            failed, correct = 0, False
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": len(workload.ops) * len(passes),
        "failed": failed * len(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
