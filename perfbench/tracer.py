"""Spans around the public functions of ``coolsign``, recorded from outside.

:meth:`Tracer.install` replaces every public function (and the two private
hooks named in ``HOOKED_PRIVATE``) in every ``coolsign`` module namespace
that binds it with one timing wrapper, so a call is traced whichever
module it goes through.  :meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and thread.  Spans stay in
per-thread in-memory buffers; :meth:`Tracer.collect` closes a pass and
returns its spans, :meth:`Tracer.save` writes every collected pass at the
end of the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import sys
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

#: private functions wrapped for their counters: the dense round matvec and
#: the figure-sweep map, whose per-point function gets a ``cli.point`` span
HOOKED_PRIVATE = ("_matvec", "_map_grid")

#: a sweep point: one grid point of a figure, or one --sample comparison
POINT_SPANS = ("cli.point", "sampling.resource_matched_comparison")


class _Buffer:
    def __init__(self, generation: int):
        self.generation = generation
        self.thread = threading.get_ident()
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.keys: dict[str, set] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


@dataclass
class PassTrace:
    """Spans of one pass, flattened over threads, plus its counters."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray  # index into this pass's spans, -1 for a root
    thread: np.ndarray
    start: np.ndarray
    end: np.ndarray
    counters: dict[str, float] = field(default_factory=dict)
    keys: dict[str, set] = field(default_factory=dict)

    def _select(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(span)

    def calls(self, span: str) -> int:
        return int(self._select(span).sum())

    def seconds(self, span: str) -> float:
        sel = self._select(span)
        return float((self.end[sel] - self.start[sel]).sum())

    def self_seconds(self, span: str) -> float:
        """Span time minus the time of its direct child spans."""
        duration = self.end - self.start
        rooted = self.parent >= 0
        children = np.bincount(
            self.parent[rooted], weights=duration[rooted], minlength=duration.size
        )
        sel = self._select(span)
        return float((duration[sel] - children[sel]).sum())

    def distinct_share(self, span: str) -> float:
        calls = self.calls(span)
        return len(self.keys.get(span, ())) / calls if calls else 0.0

    def parallelism(self) -> float:
        """Sum of sweep-point span time over the wall time of the
        ``cli.main`` calls that ran sweep points."""
        points = np.zeros(self.name.size, dtype=bool)
        for span in POINT_SPANS:
            points |= self._select(span)
        busy = wall = 0.0
        for i in np.flatnonzero(self._select("cli.main")):
            inside = points & (self.start >= self.start[i]) & (self.end <= self.end[i])
            if inside.any():
                busy += float((self.end[inside] - self.start[inside]).sum())
                wall += float(self.end[i] - self.start[i])
        return busy / wall if wall else 0.0


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


def _call_key(args, kwargs) -> tuple:
    return tuple(_hashable(a) for a in args) + tuple(
        (k, _hashable(v)) for k, v in sorted(kwargs.items())
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._generation = 0
        self._patched: list[tuple[object, str, object]] = []
        self.passes: list[PassTrace] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.generation != self._generation:
            buf = _Buffer(self._generation)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """Return ``fn`` inside a span named ``name``.

        ``before(args, kwargs)`` may replace the arguments;
        ``after(buf, args, kwargs, result, exc)`` records counters once the
        span has ended.
        """
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            buf = self._buffer()
            index = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(index)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                buf.end[index] = perf_counter()
                buf.stack.pop()
                if after is not None:
                    after(buf, args, kwargs, None, exc)
                raise
            buf.end[index] = perf_counter()
            buf.stack.pop()
            if after is not None:
                after(buf, args, kwargs, result, None)
            return result

        return traced

    def collect(self) -> PassTrace:
        """Close the current pass and return its spans."""
        with self._lock:
            buffers, self._buffers = self._buffers, []
            self._generation += 1
        names, parents, threads, starts, ends = [], [], [], [], []
        counters: dict[str, float] = {}
        keys: dict[str, set] = {}
        offset = 0
        for buf in buffers:
            parent = np.array(buf.parent, dtype=np.int64)
            parents.append(np.where(parent >= 0, parent + offset, -1))
            names.append(np.array(buf.name, dtype=np.int32))
            threads.append(np.full(len(buf.name), buf.thread, dtype=np.int64))
            starts.append(np.array(buf.start, dtype=float))
            ends.append(np.array(buf.end, dtype=float))
            offset += len(buf.name)
            for key, value in buf.counters.items():
                counters[key] = counters.get(key, 0) + value
            for key, seen in buf.keys.items():
                keys.setdefault(key, set()).update(seen)

        def joined(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        trace = PassTrace(
            names=list(self.names),
            name=joined(names, np.int32),
            parent=joined(parents, np.int64),
            thread=joined(threads, np.int64),
            start=joined(starts, float),
            end=joined(ends, float),
            counters=counters,
            keys=keys,
        )
        self.passes.append(trace)
        return trace

    def save(self, path: str) -> None:
        """Write every collected pass's spans as one compressed ``.npz``."""
        sizes = [p.name.size for p in self.passes]
        offsets = np.cumsum([0] + sizes[:-1])
        np.savez_compressed(
            path,
            names=np.array(self.names),
            pass_index=np.repeat(np.arange(len(sizes)), sizes),
            name=np.concatenate([p.name for p in self.passes]),
            parent=np.concatenate(
                [np.where(p.parent >= 0, p.parent + o, -1) for p, o in zip(self.passes, offsets)]
            ),
            thread=np.concatenate([p.thread for p in self.passes]),
            start=np.concatenate([p.start for p in self.passes]),
            end=np.concatenate([p.end for p in self.passes]),
        )

    # -- installing ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the functions of every loaded ``package`` module."""
        prefix = package.__name__
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        wrappers: dict[int, object] = {}

        def wrapper_for(obj):
            if id(obj) not in wrappers:
                module = obj.__module__[len(prefix) + 1:] or prefix
                name = f"{module}.{obj.__name__}"
                wrappers[id(obj)] = self.wrap(obj, name, *self._hooks(name, obj, package))
            return wrappers[id(obj)]

        for module in modules:
            for attr, obj in list(vars(module).items()):
                traceable = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
                if not traceable or not getattr(obj, "__module__", "").startswith(prefix):
                    continue
                if attr.startswith("_") and attr not in HOOKED_PRIVATE:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapper_for(obj))
        # the suites are dispatched through a dict, not a module attribute
        suites = sys.modules[prefix + ".verify"].SUITES
        for key, obj in list(suites.items()):
            self._patched.append((suites, key, obj))
            suites[key] = wrapper_for(obj)

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = obj
            else:
                setattr(target, attr, obj)
        self._patched.clear()

    def _hooks(self, name: str, fn, package):
        """``(before, after)`` for the spans that carry counters."""
        if name in ("refrigerator.steady_state", "refrigerator.optimal_bound_simulate"):
            error = package.refrigerator.ConvergenceError
            max_cycles = inspect.signature(fn).parameters["max_cycles"].default

            def after(buf, args, kwargs, result, exc):
                buf.keys.setdefault(name, set()).add(_call_key(args, kwargs))
                if exc is None:
                    buf.count(name + ".cycles", result.cycles_used)
                elif isinstance(exc, error):
                    buf.count(name + ".cycles", kwargs.get("max_cycles", max_cycles))
                    buf.count(name + ".failed")

            return None, after
        if name == "refrigerator.build_round_matrix":
            def after(buf, args, kwargs, result, exc):
                buf.keys.setdefault(name, set()).add(_call_key(args, kwargs))
            return None, after
        if name == "refrigerator._matvec":
            def after(buf, args, kwargs, result, exc):
                buf.count("refrigerator.round.bytes_computed", args[0].nbytes)
            return None, after
        if name == "cli.write_rows":
            def after(buf, args, kwargs, result, exc):
                if exc is None:
                    buf.count("cli.write_rows.bytes", os.path.getsize(args[0]))
            return None, after
        if name == "sampling.monte_carlo_sign_error":
            def after(buf, args, kwargs, result, exc):
                buf.count("sampling.monte_carlo_sign_error.trials", args[0].trials)
            return None, after
        if name == "cli._map_grid":
            def before(args, kwargs):
                return (self.wrap(args[0], "cli.point"),) + args[1:], kwargs
            return before, None
        return None, None


# ---------------------------------------------------------------------------
# per-layer metrics

SUITE_FUNCTIONS = {
    "theorem1": "verify_theorem1",
    "bqr-oracle": "verify_bqr_oracle",
    "klocal-fixedpoint": "verify_klocal_fixedpoint",
    "sampling": "verify_sampling",
}

#: memoised permutation builders pay only on the first pass of a process,
#: so these are read from the cold pass
COLD_METRICS = {
    "refrigerator.build_uqr.s": "refrigerator.build_uqr",
    "klocal.build_uqr_3local.s": "klocal.build_uqr_3local",
    "states.permutation_from_swaps.s": "states.permutation_from_swaps",
    "states.permutation_from_map.s": "states.permutation_from_map",
}


def layer_metrics(trace: PassTrace) -> dict[str, float]:
    """Per-layer metrics of one warm pass."""
    out: dict[str, float] = {}
    c = trace.counters
    out["cli.write_rows.s"] = trace.seconds("cli.write_rows")
    out["cli.write_rows.bytes"] = c.get("cli.write_rows.bytes", 0)
    out["cli.sweep.parallelism"] = trace.parallelism()
    for fn in ("steady_state", "optimal_bound_simulate"):
        span = "refrigerator." + fn
        out[span + ".calls"] = trace.calls(span)
        out[span + ".s"] = trace.seconds(span)
        out[span + ".cycles"] = c.get(span + ".cycles", 0)
    out["refrigerator.steady_state.failed"] = c.get("refrigerator.steady_state.failed", 0)
    out["refrigerator.steady_state.distinct_share"] = trace.distinct_share(
        "refrigerator.steady_state")
    out["refrigerator.reduction_factor_qr.self_s"] = trace.self_seconds(
        "refrigerator.reduction_factor_qr")
    out["refrigerator.build_round_matrix.calls"] = trace.calls("refrigerator.build_round_matrix")
    out["refrigerator.build_round_matrix.s"] = trace.seconds("refrigerator.build_round_matrix")
    out["refrigerator.build_round_matrix.distinct_share"] = trace.distinct_share(
        "refrigerator.build_round_matrix")
    out["refrigerator.round.bytes_computed"] = c.get("refrigerator.round.bytes_computed", 0)
    out["states.pairwise_sum.calls"] = trace.calls("states.pairwise_sum")
    out["states.pairwise_sum.s"] = trace.seconds("states.pairwise_sum")
    for fn in ("alpha_ac", "reduction_factor_ac", "optimal_compression"):
        out[f"single_shot.{fn}.s"] = trace.seconds("single_shot." + fn)
    mc = "sampling.monte_carlo_sign_error"
    out[mc + ".calls"] = trace.calls(mc)
    out[mc + ".s"] = trace.seconds(mc)
    out[mc + ".trials_per_s"] = (
        c.get(mc + ".trials", 0) / out[mc + ".s"] if out[mc + ".s"] else 0.0
    )
    out["sampling.exact_sign_error.calls"] = trace.calls("sampling.exact_sign_error")
    out["sampling.exact_sign_error.s"] = trace.seconds("sampling.exact_sign_error")
    out["sampling.resource_matched_comparison.self_s"] = trace.self_seconds(
        "sampling.resource_matched_comparison")
    for suite, fn in SUITE_FUNCTIONS.items():
        out[f"verify.suite.{suite}.s"] = trace.seconds("verify." + fn)
    return out


def cold_metrics(trace: PassTrace) -> dict[str, float]:
    return {metric: trace.seconds(span) for metric, span in COLD_METRICS.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("trials_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith((".bytes", "bytes_computed")):
        return "B"
    if metric.endswith((".parallelism", "distinct_share")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# import time

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_split(stderr: str) -> dict[str, float]:
    """Split the ``-X importtime`` report of ``import coolsign.cli``.

    Python prints a module after the modules it imports, one level of
    indentation deeper per nesting level; walking the lines backwards meets
    each parent before its children.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            self_us, cumulative_us, indent, name = match.groups()
            entries.append((int(self_us), int(cumulative_us), (len(indent) - 1) // 2, name))
    totals = {"import.total_s": 0, "import.scipy_s": 0, "import.numpy_s": 0,
              "import.coolsign_self_s": 0}

    def family(name, root):
        return name == root or name.startswith(root + ".")

    ancestors: list[tuple[int, str]] = []
    for self_us, cumulative_us, depth, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        above = [n for _, n in ancestors]
        if family(name, "coolsign"):
            totals["import.coolsign_self_s"] += self_us
            if depth == 0:
                totals["import.total_s"] += cumulative_us
        for root in ("scipy", "numpy"):
            if family(name, root) and not any(family(n, root) for n in above):
                totals[f"import.{root}_s"] += cumulative_us
        ancestors.append((depth, name))
    return {key: value / 1e6 for key, value in totals.items()}
