"""Span tracer for the benchmark's traced runs.

The tracer wraps functions at the module bindings their callers look up
(``dswave.desitter.wave_block`` rather than the definition in
``dswave.minkowski`` alone), so nothing under ``src/`` changes.  Every
wrapped call is a span: name, start, end, the span that caused it and the
operation it belongs to.  Spans are kept in memory in compact arrays and
written when the run ends; per-name aggregates (calls, total time, self
time) are kept alongside, so the metrics never need the span list.

Only the standard library is imported here: the traced CLI process
imports this module before ``dswave`` so that the import is measured
whole.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable

# (module, attribute, span name): the bindings the program's callers use.
# A wrapped call is a span; self time is its duration minus the part its
# wrapped children cover.
SPAN_BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("dswave.kernels", "hyp2f1", "specfun.hyp2f1"),
    ("dswave.desitter", "hyp2f1", "specfun.hyp2f1"),
    ("dswave.minkowski", "bessel_j_half", "specfun.bessel_j_half"),
    ("dswave.desitter", "integrate_finite", "quadrature.integrate_finite"),
    ("dswave.minkowski", "integrate_finite", "quadrature.integrate_finite"),
    ("dswave.quadrature", "integrate_finite", "quadrature.integrate_finite"),
    ("dswave.minkowski", "integrate_semi_infinite_oscillatory", "quadrature.oscillatory"),
    ("dswave.kernels", "kernel_eval", "kernels.kernel_eval"),
    ("dswave.cli", "kernel_eval", "kernels.kernel_eval"),
    ("dswave.kernels", "kernel_eval_endpoint", "kernels.kernel_eval_endpoint"),
    ("dswave.desitter", "wave_block", "minkowski.wave_block"),
    ("dswave.minkowski", "wave_block", "minkowski.wave_block"),
    ("dswave.desitter", "_hankel_block", "minkowski.hankel_block"),
    ("dswave.minkowski", "_hankel_block", "minkowski.hankel_block"),
    ("dswave.desitter", "_panel_quad", "desitter.panel_quad"),
    ("dswave.oracle", "solve_fd", "oracle.solve_fd"),
    ("dswave.desitter", "field_hankel", "desitter.point"),
    ("dswave.desitter", "ita_remainder", "desitter.point"),
    ("dswave.cli", "_validate", "cli.validate"),
    ("dswave.cli", "_emit", "cli.emit"),
)

# dict entries the grid evaluators dispatch through (evaluate_grid and the
# CLI's worker tasks both read dswave.desitter._METHODS)
METHOD_SPAN = "desitter.point"

# bindings that are counted but not timed
COUNT_BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("dswave.quadrature", "quad", "quadrature.quad"),
)

# bindings whose return value is a callable to count: the profile's
# spectral transform handed to the spectral blocks
TRANSFORM_BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("dswave.desitter", "_profile_transform", "minkowski.fhat"),
    ("dswave.minkowski", "_profile_transform", "minkowski.fhat"),
)

INTEGRAND_COUNT = "quadrature.integrand"
TOLERANCE_COUNT = "quadrature.tolerance_not_met"

# spans beyond this many are aggregated but not stored (a traced pionic
# spectral run makes about 10^6 of them)
SPAN_CAP = 3_000_000


class Tracer:
    """Spans and counters of one process.

    ``op_kind`` labels the spans of the operation in progress; call counts
    are kept per (name, op kind) so counts per operation kind can be read
    off.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self.calls: dict[tuple[str, str], int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self.op_id = -1
        self.op_kind = ""
        self.dropped = 0
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_op = array("i")
        # stack of [span index, child time]
        self._stack: list[list[Any]] = []
        self._restore: list[Callable[[], None]] = []
        self.on_fork: Callable[[Tracer], None] | None = None

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self.op_kind = kind

    def count(self, name: str) -> None:
        self._check_pid()
        key = (name, self.op_kind)
        self.counts[key] = self.counts.get(key, 0) + 1

    def _check_pid(self) -> None:
        # a forked worker inherits the parent's records; it starts afresh
        # and hands its own records over when it exits
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.calls.clear()
            self.total_s.clear()
            self.self_s.clear()
            self.counts.clear()
            self.dropped = 0
            for arr in (self._span_name, self._span_start, self._span_end,
                        self._span_parent, self._span_op):
                del arr[:]
            self._stack.clear()
            if self.on_fork is not None:
                self.on_fork(self)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """fn wrapped so that each call records a span called name."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self._span_name, self._span_start, self._span_end
        parents, ops = self._span_parent, self._span_op

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._check_pid()
            if len(starts) < SPAN_CAP:
                idx = len(starts)
                names.append(nid)
                starts.append(0.0)
                ends.append(0.0)
                parents.append(stack[-1][0] if stack else -1)
                ops.append(self.op_id)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
                if stack:
                    stack[-1][1] += dur
                key = (name, self.op_kind)
                self.calls[key] = self.calls.get(key, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]

        return wrapper

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, module: Any, attr: str, new: Any) -> None:
        old = getattr(module, attr)
        setattr(module, attr, new)
        self._restore.append(lambda: setattr(module, attr, old))

    def install(self) -> None:
        """Wrap the bindings of every loaded dswave module (the package
        import loads all but ``dswave.cli``)."""
        from dswave.errors import ToleranceNotMet

        wrapped: dict[int, Any] = {}

        def once(fn: Any, make: Callable[[Any], Any]) -> Any:
            # one wrapper per function, shared by all its bindings
            w = wrapped.get(id(fn))
            if w is None:
                w = wrapped[id(fn)] = make(fn)
            return w

        for modname, attr, name in SPAN_BINDINGS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if attr == "integrate_finite":
                make = lambda f, n=name: self.span(n, self._counted_quadrature(f, ToleranceNotMet))
            else:
                make = lambda f, n=name: self.span(n, f)
            self._patch(mod, attr, once(getattr(mod, attr), make))
        for modname, attr, name in COUNT_BINDINGS:
            mod = sys.modules[modname]
            self._patch(mod, attr, once(getattr(mod, attr), lambda f, n=name: self.counter(n, f)))
        for modname, attr, name in TRANSFORM_BINDINGS:
            mod = sys.modules[modname]
            self._patch(mod, attr, once(getattr(mod, attr), lambda f, n=name: self._counted_transform(n, f)))
        methods = sys.modules["dswave.desitter"]._METHODS
        for key, fn in list(methods.items()):
            methods[key] = once(fn, lambda f: self.span(METHOD_SPAN, f))
            self._restore.append(lambda k=key, f=fn: methods.__setitem__(k, f))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _counted_quadrature(self, fn: Callable[..., Any], failure: type) -> Callable[..., Any]:
        @wraps(fn)
        def wrapper(f, *args, **kwargs):
            try:
                return fn(self.counter(INTEGRAND_COUNT, f), *args, **kwargs)
            except failure:
                self.count(TOLERANCE_COUNT)
                raise

        return wrapper

    def _counted_transform(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.counter(name, fn(*args, **kwargs))

        return wrapper

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Aggregates as plain data (JSON-ready), for merging across
        processes."""
        return {
            "calls": [[n, k, v] for (n, k), v in self.calls.items()],
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": [[n, k, v] for (n, k), v in self.counts.items()],
            "spans": len(self._span_start),
            "dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        """Write the stored spans as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            op=np.frombuffer(self._span_op, dtype=np.int32),
            dropped=np.array(self.dropped),
        )


@dataclass
class Totals:
    """Aggregates merged over the processes of one traced run."""

    calls: dict[tuple[str, str], int] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    spans: int = 0
    dropped: int = 0

    def add(self, snap: dict[str, Any]) -> None:
        for n, k, v in snap["calls"]:
            self.calls[(n, k)] = self.calls.get((n, k), 0) + v
        for n, k, v in snap["counts"]:
            self.counts[(n, k)] = self.counts.get((n, k), 0) + v
        for n, v in snap["total_s"].items():
            self.total_s[n] = self.total_s.get(n, 0.0) + v
        for n, v in snap["self_s"].items():
            self.self_s[n] = self.self_s.get(n, 0.0) + v
        self.spans += snap["spans"]
        self.dropped += snap["dropped"]

    def calls_of(self, name: str, kind: str | None = None) -> int:
        """Spans called name, within operations of the given kind or all."""
        return sum(v for (n, k), v in self.calls.items() if n == name and kind in (None, k))

    def count_of(self, name: str, kind: str | None = None) -> int:
        return sum(v for (n, k), v in self.counts.items() if n == name and kind in (None, k))
