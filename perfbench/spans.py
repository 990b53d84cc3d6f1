"""Outside-in layer tracing: spans around calls into each layer's entry points.

:class:`Tracer` installs wrappers on the public entry points named in
:data:`LAYERS` (module attribute or class method), records one span per
call -- layer, start, end, parent span, request id, busy time -- in
memory, and removes the wrappers again on :meth:`Tracer.uninstall`.
Nothing in the program is edited; a span's parent is the innermost span
open when it began.

Coroutines (``DiagnosisService.handle``) are driven step by step by
:func:`drive`, so their busy time counts only the steps they ran, not
the time other tasks ran while they awaited; the steps are the only
times their child spans can open.

A layer's *self time* is its span's busy time minus the part of it that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import types
from pathlib import Path
from typing import Any, Callable, Coroutine

#: (layer, module, attribute path, kind): kind "function" patches a
#: module attribute, "method" a class attribute, "classmethod" a
#: classmethod, "coroutine" an async method
LAYERS: tuple[tuple[str, str, str, str], ...] = (
    ("encode", "repro.diagnosis.supervisor", "SupervisorEncoder.program", "method"),
    ("analysis", "repro.diagnosis.engine", "check_program", "function"),
    ("rewrite", "repro.datalog.qsq", "qsq_rewrite", "function"),
    ("plan", "repro.datalog.plan", "compile_join_plan", "function"),
    ("plan", "repro.datalog.batch", "compile_batched_kernel", "function"),
    ("join", "repro.datalog.seminaive", "SemiNaiveEvaluator.run", "method"),
    ("join", "repro.datalog.seminaive", "IncrementalEvaluator.run", "method"),
    ("dqsq_peer", "repro.distributed.dqsq", "_DqsqPeer.on_message", "method"),
    ("transport", "repro.distributed.transport", "SimTransportRuntime.run", "method"),
    ("assemble", "repro.diagnosis.engine", "DatalogDiagnosisEngine.diagnose", "method"),
    ("dedicated", "repro.diagnosis.dedicated", "DedicatedDiagnoser.diagnose", "method"),
    ("service", "repro.service.server", "DiagnosisService.handle", "coroutine"),
    ("push", "repro.diagnosis.online", "OnlineDiagnoser.push", "method"),
    ("snapshot", "repro.service.session", "DiagnosisSession.snapshot_bytes", "method"),
    ("restore", "repro.service.session", "DiagnosisSession.from_bytes", "classmethod"),
    ("store", "repro.service.store", "MemorySnapshotStore.save", "method"),
    ("store", "repro.service.store", "MemorySnapshotStore.load", "method"),
)

#: every layer name, in table order
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

#: span tuple fields
LAYER, START, END, PARENT, REQUEST, BUSY = range(6)


class StepClock:
    """Collects the busy time of one coroutine driven by :func:`drive`."""

    def __init__(self) -> None:
        self.busy = 0.0

    def enter(self) -> None:
        """Called before each step."""

    def leave(self) -> None:
        """Called after each step."""


@types.coroutine
def drive(coro: Coroutine[Any, Any, Any], clock: StepClock):
    """Await ``coro``, adding the duration of each of its steps to
    ``clock.busy``.  Values and exceptions pass through unchanged."""
    value: Any = None
    error: BaseException | None = None
    while True:
        clock.enter()
        start = time.perf_counter()
        try:
            if error is not None:
                yielded = coro.throw(error)
            else:
                yielded = coro.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            clock.busy += time.perf_counter() - start
            clock.leave()
        try:
            value, error = (yield yielded), None
        except BaseException as exc:  # delivered into the coroutine
            value, error = None, exc


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        #: span tuples (layer, start, end, parent index, request, busy)
        self.spans: list[tuple] = []
        #: the request id stamped on spans that open now
        self.request: Any = None
        #: largest snapshot seen by the ``snapshot`` wrapper, bytes
        self.snapshot_bytes_max = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(())
        self._stack.append(index)
        return index

    def _close(self, index: int, layer: str, start: float, end: float,
               busy: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (layer, start, end, parent, self.request, busy)

    def _sync(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(index, layer, start, end, end - start)
            if layer == "snapshot":
                tracer.snapshot_bytes_max = max(tracer.snapshot_bytes_max,
                                                len(result))
            return result
        return traced

    def _async(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        class _SpanClock(StepClock):
            def __init__(self, index: int, request: Any) -> None:
                super().__init__()
                self.index = index
                self.request = request

            def enter(self) -> None:
                tracer._stack.append(self.index)
                tracer.request = self.request

            def leave(self) -> None:
                tracer._stack.pop()

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(())
            request = tracer.request
            clock = _SpanClock(index, request)
            start = time.perf_counter()
            try:
                return await drive(fn(*args, **kwargs), clock)
            finally:
                tracer.spans[index] = (layer, start, time.perf_counter(), -1,
                                       request, clock.busy)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module_name, path, kind in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _dot, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            if kind == "classmethod":
                wrapped: Any = classmethod(self._sync(layer, original.__func__))
            elif kind == "coroutine":
                wrapped = self._async(layer, original)
            else:
                wrapped = self._sync(layer, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans, one JSON array per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Total self time per layer: each span's busy time minus the union
    of its direct children's intervals (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        totals[span[LAYER]] = totals.get(span[LAYER], 0.0) + max(
            0.0, span[BUSY] - covered)
    return totals
