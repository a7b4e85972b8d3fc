"""Spans around calls into each layer's public functions, kept in memory.

The tracer wraps, for the duration of the traced run only, the functions a
request crosses: ``protocol.handle_line``, the service's ``respond`` /
``handle`` / ``submit_many``, scheme resolution and formula compilation,
graph construction, every scheme's ``holds`` and ``prove``, the engines'
``evaluate_scheme`` and ``simulate_protocol``, the experiment runners and
the shard driver's ``drive`` and merge.  Nothing in ``src/`` changes; the
wrappers are installed on module and class attributes and removed again by
:meth:`Tracer.uninstall`.

A span is ``(id, parent, op, name, layer, start, end)``.  The parent is the
span active on the calling thread; work handed to the service's worker
pool inherits the span that submitted it (matched by request object), and
work on the in-process fleet's server threads inherits the op the replay
loop is running.  A layer's self time is its spans' duration minus the part
their children cover.
"""

from __future__ import annotations

import contextvars
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Root:
    """The op span the replay loop opens around one op."""

    __slots__ = ("tracer", "span_id", "token", "report", "item")

    def __init__(self, tracer: "Tracer", item: Any) -> None:
        self.tracer = tracer
        self.item = item
        self.report = None
        self.span_id = next(tracer._ids)
        tracer.ops[self.span_id] = self
        tracer._open(self.span_id, None, self.span_id, "op", "op")
        self.token = tracer._current.set((self.span_id, self.span_id))
        tracer.fallback = (self.span_id, self.span_id)

    def close(self) -> None:
        self.tracer._close(self.span_id)
        self.tracer._current.reset(self.token)
        self.tracer.fallback = None


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._lock = threading.Lock()
        self._open_spans: Dict[int, List[Any]] = {}
        self.spans: List[List[Any]] = []
        self.ops: Dict[int, _Root] = {}
        #: (span, op) that cross-thread work without a submitter inherits.
        self.fallback: Optional[Tuple[int, int]] = None
        self._submitted: Dict[int, Tuple[float, Tuple[int, int], int]] = {}
        self.queue_waits: List[float] = []
        self.bytes_out = 0
        self.assignments = 0
        self.simulations = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, span_id: int, parent: Optional[int], op: int, name: str, layer: str) -> None:
        self._open_spans[span_id] = [span_id, parent, op, name, layer, _clock(), None]

    def _close(self, span_id: int) -> None:
        record = self._open_spans.pop(span_id)
        record[6] = _clock()
        self.spans.append(record)

    def root(self, item: Any) -> _Root:
        """Open the op span of one loop step (closed by the loop)."""
        return _Root(self, item)

    def _context(self) -> Optional[Tuple[int, int]]:
        return self._current.get() or self.fallback

    def wrap(self, fn: Callable, name: str, layer: str, after: Optional[Callable] = None,
             adopt_remote: bool = False) -> Callable:
        """Span every call of ``fn``.  With ``adopt_remote``, work on threads
        that have no span of their own (the in-process fleet's servers) is
        parented to this span while it is open."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            context = tracer._context()
            if context is None:
                return fn(*args, **kwargs)
            parent, op = context
            span_id = next(tracer._ids)
            tracer._open(span_id, parent, op, name, layer)
            token = tracer._current.set((span_id, op))
            if adopt_remote:
                fallback, tracer.fallback = tracer.fallback, (span_id, op)
            try:
                result = fn(*args, **kwargs)
            finally:
                if adopt_remote:
                    tracer.fallback = fallback
                tracer._current.reset(token)
                tracer._close(span_id)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- the service's worker pool ------------------------------------------------

    def _note_submitted(self, requests: Any) -> None:
        context = self._context()
        if context is None:
            return
        now = _clock()
        thread = threading.get_ident()
        with self._lock:
            for request in requests:
                self._submitted[id(request)] = (now, context, thread)

    def wrap_submitter(self, fn: Callable, name: str, pick: Callable) -> Callable:
        """``respond``/``submit_many``: remember, inside their own span, which
        requests they hand to the worker pool."""
        tracer = self

        def submitter(*args: Any, **kwargs: Any) -> Any:
            tracer._note_submitted(pick(args, kwargs))
            return fn(*args, **kwargs)

        traced = self.wrap(submitter, name, "service")
        traced.__wrapped__ = fn
        return traced

    def wrap_handle(self, fn: Callable) -> Callable:
        """``handle`` on a pool thread: parent = submitter, wait = queue time."""
        inner = self.wrap(fn, "service.handle", "service")
        tracer = self

        def handle(service: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
            with tracer._lock:
                submitted = tracer._submitted.pop(id(request), None)
            if submitted is None or submitted[2] == threading.get_ident():
                return inner(service, request, *args, **kwargs)
            at, context, _ = submitted
            tracer.queue_waits.append(_clock() - at)
            token = tracer._current.set(context)
            try:
                return inner(service, request, *args, **kwargs)
            finally:
                tracer._current.reset(token)

        handle.__wrapped__ = fn
        return handle

    # -- installation ----------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind a function in every ``repro`` module that imported it by name."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        import repro.experiments.runner  # noqa: F401 - the wrappers must reach them
        import repro.formulas
        import repro.graphs.generators as generators
        import repro.service.driver as driver
        from repro.core import scheme as scheme_module
        from repro.experiments import run_lower_bound, run_sweep
        from repro.experiments import artifacts
        from repro.lower_bounds.framework import ReductionFramework
        from repro.registry import REGISTRY, SchemeInfo
        from repro.service import protocol
        from repro.service.core import CertificationService

        def count_bytes(result: Any, args: Any, kwargs: Any) -> None:
            self.bytes_out += len(result[0])

        self._set(protocol, "handle_line",
                  self.wrap(protocol.handle_line, "protocol.handle_line", "protocol", count_bytes))

        self._set(CertificationService, "respond", self.wrap_submitter(
            CertificationService.respond, "service.respond", lambda a, k: (a[1],)))
        self._set(CertificationService, "submit_many", self.wrap_submitter(
            CertificationService.submit_many, "service.submit_many",
            _batch_members))
        self._set(CertificationService, "handle", self.wrap_handle(CertificationService.handle))

        self._set(type(REGISTRY), "get", self.wrap(type(REGISTRY).get, "resolve.registry", "resolve"))
        self._set(SchemeInfo, "resolve_params",
                  self.wrap(SchemeInfo.resolve_params, "resolve.params", "resolve"))
        self._set(CertificationService, "_scheme",
                  self.wrap(CertificationService._scheme, "resolve.scheme", "resolve"))
        for fn, name in (
            (repro.formulas.compile_formula, "resolve.compile_formula"),
            (repro.formulas.resolve_formula_params, "resolve.formula_params"),
        ):
            self._replace_everywhere(fn, self.wrap(fn, name, "resolve"))

        self._replace_everywhere(
            generators.build_graph_spec,
            self.wrap(generators.build_graph_spec, "graphs.build", "graphs"),
        )

        for cls in _scheme_classes(scheme_module.CertificationScheme):
            if "holds" in vars(cls):
                self._set(cls, "holds", self.wrap(cls.holds, "oracle.holds", "oracle"))
            if "prove" in vars(cls):
                self._set(cls, "prove", self.wrap(cls.prove, "prove.prove", "prove"))

        def count_assignments(result: Any, args: Any, kwargs: Any) -> None:
            if result.holds:
                self.assignments += 1
            else:
                trials = kwargs.get("adversarial_trials", args[3] if len(args) > 3 else 20)
                schedule = kwargs.get("trial_schedule")
                self.assignments += len(schedule) if schedule is not None else trials

        def count_simulation(result: Any, args: Any, kwargs: Any) -> None:
            self.simulations += 1

        self._replace_everywhere(
            scheme_module.evaluate_scheme,
            self.wrap(scheme_module.evaluate_scheme, "engines.evaluate", "engines", count_assignments),
        )
        self._set(ReductionFramework, "simulate_protocol", self.wrap(
            ReductionFramework.simulate_protocol, "engines.simulate", "engines", count_simulation))

        for fn, name in ((run_sweep, "experiments.run_sweep"),
                         (run_lower_bound, "experiments.run_lower_bound")):
            self._replace_everywhere(fn, self.wrap(fn, name, "experiments"))

        self._replace_everywhere(
            driver.drive, self.wrap(driver.drive, "fabric.drive", "fabric", adopt_remote=True))
        self._replace_everywhere(
            artifacts.merge_artifacts,
            self.wrap(artifacts.merge_artifacts, "fabric.merge", "fabric"),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- derived numbers ------------------------------------------------------------

    def analyse(self) -> "Analysis":
        return Analysis(self.spans, self.ops)


def _batch_members(args: Any, kwargs: Any) -> Any:
    """``submit_many``'s requests when they can be read without consuming them."""
    requests = kwargs.get("requests", args[1] if len(args) > 1 else ())
    return requests if isinstance(requests, (list, tuple)) else ()


def _scheme_classes(base: type) -> List[type]:
    import repro.formulas  # noqa: F401 - formula schemes are subclasses too
    import repro.registry  # noqa: F401 - loads every catalogue scheme

    seen: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Analysis:
    """Self times, per-layer and per-label sums, coverage."""

    def __init__(self, spans: List[List[Any]], ops: Dict[int, _Root]) -> None:
        self.spans = spans
        self.ops = ops
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span_id, parent, op, name, layer, start, end in spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        self.self_time: Dict[int, float] = {}
        for span_id, parent, op, name, layer, start, end in spans:
            clipped = [
                (max(lo, start), min(hi, end))
                for lo, hi in children.get(span_id, ())
                if hi > start and lo < end
            ]
            self.self_time[span_id] = (end - start) - _union(clipped)

    def layer_self_s(self, layer: str, op_filter: Optional[Callable[[Any], bool]] = None) -> float:
        total = 0.0
        for span_id, parent, op, name, span_layer, start, end in self.spans:
            if span_layer != layer:
                continue
            if op_filter is not None and not op_filter(self.ops[op].item):
                continue
            total += self.self_time[span_id]
        return total

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[3] == name)

    def by_op(self, name: str) -> Dict[int, List[float]]:
        """Durations of the named spans, grouped by op."""
        grouped: Dict[int, List[float]] = {}
        for span_id, parent, op, span_name, layer, start, end in self.spans:
            if span_name == name:
                grouped.setdefault(op, []).append(end - start)
        return grouped

    def op_walls(self) -> Dict[int, float]:
        return {s[0]: s[6] - s[5] for s in self.spans if s[4] == "op"}

    def coverage(self) -> float:
        """Share of op wall time that lies inside some named layer span."""
        roots = {s[0]: (s[5], s[6]) for s in self.spans if s[4] == "op"}
        inside: Dict[int, List[Tuple[float, float]]] = {}
        for span_id, parent, op, name, layer, start, end in self.spans:
            if layer == "op" or op not in roots:
                continue
            lo, hi = roots[op]
            if end > lo and start < hi:
                inside.setdefault(op, []).append((max(start, lo), min(end, hi)))
        wall = sum(hi - lo for lo, hi in roots.values())
        covered = sum(_union(intervals) for intervals in inside.values())
        return covered / wall if wall > 0 else 0.0

    def self_by_label(self, layer: str) -> Dict[Tuple[str, str, int], List[float]]:
        """Self seconds and call counts of a layer, by (label, family, size)."""
        table: Dict[Tuple[str, str, int], List[float]] = {}
        for span_id, parent, op, name, span_layer, start, end in self.spans:
            if span_layer != layer:
                continue
            item = self.ops[op].item
            key = (item.label, item.family, item.size)
            row = table.setdefault(key, [0.0, 0])
            row[0] += self.self_time[span_id]
            row[1] += 1
        return table

    def dump(self) -> List[Dict[str, Any]]:
        return [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3], "layer": s[4],
             "start": s[5], "end": s[6], "self": self.self_time[s[0]]}
            for s in self.spans
        ]
