"""The long-lived certification service.

A :class:`CertificationService` is the compile-once split of PR 1 turned
into a resident process component: it owns the LRU caches (compiled
topologies, ``holds()`` ground truth, identifier assignments, treedepth /
treewidth decompositions — see :mod:`repro.caching` and
:mod:`repro.core.cache`) plus a cache of scheme *instances*, so the second
request for the same ``(graph, seed)`` re-verifies against an
already-compiled topology and an already-decided ground truth instead of
recomputing either.  Scheme instances must be cached here because the
``holds`` cache keys on scheme identity: a service that rebuilt the scheme
per request would never hit it.

Requests come in as the typed messages of :mod:`repro.service.messages` and
always come back as typed responses — every expected failure
(unknown scheme, bad parameter, unresolvable graph, no-instance handed to
the prover, a ground truth that raises) is an :class:`ErrorResponse` with a
machine-readable code, never a traceback.

Concurrency: a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
backs :meth:`submit` / :meth:`submit_many`.  The underlying caches are
thread-safe, and the per-request evaluation rides the engine's own batched
early-exit entry points (``run_many`` / ``any_accepted`` inside
:func:`~repro.core.scheme.evaluate_scheme`); :meth:`submit_many` adds
batch-level early exit on top — ``stop_on_failure`` cancels everything
queued behind the first failed verdict.

Fault tolerance: the wire protocol routes every request through
:meth:`respond`, which enforces the request's deadline (a frozen or slow
handler becomes a structured ``timeout`` error, never a hung connection),
registers the request id with a :class:`CancelScope` so a ``cancel`` op —
or a dead connection detected mid-batch — can stop queued and in-flight
work cooperatively, and replays completed responses idempotently when the
same ``request_id`` is resubmitted after a broken transport.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import networkx as nx

from repro.caching import LRUCache, cache_stats, cache_stats_since
from repro.core.cache import cached_evaluation_identifiers
from repro.core.scheme import NotAYesInstance, evaluate_scheme
from repro.experiments import ExperimentCancelled, ExperimentSpec, run_experiment
from repro.formulas import (
    FormulaError,
    compile_formula,
    formula_cache_stats,
    resolve_formula_params,
)
from repro.graphs.generators import GraphSpecError, build_graph_spec
from repro.lower_bounds.catalog import LOWER_BOUND_CONSTRUCTIONS
from repro.registry import REGISTRY, RegistryError, SchemeInfo
from repro.service.messages import (
    ArtifactResponse,
    BatchRequest,
    BatchResponse,
    CancelRequest,
    CancelResponse,
    CertifyRequest,
    CertifyResponse,
    ErrorResponse,
    ExperimentRequest,
    HealthRequest,
    HealthResponse,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    response_from_dict,
)
from repro.engines import validate_engine

#: Default worker-pool width; deliberately small — the workload is CPU-bound.
DEFAULT_WORKERS = 4

#: How often a scope-supervised wait re-checks for cancellation, expiry and
#: connection death.  Coarse enough to stay off the profile, fine enough
#: that a cancel lands within human reaction time.
_POLL_INTERVAL_S = 0.05


class CancelScope:
    """The cooperative stop-signal one request (or batch) runs under.

    A scope combines three stop conditions — an explicit :meth:`cancel`, a
    wall-clock deadline, and an optional ``is_alive`` probe (the connection
    that asked for the work) — behind one :meth:`check` that returns the
    stop *reason* (an error code: ``"cancelled"`` or ``"timeout"``) or
    ``None``.  Handlers poll it at natural boundaries (between batch
    members, between sweep grid points); scope-aware waits block on
    :meth:`wait` so an external cancel wakes them immediately.
    """

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        is_alive: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None
        self.deadline_at = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        self.is_alive = is_alive
        self._points_lock = threading.Lock()
        self._points: List[Dict[str, Any]] = []

    def note_point(self, point: Any) -> None:
        """Record one completed unit of work (a grid point) for salvage.

        Runners report finished points here as they land; when the scope
        trips, the structured ``timeout``/``cancelled`` answer carries a
        snapshot of everything noted so far, so a driver can keep the
        completed prefix instead of re-running the whole shard.
        """
        data = point.to_dict() if hasattr(point, "to_dict") else dict(point)
        with self._points_lock:
            self._points.append(data)

    def partial_points(self) -> List[Dict[str, Any]]:
        """A snapshot of the points noted so far (safe to call while the
        handler is still appending on another thread)."""
        with self._points_lock:
            return list(self._points)

    def cancel(self, reason: str = "cancelled") -> None:
        """Signal the scope; the first reason wins (later calls are no-ops)."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (never negative); None = unbounded."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def check(self) -> Optional[str]:
        """The stop reason, if any of the three conditions has triggered."""
        if self._event.is_set():
            return self._reason
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            self.cancel("timeout")
            return self._reason
        if self.is_alive is not None and not self.is_alive():
            self.cancel("cancelled")
            return self._reason
        return None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until cancelled (True) or ``timeout`` elapses (False).

        The deadline is honoured: the wait never outlives it.  This is what
        a scope-aware sleep (e.g. the fault injector's frozen handler) calls
        instead of ``time.sleep`` — cancellation wakes it immediately.
        """
        budget = self.remaining()
        if budget is not None and (timeout is None or budget < timeout):
            timeout = budget
        flag = self._event.wait(timeout)
        self.check()  # a deadline that expired during the wait becomes a reason
        return flag or self._event.is_set()


class _Inflight:
    """Registry entry of one supervised request: its scope and its future."""

    __slots__ = ("scope", "future")

    def __init__(self, scope: CancelScope, future: Optional["Future[Response]"] = None):
        self.scope = scope
        self.future = future


class CertificationService:
    """One facade, many schemes: a resident prover/verifier answering requests.

    Parameters
    ----------
    workers:
        Width of the bounded worker pool behind :meth:`submit` /
        :meth:`submit_many` (synchronous :meth:`certify` / :meth:`handle`
        calls never touch the pool).
    scheme_cache_size:
        How many scheme instances to keep alive, keyed by
        ``(registry key, resolved params)``.
    default_deadline_s:
        Deadline applied by :meth:`respond` to requests that do not carry
        their own ``deadline_s``; ``None`` (the default) means unbounded.
    completed_cache_size:
        How many finished responses to keep for idempotent replay: a
        request resubmitted with a ``request_id`` already answered gets the
        cached response back instead of re-running (the client's retry
        after a broken transport rides on this).
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        scheme_cache_size: int = 128,
        default_deadline_s: Optional[float] = None,
        completed_cache_size: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.default_deadline_s = default_deadline_s
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._schemes = LRUCache(maxsize=scheme_cache_size)
        self._counter_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "certify": 0,
            "sweep": 0,
            "formula": 0,
            "lower_bound": 0,
            "radius": 0,
            "stats": 0,
            "health": 0,
            "errors": 0,
            "batches": 0,
            "timeouts": 0,
            "cancelled": 0,
            "replayed": 0,
        }
        # Per-engine routing counters: how often each concrete engine
        # actually ran (one tick per certify evaluation / per executed
        # experiment point that reports an ``engine_resolved``).
        self._routing: Dict[str, int] = {}
        self._pending = 0
        self._cache_baseline = cache_stats()
        self._closed = False
        self._started_at = time.monotonic()
        self._inflight: Dict[str, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        # Deliberately NOT in the global cache registry: replay is a wire
        # concern, and registering it would shift every cache-stats test.
        self._completed = LRUCache(maxsize=completed_cache_size)
        #: Optional :class:`repro.service.faults.FaultInjector` consulted at
        #: the top of :meth:`handle`; None in production.
        self.fault_injector: Optional[Any] = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down; synchronous calls keep working."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "CertificationService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("the service is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="certify"
                )
            return self._pool

    # -- bookkeeping ---------------------------------------------------------

    def _count(self, kind: str) -> None:
        with self._counter_lock:
            self._counters[kind] = self._counters.get(kind, 0) + 1

    def _count_routing(self, engines: Iterable[Optional[str]]) -> None:
        """Tick the per-engine routing counters (None entries are skipped)."""
        with self._counter_lock:
            for engine in engines:
                if engine is not None:
                    self._routing[engine] = self._routing.get(engine, 0) + 1

    def stats(self) -> Dict[str, Any]:
        """Request counters plus per-cache hit/miss/size statistics.

        ``caches_since_start`` is the delta against the counters observed
        when this service was constructed — the numbers a cache-reuse test
        (or a dashboard) actually wants.
        """
        with self._counter_lock:
            counters = dict(self._counters)
            routing = dict(self._routing)
        formula_cache = formula_cache_stats()
        return {
            "service": {
                "workers": self.workers,
                "requests": counters,
                "routing": routing,
                "formula_compile_hits": formula_cache["hits"],
                "formula_compile_misses": formula_cache["misses"],
            },
            "schemes_cached": len(self._schemes),
            "caches": cache_stats(),
            "caches_since_start": cache_stats_since(self._cache_baseline),
        }

    # -- scheme instances ----------------------------------------------------

    def _scheme(self, info: SchemeInfo, params: Dict[str, Any]):
        key = (info.key, tuple(sorted(params.items(), key=repr)))
        return self._schemes.get_or_compute(key, lambda: info.factory(**params))

    # -- request handling ----------------------------------------------------

    def handle(self, request: Request, scope: Optional[CancelScope] = None) -> Response:
        """Dispatch any typed request synchronously.

        ``scope`` is the cancel scope the work runs under (threaded through
        to the cooperative stop-checks of sweeps, lower-bound searches and
        batches); in-process callers that want no deadline simply omit it.
        Wire connections enter through :meth:`respond`, which builds the
        scope from the request's ``deadline_s`` and supervises the wait.
        """
        injector = self.fault_injector
        if injector is not None:
            injector.before_handle(request, scope)
        if isinstance(request, CertifyRequest):
            return self.certify(request)
        if isinstance(request, ExperimentRequest):
            return self._experiment(request, scope)
        if isinstance(request, StatsRequest):
            self._count("stats")
            return StatsResponse(result=self.stats())
        if isinstance(request, HealthRequest):
            return self.health()
        if isinstance(request, CancelRequest):
            return self.cancel_request(request)
        if isinstance(request, BatchRequest):
            # The wire form of submit_many: the batch fans out over the
            # worker pool and early-exits exactly like the in-process call.
            return BatchResponse(
                responses=tuple(
                    self.submit_many(
                        request.requests,
                        stop_on_failure=request.stop_on_failure,
                        scope=scope,
                    )
                )
            )
        self._count("errors")
        return ErrorResponse(
            code="invalid-request",
            message=f"unsupported request type {type(request).__name__}",
        )

    def respond(
        self,
        request: Request,
        *,
        is_alive: Optional[Callable[[], bool]] = None,
    ) -> Response:
        """Answer a wire request under the fault-tolerance contract.

        This is what the protocol layer calls instead of :meth:`handle`.
        On top of plain dispatch it provides:

        * **deadlines** — the request's ``deadline_s`` (or the service's
          ``default_deadline_s``) bounds the wait; expiry answers with a
          structured ``timeout`` error, never a hung connection, even if
          the handler itself is frozen;
        * **cancellation** — work-carrying requests register their
          ``request_id`` so a ``cancel`` op (from any connection) or a dead
          client connection (``is_alive`` probe) stops queued and in-flight
          work cooperatively;
        * **idempotent replay** — a ``request_id`` that already finished
          returns its cached response without re-running, which makes a
          client retry after a broken transport exactly-once in effect.

        Control-plane ops (``stats``, ``health``, ``cancel``) bypass the
        worker pool entirely so they stay responsive while the pool is
        saturated or wedged.
        """
        if isinstance(request, (StatsRequest, HealthRequest, CancelRequest)):
            # Control-plane first: a CancelRequest's request_id names its
            # *target*, not itself — it must never hit the replay cache.
            return self.handle(request)
        request_id = getattr(request, "request_id", None)
        if request_id is not None:
            cached = self._completed.get(request_id)
            if cached is not None:
                self._count("replayed")
                return cached
        deadline_s = getattr(request, "deadline_s", None)
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        scope = CancelScope(deadline_s=deadline_s, is_alive=is_alive)
        entry = _Inflight(scope)
        if request_id is not None:
            with self._inflight_lock:
                self._inflight[request_id] = entry
        try:
            if isinstance(request, BatchRequest):
                # Batches run on the connection thread (their members need
                # the pool slots — see submit()); submit_many enforces the
                # scope between members, so the deadline still binds.
                try:
                    response = self.handle(request, scope=scope)
                except ExperimentCancelled as error:
                    response = self._stopped_error(error.reason, request.op)
            else:
                response = self._supervised(request, scope, entry)
        finally:
            if request_id is not None:
                with self._inflight_lock:
                    self._inflight.pop(request_id, None)
        if request_id is not None and not _stopped_response(response):
            # timeout/cancelled answers are not replayable: a retry of that
            # id is a fresh attempt, not a duplicate delivery.
            self._completed.put(request_id, response)
        return response

    def _supervised(
        self, request: Request, scope: CancelScope, entry: _Inflight
    ) -> Response:
        """Run one request on the pool, polling the scope while waiting."""
        try:
            future = self._executor().submit(self.handle, request, scope=scope)
        except RuntimeError:
            # The pool is closed (service shutting down). Synchronous calls
            # keep working on a closed service, so answer on this thread —
            # the scope still reaches the handler's stop-checks.
            try:
                return self.handle(request, scope=scope)
            except ExperimentCancelled as error:
                return self._stopped_error(error.reason, request.op)
        entry.future = future
        self._track_pending(future)
        while True:
            try:
                return future.result(timeout=_POLL_INTERVAL_S)
            except FutureTimeoutError:
                reason = scope.check()
                if reason is None:
                    continue
                future.cancel()
                return self._stopped_error(reason, request.op, scope=scope)
            except CancelledError:
                reason = scope.check() or "cancelled"
                return self._stopped_error(reason, request.op, scope=scope)
            except ExperimentCancelled as error:
                # A stop-check fired before the handler reached its own
                # ExperimentCancelled mapping (e.g. a scope-aware freeze
                # ahead of dispatch): same structured answer.
                return self._stopped_error(error.reason, request.op, scope=scope)

    def _stopped_error(
        self, reason: str, request_op: str, scope: Optional[CancelScope] = None
    ) -> ErrorResponse:
        """The structured answer for a request stopped by its scope.

        When the scope collected completed grid points before tripping, the
        answer salvages them in its ``partial`` field — promptly (the answer
        never waits for the handler to unwind) but losslessly.
        """
        self._count("timeouts" if reason == "timeout" else "cancelled")
        message = (
            "deadline expired before the request finished"
            if reason == "timeout"
            else "request cancelled before it finished"
        )
        return ErrorResponse(
            code=reason,
            message=message,
            request_op=request_op,
            partial=_partial_payload(scope),
        )

    def _point_sink(
        self, op: str, scope: Optional[CancelScope]
    ) -> Optional[Callable[[Any], None]]:
        """The per-point progress callback a runner gets, or None.

        Completed points are noted on the scope (for salvage into a partial
        ``timeout`` answer) and the fault injector's ``straggle`` action gets
        its chance to slow the run between points — scope-aware, so an
        injected straggler still honours deadlines and cancellation.
        """
        injector = self.fault_injector
        if scope is None and injector is None:
            return None

        def on_point(point: Any) -> None:
            if scope is not None:
                scope.note_point(point)
            if injector is not None:
                injector.straggle(op, scope)

        return on_point

    def _track_pending(self, future: "Future[Response]") -> None:
        """Maintain the queued-or-running gauge the ``health`` op exposes."""
        with self._counter_lock:
            self._pending += 1

        def _done(_: "Future[Response]") -> None:
            with self._counter_lock:
                self._pending -= 1

        future.add_done_callback(_done)

    def health(self) -> HealthResponse:
        """Liveness and load, the shard driver's dead-or-busy discriminator."""
        self._count("health")
        with self._counter_lock:
            counters = dict(self._counters)
            pending = self._pending
        with self._inflight_lock:
            inflight = len(self._inflight)
        with self._pool_lock:
            closed = self._closed
            pool = self._pool
            threads = getattr(pool, "_threads", ()) if pool is not None else ()
            alive = sum(1 for thread in threads if thread.is_alive())
        return HealthResponse(
            result={
                "ok": not closed,
                "workers": self.workers,
                "worker_threads_alive": alive,
                "queue_depth": pending,
                "inflight": inflight,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "default_deadline_s": self.default_deadline_s,
                "formula_cache_size": formula_cache_stats()["size"],
                "requests": counters,
            }
        )

    def cancel_request(self, request: CancelRequest) -> CancelResponse:
        """Resolve a ``cancel`` op against the in-flight registry."""
        with self._inflight_lock:
            entry = self._inflight.get(request.request_id)
        if entry is None:
            state = "finished" if request.request_id in self._completed else "unknown"
            return CancelResponse(
                result={
                    "request_id": request.request_id,
                    "cancelled": False,
                    "state": state,
                }
            )
        future = entry.future
        state = "queued" if future is not None and future.cancel() else "running"
        entry.scope.cancel("cancelled")
        return CancelResponse(
            result={"request_id": request.request_id, "cancelled": True, "state": state}
        )

    def certify(
        self, request: CertifyRequest, *, graph: Optional[nx.Graph] = None
    ) -> Union[CertifyResponse, ErrorResponse]:
        """Answer one certification question.

        ``graph`` lets in-process callers (the :mod:`repro.api` facade)
        hand over an already-built :class:`networkx.Graph`; wire callers
        always go through the ``family:size`` specifier in the request.

        A request carrying ``formula`` instead of ``scheme`` compiles an
        ephemeral scheme through :mod:`repro.formulas` (``params`` holds
        the compilation knobs); parse/compile failures answer with the
        structured ``invalid-formula`` code, never a traceback.
        """

        def fail(code: str, message: str) -> ErrorResponse:
            self._count("errors")
            return ErrorResponse(code=code, message=message, request_op=request.op)

        compiled = None
        info = None
        if request.formula is not None:
            try:
                compiled = compile_formula(
                    request.formula, **resolve_formula_params(request.params)
                )
            except FormulaError as error:
                return fail("invalid-formula", str(error))
            except TypeError:
                return fail(
                    "invalid-request", f"params must be a mapping, got {request.params!r}"
                )
        else:
            try:
                info = REGISTRY.get(request.scheme)
            except RegistryError as error:
                return fail("unknown-scheme", str(error))
            except TypeError:
                # e.g. an unhashable scheme value smuggled in over the wire.
                return fail(
                    "invalid-request", f"scheme must be a string, got {request.scheme!r}"
                )
            try:
                params = info.resolve_params(request.params)
            except RegistryError as error:
                return fail("invalid-param", str(error))
            except TypeError:
                return fail(
                    "invalid-request", f"params must be a mapping, got {request.params!r}"
                )
        try:
            validate_engine(request.engine, context="certify requests")
        except ValueError as error:
            return fail("invalid-param", str(error))
        # Integer seeds are part of the contract: they are what makes the
        # request deterministic and its caches reusable across callers.
        malformed = request.malformed_field()
        if malformed is not None:
            return fail("invalid-request", malformed)
        if request.trials < 0:
            return fail("invalid-param", "trials must be non-negative")
        if graph is None:
            try:
                graph = build_graph_spec(request.graph, seed=request.seed)
            except GraphSpecError as error:
                return fail("invalid-graph", str(error))

        try:
            scheme = compiled.scheme if compiled is not None else self._scheme(info, params)
            report = evaluate_scheme(
                scheme,
                graph,
                seed=request.seed,
                adversarial_trials=request.trials,
                engine=request.engine,
            )
            certificates = None
            if request.include_certificates and report.holds:
                ids = cached_evaluation_identifiers(graph, request.seed)
                certificates = {
                    repr(vertex): {"id": ids[vertex], "hex": certificate.hex()}
                    for vertex, certificate in scheme.prove(graph, ids).items()
                }
        except NotAYesInstance as error:
            return fail("not-a-yes-instance", str(error))
        except ValueError as error:
            # The exact decision procedures raise when the instance is out of
            # their reach (e.g. treedepth on a long path without a model
            # builder) and the structural checks raise on malformed graphs.
            return fail("undecidable", str(error))
        except Exception as error:  # noqa: BLE001 - the service must not crash
            return fail("internal-error", f"{type(error).__name__}: {error}")

        self._count("certify")
        self._count_routing((report.engine_resolved,))
        return CertifyResponse(
            scheme=scheme.name,
            registry_key="formula" if compiled is not None else info.key,
            graph=request.graph,
            vertices=graph.number_of_nodes(),
            edges=graph.number_of_edges(),
            holds=report.holds,
            accepted=report.completeness_ok,
            sound=report.soundness_ok,
            max_certificate_bits=report.max_certificate_bits,
            bound=compiled.bound_label if compiled is not None else info.bound.label,
            engine=request.engine,
            engine_resolved=report.engine_resolved,
            seed=request.seed,
            certificates=certificates,
        )

    def _experiment(
        self, request: ExperimentRequest, scope: Optional[CancelScope]
    ) -> Response:
        """Run one experiment op: wire op ``X`` is spec kind ``X``.

        The request's fields, minus the ``deadline_s``/``request_id``/
        ``attempt`` envelope, become the :class:`ExperimentSpec` of the same
        kind; the answer is the run's artifact payload.  A sweep carrying
        ``formula`` instead of ``scheme`` runs — and counts, and reports its
        later failures — as a ``formula`` series, with ``params`` holding the
        compilation knobs.
        """
        kind = request.op

        def fail(
            code: str, message: str, partial: Optional[Dict[str, Any]] = None
        ) -> ErrorResponse:
            # ``kind`` is read at call time: failures after the formula
            # redirect below report ``request_op="formula"``.
            self._count("errors")
            return ErrorResponse(code=code, message=message, request_op=kind, partial=partial)

        malformed = request.malformed_field()
        if malformed is not None:
            return fail("invalid-request", malformed)
        fields = request.to_dict()
        for envelope in ("op", "deadline_s", "request_id", "attempt"):
            del fields[envelope]
        formula = fields.pop("formula", None) if kind == "sweep" else None
        if formula is not None:
            if fields.pop("measure") != "full":
                return fail("invalid-param", "formula sweeps only support measure='full'")
            if fields.pop("id_exponent") is not None:
                return fail("invalid-param", "formula sweeps do not support id_exponent")
            try:
                knobs = resolve_formula_params(fields.pop("params"))
            except FormulaError as error:
                return fail("invalid-formula", str(error))
            del fields["scheme"]
            fields.update(knobs, formula=formula)
            kind = "formula"
        try:
            spec = ExperimentSpec.from_dict({**fields, "kind": kind}).validate()
        except FormulaError as error:
            return fail("invalid-formula", str(error))
        except RegistryError as error:
            code = "unknown-scheme" if _uncatalogued(request) else "invalid-param"
            return fail(code, str(error))
        try:
            result = run_experiment(
                spec,
                should_stop=scope.check if scope is not None else None,
                on_point=self._point_sink(kind, scope),
            )
        except ExperimentCancelled as error:
            reason = error.reason
            return fail(reason, f"{kind} stopped: {reason}", _partial_payload(scope))
        except GraphSpecError as error:
            return fail("invalid-graph", str(error))
        except NotAYesInstance as error:
            return fail("not-a-yes-instance", str(error))
        except FormulaError as error:
            return fail("invalid-formula", str(error))
        except ValueError as error:
            return fail("undecidable", str(error))
        except Exception as error:  # noqa: BLE001 - the service must not crash
            return fail("internal-error", f"{type(error).__name__}: {error}")
        self._count(kind.replace("-", "_"))
        # Radius points carry no engine: that kind counts no routing.
        self._count_routing(getattr(point, "engine_resolved", None) for point in result.points)
        return response_from_dict({"op": kind, "result": result.to_dict()})

    # -- batched submission --------------------------------------------------

    def submit(self, request: Request) -> "Future[Response]":
        """Queue one request on the bounded worker pool.

        A :class:`BatchRequest` is rejected outright: its members need the
        pool slot the wrapping future would occupy, which deadlocks a
        saturated pool (in-process callers use :meth:`submit_many` directly;
        the wire protocol dispatches batches through :meth:`handle` on the
        connection thread).
        """
        if isinstance(request, BatchRequest):
            raise ValueError(
                "a batch cannot be queued on the worker pool; "
                "use submit_many(batch.requests) or handle(batch)"
            )
        future = self._executor().submit(self.handle, request)
        self._track_pending(future)
        return future

    def submit_many(
        self,
        requests: Iterable[Request],
        stop_on_failure: bool = False,
        scope: Optional[CancelScope] = None,
    ) -> List[Response]:
        """Run a batch through the worker pool, preserving order.

        With ``stop_on_failure`` the batch early-exits like the engine's
        ``any_accepted``: after the first response that is an error or a
        failed verdict, every request still waiting in the queue is
        cancelled and answered with a ``skipped`` error instead of running.

        ``scope`` (supplied by :meth:`respond` for wire batches) bounds the
        whole batch: when its deadline expires, its ``cancel`` fires, or
        the connection that asked dies, the queued tail is cancelled and
        every unanswered member comes back as a structured ``timeout`` /
        ``cancelled`` error — including the member running at the moment
        the scope tripped (its handler sees the scope and stops early).
        """
        self._count("batches")
        batch: Sequence[Request] = list(requests)
        if any(isinstance(request, BatchRequest) for request in batch):
            # Nested batches would wait on pool slots their wrapper occupies
            # — the same deadlock submit() guards against.
            raise ValueError("batches cannot contain batches")
        executor = self._executor()
        futures = []
        for request in batch:
            future = executor.submit(self.handle, request, scope=scope)
            self._track_pending(future)
            futures.append(future)
        responses: List[Response] = []
        failed = False
        stop_reason: Optional[str] = None
        # The walk below must stay syscall-free between waits: a cancel
        # sweep that yields the GIL per member (e.g. by probing the
        # connection) lets the CPU-bound workers start tail members between
        # cancels, defeating the early exit.  The scope is therefore only
        # consulted inside _scoped_result (where we block anyway); the
        # moment it trips, the whole remaining tail is cancelled at once.
        for position, (request, future) in enumerate(zip(batch, futures)):
            if stop_reason is not None:
                future.cancel()
                responses.append(
                    ErrorResponse(
                        code=stop_reason,
                        message=f"batch stopped ({stop_reason}) before this "
                        "request finished",
                        request_op=request.op,
                    )
                )
                continue
            if failed and future.cancel():
                responses.append(
                    ErrorResponse(
                        code="skipped",
                        message="batch stopped early by a previous failure",
                        request_op=request.op,
                    )
                )
                continue
            if scope is None:
                response = future.result()
            else:
                response = self._scoped_result(future, scope, request)
                if _stopped_response(response):
                    stop_reason = response.code
                    for pending in futures[position + 1 :]:
                        pending.cancel()
            responses.append(response)
            if stop_on_failure and not failed and not _response_ok(response):
                failed = True
                # Sweep the whole queued tail now: cancelling lazily, one
                # member per walk step, lets the workers stay ahead of the
                # walk and start members the early exit promised to skip.
                for pending in futures[position + 1 :]:
                    pending.cancel()
        return responses

    def _scoped_result(
        self, future: "Future[Response]", scope: CancelScope, request: Request
    ) -> Response:
        """Await one batch member under the batch's scope."""
        while True:
            try:
                return future.result(timeout=_POLL_INTERVAL_S)
            except FutureTimeoutError:
                reason = scope.check()
                if reason is None:
                    continue
                future.cancel()
                return self._stopped_error(reason, request.op)
            except CancelledError:
                reason = scope.check() or "cancelled"
                return self._stopped_error(reason, request.op)
            except ExperimentCancelled as error:
                return self._stopped_error(error.reason, request.op)


def _response_ok(response: Response) -> bool:
    """Did this response carry a clean verdict (for batch early exit)?"""
    if isinstance(response, ErrorResponse):
        return False
    if isinstance(response, CertifyResponse):
        return response.verdict_ok and response.sound is not False
    if isinstance(response, ArtifactResponse):
        return response.clean
    return True


def _uncatalogued(request: ExperimentRequest) -> bool:
    """Does the request name a scheme or construction that is not catalogued?"""
    for name, catalogue in (("scheme", REGISTRY), ("construction", LOWER_BOUND_CONSTRUCTIONS)):
        key = getattr(request, name, None)
        if key is not None and key not in catalogue:
            return True
    return False


def _partial_payload(scope: Optional[CancelScope]) -> Optional[Dict[str, Any]]:
    """The salvageable-progress payload of a tripped scope, or None."""
    if scope is None:
        return None
    points = scope.partial_points()
    return {"points": points} if points else None


def _stopped_response(response: Response) -> bool:
    """Was this response a scope trip (timeout/cancel) rather than an answer?"""
    return isinstance(response, ErrorResponse) and response.code in (
        "timeout",
        "cancelled",
    )
