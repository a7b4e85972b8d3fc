"""Typed request/response messages of the certification service.

Every interaction with :class:`~repro.service.core.CertificationService` —
in-process through :mod:`repro.api`, or over the JSON-lines wire protocol of
:mod:`repro.service.protocol` — is one of the dataclasses here.  They are
plain data: JSON round-trippable (``to_dict``/``from_dict``, inherited from
one shared codec), with no references to schemes, graphs or caches, so the
same message works across a process or socket boundary.

The experiment ops follow one rule: wire op ``X`` *is*
:class:`~repro.experiments.ExperimentSpec` kind ``X`` (``sweep``,
``formula``, ``lower-bound``, ``radius``), and its request carries the
spec's fields one for one plus the ``deadline_s``/``request_id``/``attempt``
envelope every work-carrying request shares.  The service builds the spec
with ``ExperimentSpec.from_dict`` and answers with the artifact payload
:func:`repro.experiments.write_artifact` would have written; the shard
driver builds requests from specs the same way in reverse.

Failures are data too.  Instead of letting ``NotAYesInstance``, registry
``RegistryError`` s, ``GraphSpecError`` s or the exact-decision
``ValueError`` of ``holds()`` escape as tracebacks, the service maps each to
an :class:`ErrorResponse` carrying a machine-readable ``code`` from
:data:`ERROR_CODES` plus the human-readable message — callers switch on the
code, humans read the message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.engines import PROTOCOL_ENGINES, VALID_ENGINES, validate_engine

#: Machine-readable error codes an :class:`ErrorResponse` may carry.
ERROR_CODES: Tuple[str, ...] = (
    "unknown-scheme",      # registry key not found (message lists suggestions)
    "invalid-param",       # parameter validation failed (type/range/unknown key)
    "invalid-graph",       # graph specifier did not resolve to a graph
    "invalid-request",     # malformed wire message / unknown op / bad field
    "invalid-formula",     # a --formula failed to parse or compile (message
                           # carries the offending token position)
    "not-a-yes-instance",  # the honest prover was asked to prove a no-instance
    "undecidable",         # ground truth raised (e.g. exact treedepth too large)
    "skipped",             # batch member not run because the batch exited early
    "timeout",             # the request's deadline expired before it finished
    "cancelled",           # cancelled by a cancel op / dead connection / batch stop
    "connect-timeout",     # client: could not connect within the retry budget
    "internal-error",      # anything else; the message carries the repr
    "superseded",          # driver-side: a late answer for a dispatch that was
                           # re-assigned (fencing discarded it, never merged)
)


class ProtocolError(ValueError):
    """A wire message that does not decode into a known request."""


def _validate_fault_tolerance_fields(message: Any) -> None:
    """Validate the ``deadline_s`` / ``request_id`` / ``attempt`` trio every
    work-carrying request shares (bad values raise ValueError, which the wire
    path turns into a ``ProtocolError`` — the sender's fault, never a
    traceback).  ``attempt`` is the shard driver's fencing counter: it rides
    along so a response can be correlated with the dispatch attempt that
    produced it, and a late answer for a superseded attempt can be
    discarded instead of merged twice."""
    deadline = getattr(message, "deadline_s", None)
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ValueError(f"deadline_s must be a number of seconds, got {deadline!r}")
        if deadline <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline!r}")
        object.__setattr__(message, "deadline_s", float(deadline))
    request_id = getattr(message, "request_id", None)
    if request_id is not None and not isinstance(request_id, str):
        raise ValueError(f"request_id must be a string, got {request_id!r}")
    attempt = getattr(message, "attempt", None)
    if attempt is not None:
        if isinstance(attempt, bool) or not isinstance(attempt, int):
            raise ValueError(f"attempt must be an integer, got {attempt!r}")
        if attempt < 1:
            raise ValueError(f"attempt must be at least 1, got {attempt!r}")


def _validate_engine_field(
    message: Any, allowed: Sequence[str] = VALID_ENGINES
) -> None:
    """Validate the ``engine`` field at the message boundary.

    Raises ValueError (→ ``ProtocolError`` on the wire path) listing the
    valid engines from the one shared place, so a bad engine never travels
    further than decoding.
    """
    engine = getattr(message, "engine", None)
    if not isinstance(engine, str):
        raise ValueError(f"engine must be a string, got {engine!r}")
    validate_engine(engine, allowed=allowed, context=f"{message.op!r} requests")


def _validate_scheme_or_formula(message: Any) -> None:
    """Enforce the scheme/formula exclusivity shared by certify and sweep.

    Exactly one of ``scheme`` (a registry key) and ``formula`` (MSO concrete
    syntax, compiled on the fly) must be set.  Raises ValueError — which the
    wire path turns into a ``ProtocolError`` per the one-error-shape
    convention — so a request carrying both or neither never reaches a
    handler.
    """
    scheme = getattr(message, "scheme", None)
    formula = getattr(message, "formula", None)
    if scheme is not None and formula is not None:
        raise ValueError("'scheme' and 'formula' are mutually exclusive; set one")
    if scheme is None and formula is None:
        raise ValueError("one of 'scheme' or 'formula' is required")
    if formula is not None and not isinstance(formula, str):
        raise ValueError(f"formula must be a string, got {formula!r}")
    if scheme is not None and not isinstance(scheme, str):
        raise ValueError(f"scheme must be a string, got {scheme!r}")


def _normalize_shard(shard: Any) -> Optional[Tuple[int, int]]:
    if shard is None:
        return None
    try:
        index, count = shard
        return (int(index), int(count))
    except (TypeError, ValueError):
        raise ValueError(f"shard must be an (i, k) pair, got {shard!r}") from None


def _normalize_sizes(sizes: Any) -> Any:
    """A ``sizes`` grid as a tuple, its members kept exactly as sent.

    Members that do not read as integers at all (``["a"]``, ``[null]``) fail
    decoding.  A string or non-iterable grid, and float, bool or numeric-string
    members, pass through unchanged: :meth:`BaseRequest.malformed_field`
    reports them and the service answers ``invalid-request`` for the op —
    never a silently coerced grid.
    """
    if isinstance(sizes, str):
        return sizes
    try:
        members = tuple(sizes)
    except TypeError:
        return sizes
    for member in members:
        int(member)
    return members


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


class BaseRequest:
    """The codec every request shares: a dataclass ``to_dict``/``from_dict``
    keyed by the class-level ``op`` discriminator."""

    op: ClassVar[str] = ""

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"op": self.op}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            data[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        payload = dict(data)
        op = payload.pop("op", cls.op)
        if op != cls.op:
            raise ProtocolError(f"expected a {cls.op!r} request, got op {op!r}")
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ProtocolError(f"unknown {cls.op!r} field(s) {unknown}")
        try:
            # TypeError: missing/duplicate fields; ValueError/TypeError from
            # __post_init__: field values that do not coerce (sizes=["a"],
            # params="abc").  All are the sender's fault, so all are protocol
            # errors — never tracebacks.
            return cls(**payload)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad {cls.op!r} request: {error}") from None

    def malformed_field(self) -> Optional[str]:
        """Why an integer field has the wrong type, or None when all are fine.

        Integer fields (annotated ``int`` / ``Optional[int]``) must hold a
        real ``int`` — not a bool, float or numeric string — and ``sizes``
        must be a sequence of them.  The service answers a non-None result
        with ``invalid-request`` before anything runs.
        """
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "sizes":
                if not (isinstance(value, tuple) and all(map(_is_int, value))):
                    return f"sizes must be a list of integers, got {value!r}"
            elif spec.type in ("int", "Optional[int]") and not (
                _is_int(value) or (value is None and spec.type != "int")
            ):
                return f"{spec.name} must be an integer, got {value!r}"
        return None


@dataclass(frozen=True)
class WorkRequest(BaseRequest):
    """A request that runs work: it carries the fault-tolerance envelope.

    ``deadline_s`` bounds the whole request: past the deadline the service
    answers a structured ``timeout`` error instead of blocking the
    connection.  ``request_id`` makes the request idempotently resubmittable
    — the service remembers the response per id, so a retry after a broken
    transport replays the answer instead of recomputing it (and the id is
    the handle a ``cancel`` op targets).  ``attempt`` is the shard driver's
    fencing counter.  The three are keyword-only.
    """

    deadline_s: Optional[float] = field(default=None, kw_only=True)
    request_id: Optional[str] = field(default=None, kw_only=True)
    attempt: Optional[int] = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        _validate_fault_tolerance_fields(self)


@dataclass(frozen=True)
class CertifyRequest(WorkRequest):
    """One certification question: run ``scheme`` on ``graph``, full harness.

    ``graph`` is a ``family:size`` / ``file:PATH`` specifier (the shared
    language of :func:`repro.graphs.generators.build_graph_spec`); in-process
    callers may hand the service an already-built graph alongside the
    request, in which case ``graph`` is just the label reported back.
    ``include_certificates`` asks for the raw per-vertex certificates of a
    yes-instance in the response.

    ``formula`` (mutually exclusive with ``scheme``) asks for an *ephemeral*
    scheme compiled from MSO concrete syntax instead of a catalogue lookup;
    ``params`` then carries the compilation knobs (``t``, ``k``, ``route``,
    ``model``) and parse/compile failures answer with the
    ``invalid-formula`` code.
    """

    op = "certify"

    graph: str
    scheme: Optional[str] = None
    formula: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    trials: int = 20
    engine: str = "auto"
    include_certificates: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        _validate_scheme_or_formula(self)
        _validate_engine_field(self)
        super().__post_init__()


@dataclass(frozen=True)
class ExperimentRequest(WorkRequest):
    """An experiment op: the fields of the same-kind spec, plus the envelope.

    Every experiment request shares the spec backbone's ``sizes`` grid and
    ``shard=(i, k)`` restriction (grid points with global index ≡ i mod k —
    the wire form of ``--shard i/k``, which is what lets the shard driver
    fan one experiment out over a fleet of serve processes and merge the
    partial payloads back into the exact unsharded artifact).
    """

    #: Engines the kind implements; empty when it has no ``engine`` field.
    engines: ClassVar[Tuple[str, ...]] = VALID_ENGINES

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", _normalize_sizes(self.sizes))
        object.__setattr__(self, "shard", _normalize_shard(self.shard))
        if self.engines:
            _validate_engine_field(self, allowed=self.engines)
        super().__post_init__()


@dataclass(frozen=True)
class SweepRequest(ExperimentRequest):
    """A certificate-size series of a registered scheme (kind ``sweep``).

    ``formula`` (mutually exclusive with ``scheme``) sweeps an *ephemeral*
    scheme compiled from MSO concrete syntax instead: ``params`` then carries
    the compilation knobs (``t``, ``k``, ``route``, ``model``) and the run
    goes through :class:`repro.experiments.FormulaSpec`, answering — and
    counting — as a ``formula`` series.
    """

    op = "sweep"

    family: str
    sizes: Tuple[int, ...]
    scheme: Optional[str] = None
    formula: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    trials: int = 20
    seed: int = 0
    engine: str = "auto"
    check_bound: bool = True
    measure: str = "full"
    id_exponent: Optional[int] = None
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        _validate_scheme_or_formula(self)
        super().__post_init__()


@dataclass(frozen=True)
class FormulaRequest(ExperimentRequest):
    """A certificate-size series for an ad-hoc MSO formula (kind ``formula``).

    The formula is compiled once per serve process (fingerprint-keyed cache)
    and evaluated at every grid point; parse/compile failures answer with
    the ``invalid-formula`` code.
    """

    op = "formula"

    formula: str
    family: str
    sizes: Tuple[int, ...]
    t: int = 2
    k: Optional[int] = None
    route: str = "treedepth"
    model: str = "auto"
    trials: int = 20
    seed: int = 0
    engine: str = "auto"
    check_bound: bool = True
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.formula, str) or not self.formula.strip():
            raise ValueError("formula must be a non-empty string")
        super().__post_init__()


@dataclass(frozen=True)
class LowerBoundRequest(ExperimentRequest):
    """A Section-7 lower-bound search (kind ``lower-bound``)."""

    op = "lower-bound"
    engines = PROTOCOL_ENGINES

    construction: str
    sizes: Tuple[int, ...]
    check_dichotomy: bool = True
    simulate: bool = False
    simulate_bits: int = 1
    max_side_bits: int = 12
    engine: str = "auto"
    check_bound: bool = True
    seed: int = 0
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None


@dataclass(frozen=True)
class RadiusRequest(ExperimentRequest):
    """An Appendix A.1 radius-verification series (kind ``radius``).

    No ``engine`` field: the radius simulator is its own engine — it
    explores radius-``r`` balls, not certificate assignments.
    """

    op = "radius"
    engines = ()

    family: str
    sizes: Tuple[int, ...]
    bound: int = 3
    radius: int = 0
    seed: int = 0
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None


@dataclass(frozen=True)
class StatsRequest(BaseRequest):
    """Ask the service for its request counters and cache statistics."""

    op = "stats"


@dataclass(frozen=True)
class HealthRequest(BaseRequest):
    """Ask a serve process whether it is alive, and how loaded it is.

    The answer (worker liveness, queue depth, in-flight gauge, uptime) is
    what the shard driver uses to tell a dead or wedged worker from a busy
    one — and what a supervisor polls between requests.
    """

    op = "health"


@dataclass(frozen=True)
class CancelRequest(BaseRequest):
    """Cooperatively cancel the request known under ``request_id``.

    Queued work is cancelled outright (its submitter gets a ``cancelled``
    error); in-flight work has its cancel scope signalled, so handlers that
    check it (sweep grid loops, scope-aware waits) stop early.  Cancelling
    an unknown or already-finished id is not an error — the response data
    says what state the id was found in.
    """

    op = "cancel"

    request_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.request_id, str) or not self.request_id:
            raise ValueError(
                f"request_id must be a non-empty string, got {self.request_id!r}"
            )


_REQUEST_TYPES: Dict[str, type] = {
    cls.op: cls
    for cls in (
        CertifyRequest,
        SweepRequest,
        FormulaRequest,
        LowerBoundRequest,
        RadiusRequest,
        StatsRequest,
        HealthRequest,
        CancelRequest,
    )
}

#: The experiment ops — each one also an ``ExperimentSpec`` kind.
EXPERIMENT_OPS: Tuple[str, ...] = tuple(
    op for op, cls in _REQUEST_TYPES.items() if issubclass(cls, ExperimentRequest)
)


def request_from_dict(data: Mapping[str, Any]) -> "Request":
    """Re-hydrate any request by its ``op`` discriminator."""
    op = data.get("op")
    cls = _REQUEST_TYPES.get(op)
    if cls is None:
        raise ProtocolError(
            f"unknown request op {op!r}; known ops: "
            f"{', '.join(sorted(_REQUEST_TYPES))}, shutdown"
        )
    return cls.from_dict(data)


@dataclass(frozen=True)
class BatchRequest(BaseRequest):
    """Many requests as one wire message, answered through the worker pool.

    The batch rides :meth:`~repro.service.core.CertificationService.
    submit_many`, so ``stop_on_failure=True`` gives wire callers the same
    batch-level early exit as in-process ones: after the first error or
    failed verdict, still-queued members are answered with ``skipped``
    errors instead of running.  Batches cannot nest, and ``shutdown`` cannot
    ride in one (a batch member never terminates the session).

    ``deadline_s`` bounds the *whole* batch: members still queued when the
    deadline expires are tail-cancelled and answered with ``timeout``
    errors, so a batch can never hold a connection hostage.
    """

    op = "batch"

    requests: Tuple["Request", ...]
    stop_on_failure: bool = False
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        _validate_fault_tolerance_fields(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "requests": [request.to_dict() for request in self.requests],
            "stop_on_failure": self.stop_on_failure,
            "deadline_s": self.deadline_s,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchRequest":
        payload = dict(data)
        op = payload.pop("op", cls.op)
        if op != cls.op:
            raise ProtocolError(f"expected a 'batch' request, got op {op!r}")
        raw_requests = payload.pop("requests", None)
        stop_on_failure = payload.pop("stop_on_failure", False)
        deadline_s = payload.pop("deadline_s", None)
        request_id = payload.pop("request_id", None)
        unknown = sorted(payload)
        if unknown:
            raise ProtocolError(f"unknown 'batch' field(s) {unknown}")
        if not isinstance(raw_requests, (list, tuple)):
            raise ProtocolError("a 'batch' request needs a 'requests' list")
        if not isinstance(stop_on_failure, bool):
            raise ProtocolError("stop_on_failure must be a boolean")
        requests = []
        for position, entry in enumerate(raw_requests):
            if not isinstance(entry, Mapping):
                raise ProtocolError(f"batch request #{position} must be a JSON object")
            entry_op = entry.get("op")
            if entry_op == cls.op:
                raise ProtocolError("batch requests cannot nest")
            if entry_op == "shutdown":
                raise ProtocolError("shutdown cannot ride in a batch")
            try:
                requests.append(request_from_dict(entry))
            except ProtocolError as error:
                raise ProtocolError(f"batch request #{position}: {error}") from None
        try:
            return cls(
                requests=tuple(requests),
                stop_on_failure=stop_on_failure,
                deadline_s=deadline_s,
                request_id=request_id,
            )
        except ValueError as error:
            raise ProtocolError(f"bad 'batch' request: {error}") from None


Request = Union[
    CertifyRequest,
    SweepRequest,
    FormulaRequest,
    LowerBoundRequest,
    RadiusRequest,
    StatsRequest,
    HealthRequest,
    CancelRequest,
    BatchRequest,
]

_REQUEST_TYPES[BatchRequest.op] = BatchRequest


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyResponse:
    """The verdict on one :class:`CertifyRequest`.

    ``to_payload`` is *the* JSON verdict — ``repro.cli certify --json`` and
    the ``serve`` wire protocol both print exactly this dictionary, so the
    two surfaces cannot drift apart.
    """

    op = "certify"
    ok = True

    scheme: str
    registry_key: str
    graph: str
    vertices: int
    edges: int
    holds: bool
    accepted: Optional[bool]
    sound: Optional[bool]
    max_certificate_bits: int
    bound: str
    engine: str
    seed: int
    certificates: Optional[Dict[str, Dict[str, Any]]] = None
    engine_resolved: Optional[str] = None
    """Concrete engine the evaluation ran on — differs from ``engine``
    exactly when the request asked for ``"auto"``."""

    @property
    def verdict_ok(self) -> bool:
        """False exactly when a yes-instance's honest proof was rejected —
        the condition the CLI turns into a non-zero exit status."""
        return not (self.holds and self.accepted is False)

    def to_payload(self) -> Dict[str, Any]:
        """The canonical verdict dictionary (certificates only if requested)."""
        payload = {
            "scheme": self.scheme,
            "registry_key": self.registry_key,
            "graph": self.graph,
            "vertices": self.vertices,
            "edges": self.edges,
            "holds": self.holds,
            "accepted": self.accepted,
            "sound": self.sound,
            "max_certificate_bits": self.max_certificate_bits,
            "bound": self.bound,
            "engine": self.engine,
            "engine_resolved": self.engine_resolved,
            "seed": self.seed,
        }
        if self.certificates is not None:
            payload["certificates"] = dict(self.certificates)
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "ok": True, "result": self.to_payload()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CertifyResponse":
        result = dict(data.get("result") or {})
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(result) - known)
        if unknown:
            raise ProtocolError(f"unknown certify result field(s) {unknown}")
        try:
            return cls(**result)
        except TypeError as error:
            raise ProtocolError(f"bad certify response: {error}") from None


@dataclass(frozen=True)
class ResultResponse:
    """A success answer whose whole payload is one ``result`` dict."""

    op: ClassVar[str] = ""
    ok: ClassVar[bool] = True

    result: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, "ok": True, "result": dict(self.result)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return cls(result=dict(data.get("result") or {}))


class ArtifactResponse(ResultResponse):
    """The answer to an experiment op: its artifact payload.

    ``result`` is exactly what :func:`repro.experiments.write_artifact`
    would have written (spec, points, series, bound verdict, fitted
    exponent), so wire consumers — and the shard driver's merge — read the
    same schema as artifact files.
    """

    #: The payload flags that must all be true for a clean run.
    verdicts: ClassVar[Tuple[str, ...]] = ("all_ok",)

    @property
    def clean(self) -> bool:
        ok = all(bool(self.result.get(flag)) for flag in self.verdicts)
        bound = self.result.get("bound")
        if bound is not None:
            ok = ok and bool(bound.get("ok"))
        return ok

    @property
    def series(self) -> Dict[int, int]:
        return {int(n): bits for n, bits in (self.result.get("series") or {}).items()}


class SweepResponse(ArtifactResponse):
    """The artifact payload of one :class:`SweepRequest`."""

    op = "sweep"
    verdicts = ("all_accepted", "all_sound")


class FormulaResponse(ArtifactResponse):
    """The artifact payload of one formula series (kind ``formula``)."""

    op = "formula"
    verdicts = ("all_accepted", "all_sound")


class LowerBoundResponse(ArtifactResponse):
    """The artifact payload of one :class:`LowerBoundRequest`."""

    op = "lower-bound"


class RadiusResponse(ArtifactResponse):
    """The artifact payload of one :class:`RadiusRequest`."""

    op = "radius"


class StatsResponse(ResultResponse):
    """Service counters: requests served, errors, per-cache hit/miss/size."""

    op = "stats"


class HealthResponse(ResultResponse):
    """Liveness and load: workers, queue depth, in-flight gauge, uptime."""

    op = "health"


class CancelResponse(ResultResponse):
    """What a ``cancel`` op found: the id's state and whether it was hit.

    ``result`` carries ``request_id``, ``cancelled`` (did the cancel change
    anything) and ``state`` — ``"queued"`` (cancelled before it ran),
    ``"running"`` (scope signalled; cooperative handlers stop early),
    ``"finished"`` (already answered; response cached for replay) or
    ``"unknown"`` (never seen).
    """

    op = "cancel"


@dataclass(frozen=True)
class ErrorResponse:
    """A failure, as data: a machine-readable code plus the message.

    ``request_op`` names the request kind that failed (when known), so a
    batched caller can correlate errors with submissions.

    ``partial`` carries salvageable progress, when there is any: a
    ``timeout``/``cancelled`` answer for a sharded experiment includes the
    grid points that *did* finish (``{"points": [...]}``), so the shard
    driver can keep the completed prefix and re-dispatch only the remainder.
    The field is omitted from the wire form when empty, keeping existing
    error payloads byte-identical.
    """

    op = "error"
    ok = False

    code: str
    message: str
    request_op: Optional[str] = None
    partial: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(
                f"unknown error code {self.code!r}; use one of {ERROR_CODES}"
            )
        if self.partial is not None and not isinstance(self.partial, Mapping):
            raise ValueError(f"partial must be a mapping, got {self.partial!r}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "op": self.op,
            "ok": False,
            "code": self.code,
            "message": self.message,
            "request_op": self.request_op,
        }
        if self.partial is not None:
            data["partial"] = dict(self.partial)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorResponse":
        try:
            return cls(
                code=data["code"],
                message=data.get("message", ""),
                request_op=data.get("request_op"),
                partial=data.get("partial"),
            )
        except (KeyError, ValueError) as error:
            raise ProtocolError(f"bad error response: {error}") from None


_RESPONSE_TYPES: Dict[str, type] = {
    cls.op: cls
    for cls in (
        CertifyResponse,
        SweepResponse,
        FormulaResponse,
        LowerBoundResponse,
        RadiusResponse,
        StatsResponse,
        HealthResponse,
        CancelResponse,
        ErrorResponse,
    )
}


def response_from_dict(data: Mapping[str, Any]) -> "Response":
    """Re-hydrate any response by its ``op`` discriminator."""
    op = data.get("op")
    cls = _RESPONSE_TYPES.get(op)
    if cls is None:
        raise ProtocolError(
            f"unknown response op {op!r}; known ops: {', '.join(sorted(_RESPONSE_TYPES))}"
        )
    return cls.from_dict(data)


@dataclass(frozen=True)
class BatchResponse:
    """The per-member responses of one :class:`BatchRequest`, in order.

    The batch envelope itself is always ``ok``; failures live in the member
    responses (``skipped`` errors mark members cancelled by
    ``stop_on_failure``).
    """

    op = "batch"
    ok = True

    responses: Tuple["Response", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", tuple(self.responses))

    @property
    def all_ok(self) -> bool:
        return all(response.ok for response in self.responses)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "ok": True,
            "responses": [response.to_dict() for response in self.responses],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchResponse":
        raw = data.get("responses")
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError("bad batch response: 'responses' must be a list")
        return cls(responses=tuple(response_from_dict(entry) for entry in raw))


Response = Union[
    CertifyResponse,
    SweepResponse,
    FormulaResponse,
    LowerBoundResponse,
    RadiusResponse,
    StatsResponse,
    HealthResponse,
    CancelResponse,
    ErrorResponse,
    BatchResponse,
]

_RESPONSE_TYPES[BatchResponse.op] = BatchResponse
