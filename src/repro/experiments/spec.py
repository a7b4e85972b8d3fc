"""Declarative experiment descriptions: the spec layer of the pipeline.

An *experiment* is a reproducible measurement over a grid of sizes.  Every
kind of experiment shares the same backbone — a ``sizes`` grid, a sweep
``seed`` from which every grid point derives an independent per-point seed,
an optional ``shard`` selecting a subset of the grid, and a JSON
round-trippable description — and :class:`ExperimentSpec` is that backbone.
Concrete kinds register themselves under a ``kind`` string so artifacts can
be re-hydrated without knowing in advance what they hold:

* :class:`SweepSpec` (``kind="sweep"``) — a certificate-size sweep of one
  registered scheme over one graph family (the upper-bound series);
* :class:`~repro.experiments.lower_bound.LowerBoundSpec`
  (``kind="lower-bound"``) — a Section 7.1 reduction-framework search (the
  matching Ω(·) series);
* :class:`~repro.experiments.formula.FormulaSpec` (``kind="formula"``) — a
  certificate-size series of an ad-hoc MSO formula compiled on the fly
  (the operational form of Theorem 2.6);
* :class:`~repro.experiments.radius.RadiusSpec` (``kind="radius"``) — a
  radius-r verification series (the Appendix A.1 radius ablation);
* :class:`~repro.experiments.kernel.KernelSpec` (``kind="kernel"``) — a
  Section 6 k-reduced kernel-size series.

The service's wire ops reuse these kind strings: op ``X`` carries the
fields of kind ``X`` (see :mod:`repro.service.messages`).

Sharding: ``shard=(i, k)`` restricts execution to grid points
``i, i+k, i+2k, ...`` *without* changing their global indices or derived
seeds, so ``k`` machines each running one shard produce partial artifacts
that :func:`repro.experiments.artifacts.merge_artifacts` stitches into the
exact artifact of the unsharded run (modulo wall-clock timings).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.scheme import derive_trial_seed
from repro.engines import validate_engine
from repro.graphs.generators import GRAPH_FAMILIES
from repro.registry import REGISTRY, RegistryError, SchemeInfo

_MEASURES = ("full", "size")

#: Parameter values of this form are substituted per grid point: ``"$n"``
#: becomes the point's size, so e.g. ``spanning-tree-count`` can certify
#: "exactly n vertices" across a whole grid with one spec.
SIZE_TEMPLATE = "$n"


class ExperimentCancelled(RuntimeError):
    """A cooperative stop-check interrupted an experiment run.

    ``reason`` is machine-readable — ``"cancelled"`` or ``"timeout"`` — and
    maps one-to-one onto the service's wire error codes, so a cancelled
    sweep surfaces as structured data, not a traceback.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


def raise_if_stopped(should_stop: Optional[Any]) -> None:
    """Run a cooperative stop-check between units of experiment work.

    ``should_stop`` is a zero-argument callable returning a stop *reason*
    (a string) when the run should abort, or a falsy value to continue —
    the contract of :meth:`repro.service.core.CancelScope.check`.  A bare
    ``True`` is accepted and normalised to ``"cancelled"``.
    """
    if should_stop is None:
        return
    reason = should_stop()
    if reason:
        raise ExperimentCancelled(reason if isinstance(reason, str) else "cancelled")


class ExperimentSpec:
    """Shared backbone of all experiment kinds (grid, seeds, shard, JSON).

    Subclasses are frozen dataclasses that set a class-level ``kind`` string
    and a ``_REQUIRED`` tuple of field names; everything else — per-point
    seed derivation, shard index arithmetic, ``to_dict``/``from_dict`` with
    kind dispatch — is inherited.  Each subclass must declare at least the
    fields ``sizes``, ``seed``, ``shard`` and ``name``.
    """

    kind: ClassVar[str] = ""
    _REQUIRED: ClassVar[Tuple[str, ...]] = ()
    _KINDS: ClassVar[Dict[str, type]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind", "")
        if kind:
            existing = ExperimentSpec._KINDS.get(kind)
            if existing is not None and existing is not cls:
                raise RegistryError(f"experiment kind {kind!r} is already registered")
            ExperimentSpec._KINDS[kind] = cls

    # -- per-point derivation ----------------------------------------------

    def point_seed(self, index: int) -> int:
        """An independent seed for grid point ``index``.

        Derived arithmetically from the experiment seed (same mixing as the
        per-trial adversarial seeds), so any sub-range of the grid — a
        shard, a resumed run — reproduces the full run's instances without
        executing the preceding points.
        """
        return derive_trial_seed(self.seed, index)

    # -- sharding -----------------------------------------------------------

    def shard_indices(self) -> Tuple[int, ...]:
        """The *global* grid indices this spec executes.

        Without a shard that is the whole grid; shard ``(i, k)`` selects the
        strided subset ``i, i+k, i+2k, ...`` (striding balances work across
        shards when the grid is sorted by size).  Indices stay global so
        per-point seeds are identical to the unsharded run's.

        The *offset* form with ``i >= k`` is deliberately legal: splitting
        the remainder of shard ``(s, d)`` after ``m`` completed points into
        ``p`` pieces yields the shards ``(s + (m + j)*d, d*p)`` for
        ``j < p`` — each again a plain ``(i, k)`` pair, so sub-shards ride
        the same wire shape and merge rules as first-class shards.
        """
        total = len(self.sizes)
        if self.shard is None:
            return tuple(range(total))
        index, count = self.shard
        return tuple(range(index, total, count))

    def unsharded(self) -> "ExperimentSpec":
        """The same experiment with the shard restriction removed."""
        return replace(self, shard=None) if self.shard is not None else self

    def _validate_grid(self) -> None:
        if not self.sizes:
            raise RegistryError("an experiment needs at least one size")
        if any(n <= 0 for n in self.sizes):
            raise RegistryError(f"sizes must be positive, got {self.sizes}")
        if self.shard is not None:
            index, count = self.shard
            if count < 1 or index < 0:
                raise RegistryError(
                    f"shard must be (i, k) with i >= 0 and k >= 1, got {self.shard}"
                )

    @staticmethod
    def _normalize_shard(shard: Any) -> Optional[Tuple[int, int]]:
        if shard is None:
            return None
        index, count = shard
        return (int(index), int(count))

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Re-hydrate a spec; on the base class, dispatch by ``kind``.

        Dicts without a ``kind`` entry (schema-1 artifacts) default to
        ``"sweep"``.
        """
        payload = dict(data)
        kind = payload.pop("kind", None)
        if cls is ExperimentSpec:
            target = cls._KINDS.get(kind or "sweep")
            if target is None:
                raise RegistryError(
                    f"unknown experiment kind {kind!r}; known kinds: {sorted(cls._KINDS)}"
                )
            return target.from_dict({**payload, "kind": target.kind})
        if kind is not None and kind != cls.kind:
            raise RegistryError(f"expected a {cls.kind!r} spec, got kind {kind!r}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise RegistryError(f"unknown {cls.__name__} field(s) {unknown}")
        missing = sorted(name for name in cls._REQUIRED if name not in payload)
        if missing:
            raise RegistryError(
                f"a {cls.__name__} needs at least {', '.join(cls._REQUIRED)}"
            )
        return cls(**payload)

    @property
    def label(self) -> str:
        return self.name or self._default_label()

    def _default_label(self) -> str:  # pragma: no cover - subclasses override
        return self.kind


@dataclass(frozen=True)
class SweepSpec(ExperimentSpec):
    """One sweep: a scheme, a graph-family grid, and how to run it.

    ``sizes`` is the grid of family sizes (one instance per entry; repeats
    are allowed — each grid point draws its own derived seed, so repeated
    sizes give independent trials of a random family).  ``params`` values
    may be the literal string ``"$n"``, replaced by the point's size before
    validation against the registry's parameter spec.

    ``measure`` selects what each point runs: ``"full"`` (default) is the
    complete harness — honest proof plus distributed verification on
    yes-instances, scheduled adversarial trials on no-instances — while
    ``"size"`` only runs the honest prover and measures certificate bits
    (the paper's size series; usable on instances too large for the exact
    ``holds`` decision procedures, since a point counts as a yes-instance
    exactly when the prover succeeds).

    ``id_exponent`` overrides the identifier range ``[1, n^exponent]`` the
    evaluation draws from (the paper's default is 3) — the knob of the E15
    identifier ablation.  ``shard`` restricts execution to a strided subset
    of the grid (see :meth:`ExperimentSpec.shard_indices`).
    """

    kind: ClassVar[str] = "sweep"
    _REQUIRED: ClassVar[Tuple[str, ...]] = ("scheme", "family", "sizes")

    scheme: str
    family: str
    sizes: Tuple[int, ...]
    params: Mapping[str, Any] = field(default_factory=dict)
    trials: int = 20
    seed: int = 0
    engine: str = "auto"
    processes: int = 1
    check_bound: bool = True
    measure: str = "full"
    id_exponent: Optional[int] = None
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "shard", self._normalize_shard(self.shard))

    # -- validation ---------------------------------------------------------

    @property
    def info(self) -> SchemeInfo:
        return REGISTRY.get(self.scheme)

    def validate(self) -> "SweepSpec":
        """Check the whole spec against the registry; returns self."""
        info = self.info  # raises RegistryError on unknown schemes
        if self.family not in GRAPH_FAMILIES:
            raise RegistryError(
                f"unknown graph family {self.family!r}; choose from {sorted(GRAPH_FAMILIES)}"
            )
        self._validate_grid()
        if self.trials < 0:
            raise RegistryError("trials must be non-negative")
        try:
            validate_engine(self.engine, context="sweep specs")
        except ValueError as exc:
            raise RegistryError(str(exc)) from None
        if self.measure not in _MEASURES:
            raise RegistryError(f"unknown measure {self.measure!r}; use one of {_MEASURES}")
        if self.processes < 1:
            raise RegistryError("processes must be at least 1")
        if self.id_exponent is not None and self.id_exponent < 1:
            raise RegistryError("id_exponent must be at least 1")
        for n in self.sizes:
            info.resolve_params(self._substituted(n))  # raises on bad params
        return self

    # -- per-point derivation ----------------------------------------------

    def _substituted(self, n: int) -> Dict[str, Any]:
        return {
            key: (n if value == SIZE_TEMPLATE else value)
            for key, value in self.params.items()
        }

    def resolved_params(self, n: int) -> Dict[str, Any]:
        """The validated, typed scheme parameters of the point at size ``n``."""
        return self.info.resolve_params(self._substituted(n))

    def graph_spec(self, index: int) -> str:
        return f"{self.family}:{self.sizes[index]}"

    def subset(self, indices: Sequence[int]) -> "SweepSpec":
        """The sub-sweep covering only the given grid points.

        Note the subset's points get new *local* indices; to reproduce a
        single point of the full grid bit-for-bit use
        :func:`repro.experiments.runner.run_point` with the original spec,
        or a ``shard`` (which keeps global indices).
        """
        return replace(self, sizes=tuple(self.sizes[i] for i in indices), shard=None)

    def _default_label(self) -> str:
        return f"{self.scheme}-{self.family}"
