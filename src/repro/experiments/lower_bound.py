"""Declarative lower-bound searches: the Ω(·) side of the pipeline.

A :class:`LowerBoundSpec` is to the Section 7 reduction framework what
:class:`~repro.experiments.spec.SweepSpec` is to the scheme registry: it
names a construction from
:data:`repro.lower_bounds.catalog.LOWER_BOUND_CONSTRUCTIONS`, a grid of
construction sizes, and which checks to run per point —

* the **bound series**: the Ω(ℓ/r) certificate-size bound Proposition 7.2
  implies at each grid size (always computed; checked against the
  construction's expected asymptotic shape and fitted, exactly like a
  sweep's measured series);
* the **dichotomy check**: build the gadget ``G(s_A, s_B)`` for an equal and
  a one-bit-different string pair (drawn from the point's derived seed) and
  verify that the certified property holds exactly on the equal pair — the
  heart of the reduction;
* the **protocol simulation**: run the Alice/Bob simulation of
  :meth:`~repro.lower_bounds.framework.ReductionFramework.simulate_protocol`
  on the gadget with the completeness/soundness probe schemes (tiny
  instances only — the simulation is doubly exponential by design).

Like sweeps, lower-bound runs shard (``shard=(i, k)`` with global indices
and seeds) and write the same artifact envelope, so ``merge_artifacts`` and
the ``results`` aggregation treat both kinds uniformly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple

from repro.experiments.artifacts import (
    ARTIFACT_SCHEMA,
    BoundCheck,
    ExperimentResult,
)
from repro.engines import PROTOCOL_ENGINES, resolve_engine, validate_engine
from repro.experiments.bounds import FittedBound, fit_series
from repro.experiments.spec import ExperimentSpec, raise_if_stopped
from repro.lower_bounds.catalog import (
    LowerBoundConstruction,
    NeverAcceptScheme,
    ProtocolProbeScheme,
    get_construction,
)
from repro.network.ids import assign_identifiers
from repro.registry import RegistryError


@dataclass(frozen=True)
class LowerBoundSpec(ExperimentSpec):
    """One declarative lower-bound search over a construction-size grid.

    ``sizes`` is the construction's own grid coordinate (string length ℓ for
    ``automorphism``, matching size n for ``treedepth``).  The per-point
    derived seed drives the drawn string pairs, so any sub-range of the grid
    reproduces the full run's instances — the same contract as sweeps.
    """

    kind: ClassVar[str] = "lower-bound"
    _REQUIRED: ClassVar[Tuple[str, ...]] = ("construction", "sizes")

    construction: str
    sizes: Tuple[int, ...]
    check_dichotomy: bool = True
    simulate: bool = False
    simulate_bits: int = 1
    max_side_bits: int = 12
    engine: str = "auto"
    """How the protocol-simulation probes sweep assignments: ``"compiled"``
    reloads full assignments, ``"delta"`` streams Gray-coded single-vertex
    changes through a persistent session, ``"vector"`` sweeps bit-parallel
    lane blocks (same verdicts, less work).  ``"auto"`` (the default) lets
    the planner pick per point from the simulation's enumeration shape."""
    check_bound: bool = True
    seed: int = 0
    shard: Optional[Tuple[int, int]] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "shard", self._normalize_shard(self.shard))

    @property
    def info(self) -> LowerBoundConstruction:
        return get_construction(self.construction)

    def validate(self) -> "LowerBoundSpec":
        info = self.info  # raises RegistryError on unknown constructions
        self._validate_grid()
        if self.simulate_bits < 1:
            raise RegistryError("simulate_bits must be at least 1")
        if self.max_side_bits < 1:
            raise RegistryError("max_side_bits must be at least 1")
        try:
            validate_engine(
                self.engine,
                allowed=PROTOCOL_ENGINES,
                context="lower-bound specs",
            )
        except ValueError as exc:
            raise RegistryError(str(exc)) from None
        needs_instances = self.check_dichotomy or self.simulate
        if needs_instances and not info.checkable:
            raise RegistryError(
                f"construction {self.construction!r} is closed-form only; "
                "run it with check_dichotomy=False and simulate=False"
            )
        if self.simulate and info.framework is None:
            raise RegistryError(
                f"construction {self.construction!r} has no framework to simulate"
            )
        if needs_instances:
            for n in self.sizes:
                if info.capacity(n) < 1:
                    raise RegistryError(
                        f"construction {self.construction!r} cannot encode a single "
                        f"bit at size {n}; start the grid higher"
                    )
        return self

    def _default_label(self) -> str:
        # Bare construction key: the CLI's default filename already carries
        # the lb_ prefix, and the results table has a kind column.
        return self.construction


@dataclass(frozen=True)
class LowerBoundPoint:
    """The measured outcome of one grid point of a lower-bound search."""

    index: int
    size: int
    """The construction's grid coordinate (ℓ or matching size)."""
    ell: int
    """Bits the injections encode at this size."""
    r: int
    """|V_α ∪ V_β| — certificates the Alice/Bob protocol reads."""
    bound_bits: float
    """The Ω(ℓ/r) bound of Proposition 7.2, in bits."""
    vertices: Optional[int]
    """Vertex count of the built yes-instance (None when not built)."""
    seed: int
    dichotomy_ok: Optional[bool]
    """Property holds on the equal pair and fails on the different pair."""
    protocol_ok: Optional[bool]
    """Alice/Bob simulation accepted the probe and rejected its control."""
    elapsed_s: float
    engine_resolved: Optional[str] = None
    """Concrete engine the protocol simulation ran on (None when the point
    did not simulate)."""

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LowerBoundPoint":
        return cls(**dict(data))


@dataclass(frozen=True)
class LowerBoundResult(ExperimentResult):
    """Everything :func:`run_lower_bound` produces."""

    kind: ClassVar[str] = "lower-bound"

    spec: LowerBoundSpec
    points: Tuple[LowerBoundPoint, ...]
    bound: Optional[BoundCheck] = None
    fit: Optional[FittedBound] = None

    @property
    def series(self) -> Dict[int, float]:
        """The ``size → Ω-bound bits`` series of the search."""
        return {point.size: point.bound_bits for point in self.points}

    @property
    def all_ok(self) -> bool:
        """No dichotomy or protocol check failed (vacuously true if skipped)."""
        return all(
            point.dichotomy_ok is not False and point.protocol_ok is not False
            for point in self.points
        )

    @classmethod
    def merged_from_points(
        cls, spec: LowerBoundSpec, points: Tuple[LowerBoundPoint, ...]
    ) -> "LowerBoundResult":
        result = cls(spec=spec, points=points)
        bound = check_lower_bound_series(spec, result.series) if spec.check_bound else None
        return replace(result, bound=bound, fit=fit_series(result.series))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ARTIFACT_SCHEMA,
            "kind": self.kind,
            "spec": self.spec.to_dict(),
            "points": [point.to_dict() for point in self.points],
            "series": {str(size): bits for size, bits in sorted(self.series.items())},
            "all_ok": self.all_ok,
            "bound": self.bound.to_dict() if self.bound is not None else None,
            "fit": self.fit.to_dict() if self.fit is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LowerBoundResult":
        bound = data.get("bound")
        fit = data.get("fit")
        return cls(
            spec=LowerBoundSpec.from_dict(data["spec"]),
            points=tuple(LowerBoundPoint.from_dict(p) for p in data["points"]),
            bound=BoundCheck.from_dict(bound) if bound is not None else None,
            fit=FittedBound.from_dict(fit) if fit is not None else None,
        )


def check_lower_bound_series(
    spec: LowerBoundSpec, series: Mapping[int, float]
) -> BoundCheck:
    """Check the Ω-bound series against the construction's expected shape.

    Same constant-band test as the sweep-side bound check: the series must
    track the envelope within the registered slack — a lower-bound series
    that flattens out (or blows up) relative to its Ω(f) shape fails.
    """
    return BoundCheck.from_check(*spec.info.bound.check_series(series, {}))


def run_lower_bound_point(spec: LowerBoundSpec, index: int) -> LowerBoundPoint:
    """Run one grid point of a lower-bound search (reproducible in isolation)."""
    info = spec.info
    size = spec.sizes[index]
    point_seed = spec.point_seed(index)
    rng = random.Random(point_seed)
    started = time.perf_counter()

    ell = info.capacity(size)
    r = info.spread(size)
    vertices: Optional[int] = None
    dichotomy_ok: Optional[bool] = None
    protocol_ok: Optional[bool] = None
    engine_resolved: Optional[str] = None

    needs_pairs = spec.check_dichotomy or spec.simulate
    if needs_pairs and info.checkable:
        equal_pair = info.string_pair(size, rng, True)
        different_pair = info.string_pair(size, rng, False)
        if spec.check_dichotomy:
            yes_instance = info.build_instance(size, *equal_pair)
            no_instance = info.build_instance(size, *different_pair)
            vertices = yes_instance.number_of_nodes()
            dichotomy_ok = bool(
                info.has_property(yes_instance) and not info.has_property(no_instance)
            )
        if spec.simulate:
            framework = info.framework(size)
            # The framework graph's vertex set is string-independent (the
            # injections only toggle edges inside the fixed private parts),
            # so one identifier assignment serves both probes.
            graph = framework.build_graph(*equal_pair)
            ids = assign_identifiers(graph, sequential=True)
            # Resolve "auto" once per point through the framework's own
            # workload descriptor and pin both probes to the outcome, so the
            # point records exactly the engine that ran.
            engine_resolved = resolve_engine(
                spec.engine,
                framework.protocol_workload(*equal_pair, spec.simulate_bits),
            )
            try:
                probe_accepted = framework.simulate_protocol(
                    ProtocolProbeScheme(),
                    *equal_pair,
                    certificate_bits_per_vertex=spec.simulate_bits,
                    ids=ids,
                    max_side_bits=spec.max_side_bits,
                    engine=engine_resolved,
                )
                control_rejected = not framework.simulate_protocol(
                    NeverAcceptScheme(),
                    *equal_pair,
                    certificate_bits_per_vertex=spec.simulate_bits,
                    ids=ids,
                    max_side_bits=spec.max_side_bits,
                    engine=engine_resolved,
                )
                protocol_ok = bool(probe_accepted and control_rejected)
            except ValueError:
                # The simulation is doubly exponential by design; grid
                # points beyond max_side_bits are skipped (None), not failed
                # — the bound series and dichotomy still cover them.
                protocol_ok = None
                engine_resolved = None

    return LowerBoundPoint(
        index=index,
        size=size,
        ell=ell,
        r=r,
        bound_bits=float(info.bound_bits(size)),
        vertices=vertices,
        seed=point_seed,
        dichotomy_ok=dichotomy_ok,
        protocol_ok=protocol_ok,
        elapsed_s=time.perf_counter() - started,
        engine_resolved=engine_resolved,
    )


def run_lower_bound(
    spec: LowerBoundSpec,
    shard: Optional[Tuple[int, int]] = None,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
    on_point: Optional[Callable[[LowerBoundPoint], None]] = None,
) -> LowerBoundResult:
    """Execute a lower-bound search (or one shard of it).

    ``shard`` overrides ``spec.shard``; the returned result's spec records
    the shard actually run, so partial artifacts are self-describing and
    :func:`~repro.experiments.artifacts.merge_artifacts` can stitch them.

    ``should_stop`` is the same cooperative stop-check as
    :func:`~repro.experiments.runner.run_sweep`'s, polled between grid
    points; it raises :class:`~repro.experiments.spec.ExperimentCancelled`.
    """
    if shard is not None:
        spec = replace(spec, shard=shard)
    spec.validate()
    points = []
    for index in spec.shard_indices():
        raise_if_stopped(should_stop)
        points.append(run_lower_bound_point(spec, index))
        if on_point is not None:
            on_point(points[-1])
    return LowerBoundResult.merged_from_points(spec, tuple(points))
