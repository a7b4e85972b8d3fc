"""The certification-scheme interface and the evaluation harness.

A :class:`CertificationScheme` bundles the two halves of a local
certification (Section 3.3):

* ``prove(graph, ids)`` — the honest prover: on a yes-instance it returns a
  certificate assignment that every node will accept; on a no-instance it
  raises :class:`NotAYesInstance` (there is nothing an honest prover can do);
* ``verify(view)`` — the verification algorithm, a pure function of a
  radius-1 :class:`~repro.network.views.LocalView`.

The harness functions at the bottom of the module check completeness and
(empirically or exhaustively) soundness of a scheme on concrete instances and
measure real certificate sizes; they are what the tests and the benchmark
suite call.

Every harness function accepts the full engine vocabulary of
:data:`repro.engines.VALID_ENGINES` and returns bit-identical verdicts on
all of them:

* ``"legacy"``   — the original per-assignment view-building path (no
  topology reuse, no caches): the benchmark baseline and the reference
  semantics for equivalence tests;
* ``"compiled"`` — the compile-once engine of :mod:`repro.network.compiled`:
  certificate bytes swapped into reusable views, early exit within and
  across assignments;
* ``"delta"``    — a persistent :class:`~repro.network.compiled.DeltaSession`
  re-verifying only each changed vertex's closed neighbourhood per
  single-vertex delta;
* ``"vector"``   — :class:`~repro.network.vector.VectorNetwork` evaluating a
  whole block of assignments per pass, one bit-parallel lane each;
* ``"auto"``     — the default: the workload-aware planner of
  :mod:`repro.planner` picks from a fixed cost model once the workload's
  shape (single-shot / batch / sparse-diff / enumeration) is known, so the
  same instance routes to the same engine on every host.

Adversarial trials derive an independent seed per trial index
(:func:`derive_trial_seed`), so any sub-range of a sweep can be reproduced
or resumed without replaying the preceding trials, and all engines see
byte-identical adversarial assignments.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.cache import (
    cached_compiled_network,
    cached_evaluation_identifiers,
    cached_holds,
    cached_identifiers,
    graph_fingerprint,
)
from repro.network.adversary import (
    corrupt_assignment,
    corruption_deltas,
    exhaustive_assignments,
    exhaustive_deltas,
    initial_exhaustive_assignment,
    random_assignment,
)
from repro.engines import VALID_ENGINES, resolve_engine, validate_engine
from repro.planner import Workload
from repro.network.compiled import CompiledNetwork
from repro.network.ids import IdentifierAssignment, assign_identifiers
from repro.network.simulator import NetworkSimulator
from repro.network.vector import VectorNetwork
from repro.network.views import LocalView

Vertex = Hashable
Certificates = Dict[Vertex, bytes]

#: Certificate byte-lengths an adversarial trial draws from (legacy choice set).
ADVERSARIAL_CERTIFICATE_BYTES: Tuple[int, ...] = (0, 1, 2, 4, 8)


class NotAYesInstance(ValueError):
    """Raised by ``prove`` when the graph does not satisfy the property."""


class CertificationScheme(ABC):
    """A local certification: an honest prover plus a radius-1 verifier."""

    #: Human-readable name used in reports and benchmark output.
    name: str = "unnamed-scheme"

    #: Whether ``holds`` is a pure function of the labelled graph structure
    #: (vertex + edge sets).  Every scheme of the paper is; schemes wrapping
    #: arbitrary callables that may read graph/node/edge attributes (e.g.
    #: :class:`UniversalScheme`) set this to False to opt out of the
    #: structural ``holds`` cache in :func:`evaluate_scheme`.
    cacheable_holds: bool = True

    @abstractmethod
    def holds(self, graph: nx.Graph) -> bool:
        """Ground truth: does the graph satisfy the certified property?

        This is the *centralized* definition of the property, used by tests
        and benchmarks to classify instances; the distributed verifier never
        calls it.
        """

    @abstractmethod
    def prove(self, graph: nx.Graph, ids: IdentifierAssignment) -> Certificates:
        """Honest certificate assignment for a yes-instance."""

    @abstractmethod
    def verify(self, view: LocalView) -> bool:
        """The local verification algorithm run at every vertex."""

    # Convenience entry points ------------------------------------------------

    def certify(self, graph: nx.Graph, seed: int | None = 0) -> "SchemeEvaluation":
        """Prove and verify on ``graph`` with a fresh identifier assignment."""
        return evaluate_scheme(self, graph, seed=seed)

    def max_certificate_bits(
        self,
        graph: nx.Graph,
        seed: int | None = 0,
        ids: IdentifierAssignment | None = None,
    ) -> int:
        """Size in bits of the largest honest certificate on ``graph``.

        ``ids`` lets callers reuse a (possibly cached) identifier assignment
        instead of drawing a fresh one from ``seed``.
        """
        if ids is None:
            ids = assign_identifiers(graph, seed=seed)
        certificates = self.prove(graph, ids)
        return max((len(c) * 8 for c in certificates.values()), default=0)


@dataclass(frozen=True, slots=True)
class SchemeEvaluation:
    """Outcome of evaluating a scheme on one instance."""

    scheme_name: str
    n: int
    holds: bool
    completeness_ok: Optional[bool]
    """True when the honest proof was accepted (None on no-instances)."""
    soundness_ok: Optional[bool]
    """True when every adversarial assignment tried was rejected
    (None on yes-instances)."""
    max_certificate_bits: int
    rejecting_vertices: tuple = ()
    engine_resolved: Optional[str] = None
    """The concrete engine that actually ran (differs from the requested
    engine only when the caller asked for ``"auto"``)."""


# ---------------------------------------------------------------------------
# Deterministic adversarial schedules
# ---------------------------------------------------------------------------

_MIX_MULT = 0x9E3779B97F4A7C15  # golden-ratio increment, SplitMix64 style
_MIX_TRIAL = 0xBF58476D1CE4E5B9
_MIX_OFFSET = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def derive_trial_seed(seed: int, trial: int) -> int:
    """An independent 64-bit seed for trial ``trial`` of a sweep seeded with
    ``seed``.  Pure arithmetic on the pair, so trial ``k`` can be reproduced
    without generating trials ``0..k-1`` (resumable sweeps)."""
    return (seed * _MIX_MULT + trial * _MIX_TRIAL + _MIX_OFFSET) & _MASK64


def adversarial_schedule(
    seed: int,
    trials: int,
    certificate_bytes: Optional[Sequence[int]] = None,
    start: int = 0,
) -> List[Tuple[int, int]]:
    """The deterministic ``(trial_seed, certificate_bytes)`` schedule of an
    adversarial sweep.

    With ``certificate_bytes`` the byte-length of each trial is taken from
    the given sequence (an explicit schedule); otherwise each trial draws its
    length from its own derived seed.  ``start`` offsets the trial indices so
    a sweep can be resumed mid-way and still produce the same assignments.
    """
    schedule: List[Tuple[int, int]] = []
    for offset in range(trials):
        trial = start + offset
        trial_seed = derive_trial_seed(seed, trial)
        if certificate_bytes is not None:
            # Index by absolute trial, not loop offset: a resumed sweep
            # (start > 0) must replay the exact sizes of the full sweep.
            size = certificate_bytes[trial % len(certificate_bytes)]
        else:
            size = random.Random(trial_seed).choice(ADVERSARIAL_CERTIFICATE_BYTES)
        schedule.append((trial_seed, size))
    return schedule


def _adversarial_assignments(vertices, schedule):
    """Generate the adversarial assignment of each scheduled trial lazily."""
    for trial_seed, size in schedule:
        # A fresh generator per trial: reproducible in isolation.
        rng = random.Random(trial_seed)
        rng.choice(ADVERSARIAL_CERTIFICATE_BYTES)  # keep stream aligned with schedule
        yield random_assignment(vertices, size, seed=rng)


# ---------------------------------------------------------------------------
# Evaluation harness
# ---------------------------------------------------------------------------


def evaluate_scheme(
    scheme: CertificationScheme,
    graph: nx.Graph,
    seed: int | None = 0,
    adversarial_trials: int = 20,
    trial_schedule: Optional[Sequence[int]] = None,
    trial_offset: int = 0,
    engine: str = "auto",
    id_exponent: Optional[int] = None,
) -> SchemeEvaluation:
    """Run a scheme on one instance.

    On a yes-instance: run the honest prover and report completeness plus the
    certificate size.  On a no-instance: try ``adversarial_trials`` random
    certificate assignments and report whether all were rejected (a necessary
    condition for soundness).  ``trial_schedule`` optionally fixes the
    certificate byte-length of each trial explicitly, and ``trial_offset``
    resumes a sweep at a later trial index; all engines replay identical
    assignments for identical parameters.  ``id_exponent`` overrides the
    identifier range ``[1, n^exponent]`` (default 3, the paper's choice) —
    the knob of the identifier-range ablation.

    ``engine`` selects how assignments are verified (see the module
    docstring): adversarial trials stream through a persistent
    :class:`~repro.network.compiled.DeltaSession` as per-vertex diffs on
    ``"delta"``, and are packed one-lane-per-trial into bit-parallel blocks
    on ``"vector"``.  The default ``"auto"`` defers the pick to the
    workload-aware planner (:mod:`repro.planner`) once the instance's shape
    is known; the concrete engine that ran is reported as
    ``engine_resolved``.
    """
    validate_engine(engine, context="evaluate_scheme")
    use_compiled = engine != "legacy"

    # Identifier derivation is unchanged from the original harness (the
    # certificate sizes the paper measures depend on the drawn identifiers),
    # but deterministic seeds hit the cache on repeated evaluations.
    if use_compiled and isinstance(seed, int):
        fingerprint = graph_fingerprint(graph)
        ids = (
            cached_evaluation_identifiers(graph, seed, fingerprint)
            if id_exponent is None
            else cached_identifiers(graph, seed, exponent=id_exponent)
        )
        network = cached_compiled_network(graph, ids, fingerprint)
        holds = (
            cached_holds(scheme, graph, fingerprint)
            if scheme.cacheable_holds
            else scheme.holds(graph)
        )
    else:
        ids = assign_identifiers(
            graph,
            exponent=3 if id_exponent is None else id_exponent,
            seed=random.Random(seed),
        )
        network = (
            CompiledNetwork(graph, identifiers=ids)
            if use_compiled
            else NetworkSimulator(graph, identifiers=ids)
        )
        holds = scheme.holds(graph)

    # A yes-instance needs exactly one honest run, so the enumeration-shaped
    # engines (delta, vector) share the compiled single-assignment path.
    run = network.run if use_compiled else network.run_legacy
    max_degree = max((d for _, d in graph.degree()), default=0)

    if holds:
        engine_resolved = resolve_engine(
            engine, Workload.single_shot(graph.number_of_nodes(), max_degree)
        )
        certificates = scheme.prove(graph, ids)
        result = run(scheme.verify, certificates)
        return SchemeEvaluation(
            scheme_name=scheme.name,
            n=graph.number_of_nodes(),
            holds=True,
            completeness_ok=result.accepted,
            soundness_ok=None,
            max_certificate_bits=result.max_certificate_bits,
            rejecting_vertices=result.rejecting_vertices,
            engine_resolved=engine_resolved,
        )

    # No-instance: the prover has no honest certificate; check that the
    # scheduled adversarial assignments are all rejected.
    vertices = sorted(graph.nodes(), key=repr)
    schedule_seed = seed if isinstance(seed, int) else random.Random(seed).getrandbits(63)
    schedule = adversarial_schedule(
        schedule_seed,
        len(trial_schedule) if trial_schedule is not None else adversarial_trials,
        certificate_bytes=trial_schedule,
        start=trial_offset,
    )
    engine = resolve_engine(
        engine, Workload.batch(len(schedule), graph.number_of_nodes(), max_degree)
    )
    all_rejected = True
    max_bits = 0
    if engine == "compiled":
        # Early exit twice over: the first accepted assignment settles the
        # sweep, and within each assignment the first rejecting vertex
        # discards it.  Every vertex of a scheduled assignment carries
        # exactly `size` bytes, so the reported size needs no measuring.
        for (_, size), assignment in zip(
            schedule, _adversarial_assignments(vertices, schedule)
        ):
            max_bits = max(max_bits, size * 8)
            if network.accepts(scheme.verify, assignment):
                all_rejected = False
                break
    elif engine == "delta":
        # One persistent session across the whole sweep: each trial applies
        # only the per-vertex differences from the previous trial's
        # assignment, so acceptance is an O(1) counter read after
        # neighbourhood-local updates (PR 5's carryover: random-trial
        # sweeps now ride the delta engine too).
        session = None
        current: Dict[Vertex, bytes] = {}
        for (_, size), assignment in zip(
            schedule, _adversarial_assignments(vertices, schedule)
        ):
            max_bits = max(max_bits, size * 8)
            if session is None:
                session = network.delta_session(scheme.verify, assignment)
                current = dict(assignment)
            else:
                for vertex in vertices:
                    certificate = assignment[vertex]
                    if current[vertex] != certificate:
                        session.apply(vertex, certificate)
                        current[vertex] = certificate
            if session.accepted:
                all_rejected = False
                break
    elif engine == "vector":
        # Pack the trials one-lane-per-assignment and settle each block in
        # one bit-parallel pass; the first accepted lane ends the sweep with
        # exactly the compiled engine's size accounting (sizes up to and
        # including the accepted trial).
        vector = VectorNetwork(network)
        trial_assignments = _adversarial_assignments(vertices, schedule)
        position = 0
        while position < len(schedule):
            chunk = schedule[position : position + vector.block_lanes]
            block = vector.run_block(
                scheme.verify, [next(trial_assignments) for _ in chunk]
            )
            lane = block.first_accepted_lane()
            counted = chunk if lane is None else chunk[: lane + 1]
            for _, size in counted:
                max_bits = max(max_bits, size * 8)
            if lane is not None:
                all_rejected = False
                break
            position += len(chunk)
    else:
        for assignment in _adversarial_assignments(vertices, schedule):
            outcome = run(scheme.verify, assignment)
            max_bits = max(max_bits, outcome.max_certificate_bits)
            if outcome.accepted:
                all_rejected = False
                break
    return SchemeEvaluation(
        scheme_name=scheme.name,
        n=graph.number_of_nodes(),
        holds=False,
        completeness_ok=None,
        soundness_ok=all_rejected,
        max_certificate_bits=max_bits,
        engine_resolved=engine,
    )


def soundness_under_corruption(
    scheme: CertificationScheme,
    graph: nx.Graph,
    seed: int | None = 0,
    trials: int = 10,
    engine: str = "auto",
) -> bool:
    """On a *yes*-instance, check that corrupted honest certificates are not
    silently accepted as long as the corruption changes the view of some node
    in a way that matters.

    This is a smoke test rather than a theorem: some corruptions are harmless
    (e.g. flipping a bit that the verifier never reads), so the function only
    reports whether *any* corrupted assignment was rejected — a scheme whose
    verifier ignores certificates entirely would fail it.

    ``engine="delta"`` runs the sweep on a persistent
    :class:`~repro.network.compiled.DeltaSession` over the honest baseline:
    each trial applies only its :func:`corruption_deltas` (one or two
    vertices), reads the O(1) acceptance counter and reverts — re-verifying
    the corrupted vertices' neighbourhoods instead of the whole graph.
    ``engine="vector"`` packs the corrupted assignments one lane each and
    settles the whole sweep in block passes.  All engines replay
    byte-identical trials for identical seeds.  The default ``"auto"``
    resolves through the planner — corruption sweeps are sparse-diff shaped,
    so it routes to the delta engine on any non-trivial graph.
    """
    validate_engine(engine, context="soundness_under_corruption")
    engine = resolve_engine(
        engine,
        Workload.sparse_diff(
            trials,
            graph.number_of_nodes(),
            max((d for _, d in graph.degree()), default=0),
        ),
    )
    rng = random.Random(seed)
    ids = assign_identifiers(graph, seed=rng)
    if engine != "legacy":
        # Only deterministic seeds produce reusable identifier maps; caching
        # a seed=None topology would just evict useful entries.
        network = (
            cached_compiled_network(graph, ids)
            if isinstance(seed, int)
            else CompiledNetwork(graph, identifiers=ids)
        )
    else:
        network = NetworkSimulator(graph, identifiers=ids)
    certificates = scheme.prove(graph, ids)

    if engine == "delta":
        honest = {v: bytes(c) for v, c in certificates.items()}
        session = network.delta_session(scheme.verify, honest)
        for _ in range(trials):
            kind = rng.choice(["bitflip", "swap", "truncate", "zero"])
            deltas = [
                (vertex, certificate)
                for vertex, certificate in corruption_deltas(honest, seed=rng, kind=kind)
                if certificate != honest[vertex]
            ]
            if not deltas:
                continue  # the trial left the assignment unchanged
            accepted = True
            for vertex, certificate in deltas:
                accepted = session.apply(vertex, certificate)
            # Revert to the honest baseline (neighbourhood-local again); the
            # memoised baseline verdicts make this a handful of dict lookups.
            for vertex, _ in deltas:
                session.apply(vertex, honest[vertex])
            if not accepted:
                return True
        return False

    def corrupted_assignments():
        for _ in range(trials):
            kind = rng.choice(["bitflip", "swap", "truncate", "zero"])
            corrupted = corrupt_assignment(certificates, seed=rng, kind=kind)
            if corrupted != dict(certificates):
                yield corrupted

    if engine == "compiled":
        for outcome in network.run_many(
            scheme.verify, corrupted_assignments(), stop_on_reject=True
        ):
            if not outcome.accepted:
                return True
        return False
    if engine == "vector":
        # One lane per corrupted assignment; a block answers "was any lane
        # rejected" in a single columnwise pass over the graph.
        vector = VectorNetwork(network)
        trial_stream = corrupted_assignments()
        while True:
            block_assignments = list(
                itertools.islice(trial_stream, vector.block_lanes)
            )
            if not block_assignments:
                return False
            block = vector.run_block(scheme.verify, block_assignments)
            if block.accepted_lanes_word != (1 << block.lanes) - 1:
                return True
    for corrupted in corrupted_assignments():
        if not network.run_legacy(scheme.verify, corrupted).accepted:
            return True
    return False


def exhaustive_soundness_holds(
    scheme: CertificationScheme,
    graph: nx.Graph,
    max_bits: int,
    seed: int | None = 0,
    engine: str = "auto",
) -> bool:
    """Exhaustively check soundness of a scheme on a tiny no-instance.

    Enumerates *every* assignment of ``max_bits``-bit certificates and returns
    True when all of them are rejected.  This is a finite certificate of the
    statement "no prover with ``max_bits``-bit certificates can cheat on this
    instance with these identifiers".  The cost is
    ``2 ** (max_bits * n)`` simulations — keep both parameters tiny.

    ``engine="delta"`` visits the identical assignment set as a Gray-coded
    stream of single-vertex deltas (:func:`~repro.network.adversary.
    exhaustive_deltas`) on a persistent session: each assignment costs one
    closed-neighbourhood re-verification and an O(1) acceptance read instead
    of an O(n) reload-and-rescan.  ``engine="vector"`` goes one step
    further: the sweep becomes a binary counter over bit-parallel lanes
    (:meth:`~repro.network.vector.VectorNetwork.any_accepted_exhaustive`),
    so every pass over the graph settles a whole block of assignments — the
    engine that moves the practical (n, max_bits) frontier.  The default
    ``"auto"`` resolves through the planner: enumeration-shaped, so large
    sweeps route to the vector engine and tiny ones to delta.
    """
    validate_engine(engine, context="exhaustive_soundness_holds")
    engine = resolve_engine(
        engine,
        Workload.enumeration(
            (1 << max_bits) ** graph.number_of_nodes(),
            graph.number_of_nodes(),
            max((d for _, d in graph.degree()), default=0),
            max_bits=max_bits,
        ),
    )
    if scheme.holds(graph):
        raise ValueError("exhaustive_soundness_holds expects a no-instance")
    ids = (
        cached_identifiers(graph, seed, sequential=True)
        if isinstance(seed, int)
        else assign_identifiers(graph, seed=seed, sequential=True)
    )
    vertices = sorted(graph.nodes(), key=repr)
    if engine == "vector":
        network = cached_compiled_network(graph, ids)
        vector = VectorNetwork(network)
        return not vector.any_accepted_exhaustive(
            scheme.verify, max_bits, vertices=vertices
        )
    if engine == "delta":
        network = cached_compiled_network(graph, ids)
        session = network.delta_session(
            scheme.verify, initial_exhaustive_assignment(vertices, max_bits)
        )
        if session.accepted:
            return False
        for vertex, certificate in exhaustive_deltas(vertices, max_bits):
            if session.apply(vertex, certificate):
                return False
        return True
    assignments = exhaustive_assignments(vertices, max_bits)
    if engine == "compiled":
        network = cached_compiled_network(graph, ids)
        return not network.any_accepted(scheme.verify, assignments)
    simulator = NetworkSimulator(graph, identifiers=ids)
    for assignment in assignments:
        if simulator.run_legacy(scheme.verify, assignment).accepted:
            return False
    return True
