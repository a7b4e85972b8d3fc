"""The reduction framework of Section 7.1.

A reduction is described by four vertex sets ``V_A, V_α, V_β, V_B``, a fixed
edge set ``E_P`` touching only the allowed pairs of parts, and two injections
``t_A`` (from strings to edge sets inside ``V_A``) and ``t_B`` (inside
``V_B``).  The graph ``G(s_A, s_B)`` is the union of the fixed part and the
two private parts.  Proposition 7.2: if a property P holds on
``G(s_A, s_B)`` exactly when ``s_A = s_B``, then any local certification of P
needs certificates of size Ω(ℓ / r) where ``r = |V_α ∪ V_β|``, because Alice
and Bob can turn a certification into a non-deterministic EQUALITY protocol
whose certificate is the concatenation of the local certificates of
``V_α ∪ V_β``.

The :meth:`ReductionFramework.simulate_protocol` method implements exactly
that Alice/Bob simulation for a concrete
:class:`~repro.core.scheme.CertificationScheme`, so the reduction itself can
be exercised on small instances (see the Theorem 2.5 benchmark).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Sequence, Tuple

import networkx as nx

from repro.core.scheme import CertificationScheme
from repro.engines import PROTOCOL_ENGINES, resolve_engine, validate_engine
from repro.planner import Workload
from repro.network.adversary import exhaustive_deltas, initial_exhaustive_assignment
from repro.network.compiled import CompiledNetwork
from repro.network.ids import IdentifierAssignment
from repro.network.vector import VectorNetwork
from repro.network.views import LocalView

Vertex = Hashable
EdgeSet = FrozenSet[Tuple[Vertex, Vertex]]
Injection = Callable[[str], Iterable[Tuple[Vertex, Vertex]]]


def certificate_size_lower_bound(ell: int, r: int) -> float:
    """Proposition 7.2: certificates need Ω(ℓ / r) bits; return ℓ / r."""
    if r <= 0:
        raise ValueError("r must be positive")
    return ell / r


@dataclass(frozen=True)
class ReductionFramework:
    """A concrete instantiation of the Section 7.1 framework."""

    v_a: Tuple[Vertex, ...]
    v_alpha: Tuple[Vertex, ...]
    v_beta: Tuple[Vertex, ...]
    v_b: Tuple[Vertex, ...]
    fixed_edges: Tuple[Tuple[Vertex, Vertex], ...]
    alice_injection: Injection
    bob_injection: Injection

    def __post_init__(self) -> None:
        parts = [set(self.v_a), set(self.v_alpha), set(self.v_beta), set(self.v_b)]
        for i in range(4):
            for j in range(i + 1, 4):
                if parts[i] & parts[j]:
                    raise ValueError("the four vertex parts must be disjoint")
        allowed = self._allowed_fixed_pairs()
        for u, v in self.fixed_edges:
            part_u, part_v = self._part_of(u), self._part_of(v)
            if (part_u, part_v) not in allowed and (part_v, part_u) not in allowed:
                raise ValueError(
                    f"fixed edge ({u!r}, {v!r}) joins forbidden parts {part_u}–{part_v}"
                )

    def _part_of(self, vertex: Vertex) -> str:
        if vertex in self.v_a:
            return "A"
        if vertex in self.v_alpha:
            return "alpha"
        if vertex in self.v_beta:
            return "beta"
        if vertex in self.v_b:
            return "B"
        raise ValueError(f"vertex {vertex!r} is in no part")

    @staticmethod
    def _allowed_fixed_pairs() -> set[Tuple[str, str]]:
        return {
            ("A", "alpha"),
            ("alpha", "alpha"),
            ("alpha", "beta"),
            ("beta", "beta"),
            ("beta", "B"),
        }

    # ------------------------------------------------------------------

    @property
    def r(self) -> int:
        """|V_α ∪ V_β| — the number of vertices whose certificates Alice and
        Bob read from the prover."""
        return len(self.v_alpha) + len(self.v_beta)

    def build_graph(self, s_a: str, s_b: str) -> nx.Graph:
        """The instance G(s_A, s_B)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.v_a)
        graph.add_nodes_from(self.v_alpha)
        graph.add_nodes_from(self.v_beta)
        graph.add_nodes_from(self.v_b)
        graph.add_edges_from(self.fixed_edges)
        for u, v in self.alice_injection(s_a):
            if self._part_of(u) != "A" or self._part_of(v) != "A":
                raise ValueError("Alice's injection must produce edges inside V_A")
            graph.add_edge(u, v)
        for u, v in self.bob_injection(s_b):
            if self._part_of(u) != "B" or self._part_of(v) != "B":
                raise ValueError("Bob's injection must produce edges inside V_B")
            graph.add_edge(u, v)
        return graph

    def lower_bound_bits(self, ell: int) -> float:
        """The Ω(ℓ / r) bound implied by Proposition 7.2 for string length ℓ."""
        return certificate_size_lower_bound(ell, self.r)

    # ------------------------------------------------------------------
    # Alice/Bob simulation of a local verifier (proof of Proposition 7.2)
    # ------------------------------------------------------------------

    def _simulated_parts(
        self, s_a: str, s_b: str
    ) -> Tuple[nx.Graph, List[Vertex], List[Vertex], List[Vertex]]:
        """The simulated graph and its middle, Alice-side and Bob-side vertices.

        Fixed-size private parts may leave padding vertices isolated
        (shorter strings use fewer encoding vertices); they are dropped
        exactly as the instance constructions do — the model only considers
        connected graphs, and the players never read a padding certificate.
        """
        graph = self.build_graph(s_a, s_b)
        used = [v for v in graph.nodes() if graph.degree(v) > 0]
        graph = graph.subgraph(used).copy()
        present = set(used)
        middle = [v for v in list(self.v_alpha) + list(self.v_beta) if v in present]
        side_a = [v for v in self.v_a if v in present]
        side_b = [v for v in self.v_b if v in present]
        return graph, middle, side_a, side_b

    def protocol_workload(
        self, s_a: str, s_b: str, certificate_bits_per_vertex: int
    ) -> Workload:
        """The enumeration :meth:`simulate_protocol` runs on (s_A, s_B).

        Per prover message (one per middle assignment) each player
        enumerates their side's certificate assignments.  ``"auto"``
        resolves against this descriptor, so a caller recording the engine
        of a simulation resolves it here too.
        """
        graph, middle, side_a, side_b = self._simulated_parts(s_a, s_b)
        bits = certificate_bits_per_vertex
        return Workload.enumeration(
            (1 << (bits * len(middle)))
            * ((1 << (bits * len(side_a))) + (1 << (bits * len(side_b)))),
            graph.number_of_nodes(),
            max((d for _, d in graph.degree()), default=0),
            max_bits=bits,
        )

    def simulate_protocol(
        self,
        scheme: CertificationScheme,
        s_a: str,
        s_b: str,
        certificate_bits_per_vertex: int,
        ids: IdentifierAssignment,
        max_side_bits: int = 12,
        engine: str = "auto",
    ) -> bool:
        """Run the Proposition 7.2 simulation on one (s_A, s_B) pair.

        The prover's message is interpreted as certificates for ``V_α ∪ V_β``;
        Alice enumerates all certificate assignments of her side ``V_A`` (at
        most ``2^max_side_bits`` of them — tiny instances only) and accepts if
        one makes all of ``V_A ∪ V_α`` accept; Bob symmetrically.  The
        function returns True iff *some* prover message makes both accept —
        which, by the argument of Appendix E.1, happens iff the full graph
        admits an accepting certificate assignment.

        ``engine`` selects how the doubly exponential sweep runs:
        ``"compiled"`` reloads each full assignment on the compile-once
        topology; ``"delta"`` keeps one persistent
        :class:`~repro.network.compiled.DeltaSession` per player and walks
        prover messages and side assignments as Gray-coded single-vertex
        deltas, so each enumerated assignment re-verifies one closed
        neighbourhood instead of every simulated vertex; ``"vector"`` sweeps
        each player's side as bit-parallel lanes
        (:meth:`~repro.network.vector.VectorNetwork.any_accepted_exhaustive`)
        with the prover message pinned, so a whole block of side assignments
        settles per pass.  All quantify over the same sets and return the
        same boolean; ``"auto"`` (the default) lets the planner pick from
        :meth:`protocol_workload` (the legacy engine is not implemented
        here — the sweep is enumeration-only).
        """
        validate_engine(
            engine,
            allowed=PROTOCOL_ENGINES,
            context="simulate_protocol",
        )
        graph, middle, side_a, side_b = self._simulated_parts(s_a, s_b)
        # One compiled topology serves every assignment of the double
        # exponential sweep below; only certificate bytes change per run.
        network = CompiledNetwork(graph, identifiers=ids)
        total_side_bits_a = certificate_bits_per_vertex * len(side_a)
        total_side_bits_b = certificate_bits_per_vertex * len(side_b)
        if max(total_side_bits_a, total_side_bits_b) > max_side_bits:
            raise ValueError("instance too large for exhaustive protocol simulation")
        middle_bits = certificate_bits_per_vertex * len(middle)
        if middle_bits > max_side_bits:
            raise ValueError("instance too large for exhaustive protocol simulation")
        engine = resolve_engine(
            engine, self.protocol_workload(s_a, s_b, certificate_bits_per_vertex)
        )

        if engine == "delta":
            return self._simulate_protocol_delta(
                network, scheme.verify, side_a, side_b, middle,
                certificate_bits_per_vertex,
            )

        def assignments(vertices: Sequence[Vertex]) -> Iterable[Dict[Vertex, bytes]]:
            n_bytes = (certificate_bits_per_vertex + 7) // 8
            options = [
                value.to_bytes(n_bytes, "big") if n_bytes else b""
                for value in range(1 << certificate_bits_per_vertex)
            ]
            def recurse(index: int, current: Dict[Vertex, bytes]):
                if index == len(vertices):
                    yield dict(current)
                    return
                for option in options:
                    current[vertices[index]] = option
                    yield from recurse(index + 1, current)
                current.pop(vertices[index], None)
            yield from recurse(0, {})

        if engine == "vector":
            # Per prover message, each player's side sweep is one exhaustive
            # lane sweep: vertices outside the player's knowledge (the other
            # side) default to b"" exactly as on the compiled path.
            vector = VectorNetwork(network)
            watched_a = list(side_a) + list(middle)
            watched_b = list(side_b) + list(middle)
            for middle_assignment in assignments(middle):
                alice_ok = vector.any_accepted_exhaustive(
                    scheme.verify,
                    certificate_bits_per_vertex,
                    vertices=side_a,
                    fixed=middle_assignment,
                    watched=watched_a,
                )
                if alice_ok and vector.any_accepted_exhaustive(
                    scheme.verify,
                    certificate_bits_per_vertex,
                    vertices=side_b,
                    fixed=middle_assignment,
                    watched=watched_b,
                ):
                    return True
            return False

        def side_accepts(side: Sequence[Vertex], middle_assignment: Dict[Vertex, bytes]) -> bool:
            checked_vertices = list(side) + list(middle)
            for side_assignment in assignments(list(side)):
                certificates = {**middle_assignment, **side_assignment}
                # Vertices outside this player's knowledge get empty labels
                # (the engine defaults missing certificates to b""); their
                # decisions are not simulated.
                if network.accepts_at(scheme.verify, certificates, checked_vertices):
                    return True
            return False

        for middle_assignment in assignments(middle):
            alice_ok = side_accepts(side_a, middle_assignment)
            bob_ok = side_accepts(side_b, middle_assignment)
            if alice_ok and bob_ok:
                return True
        return False

    @staticmethod
    def _simulate_protocol_delta(
        network: CompiledNetwork,
        verify: Callable[[LocalView], bool],
        side_a: Sequence[Vertex],
        side_b: Sequence[Vertex],
        middle: Sequence[Vertex],
        bits: int,
    ) -> bool:
        """The Alice/Bob sweep on persistent per-player delta sessions.

        Each player's session watches their simulated vertices (side +
        middle) with the *other* side's certificates pinned to ``b""``, the
        exact universe :meth:`~CompiledNetwork.accepts_at` sees on the
        compiled path.  Prover messages (middle) advance in Gray order on
        both sessions at once; for each message the player's side is swept in
        Gray order and then reset to its all-zero baseline, so every
        enumerated assignment costs one closed-neighbourhood update.
        """
        zero = bytes((bits + 7) // 8)

        def session_for(side: Sequence[Vertex]):
            baseline = initial_exhaustive_assignment([*side, *middle], bits)
            return network.delta_session(verify, baseline, vertices=[*side, *middle])

        def side_accepts(session, side: Sequence[Vertex]) -> bool:
            found = session.accepted
            if not found:
                for vertex, certificate in exhaustive_deltas(side, bits):
                    if session.apply(vertex, certificate):
                        found = True
                        break
            for vertex in side:  # back to the all-zero side baseline
                session.apply(vertex, zero)
            return found

        alice = session_for(side_a)
        bob = session_for(side_b)
        if side_accepts(alice, side_a) and side_accepts(bob, side_b):
            return True
        for vertex, certificate in exhaustive_deltas(middle, bits):
            alice.apply(vertex, certificate)
            bob.apply(vertex, certificate)
            if side_accepts(alice, side_a) and side_accepts(bob, side_b):
                return True
        return False
