"""Bit-parallel block verification: one lane per candidate assignment.

The first three engines — the legacy simulator, the compiled batch engine
and the delta engine — all evaluate *one* certificate assignment per pass
over the graph; the delta engine merely shrinks each pass to a closed
neighbourhood.  BENCH_delta's frontier shows where that road ends: the cost
per assignment is down to a few dictionary operations, so the only way to
get the next order of magnitude is to shrink the work per *instruction*.

:class:`VectorNetwork` does that by evaluating a **block** of assignments at
once.  Assignments become *lanes*: lane ``k`` of a machine word holds one
bit of information about assignment ``k``, and a single bitwise operation
advances all lanes together.  Words are Python arbitrary-precision integers
by default (any number of lanes per word, zero dependencies) or numpy
``uint64`` arrays when numpy is importable (``backend="auto"``); both
backends share one evaluation path because ``&``, ``|`` and ``~`` mean the
same thing on either word type.

The engine never inspects verifier code.  For every vertex it builds a
*palette* of the candidate certificates that vertex sees across the block,
bit-slices the per-lane palette indices into word-sized *planes* (plane
``b`` holds bit ``b`` of every lane's index), and materialises the
verifier's truth table over the vertex's local configuration space — own
certificate plus the CSR-ordered neighbour certificates of
:class:`~repro.network.compiled.CompiledNetwork` — by calling the real
verifier once per reachable configuration (verdicts are memoised in the same
per-(network, verifier) store the delta engine uses).  The table is then
evaluated columnwise by iterated Shannon expansion::

    level = [(level[2t] & ~x) | (level[2t + 1] & x)  for t in ...]

one multiplex step per configuration bit-plane ``x``, producing a verdict
word whose lane ``k`` is vertex ``v``'s verdict on assignment ``k``.  A
block is accepted on some lane iff the AND of all (watched) verdict words is
non-zero — block-level early exit replaces the per-assignment loop.

Exhaustive sweeps (:meth:`any_accepted_exhaustive`) never materialise
assignments at all: the sweep is a binary counter over
``max_bits * n`` digit bits, the low ``log2(block)`` bits live *inside* a
block — their planes are fixed alternating masks — and the high bits are
per-block constants, so advancing to the next block costs no per-lane work.
Vertices whose local configuration space outgrows ``max_table_bits`` fall
back to per-lane memoised scalar evaluation; everything stays bit-for-bit
identical to ``run_legacy``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.network.compiled import (
    CompiledNetwork,
    SimulationResult,
    _MEMO_ENTRY_CAP,
)
from repro.network.ids import IdentifierAssignment

Vertex = Hashable
CertificateAssignment = Mapping[Vertex, bytes]
Verifier = Callable[..., bool]

#: Backend names accepted by :class:`VectorNetwork`.
VECTOR_BACKENDS = ("auto", "python", "numpy")


# ---------------------------------------------------------------------------
# Lane-word backends
# ---------------------------------------------------------------------------


class _PythonBackend:
    """Lanes packed into one arbitrary-precision int; always available."""

    name = "python"
    #: Big-int bitwise ops are O(words); 2048 lanes keeps each op in the
    #: sweet spot where interpreter overhead, not carry-free arithmetic,
    #: dominates.
    default_block_lanes = 2048
    #: Above this many local-configuration bits a vertex is evaluated
    #: per-lane (memoised scalar calls) instead of via a dense truth table:
    #: the Shannon reduction costs ``2**m`` multiplex steps, which stops
    #: paying for itself once it rivals the lane count.
    default_max_table_bits = 12

    @staticmethod
    def pack(value: int, lanes: int):
        return value

    @staticmethod
    def to_int(word) -> int:
        return word

    @staticmethod
    def is_zero(word) -> bool:
        return word == 0


class _NumpyBackend:
    """Lanes packed into a little-endian ``uint64`` array (64 per element)."""

    name = "numpy"
    #: Larger blocks amortise numpy's per-operation dispatch overhead.
    default_block_lanes = 1 << 16
    #: Wider blocks amortise bigger truth tables.
    default_max_table_bits = 14

    def __init__(self, numpy) -> None:
        self._np = numpy

    def pack(self, value: int, lanes: int):
        n_words = max(1, (lanes + 63) // 64)
        buffer = value.to_bytes(n_words * 8, "little")
        return self._np.frombuffer(buffer, dtype="<u8")

    def to_int(self, word) -> int:
        return int.from_bytes(word.astype("<u8", copy=False).tobytes(), "little")

    def is_zero(self, word) -> bool:
        return not word.any()


def _import_numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised on numpy-free installs
        return None
    return numpy


def resolve_backend(backend: str = "auto"):
    """Resolve a backend name to a backend object.

    ``"auto"`` prefers numpy when it is importable and silently falls back
    to the pure-Python big-int backend otherwise; ``"numpy"`` raises when
    numpy is unavailable so tests can pin a backend explicitly.
    """
    if backend == "python":
        return _PythonBackend()
    if backend == "numpy":
        numpy = _import_numpy()
        if numpy is None:
            raise ValueError("backend 'numpy' requested but numpy is not importable")
        return _NumpyBackend(numpy)
    if backend == "auto":
        numpy = _import_numpy()
        return _NumpyBackend(numpy) if numpy is not None else _PythonBackend()
    raise ValueError(
        f"unknown vector backend {backend!r}; use one of: "
        + ", ".join(repr(name) for name in VECTOR_BACKENDS)
    )


# ---------------------------------------------------------------------------
# Block results
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockResult:
    """Per-lane outcome of one block evaluation.

    ``accepted_lanes_word`` is a plain Python int regardless of backend:
    bit ``k`` is set iff every watched vertex accepted assignment ``k``.
    Per-lane :class:`SimulationResult` reconstruction (:meth:`result`) is
    O(n) per lane and meant for equivalence tests and endpoints that need
    the rejecting set — the hot paths only read the acceptance word.
    """

    lanes: int
    order: tuple
    watched: tuple
    accepted_lanes_word: int
    verdict_words: Dict[Vertex, int] = field(default_factory=dict)
    _palettes: tuple = ()
    _lane_indices: tuple = ()

    def accepted(self, lane: int) -> bool:
        """Did every watched vertex accept assignment ``lane``?"""
        self._check_lane(lane)
        return bool((self.accepted_lanes_word >> lane) & 1)

    def any_accepted(self) -> bool:
        return self.accepted_lanes_word != 0

    def first_accepted_lane(self) -> Optional[int]:
        """The lowest fully-accepted lane, or None."""
        word = self.accepted_lanes_word
        if word == 0:
            return None
        return (word & -word).bit_length() - 1

    def accepted_lanes(self) -> Tuple[int, ...]:
        return tuple(
            k for k in range(self.lanes) if (self.accepted_lanes_word >> k) & 1
        )

    def rejecting_vertices(self, lane: int) -> tuple:
        """Watched vertices rejecting assignment ``lane``, in ``repr`` order."""
        self._check_lane(lane)
        rejecting = [
            vertex
            for vertex in self.watched
            if not (self.verdict_words[vertex] >> lane) & 1
        ]
        return tuple(sorted(rejecting, key=repr))

    def max_certificate_bits(self, lane: int) -> int:
        """Size in bits of the largest certificate assignment ``lane`` gives
        to a vertex of the graph (``run`` parity)."""
        self._check_lane(lane)
        max_len = 0
        for palette, indices in zip(self._palettes, self._lane_indices):
            length = len(palette[indices[lane]])
            if length > max_len:
                max_len = length
        return max_len * 8

    def result(self, lane: int) -> SimulationResult:
        """Assignment ``lane``'s outcome as a :class:`SimulationResult`."""
        return SimulationResult(
            accepted=self.accepted(lane),
            rejecting_vertices=self.rejecting_vertices(lane),
            max_certificate_bits=self.max_certificate_bits(lane),
        )

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range for a {self.lanes}-lane block")


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class VectorNetwork:
    """A :class:`CompiledNetwork` lifted to bit-parallel block evaluation.

    Wraps an existing compiled topology (or compiles ``graph`` on the spot)
    and shares its CSR adjacency, identifier assignment and per-verifier
    verdict memo.  Instances own private scratch views, so any number of
    them coexist with the compiled engine's ``run`` and with delta sessions
    on a shared :class:`CompiledNetwork`.
    """

    def __init__(
        self,
        network: CompiledNetwork | nx.Graph,
        identifiers: IdentifierAssignment | None = None,
        seed=None,
        backend: str = "auto",
        block_lanes: Optional[int] = None,
        max_table_bits: Optional[int] = None,
    ) -> None:
        if not isinstance(network, CompiledNetwork):
            network = CompiledNetwork(network, identifiers=identifiers, seed=seed)
        self._network = network
        self._backend = resolve_backend(backend)
        if block_lanes is None:
            block_lanes = self._backend.default_block_lanes
        if block_lanes < 1 or block_lanes & (block_lanes - 1):
            raise ValueError("block_lanes must be a positive power of two")
        self._block_lanes = block_lanes
        self._block_bits = block_lanes.bit_length() - 1
        if max_table_bits is None:
            max_table_bits = self._backend.default_max_table_bits
        if max_table_bits < 0:
            raise ValueError("max_table_bits must be non-negative")
        self._max_table_bits = max_table_bits
        #: Kernel-composition report of the most recent
        #: :meth:`any_accepted_exhaustive` call (None before the first).
        self.last_exhaustive_report: Optional[Dict[str, object]] = None
        # Private scratch views for materialising local configurations when
        # a truth-table entry actually needs the verifier.
        self._records, self._views = network._fresh_views()
        closed, _ = network._delta_tables()
        self._closed = closed
        self._mask_cache: Dict[int, list] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def network(self) -> CompiledNetwork:
        return self._network

    @property
    def vertices(self) -> tuple:
        return self._network.vertices

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def block_lanes(self) -> int:
        """Assignments evaluated per pass (lanes per block)."""
        return self._block_lanes

    # ------------------------------------------------------------------
    # Verifier truth values
    # ------------------------------------------------------------------

    def _lookup(self, verifier: Verifier, memo: dict, i: int, key: tuple) -> bool:
        """Memoised verdict of vertex index ``i`` on local configuration
        ``key`` (own certificate, then CSR-ordered neighbour certificates) —
        the exact key shape of :class:`~repro.network.compiled.DeltaSession`,
        so both engines share cached verdicts."""
        verdict = memo.get(key)
        if verdict is None:
            view = self._views[i]
            view.certificate = key[0]
            for record, certificate in zip(view.neighbors, key[1:]):
                record.certificate = certificate
            verdict = True if verifier(view) else False
            if len(memo) < _MEMO_ENTRY_CAP:
                memo[key] = verdict
        return verdict

    # ------------------------------------------------------------------
    # Shannon reduction
    # ------------------------------------------------------------------

    @staticmethod
    def _reduce(level: list, planes: list):
        """Collapse ``2**m`` leaf words through ``m`` multiplex steps.

        ``planes`` holds one ``(is_constant, value)`` entry per table bit,
        least-significant first.  A constant plane (the bit is the same in
        every lane) is pure list slicing; a live plane is one columnwise
        multiplex over the whole block.
        """
        for constant, x in planes:
            if constant:
                level = level[1::2] if x else level[0::2]
            else:
                level = [
                    (level[t] & ~x) | (level[t + 1] & x)
                    for t in range(0, len(level), 2)
                ]
        return level[0]

    # ------------------------------------------------------------------
    # Arbitrary assignment blocks
    # ------------------------------------------------------------------

    def _block_columns(self, assignments: Sequence[CertificateAssignment]):
        """Per-vertex certificate palettes and lane index lists."""
        palettes = []
        lane_indices = []
        for vertex in self._network._order:
            interned: Dict[bytes, int] = {}
            indices = []
            for assignment in assignments:
                certificate = assignment.get(vertex, b"")
                if type(certificate) is not bytes:
                    certificate = bytes(certificate)
                position = interned.get(certificate)
                if position is None:
                    position = len(interned)
                    interned[certificate] = position
                indices.append(position)
            palettes.append(tuple(interned))
            lane_indices.append(indices)
        return palettes, lane_indices

    def _block_verdict_word(
        self,
        verifier: Verifier,
        memo: tuple,
        i: int,
        palettes: list,
        lane_indices: list,
        planes_of: list,
        lanes: int,
        full,
        zero,
    ):
        """Verdict word of vertex index ``i`` over an explicit block."""
        closed = self._closed[i]
        bits = [
            (len(palettes[j]) - 1).bit_length() if len(palettes[j]) > 1 else 0
            for j in closed
        ]
        m = sum(bits)
        if m == 0:
            key = tuple(palettes[j][0] for j in closed)
            return full if self._lookup(verifier, memo[i], i, key) else zero
        if m <= self._max_table_bits:
            table = [False] * (1 << m)
            positions = [list(enumerate(palettes[j])) for j in closed]
            for combo in itertools.product(*positions):
                flat = 0
                shift = 0
                for (position, _), width in zip(combo, bits):
                    flat |= position << shift
                    shift += width
                key = tuple(certificate for _, certificate in combo)
                if self._lookup(verifier, memo[i], i, key):
                    table[flat] = True
            if all(table):
                return full
            if not any(table):
                return zero
            level = [full if bit else zero for bit in table]
            planes = []
            for j in closed:
                planes.extend(planes_of[j])
            return self._reduce(level, planes)
        # Per-lane fallback: the local configuration space is too large for
        # a dense table, so pay one memoised lookup per lane instead.
        word = 0
        for lane in range(lanes):
            key = tuple(palettes[j][lane_indices[j][lane]] for j in closed)
            if self._lookup(verifier, memo[i], i, key):
                word |= 1 << lane
        return self._backend.pack(word, lanes)

    def run_block(
        self,
        verifier: Verifier,
        assignments: Sequence[CertificateAssignment],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> BlockResult:
        """Evaluate a block of explicit assignments, one lane each.

        Returns a :class:`BlockResult` with the full per-vertex verdict
        words; ``vertices`` optionally restricts the verdicts that count to
        a watched subset (the block analogue of
        :meth:`CompiledNetwork.accepts_at`).  Lane ``k``'s
        :meth:`~BlockResult.result` is bit-identical to
        ``run(verifier, assignments[k])``.
        """
        assignments = list(assignments)
        lanes = len(assignments)
        order = self._network._order
        index = self._network._index
        if vertices is None:
            watched = list(range(len(order)))
        else:
            watched = sorted(index[v] for v in vertices)
        if lanes == 0:
            # An empty block has no lanes to accept or reject.
            return BlockResult(
                lanes=0,
                order=tuple(order),
                watched=tuple(order[i] for i in watched),
                accepted_lanes_word=0,
                verdict_words={order[i]: 0 for i in watched},
            )
        backend = self._backend
        full = backend.pack((1 << lanes) - 1, lanes)
        zero = backend.pack(0, lanes)
        palettes, lane_indices = self._block_columns(assignments)
        planes_of = [
            self._slice_planes(indices, palette, lanes)
            for palette, indices in zip(palettes, lane_indices)
        ]
        memo = self._network._verdict_memo(verifier)
        accepted = full
        verdict_words: Dict[Vertex, int] = {}
        for i in watched:
            word = self._block_verdict_word(
                verifier, memo, i, palettes, lane_indices, planes_of, lanes, full, zero
            )
            verdict_words[order[i]] = backend.to_int(word)
            accepted = accepted & word
        return BlockResult(
            lanes=lanes,
            order=tuple(order),
            watched=tuple(order[i] for i in watched),
            accepted_lanes_word=backend.to_int(accepted) if lanes else 0,
            verdict_words=verdict_words,
            _palettes=tuple(palettes),
            _lane_indices=tuple(tuple(indices) for indices in lane_indices),
        )

    def _slice_planes(self, indices: list, palette: tuple, lanes: int) -> list:
        """Bit-slice a vertex's per-lane palette indices into planes."""
        bits = (len(palette) - 1).bit_length() if len(palette) > 1 else 0
        planes = []
        for b in range(bits):
            value = 0
            for lane, position in enumerate(indices):
                if (position >> b) & 1:
                    value |= 1 << lane
            planes.append((False, self._backend.pack(value, lanes)))
        return planes

    def any_accepted_block(
        self,
        verifier: Verifier,
        assignments: Iterable[CertificateAssignment],
    ) -> bool:
        """Is *some* assignment accepted by every vertex?

        The bit-parallel counterpart of :meth:`CompiledNetwork.any_accepted`:
        consumes any iterable, evaluates it ``block_lanes`` assignments at a
        time, and short-circuits both across blocks and within each block
        (the accumulated acceptance word going to zero discards the rest of
        the block's vertices).
        """
        assignments = iter(assignments)
        while True:
            block = list(itertools.islice(assignments, self._block_lanes))
            if not block:
                return False
            if self.run_block(verifier, block).any_accepted():
                return True

    # ------------------------------------------------------------------
    # Exhaustive sweeps
    # ------------------------------------------------------------------

    def _alternating_masks(self, lanes: int) -> list:
        """``masks[p]``: the word whose lane ``k`` holds bit ``p`` of ``k``."""
        masks = self._mask_cache.get(lanes)
        if masks is None:
            masks = []
            every = (1 << lanes) - 1
            p = 0
            while (1 << p) < lanes:
                half = 1 << p
                period = half << 1
                unit = every // ((1 << period) - 1)
                masks.append(self._backend.pack(unit * (((1 << half) - 1) << half), lanes))
                p += 1
            self._mask_cache[lanes] = masks
        return masks

    def any_accepted_exhaustive(
        self,
        verifier: Verifier,
        max_bits: int,
        vertices: Optional[Sequence[Vertex]] = None,
        fixed: Optional[CertificateAssignment] = None,
        watched: Optional[Iterable[Vertex]] = None,
    ) -> bool:
        """Does *some* assignment of ``max_bits``-bit certificates make every
        watched vertex accept?

        Sweeps the exact assignment set of
        :func:`~repro.network.adversary.exhaustive_assignments` over
        ``vertices`` (default: all vertices, ``repr``-sorted) without ever
        materialising an assignment: the sweep is a binary counter whose low
        bits alternate *inside* each block (fixed mask planes) and whose
        high bits are per-block constants.  ``fixed`` pins the certificates
        of non-enumerated vertices; ``watched`` restricts whose verdicts
        count (the Alice/Bob protocol simulation watches only the vertices
        a player sees).
        """
        if max_bits < 0:
            raise ValueError("max_bits must be non-negative")
        order = self._network._order
        index = self._network._index
        if vertices is None:
            vertices = sorted(order, key=repr)
        else:
            vertices = list(vertices)
        fixed = fixed or {}
        position_of: Dict[int, int] = {index[v]: j for j, v in enumerate(vertices)}
        n_enum = len(vertices)
        radix = 1 << max_bits
        n_bytes = (max_bits + 7) // 8
        options = [
            value.to_bytes(n_bytes, "big") if n_bytes else b"" for value in range(radix)
        ]
        fixed_certificate: Dict[int, bytes] = {}
        for i, vertex in enumerate(order):
            if i not in position_of:
                certificate = fixed.get(vertex, b"")
                if type(certificate) is not bytes:
                    certificate = bytes(certificate)
                fixed_certificate[i] = certificate
        if watched is None:
            watched_indices = list(range(len(order)))
        else:
            watched_indices = sorted(index[v] for v in watched)

        total_bits = max_bits * n_enum
        block_bits = min(self._block_bits, total_bits)
        lanes = 1 << block_bits
        backend = self._backend
        full = backend.pack((1 << lanes) - 1, lanes)
        zero = backend.pack(0, lanes)
        masks = self._alternating_masks(lanes)
        memo = self._network._verdict_memo(verifier)

        # Global counter bit of digit bit ``b`` of the vertex at enumeration
        # position ``j`` (first vertex = most significant digit, matching
        # ``exhaustive_assignments``'s product order).
        def offsets_of(i: int) -> list:
            j = position_of[i]
            base = max_bits * (n_enum - 1 - j)
            return list(range(base, base + max_bits))

        kernels = []
        for i in watched_indices:
            closed = self._closed[i]
            enumerated = [j for j in closed if j in position_of]
            m = max_bits * len(enumerated)
            if m == 0:
                # Also covers max_bits == 0: an enumerated vertex then has a
                # single candidate certificate, the empty one.
                key = tuple(
                    options[0] if j in position_of else fixed_certificate[j]
                    for j in closed
                )
                word = full if self._lookup(verifier, memo[i], i, key) else zero
                kernels.append(("const", word, None, None))
                continue
            offsets = []
            for j in closed:
                if j in position_of:
                    offsets.extend(offsets_of(j))
            if m <= self._max_table_bits:
                table = [False] * (1 << m)
                choice_lists = [
                    list(enumerate(options)) if j in position_of else [(0, fixed_certificate[j])]
                    for j in closed
                ]
                for combo in itertools.product(*choice_lists):
                    flat = 0
                    shift = 0
                    key_parts = []
                    for (value, certificate), j in zip(combo, closed):
                        if j in position_of:
                            flat |= value << shift
                            shift += max_bits
                        key_parts.append(certificate)
                    if self._lookup(verifier, memo[i], i, tuple(key_parts)):
                        table[flat] = True
                if all(table):
                    kernels.append(("const", full, None, None))
                elif not any(table):
                    kernels.append(("const", zero, None, None))
                else:
                    kernels.append(("table", table, offsets, None))
            else:
                # Scalar fallback: decode each lane's digits straight from
                # the counter value.
                template = [
                    None if j in position_of else fixed_certificate[j] for j in closed
                ]
                slots = [
                    (slot, max_bits * (n_enum - 1 - position_of[j]))
                    for slot, j in enumerate(closed)
                    if j in position_of
                ]
                kernels.append(("scalar", template, slots, i))

        # Record how the sweep was compiled *before* running it (early exits
        # must not lose the report): ``used_fallback`` flags any vertex that
        # dropped to per-lane scalar evaluation — the planner and
        # BENCH_planner account for it when pricing the vector engine.
        kernel_counts: Dict[str, int] = {"const": 0, "table": 0, "scalar": 0}
        for kernel in kernels:
            kernel_counts[kernel[0]] += 1
        self.last_exhaustive_report = {
            "used_fallback": kernel_counts["scalar"] > 0,
            "kernels": kernel_counts,
            "max_table_bits": self._max_table_bits,
        }

        mask = radix - 1
        block_count = 1 << (total_bits - block_bits)
        for block_index in range(block_count):
            base = block_index << block_bits
            accepted = full
            for kernel, i in zip(kernels, watched_indices):
                kind = kernel[0]
                if kind == "const":
                    word = kernel[1]
                elif kind == "table":
                    _, table, offsets, _ = kernel
                    planes = [
                        (False, masks[p])
                        if p < block_bits
                        else (True, (base >> p) & 1)
                        for p in offsets
                    ]
                    level = [full if bit else zero for bit in table]
                    word = self._reduce(level, planes)
                else:
                    _, template, slots, _ = kernel
                    value = 0
                    parts = list(template)
                    for lane in range(lanes):
                        counter = base + lane
                        for slot, offset in slots:
                            parts[slot] = options[(counter >> offset) & mask]
                        if self._lookup(verifier, memo[i], i, tuple(parts)):
                            value |= 1 << lane
                    word = backend.pack(value, lanes)
                accepted = accepted & word
                if backend.is_zero(accepted):
                    break
            else:
                return True
        return False


def vectorize_network(
    graph: nx.Graph,
    identifiers: IdentifierAssignment | None = None,
    seed=None,
    backend: str = "auto",
) -> VectorNetwork:
    """Convenience constructor mirroring :func:`compile_network`."""
    return VectorNetwork(graph, identifiers=identifiers, seed=seed, backend=backend)
