"""Workload-aware engine planner: the cost model behind ``engine="auto"``.

Four engines execute the same verification semantics at wildly different
speeds depending on the *shape* of the workload (see BENCH_engine /
BENCH_delta / BENCH_vector / BENCH_planner):

* ``legacy``   — per-vertex dict views, the reference implementation;
  ~11× slower than compiled per (assignment, vertex).
* ``compiled`` — CSR topology + memoised verdicts; the baseline unit.
* ``delta``    — persistent sessions re-verifying only the closed
  neighbourhood of a changed vertex; wins when consecutive assignments
  differ in O(1) vertices (Gray-coded exhaustive streams, corruption
  trials around an honest baseline).
* ``vector``   — bit-parallel lane blocks; wins enumeration-shaped sweeps
  (thousands of assignments over a fixed topology) by evaluating 2048+
  candidates per bitwise operation, but pays a per-block cost that never
  amortises on small batches.

This module turns those measured ratios into a fixed analytic cost model
over a :class:`Workload` descriptor.  The cost units are module constants,
so routing is a pure function of the workload: the same workload resolves
to the same engine on every host.  :func:`choose_engine` is the single
routing decision point; callers reach it through
:func:`repro.engines.resolve_engine`.

The model deliberately prices the vector engine with the *python* backend's
lane count and truth-table cutoff: routing must resolve identically whether
or not numpy is importable (artifacts and replay caches are compared
byte-for-byte across backend legs), and the python backend is always
executable — the planner never picks a plan the host cannot run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional

#: Engine names the planner can resolve ``"auto"`` to, in tie-break order:
#: when two engines tie on modelled cost the earlier name wins (the simpler,
#: more battle-tested engine).  ``legacy`` is priced but never a candidate —
#: at ~11× compiled it is strictly dominated.
PLANNER_PREFERENCE = ("compiled", "delta", "vector")

#: Workload shapes the cost model distinguishes.
WORKLOAD_SHAPES = ("single-shot", "batch", "sparse-diff", "enumeration")

# Cost units, in compiled (assignment, vertex) evaluations.
_LEGACY = 11.0  # per evaluation (BENCH_engine)
_COMPILED = 1.0  # per evaluation: the unit itself
_DELTA_SETUP = 1.0  # per vertex of a session's initial full evaluation
_DELTA_TOUCH = 0.52  # per closed-neighbourhood re-verification (BENCH_delta)
_VECTOR_ENUM = 0.0069  # per (assignment, vertex) of a table sweep (BENCH_vector)
_VECTOR_BLOCK = 1.2  # per (lane, vertex) of per-lane scalar evaluation
_VECTOR_TABLE_FILL = 1.0  # per truth-table entry

#: Lane count and truth-table cutoff the cost model assumes for the vector
#: engine: the *python* backend's defaults, so routing does not depend on
#: whether numpy is importable (see module docstring).
_MODEL_LANES = 2048
_MODEL_TABLE_BITS = 12


@dataclass(frozen=True)
class Workload:
    """What the planner knows about the work ahead of picking an engine.

    Costs are modelled per (assignment, vertex) with the compiled engine's
    full evaluation as the unit, so a workload is essentially the tuple
    (how many assignments, over how many vertices, how much of the graph
    does each consecutive assignment touch).
    """

    shape: str
    assignments: int
    graph_size: int
    max_degree: int = 0
    diff_density: float = 1.0
    """Fraction of vertices whose certificate changes between consecutive
    assignments: 1.0 for independent random assignments, ``1/n`` for
    Gray-coded or single-vertex-corruption streams."""
    bits_per_vertex: int = 0
    """Certificate bits per enumerated vertex (enumeration shape only) —
    sizes the vector engine's per-vertex truth tables."""

    def __post_init__(self) -> None:
        if self.shape not in WORKLOAD_SHAPES:
            raise ValueError(
                f"unknown workload shape {self.shape!r}; use one of: "
                + ", ".join(repr(s) for s in WORKLOAD_SHAPES)
            )
        if self.assignments < 0:
            raise ValueError("assignments must be non-negative")
        if self.graph_size < 0:
            raise ValueError("graph_size must be non-negative")

    # -- constructors for the shapes the harness actually produces ----------

    @classmethod
    def single_shot(cls, graph_size: int, max_degree: int = 0) -> "Workload":
        """One full evaluation (an honest-prover completeness check)."""
        return cls(
            shape="single-shot",
            assignments=1,
            graph_size=graph_size,
            max_degree=max_degree,
        )

    @classmethod
    def batch(
        cls,
        assignments: int,
        graph_size: int,
        max_degree: int = 0,
        diff_density: float = 1.0,
    ) -> "Workload":
        """``assignments`` independent full evaluations (adversarial trials)."""
        return cls(
            shape="batch",
            assignments=assignments,
            graph_size=graph_size,
            max_degree=max_degree,
            diff_density=diff_density,
        )

    @classmethod
    def sparse_diff(
        cls,
        assignments: int,
        graph_size: int,
        max_degree: int = 0,
        diff_density: Optional[float] = None,
    ) -> "Workload":
        """A stream of assignments each differing from a baseline in O(1)
        vertices (corruption trials)."""
        if diff_density is None:
            diff_density = 1.0 / graph_size if graph_size else 1.0
        return cls(
            shape="sparse-diff",
            assignments=assignments,
            graph_size=graph_size,
            max_degree=max_degree,
            diff_density=diff_density,
        )

    @classmethod
    def enumeration(
        cls,
        assignments: int,
        graph_size: int,
        max_degree: int = 0,
        max_bits: int = 1,
    ) -> "Workload":
        """An exhaustive certificate sweep (Gray stream / binary counter)."""
        return cls(
            shape="enumeration",
            assignments=assignments,
            graph_size=graph_size,
            max_degree=max_degree,
            diff_density=1.0 / graph_size if graph_size else 1.0,
            bits_per_vertex=max_bits,
        )


def engine_costs(workload: Workload) -> Dict[str, float]:
    """Modelled cost of every engine on ``workload``, in compiled units.

    One unit is the compiled engine's full evaluation of one assignment on
    one vertex.  The formulas encode what each engine actually does:

    * ``legacy``/``compiled`` — every assignment re-verifies every vertex;
      they differ only by the measured constant (~11×, BENCH_engine).
    * ``delta`` — one full-evaluation setup, then each assignment touches
      only the closed neighbourhoods of its changed vertices
      (``diff_density·n`` changes × ``1+max_degree`` re-verifications,
      at the measured ~0.5× per-touch constant, BENCH_delta).
    * ``vector`` — on enumeration shapes: fill one ``2**m`` truth table per
      vertex (``m`` = local configuration bits), then sweep all assignments
      at the measured per-lane rate (~0.007×, BENCH_vector).  Local
      configurations beyond the table cutoff fall back to per-lane scalar
      evaluation, which is slower than compiled.  On non-enumeration shapes
      the engine still pays full per-lane evaluation with no counter
      structure to exploit — it never wins there.
    """
    # Exhaustive sweeps can describe 2**(bits·n) assignments — far beyond
    # float range; the routing decision is identical past this cap.
    a = float(min(workload.assignments, 1 << 62))
    n = float(workload.graph_size)
    degree = max(0, workload.max_degree)

    costs: Dict[str, float] = {}
    costs["legacy"] = a * n * _LEGACY
    costs["compiled"] = a * n * _COMPILED

    changes = max(1.0, workload.diff_density * n) if n else 1.0
    costs["delta"] = n * _DELTA_SETUP + a * changes * (1 + degree) * _DELTA_TOUCH

    if workload.shape == "enumeration" and workload.bits_per_vertex > 0:
        m = workload.bits_per_vertex * (1 + degree)
        if m <= _MODEL_TABLE_BITS:
            table_fill = n * float(1 << m) * _VECTOR_TABLE_FILL
            costs["vector"] = table_fill + a * n * _VECTOR_ENUM
        else:
            costs["vector"] = a * n * _VECTOR_BLOCK
    else:
        # No counter structure to exploit: the vector engine evaluates each
        # assignment per-lane, paying block-packing overhead on top.
        costs["vector"] = max(a, float(_MODEL_LANES)) * n * _VECTOR_BLOCK
    return costs


@functools.lru_cache(maxsize=4096)
def choose_engine(workload: Workload) -> str:
    """The cheapest engine of :data:`PLANNER_PREFERENCE` for ``workload``.

    Ties break toward the earlier entry.  Memoised: the planner sits on
    sub-millisecond hot paths (single-shot verifications), so routing a
    workload the process has already priced costs a dict lookup.
    """
    costs = engine_costs(workload)
    return min(PLANNER_PREFERENCE, key=lambda name: costs[name])
