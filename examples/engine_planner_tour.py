"""Scenario: a tour of the workload-aware engine planner (PR 8).

With four verification engines in the stack — legacy, compiled, delta,
vector — every harness call faces a routing question: which one wins
*this* workload?  ``engine="auto"`` (now the default everywhere) answers
it with a fixed cost model over a small :class:`~repro.planner.Workload`
descriptor — shape, assignment count, graph size, degree, diff density.
The cost units are constants, so routing is a pure function of the workload
and resolves identically on every host; ``engine=`` pins an engine when a
caller wants a specific one.

The routing-decision table the model encodes:

    workload shape    typical call                             winner    why
    ----------------  ---------------------------------------  --------  ----------------------------------------
    single-shot       evaluate_scheme(trials=0)                compiled  one pass; everything else is setup cost
    batch             evaluate_scheme(adversarial_trials=k)    compiled  independent assignments, early exit
    sparse-diff       soundness_under_corruption(...)          delta     re-verifies only touched neighbourhoods
    enumeration (big) exhaustive_soundness_holds(...)          vector    thousands of lanes per bitwise op
    enumeration (tiny)  ... when 2^m table fill > sweep cost   delta     truth tables cost more than the sweep
    (any)             —                                        legacy    never routed: reference semantics only

The tour covers:

1. **Asking the planner directly** — build a ``Workload``, read the
   per-engine modelled costs (``engine_costs``) and the routed engine
   (``choose_engine``);
2. **The one-line version** — ``engine="auto"`` on the harness, with the
   resolved engine reported back on the evaluation.

Run with::

    python examples/engine_planner_tour.py
"""

from __future__ import annotations

import time

import networkx as nx

from repro.core.scheme import (
    evaluate_scheme,
    exhaustive_soundness_holds,
    soundness_under_corruption,
)
from repro.core.simple_schemes import BipartitenessScheme
from repro.core.spanning_tree import TreeScheme
from repro.graphs.generators import random_tree
from repro.planner import Workload, choose_engine, engine_costs


def main() -> None:
    # 1. Ask the planner directly: one descriptor per workload shape.
    workloads = [
        ("single-shot ", Workload.single_shot(48, max_degree=4)),
        ("batch       ", Workload.batch(50, 48, max_degree=4)),
        ("sparse-diff ", Workload.sparse_diff(150, 48, max_degree=4)),
        ("enum (2^13) ", Workload.enumeration(1 << 13, 13, max_degree=2, max_bits=1)),
        ("enum (2^4)  ", Workload.enumeration(1 << 4, 4, max_degree=2, max_bits=1)),
    ]
    print("shape         routed    relative predicted costs")
    for label, workload in workloads:
        costs = engine_costs(workload)
        floor = min(costs.values())
        relative = "  ".join(
            f"{name} x{costs[name] / floor:.1f}" for name in sorted(costs)
        )
        print(f"{label}  {choose_engine(workload):<8}  {relative}")

    # 2. The one-line version: auto is the default on every harness entry
    # point; the evaluation reports which concrete engine actually ran.
    tree = random_tree(48, seed=7)
    report = evaluate_scheme(TreeScheme(), tree, seed=7)
    print(f"\nevaluate_scheme(..., engine='auto'): holds={report.holds}, "
          f"ran on {report.engine_resolved!r}")

    odd_cycle = nx.cycle_graph(13)
    started = time.perf_counter()
    sound = exhaustive_soundness_holds(BipartitenessScheme(), odd_cycle, max_bits=1)
    auto_ms = (time.perf_counter() - started) * 1000
    started = time.perf_counter()
    exhaustive_soundness_holds(
        BipartitenessScheme(), odd_cycle, max_bits=1, engine="legacy"
    )
    legacy_ms = (time.perf_counter() - started) * 1000
    print(f"exhaustive sweep (2^13): auto {auto_ms:.1f} ms vs "
          f"legacy {legacy_ms:.1f} ms (x{legacy_ms / auto_ms:.0f}) -> sound={sound}")

    corrupted = soundness_under_corruption(TreeScheme(), tree, trials=150, seed=7)
    print(f"corruption sweep: auto routes to delta, sound={corrupted}")

    # Fixed engines stay available for pinning (engine="vector" etc.), and
    # artifacts record engine_resolved so the results gate can flag drift.
    pinned = soundness_under_corruption(
        TreeScheme(), tree, trials=150, seed=7, engine="compiled"
    )
    print(f"pinned engine='compiled': same verdict {pinned == corrupted}")


if __name__ == "__main__":
    main()
