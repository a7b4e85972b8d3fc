"""Planner benchmark: does ``engine="auto"`` actually pick winners?

Times every fixed engine and the planner-routed ``auto`` on a grid of the
workload shapes the cost model distinguishes:

* ``enumeration``  — exhaustive soundness on an odd cycle: every one-bit
  certificate assignment, the vector engine's home turf (and the legacy
  engine's worst case);
* ``sparse``       — neighbourhood-local corruption sweeps, where the delta
  engine re-verifies only the touched closed neighbourhoods and the vector
  engine's fixed lane blocks are pure overhead;
* ``single-shot``  — one honest-prover verification, where the compiled
  engine's compile-once topology wins and everything else is setup cost;
* ``batch``        — thousands of independent adversarial trials on a
  no-instance (bipartiteness on an odd cycle), the shape of a no-instance
  sweep point: the compiled engine's per-assignment early exit settles each
  trial at its first rejecting vertex, so it beats delta and vector here —
  the measured reason compiled is one of the engines ``auto`` routes to.

**Two enforced bars** (the run exits non-zero otherwise):

* on *every* cell, ``auto`` finishes within ``WITHIN_BEST_BAR``× of the best
  fixed engine for that cell — routing overhead and misrouting both count;
* on at least one enumeration cell *and* at least one sparse cell, ``auto``
  beats the worst fixed engine by ``WORST_SPEEDUP_BAR``× — the planner must
  not merely match a reasonable default, it must dodge the pathological one.

Within a cell the engines' timing samples are interleaved round by round
(rotating the order), so machine noise hits every engine alike and the bars
compare routing, not scheduling.

The enumeration cells also report the vector engine's kernel compilation
(``used_fallback`` from the truth-table compiler) and a per-backend row for
every available lane backend; CI runs this benchmark in both the
numpy-present and numpy-absent matrix legs, so both backend worlds enforce
the same bars.

Results are printed and written to ``BENCH_planner.json`` next to
``BENCH_vector.json``.

Usage::

    python benchmarks/bench_planner.py           # full measurement
    python benchmarks/bench_planner.py --quick   # CI smoke variant
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.caching import clear_caches  # noqa: E402
from repro.core.cache import cached_compiled_network, cached_identifiers  # noqa: E402
from repro.core.scheme import (  # noqa: E402
    evaluate_scheme,
    exhaustive_soundness_holds,
    soundness_under_corruption,
)
from repro.core.simple_schemes import BipartitenessScheme  # noqa: E402
from repro.core.spanning_tree import TreeScheme  # noqa: E402
from repro.engines import CONCRETE_ENGINES  # noqa: E402
from repro.graphs.generators import random_tree  # noqa: E402
from repro.network.vector import VectorNetwork, resolve_backend  # noqa: E402
from repro.planner import Workload, choose_engine  # noqa: E402

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

#: ``auto`` must finish within this factor of the best fixed engine, on
#: every cell of the grid.
WITHIN_BEST_BAR = 1.15

#: ``auto`` must beat the worst fixed engine by this factor on at least one
#: enumeration cell and at least one sparse cell.
WORST_SPEEDUP_BAR = 3.0


def _repeats(fn, quick: bool) -> int:
    """Calls per timed sample, after one untimed warmup.

    The warmup pays the one-time costs shared by every engine (compilation,
    ground truth); cheap calls are batched until a sample is long enough to
    time meaningfully — a 1.15× bar on a millisecond kernel needs it.
    """
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-9)
    target_s = 0.01 if quick else 0.025
    return max(1, min(int(target_s / once), 200))


def _sample(fn, repeats: int) -> float:
    """Per-call seconds of one sample of ``repeats`` back-to-back calls."""
    begin = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - begin) / repeats


def _rounds(quick: bool) -> int:
    """Samples per engine: each one a chance to catch a quiet stretch."""
    return 11 if quick else 15


def _percall(fn, quick: bool) -> float:
    """Best-of-samples per-call seconds (the minimum damps scheduler noise)."""
    repeats = _repeats(fn, quick)
    return min(_sample(fn, repeats) for _ in range(_rounds(quick)))


def _available_backends() -> tuple:
    backends = ["python"]
    try:
        resolve_backend("numpy")
    except ValueError:
        pass
    else:
        backends.append("numpy")
    return tuple(backends)


def _time_cell(run, workload: Workload, quick: bool) -> dict:
    """Time every fixed engine plus ``auto`` on one workload cell.

    The samples are interleaved: every round times each engine and ``auto``
    once, in an order rotated per round, and each keeps its minimum.  Noise
    from the machine (another process, a frequency step) then lands on all
    of them alike instead of on whichever one was timed during a noisy
    stretch, so a sub-millisecond cell compares routing, not scheduling.
    """
    names = CONCRETE_ENGINES + ("auto",)
    calls = {name: functools.partial(run, name) for name in names}
    clear_caches()
    repeats = {name: _repeats(calls[name], quick) for name in names}
    best = dict.fromkeys(names, float("inf"))
    for round_index in range(_rounds(quick)):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            best[name] = min(best[name], _sample(calls[name], repeats[name]))
    auto_s = best.pop("auto")
    engines = best
    best_fixed = min(engines, key=engines.get)
    worst_fixed = max(engines, key=engines.get)
    return {
        "engines": engines,
        "auto_s": auto_s,
        "routed": choose_engine(workload),
        "best_fixed": best_fixed,
        "best_fixed_s": engines[best_fixed],
        "worst_fixed": worst_fixed,
        "worst_fixed_s": engines[worst_fixed],
        "within_best": auto_s / engines[best_fixed],
        "speedup_vs_worst": engines[worst_fixed] / auto_s,
    }


def enumeration_cell(n: int, quick: bool) -> dict:
    """Exhaustive soundness of bipartiteness on an odd cycle (2**n space)."""
    scheme = BipartitenessScheme()
    graph = nx.cycle_graph(n)

    def run(engine: str) -> None:
        assert exhaustive_soundness_holds(scheme, graph, max_bits=1, engine=engine)

    workload = Workload.enumeration(1 << n, n, max_degree=2, max_bits=1)
    cell = {"shape": "enumeration", "label": f"cycle:{n}", "n": n, "assignments": 1 << n}
    cell.update(_time_cell(run, workload, quick))

    # The vector engine's own account of the cell: which verifier kernels
    # compiled to constants/tables and whether any fell back to scalar.
    clear_caches()
    network = cached_compiled_network(graph, cached_identifiers(graph, 0))
    vector = VectorNetwork(network)
    assert not vector.any_accepted_exhaustive(scheme.verify, 1)
    cell["vector_report"] = vector.last_exhaustive_report
    return cell


def sparse_cell(n: int, trials: int, quick: bool) -> dict:
    """Neighbourhood-local corruption sweeps on a random tree."""
    scheme = TreeScheme()
    graph = random_tree(n, seed=7)
    verdicts = set()

    def run(engine: str) -> None:
        verdicts.add(soundness_under_corruption(scheme, graph, trials=trials, seed=7, engine=engine))

    workload = Workload.sparse_diff(
        trials, n, max((d for _, d in graph.degree()), default=0)
    )
    cell = {"shape": "sparse", "label": f"random-tree:{n}", "n": n, "trials": trials}
    cell.update(_time_cell(run, workload, quick))
    assert len(verdicts) == 1, f"engines disagreed on soundness: {verdicts}"
    cell["sound"] = verdicts.pop()
    return cell


def single_shot_cell(n: int, quick: bool) -> dict:
    """One honest-prover verification of a yes-instance."""
    scheme = TreeScheme()
    graph = random_tree(n, seed=7)

    def run(engine: str) -> None:
        report = evaluate_scheme(scheme, graph, seed=7, adversarial_trials=0, engine=engine)
        assert report.holds and report.completeness_ok

    workload = Workload.single_shot(n, max((d for _, d in graph.degree()), default=0))
    cell = {"shape": "single-shot", "label": f"random-tree:{n}", "n": n}
    cell.update(_time_cell(run, workload, quick))
    return cell


def batch_cell(n: int, trials: int, quick: bool) -> dict:
    """Adversarial trials on a no-instance: bipartiteness on an odd cycle."""
    scheme = BipartitenessScheme()
    graph = nx.cycle_graph(n)

    def run(engine: str) -> None:
        report = evaluate_scheme(scheme, graph, seed=7, adversarial_trials=trials, engine=engine)
        assert not report.holds and report.soundness_ok

    workload = Workload.batch(trials, n, max_degree=2)
    cell = {"shape": "batch", "label": f"cycle:{n}", "n": n, "trials": trials}
    cell.update(_time_cell(run, workload, quick))
    return cell


def bench_backends(n: int, quick: bool) -> dict:
    """The enumeration kernel pinned to each available lane backend."""
    scheme = BipartitenessScheme()
    graph = nx.cycle_graph(n)
    rows = {}
    for backend in _available_backends():
        clear_caches()
        network = cached_compiled_network(graph, cached_identifiers(graph, 0))
        vector = VectorNetwork(network, backend=backend)

        def run() -> None:
            assert not vector.any_accepted_exhaustive(scheme.verify, 1)

        elapsed = _percall(run, quick)
        rows[backend] = {
            "block_lanes": vector.block_lanes,
            "percall_s": elapsed,
            "report": vector.last_exhaustive_report,
        }
    return {"n": n, "backends": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_PATH,
        help=f"where to write the JSON report (default: {RESULTS_PATH})",
    )
    args = parser.parse_args(argv)
    quick = args.quick

    if quick:
        cells = [
            enumeration_cell(11, quick),
            enumeration_cell(13, quick),
            sparse_cell(48, 150, quick),
            single_shot_cell(48, quick),
            batch_cell(9, 3000, quick),
        ]
    else:
        cells = [
            enumeration_cell(13, quick),
            enumeration_cell(15, quick),
            sparse_cell(48, 150, quick),
            sparse_cell(96, 300, quick),
            single_shot_cell(48, quick),
            single_shot_cell(128, quick),
            batch_cell(9, 3000, quick),
            batch_cell(21, 3000, quick),
        ]

    report = {
        "benchmark": "planner",
        "quick": quick,
        "python": sys.version.split()[0],
        "lane_backends": list(_available_backends()),
        "within_best_bar": WITHIN_BEST_BAR,
        "worst_speedup_bar": WORST_SPEEDUP_BAR,
        "cells": cells,
        "backends": bench_backends(13 if quick else 15, quick),
    }

    print("\n[planner: auto vs every fixed engine]")
    for cell in cells:
        fixed = "  ".join(f"{name} {cell['engines'][name]:9.6f}s" for name in CONCRETE_ENGINES)
        print(f"  {cell['shape']:<12} {cell['label']:<16} {fixed}")
        print(
            f"  {'':<12} {'':<16} auto {cell['auto_s']:9.6f}s -> {cell['routed']:<8} "
            f"(best {cell['best_fixed']} x{cell['within_best']:.2f}, "
            f"worst {cell['worst_fixed']} x{cell['speedup_vs_worst']:.1f})"
        )
    for backend, row in report["backends"]["backends"].items():
        print(
            f"  {'backend':<12} {backend:<16} {row['percall_s']:.6f}s/call "
            f"({row['block_lanes']} lanes/block, "
            f"fallback={row['report']['used_fallback']})"
        )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    failures = []
    for cell in cells:
        if cell["auto_s"] > WITHIN_BEST_BAR * cell["best_fixed_s"]:
            failures.append(
                f"{cell['shape']} {cell['label']}: auto is "
                f"{cell['within_best']:.2f}x the best fixed engine "
                f"({cell['best_fixed']}), above the {WITHIN_BEST_BAR}x bar"
            )
    for shape in ("enumeration", "sparse"):
        shaped = [cell for cell in cells if cell["shape"] == shape]
        if not any(cell["speedup_vs_worst"] >= WORST_SPEEDUP_BAR for cell in shaped):
            worst = max(cell["speedup_vs_worst"] for cell in shaped)
            failures.append(
                f"no {shape} cell beat its worst fixed engine by "
                f"{WORST_SPEEDUP_BAR}x (best achieved: {worst:.1f}x)"
            )
    if failures:
        for failure in failures:
            print(f"FAILED: {failure}")
        return 1
    print(
        f"planner bars OK: auto within {WITHIN_BEST_BAR}x of best everywhere, "
        f">={WORST_SPEEDUP_BAR}x over the worst on enumeration and sparse cells"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
