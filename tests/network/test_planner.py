"""Planner tests: cost-model routing, ``auto`` parity, end-to-end plumbing.

Three contracts:

* **prediction** — :func:`choose_engine` picks exactly the argmin of the
  fixed cost model (ties broken by :data:`PLANNER_PREFERENCE`) on
  synthetic workload descriptors of every shape (the full routing table is
  pinned in ``test_routing_golden.py``);
* **parity** — ``engine="auto"`` produces verdicts bit-identical to every
  fixed engine on every harness entry point (routing must never change a
  result, only its latency);
* **plumbing** — ``"auto"`` survives the spec JSON round-trip, the CLI
  ``--engine auto`` path and the wire ``engine`` field, with the resolved
  concrete engine reported back everywhere (``engine_resolved``).
"""

from __future__ import annotations

import json

import networkx as nx
import pytest

from repro.caching import clear_caches
from repro.cli import main
from repro.core.scheme import (
    evaluate_scheme,
    exhaustive_soundness_holds,
    soundness_under_corruption,
)
from repro.core.simple_schemes import BipartitenessScheme
from repro.core.spanning_tree import TreeScheme
from repro.engines import AUTO_ENGINE, CONCRETE_ENGINES, VALID_ENGINES, resolve_engine
from repro.experiments import ExperimentSpec, SweepSpec, load_artifact, run_sweep
from repro.graphs.generators import random_tree
from repro.planner import (
    PLANNER_PREFERENCE,
    WORKLOAD_SHAPES,
    Workload,
    choose_engine,
    engine_costs,
)
from repro.service.core import CertificationService
from repro.service.messages import CertifyRequest, response_from_dict


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()


# ---------------------------------------------------------------------------
# Workload descriptors and the cost model
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_constructors_cover_every_shape(self):
        workloads = [
            Workload.single_shot(16, max_degree=3),
            Workload.batch(20, 16, max_degree=3),
            Workload.sparse_diff(150, 16, max_degree=3),
            Workload.enumeration(1 << 16, 16, max_degree=2, max_bits=1),
        ]
        assert [w.shape for w in workloads] == list(WORKLOAD_SHAPES)

    def test_sparse_diff_density_defaults_to_one_vertex(self):
        assert Workload.sparse_diff(10, 25).diff_density == pytest.approx(1 / 25)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown workload shape"):
            Workload(shape="wat", assignments=1, graph_size=1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Workload(shape="batch", assignments=-1, graph_size=1)

    def test_huge_enumeration_does_not_overflow(self):
        # 2**(2 bits · 600 vertices) is far beyond float range; pricing and
        # routing must still work (the cap cannot change the argmin).
        workload = Workload.enumeration(
            (1 << 2) ** 600, 600, max_degree=2, max_bits=2
        )
        assert choose_engine(workload) in CONCRETE_ENGINES


class TestRoutingPrediction:
    """Resolved engines match the analytic prediction, shape by shape."""

    def test_single_shot_routes_compiled(self):
        assert choose_engine(Workload.single_shot(48, max_degree=4)) == "compiled"

    def test_batch_routes_compiled(self):
        assert choose_engine(Workload.batch(20, 48, max_degree=4)) == "compiled"

    def test_sparse_diff_routes_delta(self):
        assert choose_engine(Workload.sparse_diff(150, 48, max_degree=5)) == "delta"

    def test_large_enumeration_routes_vector(self):
        workload = Workload.enumeration(1 << 13, 13, max_degree=2, max_bits=1)
        assert choose_engine(workload) == "vector"

    def test_tiny_enumeration_avoids_vector_table_fill(self):
        # 16 assignments over 4 vertices: the 2**m truth tables cost more
        # than sweeping the handful of assignments incrementally.
        workload = Workload.enumeration(16, 4, max_degree=2, max_bits=1)
        assert choose_engine(workload) != "vector"

    def test_choice_is_the_cost_argmin_with_preference_tie_break(self):
        grid = [
            Workload.single_shot(n, max_degree=d)
            for n in (1, 8, 64, 512)
            for d in (0, 3)
        ] + [
            Workload.batch(a, 32, max_degree=3)
            for a in (1, 5, 50, 500)
        ] + [
            Workload.sparse_diff(a, n, max_degree=4)
            for a in (10, 200)
            for n in (8, 128)
        ] + [
            Workload.enumeration((1 << b) ** n, n, max_degree=2, max_bits=b)
            for n in (4, 10, 16)
            for b in (1, 2)
        ]
        for workload in grid:
            costs = engine_costs(workload)
            best = min(costs.values())
            expected = next(
                name for name in PLANNER_PREFERENCE if costs[name] == best
            )
            assert choose_engine(workload) == expected, workload

    def test_legacy_is_never_chosen(self):
        # The reference engine is strictly dominated in the shipped model.
        for workload in (
            Workload.single_shot(1),
            Workload.batch(1000, 256, max_degree=8),
            Workload.sparse_diff(500, 64, max_degree=6),
            Workload.enumeration(1 << 20, 20, max_degree=2, max_bits=1),
        ):
            assert choose_engine(workload) != "legacy"

    def test_routing_ignores_numpy_availability(self):
        # The model prices the python backend on purpose: the same workload
        # must resolve identically on numpy-present and numpy-absent hosts.
        workload = Workload.enumeration(1 << 13, 13, max_degree=2, max_bits=1)
        costs = engine_costs(workload)
        assert "vector" in costs  # priced without importing numpy at all


class TestResolveEngine:
    def test_fixed_engines_pass_through(self):
        workload = Workload.sparse_diff(150, 48, max_degree=5)
        for engine in CONCRETE_ENGINES:
            assert resolve_engine(engine, workload) == engine

    def test_auto_with_workload_routes(self):
        workload = Workload.sparse_diff(150, 48, max_degree=5)
        assert resolve_engine(AUTO_ENGINE, workload) == "delta"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("turbo", Workload.single_shot(8))

    def test_auto_is_a_valid_engine_name(self):
        assert AUTO_ENGINE in VALID_ENGINES
        assert AUTO_ENGINE not in CONCRETE_ENGINES


# ---------------------------------------------------------------------------
# Auto parity: four shapes x four engines, bit-identical verdicts
# ---------------------------------------------------------------------------


def _evaluation_fields(report):
    """Everything a SchemeEvaluation asserts, minus routing metadata."""
    return (
        report.holds,
        report.completeness_ok,
        report.soundness_ok,
        report.max_certificate_bits,
        report.rejecting_vertices,
    )


class TestAutoParity:
    @pytest.mark.parametrize("engine", CONCRETE_ENGINES)
    def test_single_shot_yes_instance(self, engine):
        scheme = TreeScheme()
        graph = random_tree(12, seed=5)
        fixed = evaluate_scheme(scheme, graph, seed=5, engine=engine)
        clear_caches()
        auto = evaluate_scheme(scheme, graph, seed=5, engine="auto")
        assert _evaluation_fields(auto) == _evaluation_fields(fixed)
        assert auto.engine_resolved in CONCRETE_ENGINES
        assert fixed.engine_resolved == engine

    @pytest.mark.parametrize("engine", CONCRETE_ENGINES)
    def test_batch_no_instance(self, engine):
        scheme = TreeScheme()
        graph = nx.cycle_graph(9)  # connected, has a cycle: a no-instance
        fixed = evaluate_scheme(
            scheme, graph, seed=5, adversarial_trials=12, engine=engine
        )
        clear_caches()
        auto = evaluate_scheme(
            scheme, graph, seed=5, adversarial_trials=12, engine="auto"
        )
        assert _evaluation_fields(auto) == _evaluation_fields(fixed)
        assert auto.holds is False

    @pytest.mark.parametrize("engine", CONCRETE_ENGINES)
    def test_sparse_corruption(self, engine):
        scheme = TreeScheme()
        graph = random_tree(14, seed=3)
        fixed = soundness_under_corruption(
            scheme, graph, trials=25, seed=3, engine=engine
        )
        clear_caches()
        auto = soundness_under_corruption(
            scheme, graph, trials=25, seed=3, engine="auto"
        )
        assert auto == fixed

    @pytest.mark.parametrize("engine", CONCRETE_ENGINES)
    def test_enumeration_exhaustive(self, engine):
        scheme = BipartitenessScheme()
        graph = nx.cycle_graph(5)  # odd cycle: a genuine no-instance
        fixed = exhaustive_soundness_holds(scheme, graph, max_bits=1, engine=engine)
        clear_caches()
        auto = exhaustive_soundness_holds(scheme, graph, max_bits=1, engine="auto")
        assert auto == fixed is True


# ---------------------------------------------------------------------------
# Plumbing: spec JSON, CLI, wire
# ---------------------------------------------------------------------------


class TestSpecPlumbing:
    def test_sweep_spec_defaults_to_auto(self):
        spec = SweepSpec(scheme="tree", family="random-tree", sizes=(6, 8))
        assert spec.engine == "auto"
        assert spec.validate() is spec

    def test_auto_round_trips_through_spec_json(self):
        spec = SweepSpec(
            scheme="tree", family="random-tree", sizes=(6, 8), engine="auto"
        )
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.engine == "auto"

    def test_run_sweep_records_resolved_engines(self):
        spec = SweepSpec(
            scheme="tree", family="random-tree", sizes=(6, 10), trials=5, engine="auto"
        )
        result = run_sweep(spec)
        for point in result.points:
            assert point.engine_resolved in CONCRETE_ENGINES
        # engine_resolved survives the artifact dict round-trip.
        clone = type(result).from_dict(json.loads(json.dumps(result.to_dict())))
        assert [p.engine_resolved for p in clone.points] == [
            p.engine_resolved for p in result.points
        ]

    def test_pre_planner_artifacts_still_load(self):
        spec = SweepSpec(
            scheme="tree", family="random-tree", sizes=(6,), trials=3, engine="compiled"
        )
        result = run_sweep(spec)
        payload = result.to_dict()
        for point in payload["points"]:
            del point["engine_resolved"]  # what a PR-7 artifact looks like
        clone = type(result).from_dict(payload)
        assert all(p.engine_resolved is None for p in clone.points)


class TestCliPlumbing:
    def test_cli_engine_auto_writes_routed_artifact(self, tmp_path):
        output = tmp_path / "sweep_auto.json"
        status = main(
            [
                "sweep",
                "--scheme", "tree",
                "--family", "random-tree",
                "--sizes", "6,10",
                "--trials", "5",
                "--engine", "auto",
                "--output", str(output),
            ]
        )
        assert status == 0
        result = load_artifact(output)
        assert result.spec.engine == "auto"
        assert all(p.engine_resolved in CONCRETE_ENGINES for p in result.points)

    def test_cli_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--scheme", "tree",
                    "--family", "random-tree",
                    "--sizes", "6",
                    "--engine", "warp",
                ]
            )


class TestWirePlumbing:
    def test_certify_auto_reports_engine_resolved(self):
        with CertificationService(workers=1) as service:
            response = service.certify(
                CertifyRequest(scheme="tree", graph="random-tree:12", engine="auto")
            )
            assert response.ok
            assert response.engine == "auto"
            assert response.engine_resolved in CONCRETE_ENGINES
            # ... and it survives the wire round-trip.
            clone = response_from_dict(json.loads(json.dumps(response.to_dict())))
            assert clone.engine_resolved == response.engine_resolved

    def test_auto_is_the_wire_default(self):
        assert CertifyRequest(scheme="tree", graph="path:4").engine == "auto"

    def test_routing_counters_in_stats(self):
        with CertificationService(workers=1) as service:
            before = service.stats()["service"]["routing"]
            assert before == {}
            service.certify(
                CertifyRequest(scheme="tree", graph="random-tree:12", engine="auto")
            )
            routing = service.stats()["service"]["routing"]
            assert sum(routing.values()) == 1
            assert set(routing) <= set(CONCRETE_ENGINES)
