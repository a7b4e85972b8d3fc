"""Self-tests of the benchmark's op streams.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import networkx as nx  # noqa: E402

import workloads  # noqa: E402
from repro.graphs.generators import build_graph_spec  # noqa: E402

ROUNDS = 40


def _cold(seed: int, rounds: int = ROUNDS):
    return list(itertools.chain.from_iterable(
        itertools.islice(workloads.certify_cold_rounds(seed), rounds)
    ))


def _requests(instances):
    return [instance.request() for instance in instances]


def test_same_seed_same_stream_and_other_seed_other_stream():
    assert _requests(_cold(3)) == _requests(_cold(3))
    assert _requests(_cold(3)) != _requests(_cold(4))
    working_a, rounds_a = workloads.batch_shared_plan(3)
    working_b, rounds_b = workloads.batch_shared_plan(3)
    assert _requests(working_a) == _requests(working_b)
    for a, b in zip(itertools.islice(rounds_a, 5), itertools.islice(rounds_b, 5)):
        assert [_requests(batch) for batch in a.batches] == [_requests(batch) for batch in b.batches]
    drives = lambda seed: [op.spec for op in itertools.islice(workloads.sweep_drive_ops(seed), 9)]
    assert drives(3) == drives(3)
    assert drives(3) != drives(4)


def test_certify_cold_never_repeats_a_cache_key():
    stream = _cold(5, rounds=80)
    structures = [instance.key[2] for instance in stream]
    # No graph structure twice: the holds, identifier, network and
    # graph-function caches all key on it, so every lookup is a miss.
    assert len(set(structures)) == len(structures)
    formulas = [instance.formula for instance in stream if instance.formula is not None]
    assert formulas and len(set(formulas)) == len(formulas)
    assert {instance.label for instance in stream} == set(workloads.LABELS)
    assert any(instance.expect for instance in stream)
    assert any(not instance.expect for instance in stream)


def test_expected_answers_match_the_graph_they_name():
    for instance in _cold(6, rounds=10):
        graph = build_graph_spec(instance.graph, seed=instance.seed)
        assert workloads.fingerprint(graph) == instance.key[2]
        if instance.label == "tree":
            assert instance.expect == nx.is_tree(graph)
        if instance.label == "bipartite":
            assert instance.expect == nx.is_bipartite(graph)
    # Constructions the stream relies on, checked once on small cases.
    assert workloads.path_treedepth(7) == 3 and workloads.path_treedepth(8) == 4
    assert workloads.tree_treedepth_upper(15) == 4 and workloads.tree_treedepth_upper(16) == 5
    chain = build_graph_spec("triangle-chain:5")
    assert workloads.has_cycle_of_length_at_least(chain, 3)
    assert not workloads.has_cycle_of_length_at_least(chain, 4)


def test_batch_shared_sharing_holds():
    working, rounds = workloads.batch_shared_plan(7)
    assert len(working) == workloads.WORKING_SET_SIZE
    working_keys = {instance.key for instance in working}
    seen_fresh = set()
    for plan in itertools.islice(rounds, 10):
        assert len(plan.batches) == workloads.CONNECTIONS
        fresh_keys = {instance.key for instance in plan.fresh}
        assert len(fresh_keys) == workloads.FRESH_PER_ROUND
        assert not fresh_keys & seen_fresh and not fresh_keys & working_keys
        seen_fresh |= fresh_keys
        for batch in plan.batches:
            keys = [instance.key for instance in batch]
            # Every connection asks every fresh instance ASKS_PER_BATCH times ...
            for key in fresh_keys:
                assert keys.count(key) == workloads.ASKS_PER_BATCH
            # ... and the rest re-asks the warm working set.
            assert len(keys) - len(fresh_keys) * workloads.ASKS_PER_BATCH == workloads.WARM_PER_BATCH
            assert set(keys) - fresh_keys <= working_keys
        fresh_asks = workloads.FRESH_PER_ROUND * workloads.ASKS_PER_BATCH * workloads.CONNECTIONS
        members = sum(len(batch) for batch in plan.batches)
        assert plan.shared_share() >= fresh_asks / members


def test_drive_points_are_judged_independently():
    ops = list(itertools.islice(workloads.sweep_drive_ops(1), 3))
    lower, bipartite, tree = ops
    assert workloads.drive_point_ok(lower, {"dichotomy_ok": True, "protocol_ok": True})
    assert not workloads.drive_point_ok(lower, {"dichotomy_ok": True, "protocol_ok": None})
    assert workloads.drive_point_ok(bipartite, {"n": 9, "holds": False, "soundness_ok": True})
    assert not workloads.drive_point_ok(bipartite, {"n": 9, "holds": True, "completeness_ok": True})
    assert not workloads.drive_point_ok(tree, {"n": 8, "holds": False, "soundness_ok": False})
