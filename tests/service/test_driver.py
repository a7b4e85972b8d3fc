"""The fault-tolerant shard driver, from state machine to chaos harness."""

from __future__ import annotations

import contextlib
import json
import threading

import pytest

from repro.experiments import canonical_payload, run_lower_bound, run_sweep
from repro.experiments.kernel import KernelSpec
from repro.experiments.lower_bound import LowerBoundSpec
from repro.experiments.radius import RadiusSpec
from repro.experiments.spec import SweepSpec
from repro.service.core import CertificationService
from repro.service.driver import (
    DriveReport,
    DriverError,
    LocalFleet,
    ShardDriver,
    _DriveState,
    drive,
)
from repro.service.faults import FaultInjector
from repro.service.messages import LowerBoundRequest, RadiusRequest, SweepRequest
from repro.service.protocol import TCPProtocolServer


def sweep_spec(**overrides):
    params = dict(
        scheme="tree", family="random-tree", sizes=(6, 8, 10, 12), trials=2, seed=7
    )
    params.update(overrides)
    return SweepSpec(**params)


def canonical_bytes(result):
    return json.dumps(canonical_payload(result.to_dict()), sort_keys=True)


@contextlib.contextmanager
def tcp_workers(count, injectors=None, workers=2):
    """In-process TCP servers — a cheap stand-in for a subprocess fleet."""
    servers, threads, services = [], [], []
    try:
        for index in range(count):
            service = CertificationService(workers=workers)
            if injectors and index in injectors:
                service.fault_injector = injectors[index]
            server = TCPProtocolServer(service, port=0)
            thread = threading.Thread(
                target=server.serve_until_shutdown, daemon=True
            )
            thread.start()
            services.append(service)
            servers.append(server)
            threads.append(thread)
        yield [server.address for server in servers]
    finally:
        for server in servers:
            server.request_shutdown()
        for thread in threads:
            thread.join(timeout=5)
        for service in services:
            service.close()


class TestDriveState:
    def test_claims_in_order_and_counts_attempts(self):
        state = _DriveState(3, max_attempts=2, workers=["w"])
        assert [state.next_shard("w") for _ in range(3)] == [0, 1, 2]
        assert state.attempts == {0: 1, 1: 1, 2: 1}

    def test_drive_over_once_all_payloads_in(self):
        state = _DriveState(1, max_attempts=2, workers=["w"])
        state.next_shard("w")
        state.complete(0, "w", {"fake": True})
        assert state.finished()
        assert state.next_shard("w") is None

    def test_first_completion_wins_a_redispatch_race(self):
        state = _DriveState(1, max_attempts=3, workers=["a", "b"])
        state.next_shard("a")
        state.complete(0, "a", {"first": True})
        state.complete(0, "b", {"second": True})
        assert state.payloads[0] == {"first": True}
        assert state.assignments[0] == "a"

    def test_requeue_is_moot_after_completion(self):
        state = _DriveState(1, max_attempts=1, workers=["a", "b"])
        state.next_shard("a")
        state.complete(0, "b", {"done": True})
        # The presumed-dead first worker reports its failure late; the cap
        # (already reached) must not trip a fatal on a finished shard.
        state.requeue(0, "a", "transport: broke")
        assert state.fatal is None

    def test_requeue_past_the_attempt_cap_is_fatal(self):
        state = _DriveState(1, max_attempts=1, workers=["w"])
        state.next_shard("w")
        state.requeue(0, "w", "timeout: too slow")
        assert "giving up" in state.fatal

    def test_worker_loss_requeues_the_held_shard(self):
        state = _DriveState(2, max_attempts=3, workers=["a", "b"])
        index = state.next_shard("a")
        state.worker_lost("a", index, "transport: gone")
        assert index in state.queue
        assert state.lost == ["a"] and "b" in state.alive

    def test_losing_the_whole_fleet_is_fatal(self):
        state = _DriveState(2, max_attempts=3, workers=["a"])
        state.next_shard("a")
        state.worker_lost("a", 0, "transport: gone")
        assert "all 1 worker(s) lost" in state.fatal


class TestShardRequest:
    def test_sweep_spec_becomes_a_sweep_request(self):
        driver = ShardDriver(deadline_s=5.0)
        request = driver.shard_request(sweep_spec(processes=4), 1, 3)
        assert isinstance(request, SweepRequest)
        assert request.shard == (1, 3)
        assert request.deadline_s == 5.0
        assert request.request_id and "shard1of3" in request.request_id
        assert not hasattr(request, "processes")

    def test_request_ids_are_unique_per_dispatch(self):
        driver = ShardDriver()
        spec = sweep_spec()
        first = driver.shard_request(spec, 0, 2)
        second = driver.shard_request(spec, 0, 2)
        assert first.request_id != second.request_id

    def test_lower_bound_spec_becomes_a_lower_bound_request(self):
        request = ShardDriver().shard_request(
            LowerBoundSpec(construction="automorphism", sizes=(3, 5), seed=1), 0, 2
        )
        assert isinstance(request, LowerBoundRequest)
        assert request.shard == (0, 2)

    def test_radius_specs_shard_to_radius_requests(self):
        request = ShardDriver().shard_request(
            RadiusSpec(family="star", sizes=(8, 16), bound=3), 1, 2
        )
        assert isinstance(request, RadiusRequest)
        assert request.family == "star"
        assert request.sizes == (8, 16)
        assert request.bound == 3
        assert request.shard == (1, 2)

    def test_kinds_without_a_wire_op_are_refused(self):
        with pytest.raises(DriverError, match="cannot drive experiment kind 'kernel'"):
            ShardDriver().shard_request(KernelSpec(family="star", sizes=(8,), k=3), 0, 1)


class TestDriverValidation:
    def test_no_workers_is_an_error(self):
        with pytest.raises(DriverError, match="at least one worker"):
            ShardDriver().drive(sweep_spec(), [])

    def test_zero_shards_is_an_error(self):
        with pytest.raises(DriverError, match="at least 1"):
            ShardDriver().drive(sweep_spec(), [("127.0.0.1", 1)], shards=0)

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ShardDriver(deadline_s=0)

    def test_bad_attempt_cap_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ShardDriver(max_attempts=0)

    def test_redispatched_reads_off_the_attempt_counts(self):
        report = DriveReport(result=None, shards=3, attempts={0: 1, 1: 3, 2: 2})
        assert report.redispatched == (1, 2)


class TestDriveInProcess:
    """Drives against in-process TCP servers: fast, no subprocesses."""

    def test_driven_sweep_matches_the_unsharded_run(self):
        spec = sweep_spec()
        with tcp_workers(2) as addresses:
            report = drive(spec, addresses)
        assert report.shards == 2 and not report.workers_lost
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))

    def test_driven_lower_bound_matches_the_unsharded_run(self):
        spec = LowerBoundSpec(construction="automorphism", sizes=(3, 5, 8), seed=1)
        with tcp_workers(2) as addresses:
            report = drive(spec, addresses)
        assert canonical_bytes(report.result) == canonical_bytes(run_lower_bound(spec))

    def test_more_shards_than_workers_still_merges_exactly(self):
        spec = sweep_spec()
        with tcp_workers(2) as addresses:
            report = drive(spec, addresses, shards=4)
        assert report.shards == 4
        assert sorted(report.assignments) == [0, 1, 2, 3]
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))

    def test_single_worker_degradation_is_just_a_drive(self):
        spec = sweep_spec(sizes=(6, 8))
        with tcp_workers(1) as addresses:
            report = drive(spec, addresses, shards=2)
        assert set(report.assignments.values()) == {
            f"{addresses[0][0]}:{addresses[0][1]}"
        }

    def test_timeout_shard_is_redispatched_and_completes(self):
        spec = sweep_spec(sizes=(6, 8))
        injector = FaultInjector.parse(["freeze:op=sweep,nth=1,seconds=0"])
        with tcp_workers(1, injectors={0: injector}) as addresses:
            report = drive(spec, addresses, shards=2, deadline_s=0.5)
        # The frozen first dispatch answered a structured timeout, was
        # requeued, and the retry (no longer matching nth=1) completed.
        assert report.redispatched != ()
        assert any(event[0] == "retry" for event in report.events)
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))

    def test_permanent_error_aborts_the_drive(self):
        spec = sweep_spec(family="cycle", sizes=(2,), trials=1)
        with tcp_workers(1) as addresses:
            with pytest.raises(DriverError, match="invalid-graph"):
                drive(spec, addresses)

    def test_unreachable_fleet_raises_not_hangs(self):
        # Nothing listens on port 1; connect fails fast and the drive
        # reports the whole fleet lost.
        with pytest.raises(DriverError, match=r"worker\(s\) lost"):
            drive(
                sweep_spec(),
                [("127.0.0.1", 1)],
                connect_deadline_s=0.2,
            )


class TestShardDriveCli:
    def test_external_workers_produce_the_canonical_artifact(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments import write_artifact

        spec = sweep_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        driven = tmp_path / "driven.json"
        baseline = tmp_path / "baseline.json"
        write_artifact(run_sweep(spec), baseline, canonical=True)
        with tcp_workers(2) as addresses:
            code = main([
                "shard-drive", "--spec", str(spec_path),
                *[arg for host, port in addresses
                  for arg in ("--worker", f"{host}:{port}")],
                "--canonical", "--output", str(driven),
            ])
        assert code == 0
        assert driven.read_bytes() == baseline.read_bytes()
        out = capsys.readouterr().out
        # "across N worker(s)" counts workers that actually answered a
        # shard — legitimately 1 when one worker wins both claims.
        assert "2 shard(s) across" in out

    def test_fault_flags_require_a_spawned_fleet(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_spec().to_dict()))
        with pytest.raises(SystemExit, match="spawned fleet"):
            main([
                "shard-drive", "--spec", str(spec_path),
                "--worker", "127.0.0.1:9999", "--fault", "drop:nth=1",
            ])


class TestLocalFleetChaos:
    """The real thing: subprocess serve fleets and injected crashes."""

    def test_killed_worker_is_routed_around_byte_identically(self):
        spec = sweep_spec()
        with LocalFleet(2, faults={1: ["kill:op=sweep,nth=1"]}) as addresses:
            report = drive(spec, addresses, deadline_s=60.0)
        assert len(report.workers_lost) == 1
        assert report.redispatched != ()
        assert any(event[0] == "worker-lost" for event in report.events)
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))

    def test_fleet_member_that_cannot_start_is_a_driver_error(self):
        with pytest.raises(DriverError, match="failed to start"):
            LocalFleet(1, faults={0: ["notanaction"]}).start()

    def test_fleet_needs_at_least_one_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            LocalFleet(0)


class TestSplitState:
    """The work-item ledger: splitting, salvage, and attempt fencing."""

    def test_worker_death_splits_the_held_shard_across_survivors(self):
        state = _DriveState(
            2, max_attempts=5, workers=["a", "b", "c"], grid_size=6, split=True
        )
        index = state.next_shard("a")
        assert state.items[index].indices == (0, 2, 4)
        state.worker_lost("a", index, "transport: gone")
        # The remainder (all three points) went to the two survivors as
        # sub-shards that still tile the parent's strided index set.
        children = [state.items[i] for i in state.queue if i >= 2]
        assert len(children) == 2
        covered = sorted(g for child in children for g in child.indices)
        assert covered == [0, 2, 4]
        assert all(child.origin == index for child in children)
        assert state.shards_split == 1
        assert state.points_redispatched == 3
        assert index not in state.outstanding

    def test_salvaged_prefix_is_kept_and_only_the_remainder_splits(self):
        state = _DriveState(
            1, max_attempts=5, workers=["a", "b"], grid_size=4, split=True
        )
        index = state.next_shard("a")
        payload = {"fake": "salvage"}
        state.redistribute(
            index, "a", "timeout: deadline", attempt=1, salvaged=(2, payload)
        )
        # The finished prefix became a completed pseudo-item...
        pseudo = [i for i, p in state.payloads.items() if p is payload]
        assert len(pseudo) == 1
        assert state.items[pseudo[0]].indices == (0, 1)
        assert state.points_salvaged == 2
        # ...and only indices 2 and 3 are queued for re-verification.
        requeued = sorted(
            g for i in state.queue for g in state.items[i].indices
        )
        assert requeued == [2, 3]
        assert state.points_redispatched == 2
        assert state.shards_split == 1

    def test_split_without_salvage_or_survivors_degrades_to_requeue(self):
        state = _DriveState(
            1, max_attempts=5, workers=["a"], grid_size=4, split=True
        )
        index = state.next_shard("a")
        state.redistribute(index, "a", "timeout: deadline", attempt=1)
        # One worker, nothing salvaged: splitting would re-dispatch the
        # identical index set under a new id — a plain requeue instead.
        assert list(state.queue) == [index]
        assert state.shards_split == 0

    def test_late_answer_for_a_superseded_dispatch_is_discarded(self):
        # The fencing race: a presumed-dead worker answers after its shard
        # was split and completed elsewhere; the stale payload must not
        # merge twice.
        state = _DriveState(
            1, max_attempts=5, workers=["a", "b", "c"], grid_size=4, split=True
        )
        index = state.next_shard("a")
        state.suspect("a", index, "unreachable", attempt=1)
        children = list(state.queue)
        assert index not in state.outstanding and len(children) == 2
        for child in children:
            claimed = state.next_shard("b")
            state.complete(claimed, "b", {"child": claimed}, attempt=state.attempts[claimed])
        assert state.finished()
        before = dict(state.payloads)
        state.complete(index, "a", {"stale": True}, attempt=1)
        assert state.payloads == before
        assert any(event[0] == "superseded" for event in state.events)

    def test_stale_attempt_on_a_live_item_is_fenced(self):
        state = _DriveState(1, max_attempts=5, workers=["a", "b"])
        state.next_shard("a")
        state.requeue(0, "a", "transport: broke", attempt=1)
        assert state.next_shard("b") == 0  # attempt 2
        state.complete(0, "a", {"stale": True}, attempt=1)
        assert 0 not in state.payloads
        state.complete(0, "b", {"fresh": True}, attempt=2)
        assert state.payloads[0] == {"fresh": True}
        assert state.assignments[0] == "b"

    def test_report_attempts_folds_pieces_onto_the_origin_shard(self):
        state = _DriveState(
            1, max_attempts=5, workers=["a", "b"], grid_size=4, split=True
        )
        index = state.next_shard("a")
        state.redistribute(index, "a", "timeout", attempt=1, salvaged=(1, {"s": 1}))
        child = state.next_shard("b")
        assert child != index
        assert state.report_attempts() == {0: 2}

    def test_suspect_excludes_itself_from_the_survivor_count(self):
        state = _DriveState(
            1, max_attempts=5, workers=["a", "b"], grid_size=4, split=True
        )
        index = state.next_shard("a")
        state.suspect("a", index, "unreachable", attempt=1)
        # Only "b" survives, so the remainder stays whole (requeued), not
        # split into single-point pieces for a fleet of one.
        assert list(state.queue) == [index]


class TestRetirement:
    """Cooperative scale-down: request, confirm between requests, stop."""

    def test_retire_prefers_idle_and_never_the_last_active(self):
        state = _DriveState(2, max_attempts=3, workers=["a", "b", "c"])
        state.next_shard("a")
        target = state.request_retire()
        assert target in ("b", "c")  # "a" is busy
        # With only one non-retiring member left, no further retirement.
        state.request_retire()
        assert state.request_retire() is None

    def test_inflight_dispatch_lands_before_retirement_confirms(self):
        # The scale-down race: a worker marked for retirement while its
        # request is in flight must land the completion first.
        state = _DriveState(2, max_attempts=3, workers=["a", "b"])
        index_a = state.next_shard("a")
        index_b = state.next_shard("b")
        with state.cond:
            state.retiring.add("b")
        state.complete(index_b, "b", {"done": True}, attempt=1)
        assert state.payloads[index_b] == {"done": True}
        assert state.next_shard("b") is None  # now the retirement confirms
        assert state.retired == ["b"]
        assert state.drain_retired() == ["b"]
        state.complete(index_a, "a", {"done": True}, attempt=1)
        assert state.finished() and state.fatal is None

    def test_last_active_worker_cancels_its_own_retirement(self):
        state = _DriveState(1, max_attempts=3, workers=["a"])
        with state.cond:
            state.retiring.add("a")
        assert state.next_shard("a") == 0  # cancelled, kept working
        assert state.retired == []
        assert any(event[0] == "retire-cancelled" for event in state.events)


class TestSalvageSplitInProcess:
    """Straggler mitigation end to end, against in-process TCP workers."""

    def test_straggling_shard_salvages_prefix_and_splits_remainder(self):
        spec = sweep_spec()
        injectors = {
            0: FaultInjector.parse(["straggle:op=sweep,seconds=1.2"]),
            1: FaultInjector.parse(["straggle:op=sweep,seconds=1.2"]),
        }
        with tcp_workers(2, injectors=injectors) as addresses:
            report = drive(
                spec, addresses, shards=1, deadline_s=2.0, split=True
            )
        # The whole-grid shard timed out after ~2 finished points; the
        # prefix was salvaged and only the remainder re-verified.
        assert report.shards_split >= 1
        assert report.points_salvaged >= 1
        assert 0 < report.points_redispatched < len(spec.sizes)
        assert any(event[0] == "split" for event in report.events)
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))

    def test_partitioned_worker_is_suspected_not_buried_blindly(self):
        spec = sweep_spec(trials=3)
        injectors = {
            0: FaultInjector.parse(["partition:op=sweep,nth=1,seconds=4"]),
            1: FaultInjector.parse(["straggle:op=sweep,nth=1,seconds=0.2"]),
        }
        with tcp_workers(2, injectors=injectors) as addresses:
            report = drive(
                spec,
                addresses,
                shards=2,
                deadline_s=1.0,
                split=True,
                read_grace_s=0.5,
                request_retries=0,
                health_timeout_s=0.5,
                suspect_probes=2,
                suspect_backoff_s=0.2,
            )
        # The partitioned worker was reachable-but-silent: classified
        # suspect (not instantly dead), its shard redistributed, and the
        # merged artifact is still exact.
        assert any(event[0] == "suspect" for event in report.events)
        assert len(report.workers_lost) == 1
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))


class TestElasticChaos:
    """Elastic supervision over a real subprocess fleet."""

    def test_killed_member_is_replaced_and_the_drive_stays_exact(self):
        from repro.service.supervisor import FleetSupervisor

        spec = sweep_spec()
        fleet = LocalFleet(
            2,
            faults={
                0: ["kill:op=sweep,nth=1"],
                # The survivor straggles a little per point, keeping work in
                # the queue long enough for the replacement to matter.
                1: ["straggle:op=sweep,seconds=0.3"],
            },
        )
        supervisor = FleetSupervisor(
            fleet,
            min_workers=2,
            max_workers=2,
            respawn_budget=3,
            backoff_s=0.05,
            poll_interval_s=0.02,
        )
        with fleet as addresses:
            report = drive(
                spec, addresses, shards=4, split=True, supervisor=supervisor
            )
        assert len(report.workers_lost) == 1
        assert report.workers_spawned != ()
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))

    def test_replacements_that_die_immediately_exhaust_the_budget(self):
        # A fake fleet whose replacements point at a dead port: every spawn
        # "succeeds" but the member is unreachable, so each one is lost on
        # connect and the budget drains — while the real worker finishes.
        from repro.service.supervisor import FleetSupervisor

        class StillbornFleet:
            def __init__(self):
                self.spawned = 0

            def spawn_member(self):
                self.spawned += 1
                return ("127.0.0.1", 1), f"127.0.0.1:1#{self.spawned}"

            def stop_member(self, label):
                return True

            def reap_dead(self):
                return []

        spec = sweep_spec()
        fleet = StillbornFleet()
        supervisor = FleetSupervisor(
            fleet,
            min_workers=2,
            max_workers=2,
            respawn_budget=2,
            backoff_s=0.05,
            poll_interval_s=0.02,
        )
        injectors = {0: FaultInjector.parse(["straggle:op=sweep,seconds=0.3"])}
        with tcp_workers(1, injectors=injectors) as addresses:
            report = drive(
                spec,
                addresses,
                shards=4,
                supervisor=supervisor,
                connect_deadline_s=0.2,
            )
        # Both stillborn replacements were spawned, enlisted and lost; the
        # budget is gone but the surviving real worker completed the drive.
        assert fleet.spawned == 2
        assert not supervisor.can_spawn()
        assert len(report.workers_lost) == 2
        assert canonical_bytes(report.result) == canonical_bytes(run_sweep(spec))


class TestLocalFleetDiagnostics:
    def test_startup_death_surfaces_the_members_stderr(self):
        with pytest.raises(DriverError) as excinfo:
            LocalFleet(1, faults={0: ["notanaction"]}).start()
        message = str(excinfo.value)
        assert "failed to start" in message
        # The satellite fix: the child's actual complaint is in the error,
        # not just its exit code.
        assert "stderr tail" in message
        assert "notanaction" in message

    def test_stop_member_and_reap_dead_track_the_roster(self):
        fleet = LocalFleet(1)
        with fleet as addresses:
            label = f"{addresses[0][0]}:{addresses[0][1]}"
            assert fleet.reap_dead() == []
            assert fleet.stop_member(label) is True
            assert fleet.reap_dead() == [label]
            assert fleet.reap_dead() == []  # reported once
            assert fleet.stop_member("127.0.0.1:1") is False


class TestElasticCli:
    def test_elastic_requires_a_spawned_fleet(self, tmp_path):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_spec().to_dict()))
        with pytest.raises(SystemExit, match="spawned fleet"):
            main([
                "shard-drive", "--spec", str(spec_path),
                "--worker", "127.0.0.1:9999", "--elastic",
            ])
