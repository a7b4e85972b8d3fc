"""The long-lived service: verdicts, structured errors, cache reuse, batching."""

from __future__ import annotations

import threading
import time

import networkx as nx
import pytest

from repro.caching import clear_caches
from repro.service.core import CertificationService
from repro.service.faults import FaultInjector
from repro.service.messages import (
    CancelRequest,
    CertifyRequest,
    CertifyResponse,
    ErrorResponse,
    HealthRequest,
    StatsRequest,
    SweepRequest,
    SweepResponse,
)


@pytest.fixture()
def service():
    with CertificationService(workers=2) as svc:
        yield svc


class TestCertify:
    def test_yes_instance_verdict(self, service):
        response = service.certify(
            CertifyRequest(scheme="treedepth", graph="path:7", params={"t": 3})
        )
        assert isinstance(response, CertifyResponse)
        assert response.holds and response.accepted and response.sound is None
        assert response.max_certificate_bits > 0
        assert response.registry_key == "treedepth"
        assert response.bound == "O(t log n)"

    def test_no_instance_verdict(self, service):
        response = service.certify(CertifyRequest(scheme="bipartite", graph="cycle:5"))
        assert isinstance(response, CertifyResponse)
        assert response.holds is False and response.sound is True
        assert response.accepted is None

    def test_in_process_graph_object(self, service):
        request = CertifyRequest(scheme="tree", graph="<handed over>")
        response = service.certify(request, graph=nx.path_graph(5))
        assert isinstance(response, CertifyResponse)
        assert response.accepted and response.graph == "<handed over>"

    def test_certificates_on_request(self, service):
        response = service.certify(
            CertifyRequest(scheme="tree", graph="path:4", include_certificates=True)
        )
        assert set(response.certificates) == {repr(v) for v in range(4)}
        for entry in response.certificates.values():
            assert set(entry) == {"id", "hex"}


class TestStructuredErrors:
    def test_unknown_scheme_has_code_and_suggestion(self, service):
        response = service.certify(CertifyRequest(scheme="treedepht", graph="path:4"))
        assert isinstance(response, ErrorResponse)
        assert response.code == "unknown-scheme"
        assert "did you mean" in response.message and "treedepth" in response.message

    def test_param_validation_failure(self, service):
        response = service.certify(
            CertifyRequest(scheme="treedepth", graph="path:4", params={"t": 0})
        )
        assert response.code == "invalid-param"
        response = service.certify(
            CertifyRequest(scheme="tree", graph="path:4", params={"bogus": 1})
        )
        assert response.code == "invalid-param"

    def test_unresolvable_graph(self, service):
        response = service.certify(CertifyRequest(scheme="tree", graph="nebula:7"))
        assert response.code == "invalid-graph"
        response = service.certify(CertifyRequest(scheme="tree", graph="file:/no/such"))
        assert response.code == "invalid-graph" and "does not exist" in response.message

    def test_undecidable_ground_truth_is_an_error_response(self, service):
        """Satellite regression: ``holds()`` raising ValueError (exact
        treedepth beyond its reach) must come back as data, not a traceback."""
        response = service.certify(
            CertifyRequest(scheme="treedepth", graph="path:64", params={"t": 7})
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "undecidable"
        assert "model_builder" in response.message

    def test_bad_engine_and_trials(self, service):
        # An unknown engine no longer makes it past message construction:
        # the typed request validates against the shared VALID_ENGINES list.
        with pytest.raises(ValueError, match="quantum"):
            CertifyRequest(scheme="tree", graph="path:4", engine="quantum")
        assert service.certify(
            CertifyRequest(scheme="tree", graph="path:4", trials=-1)
        ).code == "invalid-param"

    def test_errors_are_counted(self, service):
        service.certify(CertifyRequest(scheme="nope", graph="path:4"))
        assert service.stats()["service"]["requests"]["errors"] == 1


class TestCacheReuse:
    def test_second_request_hits_topology_and_holds_caches(self):
        """Satellite: the whole point of the service — the second request for
        the same (graph, seed) must reuse compiled topology, identifiers and
        ground truth, observable on ``stats()`` counters."""
        clear_caches()
        with CertificationService() as service:
            request = CertifyRequest(scheme="treedepth", graph="path:7", params={"t": 3})
            first = service.certify(request)
            after_first = service.stats()["caches_since_start"]
            second = service.certify(request)
            after_second = service.stats()["caches_since_start"]
        assert first == second
        for cache in ("networks", "holds", "identifiers"):
            assert after_second[cache]["hits"] > after_first[cache]["hits"], cache
            assert after_second[cache]["misses"] == after_first[cache]["misses"], cache

    def test_scheme_instances_are_reused_across_requests(self):
        clear_caches()
        with CertificationService() as service:
            request = CertifyRequest(scheme="treedepth", graph="path:7", params={"t": 3})
            service.certify(request)
            service.certify(request)
            assert service.stats()["schemes_cached"] == 1

    def test_different_seed_misses_identifier_cache_but_shares_holds(self):
        clear_caches()
        with CertificationService() as service:
            service.certify(CertifyRequest(scheme="tree", graph="path:6", seed=0))
            before = service.stats()["caches_since_start"]
            service.certify(CertifyRequest(scheme="tree", graph="path:6", seed=1))
            after = service.stats()["caches_since_start"]
        assert after["identifiers"]["misses"] == before["identifiers"]["misses"] + 1
        assert after["holds"]["hits"] == before["holds"]["hits"] + 1


class TestSweepAndStats:
    def test_sweep_request_returns_artifact_payload(self, service):
        response = service.handle(
            SweepRequest(scheme="tree", family="random-tree", sizes=(4, 8), trials=3)
        )
        assert isinstance(response, SweepResponse)
        assert response.clean and set(response.series) == {4, 8}
        assert response.result["spec"]["scheme"] == "tree"
        assert response.result["bound"]["ok"] is True

    def test_sweep_error_mapping(self, service):
        assert service.handle(
            SweepRequest(scheme="nope", family="path", sizes=(4,))
        ).code == "unknown-scheme"
        assert service.handle(
            SweepRequest(scheme="tree", family="nebula", sizes=(4,))
        ).code == "invalid-param"

    def test_stats_request_through_handle(self, service):
        service.certify(CertifyRequest(scheme="tree", graph="path:4"))
        response = service.handle(StatsRequest())
        assert response.ok and response.result["service"]["requests"]["certify"] == 1


class TestBatching:
    def test_submit_many_preserves_order(self, service):
        requests = [
            CertifyRequest(scheme="tree", graph="path:4"),
            CertifyRequest(scheme="bipartite", graph="cycle:5"),
            CertifyRequest(scheme="tree", graph="path:6"),
        ]
        responses = service.submit_many(requests)
        assert [r.vertices for r in responses] == [4, 5, 6]
        assert all(isinstance(r, CertifyResponse) for r in responses)

    def test_submit_many_stop_on_failure_skips_the_tail(self, service):
        requests = [CertifyRequest(scheme="tree", graph="path:4")]
        requests += [CertifyRequest(scheme="nope", graph="path:4")]
        # Enough tail work that some of it is still queued when the error
        # lands (2 workers, 30 queued requests).
        requests += [CertifyRequest(scheme="tree", graph=f"random-tree:{8 + i}")
                     for i in range(30)]
        responses = service.submit_many(requests, stop_on_failure=True)
        assert isinstance(responses[0], CertifyResponse)
        assert responses[1].code == "unknown-scheme"
        skipped = [r for r in responses[2:]
                   if isinstance(r, ErrorResponse) and r.code == "skipped"]
        assert skipped, "no queued request was cancelled after the failure"
        assert len(responses) == len(requests)

    def test_batches_cannot_ride_the_worker_pool(self, service):
        """Queuing a batch would deadlock a saturated pool — rejected."""
        from repro.service.messages import BatchRequest

        batch = BatchRequest(requests=(CertifyRequest(scheme="tree", graph="path:4"),))
        with pytest.raises(ValueError, match="batch"):
            service.submit(batch)
        with pytest.raises(ValueError, match="batches"):
            service.submit_many([batch])
        # handle() is the sanctioned entry point and must still work.
        response = service.handle(batch)
        assert response.ok and response.responses[0].accepted

    def test_submit_after_close_raises(self):
        service = CertificationService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(CertifyRequest(scheme="tree", graph="path:4"))
        # Synchronous calls still work on a closed service.
        assert service.certify(CertifyRequest(scheme="tree", graph="path:4")).accepted

class TestDeadlines:
    """respond()'s fault-tolerance contract: expiry answers, never hangs."""

    def test_deadline_expiry_is_a_structured_timeout(self, service):
        service.fault_injector = FaultInjector.parse(["freeze:op=certify,seconds=0"])
        response = service.respond(
            CertifyRequest(scheme="tree", graph="path:4", deadline_s=0.2)
        )
        assert isinstance(response, ErrorResponse)
        assert response.code == "timeout" and response.request_op == "certify"
        assert service.stats()["service"]["requests"]["timeouts"] == 1

    def test_default_deadline_covers_requests_without_one(self):
        with CertificationService(workers=1, default_deadline_s=0.2) as service:
            service.fault_injector = FaultInjector.parse(["freeze:op=certify,seconds=0"])
            response = service.respond(CertifyRequest(scheme="tree", graph="path:4"))
            assert response.code == "timeout"

    def test_requests_faster_than_their_deadline_are_untouched(self, service):
        response = service.respond(
            CertifyRequest(scheme="tree", graph="path:4", deadline_s=30.0)
        )
        assert response.ok and response.accepted


class TestIdempotentReplay:
    def test_same_request_id_replays_without_rerunning(self, service):
        request = CertifyRequest(scheme="tree", graph="path:4", request_id="rq-1")
        first = service.respond(request)
        second = service.respond(request)
        assert first == second
        counters = service.stats()["service"]["requests"]
        assert counters["certify"] == 1 and counters["replayed"] == 1

    def test_stopped_responses_are_not_replayable(self, service):
        # A timeout answer must not be cached: retrying that id is a fresh
        # attempt, not a duplicate delivery of the failure.
        service.fault_injector = FaultInjector.parse(
            ["freeze:op=certify,nth=1,seconds=0"]
        )
        request = CertifyRequest(
            scheme="tree", graph="path:4", request_id="rq-2", deadline_s=0.2
        )
        assert service.respond(request).code == "timeout"
        retry = service.respond(request)
        assert retry.ok and retry.accepted
        assert service.stats()["service"]["requests"]["replayed"] == 0


class TestCancelOp:
    def test_cancel_of_an_unknown_id(self, service):
        response = service.respond(CancelRequest(request_id="ghost"))
        assert response.result == {
            "request_id": "ghost", "cancelled": False, "state": "unknown",
        }

    def test_cancel_of_a_finished_id(self, service):
        service.respond(
            CertifyRequest(scheme="tree", graph="path:4", request_id="done-1")
        )
        response = service.respond(CancelRequest(request_id="done-1"))
        assert response.result["state"] == "finished"
        assert response.result["cancelled"] is False

    def test_cancel_stops_a_running_request(self):
        with CertificationService(workers=1) as service:
            service.fault_injector = FaultInjector.parse(
                ["freeze:op=certify,seconds=30"]
            )
            outcome = {}

            def run():
                outcome["response"] = service.respond(
                    CertifyRequest(scheme="tree", graph="path:4", request_id="long-1")
                )

            thread = threading.Thread(target=run)
            thread.start()
            cancel = None
            deadline_at = time.monotonic() + 5
            while time.monotonic() < deadline_at:
                candidate = service.respond(CancelRequest(request_id="long-1"))
                if candidate.result["cancelled"]:
                    cancel = candidate
                    break
                time.sleep(0.01)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert cancel is not None and cancel.result["state"] == "running"
            assert outcome["response"].code == "cancelled"

    def test_cancel_pulls_a_queued_request_before_it_runs(self):
        with CertificationService(workers=1) as service:
            # The single worker is wedged by the first request; the second
            # sits queued behind it and must be cancellable while queued.
            service.fault_injector = FaultInjector.parse(
                ["freeze:op=certify,seconds=30"]
            )
            results = {}

            def run(name, request_id):
                results[name] = service.respond(
                    CertifyRequest(
                        scheme="tree", graph="path:4", request_id=request_id
                    )
                )

            busy = threading.Thread(target=run, args=("busy", "busy-1"))
            busy.start()
            waiting = threading.Thread(target=run, args=("waiting", "waiting-1"))
            waiting.start()
            deadline_at = time.monotonic() + 5
            while time.monotonic() < deadline_at:
                with service._inflight_lock:
                    entry = service._inflight.get("waiting-1")
                if entry is not None and entry.future is not None:
                    break
                time.sleep(0.01)
            cancel = service.respond(CancelRequest(request_id="waiting-1"))
            assert cancel.result["cancelled"] is True
            assert cancel.result["state"] == "queued"
            waiting.join(timeout=10)
            assert results["waiting"].code == "cancelled"
            # Unwedge the worker so teardown does not wait out the freeze.
            service.respond(CancelRequest(request_id="busy-1"))
            busy.join(timeout=10)
            assert results["busy"].code == "cancelled"


class TestHealthOp:
    def test_health_reports_liveness_and_load(self, service):
        response = service.respond(HealthRequest())
        result = response.result
        assert result["ok"] is True and result["workers"] == 2
        assert result["queue_depth"] == 0 and result["inflight"] == 0
        assert result["uptime_s"] >= 0
        assert "requests" in result and result["default_deadline_s"] is None

    def test_health_reports_not_ok_once_closed(self):
        service = CertificationService(workers=1)
        service.close()
        assert service.health().result["ok"] is False
