"""The JSON-lines wire protocol, and its parity with the CLI."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.cli import main
from repro.service.client import ServiceClient
from repro.service.core import CertificationService
from repro.service.messages import CertifyRequest
from repro.service.protocol import (
    TCPProtocolServer,
    encode_line,
    handle_line,
    serve_stdio,
)


@pytest.fixture()
def service():
    with CertificationService(workers=1) as svc:
        yield svc


def _lines(requests):
    return "".join(encode_line(r) for r in requests)


class TestHandleLine:
    def test_certify_line(self, service):
        line, keep_going = handle_line(
            service, encode_line({"op": "certify", "scheme": "tree", "graph": "path:4"})
        )
        assert keep_going
        payload = json.loads(line)
        assert payload["ok"] is True and payload["result"]["accepted"] is True

    def test_malformed_json_is_answered_not_fatal(self, service):
        line, keep_going = handle_line(service, "{not json\n")
        assert keep_going
        payload = json.loads(line)
        assert payload["ok"] is False and payload["code"] == "invalid-request"

    def test_non_object_and_unknown_op(self, service):
        for raw in ("[1,2]\n", encode_line({"op": "teleport"})):
            line, keep_going = handle_line(service, raw)
            assert keep_going and json.loads(line)["code"] == "invalid-request"

    @pytest.mark.parametrize("request_data", [
        # Parseable JSON whose field values do not coerce: each must be
        # answered with an error response, never crash the server.
        {"op": "certify", "scheme": "tree", "graph": "path:4", "params": "abc"},
        {"op": "sweep", "scheme": "tree", "family": "path", "sizes": ["a"]},
        {"op": "certify", "scheme": ["x"], "graph": "path:4"},
        {"op": "certify", "scheme": "tree", "graph": "path:4", "seed": "zero"},
    ])
    def test_malformed_field_values_are_answered_not_fatal(self, service, request_data):
        line, keep_going = handle_line(service, encode_line(request_data))
        assert keep_going
        payload = json.loads(line)
        assert payload["ok"] is False
        assert payload["code"] in ("invalid-request", "invalid-param", "internal-error")

    def test_shutdown_is_acknowledged_and_stops(self, service):
        line, keep_going = handle_line(service, encode_line({"op": "shutdown"}))
        assert not keep_going
        assert json.loads(line) == {"ok": True, "op": "shutdown"}

    def test_responses_are_single_compact_lines(self, service):
        line, _ = handle_line(
            service, encode_line({"op": "certify", "scheme": "tree", "graph": "path:4"})
        )
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert ": " not in line  # compact separators


_MALFORMED_BASES = {
    "certify": {"op": "certify", "scheme": "tree", "graph": "path:4"},
    "sweep": {"op": "sweep", "scheme": "tree", "family": "path", "sizes": [4], "trials": 2},
    "formula": {"op": "formula", "formula": "exists x. x = x", "family": "star",
                "sizes": [4], "trials": 2},
    "lower-bound": {"op": "lower-bound", "construction": "automorphism", "sizes": [2]},
    "radius": {"op": "radius", "family": "path", "sizes": [3]},
}
_INT_FIELDS = {
    "certify": ("seed", "trials"),
    "sweep": ("trials", "seed", "id_exponent"),
    "formula": ("t", "k", "trials", "seed"),
    "lower-bound": ("simulate_bits", "max_side_bits", "seed"),
    "radius": ("bound", "radius", "seed"),
}
_MALFORMED_CASES = [
    (op, name, bad)
    for op, names in _INT_FIELDS.items()
    for name in names
    for bad in ("5", 1.5, True)
] + [
    (op, "sizes", bad)
    for op in ("sweep", "formula", "lower-bound", "radius")
    for bad in ("48", [8.9, True], ["4"], 5)
]


class TestMalformedIntegerFields:
    """A wrong-typed integer field is the sender's fault: ``invalid-request``
    for that op, never an ``internal-error`` and never a coerced run."""

    @pytest.mark.parametrize(("op", "name", "bad"), _MALFORMED_CASES)
    def test_answered_invalid_request_for_the_op(self, service, op, name, bad):
        line, keep_going = handle_line(
            service, encode_line({**_MALFORMED_BASES[op], name: bad})
        )
        payload = json.loads(line)
        assert keep_going and payload["ok"] is False
        assert (payload["code"], payload["request_op"]) == ("invalid-request", op)
        assert payload["message"].startswith(f"{name} must be ")

    def test_well_typed_bases_run(self, service):
        for request in _MALFORMED_BASES.values():
            line, _ = handle_line(service, encode_line(request))
            assert json.loads(line)["ok"] is True, line


class TestBatchOp:
    def test_batch_answers_every_member_in_order(self, service):
        line, keep_going = handle_line(service, encode_line({
            "op": "batch",
            "requests": [
                {"op": "certify", "scheme": "tree", "graph": "path:4"},
                {"op": "certify", "scheme": "nope", "graph": "path:4"},
                {"op": "stats"},
            ],
        }))
        assert keep_going
        payload = json.loads(line)
        assert payload["ok"] is True and payload["op"] == "batch"
        members = payload["responses"]
        assert [m["op"] for m in members] == ["certify", "error", "stats"]
        assert members[0]["result"]["accepted"] is True
        assert members[1]["code"] == "unknown-scheme"

    def test_batch_stop_on_failure_skips_queued_members(self, service):
        requests = [{"op": "certify", "scheme": "nope", "graph": "path:4"}]
        requests += [
            {"op": "certify", "scheme": "tree", "graph": f"random-tree:{8 + i}"}
            for i in range(30)
        ]
        line, _ = handle_line(service, encode_line({
            "op": "batch", "stop_on_failure": True, "requests": requests,
        }))
        members = json.loads(line)["responses"]
        assert members[0]["code"] == "unknown-scheme"
        assert len(members) == len(requests)
        skipped = [m for m in members[1:] if m.get("code") == "skipped"]
        assert skipped, "no queued member was cancelled after the failure"

    @pytest.mark.parametrize("request_data", [
        {"op": "batch", "requests": [{"op": "batch", "requests": []}]},  # nesting
        {"op": "batch", "requests": [{"op": "shutdown"}]},
        {"op": "batch", "requests": "abc"},
        {"op": "batch", "requests": [{"op": "teleport"}]},
        {"op": "batch", "requests": [], "stop_on_failure": "yes"},
        {"op": "batch", "requests": [], "bogus": 1},
    ])
    def test_malformed_batches_are_answered_not_fatal(self, service, request_data):
        line, keep_going = handle_line(service, encode_line(request_data))
        assert keep_going
        payload = json.loads(line)
        assert payload["ok"] is False and payload["code"] == "invalid-request"

    def test_empty_batch_is_answered_empty(self, service):
        line, _ = handle_line(service, encode_line({"op": "batch", "requests": []}))
        assert json.loads(line)["responses"] == []


class TestRequestSizeLimit:
    def test_oversized_line_answered_and_session_keeps_serving(self, service):
        stdin = io.StringIO(
            "x" * 4000 + "\n"
            + encode_line({"op": "certify", "scheme": "tree", "graph": "path:4"})
        )
        stdout = io.StringIO()
        answered = serve_stdio(service, stdin, stdout, max_request_bytes=1024)
        assert answered == 2
        first, second = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert first["ok"] is False and first["code"] == "invalid-request"
        assert "1024" in first["message"]
        assert second["result"]["accepted"] is True

    def test_oversized_unterminated_line_then_eof(self, service):
        stdin = io.StringIO("y" * 5000)  # no trailing newline, ever
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout, max_request_bytes=512) == 1
        assert json.loads(stdout.getvalue())["code"] == "invalid-request"

    def test_limit_counts_bytes_not_characters_on_text_streams(self, service):
        # 400 three-byte characters: within the char cap, over the byte cap.
        stdin = io.StringIO("€" * 400 + "\n")
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout, max_request_bytes=1024) == 1
        assert json.loads(stdout.getvalue())["code"] == "invalid-request"

    def test_lines_within_the_limit_are_untouched(self, service):
        request = encode_line({"op": "certify", "scheme": "tree", "graph": "path:4"})
        stdout = io.StringIO()
        answered = serve_stdio(
            service, io.StringIO(request), stdout, max_request_bytes=len(request)
        )
        assert answered == 1
        assert json.loads(stdout.getvalue())["result"]["accepted"] is True


class TestServeStdio:
    def test_batch_then_eof(self, service):
        stdin = io.StringIO(_lines([
            {"op": "certify", "scheme": "tree", "graph": "path:4"},
            {"op": "certify", "scheme": "treedepth", "params": {"t": 0}, "graph": "path:4"},
            {"op": "stats"},
        ]) + "\n")  # trailing blank line must be harmless
        stdout = io.StringIO()
        answered = serve_stdio(service, stdin, stdout)
        assert answered == 3
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert responses[0]["result"]["holds"] is True
        assert responses[1]["code"] == "invalid-param"
        assert responses[2]["result"]["service"]["requests"]["certify"] == 1

    def test_shutdown_stops_before_later_lines(self, service):
        stdin = io.StringIO(_lines([
            {"op": "shutdown"},
            {"op": "certify", "scheme": "tree", "graph": "path:4"},
        ]))
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout) == 1
        assert json.loads(stdout.getvalue()) == {"ok": True, "op": "shutdown"}


class TestFramingEdgeCases:
    """Torture cases at the line-framing layer (ISSUE 6 satellite)."""

    def test_final_line_missing_its_newline_is_still_answered(self, service):
        # A sender that exits right after the last request may never flush
        # the trailing newline; readline returns the line at EOF anyway.
        stdin = io.StringIO(encode_line({"op": "stats"}).rstrip("\n"))
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout) == 1
        assert json.loads(stdout.getvalue())["ok"] is True

    def test_final_line_truncated_mid_object_is_an_invalid_request(self, service):
        full = encode_line({"op": "certify", "scheme": "tree", "graph": "path:4"})
        stdin = io.StringIO(full[: len(full) // 2])  # cut inside the object
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout) == 1
        assert json.loads(stdout.getvalue())["code"] == "invalid-request"

    def test_interleaved_oversized_and_valid_lines_stay_synchronised(self, service):
        stdin = io.StringIO(
            "z" * 600 + "\n"
            + encode_line({"op": "stats"})
            + "z" * 700 + "\n"
            + encode_line({"op": "stats"})
        )
        stdout = io.StringIO()
        assert serve_stdio(service, stdin, stdout, max_request_bytes=512) == 4
        codes = [
            json.loads(line).get("code") for line in stdout.getvalue().splitlines()
        ]
        # Strict alternation: every oversized line is answered in place and
        # the next valid request is neither eaten nor misframed.
        assert codes == ["invalid-request", None, "invalid-request", None]


class TestShutdownRacesInFlightBatch:
    def test_batch_completes_even_when_shutdown_lands_mid_flight(self):
        with CertificationService(workers=2) as service:
            server = TCPProtocolServer(service, port=0)
            serve_thread = threading.Thread(
                target=server.serve_until_shutdown, daemon=True
            )
            serve_thread.start()
            host, port = server.address
            outcome = {}

            def run_batch():
                client = ServiceClient.connect(host, port)
                try:
                    outcome["responses"] = client.submit_many([
                        CertifyRequest(scheme="tree", graph=f"random-tree:{10 + i}")
                        for i in range(12)
                    ])
                finally:
                    client.close()

            batch_thread = threading.Thread(target=run_batch)
            batch_thread.start()
            time.sleep(0.05)  # let the batch reach the server first
            other = ServiceClient.connect(host, port)
            assert other.shutdown()
            other.close()
            batch_thread.join(timeout=60)
            serve_thread.join(timeout=10)
            assert not batch_thread.is_alive() and not serve_thread.is_alive()
            # The already-running batch connection was not torn down by the
            # listener's shutdown: every member answered.
            responses = outcome["responses"]
            assert isinstance(responses, list) and len(responses) == 12
            assert all(r.ok for r in responses)


class TestStatsUnderConcurrentSubmitters:
    def test_request_counters_add_up_exactly(self):
        submitters, per_thread = 4, 6
        with CertificationService(workers=4) as service:
            def submit():
                for i in range(per_thread):
                    response = service.respond(
                        CertifyRequest(scheme="tree", graph=f"random-tree:{6 + i}")
                    )
                    assert response.ok
            threads = [threading.Thread(target=submit) for _ in range(submitters)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            requests = service.stats()["service"]["requests"]
        assert requests["certify"] == submitters * per_thread
        assert requests["errors"] == 0
        assert requests["replayed"] == 0


class TestCliServeParity:
    """Acceptance: ``certify --json`` and the wire protocol may not drift."""

    CASES = [
        (["--scheme", "treedepth", "--param", "t=3", "--graph", "path:7"],
         {"op": "certify", "scheme": "treedepth", "params": {"t": "3"}, "graph": "path:7"}),
        (["--scheme", "bipartite", "--graph", "cycle:5", "--seed", "3"],
         {"op": "certify", "scheme": "bipartite", "graph": "cycle:5", "seed": 3}),
        (["--scheme", "tree", "--graph", "random-tree:9", "--verbose"],
         {"op": "certify", "scheme": "tree", "graph": "random-tree:9",
          "include_certificates": True}),
        (["--formula", "exists x. forall y. (x = y | x ~ y)",
          "--param", "t=2", "--graph", "star:8"],
         {"op": "certify", "formula": "exists x. forall y. (x = y | x ~ y)",
          "params": {"t": "2"}, "graph": "star:8"}),
    ]

    @pytest.mark.parametrize("cli_args, wire_request", CASES)
    def test_byte_identical_verdicts(self, capsys, service, cli_args, wire_request):
        assert main(["certify", *cli_args, "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        line, _ = handle_line(service, encode_line(wire_request))
        wire_payload = json.loads(line)["result"]
        cli_bytes = json.dumps(cli_payload, sort_keys=True).encode()
        wire_bytes = json.dumps(wire_payload, sort_keys=True).encode()
        assert cli_bytes == wire_bytes

    def test_shared_code_path(self, service, monkeypatch):
        """Both surfaces call CertificationService.certify — literally."""
        calls = []
        original = CertificationService.certify

        def spy(self, request, **kwargs):
            calls.append(request)
            return original(self, request, **kwargs)

        monkeypatch.setattr(CertificationService, "certify", spy)
        main(["certify", "--scheme", "tree", "--graph", "path:4", "--json"])
        handle_line(service, encode_line({"op": "certify", "scheme": "tree",
                                          "graph": "path:4"}))
        assert len(calls) == 2
        assert calls[0] == calls[1] == CertifyRequest(scheme="tree", graph="path:4")
