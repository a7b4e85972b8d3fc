"""Golden wire corpus: request JSON → ``protocol.handle_line`` → response JSON.

Every case in ``wire_golden.json`` is one request line and what the service
answers to it.  Success payloads must match byte for byte once the
wall-clock ``elapsed_s`` fields are removed; error answers are compared by
``code`` and ``request_op``; the control-plane ops (``stats``, ``health``,
``cancel``), whose uptime and counters vary, are compared by the key set of
their ``result``.

Regenerate the data after a deliberate wire change with::

    PYTHONPATH=src python tests/service/test_wire_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.service.core import CertificationService
from repro.service.protocol import encode_line, handle_line

CORPUS_PATH = Path(__file__).with_name("wire_golden.json")

_FORMULA = "exists x. forall y. (x = y | x ~ y)"
_SWEEP = {"op": "sweep", "scheme": "tree", "family": "random-tree", "sizes": [6, 12], "trials": 5}

#: name → (request, how the answer is compared: "exact" | "error" | "keys").
CASES: Dict[str, Any] = {
    "certify-scheme": (
        {"op": "certify", "scheme": "treedepth", "params": {"t": 3}, "graph": "path:7"},
        "exact",
    ),
    "certify-formula": (
        {"op": "certify", "formula": _FORMULA, "params": {"t": 2}, "graph": "star:6"},
        "exact",
    ),
    "sweep-scheme": (_SWEEP, "exact"),
    "sweep-formula": (
        {"op": "sweep", "formula": _FORMULA, "params": {"t": 2}, "family": "star",
         "sizes": [4, 6], "trials": 3},
        "exact",
    ),
    "formula": (
        {"op": "formula", "formula": _FORMULA, "family": "star", "sizes": [4, 6], "trials": 3},
        "exact",
    ),
    "lower-bound-simulate": (
        {"op": "lower-bound", "construction": "automorphism", "sizes": [2, 3],
         "simulate": True},
        "exact",
    ),
    "radius": ({"op": "radius", "family": "path", "sizes": [3, 5, 8], "bound": 3}, "exact"),
    "batch": (
        {"op": "batch", "requests": [
            {"op": "certify", "scheme": "bipartite", "graph": "cycle:5", "trials": 4},
            {"op": "certify", "scheme": "tree", "graph": "path:5"},
            {"op": "sweep", "scheme": "nope", "family": "path", "sizes": [4]},
        ]},
        "exact",
    ),
    "stats": ({"op": "stats"}, "keys"),
    "health": ({"op": "health"}, "keys"),
    "cancel": ({"op": "cancel", "request_id": "nobody"}, "keys"),
    "sweep-unknown-scheme": ({**_SWEEP, "scheme": "nope"}, "error"),
    "lower-bound-unknown-construction": (
        {"op": "lower-bound", "construction": "nope", "sizes": [2]},
        "error",
    ),
    "sweep-bad-family": ({**_SWEEP, "family": "nope"}, "error"),
    "radius-bad-family": ({"op": "radius", "family": "nope", "sizes": [3]}, "error"),
    "sweep-bad-param": ({**_SWEEP, "scheme": "treedepth", "params": {"t": 0}}, "error"),
    "certify-invalid-formula": (
        {"op": "certify", "formula": "exists x. (", "graph": "path:3"},
        "error",
    ),
    "formula-invalid-formula": (
        {"op": "formula", "formula": "exists x. (", "family": "path", "sizes": [3]},
        "error",
    ),
    "sweep-formula-bad-knob": (
        {"op": "sweep", "formula": _FORMULA, "params": {"route": "nope"}, "family": "star",
         "sizes": [4]},
        "error",
    ),
    "sweep-formula-invalid-formula": (
        {"op": "sweep", "formula": "exists x. (", "family": "path", "sizes": [3]},
        "error",
    ),
    "sweep-formula-measure-size": (
        {"op": "sweep", "formula": _FORMULA, "family": "star", "sizes": [4],
         "measure": "size"},
        "error",
    ),
    "lower-bound-bad-param": (
        {"op": "lower-bound", "construction": "automorphism-by-n", "sizes": [4]},
        "error",
    ),
    "certify-invalid-graph": ({"op": "certify", "scheme": "tree", "graph": "nope:3"}, "error"),
    "sweep-invalid-graph": ({**_SWEEP, "family": "cycle", "sizes": [2]}, "error"),
    "formula-invalid-graph": (
        {"op": "formula", "formula": _FORMULA, "family": "cycle", "sizes": [2]},
        "error",
    ),
    "radius-invalid-graph": ({"op": "radius", "family": "cycle", "sizes": [2]}, "error"),
    "certify-bad-seed": (
        {"op": "certify", "scheme": "tree", "graph": "path:4", "seed": "zero"},
        "error",
    ),
    "sweep-unknown-field": ({**_SWEEP, "bogus": 1}, "error"),
    "sweep-sizes-not-integers": ({**_SWEEP, "sizes": ["a"]}, "error"),
    "unknown-op": ({"op": "teleport"}, "error"),
}


def _without_elapsed(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def _observed(answer: Dict[str, Any], check: str) -> Any:
    """The part of an answer the corpus pins, per comparison mode."""
    if check == "exact":
        return _without_elapsed(answer)
    if check == "error":
        return {"ok": answer["ok"], "code": answer.get("code"),
                "request_op": answer.get("request_op")}
    return {"ok": answer["ok"], "op": answer["op"], "result_keys": sorted(answer["result"])}


def _answer(service: CertificationService, request: Dict[str, Any]) -> Dict[str, Any]:
    line, keep_going = handle_line(service, encode_line(request))
    assert keep_going
    return json.loads(line)


@pytest.fixture(scope="module")
def corpus() -> Dict[str, Any]:
    return json.loads(CORPUS_PATH.read_text())


@pytest.fixture(scope="module")
def service():
    with CertificationService(workers=2) as svc:
        yield svc


def test_corpus_covers_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_wire_answer_matches_corpus(service, corpus, name):
    request, check = CASES[name]
    expected = corpus[name]
    assert expected["request"] == request
    observed = _observed(_answer(service, request), check)
    canonical = json.dumps(observed, sort_keys=True, separators=(",", ":"))
    assert canonical == json.dumps(expected["answer"], sort_keys=True, separators=(",", ":"))


def _regenerate() -> None:
    with CertificationService(workers=2) as svc:
        data = {
            name: {"request": request, "answer": _observed(_answer(svc, request), check)}
            for name, (request, check) in sorted(CASES.items())
        }
    CORPUS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
