"""Golden routing table for ``engine="auto"``.

Every cell of the grid below records which engine the cost model picks for
one workload descriptor.  The table pins routing across refactors of the
planner: the cost units are fixed module constants, so the same workload
must resolve to the same engine on every host and under every environment.

Each row is one ``(shape, graph_size, bits_per_vertex)`` triple; its value
holds one word per ``max_degree`` in :data:`DEGREES`, and each word one
letter per assignment count in :data:`ASSIGNMENTS`
(``c`` compiled, ``d`` delta, ``v`` vector).  ``single-shot`` always has one
assignment, so its words are a single letter.  ``bits_per_vertex`` only
matters for enumerations; 1..3 bits crosses the 12-bit truth-table cutoff
(``m = bits · (1 + max_degree)``).
"""

from __future__ import annotations

import json

import pytest

from repro.engines import AUTO_ENGINE, resolve_engine
from repro.planner import Workload

ASSIGNMENTS = (0, 1, 2, 3, 20, 3000, 1 << 13, 1 << 40)
DEGREES = (0, 1, 2, 3, 4, 5)
LETTERS = {"c": "compiled", "d": "delta", "v": "vector"}

GOLDEN = {
    ("single-shot", 0, 0): "c c c c c c",
    ("single-shot", 1, 0): "c c c c c c",
    ("single-shot", 2, 0): "c c c c c c",
    ("single-shot", 8, 0): "c c c c c c",
    ("single-shot", 48, 0): "c c c c c c",
    # Degree-0 batches route to delta: with no neighbours a full
    # re-verification costs one touch per vertex at the delta rate.
    ("batch", 0, 0): "cccccccc cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("batch", 1, 0): "cccddddd cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("batch", 2, 0): "cccddddd cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("batch", 8, 0): "cccddddd cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("batch", 48, 0): "cccddddd cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("sparse-diff", 0, 0): "cccccccc cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("sparse-diff", 1, 0): "cccddddd cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("sparse-diff", 2, 0): "ccdddddd cccddddd ccccdddd cccccccc cccccccc cccccccc",
    ("sparse-diff", 8, 0): "ccdddddd ccdddddd ccdddddd ccdddddd ccdddddd ccdddddd",
    ("sparse-diff", 48, 0): "ccdddddd ccdddddd ccdddddd ccdddddd ccdddddd ccdddddd",
    ("enumeration", 0, 1): "cccccccc cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("enumeration", 1, 1): "cccvvvvv ccccvvvv ccccvvvv ccccvvvv cccccvvv cccccvvv",
    ("enumeration", 2, 1): "ccddvvvv cccdvvvv ccccvvvv ccccvvvv cccccvvv cccccvvv",
    ("enumeration", 8, 1): "ccddvvvv ccdddvvv ccdddvvv ccdddvvv ccdddvvv ccdddvvv",
    ("enumeration", 48, 1): "ccdddvvv ccdddvvv ccdddvvv ccdddvvv ccdddvvv ccdddvvv",
    ("enumeration", 0, 2): "cccccccc cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("enumeration", 1, 2): "cccdvvvv ccccvvvv cccccvvv cccccvvv cccccvvv ccccccvv",
    ("enumeration", 2, 2): "ccddvvvv cccddvvv ccccdvvv cccccvvv cccccvvv ccccccvv",
    ("enumeration", 8, 2): "ccdddvvv ccdddvvv ccdddvvv ccdddvvv ccddddvv ccdddddv",
    ("enumeration", 48, 2): "ccdddvvv ccdddvvv ccdddvvv ccddddvv ccdddddv ccdddddv",
    # Three bits per vertex on degree >= 4 leaves m >= 15 > 12: no truth
    # tables, so vector drops to per-lane scalar evaluation and never wins.
    ("enumeration", 0, 3): "cccccccc cccccccc cccccccc cccccccc cccccccc cccccccc",
    ("enumeration", 1, 3): "cccdvvvv cccccvvv cccccvvv ccccccvv cccccccc cccccccc",
    ("enumeration", 2, 3): "ccdddvvv cccddvvv ccccdvvv ccccccvv cccccccc cccccccc",
    ("enumeration", 8, 3): "ccdddvvv ccdddvvv ccdddvvv ccdddddv ccdddddd ccdddddd",
    ("enumeration", 48, 3): "ccdddvvv ccddddvv ccdddddv ccdddddv ccdddddd ccdddddd",
}


def _workload(shape: str, assignments: int, n: int, degree: int, bits: int) -> Workload:
    if shape == "single-shot":
        return Workload.single_shot(n, max_degree=degree)
    if shape == "batch":
        return Workload.batch(assignments, n, max_degree=degree)
    if shape == "sparse-diff":
        return Workload.sparse_diff(assignments, n, max_degree=degree)
    return Workload.enumeration(assignments, n, max_degree=degree, max_bits=bits)


def _routed_row(shape: str, n: int, bits: int) -> str:
    counts = (1,) if shape == "single-shot" else ASSIGNMENTS
    initial = {name: letter for letter, name in LETTERS.items()}
    return " ".join(
        "".join(
            initial[resolve_engine(AUTO_ENGINE, _workload(shape, a, n, degree, bits))]
            for a in counts
        )
        for degree in DEGREES
    )


def _row_id(key) -> str:
    shape, n, bits = key
    return f"{shape}-n{n}-b{bits}"


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=_row_id)
def test_auto_routing_matches_golden(key):
    assert _routed_row(*key) == GOLDEN[key]


def test_grid_covers_every_shape():
    assert {shape for shape, _, _ in GOLDEN} == {
        "single-shot",
        "batch",
        "sparse-diff",
        "enumeration",
    }


def test_routing_ignores_calibration_environment(tmp_path, monkeypatch):
    # A per-host file pricing the vector engine at 100x must not steer
    # routing: the cost units are module constants, not per-host settings.
    path = tmp_path / "calibration.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "source": "slow-vector",
                "units": {
                    "legacy": 11.0,
                    "compiled": 1.0,
                    "delta_setup": 1.0,
                    "delta_touch": 0.52,
                    "vector_enum": 0.69,
                    "vector_block": 120.0,
                    "vector_table_fill": 100.0,
                },
                "max_table_bits": {"python": 12, "numpy": 14},
            }
        )
    )
    monkeypatch.setenv("REPRO_CALIBRATION", str(path))
    for key, expected in GOLDEN.items():
        assert _routed_row(*key) == expected, key
