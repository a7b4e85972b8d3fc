"""Tests for declarative lower-bound searches and the radius experiment kind."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    LowerBoundSpec,
    RadiusSpec,
    load_artifact,
    run_lower_bound,
    run_lower_bound_point,
    run_radius,
    write_artifact,
)
import repro.lower_bounds.framework as framework_module
from repro.engines import resolve_engine
from repro.lower_bounds.catalog import LOWER_BOUND_CONSTRUCTIONS, get_construction
from repro.lower_bounds.framework import ReductionFramework
from repro.registry import RegistryError


class TestLowerBoundSpec:
    def test_roundtrip_through_dict(self):
        spec = LowerBoundSpec(
            construction="treedepth", sizes=(2, 4), check_dichotomy=False, seed=3
        )
        assert LowerBoundSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["kind"] == "lower-bound"

    def test_unknown_construction_rejected(self):
        with pytest.raises(RegistryError, match="construction"):
            LowerBoundSpec(construction="quantum", sizes=(3,)).validate()

    def test_closed_form_construction_needs_dichotomy_off(self):
        with pytest.raises(RegistryError, match="closed-form"):
            LowerBoundSpec(construction="automorphism-by-n", sizes=(64,)).validate()
        LowerBoundSpec(
            construction="automorphism-by-n", sizes=(64,), check_dichotomy=False
        ).validate()

    def test_sizes_below_encoding_capacity_rejected(self):
        # A matching on 1 element encodes 0 bits — no string pair to draw.
        with pytest.raises(RegistryError, match="single"):
            LowerBoundSpec(construction="treedepth", sizes=(1,)).validate()

    def test_unknown_engine_rejected(self):
        with pytest.raises(RegistryError, match="engine") as excinfo:
            LowerBoundSpec(
                construction="automorphism", sizes=(3,), engine="quantum"
            ).validate()
        # The error enumerates exactly the engines lower-bound specs accept
        # (no legacy path here — the simulation always compiles).
        message = str(excinfo.value)
        for engine in ("compiled", "delta", "vector"):
            assert repr(engine) in message
        assert repr("legacy") not in message

    def test_vector_engine_accepted(self):
        spec = LowerBoundSpec(
            construction="automorphism", sizes=(3,), engine="vector"
        ).validate()
        assert LowerBoundSpec.from_dict(spec.to_dict()) == spec

    def test_engine_field_roundtrips_and_defaults(self):
        spec = LowerBoundSpec(construction="automorphism", sizes=(3,), engine="delta")
        assert LowerBoundSpec.from_dict(spec.to_dict()) == spec
        # Artifacts written before the engine switch re-hydrate with the default.
        payload = spec.to_dict()
        payload.pop("engine")
        assert LowerBoundSpec.from_dict(payload).engine == "auto"

    def test_catalogue_entries_are_consistent(self):
        for key, construction in LOWER_BOUND_CONSTRUCTIONS.items():
            assert construction.key == key
            assert construction.bound.label
            assert construction.capacity(8) >= 0
            assert construction.spread(8) >= 1
            assert get_construction(key) is construction


class TestRunLowerBound:
    def test_automorphism_dichotomy_over_grid(self):
        result = run_lower_bound(
            LowerBoundSpec(construction="automorphism", sizes=(3, 5, 8), seed=1)
        )
        assert result.all_ok
        assert all(point.dichotomy_ok for point in result.points)
        assert [point.ell for point in result.points] == [3, 5, 8]
        assert all(point.r == 2 for point in result.points)
        # The bound series is linear in ℓ and within the Ω(ℓ) band.
        assert result.bound is not None and result.bound.ok

    def test_treedepth_dichotomy_and_simulation_on_tiny_gadget(self):
        result = run_lower_bound(
            LowerBoundSpec(construction="treedepth", sizes=(2,), simulate=True)
        )
        point = result.points[0]
        assert point.dichotomy_ok is True
        assert point.protocol_ok is True
        assert point.vertices == 17  # the Figure 3 gadget at n = 2

    def test_simulation_engines_produce_identical_points(self):
        """The gate's delta-engine search must match the compiled one
        point-for-point (the engine only changes how the sweep runs)."""
        results = {
            engine: run_lower_bound(
                LowerBoundSpec(
                    construction="automorphism", sizes=(3, 4), simulate=True,
                    engine=engine, seed=2,
                )
            )
            for engine in ("compiled", "delta", "vector")
        }
        normalized = {
            engine: [
                {**p.to_dict(), "elapsed_s": None, "engine_resolved": None}
                for p in result.points
            ]
            for engine, result in results.items()
        }
        assert normalized["compiled"] == normalized["delta"] == normalized["vector"]
        assert results["delta"].all_ok
        assert results["delta"].points[0].protocol_ok is True

    @pytest.mark.parametrize("size", (2, 3))
    @pytest.mark.parametrize("bits", (1, 2))
    def test_recorded_engine_is_the_one_simulate_protocol_resolves(
        self, monkeypatch, size, bits
    ):
        calls = []
        simulate = ReductionFramework.simulate_protocol

        def recording(framework, *args, **kwargs):
            calls.append((framework, args, kwargs))
            return simulate(framework, *args, **kwargs)

        monkeypatch.setattr(ReductionFramework, "simulate_protocol", recording)
        result = run_lower_bound(
            LowerBoundSpec(
                construction="automorphism", sizes=(size,), simulate=True,
                simulate_bits=bits,
            )
        )
        point = result.points[0]
        assert point.protocol_ok is True and point.engine_resolved is not None
        assert calls and all(kw["engine"] == point.engine_resolved for _, _, kw in calls)

        # Replay each probe with "auto" and capture what the simulation
        # itself resolves: it must be the engine the artifact recorded.
        resolved = []

        def spy(engine, workload):
            resolved.append(resolve_engine(engine, workload))
            return resolved[-1]

        monkeypatch.setattr(framework_module, "resolve_engine", spy)
        for framework, args, kwargs in calls:
            simulate(framework, *args, **{**kwargs, "engine": "auto"})
        assert resolved == [point.engine_resolved] * len(calls)

    def test_oversized_simulation_is_skipped_not_failed(self):
        result = run_lower_bound(
            LowerBoundSpec(construction="automorphism", sizes=(9,), simulate=True)
        )
        point = result.points[0]
        assert point.protocol_ok is None  # 2^(side bits) would explode
        assert point.dichotomy_ok is True
        assert result.all_ok

    def test_points_reproducible_in_isolation(self):
        spec = LowerBoundSpec(construction="automorphism", sizes=(3, 6), seed=5)
        full = run_lower_bound(spec)
        alone = run_lower_bound_point(spec, 1)
        full_dict = full.points[1].to_dict()
        alone_dict = alone.to_dict()
        full_dict.pop("elapsed_s"), alone_dict.pop("elapsed_s")
        assert full_dict == alone_dict

    def test_artifact_roundtrip(self, tmp_path):
        spec = LowerBoundSpec(construction="treedepth", sizes=(8, 32, 128), check_dichotomy=False)
        result = run_lower_bound(spec)
        loaded = load_artifact(write_artifact(result, tmp_path / "lb_x.json"))
        assert loaded.spec == spec
        assert loaded.series == result.series
        assert loaded.bound == result.bound
        assert loaded.fit == result.fit

    def test_artifact_is_plain_json_with_kind(self, tmp_path):
        spec = LowerBoundSpec(construction="automorphism", sizes=(3,), check_dichotomy=False)
        path = write_artifact(run_lower_bound(spec), tmp_path / "lb.json")
        data = json.loads(path.read_text())
        assert data["schema"] == 2
        assert data["kind"] == "lower-bound"
        assert data["spec"]["construction"] == "automorphism"
        assert data["series"] == {"3": 1.5}


class TestRadiusSpec:
    def test_star_family_is_accepted_with_zero_bits(self):
        result = run_radius(RadiusSpec(family="star", sizes=(8, 16)))
        assert result.all_ok
        assert all(point.expected and point.accepted for point in result.points)
        assert set(result.series.values()) == {0}

    def test_long_paths_are_rejected(self):
        result = run_radius(RadiusSpec(family="path", sizes=(10, 20)))
        assert result.all_ok
        assert not any(point.accepted for point in result.points)

    def test_union_of_cycles_has_diameter_four_and_is_rejected(self):
        result = run_radius(RadiusSpec(family="union-of-cycles", sizes=(2, 5)))
        assert result.all_ok
        assert all(point.diameter == 4 and not point.accepted for point in result.points)

    def test_effective_radius_defaults_to_bound_plus_one(self):
        assert RadiusSpec(family="star", sizes=(4,)).effective_radius == 4
        assert RadiusSpec(family="star", sizes=(4,), radius=2).effective_radius == 2

    def test_artifact_roundtrip(self, tmp_path):
        result = run_radius(RadiusSpec(family="star", sizes=(8,)))
        loaded = load_artifact(write_artifact(result, tmp_path / "radius_x.json"))
        assert loaded.spec == result.spec
        assert loaded.points == result.points

    def test_unknown_family_rejected(self):
        with pytest.raises(RegistryError, match="family"):
            RadiusSpec(family="nebula", sizes=(4,)).validate()
