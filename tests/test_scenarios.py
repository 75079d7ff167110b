"""Tests for the declarative scenario layer (:mod:`repro.scenarios`)."""

import json
import random

import pytest

from repro.algorithms import CAArrow
from repro.arrivals import UniformRate
from repro.core import Simulator
from repro.core.errors import ConfigurationError
from repro.exec.cache import ResultCache, fingerprint
from repro.scenarios import (
    ALGORITHMS,
    FAULTS,
    SCHEDULES,
    SOURCES,
    Registry,
    ScenarioSpec,
    load_spec,
)
from repro.timing import worst_case_for


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("demo")

        @reg.register("one", kind="a", summary="first")
        def _one():
            return 1

        assert "one" in reg
        assert reg.get("one").builder() == 1
        assert reg.get("one").meta["kind"] == "a"

    def test_duplicate_rejected_unless_replace(self):
        reg = Registry("demo")
        reg.add("x", lambda: 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.add("x", lambda: 2)
        reg.add("x", lambda: 3, replace=True)
        assert reg.get("x").builder() == 3

    def test_unknown_name_error_names_the_field(self):
        reg = Registry("adversary")
        reg.add("real", lambda: 1)
        with pytest.raises(ConfigurationError) as err:
            reg.get("fake")
        assert "adversary" in str(err.value)
        assert "'fake'" in str(err.value)
        assert "real" in str(err.value)

    def test_names_filters_on_metadata(self):
        reg = Registry("demo")
        reg.add("b", lambda: 1, kind="x")
        reg.add("a", lambda: 1, kind="x")
        reg.add("c", lambda: 1, kind="y")
        assert reg.names(kind="x") == ["a", "b"]
        assert reg.names() == ["a", "b", "c"]

    def test_builtin_registries_are_seeded(self):
        assert "ca-arrow" in ALGORITHMS
        assert "abs" in ALGORITHMS
        assert "worst" in SCHEDULES
        assert "bursty" in SOURCES
        assert "crash" in FAULTS
        assert "ca-arrow" in ALGORITHMS.names(kind="dynamic")
        assert "abs" in ALGORITHMS.names(kind="sst")


class TestSpecValidation:
    def test_unknown_algorithm_names_field(self):
        with pytest.raises(ConfigurationError, match="algorithm: unknown name"):
            ScenarioSpec(algorithm="carrier-pigeon", n=2)

    def test_unknown_schedule_names_field(self):
        with pytest.raises(ConfigurationError, match="schedule: unknown name"):
            ScenarioSpec(algorithm="ca-arrow", n=2, schedule="lunar")

    def test_unknown_source_names_field(self):
        with pytest.raises(ConfigurationError, match="source: unknown name"):
            ScenarioSpec(algorithm="ca-arrow", n=2, rho="1/2", source="firehose")

    def test_unknown_fault_kind_names_field(self):
        with pytest.raises(ConfigurationError, match="faults: unknown name"):
            ScenarioSpec(
                algorithm="ca-arrow", n=2, faults=[{"kind": "gremlins"}]
            )

    def test_r_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="max_slot: the bound R"):
            ScenarioSpec(algorithm="ca-arrow", n=2, max_slot="1/2")

    def test_rho_at_one_rejected_citing_theorem5(self):
        with pytest.raises(ConfigurationError, match="rho: .*Theorem 5"):
            ScenarioSpec(algorithm="ca-arrow", n=2, rho=1)

    def test_rho_above_one_rejected(self):
        with pytest.raises(ConfigurationError, match="rho:"):
            ScenarioSpec(algorithm="ca-arrow", n=2, rho="3/2")

    def test_unknown_json_key_rejected_by_name(self):
        doc = {"algorithm": "ca-arrow", "n": 2, "rbo": "1/2"}
        with pytest.raises(ConfigurationError, match="unknown scenario key"):
            ScenarioSpec.from_json(doc)
        with pytest.raises(ConfigurationError, match="rbo"):
            ScenarioSpec.from_json(json.dumps(doc))

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError, match="n: required key"):
            ScenarioSpec.from_json({"algorithm": "ca-arrow"})

    def test_bad_schema_version(self):
        with pytest.raises(ConfigurationError, match="schema version"):
            ScenarioSpec.from_json({"scenario": 99, "algorithm": "ca-arrow", "n": 2})

    def test_malformed_json_text(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            ScenarioSpec.from_json("{not json")

    def test_bad_n_burst_seed(self):
        with pytest.raises(ConfigurationError, match="n: must be"):
            ScenarioSpec(algorithm="ca-arrow", n=0)
        with pytest.raises(ConfigurationError, match="burst: must be"):
            ScenarioSpec(algorithm="ca-arrow", n=2, burst=0)
        with pytest.raises(ConfigurationError, match="seed: must be"):
            ScenarioSpec(algorithm="ca-arrow", n=2, seed="zero")

    def test_fault_entry_without_kind(self):
        with pytest.raises(ConfigurationError, match=r"faults\[0\]: missing"):
            ScenarioSpec(algorithm="ca-arrow", n=2, faults=[{"station": 1}])

    def test_schedule_params_rejected_by_builder(self):
        spec = ScenarioSpec(
            algorithm="ca-arrow", n=2,
            schedule={"name": "fixed", "length": 2, "bogus": 1},
        )
        with pytest.raises(ConfigurationError, match="schedule: 'fixed'"):
            spec.build_schedule()

    def test_sst_source_requires_rho(self):
        spec = ScenarioSpec(algorithm="abs", n=4, source="uniform")
        with pytest.raises(ConfigurationError, match="rho:"):
            spec.build_source()

    def test_default_name_derivation(self):
        assert ScenarioSpec(algorithm="abs", n=4).name == "abs"
        named = ScenarioSpec(algorithm="ca-arrow", n=4, rho="1/2")
        assert named.name == "ca-arrow@rho=1/2"


def _random_spec(rng):
    algorithm = rng.choice(["ca-arrow", "ao-arrow", "rrw", "aloha", "abs"])
    schedule = rng.choice(
        ["worst", "sync", "random",
         {"name": "fixed", "length": 2},
         {"name": "per-station-fixed", "lengths": {"1": 2, "2": "3/2"}}]
    )
    kwargs = dict(
        algorithm=algorithm,
        n=rng.randint(1, 9),
        max_slot=rng.choice([1, 2, "5/2", 4]),
        schedule=schedule,
        burst=rng.randint(1, 4),
        horizon=rng.choice([100, "2000", "999/2"]),
        seed=rng.randint(0, 99),
        labels={"trial": str(rng.randint(0, 9))},
    )
    if algorithm != "abs" and rng.random() < 0.8:
        kwargs["rho"] = rng.choice(["1/2", "9/10", "3/10", "99/100"])
        if rng.random() < 0.3:
            kwargs["faults"] = [
                {"kind": "crash", "station": 1, "at_slot": rng.randint(0, 50)}
            ]
    return ScenarioSpec(**kwargs)


class TestRoundTrip:
    def test_simple_round_trip(self):
        spec = ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_randomized_round_trips(self):
        rng = random.Random(20240806)
        for _ in range(60):
            spec = _random_spec(rng)
            clone = ScenarioSpec.from_json(spec.to_json())
            assert clone == spec
            assert clone.canonical() == spec.canonical()
            assert clone.__cache_form__() == spec.__cache_form__()

    def test_canonical_is_json_stable(self):
        rng = random.Random(7)
        for _ in range(20):
            spec = _random_spec(rng)
            blob = json.dumps(spec.canonical(), sort_keys=True)
            assert json.loads(blob) == spec.canonical()

    def test_replace_revalidates(self):
        spec = ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2")
        assert spec.replace(seed=5).seed == 5
        with pytest.raises(ConfigurationError, match="rho:"):
            spec.replace(rho="7/5")

    def test_load_spec_file(self, tmp_path):
        spec = ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2")
        path = tmp_path / "s.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert load_spec(path) == spec

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec(tmp_path / "nope.json")


class TestBuild:
    def test_build_matches_hand_wired_simulator(self):
        spec = ScenarioSpec(
            algorithm="ca-arrow", n=3, max_slot=2, schedule="worst",
            rho="1/2", horizon=1500,
        )
        sim = spec.build()
        sim.run(until_time=spec.horizon)

        fleet = {i: CAArrow(i, 3, 2) for i in range(1, 4)}
        source = UniformRate(rho="1/2", targets=[1, 2, 3], assumed_cost=2)
        ref = Simulator(fleet, worst_case_for(2), 2, arrival_source=source)
        ref.run(until_time=1500)

        assert len(sim.delivered_packets) == len(ref.delivered_packets)
        assert sim.total_backlog == ref.total_backlog
        assert sim.channel.stats.collisions == ref.channel.stats.collisions

    def test_crash_fault_applied(self):
        spec = ScenarioSpec(
            algorithm="ca-arrow-ft", n=4, rho="2/5",
            source={"name": "uniform", "targets": [1, 3, 4]},
            faults=[{"kind": "crash", "station": 2, "at_slot": 40}],
            horizon=3000,
        )
        sim = spec.build()
        sim.run(until_time=spec.horizon)
        assert len(sim.delivered_packets) > 100  # recovered past the crash
        assert sim.channel.stats.collisions == 0

    def test_jammer_station_added(self):
        spec = ScenarioSpec(
            algorithm="ca-arrow", n=3, rho="2/5",
            faults=[{"kind": "jam-periodic", "station": 9,
                     "burst": 1, "period": 6}],
        )
        fleet = spec.build_fleet()
        assert set(fleet) == {1, 2, 3, 9}

    def test_jammer_station_clash_rejected(self):
        spec = ScenarioSpec(
            algorithm="ca-arrow", n=3, rho="2/5",
            faults=[{"kind": "jam-periodic", "station": 2,
                     "burst": 1, "period": 6}],
        )
        with pytest.raises(ConfigurationError, match="collides"):
            spec.build_fleet()

    def test_sst_spec_has_no_source(self):
        spec = ScenarioSpec(algorithm="abs", n=4, schedule="worst")
        assert spec.build_source() is None
        sim = spec.build()
        assert sim.run_until_success(max_events=500_000) is not None


class TestCacheForm:
    def test_fingerprint_uses_cache_form(self):
        spec = ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2")
        fp = fingerprint(spec)
        assert fp["kind"] == "cache-form"
        assert fp["form"]["mapping"] is not None

    def test_key_survives_cosmetic_closure_edits(self, tmp_path):
        """A closure has no cache key at all (its bytecode changes on
        no-op edits); a spec keyed by canonical JSON keeps its key."""
        cache = ResultCache(tmp_path, salt="fixed")
        spec = ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2")

        def payload(factory):
            return {"kind": "demo", "factory": factory}

        with pytest.raises(TypeError):
            cache.key_for(payload(lambda: 1))

        # A spec is stable across a JSON round-trip (and any cosmetic
        # rebuild of the object).
        clone = ScenarioSpec.from_json(spec.to_json())
        assert cache.key_for(payload(spec)) == cache.key_for(payload(clone))

    def test_grid_cache_hit_across_round_trip(self, tmp_path):
        from repro.analysis import run_grid_report

        spec = ScenarioSpec(
            algorithm="ca-arrow", n=3, rho="1/2", horizon=600,
            labels={"algorithm": "ca-arrow", "rho": "1/2"},
        )
        cache = ResultCache(tmp_path / "c", salt="fixed")
        first = run_grid_report(
            [spec], backlog_stride=8, cache=cache
        )
        assert (cache.hits, cache.misses) == (0, 1)

        clone = ScenarioSpec.from_json(spec.to_json())
        cache2 = ResultCache(tmp_path / "c", salt="fixed")
        second = run_grid_report(
            [clone], backlog_stride=8, cache=cache2
        )
        assert (cache2.hits, cache2.misses) == (1, 0)
        assert (
            second.results[0].metrics.delivered
            == first.results[0].metrics.delivered
        )


class TestBundledScenarios:
    def test_every_bundled_spec_validates_and_builds(self, repo_root=None):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
        files = sorted(root.glob("*.json"))
        assert len(files) >= 8, "bundled scenarios went missing"
        families = set()
        for path in files:
            spec = load_spec(path)
            spec.build()  # exercises every registry lookup
            families.add(ALGORITHMS.get(spec.algorithm).meta.get("family"))
        # One per algorithm family, incl. a faulty-station variant.
        assert {"ca-arrow", "ao-arrow", "ca-arrow-ft", "rrw", "mbtf",
                "tdma", "aloha"} <= families
        faulty = [path for path in files if load_spec(path).faults]
        assert faulty, "no bundled faulty-station scenario"
