"""Golden parity: refactors changed no observable output.

Two generations of fixtures are policed here:

* The fixtures under ``tests/golden/`` were recorded on the
  pre-scenario code (hand-wired ``Simulator(...)`` construction in the
  CLI and grid).  Every comparison is bit-for-bit: the declarative
  layer must reproduce the old call sites exactly, including float
  formatting.
* :class:`TestTimebaseParity` holds the tick-lattice timebase to the
  same standard: for every bundled scenario (and the SST setting) the
  integer fast path must produce an execution *indistinguishable* from
  the exact-Fraction path — same events, same delivery instants, same
  channel counters — and components that live off the lattice must
  fall back to Fractions rather than approximate.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from repro.analysis import ExperimentCell, run_grid_report
from repro.cli import main
from repro.core import execution_signature
from repro.core.errors import ConfigurationError
from repro.scenarios import ScenarioSpec, load_spec

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestCliGolden:
    def test_ca_arrow_worst_byte_identical(self, capsys):
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "4", "--max-slot", "2",
             "--rho", "1/2", "--horizon", "2000", "--schedule", "worst",
             "--seed", "0"]
        )
        assert code == 0
        assert capsys.readouterr().out == _golden("cli_ca_arrow_worst.txt")

    def test_abs_election_worst_byte_identical(self, capsys):
        """The bundled ABS scenario under the (auto-promoted) batch
        engine reproduces the object-loop golden bytes."""
        code = main(
            ["scenario", "run", str(SCENARIOS / "abs_election_worst.json")]
        )
        assert code == 0
        assert capsys.readouterr().out == _golden("cli_abs_election_worst.txt")

    def test_aloha_random_byte_identical(self, capsys):
        code = main(
            ["run", "--algorithm", "aloha", "--n", "4", "--max-slot", "2",
             "--rho", "1/2", "--horizon", "2000", "--schedule", "random",
             "--seed", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == _golden("cli_aloha_random.txt")

    def test_scenario_run_matches_run_flags(self, tmp_path, capsys):
        """`repro scenario run <spec>` == `repro run <equivalent flags>`,
        byte for byte (the ISSUE's headline acceptance criterion)."""
        spec = ScenarioSpec(
            algorithm="ca-arrow", n=4, max_slot=2, schedule="worst",
            rho="1/2", horizon=2000, seed=0,
        )
        path = tmp_path / "ca.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        code = main(["scenario", "run", str(path)])
        assert code == 0
        assert capsys.readouterr().out == _golden("cli_ca_arrow_worst.txt")


class TestTimebaseParity:
    """S4: the tick-lattice fast path is observably invisible."""

    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem
    )
    def test_bundled_scenarios_bit_identical(self, path):
        spec = load_spec(path).replace(horizon=600)
        runs = {}
        for requested in ("fraction", "lattice"):
            sim = spec.build(timebase=requested)
            assert sim.timebase.is_lattice is (requested == "lattice")
            sim.run(until_time=spec.horizon)
            runs[requested] = execution_signature(sim)
        assert runs["fraction"] == runs["lattice"]
        # Exactness, not floats: delivery times stay Fractions (or ints
        # equal to them) after the boundary conversion.
        for entry in runs["lattice"][4]:
            assert isinstance(entry[3], (int, Fraction))

    def test_sst_election_bit_identical(self):
        spec = ScenarioSpec(algorithm="abs", n=16, max_slot=2, schedule="worst")
        outcomes = {}
        for requested in ("fraction", "lattice"):
            sim = spec.build(timebase=requested)
            end = sim.run_until_success(max_events=1_000_000)
            outcomes[requested] = (
                end, sim.max_slots_elapsed(), execution_signature(sim)
            )
        assert outcomes["fraction"] == outcomes["lattice"]
        assert outcomes["lattice"][0] is not None

    def test_auto_detects_lattice_on_bundled_scenarios(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            sim = load_spec(path).build()  # timebase="auto"
            assert sim.timebase.is_lattice, path.stem

    def test_cli_golden_identical_under_forced_fraction(self, capsys):
        """The recorded golden bytes don't depend on the timebase."""
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "4", "--max-slot", "2",
             "--rho", "1/2", "--horizon", "2000", "--schedule", "worst",
             "--seed", "0", "--timebase", "fraction"]
        )
        assert code == 0
        assert capsys.readouterr().out == _golden("cli_ca_arrow_worst.txt")


class TestEngineParity:
    """PR 8: the vectorized batch engine is held to the same standard
    as the tick lattice — observably invisible.  (The deeper kernel
    contract — heap/runtime/history equality, chunking, continuation —
    lives in ``test_batch.py``; here the bundled scenarios and the
    golden bytes are pinned.)"""

    ELIGIBLE = {
        "abs_election_worst",
        "aloha_random",
        "ao_arrow_worst",
        "ca_arrow_worst",
        "mbtf_sync",
        "rrw_sync",
        "tdma_sync",
    }

    @pytest.mark.parametrize(
        "path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem
    )
    def test_bundled_scenarios_bit_identical_or_demoted(self, path):
        pytest.importorskip("numpy")
        spec = load_spec(path).replace(horizon=600)
        auto = spec.build()
        if path.stem not in self.ELIGIBLE:
            assert auto.engine == "object"
            assert auto.engine_detail  # names its blocker
            return
        assert auto.engine == "batch"
        runs = {}
        for requested in ("object", "batch"):
            sim = spec.build(engine=requested)
            assert sim.engine == requested
            sim.run(until_time=spec.horizon)
            runs[requested] = execution_signature(sim)
        assert runs["object"] == runs["batch"]
        for entry in runs["batch"][4]:
            assert isinstance(entry[3], (int, Fraction))

    def test_cli_golden_identical_under_forced_object(self, capsys):
        """The recorded golden bytes don't depend on the engine."""
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "4", "--max-slot", "2",
             "--rho", "1/2", "--horizon", "2000", "--schedule", "worst",
             "--seed", "0", "--engine", "object"]
        )
        assert code == 0
        assert capsys.readouterr().out == _golden("cli_ca_arrow_worst.txt")

    def test_abs_golden_identical_under_forced_engines(self, capsys):
        """The ABS golden bytes don't depend on the engine either way."""
        pytest.importorskip("numpy")
        for engine in ("object", "batch"):
            code = main(
                ["scenario", "run",
                 str(SCENARIOS / "abs_election_worst.json"),
                 "--engine", engine]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert out == _golden("cli_abs_election_worst.txt"), engine


class TestOffLatticeFallback:
    """Components without a declared lattice demote the run to Fractions."""

    def test_adaptive_adversary_falls_back(self):
        from repro.algorithms import CAArrow
        from repro.core import Simulator
        from repro.timing import Adaptive

        adversary = Adaptive(lambda sim, sid, idx: Fraction(3, 2))
        sim = Simulator(
            {i: CAArrow(i, 3, Fraction(2)) for i in range(1, 4)},
            adversary, max_slot_length=2,
        )
        assert sim.timebase.is_lattice is False
        with pytest.raises(ConfigurationError, match="Adaptive"):
            Simulator(
                {i: CAArrow(i, 3, Fraction(2)) for i in range(1, 4)},
                adversary, max_slot_length=2, timebase="lattice",
            )

    def test_lookahead_adversaries_fall_back_and_still_force_collisions(self):
        """Off-lattice mirror/cloning adversaries run correctly on the
        Fraction path (their theorem-level guarantees are exercised in
        test_collision_forcer / test_mirror_lowerbound; here we pin the
        timebase demotion itself)."""
        from repro.algorithms import CAArrow
        from repro.core import Simulator
        from repro.timing import CloningGreedyAdversary, MaxOverlapAdversary

        for adversary in (
            MaxOverlapAdversary(Fraction(2)),
            CloningGreedyAdversary(Fraction(2)),
        ):
            sim = Simulator(
                {i: CAArrow(i, 3, Fraction(2)) for i in range(1, 4)},
                adversary, max_slot_length=2,
            )
            assert sim.timebase.is_lattice is False
            sim.run(until_time=50)
            assert sim.events_processed > 0

    def test_off_lattice_source_falls_back(self):
        spec = ScenarioSpec(
            algorithm="ca-arrow", n=4, max_slot=2, schedule="worst",
            rho="1/2", source={"name": "poisson"}, horizon=200,
        )
        sim = spec.build()
        assert sim.timebase.is_lattice is False
        with pytest.raises(ConfigurationError, match="[Pp]oisson"):
            spec.build(timebase="lattice")


class TestGridGolden:
    def test_grid_rows_identical(self):
        rows_expected = json.loads(_golden("grid_rows.json"))
        cells = []
        for algorithm, schedule, seed in (
            ("ca-arrow", "worst", 0), ("aloha", "random", 3)
        ):
            spec = ScenarioSpec(
                algorithm=algorithm, n=4, max_slot=2, schedule=schedule,
                rho="1/2", horizon=2000, seed=seed,
                labels={"algorithm": algorithm, "rho": "1/2",
                        "schedule": schedule},
            )
            cells.append(ExperimentCell.from_spec(spec))
        report = run_grid_report(cells, backlog_stride=8)
        rows = [result.as_row() for result in report.results]
        assert json.loads(json.dumps(rows)) == rows_expected


class TestServiceRouting:
    """The CLI is a transport: every run path goes through repro.service.

    The golden fixtures above pin *what* is printed; these tests pin
    *how* it was produced — if a subcommand regrows a private engine
    drive, the execute() spy stops seeing it and the test fails.
    """

    @pytest.fixture()
    def spy(self, monkeypatch):
        import repro.cli
        from repro.service import execute as real_execute

        calls = []

        def recording_execute(request, **kwargs):
            calls.append(request)
            return real_execute(request, **kwargs)

        monkeypatch.setattr(repro.cli, "execute", recording_execute)
        return calls

    def test_run_routes_through_service(self, spy, capsys):
        assert main(["run", "--algorithm", "ca-arrow", "--n", "3",
                     "--horizon", "400"]) == 0
        assert [r.command for r in spy] == ["run"]

    def test_scenario_run_routes_through_service(self, spy, capsys):
        assert main(
            ["scenario", "run", str(SCENARIOS / "ca_arrow_worst.json"),
             "--horizon", "400"]
        ) == 0
        assert [r.command for r in spy] == ["run"]

    def test_grid_routes_through_service(self, spy, capsys, tmp_path):
        assert main(["grid", "--algorithms", "ca-arrow", "--rhos", "1/2",
                     "--horizon", "200", "--no-cache"]) == 0
        assert [r.command for r in spy] == ["grid"]
        assert len(spy[0].specs) == 1

    def test_sst_routes_through_service(self, spy, capsys):
        assert main(["sst", "--algorithm", "abs", "--n", "5"]) == 0
        assert [r.command for r in spy] == ["sst"]

    def test_service_grid_report_matches_engine_grid(self):
        """The service-routed grid is row-identical to the raw engine."""
        from repro.service import RunOptions, RunRequest, execute

        spec = ScenarioSpec(
            algorithm="ca-arrow", n=4, max_slot=2, schedule="worst",
            rho="1/2", horizon=2000, seed=0,
            labels={"algorithm": "ca-arrow", "rho": "1/2"},
        )
        engine_report = run_grid_report(
            [ExperimentCell.from_spec(spec)], backlog_stride=8
        )
        service_report = execute(
            RunRequest(specs=(spec,), command="grid",
                       options=RunOptions(backlog_stride=8))
        ).report
        assert [r.as_row() for r in service_report.results] == [
            r.as_row() for r in engine_report.results
        ]
