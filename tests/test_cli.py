"""Tests for the ``python -m repro`` command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "ca-arrow"
        assert args.n == 4

    def test_adversary_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary", "nonsense"])


class TestRunCommand:
    def test_ca_arrow_run(self, capsys):
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "3", "--rho", "1/2",
             "--horizon", "800"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "collisions:     0" in out
        assert "delivered:" in out

    def test_ao_arrow_run(self, capsys):
        code = main(
            ["run", "--algorithm", "ao-arrow", "--n", "3", "--rho", "1/2",
             "--horizon", "800"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "control msgs:   0" in out

    def test_bursty_workload(self, capsys):
        code = main(
            ["run", "--algorithm", "mbtf", "--n", "3", "--rho", "1/2",
             "--horizon", "500", "--schedule", "sync", "--max-slot", "1",
             "--burst", "4"]
        )
        assert code == 0
        assert "delivered:" in capsys.readouterr().out

    def test_verbose_engine_prints_promotion_path(self, capsys):
        pytest.importorskip("numpy")
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "3", "--horizon",
             "200", "--engine", "batch", "--verbose-engine"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine:         batch/" in out
        assert "promoted: CAArrow -> CAArrowProgram" in out
        assert "adaptive masked-update" in out

    def test_verbose_engine_prints_width_reason(self, capsys):
        """A bundled four-station scenario is batch-eligible, but auto
        keeps it on the object loop and names the tick width."""
        pytest.importorskip("numpy")
        scenario = pathlib.Path(__file__).resolve().parents[1] / (
            "scenarios/rrw_sync.json"
        )
        code = main(
            ["scenario", "run", str(scenario), "--horizon", "300",
             "--verbose-engine"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine:         object/" in out
        assert (
            "batch-eligible, but ~4 events per tick is below the batch "
            "crossover (20)" in out
        )

    def test_verbose_engine_promotes_a_wide_fleet(self, capsys):
        pytest.importorskip("numpy")
        code = main(
            ["run", "--algorithm", "rrw", "--n", "1000", "--rho", "1/2",
             "--schedule", "sync", "--horizon", "20", "--verbose-engine"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine:         batch/" in out
        assert "promoted: RRW -> RRWProgram" in out

    def test_verbose_engine_prints_demotion_reason(self, capsys):
        pytest.importorskip("numpy")
        # A crash plan wraps every station in Crashable, which has no
        # vectorized program: auto demotes and names the blocker.
        code = main(
            ["run", "--algorithm", "ca-arrow-ft", "--n", "3", "--rho",
             "2/5", "--horizon", "200", "--faults", "crash:2@40",
             "--verbose-engine"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine:         object/" in out
        assert "Crashable" in out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "carrier-pigeon"])

    def test_unknown_schedule_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--schedule", "lunar"])

    def test_metrics_flag(self, capsys):
        code = main(
            ["run", "--algorithm", "ao-arrow", "--n", "3", "--horizon", "500",
             "--metrics"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "feedback.ack" in out
        assert "slot_length" in out
        assert "events_per_second" in out

    def test_profile_flag(self, capsys):
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "3", "--horizon", "400",
             "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "adversary" in out and "algorithm" in out and "channel" in out


class TestEmitJsonlAndStats:
    def test_emit_then_stats_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "run.jsonl"
        code = main(
            ["run", "--algorithm", "ao-arrow", "--n", "3", "--rho", "1/2",
             "--horizon", "600", "--metrics", "--emit-jsonl", str(artifact)]
        )
        assert code == 0
        run_out = capsys.readouterr().out
        assert str(artifact) in run_out
        assert artifact.exists()

        code = main(["stats", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "feedback mix:" in out
        assert "slot lengths:" in out
        assert "max_backlog=" in out
        assert "events/s" in out
        assert "algorithm=ao-arrow" in out

    def test_stats_agrees_with_run_output(self, tmp_path, capsys):
        artifact = tmp_path / "run.jsonl"
        main(
            ["run", "--algorithm", "ca-arrow", "--n", "3", "--horizon", "500",
             "--emit-jsonl", str(artifact)]
        )
        run_out = capsys.readouterr().out
        delivered = int(run_out.split("delivered:")[1].split()[0])
        main(["stats", str(artifact)])
        stats_out = capsys.readouterr().out
        assert f"delivered={delivered}" in stats_out


class TestSstCommand:
    def test_abs(self, capsys):
        code = main(["sst", "--algorithm", "abs", "--n", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "solved at:" in out
        assert "winner:" in out

    def test_doubling(self, capsys):
        code = main(
            ["sst", "--algorithm", "doubling", "--n", "5", "--schedule",
             "random", "--seed", "3"]
        )
        assert code == 0
        assert "winner:" in capsys.readouterr().out

    def test_randomized(self, capsys):
        code = main(
            ["sst", "--algorithm", "randomized", "--n", "5", "--seed", "2"]
        )
        assert code == 0
        assert "winner:" in capsys.readouterr().out

    def test_unknown_sst_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["sst", "--algorithm", "oracle"])


class TestAdversaryCommand:
    def test_mirror(self, capsys):
        code = main(["adversary", "mirror", "--n", "16", "--realized-r", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slots forced:" in out
        assert "0 successes (verified)" in out

    def test_thm4(self, capsys):
        code = main(["adversary", "thm4", "--queue-limit", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "collision_forced" in out

    def test_rate1(self, capsys):
        code = main(
            ["adversary", "rate1", "--algorithm", "ca-arrow", "--n", "3",
             "--horizon", "2500"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "UNSTABLE" in out


class TestBoundsCommand:
    def test_prints_every_bound(self, capsys):
        code = main(["bounds", "--n", "8", "--max-slot", "2", "--rho", "3/4"])
        out = capsys.readouterr().out
        assert code == 0
        for marker in ("Thm 1", "Thm 2", "Thm 3", "Thm 6", "sync threshold"):
            assert marker in out


class TestDiagramCommand:
    def test_all_diagrams(self, capsys):
        code = main(["diagram"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ABS" in out and "AO-ARRoW" in out and "CA-ARRoW" in out

    def test_single_diagram_text(self, capsys):
        code = main(["diagram", "abs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "wait_silence" in out

    def test_single_diagram_dot(self, capsys):
        code = main(["diagram", "ca-arrow", "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")

    def test_unknown_diagram_rejected(self):
        with pytest.raises(SystemExit):
            main(["diagram", "escher"])


class TestScenarioCommand:
    SPEC = (
        '{"algorithm": "ca-arrow", "n": 3, "rho": "1/2", "horizon": "800"}'
    )

    def test_list(self, capsys):
        code = main(["scenario", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ca-arrow" in out and "worst" in out
        assert "crash" in out and "bursty" in out

    def test_list_bundled_directory(self, capsys):
        code = main(["scenario", "list", "--dir", "scenarios"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bundled scenarios" in out
        assert "ca_arrow_worst.json" in out

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(self.SPEC, encoding="utf-8")
        code = main(["scenario", "validate", str(path)])
        assert code == 0
        assert "ok " in capsys.readouterr().out

    def test_validate_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"algorithm": "ca-arrow", "n": 3, "rho": "3/2"}',
                        encoding="utf-8")
        code = main(["scenario", "validate", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "rho" in out

    def test_validate_directory(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text(self.SPEC, encoding="utf-8")
        (tmp_path / "b.json").write_text(self.SPEC, encoding="utf-8")
        code = main(["scenario", "validate", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.count("ok ") == 2

    def test_run_spec_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(self.SPEC, encoding="utf-8")
        code = main(["scenario", "run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "collisions:     0" in out

    def test_run_with_overrides(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(self.SPEC, encoding="utf-8")
        code = main(["scenario", "run", str(path), "--horizon", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "horizon=400" in out

    def test_replay_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "run.jsonl"
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "3", "--rho", "1/2",
             "--horizon", "600", "--emit-jsonl", str(artifact)]
        )
        assert code == 0
        first = capsys.readouterr().out
        code = main(["scenario", "run", str(artifact)])
        replay = capsys.readouterr().out
        assert code == 0
        # Identical headline line and delivery count on replay.
        assert replay.splitlines()[0] == first.splitlines()[0]
        assert replay.splitlines()[1] == first.splitlines()[1]

    def test_run_missing_file(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "/no/such/spec.json"])


class TestFaultsFlag:
    def test_crash_shorthand(self, capsys):
        code = main(
            ["run", "--algorithm", "ca-arrow-ft", "--n", "3", "--rho", "2/5",
             "--horizon", "1500", "--faults", "crash:2@40"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered:" in out

    def test_generic_fault_syntax(self, capsys):
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "3", "--rho", "2/5",
             "--horizon", "1000",
             "--faults", "jam-periodic:station=9,burst=1,period=12"]
        )
        assert code == 0
        assert "delivered:" in capsys.readouterr().out

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--faults", "gremlins:x=1"])

    def test_malformed_crash_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--faults", "crash:two@forty"])

    def test_missing_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--faults", ":x=1"])


class TestTraceFlagAndCommand:
    def test_run_trace_exports_loadable_json(self, tmp_path, capsys):
        from repro.obs import load_trace

        trace = tmp_path / "run-trace.json"
        code = main(
            ["run", "--algorithm", "ca-arrow", "--n", "3", "--horizon", "400",
             "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace: {trace}" in out
        events = load_trace(trace)
        names = {e["name"] for e in events}
        assert "run" in names
        assert {"sim.adversary", "sim.algorithm", "sim.channel"} <= names

    def test_trace_off_output_is_identical(self, tmp_path, capsys):
        args = ["run", "--algorithm", "ca-arrow", "--n", "3",
                "--horizon", "400"]
        main(args)
        plain = capsys.readouterr().out
        main(args + ["--trace", str(tmp_path / "t.json")])
        traced = capsys.readouterr().out
        assert traced.replace(f"trace: {tmp_path / 't.json'}\n", "") == plain

    def test_grid_trace_and_summarize(self, tmp_path, capsys):
        trace = tmp_path / "grid-trace.json"
        code = main(
            ["grid", "--algorithms", "ca-arrow", "--rhos", "1/2,7/10",
             "--horizon", "200", "--no-cache", "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["trace", "summarize", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "spans:" in out
        assert "attempts: 2, all first-try ok" in out

    def test_summarize_missing_file_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["trace", "summarize", "/no/such/trace.json"])
        assert "cannot read" in str(exc_info.value)

    def test_summarize_non_trace_exits_nonzero(self, tmp_path):
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text('{"nope": 1}')
        with pytest.raises(SystemExit) as exc_info:
            main(["trace", "summarize", str(bogus)])
        assert "traceEvents" in str(exc_info.value)


class TestHistoryCommand:
    def test_run_then_list_and_show(self, tmp_path, capsys):
        main(["run", "--algorithm", "ca-arrow", "--n", "3",
              "--horizon", "400"])
        capsys.readouterr()
        code = main(["history", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ca-arrow@rho=1/2" in out
        assert " run " in out
        code = main(["history", "show", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kind:         run" in out
        assert "git:" in out

    def test_grid_records_and_query_filters(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["grid", "--algorithms", "ca-arrow", "--rhos", "1/2",
                "--horizon", "200", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        db = cache_dir / "history.db"
        code = main(["history", "list", "--db", str(db)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(" grid ") == 2
        assert " cache " in out and " exec " in out
        code = main(["history", "query", "--db", str(db), "--kind", "grid",
                     "--limit", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count(" grid ") == 1

    def test_query_engine_distinguishes_adaptive_batch(self, capsys):
        """Run history records the resolved program family, so
        ``--engine batch`` finds every batch run while
        ``--engine "batch(adaptive)"`` narrows to the adaptive ones."""
        pytest.importorskip("numpy")
        main(["run", "--algorithm", "ca-arrow", "--n", "3",
              "--horizon", "400", "--engine", "batch"])
        main(["run", "--algorithm", "rrw", "--n", "3", "--horizon", "400",
              "--engine", "batch"])
        capsys.readouterr()
        assert main(["history", "query", "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        assert "ca-arrow@rho=1/2" in out
        assert "rrw@rho=1/2" in out
        assert main(["history", "query", "--engine", "batch(adaptive)"]) == 0
        out = capsys.readouterr().out
        assert "ca-arrow@rho=1/2" in out
        assert "rrw@rho=1/2" not in out
        assert main(
            ["history", "query", "--engine", "batch(nonadaptive)"]
        ) == 0
        out = capsys.readouterr().out
        assert "ca-arrow@rho=1/2" not in out
        assert "rrw@rho=1/2" in out

    def test_empty_default_db_lists_nothing(self, capsys):
        code = main(["history", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(no recorded runs)" in out

    def test_explicit_missing_db_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["history", "list", "--db", "/no/such/history.db"])
        assert "cannot read" in str(exc_info.value)

    def test_show_unknown_id_exits_nonzero(self, tmp_path, capsys):
        main(["run", "--algorithm", "ca-arrow", "--n", "3",
              "--horizon", "400"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc_info:
            main(["history", "show", "999"])
        assert "no history row" in str(exc_info.value)

    def test_stats_missing_artifact_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["stats", "/no/such/artifact.jsonl"])
        assert "cannot read" in str(exc_info.value)


class TestVersionFlag:
    def test_version_reports_package_and_sha(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"repro {__version__} (")


class TestServeSubmitCommands:
    def test_serve_rejects_taken_port(self):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(SystemExit) as exc_info:
                main(["serve", "--port", str(port)])
            assert "cannot bind" in str(exc_info.value)
        finally:
            blocker.close()

    def test_submit_missing_target_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["submit", "/no/such/spec.json"])
        assert "cannot read" in str(exc_info.value)

    def test_submit_unreachable_daemon_exits_nonzero(self, tmp_path):
        spec_path = tmp_path / "s.json"
        from repro.scenarios import ScenarioSpec

        spec_path.write_text(
            ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2",
                         horizon=400).to_json()
        )
        with pytest.raises(SystemExit) as exc_info:
            main(["submit", str(spec_path), "--url", "http://127.0.0.1:1",
                  "--timeout", "2"])
        assert "cannot reach" in str(exc_info.value)

    def test_submit_round_trip_against_live_daemon(self, tmp_path, capsys):
        import threading

        from repro.service import create_server

        server = create_server(
            "127.0.0.1", 0, cache_dir=str(tmp_path / "cache"), quiet=True
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_port}"
        spec_path = tmp_path / "s.json"
        from repro.scenarios import ScenarioSpec

        spec_path.write_text(
            ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2",
                         horizon=400).to_json()
        )
        out_path = tmp_path / "artifact.jsonl"
        try:
            code = main(["submit", str(spec_path), "--url", url,
                         "--out", str(out_path)])
            out = capsys.readouterr().out
            assert code == 0
            assert "served from: exec" in out
            assert out_path.exists()
            code = main(["submit", str(spec_path), "--url", url])
            out = capsys.readouterr().out
            assert code == 0
            assert "served from: cache" in out
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
