"""Tests for the transport-agnostic run service (:mod:`repro.service`).

Three layers of contract:

* **Request** — :class:`RunRequest` round-trips through JSON exactly
  and rejects malformed documents naming the offending field.
* **Runner** — :func:`execute` produces results identical to driving
  the engine directly (the CLI's golden fixtures pin the rendered
  output; here we pin the data).
* **Server** — a live daemon streams artifacts record-identical to a
  local ``--emit-jsonl`` run, answers repeats from its cache, and
  leaves exactly one run-history row per submission.
"""

import io
import json
import threading

import pytest

from repro.analysis import run_grid_report
from repro.core.errors import ConfigurationError
from repro.obs import RunHistory
from repro.scenarios import ScenarioSpec
from repro.service import (
    RunOptions,
    RunRequest,
    ServiceError,
    create_server,
    execute,
    fetch_version,
    plan,
    submit_request,
)


def _spec(**overrides):
    base = dict(
        algorithm="ca-arrow", n=3, max_slot=2, schedule="worst",
        rho="1/2", horizon=400, seed=0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _sst_spec():
    return ScenarioSpec(
        algorithm="abs", n=4, max_slot=2, schedule="worst", seed=0, rho=None,
    )


def _kinds(db=None):
    """Every recorded row's kind, oldest first."""
    return [e.kind for e in reversed(RunHistory(db).list(limit=100))]


class TestRunRequest:
    def test_json_round_trip_exact(self):
        request = RunRequest(
            specs=(_spec(),),
            command="run",
            options=RunOptions(engine="object", metrics=True, progress=5),
        )
        assert RunRequest.from_json(request.to_json()) == request

    def test_grid_round_trip_preserves_spec_order(self):
        request = RunRequest(
            specs=(_spec(rho="3/10"), _spec(rho="7/10")),
            command="grid",
            options=RunOptions(jobs=2, cache=True, retries=1),
        )
        rebuilt = RunRequest.from_json(request.to_json())
        assert rebuilt == request
        assert [s.rho for s in rebuilt.specs] == [s.rho for s in request.specs]

    def test_single_spec_key_accepted(self):
        document = {"spec": _spec().canonical(), "command": "run"}
        assert RunRequest.from_json(document).spec == _spec()

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(bogus=1), "unknown request key(s): bogus"),
            (lambda d: d.update(request=99), "unsupported schema version"),
            (lambda d: d.update(command="fly"), "command:"),
            (lambda d: d.pop("specs"), "specs: required key is missing"),
            (lambda d: d["options"].update(jobs=-1), "options.jobs"),
            (lambda d: d["options"].update(warp=9), "options: unknown key(s): warp"),
            (lambda d: d["options"].update(engine="steam"), "options.engine"),
            (lambda d: d["specs"][0].update(n=0), "specs[0]"),
        ],
    )
    def test_validation_names_offending_field(self, mutate, fragment):
        document = RunRequest(specs=(_spec(),)).canonical()
        mutate(document)
        with pytest.raises(ConfigurationError, match=None) as excinfo:
            RunRequest.from_json(document)
        assert fragment in str(excinfo.value)

    def test_malformed_json_text(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            RunRequest.from_json("{not json")

    def test_run_takes_exactly_one_spec(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            RunRequest(specs=(_spec(), _spec(seed=1)), command="run")

    def test_sst_plan_rejects_dynamic_algorithm(self):
        request = RunRequest(specs=(_spec(),), command="sst")
        with pytest.raises(ConfigurationError, match="not an SST algorithm"):
            plan(request)


class TestExecuteParity:
    def test_run_matches_direct_engine_drive(self):
        spec = _spec()
        result = execute(RunRequest(specs=(spec,)))
        sim = spec.build()
        sim.run(until_time=spec.horizon)
        from repro.analysis import collect_metrics

        direct = collect_metrics(sim)
        assert result.ok
        assert result.metrics.delivered == direct.delivered
        assert result.metrics.backlog == direct.backlog
        assert result.metrics.collisions == direct.collisions
        assert result.engine == sim.engine
        assert result.served_from == "exec"

    def test_grid_matches_run_grid_report(self):
        specs = (_spec(rho="3/10"), _spec(rho="7/10"))
        result = execute(RunRequest(specs=specs, command="grid"))
        report = run_grid_report(specs, backlog_stride=8)
        assert result.ok
        assert [r.metrics.delivered for r in result.report.results] == [
            r.metrics.delivered for r in report.results
        ]
        assert [r.stable for r in result.report.results] == [
            r.stable for r in report.results
        ]

    def test_grid_cache_served_second_time(self, tmp_path):
        options = RunOptions(cache=True, cache_dir=str(tmp_path / "cache"))
        request = RunRequest(specs=(_spec(),), command="grid", options=options)
        first = execute(request)
        second = execute(request)
        assert first.cache_hits == 0
        assert second.cache_hits == 1
        assert second.served_from == "cache"

    def test_sst_solves_and_reports_bound(self):
        result = execute(RunRequest(specs=(_sst_spec(),), command="sst"))
        assert result.ok
        assert result.sst["solved_at"] is not None
        assert result.sst["max_slots"] <= result.sst["bound"]

    def test_sst_honors_forced_engine_and_timebase(self):
        """Each forced path is reported back and elects identically."""
        pytest.importorskip("numpy")
        outcomes = set()
        for engine, timebase in (
            ("object", "fraction"), ("object", "lattice"),
            ("batch", "lattice"),
        ):
            options = RunOptions(engine=engine, timebase=timebase)
            result = execute(RunRequest(
                specs=(_sst_spec(),), command="sst", options=options
            ))
            assert result.engine == engine
            assert result.timebase.split("(")[0] == timebase
            outcomes.add(tuple(
                result.sst[key] for key in ("solved_at", "winner", "max_slots")
            ))
        assert len(outcomes) == 1

    def test_artifact_stream_receives_records(self):
        stream = io.StringIO()
        result = execute(
            RunRequest(specs=(_spec(),)), artifact_stream=stream
        )
        assert result.ok
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines() if line]
        kinds = {r["type"] for r in records}
        assert "manifest" in kinds and "summary" in kinds

    def test_emit_jsonl_unwritable_path_names_it(self, tmp_path):
        options = RunOptions(emit_jsonl=str(tmp_path / "no" / "dir" / "o.jsonl"))
        with pytest.raises(ConfigurationError, match="cannot write"):
            execute(RunRequest(specs=(_spec(),), options=options))


class TestHistoryRows:
    """``execute`` writes exactly one row per request, complete at insert."""

    def test_run_adds_one_run_row(self):
        result = execute(RunRequest(specs=(_spec(),)))
        assert _kinds() == ["run"]
        entry = RunHistory().get(result.history_id)
        assert set(entry.extra) == {"delivered", "backlog", "engine",
                                    "timebase"}
        assert entry.extra["delivered"] == result.metrics.delivered

    def test_grid_row_carries_trace_and_csv_at_insert(self, tmp_path):
        csv = str(tmp_path / "grid.csv")
        options = RunOptions(trace="grid-trace.json", csv=csv)
        result = execute(RunRequest(
            specs=(_spec(rho="3/10"), _spec(rho="7/10")), command="grid",
            options=options,
        ))
        assert _kinds() == ["grid"]
        entry = RunHistory().get(result.history_id)
        assert (entry.trace_path, entry.artifact_path) == (
            "grid-trace.json", csv,
        )
        assert (entry.cells, entry.served_from) == (2, "exec")
        assert set(entry.extra) == {"engines"}

    def test_disabled_history_builds_no_row(self, monkeypatch):
        from repro.service import runner

        def row_part(*args, **kwargs):
            raise AssertionError("a history row was built while disabled")

        monkeypatch.setenv("REPRO_NO_HISTORY", "1")
        monkeypatch.setattr(runner, "_spec_hash", row_part)
        monkeypatch.setattr(runner, "git_sha", row_part)
        run = execute(RunRequest(specs=(_spec(),)))
        grid = execute(RunRequest(specs=(_spec(),), command="grid"))
        assert run.ok and grid.ok
        assert (run.history_id, grid.history_id) == (None, None)
        assert _kinds() == []

    def test_sst_adds_one_sst_row_with_engine(self):
        result = execute(RunRequest(specs=(_sst_spec(),), command="sst"))
        assert _kinds() == ["sst"]
        entry = RunHistory().get(result.history_id)
        assert entry.extra["engine"] == result.engine_described
        assert entry.extra["timebase"] == result.timebase
        assert entry.extra["solved"] is True
        assert entry.extra["max_slots"] == result.sst["max_slots"]


@pytest.fixture()
def daemon(tmp_path):
    server = create_server(
        "127.0.0.1", 0, cache_dir=str(tmp_path / "serve-cache"), quiet=True
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServer:
    def test_version_endpoint(self, daemon):
        _, url = daemon
        from repro import __version__

        payload = fetch_version(url)
        assert payload["version"] == __version__
        assert "git_sha" in payload and "request_schema" in payload

    def test_streamed_artifact_matches_local_run(self, daemon, tmp_path):
        _, url = daemon
        request = RunRequest(specs=(_spec(),))
        out = io.StringIO()
        envelope = submit_request(url, request, out=out, timeout=30)
        assert envelope["status"] == "ok"
        assert envelope["served_from"] == "exec"

        local_path = tmp_path / "local.jsonl"
        execute(request.replace_options(emit_jsonl=str(local_path)))

        def events(text):
            return [
                json.loads(line) for line in text.splitlines()
                if line and json.loads(line).get("type")
                not in ("manifest", "summary")
            ]

        assert events(out.getvalue()) == events(local_path.read_text())

    def test_second_submission_is_cache_served(self, daemon):
        server, url = daemon
        request = RunRequest(specs=(_spec(seed=7),))
        first = submit_request(url, request, timeout=30)
        out = io.StringIO()
        second = submit_request(url, request, out=out, timeout=30)
        assert first["served_from"] == "exec"
        assert second["served_from"] == "cache"
        # The cached replay still streams the full artifact.
        assert any(
            json.loads(line).get("type") == "summary"
            for line in out.getvalue().splitlines() if line
        )
        # One row per submission: the executed run, then its replay.
        assert _kinds(server.history_db) == ["run", "serve"]
        history = RunHistory(server.history_db)
        [replay] = history.query(kind="serve", served="cache")
        assert replay.cache_hits == 1
        assert first["history_id"] == history.query(kind="run")[0].id
        assert second["history_id"] == replay.id

    def test_grid_submission_streams_result_rows(self, daemon):
        server, url = daemon
        request = RunRequest(
            specs=(_spec(rho="3/10"), _spec(rho="7/10")), command="grid"
        )
        out = io.StringIO()
        envelope = submit_request(url, request, out=out, timeout=60)
        assert envelope["status"] == "ok"
        assert envelope["cells"] == 2
        rows = [json.loads(line) for line in out.getvalue().splitlines()
                if line]
        assert [r["type"] for r in rows] == ["result", "result"]
        assert all(r["stable"] in (True, False) for r in rows)
        assert _kinds(server.history_db) == ["grid"]

    def test_run_failing_mid_stream_records_one_serve_row(
        self, daemon, monkeypatch
    ):
        server, url = daemon
        from repro.service import server as server_module

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(server_module, "execute", explode)
        with pytest.raises(ServiceError, match="boom"):
            submit_request(url, RunRequest(specs=(_spec(),)), timeout=30)
        [entry] = RunHistory(server.history_db).list()
        assert (entry.kind, entry.status) == ("serve", "failed")

    def test_invalid_request_is_400_naming_field(self, daemon):
        _, url = daemon

        class Bad:
            def to_json(self, indent=None):
                document = RunRequest(specs=(_spec(),)).canonical()
                document["options"]["jobs"] = -1
                return json.dumps(document)

        with pytest.raises(ServiceError, match="options.jobs"):
            submit_request(url, Bad(), timeout=30)

    def test_client_paths_are_sanitized_away(self, daemon, tmp_path):
        _, url = daemon
        evil = str(tmp_path / "evil.jsonl")
        request = RunRequest(
            specs=(_spec(seed=3),),
            options=RunOptions(emit_jsonl=evil, trace=str(tmp_path / "t.json")),
        )
        envelope = submit_request(url, request, timeout=30)
        assert envelope["status"] == "ok"
        assert not (tmp_path / "evil.jsonl").exists()
        assert not (tmp_path / "t.json").exists()

    def test_profile_is_dropped(self, daemon, monkeypatch):
        """The daemon sends no profile report, so a submitted
        ``"profile": true`` must not make the run pay for one."""
        _, url = daemon
        from repro.service import server as server_module

        executed = []
        real_execute = server_module.execute

        def spy(request, **kwargs):
            executed.append(request.options)
            return real_execute(request, **kwargs)

        monkeypatch.setattr(server_module, "execute", spy)
        request = RunRequest(
            specs=(_spec(seed=5),), options=RunOptions(profile=True)
        )
        envelope = submit_request(url, request, timeout=30)
        assert envelope["status"] == "ok"
        assert [options.profile for options in executed] == [False]

    def test_unknown_endpoint_404(self, daemon):
        _, url = daemon
        with pytest.raises(ServiceError, match="no such endpoint"):
            fetch_version(url + "/nope")

    def test_unreachable_daemon(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            fetch_version("http://127.0.0.1:1", timeout=2)
