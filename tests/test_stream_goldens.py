"""Golden streams: the bytes an observed run writes, pinned on disk.

The other stream checks compare two outputs of the same code (a daemon
against a local run, a cache replay against an execution).  These
fixtures pin the output itself, so a rewrite of the probe payloads, the
metrics pack or the JSONL writer must reproduce it byte for byte:

* the streamed artifact of two bundled scenarios, on their tick lattice
  and on the exact-Fraction timebase — ``aloha_random`` (lattice 1/8,
  collisions) and ``ca_arrow_jammed`` (lattice 1/2, jammer collisions);
* one writer with ``slot_stride=3`` and ``metrics_every=50``, whose
  interleaved snapshots must keep their place among the records;
* the ``--metrics`` render lines of the four streamed runs;
* one metrics pack and one writer on a bus shared by a lattice-1/2 run
  and then a lattice-1/8 run, which must not mix the two runs' units.

Event records (``slot``, ``arrival``, ``delivery``, ``collision``) are
compared verbatim.  Manifest, summary and metrics records are compared
after dropping what differs between executions of the same code (the
clock, the commit and the wall-clock throughput) and re-serializing
with the writer's separators.

Regenerate after a deliberate format change with
``PYTHONPATH=src python tests/test_stream_goldens.py``.
"""

import io
import json
import pathlib
from typing import Dict, List

import pytest

from repro.obs import JsonlRunWriter, ProbeBus, RunManifest, SimulationMetrics
from repro.scenarios import load_spec
from repro.service import RunOptions, RunRequest, execute

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

#: Per-execution fields, by record type.
_VOLATILE = {
    "manifest": ("created_at", "git_commit", "repro_version"),
    "summary": ("wall_time_s", "events_per_second"),
}

#: (bundled scenario, horizon) of the streamed runs.
_STREAMED = (("aloha_random", "48"), ("ca_arrow_jammed", "40"))
_TIMEBASES = ("auto", "fraction")


def normalize(text: str) -> str:
    """``text`` with the per-execution fields of its records removed."""
    out: List[str] = []
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        kind = record["type"]
        if kind not in ("manifest", "summary", "metrics"):
            out.append(line)
            continue
        for key in _VOLATILE.get(kind, ()):
            record.pop(key, None)
        pack = record.get("data" if kind == "metrics" else "metrics")
        if pack is not None:
            pack.pop("events_per_second", None)
        out.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(out)


def _render(lines) -> List[str]:
    return [line for line in lines if not line.startswith("events_per_second")]


def _spec(stem: str, horizon: str):
    return load_spec(SCENARIOS / f"{stem}.json").replace(horizon=horizon)


def streamed(stem: str, horizon: str, timebase: str) -> str:
    """The normalized artifact ``execute`` streams for one bundled run."""
    stream = io.StringIO()
    request = RunRequest(
        specs=(_spec(stem, horizon),), options=RunOptions(timebase=timebase)
    )
    execute(request, artifact_stream=stream)
    return normalize(stream.getvalue())


def rendered() -> Dict[str, List[str]]:
    """The ``--metrics`` lines of every streamed run, by run."""
    return {
        f"{stem}/{timebase}": _render(execute(RunRequest(
            specs=(_spec(stem, horizon),),
            options=RunOptions(timebase=timebase, metrics=True),
        )).metrics_lines)
        for stem, horizon in _STREAMED
        for timebase in _TIMEBASES
    }


def strided() -> str:
    """A writer keeping every third slot and a snapshot every 50."""
    stream = io.StringIO()
    bus = ProbeBus()
    pack = SimulationMetrics()
    pack.attach(bus)
    spec = _spec("aloha_random", "120")
    writer = JsonlRunWriter(
        stream=stream, manifest=RunManifest.create(spec=spec.canonical()),
        slot_stride=3, metrics=pack, metrics_every=50,
    ).attach(bus)
    sim = spec.build(probes=bus)
    sim.run(until_time=spec.horizon)
    writer.close(sim=sim)
    return normalize(stream.getvalue())


def mixed() -> str:
    """One pack and one writer over a lattice-1/2 run, then a 1/8 one."""
    stream = io.StringIO()
    bus = ProbeBus()
    pack = SimulationMetrics()
    pack.attach(bus)
    writer = JsonlRunWriter(stream=stream, metrics=pack).attach(bus)
    sims = []
    for stem in ("ca_arrow_worst", "aloha_random"):
        spec = _spec(stem, "24")
        sim = spec.build(probes=bus)
        sim.run(until_time=spec.horizon)
        sims.append(sim)
    assert [sim.timebase.denominator for sim in sims] == [2, 8]
    writer.close(sim=sims[-1])
    lines = "".join(json.dumps(line) + "\n" for line in _render(pack.render()))
    return normalize(stream.getvalue()) + lines


def goldens() -> Dict[str, str]:
    """Every fixture this module pins, by file name."""
    files = {
        f"stream_{stem}_{timebase}.jsonl": streamed(stem, horizon, timebase)
        for stem, horizon in _STREAMED
        for timebase in _TIMEBASES
    }
    files["stream_stride3_metrics50.jsonl"] = strided()
    files["stream_mixed_timebases.jsonl"] = mixed()
    files["metrics_render.json"] = json.dumps(rendered(), indent=1) + "\n"
    return files


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("timebase", _TIMEBASES)
@pytest.mark.parametrize("stem,horizon", _STREAMED)
def test_streamed_artifact_is_golden(stem, horizon, timebase):
    text = streamed(stem, horizon, timebase)
    assert text == _golden(f"stream_{stem}_{timebase}.jsonl")


def test_streamed_runs_cover_every_record_type():
    """The fixtures exercise every template: collisions included."""
    for stem, _ in _STREAMED:
        kinds = {
            json.loads(line)["type"]
            for line in _golden(f"stream_{stem}_auto.jsonl").splitlines()
        }
        assert kinds == {"manifest", "slot", "arrival", "delivery",
                         "collision", "summary"}, stem


def test_strided_stream_keeps_snapshots_in_place():
    text = strided()
    assert text == _golden("stream_stride3_metrics50.jsonl")
    kinds = [json.loads(line)["type"] for line in text.splitlines()]
    assert kinds.count("metrics") >= 3


def test_metrics_render_lines_are_golden():
    assert rendered() == json.loads(_golden("metrics_render.json"))


def test_one_pack_over_two_lattices_keeps_units_apart():
    assert mixed() == _golden("stream_mixed_timebases.jsonl")


if __name__ == "__main__":
    for name, text in goldens().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name} ({len(text.encode('utf-8'))} bytes)")
