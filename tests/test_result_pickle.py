"""Stored grid results keep their bytes and read back equal.

A cache entry is a pickled :class:`~repro.analysis.CellResult` holding
a :class:`~repro.analysis.RunMetrics`.  Both classes restore their
state through ``repro.analysis.metrics.setstate_by_field`` (one
``object.__setattr__`` per field) instead of dataclasses' generic slots
version, which looks the fields up again for every object it loads.
Pickling still goes through the generated ``__getstate__``, so the
stored bytes must not change: ``golden/cell_result_pickle.json`` pins
the bytes of fixed results as they were written while the generic
method restored them.  How a ``Fraction`` pickles depends on the
interpreter (its string before Python 3.11, ``(numerator,
denominator)`` from then on), so the golden holds one hex string per
form and each interpreter checks its own.  Regenerate only for a
deliberate format change (which orphans every existing cache entry)
with ``PYTHONPATH=src python tests/test_result_pickle.py``, once on an
interpreter of each form: each run rewrites its own form's bytes.
"""

import dataclasses
import json
import pathlib
import pickle
import sys
from fractions import Fraction
from unittest import mock

from repro.analysis import CellResult, RunMetrics

GOLDEN = (pathlib.Path(__file__).resolve().parent / "golden"
          / "cell_result_pickle.json")

#: The protocol ``repro.exec.cache`` stores entries with.
PROTOCOL = pickle.HIGHEST_PROTOCOL

#: How this interpreter pickles a Fraction.
FRACTION_FORM = ("pair" if Fraction(1, 2).__reduce__()[1] == (1, 2)
                 else "string")


def _results():
    """Two results: exact latencies and queues, and an idle cell."""
    busy = RunMetrics(
        horizon=Fraction(601, 2), delivered=42, delivered_cost=Fraction(63, 2),
        backlog=3, max_backlog=7, collisions=2, control_transmissions=1,
        throughput_cost=Fraction(21, 200), throughput_packets=Fraction(7, 50),
        mean_latency=Fraction(17, 4), max_latency=Fraction(12),
        per_station_queue={1: 0, 2: 2, 3: 1},
    )
    idle = RunMetrics(
        horizon=Fraction(1), delivered=0, delivered_cost=Fraction(0),
        backlog=0, max_backlog=0, collisions=0, control_transmissions=0,
        throughput_cost=Fraction(0), throughput_packets=Fraction(0),
        mean_latency=None, max_latency=None, per_station_queue={7: 0},
    )
    return (
        CellResult(
            name="ca-arrow@rho=1/2", labels={"family": "ca-arrow", "rho": "1/2"},
            metrics=busy, stable=True, peak_backlog=7, engine="batch",
            timebase="lattice(1/2)", engine_described="batch(adaptive)",
        ),
        CellResult(
            name="idle", labels={}, metrics=idle, stable=True,
            peak_backlog=0,
        ),
    )


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_pickled_bytes_are_pinned():
    golden = _golden()
    assert golden["protocol"] == PROTOCOL
    assert (pickle.dumps(_results(), protocol=PROTOCOL).hex()
            == golden["hex"][FRACTION_FORM])


def test_pinned_bytes_of_every_form_load_equal():
    for form, pinned in _golden()["hex"].items():
        loaded = pickle.loads(bytes.fromhex(pinned))
        assert loaded == _results(), form
        for result in loaded:
            assert type(result.metrics.horizon) is Fraction
            assert all(type(size) is int
                       for size in result.metrics.per_station_queue.values())


def test_loading_looks_no_field_up():
    # dataclasses' generic __setstate__ calls fields() for every object
    # it restores; ours must be the one installed, on every version.
    stored = pickle.dumps(_results(), protocol=PROTOCOL)

    def no_lookup(*args, **kwargs):
        raise AssertionError("a load looked the dataclass fields up")

    with mock.patch.object(dataclasses, "fields", no_lookup):
        loaded = pickle.loads(stored)
    assert loaded == _results()


if __name__ == "__main__":
    document = (_golden() if GOLDEN.exists()
                else {"protocol": PROTOCOL, "hex": {}})
    assert document["protocol"] == PROTOCOL
    document["hex"][FRACTION_FORM] = pickle.dumps(
        _results(), protocol=PROTOCOL).hex()
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote the {FRACTION_FORM} form to {GOLDEN}", file=sys.stderr)
