"""The observation path's units: tick text and slot-length tallies.

The JSONL writer turns a tick count into fraction text without building
a Fraction, and the metrics pack counts slot lengths in ticks unless its
histogram is windowed, in which case it observes public lengths one by
one.  Both must read exactly like the exact-Fraction answer.
"""

from fractions import Fraction

import pytest

from repro.obs import ProbeBus, SimulationMetrics
from repro.obs.artifacts import _tick_text
from repro.scenarios import ScenarioSpec


def test_tick_text_is_the_fraction_text():
    for denominator in range(1, 31):
        text = _tick_text(denominator)
        for ticks in range(0, 200):
            assert text(ticks) == str(Fraction(ticks, denominator))


def test_windowed_pack_reads_like_the_tick_tally():
    spec = ScenarioSpec(algorithm="aloha", n=4, max_slot="2",
                        schedule="random", rho="1/2", seed=3, horizon="48")
    histograms = []
    for window in (None, 10):
        bus = ProbeBus()
        pack = SimulationMetrics(slot_length_window=window)
        pack.attach(bus)
        spec.build(probes=bus).run(until_time=spec.horizon)
        histograms.append(pack.registry.histogram("slot_length"))
    ticks, windowed = histograms
    assert len(ticks.counts) > 1
    assert windowed.counts == ticks.counts
    assert (windowed.count, windowed.total) == (ticks.count, ticks.total)
    assert sum(windowed.recent_counts().values()) == 10
    with pytest.raises(ValueError, match="windowed"):
        windowed.scaled_counts(8)
