"""Unit tests for the slot-length adversaries."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from repro.core import AlwaysListen, ConfigurationError, Simulator
from repro.timing import (
    Adaptive,
    CyclicPattern,
    FixedLength,
    PerStationFixed,
    RandomUniform,
    StretchTransmitters,
    Synchronous,
    TableDriven,
    worst_case_for,
)


class _Sim:
    """Minimal stand-in; only adversaries needing state get a real one."""


class TestSynchronous:
    def test_always_unit(self):
        adv = Synchronous()
        for j in range(10):
            assert adv.next_slot_length(_Sim(), 1, j) == 1


class TestFixedLength:
    def test_constant(self):
        adv = FixedLength("5/2")
        assert adv.next_slot_length(_Sim(), 3, 7) == Fraction(5, 2)


class TestPerStationFixed:
    def test_per_station(self):
        adv = PerStationFixed({1: 1, 2: "3/2"})
        assert adv.next_slot_length(_Sim(), 1, 0) == 1
        assert adv.next_slot_length(_Sim(), 2, 0) == Fraction(3, 2)

    def test_unknown_station_rejected(self):
        adv = PerStationFixed({1: 1})
        with pytest.raises(ConfigurationError):
            adv.next_slot_length(_Sim(), 9, 0)


class TestCyclicPattern:
    def test_cycles(self):
        adv = CyclicPattern({1: [1, 2, "3/2"]})
        lengths = [adv.next_slot_length(_Sim(), 1, j) for j in range(6)]
        assert lengths == [1, 2, Fraction(3, 2)] * 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            CyclicPattern({1: []})


class TestTableDriven:
    def test_table_then_default(self):
        adv = TableDriven({1: [2, "3/2"]}, default=1)
        assert adv.next_slot_length(_Sim(), 1, 0) == 2
        assert adv.next_slot_length(_Sim(), 1, 1) == Fraction(3, 2)
        assert adv.next_slot_length(_Sim(), 1, 2) == 1

    def test_unknown_station_gets_default(self):
        adv = TableDriven({}, default="7/4")
        assert adv.next_slot_length(_Sim(), 5, 0) == Fraction(7, 4)


class TestRandomUniform:
    def test_deterministic_per_seed(self):
        a = RandomUniform(3, seed=11)
        b = RandomUniform(3, seed=11)
        seq_a = [a.next_slot_length(_Sim(), 1, j) for j in range(50)]
        seq_b = [b.next_slot_length(_Sim(), 1, j) for j in range(50)]
        assert seq_a == seq_b

    def test_lengths_in_range(self):
        adv = RandomUniform(4, seed=3)
        for j in range(200):
            length = adv.next_slot_length(_Sim(), 1, j)
            assert 1 <= length <= 4

    @pytest.mark.parametrize("steps", [0, 1, 7, 8, 15])
    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**40 + 7])
    def test_draw_is_randint(self, steps, seed):
        # The same values, and the same bits consumed: steps = 0 still
        # draws (randint(0, 0) redraws a bit until it reads 0).
        adv = RandomUniform(steps + 1, seed=seed, denominator=1)
        reference = random.Random(seed)
        draws = [adv.draw() for _ in range(300)]
        assert draws == [reference.randint(0, steps) for _ in range(300)]
        assert adv._rng.getstate() == reference.getstate()

    def test_lengths_are_one_plus_draw_over_denominator(self):
        adv = RandomUniform(3, seed=5, denominator=8)
        reference = random.Random(5)
        lengths = [adv.next_slot_length(_Sim(), 1, j) for j in range(200)]
        assert lengths == [
            Fraction(8 + reference.randint(0, 16), 8) for _ in range(200)
        ]

    def test_a_fine_denominator_keeps_memory_constant(self):
        # Each length is made on its draw (a bounded cache shares the
        # repeats), never as a table of all (R - 1) * denominator + 1.
        den = 10**5
        tracemalloc.start()
        try:
            adv = RandomUniform(2, seed=3, denominator=den)
            lengths = [adv.next_slot_length(_Sim(), 1, j) for j in range(500)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        reference = random.Random(3)
        assert lengths == [
            Fraction(den + reference.randint(0, den), den) for _ in range(500)
        ]

    def test_non_divisible_span_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomUniform("7/3", seed=0, denominator=2)

    def test_r_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomUniform("1/2", seed=0)


class TestAdaptive:
    def test_callback_receives_arguments(self):
        seen = []

        def decide(sim, sid, idx):
            seen.append((sid, idx))
            return 1

        adv = Adaptive(decide)
        adv.next_slot_length(_Sim(), 4, 9)
        assert seen == [(4, 9)]


class TestStretchTransmitters:
    def test_listening_station_gets_unit_slots(self):
        sim = Simulator([AlwaysListen()], StretchTransmitters(3), 3)
        sim.run(until_time=5)
        assert sim.slots_elapsed(1) == 5  # all unit length

    def test_transmitting_station_gets_max_slots(self):
        from repro.core import AlwaysTransmit

        sim = Simulator([AlwaysTransmit()], StretchTransmitters(3), 3)
        sim.run(until_time=6)
        assert sim.slots_elapsed(1) == 2  # all length 3


class TestWorstCaseFor:
    def test_unit_r_degenerates_to_synchronous(self):
        adv = worst_case_for(1)
        assert adv.next_slot_length(_Sim(), 1, 0) == 1

    def test_lengths_within_bound(self):
        adv = worst_case_for(3)
        for sid in (1, 2):
            for j in range(12):
                assert 1 <= adv.next_slot_length(_Sim(), sid, j) <= 3

    def test_stations_get_different_patterns(self):
        adv = worst_case_for(2)
        seq1 = [adv.next_slot_length(_Sim(), 1, j) for j in range(12)]
        seq2 = [adv.next_slot_length(_Sim(), 2, j) for j in range(12)]
        assert seq1 != seq2
