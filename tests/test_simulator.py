"""Integration-grade unit tests for the event-driven simulator."""

from fractions import Fraction

import pytest

from repro.arrivals import StaticSchedule
from repro.core import (
    AlwaysListen,
    AlwaysTransmit,
    ConfigurationError,
    Feedback,
    LISTEN,
    ProtocolError,
    Simulator,
    SlotContext,
    StationAlgorithm,
    TRANSMIT_PACKET,
    Trace,
)
from repro.timing import FixedLength, PerStationFixed, Synchronous, TableDriven


class TransmitOnceWithPacket(StationAlgorithm):
    """Transmits its queued packet in the first slot, then listens."""

    def first_action(self, ctx):
        return TRANSMIT_PACKET if ctx.queue_size else LISTEN

    def on_slot_end(self, ctx):
        return LISTEN


class FeedbackRecorder(StationAlgorithm):
    """Pure observer that logs the feedback sequence it receives."""

    def __init__(self):
        self.feedback_log = []

    def first_action(self, ctx):
        return LISTEN

    def on_slot_end(self, ctx):
        self.feedback_log.append(ctx.feedback)
        return LISTEN


class TestConstruction:
    def test_sequence_gets_one_based_ids(self):
        sim = Simulator([AlwaysListen(), AlwaysListen()], Synchronous(), 1)
        assert sim.station_ids == (1, 2)

    def test_mapping_keeps_explicit_ids(self):
        sim = Simulator({3: AlwaysListen(), 7: AlwaysListen()}, Synchronous(), 1)
        assert sim.station_ids == (3, 7)

    def test_empty_station_set_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator([], Synchronous(), 1)

    def test_r_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator([AlwaysListen()], Synchronous(), "1/2")

    def test_run_without_stop_condition_rejected(self):
        sim = Simulator([AlwaysListen()], Synchronous(), 1)
        with pytest.raises(ConfigurationError):
            sim.run()


class TestEventLoop:
    def test_until_time_processes_all_slots_ending_by_then(self):
        sim = Simulator([AlwaysListen()], Synchronous(), 1)
        sim.run(until_time=10)
        assert sim.slots_elapsed(1) == 10
        assert sim.now == 10

    def test_max_events_bound(self):
        sim = Simulator([AlwaysListen(), AlwaysListen()], Synchronous(), 1)
        sim.run(max_events=7)
        assert sim.events_processed == 7

    def test_slot_lengths_respected(self):
        sim = Simulator([AlwaysListen()], FixedLength(2), 2)
        sim.run(until_time=10)
        assert sim.slots_elapsed(1) == 5

    def test_asynchronous_slot_counts_differ(self):
        sim = Simulator(
            [AlwaysListen(), AlwaysListen()],
            PerStationFixed({1: 1, 2: 2}),
            2,
        )
        sim.run(until_time=20)
        assert sim.slots_elapsed(1) == 20
        assert sim.slots_elapsed(2) == 10

    def test_adversary_outside_range_caught(self):
        sim = Simulator([AlwaysListen()], FixedLength(3), 2)
        with pytest.raises(ConfigurationError):
            sim.run(until_time=5)

    def test_stop_when_predicate(self):
        sim = Simulator([AlwaysListen()], Synchronous(), 1)
        sim.run(stop_when=lambda s: s.events_processed >= 3, max_events=100)
        assert sim.events_processed == 3


class TestFeedbackDelivery:
    def test_listener_hears_silence_on_idle_channel(self):
        rec = FeedbackRecorder()
        sim = Simulator([rec], Synchronous(), 1)
        sim.run(until_time=3)
        assert rec.feedback_log == [Feedback.SILENCE] * 3

    def test_listener_hears_ack_of_lone_transmission(self):
        rec = FeedbackRecorder()
        sim = Simulator(
            {1: TransmitOnceWithPacket(), 2: rec},
            Synchronous(),
            1,
            initial_packets=1,
        )
        sim.run(until_time=2)
        assert rec.feedback_log[0] == Feedback.ACK

    def test_listener_hears_busy_on_collision(self):
        rec = FeedbackRecorder()
        sim = Simulator(
            {1: AlwaysTransmit(), 2: AlwaysTransmit(), 3: rec},
            Synchronous(),
            1,
        )
        sim.run(until_time=2)
        assert rec.feedback_log[0] == Feedback.BUSY

    def test_transmitter_gets_ack_and_delivers(self):
        sim = Simulator(
            {1: TransmitOnceWithPacket()}, Synchronous(), 1, initial_packets=1
        )
        sim.run(until_time=2)
        assert len(sim.delivered_packets) == 1
        packet = sim.delivered_packets[0]
        assert packet.cost == Fraction(1)
        assert packet.delivered_time == Fraction(1)
        assert sim.total_backlog == 0

    def test_collided_packet_stays_queued(self):
        sim = Simulator(
            {1: TransmitOnceWithPacket(), 2: TransmitOnceWithPacket()},
            Synchronous(),
            1,
            initial_packets=1,
        )
        sim.run(until_time=3)
        assert len(sim.delivered_packets) == 0
        assert sim.queue_size(1) == 1 and sim.queue_size(2) == 1

    def test_partial_overlap_collision_under_asynchrony(self):
        # Station 1 transmits [0, 2); station 2 transmits [0, 3/2):
        # overlap in real time destroys both.
        sim = Simulator(
            {1: TransmitOnceWithPacket(), 2: TransmitOnceWithPacket()},
            PerStationFixed({1: 2, 2: "3/2"}),
            2,
            initial_packets=1,
        )
        sim.run(until_time=4)
        assert sim.channel.stats.collisions == 2
        assert len(sim.delivered_packets) == 0


class TestProtocolEnforcement:
    def test_packet_transmit_with_empty_queue_rejected(self):
        class Liar(StationAlgorithm):
            def first_action(self, ctx):
                return TRANSMIT_PACKET

            def on_slot_end(self, ctx):
                return LISTEN

        sim = Simulator([Liar()], Synchronous(), 1)
        with pytest.raises(ProtocolError):
            sim.run(until_time=1)

    def test_control_transmit_without_capability_rejected(self):
        from repro.core import TRANSMIT_CONTROL

        class Cheater(StationAlgorithm):
            uses_control_messages = False

            def first_action(self, ctx):
                return TRANSMIT_CONTROL

            def on_slot_end(self, ctx):
                return LISTEN

        sim = Simulator([Cheater()], Synchronous(), 1)
        with pytest.raises(ProtocolError):
            sim.run(until_time=1)


class TestArrivalsDelivery:
    def test_arrival_visible_at_next_slot_boundary(self):
        log = []

        class QueueWatcher(StationAlgorithm):
            def first_action(self, ctx):
                return LISTEN

            def on_slot_end(self, ctx):
                log.append((ctx.slot_index, ctx.queue_size))
                return LISTEN

        source = StaticSchedule([("3/2", 1)])
        sim = Simulator([QueueWatcher()], Synchronous(), 1, arrival_source=source)
        sim.run(until_time=4)
        # Arrival at t=3/2 becomes visible at the end of slot [1,2).
        assert (1, 0) in log  # end of slot [0,1): not yet
        assert (2, 1) in log  # end of slot [1,2): visible

    def test_arrival_exactly_at_boundary_included(self):
        log = []

        class QueueWatcher(StationAlgorithm):
            def first_action(self, ctx):
                return LISTEN

            def on_slot_end(self, ctx):
                log.append(ctx.queue_size)
                return LISTEN

        source = StaticSchedule([(1, 1)])
        sim = Simulator([QueueWatcher()], Synchronous(), 1, arrival_source=source)
        sim.run(until_time=2)
        assert log[0] == 1

    def test_backlog_counts_pending_arrivals(self):
        source = StaticSchedule([("1/2", 1)])
        sim = Simulator([AlwaysListen()], Synchronous(), 1, arrival_source=source)
        sim.run(until_time=1)
        assert sim.total_backlog == 1


class TestTraceRecording:
    def test_slot_records_written(self):
        trace = Trace(record_slots=True)
        sim = Simulator(
            {1: TransmitOnceWithPacket(), 2: AlwaysListen()},
            Synchronous(),
            1,
            initial_packets=1,
            trace=trace,
        )
        sim.run(until_time=3)
        mine = [record for record in trace.slots if record.station_id == 1]
        assert mine[0].action.is_transmit
        assert mine[0].delivered
        assert mine[0].feedback is Feedback.ACK

    def test_backlog_max_tracked(self):
        source = StaticSchedule([(0, 1), (0, 1), (1, 1)])
        sim = Simulator([AlwaysListen()], Synchronous(), 1, arrival_source=source)
        sim.run(until_time=2)
        assert sim.trace.max_backlog == 3


class TestDeterminism:
    def test_identical_runs_are_bitwise_identical(self):
        def run():
            from repro.algorithms import AOArrow
            from repro.arrivals import UniformRate
            from repro.timing import RandomUniform

            algos = {i: AOArrow(i, 3, 2) for i in range(1, 4)}
            source = UniformRate(rho="1/2", targets=[1, 2, 3], assumed_cost=2)
            sim = Simulator(
                algos,
                RandomUniform(2, seed=42),
                2,
                arrival_source=source,
            )
            sim.run(until_time=500)
            return (
                sim.total_backlog,
                len(sim.delivered_packets),
                sim.channel.stats.collisions,
                [p.delivered_time for p in sim.delivered_packets],
            )

        assert run() == run()
