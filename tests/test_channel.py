"""Unit tests for the channel's overlap resolution and feedback oracle."""

from fractions import Fraction

import pytest

from repro.core import Channel, Feedback, SimulationError, make_interval

from .helpers import replay_in_event_order, scan_feedback


def tx(channel, sid, a, b):
    return channel.begin_transmission(sid, make_interval(a, b), packet=None)


class TestOverlapResolution:
    def test_lone_transmission_succeeds(self):
        ch = Channel()
        t = tx(ch, 1, 0, 1)
        assert t.successful

    def test_two_overlapping_both_fail(self):
        ch = Channel()
        t1 = tx(ch, 1, 0, 2)
        t2 = tx(ch, 2, 1, 3)
        assert not t1.successful and not t2.successful
        assert ch.stats.collisions == 2

    def test_touching_transmissions_both_succeed(self):
        ch = Channel()
        t1 = tx(ch, 1, 0, 2)
        t2 = tx(ch, 2, 2, 4)
        assert t1.successful and t2.successful
        assert ch.stats.collisions == 0

    def test_three_way_pileup(self):
        ch = Channel()
        records = [tx(ch, 1, 0, 3), tx(ch, 2, 1, 2), tx(ch, 3, 1, 4)]
        assert all(not r.successful for r in records)
        assert ch.stats.collisions == 3

    def test_collision_counted_once_per_transmission(self):
        ch = Channel()
        tx(ch, 1, 0, 10)
        tx(ch, 2, 1, 2)
        tx(ch, 3, 3, 4)  # overlaps only the first
        assert ch.stats.collisions == 3  # 1, 2, 3 each counted once

    def test_nested_transmission_kills_both(self):
        ch = Channel()
        t1 = tx(ch, 1, 0, 5)
        t2 = tx(ch, 2, 2, 3)
        assert not t1.successful and not t2.successful

    def test_out_of_order_recording_rejected(self):
        ch = Channel()
        tx(ch, 1, 5, 6)
        with pytest.raises(SimulationError):
            tx(ch, 2, 4, 7)

    def test_equal_start_times_allowed(self):
        ch = Channel()
        t1 = tx(ch, 1, 3, 4)
        t2 = tx(ch, 2, 3, 5)
        assert not t1.successful and not t2.successful


class TestFeedbackOracle:
    def test_silence_when_nothing_recorded(self):
        ch = Channel()
        assert ch.feedback_for(make_interval(0, 1)) is Feedback.SILENCE

    def test_activity_on_partial_overlap(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        assert ch.feedback_for(make_interval(1, 3)) is not Feedback.SILENCE

    def test_no_activity_for_touching_slot(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        assert ch.feedback_for(make_interval(2, 3)) is Feedback.SILENCE

    def test_ack_when_success_ends_inside_slot(self):
        ch = Channel()
        t = tx(ch, 1, 0, 2)
        assert ch.feedback_for(make_interval(1, 3)) is Feedback.ACK
        assert t.successful

    def test_ack_at_exact_slot_end(self):
        ch = Channel()
        t = tx(ch, 1, 0, 2)
        assert ch.feedback_for(make_interval(1, 2)) is Feedback.ACK
        assert t.successful

    def test_no_ack_for_collided_transmission(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        tx(ch, 2, 1, 3)
        feedback = ch.feedback_for(make_interval(0, 4))
        assert feedback is not Feedback.ACK
        assert feedback is not Feedback.SILENCE

    def test_two_successes_in_one_long_slot(self):
        # Back-to-back successes inside one long listening slot: one
        # acknowledgment, the ACK mark sits at the latest-ending one,
        # and both are finalized successes.
        ch = Channel()
        t1 = tx(ch, 1, 0, 1)
        t2 = tx(ch, 2, 1, 2)
        slot = make_interval(0, 3)
        assert ch.feedback_for(slot) is Feedback.ACK
        ack, _busy = ch.marks(slot.end)
        assert ack == t2.interval.end
        assert t1.successful and t2.successful
        assert ch.finalized_successes(slot.end) == 2

    def test_count_successes_up_to(self):
        ch = Channel()
        tx(ch, 1, 0, 1)
        tx(ch, 2, 2, 3)
        assert ch.count_successes_up_to(Fraction(1)) == 1
        assert ch.count_successes_up_to(Fraction(3)) == 2
        assert ch.count_successes_up_to(Fraction(1, 2)) == 0


class TestPruning:
    def test_prune_folds_success_stats(self):
        ch = Channel()
        tx(ch, 1, 0, 1)
        tx(ch, 2, 2, 3)
        ch.prune_before(Fraction(2))
        assert ch.stats.successes == 1
        assert ch.stats.success_time == Fraction(1)
        assert len(ch.live_records) == 1

    def test_count_consistent_across_prune(self):
        ch = Channel()
        for k in range(10):
            tx(ch, 1, 2 * k, 2 * k + 1)
        before = ch.count_successes_up_to(Fraction(100))
        ch.prune_before(Fraction(9))
        assert ch.count_successes_up_to(Fraction(100)) == before == 10

    def test_first_success_end_tracked_through_prune(self):
        ch = Channel()
        tx(ch, 1, 5, 6)
        tx(ch, 2, 7, 8)
        ch.prune_before(Fraction(100))
        assert ch.first_success_end == Fraction(6)

    def test_busy_time_accumulates(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        tx(ch, 2, 5, Fraction(13, 2))
        assert ch.stats.busy_time == Fraction(7, 2)

    def test_control_transmissions_counted(self):
        ch = Channel()
        ch.begin_transmission(1, make_interval(0, 1), packet=None)
        assert ch.stats.control_transmissions == 1


class TestFeedbackFor:
    """The two-mark oracle equals the brute-force scan of every record."""

    def test_matches_composed_oracle_on_mixed_history(self):
        transmissions = [
            (1, 0, 1),                       # success
            (2, 2, 4),                       # collides with next
            (3, 3, 5),
            (1, 6, Fraction(15, 2)),         # success, rational end
        ]
        slots = [make_interval(a, b) for a, b in [
            (0, 1), (1, 2), (0, 4), (2, 3), (4, 5), (5, 6),
            (6, 8), (0, 8), (Fraction(13, 2), 7)]]
        for queries_first in (False, True):
            ch = Channel()
            records, feedback = replay_in_event_order(
                ch, transmissions, slots, queries_first
            )
            triples = [
                (r.interval.start, r.interval.end, r.successful)
                for r in records
            ]
            for slot, got in zip(slots, feedback):
                assert got is scan_feedback(triples, slot), (slot, queries_first)
        assert feedback == [
            Feedback.ACK, Feedback.SILENCE, Feedback.ACK, Feedback.BUSY,
            Feedback.BUSY, Feedback.SILENCE, Feedback.ACK, Feedback.ACK,
            Feedback.BUSY,
        ]

    def test_ack_dominates_overlapping_collision(self):
        ch = Channel()
        tx(ch, 1, 0, 3)                      # collided pair spans the slot
        tx(ch, 2, 1, 4)
        tx(ch, 3, 5, 6)                      # clean success
        assert ch.feedback_for(make_interval(2, 6)) is Feedback.ACK

    def test_silence_after_touching_transmission(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        assert ch.feedback_for(make_interval(2, 3)) is Feedback.SILENCE

    def test_busy_without_finished_success(self):
        ch = Channel()
        tx(ch, 1, 0, 4)
        assert ch.feedback_for(make_interval(1, 3)) is Feedback.BUSY


class TestSuccessTracker:
    """Incremental finalized-success counter vs the counting scan."""

    def test_matches_count_successes_up_to(self):
        ch = Channel()
        for moment in range(0, 13):
            if moment % 2 == 0 and moment < 12:
                tx(ch, 1, moment, moment + 1)
            assert ch.finalized_successes(Fraction(moment)) == \
                ch.count_successes_up_to(Fraction(moment))

    def test_collisions_never_counted(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        tx(ch, 2, 1, 3)
        tx(ch, 3, 4, 5)
        assert ch.finalized_successes(Fraction(10)) == 1
        assert ch.first_success_end == Fraction(5)

    def test_survives_pruning(self):
        ch = Channel()
        for k in range(8):
            tx(ch, 1, 2 * k, 2 * k + 1)
        ch.prune_before(Fraction(9))
        tx(ch, 1, 20, 21)
        assert ch.finalized_successes(Fraction(30)) == 9
        assert ch.first_success_end == Fraction(1)


class TestTimeOrder:
    """Queries and recordings must come in time order (the contract)."""

    def test_query_before_the_clock_rejected(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        assert ch.feedback_for(make_interval(0, 3)) is Feedback.ACK
        with pytest.raises(SimulationError, match="time order"):
            ch.feedback_for(make_interval(0, 2))
        with pytest.raises(SimulationError, match="time order"):
            ch.finalized_successes(Fraction(1))

    def test_query_before_a_recorded_start_rejected(self):
        ch = Channel()
        tx(ch, 1, 4, 5)
        with pytest.raises(SimulationError, match="time order"):
            ch.feedback_for(make_interval(1, 3))

    def test_transmission_before_the_last_query_rejected(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        ch.feedback_for(make_interval(1, 3))
        with pytest.raises(SimulationError, match="time order"):
            tx(ch, 2, 2, 4)

    def test_repeated_queries_at_one_instant_allowed(self):
        ch = Channel()
        tx(ch, 1, 0, 2)
        tx(ch, 2, 2, 3)
        # Records starting at the query instant cannot reach a slot
        # ending there, in either order.
        assert ch.feedback_for(make_interval(1, 2)) is Feedback.ACK
        tx(ch, 3, 2, 4)
        assert ch.feedback_for(make_interval(Fraction(3, 2), 2)) is Feedback.ACK
        assert ch.feedback_for(make_interval(2, 3)) is Feedback.BUSY
