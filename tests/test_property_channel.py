"""Property-based tests for the channel model (hypothesis).

Invariants straight from Section II:

* success <=> no real-time overlap with any other transmission;
* at most one *transmitter* can receive an ack for any instant in time
  (successful transmissions are pairwise disjoint);
* feedback classification is exhaustive and exclusive;
* queried in event order, ``Channel.feedback_for`` equals a brute-force
  scan of every record.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Channel, Feedback, make_interval

from .helpers import replay_in_event_order, scan_feedback

# Exact rational intervals with bounded denominators, pre-sorted by start.
_times = st.integers(min_value=0, max_value=60).map(lambda k: Fraction(k, 4))
_durations = st.integers(min_value=1, max_value=16).map(lambda k: Fraction(k, 4))


@st.composite
def transmission_sets(draw, max_count=8):
    count = draw(st.integers(min_value=1, max_value=max_count))
    items = []
    for sid in range(1, count + 1):
        start = draw(_times)
        duration = draw(_durations)
        items.append((sid, start, start + duration))
    items.sort(key=lambda item: item[1])
    return items


def build_channel(items):
    ch = Channel()
    records = []
    for sid, a, b in items:
        records.append((ch.begin_transmission(sid, make_interval(a, b), None), a, b))
    return ch, records


@given(transmission_sets())
@settings(max_examples=200, deadline=None)
def test_success_iff_no_overlap(items):
    ch, records = build_channel(items)
    for record, a, b in records:
        overlapping = [
            (oa, ob)
            for other, oa, ob in records
            if other is not record and oa < b and a < ob
        ]
        assert record.successful == (not overlapping)


@given(transmission_sets())
@settings(max_examples=200, deadline=None)
def test_successful_transmissions_pairwise_disjoint(items):
    _, records = build_channel(items)
    winners = [(a, b) for record, a, b in records if record.successful]
    for i, (a1, b1) in enumerate(winners):
        for a2, b2 in winners[i + 1 :]:
            assert b1 <= a2 or b2 <= a1


@given(transmission_sets())
@settings(max_examples=200, deadline=None)
def test_collision_count_matches_overlapped_records(items):
    ch, records = build_channel(items)
    overlapped = sum(1 for record, _, _ in records if not record.successful)
    assert ch.stats.collisions == overlapped


@given(transmission_sets(), _times, _durations)
@settings(max_examples=200, deadline=None)
def test_feedback_classification_exhaustive(items, slot_start, slot_duration):
    slot = make_interval(slot_start, slot_start + slot_duration)
    records, [feedback] = replay_in_event_order(Channel(), items, [slot])
    has_activity = feedback is not Feedback.SILENCE
    if feedback is Feedback.ACK:
        # An ack implies activity and a genuinely successful record
        # ending inside the slot.
        assert has_activity
        assert any(
            record.successful and slot.start < record.interval.end <= slot.end
            for record in records
        )
    else:
        # No ack: any activity must be busy; otherwise silence means no
        # transmission overlaps at all.
        if not has_activity:
            for _, a, b in items:
                assert b <= slot.start or slot.end <= a


@st.composite
def slot_queries(draw, max_count=8):
    count = draw(st.integers(min_value=1, max_value=max_count))
    slots = []
    for _ in range(count):
        start = draw(_times)
        slots.append(make_interval(start, start + draw(_durations)))
    return slots


@given(transmission_sets(), slot_queries())
@settings(max_examples=300, deadline=None)
def test_feedback_for_matches_brute_force_scan(items, slots):
    """Replayed in event order (in both orders at equal instants), the
    two-mark oracle answers every slot as a scan of every record would,
    with success decided by brute-force pairwise overlap."""
    triples = [
        (a, b, not any(
            oa < b and a < ob for other, oa, ob in items if other != sid
        ))
        for sid, a, b in items
    ]
    for queries_first in (False, True):
        _, feedback = replay_in_event_order(
            Channel(), items, slots, queries_first
        )
        for slot, got in zip(slots, feedback):
            assert got is scan_feedback(triples, slot), (slot, queries_first)


@given(transmission_sets(), st.integers(min_value=0, max_value=80))
@settings(max_examples=150, deadline=None)
def test_prune_preserves_success_counts(items, prune_at_quarters):
    prune_at = Fraction(prune_at_quarters, 4)
    ch1, _ = build_channel(items)
    ch2, _ = build_channel(items)
    horizon = Fraction(1000)
    before = ch1.count_successes_up_to(horizon)
    ch2.prune_before(prune_at)
    assert ch2.count_successes_up_to(horizon) == before
