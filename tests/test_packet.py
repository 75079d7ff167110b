"""Unit tests for packets and per-station queues."""

from fractions import Fraction

import pytest

from repro.core import Packet, PacketQueue, SimulationError


def pkt(pid=0, sid=1, at=0) -> Packet:
    return Packet(packet_id=pid, station_id=sid, arrival_time=Fraction(at))


class TestPacket:
    def test_initially_undelivered(self):
        p = pkt()
        assert not p.delivered
        assert p.latency is None
        assert p.cost is None

    def test_mark_delivered_sets_cost_and_latency(self):
        p = pkt(at=3)
        p.mark_delivered(at=Fraction(10), cost=Fraction(2))
        assert p.delivered
        assert p.cost == Fraction(2)
        assert p.latency == Fraction(7)

    def test_double_delivery_rejected(self):
        p = pkt()
        p.mark_delivered(at=Fraction(1), cost=Fraction(1))
        with pytest.raises(SimulationError):
            p.mark_delivered(at=Fraction(2), cost=Fraction(1))


class TestPacketQueue:
    def test_fifo_order(self):
        q = PacketQueue(station_id=1)
        first, second = pkt(0), pkt(1)
        q.push(first)
        q.push(second)
        assert q.head() is first
        assert q.pop_delivered() is first
        assert q.head() is second

    def test_len_and_bool(self):
        q = PacketQueue(station_id=1)
        assert not q and len(q) == 0
        q.push(pkt())
        assert q and len(q) == 1

    def test_wrong_station_rejected(self):
        q = PacketQueue(station_id=1)
        with pytest.raises(SimulationError):
            q.push(pkt(sid=2))

    def test_head_on_empty_rejected(self):
        with pytest.raises(SimulationError):
            PacketQueue(station_id=1).head()

    def test_pop_on_empty_rejected(self):
        with pytest.raises(SimulationError):
            PacketQueue(station_id=1).pop_delivered()

    def test_conservation_counters(self):
        q = PacketQueue(station_id=1)
        for k in range(5):
            q.push(pkt(k))
        q.pop_delivered()
        q.pop_delivered()
        assert q.total_enqueued == 5
        assert q.total_delivered == 2
        assert len(q) == 3

    def test_iteration_preserves_order(self):
        q = PacketQueue(station_id=1)
        packets = [pkt(k) for k in range(4)]
        for p in packets:
            q.push(p)
        assert list(q) == packets
