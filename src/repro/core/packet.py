"""Packets, packet queues and the paper's *cost* accounting.

Definition 1 of the paper measures a packet not by a size field but by
its **cost**: the duration of the slot that eventually transmits it
successfully.  The cost is therefore unknown at injection time and is
filled in by the simulator when the acknowledgment arrives.  The
leaky-bucket admissibility checker (:mod:`repro.arrivals.leaky_bucket`)
verifies arrival patterns against these realized costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Deque, Iterator, Optional

from .errors import SimulationError
from .timebase import Time


@dataclass(slots=True)
class Packet:
    """A single packet injected by the arrival adversary.

    Attributes:
        packet_id: Globally unique, monotonically increasing id.
        station_id: The station whose queue received the packet.
        arrival_time: When the adversary injected it (exact time).
        delivered_time: Filled in when the packet's transmission is
            acknowledged; ``None`` while it waits in a queue or rides a
            transmission that might still collide.
        cost: Duration of the successful transmitting slot — the paper's
            packet cost.  ``None`` until delivery.
    """

    packet_id: int
    station_id: int
    arrival_time: Time
    delivered_time: Optional[Time] = None
    cost: Optional[Fraction] = None

    @property
    def delivered(self) -> bool:
        """True once the packet was successfully transmitted."""
        return self.delivered_time is not None

    @property
    def latency(self) -> Optional[Fraction]:
        """Time from injection to acknowledged delivery, if delivered."""
        if self.delivered_time is None:
            return None
        return self.delivered_time - self.arrival_time

    def mark_delivered(self, at: Time, cost: Fraction) -> None:
        """Record successful delivery (called by the simulator only)."""
        if self.delivered_time is not None:
            raise SimulationError(
                f"packet {self.packet_id} delivered twice (at {self.delivered_time} and {at})"
            )
        self.delivered_time = at
        self.cost = cost


@dataclass(slots=True)
class PacketQueue:
    """FIFO queue of pending packets at one station.

    Station algorithms never touch this object directly: they observe
    only its length through :class:`~repro.core.station.SlotContext`.
    The simulator enqueues arrivals at slot boundaries and dequeues the
    head packet when its transmission is acknowledged.
    """

    station_id: int
    _packets: Deque[Packet] = field(default_factory=deque)
    #: Total number of packets ever enqueued (for conservation checks).
    total_enqueued: int = 0
    #: Total number of packets ever dequeued after delivery.
    total_delivered: int = 0

    def __len__(self) -> int:
        return len(self._packets)

    def __bool__(self) -> bool:
        return bool(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def push(self, packet: Packet) -> None:
        """Enqueue a freshly injected packet."""
        if packet.station_id != self.station_id:
            raise SimulationError(
                f"packet {packet.packet_id} for station {packet.station_id} "
                f"pushed to queue of station {self.station_id}"
            )
        self._packets.append(packet)
        self.total_enqueued += 1

    def head(self) -> Packet:
        """The packet that rides the next packet-carrying transmission."""
        if not self._packets:
            raise SimulationError(
                f"station {self.station_id}: head() on an empty queue"
            )
        return self._packets[0]

    def pop_delivered(self) -> Packet:
        """Remove and return the head packet after its acknowledgment."""
        if not self._packets:
            raise SimulationError(
                f"station {self.station_id}: pop on an empty queue"
            )
        packet = self._packets.popleft()
        self.total_delivered += 1
        return packet
