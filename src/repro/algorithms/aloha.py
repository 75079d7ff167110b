"""Slotted Aloha — the classical randomized reference point.

Section I of the paper contrasts its deterministic bounded-asynchrony
results with Aloha: slotted Aloha stabilizes only at low arrival rates
(at most ``1/e`` aggregate for the classical analysis), whereas
AO-/CA-ARRoW sustain every ``rho < 1``.  The Aloha comparison bench
(E12 in DESIGN.md) reproduces that qualitative gap.

The station transmits its head packet with probability ``p`` in every
slot where its queue is non-empty, independently across slots.  The RNG
is part of the explicit station state (seeded per station, at its first
draw), so runs replay deterministically and adversarial look-ahead
through :meth:`~repro.core.station.StationAlgorithm.clone` stays sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.errors import ConfigurationError
from ..core.station import (
    LISTEN,
    TRANSMIT_PACKET,
    Action,
    SlotContext,
    StationAlgorithm,
)


@dataclass(slots=True)
class AlohaStats:
    """Counters for the Aloha comparison bench."""

    attempts: int = 0
    deliveries: int = 0


class SlottedAloha(StationAlgorithm):
    """Transmit-with-probability-``p`` slotted Aloha.

    Args:
        station_id: Used only to derive a per-station RNG stream.
        transmit_probability: The per-slot attempt probability ``p``;
            the classical throughput-optimal choice for ``n`` saturated
            stations is ``p = 1/n``.
        seed: Base seed; combined with the station id so different
            stations draw independent streams.
    """

    uses_control_messages = False
    collision_free_by_design = False

    def __init__(
        self, station_id: int, transmit_probability: float, seed: int = 0
    ) -> None:
        if not 0 < transmit_probability <= 1:
            raise ConfigurationError(
                f"transmit probability must be in (0, 1], got {transmit_probability}"
            )
        self.station_id = station_id
        self.transmit_probability = transmit_probability
        self._seed = (seed << 20) ^ station_id
        self._rng: Optional[random.Random] = None
        self.stats = AlohaStats()
        self._was_transmitting = False

    def rng(self) -> random.Random:
        """This station's generator, seeded at the first draw: in a large
        fleet most stations never hold a packet, so never draw."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        return rng

    def _decide(self, queue_size: int) -> Action:
        if queue_size > 0 and self.rng().random() < self.transmit_probability:
            self.stats.attempts += 1
            self._was_transmitting = True
            return TRANSMIT_PACKET
        self._was_transmitting = False
        return LISTEN

    def first_action(self, ctx: SlotContext) -> Action:
        return self._decide(ctx.queue_size)

    def on_slot_end(self, ctx: SlotContext) -> Action:
        feedback = self._require_feedback(ctx)
        if self._was_transmitting and feedback.value == "ack":
            self.stats.deliveries += 1
        return self._decide(ctx.queue_size)
