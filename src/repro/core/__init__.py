"""Core substrate: exact time, channel model, stations, simulator, traces."""

from .channel import Channel, ChannelStats, Transmission
from .collector import collector_paused
from .errors import (
    AdmissibilityError,
    AsyncMacError,
    ConfigurationError,
    ProtocolError,
    SimulationError,
)
from .feedback import Feedback
from .packet import Packet, PacketQueue
from .simulator import Simulator, StationRuntime, execution_signature
from .station import (
    LISTEN,
    TRANSMIT_CONTROL,
    TRANSMIT_PACKET,
    Action,
    ActionKind,
    AlwaysListen,
    AlwaysTransmit,
    SlotContext,
    StationAlgorithm,
)
from .timebase import (
    FRACTION_TIMEBASE,
    MAX_LATTICE_DENOMINATOR,
    FractionTimebase,
    Interval,
    OffLatticeError,
    TickLattice,
    Time,
    TimeLike,
    Timebase,
    as_time,
    check_slot_length,
    declared_lattice_denominator,
    make_interval,
)
from .trace import BacklogSample, SlotRecord, Trace

__all__ = [
    "AdmissibilityError",
    "Action",
    "ActionKind",
    "AlwaysListen",
    "AlwaysTransmit",
    "AsyncMacError",
    "BacklogSample",
    "Channel",
    "ChannelStats",
    "ConfigurationError",
    "Feedback",
    "FRACTION_TIMEBASE",
    "FractionTimebase",
    "Interval",
    "LISTEN",
    "MAX_LATTICE_DENOMINATOR",
    "OffLatticeError",
    "Packet",
    "PacketQueue",
    "ProtocolError",
    "SimulationError",
    "Simulator",
    "SlotContext",
    "SlotRecord",
    "StationAlgorithm",
    "StationRuntime",
    "TickLattice",
    "Time",
    "TimeLike",
    "Timebase",
    "TRANSMIT_CONTROL",
    "TRANSMIT_PACKET",
    "Trace",
    "Transmission",
    "as_time",
    "check_slot_length",
    "collector_paused",
    "declared_lattice_denominator",
    "execution_signature",
    "make_interval",
]
