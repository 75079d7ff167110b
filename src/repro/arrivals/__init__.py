"""Packet-arrival adversaries and leaky-bucket-with-cost admissibility."""

from .adaptive import StarveCurrentTransmitter
from .leaky_bucket import (
    BucketReport,
    CostedArrival,
    check_admissible,
    costed_arrivals_from_packets,
    tightest_burstiness,
)
from .patterns import (
    BurstyRate,
    PoissonLike,
    RandomTargets,
    RoundRobinTargets,
    SingleTarget,
    UniformRate,
)
from .source import (
    Arrival,
    ArrivalSource,
    ConcatSource,
    NoArrivals,
    StaticSchedule,
)

__all__ = [
    "Arrival",
    "ArrivalSource",
    "BucketReport",
    "BurstyRate",
    "ConcatSource",
    "CostedArrival",
    "NoArrivals",
    "PoissonLike",
    "RandomTargets",
    "RoundRobinTargets",
    "SingleTarget",
    "StarveCurrentTransmitter",
    "StaticSchedule",
    "UniformRate",
    "check_admissible",
    "costed_arrivals_from_packets",
    "tightest_burstiness",
]
