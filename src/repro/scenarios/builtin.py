"""Seed the scenario registries with everything the repo ships.

Importing :mod:`repro.scenarios` imports this module, so every bundled
algorithm fleet, slot adversary, arrival source and fault injector is
addressable by name out of the box.  Each builder reproduces, exactly,
the construction the CLI and benches used to hand-wire — bit-for-bit
parity with the pre-scenario call sites is load-bearing (the golden
tests in ``tests/test_golden_parity.py`` pin it).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from ..algorithms import (
    ABSLeaderElection,
    AOArrow,
    CAArrow,
    DoublingABS,
    FaultTolerantCAArrow,
    MBTFLike,
    NaiveTDMA,
    RandomizedSST,
    RRW,
    SlottedAloha,
)
from ..arrivals import BurstyRate, PoissonLike, UniformRate
from ..core.errors import ConfigurationError
from ..core.timebase import as_time
from ..faults import PeriodicJammer, ReactiveJammer, crash_fleet
from ..timing import (
    CyclicPattern,
    FixedLength,
    PerStationFixed,
    RandomUniform,
    Synchronous,
    worst_case_for,
)
from .registry import ALGORITHMS, FAULTS, SCHEDULES, SOURCES

__all__: List[str] = []


def _ids(spec) -> List[int]:
    return list(range(1, spec.n + 1))


# -- algorithm fleets ---------------------------------------------------
# kind="dynamic" fleets transmit queued packets (the stability setting);
# kind="sst" fleets solve single-successful-transmission / election.

@ALGORITHMS.register("ao-arrow", kind="dynamic", family="ao-arrow",
                     summary="AO-ARRoW (Thm 3): stable, no control messages")
def _ao_arrow(spec) -> Dict[int, Any]:
    return {i: AOArrow(i, spec.n, spec.max_slot) for i in _ids(spec)}


@ALGORITHMS.register("ca-arrow", kind="dynamic", family="ca-arrow",
                     summary="CA-ARRoW (Thm 6): stable, collision-free")
def _ca_arrow(spec) -> Dict[int, Any]:
    return {i: CAArrow(i, spec.n, spec.max_slot) for i in _ids(spec)}


@ALGORITHMS.register("ca-arrow-ft", kind="dynamic", family="ca-arrow-ft",
                     summary="fault-tolerant CA-ARRoW (survives crashes)")
def _ca_arrow_ft(spec) -> Dict[int, Any]:
    return {i: FaultTolerantCAArrow(i, spec.n, spec.max_slot) for i in _ids(spec)}


@ALGORITHMS.register("rrw", kind="dynamic", family="rrw",
                     summary="round-robin-withholding synchronous baseline")
def _rrw(spec) -> Dict[int, Any]:
    return {i: RRW(i, spec.n) for i in _ids(spec)}


@ALGORITHMS.register("mbtf", kind="dynamic", family="mbtf",
                     summary="move-big-to-front-like token ring baseline")
def _mbtf(spec) -> Dict[int, Any]:
    return {i: MBTFLike(i, spec.n) for i in _ids(spec)}


@ALGORITHMS.register("tdma", kind="dynamic", family="tdma",
                     summary="naive TDMA (breaks under asynchrony)")
def _tdma(spec) -> Dict[int, Any]:
    return {i: NaiveTDMA(i, spec.n) for i in _ids(spec)}


@ALGORITHMS.register("aloha", kind="dynamic", family="aloha",
                     summary="slotted Aloha at p = 1/n (randomized reference)")
def _aloha(spec) -> Dict[int, Any]:
    return {
        i: SlottedAloha(i, transmit_probability=1 / spec.n, seed=spec.seed)
        for i in _ids(spec)
    }


@ALGORITHMS.register("abs", kind="sst", family="abs",
                     summary="ABS leader election (Thm 1, knows R)")
def _abs(spec) -> Dict[int, Any]:
    return {i: ABSLeaderElection(i, spec.max_slot) for i in _ids(spec)}


@ALGORITHMS.register("doubling", kind="sst", family="abs",
                     summary="guess-and-double ABS (R unknown)")
def _doubling(spec) -> Dict[int, Any]:
    return {i: DoublingABS(i, spec.n) for i in _ids(spec)}


@ALGORITHMS.register("randomized", kind="sst", family="randomized",
                     summary="coin-flipping SST at p = 1/n")
def _randomized(spec) -> Dict[int, Any]:
    return {
        i: RandomizedSST(i, transmit_probability=1 / spec.n, seed=spec.seed)
        for i in _ids(spec)
    }


# -- slot adversaries ---------------------------------------------------

@SCHEDULES.register("sync", summary="every slot has length 1 (R irrelevant)")
def _sync(spec):
    return Synchronous()


@SCHEDULES.register("worst", summary="coprime-ish cyclic worst case for R")
def _worst(spec):
    return worst_case_for(spec.max_slot)


@SCHEDULES.register("random", summary="iid uniform rational lengths in [1, R]")
def _random(spec, denominator: int = 8):
    return RandomUniform(spec.max_slot, seed=spec.seed, denominator=denominator)


@SCHEDULES.register("fixed", summary="every slot the same length r <= R")
def _fixed(spec, length):
    return FixedLength(length)


@SCHEDULES.register("per-station-fixed",
                    summary="constant per-station speeds (linear drift)")
def _per_station_fixed(spec, lengths: Mapping[str, Any]):
    return PerStationFixed({int(sid): value for sid, value in lengths.items()})


@SCHEDULES.register("cyclic", summary="explicit per-station length patterns")
def _cyclic(spec, patterns: Mapping[str, Any]):
    return CyclicPattern({int(sid): value for sid, value in patterns.items()})


# -- arrival sources ----------------------------------------------------

def _require_rho(spec, source_name: str):
    if spec.rho is None:
        raise ConfigurationError(
            f"rho: source {source_name!r} needs an injection rate, "
            "but the spec has rho = null"
        )
    return spec.rho


@SOURCES.register("none", summary="no arrivals (the SST setting)")
def _none(spec):
    return None


@SOURCES.register("uniform", summary="evenly spaced injections at rate rho")
def _uniform(spec, targets=None, assumed_cost=None, start=0, limit=None):
    return UniformRate(
        rho=_require_rho(spec, "uniform"),
        targets=list(targets) if targets is not None else _ids(spec),
        assumed_cost=assumed_cost if assumed_cost is not None else spec.max_slot,
        start=start,
        limit=limit,
    )


@SOURCES.register("bursty", summary="periodic bursts of `burst` packets")
def _bursty(spec, targets=None, assumed_cost=None, start=0, limit=None):
    return BurstyRate(
        rho=_require_rho(spec, "bursty"),
        burst_size=spec.burst,
        targets=list(targets) if targets is not None else _ids(spec),
        assumed_cost=assumed_cost if assumed_cost is not None else spec.max_slot,
        start=start,
        limit=limit,
    )


@SOURCES.register("poisson", summary="admissibility-clamped random gaps")
def _poisson(spec, burstiness=None, targets=None, assumed_cost=None,
             start=0, limit=None, denominator: int = 16):
    # A JSON spec gives the cost as a string: convert before scaling.
    cost = as_time(assumed_cost) if assumed_cost is not None else spec.max_slot
    return PoissonLike(
        rho=_require_rho(spec, "poisson"),
        burstiness=burstiness if burstiness is not None else spec.burst * cost,
        targets=list(targets) if targets is not None else _ids(spec),
        assumed_cost=cost,
        seed=spec.seed,
        start=start,
        limit=limit,
        denominator=denominator,
    )


# -- fault injectors ----------------------------------------------------
# A builder receives every entry of its kind at once (in spec order) so
# e.g. all crashes land in a single `crash_fleet` wrap.

@FAULTS.register("crash", summary="fail-stop crash: station <s> at slot <t>")
def _crash(spec, fleet, entries):
    crashes: Dict[int, int] = {}
    for entry in entries:
        try:
            station = int(entry["station"])
            at_slot = int(entry["at_slot"])
        except KeyError as exc:
            raise ConfigurationError(
                f"faults: crash entry {dict(entry)!r} is missing {exc}"
            ) from None
        crashes[station] = at_slot
    return crash_fleet(fleet, crashes)


def _jammer_station(spec, fleet, entry) -> int:
    station = entry.get("station")
    if station is None:
        return max(fleet) + 1
    station = int(station)
    if station in fleet:
        raise ConfigurationError(
            f"faults: jammer station {station} collides with an existing station"
        )
    return station


@FAULTS.register("jam-periodic",
                 summary="duty-cycle jammer: <burst> of every <period> slots")
def _jam_periodic(spec, fleet, entries):
    fleet = dict(fleet)
    for entry in entries:
        try:
            burst = int(entry["burst"])
            period = int(entry["period"])
        except KeyError as exc:
            raise ConfigurationError(
                f"faults: jam-periodic entry {dict(entry)!r} is missing {exc}"
            ) from None
        jammer = PeriodicJammer(
            burst=burst, period=period, budget=int(entry.get("budget", 10**9))
        )
        fleet[_jammer_station(spec, fleet, entry)] = jammer
    return fleet


@FAULTS.register("jam-reactive",
                 summary="carrier-sensing jammer: <burst> slots after activity")
def _jam_reactive(spec, fleet, entries):
    fleet = dict(fleet)
    for entry in entries:
        try:
            burst = int(entry["burst"])
        except KeyError as exc:
            raise ConfigurationError(
                f"faults: jam-reactive entry {dict(entry)!r} is missing {exc}"
            ) from None
        jammer = ReactiveJammer(
            burst=burst,
            budget=int(entry.get("budget", 10**9)),
            cooldown=int(entry.get("cooldown", 0)),
        )
        fleet[_jammer_station(spec, fleet, entry)] = jammer
    return fleet
