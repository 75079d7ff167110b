"""Exact rational time for the partially asynchronous channel.

The paper's constructions are *exact-arithmetic* constructions:

* The mirror-execution lower bound (Theorem 2) aligns blocks of slots so
  that their start times coincide **exactly** across stations.
* The collision-forcing adversary (Theorem 4) chooses slot lengths
  ``X, Y`` in ``[1, R]`` satisfying ``(S + alpha) * X == (S + beta) * Y``
  so that two transmissions start at the **same** instant.

Floating point cannot express either construction reliably, so every
timestamp, duration and slot length in this library is a
:class:`fractions.Fraction`.  This module centralises conversion helpers
and the half-open :class:`Interval` type used for slots and transmissions.

Exactness does not require paying rational arithmetic on the hot path,
though.  Almost every scenario draws its slot lengths and arrival
instants from a small common denominator ``D`` — all times are lattice
points ``k / D``.  :class:`TickLattice` exploits that: the simulator can
represent every internal time as the plain ``int`` ``k`` (ticks), so
heap keys, interval overlap tests and slot-length checks all run on
machine integers, and values are converted back to canonical
:class:`~fractions.Fraction` objects only at the observation boundary
(traces, probes, public accessors).  Because the conversion is exact in
both directions, results are bit-for-bit identical to the
:class:`FractionTimebase` path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .errors import ConfigurationError

#: The time type used throughout the library.  Always an exact rational.
Time = Fraction

#: Values accepted wherever a time or duration is expected.
TimeLike = Union[int, str, float, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_time(value: TimeLike) -> Fraction:
    """Convert ``value`` to an exact :class:`~fractions.Fraction` time.

    Integers, strings (``"3/2"``) and Fractions convert exactly.  Floats
    are converted through their ``repr`` so that ``as_time(1.5)`` yields
    ``3/2`` (the decimal the caller wrote) rather than the binary float's
    enormous exact expansion.

    >>> as_time(2)
    Fraction(2, 1)
    >>> as_time("7/4")
    Fraction(7, 4)
    >>> as_time(1.5)
    Fraction(3, 2)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject it early
        raise ConfigurationError(f"cannot interpret {value!r} as a time")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    raise ConfigurationError(f"cannot interpret {value!r} as a time")


def check_slot_length(length: TimeLike, max_length: TimeLike) -> Fraction:
    """Validate an adversary-chosen slot length against the model.

    The model of Section II requires every slot length to lie in
    ``[1, R]``.  Returns the exact length, or raises
    :class:`ConfigurationError` if the adversary stepped outside its
    power.
    """
    exact = as_time(length)
    upper = as_time(max_length)
    if not ONE <= exact <= upper:
        raise ConfigurationError(
            f"slot length {exact} outside the legal range [1, {upper}]"
        )
    return exact


class Interval:
    """A half-open time interval ``[start, end)``.

    Slots and transmissions are both intervals.  The half-open convention
    means two back-to-back slots share a boundary point without
    overlapping, matching footnote 5 of the paper (the base station's
    time is continuous and only genuine overlap destroys a transmission).

    A hand-written ``__slots__`` class rather than a dataclass: one is
    built per slot on the event loop's hot path, and the dataclass
    ``__init__``/``__post_init__``/frozen-``__setattr__`` chain costs
    several function calls per construction.  Endpoints are exact
    Fractions in public time and plain ints under a tick lattice.
    """

    __slots__ = ("start", "end")

    def __init__(self, start, end) -> None:
        if end <= start:
            raise ConfigurationError(
                f"interval end {end} must exceed start {start}"
            )
        self.start = start
        self.end = end

    def __eq__(self, other) -> bool:
        if isinstance(other, Interval):
            return self.start == other.start and self.end == other.end
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interval(start={self.start!r}, end={self.end!r})"

    @property
    def duration(self) -> Fraction:
        """Length of the interval."""
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two half-open intervals share interior points.

        Touching endpoints (``self.end == other.start``) do **not**
        overlap: a transmission ending exactly when another begins leaves
        both successful.
        """
        return self.start < other.end and other.start < self.end

    def contains_time(self, moment: Fraction) -> bool:
        """True when ``moment`` lies in ``[start, end)``."""
        return self.start <= moment < self.end

    def ends_within(self, other: "Interval") -> bool:
        """True when this interval's end lies in ``(other.start, other.end]``.

        This is the paper's "a transmission *ended in* the slot"
        predicate used to decide acknowledgment feedback: a transmission
        finishing exactly at the slot boundary is credited to the slot
        that just closed.
        """
        return other.start < self.end <= other.end

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end})"


def make_interval(start: TimeLike, end: TimeLike) -> Interval:
    """Build an :class:`Interval` from any time-like endpoints."""
    return Interval(as_time(start), as_time(end))


# ----------------------------------------------------------------------
# Timebase adapters: how the simulator represents time *internally*
# ----------------------------------------------------------------------

#: Largest per-run lattice denominator the auto-detector will accept.
#: Beyond this the tick integers get large enough that the speed
#: advantage erodes, so detection falls back to the Fraction path.
MAX_LATTICE_DENOMINATOR = 1_000_000


class OffLatticeError(ConfigurationError):
    """A time value does not lie on the declared ``1/D`` tick lattice."""


class FractionTimebase:
    """Identity adapter: internal times *are* public Fractions.

    This is the always-correct default.  Every conversion is the
    identity (modulo :func:`as_time` normalisation), so code written
    against the adapter protocol behaves exactly like the historical
    all-Fraction simulator.
    """

    is_lattice = False
    denominator: Optional[int] = None
    zero = ZERO

    def describe(self) -> str:
        return "fraction"

    def to_internal(self, value: TimeLike) -> Fraction:
        """Public time -> internal time (identity)."""
        return as_time(value)

    def floor_internal(self, value: TimeLike) -> Fraction:
        """Largest internal time ``<=`` the given public time (identity)."""
        return as_time(value)

    def ceil_internal(self, value: TimeLike) -> Fraction:
        """Smallest internal time ``>=`` the given public time (identity)."""
        return as_time(value)

    def to_public(self, value: Fraction) -> Fraction:
        """Internal time -> public exact Fraction (identity)."""
        return value

    def interval_public(self, interval: Interval) -> Interval:
        """Internal-unit interval -> public-unit interval (identity)."""
        return interval

    def check_slot_length(self, length: TimeLike, max_internal: Fraction) -> Fraction:
        """Validate an adversary-chosen slot length; returns internal units."""
        return check_slot_length(length, max_internal)


#: Shared identity adapter (stateless, safe to reuse across simulators).
FRACTION_TIMEBASE = FractionTimebase()


class TickLattice:
    """Scaled-integer timebase: internal time ``k`` means ``k / D``.

    All internal arithmetic (heap keys, interval endpoints, durations)
    runs on plain Python ints.  Conversions are exact in both
    directions: :meth:`to_internal` *refuses* values off the lattice
    (raising :class:`OffLatticeError`) instead of rounding, and
    :meth:`to_public` returns the canonical ``Fraction(k, D)``.

    :meth:`floor_internal` maps an *arbitrary* rational ``t`` to
    ``floor(t * D)``.  For the half-open comparisons the engine makes
    against internal times this is exact: an internal instant ``e``
    (integer ticks) satisfies ``e/D <= t`` iff ``e <= floor(t * D)``,
    and ``e/D > t`` iff ``e > floor(t * D)``.
    """

    is_lattice = True
    zero = 0

    __slots__ = ("denominator", "_memo_ticks", "_memo_time")

    def __init__(self, denominator: int) -> None:
        if (
            not isinstance(denominator, int)
            or isinstance(denominator, bool)
            or denominator < 1
        ):
            raise ConfigurationError(
                f"lattice denominator must be a positive int, got {denominator!r}"
            )
        self.denominator = denominator
        # One-entry conversion memo: boundary code often converts the
        # same instant several times in a row (trace + probes + packet).
        self._memo_ticks: Optional[int] = None
        self._memo_time = ZERO

    def describe(self) -> str:
        return f"lattice(1/{self.denominator})"

    def to_internal(self, value: TimeLike) -> int:
        """Public time -> integer ticks; exact or :class:`OffLatticeError`."""
        exact = as_time(value)
        ticks, remainder = divmod(exact.numerator * self.denominator, exact.denominator)
        if remainder:
            raise OffLatticeError(
                f"time {exact} is not a multiple of 1/{self.denominator}"
            )
        return ticks

    def floor_internal(self, value: TimeLike) -> int:
        """``floor(value * D)`` — the largest tick instant ``<= value``."""
        exact = as_time(value)
        return (exact.numerator * self.denominator) // exact.denominator

    def ceil_internal(self, value: TimeLike) -> int:
        """``ceil(value * D)`` — the smallest tick instant ``>= value``."""
        exact = as_time(value)
        return -((-exact.numerator * self.denominator) // exact.denominator)

    def to_public(self, value: int) -> Fraction:
        """Integer ticks -> canonical exact Fraction ``value / D``."""
        if value == self._memo_ticks:
            return self._memo_time
        result = Fraction(value, self.denominator)
        self._memo_ticks = value
        self._memo_time = result
        return result

    def interval_public(self, interval: Interval) -> Interval:
        """Tick-unit interval -> public Fraction-unit interval."""
        return Interval(
            Fraction(interval.start, self.denominator),
            Fraction(interval.end, self.denominator),
        )

    def check_slot_length(self, length: TimeLike, max_internal: int) -> int:
        """Validate an adversary-chosen slot length; returns integer ticks.

        Mirrors :func:`check_slot_length` (same error message, with
        public values) but runs on integers.  A length off the lattice
        raises :class:`OffLatticeError` — the caller decides whether
        that is a declaration bug or grounds for a Fraction fallback.
        One integer ``divmod`` converts a Fraction; it is cheaper than
        hashing the Fraction to look a memoised conversion up.
        """
        if type(length) is int:
            ticks = length * self.denominator
        else:
            exact = length if type(length) is Fraction else as_time(length)
            ticks, remainder = divmod(
                exact.numerator * self.denominator, exact.denominator
            )
            if remainder:
                raise OffLatticeError(
                    f"slot length {exact} is off the 1/{self.denominator} time lattice"
                )
        if not self.denominator <= ticks <= max_internal:
            raise ConfigurationError(
                f"slot length {self.to_public(ticks)} outside the legal range "
                f"[1, {self.to_public(max_internal)}]"
            )
        return ticks


#: Either adapter; the simulator stores one per run.
Timebase = Union[FractionTimebase, TickLattice]


def declared_lattice_denominator(component) -> Optional[int]:
    """Query a component's time-lattice declaration (duck-typed).

    Slot adversaries and arrival sources opt into the fast timebase by
    exposing ``lattice_denominator() -> Optional[int]``: "every time
    value I produce is a multiple of ``1/D``".  Components without the
    method — or returning ``None`` — make the run fall back to the
    Fraction path.  Returns the declared ``D`` or ``None``.
    """
    probe = getattr(component, "lattice_denominator", None)
    if probe is None:
        return None
    declared = probe() if callable(probe) else probe
    if declared is None:
        return None
    if not isinstance(declared, int) or isinstance(declared, bool) or declared < 1:
        raise ConfigurationError(
            f"{type(component).__name__}.lattice_denominator() must return a "
            f"positive int or None, got {declared!r}"
        )
    return declared
