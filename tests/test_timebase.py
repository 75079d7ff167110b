"""Unit tests for the exact-time substrate (repro.core.timebase)."""

from fractions import Fraction

import pytest

from repro.core import (
    FRACTION_TIMEBASE,
    ConfigurationError,
    Interval,
    OffLatticeError,
    TickLattice,
    as_time,
    check_slot_length,
    declared_lattice_denominator,
    make_interval,
)


class TestAsTime:
    def test_int(self):
        assert as_time(3) == Fraction(3)

    def test_fraction_passthrough(self):
        f = Fraction(7, 3)
        assert as_time(f) is f

    def test_string_fraction(self):
        assert as_time("7/4") == Fraction(7, 4)

    def test_string_integer(self):
        assert as_time("12") == Fraction(12)

    def test_float_reads_decimal_not_binary(self):
        # 1.5 is exactly representable, but 0.1 is not — conversion must
        # go through repr so the user's decimal intent is preserved.
        assert as_time(1.5) == Fraction(3, 2)
        assert as_time(0.1) == Fraction(1, 10)

    def test_negative_allowed_as_raw_time(self):
        # as_time itself is a converter; range checks live elsewhere.
        assert as_time(-2) == Fraction(-2)

    def test_bool_rejected(self):
        with pytest.raises(ConfigurationError):
            as_time(True)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            as_time(object())


class TestCheckSlotLength:
    def test_unit_slot_ok(self):
        assert check_slot_length(1, 4) == Fraction(1)

    def test_max_slot_ok(self):
        assert check_slot_length(4, 4) == Fraction(4)

    def test_interior_rational_ok(self):
        assert check_slot_length("5/2", 4) == Fraction(5, 2)

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            check_slot_length("1/2", 4)

    def test_too_long_rejected(self):
        with pytest.raises(ConfigurationError):
            check_slot_length(5, 4)

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            check_slot_length(0, 4)


class TestInterval:
    def test_duration(self):
        assert make_interval(1, "5/2").duration == Fraction(3, 2)

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            make_interval(2, 2)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            make_interval(3, 2)

    def test_overlap_strict(self):
        a = make_interval(0, 2)
        b = make_interval(1, 3)
        assert a.overlaps(b) and b.overlaps(a)

    def test_touching_intervals_do_not_overlap(self):
        # Half-open convention: back-to-back slots share a point only.
        a = make_interval(0, 2)
        b = make_interval(2, 4)
        assert not a.overlaps(b)
        assert not b.overlaps(a)

    def test_nested_overlap(self):
        outer = make_interval(0, 10)
        inner = make_interval(4, 5)
        assert outer.overlaps(inner) and inner.overlaps(outer)

    def test_disjoint(self):
        assert not make_interval(0, 1).overlaps(make_interval(5, 6))


class TestTickLattice:
    def test_round_trip_on_lattice(self):
        tb = TickLattice(4)
        for t in (Fraction(0), Fraction(1, 4), Fraction(5, 2), Fraction(7)):
            ticks = tb.to_internal(t)
            assert isinstance(ticks, int)
            assert tb.to_public(ticks) == t

    def test_off_lattice_time_rejected(self):
        tb = TickLattice(4)
        with pytest.raises(OffLatticeError):
            tb.to_internal(Fraction(1, 3))

    def test_floor_and_ceil_conversion(self):
        tb = TickLattice(4)
        # floor: largest tick <= t; ceil: smallest tick >= t.
        assert tb.floor_internal(Fraction(1, 3)) == 1
        assert tb.ceil_internal(Fraction(1, 3)) == 2
        assert tb.floor_internal(Fraction(1, 2)) == 2
        assert tb.ceil_internal(Fraction(1, 2)) == 2
        assert tb.ceil_internal(Fraction(-1, 3)) == -1

    def test_check_slot_length_converts_and_validates(self):
        tb = TickLattice(4)
        assert tb.check_slot_length(1, max_internal=8) == 4
        assert tb.check_slot_length(Fraction(3, 2), max_internal=8) == 6
        assert tb.check_slot_length("3/2", max_internal=8) == 6
        with pytest.raises(ConfigurationError):
            tb.check_slot_length(Fraction(3, 2), max_internal=5)
        with pytest.raises(OffLatticeError):
            tb.check_slot_length(Fraction(1, 3), max_internal=8)

    def test_range_is_checked_on_every_call(self):
        # The same length must pass one R bound and fail a tighter one.
        tb = TickLattice(2)
        assert tb.check_slot_length(Fraction(2), max_internal=4) == 4
        with pytest.raises(ConfigurationError):
            tb.check_slot_length(Fraction(2), max_internal=3)

    def test_bad_denominator_rejected(self):
        for bad in (0, -1, True, Fraction(2)):
            with pytest.raises(ConfigurationError):
                TickLattice(bad)

    def test_fraction_timebase_is_identity(self):
        tb = FRACTION_TIMEBASE
        assert tb.is_lattice is False
        t = Fraction(7, 3)
        assert tb.to_internal(t) == t
        assert tb.to_public(t) == t
        assert tb.ceil_internal(t) == t


class TestDeclaredLatticeDenominator:
    def test_missing_method_means_none(self):
        class Bare:
            pass

        assert declared_lattice_denominator(Bare()) is None

    def test_declared_value_passes_through(self):
        class Declares:
            def lattice_denominator(self):
                return 6

        assert declared_lattice_denominator(Declares()) == 6

    def test_invalid_declaration_rejected(self):
        class Lies:
            def lattice_denominator(self):
                return "six"

        with pytest.raises(ConfigurationError):
            declared_lattice_denominator(Lies())
