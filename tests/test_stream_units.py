"""The observation path's units: tick text.

The JSONL writer turns a tick count into fraction text without building
a Fraction; it must read exactly like the exact-Fraction answer.
"""

from fractions import Fraction

from repro.obs.artifacts import _tick_text


def test_tick_text_is_the_fraction_text():
    for denominator in range(1, 31):
        text = _tick_text(denominator)
        for ticks in range(0, 200):
            assert text(ticks) == str(Fraction(ticks, denominator))

