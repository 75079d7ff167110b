"""``fingerprint`` is byte-identical to its reference form on any payload tree.

:func:`repro.exec.cache.fingerprint` dispatches on the exact types a
spec's canonical form is made of, and encodes a str mapping key with
``json.encoder.encode_basestring_ascii`` instead of ``json.dumps``;
``canonical_key`` encodes with one shared encoder.  Every cache key and
journal key is a hash of their output, so they must return exactly what
the plain recursive form below and ``json.dumps`` return, for every
value the payload vocabulary allows (tests/test_cache_keys.py pins the
keys of real payloads; this covers the rest of the vocabulary).
"""

import hashlib
import json
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.cache import canonical_key, fingerprint


def reference_fingerprint(value):
    """The plain recursive form: isinstance checks, ``json.dumps`` per key."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    form = getattr(value, "__cache_form__", None)
    if form is not None and callable(form):
        return {
            "kind": "cache-form",
            "class": f"{type(value).__module__}.{type(value).__qualname__}",
            "form": reference_fingerprint(form()),
        }
    if isinstance(value, float):
        return {"float": repr(value)}
    if isinstance(value, Fraction):
        return {"fraction": str(value)}
    if isinstance(value, (list, tuple)):
        return [reference_fingerprint(item) for item in value]
    if isinstance(value, Mapping):
        return {
            "mapping": {
                json.dumps(reference_fingerprint(k), sort_keys=True):
                    reference_fingerprint(v)
                for k, v in value.items()
            }
        }
    raise TypeError(f"cannot fingerprint a {type(value).__qualname__}")


class CacheForm:
    """A payload object described by ``__cache_form__``."""

    def __init__(self, form):
        self.form = form

    def __cache_form__(self):
        return self.form


#: Text with what JSON escapes: quotes, backslashes, control characters,
#: non-ASCII and astral characters, and the line separators.
texts = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('"\\\n\r\t\x00\x0b\x1f\x7f  é☃\U0001f600'),
    ),
    max_size=12,
)
fractions = st.builds(
    Fraction,
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    texts,
    st.floats(allow_nan=True, allow_infinity=True),
    fractions,
)
keys = st.one_of(texts, st.integers(), fractions)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(texts, children, max_size=3).map(MappingProxyType),
        children.map(CacheForm),
    )


trees = st.recursive(scalars, _extend, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_fingerprint_equals_the_reference_form(tree):
    expected = reference_fingerprint(tree)
    assert fingerprint(tree) == expected
    document = {"salt": "s", "payload": reference_fingerprint({"tree": tree})}
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert canonical_key({"tree": tree}, salt="s") == \
        hashlib.sha256(blob.encode("utf-8")).hexdigest()


@settings(max_examples=200, deadline=None)
@given(texts)
def test_a_str_key_is_encoded_as_json_dumps_encodes_it(text):
    [encoded] = fingerprint({text: 0})["mapping"]
    assert encoded == json.dumps(text, sort_keys=True)


class Text(str):
    pass


class Number(int):
    pass


def test_subclasses_keep_the_reference_form():
    tree = {Text("k"): [Number(3), Text("v")], Number(1): (Text("w"),)}
    assert fingerprint(tree) == reference_fingerprint(tree)


def test_values_outside_the_vocabulary_still_raise():
    with pytest.raises(TypeError):
        fingerprint({"a": [object()]})
    with pytest.raises(TypeError):
        fingerprint({object(): 1})
