"""The compiled spec walk finds what the recursive walk it replaced found.

``repro.obs.artifact.compile_spec`` turns a spec into one closure per node
once, where the spec is declared; ``tests/naive_artifact.py`` keeps the
recursive ``defect`` that dispatched on ``type(spec)`` at every node of
every value.  A **Hypothesis differential** builds specs from the whole
vocabulary (``Atom``, ``Enum``, ``Opt``, ``Map``, dict, list, tuple) and
every registered schema's table, draws a value that conforms except where
a position is swapped for an arbitrary one or a key is dropped, and holds
the two walks to the same ``(path suffix, why)`` -- or the same exception.
CI also runs this file in the ``determinism`` job under
``PYTHONHASHSEED=0`` and ``=random``.
"""

import importlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import artifact
from repro.obs.artifact import (
    BOOL, COUNT, INT, NAME, NONNEG, NUM, SCALAR, STR, Atom, Enum, Map, Opt, compile_spec,
)
from tests import naive_artifact

_NAMES = st.text(alphabet="abxyz_.", min_size=1, max_size=3)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-5, 5) | st.integers()
    | st.floats() | st.sampled_from([-0.0, 0.0, 1.5]) | st.text(max_size=3)
)
#: an arbitrary JSON-like value: what a mutated position holds
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=6,
)
_TYPES = st.sampled_from([
    (int,), (float,), (int, float), (str,), (bool,), (int, str), (int, bool),
    (int, float, str, bool, type(None)),
])


@st.composite
def _atoms(draw):
    types = draw(_TYPES)
    numeric = all(t in (int, float, bool) for t in types)
    minimum = draw(st.none() | st.integers(-3, 3)) if numeric else None
    return Atom(draw(_NAMES), types, minimum, draw(st.booleans()))


_LEAVES = st.one_of(
    st.sampled_from([INT, COUNT, NUM, NONNEG, STR, NAME, BOOL, SCALAR]),
    _atoms(),
    st.lists(_SCALARS, max_size=4).map(lambda choices: Enum(*choices)),
)
_SPECS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        inner.map(Opt),
        st.builds(Map, inner, _LEAVES),
        st.dictionaries(_NAMES, inner, max_size=4),
        inner.map(lambda spec: [spec]),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=12,
)
#: every registered schema's own table
_REAL = [importlib.import_module(name).ARTIFACT.spec for name in artifact.PROVIDERS.values()]


def _leaf_value(draw, spec):
    """A value the leaf ``spec`` is likely to accept."""
    if type(spec) is Enum:
        return draw(st.sampled_from(spec.choices)) if spec.choices else draw(_ANY)
    kind = draw(st.sampled_from(spec.types))
    low = spec.minimum
    if kind is bool:
        return draw(st.booleans())
    if kind is int:
        return draw(st.integers(min_value=low, max_value=None if low is None else low + 9))
    if kind is float:
        return draw(st.floats(min_value=low, allow_nan=low is None))
    if kind is str:
        return draw(st.text(min_size=int(spec.nonempty), max_size=3))
    return None


def _value(draw, spec):
    """A value that conforms to ``spec`` except where a draw mutates it."""
    if draw(st.integers(0, 11)) == 0:
        return draw(_ANY)
    kind = type(spec)
    if kind is Opt:
        return None if draw(st.booleans()) else _value(draw, spec.spec)
    if kind is Atom or kind is Enum:
        return _leaf_value(draw, spec)
    if kind is dict:
        out = {key: _value(draw, sub) for key, sub in spec.items()}
        if spec and draw(st.integers(0, 5)) == 0:
            del out[draw(st.sampled_from(sorted(spec)))]
        return out
    if kind is list:
        return [_value(draw, spec[0]) for _ in range(draw(st.integers(0, 3)))]
    if kind is tuple:
        return [_value(draw, sub) for sub in spec]
    out = {}  # a Map
    for _ in range(draw(st.integers(0, 3))):
        key = _leaf_value(draw, spec.keys)
        out[key if isinstance(key, str) else draw(_NAMES)] = _value(draw, spec.values)
    return out


@st.composite
def _cases(draw):
    spec = draw(_SPECS | st.sampled_from(_REAL))
    return spec, _value(draw, spec)


def _outcome(walk, value):
    try:
        return walk(value)
    except Exception as exc:  # the same exception from both, or it is a finding
        return type(exc).__name__


@settings(max_examples=800, deadline=None)
@given(case=_cases())
@example(case=({"a": [(NAME, Opt(COUNT))]}, {"a": [["x", None], ["", 1]]}))
@example(case=(Map(INT, keys=Enum("p", "q")), {"p": True}))
@example(case=(Opt(NONNEG), float("nan")))
def test_the_compiled_walk_finds_the_recursive_walks_defect(case):
    spec, value = case
    want = _outcome(lambda v: naive_artifact.defect(spec, v), value)
    assert _outcome(compile_spec(spec), value) == want
