import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optray.jsonio import write_json

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308]),
)
_INTS = st.one_of(st.integers(), st.integers(2**63 - 2, 2**80), st.integers(-(2**80), -(2**63) + 2))
_TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ü", "\u2028", "😀", 'a"b\\c\n']))
_SCALARS = st.one_of(_FLOATS, _INTS, st.booleans(), st.none(), _TEXT)
# lists of one type reach the writer's one-map paths for floats and ints
_LEAVES = st.one_of(_SCALARS, st.lists(_FLOATS), st.lists(_INTS), st.lists(_FLOATS).map(tuple))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        # json.dump writes a key that is not a string as the string of its value
        st.dictionaries(st.one_of(_FLOATS, _INTS, st.booleans(), st.none()), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(obj=_VALUES)
def test_text_is_json_dump_indent_1(obj, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == json.dumps(obj, indent=1).encode()


@pytest.mark.parametrize(
    "obj", [{"a": [1, object()]}, {(1,): 2}, {"a": {1, 2}}], ids=["value", "key", "set"]
)
def test_unencodable_raises_json_error_and_leaves_no_file(obj, tmp_path):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=1)
    path = tmp_path / "out.json"
    with pytest.raises(TypeError) as got:
        write_json(path, obj)
    assert str(got.value) == str(expected.value)
    assert not path.exists()


@dataclass
class _Record:
    head: object
    hidden: object = field(metadata={"json": False})
    tail: object


def _nest(flat, shape):
    if len(shape) == 1:
        return list(flat)
    rows, cols = shape
    return [list(flat[i * cols : (i + 1) * cols]) for i in range(rows)]


def _arrays(dtype, elements):
    """(array, its nested lists) of shape (k,), (d, 0), (0, d) or (r, c)."""
    shapes = st.one_of(
        st.tuples(st.integers(0, 6)),
        st.tuples(st.integers(0, 3), st.just(0)),
        st.tuples(st.just(0), st.integers(0, 3)),
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    return shapes.flatmap(
        lambda shape: st.lists(elements, min_size=math.prod(shape), max_size=math.prod(shape)).map(
            lambda flat: (np.array(flat, dtype=dtype).reshape(shape), _nest(flat, shape))
        )
    )


_INT64 = st.integers(-(2**63), 2**63 - 1)
# (value, the same value with every numpy value and record converted by hand)
_NUMPY_LEAVES = st.one_of(
    _arrays(np.float64, _FLOATS),
    _arrays(np.int64, _INT64),
    _FLOATS.map(lambda x: (np.float64(x), x)),
    _INT64.map(lambda i: (np.int64(i), i)),
    st.booleans().map(lambda b: (np.bool_(b), b)),
    _SCALARS.map(lambda x: (x, x)),
)
_PAIRS = st.recursive(
    _NUMPY_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda ps: ([p[0] for p in ps], [p[1] for p in ps])),
        st.dictionaries(_TEXT, inner, max_size=4).map(
            lambda d: ({k: p[0] for k, p in d.items()}, {k: p[1] for k, p in d.items()})
        ),
        # the field left out holds a value json cannot encode
        st.tuples(inner, inner).map(
            lambda ht: (
                _Record(ht[0][0], object(), ht[1][0]),
                {"head": ht[0][1], "tail": ht[1][1]},
            )
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(pair=_PAIRS)
def test_numpy_values_and_records_are_written_as_converted_by_hand(pair, tmp_path_factory):
    obj, ref = pair
    path = tmp_path_factory.mktemp("json") / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == json.dumps(ref, indent=1).encode()


@pytest.mark.parametrize(
    "obj",
    [
        np.complex128(1j),
        {"a": np.array([0.5, 1j])},
        pytest.param(
            np.longdouble(1),
            marks=pytest.mark.skipif(
                np.finfo(np.longdouble).bits == 64, reason="longdouble is a double here"
            ),
        ),
        _Record([1.0], None, {2}),
        _Record,
    ],
    ids=["complex", "complex_array", "longdouble", "record_field", "record_class"],
)
def test_unencodable_numpy_value_or_record_raises_and_leaves_no_file(obj, tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        write_json(path, obj)
    assert not path.exists()
