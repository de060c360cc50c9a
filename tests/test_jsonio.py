import json
import math

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


@pytest.mark.parametrize("obj", [{"a": [1, object()]}, {(1,): 2}], ids=["value", "key"])
def test_unencodable_raises_json_error_and_leaves_no_file(obj, tmp_path):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=1)
    path = tmp_path / "out.json"
    with pytest.raises(TypeError) as got:
        write_json(path, obj)
    assert str(got.value) == str(expected.value)
    assert not path.exists()
