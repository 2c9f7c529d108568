"""serialize.dumps writes every document in one pass of its own; its bytes
must be those of json.dumps(doc, sort_keys=True, indent=2) + "\\n"."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st
from predual.serialize import dumps

# strings json escapes: quotes, backslashes, control and non-ASCII characters
TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7féΣ€\U0001f600'), st.characters()),
    max_size=6,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    TEXT,
)


def containers(children):
    items = st.lists(children, max_size=4)
    return st.one_of(items, items.map(tuple), st.dictionaries(TEXT, children, max_size=4))


VALUES = st.recursive(SCALARS, containers, max_leaves=12)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(TEXT, VALUES, max_size=4))
@example({})
@example({"empty": [[], (), {}], "nested": [[{}], {"": []}]})
@example({"ints": [0, -1, 2**64, True, False, None], "mixed": ["é", 1, [2], 1.5]})
def test_dumps_writes_the_bytes_of_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_dumps_writes_keys_that_are_not_strings_as_json_does():
    for doc in ({1: "a", -2: [3]}, {True: 1, False: 0}, {None: []}, {1.5: {}, 2.0: ()}):
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
