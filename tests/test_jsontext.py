"""recordkit's JSON writer is byte for byte json.dumps(doc, indent=2,
sort_keys=True) plus a newline, on any document json can encode."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from recordkit.jsontext import dumps


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# '%', '{' and '"' in a key would break a template that did not escape them
KEYS = st.text(alphabet=st.sampled_from('ab%{}"\\\n\x00é€ '), max_size=4)
FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, float("nan"),
                                        float("inf"), float("-inf")])
SCALARS = (st.none() | st.booleans() | FLOATS | st.text(max_size=4)
           | st.integers() | st.integers(2 ** 64 - 2, 2 ** 64 + 2)
           | st.integers(-2 ** 70, -2 ** 63))


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(KEYS, children, max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.recursive(SCALARS, containers, max_leaves=25))
def test_random_documents_match_json(doc):
    assert dumps(doc) == reference(doc)


@st.composite
def same_shape_rows(draw):
    """Many dicts of one key set, as the rows of a report: values come
    from a small pool, so rows share value objects, and a row may switch
    a float slot to another type, a non-finite float or -0.0."""
    keys = draw(st.lists(KEYS, max_size=5, unique=True))
    pool = draw(st.lists(FLOATS, min_size=1, max_size=3))
    value = st.sampled_from(pool) | SCALARS | st.lists(FLOATS, max_size=2)
    rows = draw(st.lists(st.fixed_dictionaries(
        {k: value if draw(st.booleans()) else st.sampled_from(pool)
         for k in keys}), min_size=2, max_size=12))
    return {"rows": rows, "wires": {"w%d" % i: {"mi_vs": {"input": row}}
                                    for i, row in enumerate(rows)}}


@settings(max_examples=300, deadline=None)
@given(same_shape_rows())
def test_rows_of_one_shape_match_json(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    [{"a": 1.5}, {"a": True}, {"a": 1}, {"a": -0.0}, {"a": 0.0},
     {"a": float("nan")}, {"a": float("-inf")}, {"a": 1.5}, {"a": None}],
    {"info": 0.5, "nan": 1e300, "x": 1e-7},
    {"%s": 1.0, "%(a)s": 2.0, "{0}": 3.0, '"': 4.0, "%": {"%d": [0.1]}},
    [], {}, (), [[]], {"a": {}}, 0.1, "text", None, 2 ** 100,
], ids=["slot-type-switches", "keys-spell-nan-inf", "template-hazards",
        "empty-list", "empty-dict", "empty-tuple",
        "nested-empty-list", "nested-empty-dict", "bare-float",
        "bare-str", "bare-null", "big-int"])
def test_edge_documents_match_json(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [object()], {(1, 2): 0},
                                 {1: "an int key"}])
def test_what_the_writer_cannot_encode_raises_type_error(doc):
    """json also rejects all but the int key, which no recordkit document
    holds."""
    with pytest.raises(TypeError):
        dumps(doc)
