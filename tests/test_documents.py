"""Family documents on disk: every family comes back from its file with
exactly the arrays it was written from, whatever the entry orders,
coefficient sizes and lengths, and files in the older indented layout
or in shorthand still load to the same family."""

import json
from math import lcm

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cocodes import CycloNum, Sequence, SequenceFamily, SequenceSet, from_signs
from cocodes.cyclo import INT64_COEFF_BOUND, ORDER_LIMIT
from cocodes.cli import _dump_json, _load_json, family_from_doc, family_to_doc

coefficients = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(2 ** 64, 2 ** 70),
    st.integers(-(2 ** 70), -(2 ** 64)),
)


@st.composite
def exact_entries(draw):
    order = draw(st.integers(1, 12))
    return CycloNum(order, draw(st.lists(coefficients, min_size=order, max_size=order)))


approx_entries = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300)


@st.composite
def families(draw):
    """A family of 1-3 sets of 1-3 sequences; each set has its own
    length, and an exact sequence mixes entry orders 1-12."""
    entries = exact_entries() if draw(st.booleans()) else approx_entries
    size = draw(st.integers(1, 3))
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 6))
        seq = st.lists(entries, min_size=length, max_size=length).filter(
            lambda xs: isinstance(xs[0], complex)
            or lcm(*(x.order for x in xs)) <= ORDER_LIMIT).map(Sequence)
        sets.append(SequenceSet(draw(st.lists(seq, min_size=size, max_size=size))))
    return SequenceFamily(sets)


def same_arrays(got, want):
    assert got.mode == want.mode
    assert [ss.length for ss in got] == [ss.length for ss in want]
    for gs, ws in zip(got, want):
        assert len(gs) == len(ws)
        for g, w in zip(gs, ws):
            assert g.array.shape == w.array.shape
            assert np.array_equal(g.array, w.array)
            if g.mode == "exact":
                # the dtype follows the values on both sides: int64 below
                # the bound, Python ints at or past it
                values = g.array.ravel().tolist()
                small = max(map(abs, values)) < INT64_COEFF_BOUND
                for a in (g.array, w.array):
                    assert a.dtype == (np.int64 if small else object)
                if not small:
                    assert all(type(c) is int for c in g.array.ravel())


@settings(max_examples=80, deadline=None)
@given(families())
def test_file_round_trip_keeps_arrays(tmp_path_factory, fam):
    path = str(tmp_path_factory.mktemp("doc") / "fam.json")
    _dump_json(path, family_to_doc(fam, kind="raw"))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("\n") == 1 and text.endswith("\n")
    same_arrays(family_from_doc(_load_json(path)), fam)


def test_indented_layout_loads_the_same(tmp_path):
    fam = SequenceFamily([
        SequenceSet([Sequence([CycloNum.root(4, 1), CycloNum(6, [2 ** 80, 0, -1, 0, 0, 3])]),
                     Sequence([CycloNum.from_int(-1), CycloNum.root(3, 2)])]),
        SequenceSet([Sequence([CycloNum.zero(12), CycloNum.root(2, 1)]),
                     Sequence([CycloNum.root(12, 5), CycloNum.from_int(0)])]),
    ])
    doc = family_to_doc(fam, kind="raw")
    path = tmp_path / "indented.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    same_arrays(family_from_doc(_load_json(str(path))), fam)


def test_shorthand_document_loads_the_same(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "kind": "ccc", "mode": "exact",
        "sets": [[["+", "-", 3, {"order": 4, "coeffs": [0, 1, 0, 0]}], ["+", "+", "-", "+"]],
                 [[{"order": 2, "coeffs": [0, 1]}, 0, "+", "-"], ["-", "-", "-", 2]]],
    }), encoding="utf-8")
    z4 = CycloNum.root(4, 1)
    want = SequenceFamily([
        SequenceSet([Sequence([CycloNum.from_int(1), CycloNum.from_int(-1),
                               CycloNum.from_int(3), z4]),
                     from_signs("++-+")]),
        SequenceSet([Sequence([CycloNum.root(2, 1), CycloNum.from_int(0),
                               CycloNum.from_int(1), CycloNum.from_int(-1)]),
                     Sequence([CycloNum.from_int(-1)] * 3 + [CycloNum.from_int(2)])]),
    ])
    got = family_from_doc(_load_json(str(path)))
    same_arrays(got, want)
    assert got[0][0].order == 4 and got[1][0].order == 2


def test_approx_shorthand_document_loads_the_same():
    doc = {"mode": "approx", "sets": [[[0.5, "+", {"re": 0.25, "im": -1}, 2]]]}
    got = family_from_doc(doc)
    assert got[0][0].array.tolist() == [[0.5, 1, 0.25 - 1j, 2]]
