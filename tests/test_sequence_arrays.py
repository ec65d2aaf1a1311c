"""Array operations of Sequence against per-entry CycloNum arithmetic.

A Sequence holds its layers and reads as one (K, L) coefficient array;
every operation on it must give, entry by entry, exactly the
coefficients that the scalar arithmetic of CycloNum gives once promoted
to the result's order.
Entries mix the orders 1, 2, 3, 4, 6 and 12, and coefficients reach
past 2^63.
"""

from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocodes import CycloNum, Sequence, SequenceSet, connect, energy, entrywise, kron_expand
from cocodes.model import concat

ORDERS = (1, 2, 3, 4, 6, 12)

coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(2 ** 63, 2 ** 66),
    st.integers(-(2 ** 66), -(2 ** 63)),
)


@st.composite
def scalars(draw):
    order = draw(st.sampled_from(ORDERS))
    return CycloNum(order, draw(st.lists(coefficients, min_size=order, max_size=order)))


def entry_lists(min_size=1, max_size=6):
    return st.lists(scalars(), min_size=min_size, max_size=max_size)


def same_coeffs(seq, expected):
    """Every entry of `seq` holds exactly the promoted coefficients of
    the matching expected scalar, and `seq` has the lcm of their orders."""
    order = 1
    for x in expected:
        order = lcm(order, x.order)
    assert seq.order == order
    assert len(seq) == len(expected)
    for got, want in zip(seq, expected):
        assert got.order == order
        assert got.coeffs == want.promote(order).coeffs


settings_ = settings(max_examples=60, deadline=None)


@settings_
@given(entry_lists())
def test_index_and_iteration_round_trip(entries):
    s = Sequence(entries)
    same_coeffs(s, entries)
    assert [s[i].coeffs for i in range(len(s))] == [x.coeffs for x in s]
    assert s[-1].coeffs == list(s)[-1].coeffs
    assert all(s[i] == x for i, x in enumerate(entries))
    assert Sequence(list(s)) == s


@settings_
@given(entry_lists(), scalars())
def test_scale(entries, c):
    same_coeffs(Sequence(entries).scale(c), [c * x for x in entries])


@settings_
@given(entry_lists())
def test_conj_and_negation(entries):
    s = Sequence(entries)
    same_coeffs(s.conj(), [x.conj() for x in entries])
    same_coeffs(-s, [-x for x in entries])


@settings_
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(entry_lists(n, n), entry_lists(n, n))))
def test_entrywise(pair):
    u, v = pair
    same_coeffs(entrywise(Sequence(u), Sequence(v)), [a * b for a, b in zip(u, v)])


@settings_
@given(st.lists(entry_lists(1, 4), min_size=1, max_size=4))
def test_concat(parts):
    same_coeffs(concat(Sequence(p) for p in parts), [x for p in parts for x in p])


@st.composite
def cells(draw):
    """(members, v): 1-3 member entry lists of one length, and a vector."""
    length = draw(st.integers(1, 3))
    members = draw(st.lists(entry_lists(length, length), min_size=1, max_size=3))
    return members, draw(entry_lists(1, 4))


@settings_
@given(cells())
def test_connect(cell):
    members, v = cell
    m, nv = len(members), len(v)
    expected = [v[i % nv] * x for i in range(lcm(m, nv)) for x in members[i % m]]
    out = connect(Sequence(v), SequenceSet(Sequence(a) for a in members))
    same_coeffs(out, expected)


@settings_
@given(cells())
def test_kron_expand(cell):
    members, v = cell
    m = len(v)
    out = kron_expand(Sequence(v), SequenceSet(Sequence(a) for a in members))
    assert len(out) == m * len(members)
    # an output sequence scales by one entry of v, read at v's order
    v = list(Sequence(v))
    for k, seq in enumerate(out):
        same_coeffs(seq, [v[k % m] * x for x in members[k // m]])


@settings_
@given(entry_lists())
def test_energy(entries):
    expected = entries[0] * entries[0].conj()
    for x in entries[1:]:
        expected = expected + x * x.conj()
    got = energy(Sequence(entries))
    assert got == expected
    assert got.coeffs == expected.promote(got.order).coeffs


def _same_value(x):
    """x written differently: at twice its order when that stays in the
    test's orders, plus a multiple of the sum of all K-th roots (which
    is 0 for K > 1)."""
    k = x.order * 2 if x.order * 2 in ORDERS else x.order
    coeffs = list(x.promote(k).coeffs)
    if k > 1:
        coeffs = [c + 5 for c in coeffs]
    return CycloNum(k, coeffs)


@settings_
@given(entry_lists(), st.data())
def test_equality(entries, data):
    s = Sequence(entries)
    twin = Sequence(_same_value(x) for x in entries)
    assert s == twin and twin == s
    pos = data.draw(st.integers(0, len(entries) - 1))
    bumped = list(entries)
    bumped[pos] = entries[pos] + CycloNum.root(data.draw(st.sampled_from(ORDERS)), 1)
    assert (s == Sequence(bumped)) == (entries[pos] == bumped[pos])
    assert s != Sequence(entries + entries[:1])


@pytest.mark.parametrize("seq", [
    Sequence([CycloNum.root(4, 1), CycloNum.from_int(2)]),
    Sequence([CycloNum.root(3, 1)]).scale(CycloNum.root(4, 1)),
    Sequence([1 + 2j, 3j]),
    Sequence([1 + 2j]).conj(),
], ids=["exact", "exact-product", "approx", "approx-conj"])
def test_array_is_read_only(seq):
    with pytest.raises(ValueError):
        seq.array[..., 0] = 7
    assert not seq.array.flags.writeable


@pytest.mark.parametrize("read_only_base", [True, False], ids=["view-of-read-only", "fresh"])
def test_held_layers_end_read_only(read_only_base):
    # layers that are views of a read-only array keep their flag as it is
    # (writing it costs ten times a read), and fresh ones are made read-only
    exps = np.array([[0, 1, 3, 2]], np.intp)
    coeffs = np.array([[1, -1, 1, 2]], np.int64)
    if read_only_base:
        for x in (exps, coeffs):
            x.flags.writeable = False
        exps, coeffs = exps[:, 1:], coeffs[:, 1:]
        assert not exps.flags.writeable and not coeffs.flags.writeable
    else:
        assert exps.flags.writeable and coeffs.flags.writeable
    seq = Sequence._of_terms((4, exps, coeffs))
    assert all(not x.flags.writeable for x in seq._terms[1:])
    with pytest.raises(ValueError):
        seq._terms[2][0, 0] = 7
    assert seq.array[:, 0].tolist() == ([0, -1, 0, 0] if read_only_base else [1, 0, 0, 0])


def test_approx_operations_match_complex_arithmetic():
    u = [1 + 2j, -0.5j, 3.0 + 0j]
    v = [2 - 1j, 1j, -1 + 0j]
    su, sv = Sequence(u), Sequence(v)
    assert list(su.scale(2j)) == [2j * x for x in u]
    assert list(su.conj()) == [x.conjugate() for x in u]
    assert list(entrywise(su, sv)) == [a * b for a, b in zip(u, v)]
    assert list(concat([su, sv])) == u + v
    assert energy(su) == pytest.approx(sum(abs(x) ** 2 for x in u))
    assert su[1] == u[1] and isinstance(su[1], complex)
    assert su.array.dtype == np.complex128
