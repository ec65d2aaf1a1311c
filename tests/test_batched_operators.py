"""`Sequence.scale`, `kron_expand` and `construct._connections` against
the definition of scaling, one output at a time.

`Sequence.scale` and `kron_expand` build each output by rotating and
scaling the rows of the scaled array (`model.scaled`), and
`_connections` multiplies terms, or gathers and scatters them when every
entry is a single term.  The oracles below build every output on its own
as the entrywise product of the sequence with a one-entry sequence
(`model.product`), and the operators' outputs must hold the same arrays:
the same coefficients, dtype and order.  The single-term path is also
checked against the term path (`CellTerms` with `single` set to None).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocodes import (
    CycloNum,
    Sequence,
    SequenceSet,
    cosf_to_ccc,
    custom_matrix,
    dft_matrix,
    enlarge_ccc,
    execute,
    hadamard_matrix,
    identity_matrix,
    is_ccc,
    kron_expand,
    plan,
)
from cocodes import construct
from cocodes.construct import _connections
from cocodes.cyclo import INT64_COEFF_BOUND
from cocodes.model import cell_terms, concat, energies, product

approx_entries = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), -1.0, 1j]),
)

ONE = CycloNum.from_int(1)
I4 = CycloNum.root(4, 1)


def times(seq, x):
    """seq scaled by the scalar x, by definition: the entrywise product
    with the one-entry sequence (x)."""
    return Sequence._of_fitted(product(seq.array, Sequence([x]).array))


def kron_by_product(v, cell):
    """Element k is cell[k div M] times v[k mod M], one product each."""
    m = len(v)
    return [times(cell[k // m], v[k % m]) for k in range(m * len(cell))]


def connect_by_product(v, cell):
    """(v[k mod len(v)] * cell[k mod M]) for k < lcm(M, len(v)), concatenated."""
    m, n = len(cell), len(v)
    k = m * n // np.gcd(m, n)
    return concat(times(cell[i % m], v[i % n]) for i in range(k))


def canonical_nans(array):
    """The bytes of `array` with every NaN (of a real or an imaginary
    part) set to the one NaN `np.nan`, and the mask of those NaNs."""
    if array.dtype.kind not in "fc":
        return array.tobytes(), None
    floats = np.ascontiguousarray(array).view(np.float64).copy()
    nans = np.isnan(floats)
    floats[nans] = np.nan
    return floats.tobytes(), nans


def assert_same_arrays(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.array.dtype == w.array.dtype
        assert g.array.shape == w.array.shape  # order and length
        if g.array.dtype == object:
            assert np.array_equal(g.array, w.array)
        else:
            # bit for bit, signed zeros and infinities included, as they are
            # written to files; a file holds any NaN as NaN, so NaN payloads
            # may differ, but not where the NaNs are
            (g_bytes, g_nans), (w_bytes, w_nans) = map(canonical_nans, (g.array, w.array))
            assert g_bytes == w_bytes
            assert np.array_equal(g_nans, w_nans)
        assert not g.array.flags.writeable


MIXED_ORDERS = SequenceSet([
    Sequence([I4, ONE, -ONE]),
    Sequence([CycloNum.root(3, 2), 0, 1]),
    Sequence([1, 1, -1]),
    Sequence([CycloNum.root(3, 1), I4, 1]),
])

# coefficients past INT64_COEFF_BOUND and past 2^63 next to small ones
BIG = SequenceSet([
    Sequence([2 ** 40, 1, -(2 ** 64)]),
    Sequence([1, -1, 1]),
    Sequence([I4, 3, 2 ** 31]),
])

APPROX = SequenceSet([
    Sequence([1.0, 0.5j, -2.0]),
    Sequence([0.0, 1 + 1j, 3.0]),
])

# the largest coefficient an int64 array holds: a product of two is past
# the bound, so an output holding one is in Python ints
EDGE = INT64_COEFF_BOUND - 1


def single_term(pairs, order):
    """The int64 sequence whose entry l is c * zeta_order^e for the l-th
    (e, c) of `pairs`."""
    array = np.zeros((order, len(pairs)), np.int64)
    for col, (e, c) in enumerate(pairs):
        array[e, col] = c
    return Sequence.of_array(array)


@st.composite
def single_term_sequences(draw, length=None, order=None):
    """A sequence of one nonzero term per entry, of order 1..12, with
    coefficients up to EDGE in magnitude."""
    length = draw(st.integers(1, 6)) if length is None else length
    order = draw(st.integers(1, 12)) if order is None else order
    coeffs = st.sampled_from([1, -1, 2, -3, EDGE, -EDGE])
    pairs = draw(st.lists(st.tuples(st.integers(0, order - 1), coeffs),
                          min_size=length, max_size=length))
    return single_term(pairs, order)


@st.composite
def single_term_cells(draw):
    """1..5 single-term members of one length, each of the cell's order
    (1..12) or of a divisor of it."""
    order, width = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    return SequenceSet(draw(st.lists(
        st.sampled_from(divisors).flatmap(lambda d: single_term_sequences(width, d)),
        min_size=1, max_size=5)))


def spy_single():
    """A spy on the single-term path of `_connections`."""
    return mock.patch.object(construct, "_single_connections",
                             wraps=construct._single_connections)


class TestScale:
    @pytest.mark.parametrize("x", [
        ONE, -ONE, I4, CycloNum.root(6, 5), CycloNum.from_int(0), CycloNum.from_int(3),
        ONE + I4, CycloNum(6, [3, 0, 0, 0, 0, -1]), CycloNum.from_int(2 ** 40),
    ], ids=["1", "-1", "i", "z6^5", "0", "3", "1+i", "multi-term", "big"])
    @pytest.mark.parametrize("cell", [MIXED_ORDERS, BIG], ids=["mixed-orders", "object"])
    def test_exact(self, x, cell):
        assert_same_arrays([s.scale(x) for s in cell], [times(s, x) for s in cell])

    def test_negation(self):
        assert_same_arrays([-s for s in BIG], [times(s, -ONE) for s in BIG])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(approx_entries, min_size=1, max_size=4), approx_entries)
    def test_approx_special_values(self, entries, x):
        seq = Sequence(entries)
        with np.errstate(all="ignore"):
            assert_same_arrays([seq.scale(x)], [times(seq, x)])


class TestKronExpand:
    @pytest.mark.parametrize("v", [
        Sequence([CycloNum.root(6, 1), -1]),
        Sequence([1, 0, CycloNum.root(4, 3)]),  # a zero entry
        Sequence([0, 0]),
        Sequence([1]),
        Sequence([2 ** 33, I4, -1]),
    ], ids=["order6", "zero-entry", "all-zero", "length1", "big-entry"])
    @pytest.mark.parametrize("cell", [MIXED_ORDERS, BIG], ids=["mixed-orders", "object"])
    def test_exact(self, v, cell):
        assert_same_arrays(kron_expand(v, cell), kron_by_product(v, cell))

    def test_object_batch_refits_each_output(self):
        out = kron_expand(Sequence([1, 2 ** 40]), BIG)
        dtypes = [s.array.dtype for s in out]
        assert np.dtype(np.int64) in dtypes and np.dtype(object) in dtypes
        assert_same_arrays(out, kron_by_product(Sequence([1, 2 ** 40]), BIG))

    @pytest.mark.parametrize("v", [
        Sequence([1.0, -1.0]),
        Sequence([0.5j, 0.0, 2 - 1j]),
    ], ids=["real", "zero-entry"])
    def test_approx(self, v):
        assert_same_arrays(kron_expand(v, APPROX), kron_by_product(v, APPROX))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(approx_entries, min_size=3, max_size=3), min_size=1, max_size=3),
           st.lists(approx_entries, min_size=1, max_size=3))
    def test_approx_special_values(self, members, v):
        # infinities, NaNs and signed zeros on both sides
        cell = SequenceSet(Sequence(x) for x in members)
        with np.errstate(all="ignore"):  # inf * 0 and overflow, on both sides
            assert_same_arrays(kron_expand(Sequence(v), cell), kron_by_product(Sequence(v), cell))

    def test_mode_mismatch_still_refused(self):
        with pytest.raises(ValueError):
            kron_expand(Sequence([1.0, 1.0]), MIXED_ORDERS)

    @pytest.mark.parametrize("matrices", [
        lambda n: [hadamard_matrix(2)] * n,
        lambda n: [dft_matrix(2)] * n,
        lambda n: [custom_matrix([[ONE, I4], [ONE, -I4]])] * n,
        lambda n: [hadamard_matrix(2) if k % 2 else dft_matrix(2) for k in range(n)],
    ], ids=["hadamard2", "dft2", "custom", "alternating"])
    def test_enlarge_ccc(self, matrices):
        ccc = cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4))
        mats = matrices(ccc.family_size)
        big = enlarge_ccc(ccc, mats)
        want = [kron_by_product(u.row(m), ccc[n])
                for n, u in enumerate(mats) for m in range(u.dim)]
        assert len(big) == len(want)
        for got, expected in zip(big, want):
            assert_same_arrays(got, expected)
        assert is_ccc(big).ok


class TestConnections:
    @pytest.mark.parametrize("vs", [
        [Sequence([1, -1]), Sequence([1, 1])],
        # different lengths (so widths) and orders in one call
        [Sequence([1, -1]), Sequence([CycloNum.root(3, 1), 1, 1]),
         Sequence([I4, -1]), Sequence([CycloNum.root(6, 5), 1, 0, 1])],
        [Sequence([0, 2 ** 40]), Sequence([2 ** 70, 1]), Sequence([1, 1])],
    ], ids=["one-order", "mixed-lengths-and-orders", "object"])
    @pytest.mark.parametrize("cell", [MIXED_ORDERS, BIG], ids=["mixed-orders", "object"])
    def test_exact(self, vs, cell):
        assert_same_arrays(_connections(vs, cell, cell_terms(cell)),
                           [connect_by_product(v, cell) for v in vs])

    def test_approx(self):
        vs = [Sequence([1.0, -1.0]), Sequence([0.5j, 1.0, 0.0])]
        assert_same_arrays(_connections(vs, APPROX, cell_terms(APPROX)),
                           [connect_by_product(v, APPROX) for v in vs])

    @staticmethod
    def check_single(vs, cell):
        """The single-term path is taken and gives the oracle's arrays and
        the term path's, byte for byte."""
        found = cell_terms(cell)
        assert found.single is not None
        with spy_single() as spy:
            got = _connections(vs, cell, found)
        assert spy.call_count == 1
        assert_same_arrays(got, [connect_by_product(v, cell) for v in vs])
        assert_same_arrays(got, _connections(vs, cell, found._replace(single=None)))
        return got

    @settings(max_examples=300, deadline=None)
    @given(single_term_cells(), st.lists(single_term_sequences(), min_size=1, max_size=3))
    def test_single_term_cells(self, cell, vs):
        self.check_single(vs, cell)

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (4, 6), (5, 1), (1, 4)])
    def test_single_term_repetition(self, m, n):
        # m != len(v): the output has lcm(m, n) blocks
        cell = SequenceSet(single_term([((i + l) % 12, (-1) ** l) for l in range(4)], 12)
                           for i in range(m))
        v = single_term([(j % 5, 2) for j in range(n)], 5)
        got = self.check_single([v], cell)
        assert len(got[0]) == m * n // np.gcd(m, n) * 4 and got[0].order == 60

    @pytest.mark.parametrize("v_coeff, dtype", [(1, np.int64), (-1, np.int64),
                                                (2, object), (-EDGE, object)])
    def test_single_term_products_past_the_bound(self, v_coeff, dtype):
        # EDGE * 1 fits the bound, EDGE * 2 does not: `_fit` picks the dtype
        cell = SequenceSet([single_term([(0, EDGE), (1, -EDGE), (2, 1)], 3),
                            single_term([(2, -EDGE), (0, 1), (1, EDGE)], 3)])
        v = single_term([(1, v_coeff), (0, 1), (1, -1)], 2)
        got = self.check_single([v], cell)
        assert got[0].array.dtype == dtype

    @pytest.mark.parametrize("near", ["zero entry", "1 + zeta", "identity sub"])
    def test_near_misses_take_the_term_path(self, near):
        members = [single_term([((i * l) % 6, 1) for l in range(4)], 6) for i in range(3)]
        vs = dft_matrix(3).rows() + [single_term([(1, -1), (0, 1)], 4)]
        if near == "zero entry":
            members[1] = single_term([(0, 1), (3, 1), (0, 0), (1, -1)], 6)
        elif near == "1 + zeta":
            members[1] = Sequence([1, 1, ONE + CycloNum.root(6, 1), -ONE])
        else:
            vs = identity_matrix(3).rows()
        cell = SequenceSet(members)
        with spy_single() as spy:
            got = _connections(vs, cell, cell_terms(cell))
        assert not spy.called
        assert_same_arrays(got, [connect_by_product(v, cell) for v in vs])


class TestEnergies:
    @settings(max_examples=200, deadline=None)
    @given(single_term_cells())
    def test_single_term_cells(self, cell):
        found = cell_terms(cell)
        got, want = energies(found, cell.length), energies(found._replace(single=None), cell.length)
        assert_same_arrays([Sequence._of_fitted(got)], [Sequence._of_fitted(want)])
