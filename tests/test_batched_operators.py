"""`Sequence.scale`, `kron_expand`, `construct._connections`, `entrywise`
and `energies` against the definitions, entry by entry.

Every operator forms its products with one kernel, `model.multiply`,
over the `model.layers` of its operands.  The oracles below use neither:
an exact entry is a CycloNum product (and an energy a sum of CycloNum
products), read into a Sequence, whose own `_fit` gives the dtype.  An
approx entry is 0 when either factor is zero, else 0 plus the factors'
complex128 product; that product is taken as a one-entry numpy product,
since Python's complex multiplication rounds differently from numpy's
(which may fuse a multiply and an add).  The operators' outputs must
hold the same arrays: the same coefficients, dtype and order.  A
constructed output holds its layers and derives its array when it is
first read (`TestHeldLayers`).
"""

import hashlib
from functools import reduce
from math import gcd, isqrt
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocodes import (
    CycloNum,
    Sequence,
    SequenceSet,
    ccc_from_unitary,
    connect,
    cosf_to_ccc,
    custom_matrix,
    dft_matrix,
    elongate_cosf,
    energy,
    enlarge_ccc,
    entrywise,
    execute,
    generate_cosf,
    hadamard_matrix,
    identity_matrix,
    is_ccc,
    kron_expand,
    plan,
    set_energy,
    singleton_family,
)
from cocodes import model
from cocodes.construct import _connections
from cocodes.cyclo import INT64_COEFF_BOUND
from cocodes.model import (
    _fit,
    _scatter,
    cell_terms,
    energies,
    layer_peak,
    layers,
    multiply,
    row_terms,
    terms_of,
)

approx_entries = st.one_of(
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), -1.0, 1j]),
)

ONE = CycloNum.from_int(1)
I4 = CycloNum.root(4, 1)


def entry_times(e, x):
    """e * x by definition (see the module docstring)."""
    if isinstance(e, CycloNum):
        return e * x
    if e == 0 or x == 0:
        return 0j
    return 0j + complex((np.array([e]) * np.array([x]))[0])


def times(seq, x):
    """seq scaled by the scalar x, entry by entry."""
    return Sequence([entry_times(e, x) for e in seq])


def kron_by_product(v, cell):
    """Element k is cell[k div M] times v[k mod M], entry by entry."""
    m = len(v)
    return [times(cell[k // m], v[k % m]) for k in range(m * len(cell))]


def connect_by_product(v, cell):
    """(v[k mod len(v)] * cell[k mod M]) for k < lcm(M, len(v)), concatenated."""
    m, n = len(cell), len(v)
    return Sequence([entry_times(e, v[i % n])
                     for i in range(m * n // gcd(m, n)) for e in cell[i % m]])


def energies_by_product(cell):
    """Each member's sum of e * conj(e) over its entries, as one Sequence;
    approx sums go in column order from 0."""
    if cell[0].mode == "approx":
        return Sequence([reduce(add, (entry_times(e, e.conjugate()) for e in s), 0j) for s in cell])
    return Sequence([reduce(add, (e * e.conj() for e in s)) for s in cell])


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

ZETA6_H2 = custom_matrix([[ONE, ONE], [CycloNum.root(6, 1), -CycloNum.root(6, 1)]])
BIG_H2 = custom_matrix([[1, 2 ** 70], [2 ** 70, -1]])


def ccc4():
    return cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4))


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

    @pytest.mark.parametrize("ccc, matrices", [
        (ccc4, lambda n: [hadamard_matrix(2)] * n),
        (ccc4, lambda n: [dft_matrix(2)] * n),
        (ccc4, lambda n: [custom_matrix([[ONE, I4], [ONE, -I4]])] * n),
        (ccc4, lambda n: [hadamard_matrix(2) if k % 2 else dft_matrix(2) for k in range(n)]),
        # rows whose outputs are int64 and Python ints in one product
        (ccc4, lambda n: [BIG_H2, dft_matrix(2)] * (n // 2)),
        # members of orders 2 and 6, and rows of orders 1, 6 and 2
        (lambda: cosf_to_ccc(execute(plan(2, [8]), verify=False).family, ZETA6_H2),
         lambda n: [ZETA6_H2, dft_matrix(2)]),
        (lambda: ccc_from_unitary(custom_matrix([[1.0, 1.0], [1.0, -1.0]])),
         lambda n: [custom_matrix([[1.0, 1j], [1.0, -1j]]),
                    custom_matrix([[0.5, 0.5], [0.5, -0.5]])]),
    ], ids=["hadamard2", "dft2", "custom", "alternating", "object", "mixed-orders", "approx"])
    def test_enlarge_ccc(self, ccc, matrices):
        # each input set is expanded by all its matrix's rows in one product
        ccc = ccc()
        mats = matrices(ccc.family_size)
        big = enlarge_ccc(ccc, mats)
        want = [kron_by_product(u.row(m), ccc[n])
                for n, u in enumerate(mats) for m in range(u.dim)]
        assert len(big) == len(want)
        for got, expected in zip(big, want):
            assert_same_arrays(got, expected)
        assert is_ccc(big).ok


def connections(vs, cell):
    """The Sequences of `_connections` of the vs with a cell, read as
    `connect` reads them."""
    found = cell_terms(map(terms_of, cell))
    return list(map(Sequence._of_terms, _connections(row_terms(map(terms_of, vs)), found,
                                                     layer_peak(found[2]))))


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
        assert_same_arrays(connections(vs, cell),
                           [connect_by_product(v, cell) for v in vs])

    def test_approx(self):
        vs = [Sequence([1.0, -1.0]), Sequence([0.5j, 1.0, 0.0])]
        assert_same_arrays(connections(vs, APPROX),
                           [connect_by_product(v, APPROX) for v in vs])

    @staticmethod
    def check(vs, cell):
        """The outputs hold the oracle's arrays, byte for byte."""
        got = connections(vs, cell)
        assert_same_arrays(got, [connect_by_product(v, cell) for v in vs])
        return got

    @settings(max_examples=300, deadline=None)
    @given(single_term_cells(), st.lists(single_term_sequences(), min_size=1, max_size=3))
    def test_single_term_cells(self, cell, vs):
        self.check(vs, cell)

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (4, 6), (5, 1), (1, 4)])
    def test_single_term_repetition(self, m, n):
        # m != len(v): the output has lcm(m, n) blocks
        cell = SequenceSet(single_term([((i + l) % 12, (-1) ** l) for l in range(4)], 12)
                           for i in range(m))
        v = single_term([(j % 5, 2) for j in range(n)], 5)
        got = self.check([v], cell)
        assert len(got[0]) == m * n // np.gcd(m, n) * 4 and got[0].order == 60

    @pytest.mark.parametrize("v_coeff, dtype", [(1, np.int64), (-1, np.int64),
                                                (2, object), (-EDGE, object)])
    def test_single_term_products_past_the_bound(self, v_coeff, dtype):
        # EDGE * 1 fits the bound, EDGE * 2 does not: `_fit` picks the dtype
        cell = SequenceSet([single_term([(0, EDGE), (1, -EDGE), (2, 1)], 3),
                            single_term([(2, -EDGE), (0, 1), (1, EDGE)], 3)])
        v = single_term([(1, v_coeff), (0, 1), (1, -1)], 2)
        got = self.check([v], cell)
        assert got[0].array.dtype == dtype

    @pytest.mark.parametrize("member, coeff, dtype", [
        (1, INT64_COEFF_BOUND - 1, np.int64), (2, INT64_COEFF_BOUND // 2, object),
    ], ids=["peak-product-2^31-1", "peak-product-2^31"])
    @pytest.mark.parametrize("as_family", [False, True], ids=["custom-matrix", "inline-family"])
    def test_peak_products_at_the_bound(self, member, coeff, dtype, as_family):
        # members of peak `member` connected with rows of peak `coeff`: a peak
        # product below INT64_COEFF_BOUND is taken unscanned, one at it is fitted
        cell = custom_matrix([[member, member], [member, -member]]).row_set
        sub = custom_matrix([[coeff, coeff], [coeff, -coeff]])
        want = [connect_by_product(v, cell) for v in sub.rows()]
        got = elongate_cosf(singleton_family(cell), {0: [[0, 1]]},
                            {(0, 0): sub.rows_family() if as_family else sub})
        assert_same_arrays([ss[0] for ss in got], want)
        assert {ss[0].array.dtype for ss in got} == {np.dtype(dtype)}
        if not as_family:
            base = custom_matrix([list(row) for row in cell])
            assert_same_arrays([ss[0] for ss in generate_cosf(base, [[0, 1]], [sub])], want)

    @pytest.mark.parametrize("near", ["zero entry", "1 + zeta", "identity sub"])
    def test_near_misses_of_single_term_cells(self, near):
        # a zero column or a column of two terms: zero-coefficient or second layers
        members = [single_term([((i * l) % 6, 1) for l in range(4)], 6) for i in range(3)]
        vs = dft_matrix(3).rows() + [single_term([(1, -1), (0, 1)], 4)]
        if near == "zero entry":
            members[1] = single_term([(0, 1), (3, 1), (0, 0), (1, -1)], 6)
        elif near == "1 + zeta":
            members[1] = Sequence([1, 1, ONE + CycloNum.root(6, 1), -ONE])
        else:
            vs = identity_matrix(3).rows()
        self.check(vs, SequenceSet(members))


class TestEnergies:
    @staticmethod
    def check(cell):
        # `energies`' own output, unwrapped: its dtype is the one `_fit` gives
        assert_same_values(energies(cell_terms(map(terms_of, cell))), energies_by_product(cell).array)

    @settings(max_examples=200, deadline=None)
    @given(single_term_cells())
    def test_single_term_cells(self, cell):
        self.check(cell)

    @pytest.mark.parametrize("cell", [
        MIXED_ORDERS, BIG,
        # 1 + zeta and a zero entry beside single terms: off-diagonal layer pairs
        SequenceSet([Sequence([ONE + CycloNum.root(6, 1), 0, CycloNum(6, [2, 0, -1, 0, 3, 0])]),
                     Sequence([1, -1, I4])]),
    ], ids=["mixed-orders", "object", "multi-term"])
    def test_cells(self, cell):
        self.check(cell)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.integers(1, 40).flatmap(
        lambda length: st.lists(st.lists(approx_entries, min_size=length, max_size=length),
                                min_size=n, max_size=n))))
    def test_approx_cells(self, members):
        # long rows: a pairwise sum would differ from the column-order sum
        with np.errstate(all="ignore"):
            self.check(SequenceSet(Sequence(x) for x in members))


@st.composite
def layered_arrays(draw):
    """(array, order): a (K, L) array, K in 1..12, whose columns hold at
    most t nonzero terms (t drawn in 1..K, column 0 holding exactly t), of
    int64 or Python-int coefficients, read at a multiple of K; or a (1, L)
    complex array with signed zeros, NaNs and infinities."""
    length = draw(st.integers(1, 6))
    if draw(st.booleans()):
        entries = draw(st.lists(approx_entries, min_size=length, max_size=length))
        return np.array([entries], complex), 1
    k = draw(st.integers(1, 12))
    t = draw(st.integers(1, k))
    big = [2 ** 70, -(2 ** 40)] if draw(st.booleans()) else []
    coeffs = st.sampled_from([1, -1, 2, -3, EDGE, -EDGE] + big)
    array = np.zeros((k, length), object)
    for col in range(length):
        rows = draw(st.lists(st.integers(0, k - 1), min_size=t if col == 0 else 0, max_size=t, unique=True))
        for row in rows:
            array[row, col] = draw(coeffs)
    return Sequence.of_array(array).array, k * draw(st.integers(1, 3))


class TestLayers:
    @settings(max_examples=300, deadline=None)
    @given(layered_arrays())
    def test_round_trip(self, drawn):
        a, order = drawn
        exps, coeffs = layers(a, order)
        assert exps.shape == coeffs.shape and coeffs.dtype == a.dtype
        terms = np.count_nonzero(a != 0, axis=0)
        assert len(coeffs) == max(terms.max(), 1)
        # term k of each column, by row, in layer k; zero coefficients after
        depth = np.arange(len(coeffs))[:, None]
        assert np.array_equal(coeffs != 0, depth < terms)
        assert np.all((np.diff(exps, axis=0) > 0) | (depth[1:] >= terms))
        # the layers scattered back into zeros, one fancy-index add each
        back = np.zeros((order, a.shape[1]), a.dtype)
        for e, c in zip(exps, coeffs):
            back[e, np.arange(a.shape[1])] += c
        if a.dtype.kind == "c":
            # a zero entry is no term, so -0.0 comes back as 0.0
            assert_same_arrays([Sequence.of_array(back)], [Sequence.of_array(a + 0)])
        else:
            assert np.all(exps % (order // len(a)) == 0)
            assert np.array_equal(back[::order // len(a)], a)
            assert not back[np.arange(order) % (order // len(a)) != 0].any()
            # a column's padding is coefficient 0 at exponent 0
            assert np.count_nonzero(coeffs) == np.count_nonzero(a)


def assert_same_values(got, want):
    """Equal dtype, shape and values: Python ints, else bytes with every
    NaN as one NaN."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        (g_bytes, g_nans), (w_bytes, w_nans) = map(canonical_nans, (got, want))
        assert g_bytes == w_bytes and np.array_equal(g_nans, w_nans)


INF, NAN = float("inf"), float("nan")
OF_ARRAY = {
    "int64": np.array([[1, 0, -1, 2], [0, 1, 0, -3]], np.int64),
    "int64 multi-term": np.array([[1, 0, 2], [1, 0, 0], [0, 0, -3], [0, 0, 5]], np.int64),
    "int32": np.array([[1, -1], [0, 2], [3, 0]], np.int32),
    "zero columns": np.zeros((3, 4), np.int64),
    "Python ints past the bound": np.array([[2 ** 70, 0], [0, -(2 ** 40)], [1, 1]], object),
    "Python ints below the bound": np.array([[5, 0], [0, -7]], object),
    "approx": np.array([[1.0, -0.0, complex(-0.0, -0.0), INF, complex(0.0, -INF), NAN,
                         complex(NAN, 1.0), 0.0]]),
}


class TestOneStore:
    """Every Sequence holds its layers; its array is only the cache that
    `.array` fills (`Sequence.of_array` fills it with the array given)."""

    @staticmethod
    def check_of_array(a):
        want = _fit(a)
        s = Sequence.of_array(a)
        assert s._array is not None  # the cache is filled at construction
        assert s.array is s._array and not s.array.flags.writeable
        if want.dtype == a.dtype:
            assert s.array is a  # kept, not copied
        assert_same_values(s.array, want)
        order, exps, coeffs = s._terms
        assert order == len(want)
        want_exps, want_coeffs = layers(want, order)
        assert_same_values(exps, want_exps)
        if want.dtype.kind == "c":  # the array itself, -0.0 kept where `layers` sums it to 0.0
            assert coeffs is s.array and np.array_equal(coeffs, want_coeffs, equal_nan=True)
        else:
            assert_same_values(coeffs, want_coeffs)

    @pytest.mark.parametrize("name", list(OF_ARRAY))
    def test_of_array_round_trip(self, name):
        self.check_of_array(OF_ARRAY[name].copy())

    @settings(max_examples=200, deadline=None)
    @given(layered_arrays())
    def test_of_array_round_trip_drawn(self, drawn):
        self.check_of_array(drawn[0].copy())

    @staticmethod
    def check_conj(s):
        a = s.array
        got = s.conj()
        assert got._array is None  # made from the layers alone
        assert_same_values(got.array, np.conj(a[-np.arange(len(a)) % len(a)]))

    @settings(max_examples=200, deadline=None)
    @given(layered_arrays())
    def test_conj_is_the_dense_row_reversal(self, drawn):
        self.check_conj(Sequence.of_array(drawn[0]))

    @pytest.mark.parametrize("seqs", [
        lambda: [Sequence([ONE + I4, 0, CycloNum(6, [2, 0, -1, 0, 3, 0]), CycloNum.root(3, 1)])],
        lambda: [Sequence([1.0, -0.0, complex(-0.0, -0.0), complex(1.0, -INF), 1j])],
        # coefficient-0 layer entries at nonzero exponents
        lambda: [ss[0] for ss in generate_cosf(dft_matrix(3), [[0, 1, 2]], [identity_matrix(3)])],
        lambda: list(kron_expand(MULTI_TERM.row(0), cosf_to_ccc(_fam(2, 8), MULTI_TERM)[1])),
    ], ids=["exact", "approx", "zero coefficients", "expansion"])
    def test_conj_of_held_layers(self, seqs):
        for s in seqs():
            self.check_conj(s)

    def test_the_second_store_is_gone(self):
        assert not hasattr(model, "read_terms")
        assert not any(hasattr(Sequence, name) for name in ("_of_fitted", "_own"))


# a = c (1 + zeta_3 + zeta_3^2) as three terms: a * a puts three products
# c^2 on every row, and its energy nine products c^2 over the three rows
THREE_TERMS = 3
# the least c with 9 c^2 >= 2^63: multiply sums its 9 layer pairs as
# Python ints from there on, and as int64 below it
EDGE_9 = isqrt((2 ** 63 - 1) // 9) + 1


def three_terms(c):
    return Sequence([CycloNum(3, [c, c, c])])


class TestInt64Edges:
    """Multi-layer sums at the int64 edge: products are summed as Python
    ints when the largest times ta * tb could reach 2^63.  Past the edge
    (at 2^31 - 1) each sum 3 c^2 is itself past 2^63, so int64 sums would
    have wrapped."""

    @pytest.mark.parametrize("c, widened", [(EDGE_9 - 1, False), (EDGE_9, True), (EDGE, True)],
                             ids=["below", "at", "past"])
    def test_kernel_dtype(self, c, widened):
        assert 9 * (EDGE_9 - 1) ** 2 < 2 ** 63 <= 9 * EDGE_9 ** 2
        a = layers(three_terms(c).array, 3)
        assert len(a[1]) == THREE_TERMS
        sums = multiply(a, a, 3)
        assert sums.dtype == (object if widened else np.int64)
        assert sums[:, 0].tolist() == [3 * c * c] * 3

    @pytest.mark.parametrize("c", [EDGE_9 - 1, EDGE_9, EDGE], ids=["below", "at", "past"])
    def test_operators(self, c):
        s = three_terms(c)
        want = times(s, s[0])
        assert want.array[:, 0].tolist() == [3 * c * c] * 3
        assert_same_arrays([entrywise(s, s), connect(s, SequenceSet([s]))],
                           [want, want])
        assert_same_arrays(kron_expand(s, SequenceSet([s])), [want])
        # the energy of two such entries: 18 c^2 products, 2 * 3 c^2 at row 0
        two = Sequence([s[0], s[0]])
        assert energy(two) == reduce(add, (e * e.conj() for e in two))
        assert_same_values(energies(cell_terms([terms_of(two)])), energies_by_product([two]).array)


def _fam(n, length):
    return execute(plan(n, [length]), verify=False).family


# the custom matrices the CI chains use: m m^H = 3 I with entries 1 + zeta_4
# and 1 + zeta_4^3, an H2 scaled by 2^40 and an approx H2
MULTI_TERM = custom_matrix([[ONE + I4, ONE], [-ONE, ONE + CycloNum.root(4, 3)]])
H2_2_40 = custom_matrix([[2 ** 40, 2 ** 40], [2 ** 40, -(2 ** 40)]])
APPROX_H2 = custom_matrix([[1.0, 1.0], [1.0, -1.0]])
# approx members with signed zeros and infinities
APPROX_ZEROS = SequenceSet([
    Sequence([1.0, -0.0, float("inf"), 0.0]),
    Sequence([complex(-0.0, -0.0), 1.0, -1.0, complex(0.0, float("-inf"))]),
])
# members of orders 1 and 3, one holding a 2^62 coefficient
ORDERS_1_3 = SequenceSet([Sequence([1, -1, 2 ** 62]), Sequence([CycloNum.root(3, 1), 1, -ONE])])


def operator_outputs():
    """(label, output Sequences) of every construction operator over the
    pinned inputs."""
    h2, d2, d3, h4 = hadamard_matrix(2), dft_matrix(2), dft_matrix(3), hadamard_matrix(4)
    for n in range(2, 9):
        for targets in ([n * n], [n ** 3], [2 * n, 4 * n]):
            try:
                recipe = plan(n, targets)
            except ValueError:  # leading cells past n
                continue
            subs = [spec.build() for spec in recipe.cell_matrices]
            yield f"gen {n} {targets}", [ss[0] for ss in generate_cosf(
                recipe.base_matrix.build(), recipe.cells, subs)]
            fam = execute(recipe, verify=False).family
            maps = [dft_matrix(n)] + ([hadamard_matrix(n)] if n & (n - 1) == 0 else [])
            for u in maps:
                ccc = cosf_to_ccc(fam, u)
                yield f"ccc {n} {targets} {u!r}", [s for ss in ccc for s in ss]
            seqs = [ss[0] for ss in fam]
            yield f"entrywise {n} {targets}", [entrywise(s, t) for s in seqs for t in seqs
                                               if len(s) == len(t)]
            yield f"scale {n} {targets}", [s.scale(x) for s in seqs[:3]
                                           for x in (-ONE, I4, CycloNum.root(n, 1), ONE + I4)]
        ccc = cosf_to_ccc(_fam(n, n * n), dft_matrix(n))
        for u in (h2, d2, d3, h4):
            big = enlarge_ccc(ccc, [u] * n)
            yield f"enlarge {n} {u!r}", [s for ss in big for s in ss]
        yield f"kron {n}", [s for u in (h2, d3) for v in u.rows() for s in kron_expand(v, ccc[0])]
        yield f"connect {n}", [connect(v, ccc[0]) for u in (h2, d3, dft_matrix(n)) for v in u.rows()]
    fam2 = _fam(2, 8)
    for u in (MULTI_TERM, H2_2_40):
        ccc = cosf_to_ccc(fam2, u)
        yield f"ccc {u!r}", [s for ss in ccc for s in ss]
        big = enlarge_ccc(ccc, [u, h2])
        yield f"enlarge {u!r}", [s for ss in big for s in ss]
        yield f"gen {u!r}", [ss[0] for base, sub in ((h2, u), (u, h2), (u, u))
                             for ss in generate_cosf(base, [[0, 1]], [sub])]
        yield f"connect {u!r}", [connect(v, ccc[0]) for v in u.rows()]
        yield f"kron {u!r}", [s for v in u.rows() for s in kron_expand(v, ccc[1])]
        yield f"entrywise {u!r}", [entrywise(s, t) for s in ccc[0] for t in ccc[1]]
    yield "scale 2^40", [s.scale(x) for ss in fam2 for s in ss for x in (2 ** 40, -(2 ** 40))]
    ccc = ccc_from_unitary(APPROX_H2)
    yield "approx ccc", [s for ss in ccc for s in ss]
    yield "approx enlarge", [s for ss in enlarge_ccc(ccc, [APPROX_H2] * 2) for s in ss]
    yield "approx gen", [ss[0] for ss in generate_cosf(APPROX_H2, [[0, 1]], [APPROX_H2])]
    for cell in (APPROX_ZEROS, ORDERS_1_3):
        matrices = [APPROX_H2] if cell is APPROX_ZEROS else [h2, d2, d3]
        yield f"kron {cell!r}", [s for u in matrices for v in u.rows() for s in kron_expand(v, cell)]
        yield f"connect {cell!r}", [connect(v, cell) for u in matrices for v in u.rows()]
        yield f"entrywise {cell!r}", [entrywise(s, t) for s in cell for t in cell]
        scalars = ((-1.0, 0.0, -0.0, 1j, complex("inf")) if cell is APPROX_ZEROS
                   else (-1, CycloNum.root(3, 2), 2 ** 40))
        yield f"scale {cell!r}", [s.scale(x) for s in cell for x in scalars]


class TestPinnedOperators:
    # sha256 of the label, order, dtype, shape and values of every output of
    # the construction operators over the inputs of `operator_outputs`
    # (Python ints by their repr, every NaN as one NaN)
    DIGEST = "1dcfdef6b5fb679293ea2fe7ea3679eb45b4f0e6e5bb3a0a381d4f4a7ed6b5e0"

    def test_outputs_unchanged(self):
        h = hashlib.sha256()
        outputs = 0
        with np.errstate(all="ignore"):  # inf * 0 and inf - inf in approx products
            for label, seqs in operator_outputs():
                h.update(label.encode())
                for s in seqs:
                    a = s.array
                    values = repr(a.tolist()).encode() if a.dtype == object else canonical_nans(a)[0]
                    h.update(f"{s.order} {a.dtype} {a.shape}".encode() + values)
                    outputs += 1
        assert (outputs, h.hexdigest()) == (8950, self.DIGEST)


def executed(n):
    """The unverified families of `execute` over planner recipes of n."""
    for targets in ([n * n], [n ** 3], [2 * n, 4 * n]):
        try:
            recipe = plan(n, targets)
        except ValueError:  # leading cells past n
            continue
        yield execute(recipe, verify=False).family


def unread(seqs) -> bool:
    return all(s._array is None for s in seqs)


class TestHeldLayers:
    def test_array_is_the_scatter_of_the_layers(self):
        # every output, an expansion's too (a cut of its connection's layers)
        layered = 0
        with np.errstate(all="ignore"):  # inf * 0 and inf - inf in approx products
            outputs = list(operator_outputs())
            outputs += [(f"execute {n}", [ss[0] for ss in fam]) for n in range(2, 9)
                        for fam in executed(n)]
            for label, seqs in outputs:
                for s in seqs:
                    order, exps, coeffs = s._terms
                    want, got = _scatter(zip(exps, coeffs), order), s.array
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), label
                    if got.dtype == object:
                        assert got.tolist() == want.tolist(), label
                    else:
                        assert got.tobytes() == want.tobytes(), label
                    assert not got.flags.writeable
                    assert s.array is got
                    layered += 1
        assert layered == 9041

    def test_outputs_hold_no_array_until_read(self):
        h2, d4 = hadamard_matrix(2), dft_matrix(4)
        fam = next(executed(4))
        assert unread(ss[0] for ss in fam)
        # the checks and `connect` read their inputs' arrays, not their outputs'
        ccc = cosf_to_ccc(fam, d4)
        longer = elongate_cosf(fam, {0: [[0, 1], [2, 3]]}, {(0, 0): h2, (0, 1): h2})
        joined = connect(d4.row(1), ccc[0])
        outputs = [s for ss in ccc[1:] for s in ss] + [ss[0] for ss in longer] + [joined]
        outputs += [s.scale(-1) for s in ccc[0]]
        assert unread(outputs)
        assert [(s.order, s.mode, len(s)) for s in outputs] == (
            [(4, "exact", 16)] * 12 + [(4, "exact", 32)] * 4 + [(4, "exact", 64)]
            + [(4, "exact", 16)] * 4)
        assert longer.length_set == {32}
        assert unread(outputs)
        assert joined.array.shape == (4, 64) and not unread([joined])

    def test_inputs_are_not_read_into_layers(self, monkeypatch):
        h2, d4 = hadamard_matrix(2), dft_matrix(4)
        fam = next(executed(4))

        def refuse(*args):
            raise AssertionError("a held sequence read back into layers")

        monkeypatch.setattr(model, "layers", refuse)
        s = fam[0][0]
        assert terms_of(s) is s._terms
        cosf_to_ccc(fam, d4)
        elongate_cosf(fam, {0: [[0, 1], [2, 3]]}, {(0, 0): h2, (0, 1): h2})

    def test_zero_coefficients_equal_the_dense_twin(self):
        # an identity sub-matrix connects zeros: coefficient-0 layer entries
        # at the exponents of the DFT rows, where a re-read puts exponent 0
        fam = generate_cosf(dft_matrix(3), [[0, 1, 2]], [identity_matrix(3)])
        for ss in fam:
            s = ss[0]
            order, exps, coeffs = s._terms
            reread = layers(s.array, order)
            moved = exps != reread[0]
            assert moved.any() and not coeffs[moved].any()
            twin = Sequence.of_array(s.array.copy())
            assert s == twin and twin == s
        # compared before its array is read
        fresh = generate_cosf(dft_matrix(3), [[0, 1, 2]], [identity_matrix(3)])[0][0]
        assert unread([fresh]) and fresh == Sequence.of_array(fam[0][0].array.copy())

    # held families: zero coefficients at nonzero exponents (an identity
    # sub-matrix), a planner family, and two-layer members (the CI's
    # 1 + zeta_4 matrix as base)
    HELD = {
        "identity sub-matrix": lambda: generate_cosf(dft_matrix(3), [[0, 1, 2]],
                                                     [identity_matrix(3)]),
        "planner": lambda: _fam(4, 16),
        "multi-term": lambda: generate_cosf(MULTI_TERM, [[0, 1]], [hadamard_matrix(2)]),
    }

    @staticmethod
    def held_outputs(fam):
        """(label, outputs) of every operator over the held CO-SF `fam`,
        its CCCs and their sets, each output a Sequence."""
        n = fam.family_size
        seqs = [ss[0] for ss in fam]
        for u in [dft_matrix(n)] + ([MULTI_TERM] if n == 2 else []):
            ccc = cosf_to_ccc(fam, u)
            yield f"ccc {u!r}", [s for ss in ccc for s in ss]
            yield f"enlarge {u!r}", [s for ss in enlarge_ccc(ccc, [hadamard_matrix(2)] * n)
                                     for s in ss]
            yield f"kron {u!r}", list(kron_expand(seqs[1], ccc[0]))
            yield f"connect {u!r}", [connect(seqs[0], ccc[0])]
            yield f"set_energy {u!r}", [Sequence([set_energy(ccc[0])])]
        yield "entrywise", [entrywise(s, t) for s in seqs for t in seqs]
        yield "elongate", [ss[0] for ss in elongate_cosf(fam, {0: [list(range(n))]},
                                                          {(0, 0): fam})]
        yield "energy", [Sequence([energy(s)]) for s in seqs]

    @pytest.mark.parametrize("name", list(HELD))
    def test_held_inputs_equal_their_dense_twins(self, name):
        fam = self.HELD[name]()
        assert all(s._array is None for ss in fam for s in ss)
        twin = singleton_family(Sequence.of_array(ss[0].array.copy()) for ss in fam)
        for (label, got), (_, want) in zip(self.held_outputs(fam), self.held_outputs(twin)):
            assert_same_arrays(got, want)

    def test_operators_read_no_held_sequence_into_layers(self, monkeypatch):
        # the factories' matrices built afresh: their rows are held layers
        for build in (dft_matrix, hadamard_matrix, identity_matrix):
            build.cache_clear()

        def refuse(*args):
            raise AssertionError("a sequence read into layers")

        monkeypatch.setattr(model, "layers", refuse)
        fams = [fam for n in range(2, 9) for fam in executed(n)]
        fam = next(f for f in fams if f.family_size == 4)
        h2, d4 = hadamard_matrix(2), dft_matrix(4)
        seqs = [ss[0] for ss in fam]
        cell = SequenceSet(seqs[:2])
        connect(d4.row(1), cell)
        kron_expand(h2.row(1), cell)
        entrywise(seqs[0], seqs[1])
        energy(seqs[0])
        set_energy(cell)
        for x in (-1, CycloNum.root(4, 1), 0):
            seqs[0].scale(x)
        elongate_cosf(fam, {0: [[0, 1], [2, 3]]}, {(0, 0): h2, (0, 1): h2})
        assert unread(s for f in fams for ss in f for s in ss)
        # the map's check reads its input's arrays, never a matrix row's
        cosf_to_ccc(fam, d4)
        factories = [u for build in (dft_matrix, hadamard_matrix, identity_matrix)
                     for u in (build(1), build(2), build(4), build(8))]
        assert unread(row for u in factories for row in u.rows())

    def test_custom_matrix_reads_each_row_once(self, monkeypatch):
        reads = []

        def counted(a, order):
            reads.append(a)
            return layers(a, order)

        monkeypatch.setattr(model, "layers", counted)
        # rows built from scalars hold their layers: none is read
        u = custom_matrix([[ONE, I4], [ONE, -I4]])
        assert not reads and all(r._array is None for r in u.rows())
        # rows made from arrays are read once each, by `Sequence.of_array`,
        # and never again by the check of their cross-orthogonality
        held = custom_matrix([Sequence.of_array(r.array.copy()) for r in u.rows()])
        arrays = [r.array for r in held.rows()]
        assert [a.tolist() for a in reads] == [a.tolist() for a in arrays]
        reads.clear()
        # single-layer products of the matrix's layers and held members
        cosf_to_ccc(_fam(2, 8), u)
        generate_cosf(u, [[0, 1]], [u])
        assert not reads
