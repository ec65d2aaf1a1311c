"""Entries read from the layers a Sequence holds.

`list(seq)` and `seq[i]` must give, entry by entry, the scalar that
`array_entry` reads from the dense array, for every layer form a
Sequence can hold, without making that array; equal entries come out as
one shared CycloNum.  CycloNum's own arithmetic builds its results
unchecked, so they are compared with what the public constructor makes
of the same coefficients.
"""

import itertools
import math
import random

import numpy as np
import pytest

from cocodes import (CycloNum, Sequence, corr_profile, cosf_to_ccc, custom_matrix, dft_matrix,
                     execute, plan)
from cocodes.cyclo import INT64_COEFF_BOUND
from cocodes.model import array_entry, terms_of

Z4 = CycloNum(4, [1, 1, 0, 0])  # 1 + zeta_4
Z4_CONJ = CycloNum(4, [1, 0, 0, 1])  # 1 + zeta_4^3


def single_layer():
    """A member of the 4x4 DFT CCC of length 16: roots of unity, one
    int64 layer, held as the constructor left it."""
    return cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4))[1][2]


def two_layers():
    """A member of the CCC of the 2-CO-SF of length 8 under the matrix
    [[1 + zeta_4, 1], [-1, 1 + zeta_4^3]]: entries of two terms."""
    m = custom_matrix([[Z4, 1], [-1, Z4_CONJ]])
    return cosf_to_ccc(execute(plan(2, [8]), verify=False).family, m)[0][0]


FORMS = {
    "single-layer int64": single_layer,
    "two-layer": two_layers,
    "two-layer from scalars": lambda: Sequence([Z4, 1, Z4_CONJ, Z4, -1, Z4_CONJ]),
    "past int64 one layer": lambda: Sequence([2 ** 40, -(2 ** 70), CycloNum(3, [0, 2 ** 65, 0]),
                                              2 ** 40, 1]),
    "past int64 two layers": lambda: Sequence([CycloNum(3, [INT64_COEFF_BOUND, 1, 0]), -1,
                                               CycloNum(3, [INT64_COEFF_BOUND, 1, 0])]),
    "zero entries": lambda: Sequence([0, 1, 0, -1, 0]),
    # one layer whose zero entries sit at exponents 1 and 3, as a product's may
    "zero entries at other exponents": lambda: Sequence._of_terms(
        (4, np.array([[1, 2, 3, 0, 1]]), np.array([[0, 1, 0, -1, 0]]))),
    # held as the product left it, its array not made
    "approx": lambda: Sequence([1.0, -1j, 0.0, 0.5 + 2j, 1.0, -0.0]).scale(1.0),
}


def dense_entries(seq):
    """Every entry as `array_entry` reads it from the scatter of a twin
    holding the same layers, so `seq` itself is not read."""
    twin = Sequence._of_terms(terms_of(seq))
    return [array_entry(twin.array, i) for i in range(len(twin))]


def as_pairs(values):
    return [(x.order, x.coeffs) if isinstance(x, CycloNum) else x for x in values]


@pytest.fixture(params=list(FORMS), ids=list(FORMS))
def seq(request):
    return FORMS[request.param]()


class TestEntryReads:
    def test_iteration_gives_the_dense_entries(self, seq):
        assert as_pairs(seq) == as_pairs(dense_entries(seq))

    def test_indexing_gives_the_dense_entries(self, seq):
        want = as_pairs(dense_entries(seq))
        assert as_pairs(seq[i] for i in range(len(seq))) == want
        assert as_pairs(seq[i] for i in range(-len(seq), 0)) == want
        assert as_pairs([seq[np.int64(1)]]) == want[1:2]

    def test_out_of_range_index_raises(self, seq):
        for i in (len(seq), -len(seq) - 1):
            with pytest.raises(IndexError):
                seq[i]

    def test_coefficients_are_python_ints(self, seq):
        if seq.mode == "approx":
            assert all(type(x) is complex for x in seq)
            return
        read = list(seq) + [seq[i] for i in range(len(seq))]
        assert all(type(x.order) is int for x in read)
        assert all(type(c) is int for x in read for c in x.coeffs)

    def test_equal_entries_are_one_object(self, seq):
        if seq.mode == "approx":
            return
        entries = list(seq)
        by_value = {}
        for x in entries:
            by_value.setdefault(x.coeffs, set()).add(id(x))
        assert all(len(ids) == 1 for ids in by_value.values())
        assert len(by_value) < len(entries)  # every form repeats a value

    def test_reads_leave_the_array_unmade(self, seq):
        assert seq._array is None
        list(seq)
        for i in range(-len(seq), len(seq)):
            seq[i]
        assert seq._array is None


def test_iteration_reads_a_made_array_alike():
    """A multi-term sequence whose array was read gives the same entries."""
    seq = two_layers()
    before = as_pairs(seq)
    seq.array
    assert as_pairs(seq) == before


# -- CycloNum results built unchecked ----------------------------------------


def _public(x):
    return CycloNum(x.order, x.coeffs)


def _reference_product(a, b, k):
    """Cyclic convolution of the dense promoted coefficients."""
    pa, pb = a.promote(k).coeffs, b.promote(k).coeffs
    out = [0] * k
    for i, j in itertools.product(range(k), repeat=2):
        out[(i + j) % k] += pa[i] * pb[j]
    return out


def _scalars(rng, n):
    out = []
    for _ in range(n):
        order = rng.choice([1, 2, 3, 4, 6, 12])
        out.append(CycloNum(order, [rng.choice([0, 0, 1, -1, 3, 2 ** 70, -(2 ** 64)])
                                    for _ in range(order)]))
    return out


def test_arithmetic_results_equal_the_public_constructors():
    rng = random.Random(7)
    values = _scalars(rng, 24)
    for a, b in itertools.product(values, repeat=2):
        k = math.lcm(a.order, b.order)
        results = {
            "add": (a + b, [x + y for x, y in zip(a.promote(k).coeffs, b.promote(k).coeffs)]),
            "sub": (a - b, [x - y for x, y in zip(a.promote(k).coeffs, b.promote(k).coeffs)]),
            "mul": (a * b, _reference_product(a, b, k)),
        }
        for name, (got, want) in results.items():
            assert (got.order, got.coeffs) == (k, tuple(want)), name
            assert (got.order, got.coeffs) == (_public(got).order, _public(got).coeffs)
            assert all(type(c) is int for c in got.coeffs)
    for a in values:
        for got in (-a, a.conj(), a.promote(a.order * 2)):
            assert all(type(c) is int for c in got.coeffs)
            assert got.coeffs == _public(got).coeffs and len(got.coeffs) == got.order
        assert (-a).coeffs == tuple(-c for c in a.coeffs)
        assert a.conj().coeffs == tuple(a.coeffs[-j % a.order] for j in range(a.order))
        assert a.promote(a.order * 2).coeffs[::2] == a.coeffs


def test_profile_values_are_python_ints():
    seq = two_layers()
    values = corr_profile(seq, seq).values
    assert all(type(c) is int for x in values for c in x.coeffs)
    assert [(x.order, x.coeffs) for x in values] == [(x.order, _public(x).coeffs) for x in values]


@pytest.mark.parametrize("order, coeffs, error", [
    (2, [1.0, 0], TypeError),
    (2, ["1", 0], TypeError),
    (2.0, [1, 0], TypeError),
    (3, [1, 0], ValueError),
    (2, [1, 0, 0], ValueError),
    (0, [], ValueError),
    (-1, [1], ValueError),
])
def test_public_constructor_still_checks(order, coeffs, error):
    with pytest.raises(error):
        CycloNum(order, coeffs)
