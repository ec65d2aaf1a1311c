"""The constructor's two per-call shortcuts against the routes they skip.

`model.layer_product`, the product of two exact single-layer operands,
must give what the layer-pair route gives (`_products` scattered by
`_scatter`, fitted by `_fit` and read back through `layers`): the same
dtype, shape and bytes.  `SequenceFamily._of_members`, the unchecked
wrap of the constructor's own outputs, must give the family the public
constructors build from the same sequences, and those constructors keep
every check and message.
"""

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    ccc_from_unitary,
    cosf_to_ccc,
    custom_matrix,
    dft_matrix,
    enlarge_ccc,
    execute,
    generate_cosf,
    hadamard_matrix,
    kron_expand,
    plan,
)
from cocodes.cyclo import INT64_COEFF_BOUND
from cocodes.matrices import MatrixValidationError
from cocodes.model import (
    ModeMismatchError,
    _fit,
    _products,
    _scatter,
    layer_peak,
    layer_product,
    layered_multiply,
    layers,
)

ONE = CycloNum.from_int(1)
I4 = CycloNum.root(4, 1)


def layer(seq, order):
    """The one (exponents over zeta_order, coefficients) layer of `seq`,
    exponents at `order` (a multiple of the sequence's own order)."""
    exps, coeffs = layers(seq.array, order)
    assert len(coeffs) == 1
    return exps, coeffs


def layer_pairs(a, b, order):
    """The layer-pair route: the fitted scatter of `_products`, read back."""
    return (order,) + layers(_fit(_scatter(_products(a, b, order), order)), order)


def same(x, y):
    assert (x.dtype, x.shape) == (y.dtype, y.shape)
    if x.dtype == object:
        assert x.tolist() == y.tolist()
    else:
        assert x.tobytes() == y.tobytes()


# (a, b, order): operands without zero entries, so that the read-back
# layers put every exponent where the direct product does
OPERANDS = {
    # peak products at the `fitted` edge: 2^31 - 1 stays int64, 2^31 does not
    "peak 2^31 - 1": (Sequence([1, -1, 1]), Sequence([INT64_COEFF_BOUND - 1, 1, -1]), 1),
    "peak 2^31": (Sequence([2, -2, 1]), Sequence([INT64_COEFF_BOUND // 2, 1, -1]), 1),
    # coefficients past INT64_COEFF_BOUND: Python ints
    "python ints": (Sequence([2 ** 40, -1, 2 ** 70]), Sequence([1, 2 ** 33, -1]), 1),
    "at the bound": (Sequence([INT64_COEFF_BOUND, 1]), Sequence([1, 1]), 1),
    # orders 1, 3 and 4 meeting at 12
    "orders 1 3": (Sequence([1, -1, 1, 1]), Sequence([CycloNum.root(3, 1), 1, CycloNum.root(3, 2), -ONE]), 12),
    "orders 3 4": (Sequence([CycloNum.root(3, 2), -ONE, 1, 1]), Sequence([I4, -I4, 1, CycloNum.root(4, 3)]), 12),
    "orders 4 4": (Sequence([I4, I4, -1, 1]), Sequence([CycloNum.root(4, 3), I4, 1, -1]), 4),
}


class TestLayerProduct:
    @pytest.mark.parametrize("name", list(OPERANDS))
    def test_equals_the_layer_pair_route(self, name):
        u, v, order = OPERANDS[name]
        a, b = layer(u, order), layer(v, order)
        peaks = layer_peak(a[1]), layer_peak(b[1])
        fitted = None not in peaks and peaks[0] * peaks[1] < INT64_COEFF_BOUND
        want = layer_pairs(a, b, order)
        for got in (layer_product((a[0][0], a[1][0]), (b[0][0], b[1][0]), order, fitted),
                    layered_multiply(a, b, order, fitted)):
            assert got[0] == want[0]
            for x, y in zip(got[1:], want[1:]):
                same(x, y)
        if name.startswith("peak"):
            assert fitted == (name == "peak 2^31 - 1")
            assert want[2].dtype == (np.int64 if fitted else object)

    def test_broadcast_rows(self):
        # a connection's shapes: (blocks, width) members by one entry per block
        u = Sequence([1, I4, -1, CycloNum.root(4, 3), 1, -1])
        v = Sequence([-I4, 1])
        a, b = layer(u, 4), layer(v, 4)
        members = tuple(x.reshape(1, 2, 3) for x in a)
        block = tuple(x.reshape(1, 2, 1) for x in b)
        got = layer_product((members[0][0], members[1][0]), (block[0][0], block[1][0]), 4)
        want = layer_pairs(members, block, 4)
        for x, y in zip(got[1:], want[1:]):
            same(x, y)

    @pytest.mark.parametrize("u, v, dtype", [
        (Sequence([I4, 0, -1, 0]), Sequence([I4, I4, 0, 1]), np.int64),
        # Python ints whose products all fit int64 again: refitted
        (Sequence([2 ** 40, 1, -I4]), Sequence([0, 1, I4]), np.int64),
        (Sequence([2 ** 40, 1, -I4]), Sequence([1, 0, I4]), object),
    ], ids=["int64", "refit", "python ints"])
    def test_zero_entries_scatter_alike(self, u, v, dtype):
        # a zero coefficient keeps its summed exponent, where the read-back
        # layers put exponent 0: the scattered arrays are the same
        a, b = layer(u, 4), layer(v, 4)
        got = layer_product((a[0][0], a[1][0]), (b[0][0], b[1][0]), 4)
        assert got[2].dtype == dtype
        same(_scatter(zip(got[1], got[2]), 4), _fit(_scatter(_products(a, b, 4), 4)))

    def test_approx_takes_the_layer_pair_route(self):
        # signed zeros and infinities: zero handling stays in `_products`
        a = layer(Sequence([1.0, -0.0, float("inf"), complex(0.0, -0.0)]), 1)
        b = layer(Sequence([float("-inf"), 2.0, 0.0, -1.0]), 1)
        with np.errstate(all="ignore"):
            got, want = layered_multiply(a, b, 1), layer_pairs(a, b, 1)
        for x, y in zip(got[1:], want[1:]):
            same(x, y)
        # a zero factor gives +0, never 0 * inf
        zeros = got[2][0, 1:]
        assert (zeros == 0).all() and not np.signbit(zeros.real).any()
        assert not np.signbit(zeros.imag).any()

    def test_mode_mismatch_is_refused(self):
        a, b = layer(Sequence([1, -1]), 1), layer(Sequence([1.0, -1.0]), 1)
        with pytest.raises(ModeMismatchError, match="cannot multiply exact with approx"):
            layered_multiply(a, b, 1)


def constructed_families():
    """(label, family) of every family the constructor wraps unchecked."""
    h2, d2 = hadamard_matrix(2), dft_matrix(2)
    multi = custom_matrix([[ONE + I4, ONE], [-ONE, ONE + CycloNum.root(4, 3)]])
    big = custom_matrix([[2 ** 40, 2 ** 40], [2 ** 40, -(2 ** 40)]])
    approx = custom_matrix([[1.0, 1.0], [1.0, -1.0]])
    for n in range(2, 9):
        for targets in ([n * n], [n ** 3], [2 * n, 4 * n]):
            try:
                recipe = plan(n, targets)
            except ValueError:  # leading cells past n
                continue
            fam = execute(recipe, verify=False).family
            yield f"execute {n} {targets}", fam
            subs = [spec.build() for spec in recipe.cell_matrices]
            yield f"gen {n} {targets}", generate_cosf(recipe.base_matrix.build(), recipe.cells, subs)
            ccc = cosf_to_ccc(fam, dft_matrix(n))
            yield f"ccc {n} {targets}", ccc
            if targets == [n * n]:
                yield f"enlarge {n}", enlarge_ccc(ccc, [h2 if m % 2 else d2 for m in range(n)])
                yield f"kron {n}", SequenceFamily([kron_expand(v, ccc[0]) for v in h2.rows()])
    fam2 = execute(plan(2, [8]), verify=False).family
    for u in (multi, big):
        ccc = cosf_to_ccc(fam2, u)
        yield f"ccc {u!r}", ccc
        yield f"enlarge {u!r}", enlarge_ccc(ccc, [u, h2])
        yield f"gen {u!r}", generate_cosf(u, [[0, 1]], [u])
    ccc = ccc_from_unitary(approx)
    yield "approx ccc", ccc
    yield "approx enlarge", enlarge_ccc(ccc, [approx] * 2)
    yield "approx gen", generate_cosf(approx, [[0, 1]], [approx])


class TestUncheckedFamilies:
    def test_equal_the_checked_families(self):
        count = 0
        for label, fam in constructed_families():
            checked = SequenceFamily(SequenceSet(ss.sequences) for ss in fam)
            assert type(fam.sets) is tuple, label
            assert all(type(ss) is SequenceSet and type(ss.sequences) is tuple for ss in fam), label
            assert [list(map(id, ss)) for ss in fam] == [list(map(id, ss)) for ss in checked], label
            assert (fam.family_size, fam.set_size, fam.length_set, fam.mode) == (
                checked.family_size, checked.set_size, checked.length_set, checked.mode), label
            assert [(ss.length, ss.mode) for ss in fam] == [(ss.length, ss.mode) for ss in checked]
            count += 1
        assert count == 74

    @pytest.mark.parametrize("make, error, message", [
        (lambda: SequenceSet([Sequence([1]), Sequence([1, 1])]),
         ValueError, "member lengths differ: [1, 2]"),
        (lambda: SequenceSet([Sequence([1]), Sequence([1.0])]),
         ModeMismatchError, "sequence set mixes exact and approx sequences"),
        (lambda: SequenceSet([]), ValueError, "a sequence set needs at least one sequence"),
        (lambda: SequenceFamily([SequenceSet([Sequence([1])]),
                                 SequenceSet([Sequence([1]), Sequence([1])])]),
         ValueError, "set sizes differ: [1, 2]"),
        (lambda: SequenceFamily([SequenceSet([Sequence([1])]), SequenceSet([Sequence([1.0])])]),
         ModeMismatchError, "family mixes exact and approx sets"),
        (lambda: SequenceFamily([]), ValueError, "a family needs at least one set"),
    ], ids=["lengths", "set modes", "empty set", "sizes", "family modes", "empty family"])
    def test_public_constructors_keep_their_checks(self, make, error, message):
        with pytest.raises(error) as err:
            make()
        assert type(err.value) is error and str(err.value) == message

    def test_construction_still_refuses_the_other_mode(self):
        fam = execute(plan(2, [8]), verify=False).family
        approx = custom_matrix([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ModeMismatchError):
            cosf_to_ccc(fam, approx)
        with pytest.raises(ModeMismatchError):
            enlarge_ccc(cosf_to_ccc(fam, dft_matrix(2)), [approx, approx])
        with pytest.raises(ModeMismatchError):
            generate_cosf(hadamard_matrix(2), [[0, 1]], [approx])


class TestCachedRows:
    def test_checks_and_listings_leave_no_row_array(self):
        dft_matrix.cache_clear()
        u = dft_matrix(16)
        ccc = ccc_from_unitary(u)
        entries = u.entries
        assert dft_matrix(16) is u
        assert all(row._array is None for row in u.rows())
        assert ccc.family_size == 16 and len(entries) == 16
        assert [list(row) for row in entries] == [list(row) for row in u.rows()]

    @pytest.mark.parametrize("rows, message", [
        ([[1, 1], [1, 1]], "rows (0, 1): inner product 2+0j breaks U U^H = alpha I (alpha = 2+0j)"),
        ([[1, 1, 1], [1, -1, 1], [1, 1, -1]],
         "rows (0, 1): inner product 1+0j breaks U U^H = alpha I (alpha = 3+0j)"),
        ([[ONE + I4, ONE], [ONE, ONE + CycloNum.root(4, 3)]],
         "rows (0, 1): inner product 2-2j breaks U U^H = alpha I (alpha = 3+0j)"),
        ([[1.0, 1.0], [1.0, -0.5]],
         "rows (1, 1): inner product 1.25+0j breaks U U^H = alpha I (alpha = 2+0j)"),
        ([[2 ** 40, 2 ** 40], [2 ** 40, 2 ** 40]],
         "rows (0, 1): inner product 2.41785e+24+0j breaks U U^H = alpha I (alpha = 2.41785e+24+0j)"),
        ([[1, 1], [1, -2]], "rows (1, 1): inner product 5+0j breaks U U^H = alpha I (alpha = 2+0j)"),
    ], ids=["rank", "dft3-signs", "multi-term", "approx", "python-ints", "energy"])
    def test_custom_matrix_messages(self, rows, message):
        with pytest.raises(MatrixValidationError) as err:
            custom_matrix(rows)
        assert str(err.value) == message
