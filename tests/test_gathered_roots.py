"""The kernel's layered read against a dense oracle built from
`Sequence.array`: every sequence laid out as a (R, sets, members, width)
stack of its folded coefficient rows, as the kernel's dense route laid it
out, and evaluated at each root by one product over the rows.  The
gathered root values, the energy, the bit and nonzero counts and the limb
split must equal the oracle's; and a Sequence built from scalars (which
holds its layers) must equal its twin built from the dense array."""

import math
from functools import reduce

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    cosf_to_ccc,
    custom_matrix,
    dft_matrix,
    enlarge_ccc,
    execute,
    from_signs,
    generate_cosf,
    hadamard_matrix,
    is_ccc,
    is_n_co_sf,
    plan,
    singleton_family,
    zccc_zone,
)
from cocodes import corr
from cocodes.cyclo import common_order, zero_rows

ONE, I4 = CycloNum.from_int(1), CycloNum.root(4, 1)
# the CI chain's multi-term matrix: m m^H = 3 I with entries 1 + zeta_4 and 1 + zeta_4^3
MULTI_TERM = custom_matrix([[ONE + I4, ONE], [-ONE, ONE + CycloNum.root(4, 3)]])


def planned_ccc(n, length):
    return cosf_to_ccc(execute(plan(n, [length]), verify=False).family, dft_matrix(n))


def near(fam):
    """`fam` with the first entry of its first sequence negated."""
    entries = list(fam[0][0])
    entries[0] = -entries[0]
    return SequenceFamily([SequenceSet([Sequence(entries)] + list(fam[0])[1:])] + list(fam)[1:])


def scaled_hadamard(dim, scale):
    h = hadamard_matrix(dim)
    return custom_matrix([[x.coeffs[0] * scale for x in row] for row in h.entries])


def multi_term_ccc():
    """The CI chain's family: a 2-CO-SF of length 8 mapped by the 1 + zeta_4
    matrix and enlarged by it and H2; its members' terms meet after folding
    (zeta_4 and zeta_4^3 at one row)."""
    ccc = cosf_to_ccc(execute(plan(2, [8]), verify=False).family, MULTI_TERM)
    return enlarge_ccc(ccc, [MULTI_TERM, hadamard_matrix(2)])


def approx(fam):
    return SequenceFamily(SequenceSet(Sequence([x.numeric() for x in s]) for s in ss)
                          for ss in fam)


# name: (family, phases) of each kernel call compared
CASES = {
    "3x3 L=81": (lambda: planned_ccc(3, 81), 1),
    "4x4 L=256": (lambda: planned_ccc(4, 256), 1),
    "5x5 L=125": (lambda: planned_ccc(5, 125), 1),
    "6x6 L=216": (lambda: planned_ccc(6, 216), 1),
    "7x7 L=98": (lambda: planned_ccc(7, 98), 1),
    "12x12 L=144": (lambda: planned_ccc(12, 144), 1),
    "12x12 L=216": (lambda: enlarge_ccc(planned_ccc(6, 216), [hadamard_matrix(2)] * 6), 1),
    "12x12 L=216 near-miss": (
        lambda: near(enlarge_ccc(planned_ccc(6, 216), [hadamard_matrix(2)] * 6)), 1),
    "multi-term": (multi_term_ccc, 1),
    "2^64": (lambda: generate_cosf(scaled_hadamard(2, 2 ** 32), [[0, 1]],
                                   [scaled_hadamard(2, 2 ** 32)]), 2),
    "2^40": (lambda: generate_cosf(scaled_hadamard(4, 2 ** 20), [[0, 1, 2, 3]],
                                   [scaled_hadamard(4, 2 ** 20)]), 4),
    "approx 4x4": (lambda: approx(planned_ccc(4, 32)), 1),
    "orders 2 and 4": (lambda: singleton_family(
        [from_signs("++-+-"), Sequence([I4, 1, -I4, 1, ONE + I4, 0, 2])]), 1),
    "cosf 8 at 8 phases": (lambda: execute(plan(8, [128]), verify=False).family, 8),
    "n above the lengths": (lambda: execute(plan(3, [9]), verify=False).family, 1000),
}


def dense_stack(kernel, dtype):
    """The oracle: (R, sets, members, width) folded coefficient rows of the
    kernel's sequences, read from their arrays; member n * phases + r is
    component r of sequence n, zero-padded to phases * width entries."""
    n, order, rows = kernel.phases, kernel.order, kernel.rows
    full = (order, kernel.width * n)
    arrays = []
    for ss in kernel.sets:
        for s in ss:
            a = np.zeros(full, s.array.dtype)
            a[::order // len(s.array), :len(s)] = s.array
            arrays.append(a)
    out = np.stack(arrays, axis=1).astype(dtype)
    out = out.reshape(order, len(kernel.sets), -1, kernel.width, n).transpose(0, 1, 2, 4, 3)
    out = out.reshape(order, len(kernel.sets), kernel.members, kernel.width)
    return out[:rows] - out[rows:] if rows < order else out


def oracle_digits(kernel):
    """(limb stack (R, sets, limbs, members, width), b, bits, nonzero,
    energy) as the dense route made them."""
    if not kernel.exact:
        return dense_stack(kernel, complex)[:, :, None], 0, None, None, math.nan
    ints = dense_stack(kernel, object)
    dense = ints.astype(float)
    energy = float(np.einsum("ksml,ksml->s", dense, dense).max())
    size = corr._pow2(2 * kernel.width - 1)
    if corr.rounding_bound(energy, kernel.rows, kernel.members, size) < 0.5:
        return dense[:, :, None], 0, None, None, energy
    mags = np.abs(ints)
    bits = int(mags.max()).bit_length()
    nonzero = int(np.count_nonzero(ints, axis=(0, 2, 3)).max())
    stack = bits, nonzero, kernel.rows, kernel.members, size
    b = next(b for b in range(52, 0, -1) if corr._limb_bound(b, *stack) < 0.5)
    digits = np.stack([(mags >> i) & ((1 << b) - 1) for i in range(0, bits, b)], axis=2)
    signs = np.where(ints < 0, -1.0, 1.0)[:, :, None]
    return digits.astype(float) * signs, b, bits, nonzero, energy


def oracle_values(stack, root):
    """Each member's values at a root: one product over the folded rows."""
    if root is None:
        return stack[0]
    flat = stack.reshape(len(stack), -1)
    rows = len(stack)
    x = np.empty(flat.shape[1], complex)
    np.matmul(root.real[:rows], flat, out=x.real)
    np.matmul(root.imag[:rows], flat, out=x.imag)
    return x.reshape(stack.shape[1:])


def single_layer(kernel):
    return all(len(s._terms[2]) == 1 for ss in kernel.sets for s in ss)


@pytest.mark.parametrize("name", list(CASES))
class TestGatheredRoots:
    def kernel(self, name):
        build, phases = CASES[name]
        return corr._Kernel(list(build()), phases=phases)

    def test_digits_equal_the_dense_route(self, name):
        kernel = self.kernel(name)
        (exps, coeffs), b, bound, dtype, energy = kernel._digits()
        want, want_b, bits, nonzero, want_energy = oracle_digits(kernel)
        assert coeffs.shape[1:] == want.shape[1:] and b == want_b
        assert energy == want_energy if kernel.exact else math.isnan(energy)
        if b:
            size = corr._pow2(2 * kernel.width - 1)
            assert bound == corr._limb_bound(b, bits, nonzero, kernel.rows, kernel.members, size)
        if name in ("2^40", "2^64"):
            assert b > 0  # the limb split is compared
        # the folded coefficients: the layers scattered into their rows
        if kernel.rows > 1:
            folded = np.zeros((kernel.rows,) + coeffs.shape[1:])
            for e, c in zip(np.broadcast_to(exps, coeffs.shape), coeffs):
                np.add.at(folded, (e % kernel.rows,) + tuple(np.indices(c.shape)),
                          np.where(e < kernel.rows, c, -c))
            assert np.array_equal(folded, want)

    def test_root_values_equal_the_dense_route(self, name):
        kernel = self.kernel(name)
        (exps, coeffs), *_ = kernel._digits()
        want = oracle_digits(kernel)[0]
        size = corr._pow2(2 * kernel.width - 1)
        _, mu, _ = corr._spectrum_error(kernel.rows, size)
        # every exponent row's magnitudes, for the bound of step (a)
        weight = np.abs(want).sum(axis=0)
        for root, _ in corr._roots(kernel.order, kernel.rows):
            _, got = corr._root_spectra((exps, coeffs), root, size)
            expected = oracle_values(want, root)
            if root is None or single_layer(kernel):
                assert np.array_equal(got, expected)
            else:  # both within mu sum_j |a[j, l]| of the exact value
                assert (np.abs(got - expected) <= 2 * mu * weight).all()

    def test_checks_read_no_held_array(self, name):
        build, phases = CASES[name]
        fam = build()
        held = [s for ss in fam for s in ss if s._array is None]
        if phases == 1:
            is_ccc(fam).render()
        else:
            is_n_co_sf(fam, phases).render()
        assert all(s._array is None for s in held)


def test_the_dense_route_is_gone():
    assert not hasattr(corr._Kernel, "_dense")


@pytest.mark.parametrize("name", ["12x12 L=216", "12x12 L=216 near-miss", "multi-term",
                                  "7x7 L=98", "orders 2 and 4"])
def test_zeros_reduce_only_nonzero_rows(name):
    build, _ = CASES[name]
    fam = build()
    kernel = corr._Kernel(list(fam))
    count = fam.family_size
    acc = kernel.sums([(m, mp) for m in range(count) for mp in range(count)], rotate=True)
    flat = acc.reshape(-1, kernel.rows)
    assert (flat == 0).all(axis=1).any()  # the pass skips rows
    want = zero_rows(flat, kernel.order).reshape(acc.shape[:2])
    assert np.array_equal(kernel.zeros(acc), want)


def test_zone_of_the_multi_term_family():
    fam = multi_term_ccc()
    assert zccc_zone(fam) == zccc_zone(SequenceFamily(
        SequenceSet(Sequence.of_array(s.array.copy()) for s in ss) for ss in fam))


# -- Sequence(entries) and its dense twin --------------------------------------

def dense_twin(entries):
    """`Sequence.of_array` of the array the entries fill, column by column."""
    order = reduce(common_order, {x.order for x in entries}, 1)
    try:
        array = np.zeros((order, len(entries)), np.int64)
        for pos, x in enumerate(entries):
            array[::order // x.order, pos] = x.coeffs
    except OverflowError:
        array = np.zeros((order, len(entries)), object)
        for pos, x in enumerate(entries):
            array[::order // x.order, pos] = x.coeffs
    return Sequence.of_array(array)


TWINS = {
    "signs": [ONE, -ONE, ONE, ONE],
    "zeros": [CycloNum.zero(), CycloNum.zero(4), CycloNum.zero()],
    "roots of orders 1, 3 and 4": [ONE, CycloNum.root(3, 1), I4, -I4, CycloNum.root(3, 2)],
    "multi-term": [ONE + I4, ONE, -ONE, ONE + CycloNum.root(4, 3), CycloNum(6, [1, 0, 2, 0, 0, 3])],
    "2^31": [CycloNum.from_int(2 ** 31), ONE, CycloNum.from_int(-(2 ** 31) + 1)],
    "2^63": [CycloNum.from_int(2 ** 63), I4, -ONE],
    "2^64 multi-term": [CycloNum(4, [2 ** 64, 0, 1, 0]), CycloNum(4, [0, -(2 ** 64), 0, 0])],
    "one entry": [CycloNum.root(8, 5)],
    "repeats": [CycloNum.root(6, k % 6) * CycloNum.from_int(1 - 2 * (k % 2)) for k in range(50)],
}


@pytest.mark.parametrize("name", list(TWINS))
def test_sequence_of_scalars_equals_its_dense_twin(name):
    entries = TWINS[name]
    s, twin = Sequence(entries), dense_twin(entries)
    assert s._array is None
    assert (s.order, s.mode, len(s)) == (twin.order, twin.mode, len(twin))
    assert s == twin and twin == s
    assert repr(s) == repr(twin)
    assert s._array is not None  # == read it
    assert (s.array.dtype, s.array.shape) == (twin.array.dtype, twin.array.shape)
    assert s.array.tolist() == twin.array.tolist()
    assert list(s) == list(twin)
    assert [x.coeffs for x in s] == [x.coeffs for x in twin]
    order, exps, coeffs = s._terms
    want = corr.layers(twin.array, twin.order)
    assert order == twin.order
    assert exps.tolist() == want[0].tolist() and coeffs.tolist() == want[1].tolist()
    assert coeffs.dtype == want[1].dtype
