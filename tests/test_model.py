"""Sequence/set/family model: energies, mode discipline, and the
identification-up-to-indexing machinery."""

import random
from itertools import permutations

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    canonical_form,
    dft_matrix,
    energy,
    equal_up_to_indexing,
    from_signs,
    set_energy,
    singleton_family,
)
from cocodes.model import (
    CanonicalSearchError,
    ModeMismatchError,
    _canonical_arrangement,
    _family_order,
    _promote,
    concat,
    zero_sequence,
)


class TestSequenceBasics:
    def test_from_signs_roundtrip(self):
        s = from_signs("+-+0")
        assert len(s) == 4
        assert s[0] == CycloNum.from_int(1)
        assert s[3].is_zero()

    def test_mode_mixing_rejected(self):
        with pytest.raises(ModeMismatchError):
            Sequence([CycloNum.from_int(1), 1 + 0j])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequence([])

    def test_set_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            SequenceSet([from_signs("++"), from_signs("+++")])

    def test_family_requires_equal_set_sizes(self):
        a = SequenceSet([from_signs("++")])
        b = SequenceSet([from_signs("++"), from_signs("+-")])
        with pytest.raises(ValueError):
            SequenceFamily([a, b])

    def test_length_set_recomputed(self):
        fam = singleton_family([from_signs("++"), from_signs("+++-")])
        assert fam.length_set == frozenset({2, 4})

    def test_scale_and_neg(self):
        s = from_signs("+-")
        assert -s == from_signs("-+")
        assert s.scale(CycloNum.from_int(0)).is_zero()
        # 1 + zeta_3 + zeta_3^2 vanishes only modulo Phi_3
        vanishing = CycloNum(3, [1, 1, 1])
        assert Sequence([vanishing] * 3).is_zero()
        assert not Sequence([vanishing, CycloNum(3, [1, 1, 2]), vanishing]).is_zero()

    @pytest.mark.parametrize("seq, text", [
        (dft_matrix(4).row(2), "Sequence(+-+-)"),
        (dft_matrix(2).row(1), "Sequence(+-)"),
        # -zeta_2 is +1; 1 + zeta_3 + zeta_3^2 is 0
        (Sequence([CycloNum(2, (0, -1)), 1]), "Sequence(++)"),
        (Sequence([CycloNum(3, (1, 1, 1)), 1]), "Sequence(0+)"),
        (Sequence([0, -1, 1]), "Sequence(0-+)"),
        (Sequence([CycloNum(3, (2 ** 70,) * 3), -1]), "Sequence(0-)"),
        (Sequence([CycloNum(4, (1, 1, 0, 0)), 1]), "Sequence(len=2, mode=exact)"),
        (Sequence([2, 1]), "Sequence(len=2, mode=exact)"),
        (dft_matrix(4).row(1), "Sequence(len=4, mode=exact)"),
        (Sequence([1.0, -1.0]), "Sequence(len=2, mode=approx)"),
    ])
    def test_repr_reads_signs_from_residues(self, seq, text):
        assert repr(seq) == text

    def test_of_array_refuses_approx_arrays_of_several_rows(self):
        with pytest.raises(ValueError, match="one row"):
            Sequence.of_array(np.ones((2, 3)))
        with pytest.raises(ValueError, match="one row"):
            Sequence.of_array(np.ones((3, 3), complex))
        assert list(Sequence.of_array(np.ones((1, 3), complex))) == [1, 1, 1]
        # an exact array of several rows is one sequence of that order
        assert Sequence.of_array(np.ones((2, 3), np.int64)).order == 2


class TestEnergy:
    def test_plus_plus_plus_minus(self):
        assert energy(from_signs("+++-")) == CycloNum.from_int(4)

    def test_zero_sequence(self):
        assert energy(zero_sequence(4)).is_zero()

    def test_unimodular_polyphase(self):
        z = CycloNum.root(3, 1)
        s = Sequence([CycloNum.from_int(1), z, z * z])
        assert energy(s) == CycloNum.from_int(3)

    def test_set_energy_sums(self, golden_cs_pair):
        assert set_energy(golden_cs_pair) == CycloNum.from_int(8)
        two = SequenceSet([from_signs("++"), from_signs("+-")])
        assert set_energy(two) == CycloNum.from_int(4)
        zeros = SequenceSet([zero_sequence(3), zero_sequence(3)])
        assert set_energy(zeros).is_zero()

    def test_energy_invariant_under_permutation_and_conj(self):
        rng = random.Random(3)
        for _ in range(30):
            k = rng.choice([2, 3, 4, 6])
            entries = [CycloNum(k, [rng.randint(-2, 2) for _ in range(k)])
                       for _ in range(rng.randint(1, 6))]
            s = Sequence(entries)
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert energy(s) == energy(Sequence(shuffled))
            assert energy(s) == energy(s.conj())

    def test_approx_energy(self):
        s = Sequence([1 + 0j, 0 + 1j])
        assert abs(energy(s) - 2) < 1e-12


def _matrix_family(rows):
    return SequenceFamily(SequenceSet(row) for row in rows)


class TestIdentification:
    def setup_method(self):
        self.s00 = from_signs("+++-")
        self.s01 = from_signs("+-++")
        self.s10 = from_signs("++-+")
        self.s11 = from_signs("+---")

    def test_identified_variants(self):
        base = _matrix_family([[self.s00, self.s01], [self.s10, self.s11]])
        col_swap = _matrix_family([[self.s01, self.s00], [self.s11, self.s10]])
        row_swap = _matrix_family([[self.s10, self.s11], [self.s00, self.s01]])
        assert equal_up_to_indexing(base, col_swap)
        assert equal_up_to_indexing(base, row_swap)

    def test_single_row_swap_differs(self):
        base = _matrix_family([[self.s00, self.s01], [self.s10, self.s11]])
        twisted = _matrix_family([[self.s00, self.s01], [self.s11, self.s10]])
        assert not equal_up_to_indexing(base, twisted)

    def test_reflexive(self, golden_ccc_2x2):
        assert equal_up_to_indexing(golden_ccc_2x2, golden_ccc_2x2)

    def test_trivial_family_is_its_own_form(self):
        fam = singleton_family([from_signs("+-")])
        out = canonical_form(fam)
        assert out[0][0] == fam[0][0]

    def test_canonical_idempotent(self, golden_ccc_2x2):
        c1 = canonical_form(golden_ccc_2x2)
        c2 = canonical_form(c1)
        for a, b in zip(c1, c2):
            assert list(a) == list(b)

    def test_random_shuffles_are_equal(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.randint(1, 3)
            n = rng.randint(1, 4)
            length = rng.randint(1, 3)
            rows = [
                [Sequence([CycloNum.root(4, rng.randrange(4))
                           for _ in range(length)]) for _ in range(n)]
                for _ in range(m)
            ]
            fam = _matrix_family(rows)
            cols = list(range(n))
            rng.shuffle(cols)
            order = list(range(m))
            rng.shuffle(order)
            shuffled = _matrix_family(
                [[rows[i][c] for c in cols] for i in order])
            assert equal_up_to_indexing(fam, shuffled)

    def test_equivalence_relation(self):
        rng = random.Random(13)
        fams = []
        for _ in range(6):
            rows = [[Sequence([CycloNum.from_int(rng.choice([-1, 1]))
                               for _ in range(2)]) for _ in range(2)]
                    for _ in range(2)]
            fams.append(_matrix_family(rows))
        for f in fams:
            assert equal_up_to_indexing(f, f)
        for f1 in fams:
            for f2 in fams:
                assert equal_up_to_indexing(f1, f2) == equal_up_to_indexing(f2, f1)
        for f1 in fams:
            for f2 in fams:
                for f3 in fams:
                    if equal_up_to_indexing(f1, f2) and equal_up_to_indexing(f2, f3):
                        assert equal_up_to_indexing(f1, f3)

    def test_search_guard(self):
        big = _matrix_family([[from_signs("+") for _ in range(9)]])
        with pytest.raises(CanonicalSearchError):
            canonical_form(big)

    def test_cross_order_value_equality(self):
        # z6^2 and z3 are the same scalar through different orders
        a = singleton_family([Sequence([CycloNum.root(6, 2)])])
        b = singleton_family([Sequence([CycloNum.root(3, 1)])])
        assert equal_up_to_indexing(a, b)


def _reference_arrangement(fam, order):
    """The canonical search on whole keys, each entry reduced on its own
    (`CycloNum.reduced`)."""
    def key(s):
        if s.mode == "exact":
            cols = zip(*_promote(s.array, order).tolist())
            return (len(s),) + tuple(CycloNum(order, c).reduced() for c in cols)
        return (len(s),) + tuple((x.real, x.imag) for x in s.array[0].tolist())

    keys = [[key(s) for s in ss] for ss in fam]
    best = None
    for cols in permutations(range(fam.set_size)):
        rows = sorted(range(len(keys)), key=lambda m: tuple(keys[m][c] for c in cols))
        candidate = tuple(tuple(keys[m][c] for c in cols) for m in rows)
        if best is None or candidate < best[0]:
            best = (candidate, rows, cols)
    return best


class TestCanonicalSearchOnRanks:
    """The search on key ranks picks the arrangement the search on whole
    keys picks, ties included."""

    # a small pool, so keys tie across sets and inside a set; the two
    # zero rows of order 4 are the same value written two ways, so they
    # tie on their key but not on their array
    POOL = [
        [CycloNum.root(4, 0), CycloNum.root(4, 2)],
        [CycloNum.root(4, 2), CycloNum.root(4, 0)],
        [CycloNum(4, [1, 0, 1, 0]), CycloNum.zero(4)],
        [CycloNum.zero(4), CycloNum.zero(4)],
        [CycloNum.root(4, 1), CycloNum.root(2, 1)],
        [CycloNum(6, [2 ** 70, 0, 0, -1, 0, 0]), CycloNum.root(3, 1)],
    ]

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_matches_reference_with_ties(self, mode):
        rng = random.Random(5)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.choice(self.POOL) for _ in range(n)] for _ in range(m)]
            if mode == "approx":
                rows = [[[complex(round(x.numeric().real), round(x.numeric().imag))
                          for x in seq] for seq in row] for row in rows]
            fam = _matrix_family([[Sequence(seq) for seq in row] for row in rows])
            order = _family_order(fam)
            got = _canonical_arrangement(fam, order)
            want = _reference_arrangement(fam, order)
            assert (got[0], list(got[1]), tuple(got[2])) == \
                (want[0], list(want[1]), tuple(want[2]))
            out = canonical_form(fam)
            for ss, m_ in zip(out, want[1]):
                assert [s.array.tolist() for s in ss] == \
                    [fam[m_][c].array.tolist() for c in want[2]]


class TestConcat:
    def test_concat_lengths(self):
        s = concat([from_signs("++"), from_signs("-")])
        assert s == from_signs("++-")

    def test_modes_enforced(self):
        with pytest.raises(ModeMismatchError):
            concat([from_signs("+"), Sequence([1 + 0j])])
