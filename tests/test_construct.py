"""Construction operators: connection, expansion, entrywise products,
generation, elongation, CCC mapping, and enlargement."""

import cmath
import random
from functools import reduce
from operator import add

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    ccc_from_unitary,
    connect,
    cosf_to_ccc,
    custom_matrix,
    dft_matrix,
    dyadic_sum,
    elongate_cosf,
    energy,
    enlarge_ccc,
    entrywise,
    equal_up_to_indexing,
    from_signs,
    generate_cosf,
    hadamard_matrix,
    identity_matrix,
    is_ccc,
    is_n_co_sf,
    kron_expand,
    singleton_family,
)
from cocodes import construct
from cocodes.construct import ConstructionError, trivial_cosf
from cocodes.planner import constructible, execute, plan
from cocodes.corr import DEFAULT_TOL
from cocodes.cyclo import INT64_COEFF_BOUND
from cocodes.model import cell_terms, concat, terms_of, unequal_energies

ONE = CycloNum.from_int(1)
W3 = CycloNum.root(3, 1)


class TestConnect:
    def test_plus_plus(self):
        a = SequenceSet([from_signs("++"), from_signs("+-")])
        assert connect(from_signs("++"), a) == from_signs("+++-")

    def test_plus_minus(self):
        a = SequenceSet([from_signs("++"), from_signs("+-")])
        assert connect(from_signs("+-"), a) == from_signs("++-+")

    def test_lcm_repetition(self):
        s, t = from_signs("+-"), from_signs("--")
        a = SequenceSet([s, t])
        out = connect(from_signs("+++-"), a)
        assert out == concat([s, t, s, -t])
        assert len(out) == 8

    def test_coprime_sizes(self):
        a = SequenceSet([from_signs("+"), from_signs("-"), from_signs("+")])
        out = connect(from_signs("++"), a)  # lcm(3, 2) = 6
        assert len(out) == 6

    def test_energy_bookkeeping(self):
        rng = random.Random(23)
        for _ in range(20):
            m = rng.randint(1, 3)
            nv = rng.randint(1, 4)
            length = rng.randint(1, 3)
            cell = SequenceSet([
                Sequence([CycloNum.root(4, rng.randrange(4))
                          for _ in range(length)]) for _ in range(m)])
            v = Sequence([CycloNum.root(4, rng.randrange(4))
                          for _ in range(nv)])
            out = connect(v, cell)
            k = len(out) // length
            expect = CycloNum.zero()
            for i in range(k):
                vi = v[i % nv]
                expect = expect + vi * vi.conj() * energy(cell[i % m])
            assert energy(out) == expect


class TestKronExpand:
    def test_identity_row_makes_zero_blocks(self):
        c = SequenceSet([from_signs("+-"), from_signs("++")])
        out = kron_expand(from_signs("+0"), c)
        assert list(out) == [c[0], from_signs("00"), c[1], from_signs("00")]

    def test_sign_pattern(self):
        c = SequenceSet([from_signs("+-"), from_signs("++")])
        out = kron_expand(from_signs("+-"), c)
        assert list(out) == [c[0], -c[0], c[1], -c[1]]

    def test_single_entry_is_identity(self):
        c = SequenceSet([from_signs("+-"), from_signs("++")])
        assert list(kron_expand(from_signs("+"), c)) == list(c)


class TestEntrywise:
    def test_hadamard_rows_multiply_by_xor(self):
        h4 = hadamard_matrix(4)
        assert entrywise(h4.row(1), h4.row(2)) == h4.row(3)

    def test_all_ones_is_identity(self):
        u = from_signs("+-+")
        assert entrywise(u, from_signs("+++")) == u

    def test_dft_rows_add_exponents(self):
        f3 = dft_matrix(3)
        assert entrywise(f3.row(1), f3.row(2)) == f3.row(0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            entrywise(from_signs("++"), from_signs("+"))


class TestDyadic:
    def test_basic(self):
        assert dyadic_sum(1, 3) == 2
        assert dyadic_sum(5, 0) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dyadic_sum(-1, 2)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_hadamard_row_products(self, n):
        h = hadamard_matrix(n)
        for a in range(n):
            for b in range(n):
                assert entrywise(h.row(a), h.row(b)) == h.row(dyadic_sum(a, b))


class TestGenerate:
    def test_single_cell_h2(self, cosf_2_of_4):
        assert [ss[0] for ss in cosf_2_of_4] == [from_signs("+++-"),
                                                 from_signs("++-+")]
        assert is_n_co_sf(cosf_2_of_4, 2).ok

    def test_mixed_cells_f6(self, cosf_6_mixed):
        f6 = dft_matrix(6)
        f = [f6.row(m) for m in range(6)]
        signs_h2 = [[1, 1], [1, -1]]
        signs_h4 = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                    [1, -1, -1, 1]]
        expected = []
        for row in signs_h2:
            expected.append(concat(
                [f[i].scale(CycloNum.from_int(c)) for i, c in zip((0, 1), row)]))
        for row in signs_h4:
            expected.append(concat(
                [f[i].scale(CycloNum.from_int(c))
                 for i, c in zip((2, 3, 4, 5), row)]))
        assert [ss[0] for ss in cosf_6_mixed] == expected
        assert sorted(cosf_6_mixed.length_set) == [12, 24]

    def test_trivial_partition_reproduces_matrix(self):
        f3 = dft_matrix(3)
        fam = generate_cosf(f3, [[0], [1], [2]],
                            [identity_matrix(1)] * 3)
        assert [ss[0] for ss in fam] == f3.rows()
        assert fam.length_set == frozenset({3})

    def test_partition_validation(self):
        h2 = hadamard_matrix(2)
        with pytest.raises(ConstructionError):
            generate_cosf(h2, [[0]], [identity_matrix(1)])  # misses row 1
        with pytest.raises(ConstructionError):
            generate_cosf(h2, [[0, 0]], [hadamard_matrix(2)])
        with pytest.raises(ConstructionError):
            generate_cosf(h2, [[0, 1]], [hadamard_matrix(4)])  # dim mismatch
        with pytest.raises(ConstructionError, match="1 cells but 2 sub-matrices"):
            generate_cosf(h2, [[0, 1]], [h2, h2])
        with pytest.raises(ConstructionError, match="partition cell 1 is empty"):
            generate_cosf(h2, [[0, 1], []], [h2, identity_matrix(1)])


class TestElongate:
    def elongation_inputs(self, cosf_6_mixed):
        h2 = hadamard_matrix(2)
        v_rows = h2.rows_family()
        v_ex3 = generate_cosf(h2, [[0, 1]], [h2])
        part2 = {0: [[0, 1]], 1: [[0, 1], [2, 3]]}
        subs = {(0, 0): v_rows, (1, 0): v_rows, (1, 1): v_ex3}
        return part2, subs

    def test_input_validation(self, cosf_2_of_4):
        h2 = hadamard_matrix(2)
        pairs = SequenceFamily([SequenceSet([from_signs("++"), from_signs("+-")])])
        with pytest.raises(ConstructionError,
                           match="expected a family of single-sequence sets"):
            elongate_cosf(pairs, {0: [[0]]}, {(0, 0): h2})
        with pytest.raises(ConstructionError, match=r"no sub-family for cell \(0,0\)"):
            elongate_cosf(cosf_2_of_4, {0: [[0, 1]]}, {})

    def test_reference_elongation(self, cosf_6_mixed):
        part2, subs = self.elongation_inputs(cosf_6_mixed)
        out = elongate_cosf(cosf_6_mixed, part2, subs)
        s = [ss[0] for ss in cosf_6_mixed]
        expected = [
            concat([s[0], s[1]]),
            concat([s[0], -s[1]]),
            concat([s[2], s[3]]),
            concat([s[2], -s[3]]),
            concat([s[4], s[5], s[4], -s[5]]),
            concat([s[4], s[5], -s[4], s[5]]),
        ]
        assert [ss[0] for ss in out] == expected
        assert sorted(out.length_set) == [24, 48, 96]
        assert is_n_co_sf(out, 6).ok

    def test_reference_variant(self, cosf_6_mixed):
        s = [ss[0] for ss in cosf_6_mixed]
        v_rows = hadamard_matrix(2).rows_family()
        v1 = trivial_cosf()
        v3 = singleton_family([
            Sequence([W3, ONE, ONE]),
            Sequence([ONE, W3, ONE]),
            Sequence([ONE, ONE, W3]),
        ])
        out = elongate_cosf(
            cosf_6_mixed,
            {0: [[0, 1]], 1: [[0], [1, 2, 3]]},
            {(0, 0): v_rows, (1, 0): v1, (1, 1): v3})
        expected = [
            concat([s[0], s[1]]),
            concat([s[0], -s[1]]),
            s[2],
            concat([s[3].scale(W3), s[4], s[5]]),
            concat([s[3], s[4].scale(W3), s[5]]),
            concat([s[3], s[4], s[5].scale(W3)]),
        ]
        assert [ss[0] for ss in out] == expected
        assert sorted(out.length_set) == [24, 72]
        assert is_n_co_sf(out, 6).ok

    def test_identity_elongation(self, cosf_2_of_4):
        out = elongate_cosf(cosf_2_of_4, {0: [[0], [1]]},
                            {(0, 0): trivial_cosf(), (0, 1): trivial_cosf()})
        assert [ss[0] for ss in out] == [ss[0] for ss in cosf_2_of_4]

    def test_energy_condition_names_cell(self):
        fam = singleton_family([from_signs("++"), from_signs("+0")])
        with pytest.raises(ConstructionError) as err:
            elongate_cosf(fam, {0: [[0, 1]]},
                          {(0, 0): hadamard_matrix(2).rows_family()})
        assert "(0,0)" in str(err.value)

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_energy_mismatch_rejected_in_both_modes(self, mode):
        h2 = [[1, 1], [1, -1]] if mode == "exact" else [[1.0, 1.0], [1.0, -1.0]]
        u = custom_matrix(h2)
        fam = singleton_family([u.row(0), u.row(0).scale(u.alpha)])
        with pytest.raises(ConstructionError, match="mixes energies"):
            elongate_cosf(fam, {0: [[0, 1]]}, {(0, 0): u.rows_family()})

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 10, 12])
    def test_approx_energies_equal_up_to_rounding(self, n):
        # the rows of an approx DFT give member energies that differ in
        # their last bits; the cell is still one of equal energies
        u = custom_matrix([[cmath.exp(-2j * cmath.pi * m * k / n)
                            for k in range(n)] for m in range(n)])
        fam = generate_cosf(u, [list(range(n))], [u])
        out = elongate_cosf(fam, {0: [list(range(n))]},
                            {(0, 0): u.rows_family()})
        assert out.mode == "approx" and out.length_set == {n ** 3}
        assert is_n_co_sf(out, n).ok

    def test_sub_size_mismatch(self, cosf_2_of_4):
        with pytest.raises(ConstructionError):
            elongate_cosf(cosf_2_of_4, {0: [[0, 1]]},
                          {(0, 0): trivial_cosf()})

    def test_sub_must_be_cross_orthogonal(self, cosf_2_of_4):
        bad = singleton_family([from_signs("++"), from_signs("++")])
        with pytest.raises(ConstructionError):
            elongate_cosf(cosf_2_of_4, {0: [[0, 1]]}, {(0, 0): bad})

    def test_partition_must_cover_groups(self, cosf_6_mixed):
        with pytest.raises(ConstructionError):
            elongate_cosf(cosf_6_mixed, {0: [[0, 1]]}, {})


class TestSingletonCells:
    """A one-member cell whose sub is the 1x1 matrix (1), the executor's
    implicit singleton cell, gives its member itself: equal in values
    and dtype to what connecting with (1) gives."""

    @pytest.mark.parametrize("member", [
        Sequence([1, -1, CycloNum.root(4, 1)]),       # int64, single-term
        Sequence([1, 0, -1]),                         # a zero column
        Sequence([CycloNum(3, [1, 1, 0]), 1]),        # two terms in a column
        Sequence([2 ** 40, -1, 3]),                   # Python ints
        Sequence([1.0, -0.5j, 0.0]),                  # approx
    ], ids=["single-term", "zero-column", "two-terms", "object", "approx"])
    def test_member_passes_through(self, member):
        unit = 1.0 + 0j if member.mode == "approx" else 1
        one = custom_matrix([[unit]])
        out = elongate_cosf(singleton_family([member]), {0: [[0]]}, {(0, 0): one})
        assert out[0][0] is member
        connected = connect(one.row(0), SequenceSet([member]))
        assert out[0][0].array.dtype == connected.array.dtype
        assert np.array_equal(out[0][0].array, connected.array)

    def test_other_singleton_subs_are_connected(self):
        # (-1) and (1) at order 4 are connected as before
        member = Sequence([1, -1, 1])
        for sub in (custom_matrix([[-1]]), custom_matrix([[CycloNum(4, [1, 0, 0, 0])]])):
            out = elongate_cosf(singleton_family([member]), {0: [[0]]}, {(0, 0): sub})
            assert out[0][0] is not member
            want = connect(sub.row(0), SequenceSet([member]))
            assert np.array_equal(out[0][0].array, want.array)

    @pytest.mark.parametrize("n, targets", [(7, [56, 1701]), (7, [224, 567]), (5, [720]), (3, [972])])
    def test_executor_output_unchanged(self, monkeypatch, n, targets):
        # the executor's families, with and without the pass-through
        units = []
        is_unit = construct._is_unit
        monkeypatch.setattr(construct, "_is_unit", lambda u: units.append(is_unit(u)) or units[-1])
        fam = execute(plan(n, targets), verify=False).family
        assert any(units)
        monkeypatch.setattr(construct, "_is_unit", lambda u: False)
        connected = execute(plan(n, targets), verify=False).family
        assert [len(ss[0]) for ss in fam] == [len(ss[0]) for ss in connected]
        for got, want in zip(fam, connected):
            assert got[0].array.dtype == want[0].array.dtype
            assert np.array_equal(got[0].array, want[0].array)


class TestMatrixSubFamilies:
    """A unitary-like matrix connected as a cell's sub-family: its rows go
    in unchecked, its size is still checked."""

    def test_rows_connect_like_the_rows_family(self, cosf_6_mixed):
        part2 = {0: [[0, 1]], 1: [[0, 1, 2, 3]]}
        h2, h4 = hadamard_matrix(2), hadamard_matrix(4)
        via_matrices = elongate_cosf(cosf_6_mixed, part2, {(0, 0): h2, (1, 0): h4})
        via_families = elongate_cosf(cosf_6_mixed, part2, {
            (0, 0): h2.rows_family(), (1, 0): h4.rows_family()})
        assert [ss[0].array.tolist() for ss in via_matrices] == \
            [ss[0].array.tolist() for ss in via_families]

    def test_identity_is_the_trivial_family(self, cosf_2_of_4):
        out = elongate_cosf(cosf_2_of_4, {0: [[0], [1]]},
                            {(0, 0): identity_matrix(1), (0, 1): identity_matrix(1)})
        assert [ss[0] for ss in out] == [ss[0] for ss in cosf_2_of_4]

    @pytest.mark.parametrize("dim", [1, 3, 4])
    def test_matrix_of_wrong_dimension_refused(self, cosf_2_of_4, dim):
        with pytest.raises(ConstructionError, match=f"has size {dim}, needs 2"):
            elongate_cosf(cosf_2_of_4, {0: [[0, 1]]}, {(0, 0): dft_matrix(dim)})


class TestBatchedEnergyDecision:
    """elongate_cosf decides "every member has member 0's energy" for a
    cell in one batch; the decision and the member it names must agree
    with per-member `energy`."""

    EXACT_POOL = [ONE, -ONE, W3, CycloNum.root(4, 1), CycloNum.root(5, 2),
                  CycloNum(5, (1, 1, 0, 0, 0)), CycloNum(5, (1, 0, 1, 0, 0)),
                  CycloNum.zero()]
    SCALES = [CycloNum.root(6, 1), CycloNum.root(8, 3), -ONE,  # roots of unity
              CycloNum.from_int(2), ONE + CycloNum.root(4, 1),  # energy x4, x2
              ONE + W3]  # 1 + zeta_3 = -zeta_3^2, energy kept

    @staticmethod
    def decide(members):
        """None when the cell passes, else the member the refusal names."""
        fam, m = singleton_family(members), len(members)
        sub = identity_matrix(m) if fam.mode == "exact" else custom_matrix(
            [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)])
        try:
            elongate_cosf(fam, {0: [list(range(m))]}, {(0, 0): sub})
        except ConstructionError as e:
            text = str(e)
            assert "mixes energies" in text and text.startswith("cell (0,0)")
            return int(text.rsplit("member ", 1)[1].split(" ")[0])
        return None

    @staticmethod
    def reference(members):
        """The same decision from per-member `energy` calls."""
        e0 = energy(members[0])
        for k, s in enumerate(members[1:], start=1):
            diff = energy(s) - e0
            if isinstance(diff, CycloNum):
                if not diff.is_zero():
                    return k
            elif abs(diff) > DEFAULT_TOL * abs(e0):
                return k
        return None

    def test_exact_cells(self):
        rng = random.Random(1010)
        outcomes = set()
        for _ in range(150):
            length, m = rng.randint(1, 5), rng.randint(2, 5)
            base = [rng.choice(self.EXACT_POOL) for _ in range(length)]
            members = []
            for _ in range(m):
                seq = Sequence(base[i] for i in rng.sample(range(length), length))
                scale = rng.choice(self.SCALES) if rng.random() < 0.4 else \
                    rng.choice(self.SCALES[:3])
                members.append(seq.scale(scale))
            got = self.decide(members)
            assert got == self.reference(members)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_exact_message_names_first_differing_member(self):
        s = from_signs("+-+")
        members = [s, s.scale(W3), s.scale(CycloNum.from_int(2)), -s,
                   s.scale(ONE + CycloNum.root(4, 1))]
        assert self.decide(members) == 2
        with pytest.raises(ConstructionError) as err:
            elongate_cosf(singleton_family(members), {0: [[0, 1, 2, 3, 4]]},
                          {(0, 0): dft_matrix(5)})
        assert str(err.value) == (f"cell (0,0) mixes energies: member 0 has "
                                  f"{energy(s)!r}, member 2 has "
                                  f"{energy(members[2])!r}")

    def test_single_term_message_names_first_differing_member(self):
        # every member single-term (one layer), so the energies are sums of c^2
        s = dft_matrix(5).row(2)
        members = [s, s.scale(W3), -s, s.scale(CycloNum.from_int(2)),
                   s.scale(CycloNum.root(4, 1))]
        assert len(cell_terms(map(terms_of, members))[2]) == 1
        assert self.decide(members) == self.reference(members) == 3
        with pytest.raises(ConstructionError) as err:
            elongate_cosf(singleton_family(members), {0: [[0, 1, 2, 3, 4]]},
                          {(0, 0): dft_matrix(5)})
        assert str(err.value) == (f"cell (0,0) mixes energies: member 0 has "
                                  f"{energy(s)!r}, member 3 has "
                                  f"{energy(members[3])!r}")

    def test_single_term_energies_past_int64(self):
        # c^2 * L >= 2^63 at c = INT64_COEFF_BOUND - 1 and L = 3: the sums
        # are Python ints, exactly the CycloNum sums of e * conj(e)
        c = INT64_COEFF_BOUND - 1
        assert c * c * 3 >= 2 ** 63
        cw = CycloNum.from_int(c) * W3
        members = [Sequence([c, -c, cw]), Sequence([-c, cw, c]), Sequence([c, c, c - 1])]
        found = cell_terms(map(terms_of, members))
        assert len(found[2]) == 1
        e, differ = unequal_energies(found, DEFAULT_TOL)
        want = Sequence([reduce(add, (x * x.conj() for x in s)) for s in members])
        assert e.dtype == want.array.dtype == object
        assert e.shape == want.array.shape
        assert np.array_equal(e, want.array)
        assert differ == [2]
        assert e[0].tolist() == [3 * c * c, 3 * c * c, 2 * c * c + (c - 1) ** 2]

    @pytest.mark.parametrize("c", [2 ** 30 - 1, 2 ** 30], ids=["below-2^63", "at-2^63"])
    @pytest.mark.parametrize("differ", [None, 2])
    def test_single_layer_cells_around_2_63(self, c, differ):
        # peak^2 * L for L = 8 just below 2^63 (int64 sums) and at 2^63
        # (Python-int sums); one entry c - 1 gives member `differ` a
        # smaller energy
        assert (c * c * 8 < 2 ** 63) == (c < 2 ** 30)
        signs = ["++-+--+-", "+-++-+--", "--+-++-+"]
        members = [[c if ch == "+" else -c for ch in s] for s in signs]
        if differ is not None:
            members[differ][3] = c - 1
        members = [Sequence(s) for s in members]
        assert len(cell_terms(map(terms_of, members))[2]) == 1
        assert self.decide(members) == self.reference(members) == differ
        if differ is not None:
            with pytest.raises(ConstructionError) as err:
                elongate_cosf(singleton_family(members), {0: [[0, 1, 2]]},
                              {(0, 0): dft_matrix(3)})
            assert str(err.value) == (f"cell (0,0) mixes energies: member 0 has "
                                      f"{energy(members[0])!r}, member 2 has "
                                      f"{energy(members[2])!r}")

    @pytest.mark.parametrize("rel, passes", [(1e-12, True), (3e-11, True),
                                             (1e-8, False), (1e-3, False)])
    def test_approx_cells_around_the_tolerance(self, rel, passes):
        rng = random.Random(int(rel * 1e15))
        for _ in range(20):
            length, m = rng.randint(1, 6), rng.randint(2, 5)
            base = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(length)]
            members = [Sequence(base[i] for i in rng.sample(range(length), length))
                       for _ in range(m)]
            k = rng.randrange(1, m)
            # energy scaled by (1 + rel)^2, about 1 + 2 rel
            members[k] = members[k].scale(complex(1 + rel))
            got = self.decide(members)
            assert got == self.reference(members)
            assert (got is None) == passes
            if not passes:
                assert got == k


class TestCccMap:
    def test_reference_ccc(self, cosf_2_of_4):
        ccc = cosf_to_ccc(cosf_2_of_4, hadamard_matrix(2))
        assert list(ccc[0]) == [from_signs("+++-"), from_signs("+-++")]
        assert list(ccc[1]) == [from_signs("++-+"), from_signs("+---")]
        assert is_ccc(ccc).ok

    def test_row_products_match_connection_map(self):
        for n, build in ((3, dft_matrix), (4, hadamard_matrix)):
            u = build(n)
            via_map = cosf_to_ccc(u.rows_family(), u)
            direct = ccc_from_unitary(u)
            for m in range(n):
                assert list(via_map[m]) == list(direct[m])

    def test_dim_one(self):
        # for the 1-shift property every nonzero shift counts, so the
        # sequence itself must already be shift-orthogonal
        fam = singleton_family([from_signs("+0")])
        ccc = cosf_to_ccc(fam, identity_matrix(1))
        assert ccc.family_size == 1 and ccc[0][0] == from_signs("+0")

    def test_rejects_non_cosf(self):
        fam = singleton_family([from_signs("++"), from_signs("++")])
        with pytest.raises(ConstructionError):
            cosf_to_ccc(fam, hadamard_matrix(2))

    def test_rejects_size_mismatch(self, cosf_2_of_4):
        with pytest.raises(ConstructionError):
            cosf_to_ccc(cosf_2_of_4, hadamard_matrix(4))


class TestProductRowFamilies:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dft_families(self, n):
        fam = ccc_from_unitary(dft_matrix(n))
        assert fam.family_size == fam.set_size == n
        assert fam.length_set == frozenset({n})
        assert is_ccc(fam).ok

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_hadamard_families_follow_xor(self, n):
        h = hadamard_matrix(n)
        fam = ccc_from_unitary(h)
        assert is_ccc(fam).ok
        for m in range(n):
            for k in range(n):
                assert fam[m][k] == h.row(m ^ k)


class TestEnlarge:
    def test_identity_and_hadamard(self, cosf_2_of_4):
        ccc = cosf_to_ccc(cosf_2_of_4, hadamard_matrix(2))
        out = enlarge_ccc(ccc, [identity_matrix(2), hadamard_matrix(2)])
        assert out.family_size == out.set_size == 4
        assert out.length_set == frozenset({4})
        assert is_ccc(out).ok
        # identity rows interleave zero sequences between the originals
        assert list(out[0]) == [ccc[0][0], from_signs("0000"),
                                ccc[0][1], from_signs("0000")]

    def test_matches_displayed_matrix_up_to_indexing(self, cosf_2_of_4):
        ccc = cosf_to_ccc(cosf_2_of_4, hadamard_matrix(2))
        # the reference 4x4 display corresponds to the input CCC with its
        # two sets listed in the other order (set order is a free choice
        # under the identification convention)
        swapped = SequenceFamily([ccc[1], ccc[0]])
        out = enlarge_ccc(swapped, [identity_matrix(2), hadamard_matrix(2)])
        displayed = SequenceFamily(
            SequenceSet(from_signs(w) for w in row.split()) for row in [
                "++-+ +--- 0000 0000",
                "0000 0000 ++-+ +---",
                "+++- +-++ +++- +-++",
                "+++- +-++ ---+ -+--",
            ])
        assert equal_up_to_indexing(out, displayed)

    def test_grow_to_eight(self, cosf_2_of_4):
        ccc = cosf_to_ccc(cosf_2_of_4, hadamard_matrix(2))
        out = enlarge_ccc(ccc, [hadamard_matrix(4), hadamard_matrix(4)])
        assert out.family_size == out.set_size == 8
        assert out.length_set == frozenset({4})
        assert is_ccc(out).ok

    def test_count_mismatch(self, cosf_2_of_4):
        ccc = cosf_to_ccc(cosf_2_of_4, hadamard_matrix(2))
        with pytest.raises(ConstructionError):
            enlarge_ccc(ccc, [identity_matrix(2)])
        with pytest.raises(ConstructionError):
            enlarge_ccc(ccc, [identity_matrix(2), identity_matrix(3)])

    def test_rejects_non_ccc(self):
        fam = SequenceFamily([
            SequenceSet([from_signs("++"), from_signs("++")]),
            SequenceSet([from_signs("+-"), from_signs("+-")]),
        ])
        with pytest.raises(ConstructionError):
            enlarge_ccc(fam, [identity_matrix(2), identity_matrix(2)])

    def test_rejects_non_square(self, golden_cs_pair):
        fam = SequenceFamily([golden_cs_pair])  # a (1,2)-shaped CCC
        assert is_ccc(fam).ok
        with pytest.raises(ConstructionError):
            enlarge_ccc(fam, [identity_matrix(2)])


class TestRandomizedProperties:
    MATRIX_POOL = {
        1: ["hadamard", "dft", "identity"],
        2: ["hadamard", "dft", "identity"],
        3: ["dft", "identity"],
        4: ["hadamard", "dft", "identity"],
        5: ["dft", "identity"],
        6: ["dft", "identity"],
    }

    def build(self, kind, dim):
        return {"hadamard": hadamard_matrix, "dft": dft_matrix,
                "identity": identity_matrix}[kind](dim)

    def random_partition(self, rng, n):
        idx = list(range(n))
        rng.shuffle(idx)
        cells, start = [], 0
        while start < n:
            size = rng.randint(1, n - start)
            cells.append(sorted(idx[start:start + size]))
            start += size
        return cells

    def random_generated(self, rng):
        n = rng.randint(1, 6)
        base = self.build(rng.choice(self.MATRIX_POOL[n]), n)
        cells = self.random_partition(rng, n)
        subs = [self.build(rng.choice(self.MATRIX_POOL[len(c)]), len(c))
                for c in cells]
        return n, generate_cosf(base, cells, subs)

    def test_generation_is_optimal_cosf(self):
        rng = random.Random(424242)
        for _ in range(60):
            n, fam = self.random_generated(rng)
            assert fam.family_size == n
            assert is_n_co_sf(fam, n).ok

    def test_random_elongations_stay_cosf(self):
        # level-2 cells must hold equal-energy sequences, so random cells
        # are cut inside (length, energy) classes
        rng = random.Random(777)
        for _ in range(25):
            n, fam = self.random_generated(rng)
            groups = {}
            for pos, ss in enumerate(fam):
                groups.setdefault(ss.length, []).append(pos)
            part2, subs = {}, {}
            for g, (_, members) in enumerate(sorted(groups.items())):
                classes = {}
                for in_pos, pos in enumerate(members):
                    key = tuple(energy(fam[pos][0]).reduced())
                    classes.setdefault(key, []).append(in_pos)
                cells = []
                for cls in classes.values():
                    shuffled = cls[:]
                    rng.shuffle(shuffled)
                    start = 0
                    while start < len(shuffled):
                        size = rng.randint(1, len(shuffled) - start)
                        cells.append(sorted(shuffled[start:start + size]))
                        start += size
                part2[g] = cells
                for p2, cell in enumerate(cells):
                    pool = [k for k in self.MATRIX_POOL[len(cell)]]
                    sub = self.build(rng.choice(pool), len(cell))
                    subs[(g, p2)] = sub.rows_family()
            out = elongate_cosf(fam, part2, subs)
            assert is_n_co_sf(out, n).ok
            assert out.family_size == n

    def test_enlarged_families_meet_bound_with_equality(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.choice([1, 2])
            base = self.build(rng.choice(self.MATRIX_POOL[n]), n)
            fam = generate_cosf(base, [list(range(n))], [base])
            ccc = cosf_to_ccc(fam, base)
            m_dim = rng.choice([1, 2])
            mats = [self.build(rng.choice(self.MATRIX_POOL[m_dim]), m_dim)
                    for _ in range(n)]
            out = enlarge_ccc(ccc, mats)
            assert out.family_size == out.set_size == n * m_dim
            assert is_ccc(out).ok


def _generation_cases():
    """(name, base, cells, subs) of the generation step of every
    single-target recipe `plan` emits for n <= 8 and lengths up to 40 n,
    of some multi-target ones, and of the acceptance suite's DFT-6 family."""
    recipes = [plan(n, [length]) for n in range(1, 9) for length in range(1, 40 * n + 1)
               if constructible(n, length)]
    recipes += [plan(n, targets) for n, targets in
                ((5, [10, 15]), (6, [12, 24]), (7, [63, 189]), (7, [56, 1701]), (8, [16, 32]))]
    for recipe in recipes:
        yield (f"plan {recipe.n} {recipe.cells}", recipe.base_matrix.build(), recipe.cells,
               [spec.build() for spec in recipe.cell_matrices])
    yield ("dft6", dft_matrix(6), [[0, 1], [2, 3, 4, 5]],
           [hadamard_matrix(2), hadamard_matrix(4)])


class TestGenerationIsElongation:
    """Generation is the elongation of the base rows as one length group,
    the cells its level-2 partition."""

    def test_same_arrays(self):
        cases = 0
        for name, base, cells, subs in _generation_cases():
            got = generate_cosf(base, cells, subs)
            want = elongate_cosf(base.rows_family(), {0: cells},
                                 {(0, i): s for i, s in enumerate(subs)})
            assert len(got) == len(want), name
            for g, w in zip(got, want):
                a, b = g[0].array, w[0].array
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            cases += 1
        assert cases == 135

    @pytest.mark.parametrize("cells, subs", [
        ([[0]], [1]), ([[0, 0]], [2]), ([[0, 2]], [2]), ([[0, 1], []], [2, 1]), ([[0, 1]], [4]),
    ], ids=["misses-a-row", "repeated-row", "outside", "empty-cell", "dim-mismatch"])
    def test_same_refusals(self, cells, subs):
        h2 = hadamard_matrix(2)
        subs = [identity_matrix(d) for d in subs]
        with pytest.raises(ConstructionError) as gen:
            generate_cosf(h2, cells, subs)
        with pytest.raises(ConstructionError) as elong:
            elongate_cosf(h2.rows_family(), {0: cells}, {(0, i): s for i, s in enumerate(subs)})
        assert str(gen.value) == str(elong.value)

    def test_only_elongation_checks_energies(self, monkeypatch):
        # a matrix's rows all have its alpha as their energy, so generation's
        # cells are not checked; a round of `execute` and `elongate_cosf` are
        checked = []
        monkeypatch.setattr(construct, "_check_energies", lambda *args: checked.append(args[3]))
        h2 = hadamard_matrix(2)
        generate_cosf(dft_matrix(6), [[0, 1], [2, 3, 4, 5]], [h2, hadamard_matrix(4)])
        assert checked == []
        execute(plan(2, [8]), verify=False)
        assert checked == ["(0,0)"]
        elongate_cosf(h2.rows_family(), {0: [[0, 1]]}, {(0, 0): h2})
        assert checked == ["(0,0)"] * 2
