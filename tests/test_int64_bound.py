"""Exact arrays at the int64 / Python-int boundary and at the magnitude cap.

An exact coefficient array is int64 when every coefficient is below
INT64_COEFF_BOUND in magnitude and holds Python ints otherwise, however
it was made.  Every product, sum and reduction that could leave int64
switches to Python ints first, so each family here is checked against
the definitional `acorr` sums, beside a one-entry near miss that must
be rejected.  Coefficients at or past COEFF_LIMIT are refused with an
error that names the cap.
"""

import json
from functools import reduce

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    UnitaryLike,
    acorr,
    cosf_to_ccc,
    custom_matrix,
    elongate_cosf,
    execute,
    from_signs,
    generate_cosf,
    hadamard_matrix,
    is_ccc,
    is_complementary_set,
    is_n_co_sf,
    plan,
    singleton_family,
)
from cocodes import cyclo
from cocodes.cli import EXIT_IO, EXIT_VERIFY, family_from_doc, family_to_doc, main
from cocodes.cyclo import (
    COEFF_LIMIT,
    INT64_COEFF_BOUND,
    CoefficientLimitError,
    reduce_rows,
    reducible,
)
from cocodes.matrices import MatrixValidationError

B = INT64_COEFF_BOUND


def dtype_for(values) -> type:
    """The dtype the rule gives an array of these coefficients."""
    return np.int64 if max(map(abs, values)) < B else object


def assert_dtype_rule(seq: Sequence) -> None:
    values = seq.array.ravel().tolist()
    assert seq.array.dtype == dtype_for(values)
    if seq.array.dtype == object:
        assert all(type(c) is int for c in seq.array.ravel())


def summed_acorr(ss, tt, tau):
    return reduce(lambda a, b: a + b,
                  (acorr(a, b, tau) for a, b in zip(ss, tt)), CycloNum.zero())


def assert_matches_acorr(report, fam):
    for pair in report.pairs:
        expect = [summed_acorr(fam[pair.left], fam[pair.right], tau)
                  for tau in pair.shifts]
        assert pair.values == expect


def bumped(fam: SequenceFamily, m: int = 0, n: int = 0, pos: int = 0) -> SequenceFamily:
    """`fam` with entry `pos` of sequence (m, n) raised by 1: a near miss."""
    entries = list(fam[m][n])
    entries[pos] = entries[pos] + CycloNum.from_int(1)
    sets = [list(ss) for ss in fam]
    sets[m][n] = Sequence(entries)
    return SequenceFamily(SequenceSet(ss) for ss in sets)


def scaled(fam: SequenceFamily, c: CycloNum) -> SequenceFamily:
    return SequenceFamily(SequenceSet(s.scale(c) for s in ss) for ss in fam)


def scaled_hadamard(dim: int, scale: int):
    return custom_matrix([[x.coeffs[0] * scale for x in row]
                          for row in hadamard_matrix(dim).entries])


def entrywise_reference(v: Sequence, cell) -> list:
    """connect(v, cell) by CycloNum arithmetic, entry by entry."""
    m = len(cell)
    k = len(v) * m // np.gcd(len(v), m)
    return [v[i % len(v)] * x for i in range(k) for x in cell[i % m]]


CORNERS = [B - 1, B, -B, -(B - 1)]


class TestBoundary:
    @pytest.mark.parametrize("c", CORNERS)
    def test_sequence_and_of_array(self, c):
        seq = Sequence([CycloNum.from_int(c), CycloNum.root(3, 1)])
        assert_dtype_rule(seq)
        assert seq.array.dtype == (np.int64 if abs(c) < B else object)
        for dtype in (np.int64, object):
            got = Sequence.of_array(np.array([[c, 0], [0, 1], [0, 0]], dtype=dtype))
            assert got.array.dtype == seq.array.dtype
            assert got == seq
            assert_dtype_rule(got)

    @pytest.mark.parametrize("c", CORNERS)
    def test_document_read(self, c):
        normalized = {"mode": "exact", "sets": [[[{"order": 1, "coeffs": [c]},
                                                  {"order": 1, "coeffs": [1]}]]]}
        shorthand = {"mode": "exact", "sets": [[[c, "+"]]]}
        mixed = {"mode": "exact", "sets": [[[c, {"order": 4, "coeffs": [0, 1, 0, 0]}]]]}
        for doc in (normalized, shorthand, mixed):
            seq = family_from_doc(doc)[0][0]
            assert_dtype_rule(seq)
            assert seq[0] == CycloNum.from_int(c)
            assert json.dumps(family_to_doc(family_from_doc(doc))) == json.dumps(
                family_to_doc(SequenceFamily([SequenceSet([seq])])))

    @pytest.mark.parametrize("c", CORNERS)
    def test_factory(self, c):
        u = scaled_hadamard(2, c)
        for row in u.rows():
            assert_dtype_rule(row)
        assert u.alpha == CycloNum.from_int(2 * c * c)
        for n in (1, 2, 4, 8):
            assert all(r.array.dtype == np.int64 for r in hadamard_matrix(n).rows())

    @pytest.mark.parametrize("c", CORNERS)
    def test_scaled_ccc_against_acorr(self, c):
        base = cosf_to_ccc(execute(plan(2, [8])).family, hadamard_matrix(2))
        fam = scaled(base, CycloNum.from_int(c))
        for ss in fam:
            for s in ss:
                assert_dtype_rule(s)
        report = is_ccc(fam)
        assert report.ok
        assert_matches_acorr(report, fam)
        near = bumped(fam, 1, 0, 3)
        report = is_ccc(near)
        assert not report.ok
        assert_matches_acorr(report, near)

    def test_constructions_stay_int64(self):
        for n, lengths in ((2, [64]), (3, [54]), (6, [216])):
            fam = execute(plan(n, lengths)).family
            assert all(s.array.dtype == np.int64 for ss in fam for s in ss)


class TestPromotion:
    """Products and cell sums of int64 operands that would pass 2^62
    are made with Python ints and equal the CycloNum arithmetic."""

    @pytest.mark.parametrize("scale", [2 ** 30, 2 ** 31])
    def test_generate_and_elongate(self, scale):
        h = scaled_hadamard(4, scale)
        assert h.row(0).array.dtype == (np.int64 if scale < B else object)
        fam = generate_cosf(h, [[0, 1, 2, 3]], [h])
        for m, ss in enumerate(fam):
            seq = ss[0]
            assert seq.array.dtype == object  # entries scale^2 >= 2^60
            assert list(seq) == entrywise_reference(h.row(m), SequenceSet(h.rows()))
        report = is_n_co_sf(fam, 4)
        assert report.ok
        assert_matches_acorr(report, fam)
        near = bumped(fam, 2, 0, 5)
        report = is_n_co_sf(near, 4)
        assert not report.ok
        assert_matches_acorr(report, near)

        longer = elongate_cosf(fam, {0: [[0, 1, 2, 3]]}, {(0, 0): h})
        seqs = [ss[0] for ss in fam]
        for m, ss in enumerate(longer):
            assert list(ss[0]) == entrywise_reference(h.row(m), seqs)
        assert max(x.max_abs_coeff() for ss in longer for x in ss[0]) == scale ** 3
        assert is_n_co_sf(longer, 4).ok
        assert not is_n_co_sf(bumped(longer, 1, 0, 7), 4).ok

    def test_scale_cell_sums_past_int64(self):
        # every coefficient of (c z6-terms) * (c z6-terms) sums six
        # products of (2^31 - 1)^2: past 2^63, so the sums need Python ints
        c = B - 1
        x = CycloNum(6, [c] * 6)
        s = Sequence([x, CycloNum(6, [c, -c, 0, 0, 1, 0])])
        assert s.array.dtype == np.int64
        got = s.scale(x)
        assert got.array.dtype == object
        assert list(got) == [e * x for e in s]
        assert (s.scale(CycloNum.from_int(c))).array.dtype == object

    def test_sums_classified_at_the_bound(self):
        c = B - 1
        s = Sequence([CycloNum.from_int(c)])
        assert s.scale(CycloNum.from_int(1)).array.dtype == np.int64
        doubled = s.scale(CycloNum.from_int(2))
        assert doubled.array.dtype == object and doubled[0] == CycloNum.from_int(2 * c)
        # four products of magnitude c, two of which cancel: every sum
        # is below the bound although the products' bound is not
        t = Sequence([CycloNum(3, [c, c, 0])])
        x = CycloNum(3, [-1, 1, 0])
        got = t.scale(x)
        assert got.array.dtype == np.int64
        assert list(got) == [t[0] * x]

    def test_int64_products_below_the_bound_stay_int64(self):
        s = Sequence([CycloNum(6, [1, -1, 0, 2, 0, 0]), CycloNum.root(3, 2)])
        got = s.scale(CycloNum(6, [3, 0, 0, 0, 0, -1]))
        assert got.array.dtype == np.int64
        assert list(got) == [e * CycloNum(6, [3, 0, 0, 0, 0, -1]) for e in s]


class TestReduction:
    def test_reducible_promotes_before_a_wrap(self):
        # 2^60 at order 385: the reduction grows entries by up to
        # reduction_gain(385) = 11,555, past int64
        rng = np.random.default_rng(5)
        rows = rng.integers(-2 ** 60, 2 ** 60, size=(4, 385))
        exact = reduce_rows(rows.astype(object), 385)
        assert reducible(rows, 385).dtype == object
        assert reduce_rows(reducible(rows, 385), 385).tolist() == exact.tolist()
        small = rows >> 40
        assert reducible(small, 385) is small

    def test_sequence_zero_tests_at_a_large_gain(self, monkeypatch):
        # No order up to ORDER_LIMIT has a reduction gain above 2^27
        # (the largest is 1.1e8, at 8645), so int64 sequences never
        # reach 2^62 there; a gain of 2^33 stands in for a larger one,
        # and every zero test must then reduce with Python ints.
        monkeypatch.setattr(cyclo, "reduction_gain", lambda k: 2.0 ** 33)
        seen = []  # (dtype, largest magnitude) of every reduced stack
        monkeypatch.setattr(cyclo, "reduce_rows", lambda rows, k: seen.append(
            (rows.dtype, max(abs(int(v)) for v in rows.ravel()))) or reduce_rows(rows, k))
        c = B - 1
        zero = Sequence([CycloNum(3, [c, c, c]), CycloNum(5, [-c] * 5)])
        assert zero.array.dtype == np.int64
        assert zero.is_zero()
        near = Sequence([CycloNum(3, [c, c, c - 1]), CycloNum(5, [-c] * 5)])
        assert not near.is_zero()
        assert zero == Sequence([CycloNum.zero(15)] * 2)
        assert near != zero
        assert all(dtype == object for dtype, peak in seen if peak * 2 ** 33 >= 2 ** 62)
        assert sum(dtype == object for dtype, _ in seen) >= 3


class TestCoefficientLimit:
    def big_family(self):
        fam = cosf_to_ccc(execute(plan(2, [4])).family, hadamard_matrix(2))
        entries = list(fam[0][0])
        entries[0] = CycloNum.from_int(2 ** 1100)
        return SequenceFamily([SequenceSet([Sequence(entries), fam[0][1]]), fam[1]])

    def test_library_kernel_names_the_cap(self):
        fam = self.big_family()
        with pytest.raises(CoefficientLimitError, match="COEFF_LIMIT"):
            is_ccc(fam)
        with pytest.raises(CoefficientLimitError, match="COEFF_LIMIT"):
            is_n_co_sf(singleton_family([fam[0][0]]), 2)

    def test_custom_matrix_names_the_cap(self):
        with pytest.raises(CoefficientLimitError, match="COEFF_LIMIT"):
            scaled_hadamard(2, 2 ** 1100)

    def test_just_below_the_cap_is_decided(self):
        c = COEFF_LIMIT - 1
        u = scaled_hadamard(2, c)
        assert u.alpha == CycloNum.from_int(2 * c * c)
        fam = singleton_family(u.rows())
        assert is_n_co_sf(fam, 2).ok
        near = bumped(fam, 1, 0, 1)  # -c + 1: still below the cap
        report = is_n_co_sf(near, 2)
        assert not report.ok
        assert_matches_acorr(report, near)
        # folding order 2 by zeta^1 = -1 doubles c - (-c) to 2c < 2^1023
        s = Sequence([CycloNum(2, [c, -c]), CycloNum.from_int(1)])
        fam = SequenceFamily([SequenceSet([s])])
        report = is_complementary_set(fam[0])
        assert not report.ok
        assert_matches_acorr(report, fam)

    def test_residuals_past_float_range_are_rendered(self, tmp_path, capsys):
        # two coefficients of 2^600, below the cap: their product has no
        # float value, so the report shows the exact residual alone
        fam = cosf_to_ccc(execute(plan(2, [4])).family, hadamard_matrix(2))
        entries = list(fam[0][0])
        entries[0] = entries[1] = CycloNum.from_int(2 ** 600)
        bad = SequenceFamily([SequenceSet([Sequence(entries), fam[0][1]]), fam[1]])
        path = tmp_path / "big.json"
        path.write_text(json.dumps(family_to_doc(bad)), encoding="utf-8")
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert out.startswith("check ccc: FAIL")
        (line,) = [x for x in out.splitlines() if "tau=1:" in x]
        assert line.startswith("    tau=1: residual Cyclo(") and "~" not in line

    def test_invalid_matrix_past_float_range_is_refused(self):
        # energies of 2^1200 have no float value; the message shows the
        # exact scalars instead
        with pytest.raises(MatrixValidationError, match=r"rows \(0, 1\)"):
            custom_matrix([[2 ** 600, 2 ** 600], [2 ** 600, 2 ** 600]])

    @pytest.mark.parametrize("entry", [
        {"order": 1, "coeffs": [2 ** 1100]},
        {"order": 2, "coeffs": [0, -COEFF_LIMIT]},
        2 ** 1100,
    ], ids=["normalized", "negative-at-cap", "shorthand"])
    def test_document_names_the_cap(self, tmp_path, capsys, entry):
        doc = family_to_doc(cosf_to_ccc(execute(plan(2, [4])).family, hadamard_matrix(2)))
        doc = json.loads(json.dumps(doc))
        doc["sets"][0][0][0] = entry
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "COEFF_LIMIT" in err

    def test_matrix_document_names_the_cap(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(family_to_doc(execute(plan(2, [4])).family)),
                       encoding="utf-8")
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"kind": "custom", "dim": 2, "mode": "exact",
                                    "entries": [[2 ** 1100, 1], [1, -1]]}), encoding="utf-8")
        assert main(["ccc", str(fam), "@" + str(spec), str(tmp_path / "out.json")]) == EXIT_IO
        assert "COEFF_LIMIT" in capsys.readouterr().err


class TestUnitaryLikeConstructor:
    def test_refuses_rows_that_are_not_unitary_like(self):
        with pytest.raises(MatrixValidationError, match=r"\(0, 1\)"):
            UnitaryLike([from_signs("++"), from_signs("++")], CycloNum.from_int(2))

    def test_refuses_a_wrong_alpha(self):
        rows = hadamard_matrix(2).rows()
        with pytest.raises(MatrixValidationError, match="alpha"):
            UnitaryLike(rows, CycloNum.from_int(3))
        with pytest.raises(MatrixValidationError, match="alpha"):
            UnitaryLike(rows, 2 + 0j)

    def test_accepts_a_unitary_like_matrix(self):
        u = UnitaryLike([from_signs("++"), from_signs("+-")], CycloNum.from_int(2))
        assert u.dim == 2 and u.alpha == CycloNum.from_int(2)
        fam = elongate_cosf(generate_cosf(u, [[0, 1]], [u]), {0: [[0, 1]]}, {(0, 0): u})
        assert is_n_co_sf(fam, 2).ok
