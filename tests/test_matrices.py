"""Unitary-like matrix factories and validation."""

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    dft_matrix,
    hadamard_matrix,
    identity_matrix,
    custom_matrix,
    from_signs,
    is_n_co_sf,
)
from cocodes.cli import matrix_spec_to_doc
from cocodes.cyclo import DIM_LIMIT
from cocodes.model import row_terms, terms_of
from cocodes.matrices import (
    FACTORY_CACHE,
    MatrixSpec,
    MatrixValidationError,
    parse_matrix_shorthand,
)

FACTORIES = [dft_matrix, hadamard_matrix, identity_matrix]


class TestDft:
    def test_dim_one(self):
        f1 = dft_matrix(1)
        assert f1.row(0)[0] == CycloNum.from_int(1)
        assert f1.alpha == CycloNum.from_int(1)

    def test_dim_two_is_sign_matrix(self):
        f2 = dft_matrix(2)
        assert f2.row(0) == from_signs("++")
        assert f2.row(1) == from_signs("+-")
        assert f2.alpha == CycloNum.from_int(2)

    def test_row_orthogonality_dim_three(self):
        f3 = dft_matrix(3)
        total = CycloNum.zero()
        for a, b in zip(f3.row(0), f3.row(1)):
            total = total + a * b.conj()
        assert total.is_zero()

    def test_agrees_with_hadamard_small(self):
        for n in (1, 2):
            f, h = dft_matrix(n), hadamard_matrix(n)
            for m in range(n):
                assert f.row(m) == h.row(m)


class TestHadamard:
    def test_dim_two(self):
        h2 = hadamard_matrix(2)
        assert h2.row(0) == from_signs("++")
        assert h2.row(1) == from_signs("+-")

    def test_dim_four_row_three(self):
        assert hadamard_matrix(4).row(3) == from_signs("+--+")

    def test_h8_gram(self):
        h8 = hadamard_matrix(8)
        for i in range(8):
            for j in range(8):
                total = CycloNum.zero()
                for a, b in zip(h8.row(i), h8.row(j)):
                    total = total + a * b.conj()
                expect = CycloNum.from_int(8 if i == j else 0)
                assert total == expect

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hadamard_matrix(6)


def sylvester(n: int) -> np.ndarray:
    """H_n by the Sylvester recursion H_2m = [[H_m, H_m], [H_m, -H_m]]."""
    block = np.ones((1, 1), dtype=np.int64)
    while len(block) < n:
        block = np.block([[block, block], [block, -block]])
    return block


class TestHadamardClosedForm:
    @pytest.mark.parametrize("n", [2 ** k for k in range(8)])
    def test_rows_are_the_sylvester_recursion(self, n):
        want = sylvester(n)[:, None]
        for dim in (n, np.int64(n)):
            got = np.stack([row.array for row in hadamard_matrix(dim).rows()])
            assert got.dtype == want.dtype == np.int64
            assert got.shape == want.shape == (n, 1, n)
            assert got.tobytes() == want.tobytes()


class TestFactoryCache:
    """Each factory builds a matrix once per process and hands out the
    same immutable UnitaryLike; refusals are raised on every call."""

    @pytest.mark.parametrize("build", FACTORIES, ids=lambda b: b.__name__)
    def test_same_matrix_on_every_call(self, build):
        for n in (1, 2, 4, 8):
            assert build(n) is build(n)
        assert build.cache_info().maxsize == FACTORY_CACHE

    @pytest.mark.parametrize("build", FACTORIES, ids=lambda b: b.__name__)
    def test_matrix_is_read_only(self, build):
        u = build(4)
        arrays = [row.array for row in u.rows()] + list(u.terms[1:3])
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            u.row(0).array[0, 0] = 5
        for name in ("alpha", "terms", "row_set", "dim"):
            with pytest.raises(AttributeError):
                setattr(u, name, None)
        assert u is build(4) and u.row(0).array[0, 0] == 1

    @pytest.mark.parametrize("call", [lambda: hadamard_matrix(6), lambda: dft_matrix(0),
                                      lambda: dft_matrix(DIM_LIMIT + 1)],
                             ids=["hadamard-6", "dft-0", "dft-129"])
    def test_refusals_raise_on_every_call(self, call):
        for _ in range(3):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("build", FACTORIES, ids=lambda b: b.__name__)
    def test_a_float_dimension_is_not_the_cached_int_one(self, build):
        build(4)
        with pytest.raises(TypeError):
            build(4.0)

    @pytest.mark.parametrize("build", FACTORIES, ids=lambda b: b.__name__)
    def test_terms_are_the_rows_read_into_layers(self, build):
        # the closed-form layers equal a read of the dense rows, down to
        # the peak that lets connections skip rescanning their products
        for n in (1, 2, 3, 4, 8):
            if build is hadamard_matrix and n == 3:
                continue
            u = build(n)
            want = row_terms(terms_of(Sequence.of_array(row.array.copy())) for row in u.rows())
            assert (u.terms[0], u.terms[3:]) == (want[0], want[3:]) and u.terms[4] == 1
            for got, expected in zip(u.terms[1:3], want[1:3]):
                assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("build", FACTORIES, ids=lambda b: b.__name__)
    def test_a_numpy_dimension_gives_python_int_orders(self, build):
        # orders are written to documents, which take no numpy ints
        u, v = build(np.int64(4)), build(4)
        assert u is not v
        for x, y in zip(u.rows(), v.rows()):
            assert type(x.order) is int and x.order == y.order
            assert x.array.tobytes() == y.array.tobytes()
        assert type(u.terms[0]) is int


class TestIdentity:
    def test_rows(self):
        i2 = identity_matrix(2)
        assert i2.row(0) == from_signs("+0")
        assert i2.row(1) == from_signs("0+")
        assert i2.alpha == CycloNum.from_int(1)

    def test_dim_one(self):
        assert identity_matrix(1).row(0) == from_signs("+")


class TestFactoryRows:
    """Each factory's rows against the per-entry definition: the same
    array at the same order, int64 (every coefficient is below
    INT64_COEFF_BOUND), and the rows stored once."""

    REFERENCES = {
        dft_matrix: lambda n, m, k: CycloNum.root(n, m * k),
        hadamard_matrix: lambda n, m, k: CycloNum.from_int(-1 if bin(m & k).count("1") % 2 else 1),
        identity_matrix: lambda n, m, k: CycloNum.from_int(int(m == k)),
    }

    @pytest.mark.parametrize("build,n", [
        (build, n) for build in REFERENCES for n in list(range(1, 17)) + [128]
        if build is not hadamard_matrix or not n & (n - 1)
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_rows_match_definition(self, build, n):
        u = build(n)
        entry = self.REFERENCES[build]
        reference = [[entry(n, m, k) for k in range(n)] for m in range(n)]
        for m, row in enumerate(reference):
            want = Sequence(row).array
            assert u.row(m).array.shape == want.shape
            assert np.array_equal(u.row(m).array, want)
            assert u.row(m).array.dtype == np.int64
        assert [[(x.order, x.coeffs) for x in row] for row in u.entries] == [
            [(x.order, x.coeffs) for x in row] for row in reference]
        assert u.row(0) is u.row(0)
        rows, fam = u.rows(), u.rows_family()
        assert all(rows[m] is u.row(m) for m in range(n))
        # the family's rows are new Sequences over the rows' own layers
        assert all(fam[m][0] is not rows[m] and fam[m][0]._terms is rows[m]._terms
                   for m in range(n))


class TestCustom:
    def test_accepts_sign_matrix(self):
        u = custom_matrix([[1, 1], [1, -1]])
        assert u.alpha == CycloNum.from_int(2)

    def test_rejects_rank_deficient(self):
        with pytest.raises(MatrixValidationError) as err:
            custom_matrix([[1, 1], [1, 1]])
        assert "(0, 1)" in str(err.value)

    def test_rejects_zero_valued_entries(self):
        # 1 + z + ... + z^20 = 0 for z = zeta_21; its float value is off
        # zero by rounding, on the positive side
        zero = CycloNum(21, [1] * 21)
        with pytest.raises(MatrixValidationError, match="not a positive real"):
            custom_matrix([[zero]])

    def test_scaled_dft(self):
        f3 = dft_matrix(3)
        two = CycloNum.from_int(2)
        u = custom_matrix([[two * x for x in row] for row in f3.entries])
        assert u.alpha == CycloNum.from_int(12)

    def test_factories_pass_validation(self):
        for build in (lambda: dft_matrix(5), lambda: hadamard_matrix(4),
                      lambda: identity_matrix(3)):
            m = build()
            revalidated = custom_matrix([list(row) for row in m.entries])
            assert revalidated.alpha == m.alpha

    def test_approx_matrix(self):
        u = custom_matrix([[1 + 0j, 1 + 0j], [1 + 0j, -1 + 0j]])
        assert u.mode == "approx"

    def test_non_square(self):
        with pytest.raises(MatrixValidationError):
            custom_matrix([[1, 1]])


class TestDimCap:
    def test_factories_admit_the_cap(self):
        assert identity_matrix(DIM_LIMIT).dim == DIM_LIMIT

    @pytest.mark.parametrize("build", [dft_matrix, identity_matrix])
    def test_factories_refuse_above_cap(self, build):
        with pytest.raises(ValueError, match=str(DIM_LIMIT)):
            build(DIM_LIMIT + 1)

    def test_hadamard_refuses_power_of_two_above_cap(self):
        with pytest.raises(ValueError, match=str(DIM_LIMIT)):
            hadamard_matrix(2 * DIM_LIMIT)

    def test_custom_refuses_before_reading_rows(self):
        # rows that are never looked at: the refusal comes first
        with pytest.raises(ValueError, match=str(DIM_LIMIT)):
            custom_matrix([None] * (DIM_LIMIT + 1))


class TestRowsAsFamily:
    @pytest.mark.parametrize("n,builder", [
        (2, hadamard_matrix), (4, hadamard_matrix),
        (3, dft_matrix), (5, dft_matrix), (6, dft_matrix),
        (3, identity_matrix),
    ])
    def test_rows_are_n_co_sf(self, n, builder):
        fam = builder(n).rows_family()
        assert fam.family_size == n
        assert is_n_co_sf(fam, n).ok

    def test_custom_circulant_rows(self):
        w3 = CycloNum.root(3, 1)
        one = CycloNum.from_int(1)
        u = custom_matrix([[w3, one, one], [one, w3, one], [one, one, w3]])
        assert u.alpha == CycloNum.from_int(3)
        assert is_n_co_sf(u.rows_family(), 3).ok


class TestSpecs:
    def test_shorthand(self):
        spec = parse_matrix_shorthand("dft:4")
        assert spec.kind == "dft" and spec.dim == 4
        with pytest.raises(ValueError):
            parse_matrix_shorthand("fourier:4")

    def test_build_named(self):
        assert MatrixSpec("hadamard", 2).build().dim == 2
        assert MatrixSpec("identity", 3).build().dim == 3

    def test_build_custom_checks_dim(self):
        spec = MatrixSpec("custom", 3, entries=[[1, 1], [1, -1]])
        with pytest.raises(ValueError):
            spec.build()

    @pytest.mark.parametrize("text", ["", "+-"])
    def test_custom_bad_sign_strings_rejected(self, text):
        spec = MatrixSpec("custom", 2, entries=[[text, "+"], ["+", "-"]])
        with pytest.raises(ValueError):
            spec.build()
        with pytest.raises(ValueError):
            matrix_spec_to_doc(spec)
