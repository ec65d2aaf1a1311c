"""One layout and one zero test for both modes.

An approx sequence is a (1, L) complex array, the layout of an exact
sequence of order 1, and every zero test of a stack goes through
`cyclo.zero_rows`.  These tests pin the layout, the refusals that come
with it, and exact decisions on values past the float range.
"""

import json

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    corr_profile,
    custom_matrix,
    elongate_cosf,
    from_signs,
    generate_cosf,
    hadamard_matrix,
    is_n_co_sf,
    singleton_family,
)
from cocodes.construct import ConstructionError
from cocodes.cli import matrix_spec_from_doc, matrix_spec_to_doc
from cocodes.cyclo import zero_rows
from cocodes.matrices import MatrixSpec
from cocodes.model import APPROX, ModeMismatchError


class TestApproxLayout:
    def test_approx_sequence_is_one_row(self):
        s = Sequence([1.0, 2j, -1])
        assert s.array.shape == (1, 3)
        assert (s.mode, s.order, len(s)) == (APPROX, 1, 3)
        assert list(s) == [1, 2j, -1] and s[1] == 2j
        assert s.conj().array.tolist() == [[1, -2j, -1]]
        assert Sequence.of_array(s.array) == s

    def test_infinite_entries_compare_entrywise(self):
        inf = float("inf")
        assert Sequence([inf]) == Sequence([inf])
        assert Sequence([inf]) != Sequence([1.0])

    @pytest.mark.parametrize("array", [
        np.array([1, 2]),
        np.array([1.0, 2j]),
        np.zeros((2, 2, 2), dtype=np.int64),
        np.zeros((1, 0), dtype=np.int64),
        np.zeros((0, 3), dtype=np.int64),
    ], ids=["1-D int", "1-D complex", "3-D", "no entry", "no row"])
    def test_of_array_refuses_other_than_two_dimensions(self, array):
        with pytest.raises(ValueError, match="2-D"):
            Sequence.of_array(array)


def test_zero_rows_one_rule_for_both_modes():
    # order 3: 1 + zeta + zeta^2 = 0
    exact = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=np.int64)
    assert zero_rows(exact, 3).tolist() == [True, False, True]
    approx = np.array([[1e-10 + 0j], [1e-8 + 0j]])
    assert zero_rows(approx, 1, tol=1e-9).tolist() == [True, False]
    assert zero_rows(approx, 1).tolist() == [False, False]


def test_kernel_refuses_mixed_modes_as_a_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        corr_profile(from_signs("+-"), Sequence([1.0, 1.0]))


class TestMatrixSpecDocs:
    @pytest.mark.parametrize("entries, error", [
        ([[1, 1], [1.0, -1.0]], ModeMismatchError),
        ([[1, 1], [1, -1, 1]], ValueError),
    ], ids=["mixed modes", "unequal lengths"])
    def test_rows_one_document_cannot_hold_are_refused_when_written(self, entries, error):
        with pytest.raises(error):
            matrix_spec_to_doc(MatrixSpec("custom", 2, entries))

    def test_approx_custom_spec_round_trips_unchanged(self):
        spec = MatrixSpec("custom", 2, [[1.0, 1j], [1j, 1.0]])
        doc = json.loads(json.dumps(matrix_spec_to_doc(spec)))
        assert doc["mode"] == APPROX
        back = matrix_spec_from_doc(doc)
        assert (back.kind, back.dim) == ("custom", 2)
        assert [row.array.tolist() for row in back.entries] == \
            [Sequence(row).array.tolist() for row in spec.entries]
        assert back.build().rows() == spec.build().rows()


class TestExactCellsPastTheFloatRange:
    """A Hadamard matrix scaled by 2^400 connects into members whose
    coefficients are 2^800 and whose energies are about 2^1603, past the
    float range: their cells must still be decided exactly."""

    @staticmethod
    def family():
        c = 2 ** 400
        h = custom_matrix([[c, c], [c, -c]])
        return generate_cosf(h, [[0, 1]], [h])

    def test_equal_energies_connect(self):
        out = elongate_cosf(self.family(), {0: [[0, 1]]}, {(0, 0): hadamard_matrix(2)})
        assert out.family_size == 2
        assert max(abs(c) for ss in out for x in ss[0] for c in x.coeffs) == 2 ** 800
        assert is_n_co_sf(out, 2).ok

    def test_unequal_energies_refused(self):
        fam = self.family()
        scaled = singleton_family([fam[0][0], fam[1][0].scale(CycloNum.from_int(2))])
        with pytest.raises(ConstructionError, match=r"cell \(0,0\) mixes energies"):
            elongate_cosf(scaled, {0: [[0, 1]]}, {(0, 0): hadamard_matrix(2)})
