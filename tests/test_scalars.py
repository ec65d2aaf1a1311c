"""One scalar coercion: every entry point reads a raw entry as
`model.scalar` does in its context, and the behaviours that rule fixed."""

import json

import pytest

from cocodes import CycloNum, Sequence, custom_matrix, execute, from_signs, plan
from cocodes.cli import (
    EXIT_IO,
    DocumentError,
    family_to_doc,
    main,
    matrix_spec_from_doc,
    matrix_spec_to_doc,
    scalar_from_doc,
)
from cocodes.matrices import (
    MATRIX_KINDS,
    MatrixSpec,
    MatrixValidationError,
    UnitaryLike,
    parse_matrix_shorthand,
)
from cocodes.model import APPROX, EXACT, ModeMismatchError, scalar, scalar_is_zero

POOL = [0, 1, -1, 2 ** 70, -2 ** 70, "+", "-", "", "1", "1+2j", True, 1.5, 2j,
        CycloNum.root(4, 1), None, 2, 2.0]
IDS = [repr(x) for x in POOL]


def own_mode(x) -> str:
    """The mode a Sequence works out for an entry on its own."""
    return APPROX if isinstance(x, (float, complex)) else EXACT


def read(x, mode):
    """`model.scalar`'s verdict on `x` in `mode`: the scalar, or the type
    it raises."""
    try:
        return scalar(x, mode)
    except Exception as e:  # noqa: BLE001 - the verdict is the type
        return type(e)


def refused(verdict) -> bool:
    return isinstance(verdict, type)


def mode_of(value) -> str:
    return EXACT if isinstance(value, CycloNum) else APPROX


def same(got, want) -> bool:
    """Equal scalars of one mode."""
    return type(got) is type(want) and got == want


def raises_exactly(kind, fn):
    with pytest.raises(kind) as info:
        fn()
    assert type(info.value) is kind
    return info.value


class TestScalarRule:
    @pytest.mark.parametrize("x", [1, -1, "+", "-", 2 ** 70, 0], ids=repr)
    def test_ints_and_signs_are_exact_unless_the_context_is_approx(self, x):
        assert isinstance(scalar(x, EXACT), CycloNum)
        assert type(scalar(x, APPROX)) is complex

    @pytest.mark.parametrize("x, kind", [(True, TypeError), (None, TypeError),
                                         ("", ValueError), ("1", ValueError),
                                         ("1+2j", ValueError)], ids=repr)
    def test_refused_in_every_mode(self, x, kind):
        for mode in (EXACT, APPROX):
            raises_exactly(kind, lambda: scalar(x, mode))

    def test_wrong_mode_is_a_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            scalar(1.5, EXACT)
        with pytest.raises(ModeMismatchError):
            scalar(CycloNum.root(4, 1), APPROX)


@pytest.mark.parametrize("x", POOL, ids=IDS)
class TestEntryPointsAgree:
    """Each entry point accepts exactly what `model.scalar` accepts in
    its context, with the same value and mode."""

    def test_sequence(self, x):
        want = read(x, own_mode(x))
        if refused(want):
            raises_exactly(want, lambda: Sequence([x]))
            return
        seq = Sequence([x])
        assert seq.mode == mode_of(want) and same(seq[0], want)

    @pytest.mark.parametrize("base", [from_signs("+-"), Sequence([1.0, -1.0])],
                             ids=["exact", "approx"])
    def test_scale(self, x, base):
        want = read(x, base.mode)
        if refused(want):
            raises_exactly(want, lambda: base.scale(x))
            return
        out = base.scale(x)
        assert out.mode == base.mode and same(out[0], want) and same(out[1], -want)

    def test_custom_matrix_rows(self, x):
        want = read(x, own_mode(x))
        entries = [[x, 0], [0, x]]
        if refused(want):
            raises_exactly(want, lambda: custom_matrix(entries))
        elif scalar_is_zero(want):
            with pytest.raises(MatrixValidationError, match="alpha = 0"):
                custom_matrix(entries)
        else:
            u = custom_matrix(entries)
            assert u.mode == mode_of(want) and same(u.row(1)[1], want)

    @pytest.mark.parametrize("rows", [[[1, 1], [1, -1]], [[1.0, 1], [1.0, -1]]],
                             ids=["exact", "approx"])
    def test_unitary_like_alpha(self, x, rows):
        mode = EXACT if type(rows[0][0]) is int else APPROX
        want = read(x, mode)
        if want is ModeMismatchError:
            with pytest.raises(MatrixValidationError, match="alpha"):
                UnitaryLike(rows, x)
        elif refused(want):
            raises_exactly(want, lambda: UnitaryLike(rows, x))
        elif not scalar_is_zero(want - scalar(2, mode)):
            with pytest.raises(MatrixValidationError, match="rows' energy"):
                UnitaryLike(rows, x)
        else:
            u = UnitaryLike(rows, x)
            assert u.mode == mode and same(u.alpha, want)

    @pytest.mark.parametrize("mode", [EXACT, APPROX])
    def test_scalar_from_doc(self, x, mode):
        want = read(x, mode)
        if refused(want):
            with pytest.raises(DocumentError):
                scalar_from_doc(x, mode)
        else:
            assert same(scalar_from_doc(x, mode), want)


class TestChangedBehaviour:
    """Each of these differed before entries had one coercion."""

    def test_unitary_like_takes_an_int_alpha(self):
        u = UnitaryLike([[1, 1], [1, -1]], 2)
        assert same(u.alpha, CycloNum.from_int(2))

    def test_exact_sequence_scales_by_an_int(self):
        assert from_signs("+-").scale(-1) == from_signs("-+")

    def test_root_and_int_make_an_exact_sequence(self):
        seq = Sequence([CycloNum.root(4, 1), 1])
        assert seq.mode == EXACT
        assert seq[0] == CycloNum.root(4, 1) and seq[1] == CycloNum.from_int(1)

    def test_ints_make_an_exact_sequence(self):
        seq = Sequence([1, -1])
        assert seq.mode == EXACT and seq == from_signs("+-")

    def test_sign_shorthand_makes_an_exact_sequence(self):
        assert Sequence(["+", "-"]) == from_signs("+-")

    def test_bool_entry_refused(self):
        with pytest.raises(TypeError):
            Sequence([True])

    def test_numeric_strings_refused_in_custom_matrix(self):
        with pytest.raises(ValueError, match="not a scalar"):
            custom_matrix([["1", "1"], ["1", "-1"]])


class TestUnchangedBehaviour:
    def test_ints_follow_floats(self):
        seq = Sequence([1, 1.5])
        assert seq.mode == APPROX and seq[0] == 1 + 0j

    def test_exact_and_approx_still_do_not_mix(self):
        with pytest.raises(ModeMismatchError):
            Sequence([CycloNum.root(4, 1), 1.5])
        with pytest.raises(ModeMismatchError):
            from_signs("+-").scale(0.5)


class TestMatrixDocs:
    def test_raw_custom_rows_written_at_the_row_order(self):
        i = CycloNum.root(4, 1)
        spec = MatrixSpec("custom", 2, entries=[["+", i], [1, -i]])
        doc = json.loads(json.dumps(matrix_spec_to_doc(spec)))
        assert doc["mode"] == EXACT
        assert {e["order"] for row in doc["entries"] for e in row} == {4}
        back = matrix_spec_from_doc(doc).build()
        assert back.rows() == spec.build().rows()

    def test_one_kind_table(self):
        for kind, factory in MATRIX_KINDS.items():
            want = factory(2).rows()
            assert MatrixSpec(kind, 2).build().rows() == want
            assert parse_matrix_shorthand(f"{kind}:2").build().rows() == want
            assert matrix_spec_from_doc({"kind": kind, "dim": 2}).build().rows() == want
        with pytest.raises(DocumentError):
            matrix_spec_from_doc({"kind": [], "dim": 2})

    @pytest.mark.parametrize("entry", [True, "1"], ids=repr)
    def test_document_entry_refused_with_exit_3(self, tmp_path, entry):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(family_to_doc(execute(plan(2, [4])).family)))
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"kind": "custom", "dim": 2, "mode": "exact",
                                    "entries": [[entry, "+"], ["+", "-"]]}))
        out = tmp_path / "out.json"
        assert main(["ccc", str(fam), "@" + str(spec), str(out)]) == EXIT_IO
        assert not out.exists()


def test_custom_matrix_takes_each_row_energy_once(monkeypatch):
    import cocodes.matrices as matrices

    calls = []  # rows per batch
    real = matrices.unequal_energies
    monkeypatch.setattr(matrices, "unequal_energies", lambda found, tol:
                        calls.append(found[2].shape[1]) or real(found, tol))
    custom_matrix([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert calls == [4]
