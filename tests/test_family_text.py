"""The CLI's family writer: the text it writes from the coefficient
arrays is, byte for byte, json.dumps of the family's document plus a
newline, and it reads back to the same family."""

import json

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    canonical_form,
    cosf_to_ccc,
    dft_matrix,
    enlarge_ccc,
    execute,
    hadamard_matrix,
    plan,
    singleton_family,
)
from cocodes.cli import EXIT_OK, _dump_family, family_from_doc, family_to_doc, main
from cocodes.cyclo import INT64_COEFF_BOUND


def documented(fam, kind):
    return json.dumps(family_to_doc(fam, kind)) + "\n"


def written(tmp_path, fam, kind):
    path = tmp_path / "out.json"
    _dump_family(str(path), fam, kind)
    return path.read_text(encoding="utf-8")


def assert_round_trip(text, fam):
    back = family_from_doc(json.loads(text))
    assert [[s.array.shape for s in ss] for ss in back] == [[s.array.shape for s in ss] for ss in fam]
    for got, want in zip((s for ss in back for s in ss), (s for ss in fam for s in ss)):
        assert got.array.dtype == want.array.dtype
        assert np.array_equal(got.array, want.array, equal_nan=not got.mode == "exact")


def int64_ccc():
    return cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4))


def object_family():
    # past INT64_COEFF_BOUND, past 2^63 and negative past -2^63
    return singleton_family([
        Sequence([CycloNum(3, [2 ** 40, -(2 ** 70), 5]), -(2 ** 63) - 1, INT64_COEFF_BOUND]),
        Sequence([1, -1, 0]),
    ])


def mixed_family():
    # orders 4, 6 and 1 in one set, lengths 3 and 2 across sets
    i4 = CycloNum.root(4, 1)
    return SequenceFamily([
        SequenceSet([Sequence([i4, 1, -1]), Sequence([CycloNum.root(6, 5), 0, 1]),
                     Sequence([1, 1, -1])]),
        SequenceSet([Sequence([1, 0]), Sequence([i4, i4]), Sequence([-1, CycloNum.root(3, 1)])]),
    ])


def approx_family():
    return SequenceFamily([
        SequenceSet([Sequence([1.0, -0.5j, 2.5 + 1e-17j]), Sequence([0.0, float("inf"), 1.0])]),
        SequenceSet([Sequence([float("nan"), 1.0, -1.0]), Sequence([1e300, -0.0, 3.0])]),
    ])


@pytest.mark.parametrize("build, kind", [
    (int64_ccc, "ccc"),
    (object_family, "raw"),
    (mixed_family, "raw"),
    (approx_family, "raw"),
], ids=["int64", "object", "mixed-orders-and-lengths", "approx-non-finite"])
def test_written_text_is_the_documented_text(tmp_path, build, kind):
    fam = build()
    text = written(tmp_path, fam, kind)
    assert text == documented(fam, kind)
    assert text.count("\n") == 1
    assert_round_trip(text, fam)


def test_dtypes_of_the_cases():
    assert {s.array.dtype for ss in int64_ccc() for s in ss} == {np.dtype(np.int64)}
    assert np.dtype(object) in {s.array.dtype for ss in object_family() for s in ss}
    assert {s.order for ss in mixed_family() for s in ss} == {1, 3, 4, 6}
    assert "Infinity" in documented(approx_family(), "raw")
    assert "NaN" in documented(approx_family(), "raw")


def test_a_shape_reused_with_other_values(tmp_path):
    # the per-shape template is shared, the values are not
    a = singleton_family([Sequence([1, -1, 1])])
    b = singleton_family([Sequence([-1, 1, 1])])
    assert written(tmp_path, a, "raw") == documented(a, "raw")
    assert written(tmp_path, b, "raw") == documented(b, "raw")


class TestCommands:
    def test_gen_canonical(self, tmp_path):
        recipe, out = tmp_path / "r.json", tmp_path / "f.json"
        assert main(["plan", "4", "16", "-o", str(recipe)]) == EXIT_OK
        assert main(["gen", str(recipe), str(out), "--canonical"]) == EXIT_OK
        result = execute(plan(4, [16]))
        fam = canonical_form(result.family)
        text = out.read_text(encoding="utf-8")
        assert text == documented(fam, result.claimed_kind)
        assert_round_trip(text, fam)

    def test_ccc_and_enlarge(self, tmp_path):
        fam = execute(plan(4, [16]), verify=False).family
        src, ccc_path, big_path = (tmp_path / n for n in ("f.json", "c.json", "b.json"))
        src.write_text(documented(fam, "cosf:4"), encoding="utf-8")
        assert main(["ccc", str(src), "dft:4", str(ccc_path)]) == EXIT_OK
        ccc = cosf_to_ccc(fam, dft_matrix(4))
        text = ccc_path.read_text(encoding="utf-8")
        assert text == documented(ccc, "ccc")
        assert_round_trip(text, ccc)
        flags = ["--matrix", "hadamard:2", "--matrix", "dft:2"] * 2
        assert main(["enlarge", str(ccc_path), str(big_path), *flags]) == EXIT_OK
        big = enlarge_ccc(ccc, [hadamard_matrix(2), dft_matrix(2)] * 2)
        text = big_path.read_text(encoding="utf-8")
        assert text == documented(big, "ccc")
        assert_round_trip(text, big)
