"""Command-line surface: document round-trips, exit codes, and the
end-to-end workflows."""

import json
import time

import pytest

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    ccc_from_unitary,
    cosf_to_ccc,
    dft_matrix,
    equal_up_to_indexing,
    from_signs,
    hadamard_matrix,
    plan,
    singleton_family,
)
from cocodes.cli import (
    EXIT_CONSTRUCT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    DocumentError,
    family_from_doc,
    family_to_doc,
    main,
    recipe_from_doc,
    recipe_to_doc,
    scalar_from_doc,
    scalar_to_doc,
)
from cocodes.cyclo import DIM_LIMIT
from cocodes.matrices import MatrixSpec
from cocodes.planner import Post, Recipe, Round, RoundSplit, SubFamilySpec, execute


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def ccc_family_file(tmp_path, golden_ccc_2x2):
    path = tmp_path / "ccc.json"
    write_json(path, family_to_doc(golden_ccc_2x2, kind="ccc"))
    return path


class TestScalarDocs:
    def test_exact_roundtrip_bigint(self):
        x = CycloNum(6, [10 ** 50, -3, 0, 0, 1, 0])
        doc = scalar_to_doc(x)
        y = scalar_from_doc(json.loads(json.dumps(doc)), "exact")
        assert y.order == 6 and y.coeffs == x.coeffs

    def test_exact_shorthand(self):
        assert scalar_from_doc("+", "exact") == CycloNum.from_int(1)
        assert scalar_from_doc("-", "exact") == CycloNum.from_int(-1)
        assert scalar_from_doc(3, "exact") == CycloNum.from_int(3)

    def test_approx_roundtrip(self):
        doc = scalar_to_doc(1.5 - 2j)
        assert scalar_from_doc(doc, "approx") == 1.5 - 2j

    def test_bad_scalar(self):
        with pytest.raises(DocumentError):
            scalar_from_doc("x", "exact")
        with pytest.raises(DocumentError):
            scalar_from_doc({"order": 2}, "exact")
        for mode in ("exact", "approx"):
            with pytest.raises(DocumentError):
                scalar_from_doc(True, mode)
        with pytest.raises(DocumentError):
            scalar_from_doc(10 ** 400, "approx")


class TestFamilyDocs:
    def test_roundtrip_exact(self, cosf_6_mixed):
        doc = json.loads(json.dumps(family_to_doc(cosf_6_mixed, kind="cosf:6")))
        fam = family_from_doc(doc)
        assert fam.family_size == 6
        for a, b in zip(fam, cosf_6_mixed):
            assert a[0] == b[0]
        assert doc["length_set"] == [12, 24]

    def test_roundtrip_exact_is_bit_identical(self, cosf_6_mixed):
        doc1 = family_to_doc(cosf_6_mixed)
        fam = family_from_doc(json.loads(json.dumps(doc1)))
        doc2 = family_to_doc(fam)
        assert doc1["sets"] == doc2["sets"]

    def test_roundtrip_approx(self):
        fam = singleton_family([Sequence([0.5 + 0.25j, -1 + 0j])])
        doc = family_to_doc(fam)
        back = family_from_doc(json.loads(json.dumps(doc)))
        assert back[0][0] == fam[0][0]

    def test_malformed(self):
        with pytest.raises(DocumentError):
            family_from_doc({"mode": "exact"})
        with pytest.raises(DocumentError):
            family_from_doc({"mode": "weird", "sets": []})
        with pytest.raises(DocumentError):
            # two sequences of different lengths inside one set
            family_from_doc({"sets": [[["+"], ["+", "-"]]]})

    @pytest.mark.parametrize("sets", [[["++-+"]], [["++-+", "+---"]], ["++"]],
                             ids=["one-string", "two-strings", "string-set"])
    def test_entry_list_must_be_a_list(self, tmp_path, capsys, sets):
        path = tmp_path / "f.json"
        write_json(path, {"sets": sets})
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: entry list must be a list") and err.count("\n") == 1


class TestGenCommand:
    def test_gen_and_verify(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        out = tmp_path / "fam.json"
        assert main(["plan", "6", "12", "24", "-o", str(recipe)]) == EXIT_OK
        assert main(["gen", str(recipe), str(out)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS" in captured
        assert main(["verify", str(out), "--kind", "cosf:6"]) == EXIT_OK
        doc = read_json(out)
        assert doc["kind"] == "cosf:6"
        assert doc["length_set"] == [12, 24]

    def test_gen_writes_provenance_log(self, tmp_path):
        recipe = tmp_path / "r.json"
        out = tmp_path / "fam.json"
        log = tmp_path / "prov.txt"
        main(["plan", "2", "16", "-o", str(recipe)])
        assert main(["gen", str(recipe), str(out), "--log", str(log)]) == EXIT_OK
        assert "generate" in log.read_text()

    def test_gen_malformed_recipe(self, tmp_path):
        recipe = tmp_path / "r.json"
        recipe.write_text("{not json", encoding="utf-8")
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_IO

    def test_gen_missing_field(self, tmp_path):
        recipe = tmp_path / "r.json"
        write_json(recipe, {"n": 2})
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_IO

    @pytest.mark.parametrize("change", [
        {"rounds": [5]},
        {"post": [1]},
        {"base_matrix": {"kind": "fourier", "dim": 1}},
        {"n": 0},
        {"rounds": [{"splits": [{"group": 0, "cells": [[0]]}]}]},
        {"rounds": [{"splits": [{"group": 0, "cells": [[0]],
                                 "subs": [{"matrix": {"kind": "identity", "dim": 1}}]}]}]},
    ], ids=["round-not-object", "post-not-object", "unknown-matrix-kind", "n-zero",
            "split-without-subs", "unknown-sub-family-key"])
    def test_gen_malformed_recipe_document(self, tmp_path, change):
        recipe = tmp_path / "r.json"
        write_json(recipe, {
            "n": 1,
            "base_matrix": {"kind": "identity", "dim": 1},
            "cells": [[0]],
            "cell_matrices": [{"kind": "identity", "dim": 1}],
            **change,
        })
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_IO

    def test_gen_construction_error(self, tmp_path):
        recipe = tmp_path / "r.json"
        write_json(recipe, {
            "n": 2,
            "base_matrix": {"kind": "hadamard", "dim": 2},
            "cells": [[0, 1]],
            "cell_matrices": [{"kind": "hadamard", "dim": 4}],
        })
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_CONSTRUCT

    @pytest.mark.parametrize("split", [
        {"group": 1, "cells": [[0, 1]],
         "subs": [{"rows": {"kind": "hadamard", "dim": 2}}]},
        {"group": 0, "cells": [[0], [1]],
         "subs": [{"rows": {"kind": "identity", "dim": 1}}]},
    ], ids=["unknown-group", "cells-vs-subs"])
    def test_gen_bad_round(self, tmp_path, capsys, split):
        recipe = tmp_path / "r.json"
        write_json(recipe, {
            "n": 2,
            "base_matrix": {"kind": "hadamard", "dim": 2},
            "cells": [[0, 1]],
            "cell_matrices": [{"kind": "hadamard", "dim": 2}],
            "rounds": [{"splits": [split]}],
        })
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_CONSTRUCT
        assert "group" in capsys.readouterr().err

    def test_gen_has_no_tol_option(self):
        # gen checks at the default tolerance; `verify --tol` re-checks
        with pytest.raises(SystemExit):
            main(["gen", "r.json", "o.json", "--tol", "1e-3"])

    def test_trivial_recipe(self, tmp_path):
        recipe = tmp_path / "r.json"
        out = tmp_path / "fam.json"
        write_json(recipe, {
            "n": 1,
            "base_matrix": {"kind": "identity", "dim": 1},
            "cells": [[0]],
            "cell_matrices": [{"kind": "identity", "dim": 1}],
        })
        assert main(["gen", str(recipe), str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["family_size"] == 1 and doc["length_set"] == [1]

    def test_gen_with_nested_and_inline_subs(self, tmp_path):
        # the two-round reference elongation, written as one document:
        # one sub-family from matrix rows, one from a nested recipe, one
        # inline
        h2_rows_fam = singleton_family([from_signs("++"), from_signs("+-")])
        recipe = tmp_path / "r.json"
        out = tmp_path / "fam.json"
        write_json(recipe, {
            "n": 6,
            "base_matrix": {"kind": "dft", "dim": 6},
            "cells": [[0, 1], [2, 3, 4, 5]],
            "cell_matrices": [{"kind": "hadamard", "dim": 2},
                              {"kind": "hadamard", "dim": 4}],
            "rounds": [{"splits": [
                {"group": 0, "cells": [[0, 1]],
                 "subs": [{"rows": {"kind": "hadamard", "dim": 2}}]},
                {"group": 1, "cells": [[0, 1], [2, 3]],
                 "subs": [
                     {"family": family_to_doc(h2_rows_fam)},
                     {"recipe": {
                         "n": 2,
                         "base_matrix": {"kind": "hadamard", "dim": 2},
                         "cells": [[0, 1]],
                         "cell_matrices": [{"kind": "hadamard", "dim": 2}],
                     }},
                 ]},
            ]}],
        })
        assert main(["gen", str(recipe), str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["length_set"] == [24, 48, 96]
        assert main(["verify", str(out), "--kind", "cosf:6"]) == EXIT_OK

    def test_gen_refuses_inline_family_not_cross_orthogonal(self, tmp_path, capsys):
        bad = singleton_family([from_signs("++"), from_signs("++")])
        recipe = tmp_path / "r.json"
        write_json(recipe, {
            "n": 2,
            "base_matrix": {"kind": "hadamard", "dim": 2},
            "cells": [[0, 1]],
            "cell_matrices": [{"kind": "hadamard", "dim": 2}],
            "rounds": [{"splits": [{"group": 0, "cells": [[0, 1]],
                                    "subs": [{"family": family_to_doc(bad)}]}]}],
        })
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_CONSTRUCT
        assert "sub-family at (0, 0)" in capsys.readouterr().err

    def test_gen_with_post_steps(self, tmp_path):
        recipe = tmp_path / "r.json"
        out = tmp_path / "fam.json"
        write_json(recipe, {
            "n": 2,
            "base_matrix": {"kind": "hadamard", "dim": 2},
            "cells": [[0, 1]],
            "cell_matrices": [{"kind": "hadamard", "dim": 2}],
            "post": {"ccc": {"kind": "hadamard", "dim": 2},
                     "enlarge": [{"kind": "identity", "dim": 2},
                                 {"kind": "hadamard", "dim": 2}]},
        })
        assert main(["gen", str(recipe), str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["kind"] == "ccc"
        assert doc["family_size"] == doc["set_size"] == 4
        assert main(["verify", str(out), "--kind", "ccc"]) == EXIT_OK

    def test_gen_refuses_enlargement_without_ccc(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        write_json(recipe, {
            "n": 2,
            "base_matrix": {"kind": "hadamard", "dim": 2},
            "cells": [[0, 1]],
            "cell_matrices": [{"kind": "hadamard", "dim": 2}],
            "post": {"enlarge": [{"kind": "hadamard", "dim": 2}] * 2},
        })
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_CONSTRUCT
        assert "enlargement requires the ccc step first" in capsys.readouterr().err

    def test_gen_all_approx_recipe(self, tmp_path):
        entries = [[{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
                   [{"re": 1.0, "im": 0.0}, {"re": -1.0, "im": 0.0}]]
        spec = {"kind": "custom", "dim": 2, "mode": "approx",
                "entries": entries}
        recipe = tmp_path / "r.json"
        out = tmp_path / "fam.json"
        write_json(recipe, {
            "n": 2, "base_matrix": spec, "cells": [[0, 1]],
            "cell_matrices": [spec],
        })
        assert main(["gen", str(recipe), str(out)]) == EXIT_OK
        doc = read_json(out)
        assert doc["mode"] == "approx"
        assert main(["verify", str(out), "--kind", "cosf:2"]) == EXIT_OK

    def test_gen_canonical_flag(self, tmp_path):
        recipe = tmp_path / "r.json"
        main(["plan", "2", "4", "-o", str(recipe)])
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["gen", str(recipe), str(out1)]) == EXIT_OK
        assert main(["gen", str(recipe), str(out2), "--canonical"]) == EXIT_OK
        fam1 = family_from_doc(read_json(out1))
        fam2 = family_from_doc(read_json(out2))
        assert equal_up_to_indexing(fam1, fam2)


class TestVerifyCommand:
    def test_ccc_passes(self, ccc_family_file):
        assert main(["verify", str(ccc_family_file), "--kind", "ccc"]) == EXIT_OK

    def test_sign_flip_caught_with_shift_report(self, tmp_path, golden_ccc_2x2,
                                                capsys):
        broken = SequenceFamily([
            golden_ccc_2x2[0],
            SequenceSet([golden_ccc_2x2[1][0],
                         -golden_ccc_2x2[1][1]]),
        ])
        path = tmp_path / "broken.json"
        write_json(path, family_to_doc(broken, kind="ccc"))
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "tau=" in out

    def test_wrong_kind_divisibility(self, tmp_path):
        fam = singleton_family([from_signs("+++")])
        path = tmp_path / "f.json"
        write_json(path, family_to_doc(fam))
        assert main(["verify", str(path), "--kind", "cosf:2"]) == EXIT_VERIFY

    def test_coefficient_past_float_range(self, tmp_path, capsys, golden_ccc_2x2):
        # the kernel takes exact coefficients below 2^1023 only
        doc = json.loads(json.dumps(family_to_doc(golden_ccc_2x2, kind="ccc")))
        doc["sets"][0][0][0] = {"order": 1, "coeffs": [2 ** 1100]}
        path = tmp_path / "f.json"
        write_json(path, doc)
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("im, energy", [("1e400", "inf"), ("NaN", "nan")], ids=["inf", "nan"])
    def test_approx_entry_past_the_float_range(self, tmp_path, capsys, im, energy):
        # json reads 1e400 as inf; |1 + inf i|^2 is inf, never the nan of inf * conj(inf)
        path = tmp_path / "f.json"
        path.write_text('{"mode": "approx", "sets": [[[{"re": 1, "im": %s}, {"re": 1, "im": 0}]], '
                        '[[{"re": 1, "im": 0}, {"re": -1, "im": 0}]]]}' % im, encoding="utf-8")
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_IO == 3
        assert capsys.readouterr().err == f"error: an approx set energy of {energy} is past the float range\n"

    def test_structural_mismatch(self, ccc_family_file):
        # multi-sequence sets cannot even be tested as a cross-orthogonal
        # family; reported as a verification failure, not a crash
        assert main(["verify", str(ccc_family_file), "--kind", "cosf:2"]) == EXIT_VERIFY

    def test_parse_error(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[", encoding="utf-8")
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_IO

    def test_bad_kind_argument(self, ccc_family_file, capsys):
        # 5,000 digits: past Python's int-string conversion limit
        for kind in ("ccx", "cosf:0", "cosf:" + "9" * 5000):
            assert main(["verify", str(ccc_family_file), "--kind", kind]) == EXIT_IO
            assert "bad --kind" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json"),
                     "--kind", "ccc"]) == EXIT_IO


class TestUnparsableFiles:
    """A file json cannot parse exits 3 with one `path: reason` line,
    whichever command reads it: not UTF-8, an integer past Python's
    digit limit, nesting past the recursion limit."""

    DOCS = {
        "family": '{"kind": "ccc", "mode": "exact", "sets": [[["+", "+"], ["+", "-"]]]}',
        "recipe": '{"n": 2, "base_matrix": {"kind": "hadamard", "dim": 2}, "cells": [[0, 1]], '
                  '"cell_matrices": [{"kind": "hadamard", "dim": 2}]}',
        "matrix": '{"kind": "custom", "dim": 2, "mode": "exact", '
                  '"entries": [["+", "+"], ["+", "-"]]}',
    }
    CASES = {
        "not-utf8": lambda doc: b"\xff\xfe" + doc.encode(),
        "int-digits": lambda doc: doc.replace('"+"', "1" * 5000, 1).replace(
            '"dim": 2', '"dim": ' + "2" * 5000, 1).encode(),
        "deep-nesting": lambda doc: (doc[:-1] + ', "x": ' + "[" * 200_000 + "]" * 200_000
                                     + "}").encode(),
    }

    @staticmethod
    def run(tmp_path, reader, path, cosf):
        out = str(tmp_path / "out.json")
        if reader == "family":
            return main(["verify", str(path), "--kind", "ccc"])
        if reader == "recipe":
            return main(["gen", str(path), out])
        src = tmp_path / "cosf.json"
        write_json(src, family_to_doc(cosf, kind="cosf:2"))
        return main(["ccc", str(src), f"@{path}", out])

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("reader", DOCS)
    def test_exits_3_naming_the_file(self, tmp_path, capsys, cosf_2_of_4, reader, case):
        path = tmp_path / f"{reader}.json"
        path.write_bytes(self.CASES[case](self.DOCS[reader]))
        assert self.run(tmp_path, reader, path, cosf_2_of_4) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("reader", DOCS)
    def test_documents_parse_unchanged(self, tmp_path, cosf_2_of_4, reader):
        # the cases above fail at parsing, not at the documents they edit
        path = tmp_path / f"{reader}.json"
        path.write_text(self.DOCS[reader], encoding="utf-8")
        assert self.run(tmp_path, reader, path, cosf_2_of_4) == EXIT_OK


class TestNonIntegerNumbers:
    """An exact order or coefficient that is not a JSON integer is a
    parse error (exit 3), never truncated to an int, whether the
    sequence is read as one array (every entry normalized at one order)
    or scalar by scalar (here: its last entry is the "+" shorthand)."""

    CASES = {
        "coeff-float": lambda x: {"order": 1, "coeffs": [1.5]},
        "coeff-true": lambda x: {"order": 1, "coeffs": [True]},
        "order-float": lambda x: {"order": 2.7, "coeffs": x["coeffs"] + [0]},
        # true == 1, so a set of the orders alone would not tell it apart
        "order-true": lambda x: {"order": True, "coeffs": x["coeffs"]},
        "coeff-string": lambda x: {"order": 1, "coeffs": ["7"]},
    }

    @pytest.mark.parametrize("path", ["array", "scalar"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused(self, tmp_path, capsys, golden_ccc_2x2, case, path):
        doc = json.loads(json.dumps(family_to_doc(golden_ccc_2x2, kind="ccc")))
        seq = doc["sets"][0][0]
        mutate = self.CASES[case]
        if case == "order-float":
            seq[:] = [mutate(x) for x in seq]
        else:
            seq[1] = mutate(seq[1])
        if path == "scalar":
            seq[-1] = "+"
        file = tmp_path / "f.json"
        write_json(file, doc)
        assert main(["verify", str(file), "--kind", "ccc"]) == EXIT_IO
        assert "must be integers" in capsys.readouterr().err

    # the five integers of a recipe document: (their container, key)
    RECIPE_SITES = {
        "n": (lambda doc: doc, "n"),
        "dim": (lambda doc: doc["base_matrix"], "dim"),
        "cells": (lambda doc: doc["cells"][0], 0),
        "split-cells": (lambda doc: doc["rounds"][0]["splits"][0]["cells"][0], 0),
        "split-group": (lambda doc: doc["rounds"][0]["splits"][0], "group"),
    }

    @pytest.mark.parametrize("value", [1.7, True, "1"], ids=["float", "true", "string"])
    @pytest.mark.parametrize("site", sorted(RECIPE_SITES))
    def test_recipe_refused(self, tmp_path, capsys, site, value):
        # int() would read 1.7, true and "1" all as 1
        doc = recipe_to_doc(plan(2, [8]))
        container, key = self.RECIPE_SITES[site]
        container(doc)[key] = value
        recipe = tmp_path / "r.json"
        write_json(recipe, doc)
        assert main(["gen", str(recipe), str(tmp_path / "o.json")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o.json").exists()

    def test_scalar_doc_refuses_non_integers(self):
        for doc in ({"order": 1, "coeffs": [1.5]}, {"order": 1, "coeffs": [False]},
                    {"order": 2.0, "coeffs": [1, 0]}, {"order": 1, "coeffs": "7"}):
            with pytest.raises(DocumentError):
                scalar_from_doc(doc, "exact")
        with pytest.raises(DocumentError):
            scalar_from_doc({"re": True, "im": 0}, "approx")


class TestOrderCap:
    """A family whose entry orders have an lcm above ORDER_LIMIT is a
    refused construction (exit 2), whether the cap is hit while the
    document is read or while it is checked."""

    Z101 = {"order": 101, "coeffs": [0, 1] + [0] * 99}
    Z103 = {"order": 103, "coeffs": [0, 1] + [0] * 101}

    @pytest.mark.parametrize("sets", [
        [[[Z101, Z103]]],
        [[[Z101, Z101]], [[Z103, Z103]]],
    ], ids=["one-sequence", "two-sets"])
    @pytest.mark.parametrize("argv", [["verify", "--kind", "ccc"],
                                      ["verify", "--kind", "cosf:1"],
                                      ["zone"]],
                             ids=["verify-ccc", "verify-cosf", "zone"])
    def test_order_cap_exits_construct(self, tmp_path, capsys, sets, argv):
        path = tmp_path / "fam.json"
        write_json(path, {"kind": "ccc", "mode": "exact", "sets": sets})
        assert main([argv[0], str(path)] + argv[1:]) == EXIT_CONSTRUCT
        assert "exceeds" in capsys.readouterr().err


class TestPlanCommand:
    def test_unconstructible_exit(self, tmp_path, capsys):
        code = main(["plan", "2", "6", "-o", str(tmp_path / "r.json")])
        assert code == EXIT_CONSTRUCT
        assert "3 > 2" in capsys.readouterr().err


class TestDimCap:
    """A matrix or shift parameter above DIM_LIMIT is refused (exit 2)
    before anything of its size is built."""

    def test_ccc_matrix_above_cap(self, tmp_path, capsys, cosf_2_of_4):
        src = tmp_path / "cosf.json"
        write_json(src, family_to_doc(cosf_2_of_4, kind="cosf:2"))
        start = time.perf_counter()
        code = main(["ccc", str(src), f"dft:{DIM_LIMIT + 1}",
                     str(tmp_path / "o.json")])
        assert code == EXIT_CONSTRUCT
        assert time.perf_counter() - start < 0.5
        assert str(DIM_LIMIT) in capsys.readouterr().err

    def test_plan_above_cap(self, tmp_path, capsys):
        big = str(DIM_LIMIT + 1)
        start = time.perf_counter()
        assert main(["plan", big, big, "-o", str(tmp_path / "r.json")]) == EXIT_CONSTRUCT
        assert time.perf_counter() - start < 0.5
        assert str(DIM_LIMIT) in capsys.readouterr().err


class TestMatrixShorthand:
    """A matrix shorthand that does not parse, or whose dim is below 1, is
    a parse error (exit 3), as the same spec in an `@file` is; a dim past
    DIM_LIMIT or a Hadamard order with no matrix is a construction
    impossibility (exit 2)."""

    @pytest.mark.parametrize("arg, code", [
        ("dft:x", EXIT_IO),
        ("fourier:4", EXIT_IO),
        ("dft:0", EXIT_IO),
        ("dft:\u00b2", EXIT_IO),  # a digit to str.isdigit, no int to int()
        (f"dft:{DIM_LIMIT + 1}", EXIT_CONSTRUCT),
        ("hadamard:3", EXIT_CONSTRUCT),
    ], ids=["not-a-number", "unknown-kind", "dim-0", "superscript", "past-cap", "hadamard-3"])
    @pytest.mark.parametrize("command", ["ccc", "enlarge"])
    def test_exit_code(self, tmp_path, capsys, cosf_2_of_4, ccc_family_file, command, arg,
                       code):
        out = str(tmp_path / "o.json")
        if command == "ccc":
            src = tmp_path / "cosf.json"
            write_json(src, family_to_doc(cosf_2_of_4, kind="cosf:2"))
            argv = ["ccc", str(src), arg, out]
        else:
            argv = ["enlarge", str(ccc_family_file), out, "--matrix", arg, "--matrix", arg]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_dim_0_file_exits_as_the_shorthand(self, tmp_path, capsys, cosf_2_of_4):
        src, mat = tmp_path / "cosf.json", tmp_path / "m.json"
        write_json(src, family_to_doc(cosf_2_of_4, kind="cosf:2"))
        write_json(mat, {"kind": "dft", "dim": 0})
        for arg in (f"@{mat}", "dft:0"):
            assert main(["ccc", str(src), arg, str(tmp_path / "o.json")]) == EXIT_IO
            assert "dim" in capsys.readouterr().err

    def test_superscript_kind_refused_as_parse_error(self, ccc_family_file, capsys):
        assert main(["verify", str(ccc_family_file), "--kind", "cosf:\u00b2"]) == EXIT_IO
        assert "bad --kind" in capsys.readouterr().err


class TestCccCommand:
    def test_ccc_from_cosf_file(self, tmp_path, cosf_2_of_4):
        src = tmp_path / "cosf.json"
        out = tmp_path / "ccc.json"
        write_json(src, family_to_doc(cosf_2_of_4, kind="cosf:2"))
        assert main(["ccc", str(src), "hadamard:2", str(out)]) == EXIT_OK
        assert main(["verify", str(out), "--kind", "ccc"]) == EXIT_OK
        fam = family_from_doc(read_json(out))
        assert fam[0][0] == from_signs("+++-")
        assert fam[0][1] == from_signs("+-++")

    def test_ccc_rejects_bad_input(self, tmp_path):
        src = tmp_path / "bad.json"
        fam = singleton_family([from_signs("++"), from_signs("++")])
        write_json(src, family_to_doc(fam))
        assert main(["ccc", str(src), "hadamard:2",
                     str(tmp_path / "o.json")]) == EXIT_CONSTRUCT

    def test_custom_matrix_file(self, tmp_path, cosf_2_of_4):
        src = tmp_path / "cosf.json"
        out = tmp_path / "ccc.json"
        mat = tmp_path / "mat.json"
        write_json(src, family_to_doc(cosf_2_of_4, kind="cosf:2"))
        write_json(mat, {"kind": "custom", "dim": 2, "mode": "exact",
                         "entries": [["+", "+"], ["+", "-"]]})
        assert main(["ccc", str(src), f"@{mat}", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 8.00 GiB for an array with shape "
                    "(64, 64, 4096, 64) and data type int64"),
        MemoryError(),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_construct(self, tmp_path, capsys, monkeypatch, cosf_2_of_4,
                                           error):
        # the 64-CO-SF with DFT-64 needs 8.6 GB dense: running out of memory
        # is not a verification failure (exit 1) and prints no traceback
        import cocodes.cli as cli

        def exhausted(*args):
            raise error

        src = tmp_path / "cosf.json"
        write_json(src, family_to_doc(cosf_2_of_4, kind="cosf:2"))
        monkeypatch.setattr(cli, "cosf_to_ccc", exhausted)
        assert main(["ccc", str(src), "hadamard:2", str(tmp_path / "o.json")]) == EXIT_CONSTRUCT
        err = capsys.readouterr().err
        assert err == f"error: out of memory{': ' if str(error) else ''}{error}\n"
        assert not (tmp_path / "o.json").exists()


class TestMatrixDocs:
    """A custom matrix document is a list of rows, each read like a
    family sequence and under the family reader's mode check."""

    H2_ENTRIES = [["+", "+"], ["+", "-"]]

    def run(self, tmp_path, command, spec, cosf):
        out = str(tmp_path / "o.json")
        if command == "gen":
            recipe = tmp_path / "r.json"
            write_json(recipe, {"n": 2, "base_matrix": spec, "cells": [[0, 1]],
                                "cell_matrices": [{"kind": "hadamard", "dim": 2}]})
            return main(["gen", str(recipe), out])
        src, mat = tmp_path / "cosf.json", tmp_path / "m.json"
        write_json(src, family_to_doc(cosf, kind="cosf:2"))
        write_json(mat, spec)
        return main(["ccc", str(src), f"@{mat}", out])

    @pytest.mark.parametrize("change", [
        {"mode": "fuzzy"}, {"entries": 5}, {"entries": True},
        {"entries": [None, ["+", "-"]]}, {"entries": [["+", "+"], 1.5]},
    ], ids=["bad-mode", "int", "true", "null-row", "float-row"])
    @pytest.mark.parametrize("command", ["gen", "ccc"])
    def test_malformed_document_refused(self, tmp_path, capsys, cosf_2_of_4, command,
                                        change):
        spec = {"kind": "custom", "dim": 2, "mode": "exact", "entries": self.H2_ENTRIES,
                **change}
        assert self.run(tmp_path, command, spec, cosf_2_of_4) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if "mode" in change:
            assert "bad mode 'fuzzy'" in err

    @pytest.mark.parametrize("command", ["gen", "ccc"])
    def test_empty_rows_refused_as_parse_error(self, tmp_path, capsys, cosf_2_of_4,
                                               command):
        # the same empty sequence in a family document exits 3 as well
        spec = {"kind": "custom", "dim": 2, "mode": "exact", "entries": [[], []]}
        assert self.run(tmp_path, command, spec, cosf_2_of_4) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: malformed matrix: ") and err.count("\n") == 1

    def test_recipe_writers_round_trip_through_json(self):
        # custom entries (one row mixing orders 1 and 2), a nested recipe,
        # an inline family and post.enlarge, written and read back
        h2 = MatrixSpec("custom", 2, entries=[[1, 1], [1, CycloNum.root(2, 1)]])
        nested = Recipe(n=2, base_matrix=MatrixSpec("hadamard", 2), cells=[[0, 1]],
                        cell_matrices=[h2])
        inline = singleton_family([from_signs("++"), from_signs("+-")])
        recipe = Recipe(
            n=6, base_matrix=MatrixSpec("dft", 6), cells=[[0, 1], [2, 3, 4, 5]],
            cell_matrices=[h2, MatrixSpec("hadamard", 4)],
            rounds=[Round(splits=[
                RoundSplit(group=0, cells=[[0, 1]],
                           subs=[SubFamilySpec(rows=MatrixSpec("hadamard", 2))]),
                RoundSplit(group=1, cells=[[0, 1], [2, 3]],
                           subs=[SubFamilySpec(family=inline), SubFamilySpec(recipe=nested)]),
            ])],
            post=Post(ccc=MatrixSpec("dft", 6),
                      enlarge=[h2, MatrixSpec("hadamard", 2), MatrixSpec("identity", 2),
                               MatrixSpec("dft", 2), h2, MatrixSpec("hadamard", 2)]))
        text = json.dumps(recipe_to_doc(recipe))
        back = recipe_from_doc(json.loads(text))
        want, got = execute(recipe, verify=False), execute(back, verify=False)
        assert family_to_doc(got.family) == family_to_doc(want.family)
        assert got.claimed_kind == "ccc" and execute(back).verified
        # the row read back is normalized to order 2; its values stand
        rows = back.cell_matrices[0].entries
        assert [s.order for s in rows] == [1, 2]
        assert [list(s) for s in rows] == h2.entries
        assert json.dumps(recipe_to_doc(recipe_from_doc(json.loads(
            json.dumps(recipe_to_doc(back)))))) == json.dumps(recipe_to_doc(back))


class TestEnlargeCommand:
    def test_enlarge_twice_matrix_flags(self, tmp_path, ccc_family_file):
        out = tmp_path / "big.json"
        code = main(["enlarge", str(ccc_family_file), str(out),
                     "--matrix", "identity:2", "--matrix", "hadamard:2"])
        assert code == EXIT_OK
        doc = read_json(out)
        assert doc["family_size"] == 4 and doc["set_size"] == 4
        assert main(["verify", str(out), "--kind", "ccc"]) == EXIT_OK

    def test_enlarge_count_mismatch(self, tmp_path, ccc_family_file):
        code = main(["enlarge", str(ccc_family_file), str(tmp_path / "o.json"),
                     "--matrix", "identity:2"])
        assert code == EXIT_CONSTRUCT


class TestZoneCommand:
    def test_zone_prints_width(self, tmp_path, capsys):
        fam = ccc_from_unitary(dft_matrix(4))
        path = tmp_path / "c.json"
        write_json(path, family_to_doc(fam, kind="ccc"))
        assert main(["zone", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "3"

    def test_zone_rejects_non_ccc(self, tmp_path, golden_cs_pair):
        fam = SequenceFamily([golden_cs_pair, golden_cs_pair])
        path = tmp_path / "c.json"
        write_json(path, family_to_doc(fam))
        assert main(["zone", str(path)]) == EXIT_VERIFY


class TestTolArgument:
    """`--tol` must be a finite number >= 0: inf would pass every shift of
    a near-miss, nan or a negative value would flag every shift of a
    clean family."""

    @staticmethod
    def near_miss(tmp_path):
        """An approx 2x2 CCC of length 8 with one entry off by 1e-3."""
        ccc = cosf_to_ccc(execute(plan(2, [8]), verify=False).family, hadamard_matrix(2))
        sets = [[[complex(x.numeric()) for x in seq] for seq in ss] for ss in ccc]
        sets[0][0][0] *= 1 + 1e-3
        fam = SequenceFamily(SequenceSet(Sequence(seq) for seq in ss) for ss in sets)
        path = tmp_path / "near.json"
        write_json(path, family_to_doc(fam, kind="ccc"))
        return path

    def test_finite_tolerances_still_decide(self, tmp_path):
        path = self.near_miss(tmp_path)
        assert main(["verify", str(path), "--kind", "ccc"]) == EXIT_VERIFY
        assert main(["verify", str(path), "--kind", "ccc", "--tol", "0"]) == EXIT_VERIFY
        assert main(["verify", str(path), "--kind", "ccc", "--tol", "1e-2"]) == EXIT_OK

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf"])
    @pytest.mark.parametrize("command", ["verify", "zone", "ccc", "enlarge"])
    def test_refused_naming_tol(self, tmp_path, capsys, tol, command):
        path = self.near_miss(tmp_path)
        out = tmp_path / "out.json"
        argv = {"verify": ["verify", str(path), "--kind", "ccc"],
                "zone": ["zone", str(path)],
                "ccc": ["ccc", str(path), "hadamard:2", str(out)],
                "enlarge": ["enlarge", str(path), str(out),
                            "--matrix", "hadamard:2", "--matrix", "hadamard:2"]}[command]
        assert main(argv + [f"--tol={tol}"]) == EXIT_IO
        captured = capsys.readouterr()
        assert "--tol" in captured.err and "PASS" not in captured.out
        assert not out.exists()


class TestUsageErrors:
    """argparse's usage errors are parse errors: exit 3 with the usage
    line, never 2, the code of a construction impossibility."""

    @pytest.mark.parametrize("argv", [
        ["verify", "f.json"],
        ["plan", "2", "abc", "-o", "r.json"],
        ["frobnicate"],
        [],
        ["verify", "f.json", "--kind", "ccc", "--tol", "-inf"],
        ["gen", "r.json", "o.json", "--tol", "1e-3"],
    ], ids=["no-kind", "length-not-int", "unknown-command", "no-command",
            "tol-read-as-an-option", "unknown-option"])
    def test_exit_3_with_the_usage_line(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("usage: cocodes") and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code in (0, None)
        assert "usage: cocodes" in capsys.readouterr().out


class TestWorkflow:
    def test_plan_gen_ccc_enlarge_zone(self, tmp_path):
        recipe = tmp_path / "r.json"
        fam = tmp_path / "f.json"
        ccc = tmp_path / "c.json"
        big = tmp_path / "b.json"
        assert main(["plan", "2", "4", "-o", str(recipe)]) == EXIT_OK
        assert main(["gen", str(recipe), str(fam)]) == EXIT_OK
        assert main(["ccc", str(fam), "hadamard:2", str(ccc)]) == EXIT_OK
        assert main(["enlarge", str(ccc), str(big),
                     "--matrix", "hadamard:4", "--matrix", "hadamard:4"]) == EXIT_OK
        doc = read_json(big)
        assert doc["family_size"] == 8
        assert main(["verify", str(big), "--kind", "ccc"]) == EXIT_OK
        assert main(["zone", str(ccc)]) == EXIT_OK
