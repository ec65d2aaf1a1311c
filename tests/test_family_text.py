"""The CLI's family writer and reader: the text it writes from the
sequences' layers is, byte for byte, json.dumps of the family's
document plus a newline, and it reads back to the same family.  The
reader's array pass gives what json and `family_from_doc` give, or
hands the text on to them."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from cocodes import cli
from cocodes.cli import (
    EXIT_OK,
    _dump_family,
    _family_of_text,
    _load_family,
    family_from_doc,
    family_to_doc,
    main,
)
from cocodes.cyclo import INT64_COEFF_BOUND, ORDER_LIMIT


def documented(fam, kind):
    return json.dumps(family_to_doc(fam, kind)) + "\n"


def written(tmp_path, fam, kind):
    path = tmp_path / "out.json"
    _dump_family(str(path), fam, kind)
    return path.read_text(encoding="utf-8")


def assert_same(back, fam):
    """Equal arrays, shapes and dtypes, sequence by sequence."""
    assert [[s.array.shape for s in ss] for ss in back] == [[s.array.shape for s in ss] for ss in fam]
    for got, want in zip((s for ss in back for s in ss), (s for ss in fam for s in ss)):
        assert got.array.dtype == want.array.dtype
        assert np.array_equal(got.array, want.array, equal_nan=not got.mode == "exact")


def assert_round_trip(text, fam):
    assert_same(family_from_doc(json.loads(text)), fam)


def int64_ccc():
    return cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4))


def object_family():
    # past INT64_COEFF_BOUND, past 2^63 and negative past -2^63
    return singleton_family([
        Sequence([CycloNum(3, [2 ** 40, -(2 ** 70), 5]), -(2 ** 63) - 1, INT64_COEFF_BOUND]),
        Sequence([1, -1, 0]),
    ])


def int64_range_family():
    # Python-int arrays whose values np.fromstring still reads exactly
    return singleton_family([
        Sequence([CycloNum(3, [2 ** 40, -(2 ** 63), 5]), 2 ** 63 - 1, INT64_COEFF_BOUND]),
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


def multi_term_family():
    # two-term entries in one sequence only: the other holds one layer
    return singleton_family([
        Sequence([CycloNum(4, [1, 1, 0, 0]), 1, CycloNum(4, [0, 0, 2, -1])]),
        Sequence([CycloNum.root(4, 1), -1, 1]),
    ])


def layer_forms_family():
    # equal values held in different layer forms, each pair of columns of
    # the first sequence one value: 1 + zeta_4 with its terms in either
    # layer order, 2 zeta_4 as one term and split into two at one
    # exponent, and zeta_4 padded with a zero coefficient at exponent 3
    # and at exponent 0; the second sequence holds them as `layers` does
    exps = np.array([[0, 1, 1, 1, 1, 1], [1, 0, 1, 0, 3, 0]], np.intp)
    coeffs = np.array([[1, 1, 1, 2, 1, 1], [1, 1, 1, 0, 0, 0]], np.int64)
    one_plus, two, root = (CycloNum(4, c) for c in ([1, 1, 0, 0], [0, 2, 0, 0], [0, 1, 0, 0]))
    return singleton_family([
        Sequence._of_terms((4, exps, coeffs)),
        Sequence([one_plus, one_plus, two, two, root, root]),
    ])


def assert_written_as_documented(tmp_path, fam, kind):
    """The writer's text is json.dumps of the document, and a newline;
    it reads no exact sequence's array."""
    text = cli._family_text(fam, kind)
    assert written(tmp_path, fam, kind) == text + "\n"
    # an exact family is written from its layers, so no exact sequence's
    # array is made
    assert all(s._array is None for ss in fam for s in ss if s.mode == "exact")
    assert text == json.dumps(family_to_doc(fam, kind))
    return text + "\n"


@pytest.mark.parametrize("build, kind", [
    (int64_ccc, "ccc"),
    (object_family, "raw"),
    (mixed_family, "raw"),
    (approx_family, "raw"),
    (lambda: enlarge_ccc(int64_ccc(), [dft_matrix(2)] * 4), "ccc"),
    (multi_term_family, "raw"),
    (layer_forms_family, "raw"),
], ids=["int64", "object", "mixed-orders-and-lengths", "approx-non-finite", "enlarged",
        "multi-term", "layer-forms"])
def test_written_text_is_the_documented_text(tmp_path, build, kind):
    fam = build()
    text = assert_written_as_documented(tmp_path, fam, kind)
    assert text.count("\n") == 1
    assert_round_trip(text, fam)


def test_layer_forms_hold_equal_values():
    (held,), (plain,) = layer_forms_family()
    assert np.array_equal(held.array, plain.array)
    assert len(held._terms[1]) == 2 and len(plain._terms[1]) == 2
    assert held._terms[1].tolist() != plain._terms[1].tolist()


@st.composite
def distinct_families(draw):
    """Families of 1-3 sets of 1-3 sequences, each set of one length in
    1..8, at one order in 1..12, whose entries are all distinct, held as
    the layers `Sequence` makes of its entries."""
    order = draw(st.integers(1, 12))
    set_size = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    coeffs = st.one_of(st.sampled_from(INT64_RANGE + PAST_INT64),
                       st.integers(-(2 ** 70), 2 ** 70))
    n = set_size * sum(lengths)
    cols = iter(draw(st.lists(st.tuples(*[coeffs] * order), min_size=n, max_size=n,
                              unique=True)))
    return SequenceFamily(
        SequenceSet(Sequence([CycloNum(order, next(cols)) for _ in range(length)])
                    for _ in range(set_size))
        for length in lengths)


@given(fam=distinct_families())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_families_of_distinct_entries_are_written_as_documented(tmp_path, fam):
    text = assert_written_as_documented(tmp_path, fam, "raw")
    assert_round_trip(text, fam)


def test_the_shape_templates_are_gone():
    # each distinct entry is formatted by the reader's entry template
    assert not hasattr(cli, "_exact_template")


def test_dtypes_of_the_cases():
    assert {s.array.dtype for ss in int64_ccc() for s in ss} == {np.dtype(np.int64)}
    assert np.dtype(object) in {s.array.dtype for ss in object_family() for s in ss}
    assert {s.order for ss in mixed_family() for s in ss} == {1, 3, 4, 6}
    assert "Infinity" in documented(approx_family(), "raw")
    assert "NaN" in documented(approx_family(), "raw")


def test_a_shape_reused_with_other_values(tmp_path):
    # the entry template is shared, the values are not
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


# -- the reader ----------------------------------------------------------


def read(path):
    """`_load_family(path)`, or the type of what it raises."""
    try:
        return _load_family(str(path))
    except Exception as e:
        return type(e)


def read_by_json(path):
    """The family json and `family_from_doc` read, or the type of what
    they raise (a parse error is the CLI's DocumentError)."""
    try:
        return family_from_doc(cli._load_json(str(path)))
    except Exception as e:
        return type(e)


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        assert_same(got, want)


def verify_run(path, capsys):
    code = main(["verify", str(path), "--kind", "ccc"])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("build, kind, array_pass", [
    (int64_ccc, "ccc", True),
    (int64_range_family, "raw", True),
    (object_family, "raw", False),
    (mixed_family, "raw", True),
    (approx_family, "raw", False),
], ids=["int64", "int64-range-objects", "object", "mixed-orders-and-lengths",
        "approx-non-finite"])
def test_reader_gives_the_json_family(tmp_path, build, kind, array_pass):
    fam = build()
    path = tmp_path / "out.json"
    _dump_family(str(path), fam, kind)
    text = path.read_text(encoding="utf-8")
    # values past int64 and approx files are json's
    assert (_family_of_text(text) is not None) == array_pass
    got = _load_family(str(path))
    with open(path, encoding="utf-8") as fh:
        assert_same(got, family_from_doc(json.load(fh)))
    assert_same(got, fam)


def swap_once(old, new):
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


def one_sequence(order):
    coeffs = ", ".join(["1"] + ["0"] * (order - 1))
    return ('{"kind": "raw", "family_size": 1, "set_size": 1, "length_set": [1], '
            f'"mode": "exact", "sets": [[[{{"order": {order}, "coeffs": [{coeffs}]}}]]]}}\n')


# Texts the array pass must hand on to json, each an edit of the file
# the writer makes for `int64_ccc()` (entries at order 4)
REFUSED = {
    "indented": lambda text: json.dumps(json.loads(text), indent=1) + "\n",
    "no-newline": lambda text: text[:-1],
    "minus-zero": swap_once('"coeffs": [1, 0', '"coeffs": [1, -0'),
    "leading-zero": swap_once('"coeffs": [1, 0', '"coeffs": [01, 0'),
    "two-to-the-63": swap_once('"coeffs": [1, 0', f'"coeffs": [{2 ** 63}, 0'),
    "two-to-the-64": swap_once('"coeffs": [1, 0', f'"coeffs": [{2 ** 64}, 0'),
    "minus-two-to-the-63-minus-1": swap_once('"coeffs": [1, 0', f'"coeffs": [{-2 ** 63 - 1}, 0'),
    "lying-family-size": swap_once('"family_size": 4', '"family_size": 5'),
    "lying-length-set": swap_once('"length_set": [', '"length_set": [1, '),
    "order-past-limit": lambda text: one_sequence(ORDER_LIMIT + 1),
    "empty-sequence": lambda text: (
        '{"kind": "raw", "family_size": 2, "set_size": 1, "length_set": [0, 1], '
        '"mode": "exact", "sets": [[[]], [[{"order": 1, "coeffs": [1]}]]]}\n'),
    "truncated": lambda text: text[: len(text) // 2],
    "empty-sets": lambda text: text[:text.index('"sets": ')] + '"sets": []}\n',
    "trailing-comma": swap_once('"coeffs": [1, 0', '"coeffs": [1,, 0'),
    "float": swap_once('"coeffs": [1, 0', '"coeffs": [1.0, 0'),
    "shorthand": swap_once('{"order": 4, "coeffs": [1, 0, 0, 0]}', '"+"'),
    "int-digits": swap_once('"coeffs": [1, 0', '"coeffs": [' + "1" * 5000 + ", 0"),
    "deep-header": swap_once('"kind": "ccc"', '"kind": ' + "[" * 200_000 + "]" * 200_000),
}


@pytest.mark.parametrize("edit", REFUSED.values(), ids=REFUSED.keys())
def test_other_text_goes_through_json(tmp_path, capsys, monkeypatch, edit):
    path = tmp_path / "in.json"
    _dump_family(str(path), int64_ccc(), "ccc")
    text = edit(path.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8")
    assert _family_of_text(text) is None
    assert_same_outcome(read(path), read_by_json(path))
    fast = verify_run(path, capsys)
    monkeypatch.setattr(cli, "_family_of_text", lambda text: None)
    assert verify_run(path, capsys) == fast


def test_order_at_the_limit_takes_the_array_pass(tmp_path):
    text = one_sequence(ORDER_LIMIT)
    fam = _family_of_text(text)
    assert fam is not None and fam[0][0].order == ORDER_LIMIT
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    assert_same(read(path), read_by_json(path))


def test_commands_parse_only_the_headers_of_writer_files(tmp_path, monkeypatch):
    # verify, ccc, enlarge and zone read writer files with json parsing
    # only their headers; json still parses all of an indented copy
    fam = execute(plan(4, [16]), verify=False).family
    src, ccc_path, big_path = (tmp_path / n for n in ("f.json", "c.json", "b.json"))
    _dump_family(str(src), fam, "cosf:4")
    parsed = []
    loads = json.loads
    monkeypatch.setattr(cli.json, "loads", lambda text: parsed.append(len(text)) or loads(text))
    assert main(["verify", str(src), "--kind", "cosf:4"]) == EXIT_OK
    assert main(["ccc", str(src), "dft:4", str(ccc_path)]) == EXIT_OK
    assert main(["enlarge", str(ccc_path), str(big_path), "--matrix", "hadamard:2",
                 "--matrix", "dft:2", "--matrix", "hadamard:2", "--matrix", "dft:2"]) == EXIT_OK
    assert main(["zone", str(big_path)]) == EXIT_OK
    # only the headers, each far shorter than its file
    assert len(parsed) == 4 and max(parsed) < 200
    indented = tmp_path / "i.json"
    indented.write_text(json.dumps(json.loads(big_path.read_text()), indent=1))
    parsed.clear()
    assert main(["zone", str(indented)]) == EXIT_OK
    assert max(parsed) == len(indented.read_text())


# -- the array pass against json, on generated families --------------------

# Coefficients at the int64 and INT64_COEFF_BOUND edges, and past int64
INT64_RANGE = [-1, 0, 1, 2 ** 31 - 1, -(2 ** 31 - 1), 2 ** 31, -(2 ** 31), 2 ** 63 - 1, -(2 ** 63)]
PAST_INT64 = [2 ** 63, -(2 ** 63) - 1, 2 ** 64, -(2 ** 70)]


@st.composite
def exact_families(draw):
    """Families of 1-3 sets of 1-3 sequences, each set of one length in
    1..8 and each sequence of its own order in 1..12; the columns are
    drawn from a small pool (so they repeat) or fresh (all distinct)."""
    coeffs = st.sampled_from(INT64_RANGE + PAST_INT64) if draw(st.booleans()) \
        else st.sampled_from(INT64_RANGE)
    pool = {order: draw(st.lists(st.lists(coeffs, min_size=order, max_size=order),
                                 min_size=1, max_size=3))
            for order in range(1, 13)}
    repeat_columns = draw(st.booleans())

    def sequence(length):
        order = draw(st.integers(1, 12))
        if repeat_columns:
            cols = [draw(st.sampled_from(pool[order])) for _ in range(length)]
        else:
            cols = draw(st.lists(st.lists(coeffs, min_size=order, max_size=order),
                                 min_size=length, max_size=length, unique_by=tuple))
        return Sequence.of_array(np.array(cols, dtype=object).T)

    set_size = draw(st.integers(1, 3))
    return SequenceFamily(
        SequenceSet(sequence(length) for _ in range(set_size))
        for length in draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))


def in_int64(fam):
    return all(-(2 ** 63) <= int(c) < 2 ** 63 for ss in fam for s in ss for c in s.array.ravel())


@given(fam=exact_families())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_families_read_as_json_reads_them(tmp_path, fam):
    path = tmp_path / "gen.json"
    _dump_family(str(path), fam, "raw")
    text = path.read_text(encoding="utf-8")
    got = _load_family(str(path))
    assert_same(got, family_from_doc(json.loads(text)))
    assert_same(got, fam)
    # every file within int64 takes the array pass, one past it json
    assert (_family_of_text(text) is not None) == in_int64(fam)


def test_mixed_orders_that_fill_equal_runs_take_the_array_pass(tmp_path):
    # orders 2, 1, 3: nine numbers, as three entries of order 2 would be
    fam = singleton_family([Sequence([CycloNum(2, [1, 0])]), Sequence([1]),
                            Sequence([CycloNum(3, [1, 0, 0])])])
    assert [s.order for ss in fam for s in ss] == [2, 1, 3]
    path = tmp_path / "out.json"
    _dump_family(str(path), fam, "raw")
    got = _family_of_text(path.read_text(encoding="utf-8"))
    assert got is not None
    assert_same(got, fam)


# -- edits of one occurrence of a repeated entry -----------------------------

# An entry the writer makes four or more times for `int64_ccc()`
REPEATED = '{"order": 4, "coeffs": [1, 0, 0, 0]}'


def edit_second(new):
    """Replace the second occurrence of REPEATED with `new`, so other
    occurrences of the entry stay as the writer wrote them."""
    def edit(text):
        first = text.index(REPEATED)
        second = text.index(REPEATED, first + 1)
        return text[:second] + new + text[second + len(REPEATED):]
    return edit


def move_entry_across_sequences(text):
    """The last entry of the first sequence moved to the front of the
    second one."""
    boundary = text.index("}], [{")
    start = text.rindex("}, {", 0, boundary)
    entry = text[start + len("}, {"):boundary]
    return text[:start] + "}], [{" + entry + "}, {" + text[boundary + len("}], [{"):]


REFUSED_REPEATED = {
    "leading-zero": edit_second('{"order": 4, "coeffs": [01, 0, 0, 0]}'),
    "minus-zero": edit_second('{"order": 4, "coeffs": [1, -0, 0, 0]}'),
    "plus-sign": edit_second('{"order": 4, "coeffs": [+1, 0, 0, 0]}'),
    "extra-space": edit_second('{"order": 4, "coeffs": [ 1, 0, 0, 0]}'),
    "underscore": edit_second('{"order": 4, "coeffs": [1_0, 0, 0, 0]}'),
    "arabic-indic-digit": edit_second('{"order": 4, "coeffs": [١, 0, 0, 0]}'),
    "order-unlike-its-sequence": edit_second('{"order": 2, "coeffs": [1, 0]}'),
    "entry-moved-across-sequences": move_entry_across_sequences,
    "digit-in-a-key": edit_second('{"order": 4, "c1oeffs": [1, 0, 0, 0]}'),
}


def test_the_edited_entry_repeats(tmp_path):
    text = written(tmp_path, int64_ccc(), "ccc")
    assert text.count(REPEATED) >= 4
    moved = move_entry_across_sequences(text)
    assert len(moved) == len(text) and moved != text


@pytest.mark.parametrize("edit", REFUSED_REPEATED.values(), ids=REFUSED_REPEATED.keys())
def test_an_edited_occurrence_goes_through_json(tmp_path, capsys, monkeypatch, edit):
    path = tmp_path / "in.json"
    _dump_family(str(path), int64_ccc(), "ccc")
    text = edit(path.read_text(encoding="utf-8"))
    path.write_text(text, encoding="utf-8")
    assert _family_of_text(text) is None
    assert_same_outcome(read(path), read_by_json(path))
    fast = verify_run(path, capsys)
    monkeypatch.setattr(cli, "_family_of_text", lambda text: None)
    assert verify_run(path, capsys) == fast


def test_entries_that_join_into_writer_entries_are_refused(tmp_path):
    # two entries, neither the writer's, whose text joined by ", " reads
    # as two writer entries: the distinct entries must be checked one by
    # one, not as a run of text
    text = ('{"kind": "raw", "family_size": 1, "set_size": 1, "length_set": [2], '
            '"mode": "exact", "sets": [[[{"order": 1}, '
            '{ "coeffs": [1],"order": 1, "coeffs": [2]}]]]}\n')
    assert _family_of_text(text) is None
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    assert read(path) is read_by_json(path) is cli.DocumentError


@pytest.mark.parametrize("build", [int64_ccc, int64_range_family, mixed_family,
                                   multi_term_family],
                         ids=["int64", "int64-range-objects", "mixed-orders-and-lengths",
                              "multi-term"])
def test_the_array_pass_holds_layers(tmp_path, build):
    # each sequence holds the layers `layers` reads from its array, in the
    # dtype `_fit` gives them, and no array until one is read
    fam = build()
    got = _family_of_text(written(tmp_path, fam, "raw"))
    seqs = [s for ss in got for s in ss]
    assert all(s._array is None for s in seqs)
    for s, want in zip(seqs, (s for ss in fam for s in ss)):
        order, exps, coeffs = s._terms
        assert (order, len(s), s.mode) == (want.order, len(want), want.mode)
        wexps, wcoeffs = cli.layers(want.array, want.order)
        assert coeffs.dtype == wcoeffs.dtype
        assert exps.tolist() == wexps.tolist() and coeffs.tolist() == wcoeffs.tolist()
    assert_same(got, fam)
