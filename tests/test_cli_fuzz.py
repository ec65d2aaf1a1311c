"""Malformed documents never crash the command line: every document of
one node changed ends in an exit code, with no traceback, and every
family file of one character changed is read as json reads it."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cocodes import (
    SequenceFamily,
    SequenceSet,
    ccc_from_unitary,
    dft_matrix,
    from_signs,
    generate_cosf,
    hadamard_matrix,
    plan,
)
from cocodes import cli
from cocodes.cli import _family_text, family_to_doc, main, recipe_to_doc

H2 = {"kind": "custom", "dim": 2, "mode": "exact", "entries": [["+", "+"], ["+", "-"]]}

RECIPE = {
    **recipe_to_doc(plan(2, [8])),
    "base_matrix": H2,
    "post": {"ccc": {"kind": "hadamard", "dim": 2},
             "enlarge": [{"kind": "identity", "dim": 2}, {"kind": "hadamard", "dim": 2}]},
}

# the classic (2,2,{4})-CCC
CLASSIC = SequenceFamily([
    SequenceSet([from_signs("+++-"), from_signs("+-++")]),
    SequenceSet([from_signs("++-+"), from_signs("+---")]),
])
FAMILY = family_to_doc(CLASSIC, kind="ccc")

COSF = family_to_doc(generate_cosf(hadamard_matrix(2), [[0, 1]], [hadamard_matrix(2)]))

POOL = [None, True, -1, 0, 1.5, "x", [], {}, [[1]], 10 ** 6]


def paths(node, prefix=()):
    """Path of every node of a JSON document, the root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from paths(child, prefix + (key,))


def mutated(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def run(name, doc, tmp):
    """Exit code of the command that reads `doc` as document `name`."""
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = str(tmp / "out.json")
    if name == "recipe":
        return main(["gen", str(path), out])
    if name == "family":
        return main(["verify", str(path), "--kind", "ccc"])
    cosf = tmp / "cosf.json"
    cosf.write_text(json.dumps(COSF), encoding="utf-8")
    return main(["ccc", str(cosf), f"@{path}", out])


DOCUMENTS = {"recipe": RECIPE, "family": FAMILY, "matrix": H2}


def test_unmutated_documents_pass():
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in DOCUMENTS.items():
            assert run(name, doc, Path(tmp)) == 0, name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_one_node_mutations_exit_cleanly(data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="document")
    doc = DOCUMENTS[name]
    path = data.draw(st.sampled_from(list(paths(doc))), label="node")
    value = data.draw(st.sampled_from(POOL), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        assert run(name, mutated(doc, path, value), Path(tmp)) in (0, 1, 2, 3)


# Files the writer makes: the (2,2,{4})-CCC above (order 1) and the
# 4x4 CCC of F_4 (order 4)
WRITTEN_FAMILIES = [CLASSIC, ccc_from_unitary(dft_matrix(4))]
WRITTEN = [_family_text(fam, "ccc") + "\n" for fam in WRITTEN_FAMILIES]


def test_written_files_are_the_documented_text():
    assert WRITTEN == [json.dumps(family_to_doc(fam, "ccc")) + "\n" for fam in WRITTEN_FAMILIES]

# characters that make or break the writer's layout, then any character
CHARS = st.one_of(st.sampled_from('0123456789-+., :[]{}"\n\\e'), st.characters())


def verify_text(text, tmp):
    """(exit code, stdout, stderr) of `cocodes verify --kind ccc` on `text`."""
    path = tmp / "family.json"
    path.write_text(text, encoding="utf-8", newline="")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--kind", "ccc"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_one_character_mutations_read_as_json_reads_them(data):
    text = data.draw(st.sampled_from(WRITTEN), label="file")
    edit = data.draw(st.sampled_from(["replace", "delete", "insert"]), label="edit")
    at = data.draw(st.integers(0, len(text) - (edit != "insert")), label="position")
    char = "" if edit == "delete" else data.draw(CHARS, label="character")
    text = text[:at] + char + text[at + (edit != "insert"):]
    with tempfile.TemporaryDirectory() as tmp:
        got = verify_text(text, Path(tmp))
        # the same text read by json and family_from_doc only
        with mock.patch.object(cli, "_family_of_text", lambda text: None):
            assert verify_text(text, Path(tmp)) == got
    assert got[0] in (0, 1, 2, 3)
