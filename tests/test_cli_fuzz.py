"""Malformed documents never crash the command line: every document of
one node changed ends in an exit code, with no traceback."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cocodes import (
    SequenceFamily,
    SequenceSet,
    from_signs,
    generate_cosf,
    hadamard_matrix,
    plan,
)
from cocodes.cli import family_to_doc, main, recipe_to_doc

H2 = {"kind": "custom", "dim": 2, "mode": "exact", "entries": [["+", "+"], ["+", "-"]]}

RECIPE = {
    **recipe_to_doc(plan(2, [8])),
    "base_matrix": H2,
    "post": {"ccc": {"kind": "hadamard", "dim": 2},
             "enlarge": [{"kind": "identity", "dim": 2}, {"kind": "hadamard", "dim": 2}]},
}

# the classic (2,2,{4})-CCC
FAMILY = family_to_doc(SequenceFamily([
    SequenceSet([from_signs("+++-"), from_signs("+-++")]),
    SequenceSet([from_signs("++-+"), from_signs("+---")]),
]), kind="ccc")

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
