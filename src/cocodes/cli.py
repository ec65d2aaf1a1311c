"""Command-line front end and the on-disk document formats.

One JSON-based format covers recipes and families.  Exact scalars
serialize as {"order": K, "coeffs": [...]} with plain (arbitrary
precision) integers; approx scalars as {"re": x, "im": y}.  Any other
input entry is read by `model.scalar` in the document's mode ("+" / "-"
and integers in both modes, floats in approx; booleans and other strings
are refused).  An exact order or coefficient must be a JSON integer, and
a coefficient's magnitude must stay below `COEFF_LIMIT`.
Output is always the normalized form, written as one line of JSON with
json's default separators (", " and ": ") and a newline, and an exact
sequence is written at one order, the lcm of its entries' orders.  A
family file is written from the layers: the distinct entries of each
order of the family are found from the layers and each is `%`-formatted
once, by the entry template the reader checks against, so an exact
sequence's text is a join of its entries' texts, the same text
json.dumps gives its entry list.

A family file whose text is exactly what the writer writes for an exact
family is read in one array pass (`_family_of_text`): each distinct
entry is parsed and checked against the writer's entry template once,
however often it repeats, and every sequence holds the layers of its
entries, as a check reads them.  Any other layout (indented, approx mode,
shorthand entries, ...) goes through json and `family_from_doc`, so both
give the same arrays, or the same error.
There, an exact sequence whose entries are normalized at one order
becomes one array in a single step (int64 unless a coefficient is past
int64), any other one scalar by scalar.

Exit codes: 0 verified success, 1 verification failure,
2 construction impossibility, 3 I/O or parse error (argparse's usage
errors, a malformed `--kind` or matrix shorthand included).  A family, recipe
or `@matrix` file that cannot be read as JSON exits 3 with a
`path: reason` message: a file that is not UTF-8, bad JSON syntax, an
integer of more digits than Python converts (`sys.get_int_max_str_digits`)
and nesting deeper than the recursion limit.  A command that runs out of
memory (a MemoryError, such as numpy's for an array past the address
space) exits 2 with a one-line `error: out of memory` message, not a
traceback: its input is too large to construct or check here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from itertools import chain, count, islice, repeat

import numpy as np

from .corr import DEFAULT_TOL, zccc_zone
from .construct import cosf_to_ccc, enlarge_ccc
from .cyclo import (
    INT64_COEFF_BOUND,
    ORDER_LIMIT,
    CycloNum,
    OrderLimitError,
    check_coefficients,
)
from .matrices import MATRIX_KINDS, MatrixSpec, parse_matrix_shorthand
from .model import (
    APPROX,
    EXACT,
    Sequence,
    SequenceFamily,
    SequenceSet,
    _scatter,
    canonical_form,
    column_cut,
    layers,
    read_only,
    row_terms,
    scalar,
    terms_of,
)
from .planner import (
    Post,
    Recipe,
    Round,
    RoundSplit,
    SubFamilySpec,
    execute,
    parse_kind,
    plan,
    run_check,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONSTRUCT = 2
EXIT_IO = 3


class DocumentError(ValueError):
    """Malformed family or recipe document."""


# -- scalar / family documents ------------------------------------------


def scalar_to_doc(x):
    if isinstance(x, CycloNum):
        return {"order": x.order, "coeffs": list(x.coeffs)}
    z = complex(x)
    return {"re": z.real, "im": z.imag}


def scalar_from_doc(doc, mode: str):
    """Scalar of a document: the normalized form of `mode`, or any other
    value as `model.scalar` reads it in `mode`."""
    try:
        if not isinstance(doc, dict):
            return scalar(doc, mode)
        if mode == EXACT:
            order, coeffs = doc["order"], doc["coeffs"]
            if (type(order) is not int or type(coeffs) is not list
                    or not all(type(c) is int for c in coeffs)):
                raise TypeError("order and coefficients must be integers")
            return CycloNum(order, coeffs)
        real, imag = doc["re"], doc["im"]
        if not {type(real), type(imag)} <= {int, float}:  # no bool
            raise TypeError("re and im must be numbers")
        return complex(real, imag)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DocumentError(f"bad {mode} scalar {doc!r}: {e}") from None


def sequence_to_doc(seq: Sequence) -> list:
    """Normalized entries of a sequence, read off its array."""
    if seq.mode == EXACT:
        order = seq.order
        return [{"order": order, "coeffs": col} for col in seq.array.T.tolist()]
    return [{"re": z.real, "im": z.imag} for z in seq.array[0].tolist()]


def _exact_array(entries):
    """(K, L) coefficient array of a list of normalized exact entries of
    one order K, or None for any other entry list."""
    if type(entries) is not list or not entries:
        return None
    try:
        orders = [x["order"] for x in entries]
        cols = [x["coeffs"] for x in entries]
    except (KeyError, TypeError):
        return None
    order = orders[0]
    # types first: a set of the orders alone would take true for 1
    if (set(map(type, orders)) != {int} or set(orders) != {order}
            or not 1 <= order <= ORDER_LIMIT
            or set(map(type, cols)) != {list}
            or set(map(len, cols)) != {order}
            or set(map(type, chain.from_iterable(cols))) != {int}):
        return None
    try:
        return np.array(cols, dtype=np.int64).T
    except OverflowError:  # a coefficient past int64
        return np.array(cols, dtype=object).T


def sequence_from_doc(entries, mode: str) -> Sequence:
    """Sequence of a document's entry list: exact entries normalized at
    one order become the array in one step, anything else goes scalar by
    scalar."""
    if mode not in (EXACT, APPROX):
        raise DocumentError(f"bad mode {mode!r}")
    if type(entries) is not list:
        raise DocumentError(f"entry list must be a list, got {entries!r}")
    array = _exact_array(entries) if mode == EXACT else None
    if array is None:
        seq = Sequence(scalar_from_doc(x, mode) for x in entries)
    else:
        seq = Sequence.of_array(array)
    coeffs = terms_of(seq)[2]
    if coeffs.dtype == object:  # only coefficients past INT64_COEFF_BOUND
        try:
            check_coefficients(coeffs)
        except ValueError as e:
            raise DocumentError(f"bad exact sequence: {e}") from None
    return seq


def _family_head(fam: SequenceFamily, kind: str) -> dict:
    """Every field of a family document but its sets, in document order."""
    return {
        "kind": kind,
        "family_size": fam.family_size,
        "set_size": fam.set_size,
        "length_set": sorted(fam.length_set),
        "mode": fam.mode,
    }


def family_to_doc(fam: SequenceFamily, kind: str = "raw") -> dict:
    doc = _family_head(fam, kind)
    doc["sets"] = [[sequence_to_doc(seq) for seq in ss] for ss in fam]
    return doc


def _entry_body(order: int) -> str:
    """`%`-template of an exact entry of `order` between its braces, laid
    out as json.dumps lays out {"order": order, "coeffs": [...]}, with one
    `%d` per coefficient.  The writer formats each distinct entry by it,
    and the reader checks each distinct entry against it."""
    return '"order": %d, "coeffs": [%s]' % (order, ", ".join(["%d"] * order))


def _entry_texts(found) -> list:
    """The text of every entry of the layered sequences `found`, all of
    one order K, laid side by side (`row_terms`): the texts json.dumps
    gives their {"order": K, "coeffs": [...]} dicts.

    One sort finds the distinct layer columns; only those are scattered,
    and each is `%`-formatted once by the reader's entry template
    (`_entry_body`).  An int64 layer sorts by one key a term,
    e 2^32 + c + 2^31, exact as |c| < INT64_COEFF_BOUND = 2^31 and
    e < K <= ORDER_LIMIT; Python-int layers by their exponent and
    coefficient rows.  Equal columns are equal entries; an entry held in
    two layer forms is formatted twice, to the same text."""
    order, exps, coeffs = row_terms(found)[:3]
    if coeffs.dtype == object:
        keys = np.vstack([exps, coeffs])
    else:
        keys = exps * 2 ** 32 + (coeffs + 2 ** 31)
    by = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    ordered = keys[:, by]
    new = np.ones(len(by), bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    at = np.empty(len(by), np.intp)
    at[by] = np.cumsum(new) - 1
    first = by[new]
    entry = "{" + _entry_body(order) + "}"
    dense = _scatter(zip(exps[:, first], coeffs[:, first]), order)
    return np.array([entry % tuple(col) for col in dense.T.tolist()], dtype=object)[at].tolist()


def _family_text(fam: SequenceFamily, kind: str) -> str:
    """json.dumps(family_to_doc(fam, kind)).  An exact family is written
    from its layers, those of each order together (`_entry_texts`), so
    no per-entry dict and no sequence's array is made: its entries'
    texts in family order, each sequence's and set's brackets attached
    to its first and last entry, and the header to the first, make the
    text in one ", ".join.  json.dumps writes an approx family, and so
    its non-finite floats (Infinity, NaN), as it always has."""
    if fam.mode != EXACT:
        return json.dumps(family_to_doc(fam, kind))
    seqs = [s for ss in fam for s in ss]
    texts = {k: iter(_entry_texts(terms_of(s) for s in seqs if s.order == k))
             for k in {s.order for s in seqs}}
    entries = []
    for ss in fam:
        opened = len(entries)
        for s in ss:
            entries += islice(texts[s.order], len(s))
            entries[-len(s)] = "[" + entries[-len(s)]
            entries[-1] += "]"
        entries[opened] = "[" + entries[opened]
        entries[-1] += "]"
    entries[0] = json.dumps(_family_head(fam, kind))[:-1] + ', "sets": [' + entries[0]
    entries[-1] += "]}"
    return ", ".join(entries)


# The text `_family_text` writes around the entries of an exact family's
# sets: the key that opens them up to the first entry's brace, then the
# separators between two sets, two sequences of a set and two entries of
# a sequence, and the brackets that close them, then a newline
_SETS_OPEN = ', "sets": [[[{'
_SET_SEP, _SEQ_SEP, _ENTRY_SEP = "}]], [[{", "}], [{", "}, {"
_SETS_CLOSE = '}]]]}\n'
# What ends after an entry, by the separator that follows it less its
# "{": nothing, its sequence, or its sequence and its set
_ENDS = {_ENTRY_SEP[:-1]: 0, _SEQ_SEP[:-1]: 1, _SET_SEP[:-1]: 2}
# The reader joins the distinct entries with ";", which no entry the
# writer makes holds; for np.fromstring it becomes ",", and every other
# character but digits and "-" is deleted: the keys "order" and
# "coeffs", quotes, colons, brackets and spaces
_JOIN = ";"
_NUMBERS = bytes.maketrans(b";", b",")
_ENTRY_LAYOUT = b' "[]:cdefors'


def _entry_orders(flat, distinct):
    """The order of each of the `distinct` entries whose numbers (each
    entry's order, then its coefficients) np.fromstring read as `flat`:
    every order is flat[0] when the numbers fall into equal runs that
    each open with it, else an entry's count of commas.  None when an
    order is out of range or the numbers do not fill the entries."""
    n = len(distinct)
    if not len(flat):
        return None
    order = int(flat[0])
    if 1 <= order <= ORDER_LIMIT and len(flat) == n * (order + 1) and (flat[::order + 1] == order).all():
        return np.full(n, order)
    orders = np.fromiter(map(str.count, distinct, repeat(",")), np.int64, n)
    if not (1 <= orders.min() and orders.max() <= ORDER_LIMIT) or len(flat) != n + orders.sum():
        return None
    return orders


def _family_of_text(text: str):
    """Family of a file's text when the text is exactly what
    `_dump_family` writes for an exact family; None for any other text.

    json parses the header; the sets are read in five steps.
    1. One split at every "{" cuts them into pieces, each an entry
       (`"order": K, "coeffs": [c_1, ..., c_K]`) and the separator after
       it less its "{".  `dict.fromkeys` keeps each distinct piece once,
       in order, and only those are cut into entry and separator; the
       separators say where each sequence and set ends (`_ENDS`).
    2. `dict.fromkeys` keeps each distinct entry once, in order.
    3. One `np.fromstring` parses the distinct entries' join, stripped
       of keys, brackets and spaces (`_entry_orders` cuts its numbers).
    4. The text is taken only when one `%`-format of the distinct
       entries' coefficients, made from the writer's entry template
       (`_entry_body`), gives their join back, every sequence's entries
       share one order and the header is the one the writer gives the
       family.
    5. One `layers` pass per order reads the distinct entries' terms,
       and one gather lays them out for every entry; each sequence holds
       a view of them as its layers, with as many as its entries need.
    Every distinct entry is checked and cut and join are inverses, so a
    text taken is `_family_text(fam, kind) + "\\n"`.  The writer is
    injective, so that family is the one json and `family_from_doc` read
    from the text; a coefficient np.fromstring saturated at int64, a
    leading zero, a "-0", a "+", an order unlike its sequence's, a header
    that does not fit the sets or any other layout fails the check.
    int64 values stay below COEFF_LIMIT, so no coefficient check is
    needed."""
    cut = text.find(_SETS_OPEN)
    if cut < 0 or not text.endswith(_SETS_CLOSE):
        return None
    try:
        head = json.loads(text[:cut] + "}")
    except (ValueError, RecursionError):
        return None
    if type(head) is not dict or head.get("mode") != EXACT:
        return None
    # the writer's entries hold no brace, so a cut at every "{" gives
    # each entry with the separator after it (the last one's is its "}")
    pieces = text[cut + len(_SETS_OPEN):1 - len(_SETS_CLOSE)].split("{")
    pieces[-1] += _SET_SEP[1:-1]  # the last entry ends the last set
    found = dict.fromkeys(pieces)
    cuts = [piece.rpartition("}") for piece in found]
    ends = [_ENDS.get(brace + tail) for _, brace, tail in cuts]
    if None in ends:
        return None
    distinct = dict.fromkeys(entry for entry, _, _ in cuts)
    joined = _JOIN.join(distinct)
    try:
        # unmatched text raises (older numpy warns and stops early,
        # which the check refuses too)
        flat = np.fromstring(joined.encode().translate(_NUMBERS, _ENTRY_LAYOUT),
                             dtype=np.int64, sep=",")
    except ValueError:
        return None
    orders = _entry_orders(flat, distinct)
    if orders is None:
        return None
    bodies = {k: _entry_body(k) for k in set(orders.tolist())}
    if len(bodies) == 1:
        (order, entry), = bodies.items()
        coeffs = flat.reshape(-1, order + 1)[:, 1:].ravel()
        template = _JOIN.join([entry] * len(distinct))
    else:
        coeffs = np.delete(flat, np.cumsum(orders + 1) - (orders + 1))
        template = _JOIN.join(map(bodies.__getitem__, orders.tolist()))
    if template % tuple(coeffs.tolist()) != joined:
        return None
    # each piece's distinct piece (in place when none repeats), so each
    # entry's distinct entry and what ends after it; they give every
    # sequence's length and every set's size
    piece_at = (np.fromiter(map(dict(zip(found, count())).__getitem__, pieces), np.intp, len(pieces))
                if len(found) < len(pieces) else np.arange(len(pieces)))
    index = dict(zip(distinct, count()))
    at = np.array([index[entry] for entry, _, _ in cuts], np.intp)[piece_at]
    ends = np.array(ends)[piece_at]
    stops = np.flatnonzero(ends) + 1
    lengths = np.diff(stops, prepend=0)
    sizes = np.diff(np.flatnonzero(ends[stops - 1] == 2) + 1, prepend=0).tolist()
    seq_orders = orders[at[np.cumsum(lengths) - lengths]]
    if not np.array_equal(orders[at], np.repeat(seq_orders, lengths)):
        return None
    # one scan of the coefficients: when all are below the bound every
    # sequence keeps int64 as `Sequence.of_array` would, else each is
    # refitted from Python ints by its cut
    small = -INT64_COEFF_BOUND < coeffs.min() and coeffs.max() < INT64_COEFF_BOUND
    # the layers of each order's distinct entries, one `layers` pass an
    # order, gathered for the entries of the sequences of that order
    read = {}
    first = np.cumsum(orders) - orders
    for order in set(seq_orders.tolist()):
        if len(bodies) == 1:  # every entry of this order
            dense, cols = coeffs.reshape(-1, order).T, at
        else:
            mine = orders == order
            dense = coeffs[first[mine][:, None] + np.arange(order)].T
            cols = (np.cumsum(mine) - 1)[at[np.repeat(seq_orders == order, lengths)]]
        exps, ints = (x[:, cols] for x in layers(dense, order))
        # read-only, so that every sequence's cut is a read-only view
        read[order] = [read_only((order, exps, ints if small else ints.astype(object))), 0]

    def held(order, length):
        """The next sequence of `order` and `length`, holding its layers
        as `layers` reads its array (`model.column_cut`)."""
        terms, start = read[order]
        read[order][1] = start + length
        return Sequence._of_terms(column_cut(terms, start, start + length, order))

    members = map(held, seq_orders.tolist(), lengths.tolist())
    try:
        fam = SequenceFamily(SequenceSet(islice(members, size)) for size in sizes)
    except ValueError:  # sequences of unequal lengths in a set
        return None
    if json.dumps(_family_head(fam, head.get("kind")))[:-1] != text[:cut]:
        return None
    return fam


def family_from_doc(doc: dict) -> SequenceFamily:
    if not isinstance(doc, dict) or "sets" not in doc:
        raise DocumentError("family document needs a 'sets' field")
    mode = doc.get("mode", EXACT)
    try:
        sets = [
            SequenceSet(sequence_from_doc(seq, mode) for seq in ss)
            for ss in doc["sets"]
        ]
        fam = SequenceFamily(sets)
    except (DocumentError, OrderLimitError):
        raise
    except (TypeError, ValueError) as e:
        raise DocumentError(f"malformed family: {e}") from None
    return fam


# -- recipe documents ----------------------------------------------------


def _int(value, what: str) -> int:
    """A JSON integer: no float, bool or string is read as one."""
    if type(value) is not int:
        raise DocumentError(f"bad {what}: {value!r}")
    return value


def matrix_spec_to_doc(spec: MatrixSpec) -> dict:
    doc = {"kind": spec.kind, "dim": spec.dim}
    if spec.entries is not None:
        # one set: the document has one mode, so mixed modes are refused here
        rows = SequenceSet(row if isinstance(row, Sequence) else Sequence(row)
                           for row in spec.entries)
        doc["entries"] = [sequence_to_doc(row) for row in rows]
        doc["mode"] = rows.mode
    return doc


def matrix_spec_from_doc(doc) -> MatrixSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError(f"bad matrix spec: {doc!r}")
    kind = doc["kind"]
    if kind not in (*MATRIX_KINDS, "custom"):  # a tuple: an unhashable value must not raise
        raise DocumentError(f"unknown matrix kind {kind!r}")
    dim = _int(doc.get("dim"), "matrix dim")
    if dim < 1:
        raise DocumentError(f"matrix spec needs a positive dim, got {dim!r}")
    entries = None
    if kind == "custom":
        raw = doc.get("entries")
        if type(raw) is not list:
            raise DocumentError(f"custom matrix entries must be a list of rows, got {raw!r}")
        try:
            entries = [sequence_from_doc(row, doc.get("mode", EXACT)) for row in raw]
        except (DocumentError, OrderLimitError):
            raise
        except (TypeError, ValueError) as e:
            raise DocumentError(f"malformed matrix: {e}") from None
    return MatrixSpec(kind=kind, dim=dim, entries=entries)


def sub_family_to_doc(sub: SubFamilySpec) -> dict:
    if sub.rows is not None:
        return {"rows": matrix_spec_to_doc(sub.rows)}
    if sub.recipe is not None:
        return {"recipe": recipe_to_doc(sub.recipe)}
    return {"family": family_to_doc(sub.family)}


def sub_family_from_doc(doc) -> SubFamilySpec:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise DocumentError(f"bad sub-family spec: {doc!r}")
    if "rows" in doc:
        return SubFamilySpec(rows=matrix_spec_from_doc(doc["rows"]))
    if "recipe" in doc:
        return SubFamilySpec(recipe=recipe_from_doc(doc["recipe"]))
    if "family" in doc:
        return SubFamilySpec(family=family_from_doc(doc["family"]))
    raise DocumentError(f"bad sub-family spec: {doc!r}")


def recipe_to_doc(recipe: Recipe) -> dict:
    doc = {
        "n": recipe.n,
        "base_matrix": matrix_spec_to_doc(recipe.base_matrix),
        "cells": [list(c) for c in recipe.cells],
        "cell_matrices": [matrix_spec_to_doc(m) for m in recipe.cell_matrices],
        "rounds": [
            {"splits": [
                {"group": s.group,
                 "cells": [list(c) for c in s.cells],
                 "subs": [sub_family_to_doc(x) for x in s.subs]}
                for s in rnd.splits]}
            for rnd in recipe.rounds
        ],
    }
    if recipe.post is not None:
        post = {}
        if recipe.post.ccc is not None:
            post["ccc"] = matrix_spec_to_doc(recipe.post.ccc)
        if recipe.post.enlarge:
            post["enlarge"] = [matrix_spec_to_doc(m) for m in recipe.post.enlarge]
        doc["post"] = post
    return doc


def _objects(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise DocumentError(f"{what} must be a list of objects, got {value!r}")
    return value


def _int_lists(value, what: str) -> list:
    if type(value) is not list or not all(type(c) is list for c in value):
        raise DocumentError(f"bad {what}: {value!r}")
    return [[_int(i, what) for i in c] for c in value]


def recipe_from_doc(doc: dict) -> Recipe:
    if not isinstance(doc, dict):
        raise DocumentError("recipe document must be an object")
    for field in ("n", "base_matrix", "cells", "cell_matrices"):
        if field not in doc:
            raise DocumentError(f"recipe document misses {field!r}")
    n = _int(doc["n"], "n")
    if n < 1:
        raise DocumentError(f"bad n: {n!r}")
    cells = _int_lists(doc["cells"], "cells")
    rounds = []
    for rdoc in _objects(doc.get("rounds", []), "rounds"):
        splits = []
        for sdoc in _objects(rdoc.get("splits", []), "round splits"):
            if "group" not in sdoc or "cells" not in sdoc or "subs" not in sdoc:
                raise DocumentError(f"bad round split: {sdoc!r}")
            splits.append(RoundSplit(
                group=_int(sdoc["group"], "split group"),
                cells=_int_lists(sdoc["cells"], "split cells"),
                subs=[sub_family_from_doc(x) for x in _objects(sdoc["subs"], "subs")],
            ))
        rounds.append(Round(splits=splits))
    post = None
    if "post" in doc:
        pdoc = doc["post"]
        if not isinstance(pdoc, dict):
            raise DocumentError(f"post must be an object, got {pdoc!r}")
        post = Post(
            ccc=matrix_spec_from_doc(pdoc["ccc"]) if "ccc" in pdoc else None,
            enlarge=[matrix_spec_from_doc(m) for m in _objects(pdoc["enlarge"], "enlarge")]
            if "enlarge" in pdoc else None,
        )
    return Recipe(
        n=n,
        base_matrix=matrix_spec_from_doc(doc["base_matrix"]),
        cells=cells,
        cell_matrices=[matrix_spec_from_doc(m)
                       for m in _objects(doc["cell_matrices"], "cell_matrices")],
        rounds=rounds,
        post=post,
    )


# -- file helpers ---------------------------------------------------------


def _load_json(path: str, decode=json.loads):
    """`decode` of a file's text: its JSON document by default.

    Every file the CLI reads goes through here, so that timing or
    counting the bytes of this one function covers all reads; `decode`
    lets a family file be read from its text (`_load_family`), the
    mirror of `_dump_json`'s `encode`.  A file that cannot be read or
    parsed raises DocumentError naming it: one that is not UTF-8, bad
    syntax, an integer past Python's digit limit (a ValueError of its
    own), nesting past the recursion limit.  `decode` raises nothing but
    parse errors (the family reader hands any text it does not take on
    to json), so the errors of building documents keep their exit codes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return decode(fh.read())
    except (OSError, ValueError, RecursionError) as e:
        raise DocumentError(f"{path}: {e}") from None


def _family_or_doc(text: str):
    fam = _family_of_text(text)
    return json.loads(text) if fam is None else fam


def _load_family(path: str) -> SequenceFamily:
    """Family of a family file: the writer's own text in one array pass,
    any other text through json and `family_from_doc`."""
    got = _load_json(path, _family_or_doc)
    return got if isinstance(got, SequenceFamily) else family_from_doc(got)


def _dump_json(path: str, doc, encode=json.dumps) -> None:
    """Write `encode(doc)` and a newline: one line of JSON.  json.dumps
    without indent runs the C encoder; json.dump never does.

    Every file the CLI writes goes through here, so that timing or
    counting the bytes of this one function covers all writes; `encode`
    lets a family be written from its layers (`_dump_family`) rather
    than from a document.  The newline is written on its own, so a large
    text is not copied to append it."""
    text = encode(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _dump_family(path: str, fam: SequenceFamily, kind: str) -> None:
    _dump_json(path, fam, lambda f: _family_text(f, kind))


def _write_ccc(args, out: SequenceFamily) -> int:
    """Check the CCC `out`, write it (canonical on request) and report."""
    report = run_check(out, "ccc", tol=args.tol)
    fam_out = canonical_form(out) if args.canonical else out
    _dump_family(args.out, fam_out, "ccc")
    print(f"wrote {args.out}: {out.family_size} sets x {out.set_size}, "
          f"lengths {sorted(out.length_set)}")
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY


# -- commands --------------------------------------------------------------


def cmd_gen(args) -> int:
    recipe = recipe_from_doc(_load_json(args.recipe))
    result = execute(recipe, verify=True)
    fam = canonical_form(result.family) if args.canonical else result.family
    _dump_family(args.out, fam, result.claimed_kind)
    print(f"wrote {args.out}: {fam.family_size} sets x {fam.set_size}, "
          f"lengths {sorted(fam.length_set)}")
    print(result.render_log())
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(result.render_log() + "\n")
    if not result.verified:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    kind = args.kind
    try:
        parse_kind(kind)
    except ValueError:
        raise DocumentError(f"bad --kind {kind!r}; expected 'ccc' or 'cosf:N'") from None
    fam = _load_family(args.family)
    try:
        report = run_check(fam, kind, tol=args.tol)
    except OrderLimitError:
        raise
    except ValueError as e:
        # structurally not even the claimed kind (e.g. multi-sequence
        # sets offered as a cross-orthogonal family)
        print(f"check {kind}: FAIL\n  problem: {e}")
        return EXIT_VERIFY
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_plan(args) -> int:
    recipe = plan(args.n, args.lengths)
    _dump_json(args.out, recipe_to_doc(recipe))
    print(f"wrote {args.out}: base cells "
          f"{[len(c) for c in recipe.cells]}, {len(recipe.rounds)} rounds")
    return EXIT_OK


def cmd_ccc(args) -> int:
    fam = _load_family(args.family)
    matrix = _matrix_from_arg(args.matrix).build()
    return _write_ccc(args, cosf_to_ccc(fam, matrix))


def cmd_enlarge(args) -> int:
    fam = _load_family(args.family)
    matrices = [_matrix_from_arg(m).build() for m in args.matrix]
    return _write_ccc(args, enlarge_ccc(fam, matrices))


def cmd_zone(args) -> int:
    fam = _load_family(args.family)
    try:
        z = zccc_zone(fam, tol=args.tol)
    except OrderLimitError:
        raise
    except ValueError as e:
        print(f"zone: FAIL\n  {e}", file=sys.stderr)
        return EXIT_VERIFY
    print(z)
    return EXIT_OK


def _matrix_from_arg(text: str) -> MatrixSpec:
    if text.startswith("@"):
        return matrix_spec_from_doc(_load_json(text[1:]))
    try:
        return parse_matrix_shorthand(text)
    except ValueError as e:  # malformed or a dim below 1: a parse error, as in a file
        raise DocumentError(str(e)) from None


# -- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (a missing or unknown
    argument, an unknown command, a value its type refuses) print the
    usage line and exit 3, a parse error: argparse's own exit code 2 is
    the code of a construction impossibility.  Sub-parsers take the
    class of the parser that adds them, so they exit 3 too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cocodes",
        description="Construct and verify complete complementary codes and "
                    "N-shift cross-orthogonal sequence families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="zero tolerance for approx-mode scalars "
                            "(relative to set energy; default 1e-9)")

    p = sub.add_parser("gen", help="execute a recipe file into a family file")
    p.add_argument("recipe")
    p.add_argument("out")
    p.add_argument("--canonical", action="store_true",
                   help="emit the canonical (indexing-normalized) form")
    p.add_argument("--log", help="also write the provenance log here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="verify a family file against a kind")
    p.add_argument("family")
    p.add_argument("--kind", required=True,
                   help="'ccc' or 'cosf:N' (e.g. cosf:2)")
    add_tol(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plan", help="plan a recipe for target lengths")
    p.add_argument("n", type=int, help="shift parameter N")
    p.add_argument("lengths", type=int, nargs="+", help="target lengths")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("ccc", help="map a cross-orthogonal family to a CCC")
    p.add_argument("family")
    p.add_argument("matrix", help="dft:N | hadamard:N | identity:N | @spec.json")
    p.add_argument("out")
    p.add_argument("--canonical", action="store_true")
    add_tol(p)
    p.set_defaults(func=cmd_ccc)

    p = sub.add_parser("enlarge", help="enlarge a CCC with N matrices")
    p.add_argument("family")
    p.add_argument("out")
    p.add_argument("--matrix", action="append", required=True,
                   help="repeatable; dft:N | hadamard:N | identity:N | @spec.json")
    p.add_argument("--canonical", action="store_true")
    add_tol(p)
    p.set_defaults(func=cmd_enlarge)

    p = sub.add_parser("zone", help="print the zero-correlation zone of a CCC")
    p.add_argument("family")
    add_tol(p)
    p.set_defaults(func=cmd_zone)

    return parser


def _check_tol(args) -> None:
    """Refuse a `--tol` that is not a finite number >= 0: inf would pass
    every shift, and nan or a negative value would flag every one."""
    tol = getattr(args, "tol", DEFAULT_TOL)
    if not (math.isfinite(tol) and tol >= 0):
        raise DocumentError(f"bad --tol {tol!r}; expected a finite number >= 0")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tol(args)
        return args.func(args)
    except (DocumentError, OSError, OverflowError) as e:
        # overflow: a number past the float range
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONSTRUCT
    except MemoryError as e:  # numpy's names the array it could not allocate
        print(f"error: out of memory{': ' if str(e) else ''}{e}", file=sys.stderr)
        return EXIT_CONSTRUCT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
