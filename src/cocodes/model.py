"""Sequences, sequence sets, and sequence families.

A family is an ordered list of ordered sets: correlation sums pair
sequences *by index*, so order is part of the semantics.  The usual
"same except for indexing" identification is provided as an explicit
canonicalization pass (`canonical_form` / `equal_up_to_indexing`)
rather than by storing anything unordered.

Scalars come in two modes that never mix inside one family:
  exact  - CycloNum (roots of unity and their integer combinations)
  approx - Python complex
`scalar` is the one coercion into them: CycloNum exact, float or complex
approx, int or "+" / "-" exact unless the context is approx (a Sequence
is approx when any entry is a float or complex, its ints following).

A Sequence holds one store, its layered sequence (see below); its
read-only array is only a cache, the scatter of the layers made on
first read and kept.
An exact sequence of length L is a (K, L) integer array with K the lcm
of its entries' orders: row j holds the coefficients of zeta_K^j, so
column l is entry l in Z[zeta_K].  Its dtype follows its values: int64
when every coefficient is below `INT64_COEFF_BOUND` in magnitude (the
paper's constructions use roots of unity, so nearly always), Python ints
(dtype=object) otherwise.  An approx sequence is a (1, L) complex array,
the layout of an exact sequence of order 1; `is_exact` tells the two
modes apart by dtype kind.  A CycloNum is built from a column only when
an entry is read; zero is decided by `cyclo.zero_rows`.

Every operator (`Sequence.scale`, the connection, which also makes the
expansions and entrywise products, and `energies`) forms its products in
one kernel over the `layers` of its operands: an array read as t layers
of one (exponent, coefficient) per column, t the most nonzero terms any
column has.  A sequence of roots of unity is one layer; a zero entry is
coefficient 0.  Each pair of layers gives one product per entry,
exponents added mod K (`_products`), so the cost follows the layers, not
K.  The dense result (`multiply`) is the scatter-add of those products
into zeros.  int64 products stay below 2^62 and are summed as Python
ints when the largest times the number of layer pairs could reach 2^63.
An approx array is one layer: a zero factor gives 0, never 0 * inf, and
every sum starts from 0.

Every Sequence holds its layered sequence, an (order, exponents,
coefficients) triple, which every operator and check reads through
`terms_of` and lays side by side (`row_terms`, `cell_terms`), and from
which its order, mode and length are read.  The product of two exact
single-layer operands is one layer: one exponent add and one coefficient
product (`layer_product`).  Any other product is scattered and read
back, so the layers never outgrow the terms.  Coefficients are always in
the dtype `_fit` gives them.  A constructed Sequence holds its layers as
built (`Sequence._of_terms`); an expansion output holds a cut of its
connection's columns (`column_cut`), as do the sequences the CLI reads
from its own files.  An exact Sequence built from scalars takes the
nonzero terms of each distinct scalar once and gathers them per entry
(`_monomial_layers`); `Sequence.of_array` reads its array by one
`layers` pass and keeps it as the cache; an approx Sequence is one
layer, its complex row at exponent 0.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Union

import numpy as np

from .cyclo import INT64_COEFF_BOUND, CycloNum, common_order, reduce_rows, reducible, zero_rows

Scalar = Union[CycloNum, complex]

EXACT = "exact"
APPROX = "approx"

# canonical_form enumerates all column permutations; past this the
# factorial search is no longer a desk-scale operation
CANONICAL_DIM_LIMIT = 8


class ModeMismatchError(ValueError):
    """Exact and approx scalars mixed inside one sequence or family."""


class CanonicalSearchError(ValueError):
    """Canonical form requested for a family wider than the search guard."""


def scalar(x, mode: str) -> Scalar:
    """Raw entry `x` as a scalar of `mode` by the rule above; a bool or
    other type raises TypeError, another string ValueError, a scalar of
    the other mode ModeMismatchError."""
    if isinstance(x, (CycloNum, float, complex)):
        own = EXACT if isinstance(x, CycloNum) else APPROX
        if mode != own:
            raise ModeMismatchError(f"{own} scalar {x!r} in an {mode} context")
        return x if own == EXACT else complex(x)
    if isinstance(x, str):
        if x not in ("+", "-"):
            raise ValueError(f"not a scalar: {x!r}")
        x = 1 if x == "+" else -1
    elif isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"not a scalar: {x!r}")
    return complex(x) if mode == APPROX else CycloNum.from_int(x)


def scalar_is_zero(x: Scalar, tol: float = 0.0) -> bool:
    if isinstance(x, CycloNum):
        return x.is_zero()
    return abs(x) <= tol


def scalar_numeric(x: Scalar) -> complex:
    return x.numeric() if isinstance(x, CycloNum) else complex(x)


# -- coefficient arrays ------------------------------------------------


def is_exact(a: np.ndarray) -> bool:
    """Whether an array (of coefficients, terms or sums) is exact, read
    from its dtype kind: integers and Python ints are exact, complex
    (and float) values approx."""
    return a.dtype.kind not in "fc"


def _fit(a: np.ndarray) -> np.ndarray:
    """An exact array in the dtype its values call for: int64 when every
    coefficient is below INT64_COEFF_BOUND in magnitude, Python ints
    otherwise; an approx array unchanged.  Only Python-int arrays are
    scanned in Python; the operators make them only past the bound."""
    if not is_exact(a):
        return a
    if a.dtype == object:
        peak = max(a.max(), -a.min())
        return a.astype(np.int64) if peak < INT64_COEFF_BOUND else a
    if a.max() >= INT64_COEFF_BOUND or a.min() <= -INT64_COEFF_BOUND:
        return a.astype(object)
    return a if a.dtype == np.int64 else a.astype(np.int64)


def _promote(a: np.ndarray, order: int) -> np.ndarray:
    """Exact array re-expressed over zeta_order; len(a) must divide order."""
    if len(a) == order:
        return a
    out = np.zeros((order, a.shape[1]), dtype=a.dtype)
    out[::order // len(a)] = a
    return out


def layers(a: np.ndarray, order: int) -> tuple:
    """The nonzero terms of a (K, L) array, K dividing `order`, as two
    (t, L) arrays: exponents over zeta_order and coefficients, term k of
    each column (by row) in layer k.  t is the most terms any column has,
    and at least 1; a column of fewer terms is padded with a zero
    coefficient at exponent 0.  A zero entry (-0.0 too) is no term."""
    step = order // len(a)
    sums = a.sum(axis=0)
    if np.count_nonzero(a) == np.count_nonzero(sums):
        # at most one term in every column, so its sum is that term, and
        # its row (0 for none) the sum of the rows j times [a[j] != 0]
        return np.einsum("j,jl->l", np.arange(0, order, step), a != 0)[None], sums[None]
    nonzero = a != 0
    counts = np.count_nonzero(nonzero, axis=0)
    cols, rows = np.nonzero(nonzero.T)
    depth = np.arange(len(cols)) - (np.cumsum(counts) - counts)[cols]
    shape = (counts.max(), a.shape[1])
    exps, coeffs = np.zeros(shape, np.intp), np.zeros(shape, a.dtype)
    exps[depth, cols] = rows * step
    coeffs[depth, cols] = a[rows, cols]
    return exps, coeffs


def _monomial_layers(values, order: int) -> tuple:
    """(exponents, coefficients) of n coefficient tuples, each of an order
    dividing `order`, as `layers` reads their (order, n) array: value i's
    nonzero terms, by exponent over zeta_order, in column i of layers 0,
    1, ...; padded with zero coefficients at exponent 0 to the most terms
    any has, and at least one.  Coefficients are in the dtype `_fit`
    gives them."""
    terms = [[(j * (order // len(c)), x) for j, x in enumerate(c) if x] or [(0, 0)]
             for c in values]
    depth = max(map(len, terms))
    if depth > 1:
        terms = [t + [(0, 0)] * (depth - len(t)) for t in terms]
    exps, coeffs = zip(*(zip(*t) for t in terms))
    try:
        coeffs = np.array(coeffs, np.int64).T
    except OverflowError:  # a coefficient past int64
        coeffs = np.array(coeffs, object).T
    return np.array(exps, np.intp).T, _fit(coeffs)


@lru_cache(maxsize=64)
def _wrap(order: int) -> np.ndarray:
    """e mod order for every e below 2 * order: a sum of two exponents."""
    wrap = np.arange(2 * order) % order
    wrap.flags.writeable = False
    return wrap


def _products(a: tuple, b: tuple, order: int):
    """The entrywise products of two layered operands, each the (exponents
    over zeta_order, coefficients) of `layers` with entry shapes that
    broadcast: per pair of a layer of `a` and a layer of `b`, in that
    order, (exponents, coefficients) of its n products, n the entries of
    the broadcast shape in row-major order.

    A pair gives c * d at exponent e + f mod order (through a 2 * order
    wrap table).  int64 coefficients are below INT64_COEFF_BOUND, so each
    product is below 2^62; the products are Python ints when the largest
    coefficient of `a` times the largest of `b` times the number of layer
    pairs reaches 2^63, so their sum cannot overflow.  Approx operands
    are of order 1 and one layer: a zero factor gives 0 (never 0 * inf)
    and the product starts from 0, so -0.0 gives 0.0."""
    (ea, ca), (eb, cb) = a, b
    if is_exact(ca) != is_exact(cb):
        raise ModeMismatchError("cannot multiply exact with approx entries")
    if not is_exact(ca):
        zero = (ca == 0) | (cb == 0)
        vals = (np.where(zero, 0, ca) * np.where(zero, 0, cb) + 0).ravel()
        return [(np.zeros(len(vals), np.intp), vals)]
    pairs = len(ca) * len(cb)
    if pairs > 1 and ca.dtype == cb.dtype == np.int64 and _peak(ca) * _peak(cb) * pairs >= 2 ** 63:
        ca = ca.astype(object)
    wrap = _wrap(order)
    return ((wrap[e + f].ravel(), (c * d).ravel()) for e, c in zip(ea, ca) for f, d in zip(eb, cb))


def _scatter(terms, order: int) -> np.ndarray:
    """The (order, n) array of the sum of (exponents, coefficients) terms
    of n entries each, added into zeros by one fancy-index add a term."""
    out = None
    for rows, vals in terms:
        if out is None:  # the first term, into zeros
            out, cols = np.zeros((order, len(vals)), vals.dtype), np.arange(len(vals))
            out[rows, cols] = vals
        else:
            out[rows, cols] += vals
    return out


def multiply(a: tuple, b: tuple, order: int) -> np.ndarray:
    """The entrywise product of two layered operands (see `_products`) as
    an (order, n) array: the scatter-add of the layer pairs' products."""
    return _scatter(_products(a, b, order), order)


def layer_product(a: tuple, b: tuple, order: int, fitted: bool = False) -> tuple:
    """`layered_multiply` of two exact single-layer operands, given as
    their one (exponents, coefficients) row each, entry shapes that
    broadcast: one exponent add through the wrap table and one product of
    coefficients, which cannot overflow (int64 ones are below 2^31)."""
    (ea, ca), (eb, cb) = a, b
    vals = ca * cb
    return order, _wrap(order)[ea + eb].reshape(1, -1), (vals if fitted else _fit(vals)).reshape(1, -1)


def layered_multiply(a: tuple, b: tuple, order: int, fitted: bool = False) -> tuple:
    """The product of `multiply` as a layered sequence (order, exponents,
    coefficients), its coefficients fitted: the `layer_product` of two
    exact single-layer operands, else the `layers` of the fitted dense
    product.  `fitted` says that the caller has bounded every product of
    two single-layer int64 operands below INT64_COEFF_BOUND (see
    `layer_peak`), so they are taken unscanned."""
    (ea, ca), (eb, cb) = a, b
    if len(ca) == len(cb) == 1 and is_exact(ca) and is_exact(cb):
        return layer_product((ea[0], ca[0]), (eb[0], cb[0]), order, fitted)
    return (order,) + layers(_fit(multiply(a, b, order)), order)


def terms_of(s: Sequence) -> tuple:
    """The layered sequence (order, exponents, coefficients) `s` holds:
    the one read of it outside `Sequence` itself."""
    return s._terms


def read_only(terms: tuple) -> tuple:
    """The layered sequence `terms`, its two arrays made read-only, so
    that every view cut from them is read-only too.  A flag is written
    only when it is set: writing it costs ten times a read, and most
    layers a Sequence holds are such views."""
    for x in terms[1:]:
        if x.flags.writeable:
            x.flags.writeable = False
    return terms


def column_cut(terms: tuple, start: int, stop: int, order: int) -> tuple:
    """Columns start:stop of the layered sequence `terms`, whose columns
    hold their nonzero terms in their first layers (as `layers` and every
    operator lay them out), at `order`, which must hold every exponent of
    those columns: the layers past the most terms one of them has dropped
    (at least one kept), and Python-int coefficients refitted (see
    `_fit`)."""
    own, exps, coeffs = terms
    exps, coeffs = exps[:, start:stop], coeffs[:, start:stop]
    if len(coeffs) > 1:
        depth = max(1, int(np.count_nonzero(coeffs, axis=0).max()))
        exps, coeffs = exps[:depth], coeffs[:depth]
    if order != own:
        exps = exps // (own // order)
    return order, exps, _fit(coeffs) if coeffs.dtype == object else coeffs


def _side_by_side(found) -> tuple:
    """(order, exponents, coefficients) of layered sequences side by side
    at their common order: two (t, total length) arrays, t the most layers
    any has, fewer padded with zero coefficients at exponent 0."""
    order = reduce(common_order, {k for k, _, _ in found}, 1)
    depth = max(len(c) for _, _, c in found)

    def pad(a):
        return a if len(a) == depth else np.vstack([a, np.zeros((depth - len(a), a.shape[1]), a.dtype)])

    exps = np.concatenate([pad(e if k == order else e * (order // k)) for k, e, _ in found], axis=1)
    return order, exps, np.concatenate([pad(c) for _, _, c in found], axis=1)


def row_terms(found) -> tuple:
    """(order, exponents, coefficients, shapes, peak) of layered
    sequences (`terms_of`) of any lengths side by side (`_side_by_side`):
    two read-only (t, total length) arrays, each sequence's (length,
    order) in turn, and the `layer_peak` of the coefficients."""
    found = list(found)
    layout = read_only(_side_by_side(found))
    return layout + (tuple((e.shape[1], k) for k, e, _ in found), layer_peak(layout[2]))


def cell_terms(found) -> tuple:
    """(order, exponents, coefficients) of n layered sequences
    (`terms_of`) of one length side by side (`_side_by_side`), as two
    (t, n, length) arrays: what every operator of a cell reads."""
    found = list(found)
    order, exps, coeffs = _side_by_side(found)
    return order, exps.reshape(len(exps), len(found), -1), coeffs.reshape(len(coeffs), len(found), -1)


def _peak(a: np.ndarray) -> int:
    """The largest coefficient magnitude of an exact array."""
    return max(int(a.max()), -int(a.min()))


def layer_peak(coeffs: np.ndarray):
    """The largest magnitude of coefficients that are one int64 layer
    ((1, ...) arrays), else None: with two operands' peaks it bounds
    every product of the two."""
    return _peak(coeffs) if len(coeffs) == 1 and coeffs.dtype == np.int64 else None


def array_entry(a: np.ndarray, i: int) -> Scalar:
    """Entry i of a (K, n) coefficient array (exact) or a (1, n) complex
    one (approx) as a scalar."""
    return CycloNum(len(a), a[:, i]) if is_exact(a) else complex(a[0, i])


class Sequence:
    """An ordered, immutable run of same-mode scalars (indices outside
    the range count as zero in every correlation), stored as its layered
    sequence; its coefficient array is a cache (see the module
    docstring)."""

    __slots__ = ("_array", "_terms")

    def __init__(self, entries: Iterable[Scalar]):
        entries = list(entries)
        if not entries:
            raise ValueError("a sequence needs at least one entry")
        mode = APPROX if any(isinstance(x, (float, complex)) for x in entries) else EXACT
        entries = [scalar(x, mode) for x in entries]
        if mode == APPROX:
            row = np.array([entries])
            self._hold((1, np.zeros(row.shape, np.intp), row), row)
            return
        # the terms of each distinct value once, then gathered per entry
        keys = [x.coeffs for x in entries]
        distinct = dict.fromkeys(keys)
        order = reduce(common_order, set(map(len, distinct)), 1)
        exps, coeffs = _monomial_layers(distinct, order)
        if len(distinct) < len(keys):
            at = np.fromiter(map(dict(zip(distinct, range(len(distinct)))).__getitem__, keys),
                             np.intp, len(keys))
            exps, coeffs = exps[:, at], coeffs[:, at]
        self._hold((order, exps, coeffs))

    @classmethod
    def of_array(cls, array: np.ndarray) -> "Sequence":
        """Sequence of `array` (exact: (K, L) of integers, approx: (1, L)
        complex): its layers, read once by `layers` (approx: the array
        itself, one layer at exponent 0), and the array kept read-only as
        the `.array` cache; an array that is not 2-D, or has no row or no
        entry, or is approx of more than one row, raises ValueError.  An
        exact array is taken in the dtype its values call for (see
        `_fit`): the array itself when it already has it, else a
        converted copy."""
        if array.ndim != 2 or not array.size:
            raise ValueError(f"a sequence array is 2-D and not empty, got shape {array.shape}")
        if not is_exact(array) and len(array) != 1:
            raise ValueError(f"an approx sequence array has one row, got shape {array.shape}")
        array = _fit(array)
        order = len(array)
        found = layers(array, order) if is_exact(array) else (np.zeros(array.shape, np.intp), array)
        seq = object.__new__(cls)
        seq._hold((order,) + found, array)
        return seq

    @classmethod
    def _of_terms(cls, terms: tuple) -> "Sequence":
        """Sequence holding the layered sequence `terms`, (order,
        exponents, coefficients) with the coefficients in the dtype
        `_fit` gives them, whose two arrays become read-only; its array
        is their scatter, made on first read."""
        seq = object.__new__(cls)
        seq._hold(terms)
        return seq

    def _hold(self, terms: tuple, array=None) -> None:
        """Hold `terms` read-only (`read_only`), and `array` (their
        scatter) as the array already read."""
        read_only(terms)
        if array is not None and array.flags.writeable:
            array.flags.writeable = False
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_array", array)

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")

    @property
    def array(self) -> np.ndarray:
        """The read-only coefficient array: the scatter of the layers,
        made on the first read and kept."""
        array = self._array
        if array is None:
            order, exps, coeffs = self._terms
            array = _scatter(zip(exps, coeffs), order)
            array.flags.writeable = False
            object.__setattr__(self, "_array", array)
        return array

    # mode, order and length read the layers: the coefficients have the
    # array's dtype and length

    @property
    def mode(self) -> str:
        return EXACT if is_exact(self._terms[2]) else APPROX

    @property
    def order(self) -> int:
        """K of the array, 1 in approx mode."""
        return self._terms[0]

    def __len__(self) -> int:
        return self._terms[2].shape[1]

    def __getitem__(self, i):
        return array_entry(self.array, i)

    def __iter__(self):
        if self.mode == EXACT:
            order = len(self.array)
            return (CycloNum(order, col) for col in zip(*self.array.tolist()))
        return iter(self.array[0].tolist())

    def scale(self, c) -> "Sequence":
        k, at, c = Sequence([scalar(c, self.mode)])._terms
        own, exps, coeffs = self._terms
        order = common_order(own, k)
        return Sequence._of_terms(layered_multiply((exps * (order // own), coeffs),
                                                   (at * (order // k), c), order))

    def __neg__(self) -> "Sequence":
        return self.scale(-1)

    def conj(self) -> "Sequence":
        """Complex conjugate: each term c zeta_K^e becomes conj(c)
        zeta_K^(-e), so row j of the array moves to row (K - j) mod K."""
        order, exps, coeffs = self._terms
        if is_exact(coeffs):  # real coefficients
            return Sequence._of_terms((order, -exps % order, coeffs))
        return Sequence._of_terms((order, exps, np.conj(coeffs)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        if len(self) != len(other) or self.mode != other.mode:
            return False
        if self.mode == APPROX:
            return bool(np.all(self.array == other.array))
        order = common_order(self.order, other.order)
        diff = _promote(self.array, order) - _promote(other.array, order)
        return bool(zero_rows(diff.T, order).all())

    __hash__ = None

    def is_zero(self, tol: float = 0.0) -> bool:
        """Every entry zero: exactly, or within `tol` in approx mode."""
        return bool(zero_rows(self.array.T, self.order, tol).all())

    def __repr__(self) -> str:
        if self.mode == EXACT:
            # the signs when each entry's residue modulo Phi_K is 1, -1 or 0
            res = reduce_rows(reducible(self.array.T, self.order), self.order)
            if not res[:, 1:].any() and (abs(res[:, 0]) <= 1).all():
                return f"Sequence({''.join('0+-'[c] for c in res[:, 0].tolist())})"
        return f"Sequence(len={len(self)}, mode={self.mode})"


def from_signs(signs: str) -> Sequence:
    """Build a +/-1 (or 0) sequence from a string like '+++-'."""
    table = {"+": 1, "-": -1, "0": 0}
    try:
        return Sequence(table[ch] for ch in signs.replace(" ", ""))
    except KeyError as e:
        raise ValueError(f"bad sign character {e.args[0]!r}") from None


def zero_sequence(length: int, mode: str = EXACT) -> Sequence:
    return Sequence([scalar(0, mode)] * length)


def concat(parts: Iterable[Sequence]) -> Sequence:
    arrays = [p.array for p in parts]
    if not arrays:
        raise ValueError("a sequence needs at least one entry")
    if len({is_exact(a) for a in arrays}) != 1:
        raise ModeMismatchError("sequence mixes exact and approx entries")
    order = reduce(common_order, {len(a) for a in arrays}, 1)
    return Sequence.of_array(np.hstack([_promote(a, order) for a in arrays]))


class SequenceSet:
    """N sequences of one common length."""

    __slots__ = ("sequences",)

    def __init__(self, sequences: Iterable[Sequence]):
        sequences = tuple(sequences)
        if not sequences:
            raise ValueError("a sequence set needs at least one sequence")
        lengths = {len(s) for s in sequences}
        if len(lengths) != 1:
            raise ValueError(f"member lengths differ: {sorted(lengths)}")
        modes = {s.mode for s in sequences}
        if len(modes) != 1:
            raise ModeMismatchError("sequence set mixes exact and approx sequences")
        object.__setattr__(self, "sequences", sequences)

    def __setattr__(self, name, value):
        raise AttributeError("SequenceSet is immutable")

    def __len__(self) -> int:
        return len(self.sequences)

    def __getitem__(self, i) -> Sequence:
        return self.sequences[i]

    def __iter__(self):
        return iter(self.sequences)

    @property
    def length(self) -> int:
        return len(self.sequences[0])

    @property
    def mode(self) -> str:
        return self.sequences[0].mode

    def __repr__(self) -> str:
        return f"SequenceSet(n={len(self)}, length={self.length})"


class SequenceFamily:
    """M sequence sets of a common set size N; lengths may differ per set."""

    __slots__ = ("sets",)

    def __init__(self, sets: Iterable[SequenceSet]):
        sets = tuple(sets)
        if not sets:
            raise ValueError("a family needs at least one set")
        sizes = {len(s) for s in sets}
        if len(sizes) != 1:
            raise ValueError(f"set sizes differ: {sorted(sizes)}")
        modes = {s.mode for s in sets}
        if len(modes) != 1:
            raise ModeMismatchError("family mixes exact and approx sets")
        object.__setattr__(self, "sets", sets)

    @classmethod
    def _of_members(cls, sets) -> "SequenceFamily":
        """The family of `sets`, iterables of Sequences, unchecked: for a
        constructor's own outputs, equal-size sets of one length each, all
        in one mode (each caller says why)."""
        built = []
        for members in sets:
            ss = object.__new__(SequenceSet)
            object.__setattr__(ss, "sequences", tuple(members))
            built.append(ss)
        fam = object.__new__(cls)
        object.__setattr__(fam, "sets", tuple(built))
        return fam

    def __setattr__(self, name, value):
        raise AttributeError("SequenceFamily is immutable")

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, i) -> SequenceSet:
        return self.sets[i]

    def __iter__(self):
        return iter(self.sets)

    @property
    def family_size(self) -> int:
        return len(self.sets)

    @property
    def set_size(self) -> int:
        return len(self.sets[0])

    @property
    def length_set(self) -> frozenset:
        # always recomputed so it can never go stale
        return frozenset(s.length for s in self.sets)

    @property
    def mode(self) -> str:
        return self.sets[0].mode

    def __repr__(self) -> str:
        ls = sorted(self.length_set)
        return (f"SequenceFamily(M={self.family_size}, N={self.set_size}, "
                f"lengths={ls})")


def singleton_family(sequences: Iterable[Sequence]) -> SequenceFamily:
    """Family of one-sequence sets (the (M,1,L)-shape used everywhere)."""
    return SequenceFamily(SequenceSet([s]) for s in sequences)


# -- energies ----------------------------------------------------------


def energies(found) -> np.ndarray:
    """(order, n) array of R_s(0) = sum |s(l)|^2 of the n sequences whose
    layers `found` holds (see `cell_terms`), in the dtype `_fit` gives it.

    Layer pair (i, j) of an entry gives c_i conj(c_j) at exponent e_i -
    e_j.  The diagonal pairs land at exponent 0 as |c|^2, summed in column
    order; only the off-diagonal pairs are scattered, by `multiply`.  Exact
    sums are made with Python ints when the largest |c|^2 times t^2 times
    the length could reach 2^63."""
    order, exps, coeffs = found
    t, n, width = coeffs.shape
    if coeffs.dtype == np.int64 and _peak(coeffs) ** 2 * t * t * width >= 2 ** 63:
        coeffs = coeffs.astype(object)
    out = np.zeros((order, n), coeffs.dtype)
    if is_exact(coeffs):  # real coefficients: |c|^2 = c c, summed in any order
        conj = coeffs
        out[0] = (coeffs * coeffs).sum(axis=(0, 2))
    else:
        conj = np.conj(coeffs)
        out[0] = np.add.accumulate((coeffs * conj).sum(axis=0), axis=1)[:, -1]
    for i, j in permutations(range(t), 2):
        cross = multiply((exps[i:i + 1], coeffs[i:i + 1]), (order - exps[j:j + 1], conj[j:j + 1]), order)
        out += cross.reshape(order, n, width).sum(axis=2)
    return _fit(out)


def unequal_energies(found, tol: float) -> tuple:
    """(the `energies` array, indices of the sequences whose energy is not
    sequence 0's).  Approx energies may differ by tol times sequence 0's;
    exact ones take no tolerance, as they may be past the float range.
    Exact differences that are integers (single-layer members give only
    those) are zero only when 0, so they skip the reduction modulo Phi_K."""
    e = energies(found)
    diff = e - e[:, :1]
    if is_exact(e) and not diff[1:].any():
        differ = np.flatnonzero(diff[0])
    else:
        atol = 0.0 if is_exact(e) else tol * abs(e[0, 0])
        differ = np.flatnonzero(~zero_rows(diff.T, found[0], atol))
    return e, differ.tolist()


def energy(s: Sequence) -> Scalar:
    """R_s(0) = sum of |entry|^2; real and non-negative."""
    return array_entry(energies(cell_terms([terms_of(s)])), 0)


def set_energy(ss: SequenceSet) -> Scalar:
    return array_entry(energies(cell_terms(map(terms_of, ss))).sum(axis=1, keepdims=True), 0)


# -- identification up to indexing -------------------------------------


def _family_order(fam: SequenceFamily) -> int:
    return reduce(common_order, {s.order for ss in fam for s in ss}, 1)


def _seq_key(s: Sequence, order: int):
    """Value key of a sequence at a family's order: its length, then each
    entry reduced modulo Phi_order (approx: each entry's (re, im))."""
    if s.mode == EXACT:
        rows = _promote(s.array, order).T
        residues = reduce_rows(reducible(rows, order), order)
        return (len(s),) + tuple(map(tuple, residues.tolist()))
    return (len(s),) + tuple((x.real, x.imag) for x in s.array[0].tolist())


def _canonical_arrangement(fam: SequenceFamily, order: int):
    """(matrix of keys, row order, column order) of the lexicographically
    least matrix under joint column permutation plus row sorting.

    The search runs on each key's rank among the family's distinct keys:
    ranks order like the keys, so the choice is the same, and comparing
    small ints is cheaper than comparing tuples of residues."""
    n = fam.set_size
    if n > CANONICAL_DIM_LIMIT:
        raise CanonicalSearchError(
            f"canonical form search is capped at set size {CANONICAL_DIM_LIMIT}, "
            f"got {n}")
    keys = [[_seq_key(s, order) for s in ss] for ss in fam]
    rank = {key: r for r, key in enumerate(sorted({k for row in keys for k in row}))}
    ranks = [tuple(rank[k] for k in row) for row in keys]
    best = None
    for cols in permutations(range(n)):
        pick = itemgetter(*cols)  # an int, not a tuple, when n == 1
        tuples = [pick(r) for r in ranks]
        rows = sorted(range(len(ranks)), key=tuples.__getitem__)
        candidate = [tuples[m] for m in rows]
        if best is None or candidate < best[0]:
            best = (candidate, rows, cols)
    _, rows, cols = best
    return tuple(tuple(keys[m][c] for c in cols) for m in rows), rows, cols


def canonical_form(fam: SequenceFamily) -> SequenceFamily:
    """Representative of the equivalence class under set reordering plus a
    single joint reordering of the sequences inside every set."""
    order = _family_order(fam)
    _, rows, cols = _canonical_arrangement(fam, order)
    return SequenceFamily(
        SequenceSet([fam[m][c] for c in cols]) for m in rows
    )


def equal_up_to_indexing(f1: SequenceFamily, f2: SequenceFamily) -> bool:
    """True when the two families are the same matrix of sequences apart
    from set indexing and one joint within-set reindexing."""
    if f1.family_size != f2.family_size or f1.set_size != f2.set_size:
        return False
    if f1.mode != f2.mode:
        return False
    if sorted(len(s[0]) for s in f1) != sorted(len(s[0]) for s in f2):
        return False
    order = common_order(_family_order(f1), _family_order(f2))
    c1 = _canonical_arrangement(f1, order)
    c2 = _canonical_arrangement(f2, order)
    return c1[0] == c2[0]
