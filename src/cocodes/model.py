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

A Sequence owns one read-only array and nothing else.  An exact
sequence of length L is a (K, L) integer array with K the lcm of its
entries' orders: row j holds the coefficients of zeta_K^j, so column l
is entry l in Z[zeta_K].  Its dtype follows its values: int64 when every
coefficient is below `INT64_COEFF_BOUND` in magnitude (the paper's
constructions use roots of unity, so nearly always), Python ints
(dtype=object) otherwise.  An approx sequence is a (1, L) complex array,
the layout of an exact sequence of order 1; `is_exact` tells the two
modes apart by dtype kind.  A CycloNum is built from a column only when
an entry is read.  Operators work on an array's nonzero terms, read in
one pass (`terms`): a product pairs the terms of two arrays column by
column and adds exponents modulo K (`multiply_terms`), so its cost
follows the number of terms, not K.  Products of int64 coefficients fit
int64, and their sums are made with Python ints whenever the largest
product times the number of products could reach 2^63.  `product` (the
entrywise product), connection and the batched `energies` are built from
these; `scaled`, behind `Sequence.scale` and expansion, multiplies an
array by a scalar one term of the scalar at a time, each a rotation of
the array's rows; zero is decided by `cyclo.zero_rows`.

Every sequence the paper's constructions build from DFT and Hadamard
rows has exactly one nonzero term in every column.  Such int64 arrays are
also read as one (exponent, coefficient) per column (`single_terms`), and
a cell of them (`cell_terms`) takes the single-term path: connection is a
gather and a scatter with no term pairing, and `energies` is the integer
sum of c^2 per sequence (int64 while the largest c^2 times the length is
below 2^63, Python ints past that).  An array with a zero entry, an entry
of two terms, approx entries or Python-int coefficients takes the term
path above; both paths give the same arrays in the same dtype.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

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


def terms(a: np.ndarray, order: int) -> tuple:
    """(columns, exponents over zeta_order, coefficients) of the nonzero
    terms of an array, column by column."""
    cols, rows = np.nonzero((a != 0).T)
    return cols, rows * (order // len(a)), a[rows, cols]


def single_terms(arrays, order: int):
    """(exponents over zeta_order, coefficients) of int64 arrays (orders
    dividing `order`) side by side, one of each per column, when every
    column holds exactly one nonzero term; None for any other arrays: one
    with a zero entry, an entry of two terms, or coefficients that are
    complex or Python ints."""
    if any(a.dtype != np.int64 for a in arrays):
        return None
    stack = np.concatenate([_promote(a, order) for a in arrays], axis=1)
    width = stack.shape[1]
    if np.count_nonzero(stack) != width:
        return None
    # `width` nonzeros and a nonzero sum in every column: each column has
    # exactly one, and the sum is it
    coeffs = stack.sum(axis=0)
    if not coeffs.all():
        return None
    if order == 1:
        return np.zeros(width, np.int64), coeffs
    return (stack != 0).argmax(axis=0), coeffs


def multiply_terms(left: tuple, right: tuple, colmap: np.ndarray) -> tuple:
    """(exponents, columns, products) of every term of `left` in column
    c times every term of `right` in column colmap[c]; `right` comes
    column by column, as `terms` gives it.

    Exact products are int64 when both operands are: int64 coefficients
    come from Sequence arrays, below INT64_COEFF_BOUND, so each product
    is below 2^62.  Otherwise they are Python ints."""
    (ca, ra, va), (cb, rb, vb) = left, right
    if is_exact(va) != is_exact(vb):
        raise ModeMismatchError("cannot multiply exact with approx entries")
    count = np.bincount(cb, minlength=colmap.max() + 1)
    key = colmap[ca]
    reps = count[key]
    ia = np.repeat(np.arange(len(ca)), reps)
    ib = (np.arange(len(ia)) - np.repeat(np.cumsum(reps) - reps, reps)
          + (np.cumsum(count) - count)[key[ia]])
    return ra[ia] + rb[ib], ca[ia], va[ia] * vb[ib]


def from_terms(rows, cols, vals, order: int, width: int) -> np.ndarray:
    """(order, width) array holding the sum of the given terms, complex
    when `vals` are.

    int64 terms are summed as int64 while their largest magnitude times
    their number (a bound on every sum) stays below 2^63, so that no sum
    can wrap, and as Python ints otherwise.  An exact result is in the
    dtype `_fit` gives it; it is scanned only when that bound does not
    already keep every sum below INT64_COEFF_BOUND."""
    bound = 0
    if vals.dtype == np.int64 and len(vals):
        bound = max(int(vals.max()), -int(vals.min())) * len(vals)
        if bound >= 2 ** 63:
            vals = vals.astype(object)
    out = np.zeros((order, width), dtype=vals.dtype)
    np.add.at(out, (rows % order, cols), vals)
    return out if out.dtype == np.int64 and bound < INT64_COEFF_BOUND else _fit(out)


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of two coefficient arrays; the narrower one's
    columns repeat periodically.

    Exact arrays multiply in Z[zeta_K] at their common order K: a term
    c * zeta^i of `a` times a term d * zeta^j of `b` in the same column
    lands on row i + j mod K.  Only nonzero terms are multiplied, so a
    column of roots of unity costs one product whatever K is."""
    order = common_order(len(a), len(b))
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    colmap = np.arange(a.shape[-1]) % b.shape[-1]
    found = multiply_terms(terms(a, order), terms(b, order), colmap)
    return from_terms(*found, order, a.shape[-1])


def entry_terms(a: np.ndarray, order: int) -> list:
    """The nonzero terms (exponent over zeta_order, coefficient) of each
    entry of an array, as lists of Python numbers."""
    out = [[] for _ in range(a.shape[1])]
    for col, exp, val in zip(*(x.tolist() for x in terms(a, order))):
        out[col].append((exp, val))
    return out


def scaled(a: np.ndarray, order: int, factors) -> list:
    """Sequences `a` times each scalar of `factors`, given by its
    `entry_terms` at `order` (a multiple of len(a)): the values and
    dtype of `product(a, factor)`.

    A term c * zeta^e times `a` is `a` at `order` with its rows rotated
    down by e, times c, so each output takes a few whole-array steps and
    a signed root of unity is a row permutation."""
    if not is_exact(a):
        # as a sum of term products into zeros: a zero entry of `a` gives
        # 0 (never 0 * inf), and + 0 turns a -0.0 part into 0.0
        return [Sequence._of_fitted(np.where(a != 0, a * found[0][1] + 0, 0) if found
                                    else np.zeros_like(a)) for found in factors]
    a = _promote(a, order)
    rows = np.arange(order)
    out = []
    for found in factors:
        rotated = [(c, a[(rows - e) % order]) for e, c in found]
        if not rotated:
            out.append(Sequence._of_fitted(np.zeros(a.shape, np.int64)))
        elif len(rotated) == 1 and rotated[0][0] in (1, -1):
            # the rows of `a`, so in the dtype it had
            c, r = rotated[0]
            out.append(Sequence._of_fitted(r if c == 1 else -r))
        elif a.dtype == np.int64 and sum(abs(c) for c, _ in rotated) * INT64_COEFF_BOUND < 2 ** 63:
            # every |a| is below INT64_COEFF_BOUND, so no sum reaches 2^63
            out.append(Sequence.of_array(sum(np.int64(c) * r for c, r in rotated)))
        else:
            out.append(Sequence.of_array(sum(c * r.astype(object) for c, r in rotated)))
    return out


class Sequence:
    """An ordered, immutable run of same-mode scalars (indices outside
    the range count as zero in every correlation), stored as one
    read-only coefficient array."""

    __slots__ = ("array",)

    def __init__(self, entries: Iterable[Scalar]):
        entries = list(entries)
        if not entries:
            raise ValueError("a sequence needs at least one entry")
        mode = APPROX if any(isinstance(x, (float, complex)) for x in entries) else EXACT
        entries = [scalar(x, mode) for x in entries]
        if mode == APPROX:
            self._own(np.array([entries]))
            return
        order = reduce(common_order, {x.order for x in entries}, 1)

        def fill(dtype):
            array = np.zeros((order, len(entries)), dtype)
            for pos, x in enumerate(entries):
                array[::order // x.order, pos] = x.coeffs
            return array

        try:
            array = fill(np.int64)
        except OverflowError:  # a coefficient past int64
            array = fill(object)
        self._own(_fit(array))

    @classmethod
    def of_array(cls, array: np.ndarray) -> "Sequence":
        """Sequence owning `array` (exact: (K, L) of integers, approx:
        (1, L) complex), which becomes read-only; an array that is not
        2-D, or has no row or no entry, raises ValueError.  An exact array
        is taken in the dtype its values call for (see `_fit`): the array
        itself when it already has it, else a converted copy."""
        if array.ndim != 2 or not array.size:
            raise ValueError(f"a sequence array is 2-D and not empty, got shape {array.shape}")
        return cls._of_fitted(_fit(array))

    @classmethod
    def _of_fitted(cls, array: np.ndarray) -> "Sequence":
        """Sequence owning `array`, which is approx or already in the
        dtype `_fit` gives it: a sum from `from_terms`, a factory's
        rows, a row permutation of a Sequence's array.  Nothing is
        scanned."""
        seq = object.__new__(cls)
        seq._own(array)
        return seq

    def _own(self, array: np.ndarray) -> None:
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")

    @property
    def mode(self) -> str:
        return EXACT if is_exact(self.array) else APPROX

    @property
    def order(self) -> int:
        """K of the array, 1 in approx mode."""
        return len(self.array)

    def __len__(self) -> int:
        return self.array.shape[1]

    def __getitem__(self, i):
        if self.mode == EXACT:
            return CycloNum(len(self.array), self.array[:, i])
        return complex(self.array[0, i])

    def __iter__(self):
        if self.mode == EXACT:
            order = len(self.array)
            return (CycloNum(order, col) for col in zip(*self.array.tolist()))
        return iter(self.array[0].tolist())

    def scale(self, c) -> "Sequence":
        factor = Sequence([scalar(c, self.mode)]).array
        order = common_order(self.order, len(factor))
        return scaled(self.array, order, entry_terms(factor, order))[0]

    def __neg__(self) -> "Sequence":
        return self.scale(-1)

    def conj(self) -> "Sequence":
        """Complex conjugate: row j moves to row (K - j) mod K, conjugated."""
        order = len(self.array)
        return Sequence._of_fitted(np.conj(self.array[-np.arange(order) % order]))

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
        signs = _sign_string(self)
        if signs is not None:
            return f"Sequence({signs})"
        return f"Sequence(len={len(self)}, mode={self.mode})"


def _sign_string(seq: "Sequence"):
    if seq.mode != EXACT:
        return None
    signs = {(1,): "+", (-1,): "-", (0,): "0", (0, 1): "-"}
    out = []
    for col in zip(*seq.array.tolist()):
        head = col[:1] if not any(col[1:]) else col
        if head not in signs:
            return None
        out.append(signs[head])
    return "".join(out)


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


class CellTerms(NamedTuple):
    """The terms of n sequences of one length at their common order, read
    once for every operator of a cell.  When every sequence is single-term,
    `single` holds their `single_terms` as two (n, length) arrays, and
    `members` the same terms as views of them; otherwise `single` is None
    and `members` holds each sequence's `terms`."""

    order: int
    members: list
    single: Optional[tuple]


def cell_terms(seqs) -> CellTerms:
    """The `CellTerms` of `seqs`."""
    order = reduce(common_order, {s.order for s in seqs}, 1)
    single = single_terms([s.array for s in seqs], order)
    if single is None:
        return CellTerms(order, [terms(s.array, order) for s in seqs], None)
    single = tuple(x.reshape(len(seqs), -1) for x in single)
    cols = np.arange(single[0].shape[1])
    return CellTerms(order, [(cols, e, c) for e, c in zip(*single)], single)


def side_by_side(blocks, width: int) -> tuple:
    """The terms of arrays `width` entries wide (`terms` triples) as the
    terms of one array holding them side by side."""
    return (np.concatenate([c + i * width for i, (c, _, _) in enumerate(blocks)]),
            np.concatenate([e for _, e, _ in blocks]),
            np.concatenate([x for _, _, x in blocks]))


def energies(found: CellTerms, width: int) -> np.ndarray:
    """(order, n) array of R_s(0) = sum |s(l)|^2 of the n sequences of
    length `width` whose terms `found` holds, in the dtype `_fit` gives it.

    Single-term sequences give the integer sum of c^2 per sequence (|c
    zeta^e|^2 = c^2), as int64 while the largest c^2 times `width` stays
    below 2^63 and as Python ints past that.  Otherwise every term is
    multiplied by the conjugate of every term in its column, in one batch."""
    order, members, single = found
    if single is not None:
        coeffs = single[1]
        peak = int(np.abs(coeffs).max())
        if peak * peak * width >= 2 ** 63:
            coeffs = coeffs.astype(object)
        out = np.zeros((order, len(coeffs)), coeffs.dtype)
        out[0] = (coeffs * coeffs).sum(axis=1)
        return _fit(out)
    cols, exps, vals = left = side_by_side(members, width)
    right = cols, -exps, np.conj(vals)
    rows, at, prods = multiply_terms(left, right, np.arange(len(members) * width))
    return from_terms(rows, at // width, prods, order, len(members))


def unequal_energies(found, width: int, tol: float) -> tuple:
    """(the `energies` as one Sequence, indices of the sequences whose energy
    is not sequence 0's).  Approx energies may differ by tol times sequence
    0's; exact ones take no tolerance, as they may be past the float range."""
    e = energies(found, width)
    atol = 0.0 if is_exact(e) else tol * abs(e[0, 0])
    differ = np.flatnonzero(~zero_rows((e - e[:, :1]).T, found[0], atol))
    return Sequence._of_fitted(e), differ.tolist()


def energy(s: Sequence) -> Scalar:
    """R_s(0) = sum of |entry|^2; real and non-negative."""
    return Sequence._of_fitted(energies(cell_terms([s]), len(s)))[0]


def set_energy(ss: SequenceSet) -> Scalar:
    total = energies(cell_terms(ss), ss.length).sum(axis=1, keepdims=True)
    return Sequence.of_array(total)[0]


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
