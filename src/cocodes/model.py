"""Sequences, sequence sets, and sequence families.

A family is an ordered list of ordered sets: correlation sums pair
sequences *by index*, so order is part of the semantics.  The usual
"same except for indexing" identification is provided as an explicit
canonicalization pass (`canonical_form` / `equal_up_to_indexing`)
rather than by storing anything unordered.

Scalars come in two modes that never mix inside one family:
  exact  - CycloNum (roots of unity and their integer combinations)
  approx - Python complex
"""

from __future__ import annotations

from itertools import permutations
from math import gcd
from typing import Iterable, Union

from .cyclo import CycloNum

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


def scalar_mode(x: Scalar) -> str:
    if isinstance(x, CycloNum):
        return EXACT
    if isinstance(x, (complex, float, int)):
        return APPROX
    raise TypeError(f"not a scalar: {x!r}")


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    return a * b


def scalar_conj(x: Scalar) -> Scalar:
    if isinstance(x, CycloNum):
        return x.conj()
    return complex(x).conjugate()


def scalar_is_zero(x: Scalar, tol: float = 0.0) -> bool:
    if isinstance(x, CycloNum):
        return x.is_zero()
    return abs(x) <= tol


def scalar_numeric(x: Scalar) -> complex:
    return x.numeric() if isinstance(x, CycloNum) else complex(x)


def scalars_equal(a: Scalar, b: Scalar, tol: float = 0.0) -> bool:
    if isinstance(a, CycloNum) != isinstance(b, CycloNum):
        raise ModeMismatchError("cannot compare exact with approx scalars")
    if isinstance(a, CycloNum):
        return (a - b).is_zero()
    return abs(a - b) <= tol


class Sequence:
    """An ordered, immutable tuple of same-mode scalars (indices outside
    the range count as zero in every correlation)."""

    __slots__ = ("entries", "mode")

    def __init__(self, entries: Iterable[Scalar]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a sequence needs at least one entry")
        modes = {scalar_mode(x) for x in entries}
        if len(modes) != 1:
            raise ModeMismatchError("sequence mixes exact and approx entries")
        mode = modes.pop()
        if mode == APPROX:
            entries = tuple(complex(x) for x in entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def scale(self, c: Scalar) -> "Sequence":
        if scalar_mode(c) != self.mode:
            raise ModeMismatchError("scalar/sequence mode mismatch")
        return Sequence(c * x for x in self.entries)

    def __neg__(self) -> "Sequence":
        minus = CycloNum.from_int(-1) if self.mode == EXACT else -1.0 + 0j
        return self.scale(minus)

    def conj(self) -> "Sequence":
        return Sequence(scalar_conj(x) for x in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        if len(self) != len(other) or self.mode != other.mode:
            return False
        return all(scalars_equal(a, b) for a, b in zip(self, other))

    __hash__ = None

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(scalar_is_zero(x, tol) for x in self.entries)

    def __repr__(self) -> str:
        signs = _sign_string(self)
        if signs is not None:
            return f"Sequence({signs})"
        return f"Sequence(len={len(self)}, mode={self.mode})"


def _sign_string(seq: "Sequence"):
    out = []
    for x in seq.entries:
        if isinstance(x, CycloNum):
            mono = x.monomial()
            if mono == (0, 1):
                out.append("+")
            elif mono == (0, -1):
                out.append("-")
            elif mono == (0, 0):
                out.append("0")
            elif x.order == 2 and mono == (1, 1):
                out.append("-")
            else:
                return None
        else:
            return None
    return "".join(out)


def from_signs(signs: str) -> Sequence:
    """Build a +/-1 (or 0) sequence from a string like '+++-'."""
    table = {"+": CycloNum.from_int(1), "-": CycloNum.from_int(-1),
             "0": CycloNum.from_int(0)}
    try:
        return Sequence(table[ch] for ch in signs.replace(" ", ""))
    except KeyError as e:
        raise ValueError(f"bad sign character {e.args[0]!r}") from None


def zero_sequence(length: int, mode: str = EXACT) -> Sequence:
    if mode == EXACT:
        return Sequence([CycloNum.zero()] * length)
    return Sequence([0j] * length)


def concat(parts: Iterable[Sequence]) -> Sequence:
    entries = []
    for p in parts:
        entries.extend(p.entries)
    return Sequence(entries)


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


def energy(s: Sequence) -> Scalar:
    """R_s(0) = sum of |entry|^2; real and non-negative."""
    total = None
    for x in s.entries:
        term = scalar_mul(x, scalar_conj(x))
        total = term if total is None else total + term
    return total


def set_energy(ss: SequenceSet) -> Scalar:
    total = None
    for s in ss:
        e = energy(s)
        total = e if total is None else total + e
    return total


# -- identification up to indexing -------------------------------------


def _family_order(fam: SequenceFamily) -> int:
    k = 1
    if fam.mode != EXACT:
        return 1
    for ss in fam:
        for s in ss:
            for x in s.entries:
                k = k // gcd(k, x.order) * x.order
    return k


def _scalar_key(x: Scalar, order: int):
    if isinstance(x, CycloNum):
        return x.promote(order).reduced()
    return (x.real, x.imag)


def _seq_key(s: Sequence, order: int):
    return (len(s),) + tuple(_scalar_key(x, order) for x in s.entries)


def _canonical_arrangement(fam: SequenceFamily, order: int):
    """(row order, column order) of the lexicographically least matrix
    under joint column permutation plus row sorting."""
    n = fam.set_size
    if n > CANONICAL_DIM_LIMIT:
        raise CanonicalSearchError(
            f"canonical form search is capped at set size {CANONICAL_DIM_LIMIT}, "
            f"got {n}")
    keys = [[_seq_key(s, order) for s in ss] for ss in fam]
    best = None
    for cols in permutations(range(n)):
        rows = sorted(range(len(keys)),
                      key=lambda m: tuple(keys[m][c] for c in cols))
        candidate = tuple(tuple(keys[m][c] for c in cols) for m in rows)
        if best is None or candidate < best[0]:
            best = (candidate, rows, cols)
    return best


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
    o1, o2 = _family_order(f1), _family_order(f2)
    order = o1 // gcd(o1, o2) * o2
    c1 = _canonical_arrangement(f1, order)
    c2 = _canonical_arrangement(f2, order)
    return c1[0] == c2[0]
