"""Unitary-like matrices: DFT, Walsh-Hadamard, identity, and validated
user-supplied matrices.

A square matrix U is unitary-like when U U^H = U^H U = alpha I for some
alpha > 0.  DFT entries are exact roots of unity of order N so every
construction built on them stays exactly verifiable.

The factories (`dft_matrix`, `hadamard_matrix`, `identity_matrix`)
write a matrix as one layer in closed form and build it once per
process: each keeps its last FACTORY_CACHE matrices (a
`functools.lru_cache`) and returns the same immutable UnitaryLike on
every call; a call that raises is not cached.  A DFT-n holds 16 n^2
bytes (DFT-128: 256 KB; the eight largest, 2 MB) until a row's (n, n)
int64 array is read, so the worst case, every row of those eight read,
is about 126 MB.  Custom matrices are built every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Optional

import numpy as np

from .corr import DEFAULT_TOL, is_n_co_sf
from .cyclo import DIM_LIMIT, CycloNum
from .model import (
    EXACT,
    ModeMismatchError,
    Scalar,
    Sequence,
    SequenceFamily,
    SequenceSet,
    array_entry,
    layer_peak,
    row_terms,
    scalar,
    scalar_is_zero,
    scalar_numeric,
    singleton_family,
    terms_of,
    unequal_energies,
)


# Matrices each factory keeps (see the module docstring).
FACTORY_CACHE = 8


class MatrixValidationError(ValueError):
    """Supplied entries do not form a unitary-like matrix."""


class UnitaryLike:
    """Validated N x N matrix with U U^H = alpha I, held as the set of
    its N rows and as `terms`, their layers side by side (`row_terms`,
    what a connection with the rows reads); immutable.

    `UnitaryLike(rows, alpha)` checks the rows as `custom_matrix` does
    and that `alpha`, read by `model.scalar` in the rows' mode, is their
    energy.  The factories and `custom_matrix` build through `_of_rows`,
    which checks nothing: their rows are unitary-like by construction or
    have just been checked."""

    __slots__ = ("dim", "mode", "row_set", "alpha", "terms")

    def __init__(self, rows, alpha):
        u = custom_matrix(rows)
        tol_abs = 0.0 if u.mode == EXACT else DEFAULT_TOL * abs(u.alpha)
        try:
            value = scalar(alpha, u.mode)
        except ModeMismatchError:
            value = None
        if value is None or not scalar_is_zero(value - u.alpha, tol_abs):
            raise MatrixValidationError(
                f"alpha = {alpha!r} is not the rows' energy {u.alpha!r}")
        self._hold(u.row_set, value, u.terms)

    @classmethod
    def _of_rows(cls, rows, alpha: Scalar, terms: tuple) -> "UnitaryLike":
        """The matrix of the row sequences `rows` of `row_terms` `terms`, unchecked."""
        u = object.__new__(cls)
        u._hold(SequenceSet(rows), alpha, terms)
        return u

    def _hold(self, row_set: SequenceSet, alpha: Scalar, terms: tuple) -> None:
        object.__setattr__(self, "dim", len(row_set))
        object.__setattr__(self, "mode", row_set.mode)
        object.__setattr__(self, "row_set", row_set)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryLike is immutable")

    @property
    def entries(self) -> tuple:
        """The entries as scalars, row by row, read from `rows_family`."""
        return tuple(tuple(ss[0]) for ss in self.rows_family())

    def row(self, m: int) -> Sequence:
        return self.row_set[m]

    def rows(self):
        return list(self.row_set)

    def rows_family(self) -> SequenceFamily:
        """The rows as a family of single-sequence sets, each a new
        Sequence over its row's layers: an array read from the family goes
        with it, so a cached factory matrix keeps none."""
        return singleton_family(Sequence._of_terms(terms_of(row)) for row in self.row_set)

    def __repr__(self) -> str:
        return f"UnitaryLike(dim={self.dim}, alpha={self.alpha!r})"


def _check_dim(n: int) -> None:
    if not 1 <= n <= DIM_LIMIT:
        raise ValueError(f"dimension must be in 1..{DIM_LIMIT}, got {n}")


def _of_layer(order: int, exps: np.ndarray, coeffs: np.ndarray, alpha: int) -> UnitaryLike:
    """The exact matrix of entries coeffs[m, k] zeta_order^exps[m, k],
    int64 coefficients of 0 and +-1: row m holds row m of the two (n, n)
    arrays as its layer (`model.Sequence._of_terms`), and the arrays
    flattened are its `terms`."""
    n = len(exps)
    for x in (exps, coeffs):
        x.flags.writeable = False
    rows = [Sequence._of_terms((order, exps[m:m + 1], coeffs[m:m + 1])) for m in range(n)]
    flat = exps.reshape(1, -1), coeffs.reshape(1, -1)
    terms = (order,) + flat + (((n, order),) * n, layer_peak(flat[1]))
    return UnitaryLike._of_rows(rows, CycloNum.from_int(alpha), terms)


@lru_cache(maxsize=FACTORY_CACHE, typed=True)
def dft_matrix(n: int) -> UnitaryLike:
    """[W^(mk)] with W = exp(-2*pi*i/n), exact entries of order n; alpha = n.
    Row m has a 1 at exponent mk mod n in column k."""
    _check_dim(n)
    n = index(n)  # a numpy int as a Python int, the order of every row
    m, k = np.indices((n, n))
    return _of_layer(n, m * k % n, np.ones((n, n), np.int64), n)


@lru_cache(maxsize=FACTORY_CACHE, typed=True)
def hadamard_matrix(n: int) -> UnitaryLike:
    """Sylvester-recursion Walsh-Hadamard matrix; n must be a power of two.
    Entry (i, j) is (-1)^popcount(i & j), the popcount being the product
    of the bit matrices of i and j."""
    _check_dim(n)
    if n & (n - 1):
        raise ValueError(f"Walsh-Hadamard dimension must be a power of two, got {n}")
    bits = np.arange(n, dtype=np.int64)[:, None] >> np.arange(int(n).bit_length() - 1) & 1
    return _of_layer(1, np.zeros((n, n), np.intp), 1 - 2 * (bits @ bits.T & 1), n)


@lru_cache(maxsize=FACTORY_CACHE, typed=True)
def identity_matrix(n: int) -> UnitaryLike:
    _check_dim(n)
    return _of_layer(1, np.zeros((n, n), np.intp), np.eye(n, dtype=np.int64), 1)


def custom_matrix(entries) -> UnitaryLike:
    """Validate rows (sequences or lists of scalars) as unitary-like:
    alpha is the energy of row 0 and every row must have it, and the
    off-diagonal of U U^H must vanish, which `is_n_co_sf` of the rows
    decides (at width 1 its sums are exactly that Gram product).
    Raises naming the first offending row pair."""
    entries = list(entries)
    _check_dim(len(entries))
    rows = [row if isinstance(row, Sequence) else Sequence(row) for row in entries]
    if any(len(row) != len(rows) for row in rows):
        raise MatrixValidationError("matrix is not square")
    row_set = SequenceSet(rows)
    terms = row_terms(map(terms_of, rows))  # its energy check reads them as a cell
    cell = (terms[0],) + tuple(x.reshape(len(x), len(rows), -1) for x in terms[1:3])
    e, differ = unequal_energies(cell, DEFAULT_TOL)
    u = UnitaryLike._of_rows(row_set, array_entry(e, 0), terms)
    if scalar_is_zero(u.alpha):  # an energy is real and >= 0, so only 0 fails
        raise MatrixValidationError("alpha = 0 is not a positive real")
    gram = [((i, i), array_entry(e, i)) for i in differ]
    gram += [((p.left, p.right), p.values[0])
             for p in is_n_co_sf(u.rows_family(), u.dim).pairs if not p.ok]
    if gram:
        (i, j), g = gram[0]
        raise MatrixValidationError(
            f"rows ({i}, {j}): inner product {_number(g)} "
            f"breaks U U^H = alpha I (alpha = {_number(u.alpha)})")
    return u


def _number(x: Scalar) -> str:
    """A scalar's value for a message; the exact scalar itself when no
    float holds its value."""
    try:
        return f"{scalar_numeric(x):.6g}"
    except OverflowError:
        return repr(x)


# -- matrix literals in recipe/family documents -------------------------


# The factory of each named matrix kind; "custom" is the only other kind.
MATRIX_KINDS = {"dft": dft_matrix, "hadamard": hadamard_matrix,
                "identity": identity_matrix}


@dataclass
class MatrixSpec:
    """Serializable reference to a matrix: a named factory or explicit
    entries for a custom one."""

    kind: str  # dft | hadamard | identity | custom
    dim: int
    entries: Optional[list] = None  # custom only: rows, as for custom_matrix

    def build(self) -> UnitaryLike:
        if self.kind in MATRIX_KINDS:
            return MATRIX_KINDS[self.kind](self.dim)
        if self.kind == "custom":
            if self.entries is None:
                raise ValueError("custom matrix spec needs entries")
            m = custom_matrix(self.entries)
            if m.dim != self.dim:
                raise ValueError(
                    f"custom matrix is {m.dim}x{m.dim}, spec says {self.dim}")
            return m
        raise ValueError(f"unknown matrix kind {self.kind!r}")


def parse_matrix_shorthand(text: str) -> MatrixSpec:
    """'dft:4' / 'hadamard:2' / 'identity:3' -> MatrixSpec."""
    kind, _, dim = text.partition(":")
    if kind not in MATRIX_KINDS or not dim.isdecimal() or int(dim) < 1:
        raise ValueError(
            f"bad matrix shorthand {text!r}; expected kind:dim with kind "
            f"one of {', '.join(MATRIX_KINDS)} and dim >= 1")
    return MatrixSpec(kind=kind, dim=int(dim))
