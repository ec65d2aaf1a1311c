"""Unitary-like matrices: DFT, Walsh-Hadamard, identity, and validated
user-supplied matrices.

A square matrix U is unitary-like when U U^H = U^H U = alpha I for some
alpha > 0.  DFT entries are exact roots of unity of order N so every
construction built on them stays exactly verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cyclo import DIM_LIMIT, CycloNum
from .model import (
    EXACT,
    ModeMismatchError,
    Scalar,
    Sequence,
    SequenceFamily,
    inner,
    scalar_is_zero,
    scalar_mode,
    scalar_numeric,
    singleton_family,
)

VALIDATE_TOL = 1e-9


class MatrixValidationError(ValueError):
    """Supplied entries do not form a unitary-like matrix."""


class UnitaryLike:
    """Validated N x N matrix with U U^H = alpha I; immutable."""

    __slots__ = ("dim", "entries", "alpha", "mode")

    def __init__(self, entries, alpha: Scalar):
        entries = tuple(tuple(row) for row in entries)
        dim = len(entries)
        if any(len(row) != dim for row in entries):
            raise MatrixValidationError("matrix is not square")
        modes = {scalar_mode(x) for row in entries for x in row}
        if len(modes) != 1:
            raise ModeMismatchError("matrix mixes exact and approx entries")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mode", modes.pop())

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryLike is immutable")

    def row(self, m: int) -> Sequence:
        return Sequence(self.entries[m])

    def rows(self):
        return [self.row(m) for m in range(self.dim)]

    def rows_family(self) -> SequenceFamily:
        """The rows viewed as a family of single-sequence sets."""
        return singleton_family(self.rows())

    def __repr__(self) -> str:
        return f"UnitaryLike(dim={self.dim}, alpha={self.alpha!r})"


def _check_dim(n: int) -> None:
    if not 1 <= n <= DIM_LIMIT:
        raise ValueError(f"dimension must be in 1..{DIM_LIMIT}, got {n}")


def dft_matrix(n: int) -> UnitaryLike:
    """[W^(mn)] with W = exp(-2*pi*i/n), exact entries of order n; alpha = n."""
    _check_dim(n)
    rows = [
        [CycloNum.root(n, (m * k) % n) for k in range(n)]
        for m in range(n)
    ]
    return UnitaryLike(rows, CycloNum.from_int(n))


def hadamard_matrix(n: int) -> UnitaryLike:
    """Sylvester-recursion Walsh-Hadamard matrix; n must be a power of two."""
    _check_dim(n)
    if n & (n - 1):
        raise ValueError(f"Walsh-Hadamard dimension must be a power of two, got {n}")
    block = [[1]]
    size = 1
    while size < n:
        block = (
            [row + row for row in block]
            + [row + [-x for x in row] for row in block]
        )
        size *= 2
    rows = [[CycloNum.from_int(x) for x in row] for row in block]
    return UnitaryLike(rows, CycloNum.from_int(n))


def identity_matrix(n: int) -> UnitaryLike:
    _check_dim(n)
    one, zero = CycloNum.from_int(1), CycloNum.from_int(0)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return UnitaryLike(rows, CycloNum.from_int(1))


def custom_matrix(entries, tol: float = VALIDATE_TOL) -> UnitaryLike:
    """Validate arbitrary entries as unitary-like; alpha is read off the
    (0,0) entry of U U^H.  Raises naming the first offending row pair."""
    entries = list(entries)
    _check_dim(len(entries))
    entries = [list(row) for row in entries]
    dim = len(entries)
    if any(len(row) != dim for row in entries):
        raise MatrixValidationError("matrix is not square")
    coerced = [[_coerce_scalar(x) for x in row] for row in entries]
    rows = [Sequence(row) for row in coerced]
    alpha = inner(rows[0], rows[0])
    alpha_num = scalar_numeric(alpha)
    if abs(alpha_num.imag) > tol * max(abs(alpha_num), 1.0) or alpha_num.real <= 0:
        raise MatrixValidationError(f"alpha = {alpha_num:.6g} is not a positive real")
    tol_abs = 0.0 if rows[0].mode == EXACT else tol * abs(alpha_num)
    for i in range(dim):
        for j in range(dim):
            g = inner(rows[i], rows[j])
            residual = g - alpha if i == j else g
            if not scalar_is_zero(residual, tol_abs):
                raise MatrixValidationError(
                    f"rows ({i}, {j}): inner product {scalar_numeric(g):.6g} "
                    f"breaks U U^H = alpha I (alpha = {alpha_num:.6g})"
                )
    return UnitaryLike(coerced, alpha)


def _coerce_scalar(x) -> Scalar:
    """Scalar of a matrix or document entry: CycloNum as is, integers and
    the "+" / "-" shorthand exact, other numbers approx; bools refused."""
    if isinstance(x, bool):
        raise TypeError(f"not a scalar: {x!r}")
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, int):
        return CycloNum.from_int(x)
    if isinstance(x, str) and x in ("+", "-"):
        return CycloNum.from_int(1 if x == "+" else -1)
    return complex(x)


# -- matrix literals in recipe/family documents -------------------------


@dataclass
class MatrixSpec:
    """Serializable reference to a matrix: a named factory or explicit
    entries for a custom one."""

    kind: str  # dft | hadamard | identity | custom
    dim: int
    entries: Optional[list] = None  # custom only, rows of scalars

    def build(self) -> UnitaryLike:
        if self.kind == "dft":
            return dft_matrix(self.dim)
        if self.kind == "hadamard":
            return hadamard_matrix(self.dim)
        if self.kind == "identity":
            return identity_matrix(self.dim)
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
    if kind not in ("dft", "hadamard", "identity") or not dim.isdigit():
        raise ValueError(
            f"bad matrix shorthand {text!r}; expected kind:dim with kind "
            "one of dft, hadamard, identity")
    return MatrixSpec(kind=kind, dim=int(dim))
