"""Exact arithmetic in the cyclotomic group ring Z[zeta_K].

A value is stored as an integer coefficient vector (c_0, ..., c_{K-1})
meaning sum_j c_j * zeta_K^j with zeta_K = exp(-2*pi*i/K).  The
representation is deliberately *not* reduced: addition is vector
addition, multiplication is cyclic convolution of exponents, and
conjugation is an index permutation.  Reduction modulo the K-th
cyclotomic polynomial happens only when a value has to be tested
against zero (or turned into a canonical key), which is what makes
"this correlation is exactly zero" a decidable question.

A CycloNum's coefficients are plain Python ints, so they never
overflow.  Arrays of coefficients (a sequence's, a correlation stack)
are int64 while every coefficient is below `INT64_COEFF_BOUND` in
magnitude and hold Python ints past it.  The reduction is one long
division by Phi_K (`reduce_rows`), applied to one value or to a whole
stack of them at once, so `CycloNum.is_zero` and the correlation kernel
decide zero by the same rule; `reducible` picks the dtype a stack is
reduced in, so that no int64 step can wrap.  `zero_rows` is the one zero
test of a stack, exact or approx, that every module shares.

Phi_K and the bound `reduction_gain` both come from one identity, the
Moebius inversion of x^K - 1 = prod over d | K of Phi_d:

  Phi_K(x) = P_K(x) = prod over square-free e | K of (1 - x^(K/e))^mu(e)

for K >= 2 (Phi_1 = -P_1).  Phi_K is the first phi(K) + 1 coefficients
of P_K, and the growth of a reduction is read from those of 1 / P_K.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd, prod
from operator import index

import numpy as np

# Auto-promotion of mixed orders goes through lcm; cap it so a typo in a
# recipe cannot silently request a ring with millions of coefficients.
ORDER_LIMIT = 10_000

# Matrix factories refuse a dimension above this: `ccc_from_unitary` of a DFT-N has N^3 entries
# (N = 128: 0.2-0.5 s, 34 MB, 89 MB peak RSS; 256: 1.4 s, 268 MB, 450 MB), 8 N^4 bytes dense.
DIM_LIMIT = 128

# An exact coefficient array is int64 when every coefficient is below
# this in magnitude, so that a product of two coefficients stays below
# 2^62; past it the array holds Python ints.
INT64_COEFF_BOUND = 2 ** 31

# Coefficients at or past this magnitude are refused, by the
# verification kernel and at document read: the kernel reads them as
# floats after folding an even order (zeta^(K/2) = -1), which can double
# one, and binary64 ends just below 2^1024.
COEFF_LIMIT = 2 ** 1022

# int64 stacks are reduced as int64 only while peak * reduction_gain
# stays below this (half of 2^63: folding an even order adds one bit).
_INT64_SAFE = 2 ** 62


class OrderLimitError(ValueError):
    """lcm of cyclotomic orders exceeded ORDER_LIMIT."""


class CoefficientLimitError(ValueError):
    """A coefficient's magnitude reached COEFF_LIMIT."""


def check_coefficients(a: np.ndarray) -> None:
    """Raise CoefficientLimitError when a coefficient of the array of
    Python ints `a` reaches COEFF_LIMIT in magnitude."""
    peak = max(a.max(), -a.min()) if a.size else 0
    if peak >= COEFF_LIMIT:
        raise CoefficientLimitError(
            f"a coefficient of {peak.bit_length()} bits reaches the magnitude cap "
            f"COEFF_LIMIT = 2^{COEFF_LIMIT.bit_length() - 1}")


def common_order(k1: int, k2: int) -> int:
    k = k1 // gcd(k1, k2) * k2
    if k > ORDER_LIMIT:
        raise OrderLimitError(
            f"lcm({k1}, {k2}) = {k} exceeds the supported order cap {ORDER_LIMIT}"
        )
    return k


class CycloNum:
    """An element of Z[zeta_K] for a fixed order K >= 1.

    Instances are immutable.  `==` is *value* equality (two different
    coefficient vectors, possibly of different orders, compare equal
    when they denote the same complex number); use `is_zero` for the
    zero test.  Because value equality is nontrivial, instances are
    deliberately unhashable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        # integers only (numpy's too): a float or a string raises TypeError
        order = index(order)
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) != order:
            raise ValueError(
                f"need exactly {order} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "CycloNum":
        return cls(1, (n,))

    @classmethod
    def root(cls, order: int, exponent: int = 1) -> "CycloNum":
        """zeta_order^exponent."""
        coeffs = [0] * order
        coeffs[exponent % order] = 1
        return cls(order, coeffs)

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNum":
        return cls(order, (0,) * order)

    # -- ring operations ----------------------------------------------

    def promote(self, order: int) -> "CycloNum":
        """Re-express in Z[zeta_order]; requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        if order > ORDER_LIMIT:
            raise OrderLimitError(f"order {order} exceeds cap {ORDER_LIMIT}")
        coeffs = [0] * order
        coeffs[::order // self.order] = self.coeffs
        return CycloNum(order, coeffs)

    def __add__(self, other: "CycloNum") -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        k = common_order(self.order, other.order)
        a = self.promote(k)
        b = other.promote(k)
        return CycloNum(k, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, [-c for c in self.coeffs])

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "CycloNum") -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        k = common_order(self.order, other.order)
        a = self.promote(k)
        b = other.promote(k)
        out = [0] * k
        for i, ci in enumerate(a.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj:
                    out[(i + j) % k] += ci * cj
        return CycloNum(k, out)

    def conj(self) -> "CycloNum":
        """Complex conjugate: exponent j maps to (K - j) mod K."""
        return CycloNum(self.order, self.coeffs[:1] + self.coeffs[:0:-1])

    # -- decision procedures ------------------------------------------

    def reduced(self) -> tuple:
        """Canonical coefficients modulo Phi_K, padded to degree phi(K).

        Two CycloNums of the *same* order denote the same value iff
        their reduced tuples are equal.
        """
        rows = np.array([self.coeffs], dtype=object)
        return tuple(reduce_rows(rows, self.order)[0])

    def is_zero(self) -> bool:
        if all(c == 0 for c in self.coeffs):
            return True
        return all(c == 0 for c in self.reduced())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycloNum.from_int(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # value equality crosses orders; no cheap consistent hash

    # -- misc ----------------------------------------------------------

    def monomial(self):
        """(exponent, coefficient) if at most one coefficient is nonzero, else None."""
        found = None
        for j, c in enumerate(self.coeffs):
            if c:
                if found is not None:
                    return None
                found = (j, c)
        return found if found is not None else (0, 0)

    def numeric(self) -> complex:
        """Floating-point value; for cross-checks, never for decisions."""
        k = self.order
        return sum(
            c * cmath.exp(-2j * cmath.pi * j / k)
            for j, c in enumerate(self.coeffs)
            if c
        )

    def max_abs_coeff(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def __repr__(self) -> str:
        mono = self.monomial()
        if mono is not None:
            j, c = mono
            if c == 0:
                return "Cyclo(0)"
            if j == 0:
                return f"Cyclo({c})"
            return f"Cyclo({c if c != 1 else ''}z{self.order}^{j})"
        return f"CycloNum(order={self.order}, coeffs={list(self.coeffs)})"


# -- cyclotomic polynomials -------------------------------------------


def _prime_factors(k: int) -> list:
    """Distinct prime factors of k >= 1, ascending."""
    found, p = [], 2
    while p * p <= k:
        if k % p == 0:
            found.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return found + [k] if k > 1 else found


def _mobius_series(k: int, n: int, power: int = 1) -> list:
    """The first n coefficients, as Python ints, of P_k^power for power
    1 or -1, where P_k(x) = prod over square-free e | k of
    (1 - x^(k/e))^mu(e).  Multiplying by 1 - x^d subtracts the series
    shifted by d; dividing by it is a running sum along stride d."""
    a = np.zeros(n, dtype=object)
    a[:1] = 1
    factors = [(k, 1)]  # (k/e, mu(e)) over the square-free e | k
    for p in _prime_factors(k):
        factors += [(d // p, -mu) for d, mu in factors]
    for d, mu in factors:
        if d >= n:
            continue  # 1 - x^d is 1 in the first n coefficients
        if mu == power:  # multiply by 1 - x^d
            a[d:] = a[d:] - a[:n - d]
        else:  # divide by 1 - x^d
            a = np.pad(a, (0, -n % d)).reshape(-1, d).cumsum(axis=0).ravel()[:n]
    return a.tolist()


def euler_phi(k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    primes = _prime_factors(k)
    return k // prod(primes) * prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    """Phi_k as an ascending integer coefficient tuple.  Moebius
    inversion of x^k - 1 = prod over d | k of Phi_d gives Phi_k = P_k
    (see `_mobius_series`) for k >= 2 and Phi_1 = -P_1."""
    coeffs = _mobius_series(k, euler_phi(k) + 1)
    return tuple(coeffs) if k > 1 else tuple(-c for c in coeffs)


def reduce_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Residues modulo Phi_k of the rows of an integer array: one
    (n, phi(k)) array whose row i is zero iff row i denotes zero.

    A row holds the k coefficients of zeta_k^0 .. zeta_k^(k-1), or for
    an even k the k/2 coefficients left after folding by
    zeta_k^(k/2) = -1.  All rows are divided by the monic Phi_k at once,
    one leading column at a time (columns that are zero in every row are
    skipped), so the work is the schoolbook long division and the memory
    O(n k) whatever k is.  Object rows (Python ints) are reduced
    exactly; int64 rows (folded for an even k) must keep
    peak * `reduction_gain(k)` below 2^63, which `reducible` sees to."""
    if k % 2 == 0 and rows.shape[1] == k:
        rows = rows[:, :k // 2] - rows[:, k // 2:]
    else:
        rows = rows.copy()
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    low = np.array(phi[:deg], dtype=np.int64)
    for j in range(rows.shape[1] - 1, deg - 1, -1):
        lead = rows[:, j]
        if lead.any():
            rows[:, j - deg:j] -= lead[:, None] * low
    return rows[:, :deg]


def reducible(rows: np.ndarray, k: int) -> np.ndarray:
    """`rows` in a dtype that `reduce_rows` reduces exactly at order k:
    an int64 stack whose largest magnitude times `reduction_gain(k)`
    reaches 2^62 becomes Python ints; any other stack is returned as
    it is."""
    if rows.dtype == object or not rows.size:
        return rows
    peak = max(int(rows.max()), -int(rows.min()))
    if peak * reduction_gain(k) >= _INT64_SAFE:
        return rows.astype(object)
    return rows


def zero_rows(rows: np.ndarray, k: int, tol: float = 0.0) -> np.ndarray:
    """Which rows of a stack denote zero: an approx row (one complex
    value) when its magnitude is at most `tol`, an integer row of order
    k when its residue modulo Phi_k is zero."""
    if rows.dtype.kind in "fc":
        return np.abs(rows[:, 0]) <= tol
    return ~(reduce_rows(reducible(rows, k), k) != 0).any(axis=1)


@lru_cache(maxsize=16)
def reduction_gain(k: int) -> float:
    """Bound on |entry| / |largest coefficient| over every intermediate
    and final entry of `reduce_rows` at order k (rows folded for an even
    k).  The leading coefficients the division takes out are the row
    convolved with the power series a = 1 / (Phi_k with its coefficients
    reversed), so each is at most A = sum |a_n| times the largest
    coefficient, and every other entry at most 1 + A * (sum of
    |coefficients| of Phi_k below the leading one) times it.  Phi_k is
    palindromic for k >= 2 and reversed Phi_1 is P_1, so a = 1 / P_k
    (see `_mobius_series`), summed in integers.  The bound is capped at
    2^64, past which no int64 stack is safe."""
    phi = cyclotomic_polynomial(k)
    width = k // 2 if k % 2 == 0 else k
    a = _mobius_series(k, max(width - len(phi) + 1, 0), -1)
    spread = float(sum(map(abs, a))) * float(sum(map(abs, phi)) - 1)
    return min(1 + spread, 2.0 ** 64)
