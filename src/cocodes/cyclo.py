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

# Matrix factories refuse a dimension above this: an N x N DFT has N^3
# coefficients (N = 128 builds in about 0.02 s and 17 MB, 256 in 0.2 s, 130 MB).
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


# -- integer polynomial helpers (ascending coefficient tuples) ---------


def _poly_trim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def _poly_divexact(dividend, divisor) -> list:
    """Exact quotient of integer polynomials; raises if division leaves a remainder."""
    rem = _poly_trim(dividend)
    div = _poly_trim(divisor)
    if not div:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * (max(len(rem) - len(div) + 1, 0))
    lead = div[-1]
    for i in range(len(rem) - 1, len(div) - 2, -1):
        c = rem[i]
        if c % lead:
            raise ValueError("division is not exact")
        q = c // lead
        quot[i - (len(div) - 1)] = q
        if q:
            for j, dj in enumerate(div):
                rem[i - (len(div) - 1) + j] -= q * dj
    if any(rem):
        raise ValueError("division is not exact")
    return quot


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


def _substitute_power(poly: tuple, e: int) -> tuple:
    """poly(x^e) of an ascending coefficient tuple."""
    out = [0] * ((len(poly) - 1) * e + 1)
    out[::e] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    """Phi_k as an ascending integer coefficient tuple, by the standard
    identities (p prime, m > 1 coprime to p, rad(k) the product of the
    distinct primes of k):

      Phi_k(x)  = Phi_rad(k)(x^(k / rad(k)))
      Phi_p(x)  = 1 + x + ... + x^(p - 1)
      Phi_2m(x) = Phi_m(-x)                  for odd m
      Phi_pm(x) = Phi_m(x^p) / Phi_m(x)

    The last one, with p the largest prime of an odd square-free k, is
    the only division: one exact division by Phi_(k/p)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return (-1, 1)
    primes = _prime_factors(k)
    rad = prod(primes)
    if rad != k:
        return _substitute_power(cyclotomic_polynomial(rad), k // rad)
    if len(primes) == 1:
        return (1,) * k
    if k % 2 == 0:
        return tuple(c if j % 2 == 0 else -c
                     for j, c in enumerate(cyclotomic_polynomial(k // 2)))
    p = primes[-1]
    inner = cyclotomic_polynomial(k // p)
    return tuple(_poly_divexact(_substitute_power(inner, p), inner))


def euler_phi(k: int) -> int:
    return len(cyclotomic_polynomial(k)) - 1


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
    |coefficients| of Phi_k below the leading one) times it.  Evaluated
    in floats and capped at 2^64, past which no int64 stack is safe."""
    cap = 2.0 ** 64
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    rev = np.array(phi[-2::-1], dtype=float)  # coefficient d - 1 of the reversal
    a = np.zeros(max((k // 2 if k % 2 == 0 else k) - deg, 0))
    for n in range(len(a)):
        m = min(n, deg)
        a[n] = np.clip((n == 0) - rev[:m] @ a[n - m:n][::-1], -cap, cap)
    spread = float(np.abs(a).sum()) * float(np.abs(rev).sum())
    return min(1 + spread, cap)
