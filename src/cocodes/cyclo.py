"""Exact arithmetic in the cyclotomic group ring Z[zeta_K].

A value is stored as an integer coefficient vector (c_0, ..., c_{K-1})
meaning sum_j c_j * zeta_K^j with zeta_K = exp(-2*pi*i/K).  The
representation is deliberately *not* reduced: addition is vector
addition, multiplication is cyclic convolution of exponents, and
conjugation is an index permutation.  Reduction modulo the K-th
cyclotomic polynomial happens only when a value has to be tested
against zero (or turned into a canonical key), which is what makes
"this correlation is exactly zero" a decidable question.

Coefficients are plain Python ints, so they never overflow.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd

# Auto-promotion of mixed orders goes through lcm; cap it so a typo in a
# recipe cannot silently request a ring with millions of coefficients.
ORDER_LIMIT = 10_000

# Matrix factories refuse a dimension above this: an N x N DFT has N^3
# coefficients (N = 128 builds in about 0.3 s and 30 MB, 256 in 3 s, 260 MB).
DIM_LIMIT = 128


class OrderLimitError(ValueError):
    """lcm of cyclotomic orders exceeded ORDER_LIMIT."""


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
        order = int(order)
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        coeffs = tuple(int(c) for c in coeffs)
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
        phi = cyclotomic_polynomial(self.order)
        rem = _poly_mod(self.coeffs, phi)
        deg = len(phi) - 1
        return tuple(rem) + (0,) * (deg - len(rem))

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


def _poly_mod(dividend, divisor) -> list:
    """Remainder of integer polynomial division by a *monic* divisor."""
    assert divisor[-1] == 1, "divisor must be monic"
    rem = list(dividend)
    d = len(divisor) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(d):
                rem[i - d + j] -= c * divisor[j]
    return _poly_trim(rem[:d])


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    """Phi_k as an ascending integer coefficient tuple.

    Computed as (x^k - 1) divided by the product of Phi_d over proper
    divisors d of k; the division is exact by construction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return (-1, 1)
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    return tuple(num)


def euler_phi(k: int) -> int:
    return len(cyclotomic_polynomial(k)) - 1
