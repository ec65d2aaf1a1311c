"""Exact cyclotomic arithmetic: ring operations, the zero decision, and
the cyclotomic polynomial machinery behind it."""

import cmath
import hashlib
import random
import time
import tracemalloc

import numpy as np
import pytest

from cocodes.cyclo import (
    ORDER_LIMIT,
    CycloNum,
    OrderLimitError,
    cyclotomic_polynomial,
    euler_phi,
    reduce_rows,
    reduction_gain,
)


def close(a: complex, b: complex, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestArithmetic:
    def test_additive_inverse(self):
        one = CycloNum(2, [1, 0])
        assert (one + CycloNum(2, [-1, 0])).is_zero()

    def test_cube_roots_sum_to_minus_one(self):
        z1 = CycloNum(3, [0, 1, 0])
        z2 = CycloNum(3, [0, 0, 1])
        assert z1 + z2 == CycloNum.from_int(-1)

    def test_mixed_order_addition(self):
        a = CycloNum(2, [1, 0])
        b = CycloNum(3, [0, 1, 0])
        s = a + b
        assert s.order == 6
        # oracle: plain complex arithmetic
        expect = 1 + cmath.exp(-4j * cmath.pi / 6)
        assert close(s.numeric(), expect)
        assert s == CycloNum(6, [1, 0, 1, 0, 0, 0])

    def test_i_squared(self):
        i4 = CycloNum.root(4, 1)
        assert i4 * i4 == CycloNum.from_int(-1)

    def test_mul_identity(self):
        a = CycloNum(6, [2, -1, 0, 3, 0, 0])
        assert CycloNum.from_int(1) * a == a

    def test_product_of_conjugate_factors(self):
        # (1 + z3)(1 + z3^2) = 1 + z3 + z3^2 + 1 = 1
        a = CycloNum(3, [1, 1, 0])
        b = CycloNum(3, [1, 0, 1])
        p = a * b
        assert p == CycloNum.from_int(1)
        assert close(p.numeric(), a.numeric() * b.numeric())

    def test_conj_of_quarter_root(self):
        z = CycloNum.root(4, 1)
        assert z.conj() == CycloNum.root(4, 3)

    def test_conj_of_real(self):
        r = CycloNum.from_int(7)
        assert r.conj() == r

    def test_conj_of_sum(self):
        a = CycloNum(3, [1, 1, 0])  # 1 + z3
        assert a.conj() == CycloNum(3, [1, 0, 1])
        assert close(a.conj().numeric(), a.numeric().conjugate())


class TestIntegerInputs:
    @pytest.mark.parametrize("order, coeffs", [
        (2, (1.5, 0)),
        (4, (0.9, 0, 0, 0)),
        (2.5, (1, 0)),
        (2.0, (1, 0)),
        ("2", (1, 0)),
        (2, ("1", 0)),
    ])
    def test_floats_and_strings_refused(self, order, coeffs):
        with pytest.raises(TypeError):
            CycloNum(order, coeffs)

    def test_numpy_integers_taken(self):
        x = CycloNum(np.int64(4), np.array([1, 0, -2, 0], dtype=np.int64))
        assert x.order == 4 and x.coeffs == (1, 0, -2, 0)
        assert all(type(c) is int for c in (x.order, *x.coeffs))
        assert x == CycloNum(4, [1, 0, -2, 0])


class TestZeroDecision:
    def test_all_cube_roots_sum_to_zero(self):
        assert CycloNum(3, [1, 1, 1]).is_zero()

    def test_single_root_nonzero(self):
        assert not CycloNum(4, [0, 1, 0, 0]).is_zero()

    def test_order_six_cancellation(self):
        # 1 - z6 + z6^3 - z6^4 = 0
        x = CycloNum(6, [1, -1, 0, 1, -1, 0])
        assert x.is_zero()
        assert abs(x.numeric()) < 1e-12

    def test_zero_implies_small_numeric(self):
        rng = random.Random(7)
        for _ in range(50):
            k = rng.choice([1, 2, 3, 4, 6, 8, 12])
            a = CycloNum(k, [rng.randint(-3, 3) for _ in range(k)])
            d = a - a
            assert d.is_zero()
            assert abs(d.numeric()) < 1e-9


def long_division_remainder(coeffs, k):
    """Remainder of sum c_j x^j on division by the monic Phi_k, padded
    to phi(k) coefficients: the schoolbook reference for reduce_rows."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c, rem[i] = rem[i], 0
        for j in range(deg):
            rem[i - deg + j] -= c * phi[j]
    return tuple(rem[:deg])


class TestReduction:
    @pytest.mark.parametrize("k", list(range(1, 61)) + [105, 128, 210, 385])
    def test_matches_long_division(self, k):
        rng = random.Random(k)
        rows = [[rng.choice([0, rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)])
                 for _ in range(k)] for _ in range(4)]
        expect = [long_division_remainder(r, k) for r in rows]
        assert [CycloNum(k, r).reduced() for r in rows] == expect
        exact = reduce_rows(np.array(rows, dtype=object), k)
        assert [tuple(r) for r in exact.tolist()] == expect
        small = [[c % 7 - 3 for c in r] for r in rows]
        assert reduce_rows(np.array(small, dtype=np.int64), k).tolist() == [
            list(long_division_remainder(r, k)) for r in small]

    def test_large_order_needs_no_order_squared_memory(self):
        # 2001 = 3 * 23 * 29 has phi = 1232: a table of x^j mod Phi for
        # the 769 powers past it would take 7.6 MB as int64
        k = 2001
        coeffs = [1 if j in (3, 1000, 1999) else 0 for j in range(k)]
        expect = long_division_remainder(coeffs, k)
        a = CycloNum(k, coeffs)
        tracemalloc.start()
        try:
            assert a.reduced() == expect
            assert not a.is_zero() and (a - a).is_zero()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("k", [7, 12, 15, 105, 210, 385])
    def test_gain_bounds_every_intermediate(self, k):
        # the long division run by hand on rows of peak 1000, watching
        # every entry it writes
        rng = random.Random(k)
        phi = cyclotomic_polynomial(k)
        deg = len(phi) - 1
        width = k // 2 if k % 2 == 0 else k
        seen = 0
        for _ in range(20):
            row = [rng.choice([-1000, 1000, rng.randint(-1000, 1000)]) for _ in range(width)]
            for j in range(width - 1, deg - 1, -1):
                for i in range(deg):
                    row[j - deg + i] -= row[j] * phi[i]
                    seen = max(seen, abs(row[j - deg + i]), abs(row[j] * phi[i]))
        assert seen <= 1000 * reduction_gain(k)

    def test_folded_rows_of_even_order(self):
        # an even order's rows may come folded by zeta^(k/2) = -1
        rng = random.Random(3)
        for k in (2, 4, 6, 12, 30):
            full = [rng.randint(-5, 5) for _ in range(k)]
            folded = [a - b for a, b in zip(full[:k // 2], full[k // 2:])]
            assert reduce_rows(np.array([folded]), k).tolist() == \
                reduce_rows(np.array([full]), k).tolist()


class TestCyclotomicPolynomials:
    def test_first_two(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)

    def test_sixth(self):
        # oracle: divide x^6 - 1 by Phi_1 * Phi_2 * Phi_3 exactly
        denom = _polymul(_polymul([-1, 1], [1, 1]), [1, 1, 1])
        expect = _divexact([-1, 0, 0, 0, 0, 0, 1], denom)
        assert list(cyclotomic_polynomial(6)) == expect == [1, -1, 1]

    @pytest.mark.parametrize("k", list(range(1, 31)))
    def test_degree_is_totient(self, k):
        phi = sum(1 for j in range(1, k + 1) if _gcd(j, k) == 1)
        assert euler_phi(k) == phi

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8, 9, 12, 15, 24, 30])
    def test_product_over_divisors(self, k):
        prod = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                prod = _polymul(prod, cyclotomic_polynomial(d))
        expect = [-1] + [0] * (k - 1) + [1]
        assert prod == expect

    def test_matches_division_definition(self):
        # Phi_k = (x^k - 1) divided by Phi_d for every proper divisor d
        ref = {}
        for k in range(1, 401):
            num = [-1] + [0] * (k - 1) + [1]
            for d in range(1, k):
                if k % d == 0:
                    num = _divexact(num, ref[d])
            ref[k] = tuple(num)
            assert cyclotomic_polynomial(k) == ref[k], k

    def test_pinned_goldens(self):
        # sha256 of the reprs, taken from the earlier implementation: Phi_k
        # by the standard identities with one exact long division, the gain
        # by a float recurrence for the series 1 / rev(Phi_k)
        phis = [cyclotomic_polynomial(k) for k in range(1, 1001)]
        assert all(type(c) is int for phi in phis for c in phi)
        assert hashlib.sha256(repr(phis).encode()).hexdigest() == (
            "7b92264ada9e218bb76974ac9420d0c3087e82bb5210f655756f731a1ee57738")
        gains = [reduction_gain(k) for k in [*range(1, 1001), 9240, 9999, 10000]]
        assert gains[-3:] == [324325.0, 82415.0, 5.0]
        assert hashlib.sha256(repr(gains).encode()).hexdigest() == (
            "e113659ede7c4427c3a348f3667d1841a62328759ddcba9a4a1e3c46a9d73fee")

    def test_large_orders_are_fast(self):
        # orders near ORDER_LIMIT with a large prime factor: 9998 = 2 * 4999
        # and 9993 = 3 * 3331
        cyclotomic_polynomial.cache_clear()
        start = time.perf_counter()
        phi = cyclotomic_polynomial(9998)  # 2 * 4999, 4999 prime
        assert time.perf_counter() - start < 0.5
        assert phi == tuple((-1) ** j for j in range(4999))
        start = time.perf_counter()
        assert euler_phi(9993) == 2 * 3330
        assert time.perf_counter() - start < 0.5


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _divexact(num, den):
    """Exact quotient num / den of integer polynomials (ascending, den
    with a nonzero leading coefficient); asserts a zero remainder."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        assert c % den[-1] == 0
        qi = c // den[-1]
        q[i - len(den) + 1] = qi
        for j, d in enumerate(den):
            num[i - len(den) + 1 + j] -= qi * d
    assert not any(num)
    return q


class TestInvariantsRandomized:
    def test_numeric_agreement(self):
        rng = random.Random(20240811)
        for _ in range(300):
            k1 = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
            k2 = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
            a = CycloNum(k1, [rng.randint(-4, 4) for _ in range(k1)])
            b = CycloNum(k2, [rng.randint(-4, 4) for _ in range(k2)])
            assert close((a + b).numeric(), a.numeric() + b.numeric(), 1e-9)
            assert close((a * b).numeric(), a.numeric() * b.numeric(), 1e-9)
            assert close(a.conj().numeric(), a.numeric().conjugate(), 1e-9)

    def test_promotion_preserves_value(self):
        rng = random.Random(5)
        for _ in range(100):
            k = rng.choice([1, 2, 3, 4, 6])
            mult = rng.choice([1, 2, 3, 5])
            a = CycloNum(k, [rng.randint(-5, 5) for _ in range(k)])
            b = a.promote(k * mult)
            assert close(a.numeric(), b.numeric())
            assert a == b

    def test_big_coefficients_stay_exact(self):
        big = 10 ** 40
        a = CycloNum(3, [big, -big, 0])
        b = CycloNum(3, [0, big, -big])
        assert (a + b) == CycloNum(3, [big, 0, -big])
        assert ((a - a)).is_zero()
        p = a * CycloNum.from_int(10 ** 20)
        assert p.coeffs[0] == 10 ** 60

    def test_order_cap(self):
        with pytest.raises(OrderLimitError):
            CycloNum.root(101, 1) * CycloNum.root(103, 1)
        assert 101 * 103 > ORDER_LIMIT

    def test_reduced_is_canonical_per_order(self):
        # same value, same order, different raw vectors
        a = CycloNum(3, [2, 1, 1])   # 2 + z + z^2 = 1
        b = CycloNum(3, [1, 0, 0])
        assert a.reduced() == b.reduced()
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            CycloNum(0, [])
        with pytest.raises(ValueError):
            CycloNum(3, [1, 2])
