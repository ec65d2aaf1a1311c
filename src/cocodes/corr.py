"""Aperiodic/periodic correlations, correlation sums, and the defining
predicates (complementary set, CCC, N-shift cross-orthogonal family,
zero-correlation zone of a CCC).

All decisions on exact-mode scalars are tolerance-free: a correlation
value is zero iff its reduction modulo the cyclotomic polynomial is the
zero polynomial.  Approx-mode inputs use |residual| <= tol * energy.

`acorr` is the direct definitional sum and stays the reference.  Every
profile and predicate goes through one kernel instead: each call reads
the nonzero terms of the sequences' coefficient arrays at the call's
common order K and sums the profile of a pair of sets per exponent
class of zeta_K with np.correlate, one call per pair of rows, or for
short sequences one call on the rows laid end to end.  The rows are
cast to int64 when the a-priori bound
peak^2 * Lmax * K * (pairs summed) on every sum stays below 2^62, and
stay Python ints otherwise, so no sum can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from .cyclo import CycloNum, common_order
from .model import (
    EXACT,
    Scalar,
    Sequence,
    SequenceFamily,
    SequenceSet,
    scalar_is_zero,
    scalar_numeric,
    set_energy,
    terms,
)

DEFAULT_TOL = 1e-9

_INT64_SAFE = 2 ** 62

# Past this many coefficients per packed sequence, one np.correlate per
# row pair beats one correlation of the packed sequences
_PACKED_MAX = 256


def _sum_products(s: Sequence, t: Sequence, pairs) -> Scalar:
    """sum over (l, m) in `pairs` of s(l) * conj(t(m)), in that order."""
    a, b = list(s), list(t.conj())
    total = CycloNum.zero() if s.mode == EXACT else 0j
    for l, m in pairs:
        total = total + a[l] * b[m]
    return total


def acorr(s: Sequence, t: Sequence, tau: int) -> Scalar:
    """Aperiodic correlation sum_l s(l) * conj(t(l + tau)), entries
    outside either index range counting as zero."""
    lo = max(0, -tau)
    hi = min(len(s), len(t) - tau)
    return _sum_products(s, t, ((l, l + tau) for l in range(lo, hi)))


def pcorr(s: Sequence, t: Sequence, tau: int) -> Scalar:
    """Periodic correlation; both sequences must have the same length."""
    if len(s) != len(t):
        raise ValueError(f"length mismatch: {len(s)} vs {len(t)}")
    n = len(s)
    return _sum_products(s, t, ((l, (l + tau) % n) for l in range(n)))


@dataclass
class CorrelationProfile:
    """Correlation values over every shift that could be nonzero.

    Shifts run symmetrically over [-(Lmax-1), Lmax-1] with
    Lmax = max(len(s), len(t)); values outside the true support are
    exact zeros, so the symmetric hull is always safe to scan.
    """

    min_shift: int
    values: list  # Scalar per shift, index tau - min_shift

    @property
    def max_shift(self) -> int:
        return self.min_shift + len(self.values) - 1

    def shifts(self) -> range:
        return range(self.min_shift, self.max_shift + 1)

    def at(self, tau: int) -> Scalar:
        if tau < self.min_shift or tau > self.max_shift:
            raise IndexError(f"shift {tau} outside profile range")
        return self.values[tau - self.min_shift]


class _Kernel:
    """Coefficient rows of the sequences of one predicate call, and the
    index-paired correlation sums between them.

    Every sequence's array is read over the common order K of the call:
    its row j becomes the row of zeta_K^(j K / k) for its own order k.
    Only rows with a nonzero entry are kept.  Approx sequences are one
    complex row of class 0, stored conjugated so that np.correlate's
    conjugation of its second argument cancels.

    A profile entry of one exponent class sums at most `summed` members
    times K row pairs times Lmax products of size peak^2, so the rows
    are cast to int64 when peak^2 * Lmax * K * summed stays below 2^62,
    and stay Python ints (dtype=object) otherwise.  Folding an even
    order takes the difference of two such entries, which stays below
    2^63.
    """

    def __init__(self, sets, summed: int):
        seqs = [s for ss in sets for s in ss]
        if len({s.mode for s in seqs}) != 1:
            raise ValueError("mode mismatch between sequences")
        self.exact = seqs[0].mode == EXACT
        self.order = order = reduce(common_order, {s.order for s in seqs}, 1)
        found = [[(len(s), terms(s.array, order)) for s in ss] for ss in sets]
        self.dtype = complex
        if self.exact:
            peak = np.abs(np.concatenate([t[2] for ts in found for _, t in ts])).max(initial=0)
            lmax = max(len(s) for s in seqs)
            self.dtype = np.int64 if peak * peak * lmax * order * summed < _INT64_SAFE else object
        self.sets = [[self._rows(length, *t) for length, t in ts] for ts in found]

    def _rows(self, length: int, cols, exps, vals):
        """(length, [(exponent j, coefficient row of zeta_K^j)]) of a
        sequence's nonzero terms, for the rows they fall on."""
        present, row = np.unique(exps, return_inverse=True)
        a = np.zeros((len(present), length), dtype=self.dtype)
        a[row, cols] = vals if self.exact else np.conj(vals)
        return length, list(zip(present.tolist(), a))

    def _packed(self, rows, width: int) -> np.ndarray:
        """The rows of one sequence, row j at offset j * width of one array."""
        out = np.zeros((self.order, width), dtype=self.dtype)
        for j, row in rows:
            out[j, :len(row)] = row
        return out.ravel()

    def sums(self, lefts, rights) -> tuple:
        """(hull, acc) of sum_n R(lefts[n], rights[n]), where
        R(tau) = sum_l s(l) conj(t(l + tau)): column hull + tau of acc
        holds shift tau of the symmetric hull [-hull, hull], one row per
        exponent class."""
        hull = max(length for length, _ in lefts + rights) - 1
        order = self.order
        acc = np.zeros((order, 2 * hull + 1), dtype=self.dtype)
        # with s = sum_i A_i z^i and t = sum_j B_j z^j, R(tau) is
        # sum_{i,j} z^(i-j) * sum_l A_i[l] B_j[l+tau], and that inner sum
        # is np.correlate(B_j, A_i, 'full')[tau + len(s) - 1]
        for (ls, srows), (lt, trows) in zip(lefts, rights):
            lo = hull - ls + 1
            width = ls + lt - 1
            if order * width <= _PACKED_MAX:
                # one correlation of the rows laid out by exponent at stride
                # `width`: block K - 1 - d of it holds the sums with i - j = d
                c = np.correlate(self._packed(trows, width), self._packed(srows, width), "full")
                c = np.concatenate([c[width - ls:], np.zeros(width - ls + 1, c.dtype)])
                acc[:, lo:lo + width] += c.reshape(2, order, width).sum(axis=0)[::-1]
                continue
            for i, a in srows:
                for j, b in trows:
                    acc[(i - j) % order, lo:lo + width] += np.correlate(b, a, "full")
        if order % 2 == 0:
            # zeta_K^(j + K/2) = -zeta_K^j: the fold keeps every value and
            # turns the sums that cancel that way into all-zero columns
            acc = acc[:order // 2] - acc[order // 2:]
        return hull, acc

    def values(self, hull: int, acc, shifts) -> list:
        """Scalar of each shift in `shifts`, read from `sums`."""
        cols = acc[:, np.add(shifts, hull)]
        if not self.exact:
            return cols[0].tolist()
        pad = (0,) * (self.order - len(acc))
        zero = CycloNum.zero()
        return [CycloNum(self.order, col + pad) if any(col) else zero
                for col in zip(*cols.tolist())]

    def profile(self, lefts, rights) -> CorrelationProfile:
        hull, acc = self.sums(lefts, rights)
        return CorrelationProfile(-hull, self.values(hull, acc, range(-hull, hull + 1)))


def corr_profile(s: Sequence, t: Sequence) -> CorrelationProfile:
    """Full aperiodic correlation profile of (s, t)."""
    kernel = _Kernel([[s], [t]], 1)
    return kernel.profile(*kernel.sets)


def corr_sum(ss: SequenceSet, tt: SequenceSet, tau: int) -> Scalar:
    """Index-paired correlation sum of two equal-size sets at one shift."""
    if len(ss) != len(tt):
        raise ValueError(f"set sizes differ: {len(ss)} vs {len(tt)}")
    total = None
    for a, b in zip(ss, tt):
        r = acorr(a, b, tau)
        total = r if total is None else total + r
    return total


def corr_sum_profile(ss: SequenceSet, tt: SequenceSet) -> CorrelationProfile:
    if len(ss) != len(tt):
        raise ValueError(f"set sizes differ: {len(ss)} vs {len(tt)}")
    kernel = _Kernel([ss, tt], len(ss))
    return kernel.profile(*kernel.sets)


# -- verification reports ----------------------------------------------


@dataclass
class PairResult:
    """Checked profile of one (set, set) pair: the full values over the
    scanned shifts, plus the shifts whose residual failed to vanish
    (the zero shift of an auto pair is allowed its energy peak)."""

    left: int
    right: int
    shifts: list
    values: list
    violations: list = field(default_factory=list)  # offending shifts

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CheckReport:
    kind: str
    pairs: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # structural failures

    @property
    def ok(self) -> bool:
        return not self.problems and all(p.ok for p in self.pairs)

    def __bool__(self) -> bool:
        return self.ok

    def render(self) -> str:
        lines = [f"check {self.kind}: {'PASS' if self.ok else 'FAIL'}"]
        for msg in self.problems:
            lines.append(f"  problem: {msg}")
        for p in self.pairs:
            if p.ok:
                continue
            lines.append(f"  pair ({p.left},{p.right}) violated at shifts:")
            for tau in p.violations:
                val = p.values[p.shifts.index(tau)]
                lines.append(f"    tau={tau}: residual {_fmt_scalar(val)}")
        if self.ok and self.pairs:
            lines.append(f"  {len(self.pairs)} pair profiles all clean")
        return "\n".join(lines)


def _fmt_scalar(x: Scalar) -> str:
    z = scalar_numeric(x)
    if isinstance(x, CycloNum):
        return f"{x!r} ~ {z:.6g}"
    return f"{z:.6g}"


def _zero_tol(fams, tol: float) -> float:
    """Absolute tolerance for approx-mode zero tests: tol * largest energy."""
    scale = max(abs(scalar_numeric(set_energy(f))) for f in fams)
    return tol * scale if scale > 0 else tol


def _checked(left: int, right: int, shifts, values, tol_abs: float) -> PairResult:
    """PairResult of the (left, right) sums at `shifts`; the zero shift
    of an auto pair may hold its energy peak."""
    violations = [tau for tau, v in zip(shifts, values)
                  if not (left == right and tau == 0)
                  and not scalar_is_zero(v, tol_abs)]
    return PairResult(left, right, list(shifts), list(values), violations)


def is_complementary_set(ss: SequenceSet, tol: float = DEFAULT_TOL) -> CheckReport:
    """Auto-correlation sum zero at every nonzero shift."""
    report = CheckReport(kind="complementary-set")
    tol_abs = 0.0 if ss.mode == EXACT else _zero_tol([ss], tol)
    kernel = _Kernel([ss], len(ss))
    prof = kernel.profile(kernel.sets[0], kernel.sets[0])
    report.pairs.append(_checked(0, 0, prof.shifts(), prof.values, tol_abs))
    return report


def is_ccc(fam: SequenceFamily, tol: float = DEFAULT_TOL) -> CheckReport:
    """Every set complementary, every distinct pair of sets with
    identically zero cross-correlation sum."""
    report = CheckReport(kind="ccc")
    tol_abs = 0.0 if fam.mode == EXACT else _zero_tol(list(fam), tol)
    kernel = _Kernel(fam, fam.set_size)
    sets = kernel.sets
    pairs = [(m, m) for m in range(len(sets))]
    pairs += [(m, mp) for m in range(len(sets)) for mp in range(m + 1, len(sets))]
    for m, mp in pairs:
        prof = kernel.profile(sets[m], sets[mp])
        report.pairs.append(_checked(m, mp, prof.shifts(), prof.values, tol_abs))
    return report


def is_n_co_sf(fam: SequenceFamily, n: int, tol: float = DEFAULT_TOL) -> CheckReport:
    """N-shift cross-orthogonality of a family of single-sequence sets:
    lengths divisible by n, auto sums zero at every nonzero n-shift,
    cross sums zero at every n-shift including zero."""
    if n < 1:
        raise ValueError("shift parameter must be >= 1")
    if fam.set_size != 1:
        raise ValueError(
            f"family of single-sequence sets required, set size is {fam.set_size}")
    report = CheckReport(kind=f"cosf:{n}")
    tol_abs = 0.0 if fam.mode == EXACT else _zero_tol(list(fam), tol)
    for m, ss in enumerate(fam):
        if ss.length % n:
            report.problems.append(
                f"sequence {m} has length {ss.length} not divisible by {n}")
    kernel = _Kernel(fam, 1)
    sets = kernel.sets
    for m in range(len(sets)):
        for mp in range(m, len(sets)):
            hull, acc = kernel.sums(sets[m], sets[mp])
            taus = range(-(hull // n) * n, hull + 1, n)
            vals = kernel.values(hull, acc, taus)
            report.pairs.append(_checked(m, mp, taus, vals, tol_abs))
    return report


def zccc_zone(fam: SequenceFamily, tol: float = DEFAULT_TOL) -> int:
    """Width of the zone where correlation sums against the adjacent
    (cyclically next) sequence of every set also vanish.

    Requires a verified CCC with one common length L; returns the
    largest Z such that for all set pairs (m, m') and all 0 < tau <= Z
    the sum over n of R(c^m_{[n+1]_N}, c^{m'}_n, L - tau) is zero.
    """
    ccc = is_ccc(fam, tol)
    if not ccc.ok:
        raise ValueError("zone check requires a CCC:\n" + ccc.render())
    lengths = fam.length_set
    if len(lengths) != 1:
        raise ValueError(f"zone check requires one common length, got {sorted(lengths)}")
    (length,) = lengths
    tol_abs = 0.0 if fam.mode == EXACT else _zero_tol(list(fam), tol)
    kernel = _Kernel(fam, fam.set_size)
    zone = length
    for left in kernel.sets:
        rotated = left[1:] + left[:1]
        for right in kernel.sets:
            hull, acc = kernel.sums(rotated, right)
            for tau in range(1, zone + 1):
                (value,) = kernel.values(hull, acc, [length - tau])
                if not scalar_is_zero(value, tol_abs):
                    zone = tau - 1
                    break
    return zone


def check_size_bound(fam: SequenceFamily, kind: str, n: Optional[int] = None) -> bool:
    """Family-size sanity gate: M <= N for the claimed kind."""
    if kind == "ccc":
        return fam.family_size <= fam.set_size
    if kind == "cosf":
        if n is None:
            raise ValueError("cosf bound check needs the shift parameter n")
        return fam.family_size <= n
    raise ValueError(f"unknown kind {kind!r}")
