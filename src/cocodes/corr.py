"""Aperiodic/periodic correlations, correlation sums, and the defining
predicates (complementary set, CCC, N-shift cross-orthogonal family,
zero-correlation zone of a CCC).

All decisions on exact-mode scalars are tolerance-free: a correlation
value is zero iff its reduction modulo the cyclotomic polynomial is the
zero polynomial.  Approx-mode inputs (a (1, L) complex array, laid out
as an exact sequence of order 1) use |residual| <= tol times the largest
set energy of the call, which the kernel works out itself.

`acorr` is the direct definitional sum and stays the reference.  Every
profile and predicate goes through one kernel (`_Kernel`) instead.  A
call densifies its sequences into a (sets, members, K, L) array over
the call's common order K and computes every set sum by one spectral
pass: a real 2-D FFT, cyclic over the exponent axis and zero-padded
over positions to a 2,3-smooth length P >= 2L - 1, products summed
over members in the spectrum, and batched inverse transforms.  The
inverse is rounded to integers only under an a-priori error bound
(Percival, Math. Comp. 72 (2003), with a safety factor; see
`rounding_bound`).  Coefficients too large for that bound are split
into signed base-2^b limbs: the same pass sums the limb products, each
diagonal under the bound, and the rounded diagonals are recombined
with integers.  Spectra are taken one block of sets at a time, so
their memory stays under `_SPECTRA_MAX` entries per block.  A debug record on the `cocodes`
logger gives the block and limb counts whenever either is above one.
Zero is then decided for the whole integer stack at once by
`cyclo.zero_rows`, the rule `CycloNum.is_zero` applies to one value,
and every verdict comes from that zero mask alone.  A report keeps each
pair's slice of the integer stack, and its `CycloNum`s are built only
when its values are read (`_scalars`).

`is_n_co_sf` runs the same pass on the n polyphase components
s_r(l) = s(ln + r) of each sequence: R(s, t)(qn) = sum_r R(s_r, t_r)(q),
so it computes only the n-shift lattice.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from .cyclo import CycloNum, check_coefficients, common_order, zero_rows
from .model import (
    EXACT,
    ModeMismatchError,
    Scalar,
    Sequence,
    SequenceFamily,
    SequenceSet,
    is_exact,
    scalar,
)

DEFAULT_TOL = 1e-9

# Violated shifts a report's render prints per pair; the rest are counted
RENDER_SHIFTS_PER_PAIR = 16

# Entries of the half-spectra of one block of sets (16 bytes each, so
# 64 MB); a block always holds at least one set.
_SPECTRA_MAX = 2 ** 22

# Percival's bound is for radix-2 transforms with correctly rounded
# twiddle factors; numpy's pocketfft also uses radices 3, 4, 5, 7 and
# 11, a generic odd radix, and Bluestein's algorithm for large primes.
_FFT_SAFETY = 8

# Entries of the spectral products one einsum makes: left sets are
# taken in groups of this size against all their right sets.
_BATCH = 2 ** 12


def _sum_products(s: Sequence, t: Sequence, pairs) -> Scalar:
    """sum over (l, m) in `pairs` of s(l) * conj(t(m)), in that order."""
    a, b = list(s), list(t.conj())
    total = scalar(0, s.mode)
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


def _smooth(n: int) -> int:
    """Least 2^a 3^b >= n."""
    best, p3 = 1 << max(n - 1, 0).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << max(-(-n // p3) - 1, 0).bit_length())
        p3 *= 3
    return best


def rounding_bound(energy: float, order: int, size: int, members: int) -> float:
    """A-priori bound on the error of every entry of a set sum computed
    by the spectral pass, for sets of `members` members whose squared
    coefficients sum to at most `energy`, over a K x P = order x size
    transform.

    Percival (Math. Comp. 72 (2003), 387-395) bounds the error of an
    FFT convolution of x and y of length 2^k by
    |x| |y| ((1 + e)^3k (1 + e sqrt 5)^(3k+1) (1 + b)^3k - 1), e = 2^-53
    the unit roundoff and b <= e the twiddle error, which to first order
    is |x| |y| e (3k (2 + sqrt 5) + sqrt 5); summing `members` spectral
    products adds at most `members` * e relative.  Cauchy-Schwarz gives
    sum_n |s_n| |t_n| <= energy.  k = log2(K P) with the unfolded order
    K, one stage more than a folded even order transforms, which covers
    its twist by unit factors.  The theorem is for radix 2 only: the factor
    `_FFT_SAFETY` for pocketfft's mixed radices is an assumption, not a
    derived bound.  Rounding is exact when the bound stays below 1/2."""
    k = math.log2(order * size)
    gamma = 2.0 ** -53 * (3 * k * (2 + math.sqrt(5)) + math.sqrt(5) + members)
    return _FFT_SAFETY * gamma * energy


class _Kernel:
    """The set sums of one predicate call: R(S, T)(q) =
    sum_n R(S[n], T[n])(q) for pairs (S, T) of the call's sets, with
    R(s, t)(q) = sum_l s(l) conj(t(l + q)).

    With `phases` = n every sequence enters as its n polyphase
    components s_r(l) = s(ln + r), r < n, each a member of its set, so
    shift q of a sum is shift qn of the sequences.  Components with r at
    or past the longest length are zero, so at most that many are
    built, whatever n is.

    An exact sequence of order k is the polynomial
    sum_{j,l} a[j, l] z^(jK/k) x^l in z^K = 1, so a set sum is one 2-D
    correlation, cyclic over the exponent axis and aperiodic over
    positions.  Every sequence is densified into a
    (sets, members, K, width) array (folded for even K, see `_forward`,
    and split into limbs when `_digits` says so).  One block of sets at
    a time (`_SPECTRA_MAX` sizes a block), the spectral pass takes the
    conjugated half-spectrum over K x P (`rfft2`, P the least
    2,3-smooth length >= 2 width - 1, so no shift wraps).  For a group
    of left sets (`_BATCH` bounds the group's products) one einsum sums
    F(s_n) conj(F(t_n)) over the members n against the right sets of a
    block, and one batched inverse brings the group back; entry
    (d, -q mod P) of an inverse is the coefficient of z^d at shift q.
    Exact results are rounded under `rounding_bound`; approx sequences
    (K = 1) take complex transforms and keep their values unrounded.
    The spectra exist only while `sums` runs, and so does the stack
    unless the caller keeps it in `digits` for several calls.

    Even orders are folded by zeta_K^(K/2) = -1, so a stack holds K/2
    rows (K for odd K, 1 in approx mode) per shift.
    """

    def __init__(self, sets, phases: int = 1, tol: float = 0.0):
        seqs = [s for ss in sets for s in ss]
        if len({s.mode for s in seqs}) != 1:
            raise ModeMismatchError("mode mismatch between sequences")
        self.exact = seqs[0].mode == EXACT
        self.tol = tol
        if not self.exact:  # an exact energy may be past the float range
            scale = max(sum(np.vdot(s.array, s.array).real for s in ss) for ss in sets)
            self.tol = tol * scale if scale > 0 else tol
        self.order = reduce(common_order, {s.order for s in seqs}, 1)
        # shift q of a sum is shift q * step of the sequences
        self.step = phases
        self.phases = min(phases, max(len(s) for s in seqs))
        self.sets = sets
        self.members = len(sets[0]) * self.phases
        self.widths = [-(-len(ss[0]) // self.phases) for ss in sets]
        self.width = max(self.widths)
        self.hull = self.width - 1
        self.size = _smooth(2 * self.width - 1)
        # rows kept after folding by zeta_K^(K/2) = -1 (see `_dense`)
        self.rows = self.order // 2 if self.order % 2 == 0 else self.order
        self.digits = None  # `_digits()` when the caller keeps it for more calls

    def _digits(self):
        """The stack the spectra are taken of, (sets, members, limbs,
        rows, width); the limb width b in bits (0: one limb); the
        rounding bound that certifies the pass (nan in approx mode); the
        dtype of the sums, int64 when every value and every step of
        their recombination (each below energy + 2^52) fits.

        A stack of int64 sequences (coefficients below
        INT64_COEFF_BOUND) converts to float exactly.  A sequence of
        Python ints makes the stack one of Python ints first; every
        coefficient of such a sequence must be below COEFF_LIMIT (a
        CoefficientLimitError names the cap), so that the stack
        converts to float too."""
        if not self.exact:
            return self._dense(complex)[:, :, None], 0, math.nan, complex
        big = [s.array for ss in self.sets for s in ss if s.array.dtype == object]
        if big:
            for a in big:
                check_coefficients(a)
            ints = self._dense(object)
            dense = ints.astype(float)
        else:
            ints, dense = None, self._dense(float)
        energy = float(np.einsum("smkl,smkl->s", dense, dense).max())
        bound = rounding_bound(energy, self.order, self.size, self.members)
        if bound < 0.5:
            return dense[:, :, None], 0, bound, np.int64
        # Too large to round in one piece: every coefficient becomes n
        # signed base-2^b digits, least significant first.  A set sum is
        # then sum_k 2^(bk) R_k, where R_k sums over the members and over
        # the limb pairs (i, k - i) as more members, so for sets of c
        # nonzero coefficients `rounding_bound` holds for every R_k when
        # it holds for energy c n (2^b - 1)^2 and n times the members.
        if ints is None:
            ints = self._dense(np.int64)
        mags = np.abs(ints)
        bits = int(mags.max()).bit_length()
        nonzero = int(np.count_nonzero(ints.reshape(len(ints), -1), axis=1).max())

        def limb_bound(b):
            n = -(-bits // b)
            return rounding_bound(nonzero * n * (2 ** b - 1) ** 2, self.order, self.size,
                                  self.members * n)

        b = max(b for b in range(1, 53) if limb_bound(b) < 0.5)
        digits = np.stack([(mags >> i) & ((1 << b) - 1) for i in range(0, bits, b)], axis=2)
        return (digits.astype(float) * np.where(ints < 0, -1.0, 1.0)[:, :, None], b,
                limb_bound(b), np.int64 if energy < 2.0 ** 61 else object)

    def _forward(self, dense: np.ndarray) -> np.ndarray:
        """Conjugated spectrum of a dense stack: the half-spectrum
        (`rfft2`) over exponents x positions, zero-padded to P
        positions; the full spectrum over positions in approx mode.

        A folded even order K (rows = K/2 = M, z^M = -1) is evaluated at
        the roots of z^M + 1: row j is twisted by w^j, w = exp(-i pi / M),
        before the length-M transform, so the spectra take half the room
        and the inverse gives the folded coefficients directly.
        Transforms of length 1 are the identity and are skipped, so sets
        of width 1 (the planner's sub-families) reduce to one Gram
        product over the exponent axis."""
        if self.size > 1:
            dense = (np.fft.rfft if self.exact else np.fft.fft)(dense, n=self.size)
        else:  # a copy: a block's stack may be transformed again
            dense = dense.astype(complex)
        if self.rows < self.order:
            dense *= self._twist()
        if self.rows > 1:
            for part in dense:  # in place, one set at a time
                part[...] = np.fft.fft(part, axis=-2)
        return np.conjugate(dense, out=dense)

    def _inverse(self, prod: np.ndarray) -> np.ndarray:
        """Inverse of `_forward` without the conjugation (`irfft2`)."""
        if self.rows > 1:
            prod = np.fft.ifft(prod, axis=-2)
        if self.rows < self.order:
            prod *= self._twist().conj()
        if self.size > 1:
            return (np.fft.irfft if self.exact else np.fft.ifft)(prod, n=self.size)
        return prod.real if self.exact else prod

    def _twist(self) -> np.ndarray:
        return np.exp(-1j * np.pi / self.rows * np.arange(self.rows))[:, None]

    def _dense(self, dtype) -> np.ndarray:
        """(sets, members, rows, width) array of `dtype` holding the
        polyphase components of every sequence (member n * phases + r
        is component r of member n), folded by zeta_K^(K/2) = -1 for
        even K.  Sequences come as int64 arrays unless a coefficient is
        past INT64_COEFF_BOUND, so a float stack is filled by numpy's
        own casts, not one Python int at a time."""
        n = self.phases
        out = np.zeros((len(self.sets), len(self.sets[0]) * n, self.order, self.width), dtype)
        for m, ss in enumerate(self.sets):
            for i, s in enumerate(ss):
                rows = out[m, i * n:(i + 1) * n, ::self.order // s.order]
                for r in range(n):
                    part = s.array[..., r::n]
                    rows[r, :, :part.shape[-1]] = part
        if self.rows < self.order:
            return out[:, :, :self.rows] - out[:, :, self.rows:]
        return out

    def sums(self, pairs, rotate: bool = False) -> np.ndarray:
        """(pairs, 2 hull + 1, rows) stack of the set sums of each
        (left, right) pair of set indices: [p, hull + q, d] holds the
        coefficient of zeta_K^d at shift q, folded for even K.  With
        `rotate` the members of the left set are taken cyclically
        shifted by one (member n + 1 pairs with member n)."""
        stack, b, bound, dtype = self.digits or self._digits()
        sets, members, limbs, rows, _ = stack.shape
        freqs = self.size // 2 + 1 if self.exact else self.size
        block = max(1, _SPECTRA_MAX // (members * limbs * rows * freqs))
        if block < sets or limbs > 1:
            # imported here: only these calls log, and importing logging
            # costs a process about 1 MB of resident memory
            import logging

            logging.getLogger("cocodes").debug(
                "spectral pass: %d blocks of up to %d sets, %d limbs of %d bits; "
                "rounding bound %.3g, headroom %.3g of 1/2", -(-sets // block), block,
                limbs, b, bound, 0.5 / bound if bound else math.inf)
        hull = self.hull
        cols = -np.arange(-hull, hull + 1) % self.size
        out = np.empty((len(pairs), 2 * hull + 1, rows), dtype)
        step = max(1, _BATCH // (min(block, sets) * rows * freqs))
        groups = {}
        for p, (m, mp) in enumerate(pairs):
            groups.setdefault((m // block, mp // block, m % block // step), []).append(p)
        spectra = {}
        for (lb, rb, group), idx in sorted(groups.items()):
            # keep the spectra of this left and right block only
            spectra = {k: spectra[k] if k in spectra else
                       self._forward(stack[k * block:(k + 1) * block]) for k in {lb, rb}}
            start = group * step
            rights = [pairs[p][1] - rb * block for p in idx]
            lo = min(rights)
            picks = [pairs[p][0] - lb * block - start for p in idx], [r - lo for r in rights]
            left = np.conjugate(spectra[lb][start:start + step])
            if rotate:
                left = np.roll(left, -1, axis=1)
            right = spectra[rb][lo:]
            total = 0
            for k in reversed(range(2 * limbs - 1)):
                # diagonal k: limb i of the left against limb k - i of the right
                i, j = max(0, k - limbs + 1), min(k, limbs - 1) + 1
                prod = np.einsum("lnikf,rnikf->lrkf", left[:, :, i:j],
                                 right[:, :, k - j + 1:k - i + 1][:, :, ::-1])
                found = self._inverse(prod)[picks][..., cols].transpose(0, 2, 1)
                if self.exact:
                    found = np.rint(found)
                # Horner from the top diagonal: no step outgrows energy + 2^52
                total = found if limbs == 1 else (
                    (total << b) + found.astype(np.int64).astype(dtype))
            out[idx] = total
        return out

    def zeros(self, acc: np.ndarray) -> np.ndarray:
        """(pairs, shifts) bools: which sums of a `sums` stack vanish, decided
        for the whole stack by one `zero_rows` call (approx: |sum| <= tol
        times the largest set energy, or tol when every set is zero)."""
        flat = zero_rows(acc.reshape(-1, self.rows), self.order, self.tol)
        return flat.reshape(acc.shape[:2])

    def profile(self) -> "CorrelationProfile":
        """Profile of the sum of sets 0 and 1 over the full hull."""
        (acc,) = self.sums([(0, 1)])
        return CorrelationProfile(-self.hull, _scalars(acc, self.order))

    def check(self, pairs) -> list:
        """PairResult of each (left, right) pair over the shifts of its
        own hull; the zero shift of an auto pair may hold its energy
        peak."""
        acc = self.sums(pairs)
        hulls = [max(self.widths[m], self.widths[mp]) - 1 for m, mp in pairs]
        zero = self.zeros(acc)
        zero[[p for p, (m, mp) in enumerate(pairs) if m == mp], self.hull] = True
        for p, h in enumerate(hulls):
            if h < self.hull:  # shifts past a pair's own hull are not in its report
                zero[p, :self.hull - h] = zero[p, self.hull + h + 1:] = True
        step = self.step
        bad = [[] for _ in pairs]
        for p, col in np.argwhere(~zero).tolist():
            bad[p].append((col - self.hull) * step)
        out = []
        for p, ((m, mp), h) in enumerate(zip(pairs, hulls)):
            shifts = list(range(-h * step, h * step + 1, step))
            out.append(PairResult(m, mp, shifts, bad[p],
                                  acc[p, self.hull - h:self.hull + h + 1], self.order))
        return out


def _scalars(cols: np.ndarray, order: int) -> list:
    """Scalar of each row of a (shifts, rows) slice of a sums stack at
    order K: one CycloNum per distinct row (a profile holds few)."""
    if not is_exact(cols):
        return cols[:, 0].tolist()
    pad = (0,) * (order - cols.shape[1])
    keys = list(map(tuple, cols.tolist()))
    distinct = dict.fromkeys(keys)
    for col in distinct:
        distinct[col] = CycloNum(order, col + pad) if any(col) else CycloNum.zero()
    return [distinct[col] for col in keys]


def corr_profile(s: Sequence, t: Sequence) -> CorrelationProfile:
    """Full aperiodic correlation profile of (s, t)."""
    return _Kernel([[s], [t]]).profile()


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
    return _Kernel([ss, tt]).profile()


# -- verification reports ----------------------------------------------


@dataclass
class PairResult:
    """Checked profile of one (set, set) pair: the scanned shifts and
    those whose residual failed to vanish (the zero shift of an auto
    pair is allowed its energy peak).  The values over the shifts are
    built from the pair's slice of the kernel's sums when read."""

    left: int
    right: int
    shifts: list
    violations: list  # offending shifts
    sums: np.ndarray = field(compare=False, repr=False)
    order: int = field(compare=False, repr=False)

    @property
    def values(self) -> list:
        return _scalars(self.sums, self.order)

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
            shown = p.violations[:RENDER_SHIFTS_PER_PAIR]
            # violations ascend, as the shifts do; convert only the rows shown
            rows = [bisect_left(p.shifts, tau) for tau in shown]
            lines += [f"    tau={tau}: residual {_fmt_scalar(val)}"
                      for tau, val in zip(shown, _scalars(p.sums[rows], p.order))]
            if len(p.violations) > len(shown):
                lines.append(f"    ... and {len(p.violations) - len(shown)} more shifts")
        if self.ok and self.pairs:
            lines.append(f"  {len(self.pairs)} pair profiles all clean")
        return "\n".join(lines)


def _fmt_scalar(x: Scalar) -> str:
    """A residual for a report line: the exact scalar and its float
    value, or the exact scalar alone when no float holds its value."""
    if not isinstance(x, CycloNum):
        return f"{complex(x):.6g}"
    try:
        return f"{x!r} ~ {x.numeric():.6g}"
    except OverflowError:
        return repr(x)


def is_complementary_set(ss: SequenceSet, tol: float = DEFAULT_TOL) -> CheckReport:
    """Auto-correlation sum zero at every nonzero shift."""
    report = CheckReport(kind="complementary-set")
    report.pairs = _Kernel([ss], tol=tol).check([(0, 0)])
    return report


def is_ccc(fam: SequenceFamily, tol: float = DEFAULT_TOL) -> CheckReport:
    """Every set complementary, every distinct pair of sets with
    identically zero cross-correlation sum."""
    return _ccc_report(_Kernel(list(fam), tol=tol), fam.family_size)


def _ccc_report(kernel: _Kernel, count: int) -> CheckReport:
    """`is_ccc`'s report, from a kernel over the family's sets."""
    pairs = [(m, m) for m in range(count)]
    pairs += [(m, mp) for m in range(count) for mp in range(m + 1, count)]
    return CheckReport(kind="ccc", pairs=kernel.check(pairs))


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
    for m, ss in enumerate(fam):
        if ss.length % n:
            report.problems.append(
                f"sequence {m} has length {ss.length} not divisible by {n}")
    count = fam.family_size
    pairs = [(m, mp) for m in range(count) for mp in range(m, count)]
    report.pairs = _Kernel(list(fam), phases=n, tol=tol).check(pairs)
    return report


def zccc_zone(fam: SequenceFamily, tol: float = DEFAULT_TOL) -> int:
    """Width of the zone where correlation sums against the adjacent
    (cyclically next) sequence of every set also vanish.

    Requires a verified CCC with one common length L; returns the
    largest Z such that for all set pairs (m, m') and all 0 < tau <= Z
    the sum over n of R(c^m_{[n+1]_N}, c^{m'}_n, L - tau) is zero.
    The CCC check and the rotated pass share one kernel, so every
    sequence is densified once.
    """
    kernel = _Kernel(list(fam), tol=tol)
    kernel.digits = kernel._digits()
    count = fam.family_size
    ccc = _ccc_report(kernel, count)
    if not ccc.ok:
        raise ValueError("zone check requires a CCC:\n" + ccc.render())
    lengths = fam.length_set
    if len(lengths) != 1:
        raise ValueError(f"zone check requires one common length, got {sorted(lengths)}")
    (length,) = lengths
    pairs = [(m, mp) for m in range(count) for mp in range(count)]
    zero = kernel.zeros(kernel.sums(pairs, rotate=True))
    # shifts L - 1 down to 0, i.e. tau = 1 .. L
    clean = zero[:, length - 1:].all(axis=0)[::-1]
    bad = np.flatnonzero(~clean)
    return int(bad[0]) if len(bad) else length


def check_size_bound(fam: SequenceFamily, kind: str, n: Optional[int] = None) -> bool:
    """Family-size sanity gate: M <= N for the claimed kind."""
    if kind == "ccc":
        return fam.family_size <= fam.set_size
    if kind == "cosf":
        if n is None:
            raise ValueError("cosf bound check needs the shift parameter n")
        return fam.family_size <= n
    raise ValueError(f"unknown kind {kind!r}")
