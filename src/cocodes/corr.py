"""Aperiodic/periodic correlations, correlation sums, and the defining
predicates (complementary set, CCC, N-shift cross-orthogonal family,
zero-correlation zone of a CCC).

All decisions on exact-mode scalars are tolerance-free: a correlation
value is zero iff its reduction modulo the cyclotomic polynomial is the
zero polynomial.  Approx-mode inputs (a (1, L) complex array, laid out
as an exact sequence of order 1) use |residual| <= tol times the largest
set energy of the call, which the kernel works out itself; an energy
past the float range raises OverflowError.

`acorr` is the direct definitional sum and stays the reference.  Every
profile and predicate goes through one kernel (`_Kernel`) instead.  A
call lays the layered sequences of its members side by side over the
call's common order K (`_Kernel._layers`): t layers of one (exponent,
coefficient) per position, (t, sets, members, W) each, the layers every
sequence holds (its one store), so no dense array is read.  Let
R = K for odd K and R = K/2 for even K, folded by zeta_K^(K/2) = -1, so
that a member a_n is a polynomial in z, z^R = 1 or -1, whose row j is
the coefficient of z^j: a term at exponent j >= R is one at j - R with
its sign changed.  Two passes read those layers in one spectral
layout.  For a pair (S, T) let a_q be its set sum at shift q, a
polynomial in z of degree < R, over the 2W - 1 shifts of W,
P = 2^p >= 2W - 1, and, for each root zeta^-e of z^R -+ 1
(zeta = exp(2 pi i / K)) and f mod P, v(e, f) = sum_q sigma_e(a_q) w^(fq),
w = exp(2 pi i / P), sigma_e(a) = a(zeta^-e), for e prime to K the
embedding of Z[zeta_K] mapping zeta_K to zeta^-e.  A member's values at a
root are x_n(e, l) = sum_j a_n[j, l] zeta^(-ej), gathered from its
layers as sum_t c_t(l) zeta^(-e e_t(l)), one gather per layer from the
root's table of K powers (`_roots`) over a block of sets; X_n is their
length-P transform over positions (the real `rfft` at R = 1, where x is
the folded coefficient), and v = sum_n X_S,n conj(X_T,n).
As v(-e, -f) = conj(v(e, f)), one root of each conjugate pair is taken
(`_roots`), one root and one block of sets at a time (`_block_pairs`,
`_member_sums`), so that a block's spectra and two blocks' member sums
stay under `_SPECTRA_MAX` entries.

The certificate pass reads the primitive roots (e prime to K) and
decides a predicate's pairs without an inverse transform, a rounding
or a reduction; `_Kernel.check` takes it for exact stacks of one limb
whose `certificate_bound` is below 1/2, and the per-shift pass
otherwise (approx mode, limbs, or the bound).  For an auto pair it
subtracts the shift-0 sum sum_n sum_l |x_S,n(e, l)|^2 from v, so let
a_0 exclude it there.

  (1) A nonzero a in Z[zeta_K] has a norm prod_e sigma_e(a), e prime
      to K, that is a nonzero integer, so by AM-GM those e have
      sum_e |sigma_e(a)|^2 >= phi(K).
  (2) The shifts are distinct mod P, so by Parseval
      sum_f |v(e, f)|^2 = P sum_q |sigma_e(a_q)|^2.
  (3) So if some a_q is nonzero, the phi(K) P values have
      sum |v|^2 >= P phi(K), and some |v(e, f)| >= 1.  If all are
      zero, every v is 0.
  (4) By conjugation the e < K/2 with every f, or at K <= 2 (one real
      embedding) f <= P/2, hold every |v|.

With each v computed within B < 1/2, "every computed |v| < 1/2" is
therefore exactly "every a_q is zero": the same predicate as the
reduction modulo Phi_K, decided both ways.  Every primitive K-th root
is a root of the fold, so x_n is sigma_e of the member.  The bound B
(`certificate_bound`), with u = 2^-53, g_n = n u / (1 - n u), M
members, E the largest set energy sum a^2 of the stack:

  (a) A root's powers are within 32u of their values (the angle
      2 pi (ej mod K) / K within 6 pi u, cos and sin within 2u; the
      power at j >= R is that at j - R negated, exactly).  The layers
      of a position hold no two nonzero terms whose exponents meet
      after folding (where they would, `_folded` scatters the layers
      into their folded rows and reads them back), so its t terms are
      its nonzero folded coefficients, t <= R, and
      sum_t |c_t(l)| = sum_j |a[j, l]|.  Each term is one rounded
      product of a real coefficient and a power (two real products),
      and each part of x^(l) is a sum of at most t <= R of them, so
      |x^(l) - x(l)| <= mu sum_j |a[j, l]|,
      mu = sqrt2 g_R (1 + 32u) + 32u (0 at K <= 2, where x^ = x).  By
      Cauchy-Schwarz ||x_n|| <= sqrt(R) ||a_n|| and
      ||x^_n - x_n|| <= mu sqrt(R) ||a_n||.
  (b) Percival bounds a length-2^p transform with twiddles within u
      by ||fl(F y) - F y|| <= eta ||F y|| = eta sqrt(P) ||y||,
      eta = (1 + u)^2p (1 + sqrt5 u)^p - 1.  So each |X^_n(f) - X_n(f)|
      is at most ||X^_n - X_n|| <= d sqrt(P R) ||a_n||,
      d = eta (1 + mu) + mu, and |X_n(f)| <= ||x_n||_1 <= sqrt(W R) ||a_n||.
  (c) Summed over n with Cauchy-Schwarz, the spectra's errors move v by
      at most R E (2 d sqrt(P W) + d^2 P); each real and imaginary part
      of the computed sum is a sum of 2M products, within g_2M of their
      absolute sum, which adds sqrt2 g_2M R E (sqrt(W) + d sqrt(P))^2.
  (d) The same steps bound the shift-0 sum's error by
      R E (mu (2 + mu) + g_2MW (1 + mu)^2).
  (e) B < 1/2 forces E < 2^50, so every coefficient is below 2^25 and
      the float coefficients and their energy E = sum c^2, which is the
      folded stack's, are exact.
  (f) B is (1 + 2^-50) times the sum of (c) and (d).  The subtraction
      and the modulus add relative errors below 4u, so a zero sum gives
      a computed |v| <= B < 1/2 and a nonzero one at least
      (1 - 4u)(1 - B) > 1/2.

The per-shift pass reads every root, shift 0 of an auto pair included.
Entry -q mod P of the inverse transform of v(e, .) is sigma_e(a_q), and
since the R roots of z^R -+ 1 diagonalise the folded exponent axis,
coefficient j of a_q is (1/R) sum_e w_e Re(sigma_e(a_q) zeta^(ej)),
w_e = 2 for a conjugate pair and 1 for a real root (e = 0 at odd K,
e = K/2 at odd K/2).  Each root's inverse evaluation is added into one
float stack, rounded to integers only under an a-priori error bound
(`rounding_bound`, which extends (a)-(c) through the inverse transform
and evaluation); at R = 1 (K <= 2, and approx mode, whose values stay
unrounded) there is one root and no evaluation.  Coefficients too large
for that bound are split into signed base-2^b limbs, whose products the
same pass sums by diagonal, each under the bound; the rounded diagonals
are recombined with integers.  Zero is then decided for the whole
integer stack at once by `cyclo.zero_rows`, the rule `CycloNum.is_zero`
applies to one value.  Profiles, `zccc_zone`'s rotated sums and every
report's violations and values come from this pass.

Percival's theorem is for radix-2 transforms; the power-of-two length
P is what lets it stand for pocketfft, whose passes at such lengths are
radix 2 and radix 4, a radix-4 butterfly being two radix-2 stages whose
inner twiddles (+-1, +-i) are exact.  A real transform (`rfft`) is
taken as the half of the complex one it returns, and its inverse
(`irfft`) as the complex inverse of the Hermitian extension of its
input.

A check's report is deferred: the certificate gives each pair's `ok`,
and the per-shift pass runs once over all the check's pairs when the
first of their violations, sums or values is read (`_Kernel.scan`).  It
keeps the sums stack and one violation mask over the same (pairs,
shifts) grid, whose rows give a pair's violations and a render's shifts.
So a verdict costs one certificate pass, and a rejected family pays for
both (on the one set of layers the kernel keeps) only when its report
is read.  `CycloNum`s are built only for the values read (`_scalars`).
Debug records on the `cocodes` logger give the block and limb counts
above one and which pass decided a check, and why.

`is_n_co_sf` runs the same passes on the n polyphase components
s_r(l) = s(ln + r) of each sequence: R(s, t)(qn) = sum_r R(s_r, t_r)(q),
so it computes only the n-shift lattice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .cyclo import CycloNum, check_coefficients, common_order, zero_rows
from .model import (
    ModeMismatchError,
    Scalar,
    Sequence,
    SequenceFamily,
    SequenceSet,
    _scatter,
    is_exact,
    layers,
    scalar,
    terms_of,
)

DEFAULT_TOL = 1e-9

# Violated shifts a report's render prints per pair; the rest are counted
RENDER_SHIFTS_PER_PAIR = 16

# Entries (16 bytes each, so 64 MB) of the spectra of one block of sets,
# and of the member sums of two blocks; a block holds at least one set.
_SPECTRA_MAX = 2 ** 22

# Sets (times limbs) of a block up to which `_member_sums` takes one
# einsum; past it, one batched Gram matmul per frequency.
_GRAM_SETS = 4

# Products (Gram entries past _GRAM_SETS) one step of `_member_sums` makes
_STEP = 2 ** 14

# Unit roundoff of float64
_U = 2.0 ** -53


def _debug(msg: str, *args) -> None:
    """A debug record on the `cocodes` logger.  A handler can only be
    configured by a process that has imported logging, so one that has
    not is spared the import (about 1 MB of resident memory)."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("cocodes").debug(msg, *args)


def _headroom(bound: float) -> float:
    return 0.5 / bound if bound else math.inf


def _pow2(n: int) -> int:
    """Least 2^a >= n."""
    return 1 << max(n - 1, 0).bit_length()


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


def _gamma(n: int) -> float:
    return n * _U / (1 - n * _U)


def _percival(size: int) -> float:
    """Percival's factor eta for a transform of `size` = 2^p points with
    twiddles within u (Math. Comp. 72 (2003), 387-395): the computed
    transform of y is within eta ||F y|| of F y in the Euclidean norm,
    eta = (1 + u)^2p (1 + sqrt5 u)^p - 1.  The same holds for the
    inverse transform."""
    p = size.bit_length() - 1
    return math.expm1(p * (2 * math.log1p(_U) + math.log1p(math.sqrt(5) * _U)))


def _spectrum_error(rows: int, size: int) -> tuple:
    """(eta, mu, d) of the module docstring's steps (a)-(b)."""
    eta = _percival(size)
    mu = 0.0 if rows == 1 else math.sqrt(2) * _gamma(rows) * (1 + 32 * _U) + 32 * _U
    return eta, mu, eta * (1 + mu) + mu


def rounding_bound(energy: float, rows: int, members: int, size: int) -> float:
    """A-priori bound on the error of every coefficient of a set sum
    computed by the per-shift pass (module docstring), for sets of
    `members` members of `rows` = R exponent rows whose squared
    coefficients sum to at most `energy` = E, over transforms of
    `size` = P = 2^p points.  Rounding is exact when it is below 1/2.

    At one root let y = F^-1 v, whose entries are the sigma_e(a_q), and
    eta, mu, d, u and g_n as in the module docstring's (a)-(c), so mu = 0
    and d = eta at R = 1.  Each |sigma_e(a_q)| is at most
    sum_n ||x_S,n|| ||x_T,n|| <= R E and y has P entries, so
    ||y|| <= sqrt(P) R E.

      (i) By (a)-(b), and at R = 1 as the Hermitian extension of the
          computed half spectrum (which the inverse reads) at most
          doubles its square, ||X^_n - X_n|| <= sqrt2 d sqrt(P R) ||a_n||
          and ||X^_n|| <= (1 + sqrt2 d) sqrt(P R) ||a_n||.
     (ii) As in (c), at every f (a mirrored one by conjugation) the
          computed v^(f) is within sqrt2 g_2M sum_n |X^_S,n(f)| |X^_T,n(f)|
          of sum_n X^_S,n(f) conj(X^_T,n(f)).
    (iii) ||F^-1 w||_inf <= ||w||_1 / P, and by (i), (ii) and
          Cauchy-Schwarz over the frequencies and the members
          ||v^ - v||_1 <= P R E t, t = (1 + sqrt2 d)^2 (1 + sqrt2 g_2M) - 1,
          so F^-1 v^ is within R E t of y entrywise.
     (iv) Percival puts the computed inverse within eta ||F^-1 v^|| of
          F^-1 v^ (the scaling by 1/P is exact), and by ||w||_2 <= ||w||_1
          ||F^-1 v^|| <= ||y|| + ||v^ - v|| / sqrt(P) <= sqrt(P) R E (1 + t),
          so each computed sigma_e(a_q) is within
          e = R E ((1 + eta sqrt(P)) (1 + t) - 1).
      (v) At R > 1 the weights sum to R and |zeta^(ej)| = 1, so the exact
          evaluation of the computed values is within e of the
          coefficient; with powers within 32u, a sum of at most R + 1
          real products (two per root, each value within R E + e) and
          the division by R, the computed one is within rho (R E + e)
          more, rho = (1 + 32u) (1 + u) (1 + g_(R+1)) - 1.

    The bound is (1 + 2^-50) (e + rho (R E + e)), the factor covering its
    own evaluation; at R = 1 (rho = 0) it is the bound of one real
    transform of P points and its inverse."""
    eta, _, delta = _spectrum_error(rows, size)
    # (i)-(iii): the spectra and the member sums
    t = 2 * math.log1p(math.sqrt(2) * delta) + math.log1p(math.sqrt(2) * _gamma(2 * members))
    # (iv): the inverse transform
    bound = rows * energy * math.expm1(t + math.log1p(eta * math.sqrt(size)))
    if rows > 1:  # (v): the inverse evaluation
        bound += ((1 + 32 * _U) * (1 + _U) * (1 + _gamma(rows + 1)) - 1) * (rows * energy + bound)
    return bound * (1 + 2.0 ** -50)


def _limb_bound(b: int, bits: int, nonzero: int, rows: int, members: int, size: int) -> float:
    """The `rounding_bound` of every limb sum of sets of `members`
    members of `rows` exponent rows, whose coefficients of at most
    `bits` bits, `nonzero` of them per set at most, are split into
    signed limbs of b bits (see `_Kernel._digits`)."""
    n = -(-bits // b)
    return rounding_bound(nonzero * n * (2 ** b - 1) ** 2, rows, members * n, size)


def certificate_bound(energy: float, rows: int, members: int, width: int,
                      size: int) -> float:
    """A-priori bound on the error of every certificate value (module
    docstring) of sets of `members` members of `width` positions and
    `rows` exponent rows, each set's squared coefficients summing to at
    most `energy`, over a transform of `size` = 2^p positions.  The
    certificate decides exactly when the bound is below 1/2; the proof
    is in the module docstring, which names each term."""
    # (a)-(b): the roots' values and their transform
    _, mu, delta = _spectrum_error(rows, size)
    # (c): the Gram and (d): the shift-0 sum, per unit of rows * energy
    nu = math.sqrt(2) * _gamma(2 * members)
    peak = math.sqrt(width) + delta * math.sqrt(size)
    gram = 2 * delta * math.sqrt(size * width) + delta * delta * size + nu * peak * peak
    shift0 = mu * (2 + mu) + _gamma(2 * members * width) * (1 + mu) ** 2
    # (f): the last subtraction and the modulus
    return rows * energy * (gram + shift0) * (1 + 2.0 ** -50)


def _blocks(sets: int, members: int, limbs: int, freqs: int, *record) -> int:
    """Sets per block, so that one block's spectra and the member sums
    of two blocks stay under `_SPECTRA_MAX` entries; and the debug
    record of the pass.  `record`: limb bits, bound name and bound."""
    block = max(1, min(_SPECTRA_MAX // (members * freqs),
                       math.isqrt(_SPECTRA_MAX // freqs)) // limbs)
    if block < sets or limbs > 1:
        _debug("spectral pass: %d blocks of up to %d sets, %d limbs of %d bits; %s bound %.3g, "
               "headroom %.3g of 1/2", -(-sets // block), block, limbs, *record,
               _headroom(record[-1]))
    return block


def _block_pairs(pairs, block: int, spectra_of, rounds):
    """For each of `rounds` and (left, right) pair of blocks of `block`
    sets holding some of `pairs`: the round, `spectra_of(slice of sets,
    round)` of both blocks, and the indices and in-block sets of those
    pairs.  The indices are a slice when they are consecutive (one block
    pair holding every pair, say), so a stack is updated through a view.
    A block out of use is dropped before the next one is taken."""
    groups = {}
    for p, (m, mp) in enumerate(pairs):
        groups.setdefault((m // block, mp // block), []).append((p, m % block, mp % block))
    grouped = []
    for (lb, rb), group in sorted(groups.items()):
        idx, lefts, rights = map(np.array, zip(*group))
        if idx[-1] - idx[0] == len(idx) - 1:  # increasing, so consecutive
            idx = slice(idx[0], idx[-1] + 1)
        grouped.append((lb, rb, idx, lefts, rights))
    for r in rounds:
        spectra = {}
        for lb, rb, idx, lefts, rights in grouped:
            spectra = {k: spectra[k] for k in spectra.keys() & {lb, rb}}
            for k in {lb, rb} - spectra.keys():
                spectra[k] = spectra_of(slice(k * block, (k + 1) * block), r)
            yield r, spectra[lb], spectra[rb], idx, lefts, rights


def _member_sums(left, right, lefts, rights) -> np.ndarray:
    """sum_n left[l, n] conj(right[r, n]), (..., freqs), for the sets of
    the index arrays `lefts` and `rights` of two blocks of spectra
    (sets, members, freqs), `_STEP` entries of products at a time."""
    gram = min(len(left), len(right)) > _GRAM_SETS
    out = np.empty(np.broadcast(lefts, rights).shape + left.shape[2:], complex)
    step = max(1, _STEP // (len(left) * len(right) * (1 if gram else left.shape[1])))
    for f in range(0, out.shape[-1], step):
        x, y = left[..., f:f + step], right[..., f:f + step]
        if gram:
            x = np.ascontiguousarray(x.transpose(2, 0, 1))
            y = x if right is left else np.ascontiguousarray(y.transpose(2, 0, 1))
            sums = (x @ y.conj().swapaxes(-1, -2)).transpose(1, 2, 0)
        else:
            sums = np.einsum("lnf,rnf->lrf", x, y.conj())
        out[..., f:f + step] = sums[lefts, rights]
    return out


@lru_cache(maxsize=64)
def _roots(k: int, rows: int, primitive: bool = False) -> tuple:
    """(root, weight) of each root, kept per order, that an exponent axis
    of R = `rows` rows is evaluated at: zeta_K^-e for each e <= K/2 with
    zeta_K^(-eR) = +-1 (every e for odd K, the odd e for even K), one of
    each conjugate pair; with `primitive` only the e prime to K, all the
    certificate reads.  A root is the read-only row of its powers
    zeta_K^(-ej), j < K, the table an exponent indexes unfolded: for even
    K the powers j >= R are those of j - R negated, as zeta_K^(-eR) = -1,
    so an unfolded term gives the value of its folded one.  Its weight is
    1 if real, 2 for a pair.  At one row, one root None: the folded
    coefficients are their own values."""
    if rows == 1:
        return ((None, 1.0),)
    es = [e for e in range(k // 2 + 1)
          if (k % 2 or e % 2) and (math.gcd(e, k) == 1 or not primitive)]
    powers = np.exp(-2j * np.pi / k * (np.outer(es, np.arange(rows)) % k))
    if rows < k:
        powers = np.hstack([powers, -powers])
    powers.flags.writeable = False
    return tuple((row, 1.0 if 2 * e % k == 0 else 2.0) for e, row in zip(es, powers))


def _root_values(block: tuple, root) -> np.ndarray:
    """Each member's values at one root of `_roots`, of a block of layers
    (exponents, coefficients), (t, ..., width) arrays whose shapes
    broadcast: x(l) = sum_t c_t(l) root[e_t(l)], one gather of the root's
    powers per layer, each times its real coefficients; at root None the
    folded coefficients, summed."""
    exps, coeffs = block
    if root is None:
        return coeffs[0] if len(coeffs) == 1 else coeffs.sum(axis=0)
    x = root.take(exps[0]) * coeffs[0]
    for e, c in zip(exps[1:], coeffs[1:]):
        x += root.take(e) * c
    return x


def _root_spectra(block: tuple, root, size: int) -> tuple:
    """(spectra, values) of each member of a block of layers at one root
    of `_roots`: its values (`_root_values`) and their transform over
    positions, zero-padded to `size` (the half-spectrum, `rfft`, of real
    values)."""
    x = _root_values(block, root)
    return (np.fft.fft if np.iscomplexobj(x) else np.fft.rfft)(x, n=size), x


def _folded(exps: np.ndarray, coeffs: np.ndarray, rows: int, order: int) -> tuple:
    """(exponents, coefficients) of `order` K, (t, ...) arrays, with no two
    nonzero terms of an entry at exponents that meet after folding by
    zeta_K^(K/2) = -1 (j and j + R for R = `rows` < K): as they are when
    none meet, else scattered into their folded rows and read back, so
    each exponent is a row j < R.  At R = 1 (K <= 2) the coefficients
    are folded too, each term's sign its value at zeta_K^R = -1."""
    t, shape = len(coeffs), coeffs.shape[1:]
    if t > 1:
        folded, live = exps % rows, coeffs != 0
        if any(((folded[i] == folded[j]) & live[i] & live[j]).any()
               for i in range(t) for j in range(i)):
            signed = np.where(exps < rows, coeffs, -coeffs).reshape(t, -1)
            exps, coeffs = layers(_scatter(zip(folded.reshape(t, -1), signed), rows), rows)
            return exps.reshape((-1,) + shape), coeffs.reshape((-1,) + shape)
    if rows == 1 < order:
        coeffs = np.where(exps < rows, coeffs, -coeffs)
    return exps, coeffs


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
    positions.  The call's layers are laid side by side once, as (t,
    sets, members, width) exponents and coefficients (`_layers`; one
    complex layer in approx mode), and their coefficients are split into
    limbs when `_digits` says so; a block's values at a root are gathered
    from them (`_root_values`), so the call's memory follows its layers
    and one block's spectra, not K times its entries.  The spectra exist
    only while a pass runs, and so do the layers unless they are kept in
    `digits` for several calls: by `zccc_zone`, and by `check` when the
    certificate rejects a pair, for the report's deferred `scan` (one
    `sums` over the check's pairs, memoised with its violation mask).
    """

    def __init__(self, sets, phases: int = 1, tol: float = 0.0):
        held = [terms_of(s) for ss in sets for s in ss]
        modes = {is_exact(values) for _, _, values in held}
        if len(modes) != 1:
            raise ModeMismatchError("mode mismatch between sequences")
        (self.exact,) = modes
        # the coefficients of Python ints, which `_digits` checks
        self.wide = [values for _, _, values in held if values.dtype == object]
        self.tol = tol
        if not self.exact:  # an exact energy may be past the float range
            # a set's |x|^2 as re^2 + im^2, one dot of its floats: inf, never inf * 0
            floats = (np.concatenate([terms_of(s)[2] for s in ss], axis=1, dtype=complex).view(float)
                      for ss in sets)
            with np.errstate(over="ignore"):
                scale = max(float(np.vdot(x, x)) for x in floats)
            if not math.isfinite(scale):  # tol * inf would pass every residual
                raise OverflowError(f"an approx set energy of {scale} is past the float range")
            self.tol = tol * scale if scale > 0 else tol
        self.order = reduce(common_order, {k for k, _, _ in held}, 1)
        # shift q of a sum is shift q * step of the sequences
        self.step = phases
        self.phases = min(phases, max(values.shape[1] for _, _, values in held))
        self.sets = sets
        self.members = len(sets[0]) * self.phases
        self.widths = [-(-len(ss[0]) // self.phases) for ss in sets]
        self.width = max(self.widths)
        self.hull = self.width - 1
        # rows kept after folding by zeta_K^(K/2) = -1
        self.rows = self.order // 2 if self.order % 2 == 0 else self.order
        self.digits = None  # `_digits()` when the caller keeps it for more calls

    def _digits(self):
        """The layers the spectra are taken of, (exponents, coefficients):
        (t, sets, 1, members, width) exponents and (t, sets, limbs,
        members, width) float coefficients (`_layers`); the limb width b
        in bits (0: one limb); the rounding bound that certifies the pass
        (nan in approx mode); the dtype of the sums, int64 when every
        value and every step of their recombination fits; the largest
        set energy of the layers before any split into limbs (nan in
        approx mode), which `certificate_bound` takes.

        int64 coefficients (below INT64_COEFF_BOUND) convert to float
        exactly.  A sequence of Python ints makes the coefficients Python
        ints first; every coefficient of such a sequence must be below
        COEFF_LIMIT (a CoefficientLimitError names the cap), so that they
        convert to float too."""
        if not self.exact:
            exps, coeffs = self._layers(complex)
            return (exps[:, :, None], coeffs[:, :, None]), 0, math.nan, complex, math.nan
        if self.wide:
            for values in self.wide:
                check_coefficients(values)
            exps, ints = self._layers(object)
            coeffs = ints.astype(float)
        else:
            ints, (exps, coeffs) = None, self._layers(float)
        exps = exps[:, :, None]
        energy = float(np.einsum("tsml,tsml->s", coeffs, coeffs).max())
        size = _pow2(2 * self.width - 1)
        bound = rounding_bound(energy, self.rows, self.members, size)
        if bound < 0.5:
            return (exps, coeffs[:, :, None]), 0, bound, np.int64, energy
        # Too large to round in one piece: every coefficient becomes n
        # signed base-2^b digits, least significant first, at its
        # exponent.  A set sum is then sum_k 2^(bk) R_k, where R_k sums
        # over the members and over the limb pairs (i, k - i) as more
        # members, so for sets of c nonzero coefficients
        # `rounding_bound` holds for every R_k when it holds for energy
        # c n (2^b - 1)^2 and n times the members.  A coefficient of R_k
        # pairs each row j with the one row (j - d) mod R, so by
        # Cauchy-Schwarz it is at most that energy, which the bound keeps
        # below 2^51; each Horner step is then below energy + 2^52, and
        # int64 holds every step for energies below 2^61.
        if ints is None:
            ints = self._layers(np.int64)[1]
        mags = np.abs(ints)
        bits = int(mags.max()).bit_length()
        nonzero = int(np.count_nonzero(ints, axis=(0, 2, 3)).max())
        stack = bits, nonzero, self.rows, self.members, size
        # the widest limb that passes, found from the top: 53 - b bounds
        b = next(b for b in range(52, 0, -1) if _limb_bound(b, *stack) < 0.5)
        digits = np.stack([(mags >> i) & ((1 << b) - 1) for i in range(0, bits, b)], axis=2)
        return ((exps, digits.astype(float) * np.where(ints < 0, -1.0, 1.0)[:, :, None]), b,
                _limb_bound(b, *stack), np.int64 if energy < 2.0 ** 61 else object, energy)

    def _layers(self, dtype) -> tuple:
        """(exponents, coefficients) of the call, two (t, sets, members,
        width) arrays, the coefficients of `dtype`: every sequence's layers
        at the call's order K, laid out by `_joined` and folded by
        `_folded`, so a column's terms are at distinct rows j < R and their
        squares sum to its folded energy.  Exponents stay unfolded, as the
        roots' powers take them."""
        return _folded(*self._joined([terms_of(s) for ss in self.sets for s in ss], dtype),
                       self.rows, self.order)

    def _joined(self, found, dtype) -> tuple:
        """(exponents, coefficients) of layered sequences at the call's
        order, two (t, sets, members, width) arrays, the coefficients of
        `dtype`: each sequence zero-padded to the most layers any has and
        to phases * width entries, side by side, its component r (entries
        r, r + phases, ...) member n * phases + r of its set."""
        n, width = self.phases, self.width
        depth, span = max(len(c) for _, _, c in found), n * width
        exps = [e if k == self.order else e * (self.order // k) for k, e, _ in found]
        if all(c.shape == (depth, span) for _, _, c in found):
            exps = np.concatenate(exps, axis=1)
            coeffs = np.concatenate([c for _, _, c in found], axis=1, dtype=dtype,
                                    casting="unsafe")
        else:  # each into its place in zeros
            exps, padded = np.zeros((depth, len(found) * span), np.intp), exps
            coeffs = np.zeros(exps.shape, dtype)
            for start, e, (_, _, c) in zip(range(0, exps.shape[1], span), padded, found):
                exps[:len(e), start:start + e.shape[1]] = e
                coeffs[:len(c), start:start + c.shape[1]] = c
        return tuple(a.reshape(depth, -1, len(self.sets[0]), width, n).transpose(0, 1, 2, 4, 3)
                     .reshape(depth, -1, self.members, width) for a in (exps, coeffs))

    def _spectra(self, block: tuple, root, size: int) -> np.ndarray:
        """The per-shift spectra (sets limbs, members, freqs) of a block of
        layers at a root."""
        spectra = _root_spectra(block, root, size)[0]
        return spectra.reshape(-1, *spectra.shape[2:])

    def sums(self, pairs, rotate: bool = False, digits=None) -> np.ndarray:
        """(pairs, 2 hull + 1, rows) stack of the set sums of each
        (left, right) pair of set indices: [p, hull + q, d] holds the
        coefficient of zeta_K^d at shift q, folded for even K.  With
        `rotate` the members of the left set are taken cyclically
        shifted by one (member n + 1 pairs with member n).  `digits`
        is a `_digits()` the caller has already made."""
        (exps, coeffs), b, bound, dtype, _ = digits or self.digits or self._digits()
        _, sets, limbs, members, width = coeffs.shape
        rows = self.rows
        size = _pow2(2 * width - 1)
        real = self.exact and rows == 1
        block = _blocks(sets, members, limbs, size // 2 + 1 if real else size, b, "rounding",
                        bound)
        # sigma_e(a_q) is entry -q mod size of a root's inverse transform
        shifts = -np.arange(-self.hull, self.hull + 1) % size
        # the right limbs reversed: limb pairs (i, k - i) are diagonal limbs - 1 - k
        left_limbs, right_limbs = np.arange(limbs)[:, None], np.arange(limbs)[::-1]
        acc = np.zeros((len(pairs), 2 * limbs - 1, len(shifts), rows),
                       float if self.exact else complex)
        for (root, weight), left, right, idx, lefts, rights in _block_pairs(
                pairs, block,
                lambda part, r: self._spectra((exps[:, part], coeffs[:, part]), r[0], size),
                _roots(self.order, rows)):
            if rotate:
                left = np.roll(left, -1, axis=1)
            # one name for each block pair's arrays, so none outlives its step
            found = _member_sums(left, right, lefts[:, None, None] * limbs + left_limbs,
                                 rights[:, None, None] * limbs + right_limbs)
            found = found[:, 0] if limbs == 1 else np.stack(
                [found.diagonal(limbs - 1 - k, 1, 2).sum(-1) for k in range(2 * limbs - 1)], 1)
            found = (np.fft.irfft if real else np.fft.ifft)(found, n=size)[..., shifts]
            if root is None:
                acc[idx] = found[..., None]
            else:  # weight Re(sigma_e(a_q) zeta^(ej)) = weight (Re Re + Im Im), j < R
                acc[idx] += found[..., None].view(float) @ (
                    weight * np.stack([root.real[:rows], root.imag[:rows]]))
        if not self.exact:
            return acc[:, 0]
        if rows > 1:
            acc /= rows
        np.rint(acc, out=acc)
        total = acc[:, -1].astype(np.int64).astype(dtype, copy=False)
        for k in reversed(range(2 * limbs - 2)):
            # Horner from the top diagonal: no step outgrows energy + 2^52
            total = (total << b) + acc[:, k].astype(np.int64).astype(dtype, copy=False)
        return total

    def zeros(self, acc: np.ndarray) -> np.ndarray:
        """(pairs, shifts) bools: which sums of a `sums` stack vanish, decided
        by one `zero_rows` call over its nonzero sums (approx: every sum,
        |sum| <= tol times the largest set energy, or tol when every set is
        zero)."""
        flat = acc.reshape(-1, self.rows)
        if not self.exact:
            return zero_rows(flat, self.order, self.tol).reshape(acc.shape[:2])
        live = flat[:, 0] != 0
        for j in range(1, self.rows):  # column by column: a reduction over rows is slower
            live |= flat[:, j] != 0
        zero = ~live
        live = np.flatnonzero(live)
        zero[live] = zero_rows(flat.take(live, axis=0), self.order)
        return zero.reshape(acc.shape[:2])

    def profile(self) -> "CorrelationProfile":
        """Profile of the sum of sets 0 and 1 over the full hull."""
        (acc,) = self.sums([(0, 1)])
        return CorrelationProfile(-self.hull, _scalars(acc, self.order))

    def check(self, pairs) -> list:
        """PairResult of each (left, right) pair over the shifts of its
        own hull; the zero shift of an auto pair may hold its energy
        peak.  The certificate (`_certify`) decides every pair when its
        bound is below 1/2 on a one-limb exact stack; otherwise the
        per-shift pass (`scan`) decides here.  Either way `scan` is what
        a report's violations and values are read from.  The kernel
        records the pairs and their hulls for it, so it serves one check.
        A debug record names the path and why."""
        digits = self.digits or self._digits()
        (exps, coeffs), _, _, _, energy = digits
        limbs = coeffs.shape[2]
        self.pairs = pairs
        self.hulls = [max(self.widths[m], self.widths[mp]) - 1 for m, mp in pairs]
        self.found = None
        cert = math.nan
        if self.exact:
            cert = certificate_bound(energy, self.rows, self.members, self.width,
                                     _pow2(2 * self.width - 1))
        reason = ("approx" if not self.exact else "bound" if not cert < 0.5 else
                  "limbs" if limbs > 1 else None)
        if reason is None:
            accepted = (self._certify((exps[:, :, 0], coeffs[:, :, 0]), pairs, cert)
                        < 0.5).tolist()
            if not all(accepted):  # a failing report is likely read: keep its stack
                self.digits = digits
            _debug("check by certificate: %d of %d pairs accepted, %d rejected; "
                   "bound %.3g, headroom %.3g of 1/2", sum(accepted), len(pairs),
                   len(pairs) - sum(accepted), cert, _headroom(cert))
        else:
            self.scan(digits)
            accepted = [None] * len(pairs)
            _debug("check per shift (%s): %d pairs, %d limbs; certificate bound %.3g, "
                   "headroom %.3g of 1/2", reason, len(pairs), limbs, cert, _headroom(cert))
        step = self.step  # pairs of one hull share their list of shifts
        shifts = {h: list(range(-h * step, h * step + 1, step)) for h in set(self.hulls)}
        return [PairResult(m, mp, shifts[h], self, p, ok)
                for p, ((m, mp), h, ok) in enumerate(zip(pairs, self.hulls, accepted))]

    def scan(self, digits=None) -> tuple:
        """The per-shift pass over the pairs of `check`, run once: the
        `sums` stack and its (pairs, 2 hull + 1) violation mask, set at each
        nonzero sum but an auto pair's shift 0 and those past a pair's hull."""
        if self.found is None:
            acc = self.sums(self.pairs, digits=digits)
            mask = ~self.zeros(acc)
            mask[[p for p, (m, mp) in enumerate(self.pairs) if m == mp], self.hull] = False
            mask &= np.abs(np.arange(-self.hull, self.hull + 1)) <= np.array(self.hulls)[:, None]
            self.found = acc, mask
        return self.found

    def _certify(self, layers: tuple, pairs, bound: float) -> np.ndarray:
        """max |v| of each pair over its certificate values v (see the
        module docstring): the member sums of the spectra at every
        primitive root and frequency, less an auto pair's shift-0 sum.
        `layers`: one limb's (exponents, coefficients), (t, sets,
        members, width) each."""
        exps, coeffs = layers
        _, sets, members, width = coeffs.shape
        size = _pow2(2 * width - 1)
        block = _blocks(sets, members, 1, size // 2 + 1 if self.rows == 1 else size, 0,
                        "certificate", bound)
        auto = np.array([m == mp for m, mp in pairs])
        worst = np.zeros(len(pairs))

        def spectra_of(part, r):  # and each set's shift-0 sum at the root
            spectra, x = _root_spectra((exps[:, part], coeffs[:, part]), r[0], size)
            parts = x if r[0] is None else x.view(float)  # real and imaginary parts
            return spectra, np.einsum("sml,sml->s", parts, parts)

        for _, (left, energies), (right, _), idx, lefts, rights in _block_pairs(
                pairs, block, spectra_of, _roots(self.order, self.rows, primitive=True)):
            v = _member_sums(left, right, lefts, rights)
            v -= np.where(auto[idx], energies[lefts], 0)[:, None]
            worst[idx] = np.maximum(worst[idx], np.abs(v).max(axis=1))
        return worst


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
    pair is allowed its energy peak).  `accepted` is the certificate's
    verdict, None when the per-shift pass decided.  The violations are
    read from row `index` of its kernel's violation mask, and the sums
    and values from the same row of its sums stack, both of `scan`, run
    when one of them is first read; a pair the certificate accepted has
    no violations without it."""

    left: int
    right: int
    shifts: list
    kernel: _Kernel = field(compare=False, repr=False)
    index: int = field(compare=False, repr=False)
    accepted: Optional[bool] = field(default=None, compare=False, repr=False)

    @property
    def violations(self) -> list:  # offending shifts, ascending
        k = self.kernel
        return [] if self.accepted else ((self._violated() - k.hull) * k.step).tolist()

    def _violated(self) -> np.ndarray:  # set columns of the kernel's violation mask
        return np.flatnonzero(self.kernel.scan()[1][self.index])

    @property
    def sums(self) -> np.ndarray:
        hull, h = self.kernel.hull, self.kernel.hulls[self.index]
        return self.kernel.scan()[0][self.index, hull - h:hull + h + 1]

    @property
    def values(self) -> list:
        return _scalars(self.sums, self.kernel.order)

    @property
    def ok(self) -> bool:
        return self.accepted if self.accepted is not None else not len(self._violated())


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
        """The verdict and, per failing pair, its first violated shifts
        (set columns of the kernel's mask) with their residuals."""
        lines = [f"check {self.kind}: {'PASS' if self.ok else 'FAIL'}"]
        for msg in self.problems:
            lines.append(f"  problem: {msg}")
        for p in self.pairs:
            if p.ok:
                continue
            lines.append(f"  pair ({p.left},{p.right}) violated at shifts:")
            k, cols = p.kernel, p._violated()
            shown = cols[:RENDER_SHIFTS_PER_PAIR]  # convert only the sums shown
            values = _scalars(k.scan()[0][p.index, shown], k.order)
            lines += [f"    tau={tau}: residual {_fmt_scalar(val)}"
                      for tau, val in zip(((shown - k.hull) * k.step).tolist(), values)]
            if len(cols) > len(shown):
                lines.append(f"    ... and {len(cols) - len(shown)} more shifts")
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
    sequence is laid out once.
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
