"""Correlations, correlation sums, and the defining predicates."""

import cmath
import hashlib
import json
import logging
import math
import os
import random
import re
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cocodes import (
    CycloNum,
    Sequence,
    SequenceFamily,
    SequenceSet,
    acorr,
    ccc_from_unitary,
    check_size_bound,
    cosf_to_ccc,
    corr_profile,
    corr_sum,
    corr_sum_profile,
    custom_matrix,
    dft_matrix,
    energy,
    enlarge_ccc,
    execute,
    from_signs,
    generate_cosf,
    hadamard_matrix,
    is_ccc,
    is_complementary_set,
    is_n_co_sf,
    pcorr,
    plan,
    set_energy,
    singleton_family,
    zccc_zone,
)
from cocodes import corr, cyclo
from cocodes.cli import EXIT_OK, family_to_doc, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ints(values):
    return [CycloNum.from_int(v) for v in values]


def profile_ints(s, t, lo, hi):
    return [acorr(s, t, tau) for tau in range(lo, hi + 1)]


def random_entry(rng, orders, scale):
    k = rng.choice(orders)
    return CycloNum(k, [rng.randint(-scale, scale) for _ in range(k)])


def zone_by_acorr(fam):
    """The definitional zone loop: per shift, every set pair summed
    member by member with acorr."""
    (length,) = fam.length_set
    n_size = fam.set_size
    for tau in range(1, length + 1):
        for m in range(fam.family_size):
            for mp in range(fam.family_size):
                total = CycloNum.zero()
                for n in range(n_size):
                    total = total + acorr(fam[m][(n + 1) % n_size], fam[mp][n],
                                          length - tau)
                if not total.is_zero():
                    return tau - 1
    return length


def scaled_hadamard_cosf(scale):
    """(2,1,{4})-2-CO-SF from H_2 scaled by `scale`; connection squares
    the scale, so its coefficients reach scale^2."""
    h = custom_matrix([[x.coeffs[0] * scale for x in row]
                       for row in hadamard_matrix(2).entries])
    return generate_cosf(h, [[0, 1]], [h])


class TestAcorr:
    def test_reference_auto_profile(self):
        s = from_signs("+++-")
        assert profile_ints(s, s, -3, 3) == ints([-1, 0, 1, 4, 1, 0, -1])

    def test_second_auto_profile(self):
        s = from_signs("+-++")
        assert profile_ints(s, s, -3, 3) == ints([1, 0, -1, 4, -1, 0, 1])

    def test_no_overlap_is_zero(self):
        s = from_signs("+-+-")
        assert acorr(s, s, 4).is_zero()
        assert acorr(s, s, -4).is_zero()
        assert acorr(s, s, 100).is_zero()

    def test_unequal_lengths_support(self):
        s = from_signs("++")
        t = from_signs("+++-")
        # tau up to len(t)-1 can still overlap
        assert acorr(s, t, 3) == CycloNum.from_int(-1)
        assert acorr(s, t, -2).is_zero()


class TestPcorr:
    def test_zero_shift_is_energy(self):
        s = from_signs("+++-")
        assert pcorr(s, s, 0) == energy(s)

    def test_periodic_aperiodic_identity_sample(self):
        s = from_signs("+++-")
        # tau=1: acorr(1) + acorr(1-4) = 1 + (-1) = 0
        assert pcorr(s, s, 1) == acorr(s, s, 1) + acorr(s, s, -3)
        assert pcorr(s, s, 1).is_zero()

    def test_constant_sequence(self):
        s = from_signs("++++")
        for tau in range(-3, 8):
            assert pcorr(s, s, tau) == CycloNum.from_int(4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pcorr(from_signs("++"), from_signs("+++"), 0)


class TestProfiles:
    def test_profile_matches_acorr(self):
        rng = random.Random(99)
        for _ in range(40):
            k = rng.choice([1, 2, 3, 4, 6, 8])
            ls, lt = rng.randint(1, 7), rng.randint(1, 7)
            s = Sequence([CycloNum(k, [rng.randint(-2, 2) for _ in range(k)])
                          for _ in range(ls)])
            t = Sequence([CycloNum(k, [rng.randint(-2, 2) for _ in range(k)])
                          for _ in range(lt)])
            prof = corr_profile(s, t)
            for tau in prof.shifts():
                assert prof.at(tau) == acorr(s, t, tau), (tau, s, t)

    def test_profile_even_order_cancellation_is_zero_vector(self):
        # shift 0 sums 1 * conj(1) + 1 * conj(zeta_4^2) = 1 + zeta_4^2 = 0;
        # the profile holds it with no nonzero coefficient, unreduced
        s = Sequence([CycloNum.from_int(1)] * 2)
        t = Sequence([CycloNum.from_int(1), CycloNum.root(4, 2)])
        prof = corr_profile(s, t)
        assert not any(prof.at(0).coeffs)
        for tau in prof.shifts():
            assert prof.at(tau) == acorr(s, t, tau)

    def test_profile_mixed_orders_per_entry(self):
        rng = random.Random(7)
        orders = [1, 2, 3, 4, 6]
        for _ in range(25):
            def entry():
                k = rng.choice(orders)
                return CycloNum(k, [rng.randint(-2, 2) for _ in range(k)])
            s = Sequence([entry() for _ in range(rng.randint(1, 6))])
            t = Sequence([entry() for _ in range(rng.randint(1, 6))])
            prof = corr_profile(s, t)
            for tau in prof.shifts():
                assert prof.at(tau) == acorr(s, t, tau)
        # index-paired sums over sets; small coefficients take int64
        # rows, 2^40 ones Python-int rows
        for scale in (2, 2 ** 40):
            for _ in range(20):
                n = rng.randint(1, 4)
                ls, lt = rng.randint(1, 6), rng.randint(1, 6)
                ss = SequenceSet(
                    Sequence(random_entry(rng, orders, scale)
                             for _ in range(ls)) for _ in range(n))
                tt = SequenceSet(
                    Sequence(random_entry(rng, orders, scale)
                             for _ in range(lt)) for _ in range(n))
                prof = corr_sum_profile(ss, tt)
                for tau in prof.shifts():
                    expect = CycloNum.zero()
                    for a, b in zip(ss, tt):
                        expect = expect + acorr(a, b, tau)
                    assert prof.at(tau) == expect, (scale, tau)

    def test_profile_big_coefficients_fallback(self):
        big = 10 ** 12  # pushes the int64 bound, exercising the exact path
        s = Sequence([CycloNum(3, [big, 0, -big]), CycloNum(3, [0, big, 0])])
        t = Sequence([CycloNum(3, [big, big, 0])])
        prof = corr_profile(s, t)
        for tau in prof.shifts():
            assert prof.at(tau) == acorr(s, t, tau)
        # peak^2 * L * K * summed is 4 * (2^30 - 1)^2 < 2^62 (int64 rows),
        # then exactly 2^62 (Python-int rows)
        for peak in (2 ** 30 - 1, 2 ** 30):
            s = Sequence([CycloNum.from_int(peak)] * 4)
            prof = corr_profile(s, s)
            for tau in prof.shifts():
                assert prof.at(tau) == CycloNum.from_int((4 - abs(tau)) * peak ** 2)

    def test_profile_approx(self):
        s = Sequence([1 + 0j, 0 + 1j, -1 + 0j])
        prof = corr_profile(s, s)
        for tau in prof.shifts():
            assert abs(prof.at(tau) - acorr(s, s, tau)) < 1e-12

    def test_hermitian_symmetry(self):
        rng = random.Random(17)
        for _ in range(30):
            k = rng.choice([2, 3, 4, 6])
            s = Sequence([CycloNum.root(k, rng.randrange(k)) for _ in range(4)])
            t = Sequence([CycloNum.root(k, rng.randrange(k)) for _ in range(6)])
            for tau in range(-6, 7):
                assert acorr(s, t, tau) == acorr(t, s, -tau).conj()


class TestCorrSum:
    def test_reference_sum(self, golden_cs_pair):
        vals = [corr_sum(golden_cs_pair, golden_cs_pair, tau)
                for tau in range(-3, 4)]
        assert vals == ints([0, 0, 0, 8, 0, 0, 0])

    def test_cross_sum_all_zero(self, golden_ccc_2x2):
        a, b = golden_ccc_2x2[0], golden_ccc_2x2[1]
        for tau in range(-3, 4):
            assert corr_sum(a, b, tau).is_zero()

    def test_zero_shift_is_energy(self, golden_cs_pair):
        assert corr_sum(golden_cs_pair, golden_cs_pair, 0) == set_energy(golden_cs_pair)

    def test_size_mismatch(self):
        a = SequenceSet([from_signs("++")])
        b = SequenceSet([from_signs("++"), from_signs("+-")])
        with pytest.raises(ValueError):
            corr_sum(a, b, 0)

    def test_sum_profile_matches_pointwise(self, golden_ccc_2x2):
        a, b = golden_ccc_2x2[0], golden_ccc_2x2[1]
        prof = corr_sum_profile(a, b)
        for tau in prof.shifts():
            assert prof.at(tau) == corr_sum(a, b, tau)


class TestComplementarySet:
    def test_golden_pair(self, golden_cs_pair):
        assert is_complementary_set(golden_cs_pair).ok

    def test_single_sequence_fails(self):
        report = is_complementary_set(SequenceSet([from_signs("+++-")]))
        assert not report.ok
        viol = report.pairs[0].violations
        assert set(viol) == {-3, -1, 1, 3}

    def test_length_one_trivially_ok(self):
        assert is_complementary_set(
            SequenceSet([from_signs("+"), from_signs("+")])).ok


class TestCcc:
    def test_golden(self, golden_ccc_2x2):
        assert is_ccc(golden_ccc_2x2).ok

    def test_zero_padded_example(self):
        rows = ["++-+ +--- 0000 0000",
                "0000 0000 ++-+ +---",
                "+++- +-++ +++- +-++",
                "+++- +-++ ---+ -+--"]
        fam = SequenceFamily(
            SequenceSet(from_signs(w) for w in row.split()) for row in rows)
        assert is_ccc(fam).ok

    def test_duplicated_set_fails(self, golden_cs_pair):
        fam = SequenceFamily([golden_cs_pair, golden_cs_pair])
        report = is_ccc(fam)
        assert not report.ok
        cross = [p for p in report.pairs if p.left != p.right][0]
        assert 0 in cross.violations  # cross sum at zero shift equals energy

    def test_report_renders(self, golden_cs_pair):
        fam = SequenceFamily([golden_cs_pair, golden_cs_pair])
        text = is_ccc(fam).render()
        assert "FAIL" in text and "tau=0" in text


class TestNCoSf:
    def test_golden_columns(self, golden_ccc_2x2):
        col0 = singleton_family([golden_ccc_2x2[0][0], golden_ccc_2x2[1][0]])
        col1 = singleton_family([golden_ccc_2x2[0][1], golden_ccc_2x2[1][1]])
        assert is_n_co_sf(col0, 2).ok
        assert is_n_co_sf(col1, 2).ok

    def test_mixed_lengths(self, cosf_6_mixed):
        assert is_n_co_sf(cosf_6_mixed, 6).ok

    def test_identical_pair_fails(self):
        fam = singleton_family([from_signs("++"), from_signs("++")])
        report = is_n_co_sf(fam, 2)
        assert not report.ok

    def test_length_divisibility(self):
        fam = singleton_family([from_signs("+++")])
        report = is_n_co_sf(fam, 2)
        assert not report.ok
        assert any("not divisible" in p for p in report.problems)

    def test_multi_sequence_set_rejected(self, golden_ccc_2x2):
        with pytest.raises(ValueError):
            is_n_co_sf(golden_ccc_2x2, 2)

    def test_coefficients_above_int64(self, tmp_path):
        fam = scaled_hadamard_cosf(2 ** 32)
        assert max(x.max_abs_coeff() for ss in fam for x in ss[0]) == 2 ** 64
        assert is_n_co_sf(fam, 2).ok
        seq = list(fam[0][0])
        seq[1] = seq[1] + CycloNum.from_int(1)
        near_miss = SequenceFamily([SequenceSet([Sequence(seq)]), fam[1]])
        assert not is_n_co_sf(near_miss, 2).ok
        path = tmp_path / "big.json"
        path.write_text(json.dumps(family_to_doc(fam, kind="cosf:2")),
                        encoding="utf-8")
        assert main(["verify", str(path), "--kind", "cosf:2"]) == EXIT_OK


class TestZone:
    def test_dft4(self):
        assert zccc_zone(ccc_from_unitary(dft_matrix(4))) == 3

    def test_hadamard4(self):
        assert zccc_zone(ccc_from_unitary(hadamard_matrix(4))) == 2

    def test_hadamard2_brute(self):
        assert zccc_zone(ccc_from_unitary(hadamard_matrix(2))) == 1

    @pytest.mark.parametrize("build", [
        lambda: ccc_from_unitary(dft_matrix(4)),
        lambda: ccc_from_unitary(hadamard_matrix(4)),
        lambda: enlarge_ccc(
            cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)),
            [hadamard_matrix(2)] * 4),
        lambda: ccc_from_unitary(dft_matrix(3)),
        lambda: ccc_from_unitary(dft_matrix(5)),
        lambda: ccc_from_unitary(dft_matrix(6)),
        lambda: enlarge_ccc(ccc_from_unitary(dft_matrix(3)), [dft_matrix(4)] * 3),
    ], ids=["dft4", "hadamard4", "enlarged-8x8", "dft3", "dft5", "dft6", "enlarged-order-12"])
    def test_matches_definitional_loop(self, build):
        fam = build()
        assert zccc_zone(fam) == zone_by_acorr(fam)

    def test_requires_ccc(self, golden_cs_pair):
        fam = SequenceFamily([golden_cs_pair, golden_cs_pair])
        with pytest.raises(ValueError):
            zccc_zone(fam)

    def test_refusal_embeds_the_capped_render(self):
        # a near-miss CCC violates far more shifts than a render shows
        bad = TestSpectralKernel.near_miss(256)
        report = is_ccc(bad)
        with pytest.raises(ValueError) as info:
            zccc_zone(bad)
        assert str(info.value) == "zone check requires a CCC:\n" + report.render()
        assert "more shifts" in str(info.value)
        assert str(info.value).count("tau=") < sum(len(p.violations) for p in report.pairs)

    def test_requires_common_length(self, cosf_6_mixed):
        from cocodes import cosf_to_ccc
        ccc = cosf_to_ccc(cosf_6_mixed, dft_matrix(6))
        with pytest.raises(ValueError):
            zccc_zone(ccc)

    @pytest.mark.parametrize("build", [
        lambda: ccc_from_unitary(dft_matrix(4)),
        lambda: enlarge_ccc(
            cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)),
            [hadamard_matrix(2)] * 4),
    ], ids=["dft4", "enlarged-8x8"])
    def test_one_kernel_and_one_stack_per_call(self, monkeypatch, build):
        # the CCC check and the rotated pass share one densified stack
        fam = build()
        zone = zone_by_acorr(fam)
        calls = {"init": 0, "digits": 0}
        init, digits = corr._Kernel.__init__, corr._Kernel._digits

        def counted_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counted_digits(self):
            calls["digits"] += 1
            return digits(self)

        monkeypatch.setattr(corr._Kernel, "__init__", counted_init)
        monkeypatch.setattr(corr._Kernel, "_digits", counted_digits)
        assert zccc_zone(fam) == zone
        assert calls == {"init": 1, "digits": 1}

    @pytest.mark.parametrize("cap", [None, 0], ids=["one block", "a block per set"])
    def test_only_the_rotated_pass_takes_forward_spectra(self, caplog, monkeypatch, cap):
        # the certificate decides the CCC check, so a zone call takes the
        # per-shift spectra (those that take no shift-0 sums) in the
        # rotated pass alone: every set at once, in one chunk or, at cap 0,
        # in one chunk a frequency
        fam = enlarge_ccc(
            cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)),
            [hadamard_matrix(2)] * 4)
        zone = zone_by_acorr(fam)
        if cap is not None:
            monkeypatch.setattr(corr, "_SPECTRA_MAX", cap)
        calls = []
        spectra = corr._spectra
        monkeypatch.setattr(corr, "_spectra",
                            lambda layers, root, size, chunks, real, energies=None:
                            (energies is None and calls.append((layers[1].shape[1:], chunks)))
                            or spectra(layers, root, size, chunks, real, energies))
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            assert zccc_zone(fam) == zone
        assert path_records(caplog) == ["certificate"]
        in_zone = calls[:]
        calls.clear()
        count = fam.family_size
        corr._Kernel(list(fam)).sums([(m, mp) for m in range(count) for mp in range(count)],
                                     rotate=True)
        assert in_zone == calls
        width = fam[0].length
        assert calls == [((count, 1, fam.set_size, width), 1 if cap is None else 2 * width)]


class TestSizeBound:
    def test_cosf_bound(self, cosf_2_of_4):
        assert check_size_bound(cosf_2_of_4, "cosf", n=2)

    def test_ccc_bound_with_equality(self):
        fam = ccc_from_unitary(hadamard_matrix(4))
        assert check_size_bound(fam, "ccc")
        assert fam.family_size == fam.set_size == 4

    def test_violated(self):
        fam = singleton_family([from_signs("++"), from_signs("+-"),
                                from_signs("-+")])
        assert not check_size_bound(fam, "cosf", n=2)


class TestApproxMode:
    def test_approx_ccc(self, golden_ccc_2x2):
        approx = SequenceFamily(
            SequenceSet(
                Sequence([x.numeric() for x in seq]) for seq in ss)
            for ss in golden_ccc_2x2)
        assert is_ccc(approx).ok

    def test_approx_near_miss_fails(self):
        a = SequenceSet([Sequence([1 + 0j, 1 + 0j, 1 + 0j, -1 + 0j]),
                         Sequence([1 + 0j, -0.9 + 0j, 1 + 0j, 1 + 0j])])
        assert not is_complementary_set(a).ok

    def test_tolerance_scales_with_energy(self):
        eps = 1e-12
        a = SequenceSet([Sequence([1 + 0j, 1 + 0j, 1 + 0j, -1 + 0j]),
                         Sequence([1 + eps, -1 + 0j, 1 + 0j, 1 + 0j])])
        assert is_complementary_set(a, tol=1e-9).ok
        assert not is_complementary_set(a, tol=1e-15).ok

    @pytest.mark.parametrize("sets", [
        # the shift-1 sum is 1.5e308, 46% of the energy 3.25e308
        [[[1.5e154, 1e154]]],
        # a Golay pair past the float range (energy 4 s^2 at s = 9e153)
        [[[9e153, 9e153], [9e153, -9e153]]],
    ], ids=["single", "golay"])
    def test_energy_past_the_float_range_is_refused(self, sets, recwarn):
        fam = SequenceFamily(SequenceSet(Sequence(s) for s in ss) for ss in sets)
        with pytest.raises(OverflowError, match="energy of inf"):
            is_complementary_set(fam[0])
        with pytest.raises(OverflowError, match="energy of inf"):
            is_ccc(fam)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        # the same shapes in the float range keep their verdicts
        small = [[[1.5, 1.0]], [[6e153, 6e153], [6e153, -6e153]]][len(sets[0]) - 1]
        assert is_complementary_set(SequenceSet(Sequence(s) for s in small)).ok == (len(small) == 2)

    @pytest.mark.parametrize("power", [400, -400])
    def test_verdicts_unchanged_by_a_scale_in_range(self, power):
        # a clean 2x2 approx CCC and its near-miss, scaled by 2^+-400
        clean = [[[1, 1], [1, -1]], [[1, -1], [1, 1]]]
        near = [[[1, 1], [1, -0.9]], [[1, -1], [1, 1]]]
        for sets, ok in ((clean, True), (near, False)):
            for scale in (1.0, 2.0 ** power):
                fam = SequenceFamily(SequenceSet(Sequence([complex(x * scale) for x in s])
                                                 for s in ss) for ss in sets)
                assert is_ccc(fam).ok is ok
                assert is_complementary_set(fam[0]).ok is ok


# -- the spectral kernel against the definitional sums -------------------

# 9, 10 and 15 evaluate at roots that are not primitive beyond those of
# 3, 5, 6 and 12 (the per-shift pass reads every root of z^R = +-1)
MIXED_ORDERS = (1, 2, 3, 4, 5, 6, 9, 10, 12, 15)


@st.composite
def mixed_entries(draw):
    order = draw(st.sampled_from(MIXED_ORDERS))
    return CycloNum(order, draw(st.lists(st.integers(-3, 3), min_size=order,
                                         max_size=order)))


@st.composite
def mixed_families(draw):
    """1-3 sets of 1-3 members, each set with its own length (1-6),
    entries of the orders of MIXED_ORDERS mixed."""
    members = draw(st.integers(1, 3))
    sets = []
    for length in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)):
        sets.append(SequenceSet(
            Sequence(draw(st.lists(mixed_entries(), min_size=length, max_size=length)))
            for _ in range(members)))
    return SequenceFamily(sets)


def summed_acorr(ss, tt, tau):
    return reduce(lambda a, b: a + b,
                  (acorr(a, b, tau) for a, b in zip(ss, tt)), CycloNum.zero())


def assert_pair_matches(pair, ss, tt):
    expect = [summed_acorr(ss, tt, tau) for tau in pair.shifts]
    assert pair.values == expect
    assert pair.violations == [
        tau for tau, v in zip(pair.shifts, expect)
        if not v.is_zero() and not (pair.left == pair.right and tau == 0)]


def family_order(fam):
    return reduce(math.lcm, (s.order for ss in fam for s in ss), 1)


def kernel_records(caplog):
    """The kernel's debug records: one per call that cuts its
    frequencies into chunks or splits its coefficients into limbs."""
    return [r.getMessage() for r in caplog.records
            if r.name == "cocodes" and "spectral pass" in r.getMessage()]


def path_records(caplog):
    """The pass that decided each kernel check, from its debug record:
    "certificate", or "per-shift: " and the reason."""
    out = []
    for r in caplog.records:
        msg = r.getMessage()
        if r.name != "cocodes":
            continue
        if msg.startswith("check by certificate"):
            out.append("certificate")
        found = re.match(r"check per shift \((\w+)\)", msg)
        if found:
            out.append(f"per-shift: {found.group(1)}")
    return out


def record_counts(record):
    """(chunks, limbs) of a kernel record."""
    found = re.search(r"(\d+) chunks of \d+ frequencies, (\d+) limbs", record)
    return int(found.group(1)), int(found.group(2))


class TestSpectralKernel:
    @settings(max_examples=60, deadline=None)
    @given(mixed_families())
    def test_profiles_and_predicates_match_summed_acorr(self, fam):
        for ss in fam:
            for tt in fam:
                prof = corr_sum_profile(ss, tt)
                hull = max(ss.length, tt.length) - 1
                assert list(prof.shifts()) == list(range(-hull, hull + 1))
                assert prof.values == [summed_acorr(ss, tt, tau) for tau in prof.shifts()]
        s, t = fam[0][0], fam[-1][-1]
        assert corr_profile(s, t).values == [
            acorr(s, t, tau) for tau in corr_profile(s, t).shifts()]
        report = is_ccc(fam)
        pairs = [(m, m) for m in range(len(fam))]
        pairs += [(m, mp) for m in range(len(fam)) for mp in range(m + 1, len(fam))]
        assert [(p.left, p.right) for p in report.pairs] == pairs
        for pair in report.pairs:
            assert_pair_matches(pair, fam[pair.left], fam[pair.right])
        (pair,) = is_complementary_set(fam[-1]).pairs
        assert_pair_matches(pair, fam[-1], fam[-1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(mixed_entries(), min_size=1, max_size=9),
                    min_size=1, max_size=3),
           st.integers(1, 4))
    def test_n_co_sf_matches_lattice_scan(self, rows, n):
        fam = singleton_family([Sequence(r) for r in rows])
        report = is_n_co_sf(fam, n)
        assert report.problems == [
            f"sequence {m} has length {len(r)} not divisible by {n}"
            for m, r in enumerate(rows) if len(r) % n]
        count = len(rows)
        assert [(p.left, p.right) for p in report.pairs] == [
            (m, mp) for m in range(count) for mp in range(m, count)]
        for pair in report.pairs:
            s, t = fam[pair.left], fam[pair.right]
            hull = max(s.length, t.length) - 1
            assert pair.shifts == list(range(-(hull // n) * n, hull + 1, n))
            assert_pair_matches(pair, s, t)

    @staticmethod
    def perturbations(fam):
        """Every copy of `fam` with one entry times zeta_K^e, e != 0,
        K = max(order of the family, 2)."""
        k = max(family_order(fam), 2)
        for m, ss in enumerate(fam):
            for n, seq in enumerate(ss):
                for p in range(len(seq)):
                    for e in range(1, k):
                        entries = list(seq)
                        entries[p] = entries[p] * CycloNum.root(k, e)
                        sets = list(fam)
                        members = list(ss)
                        members[n] = Sequence(entries)
                        sets[m] = SequenceSet(members)
                        yield SequenceFamily(sets)

    @pytest.mark.parametrize("build", [
        lambda: ccc_from_unitary(hadamard_matrix(2)),
        lambda: ccc_from_unitary(dft_matrix(3)),
        lambda: cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)),
    ], ids=["hadamard2", "dft3", "4x4-L16"])
    def test_every_single_entry_perturbation_of_a_ccc_rejected(self, build):
        fam = build()
        assert is_ccc(fam).ok
        for bad in self.perturbations(fam):
            assert not is_ccc(bad).ok

    @pytest.mark.parametrize("build, n", [
        (lambda: generate_cosf(hadamard_matrix(2), [[0, 1]], [hadamard_matrix(2)]), 2),
        (lambda: execute(plan(3, [27]), verify=False).family, 3),
        (lambda: execute(plan(6, [12, 18]), verify=False).family, 6),
    ], ids=["2-of-4", "3-of-27", "6-mixed"])
    def test_every_single_entry_perturbation_of_a_cosf_rejected(self, build, n):
        fam = build()
        assert is_n_co_sf(fam, n).ok
        for bad in self.perturbations(fam):
            assert not is_n_co_sf(bad, n).ok

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 2),
           st.booleans(), st.data())
    def test_rounding_bound_edge(self, caplog, order, length, members, above, data):
        # unit entries scaled by c: a set's squared coefficients sum to
        # members * length * c^2, the energy the bound is linear in
        per_c2 = members * length
        unit = SequenceSet([Sequence([CycloNum.root(order, 0)] * length)] * members)
        rows, size = corr._Kernel([unit, unit]).rows, corr._pow2(2 * length - 1)
        limit = 0.5 / corr.rounding_bound(1.0, rows, members, size)
        c = math.isqrt(int(limit / per_c2))
        while (c + 1) ** 2 * per_c2 < limit:
            c += 1
        while c * c * per_c2 >= limit:
            c -= 1
        c += above
        assert (corr.rounding_bound(c * c * per_c2, rows, members, size) < 0.5) != above
        scale = CycloNum.from_int(c)

        def seq():
            return Sequence(
                CycloNum.root(order, data.draw(st.integers(0, order - 1))) * scale
                for _ in range(length))

        ss = SequenceSet(seq() for _ in range(members))
        tt = SequenceSet(seq() for _ in range(members))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            prof = corr_sum_profile(ss, tt)
        assert prof.values == [summed_acorr(ss, tt, tau) for tau in prof.shifts()]
        records = kernel_records(caplog)
        assert len(records) == above
        if above:
            assert record_counts(records[0])[1] > 1
            assert "rounding bound" in records[0] and "headroom" in records[0]

    @pytest.mark.parametrize("step, limbs", [(0, 1), (1, 2)], ids=["one limb", "two limbs"])
    def test_mixed_radix_edge(self, caplog, step, limbs):
        # K = 6 folds to 3 exponent rows, evaluated at the roots
        # zeta_6^-1 and zeta_6^-3 of z^3 = -1 (with the conjugate of the
        # first), so L = 48 takes complex transforms of P = 128 points,
        # where Percival's bound is a theorem, and an inverse evaluation.
        # Every coefficient is the largest magnitude one limb allows (step 0)
        # or one more (step 1), each member's phases aligned so its sums peak.
        order, length, members = 6, 48, 2
        unit = SequenceSet([Sequence([CycloNum.root(order, 0)] * length)] * members)
        rows, size = corr._Kernel([unit, unit]).rows, corr._pow2(2 * length - 1)
        assert size == 128

        def bound(c):
            return corr.rounding_bound(members * length * c * c, rows, members, size)

        c = math.isqrt(int(0.5 / bound(1)))
        while bound(c + 1) < 0.5:
            c += 1
        while bound(c) >= 0.5:
            c -= 1
        scale = CycloNum.from_int(c + step)
        fam = SequenceFamily(
            SequenceSet(Sequence([CycloNum.root(order, e) * scale] * length) for e in phases)
            for phases in ([1, 2], [5, 3]))
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_ccc(fam)
        assert [record_counts(r)[1] for r in kernel_records(caplog)] == [limbs] * (limbs > 1)
        for pair in report.pairs:
            assert_pair_matches(pair, fam[pair.left], fam[pair.right])

    # at K = 4 both passes evaluate at one root of 32 frequencies, where
    # the 4 sets' spectra hold 16 members, and the member sums 10 pairs
    # (is_ccc) or 16 (the zone's rotated pass): 16 x 32 = 512 entries.
    # Caps 300 and 500 cut them into 2 chunks of 16 frequencies, cap 0
    # into 32 chunks of one
    @pytest.mark.parametrize("cap, blocks", [(0, [32, 32, 32]), (300, [2, 2, 2]),
                                             (500, [2, 2, 2])],
                             ids=["0-32", "300-2", "500-2"])
    def test_spectra_size_cap_splits_into_blocks(self, caplog, monkeypatch, cap, blocks):
        fam = cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4))
        one_block = is_ccc(fam)
        zone = zccc_zone(fam)
        monkeypatch.setattr(corr, "_SPECTRA_MAX", cap)
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            blocked = is_ccc(fam)
            assert zccc_zone(fam) == zone
        records = kernel_records(caplog)
        # is_ccc, then zccc_zone's own is_ccc and its rotated pass, each
        # recorded when it cuts its frequencies into chunks
        assert [record_counts(r) for r in records] == [(b, 1) for b in blocks]
        assert "headroom" in records[0]
        assert blocked.ok and one_block.ok
        assert [[(v.order, v.coeffs) for v in p.values] for p in blocked.pairs] == \
            [[(v.order, v.coeffs) for v in p.values] for p in one_block.pairs]
        # a family of zero energy has no finite headroom to report
        zeros = singleton_family([Sequence([CycloNum.zero(3)] * 4)] * 2)
        assert is_n_co_sf(zeros, 2).ok

    def test_member_sums_of_two_blocks_stay_under_the_cap(self, caplog, monkeypatch):
        # 16 sets of one +-1 sequence of length 8: a set's spectra hold 9
        # entries on either pass, so cap 200 holds all 16 sets' spectra
        # (144 entries) but not the member sums of their 136 pairs, 1224
        # entries, so the frequencies must still be cut: 2 a chunk would
        # make 272, so into 16 chunks of one (f = c; the passes take the
        # chunks c <= 8 of these real values, as P = 16)
        rng = random.Random(3)
        fam = singleton_family([Sequence([rng.choice([1, -1]) for _ in range(8)])
                                for _ in range(16)])

        def read(report):
            return report.ok, [(p.ok, p.violations, [(v.order, v.coeffs) for v in p.values])
                               for p in report.pairs]

        whole = read(is_n_co_sf(fam, 1))
        monkeypatch.setattr(corr, "_SPECTRA_MAX", 200)
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            blocked = read(is_n_co_sf(fam, 1))
        # the certificate pass, then the report's per-shift pass
        assert [record_counts(r)[0] for r in kernel_records(caplog)] == [16, 16]
        assert blocked == whole
        assert not whole[0]

    def test_per_shift_pass_inverts_a_slice_of_pairs_at_a_time(self, monkeypatch):
        # 40 +-1 sequences of length 256 (one row, real values): the per-
        # shift pass of their 820 pairs holds the member sums v of every
        # pair at 257 frequencies and the (pairs, 511 shifts) sums stack.
        # At a cap of 4096 entries its inverse transform, the shifts read
        # from it and their sums are taken 15 pairs at a time, so the peak
        # stays within those two stacks and 16 caps of entries (taken
        # whole, the inverse and its shifts held two more stacks)
        rng = random.Random(1)
        fam = singleton_family([Sequence([rng.choice((1, -1)) for _ in range(256)])
                                for _ in range(40)])
        kernel = corr._Kernel(list(fam))
        pairs = [(m, mp) for m in range(40) for mp in range(m, 40)]
        digits = kernel._digits()
        whole = kernel.sums(pairs, digits=digits)
        monkeypatch.setattr(corr, "_SPECTRA_MAX", 4096)
        tracemalloc.start()
        try:
            chunked = kernel.sums(pairs, digits=digits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(chunked, whole)
        assert peak < len(pairs) * (257 * 16 + 511 * 8) + 16 * 4096 * 16

    def test_blocks_keep_approx_values(self, monkeypatch):
        # at width 1 the transform is the identity and one chunk holds
        # it, whatever the cap; at width 3 cap 0 cuts 8 frequencies into 8
        # chunks, whose member sums the inverse reads back in their order
        for width in (1, 3):
            fam = SequenceFamily(
                SequenceSet([Sequence([complex(m + l + 1, n - m * l) for l in range(width)])
                             for n in range(2)]) for m in range(3))
            one_block = is_ccc(fam)
            with monkeypatch.context() as patch:
                patch.setattr(corr, "_SPECTRA_MAX", 0)
                for a, b in zip(is_ccc(fam).pairs, one_block.pairs):
                    assert a.values == pytest.approx(b.values, abs=1e-12)

    CCC_BASES = [
        lambda: ccc_from_unitary(hadamard_matrix(2)),
        lambda: ccc_from_unitary(dft_matrix(3)),
        lambda: cosf_to_ccc(execute(plan(2, [8]), verify=False).family, hadamard_matrix(2)),
    ]
    COSF_BASES = [
        (lambda: generate_cosf(hadamard_matrix(2), [[0, 1]], [hadamard_matrix(2)]), 2),
        (lambda: execute(plan(3, [9]), verify=False).family, 3),
    ]

    @staticmethod
    def scaled_with_near_miss(fam, scale, data):
        """`fam` with set m scaled by a drawn c_m, |c_m| in
        [scale / 2, scale], which keeps every zero sum zero, and a copy
        with one entry of it moved by a drawn nonzero integer, which
        must be rejected: it changes a cross sum of its set by that
        integer times an entry of another set."""
        signs = st.sampled_from([1, -1])
        factors = [data.draw(st.integers(scale // 2, scale)) * data.draw(signs) for _ in fam]
        sets = [SequenceSet(s.scale(CycloNum.from_int(c)) for s in ss)
                for ss, c in zip(fam, factors)]
        m = data.draw(st.integers(0, len(sets) - 1))
        n = data.draw(st.integers(0, len(sets[m]) - 1))
        entries = list(sets[m][n])
        p = data.draw(st.integers(0, len(entries) - 1))
        delta = data.draw(st.integers(1, scale)) * data.draw(signs)
        entries[p] = entries[p] + CycloNum.from_int(delta)
        bad = list(sets)
        bad[m] = SequenceSet(Sequence(entries) if i == n else s for i, s in enumerate(sets[m]))
        return SequenceFamily(sets), SequenceFamily(bad)

    @pytest.mark.parametrize("scale", [2, 2 ** 40, 2 ** 64, 2 ** 200],
                             ids=["2", "2^40", "2^64", "2^200"])
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([corr._SPECTRA_MAX, 0]),
           st.sampled_from([0, corr._GRAM_SETS, 10 ** 9]), st.data())
    def test_large_coefficients_match_summed_acorr(self, caplog, monkeypatch, scale, cap,
                                                   gram_sets, data):
        ccc, ccc_bad = self.scaled_with_near_miss(
            data.draw(st.sampled_from(self.CCC_BASES))(), scale, data)
        build, n = data.draw(st.sampled_from(self.COSF_BASES))
        cosf, cosf_bad = self.scaled_with_near_miss(build(), scale, data)
        # cap 0 cuts one frequency a chunk; _GRAM_SETS 0 sums members by
        # the Gram matmul, 10^9 by the einsum
        monkeypatch.setattr(corr, "_SPECTRA_MAX", cap)
        monkeypatch.setattr(corr, "_GRAM_SETS", gram_sets)
        caplog.clear()
        caplog.set_level(logging.DEBUG, logger="cocodes")
        assert is_ccc(ccc).ok and not is_ccc(ccc_bad).ok
        for fam in (ccc, ccc_bad):
            for pair in is_ccc(fam).pairs:
                assert_pair_matches(pair, fam[pair.left], fam[pair.right])
        assert zccc_zone(ccc) == zone_by_acorr(ccc)
        assert is_n_co_sf(cosf, n).ok and not is_n_co_sf(cosf_bad, n).ok
        for fam in (cosf, cosf_bad):
            for pair in is_n_co_sf(fam, n).pairs:
                assert_pair_matches(pair, fam[pair.left], fam[pair.right])
        # coefficients from 2^40 up take limbs in every call
        counts = [record_counts(r) for r in kernel_records(caplog)]
        assert counts or (scale == 2 and cap > 0)
        assert all((limbs > 1) == (scale > 2) for _, limbs in counts)

    @pytest.mark.parametrize("scale", [2, 2 ** 40, 2 ** 64, 2 ** 200],
                             ids=["2", "2^40", "2^64", "2^200"])
    def test_limb_width_is_the_widest_that_passes(self, monkeypatch, scale):
        # the scan from b = 52 down stops at the b of the exhaustive
        # search, after 53 - b bounds, and returns that b's bound
        limb_bound, calls = corr._limb_bound, []

        def record(b, *stack):
            calls.append((b, stack))
            return limb_bound(b, *stack)

        monkeypatch.setattr(corr, "_limb_bound", record)
        c = CycloNum.from_int(scale)
        kernels = [corr._Kernel([SequenceSet(s.scale(c) for s in ss) for ss in base()])
                   for base in self.CCC_BASES]
        kernels += [corr._Kernel([SequenceSet(s.scale(c) for s in ss) for ss in build()], phases=n)
                    for build, n in self.COSF_BASES]
        for kernel in kernels:
            calls.clear()
            _, b, bound, _, _ = kernel._digits()
            if scale == 2:  # one limb: no limb width is looked for
                assert (b, calls) == (0, [])
                continue
            stack = calls[0][1]
            assert b == max(x for x in range(1, 53) if limb_bound(x, *stack) < 0.5)
            assert calls == [(x, stack) for x in range(52, b - 1, -1)] + [(b, stack)]
            assert bound == limb_bound(b, *stack) < 0.5

    def test_clean_checks_build_no_scalars(self, monkeypatch):
        # verdicts and PASS reports come from the zero mask alone
        ccc = cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4))
        cosf = execute(plan(3, [9]), verify=False).family
        approx = SequenceFamily(SequenceSet(Sequence([x.numeric() for x in seq]) for seq in ss)
                                for ss in ccc)
        zone = zccc_zone(ccc)

        def refuse(*args):
            raise AssertionError("scalars built for a clean check")

        monkeypatch.setattr(corr, "_scalars", refuse)
        for report in (is_ccc(ccc), is_ccc(approx), is_n_co_sf(cosf, 3),
                       is_complementary_set(ccc[0])):
            assert report.ok
            assert report.render().splitlines()[0].endswith(": PASS")
        assert zccc_zone(ccc) == zone

    @staticmethod
    def scalars_by_sort(cols, order):
        # reference for corr._scalars: distinct rows found by sorting, one
        # CycloNum per run of equal rows, instead of by a dict
        if cols.dtype == complex:
            return cols[:, 0].tolist()
        keys = [tuple(row) + (0,) * (order - cols.shape[1]) for row in cols.tolist()]
        out = [None] * len(keys)
        prev = val = None
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            if keys[i] != prev:
                prev = keys[i]
                val = CycloNum(order, prev) if any(prev) else CycloNum.zero()
            out[i] = val
        return out

    @pytest.mark.parametrize("build", [
        lambda: cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)),
        lambda: next(TestSpectralKernel.perturbations(ccc_from_unitary(dft_matrix(3)))),
    ], ids=["4x4-L16", "dft3-near-miss"])
    def test_distinct_rows_by_dict_and_by_sort_agree(self, build, monkeypatch):
        fam = build()
        by_dict = is_ccc(fam)
        dict_values = [[(v.order, v.coeffs) for v in p.values] for p in by_dict.pairs]
        dict_text = by_dict.render()
        monkeypatch.setattr(corr, "_scalars", self.scalars_by_sort)
        by_sort = is_ccc(fam)
        assert [[(v.order, v.coeffs) for v in p.values] for p in by_sort.pairs] == dict_values
        assert by_sort.render() == dict_text
        for pair in by_sort.pairs:
            assert pair.values == [summed_acorr(fam[pair.left], fam[pair.right], tau)
                                   for tau in pair.shifts]

    def test_near_miss_renders_in_linear_time(self):
        fam = cosf_to_ccc(execute(plan(2, [2 ** 14]), verify=False).family, hadamard_matrix(2))
        entries = list(fam[0][0])
        entries[0] = -entries[0]
        sets = list(fam)
        sets[0] = SequenceSet([Sequence(entries)] + list(fam[0])[1:])
        report = is_ccc(SequenceFamily(sets))
        start = time.perf_counter()
        text = report.render()
        assert time.perf_counter() - start < 3
        violations = sum(len(p.violations) for p in report.pairs)
        assert violations > 2 ** 14
        # each violated pair shows its first shifts up to the cap, then a count
        cap = corr.RENDER_SHIFTS_PER_PAIR
        failing = [p for p in report.pairs if not p.ok]
        lines = text.splitlines()
        assert sum("tau=" in line for line in lines) == sum(
            min(len(p.violations), cap) for p in failing)
        more = [int(m.group(1)) for m in map(re.compile(r"\.\.\. and (\d+) more shifts$").search, lines) if m]
        assert more == [len(p.violations) - cap for p in failing if len(p.violations) > cap]
        assert sum(more) + sum("tau=" in line for line in lines) == violations
        assert len(lines) <= 2 + len(failing) * (cap + 2)

    @pytest.mark.parametrize("build", [
        lambda: next(TestSpectralKernel.perturbations(ccc_from_unitary(dft_matrix(3)))),
        lambda: TestSpectralKernel.near_miss(64),
    ], ids=["few-violations", "past-the-cap"])
    def test_render_shows_the_first_violations_with_their_values(self, build):
        report = is_ccc(build())
        expected = ["check ccc: FAIL"]
        for p in report.pairs:
            if p.ok:
                continue
            expected.append(f"  pair ({p.left},{p.right}) violated at shifts:")
            values = dict(zip(p.shifts, p.values))
            shown = p.violations[:corr.RENDER_SHIFTS_PER_PAIR]
            expected += [f"    tau={tau}: residual {corr._fmt_scalar(values[tau])}" for tau in shown]
            if len(p.violations) > len(shown):
                expected.append(f"    ... and {len(p.violations) - len(shown)} more shifts")
        assert report.render() == "\n".join(expected)

    def test_render_formats_each_distinct_residual_once(self, monkeypatch):
        # the near-miss's shown residuals repeat a few values: the render
        # formats each once, to the text that formatting every line gives
        report = is_ccc(self.near_miss(64))
        shown = [dict(zip(p.shifts, p.values))[tau] for p in report.pairs if not p.ok
                 for tau in p.violations[:corr.RENDER_SHIFTS_PER_PAIR]]
        per_line = [corr._fmt_scalar(v) for v in shown]
        calls = []
        fmt = corr._fmt_scalar
        monkeypatch.setattr(corr, "_fmt_scalar", lambda x: calls.append(x) or fmt(x))
        text = report.render()
        assert [line.split("residual ", 1)[1] for line in text.splitlines()
                if "residual" in line] == per_line
        assert len(calls) == len({(v.order, tuple(v.coeffs)) for v in shown}) < len(shown)

    @staticmethod
    def near_miss(length):
        fam = cosf_to_ccc(execute(plan(2, [length]), verify=False).family, hadamard_matrix(2))
        entries = list(fam[0][0])
        entries[0] = -entries[0]
        return SequenceFamily([SequenceSet([Sequence(entries), fam[0][1]]), fam[1]])

    def test_int64_sums_promoted_before_reduction(self, monkeypatch):
        # 2^28 zeta_385 times a 2x2 CCC: its int64 sums reach 2^60, and a
        # reduction modulo Phi_385 can grow them by reduction_gain(385) =
        # 11,555, so the stack must be reduced as Python ints
        c = CycloNum.from_int(2 ** 28) * CycloNum.root(385, 1)
        base = cosf_to_ccc(execute(plan(2, [4])).family, dft_matrix(2))
        fam = SequenceFamily(SequenceSet(s.scale(c) for s in ss) for ss in base)
        entries = list(fam[1][0])
        entries[2] = entries[2] + CycloNum.from_int(1)
        bad = SequenceFamily([fam[0], SequenceSet([Sequence(entries), fam[1][1]])])
        dtypes = []
        reduce_rows = cyclo.reduce_rows
        monkeypatch.setattr(cyclo, "reduce_rows",
                            lambda rows, k: dtypes.append(rows.dtype) or reduce_rows(rows, k))
        assert is_ccc(fam).ok and not is_ccc(bad).ok
        assert dtypes == [object, object]
        for f in (fam, bad):
            for pair in is_ccc(f).pairs:
                assert_pair_matches(pair, f[pair.left], f[pair.right])

    def test_spectral_path_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            assert is_ccc(ccc_from_unitary(dft_matrix(4))).ok
        assert kernel_records(caplog) == []

    def test_shift_parameter_past_the_lengths(self, caplog):
        # only shift 0 of the n-shift lattice lies inside the hull, and
        # no component past the longest length is built
        fam = singleton_family([Sequence(CycloNum.from_int(c) for c in s)
                                for s in ([1, -1, 1, 1], [1, 1], [1])])
        start = time.perf_counter()
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_n_co_sf(fam, 10 ** 9)
        assert time.perf_counter() - start < 0.5
        assert kernel_records(caplog) == []
        assert report.problems == [
            f"sequence {m} has length {ss.length} not divisible by {10 ** 9}"
            for m, ss in enumerate(fam)]
        for pair in report.pairs:
            assert pair.shifts == [0]
            assert_pair_matches(pair, fam[pair.left], fam[pair.right])
        assert [p.values for p in report.pairs] == [
            p.values for p in is_n_co_sf(fam, 4).pairs]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False,
                                                allow_infinity=False),
                             min_size=1, max_size=9), min_size=2, max_size=3),
           st.integers(1, 3))
    def test_approx_violations_stay_in_each_pair_hull(self, rows, n):
        # with tol 0 transform noise makes violations; a short pair must
        # not report any at shifts only a longer pair of the call spans
        fam = singleton_family([Sequence(r) for r in rows])
        for report in (is_n_co_sf(fam, n, tol=0.0),
                       is_ccc(SequenceFamily([SequenceSet([Sequence(r)]) for r in rows]),
                              tol=0.0)):
            for pair in report.pairs:
                assert set(pair.violations) <= set(pair.shifts)


# -- the certificate pass and the deferred report ------------------------


def per_shift(check, *args):
    """`check(*args)` with the certificate switched off: the report the
    per-shift pass decides and builds at once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corr, "certificate_bound", lambda *bound_args: math.inf)
        return check(*args)


def definitional_verdict(fam, left, right, shifts):
    """Whether summed `acorr` vanishes at every shift but an auto
    pair's zero shift."""
    return all(summed_acorr(fam[left], fam[right], tau).is_zero()
               for tau in shifts if not (left == right and tau == 0))


def perturbed(fam, data):
    """`fam` with one drawn entry times a drawn root of unity other than
    1 or plus a drawn nonzero integer; the copy may still be clean."""
    m = data.draw(st.integers(0, len(fam) - 1))
    n = data.draw(st.integers(0, len(fam[m]) - 1))
    entries = list(fam[m][n])
    p = data.draw(st.integers(0, len(entries) - 1))
    k = max(family_order(fam), 2)
    if data.draw(st.booleans()):
        entries[p] = entries[p] * CycloNum.root(k, data.draw(st.integers(1, k - 1)))
    else:
        entries[p] = entries[p] + CycloNum.from_int(data.draw(st.sampled_from([-2, -1, 1, 2])))
    sets = list(fam)
    sets[m] = SequenceSet(Sequence(entries) if i == n else s for i, s in enumerate(fam[m]))
    return SequenceFamily(sets)


CERTIFIED_CCCS = [
    lambda: ccc_from_unitary(hadamard_matrix(2)),
    lambda: ccc_from_unitary(dft_matrix(3)),
    lambda: ccc_from_unitary(dft_matrix(4)),
    lambda: cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)),
    lambda: cosf_to_ccc(execute(plan(6, [12]), verify=False).family, dft_matrix(6)),
]
CERTIFIED_COSFS = [
    (lambda: generate_cosf(hadamard_matrix(2), [[0, 1]], [hadamard_matrix(2)]), 2),
    (lambda: execute(plan(3, [9]), verify=False).family, 3),
    (lambda: execute(plan(6, [12, 18]), verify=False).family, 6),
]


class TestCertificate:
    def assert_certified(self, caplog, report, per_shift_report, fam, checks=1):
        """Every pair of `report` decided by the certificate, as the
        per-shift pass and summed `acorr` decide it."""
        assert path_records(caplog) == ["certificate"] * checks
        assert [(p.left, p.right, p.shifts) for p in report.pairs] == \
            [(p.left, p.right, p.shifts) for p in per_shift_report.pairs]
        for pair, old in zip(report.pairs, per_shift_report.pairs):
            assert pair.accepted is not None and old.accepted is None
            assert pair.accepted == old.ok == definitional_verdict(
                fam, pair.left, pair.right, pair.shifts)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mixed_families())
    def test_random_families_match_per_shift_and_acorr(self, caplog, fam):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_ccc(fam)
            (pair,) = is_complementary_set(fam[-1]).pairs
        self.assert_certified(caplog, report, per_shift(is_ccc, fam), fam, checks=2)
        assert pair.accepted == definitional_verdict(
            SequenceFamily([fam[-1]]), 0, 0, pair.shifts)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(mixed_entries(), min_size=1, max_size=9), min_size=1, max_size=3),
           st.integers(1, 4))
    def test_random_lattices_match_per_shift_and_acorr(self, caplog, rows, n):
        fam = singleton_family([Sequence(r) for r in rows])
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_n_co_sf(fam, n)
        self.assert_certified(caplog, report, per_shift(is_n_co_sf, fam, n), fam)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(CERTIFIED_CCCS), st.booleans(), st.data())
    def test_near_miss_cccs_match_per_shift_and_acorr(self, caplog, build, clean, data):
        fam = build() if clean else perturbed(build(), data)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_ccc(fam)
        self.assert_certified(caplog, report, per_shift(is_ccc, fam), fam)
        assert report.ok or not clean

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(CERTIFIED_COSFS), st.booleans(), st.data())
    def test_near_miss_cosfs_match_per_shift_and_acorr(self, caplog, base, clean, data):
        build, n = base
        fam = build() if clean else perturbed(build(), data)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_n_co_sf(fam, n)
        self.assert_certified(caplog, report, per_shift(is_n_co_sf, fam, n), fam)

    def test_sum_zero_modulo_phi6_but_not_z6_minus_1_accepted(self, caplog):
        # shift 0 of the cross sum is 1 - zeta + zeta^2, which Phi_6 =
        # z^2 - z + 1 divides and z^6 - 1 does not: the folded stack holds
        # the nonzero row (1, -1, 1), whose values at zeta_6^(+-1) are 0
        one, zeta = CycloNum.from_int(1), CycloNum.root(6, 1)
        fam = SequenceFamily([
            SequenceSet([Sequence([one]), Sequence([-zeta]), Sequence([zeta * zeta])]),
            SequenceSet([Sequence([one])] * 3)])
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_ccc(fam)
            assert report.ok
        assert path_records(caplog) == ["certificate"]
        cross = report.pairs[2]
        assert (cross.left, cross.right, cross.accepted) == (0, 1, True)
        assert cross.sums.tolist() == [[1, -1, 1]]
        assert cross.values[0].is_zero() and cross.violations == []

    @pytest.mark.parametrize("power, c", [(3, 2), (4, 3), (5, 1)])
    def test_lone_unit_times_small_integer_rejected(self, caplog, power, c):
        # u = (1 - zeta_12)^power is a unit (Phi_12(1) = 1): its
        # conjugates have |u| = (2 sin(k pi / 12))^power, far below 1/2 at
        # zeta_12^(+-1) and far above it at zeta_12^(+-5), so a pass that
        # read one conjugate pair only would accept c u
        zeta, a = CycloNum.root(12, 1), CycloNum.from_int(c)
        for _ in range(power):
            a = a * (CycloNum.from_int(1) - zeta)
        def conjugate(e):
            return abs(sum(x * cmath.exp(2j * math.pi * e * j / 12)
                           for j, x in enumerate(a.promote(12).coeffs)))

        assert conjugate(1) < 0.5 < 1 < conjugate(5)
        zero = CycloNum.zero(12)
        fam = singleton_family([Sequence([zero, a, zero]),
                                Sequence([CycloNum.from_int(1), zero, zero])])
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_ccc(fam)
            assert not report.ok
        assert path_records(caplog) == ["certificate"]
        assert [p.accepted for p in report.pairs] == [True, True, False]
        cross = report.pairs[2]
        assert cross.violations == [-1]
        assert cross.values[cross.shifts.index(-1)] == a

    def test_planner_ccc_takes_the_certificate(self, caplog):
        fam = cosf_to_ccc(execute(plan(6, [216]), verify=False).family, dft_matrix(6))
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            assert is_ccc(fam).ok
        assert path_records(caplog) == ["certificate"]
        (record,) = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("check by")]
        found = re.search(r"21 of 21 pairs accepted, 0 rejected; bound (\S+), "
                          r"headroom (\S+) of 1/2", record)
        bound, headroom = map(float, found.groups())
        assert 0 < bound < 0.5 and headroom == pytest.approx(0.5 / bound, rel=1e-2)

    def test_scaled_hadamard_family_takes_per_shift_for_its_bound(self, caplog):
        # the benchmark's fallback family: H4 scaled by 2^20, connected
        h = custom_matrix([[x.coeffs[0] * 2 ** 20 for x in row]
                           for row in hadamard_matrix(4).entries])
        fam = generate_cosf(h, [[0, 1, 2, 3]], [h])
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            report = is_n_co_sf(fam, 4)
            assert report.ok
        assert path_records(caplog) == ["per-shift: bound"]
        assert all(p.accepted is None for p in report.pairs)
        (record,) = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("check per shift")]
        assert float(re.search(r"certificate bound (\S+),", record).group(1)) >= 0.5

    def test_approx_family_takes_per_shift(self, caplog, golden_ccc_2x2):
        approx = SequenceFamily(SequenceSet(Sequence([x.numeric() for x in seq]) for seq in ss)
                                for ss in golden_ccc_2x2)
        with caplog.at_level(logging.DEBUG, logger="cocodes"):
            assert is_ccc(approx).ok
        assert path_records(caplog) == ["per-shift: approx"]

    @pytest.mark.parametrize("width", [1, 2, 3, 216, 2 ** 20])
    def test_bound_grows_with_each_size(self, width):
        size = corr._pow2(2 * width - 1)
        base = corr.certificate_bound(1.0, 1, 2, width, size)
        assert base > 0
        assert corr.certificate_bound(2.0, 1, 2, width, size) == pytest.approx(2 * base)
        assert corr.certificate_bound(1.0, 6, 2, width, size) > 6 * base
        assert corr.certificate_bound(1.0, 1, 4, width, size) > base
        assert corr.certificate_bound(1.0, 1, 2, width, 2 * size) > base
        # the per-shift pass's bound: linear in energy, growing with the
        # rows, the transform's size and the members
        base = corr.rounding_bound(1.0, 1, 2, size)
        assert base > 0
        assert corr.rounding_bound(2.0, 1, 2, size) == pytest.approx(2 * base)
        assert corr.rounding_bound(1.0, 6, 2, size) > 6 * base
        assert corr.rounding_bound(1.0, 1, 2, 2 * size) > base
        assert corr.rounding_bound(1.0, 1, 4, size) > base


def verify_workload_cases(monkeypatch):
    """(name, build, check) of every op of the verify workload (seed 1,
    full scale), clean and near-miss."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    return [(op.name, op.fresh, op.run) for op in workloads.verify(1, "full").ops]


def near(fam):
    """`fam` with the first entry of its first sequence negated."""
    entries = list(fam[0][0])
    entries[0] = -entries[0]
    return SequenceFamily([SequenceSet([Sequence(entries)] + list(fam[0])[1:])] + list(fam)[1:])


def family_cases():
    """(name, build, check) of the families these tests build, each beside
    a near-miss copy."""
    h2 = hadamard_matrix(2)
    ccc = [
        ("golden 2x2", lambda: SequenceFamily([
            SequenceSet([from_signs("+++-"), from_signs("+-++")]),
            SequenceSet([from_signs("++-+"), from_signs("+---")])])),
        ("hadamard2", lambda: ccc_from_unitary(h2)),
        ("dft3", lambda: ccc_from_unitary(dft_matrix(3))),
        ("hadamard4", lambda: ccc_from_unitary(hadamard_matrix(4))),
        ("4x4 L=16", lambda: cosf_to_ccc(execute(plan(4, [16]), verify=False).family,
                                         dft_matrix(4))),
        ("8x8 L=32", lambda: enlarge_ccc(
            cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)),
            [h2] * 4)),
        ("2x2 L=256", lambda: cosf_to_ccc(execute(plan(2, [256]), verify=False).family, h2)),
        ("2x2 scaled 2^40", lambda: SequenceFamily(
            SequenceSet(s.scale(CycloNum.from_int(2 ** 40)) for s in ss)
            for ss in ccc_from_unitary(h2))),
    ]
    cosf = [
        ("2-of-4", lambda: generate_cosf(h2, [[0, 1]], [h2]), 2),
        ("6 mixed", lambda: generate_cosf(dft_matrix(6), [[0, 1], [2, 3, 4, 5]],
                                          [h2, hadamard_matrix(4)]), 6),
        ("3-of-27", lambda: execute(plan(3, [27]), verify=False).family, 3),
        ("2^64 probe", lambda: scaled_hadamard_cosf(2 ** 32), 2),
    ]
    cases = []
    for name, build in ccc:
        cases.append((f"is_ccc {name}", build, is_ccc))
        cases.append((f"is_ccc {name} near-miss", lambda b=build: near(b()), is_ccc))
        cases.append((f"is_complementary_set {name}", build,
                      lambda fam: is_complementary_set(fam[0])))
    for name, build, n in cosf:
        cases.append((f"is_n_co_sf {name}", build, lambda fam, n=n: is_n_co_sf(fam, n)))
        cases.append((f"is_n_co_sf {name} near-miss", lambda b=build: near(b()),
                      lambda fam, n=n: is_n_co_sf(fam, n)))
    return cases


class TestDeferredReport:
    @staticmethod
    def assert_same_as_eager(monkeypatch, build, check):
        """The report of `check(build())` against the one the per-shift
        pass builds at once: reading its verdict runs no inverse
        transform when the certificate decided, and every field read
        afterwards is the eager report's."""
        inverses = []
        transforms = {name: getattr(np.fft, name) for name in ("irfft", "ifft")}
        for name, inverse in transforms.items():
            monkeypatch.setattr(np.fft, name, lambda *args, inverse=inverse, **kwargs:
                                inverses.append(1) or inverse(*args, **kwargs))
        report = check(build())
        ok = report.ok
        certified = all(p.accepted is not None for p in report.pairs)
        assert (len(inverses) == 0) == certified
        for name, inverse in transforms.items():
            monkeypatch.setattr(np.fft, name, inverse)
        eager = per_shift(check, build())
        assert ok == eager.ok
        assert report.problems == eager.problems
        for pair, old in zip(report.pairs, eager.pairs):
            assert (pair.left, pair.right, pair.ok) == (old.left, old.right, old.ok)
            assert pair.shifts == old.shifts
            assert pair.violations == old.violations
            assert pair.sums.dtype == old.sums.dtype
            assert np.array_equal(pair.sums, old.sums)
        assert len(report.pairs) == len(eager.pairs)
        assert report.render() == eager.render()
        return certified

    @pytest.mark.parametrize("case", family_cases(), ids=lambda case: case[0])
    def test_families_of_the_tests(self, monkeypatch, case):
        name, build, check = case
        certified = self.assert_same_as_eager(monkeypatch, build, check)
        assert certified == ("2^" not in name)

    def test_verify_workload_families(self, monkeypatch):
        cases = verify_workload_cases(monkeypatch)
        assert len(cases) == 24
        paths = {name: self.assert_same_as_eager(monkeypatch, build, check)
                 for name, build, check in cases}
        # the approx CCC and the 2^40 family, each clean and near-miss
        per_shift_ops = [name for name, certified in paths.items() if not certified]
        assert len(per_shift_ops) == 4
        assert all("approx" in name or "fallback" in name for name in per_shift_ops)

    def test_reading_a_rejected_pair_runs_one_pass_for_the_report(self, monkeypatch):
        bad = near(cosf_to_ccc(execute(plan(4, [16]), verify=False).family, dft_matrix(4)))
        values = [p.values for p in per_shift(is_ccc, bad).pairs]
        runs, stacks = [], []
        sums, digits = corr._Kernel.sums, corr._Kernel._digits
        monkeypatch.setattr(corr._Kernel, "sums",
                            lambda self, *a, **k: runs.append(1) or sums(self, *a, **k))
        monkeypatch.setattr(corr._Kernel, "_digits",
                            lambda self: stacks.append(1) or digits(self))
        report = is_ccc(bad)
        assert not report.ok and runs == []
        # an accepted pair's violations are known without the pass
        accepted = [p for p in report.pairs if p.accepted]
        assert accepted and all(p.violations == [] for p in accepted) and runs == []
        text = report.render()
        assert runs == [1] and "tau=" in text
        assert [p.values for p in report.pairs] == values
        # both passes read the one stack the check densified
        assert runs == [1] and stacks == [1]

    def test_render_reads_violations_from_one_mask(self):
        # 40 random +-1 sets of length 256: nearly every shift of 820 pairs
        # is violated, and the render shows 16 per pair.  Lists of every
        # violated shift would peak at about 60 MB.
        rng = random.Random(0)
        fam = singleton_family([Sequence([rng.choice((1, -1)) for _ in range(256)])
                                for _ in range(40)])
        report = is_n_co_sf(fam, 1)
        assert not report.ok
        tracemalloc.start()
        try:
            text = report.render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "more shifts" in text
        assert peak < 25 * 2 ** 20

    @pytest.mark.parametrize("seed", range(3))
    def test_violations_are_the_nonzero_shifts_of_each_hull(self, seed):
        # sets of unequal lengths at n = 3: a short pair's row of the mask
        # is cleared past its own hull, the longest pair's is not
        rng = random.Random(seed)
        fam = singleton_family([Sequence([rng.choice((1, -1, 2)) for _ in range(length)])
                                for length in (2, 7, 12, 13)])
        report = is_n_co_sf(fam, 3)
        assert not report.ok
        assert {len(pair.shifts) for pair in report.pairs} == {1, 5, 7, 9}
        for pair in report.pairs:
            assert_pair_matches(pair, fam[pair.left], fam[pair.right])
            assert all(type(tau) is int for tau in pair.violations)


# -- pinned sums stacks ---------------------------------------------------


def planned_ccc(n, length):
    return cosf_to_ccc(execute(plan(n, [length]), verify=False).family, dft_matrix(n))


def sums_digest(stack):
    """sha256 of a sums stack's dtype, shape and bytes (Python ints by
    their repr)."""
    values = repr(stack.tolist()).encode() if stack.dtype == object else stack.tobytes()
    return hashlib.sha256(f"{stack.dtype}|{stack.shape}|".encode() + values).hexdigest()


def mixed_family(kind):
    """Five single-sequence sets of orders 1, 2, 3, 4 and 6 and lengths 5,
    7, 9, 12 and 6 (exact; "Python ints": one coefficient past int64;
    approx: five random complex sequences of those lengths)."""
    rng = random.Random(7)
    sets = []
    for order, length in [(1, 5), (2, 7), (3, 9), (4, 12), (6, 6)]:
        if kind == "approx":
            entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(length)]
        else:
            entries = [CycloNum.root(order, rng.randrange(order))
                       * CycloNum.from_int(rng.choice((1, -1, 2))) for _ in range(length)]
            if kind == "Python ints" and order == 3:
                entries[4] = CycloNum.from_int(2 ** 40 + 3)
        sets.append(SequenceSet([Sequence(entries)]))
    return SequenceFamily(sets)


class TestPinnedSums:
    # Digests of the rotated sums (every set pair, as `zccc_zone` takes
    # them) of CCCs at K = 3, 4, 5, 6, 7 and 12, and of the near-miss of
    # the 12x12 L=216 CCC (one entry negated) with its report's stack,
    # taken from the kernel before it evaluated its per-shift pass at the
    # roots of z^R = +-1; the values do not depend on the layout.
    FAMILIES = {
        "3x3 L=81": lambda: planned_ccc(3, 81),
        "4x4 L=256": lambda: planned_ccc(4, 256),
        "5x5 L=125": lambda: planned_ccc(5, 125),
        "6x6 L=216": lambda: planned_ccc(6, 216),
        "7x7 L=98": lambda: planned_ccc(7, 98),
        "12x12 L=144": lambda: planned_ccc(12, 144),
        "12x12 L=216": lambda: enlarge_ccc(planned_ccc(6, 216), [hadamard_matrix(2)] * 6),
        "12x12 L=216 near-miss": lambda: near(
            enlarge_ccc(planned_ccc(6, 216), [hadamard_matrix(2)] * 6)),
    }
    ROTATED = {
        "3x3 L=81": "98ebcc517227336bbf31426504f71fc2b31d37e120d389cdaa9d32e63fc063af",
        "4x4 L=256": "6a11183bdf2e6f4260cc55f3ccd87c3be5fe655c124c5ca141bc9c96253316a0",
        "5x5 L=125": "ab86fffe9251b5854c52e7f8f56c0a0f9a810b3cfed6e3294741a5ca4cced71f",
        "6x6 L=216": "c0147f96aab9e45767c08571aa07c55fa41d6bcb7826d62de67dd9889d352de8",
        "7x7 L=98": "98b7e4115a6ec7f221a1be91fcf2c970cee6b488358384ccadecebf215d67cd0",
        "12x12 L=144": "9436f20464d3a57cfcbf202d92a1c7be89a7f42ef5a0b7630ff596af9ea4f0a8",
        "12x12 L=216": "0a241b620ba3485d558021e6f91b89f0291f10f6603e99cb960790f0f13bcd3b",
        "12x12 L=216 near-miss":
            "f6a4d888153802102c685a608994a563d808e6fab25ed61a7994da2e93345fb4",
    }
    NEAR_MISS_REPORT = "26ddd697b82e3c19fdfae0f5b18fe23347b7da41008fcbad0c5e1b380f83fcd9"
    # every pair's sums of `mixed_family` at 4 phases, which divide none
    # of the lengths but 12: each sequence is laid out at the call's
    # order 12 (1 for approx) and zero-padded to 4 * 3 entries
    MIXED = {
        "exact": "793f2414ff55bf44ef1b54a1dfd5ebc5f69a624f79e0423dd5d34f145d625526",
        "Python ints": "c2feae3d40517c0b599cc9cdd7db6dfc433a5d71bc322e91141b3f31cb96b2a4",
        "approx": "b22693aed909450f710e495efe79211b5b4e2e25b48da15e0db402e071e668d8",
    }

    @pytest.mark.parametrize("name", list(ROTATED))
    def test_rotated_sums(self, name):
        fam = self.FAMILIES[name]()
        count = fam.family_size
        pairs = [(m, mp) for m in range(count) for mp in range(count)]
        assert sums_digest(corr._Kernel(list(fam)).sums(pairs, rotate=True)) == self.ROTATED[name]

    def test_near_miss_report_sums(self):
        report = is_ccc(self.FAMILIES["12x12 L=216 near-miss"]())
        assert not report.ok
        assert sums_digest(report.pairs[0].kernel.scan()[0]) == self.NEAR_MISS_REPORT

    @pytest.mark.parametrize("kind", list(MIXED))
    def test_mixed_orders_and_lengths(self, kind):
        fam = mixed_family(kind)
        kernel = corr._Kernel(list(fam), phases=4)
        assert (kernel.order, kernel.width) == ((1 if kind == "approx" else 12), 3)
        pairs = [(m, mp) for m in range(len(fam)) for mp in range(len(fam))]
        assert sums_digest(kernel.sums(pairs)) == self.MIXED[kind]
