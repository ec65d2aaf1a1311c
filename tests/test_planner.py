"""Length planning, constructibility, and recipe execution."""

import hashlib
import json
import random
import time
from functools import lru_cache

import numpy as np
import pytest

from cocodes import (
    CycloNum,
    constructible,
    elongate_cosf,
    equal_up_to_indexing,
    execute,
    from_signs,
    generate_cosf,
    is_ccc,
    is_n_co_sf,
    plan,
    singleton_family,
)
from cocodes.cli import family_to_doc, recipe_from_doc, recipe_to_doc
from cocodes.construct import ConstructionError, group_by_length, trivial_cosf
from cocodes.cyclo import DIM_LIMIT
from cocodes.matrices import MATRIX_KINDS, MatrixSpec, dft_matrix
from cocodes.planner import (
    Post,
    Recipe,
    Round,
    RoundSplit,
    SubFamilySpec,
    UnconstructibleError,
    _round_cells,
    factor_chain,
)


def trial_division_factor(n: int, k: int):
    """What is left of k after dividing out its prime factors up to n
    (the witness that no factorization into parts <= n exists), or None
    when nothing is left.  Trial division stops at min(n, sqrt(rest)):
    past that the rest is 1 or one prime."""
    rest, p = k, 2
    while p <= n and p * p <= rest:
        while rest % p == 0:
            rest //= p
        p += 1
    return rest if rest > n else None


def oracle_constructible(n: int, length: int) -> bool:
    """Exhaustive check over every multiset of factors <= n."""
    if n < 1 or length < 1 or length % n:
        return False

    @lru_cache(maxsize=None)
    def ok(k):
        if k == 1:
            return True
        return any(k % f == 0 and ok(k // f) for f in range(2, n + 1))

    return ok(length // n)


class TestConstructible:
    def test_known_negative(self):
        assert not constructible(2, 6)

    def test_single_factor_lengths(self):
        for n in (1, 2, 3, 5, 8):
            for k in range(1, n + 1):
                assert constructible(n, n * k)

    def test_three_times_ten(self):
        # 10 = 2*5 is the only split and 5 > 3
        assert not constructible(3, 30)
        assert not oracle_constructible(3, 30)

    def test_not_divisible(self):
        assert not constructible(2, 5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_exhaustive_oracle(self, n):
        for length in range(1, 257):
            assert constructible(n, length) == oracle_constructible(n, length)

    def test_factor_chain_descending(self):
        for n in (3, 4, 6):
            for k in (1, 2, 8, 12, 24, 36):
                chain = factor_chain(n, k)
                if chain is None:
                    continue
                assert all(2 <= f <= n for f in chain)
                assert chain == sorted(chain, reverse=True)
                prod = 1
                for f in chain:
                    prod *= f
                assert prod == k


    def test_factor_chain_matches_backtracking_search(self):
        # the largest-first search with backtracking the greedy chain replaced
        def search(rest, cap):
            if rest == 1:
                return []
            for f in range(min(cap, rest), 1, -1):
                if rest % f == 0:
                    tail = search(rest // f, f)
                    if tail is not None:
                        return [f] + tail
            return None

        for n in range(1, 9):
            for k in range(1, 400):
                assert factor_chain(n, k) == search(k, n), (n, k)

    def test_greedy_chain_matches_trial_division(self):
        # the greedy chain stops on the product of k's prime factors above
        # n: what trial division leaves, both as a verdict and as the
        # factor a refusal names
        for n in range(1, 41):
            for k in range(1, 6000):
                bad = trial_division_factor(n, k)
                assert constructible(n, n * k) == (bad is None), (n, k)
                try:
                    plan(n, [n * k])
                    factor = None
                except UnconstructibleError as err:
                    factor = err.factor
                assert factor == bad, (n, k)

    def test_smooth_cofactor_decided_up_front(self):
        # 2^30 3^14 is 36-smooth but the prime 37 is not: a search over
        # factor chains backtracks through every split of the smooth part
        start = time.perf_counter()
        assert not constructible(36, 36 * 2 ** 30 * 3 ** 14 * 37)
        assert factor_chain(36, 2 ** 30 * 3 ** 14 * 37) is None
        assert time.perf_counter() - start < 1.0

    def test_shift_parameter_outside_dim_limit_refused(self):
        # trial division up to n would take minutes for n = 10^9
        start = time.perf_counter()
        for n in (0, DIM_LIMIT + 1, 10 ** 9):
            with pytest.raises(ValueError, match=str(DIM_LIMIT)):
                constructible(n, 10 ** 9 * (10 ** 18 + 3))
        assert time.perf_counter() - start < 0.5
        assert constructible(DIM_LIMIT, DIM_LIMIT * 2)


class TestPlan:
    def test_large_prime_cofactor_reported(self):
        # 10^18 + 3 is prime; trial division up to its square root would
        # take about 10^9 steps
        p = 10 ** 18 + 3
        with pytest.raises(UnconstructibleError) as err:
            plan(2, [2 * p])
        assert err.value.factor == p
        assert err.value.target == 2 * p

    def test_target_lists_refused(self):
        with pytest.raises(ValueError, match="at least one target length required"):
            plan(2, [])
        with pytest.raises(UnconstructibleError, match="must be positive, got -4") as err:
            plan(2, [-4])
        assert err.value.target == -4

    def test_blocking_factor_reported(self):
        with pytest.raises(UnconstructibleError) as err:
            plan(2, [6])
        assert err.value.factor == 3
        assert "3 > 2" in str(err.value)

    def test_power_of_two_chain(self):
        recipe = plan(2, [8])
        result = execute(recipe)
        assert 8 in result.family.length_set
        assert result.verified
        assert is_n_co_sf(result.family, 2).ok

    def test_reproduces_partition_sizes(self):
        recipe = plan(6, [12, 24])
        assert sorted(len(c) for c in recipe.cells) == [2, 4]
        assert not recipe.rounds
        fam = execute(recipe).family
        assert fam.length_set == frozenset({12, 24})

    def test_length_equal_to_n(self):
        fam = execute(plan(5, [5])).family
        assert 5 in fam.length_set
        assert is_n_co_sf(fam, 5).ok

    def test_multi_target_with_rounds(self):
        # 16 = 8*2 and 72 = 8*3*3: leading cells 2 + 3 fit into 8 and the
        # second target needs one elongation round
        recipe = plan(8, [16, 72])
        assert len(recipe.rounds) == 1
        fam = execute(recipe).family
        assert {16, 72} <= fam.length_set
        assert is_n_co_sf(fam, 8).ok

    def test_multi_target_same_leading_factor(self):
        # both chains start with 3 (24 = 8*3, 72 = 8*3*3), landing in the
        # same length group after generation
        recipe = plan(8, [24, 72])
        fam = execute(recipe).family
        assert {24, 72} <= fam.length_set
        assert is_n_co_sf(fam, 8).ok

    def test_joint_overflow_reports_subset(self):
        with pytest.raises(UnconstructibleError) as err:
            plan(6, [12, 24, 36])
        assert "subset" in str(err.value)

    def test_family_size_stays_optimal(self):
        for n, targets in ((3, [9]), (4, [8]), (5, [50]), (6, [12, 24])):
            fam = execute(plan(n, targets)).family
            assert fam.family_size == n

    def test_shift_parameter_above_cap_refused_up_front(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(DIM_LIMIT)):
            plan(10 ** 6, [10 ** 6])
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("call", [
        lambda: plan(4, [64.5]), lambda: plan(4, [64.0]), lambda: plan(4, ["64"]),
        lambda: plan(True, [5]), lambda: plan(4, [True]), lambda: plan(4.0, [64]),
        lambda: constructible(4, 64.0), lambda: constructible(True, 2),
        lambda: constructible("4", 64),
    ], ids=["float-target", "integral-float-target", "str-target", "bool-n", "bool-target",
            "float-n", "constructible-float-length", "constructible-bool-n",
            "constructible-str-n"])
    def test_non_integers_refused(self, call):
        # read through operator.index: no float, string or bool is an integer
        with pytest.raises(TypeError):
            call()

    def test_numpy_integers_read_as_ints(self):
        recipe = plan(np.int64(4), [np.int64(64)])
        assert type(recipe.n) is int and type(recipe.base_matrix.dim) is int
        assert json.dumps(recipe_to_doc(recipe)) == json.dumps(recipe_to_doc(plan(4, [64])))
        assert constructible(np.int32(4), np.int64(64)) is True


def pinned_sweep():
    """(n, targets) cases: every single target up to 40 n for n <= 12,
    then seeded multi-target sets like TestMultiTargetStress's, and sets
    whose chains of small equal factors share rounds, groups and cells."""
    for n in range(1, 13):
        for length in range(1, 40 * n + 1):
            yield n, [length]
    rng = random.Random(31415)
    for _ in range(3000):
        n = rng.randint(2, 18)
        targets = set()
        for _ in range(rng.randint(1, 3)):
            k = 1
            top = rng.choice([n, min(n, 4)])
            for _ in range(rng.randint(0, 4)):
                k *= rng.randint(1, top)
            targets.add(n * k)
        yield n, sorted(targets)
    for _ in range(1500):
        n = rng.randint(4, 18)
        primes = [p for p in (3, 5, 7, 11, 13, 17) if p * p > n and p <= n]
        targets = set()
        for _ in range(rng.choice([2, 2, 3])):
            k = 1
            for _ in range(rng.randint(2, 4)):
                k *= rng.choice(primes[:2])
            targets.add(n * k)
        yield n, sorted(targets)


class TestPinnedOutput:
    # sha256 of the sweep's recipes and refusals as the planner produced
    # them before it shared the executor's round layout; any change to
    # cells, groups, round order or refusal messages shows here
    DIGEST = "5180f7eb5d8b9cdcdab2208e1a1230e5f85afcdba5a994943c20928beaa66d74"

    def test_recipes_and_refusals_unchanged(self):
        h = hashlib.sha256()
        planned = 0
        for n, targets in pinned_sweep():
            try:
                out = recipe_to_doc(plan(n, targets))
                planned += 1
            except (UnconstructibleError, ConstructionError) as e:
                out = [type(e).__name__, str(e), getattr(e, "target", None),
                       getattr(e, "factor", None)]
            h.update(json.dumps([n, targets, out], sort_keys=True).encode())
        assert planned == 2389
        assert h.hexdigest() == self.DIGEST


# the benchmark's construct recipes: one (n, targets) per line of a size class
CONSTRUCT_RECIPES = [
    (2, [4096]), (3, [972]), (3, [1152]), (3, [2916]), (3, [3456]), (4, [1024]),
    (4, [1152]), (5, [720]), (5, [800]), (5, [1125]), (5, [1200]), (5, [2250]),
    (6, [576]), (6, [1944]), (7, [63, 189]), (7, [168]), (7, [560]), (7, [224, 567]),
    (7, [875]), (7, [1029]), (7, [567, 896]), (7, [56, 1701]), (7, [63, 1701]),
    (8, [800]), (8, [864]), (8, [1000]), (8, [1024]),
]


def custom_recipes():
    """(name, recipe) cases past the planner's factory matrices: a
    multi-term cell matrix (two-layer products carried between rounds),
    zero columns, an inline family and a nested recipe as subs, approx
    entries, and Python-int coefficients."""
    # m m^H = 3 I with entries 1 + zeta_4 and 1 + zeta_4^3
    m = MatrixSpec("custom", 2, entries=[[CycloNum(4, [1, 1, 0, 0]), 1],
                                         [-1, CycloNum(4, [1, 0, 0, 1])]])
    h2 = MatrixSpec("hadamard", 2)

    def two_rounds(cell, sub, **post):
        """n = 2 from H2 with `cell` as the cell matrix and two rounds
        connecting `sub` onto both sequences."""
        rnd = Round(splits=[RoundSplit(group=0, cells=[[0, 1]], subs=[sub])])
        return Recipe(n=2, base_matrix=h2, cells=[[0, 1]], cell_matrices=[cell],
                      rounds=[rnd, rnd], post=Post(**post) if post else None)

    yield "multi-term", two_rounds(m, SubFamilySpec(rows=m), ccc=m, enlarge=[m, h2])
    identity = MatrixSpec("identity", 2)
    yield "identity", two_rounds(identity, SubFamilySpec(rows=identity))
    inline = singleton_family([from_signs("++"), from_signs("+-")])
    yield "inline", two_rounds(h2, SubFamilySpec(family=inline))
    yield "nested", two_rounds(h2, SubFamilySpec(recipe=plan(2, [4])))
    mixed = plan(6, [72])
    mixed.rounds[0].splits[0].subs[0] = SubFamilySpec(rows=m)
    yield "mixed-orders", mixed
    approx = MatrixSpec("custom", 2, entries=[[1.0, 1.0], [1.0, -1.0]])
    one_j = MatrixSpec("custom", 1, entries=[[1j]])
    yield "approx", Recipe(
        n=2, base_matrix=approx, cells=[[0, 1]], cell_matrices=[approx],
        rounds=[Round(splits=[RoundSplit(group=0, cells=[[1]], subs=[SubFamilySpec(rows=one_j)])]),
                Round(splits=[RoundSplit(group=0, cells=[[0, 1]], subs=[SubFamilySpec(rows=approx)])])],
        post=Post(ccc=approx))
    big = MatrixSpec("custom", 2, entries=[[2 ** 40, 2 ** 40], [2 ** 40, -2 ** 40]])
    yield "2^40", two_rounds(big, SubFamilySpec(rows=big), ccc=h2)


def pinned_executions():
    """(key, recipe) of every execution the pinned digest covers."""
    for n, targets in CONSTRUCT_RECIPES:
        yield (n, targets), plan(n, targets)
    for n in range(1, 9):
        for length in range(1, 40 * n + 1):
            if constructible(n, length):
                yield (n, [length]), plan(n, [length])
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(2, 9)
        targets = set()
        for _ in range(rng.randint(1, 3)):
            k = 1
            for _ in range(rng.randint(0, 3)):
                k *= rng.randint(1, n)
            targets.add(n * k)
        try:
            yield (n, sorted(targets)), plan(n, targets)
        except UnconstructibleError:
            continue
    yield from custom_recipes()


class TestPinnedExecution:
    # sha256 of every executed sequence's order, dtype, shape and values
    # (bytes; Python ints by their repr) and of each verified run's log,
    # as `execute` produced them when every round densified its outputs
    DIGEST = "63c042547facbe1c6dccd768098e3aa4df93f2f6ebf0f931775837b19a70e723"

    def test_sequences_and_logs_unchanged(self):
        # once with the factories' caches cleared, once with them warm
        for build in MATRIX_KINDS.values():
            build.cache_clear()
        for _ in ("cold", "warm"):
            h = hashlib.sha256()
            runs = 0
            for key, recipe in pinned_executions():
                h.update(repr(key).encode())
                for ss in execute(recipe, verify=False).family:
                    for s in ss:
                        a = s.array
                        values = repr(a.tolist()).encode() if a.dtype == object else a.tobytes()
                        h.update(f"{s.order} {a.dtype} {a.shape}".encode() + values)
                h.update(execute(recipe, verify=True).render_log().encode())
                runs += 1
            assert runs == 314
            assert h.hexdigest() == self.DIGEST


class TestMultiTargetStress:
    def test_random_target_sets(self):
        # exercises the round bookkeeping: whenever a plan is accepted,
        # executing it must yield every requested length
        import random
        rng = random.Random(2718)
        planned = 0
        for _ in range(300):
            n = rng.randint(2, 9)
            targets = set()
            for _ in range(rng.randint(1, 3)):
                k = 1
                for _ in range(rng.randint(0, 3)):
                    k *= rng.randint(1, n)
                targets.add(n * k)
            try:
                recipe = plan(n, targets)
            except UnconstructibleError:
                continue
            planned += 1
            fam = execute(recipe, verify=False).family
            assert targets <= fam.length_set, (n, targets)
            if max(targets) <= 64:
                assert is_n_co_sf(fam, n).ok, (n, targets)
        assert planned >= 80  # the sweep must not be vacuous

    def test_colliding_partial_lengths(self):
        # 18*63 = 18*9*7 and 18*81 = 18*9*9 put both targets into one
        # length group after generation; cells must still land on the
        # right members
        recipe = plan(18, [1134, 1458])
        fam = execute(recipe, verify=False).family
        assert {1134, 1458} <= fam.length_set


class TestExecute:
    def test_log_records_stages(self):
        result = execute(plan(2, [16]))
        stages = [r.stage for r in result.log]
        assert stages[0] == "generate"
        assert any(s.startswith("elongate") for s in stages)
        assert all(r.ok for r in result.log)
        text = result.render_log()
        assert "PASS" in text and "cosf:2" in text

    def test_post_ccc_stage(self):
        recipe = plan(6, [12, 24])
        recipe.post = Post(ccc=MatrixSpec("dft", 6))
        result = execute(recipe)
        assert result.claimed_kind == "ccc"
        assert is_ccc(result.family).ok
        assert result.family.length_set == frozenset({12, 24})

    def test_post_enlarge_stage(self):
        recipe = plan(2, [4])
        recipe.post = Post(ccc=MatrixSpec("hadamard", 2),
                           enlarge=[MatrixSpec("identity", 2),
                                    MatrixSpec("hadamard", 2)])
        result = execute(recipe)
        fam = result.family
        assert fam.family_size == fam.set_size == 4
        assert is_ccc(fam).ok

    def test_base_only_recipe(self):
        recipe = plan(3, [9])
        recipe.rounds = []
        result = execute(recipe)
        assert result.claimed_kind == "cosf:3"

    def test_roundtrip_serialization(self):
        for n, targets in ((2, [16]), (6, [12, 24]), (5, [50])):
            recipe = plan(n, targets)
            recipe.post = Post(ccc=MatrixSpec("dft", n))
            doc = recipe_to_doc(recipe)
            rebuilt = recipe_from_doc(doc)
            fam1 = execute(recipe, verify=False).family
            fam2 = execute(rebuilt, verify=False).family
            assert equal_up_to_indexing(fam1, fam2)

    @pytest.mark.parametrize("splits", [
        [RoundSplit(group=1, cells=[[0, 1]],
                    subs=[SubFamilySpec(rows=MatrixSpec("hadamard", 2))])],
        [RoundSplit(group=0, cells=[[0], [1]],
                    subs=[SubFamilySpec(rows=MatrixSpec("identity", 1))])],
        # one group in two splits: the second must not drop the first
        [RoundSplit(group=0, cells=[[0]], subs=[SubFamilySpec(rows=MatrixSpec("identity", 1))]),
         RoundSplit(group=0, cells=[[1]], subs=[SubFamilySpec(rows=MatrixSpec("identity", 1))])],
    ], ids=["unknown-group", "cells-vs-subs", "group-twice"])
    def test_bad_round_raises_construction_error(self, splits):
        recipe = plan(2, [4])
        recipe.rounds = [Round(splits=splits)]
        with pytest.raises(ConstructionError, match="group"):
            execute(recipe)

    def test_verify_flag_skips_checks(self):
        result = execute(plan(2, [8]), verify=False)
        assert all(r.ok is None for r in result.log)


def checked_execute(recipe: Recipe):
    """Family of a planned recipe built the checked way: every round
    connects the rows of each matrix as a family and the implicit
    singletons as `trivial_cosf`, so `elongate_cosf` runs its full
    sub-family check on every cell."""
    fam = generate_cosf(recipe.base_matrix.build(), recipe.cells,
                        [spec.build() for spec in recipe.cell_matrices])
    for rnd in recipe.rounds:
        groups = group_by_length([ss.length for ss in fam])
        part2, subs = {}, {}
        for g, cells in enumerate(_round_cells(groups, rnd)):
            part2[g] = [cell for cell, _ in cells]
            for p2, (_, spec) in enumerate(cells):
                subs[(g, p2)] = (trivial_cosf(fam.mode) if spec is None
                                 else spec.rows.build().rows_family())
        fam = elongate_cosf(fam, part2, subs)
    return fam


class TestTrustedSubFamilies:
    """Matrix rows and implicit singleton cells are connected unchecked;
    inline families and nested recipes are still checked."""

    H2 = [[1.0, 1.0], [1.0, -1.0]]

    @staticmethod
    def co_recipe(sub: SubFamilySpec) -> Recipe:
        """n = 2 from H2 with one round connecting `sub` onto both
        sequences."""
        return Recipe(n=2, base_matrix=MatrixSpec("hadamard", 2), cells=[[0, 1]],
                      cell_matrices=[MatrixSpec("hadamard", 2)],
                      rounds=[Round(splits=[RoundSplit(group=0, cells=[[0, 1]],
                                                       subs=[sub])])])

    def test_trusted_path_equals_checked_path(self, monkeypatch):
        import cocodes.construct as construct
        cases = [(n, [length]) for n in range(1, 9)
                 for length in range(n, 32 * n + 1, n) if constructible(n, length)]
        cases += [(7, [56, 1701]), (8, [16, 96]), (4, [4, 216]), (5, [10, 270]),
                  (6, [54, 162]), (7, [14, 448])]
        calls = []
        real = construct.is_n_co_sf
        monkeypatch.setattr(construct, "is_n_co_sf",
                            lambda *a: calls.append(a) or real(*a))
        for n, targets in cases:
            recipe = plan(n, targets)
            before = len(calls)
            trusted = execute(recipe, verify=False).family
            assert len(calls) == before, (n, targets)
            want = checked_execute(recipe)
            assert family_to_doc(trusted) == family_to_doc(want), (n, targets)
        assert calls  # the checked path did run its checks

    def test_approx_recipe_values_unchanged(self):
        h2 = MatrixSpec("custom", 2, entries=self.H2)
        one_j = MatrixSpec("custom", 1, entries=[[1j]])
        recipe = Recipe(
            n=2, base_matrix=h2, cells=[[0, 1]], cell_matrices=[h2],
            rounds=[Round(splits=[RoundSplit(group=0, cells=[[1]],
                                             subs=[SubFamilySpec(rows=one_j)])]),
                    Round(splits=[RoundSplit(group=0, cells=[[0, 1]],
                                             subs=[SubFamilySpec(rows=h2)])])])
        result = execute(recipe)
        assert result.verified and result.family.mode == "approx"
        got = [ss[0].array.tolist() for ss in result.family]
        assert got == [[[1j, 1j, -1j, 1j, 1, 1, 1, -1]],
                       [[1j, 1j, -1j, 1j, -1, -1, -1, 1]]]

    def test_inline_family_not_cross_orthogonal_refused(self):
        bad = singleton_family([from_signs("++"), from_signs("++")])
        with pytest.raises(ConstructionError, match=r"sub-family at \(0, 0\)"):
            execute(self.co_recipe(SubFamilySpec(family=bad)), verify=False)

    def test_nested_recipe_of_wrong_size_refused(self):
        nested = plan(4, [4])
        with pytest.raises(ConstructionError, match="has size 4, needs 2"):
            execute(self.co_recipe(SubFamilySpec(recipe=nested)), verify=False)

    def test_matrix_of_wrong_size_refused(self):
        with pytest.raises(ConstructionError, match="has size 4, needs 2"):
            execute(self.co_recipe(SubFamilySpec(rows=MatrixSpec("hadamard", 4))),
                    verify=False)

    def test_resolve_returns_the_matrix_of_a_rows_spec(self):
        u = SubFamilySpec(rows=MatrixSpec("dft", 3)).resolve()
        assert u.dim == 3 and u.rows() == dft_matrix(3).rows()


class TestSoundnessSweep:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_plan_iff_constructible_small(self, n):
        # the exhaustive desk-scale sweep lives in the acceptance suite;
        # here a spot check across the first few dozen lengths
        for length in range(1, 61):
            should = oracle_constructible(n, length)
            if should:
                fam = execute(plan(n, [length]), verify=False).family
                assert length in fam.length_set
                assert is_n_co_sf(fam, n).ok
            else:
                with pytest.raises(UnconstructibleError):
                    plan(n, [length])
