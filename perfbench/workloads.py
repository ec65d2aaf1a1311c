"""The benchmark's workloads: construct, verify and pipeline.

A workload is built from a seed into one pass: a list of ops that a
single client runs in a closed loop, each op starting when the previous
one has finished.  The seed picks targets, perturbed entries and roots
of unity inside fixed size classes, so the cost of a pass does not
swing with the seed.  Every op knows its expected outcome and checks
the program's output against it.

All calls into the package go through module attributes (`cocodes.x`,
`cli.main`), so the wrappers that the traced run installs see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Optional

import cocodes
import cocodes.cli as cli

from expected import CONSTRUCT_CLASSES, EXPECTED_FAMILIES, PIPELINE_ZONE


@dataclass
class Op:
    """One timed call.

    `fresh` (untimed) builds the op's input anew; `run` (timed) gets it
    and returns the output; `check` returns None when the output is
    right and a reason otherwise.  `entries` is the sum of M*N*L over
    the families the op produces or checks.
    """

    name: str
    entries: int
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    fresh: Optional[Callable[[], Any]] = None


@dataclass
class Workload:
    ops: list
    close: Callable[[], None] = lambda: None


# -- output checks ----------------------------------------------------------


def family_order(fam) -> int:
    k = 1
    for ss in fam:
        for s in ss:
            for x in s:
                k = math.lcm(k, x.order)
    return k


def family_digest(fam) -> str:
    """Digest of the values of an exact family: every entry reduced
    modulo Phi_K at the family's order K, so two representations of
    the same values give the same digest."""
    order = family_order(fam)
    memo = {}
    h = hashlib.sha256()
    for ss in fam:
        h.update(b"[")
        for s in ss:
            h.update(b"(")
            for x in s:
                key = (x.order, x.coeffs)
                val = memo.get(key)
                if val is None:
                    val = memo[key] = repr(x.promote(order).reduced()).encode()
                h.update(val)
            h.update(b")")
        h.update(b"]")
    return h.hexdigest()[:16]


def family_shape(fam) -> list:
    return [fam.family_size, fam.set_size, sorted(ss.length for ss in fam)]


def entries_of(fam) -> int:
    return sum(ss.length * len(ss) for ss in fam)


def doc_family(doc):
    """Exact family of a family document, read with the package's
    scalar type only, so checking a CLI output does not run the CLI's
    own reader."""
    return cocodes.SequenceFamily(
        cocodes.SequenceSet(
            cocodes.Sequence(cocodes.CycloNum(x["order"], x["coeffs"]) for x in seq)
            for seq in ss)
        for ss in doc["sets"])


def expect_family(shape, digest):
    def check(fam):
        got = family_shape(fam)
        if got != shape:
            return f"shape {got}, expected {shape}"
        got = family_digest(fam)
        if got != digest:
            return f"digest {got}, expected {digest}"
        return None
    return check


def expect_verdict(ok: bool):
    def check(report):
        if report.ok != ok:
            return f"verdict {report.ok}, expected {ok}"
        return None
    return check


# -- family transforms the seed applies --------------------------------------


def rows_of(fam) -> list:
    """Plain nested lists of entries; rebuilt into fresh objects per op."""
    return [[list(s) for s in ss] for ss in fam]


def build(rows):
    return cocodes.SequenceFamily(
        cocodes.SequenceSet(cocodes.Sequence(s) for s in ss) for ss in rows)


def unit(order: int, e: int, approx: bool):
    """zeta_K^e for K = max(order, 2); +-1 stay integers so that a
    family of order 1 or 2 keeps its order."""
    order = max(order, 2)
    if approx:
        return complex(cocodes.CycloNum.root(order, e).numeric())
    if order == 2:
        return cocodes.CycloNum.from_int(-1 if e % 2 else 1)
    return cocodes.CycloNum.root(order, e)


def reindex(rows, rng: random.Random, order: int, approx: bool = False):
    """Same family up to indexing and unit factors: set order and
    (joint) column order permuted, and column n of every set multiplied
    by one root of unity of the family's own order (every sequence by
    its own root when the sets hold one sequence).  This keeps a CCC a
    CCC and a cross-orthogonal family cross-orthogonal, and does not
    change what a check costs."""
    sets = list(range(len(rows)))
    cols = list(range(len(rows[0])))
    rng.shuffle(sets)
    rng.shuffle(cols)
    k = max(order, 2)
    if len(cols) == 1:
        factors = [[unit(order, rng.randrange(k), approx)] for _ in sets]
    else:
        shared = [unit(order, rng.randrange(k), approx) for _ in cols]
        factors = [shared for _ in sets]
    return [[[factors[i][j] * x for x in rows[m][c]] for j, c in enumerate(cols)]
            for i, m in enumerate(sets)]


def near_miss(rows, rng: random.Random):
    """Copy with one entry, which the seed picks, multiplied by -1.

    -1 is the root of unity other than 1 that keeps every coefficient
    in its place, so the copy costs what the clean family costs to
    check.  The entry sits at p < L/4 in one of the longest sequences.
    With every entry nonzero, the auto-correlation of that sequence at
    any shift in (p, L-1-p] changes by exactly one nonzero product, and
    that interval holds a nonzero multiple of the shift parameter
    whenever L exceeds twice it, so the copy must be rejected."""
    longest = max(len(s) for ss in rows for s in ss)
    m, n = rng.choice([(m, n) for m, ss in enumerate(rows)
                       for n, s in enumerate(ss) if len(s) == longest])
    seq = list(rows[m][n])
    p = rng.randrange(len(seq) // 4)
    seq[p] = -seq[p]
    out = [list(ss) for ss in rows]
    out[m][n] = seq
    return out


def numeric_rows(rows):
    return [[[complex(x.numeric()) for x in s] for s in ss] for ss in rows]


def scaled_hadamard(dim: int, scale: int):
    h = cocodes.hadamard_matrix(dim)
    return cocodes.custom_matrix(
        [[x.coeffs[0] * scale for x in row] for row in h.entries])


# -- construct ---------------------------------------------------------------


def _closed_form(n: int, length: int) -> bool:
    """Reference rule: n | length and every prime factor of length/n
    is at most n."""
    if length % n:
        return False
    k = length // n
    for p in range(2, n + 1):
        while k % p == 0:
            k //= p
    return k == 1


SMALL_PRIMES_ABOVE_30 = [31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def construct(seed: int, scale: str) -> Workload:
    """`execute(plan(N, targets), verify=False)` over one target set
    per size class, plus a constructible() and a plan() sweep whose
    unconstructible queries include a large smooth cofactor."""
    rng = random.Random(seed)
    ops = []
    classes = CONSTRUCT_CLASSES[scale]
    for cls in classes:
        n, targets = rng.choice(cls)
        shape, digest = EXPECTED_FAMILIES[f"{n}:{targets}"]
        ops.append(Op(
            name=f"execute N={n} {targets}",
            entries=sum(shape[1] * length for length in shape[2]),
            run=lambda _, n=n, t=targets: cocodes.execute(
                cocodes.plan(n, t), verify=False).family,
            check=expect_family(shape, digest)))

    # The smooth cofactor 2^a 3^b makes factor_chain backtrack; the
    # prime p > 30 the seed picks leaves that cost unchanged.
    a, b = (16, 8) if scale == "full" else (6, 3)
    p = rng.choice(SMALL_PRIMES_ABOVE_30)
    smooth = 30 * 2 ** a * 3 ** b * p
    queries = [(30, smooth)]
    for n in range(2, 9):
        for _ in range(8):
            queries.append((n, n * rng.randrange(1, 2000)))
    rng.shuffle(queries)
    verdicts = [_closed_form(n, length) for n, length in queries]
    ops.append(Op(
        name="constructible sweep", entries=0,
        run=lambda _: [cocodes.constructible(n, length) for n, length in queries],
        check=lambda got: None if got == verdicts else
        f"verdicts differ at {[q for q, g, v in zip(queries, got, verdicts) if g != v]}"))

    plan_queries = [(30, smooth)] + [(n, length) for n, length in queries[:24]]

    def plan_outcome(n, length):
        try:
            cocodes.plan(n, [length])
        except cocodes.UnconstructibleError:
            return False
        return True

    plan_expect = [_closed_form(n, length) for n, length in plan_queries]
    ops.append(Op(
        name="plan sweep", entries=0,
        run=lambda _: [plan_outcome(n, length) for n, length in plan_queries],
        check=lambda got: None if got == plan_expect else
        f"plan outcomes {got}, expected {plan_expect}"))
    rng.shuffle(ops)
    return Workload(ops)


# -- verify --------------------------------------------------------------------


# (N, target) of the cross-orthogonal families checked.  Sizes are chosen
# so that on the seed code these checks cost about the same (20-40 ms)
# and hold the middle of the pass, where op_p50_ms then reads one
# level rather than the edge between two.
VERIFY_COSF = {
    "full": [(2, 1024), (3, 486), (4, 256), (5, 250), (7, 98), (8, 128)],
    "tiny": [(2, 16), (3, 18)],
}


def verify(seed: int, scale: str) -> Workload:
    """The defining predicates on prebuilt families: the 6x6 CCC with
    L=216 and its 12x12 enlargement (also L=216), cross-orthogonal
    families of several N, complementary sets, an approx-mode CCC and
    a family in the int64-fallback window; each clean family beside a
    near-miss copy that must be rejected."""
    rng = random.Random(seed)
    full = scale == "full"
    cases = []  # (name, rows, kind, expect ok)

    def add(name, rows, kind):
        cases.append((name, rows, kind, True))
        cases.append((f"{name} near-miss", near_miss(rows, rng), kind, False))

    n6, l6 = (6, 216) if full else (2, 8)
    cosf6 = cocodes.execute(cocodes.plan(n6, [l6]), verify=False).family
    ccc6 = cocodes.cosf_to_ccc(cosf6, cocodes.dft_matrix(n6))
    ccc6_rows = reindex(rows_of(ccc6), rng, family_order(ccc6))
    add(f"is_ccc {n6}x{n6} L={l6}", ccc6_rows, "ccc")
    ccc12 = cocodes.enlarge_ccc(build(ccc6_rows),
                                [cocodes.hadamard_matrix(2)] * n6)
    ccc12_rows = rows_of(ccc12)
    add(f"is_ccc {2 * n6}x{2 * n6} L={l6}", ccc12_rows, "ccc")

    # complementary sets: one set of each CCC
    for label, rows in ((f"{n6}x{n6}", ccc6_rows), (f"{2 * n6}x{2 * n6}", ccc12_rows)):
        add(f"is_complementary_set {label}", [rows[rng.randrange(len(rows))]], "set")

    for n, length in VERIFY_COSF[scale]:
        fam = cocodes.execute(cocodes.plan(n, [length]), verify=False).family
        order = family_order(fam)
        add(f"is_n_co_sf N={n} L={length}", reindex(rows_of(fam), rng, order),
            f"cosf:{n}")

    n4, l4 = (4, 32) if full else (2, 8)
    exact4 = cocodes.cosf_to_ccc(
        cocodes.execute(cocodes.plan(n4, [l4]), verify=False).family,
        cocodes.dft_matrix(n4))
    add(f"is_ccc approx {n4}x{n4} L={sorted(exact4.length_set)}",
        reindex(numeric_rows(rows_of(exact4)), rng, family_order(exact4), approx=True),
        "ccc")

    # Entries of 2^40 fit int64, but the product bound of corr_profile
    # does not, so the check is routed to the acorr reference path.
    h = scaled_hadamard(4, 2 ** 20)
    fallback = cocodes.generate_cosf(h, [[0, 1, 2, 3]], [h])
    add("is_n_co_sf fallback N=4 L=16", reindex(rows_of(fallback), rng, 1), "cosf:4")

    ops = [_check_op(name, rows, kind, ok) for name, rows, kind, ok in cases]
    rng.shuffle(ops)
    return Workload(ops)


def _check_op(name, rows, kind, ok) -> Op:
    # the predicates are looked up at call time, where the traced run
    # has wrapped them
    if kind == "ccc":
        def call(fam):
            return cocodes.is_ccc(fam)
    elif kind == "set":
        def call(fam):
            return cocodes.is_complementary_set(fam[0])
    else:
        n = int(kind.split(":")[1])

        def call(fam):
            return cocodes.is_n_co_sf(fam, n)
    entries = sum(len(s) for ss in rows for s in ss)
    # Every op checks freshly built Sequence objects, so the layer arrays
    # a Sequence caches do not carry over between passes: a CLI user
    # pays for them on every run.
    return Op(name=name, entries=entries, run=call,
              check=expect_verdict(ok), fresh=lambda: build(rows))


def overflow_probe() -> dict:
    """Known defect: a cross-orthogonal family whose coefficients reach
    2^64 (a Hadamard matrix scaled by 2^32, after connection).  The
    expected verdict is "verified"; on the seed code the integer fast
    path raises OverflowError before its int64 bound check can route
    the family to acorr."""
    h = scaled_hadamard(2, 2 ** 32)
    fam = build(rows_of(cocodes.generate_cosf(h, [[0, 1]], [h])))
    try:
        ok = cocodes.is_n_co_sf(fam, 2).ok
    except Exception as e:  # the defect this probe watches
        return {"op": "is_n_co_sf N=2 L=4 coefficients 2^64", "failed": True,
                "error": f"{type(e).__name__}: {e}"}
    return {"op": "is_n_co_sf N=2 L=4 coefficients 2^64", "failed": not ok,
            "error": None if ok else "verdict False, expected True"}


# -- pipeline ---------------------------------------------------------------


MALFORMED = {
    "truncated": lambda text: text[: len(text) // 2],
    "bad-shorthand": lambda text: json.dumps({"kind": "ccc", "sets": [[["+", "q"]]]}),
    "no-sets": lambda text: json.dumps({"kind": "ccc", "mode": "exact"}),
    "bad-mode": lambda text: text.replace('"mode": "exact"', '"mode": "fuzzy"', 1),
    "ragged-set": lambda text: json.dumps({"kind": "ccc", "sets": [[["+", "+"], ["+"]]]}),
}


def run_cli(argv) -> tuple:
    """`cocodes <argv>` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def pipeline(seed: int, scale: str, workdir: str) -> Workload:
    """The user's CLI chain over files: plan -> gen -> verify cosf:N ->
    ccc --canonical -> verify ccc -> enlarge -> verify ccc -> zone, and
    one error path per exit code (2 unconstructible plan, 1 near-miss
    verify, 3 malformed document)."""
    rng = random.Random(seed)
    n, length = (4, 64) if scale == "full" else (2, 8)
    ccc_matrix = rng.choice([f"dft:{n}", f"hadamard:{n}"])
    enlarge = [rng.choice(["hadamard:2", "dft:2"]) for _ in range(n)]
    bad_target = n * 2 ** rng.randrange(2, 6) * rng.choice([5, 7, 11, 13, 17, 19])
    malformed = rng.choice(sorted(MALFORMED))

    # Expected outputs, built through the API: the chain must write
    # exactly these values.
    recipe_doc = cli.recipe_to_doc(cocodes.plan(n, [length]))
    gen_fam = cocodes.execute(cocodes.plan(n, [length]), verify=False).family
    ccc_fam = cocodes.canonical_form(cocodes.cosf_to_ccc(
        gen_fam, cli.parse_matrix_shorthand(ccc_matrix).build()))
    big_fam = cocodes.enlarge_ccc(
        ccc_fam, [cli.parse_matrix_shorthand(m).build() for m in enlarge])

    os.makedirs(workdir, exist_ok=True)
    path = {k: os.path.join(workdir, f"{k}.json")
            for k in ("recipe", "fam", "ccc", "big", "refused", "near", "bad")}
    near = build(near_miss(rows_of(ccc_fam), rng))
    near_text = json.dumps(cli.family_to_doc(near, kind="ccc"), indent=1)
    with open(path["near"], "w", encoding="utf-8") as fh:
        fh.write(near_text)
    with open(path["bad"], "w", encoding="utf-8") as fh:
        fh.write(MALFORMED[malformed](near_text))

    def clear_outputs():
        for k in ("recipe", "fam", "ccc", "big", "refused"):
            if os.path.exists(path[k]):
                os.remove(path[k])

    def expect(code, test=None):
        def check(result):
            got, out, err = result
            if got != code:
                return f"exit {got}, expected {code}: {err.strip()[-200:]}"
            return test(out) if test else None
        return check

    def written(key, fam):
        shape, digest = family_shape(fam), family_digest(fam)

        def test(_):
            with open(path[key], encoding="utf-8") as fh:
                return expect_family(shape, digest)(doc_family(json.load(fh)))
        return test

    def recipe_written(_):
        with open(path["recipe"], encoding="utf-8") as fh:
            return None if json.load(fh) == recipe_doc else "recipe differs from plan()"

    def passed(out):
        return None if "PASS" in out else f"no PASS in {out[-200:]!r}"

    def zone_is(out):
        return None if out.strip() == str(PIPELINE_ZONE[scale]) else \
            f"zone {out.strip()!r}, expected {PIPELINE_ZONE[scale]}"

    ops = [
        Op("plan", 0, lambda _: run_cli(["plan", str(n), str(length), "-o", path["recipe"]]),
           expect(0, recipe_written), fresh=clear_outputs),
        Op("gen", entries_of(gen_fam),
           lambda _: run_cli(["gen", path["recipe"], path["fam"]]),
           expect(0, written("fam", gen_fam))),
        Op(f"verify cosf:{n}", entries_of(gen_fam),
           lambda _: run_cli(["verify", path["fam"], "--kind", f"cosf:{n}"]),
           expect(0, passed)),
        Op("ccc --canonical", entries_of(ccc_fam),
           lambda _: run_cli(["ccc", path["fam"], ccc_matrix, path["ccc"], "--canonical"]),
           expect(0, written("ccc", ccc_fam))),
        Op("verify ccc", entries_of(ccc_fam),
           lambda _: run_cli(["verify", path["ccc"], "--kind", "ccc"]),
           expect(0, passed)),
        Op("enlarge", entries_of(big_fam),
           lambda _: run_cli(["enlarge", path["ccc"], path["big"]]
                             + [a for m in enlarge for a in ("--matrix", m)]),
           expect(0, written("big", big_fam))),
        Op("verify ccc enlarged", entries_of(big_fam),
           lambda _: run_cli(["verify", path["big"], "--kind", "ccc"]),
           expect(0, passed)),
        Op("zone", entries_of(big_fam),
           lambda _: run_cli(["zone", path["big"]]), expect(0, zone_is)),
        Op("plan unconstructible", 0,
           lambda _: run_cli(["plan", str(n), str(bad_target), "-o", path["refused"]]),
           expect(2)),
        Op("verify near-miss", entries_of(near),
           lambda _: run_cli(["verify", path["near"], "--kind", "ccc"]),
           expect(1)),
        Op(f"verify malformed ({malformed})", 0,
           lambda _: run_cli(["verify", path["bad"], "--kind", "ccc"]),
           expect(3)),
    ]
    return Workload(ops, close=lambda: shutil.rmtree(workdir, ignore_errors=True))
