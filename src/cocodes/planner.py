"""Length planning and recipe execution.

A length L is reachable for shift parameter N exactly when N divides L
and L/N factors into integers all at most N, as one greedy search
decides (`_greedy_chain`).  The planner turns a set of target lengths
into a deterministic Recipe: one generation step (cell sizes = the
leading factors), then one elongation round per remaining factor, all
laid out by the executor's `_round_cells`.  Power-of-two cell sizes
get Walsh-Hadamard matrices, everything else the DFT of matching
dimension.

Recipes are plain data and fully explicit: executing the same recipe
twice yields identical families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Optional

from .construct import (
    ConstructionError,
    _base_round,
    _elongation,
    _family,
    cosf_to_ccc,
    enlarge_ccc,
    group_by_length,
)
from .corr import DEFAULT_TOL, CheckReport, is_ccc, is_n_co_sf
from .cyclo import DIM_LIMIT
from .matrices import MatrixSpec
from .model import SequenceFamily


class UnconstructibleError(ValueError):
    """Target length cannot be produced by this construction framework.

    Carries the offending target and, when known, the blocking factor.
    Absence of a construction here does not prove the length is
    impossible outright; it is only out of this framework's reach.
    """

    def __init__(self, message: str, target: Optional[int] = None,
                 factor: Optional[int] = None):
        super().__init__(message)
        self.target = target
        self.factor = factor


@dataclass
class SubFamilySpec:
    """How an elongation cell gets its cross-orthogonal sub-family:
    rows of a matrix, a nested recipe, or an inline family."""

    rows: Optional[MatrixSpec] = None
    recipe: Optional["Recipe"] = None
    family: Optional[SequenceFamily] = None

    def resolve(self):
        """What `elongate_cosf` connects onto the cell: the matrix of a
        `rows` spec (`MatrixSpec.build`: a factory matrix is built once
        per process, a custom one every time), the family of a nested
        recipe (executed unverified) or the inline family.  Families are
        checked when connected; a matrix's rows are cross-orthogonal by
        unitarity."""
        picked = [x is not None for x in (self.rows, self.recipe, self.family)]
        if sum(picked) != 1:
            raise ValueError("sub-family spec needs exactly one of "
                             "rows / recipe / family")
        if self.rows is not None:
            return self.rows.build()
        if self.recipe is not None:
            return execute(self.recipe, verify=False).family
        return self.family


@dataclass
class RoundSplit:
    """Explicit cells of one length group in one elongation round.
    In-group positions not covered by any cell become singleton cells
    elongated by the trivial one-sequence family (length unchanged)."""

    group: int
    cells: list
    subs: list  # SubFamilySpec per cell


@dataclass
class Round:
    splits: list = field(default_factory=list)


@dataclass
class Post:
    ccc: Optional[MatrixSpec] = None
    enlarge: Optional[list] = None  # list of MatrixSpec


@dataclass
class Recipe:
    n: int
    base_matrix: MatrixSpec
    cells: list
    cell_matrices: list  # MatrixSpec per cell
    rounds: list = field(default_factory=list)
    post: Optional[Post] = None


@dataclass
class StageRecord:
    stage: str
    family_size: int
    set_size: int
    lengths: list
    check: str = ""
    ok: Optional[bool] = None

    def render(self) -> str:
        status = "" if self.ok is None else (" PASS" if self.ok else " FAIL")
        check = f" [{self.check}]{status}" if self.check else ""
        return (f"{self.stage}: {self.family_size} sets x {self.set_size}, "
                f"lengths {self.lengths}{check}")


@dataclass
class ExecutionResult:
    family: SequenceFamily
    log: list
    claimed_kind: str  # 'cosf:N' or 'ccc'

    @property
    def verified(self) -> bool:
        checked = [r.ok for r in self.log if r.ok is not None]
        return bool(checked) and all(checked)

    def render_log(self) -> str:
        return "\n".join(r.render() for r in self.log)


# -- constructibility --------------------------------------------------


def factor_chain(n: int, k: int) -> Optional[list]:
    """Non-increasing factors of k, each in [2, n], built greedily
    largest first (`_greedy_chain`); None when k has a prime factor
    above n."""
    chain, rest = _greedy_chain(n, k)
    return chain if rest == 1 else None


def _greedy_chain(n: int, k: int) -> tuple:
    """(chain, rest): the non-increasing factors of k, each in [2, n],
    taken greedily largest first until none divides what is left, and
    that rest: 1 when k factors into parts <= n, else the product of
    k's prime factors above n (the witness that no such factorization
    exists).

    Greedy never gets stuck on a prime up to n: if f is the largest
    divisor <= cap of the rest, where every prime <= n of the rest is
    at most cap, no such prime p of rest // f exceeds f, since p would
    be a larger divisor.  So it stops exactly on the factors above n."""
    chain, rest, cap = [], k, n
    while rest > 1:
        for f in range(min(cap, rest), 1, -1):
            if rest % f == 0:
                break
        else:  # no factor left in [2, cap]
            break
        chain.append(f)
        rest //= f
        cap = f
    return chain, rest


def constructible(n: int, length: int) -> bool:
    """True iff `length` is divisible by n and every prime factor of
    length/n is at most n; n must lie in 1..DIM_LIMIT, as for `plan`."""
    n, length = _check_shift(n), _integer(length, "length")
    if length < 1 or length % n:
        return False
    return _greedy_chain(n, length // n)[1] == 1


def _integer(x, what: str) -> int:
    """`x` as a Python int (numpy's integers too); a float, a string or
    a bool raises TypeError."""
    if isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return index(x)


def _check_shift(n) -> int:
    """`n` as an int (`_integer`), refused outside 1..DIM_LIMIT: the
    matrices of larger ones are not built, and each greedy step is linear."""
    n = _integer(n, "shift parameter")
    if not 1 <= n <= DIM_LIMIT:
        raise ValueError(f"shift parameter must be in 1..{DIM_LIMIT}, got {n}")
    return n


def _cell_matrix(size: int) -> MatrixSpec:
    if size & (size - 1) == 0:
        return MatrixSpec(kind="hadamard", dim=size)
    return MatrixSpec(kind="dft", dim=size)


def plan(n: int, targets) -> Recipe:
    """Recipe whose executed length set contains every target length.

    Each target L is factored as L = N * f0 * f1 * ... with
    N >= f0 >= f1 >= ... (`_greedy_chain`); f0 becomes a generation cell
    size and every later factor one elongation round.  Multiple targets
    get disjoint cells, which requires the sum of their leading factors
    to fit in N.  Every depth, generation (one group of base rows)
    included, splits each length group among the targets still growing
    and reads its cells and next state from `_round_cells`' layout.
    """
    n = _check_shift(n)
    targets = sorted({_integer(t, "target length") for t in targets})
    if not targets:
        raise ValueError("at least one target length required")
    chains = {}
    for t in targets:
        if t < 1:
            raise UnconstructibleError(f"target length must be positive, got {t}", target=t)
        if t % n:
            raise UnconstructibleError(f"length {t} is not divisible by {n}", target=t)
        chain, bad = _greedy_chain(n, t // n)
        if bad > 1:
            raise UnconstructibleError(
                f"length {t} is unconstructible for shift parameter {n}: "
                f"{t}/{n} = {t // n} has factor {bad} > {n}",
                target=t, factor=bad)
        chains[t] = chain if chain else [1]

    firsts = {t: chains[t][0] for t in targets}
    if sum(firsts.values()) > n:
        subset, used = [], 0
        for t in targets:
            if used + firsts[t] <= n:
                subset.append(t)
                used += firsts[t]
        raise UnconstructibleError(
            f"targets {targets} need leading cells {list(firsts.values())} "
            f"summing past {n}; jointly constructible subset: {subset}")

    # (length, target) per sequence in family order, from the base rows
    # (each target's f0 rows in turn); None: grows no more
    state = [(n, t) for t in targets for _ in range(firsts[t])]
    state += [(n, None)] * (n - len(state))
    laid = []  # (round, its layout) per depth, generation first
    for depth in range(max(map(len, chains.values()))):
        groups = group_by_length([length for length, _ in state])
        rnd = Round()
        for g, members in enumerate(groups):
            mine = {}  # target: its in-group positions
            for p, i in enumerate(members):
                mine.setdefault(state[i][1], []).append(p)
            split = RoundSplit(group=g, cells=[], subs=[])
            for t in targets:
                if t in mine and len(chains[t]) > depth:
                    f = chains[t][depth]
                    split.cells.append(mine[t][:f])
                    split.subs.append(SubFamilySpec(rows=_cell_matrix(f)))
            if split.cells:
                rnd.splits.append(split)
        layout = _round_cells(groups, rnd)
        laid.append((rnd, layout))
        grown = []
        for members, cells in zip(groups, layout):
            for cell, spec in cells:  # f sequences f times as long; spec None ends the growth
                length, target = state[members[cell[0]]]
                grown += [(length * len(cell), None if spec is None else target)] * len(cell)
        state = grown

    # generation's cells; a trivial one takes the 1x1 matrix
    (generation,) = laid[0][1]
    recipe = Recipe(n=n, base_matrix=MatrixSpec(kind="dft", dim=n),
                    cells=[cell for cell, _ in generation],
                    cell_matrices=[_cell_matrix(1) if spec is None else spec.rows
                                   for _, spec in generation],
                    rounds=[rnd for rnd, _ in laid[1:]])
    produced = {length for length, _ in state}
    missing = [t for t in targets if t not in produced]
    if missing:
        raise ConstructionError(
            f"internal planning error: targets {missing} absent from "
            f"simulated lengths {sorted(produced)}")
    return recipe


# -- execution ----------------------------------------------------------


def _round_cells(groups, rnd: Round) -> list:
    """For each length group (positions, as `group_by_length` lists
    them) the round's cells in the order elongation emits their
    outputs: the split's cells, then every position no cell covers as
    its own cell.  A cell is (in-group positions, SubFamilySpec), the
    spec None for the trivial one-sequence family.  A round names each
    group in at most one split."""
    by_group = {}
    for s in rnd.splits:
        if s.group in by_group:
            raise ConstructionError(f"round names group {s.group} in two splits")
        by_group[s.group] = s
    unknown = set(by_group) - set(range(len(groups)))
    if unknown:
        raise ConstructionError(
            f"round references groups {sorted(unknown)}; family has "
            f"{len(groups)} length groups")
    out = []
    for g, group in enumerate(groups):
        split = by_group.get(g)
        if split is None:
            out.append([([p], None) for p in range(len(group))])
            continue
        if len(split.cells) != len(split.subs):
            raise ConstructionError(
                f"group {g}: {len(split.cells)} cells vs "
                f"{len(split.subs)} sub-families")
        cells = [(list(cell), sub) for cell, sub in zip(split.cells, split.subs)]
        covered = {p for cell, _ in cells for p in cell}
        out.append(cells + [([p], None) for p in range(len(group)) if p not in covered])
    return out


def execute(recipe: Recipe, verify: bool = True) -> ExecutionResult:
    """Run a recipe: generation, elongation rounds, optional CCC map and
    enlargement.  The log records each intermediate family's shape and,
    when `verify` is set, its verification status.  The factory
    matrices the recipe names are built once per process (see
    `matrices`); custom ones every time.

    Generation and the rounds carry layered sequences from round to
    round (see `construct`), and every output sequence holds its layers:
    its dense array is made when it is first read, so an output nobody
    reads is never scattered.  With `verify` set each stage's family is
    checked, which reads its arrays (the last stage's family is then
    the output)."""
    log = []
    n = recipe.n
    base = recipe.base_matrix.build()
    if base.dim != n:
        raise ConstructionError(
            f"base matrix is {base.dim}x{base.dim}, recipe says {n}")
    seqs = _elongation(*_base_round(base, recipe.cells,
                                    [spec.build() for spec in recipe.cell_matrices]))
    fam = _log_round(log, "generate", seqs, f"cosf:{n}", verify)

    # an implicit singleton cell takes the 1x1 matrix (1): it passes the
    # member through, whatever the mode
    one = _cell_matrix(1).build()
    for i, rnd in enumerate(recipe.rounds):
        groups = group_by_length([c.shape[1] for _, _, c in seqs])
        layout = [[(cell, one if spec is None else spec.resolve()) for cell, spec in cells]
                  for cells in _round_cells(groups, rnd)]
        seqs = _elongation(seqs, groups, layout)
        fam = _log_round(log, f"elongate[{i}]", seqs, f"cosf:{n}", verify)
    if fam is None:
        fam = _family(seqs)

    claimed = f"cosf:{n}"
    if recipe.post is not None:
        if recipe.post.ccc is not None:
            fam = cosf_to_ccc(fam, recipe.post.ccc.build())
            claimed = "ccc"
            _log_stage(log, "ccc", fam, "ccc", verify)
        if recipe.post.enlarge:
            if claimed != "ccc":
                raise ConstructionError(
                    "enlargement requires the ccc step first")
            fam = enlarge_ccc(fam, [s.build() for s in recipe.post.enlarge])
            _log_stage(log, "enlarge", fam, "ccc", verify)
    return ExecutionResult(family=fam, log=log, claimed_kind=claimed)


def _log_round(log, stage, seqs, check, verify):
    """Log a round's layered sequences as a single-sequence family; only
    when `verify` is set is that family made, checked and returned
    (else None)."""
    fam = _family(seqs) if verify else None
    log.append(StageRecord(stage=stage, family_size=len(seqs), set_size=1,
                           lengths=sorted({c.shape[1] for _, _, c in seqs}), check=check,
                           ok=run_check(fam, check).ok if verify else None))
    return fam


def _log_stage(log, stage, fam, check, verify):
    log.append(StageRecord(stage=stage, family_size=fam.family_size, set_size=fam.set_size,
                           lengths=sorted(fam.length_set), check=check,
                           ok=run_check(fam, check).ok if verify else None))


def parse_kind(kind: str) -> Optional[int]:
    """N of a check kind 'cosf:N' (decimal digits, N >= 1), None for
    'ccc'; ValueError for any other kind."""
    if kind == "ccc":
        return None
    head, _, digits = kind.partition(":")
    try:
        n = int(digits) if head == "cosf" and digits.isdecimal() else 0
    except ValueError:  # more digits than Python converts
        n = 0
    if n < 1:
        raise ValueError(f"unknown check kind {kind!r}; expected 'ccc' or 'cosf:N'")
    return n


def run_check(fam: SequenceFamily, kind: str, tol: float = DEFAULT_TOL) -> CheckReport:
    """Dispatch 'cosf:N' / 'ccc' to the matching predicate."""
    n = parse_kind(kind)
    return is_ccc(fam, tol) if n is None else is_n_co_sf(fam, n, tol)
