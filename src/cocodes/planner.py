"""Length planning and recipe execution.

A length L is reachable for shift parameter N exactly when N divides L
and L/N factors into integers all at most N.  The planner turns a set
of target lengths into a deterministic Recipe: one generation step
(cell sizes = the leading factors), then one elongation round per
remaining factor.  Power-of-two cell sizes get Walsh-Hadamard
matrices, everything else the DFT of matching dimension.

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
    largest first; None when k has a prime factor above n.

    For an n-smooth k greedy never gets stuck: if f is the largest
    divisor <= n of the rest, no prime p of rest // f exceeds f, since
    p <= n would be a larger divisor of the rest.  So it gets stuck
    exactly on the factors above n."""
    chain, rest = [], k
    while rest > 1:
        cap = min(chain[-1] if chain else n, rest)
        f = next((f for f in range(cap, 1, -1) if rest % f == 0), None)
        if f is None:
            return None
        chain.append(f)
        rest //= f
    return chain


def constructible(n: int, length: int) -> bool:
    """True iff `length` is divisible by n and every prime factor of
    length/n is at most n; n must lie in 1..DIM_LIMIT, as for `plan`."""
    n, length = _check_shift(n), _integer(length, "length")
    if length < 1 or length % n:
        return False
    return _blocking_factor(n, length // n) is None


def _integer(x, what: str) -> int:
    """`x` as a Python int (numpy's integers too); a float, a string or
    a bool raises TypeError."""
    if isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return index(x)


def _check_shift(n) -> int:
    """`n` as an int (`_integer`), refused outside 1..DIM_LIMIT: the
    matrices of larger ones are not built, and trial division is linear."""
    n = _integer(n, "shift parameter")
    if not 1 <= n <= DIM_LIMIT:
        raise ValueError(f"shift parameter must be in 1..{DIM_LIMIT}, got {n}")
    return n


def _blocking_factor(n: int, k: int) -> Optional[int]:
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


def _cell_matrix(size: int) -> MatrixSpec:
    if size & (size - 1) == 0:
        return MatrixSpec(kind="hadamard", dim=size)
    return MatrixSpec(kind="dft", dim=size)


def plan(n: int, targets) -> Recipe:
    """Recipe whose executed length set contains every target length.

    Each target L is factored as L = N * f0 * f1 * ... with
    N >= f0 >= f1 >= ... ; f0 becomes a generation cell size and every
    later factor one elongation round.  Multiple targets get disjoint
    cells, which requires the sum of their leading factors to fit in N.
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
        chain = factor_chain(n, t // n)
        if chain is None:
            bad = _blocking_factor(n, t // n)
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
    # (each target's f0 rows in turn); None: grows no more.  Generation
    # is round 0, one group of base rows; each later round an elongation.
    state = [(n, t) for t in targets for _ in range(firsts[t])]
    state += [(n, None)] * (n - len(state))
    rounds = []
    depth = 0
    while any(len(chains[t]) > depth for t in targets):
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
        if depth == 0:  # generation's cells; a trivial one takes the 1x1 matrix
            cells = [cell for cell, _ in layout[0]]
            cell_matrices = [_cell_matrix(1) if spec is None else spec.rows
                             for _, spec in layout[0]]
        else:
            rounds.append(rnd)
        grown = []
        for members, completed in zip(groups, layout):
            for cell, spec in completed:
                length, target = state[members[cell[0]]]
                if spec is None:  # the trivial family ends the growth
                    grown.append((length, None))
                else:  # f rows: f sequences f times as long
                    grown += [(length * len(cell), target)] * len(cell)
        state = grown
        depth += 1

    recipe = Recipe(n=n, base_matrix=MatrixSpec(kind="dft", dim=n),
                    cells=cells, cell_matrices=cell_matrices, rounds=rounds)
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
    spec None for the trivial one-sequence family."""
    by_group = {s.group: s for s in rnd.splits}
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


def _complete_round(groups, rnd: Round):
    """A round as the level-2 partition and sub-families of
    `elongate_cosf` on a family whose positions `groups` lists by length:
    the cells of `_round_cells` with their specs resolved, and for each
    implicit singleton cell the 1x1 matrix (1): it passes the member
    through, whatever the mode."""
    one = _cell_matrix(1).build()
    part2, subs = {}, {}
    for g, cells in enumerate(_round_cells(groups, rnd)):
        part2[g] = [cell for cell, _ in cells]
        for p2, (_, spec) in enumerate(cells):
            subs[(g, p2)] = one if spec is None else spec.resolve()
    return part2, subs


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

    for i, rnd in enumerate(recipe.rounds):
        groups = group_by_length([c.shape[1] for _, _, c in seqs])
        part2, round_subs = _complete_round(groups, rnd)
        seqs = _elongation(seqs, groups, part2, round_subs)
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
