"""Construction operators for cross-orthogonal families and complete
complementary codes.

Everything here is built from two primitives over unitary-like
matrices: the connection operator (interleaved scalar-times-sequence
concatenation) and the expansion operator (scalar-pattern replication
of a whole set).  The generation step partitions the rows of a base
matrix and connects each cell with a matching small matrix; the
elongation step repeats the idea one level down, on an already
constructed family, with the first partition level forced to group
sequences by length.

Output ordering is always the lexicographic order of the partition
path (cell index, then row index), so constructions are deterministic.

A cell's members are read once (`model.cell_terms`) for its energy check
and all its connections.  Rows of DFT and Hadamard matrices connected
with each other give entries of one term c * zeta^e each, so a cell of
int64 members with exactly one term in every column, connected with sub
rows of that kind too, takes the single-term path: each output is one
gather of (exponent, coefficient) per column, exponents added mod K, and
one scatter into zeros (`_single_connections`), and the energy check sums
c^2 per member (`model.energies`).  Any other cell or sub row takes the
term path, which pairs terms and sums their products: one with a zero
entry (an identity sub-matrix), an entry of two or more terms, approx
entries, or coefficients held as Python ints.  Both paths give the same
arrays, in the same dtype.
"""

from __future__ import annotations

from functools import reduce
from math import lcm

import numpy as np

from .corr import DEFAULT_TOL, is_ccc, is_n_co_sf
from .cyclo import INT64_COEFF_BOUND, common_order
from .matrices import UnitaryLike
from .model import (
    EXACT,
    CellTerms,
    ModeMismatchError,
    Sequence,
    SequenceFamily,
    SequenceSet,
    cell_terms,
    energy,
    entry_terms,
    from_terms,
    multiply_terms,
    product,
    scalar,
    scaled,
    side_by_side,
    single_terms,
    singleton_family,
    terms,
    unequal_energies,
)


class ConstructionError(ValueError):
    """A construction precondition failed."""


def connect(v: Sequence, cell: SequenceSet) -> Sequence:
    """Connection of a scalar vector with a sequence set:
    (v[k mod len(v)] * a[k mod M]) for k < lcm(M, len(v)), concatenated."""
    return _connections([v], cell, cell_terms(cell))[0]


def _connections(vs, cell: SequenceSet, found: CellTerms) -> list:
    """connect(v, cell) for every v in `vs`, from the members' terms
    `found` (see `model.cell_terms`), so the members are read once and no
    concatenation is built.

    When the members and every v are single-term (see `model.single_terms`),
    the outputs are built by `_single_connections`.  Otherwise each block
    of an output is a member's terms shifted into place and multiplied
    term by term."""
    if found.single is not None:
        v_order = reduce(common_order, {v.order for v in vs}, 1)
        row = single_terms([v.array for v in vs], v_order)
        if row is not None:
            return _single_connections(vs, found, row, v_order)
    cell_order, members, _ = found
    m, width = len(cell), cell.length
    out = []
    for v in vs:
        k, order = lcm(m, len(v)), common_order(cell_order, v.order)
        cols, exps, vals = side_by_side([members[i % m] for i in range(k)], width)
        left = cols, exps * (order // cell_order), vals
        colmap = np.arange(k * width) // width % len(v)
        rows, cols, vals = multiply_terms(left, terms(v.array, order), colmap)
        out.append(Sequence._of_fitted(from_terms(rows, cols, vals, order, k * width)))
    return out


def _single_connections(vs, found: CellTerms, row, v_order: int) -> list:
    """connect(v, cell) for every v in `vs` of a single-term cell, given
    the single terms of the vs side by side (`row`, at `v_order`).

    Entry l of block i of an output is the one term of member i mod M at
    l times the one term of v[i mod len(v)]: one gather of the members'
    columns (shared by the outputs of one block count and order), one of
    v's entries, exponents added mod K and one scatter into zeros."""
    (exps, coeffs), (v_exps, v_coeffs) = found.single, row
    m, width = exps.shape
    peak = int(np.abs(coeffs).max())
    tiled = {}  # (k, order): the members' exponents and coefficients over k blocks
    out = []
    start = 0
    for v in vs:
        k, order = lcm(m, len(v)), common_order(found.order, v.order)
        if (k, order) not in tiled:
            blocks = np.arange(k) % m
            tiled[k, order] = exps[blocks] * (order // found.order), coeffs[blocks]
        block_exps, block_coeffs = tiled[k, order]
        at = start + np.arange(k) % len(v)
        start += len(v)
        entry_coeffs = v_coeffs[at]
        # each factor is below INT64_COEFF_BOUND, so no product wraps
        vals = (block_coeffs * entry_coeffs[:, None]).ravel()
        if order == 1:
            array = vals.reshape(1, -1)
        else:
            # both exponents are below `order`, so their sum is below twice it
            wrap = np.arange(2 * order) % order
            sums = block_exps + (v_exps[at] * order // v_order)[:, None]
            array = np.zeros((order, k * width), np.int64)
            array[wrap[sums].ravel(), np.arange(k * width)] = vals
        if peak * int(np.abs(entry_coeffs).max()) < INT64_COEFF_BOUND:
            out.append(Sequence._of_fitted(array))
        else:  # a product may be past the bound: in the dtype `_fit` gives
            out.append(Sequence.of_array(array))
    return out


def kron_expand(v: Sequence, cell: SequenceSet) -> SequenceSet:
    """Expansion of an N-sequence set by an M-vector into an MN-sequence
    set; element k is v[k mod M] * c[k div M].  Zero scalars produce
    zero sequences.

    Each member is scaled by every entry of v at once (`model.scaled`),
    and v's terms are read once per order."""
    if v.mode != cell.mode:
        raise ModeMismatchError("cannot multiply exact with approx entries")
    by_order = {}
    out = []
    for member in cell:
        order = common_order(member.order, v.order)
        if order not in by_order:
            by_order[order] = entry_terms(v.array, order)
        out += scaled(member.array, order, by_order[order])
    return SequenceSet(out)


def entrywise(u: Sequence, v: Sequence) -> Sequence:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return Sequence._of_fitted(product(u.array, v.array))


def dyadic_sum(n: int, m: int) -> int:
    """Bitwise exclusive-or; governs which Hadamard row an entrywise
    product of Hadamard rows lands on."""
    if n < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    return n ^ m


def _check_partition(cells, universe_size: int):
    seen = set()
    for idx, cell in enumerate(cells):
        if not cell:
            raise ConstructionError(f"partition cell {idx} is empty")
        for i in cell:
            if not 0 <= i < universe_size:
                raise ConstructionError(
                    f"cell {idx} references index {i} outside 0..{universe_size - 1}")
            if i in seen:
                raise ConstructionError(f"index {i} appears in two cells")
            seen.add(i)
    if len(seen) != universe_size:
        missing = sorted(set(range(universe_size)) - seen)
        raise ConstructionError(f"partition misses indices {missing}")


def generate_cosf(base: UnitaryLike, cells, subs) -> SequenceFamily:
    """Generate an optimal N-shift cross-orthogonal family.

    `cells` is a one-level partition of the row indices of `base`;
    `subs[i]` is a unitary-like matrix whose dimension equals the size
    of `cells[i]`.  Cell i contributes |cell| sequences of length
    |cell| * N, the m-th being sub.row(m) connected with the cell's rows.
    """
    n = base.dim
    cells = [list(c) for c in cells]
    _check_partition(cells, n)
    subs = list(subs)
    if len(subs) != len(cells):
        raise ConstructionError(
            f"{len(cells)} cells but {len(subs)} sub-matrices")
    out = []
    for cell, sub in zip(cells, subs):
        if sub.dim != len(cell):
            raise ConstructionError(
                f"cell {cell} has size {len(cell)} but sub-matrix is "
                f"{sub.dim}x{sub.dim}")
        cell_set = SequenceSet(base.row(i) for i in cell)
        out += _connections(sub.rows(), cell_set, cell_terms(cell_set))
    return singleton_family(out)


def group_by_length(lengths):
    """Level-1 partition of a single-sequence family, given its sequence
    lengths: positions grouped by length, groups in ascending length."""
    by_len = {}
    for pos, length in enumerate(lengths):
        by_len.setdefault(length, []).append(pos)
    return [by_len[length] for length in sorted(by_len)]


def elongate_cosf(fam: SequenceFamily, part2, subs) -> SequenceFamily:
    """Elongate an N-shift cross-orthogonal family.

    The first partition level is derived from the sequence lengths
    (ascending); `part2[p1]` lists the second-level cells of group p1
    as in-group positions, and `subs[(p1, p2)]` is what gets connected
    onto cell (p1, p2): a cross-orthogonal family (one sequence per
    set, family size == cell size) or a unitary-like matrix whose
    dimension is the cell size.  A family is checked with `is_n_co_sf`;
    a matrix's rows are connected as they are, since unitarity already
    makes them a cross-orthogonal family (at width 1 only shift 0 is
    left, and that is the rows' orthogonality).  A one-member cell whose
    sub is the 1x1 matrix (1) gives its member itself.  All sequences of
    one cell must have equal energy (approx: to DEFAULT_TOL); `fam` must
    be cross-orthogonal.
    """
    if fam.set_size != 1:
        raise ConstructionError("expected a family of single-sequence sets")
    seqs = [ss[0] for ss in fam]
    groups = group_by_length([len(s) for s in seqs])
    part2 = {p1: [list(c) for c in cells] for p1, cells in part2.items()}
    if sorted(part2) != list(range(len(groups))):
        raise ConstructionError(
            f"level-2 partition must cover groups 0..{len(groups) - 1}, "
            f"got {sorted(part2)}")
    out = []
    for p1, group in enumerate(groups):
        cells = part2[p1]
        _check_partition(cells, len(group))
        for p2, cell in enumerate(cells):
            sub = subs.get((p1, p2))
            if len(cell) == 1 and isinstance(sub, UnitaryLike) and _is_unit(sub):
                # a lone member connected with (1) is that member
                out.append(seqs[group[cell[0]]])
                continue
            cell_set = SequenceSet(seqs[group[i]] for i in cell)
            found = cell_terms(cell_set)
            _check_energies(cell_set, found, f"({p1},{p2})")
            if sub is None:
                raise ConstructionError(f"no sub-family for cell ({p1},{p2})")
            what = f"sub-family at {(p1, p2)}"
            if isinstance(sub, UnitaryLike):
                _check_size(sub.dim, len(cell), what)
                rows = sub.rows()
            else:
                _check_sub_family(sub, len(cell), what)
                rows = [ss[0] for ss in sub]
            out += _connections(rows, cell_set, found)
    return singleton_family(out)


def _is_unit(u: UnitaryLike) -> bool:
    """`u` is the 1x1 matrix (1) at order 1, the executor's sub-matrix of
    an implicit singleton cell: connecting a member with it gives the
    member's own array, in its own dtype."""
    row = u.row(0).array
    return row.shape == (1, 1) and row[0, 0] == 1


def _check_energies(cell: SequenceSet, found, where: str) -> None:
    """Raise unless every member of `cell` has member 0's energy (approx:
    within DEFAULT_TOL * |e0|), read in one batch from the members' terms
    `found` (see `model.cell_terms`)."""
    if len(cell) == 1:
        return
    _, differ = unequal_energies(found, cell.length, DEFAULT_TOL)
    if differ:
        k = differ[0]
        raise ConstructionError(
            f"cell {where} mixes energies: member 0 has "
            f"{energy(cell[0])!r}, member {k} has {energy(cell[k])!r}")


def _check_size(size: int, n: int, what: str) -> None:
    if size != n:
        raise ConstructionError(f"{what} has size {size}, needs {n}")


def _check_sub_family(fam: SequenceFamily, n: int, what: str):
    """Raise unless `fam` (`what` names it) is an optimal n-shift
    cross-orthogonal family: n single-sequence sets of lengths
    divisible by n (`is_n_co_sf` reports the lengths)."""
    if fam.set_size != 1:
        raise ConstructionError(f"{what} must have single-sequence sets")
    _check_size(fam.family_size, n, what)
    check = is_n_co_sf(fam, n)
    if not check.ok:
        raise ConstructionError(
            f"{what} is not {n}-shift cross-orthogonal:\n" + check.render())


def cosf_to_ccc(fam: SequenceFamily, u: UnitaryLike) -> SequenceFamily:
    """Turn an optimal N-shift cross-orthogonal family into an (N,N)-CCC:
    set m collects u.row(n) connected with the length-1 split of the
    m-th sequence, for every n: the entrywise product of that sequence
    with u.row(n) repeated periodically."""
    n = u.dim
    _check_sub_family(fam, n, "input")
    return SequenceFamily(
        SequenceSet(Sequence._of_fitted(product(ss[0].array, u.row(k).array))
                    for k in range(n))
        for ss in fam)


def ccc_from_unitary(u: UnitaryLike) -> SequenceFamily:
    """The (N,N,{N})-CCC of entrywise row products u.row(m) * u.row(n)."""
    rows = u.rows()
    return SequenceFamily(
        SequenceSet(entrywise(rows[m], rows[n]) for n in range(u.dim))
        for m in range(u.dim)
    )


def enlarge_ccc(fam: SequenceFamily, matrices) -> SequenceFamily:
    """Enlarge an (N,N)-CCC with N unitary-like M x M matrices into an
    (MN,MN)-CCC with the same length set: output set n*M + m is
    matrices[n].row(m) expanded over input set n."""
    matrices = list(matrices)
    n = fam.family_size
    if fam.set_size != n:
        raise ConstructionError(
            f"need a square CCC, got {n} sets of size {fam.set_size}")
    if len(matrices) != n:
        raise ConstructionError(
            f"need exactly {n} matrices, got {len(matrices)}")
    dims = {u.dim for u in matrices}
    if len(dims) != 1:
        raise ConstructionError(f"matrix dimensions differ: {sorted(dims)}")
    check = is_ccc(fam)
    if not check.ok:
        raise ConstructionError("input family is not a CCC:\n" + check.render())
    m_dim = dims.pop()
    sets = []
    for idx in range(n):
        for m in range(m_dim):
            sets.append(kron_expand(matrices[idx].row(m), fam[idx]))
    return SequenceFamily(sets)


def trivial_cosf(mode: str = EXACT) -> SequenceFamily:
    """The one-sequence family {(1)}: connecting with it is the identity."""
    return singleton_family([Sequence([scalar(1, mode)])])
