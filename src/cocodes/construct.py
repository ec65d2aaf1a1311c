"""Construction operators for cross-orthogonal families and complete
complementary codes.

Everything here is built from one operator over unitary-like matrices,
the connection (interleaved scalar-times-sequence concatenation).  The
generation step partitions the rows of a base matrix and connects each
cell with a matching small matrix; the elongation step repeats the
idea one level down, on an already constructed family, with the first
partition level forced to group sequences by length, and generation is
elongation of the base rows as one group (`_base_round`).  The CO-SF ->
CCC map connects each row with a sequence's entries as members of width
1; expanding a set by v connects v with the set's members read side by
side as one member, whose block j holds v[j] times each member.

Output ordering is always the lexicographic order of the partition
path (cell index, then row index), so constructions are deterministic.

Construction runs on layered sequences (`model.terms_of`): the outputs
of one round are the layered inputs of the next, and every output holds
its layers (`model.Sequence._of_terms`), its dense array made when it is
first read; an expansion's output holds a cut of its connection's
columns (`model.column_cut`).  A cell's members are laid side by side
(`model.cell_terms`) for its energy check (generation's cells, rows
of one matrix, are not checked) and its connections; a matrix holds its
rows side by side (`UnitaryLike.terms`), an inline sub-family is laid out
once per cell (`model.row_terms`).  A connection multiplies the members'
layers, tiled over its blocks in runs of the sub row's length, by the
row's own entries, one per block of a run: exact single-layer operands
are one exponent add and one coefficient product (`layer_product`), any
other product is scattered and read back (`model.layered_multiply`).
A cell that is one int64 layer takes its peak once: its energy check is
one sum of squares per member, and its products are not rescanned when
the peaks bound them below `INT64_COEFF_BOUND`.  The constructor wraps
its own families unchecked (`model.SequenceFamily._of_members`).
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm

import numpy as np

from .corr import DEFAULT_TOL, is_ccc, is_n_co_sf
from .cyclo import INT64_COEFF_BOUND, common_order
from .matrices import UnitaryLike
from .model import (
    EXACT,
    Sequence,
    SequenceFamily,
    SequenceSet,
    cell_terms,
    column_cut,
    energy,
    is_exact,
    layer_peak,
    layer_product,
    layered_multiply,
    read_only,
    row_terms,
    scalar,
    singleton_family,
    terms_of,
    unequal_energies,
)


class ConstructionError(ValueError):
    """A construction precondition failed."""


def connect(v: Sequence, cell: SequenceSet) -> Sequence:
    """Connection of a scalar vector with a sequence set:
    (v[k mod len(v)] * a[k mod M]) for k < lcm(M, len(v)), concatenated."""
    found = cell_terms(map(terms_of, cell))
    return Sequence._of_terms(_connections(row_terms([terms_of(v)]), found, layer_peak(found[2]))[0])


def _connections(vs, found, peak) -> list:
    """The layered sequence of the connection of every v with the cell
    whose members are `found` side by side (see `model.cell_terms`),
    each at its own order common_order(cell, v); no concatenation is
    built.  `vs` holds the vs side by side (`model.row_terms`, a
    matrix's `terms`), `peak` the members' `layer_peak`.

    An output of k blocks is the product of the members' layers tiled
    over the blocks in runs of v's length (shared by the outputs of one
    shape and order) with v's own entries, one per block of a run: one
    `layer_product` of their rows when both are exact and one layer, else
    one `layered_multiply`.  When both are one int64 layer and the
    product of their peaks is below INT64_COEFF_BOUND, every product is
    already fitted and is taken unscanned."""
    cell_order, exps, coeffs = found
    m = coeffs.shape[1]
    v_order, v_exps, v_coeffs, shapes, v_peak = vs
    fitted = None not in (peak, v_peak) and peak * v_peak < INT64_COEFF_BOUND
    product = layered_multiply
    if len(coeffs) == len(v_coeffs) == 1 and is_exact(coeffs) and is_exact(v_coeffs):
        product, exps, coeffs, v_exps, v_coeffs = layer_product, exps[0], coeffs[0], v_exps[0], v_coeffs[0]
    tiled = {}  # (k, order, length): members over k blocks in runs of length, vs' exponents at order
    out = []
    for (length, own_order), start in zip(shapes, accumulate([0] + [n for n, _ in shapes])):
        k, order = lcm(m, length), common_order(cell_order, own_order)
        if (k, order, length) not in tiled:
            members = exps, coeffs
            if k != m:
                members = tuple(x.take(np.arange(k) % m, axis=-2) for x in members)
            if order != cell_order:
                members = members[0] * (order // cell_order), members[1]
            if k != length:
                members = tuple(x.reshape(*x.shape[:-2], k // length, length, x.shape[-1]) for x in members)
            tiled[k, order, length] = members, v_exps if order == v_order else v_exps * order // v_order
        members, row_exps = tiled[k, order, length]
        at = slice(start, start + length)
        out.append(product(members, (row_exps[..., at, None], v_coeffs[..., at, None]), order, fitted))
    return out


def kron_expand(v: Sequence, cell: SequenceSet) -> SequenceSet:
    """Expansion of an N-sequence set by an M-vector into an MN-sequence
    set; element k is v[k mod M] * c[k div M].  Zero scalars produce
    zero sequences."""
    return SequenceFamily._of_members(_expansions(row_terms([terms_of(v)]), cell))[0]


def _expansions(vs, cell: SequenceSet) -> list:
    """The members of kron_expand(v, cell) for every v whose layers `vs`
    holds side by side (`model.row_terms`, a matrix's `terms`): each
    output is a cut of the columns of the connection of v with the
    members as one member (`model.column_cut`), at its own order,
    lcm(member order, v order).  The outputs of one v are a set: all have
    the cell's length and mode (the connection refuses a v of the other
    mode)."""
    order, exps, coeffs, shapes, peak = row_terms(map(terms_of, cell))
    n, width = len(cell), cell.length
    out = []
    found = (order, exps[:, None], coeffs[:, None])
    for terms, (m, v_order) in zip(_connections(vs, found, peak), vs[3]):
        # member i times v[j] is place i of block j, from column (jn + i) width;
        # the outputs are views of the connection's read-only layers
        read_only(terms)
        out.append([Sequence._of_terms(column_cut(terms, start, start + width, common_order(own, v_order)))
                    for i, (_, own) in enumerate(shapes)
                    for start in range(i * width, m * n * width, n * width)])
    return out


def entrywise(u: Sequence, v: Sequence) -> Sequence:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return _entrywise(row_terms([terms_of(v)]), u)[0]


def _entrywise(vs, s: Sequence) -> list:
    """The entrywise product of `s` with every v whose layers `vs` holds
    side by side (see `_expansions`), v repeated periodically: the
    connection of v with the entries of `s` as len(s) members of width 1."""
    order, exps, coeffs = terms_of(s)
    found = order, exps[..., None], coeffs[..., None]
    return list(map(Sequence._of_terms, _connections(vs, found, layer_peak(coeffs))))


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
    return _family(_elongation(*_base_round(base, cells, subs)))


def _base_round(base: UnitaryLike, cells, subs) -> tuple:
    """The arguments of `_elongation` that make `generate_cosf`: the rows
    of `base`, each at its own order, read from the layers the matrix
    holds (`UnitaryLike.terms`), as one length group; that group's
    layout, cell i with subs[i] connected onto it; and no energy check,
    since the rows of a unitary-like matrix all have its alpha as their
    energy."""
    cells, subs = list(cells), list(subs)
    if len(subs) != len(cells):
        raise ConstructionError(f"{len(cells)} cells but {len(subs)} sub-matrices")
    order, exps, coeffs, shapes, _ = base.terms
    n = base.dim
    rows = [(own, exps[:, m * n:(m + 1) * n] // (order // own), coeffs[:, m * n:(m + 1) * n])
            for m, (_, own) in enumerate(shapes)]
    return rows, [list(range(n))], [[(list(cell), sub) for cell, sub in zip(cells, subs)]], False


def _family(seqs) -> SequenceFamily:
    """The single-sequence family of a round's layered sequences, each
    held as it is, unchecked: there is one or more, all in the base rows'
    mode (a connection refuses a sub-family of the other mode)."""
    return SequenceFamily._of_members((Sequence._of_terms(t),) for t in seqs)


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
    layered = [terms_of(s) for s in seqs]
    # a member passed through is returned as the Sequence it came in
    given = {id(t): s for t, s in zip(layered, seqs)}
    groups = group_by_length([len(s) for s in seqs])
    if sorted(part2) != list(range(len(groups))):
        raise ConstructionError(
            f"level-2 partition must cover groups 0..{len(groups) - 1}, "
            f"got {sorted(part2)}")
    layout = [[(list(cell), subs.get((p1, p2))) for p2, cell in enumerate(part2[p1])]
              for p1 in range(len(groups))]
    return singleton_family(given[id(t)] if id(t) in given else Sequence._of_terms(t)
                            for t in _elongation(layered, groups, layout))


def _elongation(seqs, groups, layout, check_energies: bool = True) -> list:
    """The layered sequences of `elongate_cosf` from the layered
    sequences `seqs` of a single-sequence family, whose positions
    `groups` lists by length (`group_by_length`).  `layout` holds, per
    group, its level-2 cells in output order, each (in-group positions,
    sub), the sub a unitary-like matrix, a family or None (refused);
    a member passed through is its own layered sequence.
    `check_energies` false skips the cells' energy check, for members
    whose energies are equal."""
    out = []
    for p1, (group, cells) in enumerate(zip(groups, layout)):
        _check_partition([cell for cell, _ in cells], len(group))
        for p2, (cell, sub) in enumerate(cells):
            members = [seqs[group[i]] for i in cell]
            if len(cell) == 1 and isinstance(sub, UnitaryLike) and _is_unit(sub):
                # a lone member connected with (1) is that member
                out += members
                continue
            found = cell_terms(members)
            peak = layer_peak(found[2])
            if check_energies:
                _check_energies(members, found, peak, f"({p1},{p2})")
            if sub is None:
                raise ConstructionError(f"no sub-family for cell ({p1},{p2})")
            what = f"sub-family at {(p1, p2)}"
            if isinstance(sub, UnitaryLike):
                _check_size(sub.dim, len(cell), what)
                vs = sub.terms
            else:
                _check_sub_family(sub, len(cell), what)
                vs = row_terms(terms_of(ss[0]) for ss in sub)
            out += _connections(vs, found, peak)
    return out


def _is_unit(u: UnitaryLike) -> bool:
    """`u` is the 1x1 matrix (1) at order 1, the executor's sub-matrix of
    an implicit singleton cell: connecting a member with it gives the
    member's own array, in its own dtype."""
    order, _, coeffs, _, _ = u.terms
    return order == 1 and coeffs.shape == (1, 1) and coeffs[0, 0] == 1


def _check_energies(members, found, peak, where: str) -> None:
    """Raise unless every one of the layered `members` of a cell has
    member 0's energy (approx: within DEFAULT_TOL * |e0|), read in one
    batch from their layout `found` (see `model.cell_terms`), whose
    `layer_peak` is `peak`.  One int64 layer puts every energy at
    exponent 0 as the sum of the squared coefficients: when peak^2 times
    the length is below 2^63 those sums are taken in int64 and compared,
    else `model.unequal_energies` decides."""
    if len(members) == 1:
        return
    coeffs = found[2]
    if peak is not None and peak * peak * coeffs.shape[2] < 2 ** 63:
        sums = (coeffs[0] * coeffs[0]).sum(axis=1)
        differ = (sums != sums[0]).nonzero()[0].tolist()
    else:
        _, differ = unequal_energies(found, DEFAULT_TOL)
    if differ:
        k = differ[0]
        raise ConstructionError(
            f"cell {where} mixes energies: member 0 has "
            f"{energy(Sequence._of_terms(members[0]))!r}, "
            f"member {k} has {energy(Sequence._of_terms(members[k]))!r}")


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
    with u.row(n) repeated periodically.  Unchecked: once the check passes,
    set m is N sequences of sequence m's length (N divides it) in one mode
    (the connection refuses a matrix of the other)."""
    _check_sub_family(fam, u.dim, "input")
    return SequenceFamily._of_members(_entrywise(u.terms, ss[0]) for ss in fam)


def ccc_from_unitary(u: UnitaryLike) -> SequenceFamily:
    """The (N,N,{N})-CCC of entrywise row products u.row(m) * u.row(n):
    `cosf_to_ccc` of the rows, an optimal N-CO-SF of length N."""
    return cosf_to_ccc(u.rows_family(), u)


def enlarge_ccc(fam: SequenceFamily, matrices) -> SequenceFamily:
    """Enlarge an (N,N)-CCC with N unitary-like M x M matrices into an
    (MN,MN)-CCC with the same length set: output set n*M + m is
    matrices[n].row(m) expanded over input set n; unchecked, as each output
    set is MN sequences of one length and mode (see `_expansions`)."""
    matrices = list(matrices)
    n = fam.family_size
    if fam.set_size != n:
        raise ConstructionError(f"need a square CCC, got {n} sets of size {fam.set_size}")
    if len(matrices) != n:
        raise ConstructionError(f"need exactly {n} matrices, got {len(matrices)}")
    dims = {u.dim for u in matrices}
    if len(dims) != 1:
        raise ConstructionError(f"matrix dimensions differ: {sorted(dims)}")
    check = is_ccc(fam)
    if not check.ok:
        raise ConstructionError("input family is not a CCC:\n" + check.render())
    return SequenceFamily._of_members(s for u, ss in zip(matrices, fam) for s in _expansions(u.terms, ss))


def trivial_cosf(mode: str = EXACT) -> SequenceFamily:
    """The one-sequence family {(1)}: connecting with it is the identity."""
    return singleton_family([Sequence([scalar(1, mode)])])
