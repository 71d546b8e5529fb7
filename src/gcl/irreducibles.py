"""Irreducible conjunctions and disjunctions of attribute literals.

A literal set picks attributes with a sign; both signs of one attribute
may appear (such a conjunction is constantly false, such a disjunction
constantly true, and both do occur as minimal descriptions of the empty
and the full extent).  A set is an irreducible conjunction for extent X
when its conjunction evaluates to X and removing any single literal
strictly grows the extent; dually a removal must strictly shrink it for
an irreducible disjunction.  Removing the only literal, or a literal
from the empty set, is not a removal, so sets of size at most one are
irreducible for whatever extent they evaluate to.

Irreducible sets are down-closed: every subset of an irreducible set is
irreducible.  Proof, for conjunctions (disjunctions dually): if dropping
l from T keeps its extent, dropping l from any S containing T keeps
ext(S), because ext(S - l) = ext(T - l) & ext(S - T).  So the classes
are grown level by level from irreducible sets only, the key pruning of
TITANIC (Stumme et al., DKE 2002).  Each literal of an irreducible set
of size two or more has its own witness object, so members have at most
max(1, |G|) literals.

The quotient of one class by another removes the members that factor
through the divisor: a member is dropped iff some nonempty member of the
divisor class is a proper subset of it.  A class quotiented by itself is
unchanged, and single literals survive every quotient.

These classes assemble display forms of the two canonical bounds: the
disjunctive bound of X is the sum of the quotiented conjunction classes
of the sub-extents of X, the conjunctive bound dually the product of the
quotiented disjunction classes of its super-extents.  There a member mu
of size two or more is dropped iff ext(mu - l) lies inside X (for
disjunctions: contains X) for some literal l of mu; smaller members are
always kept.  Proof: the possible divisors are the nonempty proper
subsets of mu, which are irreducible by down-closure and have
block-union extents; each lies in some mu - l, so ext(mu - l) is the
smallest (for disjunctions the largest) of their extents.

Only nonempty members with no attribute in both signs enter a display
form: over all 2^m minterms such a set is neither 0 nor 1.  An
inconsistent set is 0 in a sum and 1 in a product; the empty set absorbs
the sum (product), which it joins only at G (the empty extent), as 1 (0).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import and_, or_

from .bitset import BitSet
from .context import FormalContext, _want_objects, block_set_of, blocks
from .errors import CapExceeded
from .exprs import BOTTOM, TOP, AttrExpr, _var_table, conj, disj, literal
from .value import Value

DEFAULT_IRREDUCIBLES_CAP = 10

_MODES = ("conjunction", "disjunction")


class LiteralSet(Value):
    """Signed attribute picks: pos and neg are masks over M."""

    pos: BitSet
    neg: BitSet

    def __post_init__(self):
        if self.pos.width != self.neg.width:
            raise ValueError("pos and neg have different widths")

    @property
    def size(self) -> int:
        return len(self.pos) + len(self.neg)

    def is_consistent(self) -> bool:
        return self.pos.isdisjoint(self.neg)

    def literals(self) -> list[tuple[int, bool]]:
        """(attribute, sign) pairs, positive before negative per attribute."""
        out = []
        for j in range(self.pos.width):
            if j in self.pos:
                out.append((j, True))
            if j in self.neg:
                out.append((j, False))
        return out

    def flipped(self) -> "LiteralSet":
        return LiteralSet(self.neg, self.pos)

    def issubset(self, other: "LiteralSet") -> bool:
        return self.pos.issubset(other.pos) and self.neg.issubset(other.neg)

    def conjunction(self) -> AttrExpr:
        return conj(literal(j, sign) for j, sign in self.literals())

    def disjunction(self) -> AttrExpr:
        return disj(literal(j, sign) for j, sign in self.literals())

    def describe(self, attributes) -> str:
        body = ", ".join(
            ("" if sign else "!") + attributes[j] for j, sign in self.literals()
        )
        return "{" + body + "}"


class IrredClass(Value):
    """All irreducible literal sets of one mode sharing a target extent."""

    target: BitSet
    mode: str
    members: tuple[LiteralSet, ...]

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def _guard_cap(ctx: FormalContext) -> None:
    if ctx.n_attributes > DEFAULT_IRREDUCIBLES_CAP:
        raise CapExceeded(
            f"{ctx.n_attributes} attributes exceed the irreducibles cap of {DEFAULT_IRREDUCIBLES_CAP}"
        )


def _fold(ctx: FormalContext, exts, mode: str) -> int:
    """The extent of a conjunction (meet) or disjunction (join) of extents."""
    if mode == "conjunction":
        bits = (1 << ctx.n_objects) - 1
        for e in exts:
            bits &= e
    else:
        bits = 0
        for e in exts:
            bits |= e
    return bits


def _literal_exts(ctx: FormalContext, lits: LiteralSet) -> list[int]:
    full = (1 << ctx.n_objects) - 1
    cols = ctx.cols
    return [cols[j] for j in lits.pos] + [full ^ cols[j] for j in lits.neg]


def _leave_one_out(ctx: FormalContext, lits: LiteralSet, mode: str) -> list[int]:
    """Extent bits of lits minus each one of its literals; none if |lits| <= 1."""
    exts = _literal_exts(ctx, lits)
    if len(exts) <= 1:
        return []
    return [_fold(ctx, exts[:i] + exts[i + 1 :], mode) for i in range(len(exts))]


def is_member(ctx: FormalContext, lits: LiteralSet, target: BitSet, mode: str) -> bool:
    """Is lits an irreducible set of the given mode for extent target?"""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if _fold(ctx, _literal_exts(ctx, lits), mode) != target.bits:
        return False
    return target.bits not in _leave_one_out(ctx, lits, mode)


@lru_cache(maxsize=32)
def _all_classes(ctx: FormalContext, mode: str) -> dict[int, tuple[LiteralSet, ...]]:
    """Extent bits -> irreducible members, grown level by level.

    Literal i < m is attribute i, literal m + i its negation; a set is a
    mask over these 2m literals.  Level k + 1 extends each irreducible
    k-set by one literal of higher index and keeps the candidate iff
    every leave-one-out subset is an irreducible k-set of a different
    extent (down-closure makes this test exact).  The test starts at
    level 2: the empty set and all 2m singletons are members whatever
    their extent.
    """
    m = ctx.n_attributes
    full = (1 << ctx.n_objects) - 1
    conjunction = mode == "conjunction"
    lit_ext = list(ctx.cols) + [full ^ col for col in ctx.cols]

    level = {1 << i: e for i, e in enumerate(lit_ext)}
    found = [(0, full if conjunction else 0), *level.items()]
    while level:
        grown = {}
        for key, ext in level.items():
            for i in range(key.bit_length(), 2 * m):
                whole = ext & lit_ext[i] if conjunction else ext | lit_ext[i]
                if whole == ext:
                    continue  # leaving literal i out keeps the extent
                cand = key | (1 << i)
                rest = key
                while rest:
                    low = rest & -rest
                    if level.get(cand ^ low, whole) == whole:
                        break  # a leave-one-out subset is reducible or as wide
                    rest ^= low
                else:
                    grown[cand] = whole
        found.extend(grown.items())
        level = grown

    mask = (1 << m) - 1
    classes: dict[int, list[LiteralSet]] = {}
    for key, ext in found:
        lits = LiteralSet(BitSet(key & mask, m), BitSet(key >> m, m))
        classes.setdefault(ext, []).append(lits)
    return {
        ext: tuple(sorted(members, key=lambda s: (s.size, s.pos.bits, s.neg.bits)))
        for ext, members in classes.items()
    }


class _Members(Value):
    """The members the reduced bounds of one class mode pick from, in the
    order of _members.  blocks[i] is the block set of member i's extent,
    loo[i] the block sets of its leave-one-out subsets, tables[i] its
    minterm table, texts[i] its text alone, parts[i] its text as one term
    among several (a disjunction of two or more literals parenthesised)."""

    mode: str
    sets: tuple[LiteralSet, ...]
    blocks: tuple[int, ...]
    loo: tuple[tuple[int, ...], ...]
    tables: tuple[int, ...]
    texts: tuple[str, ...]
    parts: tuple[str, ...]


@lru_cache(maxsize=32)
def _members(ctx: FormalContext, mode: str) -> _Members:
    """The reduced-bound members of a class mode.

    The members are those neither empty nor inconsistent (those are
    constant; see the module docstring), ordered by the block set of
    their extent (every extent is a union of blocks), as an int, and in
    class order within one extent.  The leave-one-out subsets of a member
    are members themselves (down-closure), so their block sets are looked
    up, never folded; block_set_of runs once per distinct extent.
    """
    m = ctx.n_attributes
    classes = _all_classes(ctx, mode)
    conjunction = mode == "conjunction"
    block_of = {ext: block_set_of(ctx, BitSet(ext, ctx.n_objects)) for ext in classes}
    where = {
        mu.pos.bits | mu.neg.bits << m: block_of[ext]
        for ext, members in classes.items()
        for mu in members
    }
    every = (1 << (1 << m)) - 1
    lit_table = [_var_table(j, m) for j in range(m)]
    lit_table += [every ^ t for t in lit_table]
    words = list(ctx.attributes) + ["!" + a for a in ctx.attributes]
    sep, fold = (" & ", and_) if conjunction else (" | ", or_)

    sets, block_sets, loo, tables, texts, parts = [], [], [], [], [], []
    for ext in sorted(classes, key=block_of.__getitem__):
        for mu in classes[ext]:
            pos, neg = mu.pos.bits, mu.neg.bits
            if not pos | neg or pos & neg:
                continue  # empty or inconsistent
            key = pos | neg << m
            # literal indices by attribute: a consistent set has one sign each
            lits = [j + m * (neg >> j & 1) for j in range(m) if (pos | neg) >> j & 1]
            text = sep.join(map(words.__getitem__, lits))
            sets.append(mu)
            block_sets.append(block_of[ext])
            loo.append(tuple(where[key ^ 1 << i] for i in lits) if len(lits) > 1 else ())
            tables.append(reduce(fold, map(lit_table.__getitem__, lits)))
            texts.append(text)
            parts.append(f"({text})" if len(lits) > 1 and not conjunction else text)
    return _Members(
        mode, tuple(sets), tuple(block_sets), tuple(loo), tuple(tables), tuple(texts), tuple(parts)
    )


def _keeps(table: _Members, ks: int) -> bytes:
    """Byte i is 1 iff the bound of the block set ks keeps member i, else 0.

    A conjunction is kept iff its block set lies inside ks and none of its
    leave-one-out block sets does; a disjunction iff its block set contains
    ks and none of its leave-one-out block sets does.  One pass over the
    members, for one block set; _selection sweeps them all at once.
    """
    if table.mode == "conjunction":
        return bytes(
            not b & ~ks and all(e & ~ks for e in loo) for b, loo in zip(table.blocks, table.loo)
        )
    return bytes(
        not ks & ~b and all(ks & ~e for e in loo) for b, loo in zip(table.blocks, table.loo)
    )


@lru_cache(maxsize=32)
def _selection(ctx: FormalContext, mode: str) -> tuple[int, ...]:
    """Entry ks has bit i set iff the bound of the block set ks keeps
    member i of _members(ctx, mode), for all 2^n_F block sets.

    The entry is _keeps as a mask, sub[ks] & ~bad[ks] for two OR-sweeps
    over the block bits: sub of the members by their own block set, bad
    of the members by their leave-one-out block sets.  Its size is 2^n_F,
    so it is for callers that read the bounds of many nodes.
    """
    table = _members(ctx, mode)
    size = 1 << blocks(ctx).n_f
    sub, bad = [0] * size, [0] * size
    for i, (b, loo) in enumerate(zip(table.blocks, table.loo)):
        bit = 1 << i
        sub[b] |= bit
        for e in loo:
            bad[e] |= bit
    up = mode == "disjunction"
    _or_sweep(sub, up)
    _or_sweep(bad, up)
    return tuple(s & ~b for s, b in zip(sub, bad))


def _or_sweep(table: list[int], up: bool) -> None:
    """table[ks] |= table[js] for every js inside ks (containing ks if up),
    in place, for a table indexed by every block set.

    One pass per block bit ORs the entries with the bit clear into their
    partners with it set (or back): a slice at a time, over whichever are
    fewer, the runs of consecutive pairs or the strides through them.
    """
    size = len(table)
    step = 1
    while step < size:
        span = 2 * step
        if step < size // span:
            pairs = [(slice(o, None, span), slice(o + step, None, span)) for o in range(step)]
        else:
            pairs = [
                (slice(base, base + step), slice(base + step, base + span))
                for base in range(0, size, span)
            ]
        for low, high in pairs:
            src, dst = (high, low) if up else (low, high)
            table[dst] = list(map(or_, table[dst], table[src]))
        step = span


def irreducible_conjunctions(ctx: FormalContext, xs: BitSet) -> IrredClass:
    """The irreducible conjunction class of extent xs (possibly empty)."""
    return _class_of(ctx, xs, "conjunction")


def irreducible_disjunctions(ctx: FormalContext, xs: BitSet) -> IrredClass:
    """The irreducible disjunction class of extent xs (possibly empty)."""
    return _class_of(ctx, xs, "disjunction")


def _class_of(ctx: FormalContext, xs: BitSet, mode: str) -> IrredClass:
    _want_objects(ctx, xs)
    _guard_cap(ctx)
    members = _all_classes(ctx, mode).get(xs.bits, ())
    return IrredClass(xs, mode, members)


def quotient_class(c0: IrredClass, ci: IrredClass) -> IrredClass:
    """Members of c0 that do not factor through ci.

    A member is dropped iff some nonempty member of ci is a proper subset
    of its literal set.
    """
    if c0.mode != ci.mode:
        raise ValueError(f"mode mismatch: {c0.mode} vs {ci.mode}")
    divisors = [nu for nu in ci.members if nu.size > 0]
    kept = tuple(
        mu
        for mu in c0.members
        if not any(nu.size < mu.size and nu.issubset(mu) for nu in divisors)
    )
    return IrredClass(c0.target, c0.mode, kept)


def simplified_intent(ctx: FormalContext, xs: BitSet, mode: str) -> AttrExpr:
    """Assemble a reduced expression for a canonical bound of extent xs.

    mode "grsp_dnf": sum, over the block-unions X0 inside xs, of the
    conjunction class of X0 quotiented by the classes of every block-union
    strictly between X0 and xs.  mode "gfcp_cnf" is the mirror image:
    product over the block-unions X0 containing xs of the quotiented
    disjunction classes.  Each quotient is the leave-one-out test of the
    module docstring, so the terms are the members _keeps picks for the
    block set of xs, in the order of _members; the work is one pass over
    the members, whatever n_F.  The result always evaluates to xs and
    its canonical form equals the corresponding bound.  No term (factor)
    is a constant: the member table holds none, and the bounds the empty
    set would absorb, grsp_dnf of G and gfcp_cnf of the empty extent, are
    TOP and BOTTOM.
    """
    if mode not in ("grsp_dnf", "gfcp_cnf"):
        raise ValueError(f"unknown mode {mode!r}")
    _want_objects(ctx, xs)  # a wrong width is reported before the cap
    _guard_cap(ctx)
    ks = block_set_of(ctx, xs)  # refuses an extent that is not a union of blocks
    if mode == "grsp_dnf":
        if xs.bits == (1 << ctx.n_objects) - 1:
            return TOP
        table = _members(ctx, "conjunction")
        return disj(map(LiteralSet.conjunction, compress(table.sets, _keeps(table, ks))))
    if not xs.bits:
        return BOTTOM
    table = _members(ctx, "disjunction")
    return conj(map(LiteralSet.disjunction, compress(table.sets, _keeps(table, ks))))

