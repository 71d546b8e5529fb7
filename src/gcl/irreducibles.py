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
from .exprs import BOTTOM, TOP, AttrExpr, _selectors, _var_table, conj, disj, literal
from .value import Value

DEFAULT_IRREDUCIBLES_CAP = 10

_MODES = ("conjunction", "disjunction")

# bytes.translate tables: a byte to its top bit, and to its bit t as a
# binary digit
_TOP_BIT = bytes(v >> 7 for v in range(256))
_DIGITS = [bytes(48 + (v >> t & 1) for v in range(256)) for t in range(8)]


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
        return reduce(and_, exts, (1 << ctx.n_objects) - 1)
    return reduce(or_, exts, 0)


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


def _literal_set(key: int, m: int) -> LiteralSet:
    """The literal set of a 2m-bit mask: bit j is m_j, bit m + j its negation."""
    return LiteralSet(BitSet(key & (1 << m) - 1, m), BitSet(key >> m, m))


@lru_cache(maxsize=32)
def _all_classes(ctx: FormalContext, mode: str) -> dict[int, tuple[int, ...]]:
    """Extent bits -> irreducible members, grown level by level.

    Literal i < m is attribute i, literal m + i its negation; a set is a
    mask over these 2m literals, and a class lists its members' masks in
    class order: by size, then by the positive half of the mask, then by
    the negative half.  Level k + 1 extends each irreducible k-set by one
    literal of higher index and keeps the candidate iff every leave-one-out
    subset is an irreducible k-set of a different extent (down-closure
    makes this test exact).  The test starts at level 2: the empty set and
    all 2m singletons are members whatever their extent.
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

    half = (1 << m) - 1
    classes: dict[int, list[int]] = {}
    for key, ext in found:
        classes.setdefault(ext, []).append(key)
    return {
        ext: tuple(sorted(keys, key=lambda k: (k.bit_count(), k & half, k >> m)))
        for ext, keys in classes.items()
    }


def _class_block_sets(ctx: FormalContext, classes, mode: str) -> dict[int, int]:
    """Extent bits -> block set, for the classes of _all_classes.

    Every object of a block shares its row, so a literal holds on whole
    blocks: those whose row holds it.  A class's block set is then its
    first member's literal block sets folded as its extent was, meet for
    conjunctions and join for disjunctions, in n_F-bit ints; no block
    extent is read, and each class costs at most 2m int operations.
    """
    m, rows = ctx.n_attributes, blocks(ctx).rows
    every = (1 << len(rows)) - 1
    holds = [sum(1 << k for k, row in enumerate(rows) if row >> j & 1) for j in range(m)]
    holds += [every ^ b for b in holds]
    unit, fold = (every, and_) if mode == "conjunction" else (0, or_)
    return {
        ext: reduce(fold, (holds[i] for i in range(2 * m) if keys[0] >> i & 1), unit)
        for ext, keys in classes.items()
    }


class _Members(Value):
    """The members the reduced bounds of one class mode pick from, in the
    order of _members, with one bit per entry.  A member's entries are
    its own block set (that of its extent) and the block sets of its
    leave-one-out subsets.  Member i has a slot of w bits, i * w up to
    (i + 1) * w - 1, w a multiple of 8: its own entry is the slot's top
    bit, its leave-one-out entries the bits right below, and the slot's
    bottom bit is never an entry (so a carry out of the slot below stops
    there).  present holds the entry bits that exist, cuts[k] the entries
    whose block set holds block k (for disjunctions, lacks it).
    sets[i] is member i's literal set as a mask (see _all_classes),
    tables[i] its minterm table, texts[i] its text alone,
    parts[i] its text as one term among several (a disjunction of two or
    more literals parenthesised)."""

    mode: str
    sets: tuple[int, ...]
    present: int
    cuts: tuple[int, ...]
    tables: tuple[int, ...]
    texts: tuple[str, ...]
    parts: tuple[str, ...]


@lru_cache(maxsize=32)
def _members(ctx: FormalContext, mode: str) -> _Members:
    """The reduced-bound members of a class mode.

    The members are the masks of _all_classes neither empty nor
    inconsistent (those are constant; see the module docstring), ordered
    by the block set of their extent (every extent is a union of blocks),
    as an int, and in class order within one extent.  The leave-one-out
    subsets of a member are members themselves (down-closure), so their
    block sets are looked up by mask, one bit cleared, never folded; each
    distinct extent's block set comes from _class_block_sets.  The
    entries' block sets are written as bytes, from the top bit of the last
    slot down, so a cut is one bit of one column of those bytes, read as
    binary.
    """
    m = ctx.n_attributes
    half = (1 << m) - 1
    classes = _all_classes(ctx, mode)
    conjunction = mode == "conjunction"
    block_of = _class_block_sets(ctx, classes, mode)
    where = {key: block_of[ext] for ext, keys in classes.items() for key in keys}
    every = (1 << (1 << m)) - 1
    lit_table = [_var_table(j, m) for j in range(m)]
    lit_table += [every ^ t for t in lit_table]
    words = list(ctx.attributes) + ["!" + a for a in ctx.attributes]
    sep, fold = (" & ", and_) if conjunction else (" | ", or_)

    sets, own, loo, tables, texts, parts = [], [], [], [], [], []
    for ext in sorted(classes, key=block_of.__getitem__):
        for key in classes[ext]:
            pos, neg = key & half, key >> m
            if not key or pos & neg:
                continue  # empty or inconsistent
            # literal indices by attribute: a consistent set has one sign each
            lits = [j + m * (neg >> j & 1) for j in range(m) if (pos | neg) >> j & 1]
            text = sep.join(map(words.__getitem__, lits))
            sets.append(key)
            own.append(block_of[ext])
            loo.append(tuple(where[key ^ 1 << i] for i in lits) if len(lits) > 1 else ())
            tables.append(reduce(fold, map(lit_table.__getitem__, lits)))
            texts.append(text)
            parts.append(f"({text})" if len(lits) > 1 and not conjunction else text)

    n_f = blocks(ctx).n_f
    # a slot holds the own entry, the leave-one-out entries and a free
    # bottom bit, in whole bytes
    width = 8 * ((max(map(len, loo), default=0) + 9) // 8)
    size = (n_f + 7) // 8  # bytes of a block set
    flip = 0 if conjunction else (1 << n_f) - 1
    word = {b: (b ^ flip).to_bytes(size, "little") for b in block_of.values()}
    # a slot with j leave-one-out entries: its present bits, and the words
    # of its bits below the top j + 1, which are no entry and hold no block
    runs = [((2 << j) - 1 << width - 1 - j).to_bytes(width // 8, "little") for j in range(width)]
    pads = [bytes(size * (width - 1 - j)) for j in range(width)]
    present = int.from_bytes(b"".join(runs[len(rest)] for rest in loo), "little")
    # each entry's block set, complemented for disjunctions, as a word of
    # size bytes, from the top bit of the last slot down
    matrix = b"".join(
        word[b] + b"".join(map(word.__getitem__, rest)) + pads[len(rest)]
        for b, rest in zip(reversed(own), reversed(loo))
    )
    # cut k: bit k % 8 of byte k // 8 of each word, as binary digits (a
    # lead "0" reads as 0 where there are no members)
    cuts = [int(b"0" + matrix[k >> 3 :: size].translate(_DIGITS[k & 7]), 2) for k in range(n_f)]
    return _Members(
        mode, tuple(sets), present, tuple(cuts), tuple(tables), tuple(texts), tuple(parts)
    )


def _keeps(table: _Members, ks: int) -> bytes:
    """Byte i is 1 iff the bound of the block set ks keeps member i, else 0,
    up to the last member kept (see exprs._selectors), so a caller that
    compresses the members by it stops there.

    A conjunction is kept iff its block set lies inside ks and none of its
    leave-one-out block sets does; a disjunction iff its block set contains
    ks and none of its leave-one-out block sets does.  An entry lies inside
    ks iff it holds no block outside ks, and contains ks iff it lacks no
    block of ks, so the entries that fail are the OR of the cuts of those
    blocks, and the rest of present passes.  A slot of present is its top
    bit over a run of leave-one-out bits.  Adding the entries that pass to
    present carries out of that run into the top bit iff a leave-one-out
    entry passes, and an XOR with present takes present's own top bit back
    out; the top bit is then set iff just one of the own entry and a
    leave-one-out entry passes, and the member is kept iff its own entry
    passes as well.  That is O(n_F) int operations for one block set,
    whatever n_F.
    """
    n = len(table.sets)
    if not n:
        return b""
    if table.mode == "conjunction":
        ks ^= (1 << len(table.cuts)) - 1  # the blocks outside ks
    present = table.present
    inside = present ^ reduce(or_, compress(table.cuts, _selectors(ks)), 0)
    kept = inside & ((inside + present) ^ present)
    size = present.bit_length() // n >> 3  # bytes per slot
    # a slot's top byte holds its own entry as its top bit
    return kept.to_bytes(n * size, "little")[size - 1 :: size].translate(_TOP_BIT).rstrip(b"\0")


def irreducible_conjunctions(ctx: FormalContext, xs: BitSet) -> IrredClass:
    """The irreducible conjunction class of extent xs (possibly empty)."""
    return _class_of(ctx, xs, "conjunction")


def irreducible_disjunctions(ctx: FormalContext, xs: BitSet) -> IrredClass:
    """The irreducible disjunction class of extent xs (possibly empty)."""
    return _class_of(ctx, xs, "disjunction")


def _class_of(ctx: FormalContext, xs: BitSet, mode: str) -> IrredClass:
    _want_objects(ctx, xs)
    _guard_cap(ctx)
    m = ctx.n_attributes
    keys = _all_classes(ctx, mode).get(xs.bits, ())
    return IrredClass(xs, mode, tuple(_literal_set(key, m) for key in keys))


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
    block set of xs, in the order of _members; the pick is O(n_F) int
    operations over the member table's cut masks.  The result always
    evaluates to xs and its canonical form equals the corresponding
    bound.  No term (factor) is a constant: the member table holds none,
    and the bounds the empty set would absorb, grsp_dnf of G and gfcp_cnf
    of the empty extent, are TOP and BOTTOM.
    """
    if mode not in ("grsp_dnf", "gfcp_cnf"):
        raise ValueError(f"unknown mode {mode!r}")
    _want_objects(ctx, xs)  # a wrong width is reported before the cap
    _guard_cap(ctx)
    ks = block_set_of(ctx, xs)  # refuses an extent that is not a union of blocks
    if mode == "grsp_dnf":
        if xs.bits == (1 << ctx.n_objects) - 1:
            return TOP
        side, combine, term = "conjunction", disj, LiteralSet.conjunction
    else:
        if not xs.bits:
            return BOTTOM
        side, combine, term = "disjunction", conj, LiteralSet.disjunction
    table, m = _members(ctx, side), ctx.n_attributes
    return combine(term(_literal_set(key, m)) for key in compress(table.sets, _keeps(table, ks)))

