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
"""

from __future__ import annotations

from functools import lru_cache

from .bitset import BitSet
from .context import FormalContext, _want_objects, block_set_of
from .errors import CapExceeded
from .exprs import AttrExpr, conj, disj, literal
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


@lru_cache(maxsize=32)
def _quotient_terms(
    ctx: FormalContext, mode: str
) -> tuple[tuple[int, AttrExpr, tuple[int, ...]], ...]:
    """(extent bits, expression, leave-one-out extents) of every member,
    ordered by the block set of its extent (every extent is a union of
    blocks), as an int, and in class order within one extent."""
    classes = _all_classes(ctx, mode)
    return tuple(
        (
            ext,
            mu.conjunction() if mode == "conjunction" else mu.disjunction(),
            tuple(_leave_one_out(ctx, mu, mode)),
        )
        for ext in sorted(classes, key=lambda e: block_set_of(ctx, BitSet(e, ctx.n_objects)))
        for mu in classes[ext]
    )


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
    module docstring, so the work is one pass over the members: keep one
    iff its extent lies inside xs (contains xs) and none of its
    leave-one-out extents does, in the block-set order of the extents.
    The result always evaluates to xs and its canonical form equals the
    corresponding bound.
    """
    if mode not in ("grsp_dnf", "gfcp_cnf"):
        raise ValueError(f"unknown mode {mode!r}")
    _want_objects(ctx, xs)  # a wrong width is reported before the cap
    _guard_cap(ctx)
    block_set_of(ctx, xs)  # refuses an extent that is not a union of blocks
    x = xs.bits

    if mode == "grsp_dnf":
        return disj(
            term
            for ext, term, loo in _quotient_terms(ctx, "conjunction")
            if ext & ~x == 0 and not any(e & ~x == 0 for e in loo)
        )
    return conj(
        term
        for ext, term, loo in _quotient_terms(ctx, "disjunction")
        if x & ~ext == 0 and not any(x & ~e == 0 for e in loo)
    )
