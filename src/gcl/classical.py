"""The two classical concept lattices and their recovery from the general one.

FCL concepts pair an intersection of attribute columns with the
attributes shared by all its objects; RSL concepts pair a union of
columns with the attributes whose column it swallows.  Both extent
families sit inside the block-union family, so every classical concept
also appears as a general node, and membership of a plain attribute in a
classical intent can be read off the node's canonical bounds alone:
m lies in the RSL intent of X iff the minterm set of m is inside the
disjunctive bound of X, and in the FCL intent iff the conjunctive bound
of X is inside the minterm set of m.  recover_classical exploits exactly
that, making it an independent route to the same lattices.

Extents come from one worklist closure over the columns, and both routes
take their covers from the upper-neighbour construction of Lindig, "Fast
Concept Analysis" (2000); the oracle keeps the brute-force cover search
as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, or_

from .bitset import BitSet
from .context import FormalContext, box_of, intent_of
from .exprs import _var_table
from .lattice import GclLattice


@dataclass(frozen=True)
class FclConcept:
    """extent = objects with every intent attribute; intent = their common row."""

    extent: BitSet
    intent: BitSet


@dataclass(frozen=True)
class RslConcept:
    """extent = union of the intent's columns; intent = columns inside extent."""

    extent: BitSet
    intent: BitSet


@dataclass(frozen=True)
class ClassicalLattice:
    kind: str
    context: FormalContext
    concepts: tuple
    hasse_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.kind not in ("fcl", "rsl"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @property
    def sup(self):
        return self.concepts[-1]

    @property
    def inf(self):
        return self.concepts[0]


def _closure(ctx: FormalContext, seed: int, op) -> list[int]:
    # worklist closure of {seed} under combining with single columns
    found = {seed}
    todo = [seed]
    while todo:
        cur = todo.pop()
        for col in ctx.cols:
            new = op(cur, col)
            if new not in found:
                found.add(new)
                todo.append(new)
    return sorted(found, key=lambda b: (b.bit_count(), b))


def _covers(
    kind: str, ext_bits: list[int], cols, full: int
) -> tuple[tuple[int, int], ...]:
    """Cover pairs (lower, upper) of a classical extent family, ascending.

    For each FCL extent x, each object g outside it closes x + g to the
    least extent y above both; y covers x exactly when every one of the
    |y - x| objects it adds closes x to y (Lindig's counting test).  RSL
    extents are the complements of the intersections of complemented
    columns, so their covers are that dual family's covers reversed.
    Closures missing from ext_bits give no edge.
    """
    if kind == "rsl":
        dual = [full ^ b for b in ext_bits]
        edges = _covers("fcl", dual, [full ^ c for c in cols], full)
        return tuple(sorted((hi, lo) for lo, hi in edges))
    index = {bits: i for i, bits in enumerate(ext_bits)}
    edges = []
    for i, x in enumerate(ext_bits):
        above = [c for c in cols if x & ~c == 0]
        hits: dict[int, int] = {}
        rest = full & ~x
        while rest:
            g = rest & -rest
            rest ^= g
            y = full
            for c in above:
                if c & g:
                    y &= c
            hits[y] = hits.get(y, 0) + 1
        for y, count in hits.items():
            j = index.get(y)
            if j is not None and count == (y ^ x).bit_count():
                edges.append((i, j))
    return tuple(sorted(edges))


def build_fcl(ctx: FormalContext) -> ClassicalLattice:
    """Concepts (X, X^I) over all intersections of columns, G included."""
    full = (1 << ctx.n_objects) - 1
    ext_bits = _closure(ctx, full, and_)
    concepts = tuple(
        FclConcept(ext := BitSet(bits, ctx.n_objects), intent_of(ctx, ext))
        for bits in ext_bits
    )
    edges = _covers("fcl", ext_bits, ctx.cols, full)
    return ClassicalLattice("fcl", ctx, concepts, edges)


def build_rsl(ctx: FormalContext) -> ClassicalLattice:
    """Concepts (X, X-box) over all unions of columns, the empty set included."""
    ext_bits = _closure(ctx, 0, or_)
    concepts = tuple(
        RslConcept(ext := BitSet(bits, ctx.n_objects), box_of(ctx, ext))
        for bits in ext_bits
    )
    edges = _covers("rsl", ext_bits, ctx.cols, (1 << ctx.n_objects) - 1)
    return ClassicalLattice("rsl", ctx, concepts, edges)


def recover_classical(lat: GclLattice, kind: str) -> ClassicalLattice:
    """Rebuild a classical lattice from general nodes alone.

    Intents come from canonical-bound membership tests, extents are kept
    when they reproduce themselves from their own intent's columns.  The
    attribute tables are as wide as the node bounds, so any lattice that
    build_gcl admitted is read without a further width check.
    """
    if kind not in ("fcl", "rsl"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    ctx = lat.context
    m = ctx.n_attributes

    # the blocks whose row has attribute j cover exactly column j
    col_bits = ctx.cols
    var_tables = [_var_table(j, m) for j in range(m)]

    keep = []
    for node in lat.nodes:
        if kind == "rsl":
            ys = [j for j in range(m) if var_tables[j] & ~node.grsp.table == 0]
            rebuilt = 0
            for j in ys:
                rebuilt |= col_bits[j]
        else:
            ys = [j for j in range(m) if node.gfcp.table & ~var_tables[j] == 0]
            rebuilt = (1 << ctx.n_objects) - 1
            for j in ys:
                rebuilt &= col_bits[j]
        if rebuilt != node.extent.bits:
            continue
        intent = BitSet.of(ys, m)
        if kind == "rsl":
            keep.append(RslConcept(node.extent, intent))
        else:
            keep.append(FclConcept(node.extent, intent))

    keep.sort(key=lambda c: (len(c.extent), c.extent.bits))
    ext_bits = [c.extent.bits for c in keep]
    edges = _covers(kind, ext_bits, col_bits, (1 << ctx.n_objects) - 1)
    return ClassicalLattice(kind, ctx, tuple(keep), edges)
