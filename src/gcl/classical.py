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

Extents come from one worklist closure over the columns.  All three
routes hand their concepts to one step that sorts them and takes the
covers from Lindig's neighbour test ("Fast Concept Analysis", 2000),
counted over the attributes outside each intent, never over objects: a
lattice of C concepts costs O(C * m) big-int operations on top of its
extents, whatever the number of objects.  The oracle keeps the
brute-force cover search as an independent check.
"""

from __future__ import annotations

from operator import and_, or_

from .bitset import BitSet
from .context import FormalContext, box_of, intent_of
from .exprs import _var_table
from .lattice import GclLattice
from .value import Value


class FclConcept(Value):
    """extent = objects with every intent attribute; intent = their common row."""

    extent: BitSet
    intent: BitSet


class RslConcept(Value):
    """extent = union of the intent's columns; intent = columns inside extent."""

    extent: BitSet
    intent: BitSet


class ClassicalLattice(Value):
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


def _closure(ctx: FormalContext, seed: int, op) -> set[int]:
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
    return found


def _lattice(kind: str, ctx: FormalContext, concepts) -> ClassicalLattice:
    """The classical lattice of concepts, ascending by (object count, bits).

    Covers come from Lindig's counting test over the attributes outside
    each intent: attribute j sends FCL extent x to x & col_j below it and
    RSL extent x to x | col_j above it, and such a candidate y is a cover
    of x exactly when |intent(y) - intent(x)| attributes send x to it.  A
    candidate missing from concepts gives no edge.
    """
    concepts = sorted(concepts, key=lambda c: (len(c.extent), c.extent.bits))
    index = {c.extent.bits: i for i, c in enumerate(concepts)}
    op = and_ if kind == "fcl" else or_
    cols = ctx.cols
    edges = []
    for i, c in enumerate(concepts):
        x, ix = c.extent.bits, c.intent.bits
        hits: dict[int, int] = {}
        for j, col in enumerate(cols):
            if not ix >> j & 1:
                y = op(x, col)
                hits[y] = hits.get(y, 0) + 1
        for y, count in hits.items():
            k = index.get(y)
            if k is not None and count == (concepts[k].intent.bits ^ ix).bit_count():
                edges.append((k, i) if kind == "fcl" else (i, k))
    return ClassicalLattice(kind, ctx, tuple(concepts), tuple(sorted(edges)))


def build_fcl(ctx: FormalContext) -> ClassicalLattice:
    """Concepts (X, X^I) over all intersections of columns, G included."""
    return _lattice("fcl", ctx, (
        FclConcept(ext := BitSet(bits, ctx.n_objects), intent_of(ctx, ext))
        for bits in _closure(ctx, (1 << ctx.n_objects) - 1, and_)
    ))


def build_rsl(ctx: FormalContext) -> ClassicalLattice:
    """Concepts (X, X-box) over all unions of columns, the empty set included."""
    return _lattice("rsl", ctx, (
        RslConcept(ext := BitSet(bits, ctx.n_objects), box_of(ctx, ext))
        for bits in _closure(ctx, 0, or_)
    ))


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
    # a is inside b iff a & b == a: a negated operand of & (a & ~b) would
    # cost two more passes over a 2^m-bit table per test
    var_tables = [_var_table(j, m) for j in range(m)]

    concept = RslConcept if kind == "rsl" else FclConcept
    keep = []
    for node in lat.nodes:
        if kind == "rsl":
            grsp = node.grsp.table
            ys = [j for j, t in enumerate(var_tables) if t & grsp == t]
            rebuilt = 0
            for j in ys:
                rebuilt |= col_bits[j]
        else:
            gfcp = node.gfcp.table
            ys = [j for j, t in enumerate(var_tables) if gfcp & t == gfcp]
            rebuilt = (1 << ctx.n_objects) - 1
            for j in ys:
                rebuilt &= col_bits[j]
        if rebuilt != node.extent.bits:
            continue
        keep.append(concept(node.extent, BitSet.of(ys, m)))

    return _lattice(kind, ctx, keep)
