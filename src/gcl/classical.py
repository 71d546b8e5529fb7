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

Extents and intents come from one worklist closure over the columns:
an extent's intent is the set of columns that leave it unchanged.  All
three routes hand (extent, intent) int pairs to one step that sorts them
and takes the covers from Lindig's neighbour test ("Fast Concept
Analysis", 2000) counted over the attributes outside each intent, never
over objects: a lattice of C concepts costs O(C * m) big-int operations
on top of its extents, whatever the number of objects.  The lattice keeps
those ints: the sorted pairs and one ascending list of upper covers per
lower concept.  Its concepts and cover pairs are views over them, and a
concept record or a pair is built only when it is read.  The oracle
keeps the brute-force cover search as an independent check.
"""

from __future__ import annotations

import operator
from collections.abc import Collection, Sequence
from functools import reduce
from operator import and_, or_

from . import exprs, lattice
from .bitset import BitSet
from .context import FormalContext
from .value import Value, View


class FclConcept(Value):
    """extent = objects with every intent attribute; intent = their common row."""

    extent: BitSet
    intent: BitSet


class RslConcept(Value):
    """extent = union of the intent's columns; intent = columns inside extent."""

    extent: BitSet
    intent: BitSet


class _Concepts(View, Sequence):
    """The concepts over the sorted (extent, intent) int pairs ``pairs``,
    each record built when it is read (see value.View)."""

    __slots__ = ("pairs", "_record", "_n", "_m")

    def __init__(self, record: type, pairs: list[tuple[int, int]], n: int, m: int):
        self.pairs, self._record, self._n, self._m = pairs, record, n, m

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i):
        x, y = self.pairs[operator.index(i)]
        return self._record(BitSet(x, self._n), BitSet(y, self._m))


class _Covers(View):
    """Cover pairs (lower, upper), lower then upper ascending, read from
    ``uppers()``; never indexed (see value.View)."""

    __slots__ = ("_uppers", "_n")

    def __init__(self, uppers: list[list[int]]):
        self._uppers, self._n = uppers, sum(map(len, uppers))

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return ((lo, hi) for lo, his in enumerate(self._uppers) for hi in his)

    def uppers(self) -> list[list[int]]:
        """The ascending list of each concept's upper covers, by concept;
        the reader must not change them."""
        return self._uppers


class ClassicalLattice(Value):
    """A classical lattice: its concepts, ascending by (object count,
    extent bits), and its cover pairs (lower, upper), ascending, as
    sequences of records and pairs; built lattices hold views over ints."""

    kind: str
    context: FormalContext
    concepts: Sequence
    hasse_edges: Collection[tuple[int, int]]

    def __post_init__(self):
        if self.kind not in ("fcl", "rsl"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @property
    def sup(self):
        return self.concepts[-1]

    @property
    def inf(self):
        return self.concepts[0]


def _closure(ctx: FormalContext, seed: int, op) -> dict[int, int]:
    """{extent: intent} over the closure of {seed} under op with single
    columns: x & col == x says x lies inside col (FCL), x | col == x that
    col lies inside x (RSL)."""
    cols = tuple(zip(ctx.cols, [1 << j for j in range(ctx.n_attributes)]))
    found = {seed: 0}
    todo = [seed]
    while todo:
        x = todo.pop()
        intent = 0
        for col, bit in cols:
            y = op(x, col)
            if y == x:
                intent |= bit
            elif y not in found:
                found[y] = 0
                todo.append(y)
        found[x] = intent
    return found


def _lattice(kind: str, ctx: FormalContext, pairs) -> ClassicalLattice:
    """The classical lattice of (extent, intent) int pairs, ascending by
    (object count, extent bits).

    Attribute j sends FCL extent x to x & col_j below it and RSL extent x
    to x | col_j above it, or leaves x as it is when j is in x's intent;
    such a candidate y is a cover of x exactly when |intent(y) - intent(x)|
    attributes send x to it.  A candidate missing from pairs gives no edge.
    Each cover goes to its lower concept's list: FCL concepts, read in
    ascending order, are the uppers of their covers, so those lists grow
    ascending; an RSL concept's own uppers come in column order and are
    sorted.
    """
    pairs = sorted(pairs, key=lambda p: (p[0].bit_count(), p[0]))
    index = {x: i for i, (x, _) in enumerate(pairs)}
    fcl = kind == "fcl"
    op = and_ if fcl else or_
    cols = ctx.cols
    uppers = [[] for _ in pairs]
    for i, (x, ix) in enumerate(pairs):
        hits: dict[int, int] = {}
        for col in cols:
            y = op(x, col)
            if y != x:
                hits[y] = hits.get(y, 0) + 1
        own = uppers[i]
        for y, count in hits.items():
            k = index.get(y)
            if k is not None and count == (pairs[k][1] ^ ix).bit_count():
                if fcl:
                    uppers[k].append(i)
                else:
                    own.append(k)
        if not fcl:
            own.sort()
    record = FclConcept if fcl else RslConcept
    concepts = _Concepts(record, pairs, ctx.n_objects, ctx.n_attributes)
    return ClassicalLattice(kind, ctx, concepts, _Covers(uppers))


def build_fcl(ctx: FormalContext) -> ClassicalLattice:
    """Concepts (X, X^I) over all intersections of columns, G included."""
    return _lattice("fcl", ctx, _closure(ctx, (1 << ctx.n_objects) - 1, and_).items())


def build_rsl(ctx: FormalContext) -> ClassicalLattice:
    """Concepts (X, X-box) over all unions of columns, the empty set included."""
    return _lattice("rsl", ctx, _closure(ctx, 0, or_).items())


def recover_classical(lat: lattice.GclLattice, kind: str) -> ClassicalLattice:
    """Rebuild a classical lattice from general nodes alone, read block
    set by block set from the partition's walk as the exporters read
    them: gfcp is the blocks' row table and grsp adds zero_rho.

    Intents come from canonical-bound membership tests, extents are kept
    when they reproduce themselves from their own intent's columns.  The
    attribute tables are as wide as the node bounds, so any lattice that
    build_gcl admitted is read without a further width check.
    """
    if kind not in ("fcl", "rsl"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    ctx, part = lat.context, lat.partition
    lattice._guard_nodes(part.n_f)
    m, empty = ctx.n_attributes, lat.zero_rho.table
    op, start = (or_, 0) if kind == "rsl" else (and_, (1 << ctx.n_objects) - 1)
    # a is inside b iff a & b == a: a negated operand of & (a & ~b) would
    # cost two more passes over a 2^m-bit table per test
    var_tables = [exprs._var_table(j, m) for j in range(m)]
    keep = []
    for extent, rows in part.walk():
        if kind == "rsl":
            grsp = rows | empty
            ys = [j for j, t in enumerate(var_tables) if t & grsp == t]
        else:
            ys = [j for j, t in enumerate(var_tables) if rows & t == rows]
        # the blocks whose row has attribute j cover exactly column j
        rebuilt = reduce(op, [ctx.cols[j] for j in ys], start)
        if rebuilt == extent:
            keep.append((rebuilt, sum(1 << j for j in ys)))
    return _lattice(kind, ctx, keep)
