"""Construction of the general concept lattice of a context.

Minterm t (one polarity choice per attribute) holds exactly on the
objects whose row equals t, so its extent is either empty or one whole
block of row-identical objects.  Consequences used throughout:

* the extents that carry concepts are exactly the unions of blocks
  (2^n_F of them for n_F blocks), and they form a Boolean algebra;
* the conjunctive bound (gfcp) of such an extent X is the set of block
  rows lying inside X, and the disjunctive bound (grsp) adds every
  minterm with empty extent on top;
* meet and join are intersection and union of extents, and the cover
  relation is "differs in exactly one block".

Each node therefore stores its block subset as an int id; node ids
double as indices into the lattice's node sequence.  Nodes are built on
demand: ``build_gcl`` only partitions the context and computes the two
minterm tables, and a node or cover pair costs O(n_F) int operations
when it is first read.  Block sets are mapped to extents and back only
through ``BlockPartition.union`` and ``block_set_of`` in ``context``.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

from .bitset import BitSet
from .context import BlockPartition, FormalContext, block_set_of, blocks
from .errors import CapExceeded
from .exprs import (
    DEFAULT_CANONICAL_CAP,
    AttrExpr,
    CanonicalForm,
    _guard_cap,
    eval_contextual,
)

DEFAULT_NODE_CAP = 20


@dataclass(frozen=True)
class GeneralConcept:
    """A lattice node: an extent with its two canonical attribute bounds.

    grsp is the largest composite attribute whose extent is exactly the
    node's extent, gfcp the smallest; every composite attribute with this
    extent sits between them.
    """

    block_set: int
    extent: BitSet
    grsp: CanonicalForm
    gfcp: CanonicalForm


class _View(Sequence):
    """A read-only sequence computed on demand; equal by content to a tuple.

    Subclasses give ``__len__`` and ``_at(i)`` for 0 <= i < len.
    """

    __slots__ = ()

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return tuple(map(self._at, range(n)[i]))
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for {n} items")
        return self._at(i)

    def __iter__(self):
        return map(self._at, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (tuple, _View)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))


class _Nodes(_View):
    """The 2^n_F nodes by block-set id, each built once on first access.

    Keeping built nodes makes meet, join and dagger return the very node
    objects the sequence hands out.
    """

    __slots__ = ("_ctx", "_part", "_empty", "_built")

    def __init__(self, ctx: FormalContext, part: BlockPartition, empty_table: int):
        self._ctx = ctx
        self._part = part
        self._empty = empty_table
        self._built: dict[int, GeneralConcept] = {}

    def __len__(self) -> int:
        return 1 << self._part.n_f

    def _at(self, block_set: int) -> GeneralConcept:
        node = self._built.get(block_set)
        if node is None:
            node = _concept(self._ctx, self._part, block_set, self._empty)
            self._built[block_set] = node
        return node


class _Edges(_View):
    """Cover pairs (ks, ks | 1 << k): ks ascending, then k ascending."""

    __slots__ = ("_nf",)

    def __init__(self, n_f: int):
        self._nf = n_f

    def __len__(self) -> int:
        return (self._nf << self._nf) >> 1

    def __iter__(self):
        nf = self._nf
        for ks in range(1 << nf):
            for k in range(nf):
                if not ks >> k & 1:
                    yield ks, ks | 1 << k

    def _below(self, ks: int) -> int:
        """How many pairs have a lower end under ks: n_F free blocks per
        block set, less the set bits of 0 .. ks-1 counted per bit."""
        taken = 0
        for b in range(self._nf):
            taken += (ks >> (b + 1) << b) + max(0, ks % (2 << b) - (1 << b))
        return self._nf * ks - taken

    def _at(self, i: int) -> tuple[int, int]:
        lo, hi = 0, (1 << self._nf) - 1
        while lo < hi:  # the largest ks with _below(ks) <= i
            mid = (lo + hi + 1) // 2
            if self._below(mid) <= i:
                lo = mid
            else:
                hi = mid - 1
        skip = i - self._below(lo)
        free = [k for k in range(self._nf) if not lo >> k & 1]
        return lo, lo | 1 << free[skip]


@dataclass(frozen=True)
class GclLattice:
    context: FormalContext
    partition: BlockPartition
    nodes: Sequence[GeneralConcept]
    hasse_edges: Sequence[tuple[int, int]]
    zero_rho: CanonicalForm
    one_eta: CanonicalForm

    @property
    def sup(self) -> GeneralConcept:
        return self.nodes[-1]

    @property
    def inf(self) -> GeneralConcept:
        return self.nodes[0]

    def node_of(self, xs: BitSet) -> GeneralConcept:
        """The node with extent xs; raises NotAGeneralExtent otherwise."""
        return self.nodes[block_set_of(self.context, xs)]


def _guard_nodes(n_f: int, cap: int = DEFAULT_NODE_CAP) -> None:
    if n_f > cap:
        raise CapExceeded(
            f"{n_f} blocks exceed the node cap of {cap} "
            f"(the lattice would need 2^{n_f} nodes)"
        )


def _tables(ctx: FormalContext, part: BlockPartition) -> tuple[int, int]:
    """(realized, empty) minterm tables: block rows vs extent-free minterms."""
    realized = 0
    for row in part.intent_ids():
        realized |= 1 << row
    full = (1 << (1 << ctx.n_attributes)) - 1
    return realized, full ^ realized


def contextual_constants(ctx: FormalContext) -> tuple[CanonicalForm, CanonicalForm]:
    """(zero_rho, one_eta): the grsp of the empty extent and the gfcp of G.

    zero_rho collects every minterm with empty extent; one_eta is its
    complement, the minterms that occur as block rows.
    """
    # n_F never exceeds the object count, so only the canonical cap applies
    lat = build_gcl(ctx, ctx.n_objects)
    return lat.zero_rho, lat.one_eta


def extent_family(ctx: FormalContext) -> list[BitSet]:
    """All unions of blocks, in ascending block-set id order."""
    part = blocks(ctx)
    _guard_nodes(part.n_f)
    return [BitSet(part.union(ks), ctx.n_objects) for ks in range(1 << part.n_f)]


def _concept(
    ctx: FormalContext, part: BlockPartition, block_set: int, empty_table: int
) -> GeneralConcept:
    gfcp = 0
    for k, b in enumerate(part.blocks):
        if block_set >> k & 1:
            gfcp |= 1 << b.intent.bits
    m = ctx.n_attributes
    return GeneralConcept(
        block_set,
        BitSet(part.union(block_set), ctx.n_objects),
        CanonicalForm(m, gfcp | empty_table),
        CanonicalForm(m, gfcp),
    )


def general_concept(ctx: FormalContext, xs: BitSet) -> GeneralConcept:
    """The concept at extent xs; xs must be a union of blocks."""
    return build_gcl(ctx).node_of(xs)


def build_gcl(
    ctx: FormalContext,
    node_cap: int = DEFAULT_NODE_CAP,
    canonical_cap: int = DEFAULT_CANONICAL_CAP,
) -> GclLattice:
    """The lattice: one node per union of blocks, built when first read.

    Node ids are block-set ints, so node i & node j indexes the meet and
    node i | node j the join.  Hasse edges connect nodes differing in
    exactly one block, listed as (lower, upper) pairs in ascending order.
    """
    part = blocks(ctx)
    _guard_nodes(part.n_f, node_cap)
    _guard_cap(ctx.n_attributes, canonical_cap)
    realized, empty = _tables(ctx, part)
    m = ctx.n_attributes
    return GclLattice(
        ctx,
        part,
        _Nodes(ctx, part, empty),
        _Edges(part.n_f),
        CanonicalForm(m, empty),
        CanonicalForm(m, realized),
    )


# ---------------------------------------------------------------------------
# lattice operations

def leq(a: GeneralConcept, b: GeneralConcept) -> bool:
    """Order by extent inclusion (equivalently by either canonical bound)."""
    if a.extent.width != b.extent.width:
        raise ValueError("concepts come from different contexts")
    return a.block_set & ~b.block_set == 0


def meet(lat: GclLattice, a: GeneralConcept, b: GeneralConcept) -> GeneralConcept:
    return lat.nodes[a.block_set & b.block_set]


def join(lat: GclLattice, a: GeneralConcept, b: GeneralConcept) -> GeneralConcept:
    return lat.nodes[a.block_set | b.block_set]


def dagger(lat: GclLattice, a: GeneralConcept) -> GeneralConcept:
    """The conjugate node: complement extent, negated and swapped bounds.

    grsp of the image is the negation of gfcp of a and vice versa, so the
    map is an order-reversing involution.
    """
    full = (1 << lat.partition.n_f) - 1
    return lat.nodes[a.block_set ^ full]


def equivalent_class_membership(
    ctx: FormalContext, expr: AttrExpr, xs: BitSet
) -> bool:
    """Does expr belong to the attribute class of extent xs?"""
    return eval_contextual(ctx, expr) == xs
