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

A node is therefore its block subset, an int id, and no 2^m-bit table:
its extent and bounds are computed from the partition.  Node ids double
as indices into the lattice's node sequence.  The lattice is the pair of
the context and its partition, which it compares and hashes by, and the
rest is derived when read: ``build_gcl`` only partitions the context,
reading a node costs O(n_F) int operations at any n_F and builds a new
node, equal to any other read of that id, and the cover pairs are
generated as they are iterated.  Only walking all 2^n_F nodes or covers
is refused past the node cap of 20 blocks.  Block sets are mapped to
extents and back only through ``BlockPartition.union`` and
``block_set_of`` in ``context``, and to their gfcp tables only through
``BlockPartition.row_table``; a walk over every block set reads both
from ``BlockPartition.walk``.  The irreducible classes alone fold their
extents' block sets from their literals (``irreducibles._class_block_sets``).
"""

from __future__ import annotations

import operator
from functools import cached_property
from collections.abc import Collection, Sequence

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
from .value import Value

DEFAULT_NODE_CAP = 20


class GeneralConcept(Value):
    """A lattice node: a block set, its extent and two canonical bounds.

    grsp is the largest composite attribute whose extent is exactly the
    node's extent, gfcp the smallest; every composite attribute with this
    extent sits between them.  None of the three is stored: the extent is
    the union of the node's blocks, gfcp the table of their rows, grsp
    the complement of the rows of all other blocks (the gfcp rows plus the
    extent-free minterms of zero_rho), each computed from the partition
    when read.
    """

    block_set: int
    partition: BlockPartition

    @property
    def extent(self) -> BitSet:
        return BitSet(self.partition.union(self.block_set), self.partition.n_objects)

    @property
    def gfcp(self) -> CanonicalForm:
        part = self.partition
        return CanonicalForm(part.n_attributes, part.row_table(self.block_set))

    @property
    def grsp(self) -> CanonicalForm:
        part, m = self.partition, self.partition.n_attributes
        others = part.row_table(self.block_set ^ ((1 << part.n_f) - 1))
        return CanonicalForm(m, others ^ ((1 << (1 << m)) - 1))


class _View(Collection):
    """A read-only collection over the cube of n_F blocks, computed on
    demand; equal by content to a tuple.

    Subclasses set ``_nf`` and ``_n``, the item count, and give ``_walk()``.
    Iteration walks the whole cube, so it is refused past the node cap,
    and so are membership, equality and hashing, which iterate.
    """

    __slots__ = ("_nf", "_n")

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        _guard_nodes(self._nf)
        return self._walk()

    def __contains__(self, item) -> bool:
        return any(x == item for x in self)

    def __eq__(self, other):
        if not isinstance(other, (tuple, _View)):
            return NotImplemented
        pairs = zip(self, other)  # refused here past the node cap
        return len(self) == len(other) and all(a == b for a, b in pairs)

    def __hash__(self):
        return hash(tuple(self))


class _Nodes(_View, Sequence):
    """The 2^n_F nodes by block-set id, each built when it is read.

    Indexing reads ``_n``, not ``len`` (which stops at 2^63 - 1), so a
    node is reached at any n_F.  No node is kept: reading an id twice, or
    reaching it through meet, join or dagger, gives equal nodes, not the
    same object.
    """

    __slots__ = ("_part",)

    def __init__(self, part: BlockPartition):
        self._nf, self._n = part.n_f, 1 << part.n_f
        self._part = part

    def __getitem__(self, i) -> GeneralConcept:
        n = self._n
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for {n} items")
        return GeneralConcept(i, self._part)

    def _walk(self):
        return map(self.__getitem__, range(self._n))


class _Edges(_View):
    """Cover pairs (ks, ks | 1 << k), ks then k ascending; never indexed.
    ``uppers`` lists them per lower node, and the pairs are read from it."""

    __slots__ = ()

    def __init__(self, n_f: int):
        self._nf, self._n = n_f, (n_f << n_f) >> 1

    def uppers(self):
        """The list of each block set's upper covers ks | 1 << k, k
        ascending, for the block sets in ascending order; refused past
        the node cap."""
        _guard_nodes(self._nf)
        singles = [1 << k for k in range(self._nf)]
        return ([ks | b for b in singles if not ks & b] for ks in range(1 << self._nf))

    def _walk(self):
        return ((lo, hi) for lo, his in enumerate(self.uppers()) for hi in his)


class GclLattice(Value):
    """A context and its block partition; the views over the cube of block
    sets and the two minterm tables are derived when first read."""

    context: FormalContext
    partition: BlockPartition

    @cached_property
    def nodes(self) -> Sequence[GeneralConcept]:
        return _Nodes(self.partition)

    @cached_property
    def hasse_edges(self) -> Collection[tuple[int, int]]:
        return _Edges(self.partition.n_f)

    @cached_property
    def one_eta(self) -> CanonicalForm:
        """The gfcp of G: the minterms that occur as block rows."""
        part = self.partition
        return CanonicalForm(part.n_attributes, part.row_table((1 << part.n_f) - 1))

    @cached_property
    def zero_rho(self) -> CanonicalForm:
        """The grsp of the empty extent: the minterms with empty extent."""
        return ~self.one_eta

    @property
    def sup(self) -> GeneralConcept:
        return self.nodes[-1]

    @property
    def inf(self) -> GeneralConcept:
        return self.nodes[0]

    def node_of(self, xs: BitSet) -> GeneralConcept:
        """The node with extent xs; raises NotAGeneralExtent otherwise."""
        return self.nodes[block_set_of(self.context, xs)]


def _guard_nodes(n_f: int) -> None:
    """Refuse to walk all 2^n_F nodes or covers past the node cap."""
    if n_f > DEFAULT_NODE_CAP:
        raise CapExceeded(
            f"{n_f} blocks exceed the node cap of {DEFAULT_NODE_CAP} "
            f"(the lattice would need 2^{n_f} nodes)"
        )


def contextual_constants(ctx: FormalContext) -> tuple[CanonicalForm, CanonicalForm]:
    """(zero_rho, one_eta): the grsp of the empty extent and the gfcp of G.

    zero_rho collects every minterm with empty extent; one_eta is its
    complement, the minterms that occur as block rows.
    """
    lat = build_gcl(ctx)
    return lat.zero_rho, lat.one_eta


def extent_family(ctx: FormalContext) -> list[BitSet]:
    """All unions of blocks, in ascending block-set id order."""
    part = blocks(ctx)
    _guard_nodes(part.n_f)
    return [BitSet(part.union(ks), ctx.n_objects) for ks in range(1 << part.n_f)]


def general_concept(ctx: FormalContext, xs: BitSet) -> GeneralConcept:
    """The concept at extent xs; xs must be a union of blocks."""
    return build_gcl(ctx).node_of(xs)


def build_gcl(
    ctx: FormalContext, canonical_cap: int = DEFAULT_CANONICAL_CAP
) -> GclLattice:
    """The lattice: one node per union of blocks, built when read.

    Node ids are block-set ints, so node i & node j indexes the meet and
    node i | node j the join.  Hasse edges connect nodes differing in
    exactly one block, listed as (lower, upper) pairs in ascending order.
    """
    _guard_cap(ctx.n_attributes, canonical_cap)
    return GclLattice(ctx, blocks(ctx))


# ---------------------------------------------------------------------------
# lattice operations

def leq(a: GeneralConcept, b: GeneralConcept) -> bool:
    """Order by extent inclusion (equivalently by either canonical bound)."""
    if a.partition.n_objects != b.partition.n_objects:
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
