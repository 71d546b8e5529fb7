"""Bound texts, kept members and classical lattices worked out
independently of the exporters' member tables and of the lattices' views.

A reduced bound comes from the oracle's brute-force walk
(``_reference_intent``), rendered by ``expr_to_str`` and checked by
``to_canonical``; it is printed only if it is shorter than the plain
rendering, ``canonical_to_str``, both lengths taken before any escaping.
The members a block set keeps are tested one member at a time against
block sets folded from the context's columns (``reference_keeps``).
A classical lattice is built eagerly, as it was stored before its
concepts and covers became views over ints (``eager_classical``).
"""

from operator import and_, or_

from gcl import BitSet, FclConcept, RslConcept, canonical_to_str, expr_to_str, to_canonical
from gcl.context import block_set_of
from gcl.irreducibles import _members
from gcl.oracle import _reference_intent


def reference_bound(ctx, extent, cf, which: str, fancy: bool) -> str:
    """The text gcl prints for the grsp or gfcp cf of extent, unescaped."""
    base = canonical_to_str(cf, "dnf" if which == "grsp" else "cnf", ctx.attributes)
    if not fancy:
        return base
    expr = _reference_intent(ctx, extent, "grsp_dnf" if which == "grsp" else "gfcp_cnf")
    assert to_canonical(expr, ctx.n_attributes) == cf
    text = expr_to_str(expr, ctx.attributes)
    return text if len(text) < len(base) else base


def member_block_sets(ctx, mode: str) -> list:
    """(own, loo) for each member of the reduced-bound member table of a
    class mode, folded from the context's columns: the block set of the
    member's extent and those of its leave-one-out subsets (none for a
    single literal)."""
    full = (1 << ctx.n_objects) - 1
    conjunction = mode == "conjunction"

    def block_set(lits):
        ext = full if conjunction else 0
        for j, sign in lits:
            col = ctx.cols[j] if sign else full ^ ctx.cols[j]
            ext = ext & col if conjunction else ext | col
        return block_set_of(ctx, BitSet(ext, ctx.n_objects))

    m = ctx.n_attributes
    out = []
    for key in _members(ctx, mode).sets:
        # mask bit j is m_j, bit m + j its negation
        lits = [(j % m, j < m) for j in range(2 * m) if key >> j & 1]
        loo = [block_set(lits[:i] + lits[i + 1 :]) for i in range(len(lits))]
        out.append((block_set(lits), loo if len(lits) > 1 else []))
    return out


def reference_keeps(mode: str, members, ks: int) -> bytes:
    """Byte i is 1 iff the bound of the block set ks keeps member i of
    member_block_sets, by the per-member rule: a conjunction is kept iff
    its block set lies inside ks and none of its leave-one-out block sets
    does; a disjunction iff its block set contains ks and none of its
    leave-one-out block sets does."""
    if mode == "conjunction":
        return bytes(not b & ~ks and all(e & ~ks for e in loo) for b, loo in members)
    return bytes(not ks & ~b and all(ks & ~e for e in loo) for b, loo in members)


def eager_classical(kind: str, ctx, pairs) -> tuple[tuple, tuple]:
    """(concepts, covers) of the classical lattice of the (extent, intent)
    int pairs: a tuple of records, one per pair and two BitSets each,
    ascending by (object count, extent bits), and the tuple of sorted
    cover pairs (lower, upper) from Lindig's neighbour test."""
    pairs = sorted(pairs, key=lambda p: (p[0].bit_count(), p[0]))
    index = {x: i for i, (x, _) in enumerate(pairs)}
    op = and_ if kind == "fcl" else or_
    edges = []
    for i, (x, ix) in enumerate(pairs):
        hits = {}
        for col in ctx.cols:
            y = op(x, col)
            if y != x:
                hits[y] = hits.get(y, 0) + 1
        for y, count in hits.items():
            k = index.get(y)
            if k is not None and count == (pairs[k][1] ^ ix).bit_count():
                edges.append((k, i) if kind == "fcl" else (i, k))
    record = FclConcept if kind == "fcl" else RslConcept
    n, m = ctx.n_objects, ctx.n_attributes
    concepts = tuple(record(BitSet(x, n), BitSet(y, m)) for x, y in pairs)
    return concepts, tuple(sorted(edges))
