"""Bound texts and kept members worked out independently of the
exporters' member tables.

A reduced bound comes from the oracle's brute-force walk
(``_reference_intent``), rendered by ``expr_to_str`` and checked by
``to_canonical``; it is printed only if it is shorter than the plain
rendering, ``canonical_to_str``, both lengths taken before any escaping.
The members a block set keeps are tested one member at a time against
block sets folded from the context's columns (``reference_keeps``).
"""

from gcl import BitSet, canonical_to_str, expr_to_str, to_canonical
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

    out = []
    for mu in _members(ctx, mode).sets:
        lits = mu.literals()
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
