"""Bound texts rendered independently of the exporters' member tables.

A reduced bound comes from the oracle's brute-force walk
(``_reference_intent``), rendered by ``expr_to_str`` and checked by
``to_canonical``; it is printed only if it is shorter than the plain
rendering, ``canonical_to_str``, both lengths taken before any escaping.
"""

from gcl import canonical_to_str, expr_to_str, to_canonical
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
