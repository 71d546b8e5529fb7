"""General concept lattices over binary formal contexts.

A context assigns binary attributes to objects.  Rows partition the
objects into blocks; the unions of blocks form a Boolean family of
extents, and each extent is a general concept carrying two canonical
composite attributes as bounds (gfcp below, grsp above).  The package
builds that lattice, the classical intersection (fcl) and union (rsl)
lattices both directly and from the general lattice, the irreducible
literal-set classes behind reduced descriptions, and a brute-force
oracle that re-derives everything independently.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names by home module; importing gcl binds them all, module by
# module in this order, and __all__ lists them sorted
_PUBLIC = {
    "bitset": ("BitSet",),
    "classical": (
        "ClassicalLattice",
        "FclConcept",
        "RslConcept",
        "build_fcl",
        "build_rsl",
        "recover_classical",
    ),
    "context": (
        "BlockPartition",
        "FormalContext",
        "approx_box",
        "approx_diamond",
        "blocks",
        "box_of",
        "context_to_cxt",
        "diamond_of",
        "extent_of",
        "intent_of",
        "parse_context",
    ),
    "errors": (
        "CapExceeded",
        "GclError",
        "InvariantError",
        "NotAGeneralExtent",
        "ParseError",
    ),
    "exprs": (
        "And",
        "AttrExpr",
        "BOTTOM",
        "CanonicalForm",
        "Minterm",
        "Not",
        "Or",
        "TOP",
        "Var",
        "atoms_coatoms",
        "canonical_to_expr",
        "canonical_to_str",
        "conj",
        "disj",
        "eval_contextual",
        "expr_to_str",
        "intrinsic_compare",
        "literal",
        "parse_expr",
        "to_canonical",
    ),
    "irreducibles": (
        "IrredClass",
        "LiteralSet",
        "irreducible_conjunctions",
        "irreducible_disjunctions",
        "is_member",
        "quotient_class",
        "simplified_intent",
    ),
    "lattice": (
        "GclLattice",
        "GeneralConcept",
        "build_gcl",
        "contextual_constants",
        "dagger",
        "equivalent_class_membership",
        "extent_family",
        "general_concept",
        "join",
        "leq",
        "meet",
    ),
    "oracle": (
        "ClassSummary",
        "LawResult",
        "OracleReport",
        "context_digest",
        "enumerate_mstar",
        "random_context",
        "verify_laws",
    ),
}

globals().update(
    (name, getattr(import_module(f"{__name__}.{home}"), name))
    for home, names in _PUBLIC.items()
    for name in names
)

__all__ = sorted(name for names in _PUBLIC.values() for name in names)
