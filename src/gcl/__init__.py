"""General concept lattices over binary formal contexts.

A context assigns binary attributes to objects.  Rows partition the
objects into blocks; the unions of blocks form a Boolean family of
extents, and each extent is a general concept carrying two canonical
composite attributes as bounds (gfcp below, grsp above).  The package
builds that lattice, the classical intersection (fcl) and union (rsl)
lattices both directly and from the general lattice, the irreducible
literal-set classes behind reduced descriptions, and a brute-force
oracle that re-derives everything independently.

Importing gcl runs none of its modules.  Each home module of a public name
is registered in sys.modules, and on the package, as a deferred module: the
first read of a name it lacks runs it, into the same module object, under
one lock, so it runs once even when two threads read it first together.  A
public name is bound on the package on its first read.  A command thus runs
only the modules it reads: a plain build or inspect of the general lattice
never runs oracle, irreducibles or classical.
"""

import sys
from _thread import RLock
from importlib.machinery import PathFinder
from types import ModuleType

__version__ = "0.1.0"

# the public names by home module, bound on first read (see __getattr__);
# __all__ lists them sorted
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
        "random_context",
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
        "verify_laws",
    ),
}

__all__ = sorted(name for names in _PUBLIC.values() for name in names)

_lock = RLock()
_running = set()  # the deferred modules being run, to refuse a re-entrant run


class _Deferred(ModuleType):
    """A registered module that has not run yet.

    The first read of a name it lacks runs the module's code into this
    object and switches its class back to ModuleType.  A reader in another
    thread waits on the lock until the run is done; a read from the run
    itself sees the names defined so far, as a circular import would.
    """

    def __getattr__(self, name):
        with _lock:
            if type(self) is _Deferred and self not in _running:
                _running.add(self)
                try:
                    self.__spec__.loader.exec_module(self)
                finally:
                    _running.discard(self)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, name)


def __getattr__(name):
    """A public name, read from its home module and bound here (PEP 562)."""
    for home, names in _PUBLIC.items():
        if name in names:
            value = globals()[name] = getattr(globals()[home], name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _deferred(home: str) -> _Deferred:
    """The home module home, registered in sys.modules and not run."""
    spec = PathFinder.find_spec(f"{__name__}.{home}", __path__)
    module = _Deferred(spec.name)
    module.__spec__, module.__loader__, module.__package__ = spec, spec.loader, __name__
    module.__file__, module.__cached__ = spec.origin, spec.cached
    sys.modules[spec.name] = module
    return module


globals().update((home, _deferred(home)) for home in _PUBLIC)
