"""The immutable value base: the same semantics for every record type."""

import pytest

from gcl import (
    And,
    BitSet,
    BlockPartition,
    CanonicalForm,
    ClassicalLattice,
    ClassSummary,
    FclConcept,
    FormalContext,
    GclLattice,
    GeneralConcept,
    IrredClass,
    LawResult,
    LiteralSet,
    Minterm,
    Not,
    Or,
    OracleReport,
    RslConcept,
    Var,
    build_gcl,
)
from gcl.exprs import _Const


def _ctx():
    return FormalContext(("g1", "g2"), ("a",), (1, 0))


def _lattice_fields():
    lat = build_gcl(_ctx())
    return (lat.context, lat.partition)


# each record type, its fields in order, and a function making fresh,
# equal field values on every call
CASES = [
    (BitSet, ("bits", "width"), lambda: (5, 4)),
    (FormalContext, ("objects", "attributes", "rows"), lambda: (("g1", "g2"), ("a",), (1, 0))),
    (BlockPartition, ("extents", "rows", "n_objects", "n_attributes"), lambda: ((1, 2), (1, 0), 2, 1)),
    (Var, ("index",), lambda: (3,)),
    (Not, ("child",), lambda: (Var(0),)),
    (And, ("children",), lambda: ((Var(0), Not(Var(1))),)),
    (Or, ("children",), lambda: ((Var(0), Var(1)),)),
    (_Const, ("value",), lambda: (True,)),
    (CanonicalForm, ("m_count", "table"), lambda: (2, 0b0110)),
    (Minterm, ("m_count", "id"), lambda: (2, 3)),
    (GeneralConcept, ("block_set", "partition"), lambda: (1, BlockPartition((1, 2), (1, 0), 2, 1))),
    (
        GclLattice,
        ("context", "partition"),
        _lattice_fields,
    ),
    (FclConcept, ("extent", "intent"), lambda: (BitSet(1, 2), BitSet(1, 1))),
    (RslConcept, ("extent", "intent"), lambda: (BitSet(1, 2), BitSet(1, 1))),
    (
        ClassicalLattice,
        ("kind", "context", "concepts", "hasse_edges"),
        lambda: ("fcl", _ctx(), (FclConcept(BitSet(3, 2), BitSet(0, 1)),), ()),
    ),
    (LiteralSet, ("pos", "neg"), lambda: (BitSet(1, 2), BitSet(2, 2))),
    (
        IrredClass,
        ("target", "mode", "members"),
        lambda: (BitSet(1, 2), "conjunction", (LiteralSet(BitSet(1, 1), BitSet(0, 1)),)),
    ),
    (LawResult, ("law", "passed", "witness"), lambda: ("x", False, "why")),
    (
        ClassSummary,
        ("extent", "size", "min_form", "max_form"),
        lambda: (BitSet(1, 2), 2, CanonicalForm(1, 1), CanonicalForm(1, 3)),
    ),
    (
        OracleReport,
        ("digest", "n_objects", "n_attributes", "laws", "classes", "notes"),
        lambda: ("d", 2, 1, (LawResult("x", True),), None, ("note",)),
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_type_is_listed():
    assert len(CASES) == 20


@pytest.mark.parametrize("cls, fields, make", CASES, ids=IDS)
def test_fields_hash_and_repr(cls, fields, make):
    obj = cls(*make())
    values = tuple(getattr(obj, f) for f in fields)
    assert values == make()
    # sets and dicts of records keep the order they had with tuple hashing
    assert hash(obj) == hash(values)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(obj) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields, make", CASES, ids=IDS)
def test_equal_fields_give_equal_objects(cls, fields, make):
    a, b = cls(*make()), cls(*make())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.__eq__(make()) is NotImplemented
    assert a != make()


@pytest.mark.parametrize("cls, fields, make", CASES, ids=IDS)
def test_keyword_construction(cls, fields, make):
    assert cls(**dict(zip(fields, make()))) == cls(*make())
    args = make()
    assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == cls(*args)


@pytest.mark.parametrize("cls, fields, make", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, make):
    obj = cls(*make())
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, f) for f in fields) == make()


@pytest.mark.parametrize("cls, fields, make", CASES, ids=IDS)
def test_bad_argument_lists_are_refused(cls, fields, make):
    args = make()
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, bogus=1)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError):
        cls()


def test_classes_with_equal_fields_differ():
    ext, intent = BitSet(1, 2), BitSet(1, 1)
    assert FclConcept(ext, intent) != RslConcept(ext, intent)
    assert FclConcept(ext, intent) != (ext, intent)
    assert CanonicalForm(2, 3) != Minterm(2, 3)
    assert And((Var(0), Var(1))) != Or((Var(0), Var(1)))
    assert len({FclConcept(ext, intent), RslConcept(ext, intent)}) == 2


def test_defaults_come_from_the_class():
    r = LawResult("x", True)
    assert r.witness is None
    assert r == LawResult("x", True, None) == LawResult(law="x", passed=True)
    with pytest.raises(TypeError):
        LawResult("x")


def test_cached_properties_still_work():
    ctx = _ctx()
    assert ctx.cols == (1,)
    assert ctx.cols is ctx.cols
    assert ctx == _ctx() and hash(ctx) == hash(_ctx())


@pytest.mark.parametrize(
    "build",
    [
        lambda: BitSet(4, 2),
        lambda: BitSet(-1, 2),
        lambda: BitSet(0, -1),
        lambda: And(()),
        lambda: Or(()),
        lambda: Var(-1),
        lambda: CanonicalForm(1, 0b111),
        lambda: Minterm(2, 4),
        lambda: FormalContext(("g", "g"), ("a",), (0, 0)),
        lambda: FormalContext(("g",), ("a", "a"), (0,)),
        lambda: FormalContext(("g",), ("a",), (0, 1)),
        lambda: FormalContext(("g",), ("a",), (2,)),
        lambda: ClassicalLattice("xyz", _ctx(), (), ()),
        lambda: LiteralSet(BitSet(0, 1), BitSet(0, 2)),
        lambda: IrredClass(BitSet(1, 2), "bad", ()),
    ],
)
def test_construction_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()
