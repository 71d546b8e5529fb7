"""The independent checker: law suite, composite-attribute sweep, rng."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import contexts
from gcl import (
    BitSet,
    CanonicalForm,
    CapExceeded,
    FormalContext,
    LawResult,
    OracleReport,
    build_gcl,
    context_digest,
    context_to_cxt,
    enumerate_mstar,
    random_context,
    verify_laws,
)

T1_CXT = "B\n\n3\n2\n\ng1\ng2\ng3\na\nb\nX.\nXX\n.X\n"

ALL_LAWS = (
    "triple-application",
    "operator-monotonicity",
    "complement-duality",
    "rough-set-conjugates",
    "column-extent-in-both",
    "concept-reconstruction",
    "extent-fixpoint",
    "extent-family-closure",
    "canonical-census",
    "intrinsic-order-soundness",
    "conjugation-involution",
    "bound-recursion",
    "block-cover-decomposition",
    "single-block-bounds",
    "constants-decomposition",
    "order-criterion-agreement",
    "classical-route-equality",
    "literal-own-class",
    "negation-swap",
)


# --- law suite ---


def test_all_laws_run_and_pass(t1):
    rep = verify_laws(t1)
    assert tuple(r.law for r in rep.laws) == ALL_LAWS
    assert rep.all_passed
    assert rep.failures() == []
    assert all(r.witness is None for r in rep.laws)
    assert rep.n_objects == 3 and rep.n_attributes == 2
    # the standing caveat about pool containment is always the first note
    assert len(rep.notes) == 1
    assert "by inclusion" in rep.notes[0]


def test_big_context_skips_census():
    ctx = random_context(7, 5, 4, 0.5)
    rep = verify_laws(ctx)
    names = {r.law for r in rep.laws}
    assert "canonical-census" not in names
    assert "intrinsic-order-soundness" not in names
    assert names == set(ALL_LAWS) - {"canonical-census", "intrinsic-order-soundness"}
    assert any(n.startswith("skipped canonical-census") for n in rep.notes)
    assert rep.all_passed


def test_wide_context_runs_every_node_law():
    # 3 x 20: each bound is a 2^20-bit table, so evaluating one must read
    # the few rows, not walk the table's set bits one at a time
    ctx = random_context(5, 3, 20, 0.5)
    rep = verify_laws(ctx)
    assert {r.law for r in rep.laws} == {
        "extent-fixpoint",
        "extent-family-closure",
        "conjugation-involution",
        "bound-recursion",
        "block-cover-decomposition",
        "single-block-bounds",
        "order-criterion-agreement",
        "classical-route-equality",
        "literal-own-class",
    }
    assert rep.all_passed


def test_corrupted_bound_is_caught(t1):
    lat = build_gcl(t1)
    nodes = list(lat.nodes)
    nodes[1] = dataclasses.replace(nodes[1], grsp=CanonicalForm(2, 0b1111))
    rep = verify_laws(t1, dataclasses.replace(lat, nodes=tuple(nodes)))
    assert not rep.all_passed
    bad = {r.law for r in rep.failures()}
    assert "extent-fixpoint" in bad
    assert all(r.witness for r in rep.failures())


def test_corrupted_edge_is_caught(t1):
    lat = build_gcl(t1)
    rep = verify_laws(t1, dataclasses.replace(lat, hasse_edges=lat.hasse_edges[:-1]))
    assert not rep.all_passed


def test_report_as_dict_round_trips(t1):
    rep = verify_laws(t1)
    d = rep.as_dict(t1)
    assert d["passed"] is True
    assert d["digest"] == rep.digest
    assert [e["law"] for e in d["laws"]] == list(ALL_LAWS)
    assert "classes" not in d
    json.dumps(d)


# --- composite-attribute sweep ---


def test_sweep_worked(t1):
    rep = enumerate_mstar(t1)
    assert rep.all_passed
    assert [r.law for r in rep.laws] == [
        "census-partition",
        "census-extent-family",
        "census-class-extremes",
    ]
    rows = [
        (sorted(c.extent), c.size, c.min_form.ids(), c.max_form.ids())
        for c in rep.classes
    ]
    assert rows == [
        ([], 2, [], [0]),
        ([0], 2, [1], [0, 1]),
        ([1], 2, [3], [0, 3]),
        ([2], 2, [2], [0, 2]),
        ([0, 1], 2, [1, 3], [0, 1, 3]),
        ([0, 2], 2, [1, 2], [0, 1, 2]),
        ([1, 2], 2, [2, 3], [0, 2, 3]),
        ([0, 1, 2], 2, [1, 2, 3], [0, 1, 2, 3]),
    ]
    assert sum(c.size for c in rep.classes) == 16
    d = rep.as_dict(t1)
    assert d["classes"][1] == {
        "extent": ["g1"],
        "size": 2,
        "min": [1],
        "max": [0, 1],
    }


def test_sweep_class_count_matches_nodes():
    ctx = random_context(3, 6, 3, 0.5)
    rep = enumerate_mstar(ctx)
    assert rep.all_passed
    assert len(rep.classes) == len(build_gcl(ctx).nodes)
    assert sum(c.size for c in rep.classes) == 1 << (1 << 3)


def test_sweep_caps():
    wide = FormalContext(("g1",), tuple(f"m{j}" for j in range(5)), (0,))
    with pytest.raises(CapExceeded, match="5 attributes exceed the sweep cap"):
        enumerate_mstar(wide)
    tall = FormalContext(tuple(f"g{i}" for i in range(17)), ("a",), (0,) * 17)
    with pytest.raises(CapExceeded, match="17 objects exceed the sweep cap"):
        enumerate_mstar(tall)


# --- digests ---


def test_digest_is_sha256_of_serialization(t1):
    assert context_digest(t1) == hashlib.sha256(T1_CXT.encode()).hexdigest()
    assert context_to_cxt(t1) == T1_CXT


def test_digest_distinguishes_contexts(t1):
    other = FormalContext.from_table(("g1", "g2", "g3"), ("a", "b"), ("X.", "XX", "XX"))
    assert context_digest(other) != context_digest(t1)
    assert context_digest(t1) == context_digest(t1)


# --- reproducible random contexts ---


def test_random_context_is_deterministic():
    a = random_context(42, 6, 4, 0.5)
    b = random_context(42, 6, 4, 0.5)
    assert a == b
    assert random_context(43, 6, 4, 0.5) != a


def test_random_context_golden(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "random_seed1_4x3.cxt"
    assert context_to_cxt(random_context(1, 4, 3, 0.5)) == golden.read_text()


def test_random_context_names_and_shape():
    ctx = random_context(9, 3, 2, 0.5)
    assert ctx.objects == ("g1", "g2", "g3")
    assert ctx.attributes == ("m1", "m2")


def test_random_context_density_extremes():
    assert random_context(5, 4, 3, 0.0).rows == (0, 0, 0, 0)
    assert random_context(5, 4, 3, 1.0).rows == (7, 7, 7, 7)


def test_random_context_rejects_bad_arguments():
    with pytest.raises(ValueError, match="outside"):
        random_context(1, 2, 2, -0.1)
    with pytest.raises(ValueError, match="outside"):
        random_context(1, 2, 2, 1.5)
    with pytest.raises(ValueError, match="negative"):
        random_context(1, -1, 2, 0.5)


@given(st.integers(0, 2**64 - 1), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_random_context_density_bounds(seed, density):
    ctx = random_context(seed, 5, 3, density)
    assert all(0 <= row < 8 for row in ctx.rows)


# --- canary over random inputs ---


@given(contexts(max_objects=5, max_attributes=3))
@settings(max_examples=25, deadline=None)
def test_laws_hold_on_random_contexts(ctx):
    rep = verify_laws(ctx)
    assert rep.all_passed, [r.witness for r in rep.failures()]
