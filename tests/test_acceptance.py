"""Acceptance gate: six contract criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every criterion times its own body and fails when it exceeds the
agreed budget, so a pass here certifies values and speed together.
"""

import io
import pathlib
import time

from gcl import (
    BitSet,
    CanonicalForm,
    FormalContext,
    atoms_coatoms,
    blocks,
    build_fcl,
    build_gcl,
    build_rsl,
    context_to_cxt,
    enumerate_mstar,
    extent_family,
    irreducible_conjunctions,
    irreducible_disjunctions,
    parse_context,
    parse_expr,
    random_context,
    simplified_intent,
    to_canonical,
    verify_laws,
)
from gcl.cli import export_lattice

DENSITIES = (0.2, 0.5, 0.8)


def _report(n, elapsed, problems, budget=None):
    over = budget is not None and elapsed >= budget
    status = "FAIL" if problems or over else "PASS"
    print(f"criterion {n}: {status} ({elapsed:.3f} s)")
    if problems:
        raise AssertionError(f"criterion {n}: " + "; ".join(problems[:5]))
    if over:
        raise AssertionError(f"criterion {n}: {elapsed:.3f} s exceeds {budget} s")


def _exported(lat, fmt):
    out = io.StringIO()
    export_lattice(lat, fmt, out)
    return out.getvalue()


def _t1():
    return FormalContext.from_table(("g1", "g2", "g3"), ("a", "b"), ("X.", "XX", ".X"))


def test_criterion_1_toy_context_exact_values():
    start = time.perf_counter()
    problems = []
    ctx = _t1()
    lat = build_gcl(ctx)
    cf = lambda text: to_canonical(parse_expr(text, ctx.attributes), 2)

    if len(lat.nodes) != 8:
        problems.append(f"{len(lat.nodes)} nodes")
    if len(lat.hasse_edges) != 12:
        problems.append(f"{len(lat.hasse_edges)} edges")
    node = lat.node_of(ctx.object_set(["g1"]))
    if node.gfcp != cf("a & !b") or node.gfcp.ids() != [1]:
        problems.append(f"gfcp of {{g1}} is {node.gfcp.ids()}")
    if node.grsp != cf("!b") or node.grsp.ids() != [0, 1]:
        problems.append(f"grsp of {{g1}} is {node.grsp.ids()}")
    if lat.zero_rho != cf("!a & !b"):
        problems.append(f"zero_rho is {lat.zero_rho.ids()}")
    if lat.one_eta != cf("a | b"):
        problems.append(f"one_eta is {lat.one_eta.ids()}")

    fcl = [(sorted(c.extent), sorted(c.intent)) for c in build_fcl(ctx).concepts]
    if fcl != [([1], [0, 1]), ([0, 1], [0]), ([1, 2], [1]), ([0, 1, 2], [])]:
        problems.append(f"fcl concepts {fcl}")
    rsl = [(sorted(c.extent), sorted(c.intent)) for c in build_rsl(ctx).concepts]
    if rsl != [([], []), ([0, 1], [0]), ([1, 2], [1]), ([0, 1, 2], [0, 1])]:
        problems.append(f"rsl concepts {rsl}")

    _report(1, time.perf_counter() - start, problems, budget=0.1)


def test_criterion_2_counting_identities():
    start = time.perf_counter()
    problems = []
    if len({CanonicalForm(3, t) for t in range(256)}) != 256:
        problems.append("distinct canonical forms != 256")
    atoms, coatoms = atoms_coatoms(3)
    if len(atoms) != 8 or len(coatoms) != 8:
        problems.append(f"{len(atoms)} atoms, {len(coatoms)} coatoms")

    ctx = random_context(2, 5, 3, 0.5)
    rep = enumerate_mstar(ctx)
    if not rep.all_passed:
        problems.append("; ".join(r.witness or r.law for r in rep.failures()))
    total = sum(c.size for c in rep.classes)
    if total != 256:
        problems.append(f"class sizes sum to {total}")
    if len(rep.classes) != 1 << blocks(ctx).n_f:
        problems.append(f"{len(rep.classes)} classes")

    _report(2, time.perf_counter() - start, problems, budget=1.0)


def test_criterion_3_sweep_agrees_with_builder():
    start = time.perf_counter()
    problems = []
    for seed in range(1, 51):
        n = 1 + (seed * 7 + 3) % 6
        m = 1 + (seed * 5 + 1) % 3
        ctx = random_context(seed, n, m, DENSITIES[seed % 3])
        lat = build_gcl(ctx)
        rep = enumerate_mstar(ctx)
        for c in rep.classes:
            node = lat.node_of(c.extent)
            if c.max_form != node.grsp or c.min_form != node.gfcp:
                problems.append(f"seed {seed}: extremes differ at {sorted(c.extent)}")
                break
        realized = {c.extent for c in rep.classes}
        if realized != set(extent_family(ctx)):
            problems.append(f"seed {seed}: realized extents differ from the family")
    _report(3, time.perf_counter() - start, problems, budget=10.0)


CRITERION_4_LAWS = (
    "triple-application",
    "operator-monotonicity",
    "complement-duality",
    "rough-set-conjugates",
    "column-extent-in-both",
    "extent-fixpoint",
    "extent-family-closure",
    "conjugation-involution",
    "bound-recursion",
    "block-cover-decomposition",
    "single-block-bounds",
    "constants-decomposition",
    "order-criterion-agreement",
    "classical-route-equality",
)


def test_criterion_4_law_suite():
    start = time.perf_counter()
    problems = []
    for seed in range(1, 201):
        n = 1 + (seed * 11 + 5) % 8
        m = 1 + (seed * 13 + 7) % 5
        ctx = random_context(seed, n, m, DENSITIES[seed % 3])
        rep = verify_laws(ctx)
        for r in rep.failures():
            problems.append(f"seed {seed}: {r.law}: {r.witness}")
        ran = {r.law for r in rep.laws}
        for law in CRITERION_4_LAWS:
            if law not in ran:
                problems.append(f"seed {seed}: {law} did not run")
    _report(4, time.perf_counter() - start, problems, budget=60.0)


def test_criterion_5_irreducibles():
    start = time.perf_counter()
    problems = []
    for seed in range(101, 121):
        n = 1 + (seed * 3 + 1) % 6
        m = 1 + (seed * 7 + 2) % 4
        ctx = random_context(seed, n, m, DENSITIES[seed % 3])
        for bits in range(1 << n):
            xs = BitSet(bits, n)
            flipped = {
                s.flipped() for s in irreducible_conjunctions(ctx, xs).members
            }
            if flipped != set(irreducible_disjunctions(ctx, ~xs).members):
                problems.append(f"seed {seed}: negation swap fails at {sorted(xs)}")
                break
        lat = build_gcl(ctx)
        for node in lat.nodes:
            dnf = simplified_intent(ctx, node.extent, "grsp_dnf")
            cnf = simplified_intent(ctx, node.extent, "gfcp_cnf")
            if to_canonical(dnf, m) != node.grsp or to_canonical(cnf, m) != node.gfcp:
                problems.append(
                    f"seed {seed}: reduced intent differs at {sorted(node.extent)}"
                )
                break
    _report(5, time.perf_counter() - start, problems, budget=30.0)


def test_criterion_6_determinism():
    start = time.perf_counter()
    problems = []
    samples = (_t1(), random_context(3, 6, 4, 0.5), random_context(4, 5, 2, 0.2))
    for ctx in samples:
        if parse_context(context_to_cxt(ctx), "cxt") != ctx:
            problems.append("cxt round trip changed the context")
    for ctx in samples:
        for fmt in ("json", "dot"):
            if _exported(build_gcl(ctx), fmt) != _exported(build_gcl(ctx), fmt):
                problems.append(f"{fmt} export differs between runs")
    for seed in (0, 1, 42, 2**63):
        if random_context(seed, 7, 4, 0.8) != random_context(seed, 7, 4, 0.8):
            problems.append(f"seed {seed} not reproducible")
    golden = pathlib.Path(__file__).parent / "golden" / "random_seed1_4x3.cxt"
    if context_to_cxt(random_context(1, 4, 3, 0.5)) != golden.read_text():
        problems.append("golden random context differs")
    _report(6, time.perf_counter() - start, problems)
