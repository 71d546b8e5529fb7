"""Spans around the calls into gcl's modules, and their self times.

The child side (`Tracer`, `install`) wraps public functions under the
names their callers look them up by, keeps one span per call in memory
and leaves writing to the caller.  The parent side (`self_times`,
`aggregate`) turns spans into per-name busy time.

A span is a list [name, start, end, parent]: parent is the index of the
enclosing span in the same command, or -1 at the top.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, defining module, attribute)
PUBLIC = (
    ("context.parse_context", "gcl.context", "parse_context"),
    ("context.blocks", "gcl.context", "blocks"),
    ("lattice.build_gcl", "gcl.lattice", "build_gcl"),
    ("exprs.canonical_to_expr", "gcl.exprs", "canonical_to_expr"),
    ("exprs.expr_to_str", "gcl.exprs", "expr_to_str"),
    ("exprs.to_canonical", "gcl.exprs", "to_canonical"),
    ("exprs.parse_expr", "gcl.exprs", "parse_expr"),
    ("irreducibles.simplified_intent", "gcl.irreducibles", "simplified_intent"),
    ("irreducibles.classes", "gcl.irreducibles", "irreducible_conjunctions"),
    ("irreducibles.classes", "gcl.irreducibles", "irreducible_disjunctions"),
    ("classical.build_fcl", "gcl.classical", "build_fcl"),
    ("classical.build_rsl", "gcl.classical", "build_rsl"),
    ("classical.recover_classical", "gcl.classical", "recover_classical"),
    ("oracle.verify_laws", "gcl.oracle", "verify_laws"),
    ("oracle.enumerate_mstar", "gcl.oracle", "enumerate_mstar"),
    ("cli.export_lattice", "gcl.cli", "export_lattice"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(counts, result, args) runs outside it to count."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after is not None:
                after(self.counts, result, args)
            return result

        return traced


def _rebind(original, replacement) -> None:
    """Point every gcl module attribute bound to original at replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gcl" or mod_name.startswith("gcl."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _count_lattice(counts, lat, args):
    counts["lattice.nodes"] += len(lat.nodes)
    counts["lattice.edges"] += len(lat.hasse_edges)


def _count_blocks(counts, part, args):
    counts["context.n_f"] = max(counts["context.n_f"], part.n_f)


def _count_classical(counts, lat, args):
    counts["classical.concepts"] += len(lat.concepts)
    counts["classical.edges"] += len(lat.hasse_edges)
    counts["classical.subsets"] += 1 << lat.context.n_attributes


def _count_laws(counts, report, args):
    counts["oracle.laws_run"] += len(report.laws)
    counts["oracle.laws_skipped"] += sum(n.startswith("skipped ") for n in report.notes)


_AFTER = {
    "context.blocks": _count_blocks,
    "lattice.build_gcl": _count_lattice,
    "classical.build_fcl": _count_classical,
    "classical.build_rsl": _count_classical,
    "oracle.verify_laws": _count_laws,
    "oracle.enumerate_mstar": _count_laws,
}


def install(tracer: Tracer) -> None:
    """Wrap gcl's public entry points; gcl.cli must already be imported."""
    for name, mod_name, attr in PUBLIC:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, tracer.wrap(name, original, _AFTER.get(name)))

    lattice = sys.modules["gcl.lattice"]
    lattice.GclLattice.node_of = tracer.wrap("lattice.node_of", lattice.GclLattice.node_of)

    oracle = sys.modules["gcl.oracle"]
    oracle.LAWS = tuple(
        (law, needs, tracer.wrap(f"oracle.law.{law}", run)) for law, needs, run in oracle.LAWS
    )

    # The class scan is private and cached per context and mode; count what
    # each first scan finds against the 4^m signed subsets it walks.
    # A missing scan raises, so the traced command fails instead of
    # reporting zero members.
    irreducibles = sys.modules["gcl.irreducibles"]
    scan = irreducibles._all_classes
    seen = set()

    def counted(ctx, mode):
        found = scan(ctx, mode)
        key = (id(ctx), mode)
        if key not in seen:
            seen.add(key)
            tracer.counts["irreducibles.members"] += sum(map(len, found.values()))
            tracer.counts["irreducibles.subsets"] += 4 ** ctx.n_attributes
        return found

    irreducibles._all_classes = counted


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for k, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time and number of calls."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        busy[span[0]] += own
        calls[span[0]] += 1
    return busy, calls
