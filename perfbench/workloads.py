"""The four workloads: which contexts to write and which commands to run.

A workload's `make` writes its context files from a seeded stream and
returns one pass: the fixed command sequence a run repeats.  Sizes are
chosen so that one command takes roughly 0.15 to 1 s on a 2-core box and
a pass takes 4 to 7 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
from inputs import Context, Rng, blocked_context, density_context, to_csv, to_cxt


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]
    check: Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: int
    make: Callable[[Rng, Path], list[Command]]

    @property
    def min_samples(self) -> int:
        """Enough command timings for ten to lie beyond the tail percentile."""
        return -(-10 * 100 // (100 - self.tail_pct))


def _write(ctx: Context, directory: Path, stem: str, csv: bool = False) -> str:
    path = directory / (stem + (".csv" if csv else ".cxt"))
    path.write_text(to_csv(ctx) if csv else to_cxt(ctx))
    return str(path)


def _some_blocks(rng: Rng, ctx: Context) -> list[tuple[int, int]]:
    """A random nonempty proper subset of the blocks, as (row, objects)."""
    picked = [b for b in ctx.blocks if rng.chance(0.5)]
    if not picked or len(picked) == ctx.n_f:
        picked = list(ctx.blocks[: ctx.n_f // 2 or 1])
    return picked


def _union(picked) -> int:
    extent = 0
    for _, objects in picked:
        extent |= objects
    return extent


def _minterm_query(ctx: Context, picked) -> str:
    """A disjunction of the picked blocks' rows: its extent is their union."""
    terms = []
    for row, _ in picked:
        lits = [("" if row >> j & 1 else "!") + a for j, a in enumerate(ctx.attributes)]
        terms.append("(" + " & ".join(lits) + ")")
    return " | ".join(terms)


def _inspect(label, path, ctx, rng, query: bool, irreducibles: bool = False) -> Command:
    picked = _some_blocks(rng, ctx)
    extent = _union(picked)
    if query:
        target = ("--query", _minterm_query(ctx, picked))
    else:
        target = ("--objects", ",".join(ctx.names(extent)))
    extra = ("--irreducibles",) if irreducibles else ()
    return Command(
        label,
        ("inspect", path) + target + extra,
        partial(checks.inspect, ctx, extent, irreducibles),
    )


_GCL_CHECKS = {"text": checks.gcl_text, "json": checks.gcl_json, "dot": checks.gcl_dot}


def _build(label, path, ctx, fmt: str) -> Command:
    return Command(
        f"{label}-{fmt}",
        ("build", path, "--format", fmt),
        partial(_GCL_CHECKS[fmt], ctx),
    )


def make_export(rng: Rng, directory: Path) -> list[Command]:
    cmds = []
    # n_F stays above the CLI's pretty-rendering limit of 8 blocks.  Two of
    # the three contexts share one shape, so the median and the tail both
    # fall inside one cluster of latencies rather than between two.
    for label, n_f, m, n, csv in (
        ("E1", 9, 4, 12, False),
        ("E2", 9, 5, 14, True),
        ("E3", 9, 5, 12, False),
    ):
        ctx = blocked_context(rng, n_f, m, n)
        path = _write(ctx, directory, label, csv)
        cmds.extend(_build(label, path, ctx, fmt) for fmt in ("text", "json", "dot"))
    return cmds


def make_cube(rng: Rng, directory: Path) -> list[Command]:
    cmds = []
    # n_F above the CLI's inspect limit of 12 keeps irreducibles idle.  Three
    # contexts of one shape keep the median and the tail inside one cluster
    # of latencies; the larger fourth sets the peak memory.
    for label, n_f, m, n in (
        ("C1", 14, 10, 22),
        ("C2", 14, 10, 22),
        ("C3", 14, 10, 22),
        ("C4", 15, 12, 24),
    ):
        ctx = blocked_context(rng, n_f, m, n)
        path = _write(ctx, directory, label)
        cmds.append(_inspect(f"{label}-objects", path, ctx, rng, query=False))
        cmds.append(_inspect(f"{label}-query", path, ctx, rng, query=True))
    return cmds


def _windowed(rng: Rng, n: int, m: int, density: float, kind: str, window) -> Context:
    """A density context whose `kind` concept count lies in the window.

    The covers cost grows with the cube of the concept count, so fixing
    the count keeps a pass equally heavy on every seed.  After 1000
    draws the closest one is taken.
    """
    lo, hi = window
    best = None
    for _ in range(1000):
        ctx = density_context(rng, n, m, density)
        count = len(checks.closure_extents(ctx, kind))
        miss = max(lo - count, 0, count - hi)
        if miss == 0:
            return ctx
        if best is None or miss < best[0]:
            best = (miss, ctx)
    return best[1]


def make_classical(rng: Rng, directory: Path) -> list[Command]:
    cmds = []
    # FCL at density 0.2 and RSL at 0.8 are sweep-bound (2^16 subsets, ~100
    # concepts); both lattices at 0.5 are cover-bound.  FCL at 0.8 and RSL
    # at 0.2 give over ten thousand concepts at m=16 and over a thousand at
    # m=12 (6-14 s of covers each), so they are left out.  Each window is
    # about 2% either side of the median count of its shape.  The covers
    # still vary by about 15% between contexts of one count, so there are
    # four cover-bound contexts per lattice to average that out.
    shapes = [
        ("fcl", 40, 16, 0.2, (98, 108)),
        ("rsl", 40, 16, 0.8, (93, 103)),
    ] * 2 + [
        ("fcl", 30, 12, 0.5, (336, 350)),
        ("rsl", 30, 12, 0.5, (304, 316)),
    ] * 4
    for k, (kind, n, m, density, window) in enumerate(shapes):
        label = f"K{k + 1}"
        ctx = _windowed(rng, n, m, density, kind, window)
        path = _write(ctx, directory, label, csv=k % 3 == 2)
        cmds.append(
            Command(
                f"{label}-{kind}",
                ("build", path, "--lattice", kind, "--format", "json"),
                partial(checks.classical_json, ctx, kind),
            )
        )
    return cmds


def make_audit(rng: Rng, directory: Path) -> list[Command]:
    cmds = []
    # Five tiny contexts give more than half of the commands, so the median
    # is start-up.  Three fancy exports of one shape (n_F <= 8 takes the
    # irreducibles route) are the top 15%, where the p90 tail falls; their
    # cost varies with the context, so each has its own.  A verify at n_F=8
    # and m=6 sits just below them.
    for label, n_f, m, n, csv in (
        ("T1", 3, 3, 5, False),
        ("T2", 4, 3, 6, True),
        ("T3", 4, 3, 7, False),
        ("T4", 5, 3, 8, True),
    ):
        ctx = blocked_context(rng, n_f, m, n)
        path = _write(ctx, directory, label, csv)
        cmds.append(
            Command(f"{label}-verify", ("verify", path, "--sweep"), partial(checks.verify, ctx, True))
        )
        cmds.append(Command(f"{label}-compare", ("compare", path), partial(checks.compare, ctx)))
        cmds.append(_inspect(f"{label}-inspect", path, ctx, rng, query=csv, irreducibles=True))

    ctx = blocked_context(rng, 3, 3, 4)
    path = _write(ctx, directory, "T5")
    cmds.append(Command("T5-compare", ("compare", path), partial(checks.compare, ctx)))

    ctx = blocked_context(rng, 8, 6, 10)
    path = _write(ctx, directory, "V1")
    cmds.append(Command("V1-verify", ("verify", path), partial(checks.verify, ctx, False)))
    cmds.append(Command("V1-compare", ("compare", path), partial(checks.compare, ctx)))
    cmds.append(_inspect("V1-inspect", path, ctx, rng, query=True))

    for k, fmt in enumerate(("text", "json", "dot")):
        label = f"F{k + 1}"
        ctx = blocked_context(rng, 6, 6, 8)
        path = _write(ctx, directory, label, csv=k == 1)
        if k == 0:
            cmds.append(_inspect(f"{label}-inspect", path, ctx, rng, query=False, irreducibles=True))
        cmds.append(_build(label, path, ctx, fmt))
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("export", 70, make_export),
        Workload("cube", 65, make_cube),
        Workload("classical", 75, make_classical),
        Workload("audit", 90, make_audit),
    )
}
