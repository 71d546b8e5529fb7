"""Output checks that recompute every claim from the context alone.

Each checker takes the context (and what the command asked for) plus the
command's stdout, and returns None when the output is right or a short
reason when it is not.  None of them imports gcl: the expected values
come from the block partition, from worklist closures of the columns and
from direct evaluation of literal sets.
"""

from __future__ import annotations

import json
import re

from inputs import Context


def closure_extents(ctx: Context, kind: str) -> set[int]:
    """Classical extents as object masks: FCL closes the full set under
    intersection with columns, RSL closes the empty set under union."""
    full = (1 << ctx.n) - 1
    if kind == "fcl":
        seed, op = full, int.__and__
    elif kind == "rsl":
        seed, op = 0, int.__or__
    else:
        raise ValueError(f"unknown lattice kind {kind!r}")
    found = {seed}
    todo = [seed]
    while todo:
        cur = todo.pop()
        for col in ctx.cols:
            new = op(cur, col)
            if new not in found:
                found.add(new)
                todo.append(new)
    return found


def _zero_rho(ctx: Context) -> list[int]:
    realized = {row for row, _ in ctx.blocks}
    return [t for t in range(1 << ctx.m) if t not in realized]


def _row_set(ctx: Context, mask: int) -> set[int]:
    return {ctx.rows[i] for i in range(ctx.n) if mask >> i & 1}


def _union_of_blocks(ctx: Context, mask: int) -> bool:
    rows = _row_set(ctx, mask)
    return all(mask >> i & 1 for i in range(ctx.n) if ctx.rows[i] in rows)


def _extent_family(ctx: Context, extents: list[int]) -> str | None:
    """The extents must be the 2^n_F distinct unions of blocks."""
    if len(extents) != 1 << ctx.n_f:
        return f"{len(extents)} nodes, expected {1 << ctx.n_f}"
    if len(set(extents)) != len(extents):
        return "repeated node extent"
    for ext in extents:
        if not _union_of_blocks(ctx, ext):
            return f"extent {ctx.names(ext)} is not a union of blocks"
    return None


def _edge_count(ctx: Context, n_edges: int) -> str | None:
    want = ctx.n_f << (ctx.n_f - 1) if ctx.n_f else 0
    return None if n_edges == want else f"{n_edges} edges, expected {want}"


def _braced(text: str) -> list[str]:
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"not a braced list: {text!r}")
    inner = inner[1:-1].strip()
    return [t.strip() for t in inner.split(",")] if inner else []


def gcl_json(ctx: Context, out: bytes) -> str | None:
    """Node and edge counts, and each node's minterms against its extent."""
    data = json.loads(out)
    nodes = data["nodes"]
    extents = [ctx.mask(node["extent"]) for node in nodes]
    reason = _extent_family(ctx, extents) or _edge_count(ctx, len(data["edges"]))
    if reason:
        return reason
    zero = _zero_rho(ctx)
    if data["constants"]["zero_rho"] != zero:
        return "zero_rho differs from the unrealized minterms"
    row_masks = []
    for node, ext in zip(nodes, extents):
        rows = _row_set(ctx, ext)
        if node["gfcp_minterms"] != sorted(rows):
            return f"node {node['extent']}: gfcp minterms are not its rows"
        if node["grsp_minterms"] != sorted(rows.union(zero)):
            return f"node {node['extent']}: grsp minterms are not gfcp plus zero_rho"
        row_masks.append(sum(1 << t for t in rows))
    for lo, hi in data["edges"]:
        grown = row_masks[hi] & ~row_masks[lo]
        if row_masks[lo] & ~row_masks[hi] or grown.bit_count() != 1:
            return f"edge {lo}<{hi} does not add exactly one block"
    return None


def gcl_text(ctx: Context, out: bytes) -> str | None:
    """Header, constants, one line per node extent, and the cover count."""
    lines = out.decode().splitlines()
    head = (
        f"gcl lattice: {ctx.n} objects, {ctx.m} attributes, "
        f"{ctx.n_f} blocks, {1 << ctx.n_f} nodes"
    )
    if not lines or lines[0] != head:
        return f"header {lines[0] if lines else ''!r}, expected {head!r}"
    if f"zero_rho: minterms {_zero_rho(ctx)}" not in lines:
        return "zero_rho line missing or wrong"
    extents = [
        ctx.mask(_braced(line.split("] ", 1)[1]))
        for line in lines
        if line.startswith("node [")
    ]
    reason = _extent_family(ctx, extents)
    if reason:
        return reason
    covers = lines[-1]
    if not covers.startswith("covers: "):
        return "last line is not the cover list"
    return _edge_count(ctx, len(covers[len("covers: "):].split(", ")))


_DOT_NODE = re.compile(r'^  n\d+ \[label="(\{[^}]*\}) \| .*"\];$')
_DOT_EDGE = re.compile(r"^  n\d+ -> n\d+;$")


def gcl_dot(ctx: Context, out: bytes) -> str | None:
    """Node labels carry the extents; edge lines count the covers."""
    lines = out.decode().splitlines()
    if not lines or lines[0] != "digraph gcl {" or lines[-1] != "}":
        return "not a gcl digraph"
    extents = []
    n_edges = 0
    for line in lines[1:-1]:
        node = _DOT_NODE.match(line)
        if node:
            extents.append(ctx.mask(_braced(node.group(1))))
        elif _DOT_EDGE.match(line):
            n_edges += 1
    return _extent_family(ctx, extents) or _edge_count(ctx, n_edges)


def classical_json(ctx: Context, kind: str, out: bytes) -> str | None:
    """Concepts against an independent closure, intents against the columns."""
    data = json.loads(out)
    if data["kind"] != kind:
        return f"kind {data['kind']!r}, expected {kind!r}"
    extents = [ctx.mask(node["extent"]) for node in data["nodes"]]
    want = closure_extents(ctx, kind)
    if len(extents) != len(want) or set(extents) != want:
        return f"{len(extents)} concepts, closure gives {len(want)}"
    for node, ext in zip(data["nodes"], extents):
        if kind == "fcl":
            held = [j for j, col in enumerate(ctx.cols) if ext & ~col == 0]
        else:
            held = [j for j, col in enumerate(ctx.cols) if col & ~ext == 0]
        if node["intent"] != [ctx.attributes[j] for j in held]:
            return f"concept {node['extent']}: wrong intent"
    for lo, hi in data["edges"]:
        if extents[lo] & ~extents[hi] or extents[lo] == extents[hi]:
            return f"edge {lo}<{hi} is not a strict inclusion"
    return None


def _literal_extent(ctx: Context, literal: str) -> int:
    full = (1 << ctx.n) - 1
    if literal.startswith("!"):
        return full ^ ctx.cols[ctx.attributes.index(literal[1:])]
    return ctx.cols[ctx.attributes.index(literal)]


def _class_members(body: str) -> list[list[str]]:
    if body == "(empty)":
        return []
    return [_braced(m) for m in re.findall(r"\{[^}]*\}", body)]


def inspect(ctx: Context, extent: int, irreducibles: bool, out: bytes) -> str | None:
    """The node must be the queried set, with its blocks and both bounds."""
    fields = {}
    for line in out.decode().splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    if ctx.mask(_braced(fields.get("extent", "{?}"))) != extent:
        return f"extent {fields.get('extent')!r}, expected {ctx.names(extent)}"
    labels = [f"D{k + 1}" for k, (_, objs) in enumerate(ctx.blocks) if objs & ~extent == 0]
    if fields.get("blocks") != (", ".join(labels) if labels else "(none)"):
        return f"blocks {fields.get('blocks')!r}, expected {labels}"
    rows = _row_set(ctx, extent)
    for key, ids in (("gfcp", sorted(rows)), ("grsp", sorted(rows.union(_zero_rho(ctx))))):
        if not fields.get(key, "").endswith(f"  (minterms {ids})"):
            return f"{key} minterms differ from the rows of the extent"
    if irreducibles:
        full = (1 << ctx.n) - 1
        for key, unit, op in (
            ("conjunction class", full, int.__and__),
            ("disjunction class", 0, int.__or__),
        ):
            if key not in fields:
                return f"no {key} line"
            for member in _class_members(fields[key]):
                bits = unit
                for lit in member:
                    bits = op(bits, _literal_extent(ctx, lit))
                if bits != extent:
                    return f"{key} member {member} does not evaluate to the extent"
    return None


def verify(ctx: Context, sweep: bool, out: bytes) -> str | None:
    """Every law holds; a sweep finds one attribute class per node."""
    lines = out.decode().splitlines()
    sizes = f"{ctx.n} objects, {ctx.m} attributes, {ctx.n_f} blocks"
    if len(lines) < 3 or lines[1] != sizes:
        return f"size line differs from {sizes!r}"
    if lines[-1] != "all laws hold" or any(": FAIL" in line for line in lines):
        return "a law failed"
    if sweep:
        want = (
            f"sweep: {1 << ctx.n_f} attribute classes over "
            f"{1 << (1 << ctx.m)} composite attributes"
        )
        if want not in lines:
            return f"no line {want!r}"
    return None


def compare(ctx: Context, out: bytes) -> str | None:
    """Both routes agree, on the closure's concept counts."""
    want = [
        f"{kind}: routes agree on {len(closure_extents(ctx, kind))} concepts"
        for kind in ("fcl", "rsl")
    ]
    got = out.decode().splitlines()
    return None if got == want else f"got {got!r}, expected {want!r}"
