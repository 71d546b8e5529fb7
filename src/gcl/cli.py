"""Command line front end.

Subcommands: build (construct and export a lattice), verify (run the law
suite), compare (check the two routes to the classical lattices agree),
random (generate a reproducible context), inspect (describe one general
concept).  Exit codes: 0 success, 1 usage, 2 unreadable or malformed
input, 3 a size cap was hit, 4 a law or route comparison failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .classical import ClassicalLattice, build_fcl, build_rsl, recover_classical
from .context import FormalContext, context_to_cxt, parse_context
from .errors import CapExceeded, InvariantError, NotAGeneralExtent, ParseError
from .exprs import (
    BOTTOM,
    DEFAULT_CANONICAL_CAP,
    TOP,
    And,
    CanonicalForm,
    Or,
    Var,
    canonical_to_str,
    conj,
    disj,
    eval_contextual,
    expr_to_str,
    parse_expr,
    to_canonical,
)
from .irreducibles import (
    DEFAULT_IRREDUCIBLES_CAP,
    irreducible_conjunctions,
    irreducible_disjunctions,
    simplified_intent,
)
from .lattice import DEFAULT_NODE_CAP, GclLattice, build_gcl
from .oracle import enumerate_mstar, random_context, verify_laws

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_LAW = 4

# exports stay readable on small contexts but never silently explode on
# large ones: past these sizes the plain canonical rendering is used
_PRETTY_BLOCK_LIMIT = 8
_INSPECT_BLOCK_LIMIT = 12

# a gcl export prints 2^n_F nodes with bounds over 2^m minterms each, so
# it is refused up front when n_F + m exceeds this (2^20 is about 100 MB
# of text)
_EXPORT_LOG2_LIMIT = 20

# `gcl random` refuses contexts with more cells than this
_RANDOM_CELL_CAP = 10**7


# ---------------------------------------------------------------------------
# rendering

def _prune_for_display(expr, m_count: int) -> tuple:
    """Drop zero terms from a sum and unit factors from a product.

    A unit term swallows the whole sum and a zero factor the whole
    product, so the rendered expression stays canonically equal.  Its
    truth table is returned with it, combined from each term's table.
    """
    full = (1 << (1 << m_count)) - 1
    if isinstance(expr, Or):
        kept, table = [], 0
        for c in expr.children:
            t = to_canonical(c, m_count).table
            if t == full:
                return TOP, full
            if t:
                kept.append(c)
                table |= t
        return disj(kept), table
    if isinstance(expr, And):
        kept, table = [], full
        for c in expr.children:
            t = to_canonical(c, m_count).table
            if not t:
                return BOTTOM, 0
            if t != full:
                kept.append(c)
                table &= t
        return conj(kept), table
    return expr, to_canonical(expr, m_count).table


def _bound_pretty(
    ctx: FormalContext, extent, cf: CanonicalForm, which: str, fancy: bool
) -> str:
    """Short description of a canonical bound.

    The plain rendering lists minterms (grsp) or maxterms (gfcp).  When
    allowed, the reduced expression from the irreducible classes is used
    instead if it comes out shorter; both describe the same attribute.
    """
    mode = "dnf" if which == "grsp" else "cnf"
    base = canonical_to_str(cf, mode, ctx.attributes)
    if fancy:
        simp_mode = "grsp_dnf" if which == "grsp" else "gfcp_cnf"
        simp, table = _prune_for_display(
            simplified_intent(ctx, extent, simp_mode), ctx.n_attributes
        )
        if table != cf.table:
            raise InvariantError(f"reduced {which} does not match its canonical bound")
        text = expr_to_str(simp, ctx.attributes)
        if len(text) < len(base):
            return text
    return base


def _gcl_data(lat: GclLattice) -> dict:
    ctx = lat.context
    n_f, m = lat.partition.n_f, ctx.n_attributes
    if n_f + m > _EXPORT_LOG2_LIMIT:
        raise CapExceeded(
            f"export of {n_f} blocks and {m} attributes refused: 2^{n_f} nodes "
            f"over 2^{m} minterms exceed the export limit of 2^{_EXPORT_LOG2_LIMIT}"
        )
    fancy = m <= DEFAULT_IRREDUCIBLES_CAP and n_f <= _PRETTY_BLOCK_LIMIT
    nodes = [
        {
            "block_set": node.block_set,
            "extent": ctx.object_names(node.extent),
            "grsp_minterms": node.grsp.ids(),
            "grsp_pretty": _bound_pretty(ctx, node.extent, node.grsp, "grsp", fancy),
            "gfcp_minterms": node.gfcp.ids(),
            "gfcp_pretty": _bound_pretty(ctx, node.extent, node.gfcp, "gfcp", fancy),
        }
        for node in lat.nodes
    ]
    return {
        "kind": "gcl",
        "objects": list(lat.context.objects),
        "attributes": list(lat.context.attributes),
        "blocks": [
            {
                "extent": ctx.object_names(b.extent),
                "row": ctx.attribute_names(b.intent),
            }
            for b in lat.partition.blocks
        ],
        "nodes": nodes,
        "edges": [list(e) for e in lat.hasse_edges],
        "constants": {
            "zero_rho": lat.zero_rho.ids(),
            "one_eta": lat.one_eta.ids(),
        },
    }


def _classical_data(lat: ClassicalLattice) -> dict:
    ctx = lat.context
    op = conj if lat.kind == "fcl" else disj
    return {
        "kind": lat.kind,
        "objects": list(ctx.objects),
        "attributes": list(ctx.attributes),
        "nodes": [
            {
                "extent": ctx.object_names(c.extent),
                "intent": ctx.attribute_names(c.intent),
                "property": expr_to_str(op(Var(j) for j in c.intent), ctx.attributes),
            }
            for c in lat.concepts
        ],
        "edges": [list(e) for e in lat.hasse_edges],
    }


def _braced(names) -> str:
    return "{" + ", ".join(names) + "}"


def _node_label(kind: str, node: dict) -> str:
    desc = node["grsp_pretty"] if kind == "gcl" else node["property"]
    return f"{_braced(node['extent'])} | {desc}"


def _to_dot(data: dict) -> str:
    lines = [f"digraph {data['kind']} {{", "  rankdir=BT;"]
    for i, node in enumerate(data["nodes"]):
        label = _node_label(data["kind"], node)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for lo, hi in data["edges"]:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _covers_line(edges) -> str:
    if not edges:
        return "covers: (none)"
    return "covers: " + ", ".join(f"{lo}<{hi}" for lo, hi in edges)


def _to_text(data: dict) -> str:
    kind = data["kind"]
    head = (
        f"{kind} lattice: {len(data['objects'])} objects, "
        f"{len(data['attributes'])} attributes, "
    )
    lines = []
    if kind == "gcl":
        lines.append(head + f"{len(data['blocks'])} blocks, {len(data['nodes'])} nodes")
        for k, b in enumerate(data["blocks"]):
            row = " & ".join(b["row"]) if b["row"] else "(no attributes)"
            lines.append(f"block D{k + 1}: {_braced(b['extent'])} with row {row}")
        lines.append(f"zero_rho: minterms {data['constants']['zero_rho']}")
        lines.append(f"one_eta: minterms {data['constants']['one_eta']}")
        for i, node in enumerate(data["nodes"]):
            lines.append(f"node [{i}] {_braced(node['extent'])}")
            lines.append(f"  grsp: {node['grsp_pretty']}")
            lines.append(f"  gfcp: {node['gfcp_pretty']}")
    else:
        lines.append(head + f"{len(data['nodes'])} concepts")
        for i, node in enumerate(data["nodes"]):
            lines.append(
                f"concept [{i}] {_braced(node['extent'])} "
                f"with intent {_braced(node['intent'])}"
            )
            lines.append(f"  property: {node['property']}")
    lines.append(_covers_line(data["edges"]))
    return "\n".join(lines) + "\n"


def export_lattice(lat: GclLattice | ClassicalLattice, fmt: str) -> str:
    """Serialize a lattice as json, dot or text; output is deterministic."""
    data = _gcl_data(lat) if isinstance(lat, GclLattice) else _classical_data(lat)
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        return _to_dot(data)
    if fmt == "text":
        return _to_text(data)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands

def _load(args) -> FormalContext:
    path = Path(args.context)
    fmt = args.input_format
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "cxt"
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not UTF-8", line
        ) from None
    return parse_context(text, fmt)


def _load_gcl(args) -> tuple[FormalContext, GclLattice]:
    """The context and its general lattice, within the --max-nf/--max-m caps."""
    ctx = _load(args)
    return ctx, build_gcl(ctx, node_cap=args.max_nf, canonical_cap=args.max_m)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    if args.lattice == "gcl":
        lat = _load_gcl(args)[1]
    else:
        lat = (build_fcl if args.lattice == "fcl" else build_rsl)(_load(args))
    _emit(export_lattice(lat, args.format), args.out)
    return EXIT_OK


def _law_line(r) -> str:
    return f"law {r.law}: ok" if r.passed else f"law {r.law}: FAIL ({r.witness})"


def _cmd_verify(args) -> int:
    ctx, lat = _load_gcl(args)
    report = verify_laws(ctx, lat)
    sweep = enumerate_mstar(ctx) if args.sweep else None
    failed = not report.all_passed or (sweep is not None and not sweep.all_passed)

    if args.json:
        data = report.as_dict(ctx)
        if sweep is not None:
            data["sweep"] = sweep.as_dict(ctx)
        _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_LAW if failed else EXIT_OK

    lines = [
        f"context sha256 {report.digest}",
        f"{ctx.n_objects} objects, {ctx.n_attributes} attributes, "
        f"{lat.partition.n_f} blocks",
    ]
    lines.extend(map(_law_line, report.laws))
    for note in report.notes:
        lines.append(f"note: {note}")
    if sweep is not None:
        lines.append(
            f"sweep: {len(sweep.classes)} attribute classes over "
            f"{1 << (1 << ctx.n_attributes)} composite attributes"
        )
        lines.extend(map(_law_line, sweep.laws))
        for c in sweep.classes:
            lines.append(
                f"class {_braced(ctx.object_names(c.extent))}: size {c.size}, "
                f"min {c.min_form.ids()}, max {c.max_form.ids()}"
            )
    bad = len(report.failures()) + (len(sweep.failures()) if sweep is not None else 0)
    lines.append("all laws hold" if not bad else f"{bad} laws FAILED")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_LAW if failed else EXIT_OK


def _cmd_compare(args) -> int:
    ctx, lat = _load_gcl(args)
    code = EXIT_OK
    lines = []
    for kind, builder in (("fcl", build_fcl), ("rsl", build_rsl)):
        direct = builder(ctx)
        recovered = recover_classical(lat, kind)
        if (
            direct.concepts == recovered.concepts
            and direct.hasse_edges == recovered.hasse_edges
        ):
            lines.append(f"{kind}: routes agree on {len(direct.concepts)} concepts")
        else:
            code = EXIT_LAW
            lines.append(
                f"{kind}: routes DISAGREE (direct {len(direct.concepts)} concepts, "
                f"recovered {len(recovered.concepts)})"
            )
    _emit("\n".join(lines) + "\n", None)
    return code


def _cmd_random(args) -> int:
    if not 0.0 <= args.density <= 1.0:
        print(f"gcl: density {args.density} outside [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    if args.objects < 0 or args.attributes < 0:
        print("gcl: negative dimensions", file=sys.stderr)
        return EXIT_USAGE
    cells = args.objects * args.attributes
    if cells > _RANDOM_CELL_CAP:
        raise CapExceeded(
            f"{args.objects} objects x {args.attributes} attributes = {cells} cells "
            f"exceed the cap of {_RANDOM_CELL_CAP}"
        )
    ctx = random_context(args.seed, args.objects, args.attributes, args.density)
    _emit(context_to_cxt(ctx), args.out)
    return EXIT_OK


def _cmd_inspect(args) -> int:
    ctx, lat = _load_gcl(args)
    lines = []
    if args.query is not None:
        expr = parse_expr(args.query, ctx.attributes)
        xs = eval_contextual(ctx, expr)
        lines.append(f"query: {expr_to_str(expr, ctx.attributes)}")
    else:
        names = [t.strip() for t in args.objects.split(",") if t.strip()]
        try:
            xs = ctx.object_set(names)
        except KeyError as exc:
            print(f"gcl: unknown name {exc.args[0]!r}", file=sys.stderr)
            return EXIT_INPUT
    node = lat.node_of(xs)

    lines.append(f"extent: {_braced(ctx.object_names(node.extent))}")
    in_blocks = [f"D{k + 1}" for k in range(lat.partition.n_f) if node.block_set >> k & 1]
    lines.append("blocks: " + (", ".join(in_blocks) if in_blocks else "(none)"))
    fancy = (
        ctx.n_attributes <= DEFAULT_IRREDUCIBLES_CAP
        and lat.partition.n_f <= _INSPECT_BLOCK_LIMIT
    )
    for which, cf in (("grsp", node.grsp), ("gfcp", node.gfcp)):
        pretty = _bound_pretty(ctx, node.extent, cf, which, fancy)
        lines.append(f"{which}: {pretty}  (minterms {cf.ids()})")
    if args.irreducibles:
        cc = irreducible_conjunctions(ctx, xs)
        dd = irreducible_disjunctions(ctx, xs)
        for label, cls in (("conjunction", cc), ("disjunction", dd)):
            if cls.members:
                body = ", ".join(s.describe(ctx.attributes) for s in cls.members)
            else:
                body = "(empty)"
            lines.append(f"{label} class: {body}")
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; keep 2 for input errors and use 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gcl",
        description="General concept lattices over binary formal contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_input(p):
        p.add_argument("context", help="path to a context file")
        p.add_argument(
            "--input-format",
            choices=("cxt", "csv"),
            help="default: csv for a .csv path, cxt otherwise",
        )

    def add_caps(p):
        p.add_argument(
            "--max-nf",
            type=int,
            default=_env_int("GCL_MAX_NF", DEFAULT_NODE_CAP),
            help="refuse contexts with more blocks (env GCL_MAX_NF)",
        )
        p.add_argument(
            "--max-m",
            type=int,
            default=_env_int("GCL_MAX_M", DEFAULT_CANONICAL_CAP),
            help="refuse contexts with more attributes (env GCL_MAX_M)",
        )

    build = sub.add_parser("build", help="construct a lattice and export it")
    add_input(build)
    build.add_argument("--lattice", choices=("gcl", "fcl", "rsl"), default="gcl")
    build.add_argument("--format", choices=("json", "dot", "text"), default="text")
    build.add_argument("--out", help="write here instead of stdout")
    add_caps(build)
    build.set_defaults(func=_cmd_build)

    verify = sub.add_parser("verify", help="run the law suite against a context")
    add_input(verify)
    verify.add_argument(
        "--sweep",
        action="store_true",
        help="also classify every composite attribute (small contexts only)",
    )
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    verify.add_argument("--out", help="write here instead of stdout")
    add_caps(verify)
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser(
        "compare", help="check both routes to the classical lattices agree"
    )
    add_input(compare)
    add_caps(compare)
    compare.set_defaults(func=_cmd_compare)

    rand = sub.add_parser("random", help="generate a reproducible random context")
    rand.add_argument("seed", type=int)
    rand.add_argument("objects", type=int)
    rand.add_argument("attributes", type=int)
    rand.add_argument("density", type=float)
    rand.add_argument("--out", help="write here instead of stdout")
    rand.set_defaults(func=_cmd_random)

    inspect = sub.add_parser("inspect", help="describe one general concept")
    add_input(inspect)
    target = inspect.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--objects", help="comma-separated object names ('' for the empty set)"
    )
    target.add_argument("--query", help="attribute expression, e.g. 'a & !b'")
    inspect.add_argument(
        "--irreducibles",
        action="store_true",
        help="also list the irreducible classes of the extent",
    )
    add_caps(inspect)
    inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, NotAGeneralExtent, OSError) as exc:
        print(f"gcl: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"gcl: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantError as exc:
        print(f"gcl: {exc}", file=sys.stderr)
        return EXIT_LAW


if __name__ == "__main__":
    raise SystemExit(main())
