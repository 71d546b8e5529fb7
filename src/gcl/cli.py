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
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .bitset import BitSet
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
    _selectors,
    _slice_runs,
    _term_runs,
    _term_tables,
    _TERM_SPLIT,
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
from .lattice import GclLattice, build_gcl
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

# `gcl inspect` prints both bounds of one node in full, each listing up to
# 2^m minterm ids, so it is refused up front past this many attributes
# (16 gives about 13 MB of text)
_INSPECT_ATTRIBUTE_LIMIT = 16

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


# ---------------------------------------------------------------------------
# export
#
# Each format is a generator of text chunks, written as they come: the
# header and blocks, then the nodes, then the covers a batch at a time.  No
# node list, edge list or whole-output string is ever held, and a gcl
# export builds no node object.  Everything a node prints is picked from
# tables encoded once per export for the format (json or dot escaping
# applied): names by the bits of an extent or intent, minterm ids and bound
# terms by the selector bytes of a minterm table (see exprs._term_runs).  A
# bound or id list comes in runs of at most 2^_TERM_SPLIT items, so a node
# over more attributes is written run by run.  The json generator lays out
# what json.dumps(data, indent=2, sort_keys=True) would print for the same
# data.

# cover pairs per written chunk
_EDGE_BATCH = 1024


def _check_export(lat: GclLattice | ClassicalLattice) -> None:
    """Refuse a gcl export past the export limit, before anything is written."""
    if not isinstance(lat, GclLattice):
        return
    n_f, m = lat.partition.n_f, lat.context.n_attributes
    if n_f + m > _EXPORT_LOG2_LIMIT:
        raise CapExceeded(
            f"export of {n_f} blocks and {m} attributes refused: 2^{n_f} nodes "
            f"over 2^{m} minterms exceed the export limit of 2^{_EXPORT_LOG2_LIMIT}"
        )


def _kind(lat: GclLattice | ClassicalLattice) -> str:
    return "gcl" if isinstance(lat, GclLattice) else lat.kind


def _fancy(lat: GclLattice) -> bool:
    return (
        lat.context.n_attributes <= DEFAULT_IRREDUCIBLES_CAP
        and lat.partition.n_f <= _PRETTY_BLOCK_LIMIT
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _json_escape(text: str) -> str:
    """text as json.dumps writes it inside its quotes."""
    return encode_basestring_ascii(text)[1:-1]


def _picked(table, bits: int):
    """The entries of table at the set bits of bits, in order."""
    return compress(table, _selectors(bits))


def _braced(names) -> str:
    return "{" + ", ".join(names) + "}"


def _property(lat: ClassicalLattice, attributes, intent: int) -> str:
    """The conjunction (fcl) or disjunction (rsl) of an intent's names."""
    if lat.kind == "fcl":
        return " & ".join(_picked(attributes, intent)) or "1"
    return " | ".join(_picked(attributes, intent)) or "0"


def _node_bounds(lat: GclLattice, escape):
    """bound(ks, rows, which): node ks's grsp or gfcp text, as escaped runs.

    rows is the node's row table.  A plain bound's runs come from the
    literal-term tables, escaped here once per export; a reduced bound
    (see _fancy) is rendered and escaped whole.
    """
    ctx, part = lat.context, lat.partition
    m = ctx.n_attributes
    empty = lat.zero_rho.table
    if _fancy(lat):

        def bound(ks, rows, which):
            if which == "grsp":
                rows |= empty
            extent = BitSet(part.union(ks), ctx.n_objects)
            cf = CanonicalForm(m, rows)
            yield escape(_bound_pretty(ctx, extent, cf, which, True))

        return bound
    full = empty | lat.one_eta.table
    dnf, cnf = (
        [tuple(map(escape, t)) for t in _term_tables(ctx.attributes, mode)]
        for mode in ("dnf", "cnf")
    )

    def bound(ks, rows, which):
        if which == "grsp":
            return _term_runs(rows | empty, m, "dnf", *dnf)
        return _term_runs(full ^ rows, m, "cnf", *cnf)

    return bound


def _id_strings(m: int) -> tuple[str, ...]:
    """The id strings of the first 2^_TERM_SPLIT minterms over m attributes."""
    return tuple(map(str, range(1 << min(m, _TERM_SPLIT))))


def _id_runs(table: int, ids: tuple[str, ...], sep: str):
    """The ids of table's set bits, sep-joined, as runs of one slice of
    2^_TERM_SPLIT minterms each, every run after the first led by sep.

    ids holds the first slice's id strings; later slices format theirs.
    """
    selectors = _selectors(table)
    if len(selectors) <= len(ids):
        return (sep.join(compress(ids, selectors)),)

    def pick(h, chunk):
        if not h:
            return compress(ids, chunk)
        base = h << _TERM_SPLIT
        return map(str, compress(range(base, base + len(ids)), chunk))

    return _slice_runs(selectors, pick, sep)


def _gcl_nodes(lat: GclLattice, node):
    """node(ks)'s chunks for every block set ks, in order.  While a bound
    is one run, a node's chunks are joined and written at once."""
    n = 1 << lat.partition.n_f
    if lat.context.n_attributes <= _TERM_SPLIT:
        return map("".join, map(node, range(n)))
    return chain.from_iterable(map(node, range(n)))


def _joined(items, sep: str, size: int):
    """sep.join(items), yielded size items at a time."""
    items = iter(items)
    lead = ""
    while batch := list(islice(items, size)):
        yield lead + sep.join(batch)
        lead = sep


def _text(lat: GclLattice | ClassicalLattice):
    ctx = lat.context
    objects, attributes = ctx.objects, ctx.attributes
    head = (
        f"{_kind(lat)} lattice: {ctx.n_objects} objects, "
        f"{ctx.n_attributes} attributes, "
    )
    if isinstance(lat, GclLattice):
        part = lat.partition
        lines = [head + f"{part.n_f} blocks, {1 << part.n_f} nodes"]
        for k, b in enumerate(part.blocks):
            row = " & ".join(_picked(attributes, b.intent.bits)) or "(no attributes)"
            lines.append(
                f"block D{k + 1}: {_braced(_picked(objects, b.extent.bits))} "
                f"with row {row}"
            )
        yield "\n".join(lines) + "\n"
        ids = _id_strings(ctx.n_attributes)
        for name, cf in (("zero_rho", lat.zero_rho), ("one_eta", lat.one_eta)):
            yield f"{name}: minterms ["
            yield from _id_runs(cf.table, ids, ", ")
            yield "]\n"
        bound = _node_bounds(lat, str)

        def node(ks):
            rows = part.row_table(ks)
            yield f"node [{ks}] {_braced(_picked(objects, part.union(ks)))}\n  grsp: "
            yield from bound(ks, rows, "grsp")
            yield "\n  gfcp: "
            yield from bound(ks, rows, "gfcp")
            yield "\n"

        yield from _gcl_nodes(lat, node)
    else:
        yield head + f"{len(lat.concepts)} concepts\n"
        for i, c in enumerate(lat.concepts):
            yield (
                f"concept [{i}] {_braced(_picked(objects, c.extent.bits))} "
                f"with intent {_braced(_picked(attributes, c.intent.bits))}\n"
                f"  property: {_property(lat, attributes, c.intent.bits)}\n"
            )
    if not lat.hasse_edges:
        yield "covers: (none)\n"
        return
    yield "covers: "
    yield from _joined((f"{lo}<{hi}" for lo, hi in lat.hasse_edges), ", ", _EDGE_BATCH)
    yield "\n"


def _dot(lat: GclLattice | ClassicalLattice):
    ctx = lat.context
    objects = tuple(map(_dot_escape, ctx.objects))
    yield f"digraph {_kind(lat)} {{\n  rankdir=BT;\n"
    if isinstance(lat, GclLattice):
        part = lat.partition
        bound = _node_bounds(lat, _dot_escape)

        def node(ks):
            names = _braced(_picked(objects, part.union(ks)))
            yield f'  n{ks} [label="{names} | '
            yield from bound(ks, part.row_table(ks), "grsp")
            yield '"];\n'

        yield from _gcl_nodes(lat, node)
    else:
        attributes = tuple(map(_dot_escape, ctx.attributes))
        for i, c in enumerate(lat.concepts):
            names = _braced(_picked(objects, c.extent.bits))
            desc = _property(lat, attributes, c.intent.bits)
            yield f'  n{i} [label="{names} | {desc}"];\n'
    yield from _joined(
        (f"  n{lo} -> n{hi};\n" for lo, hi in lat.hasse_edges), "", _EDGE_BATCH
    )
    yield "}\n"


def _json_block(items, level: int, brackets: str = "[]") -> str:
    """Encoded items as a json array (or object) at nesting depth level."""
    items = list(items)
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    # the brackets go onto the end items, so the joined text is never copied
    items[0] = brackets[0] + pad + items[0]
    items[-1] += "\n" + "  " * level + brackets[1]
    return ("," + pad).join(items)


def _json_object(fields: dict, level: int) -> str:
    """Encoded values as a json object at depth level, keys sorted."""
    return _json_block(
        (f'"{key}": {value}' for key, value in sorted(fields.items())), level, "{}"
    )


def _json_ids(table: int, ids: tuple[str, ...], level: int):
    """The ids of table's set bits as a json array at depth level, in runs."""
    if not table:
        return ("[]",)
    pad = "\n" + "  " * (level + 1)
    runs = _id_runs(table, ids, "," + pad)
    return chain(("[" + pad,), runs, ("\n" + "  " * level + "]",))


def _json_stream(items, count: int, size: int):
    """A top-level member's array of count encoded items, size at a time."""
    if not count:
        yield "[]"
        return
    yield "[\n    "
    yield from _joined(items, ",\n    ", size)
    yield "\n  ]"


def _json(lat: GclLattice | ClassicalLattice):
    ctx = lat.context
    objects = tuple(map(encode_basestring_ascii, ctx.objects))
    attributes = tuple(map(encode_basestring_ascii, ctx.attributes))
    if isinstance(lat, GclLattice):
        part = lat.partition
        ids = _id_strings(ctx.n_attributes)
        bound = _node_bounds(lat, _json_escape)
        empty = lat.zero_rho.table

        def node(ks):
            rows = part.row_table(ks)
            extent = _json_block(_picked(objects, part.union(ks)), 3)
            lead = ",\n    " if ks else ""
            yield f'{lead}{{\n      "block_set": {ks},\n      "extent": {extent}'
            yield ',\n      "gfcp_minterms": '
            yield from _json_ids(rows, ids, 3)
            yield ',\n      "gfcp_pretty": "'
            yield from bound(ks, rows, "gfcp")
            yield '",\n      "grsp_minterms": '
            yield from _json_ids(rows | empty, ids, 3)
            yield ',\n      "grsp_pretty": "'
            yield from bound(ks, rows, "grsp")
            yield '"\n    }'

        blocks = (
            {
                "extent": _json_block(_picked(objects, b.extent.bits), 3),
                "row": _json_block(_picked(attributes, b.intent.bits), 3),
            }
            for b in part.blocks
        )
        fields = {
            "blocks": _json_block((_json_object(b, 2) for b in blocks), 1),
            "constants": chain(
                ['{\n    "one_eta": '],
                _json_ids(lat.one_eta.table, ids, 2),
                [',\n    "zero_rho": '],
                _json_ids(empty, ids, 2),
                ["\n  }"],
            ),
            "nodes": chain(["[\n    "], _gcl_nodes(lat, node), ["\n  ]"]),
        }
    else:
        unquoted = tuple(map(_json_escape, ctx.attributes))
        nodes = (
            {
                "extent": _json_block(_picked(objects, c.extent.bits), 3),
                "intent": _json_block(_picked(attributes, c.intent.bits), 3),
                "property": f'"{_property(lat, unquoted, c.intent.bits)}"',
            }
            for c in lat.concepts
        )
        fields = {
            "nodes": _json_stream(
                (_json_object(node, 2) for node in nodes), len(lat.concepts), 1
            )
        }
    fields["kind"] = json.dumps(_kind(lat))
    fields["objects"] = _json_block(objects, 1)
    fields["attributes"] = _json_block(attributes, 1)
    fields["edges"] = _json_stream(
        (f"[\n      {lo},\n      {hi}\n    ]" for lo, hi in lat.hasse_edges),
        len(lat.hasse_edges),
        _EDGE_BATCH,
    )
    lead = "{\n"
    for key, value in sorted(fields.items()):
        yield f'{lead}  "{key}": '
        if isinstance(value, str):
            yield value
        else:
            yield from value
        lead = ",\n"
    yield "\n}\n"


_FORMATS = {"text": _text, "json": _json, "dot": _dot}


def export_lattice(lat: GclLattice | ClassicalLattice, fmt: str, out) -> None:
    """Write a lattice to the text stream out as json, dot or text.

    The output is deterministic and written node by node as it is
    rendered, a wide node's bounds run by run, so neither its size nor
    one node's sits in memory.  A refused export (the
    gcl export limit) writes nothing; an invariant error raised while
    rendering leaves the part written so far.
    """
    chunks = _FORMATS.get(fmt)
    if chunks is None:
        raise ValueError(f"unknown format {fmt!r}")
    _check_export(lat)
    write = out.write
    for chunk in chunks(lat):
        write(chunk)


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
    """The context and its general lattice, within the --max-m cap."""
    ctx = _load(args)
    return ctx, build_gcl(ctx, args.max_m)


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
    # a refusal must leave an existing --out file as it was
    _check_export(lat)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            export_lattice(lat, args.format, out)
    else:
        export_lattice(lat, args.format, sys.stdout)
    return EXIT_OK


def _law_line(r) -> str:
    return f"law {r.law}: ok" if r.passed else f"law {r.law}: FAIL ({r.witness})"


def _cmd_verify(args) -> int:
    ctx, lat = _load_gcl(args)
    # the sweep runs first, so a sweep over its cap is refused before any law
    sweep = enumerate_mstar(ctx) if args.sweep else None
    report = verify_laws(ctx, lat)
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
        # recovery walks every node, so past the node cap it refuses first
        recovered = recover_classical(lat, kind)
        direct = builder(ctx)
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
    if ctx.n_attributes > _INSPECT_ATTRIBUTE_LIMIT:
        raise CapExceeded(
            f"inspect of {ctx.n_attributes} attributes refused: each bound lists up to "
            f"2^{ctx.n_attributes} minterms, over the inspect limit of "
            f"{_INSPECT_ATTRIBUTE_LIMIT} attributes"
        )
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

    def add_cap(p):
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
    add_cap(build)
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
    add_cap(verify)
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser(
        "compare", help="check both routes to the classical lattices agree"
    )
    add_input(compare)
    add_cap(compare)
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
    add_cap(inspect)
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
