"""Command line front end.

Subcommands: build (construct and export a lattice), verify (run the law
suite), compare (check the two routes to the classical lattices agree),
random (generate a reproducible context), inspect (describe one general
concept).  Exit codes: 0 success, 1 usage, 2 unreadable or malformed
input, 3 a size cap was hit, 4 a law or route comparison failed, 141 the
reader closed stdout early.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from functools import cache, reduce
from itertools import chain, compress, repeat
from operator import and_, or_
from types import SimpleNamespace

# the deferred modules of the package: each runs on its first read, so a
# classical build runs neither exprs nor lattice
from . import classical, exprs, irreducibles, lattice, oracle
from .bitset import _selectors
from .context import FormalContext, context_to_cxt, parse_context, random_context
from .errors import (
    DEFAULT_CANONICAL_CAP,
    CapExceeded,
    InvariantError,
    NotAGeneralExtent,
    ParseError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_LAW = 4
# 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
EXIT_PIPE = 141

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

# `gcl random` refuses contexts with more cells, or more names, than this
_RANDOM_CELL_CAP = 10**7


# ---------------------------------------------------------------------------
# rendering

def _bound_pretty(lat: lattice.GclLattice, which: str, escape):
    """pretty(ks, table, plain): the reduced grsp or gfcp of block set ks,
    escaped, or None when it is not shorter than the plain rendering.

    The reduced grsp is the sum of the conjunctions _keeps picks for ks,
    the reduced gfcp the product of the disjunctions, one node at a time
    in exports and inspect alike; the bound G's grsp (the empty extent's
    gfcp) is the empty set alone, 1 (0).  Each member's text, rendered
    once with the member table, is escaped once, here.  table is the
    bound's canonical table, which the kept members' tables must OR (AND)
    to; plain is the unescaped length of the plain rendering, and lengths
    are compared unescaped, so a format's escaping never picks the form.
    """
    grsp = which == "grsp"
    ctx = lat.context
    mode = "conjunction" if grsp else "disjunction"
    red = irreducibles._members(ctx, mode)
    every = (1 << (1 << ctx.n_attributes)) - 1
    whole = (1 << lat.partition.n_f) - 1
    # (block set absorbed by the empty set, its table and text), the text
    # and table of no term, the separator and the fold of the terms' tables
    absorbed, lone, none, sep, fold = (
        (whole, (every, "1"), (0, "0"), " | ", or_)
        if grsp
        else (0, (0, "0"), (every, "1"), " & ", and_)
    )
    texts = tuple(map(escape, red.texts))
    text_len = tuple(map(len, red.texts))
    # among several members, a disjunction of two or more literals is
    # parenthesised, two characters longer
    wrap = [not grsp and s.bit_count() > 1 for s in red.sets]
    parts = tuple(f"({t})" if w else t for t, w in zip(texts, wrap))
    part_len = tuple(n + 2 * w for n, w in zip(text_len, wrap))

    def pretty(ks, table, plain):
        if ks == absorbed:
            (got, text), size = lone, 1
        else:
            picked = irreducibles._keeps(red, ks)
            count = picked.count(1)
            if not count:
                (got, text), size = none, 1
            elif count > 1:
                got = reduce(fold, compress(red.tables, picked))
                size = sum(compress(part_len, picked)) + len(sep) * (count - 1)
                text = sep.join(compress(parts, picked))
            else:
                i = picked.index(1)
                got, size, text = red.tables[i], text_len[i], texts[i]
        if got != table:
            raise InvariantError(f"reduced {which} does not match its canonical bound")
        return text if size < plain else None

    return pretty


# ---------------------------------------------------------------------------
# export
#
# Each format is a generator of text chunks, written as they come: the
# header and blocks, then the nodes, then the covers a batch at a time.  No
# node list, edge list or whole-output string is ever held, and a gcl
# export builds no node object: it reads each node's extent and row table
# from the partition's walk.  Everything a node prints is picked from
# tables encoded once per export for the format (json or dot escaping
# applied): names by the bits of an extent or intent, minterm ids and bound
# terms by the selector bytes of a minterm table (see exprs._lister).  The
# term and id tables are those of a render of 2^n_F nodes, so up to 10
# attributes every bound and id list is one string.  Each format has one
# node loop, which yields a node as a tuple of parts.  A part is a string,
# or an iterable of runs (of at most 2^10 items each) where exprs renders
# a bound or id list past the first 2^10 minterms; a part in runs makes
# its selectors when its first run is written, so a node holds one part's
# selectors at a time.  A node whose parts are all strings is written as
# one chunk, any other part by part and run by run (see _write).  inspect
# renders one node with tables for one node, so its bounds and ids come in
# runs of 2^ceil(m/2) items.  The covers of each lower node are one join over
# node id strings built once per export.  The json generator lays out what
# json.dumps(data, indent=2, sort_keys=True) would print for the same data.
# Up to 10 attributes each bound and id list is split at the median block
# row (_split), and its lister keeps the text of each side it has listed,
# so selectors are made once per side, not once per node.

# lower nodes whose covers are written in one chunk
_COVER_BATCH = 128


def _check_export(lat: lattice.GclLattice | classical.ClassicalLattice) -> None:
    """Refuse a gcl export past the export limit, before anything is written."""
    if lat.kind != "gcl":
        return
    n_f, m = lat.partition.n_f, lat.context.n_attributes
    if n_f + m > _EXPORT_LOG2_LIMIT:
        raise CapExceeded(
            f"export of {n_f} blocks and {m} attributes refused: 2^{n_f} nodes "
            f"over 2^{m} minterms exceed the export limit of 2^{_EXPORT_LOG2_LIMIT}"
        )


def _fancy(lat: lattice.GclLattice, block_limit: int) -> bool:
    """Whether bounds may print reduced: few enough attributes and blocks.
    The block count is tested first, so a render past the block limit
    never runs irreducibles."""
    return (
        lat.partition.n_f <= block_limit
        and lat.context.n_attributes <= irreducibles.DEFAULT_IRREDUCIBLES_CAP
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


class _JsonEscapes(dict):
    """The str.translate table of json.dumps's string escaping (ensure_ascii
    on): printable ASCII as itself, quote, backslash and five controls by
    short escapes, every other character as \\uXXXX, a surrogate pair past
    the BMP.  Those others come from __missing__ and are not stored."""

    def __missing__(self, code: int) -> str:
        if code < 0x10000:
            return f"\\u{code:04x}"
        high, low = divmod(code - 0x10000, 0x400)
        return f"\\u{0xD800 + high:04x}\\u{0xDC00 + low:04x}"


_JSON_ESCAPES = _JsonEscapes(
    {code: chr(code) for code in range(0x20, 0x7F)}
    | {ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}
)


def _json_escape(text: str) -> str:
    """text as json.dumps writes it inside its quotes."""
    return text.translate(_JSON_ESCAPES)


def _picked(table, bits: int):
    """The entries of table at the set bits of bits, in order."""
    return compress(table, _selectors(bits))


def _braced(names) -> str:
    return "{" + ", ".join(names) + "}"


def _property(lat: classical.ClassicalLattice, attributes, picks: bytes) -> str:
    """The conjunction (fcl) or disjunction (rsl) of the names an intent's
    selectors pick."""
    if lat.kind == "fcl":
        return " & ".join(compress(attributes, picks)) or "1"
    return " | ".join(compress(attributes, picks)) or "0"


def _split(part) -> int:
    """The minterm at which a render of every node splits its bound and id
    lists (see exprs._lister): the median block row, so the blocks below
    it fix the low side of a node's table, and its complement's, and the
    others the high side.  Each side then takes at most 2^ceil(n_F/2)
    values, wherever the rows lie."""
    return sorted(part.rows)[part.n_f // 2] if part.n_f else 0


def _node_bound(
    lat: lattice.GclLattice,
    which: str,
    escape,
    nodes: int,
    block_limit: int = _PRETTY_BLOCK_LIMIT,
    split=None,
):
    """bound(ks, table): node ks's grsp or gfcp, as which names, as escaped
    text, a part (see _write), for a render of nodes nodes, where table is
    that bound's table: rows | zero_rho for grsp, rows for gfcp.

    A plain bound is picked from the literal-term tables of its own mode
    for a render of that many nodes, escaped here once per render, and
    split at minterm split where given (see exprs._term_text); a gfcp is
    the CNF of its table's complement.  Where bounds may print reduced
    (see _fancy, up to block_limit blocks: inspect, which asks for one
    node, allows more than the exports), the reduced one (see
    _bound_pretty) wins if it is shorter than the plain one, whose length
    is read off the tables' lengths.  A render builds only the bounds it
    prints: dot asks for grsp alone.
    """
    ctx = lat.context
    m = ctx.n_attributes
    mode = "dnf" if which == "grsp" else "cnf"
    pair = exprs._term_tables(ctx.attributes, mode, nodes)
    text = exprs._term_text(m, mode, *(tuple(map(escape, t)) for t in pair), split)
    full = (1 << (1 << m)) - 1
    if not _fancy(lat, block_limit):
        if mode == "dnf":
            return lambda ks, table: text(table)
        return lambda ks, rows: text(full ^ rows)
    pretty = _bound_pretty(lat, which, escape)
    lengths = [tuple(map(len, t)) for t in pair]

    def bound(ks, table):
        plain = table if mode == "dnf" else full ^ table
        reduced = pretty(ks, table, exprs._term_length(plain, m, mode, *lengths))
        return text(plain) if reduced is None else reduced

    return bound


def _covers(
    lat: lattice.GclLattice | classical.ClassicalLattice, head: str, mid: str, tail: str, sep: str
):
    """Every cover pair as head + lower + mid + upper + tail, sep-joined
    and ascending, in chunks of _COVER_BATCH lower nodes: each lower node's
    pairs are one join over the uppers' id strings, built once, read from
    the per-lower covers of either kind of lattice (hasse_edges.uppers())."""
    n = 1 << lat.partition.n_f if lat.kind == "gcl" else len(lat.concepts)
    ids = tuple(map(str, range(n)))
    get, glue = ids.__getitem__, tail + sep
    lead, batch = "", []
    for lo, his in enumerate(lat.hasse_edges.uppers()):
        if his:
            first = head + ids[lo] + mid
            batch.append(first + (glue + first).join(map(get, his)) + tail)
            if len(batch) == _COVER_BATCH:
                yield lead + sep.join(batch)
                lead, batch = sep, []
    if batch:
        yield lead + sep.join(batch)


def _text(lat: lattice.GclLattice | classical.ClassicalLattice):
    ctx = lat.context
    objects, attributes = ctx.objects, ctx.attributes
    head = (
        f"{lat.kind} lattice: {ctx.n_objects} objects, "
        f"{ctx.n_attributes} attributes, "
    )
    if lat.kind == "gcl":
        part = lat.partition
        lines = [head + f"{part.n_f} blocks, {1 << part.n_f} nodes"]
        for k, (extent, row) in enumerate(zip(part.extents, part.rows)):
            row = " & ".join(_picked(attributes, row)) or "(no attributes)"
            lines.append(
                f"block D{k + 1}: {_braced(_picked(objects, extent))} with row {row}"
            )
        count = 1 << part.n_f
        ids = exprs._id_runs(ctx.n_attributes, ", ", nodes=count)
        empty, join = lat.zero_rho.table, ", ".join
        yield (
            "\n".join(lines) + "\nzero_rho: minterms [",
            ids(empty),
            "]\none_eta: minterms [",
            ids(lat.one_eta.table),
            "]\n",
        )
        split = _split(part)
        grsp, gfcp = (_node_bound(lat, w, str, count, split=split) for w in ("grsp", "gfcp"))
        for ks, (extent, rows) in enumerate(part.walk()):
            yield (
                f"node [{ks}] {{{join(compress(objects, _selectors(extent)))}}}\n  grsp: ",
                grsp(ks, rows | empty),
                "\n  gfcp: ",
                gfcp(ks, rows),
                "\n",
            )
    else:
        yield head + f"{len(lat.concepts)} concepts\n"
        for i, (extent, intent) in enumerate(lat.concepts.pairs):
            picks = _selectors(intent)
            yield (
                f"concept [{i}] {_braced(_picked(objects, extent))} "
                f"with intent {_braced(compress(attributes, picks))}\n"
                f"  property: {_property(lat, attributes, picks)}\n"
            )
    if not lat.hasse_edges:
        yield "covers: (none)\n"
        return
    yield "covers: "
    yield from _covers(lat, "", "<", "", ", ")
    yield "\n"


def _dot(lat: lattice.GclLattice | classical.ClassicalLattice):
    ctx = lat.context
    objects = tuple(map(_dot_escape, ctx.objects))
    yield f"digraph {lat.kind} {{\n  rankdir=BT;\n"
    if lat.kind == "gcl":
        part = lat.partition
        grsp = _node_bound(lat, "grsp", _dot_escape, 1 << part.n_f, split=_split(part))
        empty, join = lat.zero_rho.table, ", ".join
        for ks, (extent, rows) in enumerate(part.walk()):
            yield (
                f'  n{ks} [label="{{{join(compress(objects, _selectors(extent)))}}} | ',
                grsp(ks, rows | empty),
                '"];\n',
            )
    else:
        attributes = tuple(map(_dot_escape, ctx.attributes))
        for i, (extent, intent) in enumerate(lat.concepts.pairs):
            names = _braced(_picked(objects, extent))
            desc = _property(lat, attributes, _selectors(intent))
            yield f'  n{i} [label="{names} | {desc}"];\n'
    yield from _covers(lat, "  n", " -> n", ";\n", "")
    yield "}\n"


# (separator, lead, close) of the items of a json array at depth 1 (a
# top-level field), 2 (a constant's minterms) and 3 (a field of a block,
# node or concept)
_JSON_FRAMES = {
    level: ("," + pad, "[" + pad, "\n" + "  " * level + "]")
    for level, pad in ((1, "\n    "), (2, "\n      "), (3, "\n        "))
}


def _json_names(names, picks: bytes, frame=_JSON_FRAMES[3]) -> str:
    """The encoded names picks selects, as a json array in frame, in one
    join (an encoded name is quoted and a block an object, so none is
    empty); repeat(1) selects them all."""
    sep, lead, close = frame
    text = sep.join(compress(names, picks))
    return f"{lead}{text}{close}" if text else "[]"


def _json(lat: lattice.GclLattice | classical.ClassicalLattice):
    ctx = lat.context
    objects = tuple(f'"{_json_escape(name)}"' for name in ctx.objects)
    attributes = tuple(f'"{_json_escape(name)}"' for name in ctx.attributes)
    if lat.kind == "gcl":
        part, count = lat.partition, 1 << lat.partition.n_f
        split = _split(part)
        # one lister per id list, so each keeps the sides of its own tables
        gfcp_ids, grsp_ids = (
            exprs._id_runs(ctx.n_attributes, *_JSON_FRAMES[3], "[]", count, split) for _ in "gr"
        )
        grsp, gfcp = (
            _node_bound(lat, w, _json_escape, count, split=split) for w in ("grsp", "gfcp")
        )
        empty = lat.zero_rho.table

        def nodes():
            lead = "[\n    "
            for ks, (extent, rows) in enumerate(part.walk()):
                table = rows | empty
                yield (
                    f'{lead}{{\n      "block_set": {ks},'
                    f'\n      "extent": {_json_names(objects, _selectors(extent))},'
                    '\n      "gfcp_minterms": ',
                    gfcp_ids(rows),
                    ',\n      "gfcp_pretty": "',
                    gfcp(ks, rows),
                    '",\n      "grsp_minterms": ',
                    grsp_ids(table),
                    ',\n      "grsp_pretty": "',
                    grsp(ks, table),
                    '"\n    }',
                )
                lead = ",\n    "
            yield "\n  ]"

        blocks = (
            f'{{\n      "extent": {_json_names(objects, _selectors(extent))},'
            f'\n      "row": {_json_names(attributes, _selectors(row))}\n    }}'
            for extent, row in zip(part.extents, part.rows)
        )
        constant = exprs._id_runs(ctx.n_attributes, *_JSON_FRAMES[2], "[]", count)
        fields = {
            "blocks": _json_names(blocks, repeat(1), _JSON_FRAMES[1]),
            "constants": (
                '{\n    "one_eta": ',
                constant(lat.one_eta.table),
                ',\n    "zero_rho": ',
                constant(empty),
                "\n  }",
            ),
            "nodes": nodes(),
        }
    else:
        # one template per concept, its keys in sorted order, written as one
        # chunk; the intent's selectors pick its names and its property
        unquoted = tuple(map(_json_escape, ctx.attributes))

        def nodes():
            lead = "[\n    "
            for extent, intent in lat.concepts.pairs:
                picks = _selectors(intent)
                yield (
                    f'{lead}{{\n      "extent": {_json_names(objects, _selectors(extent))},'
                    f'\n      "intent": {_json_names(attributes, picks)},'
                    f'\n      "property": "{_property(lat, unquoted, picks)}"\n    }}'
                )
                lead = ",\n    "
            yield "\n  ]" if lat.concepts else "[]"

        fields = {"nodes": nodes()}
    fields["kind"] = f'"{_json_escape(lat.kind)}"'
    fields["objects"] = _json_names(objects, repeat(1), _JSON_FRAMES[1])
    fields["attributes"] = _json_names(attributes, repeat(1), _JSON_FRAMES[1])
    fields["edges"] = (
        chain(
            ["[\n    "],
            _covers(lat, "[\n      ", ",\n      ", "\n    ]", ",\n    "),
            ["\n  ]"],
        )
        if lat.hasse_edges
        else "[]"
    )
    lead = "{\n"
    for key, value in sorted(fields.items()):
        yield f'{lead}  "{key}": '
        # a string or a tuple of parts is one chunk; nodes and edges stream
        if isinstance(value, (str, tuple)):
            yield value
        else:
            yield from value
        lead = ",\n"
    yield "\n}\n"


_FORMATS = {"text": _text, "json": _json, "dot": _dot}


def _write(write, chunks) -> None:
    """Write each chunk: a string, or a tuple of parts, each a string or an
    iterable of runs.  A tuple is joined and written as one string when
    every part is a string, and otherwise written part by part, a part's
    runs one by one, so no wide bound is ever joined."""
    join = "".join
    for chunk in chunks:
        if chunk.__class__ is tuple:
            try:
                chunk = join(chunk)
            except TypeError:
                # a part is an iterable of runs; join read none of them
                for part in chunk:
                    for run in (part,) if isinstance(part, str) else part:
                        write(run)
                continue
        write(chunk)


def export_lattice(lat: lattice.GclLattice | classical.ClassicalLattice, fmt: str, out) -> None:
    """Write a lattice to the text stream out as json, dot or text.

    The output is deterministic and written node by node as it is
    rendered, a wide node's bounds run by run, so neither its size nor
    one node's sits in memory.  A refused export (an unknown format or
    the gcl export limit) writes nothing; an invariant error raised while
    rendering leaves the part written so far.
    """
    chunks = _FORMATS.get(fmt)
    if chunks is None:
        raise ValueError(f"unknown format {fmt!r}")
    _check_export(lat)
    _write(out.write, chunks(lat))


# ---------------------------------------------------------------------------
# subcommands

def _path(path: str) -> str:
    """path as pathlib writes it, so messages name files as they always did:
    empty and "." parts dropped, "." for none, a leading "//" kept."""
    names = [name for name in path.split("/") if name not in ("", ".")]
    lead = len(path) - len(path.lstrip("/"))
    return ("//" if lead == 2 else "/" if lead else "") + "/".join(names) or "."


def _load(args) -> FormalContext:
    path = _path(args.context)
    fmt = args.input_format
    if fmt is None:
        # pathlib's suffix: a name's last dot, neither its first character
        # nor its last
        name = path.rpartition("/")[2]
        fmt = "csv" if len(name) > 4 and name[-4:].lower() == ".csv" else "cxt"
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"byte 0x{exc.object[exc.start]:02x} at offset {exc.start} is not UTF-8", line
        ) from None
    return parse_context(text, fmt)


def _load_gcl(args) -> tuple[FormalContext, lattice.GclLattice]:
    """The context and its general lattice, within the --max-m cap."""
    ctx = _load(args)
    return ctx, lattice.build_gcl(ctx, args.max_m)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(_path(out), "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    if args.lattice == "gcl":
        lat = _load_gcl(args)[1]
    else:
        build = classical.build_fcl if args.lattice == "fcl" else classical.build_rsl
        lat = build(_load(args))
    # a refusal must leave an existing --out file as it was
    _check_export(lat)
    if args.out:
        with open(_path(args.out), "w", encoding="utf-8") as out:
            export_lattice(lat, args.format, out)
    else:
        export_lattice(lat, args.format, sys.stdout)
    return EXIT_OK


def _law_line(r) -> str:
    return f"law {r.law}: ok" if r.passed else f"law {r.law}: FAIL ({r.witness})"


def _cmd_verify(args) -> int:
    ctx, lat = _load_gcl(args)
    # the sweep runs first, so a sweep over its cap is refused before any law
    sweep = oracle.enumerate_mstar(ctx) if args.sweep else None
    report = oracle.verify_laws(ctx, lat)
    failed = not report.all_passed or (sweep is not None and not sweep.all_passed)

    if args.json:
        import json  # only this command pays for loading it

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
    for kind, builder in (("fcl", classical.build_fcl), ("rsl", classical.build_rsl)):
        # recovery walks every block set, so past the node cap it refuses first
        recovered = classical.recover_classical(lat, kind)
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
    # with no attributes (or no objects) there are no cells, but every name
    # is still built
    names = args.objects + args.attributes
    if names > _RANDOM_CELL_CAP:
        raise CapExceeded(
            f"{args.objects} objects + {args.attributes} attributes = {names} names "
            f"exceed the cap of {_RANDOM_CELL_CAP}"
        )
    ctx = random_context(args.seed, args.objects, args.attributes, args.density)
    _emit(context_to_cxt(ctx), args.out)
    return EXIT_OK


def _cmd_inspect(args) -> int:
    """Describe one node.  Everything that may refuse or fail runs before
    the first byte is written; the bounds and their minterm ids are then
    written by the exporters' writer, run by run where they come in runs."""
    ctx, lat = _load_gcl(args)
    lines = []
    if args.query is not None:
        expr = exprs.parse_expr(args.query, ctx.attributes)
        xs = exprs.eval_contextual(ctx, expr)
        lines.append(f"query: {exprs.expr_to_str(expr, ctx.attributes)}\n")
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
    ks = node.block_set

    lines.append(f"extent: {_braced(ctx.object_names(node.extent))}\n")
    in_blocks = [f"D{k + 1}" for k in range(lat.partition.n_f) if ks >> k & 1]
    lines.append("blocks: " + (", ".join(in_blocks) if in_blocks else "(none)") + "\n")
    rows, table = node.gfcp.table, node.grsp.table
    # one node: narrow term and id tables, each bound written in runs
    grsp, gfcp = (_node_bound(lat, w, str, 1, _INSPECT_BLOCK_LIMIT) for w in ("grsp", "gfcp"))
    ids = exprs._id_runs(ctx.n_attributes, ", ", nodes=1)
    bounds = [
        ("grsp: ", grsp(ks, table), "  (minterms [", ids(table), "])\n"),
        ("gfcp: ", gfcp(ks, rows), "  (minterms [", ids(rows), "])\n"),
    ]
    classes = []
    if args.irreducibles:
        cc = irreducibles.irreducible_conjunctions(ctx, xs)
        dd = irreducibles.irreducible_disjunctions(ctx, xs)
        for label, cls in (("conjunction", cc), ("disjunction", dd)):
            if cls.members:
                body = ", ".join(s.describe(ctx.attributes) for s in cls.members)
            else:
                body = "(empty)"
            classes.append(f"{label} class: {body}\n")
    _write(sys.stdout.write, ["".join(lines), *bounds, "".join(classes)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
#
# The grammar gcl had under the standard library's argument parser, read
# from one table that also gives the usage and help: options before, between
# or after the positionals, --opt=value, unique prefixes of long options,
# --, negative numbers as positionals, the last of a repeated option
# winning, and that parser's error text.  The library parser itself is not
# used: importing it and building one cost more start-up than a small
# command's work.


class _Usage(Exception):
    """args: (the command, None for gcl itself; the error, None for -h)."""


def _cap(raw: str) -> int:
    """An attribute cap given on the command line: an int, at least 0."""
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise ValueError(f"invalid cap {raw!r}: must be at least 0")
    return value


def _default_max_m() -> int:
    """GCL_MAX_M, or the canonical cap if it is unset, unparsable or negative."""
    try:
        return _cap(os.environ["GCL_MAX_M"])
    except (KeyError, ValueError):
        return DEFAULT_CANONICAL_CAP


# An argument is (name, kind, default, help).  A name without a leading "-"
# is a required positional, filled in table order.  kind converts the text,
# is the tuple of its choices, or is None for a flag.  A default that is a
# function is called at each parse.
_CONTEXT = ("context", str, None, "path to a context file")
_INPUT = ("--input-format", ("cxt", "csv"), None, "default: csv for a .csv path, cxt otherwise")
_OUT = ("--out", str, None, "write here instead of stdout")
_MAX_M = ("--max-m", _cap, _default_max_m, "refuse contexts with more attributes (env GCL_MAX_M)")
_COMMANDS = {  # name: (help, function, arguments)
    "build": ("construct a lattice and export it", _cmd_build, (
        _CONTEXT, _INPUT,
        ("--lattice", ("gcl", "fcl", "rsl"), "gcl", "the lattice to build"),
        ("--format", ("json", "dot", "text"), "text", "the export format"),
        _OUT, _MAX_M,
    )),
    "verify": ("run the law suite against a context", _cmd_verify, (
        _CONTEXT, _INPUT,
        ("--sweep", None, False, "also classify every composite attribute (small contexts only)"),
        ("--json", None, False, "machine-readable report"),
        _OUT, _MAX_M,
    )),
    "compare": ("check both routes to the classical lattices agree", _cmd_compare, (
        _CONTEXT, _INPUT, _MAX_M,
    )),
    "random": ("generate a reproducible random context", _cmd_random, (
        ("seed", int, None, "seed of the generator"),
        ("objects", int, None, "number of objects"),
        ("attributes", int, None, "number of attributes"),
        ("density", float, None, "chance that a cell is set, in [0, 1]"),
        _OUT,
    )),
    "inspect": ("describe one general concept", _cmd_inspect, (
        _CONTEXT, _INPUT,
        ("--objects", str, None, "comma-separated object names ('' for the empty set)"),
        ("--query", str, None, "attribute expression, e.g. 'a & !b'"),
        ("--irreducibles", None, False, "also list the irreducible classes of the extent"),
        _MAX_M,
    )),
}
_ONE_OF = {"inspect": ("--objects", "--query")}  # exactly one of these is required
_HELP = ("-h", "--help")


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _converted(command: str | None, name: str, kind, raw: str):
    if isinstance(kind, tuple):
        if raw in kind:
            return raw
        why = f"invalid choice: {raw!r} (choose from {', '.join(map(repr, kind))})"
    else:
        try:
            return kind(raw)
        except ValueError as exc:
            # _cap words its own errors; int and float fail as the library words it
            why = exc if kind is _cap else f"invalid {kind.__name__} value: {raw!r}"
    raise _Usage(command, f"argument {name}: {why}")


def _option(arg: str, names, command: str | None):
    """arg as the library parser reads it among the option names: (name,
    the text after = or after -h, else None) for an option, ("", None) for
    an unknown one, None for a positional."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in names:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in names:
        return head, value
    found = [name for name in names if name.startswith(head)] if arg[1] == "-" else []
    if len(found) > 1:
        raise _Usage(command, f"ambiguous option: {arg} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    if arg.startswith("-h"):
        return "-h", arg[2:]
    # a negative number (-\d+ or -\d*.\d+) or text with a space is a positional
    whole, dot, fraction = arg[1:].partition(".")
    number = (fraction if dot else whole).isdecimal() and (not whole or whole.isdecimal())
    return None if number or " " in arg else ("", None)


def _parse(command: str | None, rows, argv: list[str]) -> tuple[dict, list[str]]:
    """The values of the arguments rows in argv, and the strings left over."""
    options = dict.fromkeys(_HELP, ("-h/--help", None))
    options.update((row[0], row) for row in rows if row[0][0] == "-")
    positionals = [row for row in reversed(rows) if row[0][0] != "-"]
    values = {_dest(n): d() if callable(d) else d for n, _, d, _ in rows if n[0] == "-"}
    one_of, chosen, extra, filled, i = _ONE_OF.get(command, ()), None, [], -1, 0
    # as in the library parser, every string is read before any is acted
    # on, so an ambiguous prefix is the first error; after -- all are
    # positionals
    end = argv.index("--") if "--" in argv else len(argv)
    hits = [_option(arg, tuple(options), command) for arg in argv[:end]]
    hits += [("--", None)] + [None] * (len(argv) - end - 1)
    while i < len(argv):
        arg, hit, i = argv[i], hits[i], i + 1
        name, value = hit or ("", None)
        if hit is None and positionals:
            name, kind = positionals.pop()[:2]
            values[name], filled = _converted(command, name, kind, arg), i
            continue
        if name == "--":
            # the library leaves -- over unless it touches a positional it fills
            if filled < i - 1 and not (positionals and i < len(argv)):
                extra.append(arg)
            continue
        if not name:
            extra.append(arg)
            continue
        label, kind = options[name][:2]
        if kind is None and value is not None:
            raise _Usage(command, f"argument {label}: ignored explicit argument {value!r}")
        if name in _HELP:
            raise _Usage(command, None)
        if kind is not None and value is None:
            if i == len(argv) or hits[i] is not None:
                raise _Usage(command, f"argument {name}: expected one argument")
            value, i = argv[i], i + 1
        values[_dest(name)] = True if kind is None else _converted(command, name, kind, value)
        if name in one_of:
            if chosen not in (None, name):
                raise _Usage(command, f"argument {name}: not allowed with argument {chosen}")
            chosen = name
    if positionals:
        missing = ", ".join(row[0] for row in reversed(positionals))
        raise _Usage(command, f"the following arguments are required: {missing}")
    if one_of and chosen is None:
        raise _Usage(command, f"one of the arguments {' '.join(one_of)} is required")
    return values, extra


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read by the grammar; _Usage for an error or -h."""
    # gcl's own options end at its command, the first positional; as in the
    # library parser, a -- there is taken for the command unless nothing
    # follows
    at = (
        i
        for i, arg in enumerate(argv)
        if (i + 1 < len(argv) if arg == "--" else not _option(arg, _HELP, None))
    )
    i = next(at, len(argv))
    extra = _parse(None, (), argv[:i])[1]
    if i == len(argv):
        raise _Usage(None, "the following arguments are required: command")
    command = _converted(None, "command", tuple(_COMMANDS), argv[i])
    values, more = _parse(command, _COMMANDS[command][2], argv[i + 1 :])
    if extra + more:
        raise _Usage(None, "unrecognized arguments: " + " ".join(extra + more))
    return SimpleNamespace(command=command, **values)


def _invocation(name: str, kind, *_) -> str:
    if name[0] != "-" or kind is None:
        return name
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _dest(name).upper()
    return f"{name} {metavar}"


def _usage(command: str | None) -> str:
    """The usage lines of a command, or of gcl for None."""
    if command is None:
        return "usage: gcl [-h] command ...\n"
    rows, one_of = _COMMANDS[command][2], _ONE_OF.get(command, ())
    group = "(" + " | ".join(_invocation(*row) for row in rows if row[0] in one_of) + ")"
    parts = [
        group if row[0] in one_of else f"[{_invocation(*row)}]"
        for row in rows
        if row[0][0] == "-" and row[0] not in one_of[1:]
    ]
    lines = [lead := f"usage: gcl {command}"]
    for part in ["[-h]"] + parts + [row[0] for row in rows if row[0][0] != "-"]:
        if len(lines[-1]) + len(part) >= 78 and not lines[-1].isspace():
            lines.append(" " * len(lead))
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _help(command: str | None) -> str:
    """The -h text of a command, or of gcl for None."""
    if command is None:
        about, rows = "General concept lattices over binary formal contexts.", ()
        first = ("commands", [(name, spec[0]) for name, spec in _COMMANDS.items()])
    else:
        about, _, rows = _COMMANDS[command]
        first = ("positional arguments", [(r[0], r[3]) for r in rows if r[0][0] != "-"])
    options = [("-h, --help", "show this help message and exit")]
    options += [(_invocation(*row), row[3]) for row in rows if row[0][0] == "-"]
    text = f"{_usage(command)}\n{about}\n"
    for title, entries in (first, ("options", options)):
        text += f"\n{title}:\n"
        for invocation, what in entries:
            pad = "\n" + " " * 24 if len(invocation) > 20 else " " * (22 - len(invocation))
            text += f"  {invocation}{pad}{what}\n"
    if command in _ONE_OF:
        text += f"\nexactly one of {' and '.join(_ONE_OF[command])} is required\n"
    return text


@cache
def _freeze_at_exit() -> None:
    # at exit, move what is still alive to the permanent generation, which
    # the interpreter's final collections skip; once per process, as
    # atexit.unregister would leave an empty slot behind on each call
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_at_exit()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Usage as exc:
        command, error = exc.args
        if error is None:
            sys.stdout.write(_help(command))
            return EXIT_OK
        prog = "gcl" if command is None else f"gcl {command}"
        sys.stderr.write(f"{_usage(command)}{prog}: error: {error}\n")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command][1](args)
    except BrokenPipeError:
        # the reader closed stdout early (gcl build ... | head): stop quietly,
        # with stdout on devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
