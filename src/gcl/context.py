"""Binary formal contexts and their derivation and modal operators.

A context is a triple (G, M, R): finite object and attribute name lists
plus an incidence relation stored row-wise as attribute bitmasks.  On top
of it this module provides

* the derivation operators ``intent_of`` / ``extent_of`` (shared-attribute
  and shared-object derivation),
* the modal operators ``box_of`` / ``diamond_of`` on object sets and their
  attribute-side counterparts ``approx_box`` / ``approx_diamond``,
* the partition of G into blocks of row-identical objects, which underlies
  every lattice built elsewhere in the package.

The two maps between block sets (int masks over the blocks) and the
extents they cover live here and nowhere else in the builder:
``BlockPartition.union`` takes a block set to its extent, and
``block_set_of`` takes an extent back to its block set, refusing one that
is not a union of blocks.  ``BlockPartition.row_table`` takes a block set
to the minterm table of its blocks' rows, set from the row ids on each
call: the partition keeps no 2^m-bit table per block.  Both maps are
unions over the blocks, so ``BlockPartition.walk`` gives them for every
block set in order from a few calls, each block set's pair the OR of its
high and its low blocks' pairs.

Two file formats are understood: the ``cxt`` format (header line ``B``,
dimensions, names, then an X/. matrix) and a csv layout with attribute
names in the header row and object names in the first column.
``random_context`` generates reproducible contexts from a 64-bit linear
congruential generator, so that law sweeps can be pinned to seeds.
"""

from __future__ import annotations

import io
from functools import cached_property, lru_cache

from .bitset import BitSet
from .errors import NotAGeneralExtent, ParseError
from .value import Value


class FormalContext(Value):
    """A finite binary context.

    ``rows[i]`` is the attribute mask of object i (bit j set iff object i
    has attribute j).  Object and attribute names must be unique,
    non-empty and free of line breaks.
    """

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.objects):
            raise ValueError(
                f"{len(self.objects)} objects but {len(self.rows)} rows"
            )
        for names, what in ((self.objects, "object"), (self.attributes, "attribute")):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {what} names")
            if any(not n for n in names):
                raise ValueError(f"empty {what} name")
            # the cxt format and the text and dot exports give a name one line
            for n in names:
                if "\n" in n or "\r" in n:
                    raise ValueError(f"{what} name {n!r} contains a line break")
        limit = 1 << len(self.attributes)
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i} does not fit {len(self.attributes)} attributes")

    @classmethod
    def from_table(cls, objects, attributes, table) -> "FormalContext":
        """Build from row strings like ``"X.X"`` or ``"101"``."""
        rows = []
        for r, line in enumerate(table):
            if len(line) != len(attributes):
                raise ValueError(f"row {r} has length {len(line)}, expected {len(attributes)}")
            bits = 0
            for j, ch in enumerate(line):
                if ch in "X1":
                    bits |= 1 << j
                elif ch not in ".0":
                    raise ValueError(f"bad cell {ch!r} in row {r}")
            rows.append(bits)
        return cls(tuple(objects), tuple(attributes), tuple(rows))

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Column masks: bit i of cols[j] iff object i has attribute j."""
        cols = [0] * self.n_attributes
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << i
                row ^= low
        return tuple(cols)

    @cached_property
    def _object_index(self) -> dict:
        return {name: i for i, name in enumerate(self.objects)}

    @cached_property
    def _attribute_index(self) -> dict:
        return {name: j for j, name in enumerate(self.attributes)}

    def incidence(self, obj: str, attr: str) -> bool:
        return (self.rows[self._object_index[obj]] >> self._attribute_index[attr]) & 1 == 1

    def object_set(self, names) -> BitSet:
        """Object set from names; raises KeyError on an unknown name."""
        return BitSet.of((self._object_index[n] for n in names), self.n_objects)

    def attribute_set(self, names) -> BitSet:
        return BitSet.of((self._attribute_index[n] for n in names), self.n_attributes)

    def object_names(self, xs: BitSet) -> list[str]:
        return [self.objects[i] for i in xs]

    def attribute_names(self, ys: BitSet) -> list[str]:
        return [self.attributes[j] for j in ys]


# ---------------------------------------------------------------------------
# operators

def _want_objects(ctx: FormalContext, xs: BitSet) -> None:
    if xs.width != ctx.n_objects:
        raise ValueError(f"object set width {xs.width}, context has {ctx.n_objects} objects")


def _want_attributes(ctx: FormalContext, ys: BitSet) -> None:
    if ys.width != ctx.n_attributes:
        raise ValueError(f"attribute set width {ys.width}, context has {ctx.n_attributes} attributes")


def intent_of(ctx: FormalContext, xs: BitSet) -> BitSet:
    """Attributes shared by every object of xs (all of M for xs = empty)."""
    _want_objects(ctx, xs)
    bits = 0
    for j, col in enumerate(ctx.cols):
        if xs.bits & ~col == 0:
            bits |= 1 << j
    return BitSet(bits, ctx.n_attributes)


def extent_of(ctx: FormalContext, ys: BitSet) -> BitSet:
    """Objects carrying every attribute of ys (all of G for ys = empty)."""
    _want_attributes(ctx, ys)
    bits = (1 << ctx.n_objects) - 1
    for j in ys:
        bits &= ctx.cols[j]
    return BitSet(bits, ctx.n_objects)


def box_of(ctx: FormalContext, xs: BitSet) -> BitSet:
    """Attributes whose whole column lies inside xs."""
    _want_objects(ctx, xs)
    bits = 0
    for j, col in enumerate(ctx.cols):
        if col & ~xs.bits == 0:
            bits |= 1 << j
    return BitSet(bits, ctx.n_attributes)


def diamond_of(ctx: FormalContext, xs: BitSet) -> BitSet:
    """Attributes held by at least one object of xs."""
    _want_objects(ctx, xs)
    bits = 0
    for i in xs:
        bits |= ctx.rows[i]
    return BitSet(bits, ctx.n_attributes)


def approx_box(ctx: FormalContext, ys: BitSet) -> BitSet:
    """Objects whose whole row lies inside ys."""
    _want_attributes(ctx, ys)
    bits = 0
    for i, row in enumerate(ctx.rows):
        if row & ~ys.bits == 0:
            bits |= 1 << i
    return BitSet(bits, ctx.n_objects)


def approx_diamond(ctx: FormalContext, ys: BitSet) -> BitSet:
    """Objects holding at least one attribute of ys."""
    _want_attributes(ctx, ys)
    bits = 0
    for j in ys:
        bits |= ctx.cols[j]
    return BitSet(bits, ctx.n_objects)


# ---------------------------------------------------------------------------
# blocks

# BlockPartition.walk maps the block sets over this many low blocks once:
# it holds 2^_WALK_LOW row tables of 2^m bits, whatever n_F is
_WALK_LOW = 4


class BlockPartition(Value):
    """The blocks of a context, ordered by first occurrence of a member:
    ``extents[k]`` is block k's object mask and ``rows[k]`` its common
    row, an attribute mask."""

    extents: tuple[int, ...]
    rows: tuple[int, ...]
    n_objects: int
    n_attributes: int

    @property
    def n_f(self) -> int:
        return len(self.extents)

    def union(self, block_set: int) -> int:
        """The extent bits of the union of the blocks in block_set."""
        extents, bits = self.extents, 0
        while block_set:
            low = block_set & -block_set
            bits |= extents[low.bit_length() - 1]
            block_set ^= low
        return bits

    def row_table(self, block_set: int) -> int:
        """The minterm table of the rows of the blocks in block_set: bit t
        is set iff t is the row of one of them.  It is set from the row ids
        on each call, so no block keeps a 2^m-bit int."""
        rows, bits = self.rows, 0
        while block_set:
            low = block_set & -block_set
            bits |= 1 << rows[low.bit_length() - 1]
            block_set ^= low
        return bits

    def walk(self):
        """(union(ks), row_table(ks)) for every block set ks, ascending.

        The pairs of the block sets over the lowest h = min(n_F,
        _WALK_LOW) blocks are mapped once; each block set is then its high
        part's pair ORed with a low entry, two int ORs a block set.  The
        maps run 2^h + 2^(n_F - h) times each, and at most 2^h + 1 row
        tables are held at once.
        """
        h = min(self.n_f, _WALK_LOW)
        low = [(self.union(ks), self.row_table(ks)) for ks in range(1 << h)]
        for high in range(0, 1 << self.n_f, 1 << h):
            extent, rows = self.union(high), self.row_table(high)
            for low_extent, low_rows in low:
                yield extent | low_extent, rows | low_rows


@lru_cache(maxsize=32)
def blocks(ctx: FormalContext) -> BlockPartition:
    """Partition the objects of ctx into blocks of identical rows.

    The partition is computed once per context and then shared.
    """
    order: dict[int, int] = {}
    extents: list[int] = []
    for i, row in enumerate(ctx.rows):
        k = order.get(row)
        if k is None:
            order[row] = len(extents)
            extents.append(1 << i)
        else:
            extents[k] |= 1 << i
    return BlockPartition(tuple(extents), tuple(order), ctx.n_objects, ctx.n_attributes)


def block_set_of(ctx: FormalContext, xs: BitSet) -> int:
    """The block set whose union is xs; raises NotAGeneralExtent if none is."""
    _want_objects(ctx, xs)
    block_set = 0
    covered = 0
    for k, bits in enumerate(blocks(ctx).extents):
        if bits & ~xs.bits == 0:
            block_set |= 1 << k
            covered |= bits
    if covered != xs.bits:
        raise NotAGeneralExtent(
            f"{{{', '.join(ctx.object_names(xs))}}} is not a union of blocks"
        )
    return block_set


# ---------------------------------------------------------------------------
# parsing and serialization

def parse_context(text: str, format: str) -> FormalContext:
    """Parse a context from ``cxt`` or ``csv`` text.

    A leading UTF-8 byte order mark is dropped and CRLF line ends are
    accepted, as spreadsheet and Windows tools write them.
    """
    text = text.removeprefix("\ufeff")
    if format == "cxt":
        return _parse_cxt(text)
    if format == "csv":
        return _parse_csv(text)
    raise ValueError(f"unknown context format {format!r}")


def _parse_cxt(text: str) -> FormalContext:
    lines = text.replace("\r\n", "\n").split("\n")
    # a single trailing newline is part of the format, not an extra line
    if lines and lines[-1] == "":
        lines.pop()

    def need(i: int, what: str) -> str:
        if i >= len(lines):
            # lines are 1-based, so an empty file ends on line 1
            raise ParseError(f"unexpected end of file, expected {what}", max(len(lines), 1))
        return lines[i]

    if need(0, "header 'B'").strip() != "B":
        raise ParseError(f"expected header 'B', got {lines[0]!r}", 1)
    if need(1, "blank line").strip() != "":
        raise ParseError("expected blank line after header", 2)

    def count(i: int, what: str) -> int:
        raw = need(i, what).strip()
        try:
            n = int(raw)
        except ValueError:
            raise ParseError(f"expected {what}, got {raw!r}", i + 1) from None
        if n < 0:
            raise ParseError(f"{what} is negative", i + 1)
        return n

    n_obj = count(2, "object count")
    n_attr = count(3, "attribute count")
    pos = 4
    if pos < len(lines) and lines[pos].strip() == "":
        pos += 1  # the blank line before the names is optional

    names = []
    for k in range(n_obj + n_attr):
        names.append(need(pos + k, "a name line"))
    objects = tuple(names[:n_obj])
    attributes = tuple(names[n_obj:])
    pos += n_obj + n_attr

    rows = []
    for i in range(n_obj):
        line = need(pos + i, "a matrix row")
        if len(line) != n_attr:
            raise ParseError(
                f"matrix row has {len(line)} cells, expected {n_attr}", pos + i + 1
            )
        bits = 0
        for j, ch in enumerate(line):
            if ch == "X":
                bits |= 1 << j
            elif ch != ".":
                raise ParseError(f"bad matrix cell {ch!r}", pos + i + 1)
        rows.append(bits)
    for k in range(pos + n_obj, len(lines)):
        if lines[k].strip() != "":
            raise ParseError(f"trailing content {lines[k]!r}", k + 1)

    try:
        return FormalContext(objects, attributes, tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_CSV_CELLS = {"1": True, "X": True, "0": False, ".": False}


def _parse_csv(text: str) -> FormalContext:
    # only csv input pays for loading the reader; csv.reader and csv.Error
    # are _csv's, whose default dialect is csv.excel, so the csv module
    # itself is left unloaded
    import _csv

    # a quoted field may span lines, so positions are the reader's line
    # count (the last line of the record read), not a record count
    reader = _csv.reader(io.StringIO(text))
    try:
        return _read_csv(reader)
    except _csv.Error as exc:
        raise ParseError(f"malformed csv: {exc}", reader.line_num) from None


def _read_csv(reader) -> FormalContext:
    header = next(reader, None)
    if header is None:
        raise ParseError("empty csv input", 1)
    if not header or header[0] != "":
        raise ParseError("csv header must start with an empty cell", reader.line_num)
    attributes = tuple(header[1:])

    objects = []
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(attributes) + 1:
            raise ParseError(
                f"row has {len(rec) - 1} cells, expected {len(attributes)}",
                reader.line_num,
            )
        objects.append(rec[0])
        bits = 0
        for j, cell in enumerate(rec[1:]):
            val = _CSV_CELLS.get(cell.strip())
            if val is None:
                raise ParseError(f"bad csv cell {cell!r}", reader.line_num)
            if val:
                bits |= 1 << j
        rows.append(bits)

    try:
        return FormalContext(tuple(objects), attributes, tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def context_to_cxt(ctx: FormalContext) -> str:
    """Serialize to cxt text; parse_context inverts this exactly."""
    out = ["B", "", str(ctx.n_objects), str(ctx.n_attributes), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for row in ctx.rows:
        out.append(
            "".join("X" if (row >> j) & 1 else "." for j in range(ctx.n_attributes))
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reproducible random contexts

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def random_context(
    seed: int, n_objects: int, n_attributes: int, density: float
) -> FormalContext:
    """A reproducible random context.

    The cell stream is a 64-bit linear congruential generator,
    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    started at the seed and stepped once per cell in row-major order
    (objects outer, attributes inner).  A cell is incident iff the top 53
    bits of the new state are below floor(density * 2^53), so equal seeds
    give bit-identical contexts on any platform.  Objects are named g1,
    g2, ... and attributes m1, m2, ...
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    if n_objects < 0 or n_attributes < 0:
        raise ValueError("negative dimensions")
    threshold = int(density * 9007199254740992.0)
    state = seed & _MASK64
    rows = []
    for _ in range(n_objects):
        bits = 0
        for j in range(n_attributes):
            state = (state * _LCG_MULT + _LCG_INC) & _MASK64
            if (state >> 11) < threshold:
                bits |= 1 << j
        rows.append(bits)
    return FormalContext(
        tuple(f"g{i + 1}" for i in range(n_objects)),
        tuple(f"m{j + 1}" for j in range(n_attributes)),
        tuple(rows),
    )
