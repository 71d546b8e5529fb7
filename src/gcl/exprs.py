"""Composite attributes: Boolean expressions over M and their canonical forms.

Closing the attribute set under negation, conjunction and disjunction
yields composite attributes.  Every composite attribute has a unique
canonical form: the set of minterms (full conjunctions, one polarity per
attribute) it covers.  Minterm ids encode polarity bitwise with attribute
0 as the least significant bit, so for M = (a, b) id 2 is the conjunction
(not a) and b.

Canonical forms are stored as truth tables packed into ints (bit t set
iff minterm t is covered), which makes the Boolean operations single int
ops; the id-set view is exposed for serialization and comparison.

Contextual evaluation maps an expression to its extent: attribute j maps
to its column, negation to complement in G, conjunction and disjunction
to intersection and union.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add

from .bitset import BitSet, _selectors
from .context import FormalContext
from .errors import DEFAULT_CANONICAL_CAP, CapExceeded, ParseError
from .value import Value


# a plain bound's terms come from two tables, a low one over the first w
# attributes and a high one over the rest, and w follows how many nodes a
# render prints.  A bound or minterm-id list is one string where its
# minterms lie among the first 2^w, else runs of at most 2^w items (see
# _lister).  A whole-lattice render keeps w = min(m, _TERM_SPLIT): up to m
# 10 every bound is one string, and at the canonical cap neither table
# holds more than 2^_TERM_SPLIT strings.  A one-node render takes w =
# ceil(m/2): tables of 2^ceil(m/2) and 2^floor(m/2) strings.
_TERM_SPLIT = DEFAULT_CANONICAL_CAP // 2


# ---------------------------------------------------------------------------
# expression AST

class AttrExpr(Value):
    """Base class for attribute expressions; nodes are immutable."""

    __slots__ = ()


class Var(AttrExpr):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"negative attribute index {self.index}")


class Not(AttrExpr):
    child: AttrExpr


class And(AttrExpr):
    children: tuple[AttrExpr, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("And needs at least one child")


class Or(AttrExpr):
    children: tuple[AttrExpr, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("Or needs at least one child")


class _Const(AttrExpr):
    value: bool


TOP = _Const(True)
BOTTOM = _Const(False)


def conj(children) -> AttrExpr:
    """And over a sequence; empty means TOP, a singleton is unwrapped."""
    children = tuple(children)
    if not children:
        return TOP
    if len(children) == 1:
        return children[0]
    return And(children)


def disj(children) -> AttrExpr:
    """Or over a sequence; empty means BOTTOM, a singleton is unwrapped."""
    children = tuple(children)
    if not children:
        return BOTTOM
    if len(children) == 1:
        return children[0]
    return Or(children)


def literal(index: int, positive: bool) -> AttrExpr:
    return Var(index) if positive else Not(Var(index))


# ---------------------------------------------------------------------------
# contextual evaluation

def eval_contextual(ctx: FormalContext, expr: AttrExpr) -> BitSet:
    """The extent of expr in ctx."""
    bits = _fold(expr, ctx.n_attributes, ctx.cols.__getitem__, (1 << ctx.n_objects) - 1)
    return BitSet(bits, ctx.n_objects)


def _fold(expr: AttrExpr, m_count: int, leaf, full: int) -> int:
    """expr as an int over a universe of bits: Var j is leaf(j), negation
    complements within full, conjunction and disjunction are & and |."""
    if isinstance(expr, Var):
        if expr.index >= m_count:
            raise ValueError(
                f"attribute index {expr.index} out of range for {m_count} attributes"
            )
        return leaf(expr.index)
    if isinstance(expr, Not):
        return full ^ _fold(expr.child, m_count, leaf, full)
    if isinstance(expr, And):
        bits = full
        for c in expr.children:
            bits &= _fold(c, m_count, leaf, full)
        return bits
    if isinstance(expr, Or):
        bits = 0
        for c in expr.children:
            bits |= _fold(c, m_count, leaf, full)
        return bits
    if isinstance(expr, _Const):
        return full if expr.value else 0
    raise TypeError(f"not an attribute expression: {expr!r}")


# ---------------------------------------------------------------------------
# canonical forms

class CanonicalForm(Value):
    """The minterm set of a composite attribute over m_count attributes.

    Bit t of ``table`` is set iff minterm t is covered.  Two composite
    attributes are the same attribute exactly when their canonical forms
    are equal.
    """

    m_count: int
    table: int

    def __post_init__(self):
        if self.m_count < 0:
            raise ValueError("negative attribute count")
        if self.table < 0 or self.table.bit_length() > 1 << self.m_count:
            raise ValueError(f"table does not fit {self.m_count} attributes")

    @classmethod
    def of(cls, m_count: int, ids) -> "CanonicalForm":
        table = 0
        size = 1 << m_count
        for t in ids:
            if not 0 <= t < size:
                raise ValueError(f"minterm id {t} out of range for {m_count} attributes")
            table |= 1 << t
        return cls(m_count, table)

    @property
    def minterms(self) -> frozenset[int]:
        return frozenset(self.ids())

    def ids(self) -> list[int]:
        return list(compress(range(1 << self.m_count), _selectors(self.table)))

    def _check(self, other: "CanonicalForm") -> None:
        if self.m_count != other.m_count:
            raise ValueError(f"attribute count mismatch: {self.m_count} vs {other.m_count}")

    def __and__(self, other: "CanonicalForm") -> "CanonicalForm":
        self._check(other)
        return CanonicalForm(self.m_count, self.table & other.table)

    def __or__(self, other: "CanonicalForm") -> "CanonicalForm":
        self._check(other)
        return CanonicalForm(self.m_count, self.table | other.table)

    def __invert__(self) -> "CanonicalForm":
        return CanonicalForm(self.m_count, self.table ^ ((1 << (1 << self.m_count)) - 1))

    def __len__(self) -> int:
        return self.table.bit_count()

    def issubset(self, other: "CanonicalForm") -> bool:
        self._check(other)
        return self.table & ~other.table == 0

    def is_zero(self) -> bool:
        return self.table == 0

    def is_one(self) -> bool:
        return self.table == (1 << (1 << self.m_count)) - 1


class Minterm(Value):
    """One full conjunction: polarity bit j gives the sign of attribute j."""

    m_count: int
    id: int

    def __post_init__(self):
        if not 0 <= self.id < (1 << self.m_count):
            raise ValueError(f"minterm id {self.id} out of range for {self.m_count} attributes")

    @property
    def polarity(self) -> BitSet:
        return BitSet(self.id, self.m_count)

    def conjunction(self) -> AttrExpr:
        return conj(literal(j, (self.id >> j) & 1 == 1) for j in range(self.m_count))


def _guard_cap(m_count: int, cap: int = DEFAULT_CANONICAL_CAP) -> None:
    if m_count > cap:
        raise CapExceeded(
            f"{m_count} attributes exceed the canonical-form cap of {cap}"
        )


@lru_cache(maxsize=None)
def _var_table(index: int, m_count: int) -> int:
    # truth table of attribute `index` over all 2^m_count minterm ids:
    # alternating runs of 2^index zeros and ones, doubled up to 2^m_count
    # bits by shifts (a big-int division here costs quadratic time)
    half = 1 << index
    table, width = ((1 << half) - 1) << half, 2 * half
    while width < 1 << m_count:
        table |= table << width
        width *= 2
    return table


def to_canonical(expr: AttrExpr, m_count: int) -> CanonicalForm:
    """Canonical form of expr over attributes 0 .. m_count-1."""
    _guard_cap(m_count)
    return CanonicalForm(m_count, _table_of(expr, m_count))


def _table_of(expr: AttrExpr, m_count: int) -> int:
    """The truth table of expr over all 2^m_count minterm ids."""
    return _fold(
        expr, m_count, lambda j: _var_table(j, m_count), (1 << (1 << m_count)) - 1
    )


def canonical_to_expr(cf: CanonicalForm, mode: str) -> AttrExpr:
    """Rebuild an expression from a canonical form.

    mode "dnf": disjunction of the covered minterms (BOTTOM when none).
    mode "cnf": conjunction of one maxterm per missing minterm (TOP when
    all are covered); the maxterm for id t disjoins each attribute with
    the polarity opposite to t.
    """
    if mode == "dnf":
        return disj(Minterm(cf.m_count, t).conjunction() for t in cf.ids())
    if mode == "cnf":
        return conj(_maxterm(cf.m_count, t) for t in (~cf).ids())
    raise ValueError(f"unknown mode {mode!r}")


def _maxterm(m_count: int, id: int) -> AttrExpr:
    return disj(literal(j, (id >> j) & 1 == 0) for j in range(m_count))


# by mode: the text of an empty and of a full bound, and the separator
# between its terms
_MODE_TEXT = {"dnf": ("0", "1", " | "), "cnf": ("1", "0", " & ")}


def canonical_to_str(cf: CanonicalForm, mode: str, attributes) -> str:
    """expr_to_str(canonical_to_expr(cf, mode), attributes), read off the bits.

    No expression tree is built: the text is the one _term_text renders
    from the cached tables of literal-term strings (see _term_tables).
    """
    if mode not in _MODE_TEXT:
        raise ValueError(f"unknown mode {mode!r}")
    m = cf.m_count
    # sliced, not tuple(map(...)): tuple() of an iterator shrinks a tuple of
    # guessed size, and the tuple free list then keeps one more per call
    names = tuple(attributes[:m])
    if len(names) < m:
        raise IndexError(f"{len(names)} attribute names for {m} attributes")
    table = cf.table if mode == "dnf" else (~cf).table
    text = _term_text(m, mode, *_term_tables(names, mode))(table)
    return text if isinstance(text, str) else "".join(text)


def _low_width(m: int, nodes: int | None) -> int:
    """The attributes of the low term and id tables of a render of nodes
    nodes over m attributes (None: many): ceil(m/2) for one node, else
    min(m, _TERM_SPLIT) (see _TERM_SPLIT)."""
    return (m + 1) // 2 if nodes == 1 else min(m, _TERM_SPLIT)


class _Halves(dict):
    """A memo of one side of a split listing: the missing key k maps to
    text(k), made once."""

    def __init__(self, text):
        self.text = text

    def __missing__(self, key: int) -> str:
        value = self[key] = self.text(key)
        return value


def _lister(step: int, pick, frames, split: int | None = None):
    """listing(table): the items pick(h, chunk) gives for the set bits of
    table, in the frame (whole, lead, sep, close) that frames = (none, one,
    more) holds for a table of no, one or more set bits.  Where whole is
    not None it is the listing.  Otherwise the items are sep-joined between
    lead and close: one string when the set bits lie in the first slice of
    step minterms, else the runs of _slice_runs and then close, so only the
    run being written holds its selectors.

    With a split s (a render of many nodes, every table within the first
    slice), the items below minterm s and those from s up, joined by more's
    sep, are each made once per distinct side of a table and kept, so a
    listing is two dict reads and one join.  A caller picks s so that each
    side takes few values (the exporters split at the median block row).
    A side of one item reads the same under any sep, so its text serves a
    table of one set bit too."""
    none, one, more = frames

    def listing(table: int):
        whole, lead, sep, close = (more if table & (table - 1) else one) if table else none
        if whole is not None:
            return whole
        if table.bit_length() <= step:
            return lead + sep.join(pick(0, _selectors(table))) + close
        return chain(_slice_runs(table, step, pick, sep, lead), (close,))

    if split is None:
        return listing
    glue, mask = more[2], (1 << split) - 1
    low = _Halves(lambda key: glue.join(pick(0, _selectors(key))))
    high = _Halves(lambda key: glue.join(pick(0, _selectors(key << split))))

    def halves(table: int):
        whole, lead, sep, close = (more if table & (table - 1) else one) if table else none
        if whole is not None:
            return whole
        a, b = low[table & mask], high[table >> split]
        return f"{lead}{a}{sep}{b}{close}" if a and b else f"{lead}{a or b}{close}"

    return halves


def _term_text(m: int, mode: str, low, high, split: int | None = None):
    """text(table): the plain bound over m attributes whose terms are the
    set bits of table, a listing of _lister, split at minterm split where
    the low table spans all m attributes and split is given.

    A term is a minterm for "dnf", a maxterm for "cnf" (table then holds
    the complement of the bound), picked from the (low, high) term tables
    of _term_tables by the selector bytes, with no Python code run per
    term: term t is low[t % len(low)] + high[t // len(low)], so a bound
    comes in runs of at most len(low) terms.  The tables may come escaped
    for an output format; the separators need none.
    """
    def pick(h, chunk):
        terms = compress(low, chunk)
        return map(add, terms, repeat(high[h])) if high[h] else terms

    # at m = 0 the table is 0 or 1, so the frame of two terms is never read
    frames = tuple(_term_frame(table, m, mode) for table in (0, 1, 3))
    return _lister(len(low), pick, frames, split if len(high) == 1 else None)


def _id_runs(
    m: int, sep: str, lead: str = "", close: str = "", empty: str = "", nodes=None, split=None
):
    """ids(table): the ids of the minterms over m attributes set in table,
    sep-joined between lead and close, or empty for none, a listing of
    _lister.  The id strings of the first 2^w minterms are built once, w
    the low width of a render of nodes nodes (see _low_width), and the ids
    come in runs of at most 2^w; where w = m and split is given, the
    listing is split at minterm split."""
    ids = tuple(map(str, range(1 << _low_width(m, nodes))))
    some = (None, lead, sep, close)

    def pick(h, chunk):
        if not h:
            return compress(ids, chunk)
        base = h * len(ids)
        return map(str, compress(range(base, base + len(ids)), chunk))

    split = split if len(ids) == 1 << m else None
    return _lister(len(ids), pick, ((empty, "", "", ""), some, some), split)


def _term_frame(table: int, m: int, mode: str):
    """(whole, lead, sep, close) of the plain bound _term_text renders:
    whole is its text when it is a constant (no term, or m = 0), else
    None, and the terms are then joined by sep between lead and close."""
    none, unit, outer = _MODE_TEXT[mode]
    if not table:
        return none, "", "", ""
    if not m:
        return unit, "", "", ""
    if mode == "cnf" and m > 1 and table & (table - 1):
        # parenthesise every maxterm in the separators, not term by term
        return None, "(", ") & (", ")"
    return None, "", outer, ""


def _term_length(table: int, m: int, mode: str, low, high) -> int:
    """len of the text _term_text(m, mode, low', high')(table) gives,
    joined if it comes in runs, summed slice by slice from the tables'
    lengths low[t] = len(low'[t]) and high[h] = len(high'[h]) without
    building any term."""
    whole, lead, sep, close = _term_frame(table, m, mode)
    if whole is not None:
        return len(whole)
    selectors, step, terms = _selectors(table), len(low), 0
    for h, base in enumerate(range(0, len(selectors), step)):
        chunk = selectors[base:base + step]
        terms += sum(compress(low, chunk)) + high[h] * chunk.count(1)
    return len(lead) + terms + len(sep) * (table.bit_count() - 1) + len(close)


def _slice_runs(table: int, step: int, pick, sep: str, lead: str):
    """One run per slice of step minterms of table that holds a set bit:
    sep.join(pick(h, chunk)) for slice h, chunk its selector bytes, led by
    lead for the first run and by sep for the others.  The selectors of
    table are made when the first run is."""
    selectors = _selectors(table)
    for base in range(0, len(selectors), step):
        chunk = selectors[base:base + step]
        if 1 in chunk:
            yield lead + sep.join(pick(base // step, chunk))
            lead = sep


@lru_cache(maxsize=8)
def _term_tables(
    names: tuple[str, ...], mode: str, nodes: int | None = None
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(low, high): every term over the first w names and every term over
    the rest, each listed by its bits, w the low width of a render of nodes
    nodes (see _low_width; None: many): whole-lattice renders keep
    2^min(m, 10) low terms, one-node renders 2^ceil(m/2).  Nonempty low
    terms end in the inner separator when a high part exists, so a term is
    low + high."""
    if mode == "dnf":
        # a minterm's literal j is positive where bit j of its id is set
        inner, pairs = " & ", [("!" + a, a) for a in names]
    else:
        # a maxterm's literal j is negated where bit j of its id is set
        inner, pairs = " | ", [(a, "!" + a) for a in names]
    w = _low_width(len(names), nodes)
    low = _term_strings(pairs[:w], inner)
    if 0 < w < len(names):
        low = [s + inner for s in low]
    return tuple(low), tuple(_term_strings(pairs[w:], inner))


def _term_strings(pairs, sep: str) -> list[str]:
    """Every term over the given (bit 0, bit 1) literal pairs, by its bits."""
    out = [""]
    for k, (off, on) in enumerate(pairs):
        glue = sep if k else ""
        out = [s + glue + off for s in out] + [s + glue + on for s in out]
    return out


def atoms_coatoms(m_count: int):
    """All minterms in ascending id order, with their paired coatoms.

    The coatom paired with atom t is the disjunction of all literals of
    the opposite polarity, i.e. the negation of atom t.
    """
    _guard_cap(m_count)
    atoms = [Minterm(m_count, t) for t in range(1 << m_count)]
    coatoms = [_maxterm(m_count, t) for t in range(1 << m_count)]
    return atoms, coatoms


def intrinsic_compare(e1: AttrExpr, e2: AttrExpr, m_count: int) -> str:
    """Order two expressions by minterm-set inclusion.

    Returns "equal", "less", "greater" or "incomparable".
    """
    _guard_cap(m_count)
    t1 = _table_of(e1, m_count)
    t2 = _table_of(e2, m_count)
    if t1 == t2:
        return "equal"
    if t1 & ~t2 == 0:
        return "less"
    if t2 & ~t1 == 0:
        return "greater"
    return "incomparable"


# ---------------------------------------------------------------------------
# surface syntax: parsing and printing

_OPS = set("&|!()")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append((ch, i))
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] not in _OPS:
                i += 1
            tokens.append((text[start:i], start))
    return tokens


def parse_expr(text: str, attributes) -> AttrExpr:
    """Parse infix query syntax: names, !, &, |, parentheses.

    Precedence is ! over & over |.  "0" and "1" denote BOTTOM and TOP
    unless an attribute carries that name.
    """
    index = {name: j for j, name in enumerate(attributes)}
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def where():
        return tokens[pos][1] + 1 if pos < len(tokens) else len(text) + 1

    def parse_or():
        nonlocal pos
        parts = [parse_and()]
        while peek() == "|":
            pos += 1
            parts.append(parse_and())
        return disj(parts)

    def parse_and():
        nonlocal pos
        parts = [parse_unary()]
        while peek() == "&":
            pos += 1
            parts.append(parse_unary())
        return conj(parts)

    def parse_unary():
        nonlocal pos
        if peek() == "!":
            pos += 1
            return Not(parse_unary())
        return parse_atom()

    def parse_atom():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ParseError(f"unexpected end of expression at column {where()}")
        if tok == "(":
            pos += 1
            inner = parse_or()
            if peek() != ")":
                raise ParseError(f"expected ')' at column {where()}")
            pos += 1
            return inner
        if tok in _OPS:
            raise ParseError(f"unexpected {tok!r} at column {where()}")
        col = where()
        pos += 1
        if tok in index:
            return Var(index[tok])
        if tok == "1":
            return TOP
        if tok == "0":
            return BOTTOM
        raise ParseError(f"unknown attribute {tok!r} at column {col}")

    expr = parse_or()
    if pos < len(tokens):
        raise ParseError(f"unexpected {peek()!r} at column {where()}")
    return expr


def expr_to_str(expr: AttrExpr, attributes) -> str:
    """Render with the same syntax parse_expr accepts."""
    return _render(expr, attributes, 0)


def _render(expr: AttrExpr, attributes, level: int) -> str:
    # level: 0 = or-context, 1 = and-context, 2 = unary-context
    if isinstance(expr, Var):
        return attributes[expr.index]
    if isinstance(expr, _Const):
        return "1" if expr.value else "0"
    if isinstance(expr, Not):
        return "!" + _render(expr.child, attributes, 2)
    if isinstance(expr, And):
        body = " & ".join(_render(c, attributes, 1) for c in expr.children)
        return f"({body})" if level > 1 else body
    if isinstance(expr, Or):
        body = " | ".join(_render(c, attributes, 0) for c in expr.children)
        return f"({body})" if level > 0 else body
    raise TypeError(f"not an attribute expression: {expr!r}")
