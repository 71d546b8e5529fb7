"""Brute-force certification of the lattice constructions.

Two independent routes are provided.  ``enumerate_mstar`` sweeps every
one of the 2^(2^|M|) composite attributes (as packed truth tables),
computes each extent from raw atom extents, groups the attributes into
classes by extent, and compares the class extremes against the builder's
canonical bounds.  ``verify_laws`` runs a registry of named laws: the
operator identities, the constructive decompositions of the bounds, the
order agreements, and the equality of the two routes to the classical
lattices, whose covers are also checked against a brute-force search
(``_hasse``) and whose irreducible classes are also checked against a
scan of all 4^|M| signed literal sets (``_class_scan``).  Neither route
reuses the builder's internals; extents are recomputed from the incidence
rows.  ``_reference_intent`` is the matching brute-force walk for the
reduced bounds of ``simplified_intent``.

Each law still covers its whole domain, in one sweep over tables.  The
laws over every pair of nodes read inclusion up-sets built column by
column over the bits that vary between keys (``_up_sets``), so they
report the same first failing pair as a pairwise loop.  The monotonicity
laws compare each set only with those one element smaller, which covers
every pair by transitivity, and ``bound-recursion`` folds the union below
(intersection above) each block set from the sets one block smaller
(larger): n_F * 2^n_F steps for the same unions as every proper subset
(superset) gives.  Each node's extent and bounds are read once.  The
class scan indexes the signed literal sets by 2|M|-bit masks: each
extent is one fold onto the extent of the set without its lowest
literal.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import and_, or_

from .bitset import BitSet
from .classical import build_fcl, build_rsl, recover_classical
from .context import (
    FormalContext,
    approx_box,
    approx_diamond,
    blocks,
    box_of,
    context_to_cxt,
    diamond_of,
    extent_of,
    intent_of,
)
from .errors import CapExceeded
from .exprs import (
    BOTTOM,
    TOP,
    AttrExpr,
    CanonicalForm,
    Var,
    conj,
    disj,
    eval_contextual,
    to_canonical,
)
from .irreducibles import (
    LiteralSet,
    irreducible_conjunctions,
    irreducible_disjunctions,
    is_member,
)
from .lattice import GclLattice, build_gcl, dagger
from .value import Value

_SWEEP_OBJECT_CAP = 16
_SWEEP_ATTRIBUTE_CAP = 4
_EXHAUSTIVE_CAP = 12
_FAMILY_CAP = 10
_CLASS_SCAN_CAP = 8
# order-criterion-agreement compares 4^n_F pairs of 2^m-bit tables
_ORDER_LOG2_CAP = 32


class LawResult(Value):
    law: str
    passed: bool
    witness: str | None = None


class ClassSummary(Value):
    """One attribute class: its extent, size and canonical extremes."""

    extent: BitSet
    size: int
    min_form: CanonicalForm
    max_form: CanonicalForm


class OracleReport(Value):
    digest: str
    n_objects: int
    n_attributes: int
    laws: tuple[LawResult, ...]
    classes: tuple[ClassSummary, ...] | None
    notes: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.laws)

    def failures(self) -> list[LawResult]:
        return [r for r in self.laws if not r.passed]

    def as_dict(self, ctx: FormalContext) -> dict:
        out = {
            "digest": self.digest,
            "objects": self.n_objects,
            "attributes": self.n_attributes,
            "passed": self.all_passed,
            "laws": [
                {"law": r.law, "passed": r.passed, "witness": r.witness}
                for r in self.laws
            ],
            "notes": list(self.notes),
        }
        if self.classes is not None:
            out["classes"] = [
                {
                    "extent": ctx.object_names(c.extent),
                    "size": c.size,
                    "min": c.min_form.ids(),
                    "max": c.max_form.ids(),
                }
                for c in self.classes
            ]
        return out


def context_digest(ctx: FormalContext) -> str:
    """The SHA-256 hex digest of ctx's cxt serialisation.

    It comes from the interpreter's own SHA-256 module: hashlib would load
    OpenSSL's libcrypto for this one small digest, which raised a verify's
    peak memory by about 4 MB (Python 3.11 on x86-64 Linux).  hashlib is
    only the fallback for an interpreter built without that module.
    """
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(context_to_cxt(ctx).encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared precomputation

class _Env:
    def __init__(self, ctx: FormalContext, lat: GclLattice):
        self.ctx = ctx
        self.lat = lat
        self.n = ctx.n_objects
        self.m = ctx.n_attributes
        self.full_g = (1 << self.n) - 1
        self.full_t = (1 << (1 << self.m)) - 1
        self.rows = tuple(set(ctx.rows))  # the distinct rows

    @cached_property
    def atom_ext(self) -> list[int]:
        """Extent bits of each minterm, straight from the rows."""
        ae = [0] * (1 << self.m)
        for i, row in enumerate(self.ctx.rows):
            ae[row] |= 1 << i
        return ae

    @cached_property
    def nodes(self) -> list:
        """The nodes by position, read once: ``lat.nodes`` builds them anew."""
        return list(self.lat.nodes)

    @cached_property
    def extents(self) -> list[int]:
        """The nodes' extent bits by position: a node computes its extent
        when read, so the laws read each one once here."""
        return [node.extent.bits for node in self.nodes]

    @cached_property
    def up(self) -> list[int]:
        """_up_sets of the node extents."""
        return _up_sets(self.extents)

    # the direct classical lattices, built once for the laws that read them
    fcl = cached_property(lambda self: build_fcl(self.ctx))
    rsl = cached_property(lambda self: build_rsl(self.ctx))

    @cached_property
    def bounds(self) -> tuple[list[int], list[int]]:
        """(grsp tables, gfcp tables) of the nodes, by position.

        A node computes its bounds when read, so the node laws read each
        one once here.
        """
        nodes = self.nodes
        return [a.grsp.table for a in nodes], [a.gfcp.table for a in nodes]

    def eval_table(self, table: int) -> int:
        # a minterm that is no row has an empty extent, so only rows are read
        bits = 0
        for row in self.rows:
            if table >> row & 1:
                bits |= self.atom_ext[row]
        return bits

    @cached_property
    def obj_tables(self):
        """intent/box/diamond of every object subset, indexed by bits."""
        ctx = self.ctx
        intents, boxes, diamonds = [], [], []
        for bits in range(1 << self.n):
            xs = BitSet(bits, self.n)
            intents.append(intent_of(ctx, xs).bits)
            boxes.append(box_of(ctx, xs).bits)
            diamonds.append(diamond_of(ctx, xs).bits)
        return intents, boxes, diamonds

    @cached_property
    def attr_tables(self):
        """extent/box/diamond of every attribute subset, indexed by bits."""
        ctx = self.ctx
        extents, boxes, diamonds = [], [], []
        for bits in range(1 << self.m):
            ys = BitSet(bits, self.m)
            extents.append(extent_of(ctx, ys).bits)
            boxes.append(approx_box(ctx, ys).bits)
            diamonds.append(approx_diamond(ctx, ys).bits)
        return extents, boxes, diamonds

    @cached_property
    def table_extents(self) -> list[int]:
        """Extent bits of every one of the 2^(2^m) minterm tables, by table."""
        ext_of = [0] * (1 << (1 << self.m))
        ae = self.atom_ext
        for f in range(1, len(ext_of)):
            low = f & -f
            ext_of[f] = ext_of[f ^ low] | ae[low.bit_length() - 1]
        return ext_of

    @cached_property
    def sweep_classes(self) -> dict[int, list[int]]:
        """extent bits -> [size, min table, max table] over all 2^(2^m) tables."""
        grouped: dict[int, list[int]] = {}
        for f, ext in enumerate(self.table_extents):
            acc = grouped.get(ext)
            if acc is None:
                grouped[ext] = [1, f, f]
            else:
                acc[0] += 1
                acc[1] &= f
                acc[2] |= f
        return grouped

    def names(self, bits: int) -> str:
        xs = BitSet(bits, self.n)
        return "{" + ", ".join(self.ctx.object_names(xs)) + "}"


# ---------------------------------------------------------------------------
# the law registry

def _submasks(mask: int):
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _one_smaller(mask: int):
    """The masks with one set bit of mask cleared, lowest bit first."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        yield mask ^ low


def _up_sets(keys: list[int]) -> list[int]:
    """Bit j of entry i is set iff keys[i] is a subset of keys[j].

    One column per bit that some but not all keys hold: the entries
    holding that bit can only sit below other holders.  Keys are read
    through their bits, never hashed, so wide tables cost their varying
    bits, not their width.
    """
    up = [(1 << len(keys)) - 1] * len(keys)
    some, every = 0, -1
    for key in keys:
        some |= key
        every &= key
    vary = some & ~every
    while vary:
        low = vary & -vary
        vary ^= low
        holders = [j for j, key in enumerate(keys) if key & low]
        column = sum(1 << j for j in holders)
        for j in holders:
            up[j] &= column
    return up


def _law_triple_application(env: _Env):
    intents, boxes, diamonds = env.obj_tables
    extents, aboxes, adiamonds = env.attr_tables
    for x in range(1 << env.n):
        if intents[extents[intents[x]]] != intents[x]:
            return f"X={env.names(x)}: derivation not idempotent after three steps"
        if boxes[adiamonds[boxes[x]]] != boxes[x]:
            return f"X={env.names(x)}: box-diamond-box differs from box"
        if diamonds[aboxes[diamonds[x]]] != diamonds[x]:
            return f"X={env.names(x)}: diamond-box-diamond differs from diamond"
    for y in range(1 << env.m):
        if extents[intents[extents[y]]] != extents[y]:
            return f"Y=0x{y:x}: derivation not idempotent after three steps"
        if aboxes[diamonds[aboxes[y]]] != aboxes[y]:
            return f"Y=0x{y:x}: box-diamond-box differs from box"
        if adiamonds[boxes[adiamonds[y]]] != adiamonds[y]:
            return f"Y=0x{y:x}: diamond-box-diamond differs from diamond"
    return None


def _law_monotonicity(env: _Env):
    # by transitivity, pairs one element apart cover every pair x1 <= x2
    intents, boxes, diamonds = env.obj_tables
    extents, aboxes, adiamonds = env.attr_tables
    for x2 in range(1 << env.n):
        for x1 in _one_smaller(x2):
            if intents[x2] & ~intents[x1]:
                return f"{env.names(x1)} <= {env.names(x2)}: derivation not antitone"
            if boxes[x1] & ~boxes[x2]:
                return f"{env.names(x1)} <= {env.names(x2)}: box not monotone"
            if diamonds[x1] & ~diamonds[x2]:
                return f"{env.names(x1)} <= {env.names(x2)}: diamond not monotone"
    for y2 in range(1 << env.m):
        for y1 in _one_smaller(y2):
            if extents[y2] & ~extents[y1]:
                return f"Y1=0x{y1:x} <= Y2=0x{y2:x}: derivation not antitone"
            if aboxes[y1] & ~aboxes[y2]:
                return f"Y1=0x{y1:x} <= Y2=0x{y2:x}: box not monotone"
            if adiamonds[y1] & ~adiamonds[y2]:
                return f"Y1=0x{y1:x} <= Y2=0x{y2:x}: diamond not monotone"
    return None


def _law_complement_duality(env: _Env):
    _, boxes, diamonds = env.obj_tables
    _, aboxes, adiamonds = env.attr_tables
    full_m = (1 << env.m) - 1
    for x in range(1 << env.n):
        if diamonds[x] != full_m ^ boxes[env.full_g ^ x]:
            return f"X={env.names(x)}: diamond differs from complemented box"
        if boxes[x] != full_m ^ diamonds[env.full_g ^ x]:
            return f"X={env.names(x)}: box differs from complemented diamond"
    for y in range(1 << env.m):
        if adiamonds[y] != env.full_g ^ aboxes[full_m ^ y]:
            return f"Y=0x{y:x}: diamond differs from complemented box"
        if aboxes[y] != env.full_g ^ adiamonds[full_m ^ y]:
            return f"Y=0x{y:x}: box differs from complemented diamond"
    return None


def _law_rough_conjugates(env: _Env):
    ctx = env.ctx
    full_m = (1 << env.m) - 1
    for c in env.rsl.concepts:
        xc = BitSet(env.full_g ^ c.extent.bits, env.n)
        yc = BitSet(full_m ^ c.intent.bits, env.m)
        if diamond_of(ctx, xc) != yc:
            return f"X={env.names(c.extent.bits)}: complement pair is not diamond-closed"
        if approx_box(ctx, yc) != xc:
            return f"X={env.names(c.extent.bits)}: complement pair is not box-closed"
    return None


def _law_column_in_both(env: _Env):
    ctx = env.ctx
    fcl = {c.extent.bits for c in env.fcl.concepts}
    rsl = {c.extent.bits for c in env.rsl.concepts}
    for j in range(env.m):
        if ctx.cols[j] not in fcl:
            return f"column {ctx.attributes[j]} missing from the intersection lattice"
        if ctx.cols[j] not in rsl:
            return f"column {ctx.attributes[j]} missing from the union lattice"
    return None


def _law_concept_reconstruction(env: _Env):
    ctx = env.ctx
    for c in env.fcl.concepts:
        product = conj(Var(j) for j in c.intent)
        if eval_contextual(ctx, product).bits != c.extent.bits:
            return f"X={env.names(c.extent.bits)}: intent product misses the extent"
        if extent_of(ctx, c.intent) != c.extent:
            return f"X={env.names(c.extent.bits)}: intent does not derive the extent"
    for c in env.rsl.concepts:
        total = disj(Var(j) for j in c.intent)
        if eval_contextual(ctx, total).bits != c.extent.bits:
            return f"X={env.names(c.extent.bits)}: intent sum misses the extent"
        if box_of(ctx, c.extent) != c.intent:
            return f"X={env.names(c.extent.bits)}: extent does not box to the intent"
    return None


def _law_extent_fixpoint(env: _Env):
    for ext, grsp, gfcp in zip(env.extents, *env.bounds):
        if env.eval_table(grsp) != ext:
            return f"X={env.names(ext)}: grsp does not evaluate back"
        if env.eval_table(gfcp) != ext:
            return f"X={env.names(ext)}: gfcp does not evaluate back"
    return None


def _law_family_closure(env: _Env):
    exts = env.extents
    have = set(exts)
    if len(have) != len(exts):
        return "duplicate node extents"
    n_f = env.lat.partition.n_f
    if len(have) != 1 << n_f:
        return f"{len(have)} extents for {n_f} blocks"
    for a in exts:
        if env.full_g ^ a not in have:
            return f"family not closed under complement at {env.names(a)}"
    # 2^n_F distinct extents are closed under union and intersection iff
    # they split the objects into exactly n_F classes of equal membership
    classes = [env.full_g] if env.full_g else []
    for a in exts:
        classes = [part for c in classes for part in (c & a, c & ~a) if part]
    if len(classes) != n_f:
        return f"family not closed: {len(classes)} object classes for {n_f} blocks"
    for direct, lattice in ((env.fcl, "an intersection-lattice"), (env.rsl, "a union-lattice")):
        if not {c.extent.bits for c in direct.concepts} <= have:
            return f"{lattice} extent escapes the family"
    # transitive reduction of the inclusion order over node indices; the
    # extents are distinct, so dropping i itself leaves the strict order
    up = [u & ~(1 << i) for i, u in enumerate(env.up)]
    down = [d & ~(1 << i) for i, d in enumerate(_up_sets([env.full_g ^ a for a in exts]))]
    covers = set()
    for i in range(len(exts)):
        rest = up[i]
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if not up[i] & down[j]:
                covers.add((i, j))
    if covers != set(env.lat.hasse_edges):
        return "cover pairs differ from the recorded edges"
    return None


def _census(env: _Env) -> tuple[str | None, str | None, str | None]:
    """The witnesses of the three census checks on the class sweep, None
    where one holds: the class sizes sum to 2^(2^m), the realized extents
    are the node extents, and each class's least and greatest tables are
    its node's gfcp and grsp."""
    grouped = env.sweep_classes
    total = sum(acc[0] for acc in grouped.values())
    sizes = None if total == 1 << (1 << env.m) else f"class sizes sum to {total}"
    at = {ext: i for i, ext in enumerate(env.extents)}
    family = None
    if set(grouped) != set(at):
        family = "realized extents differ from the node extents"
    grsp, gfcp = env.bounds
    for ext, (_, low, high) in grouped.items():
        i = at.get(ext)
        if i is not None and low != gfcp[i]:
            return sizes, family, f"X={env.names(ext)}: class minimum differs from gfcp"
        if i is not None and high != grsp[i]:
            return sizes, family, f"X={env.names(ext)}: class maximum differs from grsp"
    return sizes, family, None


def _law_canonical_census(env: _Env):
    return next(filter(None, _census(env)), None)


def _law_intrinsic_order(env: _Env):
    # by transitivity, pairs one minterm apart cover every pair f1 <= f2
    ext_of = env.table_extents
    for f2, e2 in enumerate(ext_of):
        for f1 in _one_smaller(f2):
            if ext_of[f1] & ~e2:
                return f"tables 0x{f1:x} <= 0x{f2:x} but extents are not ordered"
    return None


def _stray_block_set(env: _Env):
    """A witness naming the first block set outside the blocks, if any.

    The laws that index nodes by block set check this first, so such a
    node fails them instead of raising IndexError (or, if negative,
    looping over its submasks).
    """
    n_f = env.lat.partition.n_f
    for node in env.nodes:
        if node.block_set < 0 or node.block_set >> n_f:
            return f"block set 0x{node.block_set:x} lies outside the {n_f} blocks"
    return None


def _law_dagger(env: _Env):
    stray = _stray_block_set(env)
    if stray:
        return stray
    nodes, exts = env.nodes, env.extents
    grsp, gfcp = env.bounds
    images = [dagger(env.lat, a) for a in nodes]
    # a node is its block set: an image is found, and its own image, extent
    # and bounds are read, at the position of its block set
    at = {a.block_set: i for i, a in enumerate(nodes)}
    for a, ext, image, ga, fa in zip(nodes, exts, images, grsp, gfcp):
        j = at.get(image.block_set)
        if j is None or nodes[j] != image or images[j] != a:
            return f"X={env.names(ext)}: conjugation is not an involution"
        if exts[j] != env.full_g ^ ext:
            return f"X={env.names(ext)}: conjugate extent is not the complement"
        if grsp[j] != env.full_t ^ fa:
            return f"X={env.names(ext)}: conjugate grsp is not the negated gfcp"
        if gfcp[j] != env.full_t ^ ga:
            return f"X={env.names(ext)}: conjugate gfcp is not the negated grsp"
    # node order is extent inclusion, so complemented extents reverse it
    return None


def _law_bound_recursion(env: _Env):
    stray = _stray_block_set(env)
    if stray:
        return stray
    grsp, gfcp = env.bounds
    full = (1 << env.lat.partition.n_f) - 1
    # upto[ks] is the union of grsp over ks and its subsets, and downfrom[ks]
    # the intersection of gfcp over ks and its supersets, each folded from
    # the sets one block smaller (larger).  Where the fold adds nothing to
    # the node's own table, that table is kept, so a sound lattice's bounds
    # are held once
    upto, downfrom = [0] * (full + 1), [0] * (full + 1)

    def below(ks):  # the union of grsp over the proper subsets of ks
        return reduce(or_, (upto[sub] for sub in _one_smaller(ks)), 0)

    def above(ks):  # the intersection of gfcp over the proper supersets of ks
        return reduce(and_, (downfrom[full ^ r] for r in _one_smaller(full ^ ks)), env.full_t)

    for ks in range(full + 1):
        union = below(ks)
        upto[ks] = grsp[ks] if not union & ~grsp[ks] else grsp[ks] | union
    for ks in range(full, -1, -1):
        inter = above(ks)
        downfrom[ks] = gfcp[ks] if not gfcp[ks] & ~inter else gfcp[ks] & inter
    for i, node in enumerate(env.nodes):
        ks = node.block_set
        if ks.bit_count() >= 2 and below(ks) != grsp[i]:
            return f"X={env.names(env.extents[i])}: grsp is not the union below"
        if (full ^ ks).bit_count() >= 2 and above(ks) != gfcp[i]:
            return f"X={env.names(env.extents[i])}: gfcp is not the intersection above"
    return None


def _law_block_cover(env: _Env):
    lat = env.lat
    grsp, gfcp = env.bounds
    nf = lat.partition.n_f
    full = (1 << nf) - 1
    for i, node in enumerate(env.nodes):
        ks = node.block_set
        if ks:
            union = 0
            for k in range(nf):
                if ks & (1 << k):
                    union |= grsp[1 << k]
            if union != grsp[i]:
                return f"X={env.names(env.extents[i])}: grsp is not the union of its blocks"
        if ks != full:
            inter = env.full_t
            for k in range(nf):
                if not ks & (1 << k):
                    inter &= gfcp[full ^ (1 << k)]
            if inter != gfcp[i]:
                return (
                    f"X={env.names(env.extents[i])}: "
                    "gfcp is not the intersection of its co-blocks"
                )
    return None


def _law_single_block(env: _Env):
    lat = env.lat
    nf = lat.partition.n_f
    full = (1 << nf) - 1
    grsp, gfcp = env.bounds
    rows = lat.partition.rows
    if len(set(rows)) != nf:
        return "block rows are not distinct"
    for k in range(nf):
        if gfcp[1 << k] != 1 << rows[k]:
            return f"block {k}: gfcp is not its single row minterm"
        if grsp[full ^ (1 << k)] != env.full_t ^ (1 << rows[k]):
            return f"block {k}: complement grsp keeps the row minterm"
    return None


def _law_constants_decomposition(env: _Env):
    ctx = env.ctx
    lat = env.lat
    m = env.m
    empty = BitSet(0, env.n)
    g_all = BitSet(env.full_g, env.n)

    zero_members = irreducible_conjunctions(ctx, empty).members
    zero = to_canonical(disj(s.conjunction() for s in zero_members), m)
    if zero.table != lat.zero_rho.table:
        return "the empty-extent conjunction class does not sum to zero_rho"

    one_members = irreducible_disjunctions(ctx, g_all).members
    one = to_canonical(conj(s.disjunction() for s in one_members), m)
    if one.table != lat.one_eta.table:
        return "the full-extent disjunction class does not multiply to one_eta"

    grsp, gfcp = env.bounds
    nf = lat.partition.n_f
    full = (1 << nf) - 1
    for k in range(nf):
        block = BitSet(env.extents[1 << k], env.n)
        base = irreducible_conjunctions(ctx, block).members
        rho0 = to_canonical(disj(s.conjunction() for s in base), m)
        if rho0.table | lat.zero_rho.table != grsp[1 << k]:
            return f"block {k}: reduced sum plus zero_rho misses grsp"
        conode = BitSet(env.extents[full ^ (1 << k)], env.n)
        cobase = irreducible_disjunctions(ctx, conode).members
        eta0 = to_canonical(conj(s.disjunction() for s in cobase), m)
        if eta0.table & lat.one_eta.table != gfcp[full ^ (1 << k)]:
            return f"block {k}: reduced product times one_eta misses gfcp"
    return None


def _law_order_agreement(env: _Env):
    grsp, gfcp = env.bounds
    exts = env.extents
    by_grsp = _up_sets(grsp)
    by_gfcp = _up_sets(gfcp)
    for ea, up, r, f in zip(exts, env.up, by_grsp, by_gfcp):
        bad = (up ^ r) | (up ^ f)
        if bad:
            eb = exts[(bad & -bad).bit_length() - 1]
            return (
                f"{env.names(ea)} vs {env.names(eb)}: "
                "the three order criteria disagree"
            )
    return None


def _hasse(extent_bits: list[int]) -> tuple[tuple[int, int], ...]:
    """Cover pairs (lower, upper) of the inclusion order, ascending."""
    n = len(extent_bits)
    edges = []
    for i in range(n):
        a = extent_bits[i]
        for j in range(n):
            b = extent_bits[j]
            if a == b or a & ~b:
                continue
            if not any(
                c != a and c != b and a & ~c == 0 and c & ~b == 0
                for c in extent_bits
            ):
                edges.append((i, j))
    return tuple(sorted(edges))


def _law_route_equality(env: _Env):
    for kind, direct in (("fcl", env.fcl), ("rsl", env.rsl)):
        if direct.hasse_edges != _hasse([c.extent.bits for c in direct.concepts]):
            return f"{kind}: direct cover relation differs from the brute-force covers"
        recovered = recover_classical(env.lat, kind)
        if direct.concepts != recovered.concepts:
            return f"{kind}: recovered concepts differ from the direct build"
        if direct.hasse_edges != recovered.hasse_edges:
            return f"{kind}: recovered cover relation differs from the direct build"
    return None


def _law_literal_own_class(env: _Env):
    ctx = env.ctx
    for j in range(env.m):
        for sign in (True, False):
            bits = ctx.cols[j] if sign else env.full_g ^ ctx.cols[j]
            ext = BitSet(bits, env.n)
            single = LiteralSet(
                BitSet(1 << j if sign else 0, env.m),
                BitSet(0 if sign else 1 << j, env.m),
            )
            name = ("" if sign else "!") + ctx.attributes[j]
            if not is_member(ctx, single, ext, "conjunction"):
                return f"literal {name} missing from the conjunction class of its extent"
            if not is_member(ctx, single, ext, "disjunction"):
                return f"literal {name} missing from the disjunction class of its extent"
    return None


@lru_cache(maxsize=32)
def _class_scan(ctx: FormalContext, mode: str) -> dict[int, tuple[int, ...]]:
    """Extent bits -> irreducible members, over every signed subset of M.

    A member is a 2|M|-bit mask, bit j the literal m_j and bit |M| + j its
    negation, and each class lists its members by size, then by the
    positive half of the mask, then by the negative half.
    """
    m = ctx.n_attributes
    full = (1 << ctx.n_objects) - 1
    # a disjunction's extent is kept complemented, as the conjunction of the
    # negated literals, so both modes fold with & from G and compare alike
    flip = 0 if mode == "conjunction" else full
    lit = [col ^ flip for col in ctx.cols] + [col ^ full ^ flip for col in ctx.cols]
    ext = [full] * (1 << 2 * m)
    member = bytearray(len(ext))
    member[0] = 1
    for mask in range(1, len(ext)):
        low = mask & -mask
        rest = mask ^ low
        whole = ext[mask] = ext[rest] & lit[low.bit_length() - 1]
        # a member's leave-one-out subsets are members too, so a set whose
        # rest is no member, or has its extent, is out at once
        if not member[rest] or rest and ext[rest] == whole:
            continue
        for sub in _one_smaller(rest):
            if ext[sub | low] == whole:
                break
        else:
            member[mask] = 1
    half = (1 << m) - 1
    found: dict[int, list[int]] = {}
    for mask, kept in enumerate(member):
        if kept:
            found.setdefault(ext[mask] ^ flip, []).append(mask)
    return {
        ext: tuple(sorted(masks, key=lambda k: (k.bit_count(), k & half, k >> m)))
        for ext, masks in found.items()
    }


def _reference_intent(ctx: FormalContext, xs: BitSet, mode: str) -> AttrExpr:
    """``simplified_intent`` by brute force, from the scanned classes.

    Every pair of block-unions X0 and X1, with X0 strictly inside X1 and
    X1 inside xs ("grsp_dnf"), or xs inside X1 and X1 strictly inside X0
    ("gfcp_cnf"), is visited: a member of the class of X0 is dropped iff
    some nonempty smaller member of the class of X1 is a subset of it.
    Inconsistent survivors are left out, and a surviving empty set makes
    the bound TOP ("grsp_dnf") or BOTTOM ("gfcp_cnf").  Members are the
    scan's masks; only the terms returned are built as literal sets.
    """
    m = ctx.n_attributes
    half = (1 << m) - 1
    block_bits = blocks(ctx).extents
    ks = sum(1 << k for k, bits in enumerate(block_bits) if bits & ~xs.bits == 0)

    def union_of(sub: int) -> int:
        bits = 0
        for k, b in enumerate(block_bits):
            if sub >> k & 1:
                bits |= b
        return bits

    def survivors(cls_mode: str, own: int, between: list[int]):
        classes = _class_scan(ctx, cls_mode)
        divisors = [nu for bits in between for nu in classes.get(bits, ()) if nu]
        return [
            mu
            for mu in classes.get(own, ())
            if not any(nu.bit_count() < mu.bit_count() and not nu & ~mu for nu in divisors)
        ]

    kept = []
    if mode == "grsp_dnf":
        for k0 in _submasks(ks):
            room = ks & ~k0
            between = [union_of(k0 | s) for s in _submasks(room) if s]
            kept += survivors("conjunction", union_of(k0), between)
        absorbing, combine, term = TOP, disj, LiteralSet.conjunction
    else:
        outside = ((1 << len(block_bits)) - 1) & ~ks
        for extra in _submasks(outside):
            between = [union_of(ks | s) for s in _submasks(extra) if s != extra]
            kept += survivors("disjunction", union_of(ks | extra), between)
        absorbing, combine, term = BOTTOM, conj, LiteralSet.disjunction
    if 0 in kept:
        return absorbing
    return combine(
        term(LiteralSet(BitSet(mu & half, m), BitSet(mu >> m, m)))
        for mu in kept
        if not mu & half & mu >> m  # no attribute in both signs
    )


def _law_negation_swap(env: _Env):
    from .irreducibles import _all_classes

    ctx = env.ctx
    conj_classes = _all_classes(ctx, "conjunction")
    disj_classes = _all_classes(ctx, "disjunction")
    for mode, classes in (("conjunction", conj_classes), ("disjunction", disj_classes)):
        scanned = _class_scan(ctx, mode)
        if classes != scanned:
            for ext in set(classes) | set(scanned):
                if classes.get(ext) != scanned.get(ext):
                    return (
                        f"X={env.names(ext)}: {mode} class differs from the "
                        "scan of all signed literal sets"
                    )
    m, half = env.m, (1 << env.m) - 1
    flipped = {
        env.full_g ^ ext: {mu >> m | (mu & half) << m for mu in members}
        for ext, members in disj_classes.items()
    }
    mirrored = {ext: set(members) for ext, members in conj_classes.items()}
    if flipped != mirrored:
        for ext in set(flipped) | set(mirrored):
            if flipped.get(ext) != mirrored.get(ext):
                return (
                    f"X={env.names(ext)}: negated disjunction class differs "
                    "from the conjunction class of the complement"
                )
    return None


def _needs_exhaustive(env: _Env):
    if env.n > _EXHAUSTIVE_CAP or env.m > _EXHAUSTIVE_CAP:
        return f"needs at most {_EXHAUSTIVE_CAP} objects and {_EXHAUSTIVE_CAP} attributes"
    return None


def _needs_family(env: _Env):
    if env.lat.partition.n_f > _FAMILY_CAP:
        return f"needs at most {_FAMILY_CAP} blocks"
    return None


def _needs_order(env: _Env):
    size = 2 * env.lat.partition.n_f + env.m
    if size > _ORDER_LOG2_CAP:
        return f"needs 2 * blocks + attributes at most {_ORDER_LOG2_CAP}, has {size}"
    return _needs_family(env)


def _needs_census(env: _Env):
    if env.m > 3 or env.n > _SWEEP_OBJECT_CAP:
        return f"needs at most 3 attributes and {_SWEEP_OBJECT_CAP} objects"
    return None


def _needs_classes(env: _Env):
    if env.m > _CLASS_SCAN_CAP:
        return f"needs at most {_CLASS_SCAN_CAP} attributes"
    return _needs_family(env)


LAWS: tuple[tuple, ...] = (
    ("triple-application", _needs_exhaustive, _law_triple_application),
    ("operator-monotonicity", _needs_exhaustive, _law_monotonicity),
    ("complement-duality", _needs_exhaustive, _law_complement_duality),
    ("rough-set-conjugates", _needs_exhaustive, _law_rough_conjugates),
    ("column-extent-in-both", _needs_exhaustive, _law_column_in_both),
    ("concept-reconstruction", _needs_exhaustive, _law_concept_reconstruction),
    ("extent-fixpoint", _needs_family, _law_extent_fixpoint),
    ("extent-family-closure", _needs_family, _law_family_closure),
    ("canonical-census", _needs_census, _law_canonical_census),
    ("intrinsic-order-soundness", _needs_census, _law_intrinsic_order),
    ("conjugation-involution", _needs_family, _law_dagger),
    ("bound-recursion", _needs_family, _law_bound_recursion),
    ("block-cover-decomposition", _needs_family, _law_block_cover),
    ("single-block-bounds", _needs_family, _law_single_block),
    ("constants-decomposition", _needs_classes, _law_constants_decomposition),
    ("order-criterion-agreement", _needs_order, _law_order_agreement),
    ("classical-route-equality", _needs_family, _law_route_equality),
    ("literal-own-class", None, _law_literal_own_class),
    ("negation-swap", _needs_classes, _law_negation_swap),
)


def verify_laws(ctx: FormalContext, lat: GclLattice | None = None) -> OracleReport:
    """Run every applicable law; skipped laws are listed in the notes."""
    if lat is None:
        lat = build_gcl(ctx)
    env = _Env(ctx, lat)
    results = []
    notes = []
    for name, needs, run in LAWS:
        reason = needs(env) if needs else None
        if reason is not None:
            notes.append(f"skipped {name}: {reason}")
            continue
        witness = run(env)
        results.append(LawResult(name, witness is None, witness))
    return OracleReport(
        context_digest(ctx),
        env.n,
        env.m,
        tuple(results),
        None,
        tuple(notes),
    )


def enumerate_mstar(ctx: FormalContext) -> OracleReport:
    """Classify all 2^(2^|M|) composite attributes by extent.

    Refused beyond 4 attributes or 16 objects.  The report carries one
    summary per class plus the structural checks: the sizes partition the
    sweep, the realized extents match the node extents, and each class's
    least and greatest tables are the builder's gfcp and grsp.
    """
    if ctx.n_attributes > _SWEEP_ATTRIBUTE_CAP:
        raise CapExceeded(
            f"{ctx.n_attributes} attributes exceed the sweep cap of {_SWEEP_ATTRIBUTE_CAP}"
        )
    if ctx.n_objects > _SWEEP_OBJECT_CAP:
        raise CapExceeded(
            f"{ctx.n_objects} objects exceed the sweep cap of {_SWEEP_OBJECT_CAP}"
        )
    lat = build_gcl(ctx)
    env = _Env(ctx, lat)
    grouped, m = env.sweep_classes, env.m
    names = ("census-partition", "census-extent-family", "census-class-extremes")
    laws = tuple(LawResult(name, w is None, w) for name, w in zip(names, _census(env)))
    classes = tuple(
        ClassSummary(
            BitSet(ext, env.n),
            grouped[ext][0],
            CanonicalForm(m, grouped[ext][1]),
            CanonicalForm(m, grouped[ext][2]),
        )
        for ext in sorted(grouped, key=lambda b: (b.bit_count(), b))
    )
    return OracleReport(
        context_digest(ctx),
        env.n,
        env.m,
        laws,
        classes,
        (),
    )
