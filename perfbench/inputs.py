"""Seeded input generation for the benchmark.

Every choice comes from a splitmix64 stream keyed by the workload name
and the seed, so equal seeds give byte-identical context files on any
platform.  Nothing here imports gcl: the inputs stay fixed when the code
under test changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

_MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64 (Steele, Lea and Flood, 2014)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform in [0, n); the modulo bias is below 2^-40 for n < 2^24."""
        return self.next64() % n

    def chance(self, p: float) -> bool:
        return (self.next64() >> 11) < int(p * (1 << 53))

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def stream(label: str, seed: int) -> Rng:
    """An independent stream per (label, seed) pair."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return Rng(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class Context:
    """A binary context: rows[i] is the attribute mask of object i."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.objects)

    @property
    def m(self) -> int:
        return len(self.attributes)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Object masks: bit i of cols[j] iff object i has attribute j."""
        return tuple(
            sum(1 << i for i, row in enumerate(self.rows) if row >> j & 1)
            for j in range(self.m)
        )

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """(row, object mask) per block of identical rows, by first occurrence."""
        members: dict[int, int] = {}
        for i, row in enumerate(self.rows):
            members[row] = members.get(row, 0) | 1 << i
        return tuple(members.items())

    @property
    def n_f(self) -> int:
        return len(self.blocks)

    def mask(self, names) -> int:
        index = {name: i for i, name in enumerate(self.objects)}
        return sum(1 << index[name] for name in names)

    def names(self, mask: int) -> list[str]:
        return [g for i, g in enumerate(self.objects) if mask >> i & 1]


def _named(rows: list[int], m: int) -> Context:
    return Context(
        tuple(f"g{i + 1}" for i in range(len(rows))),
        tuple(f"m{j + 1}" for j in range(m)),
        tuple(rows),
    )


def blocked_context(rng: Rng, n_f: int, m: int, n: int) -> Context:
    """Exactly n_f distinct random rows spread over n objects.

    Every block gets one object, the other n - n_f objects join blocks
    at random, and the object order is shuffled.
    """
    if not 1 <= n_f <= min(n, 1 << m):
        raise ValueError(f"cannot place {n_f} blocks on {n} objects and {m} attributes")
    distinct: list[int] = []
    seen = set()
    while len(distinct) < n_f:
        row = rng.below(1 << m)
        if row not in seen:
            seen.add(row)
            distinct.append(row)
    owners = list(range(n_f)) + [rng.below(n_f) for _ in range(n - n_f)]
    rng.shuffle(owners)
    return _named([distinct[k] for k in owners], m)


def density_context(rng: Rng, n: int, m: int, density: float) -> Context:
    """Each cell incident with probability density, independently."""
    rows = []
    for _ in range(n):
        rows.append(sum(1 << j for j in range(m) if rng.chance(density)))
    return _named(rows, m)


def to_cxt(ctx: Context) -> str:
    """Burmeister format: header, dimensions, names, then an X/. matrix."""
    out = ["B", "", str(ctx.n), str(ctx.m), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for row in ctx.rows:
        out.append("".join("X" if row >> j & 1 else "." for j in range(ctx.m)))
    return "\n".join(out) + "\n"


def to_csv(ctx: Context) -> str:
    """Attribute names in the header row, object names in the first column."""
    out = ["," + ",".join(ctx.attributes)]
    for name, row in zip(ctx.objects, ctx.rows):
        out.append(name + "," + ",".join("1" if row >> j & 1 else "0" for j in range(ctx.m)))
    return "\n".join(out) + "\n"
