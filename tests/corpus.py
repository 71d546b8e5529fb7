"""The byte-identity corpus: seeded gcl commands and the hash of each output.

Every command runs in process through ``gcl.cli.main`` in a scratch
directory that holds the corpus contexts, so messages name files by their
relative names.  A command's hash is the sha256 of its exit code, stdout
and stderr; ``golden/corpus.sha256`` keeps one line per command, in corpus
order, as ``<sha256>  <command>``.  The contexts come from
``random_context`` and from seeded draws shaped like the strategies in
``strategies.py``: duplicate rows, hostile names, no objects, no
attributes.

    python tests/corpus.py            check the tier-1 slice
    python tests/corpus.py --full     check every command
    python tests/corpus.py --write    regenerate the manifest

Each run ends with its wall time and its five slowest commands.

A change that alters any output regenerates the manifest in the same
commit and names the changed commands and the reason.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
import time
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden") / "corpus.sha256"

# hostile names a spreadsheet may produce; only line breaks are left out
_HOSTILE = [
    "a,b", '"q"', "a\\b", "'", " lead", "trail ", " ", ";", "\t", "é", "漢字",
    "🙂", "\ufeffx", "X", ".", "g1", "m1", "&", "|", "!", "(", "()", "a b",
]

# the contexts of the tier-1 slice, one of each shape and family: every
# command on them runs, plus the refusals
SLICE = (
    "r3-6x3", "r1-8x4", "r2-10x5", "r5-12x8", "dup-2", "hostile-1",
    "hostile-2", "no-objects", "no-attributes", "empty", "csv-7x4", "r1-3x11",
)


def _pick(rng: random.Random, n: int) -> int:
    # getrandbits is the generator's raw stream, stable across Python versions
    return rng.getrandbits(32) % n


def _random_rows(rng: random.Random, n: int, m: int, pool: int | None = None) -> list[int]:
    if pool is None:
        return [rng.getrandbits(m) if m else 0 for _ in range(n)]
    rows = [rng.getrandbits(m) if m else 0 for _ in range(pool)]
    return [rows[_pick(rng, pool)] for _ in range(n)]


def contexts() -> dict:
    """name -> (FormalContext, file suffix): every context of the corpus."""
    from gcl import FormalContext, random_context

    out = {}
    for n, m in ((4, 2), (6, 3), (8, 4), (10, 5), (12, 8), (20, 6)):
        for seed in range(1, 13):
            out[f"r{seed}-{n}x{m}"] = (random_context(seed, n, m, 0.5), ".cxt")
    for seed in range(1, 7):
        rng = random.Random(seed)
        n, m = 3 + _pick(rng, 12), 1 + _pick(rng, 5)
        rows = _random_rows(rng, n, m, pool=1 + _pick(rng, 4))
        out[f"dup-{seed}"] = (
            FormalContext(
                tuple(f"g{i + 1}" for i in range(n)),
                tuple(f"m{j + 1}" for j in range(m)),
                tuple(rows),
            ),
            ".cxt",
        )
    for seed in range(1, 5):
        rng = random.Random(100 + seed)
        names = list(_HOSTILE)
        rng.shuffle(names)
        m = _pick(rng, 5)
        n = 1 + _pick(rng, 6)
        attributes, objects = names[:m], names[m : m + n]
        rows = _random_rows(rng, n, m, pool=None if seed % 2 else 2)
        # csv keeps every name as written; cxt only drops a leading BOM
        # from its first line, which is never a name
        out[f"hostile-{seed}"] = (
            FormalContext(tuple(objects), tuple(attributes), tuple(rows)),
            ".csv" if seed % 2 else ".cxt",
        )
    out["no-objects"] = (FormalContext((), ("m1", "m2", "m3"), ()), ".cxt")
    out["no-attributes"] = (FormalContext(("g1", "g2", "g3", "g4"), (), (0, 0, 0, 0)), ".cxt")
    out["empty"] = (FormalContext((), (), ()), ".cxt")
    out["csv-7x4"] = (random_context(11, 7, 4, 0.4), ".csv")
    # past _TERM_SPLIT attributes, so a gcl export writes each bound in runs;
    # a node there prints up to megabytes, so the objects stay few
    for seed, (n, m) in enumerate(((3, 11), (2, 12), (3, 12)), 1):
        out[f"r{seed}-{n}x{m}"] = (random_context(seed, n, m, 0.5), ".cxt")
    # where a whole-lattice export splits its bound and id lists (at the
    # median block row): every row in the low or in the high half of the
    # minterm range, one block (no row below the split), no attribute, and
    # 10 attributes, the widest at which each bound is one string
    def named(rows, m):
        names = tuple(f"g{i + 1}" for i in range(len(rows)))
        return FormalContext(names, tuple(f"m{j + 1}" for j in range(m)), tuple(rows))

    out["split-low-9x6"] = (named(range(9), 6), ".cxt")
    out["split-high-9x5"] = (named(range(23, 32), 5), ".csv")
    out["split-one-2x4"] = (named((0b1010, 0b1010), 4), ".cxt")
    out["split-m0-3x0"] = (FormalContext(("g,1", '"g2"', " g3 "), (), (0, 0, 0)), ".csv")
    out["split-m10-9x10"] = (named((3, 100, 200, 341, 512, 600, 777, 900, 1023), 10), ".cxt")
    # past the node cap (21 distinct rows), the export limit and the
    # inspect limit
    out["cap-21-blocks"] = (
        FormalContext(
            tuple(f"g{i + 1}" for i in range(21)),
            tuple(f"m{j + 1}" for j in range(5)),
            tuple(range(21)),
        ),
        ".cxt",
    )
    out["cap-17-attributes"] = (random_context(12, 3, 17, 0.5), ".cxt")
    return out


def _text(ctx, suffix: str) -> str:
    from gcl import context_to_cxt

    if suffix == ".cxt":
        return context_to_cxt(ctx)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["", *ctx.attributes])
    for name, row in zip(ctx.objects, ctx.rows):
        writer.writerow([name, *("1" if row >> j & 1 else "0" for j in range(ctx.n_attributes))])
    return buf.getvalue()


def _plain(name: str) -> bool:
    return "," not in name and name == name.strip()


def _queries(ctx) -> list[str]:
    names = ctx.attributes
    if not names or not all(n.isidentifier() for n in names):
        return []
    if len(names) == 1:
        return [names[0], f"!{names[0]}"]
    return [f"{names[0]} & !{names[1]}", f"{names[-1]} | {names[0]}"]


def commands() -> list[tuple[str, tuple[str, ...]]]:
    """(context name, argv) for every command, in corpus order."""
    out = []
    for name, (ctx, suffix) in contexts().items():
        path = name + suffix
        if name.startswith("cap-"):
            continue
        for lattice in ("gcl", "fcl", "rsl"):
            for fmt in ("text", "json", "dot"):
                out.append((name, ("build", path, "--lattice", lattice, "--format", fmt)))
        for flags in ((), ("--json",), ("--sweep",), ("--json", "--sweep")):
            out.append((name, ("verify", path, *flags)))
        out.append((name, ("compare", path)))
        first = [g for g, row in zip(ctx.objects, ctx.rows) if row == ctx.rows[0]]
        picks = [""] + ([",".join(first)] if first and all(map(_plain, first)) else [])
        for objects in picks:
            out.append((name, ("inspect", path, "--objects", objects)))
            out.append((name, ("inspect", path, "--objects", objects, "--irreducibles")))
        for query in _queries(ctx):
            out.append((name, ("inspect", path, "--query", query)))
    # refusals: caps (exit 3), bad input (exit 2) and bad usage (exit 1)
    out += [
        ("cap-21-blocks", ("build", "cap-21-blocks.cxt")),
        ("cap-21-blocks", ("compare", "cap-21-blocks.cxt")),
        ("cap-21-blocks", ("verify", "cap-21-blocks.cxt")),
        ("cap-21-blocks", ("inspect", "cap-21-blocks.cxt", "--objects", "g1")),
        ("cap-21-blocks", ("build", "cap-21-blocks.cxt", "--lattice", "fcl", "--format", "json")),
        ("cap-17-attributes", ("inspect", "cap-17-attributes.cxt", "--objects", "g1")),
        ("cap-17-attributes", ("build", "cap-17-attributes.cxt", "--max-m", "16")),
        ("r7-12x8", ("build", "r7-12x8.cxt", "--max-m", "4")),
        ("r3-6x3", ("inspect", "r3-6x3.cxt", "--objects", "g1,g2,g3")),
        ("r3-6x3", ("inspect", "r3-6x3.cxt", "--objects", "g9")),
        ("r3-6x3", ("inspect", "r3-6x3.cxt", "--query", "m1 &")),
        ("r3-6x3", ("inspect", "r3-6x3.cxt", "--query", "zz")),
        ("r3-6x3", ("build", "missing.cxt")),
        ("r3-6x3", ("build", "bad.cxt")),
        ("r3-6x3", ("build", "bad.csv")),
        ("r3-6x3", ("build", "r3-6x3.cxt", "--format", "svg")),
        ("r3-6x3", ("inspect", "r3-6x3.cxt")),
        ("r3-6x3", ("frobnicate",)),
        ("r3-6x3", ()),
    ]
    return out


def label(argv: tuple[str, ...]) -> str:
    return " ".join(map(shlex.quote, ("gcl", *argv)))


def write_contexts(directory: Path) -> None:
    for name, (ctx, suffix) in contexts().items():
        (directory / (name + suffix)).write_text(_text(ctx, suffix), encoding="utf-8")
    (directory / "bad.cxt").write_text("B\n\n2\n1\n\ng1\ng2\na\nX\nY\n", encoding="utf-8")
    (directory / "bad.csv").write_text(",a\ng1,1\ng2,2\n", encoding="utf-8")


def digest(argv: tuple[str, ...]) -> str:
    """sha256 of the exit code, stdout and stderr of gcl argv, run in the
    current directory; an escaping exception counts as its type and text."""
    from gcl.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception as exc:  # a traceback is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    blob = f"exit {code}\n\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8", "surrogateescape")).hexdigest()


@contextlib.contextmanager
def _workdir():
    """A scratch directory holding the contexts, as the current directory,
    with GCL_MAX_M unset so the caps are the defaults."""
    old_dir, old_cap = os.getcwd(), os.environ.pop("GCL_MAX_M", None)
    with tempfile.TemporaryDirectory() as tmp:
        write_contexts(Path(tmp))
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old_dir)
            if old_cap is not None:
                os.environ["GCL_MAX_M"] = old_cap


def run(full: bool) -> list[tuple[str, str, float]]:
    """(label, sha256, wall seconds) of every command, or of the slice's only."""
    picked = [argv for name, argv in commands() if full or name in SLICE]
    results = []
    with _workdir():
        for argv in picked:
            start = time.perf_counter()
            sha = digest(argv)
            results.append((label(argv), sha, time.perf_counter() - start))
    return results


def read_manifest() -> dict[str, str]:
    out = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        sha, _, command = line.partition("  ")
        out[command] = sha
    return out


def mismatches(results: list[tuple[str, str, float]]) -> list[str]:
    """The commands whose hash differs from (or is missing in) the manifest."""
    want = read_manifest()
    return [command for command, sha, _ in results if want.get(command) != sha]


def _timing(results: list[tuple[str, str, float]], wall: float) -> None:
    print(f"wall time {wall:.1f} s; slowest commands:")
    for command, _, seconds in sorted(results, key=lambda r: -r[2])[:5]:
        print(f"  {seconds:7.3f} s  {command}")


def _main(argv: list[str]) -> int:
    start = time.perf_counter()
    if "--write" in argv:
        results = run(full=True)
        MANIFEST.write_text("".join(f"{sha}  {cmd}\n" for cmd, sha, _ in results), encoding="utf-8")
        print(f"wrote {len(results)} hashes to {MANIFEST.name}")
        _timing(results, time.perf_counter() - start)
        return 0
    results = run(full="--full" in argv)
    bad = mismatches(results)
    for command in bad:
        print(f"differs: {command}")
    print(f"{len(results) - len(bad)} of {len(results)} commands match")
    _timing(results, time.perf_counter() - start)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(_main(sys.argv[1:]))
