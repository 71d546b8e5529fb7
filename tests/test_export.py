"""Streamed export: golden bytes, the json layout, and memory against output size."""

import gzip
import io
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import example, given, settings

from strategies import hostile_contexts
from gcl import FormalContext, build_fcl, build_gcl, build_rsl
from gcl.cli import export_lattice, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SUFFIX = {"text": "txt", "json": "json", "dot": "dot"}

# (context file, lattice kind, golden stem): the fancy context has 8 blocks,
# so its bounds take the reduced rendering; the plain one has 9, past the
# pretty limit, and is read as csv.  Names carry quotes, backslashes, a
# tab, non-ASCII letters and leading or trailing blanks.
CASES = [
    ("export_fancy.cxt", "gcl", "export_fancy_gcl"),
    ("export_plain.csv", "gcl", "export_plain_gcl"),
    ("export_fancy.cxt", "fcl", "export_fancy_fcl"),
    ("export_fancy.cxt", "rsl", "export_fancy_rsl"),
]


def _golden(stem: str, fmt: str) -> bytes:
    path = GOLDEN / f"{stem}.{SUFFIX[fmt]}"
    if path.exists():
        return path.read_bytes()
    return gzip.decompress(path.with_name(path.name + ".gz").read_bytes())


def _exported(lat, fmt: str) -> str:
    out = io.StringIO()
    export_lattice(lat, fmt, out)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("source,kind,stem", CASES)
def test_build_matches_golden_bytes(capsysbinary, tmp_path, source, kind, stem, fmt):
    want = _golden(stem, fmt)
    argv = ["build", str(GOLDEN / source), "--lattice", kind, "--format", fmt]
    assert main(argv) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == want and captured.err == b""
    target = tmp_path / "export.out"
    target.write_text("x" * 10**6)  # a longer earlier file is replaced whole
    assert main([*argv, "--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == want


_BUILD = {"gcl": build_gcl, "fcl": build_fcl, "rsl": build_rsl}


@pytest.mark.parametrize("kind", ["gcl", "fcl", "rsl"])
@settings(max_examples=40, deadline=None)
@given(ctx=hostile_contexts())
@example(ctx=FormalContext((), (), ()))
@example(ctx=FormalContext(("g",), (), (0,)))
@example(ctx=FormalContext((), ("a", "b"), ()))
def test_json_export_has_the_json_dumps_layout(kind, ctx):
    out = _exported(_BUILD[kind](ctx), "json")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


class _CountingSink:
    """A text stream that keeps nothing but the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_export_memory_stays_far_below_its_output(fmt):
    # 10 blocks over 6 attributes, past the pretty limit: 1024 nodes whose
    # plain bounds give 2-5 MB of output, all ASCII, so characters are bytes
    m = 6
    rows = tuple((7 * i + 3) % (1 << m) for i in range(10))
    ctx = FormalContext(
        tuple(f"g{i}" for i in range(10)), tuple(f"m{j}" for j in range(m)), rows
    )
    lat = build_gcl(ctx)
    assert lat.partition.n_f == 10
    # the lattice keeps every node it builds (meet, join and dagger hand out
    # those very objects), so they are built first: what is measured is the
    # export's own memory
    built = list(lat.nodes)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        export_lattice(lat, fmt, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 1024 and sink.size > 2 * 10**6
    assert peak < sink.size / 4, f"peak {peak} B for {sink.size} B written"

