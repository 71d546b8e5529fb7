"""Checks on the package source itself."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gcl"


def test_no_assert_statements():
    # invariants raise InvariantError: an assert vanishes under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect(tmp_path):
    # each command is a fresh process: importing dataclasses (which loads
    # inspect) and building the records with it cost about 0.04 s of CPU
    # per command on a 2-vCPU host, so the records derive from
    # gcl.value.Value instead.  Likewise the command line is read without
    # argparse (which loads gettext, and locale once it parses), and json
    # loads only for the commands that use it: in cold children on that
    # host argparse cost 3.0 ms to import and 4.0 ms to parse, json 2.6 ms
    # and csv 0.9 ms, against about 6.5 ms of lattice work for an inspect
    # at 14 blocks.  csv input reads with _csv, whose reader and error the
    # csv module only re-exports, so even a csv build leaves csv unloaded.
    (tmp_path / "t1.cxt").write_text("B\n\n3\n2\n\ng1\ng2\ng3\na\nb\nX.\nXX\n.X\n")
    (tmp_path / "t1.csv").write_text(",a,b\ng1,1,0\ng2,1,1\ng3,0,1\n")
    probe = (
        "import sys, gcl.cli\n"
        "heavy = {'dataclasses', 'inspect', 'argparse', 'gettext', 'locale', 'json', 'csv'}\n"
        "def loaded(*argv):\n"
        "    assert argv == () or gcl.cli.main(list(argv)) == 0\n"
        "    print(sorted(heavy & set(sys.modules)), file=sys.stderr)\n"
        "loaded()\n"
        "loaded('build', 't1.cxt', '--format', 'json')\n"
        "loaded('build', 't1.cxt', '--format', 'dot')\n"
        "loaded('build', 't1.cxt', '--lattice', 'fcl', '--format', 'json')\n"
        "loaded('inspect', 't1.cxt', '--objects', 'g1', '--irreducibles')\n"
        "loaded('verify', 't1.cxt')\n"
        "loaded('build', 't1.csv')\n"
        "loaded('verify', 't1.cxt', '--json')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        check=True,
    )
    assert proc.stderr.splitlines() == [
        "[]", "[]", "[]", "[]", "[]", "[]", "[]", "['json']"
    ]
    # typing (which loads re) and pathlib (fnmatch, re and urllib.parse) are
    # checked without site: a site .pth file may import them before gcl does
    bare = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, gcl.cli\n"
            "def loaded():\n"
            "    print(sorted({'typing', 'pathlib'} & set(sys.modules)), file=sys.stderr)\n"
            "loaded()\n"
            "assert gcl.cli.main(['build', 't1.cxt']) == 0\n"
            "loaded()\n",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        check=True,
    )
    assert bare.stderr.splitlines() == ["[]", "[]"]
    # the context digest comes from the interpreter's own SHA-256 module:
    # hashlib would load OpenSSL's libcrypto (_hashlib), about 4 MB of peak
    # memory; checked without site, which may load hashlib on its own
    openssl = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, gcl.cli\n"
            "for argv in (['verify', 't1.cxt'], ['verify', 't1.cxt', '--sweep', '--json'],\n"
            "             ['compare', 't1.cxt'], ['inspect', 't1.cxt', '--query', 'a'],\n"
            "             ['build', 't1.cxt', '--format', 'json']):\n"
            "    assert gcl.cli.main(argv) == 0\n"
            "    print('_hashlib' in sys.modules, file=sys.stderr)\n",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        check=True,
    )
    assert openssl.stderr.splitlines() == ["False"] * 5


def test_gc_and_atexit_serve_only_the_exit_freeze():
    # cli._freeze_at_exit is the one place that touches the collector or the
    # exit handlers.  gc.disable() and gc.collect() save nothing at exit,
    # and os._exit would skip stdout's flush and the caller's exit handlers.
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        found += [
            f"{path.name}: {call}"
            for call in re.findall(r"os\._exit\(|gc\.disable\(|gc\.collect\(", text)
        ]
        tree = ast.parse(text, str(path))
        hooks = [
            fn for fn in tree.body
            if path.stem == "cli" and getattr(fn, "name", None) == "_freeze_at_exit"
        ]
        allowed = {id(node) for fn in hooks for node in ast.walk(fn)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in allowed
            and (
                isinstance(node, ast.Name) and node.id in ("gc", "atexit")
                or isinstance(node, ast.ImportFrom) and node.module in ("gc", "atexit")
            )
        ]
    assert found == []


def test_cli_leaves_the_term_split_to_exprs():
    # whether a bound or an id list is one string or runs is decided in
    # exprs; the exporters write the parts they are given
    tree = ast.parse((SRC / "cli.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & {"_TERM_SPLIT", "_slice_runs", "_lister", "_low_width"}
    # and no selector pass is shared between calls: each listing makes the
    # selector bytes of its own table
    assert not hasattr(importlib.import_module("gcl.exprs"), "_shared_selectors")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in __all__; a
    computed __all__ lists the strings it is built from."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                leaf.value
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            )
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}: {name}"
        for path in paths
        for name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_unused_import_check_catches_a_stranded_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .context import blocks, block_set_of as bso\n"
        "from .exprs import conj\n"
        "__all__ = ['conj']\n"
        "bso(os)\n"
    )
    assert _unused_imports(tree) == ["blocks (line 3)"]
    computed = ast.parse(
        "import os, sys\n"
        "from importlib import import_module\n"
        "_NAMES = {'exprs': ('conj',)}\n"
        "__all__ = sorted(n for names in _NAMES.values() for n in names) + ['os']\n"
        "import_module('gcl.exprs')\n"
    )
    assert _unused_imports(computed) == ["sys (line 1)"]


def _definitions(tree: ast.Module, namespace: dict) -> list[tuple[str, str]]:
    """(qualified name, name) of every function, method and class in tree,
    nested ones included, save dunders and methods that override an
    attribute of a base class; namespace holds the module's classes."""
    found = []

    def visit(node, prefix: str, owner) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix, owner)
                continue
            name = child.name
            dunder = name.startswith("__") and name.endswith("__")
            overrides = isinstance(owner, type) and any(
                hasattr(base, name) for base in owner.__mro__[1:]
            )
            if not (dunder or overrides):
                found.append((prefix + name, name))
            inner = None
            if isinstance(child, ast.ClassDef):
                inner = owner.get(name) if isinstance(owner, dict) else getattr(owner, name, None)
            visit(child, f"{prefix}{name}.", inner)

    visit(tree, "", namespace)
    return found


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken, and the parts of dotted-name strings
    (as monkeypatch targets and __all__ entries spell them)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                refs.update(node.value.split("."))
    return refs


def test_every_definition_is_referenced():
    referencing = [SRC, ROOT / "tests", ROOT / "perfbench"]
    refs = set()
    for path in sorted(p for folder in referencing for p in folder.rglob("*.py")):
        refs |= _references(ast.parse(path.read_text(), str(path)))
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"gcl.{path.stem}" if path.stem != "__init__" else "gcl")
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.name}: {qual}"
            for qual, name in _definitions(tree, vars(module))
            if name not in refs
        ]
    assert found == []


def test_definition_check_catches_an_orphan():
    source = (
        "import argparse\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): ...\n"
        "    def __repr__(self): ...\n"
        "    def orphan_method(self): ...\n"
        "def used():\n"
        "    def orphan_inner(): ...\n"
        "    return 'gcl.by_string'\n"
        "def by_string(): ...\n"
        "def orphan(): ...\n"
        "main = used\n"
    )
    namespace: dict = {}
    exec(compile(source, "<synthetic>", "exec"), namespace)
    tree = ast.parse(source)
    refs = _references(tree)
    assert [q for q, name in _definitions(tree, namespace) if name not in refs] == [
        "Parser",
        "Parser.orphan_method",
        "used.orphan_inner",
        "orphan",
    ]


# the names gcl exported when it imported them one statement per module
PUBLIC_NAMES = (
    "And AttrExpr BOTTOM BitSet BlockPartition CanonicalForm CapExceeded ClassSummary "
    "ClassicalLattice FclConcept FormalContext GclError GclLattice GeneralConcept "
    "InvariantError IrredClass LawResult LiteralSet Minterm Not NotAGeneralExtent Or "
    "OracleReport ParseError RslConcept TOP Var approx_box approx_diamond atoms_coatoms "
    "blocks box_of build_fcl build_gcl build_rsl canonical_to_expr canonical_to_str conj "
    "context_digest context_to_cxt contextual_constants dagger diamond_of disj "
    "enumerate_mstar equivalent_class_membership eval_contextual expr_to_str "
    "extent_family extent_of general_concept intent_of intrinsic_compare "
    "irreducible_conjunctions irreducible_disjunctions is_member join leq literal meet "
    "parse_context parse_expr quotient_class random_context recover_classical "
    "simplified_intent to_canonical verify_laws"
).split()


def test_public_names_are_one_sorted_list_of_their_home_objects():
    import gcl

    assert len(PUBLIC_NAMES) == 68
    assert gcl.__all__ == sorted(set(gcl.__all__)) == PUBLIC_NAMES
    for home, names in gcl._PUBLIC.items():
        module = importlib.import_module(f"gcl.{home}")
        for name in names:
            obj = getattr(gcl, name)
            assert obj is getattr(module, name), name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name
    namespace: dict = {}
    exec("from gcl import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


# A probe's ran() lists the home modules that have run: a module has run
# when its __dict__ holds any of its public names, and reading __dict__
# does not run a deferred module.
_RAN = (
    "import sys, gcl\n"
    "def ran():\n"
    "    return [h for h, names in gcl._PUBLIC.items()\n"
    "            if set(names) & set(vars(sys.modules['gcl.' + h]))]\n"
)


def _probe(code: str, *flags: str, cwd=None) -> list[str]:
    """The stderr lines of a child that runs _RAN and then code."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _RAN + code],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        check=True,
    )
    return proc.stderr.splitlines()


def test_importing_gcl_loads_the_same_modules():
    # importing gcl runs none of its modules: each home module of a public
    # name is registered, in sys.modules and on the package, and runs on
    # the first read of a name it lacks
    homes = "bitset classical context errors exprs irreducibles lattice oracle"
    assert _probe(
        "print(sorted(m for m in sys.modules if m.startswith('gcl')), file=sys.stderr)\n"
        "print(all(getattr(gcl, h) is sys.modules['gcl.' + h] for h in gcl._PUBLIC),\n"
        "      file=sys.stderr)\n"
        "print(ran(), file=sys.stderr)\n"
    ) == [str(["gcl", *(f"gcl.{m}" for m in homes.split())]), "True", "[]"]


def test_commands_run_only_the_modules_they_read(thirteen_blocks_path):
    # a plain export (9 blocks, past the pretty limit) and an inspect past
    # the inspect limit read no reduced bound, so oracle, irreducibles and
    # classical never run; a classical build and compare run classical
    # alone of the three, and verify runs all three.  Importing gcl.cli
    # runs neither exprs nor lattice, and a classical build, which reads
    # only the context's ints, runs neither of them either
    c13 = thirteen_blocks_path
    plain = ROOT / "tests" / "golden" / "export_plain.csv"
    run = (
        "import gcl.cli\n"
        "def run(*argv):\n"
        "    assert argv == () or gcl.cli.main(list(argv)) == 0\n"
        "    print(ran(), file=sys.stderr)\n"
    )
    base = ["bitset", "context", "errors"]
    plain_gcl = base + ["exprs", "lattice"]
    with_classical = ["bitset", "classical", "context", "errors", "exprs", "lattice"]
    every = ["bitset", "classical", "context", "errors", "exprs", "irreducibles", "lattice", "oracle"]
    assert _probe(
        run + "run()\n"
        "for fmt in ('text', 'json', 'dot'):\n"
        f"    run('build', {str(plain)!r}, '--format', fmt)\n"
        f"run('inspect', {str(c13)!r}, '--objects', 'g1')\n"
        f"run('build', {str(plain)!r}, '--lattice', 'fcl')\n"
        f"run('compare', {str(c13)!r})\n"
        f"run('verify', {str(c13)!r})\n"
    ) == list(map(str, [base] + [plain_gcl] * 4 + [with_classical] * 2 + [every]))
    assert _probe(
        run + "for kind in ('fcl', 'rsl'):\n"
        "    for fmt in ('text', 'json', 'dot'):\n"
        f"        run('build', {str(plain)!r}, '--lattice', kind, '--format', fmt)\n"
    ) == [str(["bitset", "classical", "context", "errors"])] * 6


def test_cli_import_without_site_runs_no_import_helper():
    # importlib.util (and LazyLoader) would load contextlib, about 2 ms of
    # start-up without site; the deferred modules need importlib.machinery
    # alone.  Checked without site, which may load both on its own
    assert _probe(
        "import gcl.cli\n"
        "print(sorted({'importlib.util', 'contextlib'} & set(sys.modules)), file=sys.stderr)\n"
        "print([h for h in ran() if h in ('classical', 'irreducibles', 'oracle')],\n"
        "      file=sys.stderr)\n",
        "-S",
    ) == ["[]", "[]"]


def test_first_reads_from_four_threads_run_a_module_once():
    # four threads make their first read of gcl.verify_laws together: each
    # module runs once, and all get the same function and LawResult class
    assert _probe(
        "import threading\n"
        "runs, got, barrier = [], [], threading.Barrier(4)\n"
        "for h in gcl._PUBLIC:\n"
        "    loader = sys.modules['gcl.' + h].__spec__.loader\n"
        "    loader.exec_module = lambda mod, run=loader.exec_module: (\n"
        "        runs.append(mod.__name__) or run(mod))\n"
        "def read():\n"
        "    barrier.wait()\n"
        "    fn = gcl.verify_laws\n"
        "    got.append((fn, fn.__globals__['LawResult']))\n"
        "threads = [threading.Thread(target=read) for _ in range(4)]\n"
        "print(ran(), file=sys.stderr)\n"
        "sys.setswitchinterval(1e-6)\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "print(any(t.is_alive() for t in threads), file=sys.stderr)\n"
        "print(len(got), len(set(got)), got[0][1] is gcl.LawResult, file=sys.stderr)\n"
        "print(len(runs) == len(set(runs)), 'gcl.oracle' in runs, file=sys.stderr)\n"
    ) == ["[]", "False", "4 1 True", "True True"]
