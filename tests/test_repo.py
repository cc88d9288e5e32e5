"""Checks on the repository checkout itself."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except FileNotFoundError:
        pytest.skip("git is not installed")


def test_no_tracked_file_is_gitignored():
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", f"tracked files that .gitignore names:\n{listed.stdout}"


def _imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _canonical(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {_canonical(re.match(r"[A-Za-z0-9._-]+", r).group()) for r in requirements}
    imported = {}
    for path in sorted((ROOT / "src" / "ctxforge").rglob("*.py")):
        for name in _imported_top_level(path) - sys.stdlib_module_names - {"ctxforge"}:
            imported.setdefault(name, path.relative_to(ROOT).as_posix())
    undeclared = {n: p for n, p in imported.items() if _canonical(n) not in declared}
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"


# The one function allowed to decode JSON with json, which bounds the nesting
# of every document it decodes: the JSONL reader, the config file and a
# parameter file's manifest line all call it.  orjson, whose values part from
# json's in a few ways, is used only by the JSONL reader, which keeps the two
# apart.
JSON_DECODE_SITES = {("records.py", "_decode_json")}
ORJSON_SITES = {("records.py", "_read_jsonl")}
JSON_DECODERS = {"load", "loads", "JSONDecoder"}


def _json_uses(path: Path) -> list[tuple[str, str | None, int]]:
    """(module, outermost function or None, line) of each use of a json
    decoder, and of each mention of orjson."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                if child.value.id == "json" and child.attr in JSON_DECODERS:
                    found.append(("json", func, child.lineno))
            elif isinstance(child, ast.ImportFrom) and child.module == "json":
                if any(alias.name in JSON_DECODERS for alias in child.names):
                    found.append(("json", func, child.lineno))
            if (
                isinstance(child, ast.Name) and child.id == "orjson"
                or isinstance(child, ast.Import) and any(a.name == "orjson" for a in child.names)
                or isinstance(child, ast.ImportFrom) and child.module == "orjson"
            ):
                found.append(("orjson", func, child.lineno))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, func or (child.name if is_func else None))

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return found


def test_json_is_decoded_only_where_allowed():
    allowed = {"json": JSON_DECODE_SITES, "orjson": ORJSON_SITES}
    stray = [
        f"{path.relative_to(ROOT).as_posix()}:{lineno} ({module} in {func})"
        for path in sorted((ROOT / "src" / "ctxforge").rglob("*.py"))
        for module, func, lineno in _json_uses(path)
        if (path.name, func) not in allowed[module]
    ]
    assert not stray, f"JSON decoded outside its allowed sites: {stray}"


def _bench_tracing():
    import importlib.util

    spec = importlib.util.spec_from_file_location("ctxbench_tracing", ROOT / "ctxbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_finds_every_boundary():
    # ctxbench wraps named functions of the package at run time; renaming or
    # deleting one of them must fail here, not first in a benchmark run
    tracing = _bench_tracing()
    targets = tracing._targets()
    originals = [getattr(module, attr) for module, attr, _, _ in targets]
    tracer = tracing.Tracer(tracing.Recorder())
    try:
        tracer.install()
        for (module, attr, _, _), original in zip(targets, originals):
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr, _, _), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_benchmark_tracer_sees_one_ranking_per_query(tmp_path):
    # ctxbench counts fusion.rank_top_n calls and their candidates per query:
    # ranking every query in one call would change what those metrics mean
    from ctxforge import cli

    store = tmp_path / "store.jsonl"
    rows = [(f"it{i}", m) for i in (4, 0, 5, 2, 1, 3) for m in ("visual", "text")]
    rows += [("vis-only", "visual"), ("text-only", "text")]
    store.write_text(
        "".join(
            json.dumps({"id": rid, "modality": m, "dim": 3, "values": [1.0, len(rid), i % 3]}) + "\n"
            for i, (rid, m) in enumerate(rows)
        )
    )
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(json.dumps({"id": q}) + "\n" for q in ("it3", "it0", "it5")))
    tracing = _bench_tracing()
    recorder = tracing.Recorder()
    tracer = tracing.Tracer(recorder)
    out, err = io.StringIO(), io.StringIO()
    try:
        tracer.install()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["retrieve", "--mode", "fusion", "--embeddings", str(store),
                             "--queries", str(queries), "--k", "2"])
    finally:
        tracer.uninstall()
    assert code == 0, err.getvalue()
    ranked = [c for n, c in zip(recorder.names, recorder.counts) if n == "fusion.rank_top_n"]
    assert ranked == [{"candidates": 5}] * 3


def _module_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and constants a module's top level defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _mentions(tree: ast.AST) -> set[str]:
    """Every name read, imported or reached as an attribute in ``tree``, and
    every string that is a name or ends in ``.name`` (``getattr``, tracing
    and export tables name functions by string); a plain assignment to a
    name, the one way a constant is defined, is not a mention."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value.rpartition(".")[2])
    return found


def test_every_module_level_name_is_used():
    # a function, class or constant nothing names is dead code; ``cli.main``
    # finds its ``cmd_*`` functions by the command's name
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in ("src", "tests", "ctxbench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    mentioned = set().union(*map(_mentions, trees.values()))
    unused = [
        f"{path.relative_to(ROOT).as_posix()}: {name}"
        for path, tree in trees.items()
        if path.parent == ROOT / "src" / "ctxforge"
        for name in _module_level_names(tree)
        if name not in mentioned
        and not (name.startswith("__") and name.endswith("__"))
        and not (path.name == "cli.py" and name.startswith("cmd_"))
    ]
    assert not unused, f"defined but never named elsewhere: {unused}"
