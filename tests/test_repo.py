"""Checks on the repository checkout itself."""

from __future__ import annotations

import ast
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


def test_benchmark_tracer_finds_every_boundary():
    # ctxbench wraps named functions of the package at run time; renaming or
    # deleting one of them must fail here, not first in a benchmark run
    import importlib.util

    spec = importlib.util.spec_from_file_location("ctxbench_tracing", ROOT / "ctxbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
