"""Byte identity of the ``forge`` command line, as a test.

Each case runs one command through ``cli.main`` in-process, from inside a
corpus generated from fixed seeds and with relative paths, and compares the
sha256 of its (exit code, stdout, stderr) with ``tests/golden.json``.  A
change that alters an output on purpose regenerates the file::

    python tests/test_golden.py --write

and prints a line per command whose digest changed, was added or was
removed: ``old -> new  command``, each digest cut to 12 hex digits, and
``added`` or ``removed`` in place of a digest that is not there.  CAPM
outputs depend on the BLAS build, so a ``capm`` digest is compared only
where numpy and BLAS are the versions the file records.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import sys
import tempfile
import warnings

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
SEED = 16

# ctxbench/run.py's FUSION_SMALL, RULES_SMALL and REPORTS_SMALL, copied:
# importing run.py would pin this process's BLAS threads
FUSION_SMALL = dict(items=300, dim=32, queries=5, k=4, top_n=50)
RULES_SMALL = dict(scenes=300, short=2, long=1, long_clauses=8)
REPORTS_SMALL = dict(models=2)
# CAPM sizes at which a gradcheck makes a few hundred forwards
TINY = "--d-b 4 --d-p 2 --K 1 --r 1 --heads 1 --t-len 2 --l-len 2"
FUSION = "retrieve --mode fusion --embeddings store-g.jsonl --queries queries-g.jsonl"
INTENT = "retrieve --mode intent --metadata scenes-g.jsonl"


def _row(task, shots, values, perturbation=None, taxonomy="Perception"):
    row = {"model": "m", "task": task, "taxonomy": taxonomy, "modality": "und",
           "shots": shots, "values": values}
    return row if perturbation is None else dict(row, perturbation=perturbation)


# Hand-made inputs beside the generated corpus: file name -> JSONL rows.
EXTRA_FILES = {
    "bad.jsonl": None,  # written as a line that is not JSON
    "empty.jsonl": [],
    "dup-queries.jsonl": [{"id": "it000000"}, {"id": "it000000"}],
    "no-outcome.jsonl": [{"metric": "a", "outcome": "win"}, {"metric": "a"}],
    # a clean base curve followed by a perturbed twin of the same key
    "twin-base.jsonl": [_row("t", [0, 1], [10.0, 20.0]),
                        _row("t", [0, 1], [40.0, 80.0], "random_replace")],
    "twin-variant.jsonl": [_row("t", [0, 1], [20.0, 40.0])],
    "dup-clean.jsonl": [_row("t", [0, 1], [1.0, 2.0]), _row("t", [0, 1], [2.0, 3.0]),
                        _row("t", [0, 1], [1.0, 1.0], "interference")],
    "one-clean.jsonl": [_row("t", [0, 1], [1.0, 2.0])],
    "perturbed-only.jsonl": [_row("t", [0, 1], [1.0, 2.0], "reverse_order")],
    # a perturbed curve whose deviation area overflows
    "overflow.jsonl": [_row("t", [0, 1], [1.0, 1.0]),
                       _row("t", [0, 1], [-1.7e308, -1.7e308], "reverse_order")],
    "unmatched.jsonl": [_row("u", [0, 1], [1.0, 2.0])],
    "other-taxonomy.jsonl": [_row("t", [0, 1], [2.0, 2.0], taxonomy="Analogy")],
    "empty-curve.jsonl": [_row("t", [], [])],
    # a one-point twin, whose clean curve spans no area on its grid
    "one-point-twin.jsonl": [_row("t", [0, 1], [1.0, 1.0]), _row("t", [1], [1.0], "interference")],
    "no-twin.jsonl": [_row("t", [0, 1], [1.0, 1.0]), _row("u", [0, 1], [1.0, 1.0], "interference")],
    # rejected twins on two grids: t2's, the first in report order, is named
    "stability-order.jsonl": [_row("t1", [0, 1], [1.0, 1.0]), _row("t2", [0, 1], [1.0, 1.0]),
                              _row("t3", [0, 1], [0.0, 1.0]),
                              _row("t1", [0, 1], [1.0, 1.0], "interference"),
                              _row("t2", [1], [1.0], "interference"),
                              _row("t3", [0, 1], [1.0, 1.0], "interference")],
    # t1's zero base value comes before t2's grid mismatch
    "order-base.jsonl": [_row("t1", [0, 1], [0.0, 1.0]), _row("t2", [0, 1], [1.0, 1.0])],
    "order-variant.jsonl": [_row("t1", [0, 1], [1.0, 1.0]), _row("t2", [0, 2], [1.0, 1.0])],
    "cfg-capm-list.json": {"capm": []},
    # a score for every store id, so --s-field replaces each fused score
    "scores-all.jsonl": [{"scene_id": f"it{i:06d}", "instances": [], "scene_attributes": {},
                          "scores": {"q": (i % 10) / 10}} for i in range(FUSION_SMALL["items"])],
}

# Every command, in the order it runs: a later command may read a file an
# earlier one wrote.  Each line is split like a shell's.
COMMANDS = [
    "--help",
    "--version",
    "",
    "nosuch",
    # retrieve
    f"{FUSION} --k 4 --top-n 50",
    f"{FUSION} --k 3 --top-n 20 --lambda 0.3 --beta 2 --out episodes-g.jsonl",
    f"{FUSION} --k 400",
    f"{FUSION} --s-field quality",
    f"{FUSION} --s-field quality --metadata scenes-g.jsonl",
    f"{FUSION} --k 3 --s-field q --metadata scores-all.jsonl",
    f"{FUSION} --top-n 0",
    f"{FUSION} --top-n 2 --k 4 --beta 1e6",
    "retrieve --mode fusion --embeddings store-g.jsonl --queries dup-queries.jsonl",
    "retrieve --mode fusion --embeddings bad.jsonl --queries queries-g.jsonl",
    "retrieve --mode fusion",
    "retrieve",
    f"{INTENT} --rule-file rule-g-0.txt --k 300 --episode-id rule-0",
    f"{INTENT} --rule-file rule-g-1.txt --k 300 --episode-id rule-1",
    f"{INTENT} --rule-file rule-g-2.txt --k 300 --episode-id rule-2",
    f"{INTENT} --rule 'exists(category == \"dog\" and color != \"red\")' --k 5",
    f"{INTENT} --rule 'a == '",
    "retrieve --mode intent --rule true",
    # filter
    "filter --metadata scenes-g.jsonl --score-field quality --min 0.25 --max 0.75",
    "filter --metadata scenes-g.jsonl --score-field nosuch",
    "filter --metadata bad.jsonl --score-field quality",
    "filter --metadata scenes-g.jsonl",
    # validate
    "validate --episodes episodes-g.jsonl",
    "validate --embeddings store-g.jsonl",
    "validate --metadata scenes-g.jsonl",
    "validate --metadata bad.jsonl",
    "validate",
    # eval
    "eval curves --results results-g.jsonl",
    "eval stability --results results-g.jsonl",
    "eval align --results results-g.jsonl",
    "eval transfer --base base-g.jsonl --variant variant-g.jsonl",
    "eval human --results results-g.jsonl",
    "eval curves --results bad.jsonl",
    "eval curves",
    "eval transfer --base base-g.jsonl",
    "eval",
    "eval human --results empty.jsonl",
    "eval human --results no-outcome.jsonl",
    "eval transfer --base empty.jsonl --variant empty.jsonl",
    "eval transfer --base perturbed-only.jsonl --variant perturbed-only.jsonl",
    "eval transfer --base twin-base.jsonl --variant twin-variant.jsonl",
    "eval curves --results dup-clean.jsonl",
    "eval stability --results dup-clean.jsonl",
    "eval transfer --base dup-clean.jsonl --variant one-clean.jsonl",
    "eval transfer --base one-clean.jsonl --variant dup-clean.jsonl",
    "eval stability --results overflow.jsonl",
    "eval transfer --base one-clean.jsonl --variant unmatched.jsonl",
    "eval transfer --base twin-variant.jsonl --variant other-taxonomy.jsonl",
    "eval curves --results empty-curve.jsonl",
    "eval stability --results empty-curve.jsonl",
    "eval transfer --base empty-curve.jsonl --variant empty-curve.jsonl",
    "eval stability --results one-point-twin.jsonl",
    "eval stability --results no-twin.jsonl",
    "eval stability --results stability-order.jsonl",
    "eval transfer --base order-base.jsonl --variant order-variant.jsonl",
    # capm
    f"capm demo --seed 3 {TINY} --shots 2",
    f"capm demo --seed 3 {TINY} --shots 2 --save-params params-tiny.bin",
    "capm demo --seed 3 --t-len 2 --l-len 2 --shots 2 --params params-tiny.bin",
    f"capm diagnose --seed 3 {TINY} --shots 2",
    f"capm gradcheck --seed 3 {TINY} --shots 1",
    f"capm gradcheck --seed 3 {TINY} --shots 0",
    f"capm gradcheck --seed 3 {TINY} --shots 1 --tolerance 1e-300",
    f"capm diagnose --seed 3 {TINY} --shots 0",
    "capm demo --params scenes-g.jsonl",
    "capm demo --config cfg-capm-list.json",
    "capm demo --seed x",
]


def platform() -> dict[str, str]:
    """The versions CAPM outputs depend on."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _load_inputs_module():
    path = os.path.join(ROOT, "ctxbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("_ctxbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def build_corpus(directory: str) -> None:
    """The generated corpus and the hand-made files, written to ``directory``."""
    inputs = _load_inputs_module()
    inputs.make_fusion(directory, SEED, "g", **FUSION_SMALL)
    inputs.make_rules(directory, SEED, "g", **RULES_SMALL)
    inputs.make_reports(directory, SEED, "g", **REPORTS_SMALL)
    for name, rows in EXTRA_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            if rows is None:
                fh.write("{not json\n")
            elif isinstance(rows, dict):
                fh.write(json.dumps(rows))
            else:
                fh.writelines(json.dumps(r) + "\n" for r in rows)


def _digest(argv: list[str]) -> str:
    """sha256 of ``cli.main(argv)``'s (exit code, stdout, stderr).  A Python
    warning is recorded and hashed as one more stderr line, so the digest does
    not depend on the runner's warning filters."""
    from ctxforge import cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    payload = json.dumps([code, out.getvalue(), stderr], ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_all(directory: str) -> dict[str, str]:
    """Each command's digest, run from inside ``directory``; the environment
    variables that change an output are fixed for the run."""
    fixed = {"COLUMNS": "80", "FORGE_SEED": None}  # argparse wraps help at COLUMNS
    saved = {name: os.environ.get(name) for name in fixed}
    cwd = os.getcwd()
    try:
        for name, value in fixed.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        os.chdir(directory)
        return {command: _digest(shlex.split(command)) for command in COMMANDS}
    finally:
        os.chdir(cwd)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("golden"))
    build_corpus(directory)
    return run_all(directory)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_lists_every_command(golden):
    assert len(set(COMMANDS)) == len(COMMANDS)
    assert list(golden["digests"]) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output_digest(digests, golden, command):
    if command.startswith("capm ") and golden["platform"] != platform():
        pytest.skip(f"CAPM digests were recorded on {golden['platform']}")
    assert digests[command] == golden["digests"][command]


def write() -> None:
    with tempfile.TemporaryDirectory() as directory:
        build_corpus(directory)
        found = run_all(directory)
    with open(GOLDEN, encoding="utf-8") as fh:
        old = json.load(fh)["digests"]
    for command in {**old, **found}:
        before, after = old.get(command, "added"), found.get(command, "removed")
        if before != after:
            print(f"{before[:12]:<12} -> {after[:12]:<12}  {command}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"platform": platform(), "digests": found}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    write()
