"""Exit-code contract of ``forge``: whatever the argv, ``main()`` returns 0, 2,
3 or 4 and never raises; on exit 0 every stdout line is strict JSON.

Argv is drawn from ``build_parser()``'s own option table: a subcommand, its
positional choices, and any of its options with a value of the option's type,
pointing file options at tiny generated data files (some of them corrupted)
and ``--config`` at a random JSON config.  CAPM sizes stay tiny (d_b, d_p <= 4,
K, r, heads, shots <= 2, T and L <= 3), so even a gradcheck costs milliseconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ctxforge import capm
from ctxforge.cli import build_parser, main
from ctxforge.records import pack_vector_block

CONTRACT = {0, 2, 3, 4}

# options whose value names a file to write
OUT_FILES = {"out", "save_params"}
# CAPM sizes and lengths: always given, each by flag or (when --config names the
# generated config) by config, so a run never falls back to the larger defaults
CAPM_KEYS = ("d_b", "d_p", "K", "r", "heads", "shots", "t_len", "l_len")
CAPM_SIZES = CAPM_KEYS[:5]

SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices

# argv text: no NUL (a shell cannot pass one) and no lone surrogates
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)
RULES = st.sampled_from([
    'exists(category == "mug" and color == "red")',
    "exists(bbox within box(0.1, 0.2, 0.8, 0.9))",
    "not exists(category == \"a\")",
]) | TEXT
HUGE = 10**400  # a JSON integer that float() cannot convert
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, 1e-300, 0.5, 1.0, 8.0])
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-5, 10) | FLOATS | st.just(HUGE)
                | st.text(max_size=4) | st.lists(st.integers(0, 3), max_size=2))
IDS = ["a", "b", "c", "q"]
CONFIG_VALUES = {
    "k": st.integers(1, 4),
    "top_n": st.integers(0, 4),
    "lambda": st.floats(0.0, 1.0),
    "beta": st.floats(0.5, 8.0),
    "seed": st.integers(0, 4),
    "taxonomy": st.sampled_from(["Perception", "Conception"]),
    "subtask": st.sampled_from(["Visual Grounding", "Fast Concept Mapping"]),
    "min": st.floats(-60.0, 1.0),
    "max": st.floats(0.0, 600.0),
}
# the config's "capm" section may also set the schedule, drawn like CONFIG_VALUES
CAPM_SCHEDULE = {
    "eta": st.floats(0.0, 1.0),
    "tau_min": st.floats(0.01, 0.1),
    "tau_max": st.floats(1.0, 2.0),
    "b2_init": st.floats(0.0, 4.0),
}
USUAL_TEXT = {"taxonomy": CONFIG_VALUES["taxonomy"], "subtask": CONFIG_VALUES["subtask"],
              "s_field": st.just("rel"), "score_field": st.just("rel")}
# the file an input option usually names; any other file is drawn too
USUAL_FILE = {"config": "config.json", "embeddings": "emb.jsonl", "queries": "queries.jsonl",
              "metadata": "meta.jsonl", "rule_file": "rule.txt", "results": "results.jsonl",
              "base": "results.jsonl", "variant": "results.jsonl", "params": "params.capm",
              "episodes": "episodes.jsonl"}


def _tiny_params() -> bytes:
    hyper = capm.CapmHyper(d_b=2, d_p=2, K=1, r=1, heads=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.capm")
        capm.save_params(capm.random_params(hyper, np.random.default_rng(0)), hyper, path)
        with open(path, "rb") as fh:
            return fh.read()


PARAMS = _tiny_params()


def _mostly(draw, usual, other):
    """``usual`` nine times in ten, else a draw from ``other``."""
    return draw(usual) if draw(st.integers(0, 9)) else draw(other)


def _container(ids: list[bytes], values: list[list[float]]) -> bytes:
    blob = pack_vector_block(["x" * len(i) for i in ids], np.array(values, dtype=np.float64))
    # write placeholder ids of the same lengths, then swap in the raw id bytes;
    # the header and the small-integer float payloads hold no b"x"
    for i in ids:
        blob = blob.replace(b"x" * len(i), i, 1)
    return blob


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in rows).encode()


@st.composite
def data_files(draw) -> dict[str, bytes]:
    vec = st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=2)
    emb = [{"id": i, "modality": m, "dim": 2, "values": draw(vec)}
           for i in _mostly(draw, st.just(IDS), st.lists(st.sampled_from(IDS), unique=True))
           for m in ("visual", "text")]
    scene_ids = draw(st.lists(st.sampled_from(IDS), max_size=4, unique=True))
    score = st.sampled_from([-50.0, -2.0, 0.0, 0.1, 1.0, 50.0, 500.0, HUGE])
    instance = {"category": "mug", "attributes": {"color": "red"}, "bbox": [0.1, 0.2, 0.3, 0.4]}
    huge_box = dict(instance, bbox=[0.1, 0.2, HUGE, 0.4])
    meta = [{"scene_id": s, "instances": draw(st.sampled_from([[], [instance], [huge_box]])),
             "scene_attributes": {}, "scores": {"rel": draw(score)}} for s in scene_ids]
    curve = st.sampled_from([([0, 1, 2, 4, 8], [10.0, 20.0, 20.0, 20.0, 20.0]),
                             ([1, 2, 4, 8], [18.0, 18.0, 18.0, 18.0]), ([0], [1.0]), ([], []),
                             ([0, 1, HUGE], [1.0, 2.0, 3.0]), ([0, 1, 2], [1.0, HUGE, 3.0])])
    number = st.sampled_from([1.0, 2.0, 3.5, 1e200, -1e200, HUGE])
    # the group keys of `eval align` and `eval human` and a human judgment;
    # a row holds a valid string nine times in ten, else a draw from these
    task = st.sampled_from(["t1", 5, ["t1"]])
    metric = st.sampled_from(["quality", "fluency", 5, ["quality"]])
    outcome = st.sampled_from(["win", "tie", "lose", "draw", 5, ["win"]])
    results = []
    for _ in range(draw(st.integers(0, 3))):
        shots, values = draw(curve)
        results.append({"model": draw(st.sampled_from(["m1", "m2"])),
                        "task": _mostly(draw, st.just("t1"), task),
                        "taxonomy": draw(st.sampled_from(["Perception", "Bogus", ["Perception"]])),
                        "modality": "und",
                        "perturbation": draw(st.sampled_from(["clean", "interference", None])),
                        "shots": shots, "values": values,
                        "primary": draw(number), "auxiliary": draw(number),
                        "metric": _mostly(draw, st.sampled_from(["quality", "fluency"]), metric),
                        "outcome": _mostly(draw, st.sampled_from(["win", "tie", "lose"]), outcome)})
    episode = {"episode_id": "e1", "taxonomy": "Perception", "subtask": "Visual Grounding",
               "shots": [{"id": "a", "image_ref": "a"}], "query": {"id": "q", "image_ref": "q"}}
    ids = draw(st.lists(st.sampled_from([b"a", b"b", b"", b"\xff", b"\xc3("]), min_size=1, max_size=3))
    files = {
        "emb.jsonl": _jsonl(emb),
        "store.bin": _container(ids, [draw(vec) for _ in ids]),
        "queries.jsonl": _jsonl({"id": i} for i in draw(st.lists(st.sampled_from(IDS + ["zz"]), max_size=2))),
        "meta.jsonl": _jsonl(meta),
        "results.jsonl": _jsonl(results),
        "episodes.jsonl": _jsonl(draw(st.sampled_from([[], [episode], [episode, episode]]))),
        "params.capm": PARAMS,
        "rule.txt": draw(RULES).encode(),
        "junk.bin": draw(st.binary(max_size=32)),
    }
    if draw(st.integers(0, 3)) == 0:  # corrupt one file: cut it short or overwrite one byte
        name = draw(st.sampled_from(sorted(files)))
        blob = files[name]
        pos = draw(st.integers(0, max(len(blob) - 1, 0)))
        files[name] = blob[:pos] if draw(st.booleans()) else blob[:pos] + draw(st.binary(min_size=1, max_size=1)) + blob[pos + 1:]
    return files


def _option_value(draw, action, files):
    if action.choices:
        return _mostly(draw, st.sampled_from(sorted(action.choices)), TEXT)
    if action.dest in USUAL_FILE:
        other = st.sampled_from(sorted(files) + ["config.json", "missing.jsonl", ""])
        return "{dir}/" + _mostly(draw, st.just(USUAL_FILE[action.dest]), other)
    if action.dest in OUT_FILES:  # "{dir}/" itself is a directory: writing it fails
        return "{dir}/" + _mostly(draw, st.just("written.out"), st.just(""))
    if action.dest == "rule":
        return draw(RULES)
    if action.dest in USUAL_TEXT:
        return _mostly(draw, USUAL_TEXT[action.dest], TEXT)
    if action.type is int:
        usual = st.just(action.default) if action.default is not None else st.integers(1, 4)
        return str(_mostly(draw, usual, st.integers(-3, 10) | st.integers()))
    if action.type is float:
        usual = st.just(action.default) if action.default is not None else st.floats(0.05, 1.0)
        return repr(_mostly(draw, usual, FLOATS))
    return draw(TEXT)


def _capm_sizes(draw) -> dict[str, int]:
    """Tiny valid sizes nine times in ten, else an invalid one."""
    def pick(low, high):
        return _mostly(draw, st.integers(low, high), st.integers(-1, 0))
    heads = pick(1, 2)
    d_p = _mostly(draw, st.integers(1, 2).map(lambda m: m * max(heads, 1)), st.integers(-1, 4))
    return {"d_b": pick(1, 4), "d_p": d_p, "K": pick(1, 2), "r": pick(1, 2), "heads": heads,
            "shots": _mostly(draw, st.integers(0, 2), st.just(-1)), "t_len": pick(1, 3),
            "l_len": _mostly(draw, st.integers(2, 3), st.integers(0, 1))}


@st.composite
def plans(draw) -> tuple[dict[str, bytes], list[str]]:
    """``(files, argv)``: file contents by name, and argv where ``{dir}``
    stands for the directory the files are written to."""
    files = draw(data_files())
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True))
    config = {k: _mostly(draw, CONFIG_VALUES[k], JSON_SCALARS) for k in keys}
    options = {}
    for action in SUBCOMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            argv.append(_mostly(draw, st.sampled_from(sorted(action.choices)), TEXT))
        elif action.dest in CAPM_KEYS:
            continue
        elif draw(st.integers(0, 9)) < (9 if action.required else 6):
            options[action.dest] = (action.option_strings[-1], _option_value(draw, action, files))
    for dest, (flag, value) in options.items():
        argv += [flag, value]
    if name == "capm":
        by_config = options.get("config", (None, ""))[1].endswith("/config.json")
        schedule = draw(st.lists(st.sampled_from(sorted(CAPM_SCHEDULE)), unique=True))
        config["capm"] = {k: _mostly(draw, CAPM_SCHEDULE[k], JSON_SCALARS) for k in schedule}
        for dest, value in _capm_sizes(draw).items():
            if dest in CAPM_SIZES and by_config and draw(st.booleans()):
                config["capm"][dest] = value
            elif dest != "shots" or draw(st.booleans()):
                argv += ["--" + dest.replace("_", "-"), str(value)]
    files["config.json"] = json.dumps(config).encode()
    return files, argv


def _run(files: dict[str, bytes], argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``main``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{dir}", tmp) for a in argv])
        return code, out.getvalue()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


TINY = ["--d-b", "2", "--d-p", "2", "--heads", "1", "--K", "1", "--r", "1",
        "--shots", "1", "--t-len", "1", "--l-len", "2"]
STORE = {"e.jsonl": _jsonl({"id": i, "modality": m, "dim": 2, "values": [1.0, float(n)]}
                           for n, i in enumerate(IDS) for m in ("visual", "text")),
         "q.jsonl": _jsonl([{"id": "q"}])}
HUGE_ETA = b'"eta": ' + str(HUGE).encode() + b","


@settings(max_examples=150, deadline=None)
@given(plans())
@example(({}, ["capm", "gradcheck", "--step", "0", *TINY]))
@example(({"p.capm": PARAMS.replace(b"w_in 2x2", b"w_in 2xa")}, ["capm", "demo", "--params", "{dir}/p.capm"]))
@example(({"p.capm": PARAMS.replace(b"w_in 2x2", b"\xff_in 2x2")}, ["capm", "demo", "--params", "{dir}/p.capm"]))
@example(({"s.bin": _container([b"\xc3("], [[1.0, 0.0]])}, ["validate", "--embeddings", "{dir}/s.bin"]))
@example(({"s.bin": _container([b"a", b""], [[1.0, 0.0], [0.0, 1.0]])}, ["validate", "--embeddings", "{dir}/s.bin"]))
@example(({"r.jsonl": _jsonl([{"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",
                               "shots": [0, 1, 2], "values": [1e308, -1e308, 1e308]}])},
          ["eval", "curves", "--results", "{dir}/r.jsonl"]))
@example(({"b.jsonl": b"", "v.jsonl": b""}, ["eval", "transfer", "--base", "{dir}/b.jsonl", "--variant", "{dir}/v.jsonl"]))
@example(({"c.json": b"1" * 5000}, ["capm", "demo", "--config", "{dir}/c.json", *TINY]))
@example(({**STORE, "c.json": json.dumps({"beta": HUGE}).encode()},
          ["retrieve", "--mode", "fusion", "--embeddings", "{dir}/e.jsonl", "--queries", "{dir}/q.jsonl",
           "--config", "{dir}/c.json"]))
@example(({"c.json": json.dumps({"capm": {"eta": HUGE}}).encode()},
          ["capm", "demo", "--config", "{dir}/c.json", *TINY]))
@example(({"p.capm": PARAMS.replace(b'"eta": 0.1,', HUGE_ETA)}, ["capm", "demo", "--params", "{dir}/p.capm"]))
@example(({"r.jsonl": _jsonl([{"task": ["x"], "primary": 1, "auxiliary": 2}])},
          ["eval", "align", "--results", "{dir}/r.jsonl"]))
@example(({"r.jsonl": _jsonl([{"task": "a", "primary": 1, "auxiliary": 2},
                              {"task": 5, "primary": 1, "auxiliary": 2}])},
          ["eval", "align", "--results", "{dir}/r.jsonl"]))
@example(({"h.jsonl": _jsonl([{"metric": ["x"], "outcome": "win"}])},
          ["eval", "human", "--results", "{dir}/h.jsonl"]))
@example(({"h.jsonl": _jsonl([{"metric": "a", "outcome": "win"}, {"metric": 5, "outcome": "win"}])},
          ["eval", "human", "--results", "{dir}/h.jsonl"]))
@example(({"h.jsonl": _jsonl([{"outcome": ["win"]}])}, ["eval", "human", "--results", "{dir}/h.jsonl"]))
@example(({}, ["capm", "demo", *TINY, "--t-len", str(2**62)]))  # numpy refuses it unallocated
def test_main_returns_a_contract_code(plan):
    files, argv = plan
    code, stdout = _run(files, argv)
    assert code in CONTRACT
    if code == 0:  # the data stream is strict JSON, one object a line
        for line in stdout.splitlines():
            json.loads(line, parse_constant=_reject_constant)
