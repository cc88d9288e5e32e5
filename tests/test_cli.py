"""End-to-end checks of the ``forge`` command line."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import one_curve
from ctxforge import metrics
from ctxforge.cli import _jsonl, main
from ctxforge.errors import NumericGuardError, ValidationError
from ctxforge.intent import MAX_RULE_DEPTH
from ctxforge.records import (
    TAXONOMY_ORDER,
    EmbeddingRecord,
    pack_vector_block,
    save_embeddings_binary,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env(extra=None):
    """This process's environment plus ``extra``, with this checkout's sources
    first on ``PYTHONPATH``, so a child process imports this ``ctxforge``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **(extra or {})}


def run_cli(args, **kwargs):
    """Run in-process; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args, **kwargs)
    return code, out.getvalue(), err.getvalue()


def run_proc(args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "ctxforge.cli", *args], capture_output=True, text=True,
        env=child_env(env_extra),
    )


@pytest.fixture
def fusion_fixture(tmp_path):
    """The hand-checkable three-candidate setup."""
    s = 2**-0.5
    emb = tmp_path / "emb.jsonl"
    with open(emb, "w") as f:
        for rid, vec in [
            ("query", [1.0, 0.0]),
            ("cand1", [1.0, 0.0]),
            ("cand2", [0.0, 1.0]),
            ("cand3", [s, s]),
        ]:
            f.write(json.dumps({"id": rid, "modality": "visual", "dim": 2, "values": vec}) + "\n")
            f.write(json.dumps({"id": rid, "modality": "text", "dim": 2, "values": [1.0, 0.0]}) + "\n")
    queries = tmp_path / "q.jsonl"
    queries.write_text(json.dumps({"id": "query"}) + "\n")
    meta = tmp_path / "meta.jsonl"
    with open(meta, "w") as f:
        for rid, q in [("cand1", 1.0), ("cand2", 0.9), ("cand3", 1.2)]:
            f.write(
                json.dumps(
                    {
                        "scene_id": rid,
                        "instances": [],
                        "scene_attributes": {},
                        "scores": {"rel": math.log(q) / 8.0},
                    }
                )
                + "\n"
            )
    return emb, queries, meta


class TestRetrieveFusion:
    def test_worked_example_selection(self, fusion_fixture):
        emb, queries, meta = fusion_fixture
        code, out, _ = run_cli(
            [
                "retrieve", "--mode", "fusion",
                "--embeddings", str(emb), "--queries", str(queries),
                "--metadata", str(meta), "--s-field", "rel", "--k", "2",
            ]
        )
        assert code == 0
        episodes = [json.loads(line) for line in out.splitlines()]
        assert len(episodes) == 1
        assert [s["id"] for s in episodes[0]["shots"]] == ["cand3", "cand1"]

    def test_fused_scores_without_metadata(self, fusion_fixture):
        emb, queries, _ = fusion_fixture
        code, out, _ = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(emb), "--queries", str(queries), "--k", "1"]
        )
        assert code == 0
        ep = json.loads(out.splitlines()[0])
        assert len(ep["shots"]) == 1

    def test_missing_required_flags_is_usage_error(self):
        code, _, err = run_cli(["retrieve", "--mode", "fusion"])
        assert code == 2
        assert "requires" in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--mode", "fusion", "--embeddings", "{emb}", "--queries", "{queries}",
              "--s-field", "rel"], 2, "forge: usage error: --s-field requires --metadata\n"),
            (["--mode", "fusion", "--embeddings", "{emb}", "--queries", "{queries}",
              "--s-field", "other", "--metadata", "{meta}"],
             3, "forge: candidate 'cand1': no metadata score 'other'\n"),
            (["--mode", "fusion", "--embeddings", "{emb}", "--queries", "{dup}"],
             3, "forge: {dup}: line 2: duplicate query id 'query'\n"),
            (["--mode", "intent", "--rule", "true"],
             2, "forge: usage error: retrieve --mode intent requires --metadata\n"),
        ],
        ids=["s-field-without-metadata", "candidate-without-score", "duplicate-query-id",
             "intent-without-metadata"],
    )
    def test_missing_input_exits_naming_it(self, fusion_fixture, tmp_path, argv, code, message):
        emb, queries, meta = fusion_fixture
        dup = tmp_path / "dup.jsonl"
        dup.write_text(queries.read_text() * 2)
        paths = {"{emb}": emb, "{queries}": queries, "{meta}": meta, "{dup}": dup}
        got = run_cli(["retrieve", *(str(paths.get(a, a)) for a in argv)])
        assert got == (code, "", message.replace("{dup}", str(dup)))

    def test_seed_is_not_an_option(self, fusion_fixture):
        emb, queries, _ = fusion_fixture
        code, out, err = run_cli(["retrieve", "--mode", "fusion", "--embeddings", str(emb),
                                  "--queries", str(queries), "--seed", "1"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed 1" in err

    def test_k_larger_than_pool_is_clamped(self, fusion_fixture):
        emb, queries, _ = fusion_fixture
        code, out, err = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(emb), "--queries", str(queries), "--k", "99"]
        )
        assert code == 0
        assert "clamping" in err
        assert "k=3: returned 2 shot(s); stopped at the residual floor" in err
        ep = json.loads(out.splitlines()[0])
        # 2-d embeddings: selection stops at numerical rank two
        assert len(ep["shots"]) == 2

    def test_empty_pool_is_reported(self, fusion_fixture, tmp_path):
        emb, queries, _ = fusion_fixture
        argv = ["retrieve", "--mode", "fusion", "--embeddings", str(emb), "--queries", str(queries)]
        code, out, err = run_cli([*argv, "--top-n", "0"])
        assert code == 0
        assert json.loads(out)["shots"] == []
        assert err.splitlines() == [
            "retrieve: query: clamping k=4 to pool size 0",
            "retrieve: wrote 1 episode(s)",
        ]
        # the query is the only id with both modalities
        lonely = tmp_path / "lonely.jsonl"
        lonely.write_text(
            "".join(
                json.dumps({"id": rid, "modality": m, "dim": 2, "values": [1.0, 0.0]}) + "\n"
                for rid, m in [("query", "visual"), ("query", "text"), ("cand1", "visual")]
            )
        )
        code, out, err = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(lonely), "--queries", str(queries), "--k", "2"]
        )
        assert code == 0
        assert json.loads(out)["shots"] == []
        assert "retrieve: query: clamping k=2 to pool size 0\n" in err

    def test_each_query_pool_is_freed_before_the_next_is_built(self, tmp_path):
        from ctxforge import fusion

        rng = np.random.default_rng(3)
        emb = tmp_path / "emb.jsonl"
        emb.write_text("".join(
            json.dumps({"id": f"it{i}", "modality": m, "dim": 4, "values": rng.normal(size=4).tolist()})
            + "\n"
            for i in range(8) for m in ("visual", "text")
        ))
        queries = tmp_path / "q.jsonl"
        queries.write_text("".join(json.dumps({"id": f"it{i}"}) + "\n" for i in range(4)))
        refs: list[weakref.ref] = []  # every earlier query's pool and factor
        alive_at_build: list[int] = []
        make_pool, build_factor = fusion.CandidatePool, fusion.build_dpp_factor

        def counting_pool(*args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            return make_pool(*args, **kwargs)

        def collecting_factor(pool):
            factor = build_factor(pool)
            refs.extend([weakref.ref(pool), weakref.ref(factor)])
            return factor

        fusion.CandidatePool, fusion.build_dpp_factor = counting_pool, collecting_factor
        try:
            code, out, _ = run_cli(["retrieve", "--mode", "fusion", "--embeddings", str(emb),
                                    "--queries", str(queries), "--k", "2"])
        finally:
            fusion.CandidatePool, fusion.build_dpp_factor = make_pool, build_factor
        assert code == 0
        assert len(out.splitlines()) == 4
        assert alive_at_build == [0, 0, 0, 0]

    @staticmethod
    def _run_with_scores(emb, queries, meta, score):
        with open(meta, "w") as f:
            for rid in ("cand1", "cand2", "cand3"):
                f.write(
                    json.dumps(
                        {"scene_id": rid, "instances": [], "scene_attributes": {}, "scores": {"rel": score}}
                    )
                    + "\n"
                )
        return run_cli(
            [
                "retrieve", "--mode", "fusion",
                "--embeddings", str(emb), "--queries", str(queries),
                "--metadata", str(meta), "--s-field", "rel", "--k", "2",
            ]
        )

    def test_quality_overflow_exits_4(self, fusion_fixture, tmp_path):
        emb, queries, _ = fusion_fixture
        # s=50 overflows the squared quality exp(2*beta*s) the kernel uses,
        # though exp(beta*s) itself is finite
        for score in (1000.0, 50.0):
            code, _, err = self._run_with_scores(emb, queries, tmp_path / "hot.jsonl", score)
            assert code == 4
            assert "rescale" in err

    def test_quality_underflow_is_reported(self, fusion_fixture, tmp_path):
        emb, queries, _ = fusion_fixture
        code, out, err = self._run_with_scores(emb, queries, tmp_path / "cold.jsonl", -50.0)
        assert code == 0
        assert json.loads(out)["shots"] == []
        # exp(2*beta*s) underflows to 0 for every candidate
        assert "retrieve: query: k=2: returned 0 shot(s); stopped at the residual floor" in err
        assert "every squared quality" in err

    @pytest.mark.parametrize("values", [[1e154, 1e154], [1e154, "1e154"]], ids=["plain", "string"])
    def test_norm_overflow_exits_3(self, fusion_fixture, values):
        emb, queries, _ = fusion_fixture
        with open(emb, "a") as f:
            f.write(json.dumps({"id": "big", "modality": "visual", "dim": 2, "values": values}) + "\n")
        code, out, err = run_cli(["retrieve", "--mode", "fusion", "--embeddings", str(emb),
                                  "--queries", str(queries), "--k", "2"])
        assert (code, out) == (3, "")
        assert err == f"forge: {emb}: line 9: embedding 'big': squared norm overflows; cannot be normalized\n"

    def test_binary_container_is_rejected(self, tmp_path):
        store = tmp_path / "store.bin"
        save_embeddings_binary(
            [EmbeddingRecord(id=rid, modality="visual", dim=2, values=(1.0, 0.5)) for rid in ("a", "b")],
            store,
        )
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "a"}) + "\n")
        code, out, err = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(store), "--queries", str(queries)]
        )
        assert code == 3
        assert out == ""
        assert "holds one modality" in err and "JSONL" in err
        code, out, _ = run_cli(["validate", "--embeddings", str(store)])
        assert code == 0
        assert json.loads(out)["records"] == 2

    def test_duplicate_items_resolve_to_smallest_id(self, tmp_path):
        # every item is stored twice, as itNNNa and itNNNb with identical
        # vectors, so each twin pair ties exactly in score and residual
        rng = np.random.default_rng(3)
        emb = tmp_path / "twins.jsonl"
        n_items, n_queries = 20, 40
        with open(emb, "w") as f:
            for i in range(n_items + n_queries):
                vectors = {"visual": rng.standard_normal(16), "text": rng.standard_normal(8)}
                names = [f"q{i - n_items:02d}"] if i >= n_items else [f"it{i:03d}a", f"it{i:03d}b"]
                for name in names:
                    for modality, vec in vectors.items():
                        record = {"id": name, "modality": modality, "dim": len(vec), "values": vec.tolist()}
                        f.write(json.dumps(record) + "\n")
        queries = tmp_path / "q.jsonl"
        queries.write_text("".join(json.dumps({"id": f"q{q:02d}"}) + "\n" for q in range(n_queries)))
        code, out, _ = run_cli(
            [
                "retrieve", "--mode", "fusion",
                "--embeddings", str(emb), "--queries", str(queries),
                "--k", "4", "--top-n", "8",
            ]
        )
        assert code == 0
        episodes = [json.loads(line) for line in out.splitlines()]
        assert len(episodes) == n_queries
        for ep in episodes:
            shots = [s["id"] for s in ep["shots"]]
            for at, sid in enumerate(shots):
                if sid.endswith("b"):
                    assert sid[:-1] + "a" in shots[:at], f"{ep['episode_id']}: {sid} before its twin: {shots}"

    def test_determinism_large_corpus(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = tmp_path / "big.jsonl"
        with open(emb, "w") as f:
            for i in range(1000):
                vis = rng.standard_normal(8)
                txt = rng.standard_normal(4)
                for modality, vec in (("visual", vis), ("text", txt)):
                    f.write(
                        json.dumps(
                            {
                                "id": f"item{i:04d}",
                                "modality": modality,
                                "dim": len(vec),
                                "values": [float(x) for x in vec],
                            }
                        )
                        + "\n"
                    )
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "item0000"}) + "\n")
        args = [
            "retrieve", "--mode", "fusion",
            "--embeddings", str(emb), "--queries", str(queries),
            "--k", "8", "--top-n", "200",
        ]
        first = run_proc(args)
        second = run_proc(args)
        assert first.returncode == 0
        assert first.stdout == second.stdout  # byte-identical
        assert len(json.loads(first.stdout)["shots"]) == 8


class TestRetrieveLabels:
    def test_unknown_subtask_is_logged_once(self, fusion_fixture, tmp_path):
        emb, _, _ = fusion_fixture
        queries = tmp_path / "three.jsonl"
        queries.write_text("".join(json.dumps({"id": q}) + "\n" for q in ("cand1", "cand2", "cand3")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["retrieve", "--mode", "fusion", "--embeddings", str(emb),
                                      "--queries", str(queries), "--subtask", "Custom"])
        assert code == 0
        assert [json.loads(line)["subtask"] for line in out.splitlines()] == ["Custom"] * 3
        assert [line for line in err.splitlines() if "Custom" in line] == [
            "retrieve: warning: unknown subtask 'Custom'"
        ]
        assert caught == []

    @pytest.mark.parametrize("mode", ["fusion", "intent"])
    @pytest.mark.parametrize(
        "labels, message",
        [(["--taxonomy", "Analogy", "--subtask", "Visual Grounding"],
          "subtask: 'Visual Grounding' belongs to taxonomy 'Perception', got 'Analogy'"),
         (["--taxonomy", "Sorcery"],
          f"taxonomy: 'Sorcery' is not one of {sorted(TAXONOMY_ORDER)}")],
        ids=["wrong-level", "unknown-taxonomy"],
    )
    def test_bad_labels_exit_3_before_any_file_is_read(self, tmp_path, mode, labels, message):
        missing = str(tmp_path / "missing.jsonl")  # reading it would exit 3 naming it
        data = (["--embeddings", missing, "--queries", missing] if mode == "fusion"
                else ["--metadata", missing, "--rule-file", missing])
        code, out, err = run_cli(["retrieve", "--mode", mode, *data, *labels])
        assert (code, out, err) == (3, "", f"forge: {message}\n")


class TestRetrieveIntent:
    @pytest.fixture
    def scenes(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        rows = [
            {
                "scene_id": "s1",
                "instances": [
                    {"category": "mug", "attributes": {"color": "red"}, "bbox": [0.1, 0.1, 0.3, 0.3]}
                ],
                "scene_attributes": {"room": "kitchen"},
                "scores": {},
            },
            {
                "scene_id": "s2",
                "instances": [
                    {"category": "mug", "attributes": {"color": "blue"}, "bbox": [0.5, 0.5, 0.7, 0.7]}
                ],
                "scene_attributes": {},
                "scores": {},
            },
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_rule_selects_matching_scenes(self, scenes):
        code, out, _ = run_cli(
            ["retrieve", "--mode", "intent", "--metadata", str(scenes), "--rule",
             'exists(category == "mug" and color == "red")']
        )
        assert code == 0
        ep = json.loads(out)
        assert [s["id"] for s in ep["shots"]] == ["s1"]
        assert ep["taxonomy"] == "Conception"
        # the emitted query carries the round-trippable rule text
        assert ep["query"]["instruction"] == 'exists(category == "mug" and color == "red")'

    def test_rule_file(self, scenes, tmp_path):
        rule_file = tmp_path / "rule.txt"
        rule_file.write_text('exists(category == "mug")\n')
        code, out, _ = run_cli(
            ["retrieve", "--mode", "intent", "--metadata", str(scenes), "--rule-file", str(rule_file)]
        )
        assert code == 0
        assert [s["id"] for s in json.loads(out)["shots"]] == ["s1", "s2"]

    def test_missing_rule_is_usage_error(self, scenes):
        code, _, err = run_cli(["retrieve", "--mode", "intent", "--metadata", str(scenes)])
        assert code == 2

    def test_bad_rule_syntax_exits_3(self, scenes):
        code, _, err = run_cli(
            ["retrieve", "--mode", "intent", "--metadata", str(scenes), "--rule", "category =="]
        )
        assert code == 3
        assert "byte" in err

    @pytest.mark.parametrize("construct", ["paren", "not", "exists"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["at-bound", "past-bound"])
    def test_nesting_bound(self, scenes, construct, extra):
        depth = MAX_RULE_DEPTH + extra
        if construct == "paren":
            rule = "(" * depth + 'room == "kitchen"' + ")" * depth
            past = depth - 1  # the opening parenthesis past the bound
        elif construct == "not":
            rule = "not " * depth + 'room != "kitchen"'
            past = 4 * (depth - 1)
        else:  # the innermost level is the exists
            rule = "(" * (depth - 1) + 'exists(category == "mug")' + ")" * (depth - 1)
            past = depth - 1
        code, out, err = run_cli(
            ["retrieve", "--mode", "intent", "--metadata", str(scenes), "--rule", rule]
        )
        if not extra:
            assert code == 0
            assert json.loads(out)["shots"]
        else:
            assert (code, out) == (3, "")
            assert err == f"forge: byte {past}: rule nested deeper than {MAX_RULE_DEPTH} levels\n"

    @pytest.mark.parametrize(
        "flags, config, key",
        [
            (["--taxonomy", ""], {}, "taxonomy"),
            ([], {"taxonomy": ""}, "taxonomy"),
            (["--subtask", ""], {}, "subtask"),
            ([], {"subtask": ""}, "subtask"),
            (["--episode-id", ""], {}, "episode_id"),
        ],
        ids=["flag-taxonomy", "config-taxonomy", "flag-subtask", "config-subtask",
             "flag-episode-id"],
    )
    def test_empty_label_exits_2(self, scenes, tmp_path, flags, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(
            ["retrieve", "--mode", "intent", "--metadata", str(scenes), "--rule", "true",
             "--config", str(cfg), *flags]
        )
        assert (code, out) == (2, "")
        assert err == f"forge: usage error: {key} must be a non-empty string, got ''\n"

    @pytest.mark.parametrize(
        "flags, config, key",
        [
            # Python decodes argv bytes that are not UTF-8 to lone surrogates
            (["--taxonomy", "\udcff"], {}, "taxonomy"),
            ([], {"taxonomy": "\ud800"}, "taxonomy"),
            (["--subtask", "x\udcff"], {}, "subtask"),
            ([], {"subtask": "x\ud800"}, "subtask"),
            (["--episode-id", "\udcff"], {}, "episode_id"),
            (["--rule", 'room == "\udcff"'], {}, "rule"),
        ],
        ids=["flag-taxonomy", "config-taxonomy", "flag-subtask", "config-subtask",
             "flag-episode-id", "flag-rule"],
    )
    def test_text_that_is_not_utf8_exits_2(self, scenes, tmp_path, flags, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["retrieve", "--mode", "intent", "--metadata", str(scenes), "--config", str(cfg)]
        code, out, err = run_cli([*argv, *(["--rule", "true"] if key != "rule" else []), *flags])
        assert (code, out) == (2, "")
        assert err.startswith(f"forge: usage error: {key} must be UTF-8 text, got ")

    def test_out_path_need_not_be_utf8(self, scenes, tmp_path):
        out_file = str(tmp_path / "\udcff.out")
        code, out, _ = run_cli(["retrieve", "--mode", "intent", "--metadata", str(scenes),
                                "--rule", "true", "--out", out_file])
        assert (code, out) == (0, "")
        with open(out_file, encoding="utf-8") as fh:
            assert len(json.loads(fh.read())["shots"]) == 2


class TestFilter:
    def test_bounds_and_counts(self, tmp_path):
        path = tmp_path / "m.jsonl"
        rows = [
            {"scene_id": "a", "instances": [], "scene_attributes": {}, "scores": {"q": 0.2}},
            {"scene_id": "b", "instances": [], "scene_attributes": {}, "scores": {"q": 0.5}},
            {"scene_id": "c", "instances": [], "scene_attributes": {}, "scores": {"q": 0.9}},
            {"scene_id": "d", "instances": [], "scene_attributes": {}, "scores": {}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, out, err = run_cli(
            ["filter", "--metadata", str(path), "--score-field", "q", "--min", "0.5", "--max", "0.9"]
        )
        assert code == 0
        kept = [json.loads(line)["scene_id"] for line in out.splitlines()]
        assert kept == ["b", "c"]  # closed interval keeps both endpoints
        assert "kept=2" in err and "missing_field=1" in err

    def test_lone_surrogate_in_data_exits_3_writing_nothing(self, tmp_path):
        # json reads an escaped lone surrogate, which no UTF-8 stream can carry
        path = tmp_path / "m.jsonl"
        path.write_text('{"scene_id": "a", "scores": {"q": 1.0}}\n'
                        '{"scene_id": "s\\ud800", "scores": {"q": 1.0}}\n')
        message = (f"forge: {path}: line 2: parse error: a string holds an escaped lone surrogate, "
                   "which is not UTF-8 text\n")
        out_file = tmp_path / "out.jsonl"
        argv = ["filter", "--metadata", str(path), "--score-field", "q"]
        assert run_cli([*argv, "--out", str(out_file)]) == (3, "", message)
        assert not out_file.exists()
        assert run_cli(["validate", "--metadata", str(path)]) == (3, "", message)
        proc = run_proc(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)
        # a valid escaped pair still loads
        path.write_text('{"scene_id": "s\\ud83d\\ude00", "scores": {"q": 1.0}}\n')
        code, out, _ = run_cli(argv)
        assert code == 0 and json.loads(out)["scene_id"] == "s\U0001f600"

    def test_emit_lines_writes_nothing_that_is_not_utf8(self, tmp_path, capsys):
        from ctxforge.records import _write_jsonl

        out_file = tmp_path / "out.jsonl"
        for out in (str(out_file), None):
            with pytest.raises(ValidationError,
                               match="^data line 2 cannot be written as UTF-8: surrogates not allowed$"):
                _write_jsonl(["{}", '{"a": "s\ud800"}'], out)
        assert not out_file.exists()
        assert capsys.readouterr().out == ""


def curve_row(task, shots, values, perturbation=None):
    """A result row of model ``m`` on ``task`` in the Perception taxonomy."""
    row = {"model": "m", "task": task, "taxonomy": "Perception", "modality": "und",
           "shots": shots, "values": values}
    return row if perturbation is None else dict(row, perturbation=perturbation)


# ---------------------------------------------------------------------------
# the eval reports, one curve at a time with the reference formulas of
# tests/one_curve.py: the reports' batched arithmetic must match them bit for
# bit, first error included


def _key(row):
    return (row.model, row.task, row.modality)


def _scalar_clean(report, rows):
    clean = {}
    for row in rows:
        if row.perturbation is None:
            if _key(row) in clean:
                raise ValidationError(f"{report}: duplicate clean curve for {_key(row)}")
            clean[_key(row)] = row
    return clean


def _scalar_curve(report, row, f, *args):
    try:
        return f(*args)
    except ValidationError as exc:
        raise ValidationError(f"{report}: {_key(row)}: {exc}") from None


def scalar_report(report, *paths):
    """The JSON rows of ``eval report`` on ``paths``, from the one-curve
    reference formulas; the report's first error is raised."""
    if report == "curves":
        clean = _scalar_clean("curves", metrics.load_results(paths[0]))
        rows = sorted(clean.values(), key=lambda r: (
            TAXONOMY_ORDER.index(r.taxonomy), r.task, r.model, r.modality))
        out = []
        for r in rows:
            s = _scalar_curve("curves", r, one_curve.summarize, r.curve)
            out.append({"model": r.model, "task": r.task, "taxonomy": r.taxonomy,
                        "modality": r.modality, "zero_shot": s.zero_shot, "peak": s.peak,
                        "efficiency": s.efficiency})
        return out
    if report == "stability":
        rows = list(metrics.load_results(paths[0]))
        clean = _scalar_clean("stability", rows)
        out = []
        for r in rows:
            if r.perturbation is None:
                continue
            if _key(r) not in clean:
                raise ValidationError(f"stability: no clean curve for {_key(r)}")
            base = clean[_key(r)].curve

            def deviation():
                twin = base
                if twin.shots != r.curve.shots:
                    values = tuple(twin.value_at(s) for s in r.curve.shots)
                    twin = type(twin)(shots=r.curve.shots, values=values)
                return one_curve.stability_score(twin, r.curve)

            out.append({"model": r.model, "task": r.task, "modality": r.modality,
                        "perturbation": r.perturbation,
                        "deviation_percent": _scalar_curve("stability", r, deviation)})
        return out
    if report == "transfer":
        base, variant = (_scalar_clean(f"transfer: {p}", metrics.load_results(p)) for p in paths)
        unmatched = sorted(base.keys() ^ variant.keys())
        if unmatched:
            raise ValidationError(f"transfer: unmatched curves for {unmatched}")
        if not base:
            raise ValidationError(
                f"transfer: no result rows with a clean curve in {paths[0]} or {paths[1]}")
        changes = {}
        for key in sorted(base, key=lambda k: (TAXONOMY_ORDER.index(base[k].taxonomy), k)):
            b, v = base[key], variant[key]

            def percent_changes():
                if v.taxonomy != b.taxonomy:
                    raise ValidationError(
                        f"base taxonomy {b.taxonomy!r}, variant taxonomy {v.taxonomy!r}")
                return one_curve.percent_changes(b.curve, v.curve)

            changes.setdefault(b.taxonomy, []).extend(
                _scalar_curve("transfer", b, percent_changes))
        with np.errstate(invalid="ignore"):
            out = [{"taxonomy": t, "relative_change_percent": float(np.mean(c))}
                   for t, c in changes.items()]
            average = float(np.mean([r["relative_change_percent"] for r in out]))
        return out + [{"taxonomy": "Average", "relative_change_percent": average}]
    groups = {}
    with open(paths[0], encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            xs, ys = groups.setdefault(obj["task"], ([], []))
            xs.append(obj["primary"])
            ys.append(obj["auxiliary"])
    out = []
    for task, (xs, ys) in sorted(groups.items()):
        try:
            out.append({"task": task, "n": len(xs), "pearson": metrics.pearson(xs, ys),
                        "spearman": one_curve.spearman(xs, ys)})
        except ValidationError as exc:
            raise ValidationError(f"align: task {task!r}: {exc}") from None
    return out


def assert_report_matches(report, *paths):
    """``forge eval report`` on ``paths`` writes ``scalar_report``'s rows, or
    exits with its error or the numeric guard's, and warns as it does."""
    flags = ["--base", paths[0], "--variant", paths[1]] if report == "transfer" else [
        "--results", paths[0]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["eval", report, *flags])
        warned = [str(w.message) for w in caught]
        del caught[:]
        try:
            want = "".join(_jsonl(row, f"eval {report}") + "\n"
                           for row in scalar_report(report, *paths))
        except ValidationError as exc:
            assert (code, out, err) == (3, "", f"forge: {exc}\n")
        except NumericGuardError as exc:
            assert (code, out, err) == (4, "", f"forge: numeric guard: {exc}\n")
        else:
            assert (code, out) == (0, want), err
        assert warned == [str(w.message) for w in caught]


# values a report reads: tied, signed zeros, extremes that overflow an area
REPORT_VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 2.0, 5e-324, 1e308, -1e308])
REPORT_POSITIVE = st.floats(0.0, 1e308, exclude_min=True) | REPORT_VALUES
REPORT_GRIDS = st.sampled_from([(0, 1, 2, 4, 8), (0, 2, 4), (0, 1), (1, 2), (0,), (0, 3)]) | st.lists(
    st.integers(0, 9), min_size=1, max_size=5, unique=True).map(lambda s: tuple(sorted(s)))


def _values(draw, grid, strategy):
    return draw(st.lists(strategy, min_size=len(grid), max_size=len(grid)))


@st.composite
def result_files(draw):
    """Result rows with clean curves and their perturbed twins, some twins
    on the clean grid without shot 0; and a transfer variant of the clean
    rows.  A few grids do not align and a few keys have no clean curve."""
    rows, variant = [], []
    keys = draw(st.lists(st.tuples(st.sampled_from(["m1", "m2"]), st.sampled_from(["t1", "t2", "t3"]),
                                   st.sampled_from(["und", "gen"])), min_size=1, max_size=6, unique=True))
    for model, task, modality in keys:
        common = {"model": model, "task": task, "modality": modality,
                  "taxonomy": draw(st.sampled_from(["Perception", "Analogy"]))}
        grid = draw(REPORT_GRIDS)
        clean = dict(common, shots=list(grid), values=_values(draw, grid, REPORT_POSITIVE))
        rows.append(clean)
        for _ in range(draw(st.integers(0, 3))):
            twin_grid = draw(st.sampled_from([grid, grid[1:] or grid]) | REPORT_GRIDS)
            rows.append(dict(common, shots=list(twin_grid), values=_values(draw, twin_grid, REPORT_VALUES),
                             perturbation=draw(st.sampled_from(metrics.PERTURBATION_KINDS))))
        other = draw(st.sampled_from([grid]) | REPORT_GRIDS)
        variant.append(dict(clean, shots=list(other), values=_values(draw, other, REPORT_VALUES)))
        if draw(st.integers(0, 9)) == 0:
            variant[-1]["taxonomy"] = "Deduction"
    if draw(st.integers(0, 9)) == 0:
        rows.append(dict(rows[0], model="m3", perturbation="interference"))
    return draw(st.permutations(rows)), draw(st.permutations(variant))


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)
    return path


@settings(max_examples=150, deadline=None)
@given(result_files())
def test_curve_reports_match_one_curve_reference(files):
    rows, variant = files
    with tempfile.TemporaryDirectory() as tmp:
        results = _write_rows(os.path.join(tmp, "r.jsonl"), rows)
        base = _write_rows(os.path.join(tmp, "b.jsonl"), [r for r in rows if "perturbation" not in r])
        for report in ("curves", "stability"):
            assert_report_matches(report, results)
        assert_report_matches("transfer", base, _write_rows(os.path.join(tmp, "v.jsonl"), variant))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([0.0, -0.0, 1.0, 2.5, -7.0]),
                          st.sampled_from([0.0, 1.0, 1.0, 3.0, -2.0])), min_size=1, max_size=24))
def test_align_matches_one_curve_reference(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_rows(os.path.join(tmp, "a.jsonl"),
                           [{"task": t, "primary": x, "auxiliary": y} for t, x, y in pairs])
        assert_report_matches("align", path)


class TestEval:
    @pytest.fixture
    def results(self, tmp_path):
        path = tmp_path / "r.jsonl"
        rows = [
            {"model": "m1", "task": "t1", "taxonomy": "Perception", "modality": "und",
             "shots": [0, 1, 2, 4, 8], "values": [10.0, 20.0, 20.0, 20.0, 20.0]},
            {"model": "m1", "task": "t1", "taxonomy": "Perception", "modality": "und",
             "perturbation": "interference", "shots": [1, 2, 4, 8],
             "values": [18.0, 18.0, 18.0, 18.0]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    @pytest.mark.parametrize("report", ["curves", "stability", "align", "human"])
    def test_missing_results_is_usage_error(self, report):
        code, _, err = run_cli(["eval", report])
        assert code == 2
        assert f"eval {report} requires --results" in err

    def test_curves_efficiency_gold_value(self, results):
        code, out, err = run_cli(["eval", "curves", "--results", str(results)])
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["efficiency"] == 9.375
        assert "9.375" in err  # stderr table shows it too

    def test_stability_gold_value(self, results):
        code, out, _ = run_cli(["eval", "stability", "--results", str(results)])
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["deviation_percent"] == pytest.approx(10.0, abs=1e-12)

    def test_align(self, tmp_path):
        path = tmp_path / "a.jsonl"
        pairs = [(1, 1), (2, 3), (3, 2), (4, 4)]
        path.write_text(
            "".join(json.dumps({"task": "t", "primary": x, "auxiliary": y}) + "\n" for x, y in pairs)
        )
        code, out, _ = run_cli(["eval", "align", "--results", str(path)])
        assert code == 0
        row = json.loads(out)
        assert row["spearman"] == pytest.approx(0.8, abs=1e-12)
        assert row["n"] == 4

    def test_transfer_average(self, tmp_path):
        base, var = tmp_path / "b.jsonl", tmp_path / "v.jsonl"
        base_rows = [
            {"model": "m", "task": "t1", "taxonomy": "Perception", "modality": "und",
             "shots": [0, 4], "values": [10.0, 10.0]},
            {"model": "m", "task": "t2", "taxonomy": "Analogy", "modality": "gen",
             "shots": [0, 4], "values": [10.0, 10.0]},
        ]
        var_rows = [dict(r) for r in base_rows]
        var_rows[0]["values"] = [12.0, 12.0]
        var_rows[1]["values"] = [9.0, 9.0]
        base.write_text("".join(json.dumps(r) + "\n" for r in base_rows))
        var.write_text("".join(json.dumps(r) + "\n" for r in var_rows))
        code, out, _ = run_cli(["eval", "transfer", "--base", str(base), "--variant", str(var)])
        assert code == 0
        rows = {json.loads(l)["taxonomy"]: json.loads(l)["relative_change_percent"] for l in out.splitlines()}
        assert rows["Perception"] == pytest.approx(20.0)
        assert rows["Analogy"] == pytest.approx(-10.0)
        assert rows["Average"] == pytest.approx(5.0)

    def test_human(self, tmp_path):
        path = tmp_path / "h.jsonl"
        rows = [{"metric": "quality", "outcome": o} for o in ("win", "win", "tie", "lose")]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, out, _ = run_cli(["eval", "human", "--results", str(path)])
        assert code == 0
        overall = [json.loads(l) for l in out.splitlines() if json.loads(l)["metric"] == "Overall"]
        assert overall[0]["win"] == 50.0

    def test_human_overall_metric_exits_3(self, tmp_path):
        # "Overall" names the pooled row; a study metric of that name would
        # give two rows no reader could tell apart
        path = tmp_path / "h.jsonl"
        rows = [{"metric": "x", "outcome": "lose"}, {"metric": "Overall", "outcome": "win"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, out, err = run_cli(["eval", "human", "--results", str(path)])
        assert (code, out) == (3, "")
        assert f"{path}: line 2: metric 'Overall' is reserved for the pooled row" in err

    def test_human_bad_outcome_names_file_and_line(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"outcome": "win", "metric": "a"}\n{"outcome": "tie", "metric": "b"}\n'
                        '{"outcome": 18446744073709551616, "metric": "b"}\n')
        code, out, err = run_cli(["eval", "human", "--results", str(path)])
        assert (code, out) == (3, "")
        assert err == (f"forge: {path}: line 3: "
                       "outcomes[2] = 18446744073709551616 not win/tie/lose\n")

    def test_non_finite_value_exits_4_naming_report_and_field(self, tmp_path):
        path = tmp_path / "r.jsonl"
        row = {"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",
               "shots": [0, 1, 2], "values": [1e308, -1e308, 1e308]}
        path.write_text(json.dumps(row) + "\n")
        code, out, err = run_cli(["eval", "curves", "--results", str(path)])
        assert code == 4
        assert out == ""
        assert "eval curves: efficiency is not finite" in err

    def test_transfer_without_rows_exits_3(self, tmp_path):
        base, var = tmp_path / "b.jsonl", tmp_path / "v.jsonl"
        base.write_text("")
        var.write_text("")
        code, out, err = run_cli(["eval", "transfer", "--base", str(base), "--variant", str(var)])
        assert code == 3
        assert out == ""
        assert "no result rows" in err

    def test_missing_clean_curve_exits_3(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(
                {"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",
                 "perturbation": "interference", "shots": [1], "values": [1.0]}
            )
            + "\n"
        )
        code, _, err = run_cli(["eval", "stability", "--results", str(path)])
        assert code == 3
        assert "clean" in err

    @pytest.mark.parametrize(
        "report, files, message",
        [
            ("curves", {"results": [curve_row("t", [1, 2], [1.0, 2.0])]},
             "curves: ('m', 't', 'und'): icl_efficiency: missing shot 0 (grid (1, 2))"),
            ("stability", {"results": [curve_row("t", [0, 1], [0.0, 1.0]),
                                       curve_row("t", [0, 1], [1.0, 1.0], "interference")]},
             "stability: ('m', 't', 'und'): stability_score: clean values[0] = 0.0 not positive"),
            ("stability", {"results": [curve_row("t", [0, 1], [1.0, 1.0]),
                                       curve_row("t", [3], [1.0], "interference")]},
             "stability: ('m', 't', 'und'): curve: shot 3 not on grid (0, 1)"),
            # the second curve of a taxonomy, which relative_change knows as curve 1
            ("transfer", {"base": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                   curve_row("t2", [0, 1], [1.0, 0.0])],
                          "variant": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                      curve_row("t2", [0, 1], [1.0, 1.0])]},
             "transfer: ('m', 't2', 'und'): zero base value at point 1"),
            ("transfer", {"base": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                   curve_row("t2", [0, 1], [1.0, 1.0])],
                          "variant": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                      curve_row("t2", [0, 2], [1.0, 1.0])]},
             "transfer: ('m', 't2', 'und'): grid mismatch (0, 1) vs (0, 2)"),
            ("stability", {"results": [curve_row("t", [0, 1], [1.0, 1.0]),
                                       curve_row("t", [0, 1], [2.0, 2.0])]},
             "stability: duplicate clean curve for ('m', 't', 'und')"),
            ("transfer", {"base": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                   curve_row("t2", [0, 1], [1.0, 1.0])],
                          "variant": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                      curve_row("t3", [0, 1], [1.0, 1.0])]},
             "transfer: unmatched curves for [('m', 't2', 'und'), ('m', 't3', 'und')]"),
            ("transfer", {"base": [curve_row("t", [0, 1], [1.0, 1.0])],
                          "variant": [dict(curve_row("t", [0, 1], [1.0, 1.0]), taxonomy="Analogy")]},
             "transfer: ('m', 't', 'und'): base taxonomy 'Perception', variant taxonomy 'Analogy'"),
            ("curves", {"results": [curve_row("t", [0, 1], [1.0, 1.0]),
                                    curve_row("t", [0, 1], [1.0, 1.0], "interference"),
                                    curve_row("t", [0, 1], [2.0, 2.0])]},
             "curves: duplicate clean curve for ('m', 't', 'und')"),
            ("transfer", {"base": [curve_row("t", [0, 1], [1.0, 1.0]),
                                   curve_row("t", [0, 1], [2.0, 2.0])],
                          "variant": [curve_row("t", [0, 1], [1.0, 1.0])]},
             "transfer: {dir}/base.jsonl: duplicate clean curve for ('m', 't', 'und')"),
            ("transfer", {"base": [curve_row("t", [0, 1], [1.0, 1.0])],
                          "variant": [curve_row("t", [0, 1], [1.0, 1.0]),
                                      curve_row("t", [0, 1], [2.0, 2.0])]},
             "transfer: {dir}/variant.jsonl: duplicate clean curve for ('m', 't', 'und')"),
            # a one-point twin spans no area
            ("stability", {"results": [curve_row("t", [0, 1], [1.0, 1.0]),
                                       curve_row("t", [1], [1.0], "interference")]},
             "stability: ('m', 't', 'und'): stability_score: non-positive clean area"),
            ("stability", {"results": [curve_row("t", [0, 1], [1.0, 1.0]),
                                       curve_row("u", [0, 1], [1.0, 1.0], "interference")]},
             "stability: no clean curve for ('m', 'u', 'und')"),
            # t2's twin is on another grid than t1's and t3's, and its error
            # comes first in report order
            ("stability", {"results": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                       curve_row("t2", [0, 1], [1.0, 1.0]),
                                       curve_row("t3", [0, 1], [0.0, 1.0]),
                                       curve_row("t1", [0, 1], [1.0, 1.0], "interference"),
                                       curve_row("t2", [1], [1.0], "interference"),
                                       curve_row("t3", [0, 1], [1.0, 1.0], "interference")]},
             "stability: ('m', 't2', 'und'): stability_score: non-positive clean area"),
            # a zero base value in an earlier pair wins over a later grid mismatch
            ("transfer", {"base": [curve_row("t1", [0, 1], [0.0, 1.0]),
                                   curve_row("t2", [0, 1], [1.0, 1.0])],
                          "variant": [curve_row("t1", [0, 1], [1.0, 1.0]),
                                      curve_row("t2", [0, 2], [1.0, 1.0])]},
             "transfer: ('m', 't1', 'und'): zero base value at point 0"),
        ],
        ids=["curves-no-shot-0", "stability-zero-clean", "stability-off-grid",
             "transfer-zero-base", "transfer-grid-mismatch", "stability-duplicate-clean",
             "transfer-unmatched", "transfer-taxonomy-mismatch", "curves-duplicate-clean",
             "transfer-duplicate-clean-base", "transfer-duplicate-clean-variant",
             "stability-one-point-twin", "stability-no-clean-twin",
             "stability-first-rejected-in-report-order", "transfer-zero-base-before-grid-mismatch"],
    )
    def test_curve_error_names_the_curve(self, tmp_path, report, files, message):
        argv = ["eval", report]
        for flag, rows in files.items():
            path = tmp_path / f"{flag}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in rows))
            argv += [f"--{flag}", str(path)]
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        assert err == f"forge: {message}\n".replace("{dir}", str(tmp_path))

    @pytest.mark.parametrize("report", ["curves", "stability", "transfer"])
    def test_a_curve_with_no_points_exits_3_naming_file_and_line(self, tmp_path, report):
        path = str(tmp_path / "e.jsonl")
        _write_rows(path, [{"model": "m", "task": "t", "taxonomy": "Perception",
                            "modality": "und", "shots": [], "values": []}])
        flags = ["--base", path, "--variant", path] if report == "transfer" else ["--results", path]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["eval", report, *flags])
        assert (code, out, err) == (3, "", f"forge: {path}: line 1: result: curve: needs at least one shot\n")
        assert not caught

    def test_transfer_of_opposite_infinite_changes_exits_4_without_a_warning(self, tmp_path):
        # the changes are +inf and -inf, whose mean is NaN
        base, var = str(tmp_path / "b.jsonl"), str(tmp_path / "v.jsonl")
        _write_rows(base, [curve_row("t", [0, 1], [1e-300, 1e-300])])
        _write_rows(var, [curve_row("t", [0, 1], [1e308, -1e308])])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["eval", "transfer", "--base", base, "--variant", var])
        assert (code, out, err) == (
            4, "", "forge: numeric guard: eval transfer: relative_change_percent is not finite\n")
        assert not caught

    def test_transfer_reads_only_clean_curves(self, tmp_path):
        # a perturbed twin in the base no longer stands in for its clean curve
        base, var = tmp_path / "b.jsonl", tmp_path / "v.jsonl"
        base.write_text(json.dumps(curve_row("t", [0, 1], [10.0, 20.0])) + "\n"
                        + json.dumps(curve_row("t", [0, 1], [40.0, 80.0], "random_replace")) + "\n")
        var.write_text(json.dumps(curve_row("t", [0, 1], [20.0, 40.0])) + "\n")
        code, out, _ = run_cli(["eval", "transfer", "--base", str(base), "--variant", str(var)])
        assert code == 0
        assert [json.loads(line)["relative_change_percent"] for line in out.splitlines()] == [100.0] * 2

    def test_non_finite_deviation_exits_4_like_every_report(self, tmp_path):
        path = tmp_path / "r.jsonl"
        rows = [curve_row("t", [0, 1], [1.0, 1.0]),
                curve_row("t", [0, 1], [-1.7e308, -1.7e308], "reverse_order")]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        got = run_cli(["eval", "stability", "--results", str(path)])
        assert got == (4, "", "forge: numeric guard: eval stability: deviation_percent is not finite\n")

    def test_align_survives_overflowing_sums(self, tmp_path):
        path = tmp_path / "a.jsonl"
        pairs = [(1e200, 1.0), (-1e200, 3.0), (1e200, 2.0)]
        path.write_text(
            "".join(json.dumps({"task": "t", "primary": x, "auxiliary": y}) + "\n" for x, y in pairs)
        )
        code, out, err = run_cli(["eval", "align", "--results", str(path)])
        assert code == 0
        assert json.loads(out)["pearson"] == pytest.approx(-(0.75**0.5), abs=1e-12)
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "pairs, message",
        [([(1.0, 1.0), (2.0, 3.0)], "pearson: need at least 3 points"),
         ([(1.0, 1.0), (1.0, 3.0), (1.0, 2.0)], "pearson: constant input")],
        ids=["two-rows", "constant"],
    )
    def test_align_error_names_report_and_task(self, tmp_path, pairs, message):
        path = tmp_path / "a.jsonl"
        rows = [{"task": "a", "primary": x, "auxiliary": x} for x in (1.0, 2.0, 3.0)]
        rows += [{"task": "b", "primary": x, "auxiliary": y} for x, y in pairs]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        got = run_cli(["eval", "align", "--results", str(path)])
        assert got == (3, "", f"forge: align: task 'b': {message}\n")

    def test_list_taxonomy_exits_3(self, tmp_path):
        path = tmp_path / "r.jsonl"
        row = {"model": "m", "task": "t", "taxonomy": ["Perception"], "modality": "und",
               "shots": [0, 1], "values": [1.0, 2.0]}
        path.write_text(json.dumps(row) + "\n")
        code, out, err = run_cli(["eval", "curves", "--results", str(path)])
        assert (code, out) == (3, "")
        assert "line 1: result: taxonomy: ['Perception'] is not one of" in err

    @pytest.mark.parametrize(
        "report, rows, message",
        [
            ("align", [{"task": ["x"], "primary": 1, "auxiliary": 2}],
             "line 1: task must be a string, got ['x']"),
            ("align", [{"task": "a", "primary": 1, "auxiliary": 2},
                       {"task": 5, "primary": 1, "auxiliary": 2}],
             "line 2: task must be a string, got 5"),
            ("human", [{"metric": ["x"], "outcome": "win"}],
             "line 1: metric must be a string, got ['x']"),
            ("human", [{"metric": "a", "outcome": "win"}, {"metric": 5, "outcome": "win"}],
             "line 2: metric must be a string, got 5"),
            ("human", [{"outcome": ["win"]}], "outcomes[0] = ['win'] not win/tie/lose"),
            ("human", [{"metric": "a", "outcome": "win"}, {"metric": "a"}],
             "line 2: expected an 'outcome' field"),
            ("human", [], "r.jsonl: no outcomes"),
        ],
        ids=["align-list-task", "align-int-beside-str-task", "human-list-metric",
             "human-int-beside-str-metric", "human-list-outcome", "human-no-outcome",
             "human-empty-file"],
    )
    def test_non_string_group_or_outcome_exits_3(self, tmp_path, report, rows, message):
        path = tmp_path / "r.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, out, err = run_cli(["eval", report, "--results", str(path)])
        assert (code, out) == (3, "")
        assert message in err


HUGE = 10**400  # json.dumps writes it in full; float() of it overflows
RESULT_ROW = {"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",
              "shots": [0, 1, 2], "values": [1.0, 2.0, 3.0], "primary": 1.0, "auxiliary": 2.0}


@pytest.mark.parametrize(
    "name, obj, argv, message",
    [
        ("m.jsonl", {"scene_id": "s", "instances": [{"category": "c", "bbox": [0, 0, HUGE, 1]}]},
         ["validate", "--metadata"], "metadata.instances[0].bbox: expected numbers"),
        ("m.jsonl", {"scene_id": "s", "scores": {"q": HUGE}},
         ["validate", "--metadata"], "metadata.scores: expected numbers"),
        ("r.jsonl", dict(RESULT_ROW, values=[1.0, HUGE, 3.0]),
         ["eval", "curves", "--results"], "result.values: expected numbers"),
        ("r.jsonl", dict(RESULT_ROW, shots=[0, 1, HUGE]),
         ["eval", "curves", "--results"], "result: shots[2]: too large for float arithmetic"),
        ("r.jsonl", dict(RESULT_ROW, primary=HUGE),
         ["eval", "align", "--results"], "needs numeric 'primary' and 'auxiliary'"),
        # values float() takes but that are not finite (json writes NaN and Infinity)
        *[("r.jsonl", dict(RESULT_ROW, **{field: value}),
           ["eval", "align", "--results"], "needs numeric 'primary' and 'auxiliary'")
          for field, value in [("primary", math.nan), ("auxiliary", "nan"), ("primary", math.inf),
                               ("auxiliary", "-inf"), ("primary", "1e400")]],
    ],
    ids=["metadata-bbox", "metadata-scores", "results-values", "results-shots", "align-field",
         "align-nan-literal", "align-nan-string", "align-infinity-literal", "align-inf-string",
         "align-overflowing-string"],
)
def test_huge_integer_exits_3(tmp_path, name, obj, argv, message):
    path = tmp_path / name
    path.write_text(json.dumps(obj) + "\n")
    code, out, err = run_cli([*argv, str(path)])
    assert (code, out) == (3, "")
    assert f"{path}: line 1: {message}" in err



@pytest.mark.parametrize(
    "text, message",
    [("1" * 5000, "parse error: Exceeds the limit (4300 digits)"),
     ("[" * 100_000, "parse error: nested deeper than 500 levels")],
    ids=["integer-digits", "nesting"],
)
def test_unparseable_number_or_nesting_exits_3(tmp_path, text, message):
    path = tmp_path / "m.jsonl"
    path.write_text(text + "\n")
    code, out, err = run_cli(["validate", "--metadata", str(path)])
    assert (code, out) == (3, "")
    assert f"{path}: line 1: {message}" in err


def _nested(depth):
    return "[" * depth + "]" * depth


# JSON text on which orjson and json part ways: integers beyond 64 bits
# (orjson makes floats of them), what orjson refuses and json reads, and
# nesting too deep for json, which orjson accepts.  json also reads an escaped
# lone surrogate, which the readers refuse naming the file and line.
DIVERGENT_VALUES = {
    "20-digits": str(2**64),
    "309-digits": str(10**308),
    "309-digits-past-max": str(2**1024 - 2**970),
    "310-digits": str(10**309),
    "1e400": "1e400",
    "nan": "NaN",
    "minus-infinity": "-Infinity",
    "lone-surrogate": '"\\ud800"',
}
# each reader's file: three valid lines, as (key, JSON value) pairs
READER_LINES = {
    "queries": [[("id", '"it3"')], [("id", '"it0"')], [("id", '"it5"')]],
    "align": [[("task", '"t"'), ("primary", str(x)), ("auxiliary", str(y))]
              for x, y in ((1.0, 2.0), (2.0, 1.0), (3.0, 5.0))],
    "human": [[("metric", '"m"'), ("outcome", o)] for o in ('"win"', '"tie"', '"lose"')],
}


def _divergent_cases():
    for reader, lines in READER_LINES.items():
        pairs = lines[1]
        for key, good in pairs:
            others = [p for p in pairs if p[0] != key]
            for name, value in DIVERGENT_VALUES.items():
                yield f"{reader}-{key}-{name}", reader, [(key, value), *others]
            # duplicate keys: both decoders keep the last value
            yield f"{reader}-{key}-duplicate-kept", reader, [(key, good), *others, (key, '"x"')]
            yield f"{reader}-{key}-duplicate-dropped", reader, [(key, '"x"'), *others, (key, good)]
        for depth in (150, 990, 1000, 1100):
            nested = _nested(depth)
            yield f"{reader}-nested-{depth}-extra-key", reader, [*pairs, ("x", nested)]
            key, good = pairs[0]
            yield (f"{reader}-nested-{depth}-duplicate-key", reader,
                   [(key, nested), *pairs[1:], (key, good)])


DIVERGENT_CASES = list(_divergent_cases())


@pytest.mark.parametrize("reader, spoiled", [c[1:] for c in DIVERGENT_CASES],
                         ids=[c[0] for c in DIVERGENT_CASES])
def test_cli_readers_match_a_json_only_run(tmp_path, monkeypatch, reader, spoiled):
    import orjson

    lines = [*READER_LINES[reader][:1], spoiled, *READER_LINES[reader][2:]]
    path = tmp_path / "in.jsonl"
    path.write_text("".join("{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}\n"
                            for pairs in lines))
    if reader == "queries":
        store = tmp_path / "e.jsonl"
        store.write_text("".join(
            json.dumps({"id": f"it{i}", "modality": m, "dim": 2, "values": [1.0, i]}) + "\n"
            for i in range(6) for m in ("visual", "text")
        ))
        argv = ["retrieve", "--mode", "fusion", "--embeddings", str(store), "--queries", str(path)]
    else:
        argv = ["eval", reader, "--results", str(path)]
    got = run_cli(argv)
    if DIVERGENT_VALUES["lone-surrogate"] in dict(spoiled).values():
        assert got[:2] == (3, "") and got[2].startswith(f"forge: {path}: line 2: parse error: "), got

    def refuse(line):
        raise orjson.JSONDecodeError("refused", line, 0)

    monkeypatch.setattr(orjson, "loads", refuse)  # every line then goes to json.loads
    assert got == run_cli(argv)


GOLDEN_FILES = {
    "r.jsonl": [
        {"model": "m1", "task": "t1", "taxonomy": "Perception", "modality": "und",
         "shots": [0, 1, 2, 4, 8], "values": [10.0, 20.0, 20.0, 20.0, 20.0]},
        {"model": "m1", "task": "t1", "taxonomy": "Perception", "modality": "und",
         "perturbation": "interference", "shots": [1, 2, 4, 8], "values": [18.0, 18.0, 18.0, 18.0]},
        {"model": "model-b", "task": "t2", "taxonomy": "Analogy", "modality": "gen",
         "shots": [0, 4], "values": [40.0, 30.0]},
        {"model": "model-b", "task": "t2", "taxonomy": "Analogy", "modality": "gen",
         "perturbation": "reverse_order", "shots": [0, 4], "values": [40.0, 50.0]},
    ],
    "a.jsonl": [{"task": "t", "primary": x, "auxiliary": y} for x, y in [(1, 1), (2, 3), (3, 2), (4, 4)]]
    + [{"task": "long-task", "primary": x, "auxiliary": y} for x, y in [(1, 3), (2, 2), (3, 1)]],
    "b.jsonl": [
        {"model": "m", "task": "t1", "taxonomy": "Perception", "modality": "und",
         "shots": [0, 4], "values": [10.0, 10.0]},
        {"model": "m", "task": "t2", "taxonomy": "Analogy", "modality": "gen",
         "shots": [0, 4], "values": [10.0, 10.0]},
    ],
    "v.jsonl": [
        {"model": "m", "task": "t1", "taxonomy": "Perception", "modality": "und",
         "shots": [0, 4], "values": [12.0, 12.0]},
        {"model": "m", "task": "t2", "taxonomy": "Analogy", "modality": "gen",
         "shots": [0, 4], "values": [9.0, 9.0]},
    ],
    "h.jsonl": [{"metric": "quality", "outcome": o} for o in ("win", "win", "tie", "lose")]
    + [{"metric": "faithfulness", "outcome": "lose"}],
}


# Each table worked out by hand from GOLDEN_FILES, except the CAPM one, whose
# values come from seeded random draws.  Efficiency: (0.5*10*1 + 10*1 + 10*2
# + 10*4) / 8 = 9.375 and 0.5*(0 - 10)*4 / 4 = -5; deviation: 2/20 = 10% and
# 0.5*20*4 / (0.5*70*4) = 28.571%; correlation: 4/5 and a reversed ranking;
# transfer: +20%, -10% and their mean; human: 2, 1 and 2 of 5 pooled outcomes.
@pytest.mark.parametrize(
    "argv, table",
    [
        (["eval", "curves", "--results", "r.jsonl"],
         "Model    Task  Taxonomy    Mod  Z-S     Peak    Eff\n"
         "-------  ----  ----------  ---  ------  ------  ------\n"
         "m1       t1    Perception  und  10.000  20.000  9.375\n"
         "model-b  t2    Analogy     gen  40.000  40.000  -5.000\n"),
        (["eval", "stability", "--results", "r.jsonl"],
         "Model    Task  Mod  Perturbation   Dev%\n"
         "-------  ----  ---  -------------  ------\n"
         "m1       t1    und  interference   10.000\n"
         "model-b  t2    gen  reverse_order  28.571\n"),
        (["eval", "align", "--results", "a.jsonl"],
         "Task       N  Pearson  Spearman\n"
         "---------  -  -------  --------\n"
         "long-task  3  -1.0000  -1.0000\n"
         "t          4  0.8000   0.8000\n"),
        (["eval", "transfer", "--base", "b.jsonl", "--variant", "v.jsonl"],
         "Taxonomy    RelChange%\n"
         "----------  ----------\n"
         "Perception  +20.000\n"
         "Analogy     -10.000\n"
         "Average     +5.000\n"),
        (["eval", "human", "--results", "h.jsonl"],
         "Metric        Win%  Tie%  Lose%\n"
         "------------  ----  ----  -----\n"
         "faithfulness  0.0   0.0   100.0\n"
         "quality       50.0  25.0  25.0\n"
         "Overall       40.0  20.0  40.0\n"),
        (["capm", "diagnose", "--seed", "7", "--shots", "2"],
         "Stage          MeanNorm  Shift\n"
         "-------------  --------  ------\n"
         "hidden         3.8133    0.0000\n"
         "attention_out  3.6719    0.0000\n"
         "context        0.6474    0.6474\n"
         "output         1.9912    0.0368\n"),
    ],
    ids=["curves", "stability", "align", "transfer", "human", "capm-diagnose"],
)
def test_stderr_table_golden(tmp_path, argv, table):
    for name, rows in GOLDEN_FILES.items():
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, out, err = run_cli([str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv])
    assert code == 0
    assert err == table
    assert len(out.splitlines()) == len(table.splitlines()) - 2  # one JSON row per table row


# CAPM sizes at which a gradcheck makes a few hundred forwards
TINY_CAPM = ["--d-b", "4", "--d-p", "2", "--K", "1", "--r", "1", "--heads", "1",
             "--t-len", "2", "--l-len", "2"]


def _two_record_first_block(blob):
    """A parameter file whose first tensor block holds two records."""
    from ctxforge.records import CONTAINER_MAGIC

    manifest, blocks = blob.split(b"\n", 1)
    end = blocks.index(CONTAINER_MAGIC, len(CONTAINER_MAGIC))
    two = pack_vector_block(["w_in 12x8"] * 2, np.zeros((2, 96)))
    return manifest + b"\n" + two + blocks[end:]


class TestCapmCli:
    def test_gradcheck_passes(self):
        code, out, _ = run_cli(["capm", "gradcheck", "--seed", "7", "--d-b", "12", "--d-p", "8", "--r", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "PASS"
        assert report["max_rel_err"] < 1e-4

    def test_demo_output_hash_invariant_in_shots_at_init(self):
        code_a, out_a, _ = run_cli(["capm", "demo", "--seed", "5", "--shots", "1"])
        code_b, out_b, _ = run_cli(["capm", "demo", "--seed", "5", "--shots", "6"])
        assert code_a == code_b == 0
        assert json.loads(out_a)["output_sha256"] == json.loads(out_b)["output_sha256"]

    def test_demo_reproducible_across_processes(self):
        first = run_proc(["capm", "demo", "--seed", "9"])
        second = run_proc(["capm", "demo", "--seed", "9"])
        assert first.returncode == 0
        assert first.stdout == second.stdout

    def test_diagnose_stages(self):
        code, out, _ = run_cli(["capm", "diagnose", "--seed", "4", "--shots", "3"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["stage"] for r in rows] == ["hidden", "attention_out", "context", "output"]
        by_stage = {r["stage"]: r for r in rows}
        assert by_stage["hidden"]["representation_shift"] == 0.0
        assert by_stage["context"]["representation_shift"] > 0.0

    def test_seed_env_fallback(self):
        with_env = run_proc(["capm", "demo"], env_extra={"FORGE_SEED": "31"})
        with_flag = run_proc(["capm", "demo", "--seed", "31"])
        assert with_env.returncode == with_flag.returncode == 0
        assert with_env.stdout == with_flag.stdout

    def test_flag_beats_env(self):
        flagged = run_proc(["capm", "demo", "--seed", "1"], env_extra={"FORGE_SEED": "2"})
        direct = run_proc(["capm", "demo", "--seed", "1"])
        assert flagged.stdout == direct.stdout

    def test_params_round_trip_through_file(self, tmp_path):
        path = tmp_path / "w.capm"
        code, out_a, _ = run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])
        assert code == 0 and path.exists()
        code, out_b, _ = run_cli(["capm", "demo", "--seed", "8", "--params", str(path)])
        assert code == 0
        # same seed, parameters only differ by the f32 round trip
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["tau"] == pytest.approx(b["tau"], rel=1e-4)

    @pytest.mark.parametrize("action", ["gradcheck", "diagnose"])
    @pytest.mark.parametrize("flag", ["--params", "--save-params"])
    def test_only_demo_takes_a_parameter_file(self, tmp_path, action, flag):
        path = tmp_path / "p.capm"
        if flag == "--params":
            assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        code, out, err = run_cli(["capm", action, "--seed", "7", flag, str(path)])
        assert (code, out, err) == (2, "", f"forge: usage error: capm {action} takes no {flag}\n")
        assert path.exists() == (flag == "--params")

    @pytest.mark.parametrize(
        "flag, value",
        [("--d-b", "16"), ("--d-p", "4"), ("--K", "3"), ("--r", "1"), ("--heads", "1"),
         ("--eta", "0.2"), ("--tau-min", "0.1"), ("--tau-max", "3"), ("--b2-init", "1")],
    )
    def test_demo_params_refuses_a_flag_its_manifest_sets(self, tmp_path, flag, value):
        path = tmp_path / "p.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        code, out, err = run_cli(["capm", "demo", "--params", str(path), flag, value])
        assert (code, out) == (2, "")
        key = flag[2:].replace("-", "_")
        assert err == f"forge: usage error: {flag} cannot be used with --params, whose manifest sets {key}\n"

    def test_demo_params_refuses_the_configs_capm_section(self, tmp_path):
        path = tmp_path / "p.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"capm": {"d_b": 16, "eta": 0.5}}))
        code, out, err = run_cli(["capm", "demo", "--params", str(path), "--config", str(config)])
        assert (code, out) == (2, "")
        assert err == ("forge: usage error: config capm.d_b cannot be used with --params, "
                       "whose manifest sets d_b\n")

    def test_gradcheck_with_no_shots_checks_no_demo(self):
        code, out, _ = run_cli(["capm", "gradcheck", "--seed", "5", "--shots", "0"])
        assert code == 0
        report = json.loads(out)
        # the 34 parameter tensors, h and y: no demonstration's tokens
        assert (report["verdict"], report["tensors"]) == ("PASS", 36)

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
    def test_gradcheck_step_must_be_positive_and_finite(self, step):
        code, out, err = run_cli(["capm", "gradcheck", "--seed", "7", "--step", step])
        assert code == 2
        assert out == ""
        assert "usage error: step must be a finite number > 0" in err

    @pytest.mark.parametrize("action", ["demo", "gradcheck", "diagnose"])
    @pytest.mark.parametrize(
        "flag, message",
        [("--t-len", "t_len too large: inputs would have shape (4611686018427387904, "),
         ("--l-len", "shots and l_len too large: inputs would have shape (2, 4611686018427387904, ")],
        ids=["t-len", "l-len"],
    )
    def test_input_too_large_for_numpy_exits_2(self, monkeypatch, action, flag, message):
        # safe to run: numpy refuses an array this large before allocating it
        monkeypatch.delenv("FORGE_SEED", raising=False)
        code, out, err = run_cli(["capm", action, flag, str(2**62)])
        assert (code, out) == (2, "")
        assert f"usage error: {message}" in err

    def test_huge_shots_exits_2_before_any_draw(self, tmp_path, monkeypatch):
        from ctxforge import capm

        hyper = capm.CapmHyper(d_b=2, d_p=2, K=1, r=1, heads=1)
        path = tmp_path / "p.capm"
        capm.save_params(capm.init_params(hyper, np.random.default_rng(0)), hyper, path)

        class NoDraws:
            """A generator whose every draw fails: without the size bound the
            first input draw fails here instead of filling memory."""

            def __getattr__(self, name):
                raise AssertionError(f"drew {name} before the input sizes were checked")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        code, out, err = run_cli(["capm", "demo", "--params", str(path), "--shots", str(2**62)])
        assert (code, out) == (2, "")
        assert "usage error: shots and l_len too large" in err

    @pytest.mark.parametrize(
        "message, shown",
        [("Unable to allocate 3.58 TiB for an array with shape (4000000000, 120)",
          "Unable to allocate 3.58 TiB for an array with shape (4000000000, 120)"),
         ("", "an allocation failed")],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_exits_3_with_one_line(self, monkeypatch, message, shown):
        # simulated: under memory overcommit a real allocation this large can
        # succeed and then fill RAM
        from ctxforge import capm

        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(capm, "init_params", no_memory)
        code, out, err = run_cli(["capm", "demo", "--seed", "1"])
        assert (code, out, err) == (3, "", f"forge: out of memory: {shown}\n")

    def test_negative_seed_is_usage_error(self):
        code, out, err = run_cli(["capm", "demo", "--seed", "-1"])
        assert code == 2
        assert "usage error: seed must be an integer >= 0, got -1" in err

    def test_params_manifest_value_too_large_for_float_exits_3(self, tmp_path):
        path = tmp_path / "w.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        blob = path.read_bytes()
        assert blob.count(b'"eta": 0.1,') == 1
        path.write_bytes(blob.replace(b'"eta": 0.1,', b'"eta": ' + str(HUGE).encode() + b","))
        code, out, err = run_cli(["capm", "demo", "--params", str(path)])
        assert (code, out) == (3, "")
        assert f"{path}: manifest: eta must be a finite number, got 1000" in err

    @pytest.mark.parametrize(
        "value, reason",
        [(b"7" * 5000, "Exceeds the limit (4300 digits) for integer string conversion: "
                       "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
         (b"[" * 5000 + b"]" * 5000, "nested deeper than 500 levels")],
        ids=["5000-digits", "5000-deep"],
    )
    def test_params_manifest_the_decoder_refuses_exits_3(self, tmp_path, value, reason):
        # json raises ValueError on an over-long integer; nesting is bounded before json
        path = tmp_path / "w.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        blob = path.read_bytes()
        assert blob.count(b'"eta": 0.1,') == 1
        path.write_bytes(blob.replace(b'"eta": 0.1,', b'"eta": ' + value + b","))
        code, out, err = run_cli(["capm", "demo", "--params", str(path)])
        assert (code, out, err) == (3, "", f"forge: {path}: bad parameter manifest line: {reason}\n")

    def test_params_with_non_integer_shape_exit_3(self, tmp_path):
        path = tmp_path / "w.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        blob = path.read_bytes()
        assert blob.count(b"w_in 12x8") == 1
        path.write_bytes(blob.replace(b"w_in 12x8", b"w_in 12xa"))
        code, out, err = run_cli(["capm", "demo", "--params", str(path)])
        assert code == 3
        assert out == ""
        assert "tensor 'w_in' has a bad shape '12xa'" in err

    def test_truncated_params_name_file_and_tensor_exit_3(self, tmp_path):
        path = tmp_path / "w.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        path.write_bytes(path.read_bytes()[:2000])
        code, out, err = run_cli(["capm", "demo", "--params", str(path)])
        assert (code, out) == (3, "")
        assert err == f"forge: {path}: tensor 'phi_ln_gain': truncated values at record 0\n"

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda b: b.replace(b'"capm-params"', b'"capm-\xffparams"'),
             "bad parameter manifest line: not valid UTF-8 text"),
            (lambda b: b.replace(b'"capm-params"', b'"capm-other"'), "not a parameter file"),
            (lambda b: b.replace(b'"version": 1', b'"version": 2'), "unsupported version 2"),
            (lambda b: b.replace(b'"hyper": {', b'"hyper": {"width": 1, '),
             "bad hyperparameter manifest"),
            (lambda b: _two_record_first_block(b), "tensor block for w_in must hold one record"),
            (lambda b: b.replace(b"w_in 12x8", b"w_xx 12x8"), "expected tensor 'w_in', found 'w_xx'"),
            (lambda b: b.replace(b"w_in 12x8", b"w_in 12x9"),
             "tensor 'w_in' size does not match its shape"),
            (lambda b: b + b"\0", "trailing bytes after final tensor"),
        ],
        ids=["manifest-not-utf8", "not-a-parameter-file", "unsupported-version",
             "bad-hyper-manifest", "two-records", "wrong-tensor-name", "size-not-shape",
             "trailing-bytes"],
    )
    def test_spoiled_params_exit_3_naming_the_fault(self, tmp_path, spoil, message):
        path = tmp_path / "w.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        blob = path.read_bytes()
        spoiled = spoil(blob)
        assert spoiled != blob
        path.write_bytes(spoiled)
        got = run_cli(["capm", "demo", "--params", str(path)])
        assert got == (3, "", f"forge: {path}: {message}\n")

    def test_diagnose_without_shots_is_usage_error(self):
        got = run_cli(["capm", "diagnose", "--shots", "0"])
        assert got == (2, "", "forge: usage error: capm diagnose requires --shots >= 1\n")

    def test_failing_gradcheck_writes_its_verdict_and_exits_4(self):
        code, out, err = run_cli(["capm", "gradcheck", "--seed", "3", *TINY_CAPM, "--shots", "1",
                                  "--tolerance", "1e-300"])
        assert code == 4
        report = json.loads(out)
        assert (report["verdict"], report["tolerance"]) == ("FAIL", 1e-300)
        assert err.endswith(
            f"forge: numeric guard: gradcheck FAIL: max_rel_err={report['max_rel_err']:.3e} "
            "exceeds 1e-300\n"
        )

    @pytest.mark.parametrize("section", [[], 1, "d_b"], ids=["list", "int", "string"])
    def test_capm_section_that_is_not_an_object_exits_3(self, tmp_path, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"capm": section}))
        got = run_cli(["capm", "demo", "--config", str(cfg)])
        assert got == (3, "", "forge: config 'capm' section must be an object\n")

    def test_save_params_beyond_float32_exits_3_writing_nothing(self, tmp_path):
        path = tmp_path / "p.bin"
        code, out, err = run_cli(["capm", "demo", "--b2-init", "1e39", "--save-params", str(path)])
        assert (code, out) == (3, "")
        assert err.endswith(
            f"forge: {path}: tensor 'gate_b2' cannot be saved: record 'gate_b2 12': "
            "values[0]: 1e+39 is outside the float32 range\n"
        )
        assert not path.exists()

    def test_container_id_not_utf8_exit_3(self, tmp_path):
        params = tmp_path / "w.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(params)])[0] == 0
        params.write_bytes(params.read_bytes().replace(b"w_in 12x8", b"\xff_in 12x8"))
        store = tmp_path / "store.bin"
        save_embeddings_binary(
            [EmbeddingRecord(id="itm0", modality="visual", dim=2, values=(1.0, 0.0))], str(store)
        )
        store.write_bytes(store.read_bytes().replace(b"itm0", b"it\xc3\x28"))
        for argv in (["capm", "demo", "--params", str(params)],
                     ["validate", "--embeddings", str(store)]):
            code, out, err = run_cli(argv)
            assert code == 3, argv
            assert out == ""
            assert "id at record 0 is not valid UTF-8" in err

    def test_container_empty_id_exit_3(self, tmp_path):
        store = tmp_path / "store.bin"
        store.write_bytes(pack_vector_block(["a", ""], np.array([[1.0, 0.0], [0.0, 1.0]])))
        code, out, err = run_cli(["validate", "--embeddings", str(store)])
        assert (code, out) == (3, "")
        assert err == f"forge: {store}: record 1: id: must be a non-empty string\n"


class TestConfigMerge:
    @pytest.mark.parametrize(
        "argv", [["eval", "curves", "--results"], ["validate", "--metadata"]], ids=["eval", "validate"]
    )
    def test_config_is_not_an_option(self, tmp_path, argv):
        (tmp_path / "data.jsonl").write_text("")
        (tmp_path / "cfg.json").write_text("{}")
        code, out, err = run_cli([*argv, str(tmp_path / "data.jsonl"), "--config", str(tmp_path / "cfg.json")])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --config" in err

    def test_config_supplies_defaults_flags_win(self, fusion_fixture, tmp_path):
        emb, queries, _ = fusion_fixture
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "lambda": 0.5}))
        code, out, _ = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(emb),
             "--queries", str(queries), "--config", str(cfg)]
        )
        assert code == 0
        assert len(json.loads(out)["shots"]) == 1  # k came from config
        code, out, _ = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(emb),
             "--queries", str(queries), "--config", str(cfg), "--k", "2"]
        )
        assert len(json.loads(out)["shots"]) == 2  # flag wins

    @pytest.mark.parametrize(
        "flags, config, key",
        [
            (["--k", "-3"], {}, "k"),
            ([], {"k": "4"}, "k"),
            ([], {"k": True}, "k"),
            ([], {"lambda": "x"}, "lambda"),
            (["--lambda", "1.5"], {}, "lambda"),
            ([], {"top_n": 2.5}, "top_n"),
            ([], {"beta": 0}, "beta"),
            ([], {"beta": HUGE}, "beta"),
            (["--taxonomy", ""], {}, "taxonomy"),
            ([], {"subtask": ""}, "subtask"),
        ],
        ids=["negative-k", "string-k", "bool-k", "string-lambda", "lambda-above-1",
             "fractional-top-n", "zero-beta", "huge-int-beta", "empty-taxonomy",
             "config-empty-subtask"],
    )
    def test_bad_setting_exits_2(self, fusion_fixture, tmp_path, flags, config, key):
        emb, queries, _ = fusion_fixture
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(emb),
             "--queries", str(queries), "--config", str(cfg), *flags]
        )
        assert code == 2
        assert out == ""
        assert f"usage error: {key} must be" in err

    def test_bad_config_exits_3(self, fusion_fixture, tmp_path):
        emb, queries, _ = fusion_fixture
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        code, _, err = run_cli(
            ["retrieve", "--mode", "fusion", "--embeddings", str(emb),
             "--queries", str(queries), "--config", str(cfg)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "text, message",
        [("1" * 5000, "config parse error: Exceeds the limit (4300 digits)"),
         ("[" * 100_000, "config parse error: nested deeper than 500 levels")],
        ids=["integer-digits", "nesting"],
    )
    def test_unparseable_config_exits_3(self, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run_cli(["capm", "demo", "--config", str(cfg)])
        assert (code, out) == (3, "")
        assert f"{cfg}: {message}" in err


EPISODE = {"episode_id": "e1", "taxonomy": "Perception", "subtask": "Visual Grounding",
           "shots": [{"id": "a", "image_ref": "a"}], "query": {"id": "q", "image_ref": "q"}}
SCENE = {"scene_id": "s", "instances": [], "scene_attributes": {}, "scores": {"q": 1.0}}


@pytest.mark.parametrize(
    "argv, config, env, key",
    [
        (["capm", "demo", "--d-b", "0"], {}, {}, "d_b"),
        (["capm", "demo", "--heads", "3", "--d-p", "8"], {}, {}, "heads"),
        (["capm", "demo"], {"capm": {"K": 0}}, {}, "K"),
        (["capm", "demo"], {"capm": {"d_b": 10**21}}, {}, "d_b"),
        (["capm", "demo"], {"capm": {"eta": HUGE}}, {}, "eta"),
        (["capm", "demo"], {"capm": {"eta": True}}, {}, "eta"),
        (["capm", "demo", "--tau-min", "3"], {}, {}, "tau_min"),
        (["capm", "demo"], {"seed": -1}, {}, "seed"),
        (["capm", "demo"], {}, {"FORGE_SEED": "x"}, "seed"),
        (["capm", "demo", "--shots", "-1"], {}, {}, "shots"),
        (["capm", "demo", "--t-len", "0"], {}, {}, "t_len"),
        (["capm", "demo", "--l-len", "1"], {}, {}, "l_len"),
        (["capm", "gradcheck", "--tolerance", "-1"], {}, {}, "tolerance"),
        (["capm", "gradcheck", "--tolerance", "nan"], {}, {}, "tolerance"),
        (["validate", "--episodes", "{dir}/e.jsonl", "--max-shots", "-1"], {}, {}, "max_shots"),
        (["filter", "--metadata", "{dir}/m.jsonl", "--score-field", "q", "--min", "nan"],
         {}, {}, "min"),
        (["filter", "--metadata", "{dir}/m.jsonl", "--score-field", "q"],
         {"max": math.nan}, {}, "max"),
    ],
    ids=["zero-d-b", "heads-not-dividing-d-p", "config-zero-K", "config-huge-d-b",
         "config-huge-int-eta", "config-bool-eta", "tau-min-above-tau-max", "config-negative-seed",
         "env-seed-text", "negative-shots", "zero-t-len", "one-token-l-len", "negative-tolerance",
         "nan-tolerance", "negative-max-shots", "nan-min", "config-nan-max"],
)
def test_bad_setting_exits_2_naming_it(tmp_path, monkeypatch, argv, config, env, key):
    (tmp_path / "e.jsonl").write_text(json.dumps(EPISODE) + "\n")
    (tmp_path / "m.jsonl").write_text(json.dumps(SCENE) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.delenv("FORGE_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    code, out, err = run_cli([*argv, *(["--config", str(cfg)] if config else [])])
    assert (code, out) == (2, "")
    assert f"usage error: {key} must be" in err


class TestValidate:
    def test_ok_files(self, tmp_path):
        meta = tmp_path / "m.jsonl"
        meta.write_text(
            json.dumps({"scene_id": "s", "instances": [], "scene_attributes": {}, "scores": {}}) + "\n"
        )
        code, out, _ = run_cli(["validate", "--metadata", str(meta)])
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_invalid_exits_3(self, tmp_path):
        meta = tmp_path / "m.jsonl"
        meta.write_text('{"scene_id": 5}\n')
        code, _, err = run_cli(["validate", "--metadata", str(meta)])
        assert code == 3

    def test_no_inputs_is_usage_error(self):
        code, _, _ = run_cli(["validate"])
        assert code == 2

    def test_max_shots_checked_only_with_episodes(self, tmp_path):
        meta = tmp_path / "m.jsonl"
        meta.write_text(json.dumps(SCENE) + "\n")
        code, out, _ = run_cli(["validate", "--metadata", str(meta), "--max-shots", "-1"])
        assert code == 0
        assert json.loads(out)["kind"] == "metadata"

    def test_text_inputs_not_utf8_exit_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b'{"scene_id": "\xff"}\n')
        for argv in (
            ["validate", "--metadata", str(bad)],
            ["eval", "curves", "--results", str(bad)],
            ["capm", "demo", "--config", str(bad)],
            ["retrieve", "--mode", "intent", "--metadata", str(bad), "--rule-file", str(bad)],
        ):
            code, out, err = run_cli(argv)
            assert code == 3, argv
            assert out == ""
            assert f"{bad}: not valid UTF-8 text" in err

    def test_missing_file_exits_3(self):
        code, _, _ = run_cli(["validate", "--metadata", "/nonexistent/x.jsonl"])
        assert code == 3


# the statement of a child process that runs one ``forge`` command in-process
RUN_MAIN = "from ctxforge.cli import main\nassert main(sys.argv[1:]) == 0"


class TestTopLevel:
    def test_version(self):
        proc = run_proc(["--version"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("forge ")

    def test_help(self):
        proc = run_proc(["--help"])
        assert proc.returncode == 0
        for sub in ("retrieve", "filter", "eval", "capm", "validate"):
            assert sub in proc.stdout

    def test_unknown_subcommand_exits_2(self):
        proc = run_proc(["transmogrify"])
        assert proc.returncode == 2

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, ctxforge.cli; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), check=True)
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_orjson_unloaded(self):
        # only the JSONL embedding loader imports it, when it runs
        code = "import sys, ctxforge.cli; print('orjson' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), check=True)
        assert proc.stdout.strip() == "False"

    # Each case runs in a new process, then prints which of ctxforge's modules
    # and its heavy dependencies are loaded.  The package loads a module on
    # first use, and a command imports the modules it runs where it runs them.
    # orjson is imported by the JSONL reader when it runs, numpy by records.
    @pytest.mark.parametrize(
        "statement, argv, loaded",
        [
            ("import ctxforge", [], []),
            ("import ctxforge.cli", [], ["cli", "errors", "records", "numpy"]),
            (RUN_MAIN, ["eval", "curves", "--results", "{results}"],
             ["cli", "errors", "metrics", "records", "numpy", "orjson"]),
            (RUN_MAIN, ["retrieve", "--mode", "intent", "--metadata", "{meta}", "--rule", "true"],
             ["cli", "errors", "intent", "records", "numpy", "orjson"]),
            (RUN_MAIN, ["retrieve", "--mode", "fusion", "--embeddings", "{emb}", "--queries", "{queries}"],
             ["cli", "errors", "fusion", "records", "numpy", "orjson"]),
            (RUN_MAIN, ["capm", "demo"], ["capm", "cli", "errors", "records", "numpy", "scipy"]),
        ],
        ids=["import-ctxforge", "import-cli", "eval-curves", "retrieve-intent", "retrieve-fusion",
             "capm-demo"],
    )
    def test_import_loads_only_the_modules_run(self, fusion_fixture, tmp_path, statement, argv, loaded):
        emb, queries, meta = fusion_fixture
        results = tmp_path / "r.jsonl"
        results.write_text(json.dumps(RESULT_ROW) + "\n")
        paths = {"results": results, "emb": emb, "queries": queries, "meta": meta}
        code = (
            f"import sys\n{statement}\n"
            "print(*sorted(m for m in sys.modules if m.startswith('ctxforge.') "
            "or m in ('numpy', 'scipy', 'orjson')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *(arg.format(**paths) for arg in argv)],
            capture_output=True, text=True, env=child_env(), check=True,
        )
        modules = {m.removeprefix("ctxforge.") for m in proc.stdout.splitlines()[-1].split()}
        assert modules == set(loaded)

    def test_stdout_carries_only_data(self, tmp_path):
        meta = tmp_path / "m.jsonl"
        meta.write_text(
            json.dumps({"scene_id": "s", "instances": [], "scene_attributes": {}, "scores": {"q": 1.0}}) + "\n"
        )
        proc = run_proc(["filter", "--metadata", str(meta), "--score-field", "q"])
        assert proc.returncode == 0
        for line in proc.stdout.splitlines():
            json.loads(line)  # every stdout line is valid JSON
        assert "kept=" in proc.stderr  # progress went to stderr

    def test_out_flag_writes_file_instead_of_stdout(self, tmp_path):
        meta = tmp_path / "m.jsonl"
        meta.write_text(
            json.dumps({"scene_id": "s", "instances": [], "scene_attributes": {}, "scores": {"q": 1.0}}) + "\n"
        )
        out_file = tmp_path / "out.jsonl"
        code, out, _ = run_cli(
            ["filter", "--metadata", str(meta), "--score-field", "q", "--out", str(out_file)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_file.read_text())["scene_id"] == "s"


@pytest.fixture
def fresh_parser():
    """Make ``main`` build its parser anew on its next call."""
    from ctxforge import cli

    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


HELP_AND_ERROR_ARGV = [
    ["--help"],
    *([sub, "--help"] for sub in ("retrieve", "filter", "eval", "capm", "validate")),
    ["--version"],
    [],
    ["eval", "curves", "--no-such-flag"],
    ["retrieve", "--mode", "intent", "--k", "four"],
]


class TestSharedParser:
    """``main`` builds its parser on its first call and reuses it."""

    @pytest.mark.parametrize("argv", HELP_AND_ERROR_ARGV, ids=lambda a: " ".join(a) or "no-args")
    def test_same_argv_twice_gives_the_same_result(self, fresh_parser, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "100")
        first = run_cli(argv)  # on a new parser
        assert run_cli(argv) == first
        assert first[0] in (0, 2)

    @pytest.mark.parametrize("bad", HELP_AND_ERROR_ARGV[-3:], ids=["no-args", "unknown-flag", "bad-k"])
    def test_a_usage_error_leaves_nothing_behind(self, fresh_parser, tmp_path, bad):
        results = tmp_path / "r.jsonl"
        results.write_text("".join(json.dumps(r) + "\n" for r in GOLDEN_FILES["r.jsonl"]))
        argv = ["eval", "curves", "--results", str(results)]
        expected = run_cli(argv)  # on a new parser
        assert expected[0] == 0
        assert run_cli(bad)[0] == 2
        assert run_cli(argv) == expected

    def test_the_second_call_builds_no_parser(self, fresh_parser, monkeypatch):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run_cli(["--version"])[0] == 0
        assert built  # the first call built it
        built.clear()
        assert run_cli(["eval", "curves", "--help"])[0] == 0
        assert run_cli(["--version"])[0] == 0
        assert built == []

    def test_a_command_replaced_after_the_first_call_runs(self, monkeypatch):
        from ctxforge import cli

        assert run_cli(["--version"])[0] == 0  # the parser exists
        seen = []

        def cmd_eval(args):
            seen.append(args.report)
            return 4

        monkeypatch.setattr(cli, "cmd_eval", cmd_eval)
        assert run_cli(["eval", "human"]) == (4, "", "")
        assert seen == ["human"]

    def test_every_default_is_immutable(self):
        # a parser shared by every call must not hand one call's list to the next
        import argparse

        from ctxforge.cli import build_parser

        def actions(parser):
            for action in parser._actions:
                yield parser.prog, action
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from actions(sub)

        found = list(actions(build_parser()))
        assert len({prog for prog, _ in found}) == 6  # forge and its five subcommands
        for prog, action in found:
            assert action.default is None or type(action.default) in (str, int, float, bool), (
                prog, action.dest, action.default)

    def test_build_parser_returns_a_new_parser(self):
        from ctxforge.cli import build_parser

        assert build_parser() is not build_parser()

    def test_cli_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
            "import ctxforge.cli\n"
            "print(len(built), ctxforge.cli._parser.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), check=True)
        assert proc.stdout.split() == ["0", "0"]


def _deeper(frames, fn):
    """``fn()`` called ``frames`` stack frames deeper than this call."""
    return fn() if frames == 0 else _deeper(frames - 1, fn)


def _nesting_case(tmp_path, site, depth):
    """argv reading one document nested ``depth`` deep at ``site``, and the
    error a document past the bound gives there."""
    from ctxforge.records import MAX_JSON_DEPTH

    assert MAX_JSON_DEPTH == 500
    nested = "[" * (depth - 1) + "]" * (depth - 1)  # inside one object
    if site == "jsonl":
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps(SCENE) + "\n" + json.dumps(SCENE)[:-1].replace('"s"', '"t"')
                        + f', "x": {nested}}}\n')
        argv = ["validate", "--metadata", str(path)]
        error = f"forge: {path}: line 2: parse error: nested deeper than 500 levels\n"
    elif site == "config":
        path = tmp_path / "c.json"
        path.write_text(f'{{"k": 1,\n "x": {nested}}}')
        scenes = tmp_path / "s.jsonl"
        scenes.write_text(json.dumps(SCENE) + "\n")
        argv = ["retrieve", "--mode", "intent", "--metadata", str(scenes), "--rule", "true",
                "--config", str(path)]
        error = f"forge: {path}: config parse error: nested deeper than 500 levels\n"
    else:
        path = tmp_path / "p.capm"
        assert run_cli(["capm", "demo", "--seed", "8", "--save-params", str(path)])[0] == 0
        blob = path.read_bytes()
        assert blob.startswith(b"{")
        path.write_bytes(b'{"x": ' + nested.encode() + b", " + blob[1:])
        argv = ["capm", "demo", "--params", str(path)]
        error = f"forge: {path}: bad parameter manifest line: nested deeper than 500 levels\n"
    return argv, error


@pytest.mark.parametrize("site", ["jsonl", "config", "manifest"])
@pytest.mark.parametrize("depth", [500, 501])
def test_nesting_bound_holds_at_any_stack_depth(tmp_path, site, depth):
    argv, error = _nesting_case(tmp_path, site, depth)
    direct = run_cli(argv)
    if depth <= 500:
        assert direct[0] == 0, direct
    else:
        assert direct == (3, "", error)
    assert _deeper(400, lambda: run_cli(argv)) == direct


def test_gradcheck_announces_its_size_on_stderr(monkeypatch):
    from ctxforge import capm

    resumed = []
    resume = capm._resume
    monkeypatch.setattr(capm, "_resume", lambda *a: (resumed.append(1), resume(*a))[1])
    code, out, err = run_cli(["capm", "gradcheck", "--seed", "7"])
    assert code == 0
    first = err.splitlines()[0]
    assert first == "capm gradcheck: 38 tensors, 5342 perturbed forwards (two per coordinate)"
    assert len(resumed) == 5342
    assert json.loads(out)["tensors"] == 38
