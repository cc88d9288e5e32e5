"""End-to-end checks of the ``forge`` command line."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ctxforge.cli import main
from ctxforge.records import EmbeddingRecord, pack_vector_block, save_embeddings_binary


def run_cli(args, **kwargs):
    """Run in-process; returns (exit_code, stdout, stderr)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args, **kwargs)
    return code, out.getvalue(), err.getvalue()


def run_proc(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ctxforge.cli", *args], capture_output=True, text=True, env=env
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
        ],
        ids=["align-list-task", "align-int-beside-str-task", "human-list-metric",
             "human-int-beside-str-metric", "human-list-outcome"],
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
    ],
    ids=["metadata-bbox", "metadata-scores", "results-values", "results-shots", "align-field"],
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
     ("[" * 100_000, "parse error: maximum recursion depth exceeded")],
    ids=["integer-digits", "nesting"],
)
def test_unparseable_number_or_nesting_exits_3(tmp_path, text, message):
    path = tmp_path / "m.jsonl"
    path.write_text(text + "\n")
    code, out, err = run_cli(["validate", "--metadata", str(path)])
    assert (code, out) == (3, "")
    assert f"{path}: line 1: {message}" in err


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
        ],
        ids=["negative-k", "string-k", "bool-k", "string-lambda", "lambda-above-1",
             "fractional-top-n", "zero-beta", "huge-int-beta"],
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
         ("[" * 100_000, "config parse error: maximum recursion depth exceeded")],
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
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_orjson_unloaded(self):
        # only the JSONL embedding loader imports it, when it runs
        code = "import sys, ctxforge.cli; print('orjson' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

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
