"""Acceptance suite: one test per contract, one pass/fail line each.

Run ``pytest -v tests/test_acceptance.py`` — each criterion reports as a
single PASSED/FAILED line; with ``-s`` every criterion also prints its
measured numbers.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import expit

from ctxforge import capm, fusion, intent, metrics
from ctxforge.cli import main as cli_main
from ctxforge.fusion import CandidatePool, brute_force_map, build_dpp_factor, greedy_dpp_select
from ctxforge.records import Instance, MetadataRecord, ShotCurve

from test_cli import child_env
from test_intent import naive_eval, random_rule, random_scene


def _report(line: str) -> None:
    print(line)


# ---------------------------------------------------------------------------
# 1. greedy selection agrees with the determinant-ratio oracle


def test_a01_greedy_matches_determinant_ratio_oracle_500_instances():
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    checked_steps = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 7))
        phi = rng.standard_normal((n, d))
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        scores = rng.uniform(-0.05, 0.05, size=n)
        pool = CandidatePool(
            ids=tuple(f"c{i}" for i in range(n)), phi=phi, scores=scores, beta=8.0
        )
        factor = build_dpp_factor(pool)
        k = min(int(rng.integers(1, 5)), n)
        selected, gains = greedy_dpp_select(factor, k, return_gains=True)

        kernel = factor.kernel()
        chosen: list[int] = []
        det_prev = 1.0
        for step_idx, picked in enumerate(selected):
            best_j, best_ratio = -1, -np.inf
            for j in range(n):
                if j in chosen:
                    continue
                idx = chosen + [j]
                ratio = np.linalg.det(kernel[np.ix_(idx, idx)]) / det_prev
                if ratio > best_ratio:
                    best_j, best_ratio = j, ratio
            assert picked == best_j, f"step {step_idx}: greedy {picked} vs oracle {best_j}"
            chosen.append(best_j)
            det_prev = np.linalg.det(kernel[np.ix_(chosen, chosen)])
            checked_steps += 1
        if selected:
            direct = np.linalg.det(kernel[np.ix_(selected, selected)])
            product = float(np.prod(gains))
            assert product == pytest.approx(direct, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"
    _report(f"PASS 01 greedy==oracle on 500 instances ({checked_steps} steps, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. worked three-candidate example


def test_a02_three_candidate_worked_example():
    s = 2**-0.5
    phi = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
    q = np.array([1.0, 0.9, 1.2])
    pool = CandidatePool(ids=("a", "b", "c"), phi=phi, scores=np.log(q) / 8.0, beta=8.0)
    factor = build_dpp_factor(pool)
    selected, gains = greedy_dpp_select(factor, 2, return_gains=True)
    assert selected == [2, 0]
    assert float(np.prod(gains)) == pytest.approx(0.72, abs=1e-9)
    subset, det = brute_force_map(factor, 2)
    assert subset == (0, 1)
    assert det == pytest.approx(0.81, abs=1e-9)
    _report("PASS 02 worked example: greedy [2,0] det 0.72; exhaustive (0,1) det 0.81")


# ---------------------------------------------------------------------------
# 3. fused similarity contract


def test_a03_fusion_default_identity_and_symmetry():
    assert fusion.DEFAULT_LAMBDA == 0.5
    assert fusion.FusionConfig().lam == 0.5
    rng = np.random.default_rng(3)
    v = rng.standard_normal(6)
    t = rng.standard_normal(4)
    assert fusion.fused_score(v, t, v, t) == pytest.approx(1.0, abs=1e-12)
    worst = 0.0
    for _ in range(1000):
        qv, cv = rng.standard_normal((2, 6))
        qt, ct = rng.standard_normal((2, 4))
        lam = float(rng.uniform(0, 1))
        ab = fusion.fused_score(qv, qt, cv, ct, lam)
        ba = fusion.fused_score(cv, ct, qv, qt, lam)
        worst = max(worst, abs(ab - ba))
    assert worst < 1e-12
    _report(f"PASS 03 fusion: lambda=0.5 default, identity=1.0, swap symmetry (max diff {worst:.1e})")


# ---------------------------------------------------------------------------
# 4. rule language: fixpoint, oracle agreement, crafted conjunction


def test_a04_rule_fixpoint_and_evaluator_oracle():
    rng = np.random.default_rng(44)
    for i in range(1000):
        rule = random_rule(rng)
        printed = intent.pretty_print(rule)
        assert intent.parse_rule(printed) == rule, printed

    rng = np.random.default_rng(45)
    disagreements = 0
    for i in range(1000):
        rule = random_rule(rng)
        meta = random_scene(rng, f"s{i}")
        if intent.evaluate(rule, meta) != naive_eval(rule, meta):
            disagreements += 1
    assert disagreements == 0

    conjunction = intent.parse_rule('exists(category == "woman" and clothing == "red")')

    def scene_with(instances):
        return MetadataRecord(scene_id="x", instances=tuple(instances), scene_attributes={}, scores={})

    woman_in_red = Instance(category="woman", attributes={"clothing": "red"}, bbox=(0.1, 0.1, 0.5, 0.9))
    woman_in_blue = Instance(category="woman", attributes={"clothing": "blue"}, bbox=(0.1, 0.1, 0.5, 0.9))
    man_in_red = Instance(category="man", attributes={"clothing": "red"}, bbox=(0.5, 0.1, 0.9, 0.9))
    assert intent.evaluate(conjunction, scene_with([woman_in_red])) is True
    assert intent.evaluate(conjunction, scene_with([woman_in_blue, man_in_red])) is False
    assert intent.evaluate(conjunction, scene_with([])) is False
    _report("PASS 04 rules: 1000-AST fixpoint, 1000-pair oracle agreement, crafted conjunction")


# ---------------------------------------------------------------------------
# 5. gated output starts at the near-identity point


def test_a05_initialization_identity_across_shot_counts():
    hyper = capm.CapmHyper(d_b=12, d_p=8, K=2, r=2, heads=2)
    rng = np.random.default_rng(55)
    params = capm.init_params(hyper, rng)
    h = rng.standard_normal((5, hyper.d_b))
    y = rng.standard_normal((5, hyper.d_b))

    def demo_set(n):
        out = []
        for _ in range(n):
            out.append((rng.standard_normal((6, hyper.d_b)), ["user"] * 3 + ["assistant"] * 3))
        return out

    outputs = []
    for n in (0, 1, 2, 4, 8):
        y_prime, _ = capm.capm_forward(demo_set(n), h, y, params, hyper)
        outputs.append(y_prime)
    reference = expit(4.0) * y
    for out in outputs:
        np.testing.assert_allclose(out, reference, atol=1e-6)
    for out in outputs[1:]:
        np.testing.assert_allclose(out, outputs[0], atol=1e-12)
    _report("PASS 05 init identity: shots {0,1,2,4,8} agree to 1e-12 and equal sigmoid(4)*y to 1e-6")


# ---------------------------------------------------------------------------
# 6. analytic gradients vs central finite differences


def test_a06_gradient_fidelity_within_budget():
    hyper = capm.CapmHyper(d_b=12, d_p=8, K=2, r=2, heads=2)
    rng = np.random.default_rng(66)
    params = capm.random_params(hyper, rng)
    h = rng.standard_normal((5, hyper.d_b))
    y = rng.standard_normal((5, hyper.d_b))
    demos = [
        (rng.standard_normal((6, hyper.d_b)), ["user"] * 3 + ["assistant"] * 3) for _ in range(2)
    ]
    grad_out = rng.standard_normal(y.shape)
    start = time.perf_counter()
    report = capm.gradient_check(params, hyper, demos, h, y, grad_out, step=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    assert report.max_rel_err < 1e-4, dict(
        sorted(report.per_tensor.items(), key=lambda kv: -kv[1])[:5]
    )
    assert elapsed < 60.0, f"took {elapsed:.1f}s (budget 60s)"
    _report(f"PASS 06 gradients: max_rel_err {report.max_rel_err:.2e} < 1e-4 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. demo order cannot matter


def test_a07_demo_order_invariance_100_parameterizations():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        hyper = capm.CapmHyper(
            d_b=int(rng.integers(4, 13)),
            d_p=2 * int(rng.integers(2, 5)),
            K=int(rng.integers(1, 3)),
            r=int(rng.integers(1, 3)),
            heads=2,
        )
        params = capm.random_params(hyper, rng)
        n = int(rng.integers(2, 6))
        demos = []
        for _ in range(n):
            l_len = int(rng.integers(2, 6))
            n_user = max(1, l_len // 2)
            segs = ["user"] * n_user + ["assistant"] * (l_len - n_user)
            demos.append((rng.standard_normal((l_len, hyper.d_b)), segs))
        h = rng.standard_normal((3, hyper.d_b))
        y = rng.standard_normal((3, hyper.d_b))
        out, _ = capm.capm_forward(demos, h, y, params, hyper)
        perm = rng.permutation(n)
        out_perm, _ = capm.capm_forward([demos[i] for i in perm], h, y, params, hyper)
        worst = max(worst, float(np.abs(out_perm - out).max()))
    assert worst < 1e-9
    _report(f"PASS 07 demo-order invariance over 100 parameterizations (max diff {worst:.1e})")


# ---------------------------------------------------------------------------
# 8. routing contracts over 1000 random pools


def test_a08_routing_rows_normalized_and_tau_inside_bounds():
    rng = np.random.default_rng(88)
    hyper = capm.CapmHyper(d_b=8, d_p=6, K=1, r=1, heads=2)
    params = capm.random_params(hyper, rng)
    worst_rowsum = 0.0
    for trial in range(1000):
        if trial % 50 == 0:
            params = capm.random_params(hyper, rng)
        n = int(rng.integers(1, 5))
        demos = [
            (rng.standard_normal((4, hyper.d_b)), ["user", "user", "assistant", "assistant"])
            for _ in range(n)
        ]
        h = rng.standard_normal((3, hyper.d_b))
        y = rng.standard_normal((3, hyper.d_b))
        _, trace = capm.capm_forward(demos, h, y, params, hyper)
        worst_rowsum = max(worst_rowsum, float(np.abs(trace.weights.sum(axis=1) - 1.0).max()))
        assert hyper.tau_min < trace.tau < hyper.tau_max
    assert worst_rowsum < 1e-6
    _report(f"PASS 08 routing: 1000 pools, row sums within {worst_rowsum:.1e}, tau strictly inside bounds")


# ---------------------------------------------------------------------------
# 9. efficiency metric fixtures and properties


def test_a09_efficiency_gold_values_and_properties():
    step = ShotCurve(shots=(0, 1, 2, 4, 8), values=(10.0, 20.0, 20.0, 20.0, 20.0))
    assert metrics.icl_efficiency(step) == 9.375  # exact
    linear = ShotCurve(shots=(0, 1, 2, 4, 8), values=(3.0, 4.0, 5.0, 7.0, 11.0))
    assert metrics.icl_efficiency(linear) == 4.0  # exact
    flat = ShotCurve(shots=(0, 1, 2), values=(7.0, 7.0, 7.0))
    assert metrics.icl_efficiency(flat) == 0.0

    rng = np.random.default_rng(99)
    for _ in range(1000):
        extra = np.unique(rng.integers(1, 30, size=int(rng.integers(1, 6))))
        shots = (0, *map(int, extra))
        values = rng.uniform(1.0, 100.0, size=len(shots))
        base = ShotCurve(shots=shots, values=tuple(values))
        eff = metrics.icl_efficiency(base)
        shift = float(rng.uniform(-50, 50))
        shifted = ShotCurve(shots=shots, values=tuple(v + shift for v in values))
        assert metrics.icl_efficiency(shifted) == pytest.approx(eff, rel=1e-9, abs=1e-9)
        scale = float(rng.uniform(0.1, 3.0))
        scaled_vals = tuple(values[0] + scale * (v - values[0]) for v in values)
        scaled = ShotCurve(shots=shots, values=scaled_vals)
        assert metrics.icl_efficiency(scaled) == pytest.approx(scale * eff, rel=1e-9, abs=1e-9)
    _report("PASS 09 efficiency: 9.375 / 4.0 / 0.0 exact; shift-invariance and delta-linearity x1000")


# ---------------------------------------------------------------------------
# 10. stability, correlation, aggregation


def test_a10_stability_spearman_win_tie_lose():
    clean = ShotCurve(shots=(1, 2, 4, 8), values=(20.0, 30.0, 40.0, 50.0))
    assert metrics.stability_score(clean, clean) == 0.0
    scaled = ShotCurve(shots=clean.shots, values=tuple(0.9 * v for v in clean.values))
    assert metrics.stability_score(clean, scaled) == pytest.approx(10.0, abs=1e-9)

    assert metrics.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    rng = np.random.default_rng(1010)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        outcomes = [("win", "tie", "lose")[i] for i in rng.integers(0, 3, size=n)]
        win, tie, lose = metrics.win_tie_lose(outcomes)
        assert win + tie + lose == pytest.approx(100.0, abs=1e-9)
    _report("PASS 10 stability 0%/10%, spearman 0.8, win/tie/lose sums to 100 x1000")


# ---------------------------------------------------------------------------
# 11. command-line determinism and exit codes


def _write_corpus(tmp_path):
    rng = np.random.default_rng(0)
    emb = tmp_path / "corpus.jsonl"
    with open(emb, "w") as f:
        for i in range(1000):
            for modality, dim in (("visual", 8), ("text", 4)):
                vec = [float(x) for x in rng.standard_normal(dim)]
                f.write(
                    json.dumps({"id": f"n{i:04d}", "modality": modality, "dim": dim, "values": vec})
                    + "\n"
                )
    queries = tmp_path / "queries.jsonl"
    queries.write_text(json.dumps({"id": "n0000"}) + "\n" + json.dumps({"id": "n0500"}) + "\n")
    return emb, queries


def test_a11_cli_determinism_and_exit_codes(tmp_path):
    emb, queries = _write_corpus(tmp_path)
    args = [
        "retrieve", "--mode", "fusion",
        "--embeddings", str(emb), "--queries", str(queries),
        "--k", "6", "--top-n", "100",
    ]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ctxforge.cli", *args], capture_output=True, text=True,
            env=child_env(),
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.splitlines()) == 2

    import contextlib
    import io

    def code_of(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli_main(argv)

    # success
    assert code_of(["validate", "--embeddings", str(emb)]) == 0
    # usage errors
    assert code_of(["retrieve", "--mode", "intent", "--metadata", str(emb)]) == 2
    assert code_of(["no-such-command"]) == 2
    # data/validation errors
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert code_of(["validate", "--metadata", str(bad)]) == 3
    meta = tmp_path / "meta.jsonl"
    meta.write_text(
        json.dumps({"scene_id": "s", "instances": [], "scene_attributes": {}, "scores": {}}) + "\n"
    )
    assert code_of(["retrieve", "--mode", "intent", "--metadata", str(meta), "--rule", "((("]) == 3
    # numeric guard
    hot = tmp_path / "hot.jsonl"
    hot.write_text(
        "".join(
            json.dumps(
                {"scene_id": f"n{i:04d}", "instances": [], "scene_attributes": {}, "scores": {"s": 500.0}}
            )
            + "\n"
            for i in range(1000)
        )
    )
    small_q = tmp_path / "small_q.jsonl"
    small_q.write_text(json.dumps({"id": "n0000"}) + "\n")
    assert (
        code_of(
            [
                "retrieve", "--mode", "fusion",
                "--embeddings", str(emb), "--queries", str(small_q),
                "--metadata", str(hot), "--s-field", "s", "--k", "2", "--top-n", "3",
            ]
        )
        == 4
    )
    _report("PASS 11 CLI: byte-identical reruns; exit codes 0/2/3/4 verified")
