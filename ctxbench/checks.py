"""Output checks: references computed apart from the program, and properties
the method must have.  Never a stored copy of an earlier output.

Every ``check_*`` function returns a list of error strings; an empty list means
the output is correct.  The functions take the program's raw output (CLI
stdout text or arrays), so the self-test can feed them corrupted copies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from inputs import TAXONOMY_ORDER, FusionInputs, ReportInputs, RuleCase

# A reference query whose top-N boundary gap or best-vs-second gain gap falls
# below these tolerances is a near-tie: two exact implementations may order
# it differently, so it is counted as a tie rather than checked shot by shot.
SCORE_TIE_TOL = 1e-9  # absolute, on fused scores in [-1, 1]
GAIN_TIE_REL_TOL = 1e-9  # relative to the best conditional gain of the step
RESIDUAL_EPS = 1e-12  # the documented floor below which selection stops

# The CLI's fusion defaults, which every fusion workload runs at.
FUSION_LAMBDA = 0.5
FUSION_BETA = 8.0

REPORT_REL_TOL = 1e-9
CAPM_ORDER_ATOL = 1e-9
CAPM_FD_REL_TOL = 1e-6


def check_cli(code: int, stderr: str) -> list[str]:
    errors = []
    if code != 0:
        errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
    if "Traceback" in stderr:
        errors.append("traceback on stderr")
    return errors


# ---------------------------------------------------------------------------
# fusion retrieval


@dataclass
class FusionRef:
    shots: dict[str, list[str]]
    ties: set[str]


def fusion_reference(fin: FusionInputs) -> FusionRef:
    """Dense recomputation: fused cosine scores, top-N by (score desc, id asc),
    then greedy MAP with explicit conditional gains
    ``diag(L) - L_xY L_Y^-1 L_Yx`` on ``L = B B^T``, ``B = exp(beta s) phi``."""
    vis = fin.visual / np.linalg.norm(fin.visual, axis=1, keepdims=True)
    txt = fin.text / np.linalg.norm(fin.text, axis=1, keepdims=True)
    n_items = len(fin.ids)
    shots: dict[str, list[str]] = {}
    ties: set[str] = set()
    for q in fin.query_idx:
        qid = fin.ids[q]
        scores = FUSION_LAMBDA * (vis @ vis[q]) + (1.0 - FUSION_LAMBDA) * (txt @ txt[q])
        cand = np.array([i for i in range(n_items) if i != q])
        order = cand[np.lexsort((cand, -scores[cand]))]
        top = order[: fin.top_n]
        if len(order) > fin.top_n and scores[top[-1]] - scores[order[fin.top_n]] < SCORE_TIE_TOL:
            ties.add(qid)
        b = np.exp(FUSION_BETA * scores[top])[:, None] * vis[top]
        kernel = b @ b.T
        diag = np.diag(kernel).copy()
        picked: list[int] = []
        for _ in range(min(fin.k, len(top))):
            if picked:
                l_xy = kernel[:, picked]
                l_yy = kernel[np.ix_(picked, picked)]
                gains = diag - np.einsum("ij,ij->i", l_xy, np.linalg.solve(l_yy, l_xy.T).T)
            else:
                gains = diag.copy()
            gains[picked] = -np.inf
            ranked = np.argsort(-gains, kind="stable")  # ties to the smallest index
            best = int(ranked[0])
            if len(top) - len(picked) > 1:
                if gains[best] - gains[ranked[1]] <= GAIN_TIE_REL_TOL * abs(gains[best]):
                    ties.add(qid)
            if abs(gains[best] - RESIDUAL_EPS) <= GAIN_TIE_REL_TOL * max(abs(gains[best]), RESIDUAL_EPS):
                ties.add(qid)
            if gains[best] < RESIDUAL_EPS:
                break
            picked.append(best)
        shots[qid] = [fin.ids[top[j]] for j in picked]
    return FusionRef(shots, ties)


def check_fusion(stdout: str, fin: FusionInputs, ref: FusionRef) -> list[str]:
    errors = []
    lines = stdout.splitlines()
    if len(lines) != len(fin.query_idx):
        return [f"fusion: {len(lines)} episodes for {len(fin.query_idx)} queries"]
    for line, q in zip(lines, fin.query_idx):
        qid = fin.ids[q]
        ep = json.loads(line)
        if ep.get("episode_id") != qid:
            errors.append(f"fusion: episode {ep.get('episode_id')!r} where {qid!r} was due")
            continue
        shots = [s["id"] for s in ep["shots"]]
        if len(shots) != fin.k:
            errors.append(f"fusion {qid}: {len(shots)} shots, expected k={fin.k}")
        if len(set(shots)) != len(shots):
            errors.append(f"fusion {qid}: repeated shot")
        if qid in shots:
            errors.append(f"fusion {qid}: the query is among its own shots")
        if qid not in ref.ties and shots != ref.shots[qid]:
            errors.append(f"fusion {qid}: shots {shots} differ from reference {ref.shots[qid]}")
    return errors


# ---------------------------------------------------------------------------
# intent rules


def expected_matches(case: RuleCase, scenes: list[dict]) -> list[str]:
    return [s["scene_id"] for s in scenes if case.predicate(s)]


def check_rule(stdout: str, case: RuleCase, expected: list[str], parse_rule, pretty_print) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"rule: {len(lines)} episodes, expected 1"]
    ep = json.loads(lines[0])
    errors = []
    got = [s["id"] for s in ep["shots"]]
    if got != expected:
        errors.append(f"rule {case.rule_file}: {len(got)} matches differ from the predicate's {len(expected)}")
    ast = parse_rule(case.text)
    if parse_rule(pretty_print(ast)) != ast:
        errors.append(f"rule {case.rule_file}: parse(pretty_print(ast)) != ast")
    if parse_rule(ep["query"]["instruction"]) != ast:
        errors.append(f"rule {case.rule_file}: echoed rule does not parse to the input rule")
    return errors


# ---------------------------------------------------------------------------
# eval reports


def reports_reference(rin: ReportInputs) -> dict[str, list[dict]]:
    """Every report recomputed with numpy/scipy from the generated rows."""
    import scipy.stats  # here, so the run's peak RSS is not the benchmark's imports

    clean = [r for r in rin.rows if r["perturbation"] == "clean"]
    curves = []
    for r in sorted(clean, key=lambda r: (TAXONOMY_ORDER.index(r["taxonomy"]), r["task"], r["model"], r["modality"])):
        shots, vals = np.array(r["shots"], float), np.array(r["values"])
        curves.append({"model": r["model"], "task": r["task"], "taxonomy": r["taxonomy"],
                       "modality": r["modality"], "zero_shot": vals[0], "peak": vals.max(),
                       "efficiency": np.trapezoid(vals - vals[0], shots) / shots[-1]})

    by_key = {(r["model"], r["task"], r["modality"]): r for r in clean}
    stability = []
    for r in rin.rows:
        if r["perturbation"] == "clean":
            continue
        base = by_key[(r["model"], r["task"], r["modality"])]
        grid = np.array(r["shots"], float)
        b = np.array([base["values"][base["shots"].index(s)] for s in r["shots"]])
        p = np.array(r["values"])
        stability.append({"model": r["model"], "task": r["task"], "modality": r["modality"],
                          "perturbation": r["perturbation"],
                          "deviation_percent": 100.0 * np.trapezoid(np.abs(b - p), grid) / np.trapezoid(b, grid)})

    groups: dict[str, tuple[list, list]] = {}
    for r in rin.rows:
        groups.setdefault(r["task"], ([], []))
        groups[r["task"]][0].append(r["primary"])
        groups[r["task"]][1].append(r["auxiliary"])
    align = [{"task": t, "n": len(groups[t][0]),
              "pearson": scipy.stats.pearsonr(*groups[t]).statistic,
              "spearman": scipy.stats.spearmanr(*groups[t]).statistic} for t in sorted(groups)]

    var_by_key = {(r["model"], r["task"], r["modality"]): r for r in rin.variant_rows}
    per_tax: dict[str, list[np.ndarray]] = {}
    for r in rin.base_rows:
        v = var_by_key[(r["model"], r["task"], r["modality"])]
        b = np.array(r["values"])
        per_tax.setdefault(r["taxonomy"], []).append(100.0 * (np.array(v["values"]) - b) / b)
    transfer = [{"taxonomy": t, "relative_change_percent": np.concatenate(per_tax[t]).mean()}
                for t in TAXONOMY_ORDER if t in per_tax]
    transfer.append({"taxonomy": "Average",
                     "relative_change_percent": np.mean([x["relative_change_percent"] for x in transfer])})

    outcomes = np.array([r["outcome"] for r in rin.rows])
    judges = np.array([r["metric"] for r in rin.rows])

    def tally(mask):
        n = int(mask.sum())
        return {o: 100.0 * int((outcomes[mask] == o).sum()) / n for o in ("win", "tie", "lose")}

    human = [{"metric": m, **tally(judges == m)} for m in sorted(set(judges.tolist()))]
    human.append({"metric": "Overall", **tally(np.ones(len(outcomes), bool))})
    return {"curves": curves, "stability": stability, "align": align,
            "transfer": transfer, "human": human}


def _same(got, want) -> bool:
    if isinstance(want, (float, np.floating)) and not isinstance(got, bool):
        return isinstance(got, (int, float)) and math.isclose(got, float(want), rel_tol=REPORT_REL_TOL, abs_tol=REPORT_REL_TOL)
    return got == want


def check_report(name: str, stdout: str, expected: list[dict]) -> list[str]:
    got = [json.loads(line) for line in stdout.splitlines()]
    if len(got) != len(expected):
        return [f"eval {name}: {len(got)} rows, expected {len(expected)}"]
    errors = []
    for i, (g, w) in enumerate(zip(got, expected)):
        if set(g) != set(w):
            errors.append(f"eval {name} row {i}: keys {sorted(g)} != {sorted(w)}")
            continue
        bad = [k for k in w if not _same(g[k], w[k])]
        if bad:
            errors.append(f"eval {name} row {i}: {bad[0]} = {g[bad[0]]!r}, reference {w[bad[0]]!r}")
    return errors


# ---------------------------------------------------------------------------
# CAPM


def check_capm_order(y_prime: np.ndarray, y_prime_permuted: np.ndarray) -> list[str]:
    worst = float(np.abs(y_prime - y_prime_permuted).max())
    if worst > CAPM_ORDER_ATOL:
        return [f"capm: permuting demos changed the output by {worst:.3e}"]
    return []


def check_capm_init(y_prime: np.ndarray, y: np.ndarray, b2_init: float) -> list[str]:
    if not np.array_equal(y_prime, expit(b2_init) * y):
        worst = float(np.abs(y_prime - expit(b2_init) * y).max())
        return [f"capm: fresh parameters are not sigmoid(b2_init)*y (max diff {worst:.3e})"]
    return []


def check_capm_direction(finite_difference: float, analytic: float) -> list[str]:
    denom = max(abs(finite_difference), abs(analytic), 1e-300)
    err = abs(finite_difference - analytic) / denom
    if err > CAPM_FD_REL_TOL:
        return [f"capm: directional derivative {analytic!r} vs finite difference "
                f"{finite_difference!r} (rel err {err:.2e})"]
    return []


def check_gradcheck(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return [f"gradcheck: {len(lines)} output lines, expected 1"]
    verdict = json.loads(lines[0]).get("verdict")
    return [] if verdict == "PASS" else [f"gradcheck: verdict {verdict!r}"]
