"""Seeded synthetic inputs for the benchmark workloads.

Every generator draws from its own ``numpy`` stream derived from the workload
seed and a fixed tag, so the inputs of one kind of work do not shift when the
size of another changes.  Each generator writes the files the program reads
and returns the ground truth the checks need (raw vectors, rule predicates,
curve values); the program only ever sees the files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

TAXONOMY_ORDER = (
    "Perception",
    "Imitation",
    "Conception",
    "Deduction",
    "Analogy",
    "Discernment",
)


def stream(seed: int, tag: str) -> np.random.Generator:
    """Independent generator for one input kind: same seed and tag, same draws."""
    return np.random.default_rng(np.random.SeedSequence([seed, *tag.encode("utf-8")]))


def _write_lines(path: str, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj))
            fh.write("\n")


# ---------------------------------------------------------------------------
# fusion retrieval: embedding store + query list


@dataclass
class FusionInputs:
    store: str
    ids: list[str]  # index order == ascending id order
    visual: np.ndarray  # (n, d) raw vectors, exactly as written
    text: np.ndarray
    query_idx: list[int]
    k: int
    top_n: int
    argv: list[str]


def make_fusion(workdir: str, seed: int, tag: str, items: int, dim: int, queries: int,
                k: int, top_n: int, clusters: int = 24) -> FusionInputs:
    """Clustered two-modality store: each item is its cluster centre plus noise
    in both modalities, so fused scores spread like those of real neighbours."""
    rng = stream(seed, f"fusion/{tag}")
    assign = rng.integers(0, clusters, size=items)
    vis_c = rng.standard_normal((clusters, dim))
    txt_c = rng.standard_normal((clusters, dim))
    visual = vis_c[assign] + 0.9 * rng.standard_normal((items, dim))
    text = txt_c[assign] + 1.1 * rng.standard_normal((items, dim))
    ids = [f"it{i:06d}" for i in range(items)]
    store = os.path.join(workdir, f"store-{tag}.jsonl")
    _write_lines(
        store,
        (
            {"id": ids[i], "modality": m, "dim": dim, "values": vec[i].tolist()}
            for i in range(items)
            for m, vec in (("visual", visual), ("text", text))
        ),
    )
    query_idx = sorted(int(i) for i in rng.choice(items, size=queries, replace=False))
    qpath = os.path.join(workdir, f"queries-{tag}.jsonl")
    _write_lines(qpath, ({"id": ids[i]} for i in query_idx))
    argv = ["retrieve", "--mode", "fusion", "--embeddings", store, "--queries", qpath,
            "--k", str(k), "--top-n", str(top_n)]
    return FusionInputs(store, ids, visual, text, query_idx, k, top_n, argv)


# ---------------------------------------------------------------------------
# intent rules: scene corpus + rules with independent predicates

CATEGORIES = ("woman", "man", "dog", "cat", "car", "tree", "chair", "cup")
COLORS = ("red", "blue", "green", "black", "white", "yellow")
SIZES = ("small", "medium", "large")
PLACES = ("street", "kitchen", "park", "office", "beach")
TIMES = ("day", "night")
ORDER_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _num_compare(value: Any, op: str, lit: float) -> bool:
    # the documented semantics: absent -> only != holds; non-numeric -> false
    if value is None:
        return op == "!="
    try:
        v = float(value)
    except ValueError:
        return False
    return {"<": v < lit, "<=": v <= lit, ">": v > lit, ">=": v >= lit,
            "==": v == lit, "!=": v != lit}[op]


def _str_compare(value: Any, op: str, lit: str) -> bool:
    if value is None:
        return op == "!="
    return value == lit if op == "==" else value != lit


def _make_scene(rng: np.random.Generator, i: int) -> dict:
    instances = []
    for _ in range(int(rng.integers(0, 5))):
        x0, x1 = sorted(np.round(rng.uniform(0, 1, 2), 3).tolist())
        y0, y1 = sorted(np.round(rng.uniform(0, 1, 2), 3).tolist())
        attrs = {}
        if rng.random() < 0.85:
            attrs["color"] = COLORS[int(rng.integers(len(COLORS)))]
        if rng.random() < 0.7:
            attrs["size"] = SIZES[int(rng.integers(len(SIZES)))]
        roll = rng.random()
        if roll < 0.75:
            attrs["count"] = str(int(rng.integers(1, 9)))
        elif roll < 0.85:
            attrs["count"] = "many"  # non-numeric: numeric predicates are false
        instances.append({"category": CATEGORIES[int(rng.integers(len(CATEGORIES)))],
                          "attributes": attrs, "bbox": [x0, y0, x1, y1]})
    scene_attrs = {}
    if rng.random() < 0.9:
        scene_attrs["place"] = PLACES[int(rng.integers(len(PLACES)))]
    if rng.random() < 0.8:
        scene_attrs["time"] = TIMES[int(rng.integers(len(TIMES)))]
    if rng.random() < 0.8:
        scene_attrs["lighting"] = f"{rng.uniform(0, 1):.2f}"
    return {"scene_id": f"sc{i:06d}", "instances": instances,
            "scene_attributes": scene_attrs, "scores": {"quality": float(rng.uniform(0, 1))}}


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _instance_atom(rng: np.random.Generator) -> tuple[str, Callable[[dict], bool]]:
    """One predicate inside ``exists``: rule text plus the matching test."""
    kind = int(rng.integers(5))
    if kind < 3:
        field, vocab = (("category", CATEGORIES), ("color", COLORS), ("size", SIZES))[kind]
        op, lit = _pick(rng, ("==", "!=")), _pick(rng, vocab)
        if field == "category":
            return f'category {op} "{lit}"', lambda inst: _str_compare(inst["category"], op, lit)
        return f'{field} {op} "{lit}"', lambda inst: _str_compare(inst["attributes"].get(field), op, lit)
    if kind == 3:
        op, lit = _pick(rng, ORDER_OPS), float(rng.integers(1, 9))
        return f"count {op} {lit!r}", lambda inst: _num_compare(inst["attributes"].get("count"), op, lit)
    x0, x1 = sorted(np.round(rng.uniform(0, 1, 2), 2).tolist())
    y0, y1 = sorted(np.round(rng.uniform(0, 1, 2), 2).tolist())

    def within(inst):
        bx0, by0, bx1, by1 = inst["bbox"]
        cx, cy = (bx0 + bx1) / 2.0, (by0 + by1) / 2.0
        return x0 <= cx <= x1 and y0 <= cy <= y1

    return f"bbox within box({x0!r}, {y0!r}, {x1!r}, {y1!r})", within


def _scene_atom(rng: np.random.Generator) -> tuple[str, Callable[[dict], bool]]:
    """One predicate on ``scene_attributes``."""
    kind = int(rng.integers(3))
    if kind < 2:
        field, vocab = (("place", PLACES), ("time", TIMES))[kind]
        op, lit = _pick(rng, ("==", "!=")), _pick(rng, vocab)
        return f'{field} {op} "{lit}"', lambda s: _str_compare(s["scene_attributes"].get(field), op, lit)
    op, lit = _pick(rng, ORDER_OPS), round(float(rng.uniform(0, 1)), 2)
    return f"lighting {op} {lit!r}", lambda s: _num_compare(s["scene_attributes"].get("lighting"), op, lit)


# Rule shapes are fixed and only the atoms are drawn, so the cost of
# evaluating a rule varies little from seed to seed.


def _short_rule(rng: np.random.Generator) -> tuple[str, Callable[[dict], bool]]:
    (ta, a), (tb, b), (tc, c), (td, d) = (_scene_atom(rng), _instance_atom(rng),
                                          _instance_atom(rng), _scene_atom(rng))
    text = f"({ta} and exists({tb} and {tc})) or not {td}"
    return text, lambda s: (a(s) and any(b(i) and c(i) for i in s["instances"])) or not d(s)


def _long_rule(rng: np.random.Generator, clauses: int) -> tuple[str, Callable[[dict], bool]]:
    """Disjunction of conjunctions: long text, long evaluation."""
    texts, tests = [], []
    for _ in range(clauses):
        (ta, a), (tb, b) = _scene_atom(rng), _scene_atom(rng)
        (tc, c), (td, d), (te, e) = _instance_atom(rng), _instance_atom(rng), _instance_atom(rng)
        texts.append(f"({ta} and not {tb} and exists({tc} and ({td} or {te})))")
        tests.append((a, b, c, d, e))

    def test(s):
        return any(a(s) and not b(s) and any(c(i) and (d(i) or e(i)) for i in s["instances"])
                   for a, b, c, d, e in tests)

    return " or ".join(texts), test


@dataclass
class RuleCase:
    text: str
    predicate: Callable[[dict], bool]
    rule_file: str
    argv: list[str]


@dataclass
class RulesInputs:
    metadata: str
    scenes: list[dict]
    rules: list[RuleCase]


def make_rules(workdir: str, seed: int, tag: str, scenes: int, short: int, long: int,
               long_clauses: int) -> RulesInputs:
    rng = stream(seed, f"rules/{tag}")
    corpus = [_make_scene(rng, i) for i in range(scenes)]
    meta = os.path.join(workdir, f"scenes-{tag}.jsonl")
    _write_lines(meta, corpus)
    made = [_short_rule(rng) for _ in range(short)]
    made += [_long_rule(rng, long_clauses) for _ in range(long)]
    rules = []
    for j, (text, fn) in enumerate(made):
        rule_file = os.path.join(workdir, f"rule-{tag}-{j}.txt")
        with open(rule_file, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        # --k at the corpus size so the episode lists every match for the check
        argv = ["retrieve", "--mode", "intent", "--metadata", meta, "--rule-file", rule_file,
                "--k", str(scenes), "--episode-id", f"rule-{j}"]
        rules.append(RuleCase(text, fn, rule_file, argv))
    return RulesInputs(meta, corpus, rules)


# ---------------------------------------------------------------------------
# eval reports: result curves, transfer pair, human outcomes

PERTURBATIONS = ("random_replace", "reverse_order", "interference")
CLEAN_GRID = (0, 1, 2, 4, 8)
OUTCOMES = ("win", "tie", "lose")
JUDGE_METRICS = ("accuracy", "helpfulness", "style")


@dataclass
class ReportInputs:
    rows: list[dict]  # results.jsonl rows, in file order
    base_rows: list[dict]
    variant_rows: list[dict]
    argvs: dict[str, list[str]]
    rows_per_round: int


def make_reports(workdir: str, seed: int, tag: str, models: int) -> ReportInputs:
    rng = stream(seed, f"reports/{tag}")
    tasks = [(tax, f"{tax.lower()}-{j}") for tax in TAXONOMY_ORDER for j in range(2)]
    rows, base_rows, variant_rows = [], [], []
    for m in range(models):
        model = f"model-{m:03d}"
        for tax, task in tasks:
            for modality in ("und", "gen"):
                p0 = float(rng.uniform(15, 45))
                gains = np.cumsum(rng.uniform(-2, 6, size=len(CLEAN_GRID) - 1))
                clean = [p0] + [float(max(1.0, p0 + g)) for g in gains]
                common = {"model": model, "task": task, "taxonomy": tax, "modality": modality}
                primary = float(rng.uniform(0, 100))

                def extras():
                    return {"primary": primary + float(rng.normal(0, 20)),
                            "auxiliary": float(rng.uniform(0, 100)) * 0.3 + primary * 0.7,
                            "outcome": OUTCOMES[int(rng.integers(3))],
                            "metric": JUDGE_METRICS[int(rng.integers(3))]}

                rows.append({**common, "shots": list(CLEAN_GRID), "values": clean,
                             "perturbation": "clean", **extras()})
                for pert in PERTURBATIONS:
                    # one perturbation in three starts at one shot, exercising grid alignment
                    grid = CLEAN_GRID[1:] if pert == "interference" else CLEAN_GRID
                    vals = [float(clean[CLEAN_GRID.index(s)] * rng.uniform(0.8, 1.1)) for s in grid]
                    rows.append({**common, "shots": list(grid), "values": vals,
                                 "perturbation": pert, **extras()})
                base_rows.append({**common, "shots": list(CLEAN_GRID), "values": clean})
                variant_rows.append({**common, "shots": list(CLEAN_GRID),
                                     "values": [float(v * rng.uniform(0.85, 1.2)) for v in clean]})
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    results = os.path.join(workdir, f"results-{tag}.jsonl")
    base = os.path.join(workdir, f"base-{tag}.jsonl")
    variant = os.path.join(workdir, f"variant-{tag}.jsonl")
    _write_lines(results, rows)
    _write_lines(base, base_rows)
    _write_lines(variant, variant_rows)
    argvs = {
        "curves": ["eval", "curves", "--results", results],
        "stability": ["eval", "stability", "--results", results],
        "align": ["eval", "align", "--results", results],
        "transfer": ["eval", "transfer", "--base", base, "--variant", variant],
        "human": ["eval", "human", "--results", results],
    }
    rows_per_round = 4 * len(rows) + len(base_rows) + len(variant_rows)
    return ReportInputs(rows, base_rows, variant_rows, argvs, rows_per_round)


# ---------------------------------------------------------------------------
# CAPM: parameters file + step inputs

CAPM_LARGE = {"d_b": 256, "d_p": 64, "K": 4, "r": 4, "heads": 4}
CAPM_DEMOS, CAPM_DEMO_LEN, CAPM_T = 16, 32, 256


@dataclass
class CapmInputs:
    params_file: str
    hyper_kwargs: dict
    demos: list[tuple[np.ndarray, list[str]]]
    h: np.ndarray
    y: np.ndarray
    grad_out: np.ndarray
    gradcheck_argv: list[str]


def make_capm(workdir: str, seed: int) -> CapmInputs:
    """Large-size step inputs; the parameters are written with ``save_params``
    by the caller's set-up, so only their draw happens here."""
    rng = stream(seed, "capm")
    d_b = CAPM_LARGE["d_b"]
    n_user = CAPM_DEMO_LEN // 2
    segments = ["user"] * n_user + ["assistant"] * (CAPM_DEMO_LEN - n_user)
    demos = [(rng.standard_normal((CAPM_DEMO_LEN, d_b)), list(segments)) for _ in range(CAPM_DEMOS)]
    h = rng.standard_normal((CAPM_T, d_b))
    y = rng.standard_normal((CAPM_T, d_b))
    grad_out = rng.standard_normal((CAPM_T, d_b))
    gradcheck_seed = int(rng.integers(0, 2**31 - 1))
    return CapmInputs(
        params_file=os.path.join(workdir, "capm-params.bin"),
        hyper_kwargs=dict(CAPM_LARGE),
        demos=demos,
        h=h,
        y=y,
        grad_out=grad_out,
        gradcheck_argv=["capm", "gradcheck", "--seed", str(gradcheck_seed)],
    )
