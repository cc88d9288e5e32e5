"""``forge``: command-line front end.

Subcommands: ``retrieve`` (fused or rule-driven demonstration selection),
``filter`` (metadata score filtering), ``eval`` (curve/stability/align/
transfer/human reports), ``capm`` (demo / gradcheck / diagnose), and
``validate`` (episode/embedding/metadata lint).

Conventions: stdout carries only data (JSON lines); human-readable tables and
progress go to stderr.  The table of each ``eval`` report and of ``capm
diagnose`` mirrors the JSON rows written to stdout, one column per field.
``retrieve``, ``filter`` and ``capm`` take a JSON config file (``--config``)
that supplies defaults explicit flags override; the seed falls back to the
``FORGE_SEED`` environment variable.  Exit codes: 0 success, 2 usage,
3 data/validation or out of memory, 4 numeric guard.

Every data stream is written by ``records._write_jsonl``, all of it or
nothing; JSON is decoded and encoded only in ``records``, and numpy is
imported only by ``cmd_capm``, the one command that calls it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from . import __version__
from .errors import NumericGuardError, UsageError, ValidationError
from .records import (
    Demonstration,
    Episode,
    UnknownSubtaskWarning,
    _ENCODER,
    _decode_json,
    _known_labels,
    _read_jsonl,
    _write_jsonl,
    is_container,
    is_finite_number,
    load_embeddings,
    load_episodes,
    load_metadata,
)

if TYPE_CHECKING:
    import numpy as np

    from . import capm

DEFAULT_K = 4
# CAPM sizes; the other CAPM defaults are ``capm.CapmHyper``'s own
DEFAULT_CAPM = {"d_b": 12, "d_p": 8, "K": 2, "r": 2}


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _non_finite_fields(obj: Any, path: str) -> Iterator[str]:
    if isinstance(obj, float) and not math.isfinite(obj):
        yield path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite_fields(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _non_finite_fields(value, f"{path}[{i}]")


def _jsonl(obj: dict[str, Any], report: str) -> str:
    """One strict JSON line: RFC 8259 has no NaN or Infinity, so a
    non-finite value trips the numeric guard instead of reaching stdout."""
    try:
        return _ENCODER.encode(obj)
    except ValueError:
        fields = ", ".join(_non_finite_fields(obj, ""))
        raise NumericGuardError(f"{report}: {fields} is not finite") from None


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    return "\n".join(line(*row).rstrip() for row in [headers, ["-" * w for w in widths], *rows])


def _report(
    report: str,
    rows: Sequence[dict[str, Any]],
    headers: Sequence[str],
    spec: str,
    out: str | None,
) -> int:
    """Write ``rows`` as the data stream, then log the table that mirrors
    them: one column per field in order, a float formatted with ``spec`` and
    any other value with ``str``."""
    _write_jsonl([_jsonl(row, report) for row in rows], out)
    table = [
        [format(v, spec) if isinstance(v, float) else str(v) for v in row.values()]
        for row in rows
    ]
    _log(_format_table(headers, table))
    return 0


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not valid UTF-8 text") from None


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    path = args.config
    if not path:
        return {}
    try:
        cfg = _decode_json(_read_text(path))
    except ValidationError as exc:
        raise ValidationError(f"{path}: config parse error: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return cfg


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_at_least(low: int) -> tuple[str, Any]:
    return f"an integer >= {low}", lambda v: _is_int(v) and v >= low


_POSITIVE = ("a finite number > 0", lambda v: is_finite_number(v) and v > 0)
_NOT_NAN = ("a number that is not NaN", lambda v: _is_number(v) and v == v)  # NaN != NaN
_NON_EMPTY_STRING = ("a non-empty string", lambda v: isinstance(v, str) and v != "")

# The rule of each setting that ``_setting`` resolves: key -> (what a valid
# value is, its test).  The CAPM sizes and schedule are checked by
# ``capm.CapmHyper`` instead, which also checks parameter-file manifests.
_SETTINGS = {
    "k": _int_at_least(1),
    "top_n": _int_at_least(0),
    "lambda": ("a number in [0, 1]", lambda v: _is_number(v) and 0.0 <= v <= 1.0),
    "beta": _POSITIVE,
    "taxonomy": _NON_EMPTY_STRING,
    "subtask": _NON_EMPTY_STRING,
    "episode_id": _NON_EMPTY_STRING,
    "min": _NOT_NAN,
    "max": _NOT_NAN,
    "seed": _int_at_least(0),
    "shots": _int_at_least(0),
    "t_len": _int_at_least(1),
    "l_len": _int_at_least(2),  # one token per segment
    "step": _POSITIVE,
    "tolerance": _POSITIVE,
    "max_shots": _int_at_least(0),
    "rule": ("a string", lambda v: isinstance(v, str)),
}


def _resolve(flag_value: Any, config: dict[str, Any], key: str, default: Any) -> Any:
    """The precedence of every setting: its flag, then the config, then ``default``."""
    return flag_value if flag_value is not None else config.get(key, default)


def _setting(flag_value: Any, config: dict[str, Any], key: str, default: Any = None) -> Any:
    """Resolve ``key`` and exit 2 naming it when the value breaks its rule in
    ``_SETTINGS`` or is text that is not UTF-8.  A setting whose default is
    ``None`` may stay unset.  Flag-only settings pass an empty config."""
    value = _resolve(flag_value, config, key, default)
    if value is None and default is None:
        return None
    what, valid = _SETTINGS[key]
    if not valid(value):
        raise UsageError(f"{key} must be {what}, got {value!r}")
    if isinstance(value, str):  # a lone surrogate: Python's decoding of non-UTF-8 argv bytes
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise UsageError(f"{key} must be UTF-8 text, got {value!r}") from None
    return value


def _env_int(name: str, default: int) -> Any:
    """Environment variable ``name`` as an integer, its text when it is not
    one (for the setting's rule to reject), or ``default`` when it is unset."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        return text


# ---------------------------------------------------------------------------
# retrieve


def _stub_demo(item_id: str) -> Demonstration:
    return Demonstration(id=item_id, image_ref=item_id, instruction="")


def _episode(**fields: Any) -> Episode:
    """An ``Episode`` whose labels ``cmd_retrieve`` checked, and warned about, once."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownSubtaskWarning)
        return Episode(**fields)


def _read_query_ids(path: str) -> list[str]:
    ids: dict[str, None] = {}

    def query_id(obj: Any) -> str:
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str) or not obj["id"]:
            raise ValidationError("expected an object with a non-empty 'id'")
        return obj["id"]

    def add(lineno: int, qid: str) -> None:
        if qid in ids:
            raise ValidationError(f"duplicate query id {qid!r}")
        ids[qid] = None

    _read_jsonl(path, query_id, add)
    return list(ids)


# The taxonomy and subtask of the episodes each retrieve mode emits by default.
_EPISODE_LABELS = {
    "fusion": ("Perception", "Visual Grounding"),
    "intent": ("Conception", "Fast Concept Mapping"),
}


def cmd_retrieve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    k = _setting(args.k, config, "k", DEFAULT_K)
    default_taxonomy, default_subtask = _EPISODE_LABELS[args.mode]
    taxonomy = _setting(args.taxonomy, config, "taxonomy", default_taxonomy)
    subtask = _setting(args.subtask, config, "subtask", default_subtask)
    if not _known_labels(taxonomy, subtask):
        _log(f"retrieve: warning: unknown subtask {subtask!r}")

    if args.mode == "fusion":
        if not args.embeddings or not args.queries:
            raise UsageError("retrieve --mode fusion requires --embeddings and --queries")
        from . import fusion

        lam = _setting(args.lam, config, "lambda", fusion.DEFAULT_LAMBDA)
        beta = _setting(args.beta, config, "beta", fusion.DEFAULT_BETA)
        top_n = _setting(args.top_n, config, "top_n", fusion.DEFAULT_TOP_N)
        cfg = fusion.FusionConfig(lam=lam, top_n=top_n)
        if is_container(args.embeddings):
            raise ValidationError(
                f"{args.embeddings}: a binary container holds one modality; "
                "fusion needs visual and text embeddings in a JSONL store"
            )
        store = load_embeddings(args.embeddings, normalize=True)
        query_ids = _read_query_ids(args.queries)
        scores_by_scene: dict[str, dict[str, float]] = {}
        if args.s_field:
            if not args.metadata:
                raise UsageError("--s-field requires --metadata")
            table = load_metadata(args.metadata)
            scores_by_scene = dict(zip(table.scene_ids, table.scores))
        episodes: list[Episode] = []
        for qid in query_ids:
            ranked = fusion.rank_top_n(qid, store, cfg)
            if args.s_field:
                for i, (cid, _) in enumerate(ranked):
                    bucket = scores_by_scene.get(cid)
                    if bucket is None or args.s_field not in bucket:
                        raise ValidationError(
                            f"candidate {cid!r}: no metadata score {args.s_field!r}"
                        )
                    ranked[i] = (cid, bucket[args.s_field])
            want = min(k, len(ranked))
            if k > want:
                _log(f"retrieve: {qid}: clamping k={k} to pool size {want}")
            selected = fusion.select_shots(store, ranked, beta, k)
            if len(selected) < want:
                why = (
                    "no remaining candidate's squared residual reaches it"
                    if selected
                    else "every squared quality exp(2*beta*s) is below it"
                )
                _log(
                    f"retrieve: {qid}: k={want}: returned {len(selected)} shot(s); "
                    f"stopped at the residual floor {fusion.RESIDUAL_EPS:g}: {why}"
                )
            episodes.append(
                _episode(
                    episode_id=qid,
                    taxonomy=taxonomy,
                    subtask=subtask,
                    shots=tuple(_stub_demo(cid) for cid in selected),
                    query=Demonstration(id=qid, image_ref=qid, instruction=""),
                )
            )
    else:  # intent
        if not args.metadata:
            raise UsageError("retrieve --mode intent requires --metadata")
        if args.rule is None and not args.rule_file:
            raise UsageError("retrieve --mode intent requires --rule or --rule-file")
        from . import intent

        rule_text = _setting(args.rule, {}, "rule")
        if rule_text is None:
            rule_text = _read_text(args.rule_file).strip()
        rule = intent.parse_rule(rule_text)
        corpus = load_metadata(args.metadata)
        matched = intent.retrieve_by_rule(rule, corpus)
        selected = matched[:k]
        episode_id = _setting(args.episode_id, {}, "episode_id", "intent-0")
        episodes = [
            _episode(
                episode_id=episode_id,
                taxonomy=taxonomy,
                subtask=subtask,
                shots=tuple(_stub_demo(sid) for sid in selected),
                query=Demonstration(
                    id=f"{episode_id}::query", instruction=intent.pretty_print(rule)
                ),
            )
        ]
        _log(f"retrieve: rule matched {len(matched)} scene(s), kept {len(selected)}")

    _write_jsonl([_jsonl(ep.to_json(), "retrieve") for ep in episodes], args.out)
    _log(f"retrieve: wrote {len(episodes)} episode(s)")
    return 0


# ---------------------------------------------------------------------------
# filter


def cmd_filter(args: argparse.Namespace) -> int:
    config = _load_config(args)
    lo = _setting(args.min, config, "min", None)
    hi = _setting(args.max, config, "max", None)
    records = load_metadata(args.metadata)
    kept = []
    missing = 0
    out_of_range = 0
    for rec in records:
        score = rec.scores.get(args.score_field)
        if score is None:
            missing += 1
            continue
        if (lo is not None and score < lo) or (hi is not None and score > hi):
            out_of_range += 1
            continue
        kept.append(rec)
    if missing:
        _log(f"filter: warning: {missing} record(s) lack score {args.score_field!r}")
    _write_jsonl([_jsonl(rec.to_json(), "filter") for rec in kept], args.out)
    _log(
        f"filter: kept={len(kept)} dropped={missing + out_of_range} "
        f"(missing_field={missing}, out_of_range={out_of_range})"
    )
    return 0


# ---------------------------------------------------------------------------
# eval


# the headers and float format of each report's table
_EVAL_TABLES = {
    "curves": (("Model", "Task", "Taxonomy", "Mod", "Z-S", "Peak", "Eff"), ".3f"),
    "stability": (("Model", "Task", "Mod", "Perturbation", "Dev%"), ".3f"),
    "align": (("Task", "N", "Pearson", "Spearman"), ".4f"),
    "transfer": (("Taxonomy", "RelChange%"), "+.3f"),
    "human": (("Metric", "Win%", "Tie%", "Lose%"), ".1f"),
}


def cmd_eval(args: argparse.Namespace) -> int:
    from . import metrics

    if args.report == "transfer":
        if not args.base or not args.variant:
            raise UsageError("eval transfer requires --base and --variant")
        rows = metrics.transfer_report(args.base, args.variant)
    elif not args.results:
        raise UsageError(f"eval {args.report} requires --results")
    elif args.report == "curves":
        rows = metrics.curves_report(args.results)
    elif args.report == "stability":
        rows = metrics.stability_report(args.results)
    elif args.report == "align":
        rows = metrics.align_report(args.results, args.x_field, args.y_field)
    else:
        rows = metrics.human_report(args.results)
    return _report(f"eval {args.report}", rows, *_EVAL_TABLES[args.report], args.out)


# ---------------------------------------------------------------------------
# capm


def _capm_hyper(args: argparse.Namespace, config: dict[str, Any]) -> capm.CapmHyper:
    """Each ``CapmHyper`` field from its flag, then the config's ``capm``
    section, then its default; a value ``CapmHyper`` rejects is a usage error,
    and so is any field a flag or the config sets beside ``--params``."""
    from . import capm

    section = config.get("capm", {})
    if not isinstance(section, dict):
        raise ValidationError("config 'capm' section must be an object")
    values = {}
    for f in dataclasses.fields(capm.CapmHyper):
        flag = getattr(args, f.name)
        if args.params is not None and (flag is not None or f.name in section):
            key = f"config capm.{f.name}" if flag is None else "--" + f.name.replace("_", "-")
            raise UsageError(f"{key} cannot be used with --params, whose manifest sets {f.name}")
        values[f.name] = _resolve(flag, section, f.name, DEFAULT_CAPM.get(f.name, f.default))
    try:
        return capm.CapmHyper(**values)
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


def _capm_inputs(
    args: argparse.Namespace,
    hyper: capm.CapmHyper,
    rng: np.random.Generator,
    shots: int,
) -> tuple[list[tuple[np.ndarray, list[str]]], np.ndarray, np.ndarray]:
    from . import capm

    t_len = _setting(args.t_len, {}, "t_len")
    l_len = _setting(args.l_len, {}, "l_len")
    # numpy refuses a larger array with a ValueError, not a MemoryError
    shapes = {"t_len": (t_len, hyper.d_b), "shots and l_len": (shots, l_len, hyper.d_b)}
    for name, shape in shapes.items():
        if math.prod(shape) * 8 > capm._MAX_SIZE:  # float64 bytes
            raise UsageError(f"{name} too large: inputs would have shape {shape}")
    h = rng.standard_normal((t_len, hyper.d_b))
    y = rng.standard_normal((t_len, hyper.d_b))
    demos = []
    n_user = max(1, l_len // 2)
    segments = ["user"] * n_user + ["assistant"] * (l_len - n_user)
    for _ in range(shots):
        demos.append((rng.standard_normal((l_len, hyper.d_b)), list(segments)))
    return demos, h, y


def cmd_capm(args: argparse.Namespace) -> int:
    # imported here: no other command needs capm, which pulls in scipy, or numpy
    import numpy as np

    from . import capm

    # only demo reads or writes a parameter file, whose manifest sets every size
    if args.action != "demo":
        for name in ("params", "save_params"):
            if getattr(args, name) is not None:
                raise UsageError(f"capm {args.action} takes no --{name.replace('_', '-')}")
    config = _load_config(args)
    hyper = _capm_hyper(args, config)
    seed = _setting(args.seed, config, "seed", _env_int("FORGE_SEED", 0))
    # independent streams so loading parameters from a file does not shift
    # the input draws, and extra demos do not shift h/y
    param_seed, input_seed = np.random.SeedSequence(seed).spawn(2)
    param_rng = np.random.default_rng(param_seed)
    rng = np.random.default_rng(input_seed)
    shots = _setting(args.shots, {}, "shots", 2)

    if args.action == "demo":
        if args.params:
            params, hyper = capm.load_params(args.params)
        else:
            params = capm.init_params(hyper, param_rng)
        demos, h, y = _capm_inputs(args, hyper, rng, shots)
        y_prime, trace = capm.capm_forward(demos, h, y, params, hyper)
        if args.save_params:
            capm.save_params(params, hyper, args.save_params)
            _log(f"capm demo: saved parameters to {args.save_params}")
        digest = hashlib.sha256(np.ascontiguousarray(y_prime).tobytes()).hexdigest()
        states = trace.stage_states()
        report = {
            "seed": seed,
            "shots": shots,
            "tau": trace.tau,
            "gate_mean": float(trace.m.mean()),
            "stage_mean_norms": {
                stage: float(np.linalg.norm(states[stage], axis=1).mean())
                for stage in capm.STAGE_ORDER
            },
            "output_sha256": digest,
        }
        _write_jsonl([_jsonl(report, "capm demo")], args.out)
        _log(f"capm demo: shots={shots} tau={trace.tau} sha256={digest[:16]}...")
        return 0

    if args.action == "gradcheck":
        step = _setting(args.step, {}, "step")
        tolerance = _setting(args.tolerance, {}, "tolerance")
        params = capm.random_params(hyper, param_rng)
        demos, h, y = _capm_inputs(args, hyper, rng, shots)
        grad_out = rng.standard_normal(y.shape)
        tensors, forwards = capm.gradient_check_size(params, demos, h, y)
        _log(f"capm gradcheck: {tensors} tensors, {forwards} perturbed forwards (two per coordinate)")
        report = capm.gradient_check(
            params, hyper, demos, h, y, grad_out, step=step, tolerance=tolerance
        )
        worst = sorted(report.per_tensor.items(), key=lambda kv: -kv[1])[:8]
        _log(_format_table(["Tensor", "RelErr"], [[n, f"{e:.3e}"] for n, e in worst]))
        verdict = "PASS" if report.passed else "FAIL"
        _write_jsonl(
            [
                _jsonl(
                    {
                        "verdict": verdict,
                        "max_rel_err": report.max_rel_err,
                        "tolerance": report.tolerance,
                        "tensors": len(report.per_tensor),
                    },
                    "capm gradcheck",
                )
            ],
            args.out,
        )
        if not report.passed:
            raise NumericGuardError(
                f"gradcheck FAIL: max_rel_err={report.max_rel_err:.3e} "
                f"exceeds {report.tolerance:.0e}"
            )
        return 0

    # diagnose
    if shots < 1:
        raise UsageError("capm diagnose requires --shots >= 1")
    params = capm.random_params(hyper, param_rng)
    demos, h, y = _capm_inputs(args, hyper, rng, shots)
    _, trace_zero = capm.capm_forward([], h, y, params, hyper)
    _, trace_k = capm.capm_forward(demos, h, y, params, hyper)
    stats = capm.forward_diagnostics(trace_zero, trace_k)
    rows = [
        {
            "stage": stage,
            "mean_norm": stats[stage].mean_norm,
            "representation_shift": stats[stage].representation_shift,
        }
        for stage in capm.STAGE_ORDER
    ]
    return _report("capm diagnose", rows, ["Stage", "MeanNorm", "Shift"], ".4f", args.out)


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args: argparse.Namespace) -> int:
    if not (args.episodes or args.embeddings or args.metadata):
        raise UsageError("validate requires at least one of --episodes/--embeddings/--metadata")
    lines = []
    # built per call, so each loader is the module global at that time (a
    # tracer such as ctxbench's may have wrapped it)
    for kind, path, loader in (
        ("episodes", args.episodes,
         lambda p: load_episodes(p, max_shots=_setting(args.max_shots, {}, "max_shots"))),
        ("embeddings", args.embeddings, load_embeddings),
        ("metadata", args.metadata, load_metadata),
    ):
        if path:
            records = len(loader(path))
            lines.append(
                _jsonl({"file": path, "kind": kind, "records": records, "status": "ok"}, "validate")
            )
    _write_jsonl(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge",
        description="Demonstration retrieval, filtering, evaluation, and context modulation.",
    )
    parser.add_argument("--version", action="version", version=f"forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file; explicit flags win")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write data output to this file instead of stdout")

    p = sub.add_parser("retrieve", parents=[config, common], help="select demonstrations")
    p.add_argument("--mode", choices=("fusion", "intent"), required=True)
    p.add_argument(
        "--embeddings",
        help="JSONL embedding store with visual and text vectors (the one-modality "
        "binary container cannot serve fusion)",
    )
    p.add_argument("--queries", help="JSONL of {'id': ...} query rows")
    p.add_argument("--metadata", help="scene metadata JSONL")
    p.add_argument("--rule", help="intent rule text")
    p.add_argument("--rule-file", help="file holding the intent rule")
    p.add_argument("--k", type=int, help="number of shots to select (default 4)")
    p.add_argument("--top-n", type=int, dest="top_n", help="fused-score prefilter size")
    p.add_argument("--lambda", type=float, dest="lam", help="visual-vs-text weight in [0, 1]")
    p.add_argument("--beta", type=float, help="quality sharpness (> 0)")
    p.add_argument("--s-field", dest="s_field", help="metadata score field supplying relevance")
    p.add_argument("--taxonomy", help="taxonomy label for emitted episodes")
    p.add_argument("--subtask", help="subtask label for emitted episodes")
    p.add_argument("--episode-id", dest="episode_id", help="episode id for intent mode")

    p = sub.add_parser("filter", parents=[config, common], help="filter metadata by a score field")
    p.add_argument("--metadata", required=True)
    p.add_argument("--score-field", dest="score_field", required=True)
    p.add_argument("--min", type=float, help="inclusive lower bound")
    p.add_argument("--max", type=float, help="inclusive upper bound")

    p = sub.add_parser("eval", parents=[common], help="metric reports over result curves")
    p.add_argument("report", choices=tuple(_EVAL_TABLES))
    p.add_argument("--results", help="results JSONL")
    p.add_argument("--base", help="baseline results JSONL (transfer)")
    p.add_argument("--variant", help="variant results JSONL (transfer)")
    p.add_argument("--x-field", dest="x_field", default="primary")
    p.add_argument("--y-field", dest="y_field", default="auxiliary")

    p = sub.add_parser("capm", parents=[config, common], help="context-modulation demos and checks")
    p.add_argument("action", choices=("demo", "gradcheck", "diagnose"))
    p.add_argument("--seed", type=int)
    p.add_argument("--shots", type=int, help="demo count (default 2)")
    p.add_argument("--d-b", type=int, dest="d_b")
    p.add_argument("--d-p", type=int, dest="d_p")
    p.add_argument("--K", type=int, dest="K")
    p.add_argument("--r", type=int, dest="r")
    p.add_argument("--heads", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--tau-min", type=float, dest="tau_min")
    p.add_argument("--tau-max", type=float, dest="tau_max")
    p.add_argument("--b2-init", type=float, dest="b2_init")
    p.add_argument("--t-len", type=int, dest="t_len", default=5, help="backbone tokens")
    p.add_argument("--l-len", type=int, dest="l_len", default=6, help="tokens per demo")
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tolerance", type=float, default=1e-4, help="gradcheck tolerance")
    p.add_argument("--params", help="load parameters from this file (demo)")
    p.add_argument("--save-params", dest="save_params", help="save parameters (demo)")

    p = sub.add_parser("validate", parents=[common], help="lint data files")
    p.add_argument("--episodes")
    p.add_argument("--embeddings")
    p.add_argument("--metadata")
    p.add_argument("--max-shots", type=int, dest="max_shots", default=8)

    return parser


# ``main``'s parser, built on its first call and reused: it holds only
# immutable defaults, and each parse returns a new namespace
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    # looked up when the command runs, so a ``cmd_*`` replaced later is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except UsageError as exc:
        _log(f"forge: usage error: {exc}")
        return 2
    except NumericGuardError as exc:
        _log(f"forge: numeric guard: {exc}")
        return 4
    except ValidationError as exc:
        _log(f"forge: {exc}")
        return 3
    except OSError as exc:
        _log(f"forge: {exc}")
        return 3
    except MemoryError as exc:
        _log(f"forge: out of memory: {str(exc) or 'an allocation failed'}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
