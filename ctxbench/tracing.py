"""Span recording around the program's module boundaries, installed at run time.

``install`` replaces the public functions that one ``ctxforge`` module calls
in another (and the names ``cli`` imported from ``records``) with wrappers that
record a span per call: name, start, end, parent span and run id, plus counts
taken at the same boundary.  No program file is edited; ``uninstall`` puts the
original objects back.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import weakref

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Recorder:
    """In-memory span store; spans nest through an explicit stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.counts: list[dict | None] = []
        self._stack: list[int] = []
        self.run_id = 0

    def call(self, name, fn, args, kwargs, count=None):
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.counts.append(None)
        self.start.append(0.0)
        self.end.append(0.0)
        before = rss_mb() if name == "records.load_embeddings" else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
        if before is not None:
            self.counts[sid] = {"records": len(result), "rss_mb": rss_mb() - before}
        elif count is not None:
            self.counts[sid] = count(args, kwargs, result)
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Record a benchmark-side span (an operation) around ``fn``."""
        return self.call(name, fn, args, kwargs)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "start": self.start[i], "end": self.end[i],
                                     "parent": self.parent[i], "run": self.run[i],
                                     "counts": self.counts[i]}) + "\n")


# ---------------------------------------------------------------------------
# wrapped boundaries


def _both_modalities(store, cache=weakref.WeakKeyDictionary()) -> frozenset:
    ids = cache.get(store)
    if ids is None:
        ids = cache[store] = frozenset(store.ids("visual")) & frozenset(store.ids("text"))
    return ids


def _count_ranked(args, kwargs, result):
    query_id, store = args[0], args[1]
    candidates = args[3] if len(args) > 3 else kwargs.get("candidates")
    if candidates is None:
        both = _both_modalities(store)
        return {"candidates": len(both) - (query_id in both)}
    return {"candidates": sum(1 for c in candidates if c != query_id)}


def _count_picks(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    picks = result[0] if isinstance(result, tuple) else result
    return {"k": k, "picks": len(picks)}


def _targets():
    """(module, attribute, span name, counter) for every wrapped boundary."""
    from ctxforge import capm, cli, fusion, intent, metrics, records

    n_records = lambda a, k, r: {"records": len(r)}  # noqa: E731
    return [
        (records, "load_embeddings", "records.load_embeddings", None),
        (cli, "load_embeddings", "records.load_embeddings", None),
        (records, "load_metadata", "records.load_metadata", n_records),
        (cli, "load_metadata", "records.load_metadata", n_records),
        (fusion, "rank_top_n", "fusion.rank_top_n", _count_ranked),
        (fusion, "CandidatePool", "fusion.pool", None),
        (fusion, "build_dpp_factor", "fusion.pool", None),
        (fusion, "greedy_dpp_select", "fusion.greedy_dpp_select", _count_picks),
        (intent, "parse_rule", "intent.parse_rule", None),
        (intent, "retrieve_by_rule", "intent.retrieve_by_rule",
         lambda a, k, r: {"scenes": len(a[1]), "matches": len(r)}),
        (intent, "pretty_print", "intent.pretty_print", None),
        (metrics, "load_results", "metrics.load_results", lambda a, k, r: {"rows": len(r)}),
        (metrics, "summarize", "metrics.compute", None),
        (metrics, "stability_score", "metrics.compute", None),
        (metrics, "pearson", "metrics.compute", None),
        (metrics, "spearman", "metrics.compute", None),
        (metrics, "relative_change", "metrics.compute", None),
        (metrics, "win_tie_lose", "metrics.compute", None),
        (capm, "capm_forward", "capm.capm_forward", None),
        (capm, "capm_backward", "capm.capm_backward", None),
        (capm, "gradient_check", "capm.gradient_check", None),
        (capm, "save_params", "capm.save_params", None),
        (capm, "load_params", "capm.load_params", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Installs and removes the wrappers of one recorder."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        rec = self.recorder
        for module, attr, name, count in _targets():
            original = getattr(module, attr)

            def wrapper(*args, _f=original, _n=name, _c=count, **kwargs):
                return rec.call(_n, _f, args, kwargs, _c)

            wrapper.__wrapped__ = original
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _tail_ms(durations_ms: list[float]) -> float:
    """Highest percentile with at least ten calls beyond it; the median below
    forty calls, where no such percentile is a tail."""
    if len(durations_ms) < 40:
        return statistics.median(durations_ms)
    return sorted(durations_ms)[len(durations_ms) - 11]


def summarize(rec: Recorder) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and per-module self-time shares from the spans."""
    n = len(rec.names)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        if rec.parent[i] >= 0:
            child_time[rec.parent[i]] += dur[i]

    def outermost(i):  # a span nested in one of the same name is already counted
        p = rec.parent[i]
        while p >= 0:
            if rec.names[p] == rec.names[i]:
                return False
            p = rec.parent[p]
        return True

    def under(i, name):
        p = rec.parent[i]
        while p >= 0:
            if rec.names[p] == name:
                return True
            p = rec.parent[p]
        return False

    by_name: dict[str, list[int]] = {}
    for i in range(n):
        if outermost(i):
            by_name.setdefault(rec.names[i], []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, []))

    def ms(name):
        return [dur[i] * 1e3 for i in by_name.get(name, [])] or [0.0]

    def count_sum(name, key):
        return sum((rec.counts[i] or {}).get(key, 0) for i in by_name.get(name, []))

    calls = {name: len(ids) for name, ids in by_name.items()}
    k_requested = count_sum("fusion.greedy_dpp_select", "k")
    out = {
        "records.load_embeddings.s": total("records.load_embeddings"),
        "records.load_embeddings.rss_mb": max([(rec.counts[i] or {}).get("rss_mb", 0.0)
                                               for i in by_name.get("records.load_embeddings", [])] or [0.0]),
        "records.load_embeddings.records": count_sum("records.load_embeddings", "records"),
        "records.load_metadata.s": total("records.load_metadata"),
        "records.load_metadata.records": count_sum("records.load_metadata", "records"),
        "fusion.rank_top_n.s": total("fusion.rank_top_n"),
        "fusion.rank_top_n.p50_ms": statistics.median(ms("fusion.rank_top_n")),
        "fusion.rank_top_n.tail_ms": _tail_ms(ms("fusion.rank_top_n")),
        "fusion.rank_top_n.calls": calls.get("fusion.rank_top_n", 0),
        "fusion.rank_top_n.candidates": count_sum("fusion.rank_top_n", "candidates"),
        "fusion.pool.s": total("fusion.pool"),
        "fusion.greedy_dpp_select.s": total("fusion.greedy_dpp_select"),
        "fusion.greedy_dpp_select.calls": calls.get("fusion.greedy_dpp_select", 0),
        "fusion.greedy_dpp_select.picks": count_sum("fusion.greedy_dpp_select", "picks"),
        "fusion.greedy_dpp_select.picks_per_request": count_sum("fusion.greedy_dpp_select", "picks") / max(k_requested, 1),
        "cli.self_s": sum(dur[i] - child_time[i] for i in by_name.get("cli.main", [])),
        "intent.retrieve_by_rule.s": total("intent.retrieve_by_rule"),
        "intent.retrieve_by_rule.scenes": count_sum("intent.retrieve_by_rule", "scenes"),
        "intent.retrieve_by_rule.matches": count_sum("intent.retrieve_by_rule", "matches"),
        "intent.parse_rule.s": total("intent.parse_rule"),
        "intent.parse_rule.calls": calls.get("intent.parse_rule", 0),
        "intent.pretty_print.s": total("intent.pretty_print"),
        "metrics.load_results.s": total("metrics.load_results"),
        "metrics.load_results.rows": count_sum("metrics.load_results", "rows"),
        "metrics.compute.s": total("metrics.compute"),
        "capm.capm_forward.s": total("capm.capm_forward"),
        "capm.capm_forward.calls": calls.get("capm.capm_forward", 0),
        "capm.capm_forward.p50_ms": statistics.median(ms("capm.capm_forward")),
        "capm.capm_backward.s": total("capm.capm_backward"),
        "capm.capm_backward.calls": calls.get("capm.capm_backward", 0),
        "capm.capm_backward.p50_ms": statistics.median(ms("capm.capm_backward")),
        "capm.gradient_check.s": total("capm.gradient_check"),
        "capm.gradient_check.forwards": sum(1 for i in by_name.get("capm.capm_forward", [])
                                            if under(i, "capm.gradient_check")),
        "capm.save_params.s": total("capm.save_params"),
        "capm.load_params.s": total("capm.load_params"),
    }
    # self time per module: a span's duration minus what its children cover
    shares: dict[str, float] = {}
    for i in range(n):
        layer = rec.names[i].split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + dur[i] - child_time[i]
    whole = sum(shares.values()) or 1.0
    return out, {layer: t / whole for layer, t in sorted(shares.items())}
