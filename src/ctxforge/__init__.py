"""Demonstration selection and context modulation for in-context learning.

The package bundles four pieces that share one record model:

* :mod:`ctxforge.fusion` — fused visual/text similarity ranking and diverse
  subset selection via a greedy determinantal kernel.
* :mod:`ctxforge.intent` — a small boolean rule language over scene metadata
  with a parser, printer, and total evaluator.
* :mod:`ctxforge.capm` — a context-aware probe module: encode demonstrations
  into slots, modulate, interact, route against a slot bank, and gate the
  backbone output; includes exact manual gradients and a finite-difference
  checker.
* :mod:`ctxforge.metrics` — shot-curve summaries (efficiency, stability),
  rank correlations, transfer deltas, and win/tie/lose tallies.

The ``forge`` command line (:mod:`ctxforge.cli`) exposes the same behavior
over JSONL and binary container files.

Every submodule, and every public name below, loads on first use (PEP 562):
``import ctxforge`` imports none of them, so a caller pays only for the
modules it touches.  All but ``errors`` import numpy, and ``capm`` scipy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "ForgeError", "UsageError", "ValidationError", "NumericGuardError",
        "RuleSyntaxError", "RuleScopeError",
    ),
    "records": (
        "Demonstration", "DemoOutput", "Episode", "EmbeddingRecord", "EmbeddingStore",
        "Instance", "MetadataRecord", "SceneTable", "ShotCurve", "TAXONOMIES",
        "TAXONOMY_ORDER", "UnknownSubtaskWarning", "load_episodes", "save_episodes",
        "load_embeddings", "save_embeddings_jsonl", "save_embeddings_binary",
        "load_metadata", "save_metadata",
    ),
    "fusion": (
        "FusionConfig", "CandidatePool", "DppFactor", "cosine", "fused_score",
        "rank_top_n", "build_dpp_factor", "greedy_dpp_select", "brute_force_map",
    ),
    "intent": ("parse_rule", "pretty_print", "evaluate", "retrieve_by_rule"),
    "capm": (
        "CapmHyper", "CapmParams", "init_params", "random_params", "capm_forward",
        "capm_backward", "forward_diagnostics", "gradient_check", "save_params",
        "load_params",
    ),
    "metrics": (
        "CurveSummary", "StabilityReport", "ResultRow", "ResultTable", "icl_efficiency",
        "summarize", "stability_score", "pearson", "spearman", "relative_change", "win_tie_lose",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
