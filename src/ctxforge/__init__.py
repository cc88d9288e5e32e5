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
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .errors import (
    ForgeError,
    NumericGuardError,
    RuleScopeError,
    RuleSyntaxError,
    UsageError,
    ValidationError,
)
from .records import (
    DemoOutput,
    Demonstration,
    EmbeddingRecord,
    EmbeddingStore,
    Episode,
    Instance,
    MetadataRecord,
    SceneTable,
    ShotCurve,
    TAXONOMIES,
    TAXONOMY_ORDER,
    UnknownSubtaskWarning,
    load_embeddings,
    load_episodes,
    load_metadata,
    save_embeddings_binary,
    save_embeddings_jsonl,
    save_episodes,
    save_metadata,
)
from .fusion import (
    CandidatePool,
    DppFactor,
    FusionConfig,
    brute_force_map,
    build_dpp_factor,
    cosine,
    fused_score,
    greedy_dpp_select,
    rank_top_n,
)
from .intent import evaluate, parse_rule, pretty_print, retrieve_by_rule
from .metrics import (
    CurveSummary,
    ResultRow,
    StabilityReport,
    icl_efficiency,
    pearson,
    relative_change,
    spearman,
    stability_score,
    summarize,
    win_tie_lose,
)

__all__ = [
    "__version__",
    # errors
    "ForgeError",
    "UsageError",
    "ValidationError",
    "NumericGuardError",
    "RuleSyntaxError",
    "RuleScopeError",
    # records
    "Demonstration",
    "DemoOutput",
    "Episode",
    "EmbeddingRecord",
    "EmbeddingStore",
    "Instance",
    "MetadataRecord",
    "SceneTable",
    "ShotCurve",
    "TAXONOMIES",
    "TAXONOMY_ORDER",
    "UnknownSubtaskWarning",
    "load_episodes",
    "save_episodes",
    "load_embeddings",
    "save_embeddings_jsonl",
    "save_embeddings_binary",
    "load_metadata",
    "save_metadata",
    # fusion
    "FusionConfig",
    "CandidatePool",
    "DppFactor",
    "cosine",
    "fused_score",
    "rank_top_n",
    "build_dpp_factor",
    "greedy_dpp_select",
    "brute_force_map",
    # intent
    "parse_rule",
    "pretty_print",
    "evaluate",
    "retrieve_by_rule",
    # capm
    "CapmHyper",
    "CapmParams",
    "init_params",
    "random_params",
    "capm_forward",
    "capm_backward",
    "forward_diagnostics",
    "gradient_check",
    "save_params",
    "load_params",
    # metrics
    "CurveSummary",
    "StabilityReport",
    "ResultRow",
    "icl_efficiency",
    "summarize",
    "stability_score",
    "pearson",
    "spearman",
    "relative_change",
    "win_tie_lose",
]

# capm imports scipy, so it and its names load on first use (PEP 562): only
# the commands that run CAPM pay for the import
_CAPM_NAMES = frozenset({
    "CapmHyper",
    "CapmParams",
    "init_params",
    "random_params",
    "capm_forward",
    "capm_backward",
    "forward_diagnostics",
    "gradient_check",
    "save_params",
    "load_params",
})


def __getattr__(name: str) -> object:
    if name == "capm" or name in _CAPM_NAMES:
        capm = importlib.import_module(".capm", __name__)
        return capm if name == "capm" else getattr(capm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
