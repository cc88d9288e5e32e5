"""Fused cross-modal scoring and diversity-aware demonstration selection.

Candidates are scored against a query by a convex combination of visual and
text cosine similarities.  The scores lift into a quality-weighted low-rank
kernel ``L = B @ B.T`` with rows ``B_i = exp(beta * s_i) * phi_i``, and a
diverse subset is chosen by greedy residual-norm selection, which maximizes
``det(L_Y)`` greedily.  The selector is the Fast Greedy MAP form of Chen,
Zhang & Zhou (NeurIPS 2018): an incremental Cholesky of ``L`` restricted to
the picked rows, grown one row of ``C`` per step without copying ``B``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericGuardError, ValidationError
from .records import EmbeddingStore

# The kernel works on squared row norms |b_i|**2 = exp(2 * beta * s_i), and
# exp(x) overflows float64 just above x = 709.78: guard a little below half.
QUALITY_EXP_LIMIT = 350.0

DEFAULT_LAMBDA = 0.5
DEFAULT_BETA = 8.0
DEFAULT_TOP_N = 50

# fused_score's order: lambda weighs the first modality, 1 - lambda the second
MODALITIES = ("visual", "text")

# Squared-residual floor: selection stops once every remaining candidate's
# residual norm**2 drops below this (the factor is numerically rank-deficient).
RESIDUAL_EPS = 1e-12

# brute_force_map guards: exhaustive search is a test oracle, not a fast path.
BRUTE_FORCE_MAX_N = 20
BRUTE_FORCE_MAX_SUBSETS = 200_000


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for fused scoring: ``lam`` is the visual-vs-text weight."""

    lam: float = DEFAULT_LAMBDA
    top_n: int = DEFAULT_TOP_N

    def __post_init__(self) -> None:
        if not (isinstance(self.lam, (int, float)) and 0.0 <= self.lam <= 1.0):
            raise ValidationError(f"lambda must lie in [0, 1], got {self.lam!r}")
        if not isinstance(self.top_n, int) or isinstance(self.top_n, bool) or self.top_n < 0:
            raise ValidationError(f"top_n must be a non-negative integer, got {self.top_n!r}")


def cosine(a, b) -> float:
    """Cosine similarity of two equal-dimension vectors (norms must be > 0)."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ValidationError(f"cosine: dimension mismatch {av.shape} vs {bv.shape}")
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine: zero-norm input")
    return float(av @ bv / (na * nb))


def fused_score(query_visual, query_text, cand_visual, cand_text, lam: float = DEFAULT_LAMBDA) -> float:
    """Convex combination of the two modality cosines."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lam must lie in [0, 1], got {lam!r}")
    return lam * cosine(query_visual, cand_visual) + (1.0 - lam) * cosine(query_text, cand_text)


def rank_top_n(
    query_id: str, store: EmbeddingStore, config: FusionConfig
) -> list[tuple[str, float]]:
    """Rank every other id in the store against a query by fused score.

    Both modalities of the query must be present in the store; the
    candidates are every id with both modalities except the query itself.
    Returns ``(id, score)`` pairs sorted by descending score, ties broken by
    ascending id, truncated to ``config.top_n``.  Scores are ``fused_score``
    of the stored vectors.
    """
    query_rows = [store.rows([query_id], m)[0] for m in MODALITIES]
    # the query has both modalities, so it is one of the paired ids
    pool, *rows = store.paired()
    at = bisect.bisect_left(pool, query_id)
    if len(pool) == 1:  # no candidate: nothing to score
        return []
    cosines = []
    for modality, q_row, c_rows in zip(MODALITIES, query_rows, rows):
        vectors, norms = store.matrix(modality), store.row_norms(modality)
        # c_rows holds the query's own row, which is zero-norm only if q_norm is
        q_norm, c_norms = norms[q_row], norms[c_rows]
        if q_norm == 0.0 or not c_norms.all():
            raise ValidationError("cosine: zero-norm input")
        # einsum sums every row in the same order, over the whole matrix as over
        # a copy of some rows, so identical candidates get identical scores; a
        # BLAS matvec may not, which would break exact ties.
        dots = np.einsum("ij,j->i", vectors, vectors[q_row])[c_rows]
        cosines.append(dots / (q_norm * c_norms))
    scores = config.lam * cosines[0] + (1.0 - config.lam) * cosines[1]
    # pool is in ascending id order, so a stable order breaks score ties by id
    top = _smallest_stable(np.delete(-scores, at), config.top_n)
    top += top >= at  # back to positions in pool, past the dropped query
    return list(zip([pool[i] for i in top.tolist()], scores[top].tolist()))


def _smallest_stable(keys: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` smallest keys in the order of a stable argsort:
    ascending key, ties by ascending index, NaN last."""
    if not 0 < n < len(keys):
        return np.argsort(keys, kind="stable")[:n]
    kth = np.partition(keys, n - 1)[n - 1]
    # the first n of the sort all lie at or below the n-th smallest key; a NaN
    # compares false, so a NaN kth (fewer than n numbers) keeps every key
    head = np.flatnonzero(~(keys > kth))
    return head[np.argsort(keys[head], kind="stable")[:n]]


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Prefiltered candidates: unit feature rows ``phi`` and scores ``s``."""

    ids: tuple[str, ...]
    phi: np.ndarray  # (n, d), rows unit-norm
    scores: np.ndarray  # (n,)
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=np.float64)
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "scores", scores)
        n = len(self.ids)
        if phi.ndim != 2 or phi.shape[0] != n:
            raise ValidationError(f"phi: expected ({n}, d) array, got {phi.shape}")
        if scores.shape != (n,):
            raise ValidationError(f"scores: expected ({n},) array, got {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise ValidationError("scores: must be finite")
        if not np.all(np.isfinite(phi)):
            raise ValidationError("phi: must be finite")
        if not (isinstance(self.beta, (int, float)) and self.beta > 0):
            raise ValidationError(f"beta must be > 0, got {self.beta!r}")
        if n:
            norms = np.linalg.norm(phi, axis=1)
            off = np.abs(norms - 1.0)
            worst = int(np.argmax(off))
            if off[worst] > 1e-6:
                raise ValidationError(
                    f"phi row {worst} ({self.ids[worst]!r}) is not unit norm: {norms[worst]!r}"
                )

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class DppFactor:
    """Low-rank factor ``b`` of the selection kernel ``L = b @ b.T``."""

    b: np.ndarray  # (n, d)

    def kernel(self) -> np.ndarray:
        return self.b @ self.b.T


def build_dpp_factor(pool: CandidatePool) -> DppFactor:
    """Quality-weight the pool rows: ``b_i = exp(beta * s_i) * phi_i``.

    Raises a numeric guard when any ``beta * s_i`` would overflow the squared
    quality ``exp(2 * beta * s_i)``.
    """
    arg = pool.beta * pool.scores
    if arg.size and float(np.max(arg)) > QUALITY_EXP_LIMIT:
        raise NumericGuardError("quality overflow; rescale scores")
    q = np.exp(arg)
    return DppFactor(b=q[:, None] * pool.phi)


def _pool_size(factor: DppFactor, k: int, caller: str) -> int:
    """The number of rows of ``factor``; ``caller`` raises unless there is
    one and ``k`` is an integer in [1, rows]."""
    n = factor.b.shape[0]
    if n == 0:
        raise ValidationError(f"{caller}: empty pool")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k > n:
        raise ValidationError(f"{caller}: k must lie in [1, {n}], got {k!r}")
    return n


def greedy_dpp_select(factor: DppFactor, k: int, return_gains: bool = False):
    """Greedily select ``k`` rows maximizing ``det(L_Y)`` step by step.

    Returns the selected row indices in selection order (possibly fewer than
    ``k`` when the factor runs out of numerical rank; the product of the
    per-step gains equals ``det(L_Y)``).  Ties go to the smallest index, also
    between identical rows.  ``factor.b`` is only read.

    Step ``i`` picks the row with the largest squared residual ``d2[j]``
    left after projecting out the picked rows (its gain), unless that is
    below ``RESIDUAL_EPS``.  ``C[i]`` holds every row's coordinate on the
    ``i``-th Cholesky direction, so a step costs one pass over ``b`` and one
    over ``C[:i]``.
    """
    n = _pool_size(factor, k, "greedy_dpp_select")
    b = np.asarray(factor.b, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", b, b)
    c = np.empty((k, n))
    picked: list[int] = []
    gains: list[float] = []
    for i in range(k):
        j = int(np.argmax(d2))  # argmax keeps the smallest index on ties
        gain = float(d2[j])
        if gain < RESIDUAL_EPS:
            break
        # einsum sums every row (and every column of C) in the same order, so
        # identical rows keep identical residuals; a BLAS gemv may not.
        proj = np.einsum("ij,j->i", b, b[j]) - np.einsum("ij,i->j", c[:i], c[:i, j])
        c[i] = proj / math.sqrt(gain)
        picked.append(j)
        gains.append(gain)
        d2 = np.maximum(d2 - c[i] * c[i], 0.0)
        # a picked row's residual is only zero up to rounding, which can
        # exceed the floor at large qualities: take picked rows out of the argmax
        d2[picked] = -np.inf
    if return_gains:
        return picked, np.asarray(gains, dtype=np.float64)
    return picked


def select_shots(
    store: EmbeddingStore, ranked: list[tuple[str, float]], beta: float, k: int
) -> list[str]:
    """Ids of one query's shots in pick order: at most ``k`` of its ranked
    ``(id, relevance)`` pool, greedily selected over their visual rows.  The pool
    and its factor are locals, so they are freed before the next query's are built."""
    if not ranked:
        return []
    ids = [cid for cid, _ in ranked]
    phi = store.matrix("visual")[store.rows(ids, "visual")]
    pool = CandidatePool(tuple(ids), phi, np.asarray([s for _, s in ranked]), beta)
    factor = build_dpp_factor(pool)
    return [ids[i] for i in greedy_dpp_select(factor, min(k, len(ids)))]


def brute_force_map(factor: DppFactor, k: int) -> tuple[tuple[int, ...], float]:
    """Exhaustive argmax of ``det(L_Y)`` over all size-``k`` subsets.

    Reference oracle: guarded to small instances (n <= 20 and at most
    200k subsets).  Ties return the lexicographically smallest subset.
    """
    n = _pool_size(factor, k, "brute_force_map")
    if n > BRUTE_FORCE_MAX_N or math.comb(n, k) > BRUTE_FORCE_MAX_SUBSETS:
        raise ValidationError(
            f"brute_force_map: instance too large (n={n}, C(n,k)={math.comb(n, k)})"
        )
    kernel = factor.kernel()
    best_subset: tuple[int, ...] | None = None
    best_det = -math.inf
    for subset in itertools.combinations(range(n), k):
        sub = kernel[np.ix_(subset, subset)]
        det = float(np.linalg.det(sub))
        if det > best_det:
            best_det = det
            best_subset = subset
    assert best_subset is not None
    return best_subset, best_det
