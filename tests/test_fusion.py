"""Fused similarity ranking: cosine, score fusion, top-N prefilter."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxforge.errors import ValidationError
from ctxforge.fusion import FusionConfig, cosine, fused_score, rank_top_n
from ctxforge.records import EmbeddingRecord, EmbeddingStore


def store_with(pairs):
    """pairs: {id: (visual, text)}"""
    store = EmbeddingStore()
    for rid, (vis, txt) in pairs.items():
        store.add(EmbeddingRecord(id=rid, modality="visual", dim=len(vis), values=tuple(vis)))
        store.add(EmbeddingRecord(id=rid, modality="text", dim=len(txt), values=tuple(txt)))
    return store


def test_cosine_basics():
    assert cosine((1.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)
    assert cosine((1.0, 0.0), (0.0, 1.0)) == pytest.approx(0.0)
    assert cosine((1.0, 0.0), (-1.0, 0.0)) == pytest.approx(-1.0)


def test_cosine_rejects_zero_and_mismatched():
    with pytest.raises(ValidationError):
        cosine((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValidationError):
        cosine((1.0, 0.0), (1.0, 0.0, 0.0))


def test_fused_score_is_convex_mix():
    v_q, v_c = (1.0, 0.0), (1.0, 0.0)
    t_q, t_c = (1.0, 0.0), (0.0, 1.0)
    assert fused_score(v_q, t_q, v_c, t_c, lam=1.0) == pytest.approx(1.0)
    assert fused_score(v_q, t_q, v_c, t_c, lam=0.0) == pytest.approx(0.0)
    assert fused_score(v_q, t_q, v_c, t_c, lam=0.5) == pytest.approx(0.5)


def test_fusion_config_validation():
    with pytest.raises(ValidationError):
        FusionConfig(lam=1.5)
    with pytest.raises(ValidationError):
        FusionConfig(top_n=-1)


def test_rank_top_n_orders_and_truncates():
    store = store_with(
        {
            "q": ((1.0, 0.0), (1.0, 0.0)),
            "near": ((1.0, 0.0), (1.0, 0.0)),
            "mid": ((0.7071067811865476, 0.7071067811865476), (1.0, 0.0)),
            "far": ((0.0, 1.0), (0.0, 1.0)),
        }
    )
    ranked = rank_top_n("q", store, FusionConfig(lam=0.5, top_n=2))
    assert [rid for rid, _ in ranked] == ["near", "mid"]
    assert ranked[0][1] == pytest.approx(1.0)


def test_rank_top_n_tie_breaks_by_id():
    store = store_with(
        {
            "q": ((1.0, 0.0), (1.0, 0.0)),
            "b": ((1.0, 0.0), (1.0, 0.0)),
            "a": ((1.0, 0.0), (1.0, 0.0)),
        }
    )
    ranked = rank_top_n("q", store, FusionConfig(lam=0.5, top_n=5))
    assert [rid for rid, _ in ranked] == ["a", "b"]


def test_rank_top_n_requires_query_in_both_modalities():
    store = EmbeddingStore()
    store.add(EmbeddingRecord(id="q", modality="visual", dim=2, values=(1.0, 0.0)))
    with pytest.raises(ValidationError, match="missing embedding"):
        rank_top_n("q", store, FusionConfig())


def test_rank_top_n_candidates_need_both_modalities():
    store = store_with({"q": ((1.0, 0.0), (1.0, 0.0)), "both": ((1.0, 0.0), (1.0, 0.0))})
    store.add(EmbeddingRecord(id="vis-only", modality="visual", dim=2, values=(1.0, 0.0)))
    ranked = rank_top_n("q", store, FusionConfig())
    assert [rid for rid, _ in ranked] == ["both"]


def test_rank_top_n_random_agrees_with_direct_formula():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        ids = [f"c{i}" for i in range(n)]
        pairs = {"q": (rng.standard_normal(4), rng.standard_normal(3))}
        for rid in ids:
            pairs[rid] = (rng.standard_normal(4), rng.standard_normal(3))
        store = store_with(pairs)
        lam = float(rng.uniform(0.0, 1.0))
        ranked = rank_top_n("q", store, FusionConfig(lam=lam, top_n=n))
        expected = {}
        for rid in ids:
            expected[rid] = lam * cosine(pairs["q"][0], pairs[rid][0]) + (1 - lam) * cosine(
                pairs["q"][1], pairs[rid][1]
            )
        for rid, score in ranked:
            assert score == pytest.approx(expected[rid], abs=1e-12)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)


def oracle_rank(query_id, pairs, lam, top_n):
    """One scalar fused_score per candidate, sorted by (score desc, id asc)."""
    pool = sorted(rid for rid in pairs if rid != query_id)
    qv, qt = pairs[query_id]
    scored = [(c, fused_score(qv, qt, pairs[c][0], pairs[c][1], lam)) for c in pool]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:top_n]


@st.composite
def ranking_cases(draw):
    # Small integer components keep every dot product and squared norm exact,
    # so both sides compute bit-identical scores and the order must match
    # exactly; items drawn from a few distinct vectors force exact ties.
    dims = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vector = lambda d: st.lists(st.integers(-4, 4), min_size=d, max_size=d).filter(any)
    distinct = draw(st.lists(st.tuples(vector(dims[0]), vector(dims[1])), min_size=1, max_size=4))
    n = draw(st.integers(2, 14))
    ids = draw(st.permutations([f"c{i:02d}" for i in range(n)]))  # insertion order != id order
    pairs = {rid: draw(st.sampled_from(distinct)) for rid in ids}
    query_id = draw(st.sampled_from(ids))
    lam = draw(st.floats(0.0, 1.0))
    top_n = draw(st.integers(0, n + 2))
    return pairs, query_id, lam, top_n


@settings(max_examples=300, deadline=None)
@given(ranking_cases())
def test_rank_top_n_matches_scalar_oracle(case):
    pairs, query_id, lam, top_n = case
    store = store_with(pairs)
    ranked = rank_top_n(query_id, store, FusionConfig(lam=lam, top_n=top_n))
    expected = oracle_rank(query_id, pairs, lam, top_n)
    assert [rid for rid, _ in ranked] == [rid for rid, _ in expected]
    np.testing.assert_allclose([s for _, s in ranked], [s for _, s in expected], rtol=0, atol=1e-12)


def test_rank_top_n_float_vectors_match_oracle_scores():
    # Random float vectors, with one vector pair shared by every third item
    # and by the last ones, so exact ties fall on the final rows too, where a
    # blocked BLAS matvec sums in another order than on the rows before.
    rng = np.random.default_rng(5)
    for n in (41, 42, 43, 102, 103, 203):
        for dv, dt in ((8, 16), (33, 64)):
            pairs = {f"c{i:03d}": (rng.standard_normal(dv), rng.standard_normal(dt)) for i in range(n)}
            qv, qt = pairs["c000"]
            twin = (qv + 0.1 * rng.standard_normal(dv), qt + 0.1 * rng.standard_normal(dt))
            for i in [*range(1, n, 3), n - 3, n - 2, n - 1]:
                pairs[f"c{i:03d}"] = twin
            top_n = n // 2
            ranked = rank_top_n("c000", store_with(pairs), FusionConfig(lam=0.3, top_n=top_n))
            expected = oracle_rank("c000", pairs, 0.3, top_n)
            assert [rid for rid, _ in ranked] == [rid for rid, _ in expected]
            np.testing.assert_allclose(
                [s for _, s in ranked], [s for _, s in expected], rtol=0, atol=1e-12
            )


def test_rank_top_n_zero_norm_candidate():
    store = store_with(
        {"q": ((1.0, 0.0), (1.0, 0.0)), "b": ((0.0, 1.0), (1.0, 1.0)), "zero": ((1.0, 0.0), (0.0, 0.0))}
    )
    for top_n in (0, 50):
        with pytest.raises(ValidationError, match="cosine: zero-norm input"):
            rank_top_n("q", store, FusionConfig(top_n=top_n))


def test_rank_top_n_zero_norm_query():
    store = store_with({"q": ((0.0, 0.0), (1.0, 0.0)), "b": ((0.0, 1.0), (1.0, 1.0))})
    for top_n in (0, 50):
        with pytest.raises(ValidationError, match="zero-norm"):
            rank_top_n("q", store, FusionConfig(top_n=top_n))
    # with no other candidate there is nothing to score, and nothing is divided
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_top_n("q", store_with({"q": ((0.0, 0.0), (1.0, 0.0))}), FusionConfig()) == []


def gathered_rank(query_id, store, lam, top_n):
    """Fused ranking over copies of the paired candidate rows: one einsum per
    modality over the gathered rows, then a full stable sort on the scores."""
    pool = [rid for rid in store.paired()[0] if rid != query_id]
    cosines = []
    for modality in ("visual", "text"):
        vectors, norms = store.matrix(modality), store.row_norms(modality)
        q_row, c_rows = store.rows([query_id], modality)[0], store.rows(pool, modality)
        dots = np.einsum("ij,j->i", vectors[c_rows], vectors[q_row])
        cosines.append(dots / (norms[q_row] * norms[c_rows]))
    scores = lam * cosines[0] + (1.0 - lam) * cosines[1]
    order = np.argsort(-scores, kind="stable")[:top_n]
    return [(pool[i], float(scores[i])) for i in order]


def assert_same_ranking(ranked, expected):
    # same ids in the same order, and every score with the same bits
    assert [rid for rid, _ in ranked] == [rid for rid, _ in expected]
    assert [s.hex() for _, s in ranked] == [s.hex() for _, s in expected]


def test_rank_top_n_cuts_inside_a_tie_group():
    # every item holds one of three vector pairs, so the scores fall into
    # three tied groups and each cut below lands inside one of them
    rng = np.random.default_rng(17)
    for n in (200, 347, 600):
        distinct = [(rng.standard_normal(24), rng.standard_normal(40)) for _ in range(3)]
        ids = [f"c{i:03d}" for i in rng.permutation(n)]
        pairs = {rid: distinct[int(rng.integers(3))] for rid in ids}
        store = store_with(pairs)
        lam = float(rng.uniform(0.0, 1.0))
        for query_id in ids[:3]:
            full = gathered_rank(query_id, store, lam, n)
            scores = [s for _, s in full]
            groups = [scores.index(s) + scores.count(s) // 2 for s in sorted(set(scores), reverse=True)]
            for top_n in groups:
                assert 0 < top_n < n - 1 and scores[top_n - 1] == scores[top_n]
                ranked = rank_top_n(query_id, store, FusionConfig(lam=lam, top_n=top_n))
                assert_same_ranking(ranked, full[:top_n])
                assert [rid for rid, _ in ranked] == [
                    rid for rid, _ in oracle_rank(query_id, pairs, lam, top_n)
                ]


def test_rank_top_n_skips_unpaired_rows():
    # visual-only and text-only rows, one of them zero-norm, added among the
    # paired ones out of id order: they are never candidates and never raise
    rng = np.random.default_rng(23)
    dims = {"visual": 6, "text": 4}
    keys = [(f"p{i:02d}", m) for i in range(60) for m in dims]
    keys += [(f"v{i}", "visual") for i in range(8)] + [(f"t{i}", "text") for i in range(8)]
    records = [
        EmbeddingRecord(id=rid, modality=m, dim=dims[m], values=tuple(rng.standard_normal(dims[m])))
        for rid, m in keys
    ]
    records.append(EmbeddingRecord(id="a-zero", modality="visual", dim=6, values=(0.0,) * 6))
    records.append(EmbeddingRecord(id="z-zero", modality="text", dim=4, values=(0.0,) * 4))
    store = EmbeddingStore()
    for i in rng.permutation(len(records)):
        store.add(records[i])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query_id in ("p00", "p31", "p59"):
            for top_n in (0, 1, 10, 58, 59, 60, 100):
                ranked = rank_top_n(query_id, store, FusionConfig(lam=0.6, top_n=top_n))
                assert_same_ranking(ranked, gathered_rank(query_id, store, 0.6, top_n))
                assert all(rid.startswith("p") for rid, _ in ranked)
                assert len(ranked) == min(top_n, 59)


def test_rank_top_n_scores_match_gathered_rows_bit_for_bit():
    rng = np.random.default_rng(29)
    for n, dv, dt in ((2, 3, 5), (41, 8, 16), (103, 33, 64), (257, 64, 64)):
        pairs = {f"c{i:03d}": (rng.standard_normal(dv), rng.standard_normal(dt)) for i in rng.permutation(n)}
        store = store_with(pairs)
        for query_id in ("c000", f"c{n - 1:03d}"):
            for top_n in (1, n // 3, n):
                ranked = rank_top_n(query_id, store, FusionConfig(lam=0.3, top_n=top_n))
                assert_same_ranking(ranked, gathered_rank(query_id, store, 0.3, top_n))

