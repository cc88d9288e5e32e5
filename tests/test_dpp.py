"""Diverse subset selection: greedy kernel vs. naive determinant oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxforge.errors import NumericGuardError, ValidationError
from ctxforge.fusion import (
    CandidatePool,
    DppFactor,
    brute_force_map,
    build_dpp_factor,
    greedy_dpp_select,
)


def random_pool(rng, n=None, d=None, beta=8.0):
    n = n or int(rng.integers(2, 13))
    d = d or int(rng.integers(2, 7))
    phi = rng.standard_normal((n, d))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    scores = rng.uniform(-0.05, 0.05, size=n)
    ids = tuple(f"c{i}" for i in range(n))
    return CandidatePool(ids=ids, phi=phi, scores=scores, beta=beta)


def oracle_greedy(kernel, k, eps=1e-12):
    """Step-wise argmax of det(L_{Y + j}) / det(L_Y) via direct determinants."""
    n = kernel.shape[0]
    selected: list[int] = []
    det_prev = 1.0
    for _ in range(k):
        best_j, best_ratio = -1, -np.inf
        for j in range(n):
            if j in selected:
                continue
            idx = selected + [j]
            det_j = np.linalg.det(kernel[np.ix_(idx, idx)])
            ratio = det_j / det_prev
            if ratio > best_ratio:
                best_j, best_ratio = j, ratio
        if best_ratio < eps:
            break
        selected.append(best_j)
        det_prev = np.linalg.det(kernel[np.ix_(selected, selected)])
    return selected


def oracle_sequential(b, k, eps=1e-12):
    """Gram-Schmidt one row at a time in pure Python: every row's residual is
    computed by the same loop, so identical rows keep identical residuals."""
    rows = [[float(x) for x in row] for row in b]
    n2 = [sum(x * x for x in row) for row in rows]
    selected: list[int] = []
    for _ in range(k):
        live = [j for j in range(len(rows)) if j not in selected]
        best = max(live, key=lambda j: (n2[j], -j))
        if n2[best] < eps:
            break
        c = [x / math.sqrt(n2[best]) for x in rows[best]]
        selected.append(best)
        for j in live:
            dot = sum(x * y for x, y in zip(rows[j], c))
            rows[j] = [x - dot * y for x, y in zip(rows[j], c)]
            n2[j] = max(n2[j] - dot * dot, 0.0)
    return selected


class TestWorkedExample:
    """Three unit-ish vectors with shaped quality: the hand-checkable case."""

    def pool(self):
        s = 2**-0.5
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
        q = np.array([1.0, 0.9, 1.2])
        return CandidatePool(ids=("a", "b", "c"), phi=phi, scores=np.log(q) / 8.0, beta=8.0)

    def test_greedy_picks_and_det(self):
        factor = build_dpp_factor(self.pool())
        selected, gains = greedy_dpp_select(factor, 2, return_gains=True)
        assert selected == [2, 0]
        assert float(np.prod(gains)) == pytest.approx(0.72, abs=1e-9)

    def test_greedy_is_not_map_here(self):
        factor = build_dpp_factor(self.pool())
        subset, det = brute_force_map(factor, 2)
        assert subset == (0, 1)
        assert det == pytest.approx(0.81, abs=1e-9)


class TestGreedyAgainstOracle:
    def test_matches_stepwise_determinant_ratio(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            pool = random_pool(rng)
            k = int(rng.integers(1, 5))
            factor = build_dpp_factor(pool)
            selected = greedy_dpp_select(factor, min(k, len(pool.ids)))
            expected = oracle_greedy(factor.kernel(), min(k, len(pool.ids)))
            assert selected == expected

    def test_gain_product_equals_direct_det(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            pool = random_pool(rng)
            factor = build_dpp_factor(pool)
            k = min(int(rng.integers(1, 5)), len(pool.ids))
            selected, gains = greedy_dpp_select(factor, k, return_gains=True)
            if not selected:
                continue
            sub = factor.kernel()[np.ix_(selected, selected)]
            direct = np.linalg.det(sub)
            assert float(np.prod(gains)) == pytest.approx(direct, rel=1e-9)

    def test_ties_resolve_to_smallest_index(self):
        phi = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pool = CandidatePool(ids=("x", "y", "z"), phi=phi, scores=np.zeros(3), beta=8.0)
        factor = build_dpp_factor(pool)
        assert greedy_dpp_select(factor, 2) == [0, 2]

    def test_duplicate_rows_stop_early(self):
        phi = np.array([[1.0, 0.0], [1.0, 0.0]])
        pool = CandidatePool(ids=("x", "y"), phi=phi, scores=np.zeros(2), beta=8.0)
        factor = build_dpp_factor(pool)
        selected = greedy_dpp_select(factor, 2)
        assert selected == [0]  # second residual is numerically zero


class TestQualityShift:
    def test_constant_score_shift_leaves_selection_unchanged(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            pool = random_pool(rng)
            k = min(3, len(pool.ids))
            base = greedy_dpp_select(build_dpp_factor(pool), k)
            shifted = CandidatePool(
                ids=pool.ids, phi=pool.phi, scores=pool.scores + 0.03, beta=pool.beta
            )
            assert greedy_dpp_select(build_dpp_factor(shifted), k) == base


class TestKernelProperties:
    def test_kernel_is_psd_and_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pool = random_pool(rng)
            kernel = build_dpp_factor(pool).kernel()
            np.testing.assert_allclose(kernel, kernel.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(kernel)
            assert eigs.min() > -1e-9

    def test_quality_overflow_guard(self):
        phi = np.array([[1.0, 0.0]])
        pool = CandidatePool(ids=("a",), phi=phi, scores=np.array([100.0]), beta=8.0)
        with pytest.raises(NumericGuardError, match="rescale"):
            build_dpp_factor(pool)

    def test_pool_validates_unit_rows(self):
        with pytest.raises(ValidationError):
            CandidatePool(ids=("a",), phi=np.array([[2.0, 0.0]]), scores=np.zeros(1), beta=8.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pool_rejects_non_finite_rows(self, bad):
        # a NaN row's norm check compares false, so only a finiteness check catches it
        phi = np.array([[bad, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="phi: must be finite"):
            CandidatePool(ids=("a", "b", "c"), phi=phi, scores=np.zeros(3), beta=8.0)


class TestBruteForce:
    def test_brute_force_is_true_map_on_small_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            pool = random_pool(rng, n=int(rng.integers(2, 7)))
            factor = build_dpp_factor(pool)
            k = min(2, len(pool.ids))
            subset, det = brute_force_map(factor, k)
            kernel = factor.kernel()
            best = max(
                np.linalg.det(kernel[np.ix_(list(c), list(c))])
                for c in itertools.combinations(range(len(pool.ids)), k)
            )
            assert det == pytest.approx(best, rel=1e-9)
            assert det >= np.linalg.det(kernel[np.ix_(subset, subset)]) - 1e-12

    def test_brute_force_size_guard(self):
        rng = np.random.default_rng(1)
        pool = random_pool(rng, n=12)
        factor = build_dpp_factor(pool)
        with pytest.raises(ValidationError):
            brute_force_map(factor, 25)


class TestSelectionValidation:
    def test_k_bounds(self):
        rng = np.random.default_rng(3)
        factor = build_dpp_factor(random_pool(rng, n=4))
        with pytest.raises(ValidationError):
            greedy_dpp_select(factor, 0)
        with pytest.raises(ValidationError):
            greedy_dpp_select(factor, 5)

    def test_empty_pool(self):
        pool = CandidatePool(ids=(), phi=np.zeros((0, 2)), scores=np.zeros(0), beta=8.0)
        with pytest.raises(ValidationError, match="empty"):
            greedy_dpp_select(build_dpp_factor(pool), 1)


@st.composite
def twin_pools(draw):
    """Pools whose rows come in identical twins with equal scores, placed next
    to each other or scattered; ``owner[i]`` names row ``i``'s twin pair."""
    m = draw(st.integers(1, 16))
    d = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.standard_normal((m, d))
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    scores = rng.uniform(-0.05, 0.05, size=m)
    owner = [i for i in range(m) for _ in range(2)]
    if draw(st.booleans()):
        owner = draw(st.permutations(owner))
    k = draw(st.integers(1, min(2 * m, 8)))
    pool = CandidatePool(
        ids=tuple(f"c{i}" for i in range(2 * m)), phi=phi[owner], scores=scores[owner], beta=8.0
    )
    return pool, owner, k


@settings(max_examples=300, deadline=None)
@given(twin_pools())
def test_duplicate_candidates_resolve_to_smallest_index(case):
    pool, owner, k = case
    factor = build_dpp_factor(pool)
    selected = greedy_dpp_select(factor, k)
    for step, j in enumerate(selected):
        earlier_twin = owner.index(owner[j])
        assert earlier_twin == j or earlier_twin in selected[:step], (
            f"step {step} picked row {j} while its twin row {earlier_twin} was live"
        )
    assert selected == oracle_sequential(factor.b, k)


class TestKernelContract:
    def test_factor_is_only_read(self):
        rng = np.random.default_rng(41)
        b = build_dpp_factor(random_pool(rng, n=200, d=16)).b
        before = b.tobytes()
        b.setflags(write=False)  # any write into b raises
        assert len(greedy_dpp_select(DppFactor(b=b), 12)) == 12
        assert b.tobytes() == before

    def test_rank_deficient_pool_stops_at_rank(self):
        rng = np.random.default_rng(43)
        factor = build_dpp_factor(random_pool(rng, n=50, d=8))
        selected, gains = greedy_dpp_select(factor, 20, return_gains=True)
        assert len(selected) == 8
        assert len(set(selected)) == 8
        assert gains.shape == (8,)

    def test_log_gains_equal_slogdet_at_bench_size(self):
        rng = np.random.default_rng(47)
        factor = build_dpp_factor(random_pool(rng, n=1000, d=256))
        selected, gains = greedy_dpp_select(factor, 32, return_gains=True)
        assert len(selected) == 32
        sub = factor.b[selected]
        sign, logdet = np.linalg.slogdet(sub @ sub.T)
        assert sign == 1.0
        assert float(np.sum(np.log(gains))) == pytest.approx(logdet, rel=1e-9)
