"""Curve summaries, stability deviation, correlations, aggregation."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import one_curve
from ctxforge import metrics
from ctxforge.errors import ValidationError
from ctxforge.metrics import (
    ResultRow,
    _RowError,
    _average_ranks_rows,
    _percent_changes_rows,
    _stability_rows,
    _summarize_rows,
    icl_efficiency,
    load_results,
    pearson,
    relative_change,
    spearman,
    stability_score,
    summarize,
    win_tie_lose,
)
from ctxforge.records import ShotCurve


def curve(shots, values):
    return ShotCurve(shots=tuple(shots), values=tuple(values))


class TestEfficiency:
    def test_step_curve_gold_value(self):
        # jumps to the plateau after a single shot: (1/8) * trapezoid area of deltas
        c = curve([0, 1, 2, 4, 8], [10.0, 20.0, 20.0, 20.0, 20.0])
        assert icl_efficiency(c) == pytest.approx(9.375, abs=1e-12)

    def test_linear_curve_gold_value(self):
        # P_k = P_0 + k: mean delta over [0, 8] is exactly 4
        c = curve([0, 1, 2, 4, 8], [3.0, 4.0, 5.0, 7.0, 11.0])
        assert icl_efficiency(c) == pytest.approx(4.0, abs=1e-12)

    def test_flat_curve_is_zero(self):
        assert icl_efficiency(curve([0, 1, 2], [5.0, 5.0, 5.0])) == 0.0

    def test_degradation_is_negative(self):
        assert icl_efficiency(curve([0, 4], [10.0, 6.0])) < 0.0

    def test_matches_numpy_trapezoid_on_random_curves(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            extra = sorted(set(rng.integers(1, 20, size=rng.integers(1, 6)).tolist()))
            shots = [0] + extra
            values = rng.uniform(0, 100, size=len(shots))
            c = curve(shots, values)
            deltas = values - values[0]
            expected = np.trapezoid(deltas, shots) / shots[-1]
            assert icl_efficiency(c) == pytest.approx(expected, rel=1e-12)

    def test_requires_shot_zero(self):
        with pytest.raises(ValidationError, match="shot 0"):
            icl_efficiency(curve([1, 2], [1.0, 2.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError, match="single-point"):
            icl_efficiency(curve([0], [1.0]))


class TestSummarize:
    def test_fields(self):
        s = summarize(curve([0, 1, 2, 4, 8], [10.0, 20.0, 20.0, 20.0, 20.0]))
        assert s.zero_shot == 10.0
        assert s.peak == 20.0
        assert s.efficiency == pytest.approx(9.375)

    def test_peak_can_be_zero_shot(self):
        s = summarize(curve([0, 4], [10.0, 6.0]))
        assert s.peak == 10.0


class TestStability:
    def test_ten_percent_drop_gold_value(self):
        clean = curve([1, 2, 4, 8], [20.0, 30.0, 40.0, 50.0])
        pert = curve([1, 2, 4, 8], [v * 0.9 for v in (20.0, 30.0, 40.0, 50.0)])
        assert stability_score(clean, pert) == pytest.approx(10.0, abs=1e-12)

    def test_identical_curves_deviate_zero(self):
        clean = curve([1, 2, 4], [5.0, 6.0, 7.0])
        assert stability_score(clean, clean) == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(ValidationError, match="grid"):
            stability_score(curve([1, 2], [1.0, 2.0]), curve([1, 4], [1.0, 2.0]))

    def test_clean_values_must_be_positive(self):
        with pytest.raises(ValidationError):
            stability_score(curve([1, 2], [0.0, 2.0]), curve([1, 2], [1.0, 2.0]))


class TestCorrelation:
    def test_spearman_gold_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_pearson_perfect_line(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + 0.5 * x
            assert pearson(x, y) == pytest.approx(scipy_stats.pearsonr(x, y).statistic, abs=1e-12)
            assert spearman(x, y) == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)

    def test_ordinary_inputs_keep_the_plain_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-100, 100)
            y = rng.standard_normal(n) + 0.5 * x
            xc, yc = x - x.mean(), y - y.mean()
            plain = float(xc @ yc) / (math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc)))
            assert pearson(x, y) == plain

    @pytest.mark.parametrize("scale", [1e-200, 1e-165, 1e200, 1e305])
    def test_extreme_magnitudes_match_scipy(self, scale):
        # The plain sums of squares underflow or overflow at these scales.
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            x = rng.standard_normal(n) * scale
            y = rng.standard_normal(n) + 0.5 * x / scale
            assert pearson(x, y) == pytest.approx(scipy_stats.pearsonr(x, y).statistic, abs=1e-12)
            assert pearson(y, x) == pytest.approx(scipy_stats.pearsonr(y, x).statistic, abs=1e-12)

    def test_overflowing_sums_give_the_correlation(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        x, y = [1e200, -1e200, 1e200], [1.0, 3.0, 2.0]
        assert pearson(x, y) == pytest.approx(scipy_stats.pearsonr(x, y).statistic, abs=1e-12)
        # centring alone overflows here; the correlation is that of [1, 1, -1, ~0]
        assert pearson([1.7e308, 1.7e308, -1.7e308, 3.0], [1, 2, 3, 4]) == pytest.approx(
            -2.5 / math.sqrt(2.75 * 5.0), abs=1e-12
        )

    def test_spearman_with_ties_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(4, 30))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            pearson([1, 2], [3, 4])

    def test_constant_input_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("value", [1e-200, 1e308])
    def test_constant_extreme_input_rejected(self, value):
        with pytest.raises(ValidationError, match="constant"):
            pearson([value] * 3, [1, 2, 3])


class TestRelativeChange:
    def test_uniform_ten_percent(self):
        base = [curve([0, 4], [10.0, 20.0])]
        variant = [curve([0, 4], [11.0, 22.0])]
        assert relative_change(base, variant) == pytest.approx(10.0, abs=1e-12)

    def test_averages_across_curves_and_shots(self):
        base = [curve([0, 4], [10.0, 10.0]), curve([0, 4], [10.0, 10.0])]
        variant = [curve([0, 4], [12.0, 12.0]), curve([0, 4], [8.0, 8.0])]
        assert relative_change(base, variant) == pytest.approx(0.0, abs=1e-12)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValidationError):
            relative_change([curve([0, 4], [0.0, 1.0])], [curve([0, 4], [1.0, 1.0])])

    def test_count_mismatch(self):
        with pytest.raises(ValidationError):
            relative_change([curve([0], [1.0])], [])

    def test_opposite_infinite_changes_mean_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relative_change([curve([0, 1], [1e-300, 1e-300])],
                                  [curve([0, 1], [1e308, -1e308])])
        assert math.isnan(got)


class TestWinTieLose:
    def test_percentages(self):
        win, tie, lose = win_tie_lose(["win", "win", "tie", "lose"])
        assert (win, tie, lose) == (50.0, 25.0, 25.0)

    def test_unknown_outcome(self):
        with pytest.raises(ValidationError):
            win_tie_lose(["win", "draw"])

    def test_empty(self):
        with pytest.raises(ValidationError):
            win_tie_lose([])


class TestResultRows:
    def test_round_trip(self, tmp_path):
        row = ResultRow(
            model="m",
            task="t",
            taxonomy="Perception",
            modality="und",
            curve=curve([0, 1], [1.0, 2.0]),
            perturbation="reverse_order",
        )
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",'
            ' "perturbation": "reverse_order", "shots": [0, 1], "values": [1.0, 2.0]}\n'
        )
        assert list(load_results(path)) == [row]

    def test_clean_maps_to_none(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",'
            ' "perturbation": "clean", "shots": [0], "values": [1.0]}\n'
        )
        assert load_results(path)[0].perturbation is None

    def test_bad_perturbation_kind(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",'
            ' "perturbation": "scramble", "shots": [0], "values": [1.0]}\n'
        )
        with pytest.raises(ValidationError, match="line 1"):
            load_results(path)

    def test_bad_modality(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"model": "m", "task": "t", "taxonomy": "Perception", "modality": "audio",'
            ' "shots": [0], "values": [1.0]}\n'
        )
        with pytest.raises(ValidationError):
            load_results(path)


# ---------------------------------------------------------------------------
# the row functions against the one-curve reference (tests/one_curve.py):
# the same bits, and the error of the first row the reference rejects

GRIDS = st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True).map(
    lambda s: tuple(sorted(s)))
VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 2.0, 5e-324, 1e308, -1e308])


def bits(values):
    return [float(v).hex() for v in values]


def outcome(f, *args):
    """``f(*args)``, or its error message."""
    try:
        return f(*args)
    except ValidationError as exc:
        return str(exc)


def row_outcome(want, f, *args):
    """``f(*args)`` when the reference outcomes ``want``, one per row, reject
    none; else None, once ``f`` has raised the reference's error for the
    first row the reference rejects."""
    rejected = [r for r, w in enumerate(want) if isinstance(w, str)]
    try:
        got = f(*args)
    except _RowError as exc:
        assert rejected, exc
        assert (exc.row, str(exc)) == (rejected[0], want[rejected[0]])
        return None
    assert not rejected, want
    return got


# mostly positive: a clean curve or a transfer base with a value <= 0 is rejected
BASE_VALUES = st.floats(0.0, 1e308, exclude_min=True) | VALUES


def matrices(grid, *strategies):
    """1 to 4 rows of curves on ``grid``, one drawn from each strategy."""
    return st.lists(st.tuples(*(st.lists(s, min_size=len(grid), max_size=len(grid))
                                for s in strategies)), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(GRIDS.flatmap(lambda g: st.tuples(st.just(g), matrices(g, VALUES))))
def test_summarize_rows_gives_summarize_bits(case):
    grid, rows = case
    want = [outcome(one_curve.summarize, curve(grid, values)) for (values,) in rows]
    got = row_outcome(want, _summarize_rows, grid, np.array([values for (values,) in rows]))
    if got is not None:
        assert [bits([s.zero_shot, s.peak, s.efficiency]) for s in want] == [
            bits(column) for column in zip(*got)]


@settings(max_examples=300, deadline=None)
@given(GRIDS.flatmap(lambda g: st.tuples(st.just(g), matrices(g, BASE_VALUES, VALUES))))
def test_stability_rows_give_stability_score_bits(case):
    grid, rows = case
    want = [outcome(one_curve.stability_score, curve(grid, clean), curve(grid, perturbed))
            for clean, perturbed in rows]
    got = row_outcome(want, _stability_rows, grid, *(np.array(m) for m in zip(*rows)))
    if got is not None:
        assert bits(got) == bits(want)


@settings(max_examples=300, deadline=None)
@given(GRIDS.flatmap(lambda g: st.tuples(st.just(g), matrices(g, BASE_VALUES, VALUES))))
def test_percent_changes_rows_give_percent_changes_bits(case):
    grid, rows = case
    want = [outcome(one_curve.percent_changes, curve(grid, base), curve(grid, variant))
            for base, variant in rows]
    got = row_outcome(want, _percent_changes_rows, *(np.array(m) for m in zip(*rows)))
    if got is not None:
        assert [bits(r) for r in got] == [bits(w) for w in want]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.5, 1e308]), min_size=n, max_size=n),
    min_size=1, max_size=4)))
def test_average_ranks_rows_give_average_ranks_bits(rows):
    got = _average_ranks_rows(np.array(rows))
    assert [bits(r) for r in got] == [bits(one_curve.average_ranks(r)) for r in rows]


@settings(max_examples=300, deadline=None)
@given(GRIDS.flatmap(lambda g: st.tuples(st.just(g), matrices(g, BASE_VALUES, VALUES))))
def test_one_curve_functions_give_the_reference_outcome(case):
    # repr tells apart every float but NaNs, -0.0 from 0.0 included, and a
    # numpy scalar from a float
    grid, rows = case
    base = [curve(grid, b) for b, _ in rows]
    other = [curve(grid, v) for _, v in rows]
    for name, args in [
        *(("summarize", (b,)) for b in base),
        *(("icl_efficiency", (b,)) for b in base),
        *(("stability_score", pair) for pair in zip(base, other)),
        *(("spearman", (b.values, v.values)) for b, v in zip(base, other)),
        ("relative_change", (base, other)),
    ]:
        with np.errstate(all="ignore"):  # np.mean of inf and -inf, on both sides
            want = outcome(getattr(one_curve, name), *args)
            assert repr(outcome(getattr(metrics, name), *args)) == repr(want), name
