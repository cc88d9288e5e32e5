"""The shot-curve formulas one curve at a time, in plain Python floats.

``ctxforge.metrics`` writes each formula once, for many curves on one grid
as float64 matrices.  This module writes them again, independently, as the
reference the tests hold it to: every value bit and every error text.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ctxforge.errors import ValidationError
from ctxforge.metrics import CurveSummary, pearson
from ctxforge.records import ShotCurve


def trapezoid(xs: Sequence[float], ys: Sequence[float]) -> float:
    total = 0.0
    for i in range(1, len(xs)):
        total += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1])
    return total


def icl_efficiency(curve: ShotCurve) -> float:
    if len(curve.shots) < 2:
        raise ValidationError("icl_efficiency: single-point curve")
    if curve.shots[0] != 0:
        raise ValidationError(f"icl_efficiency: missing shot 0 (grid {curve.shots})")
    p0 = curve.values[0]
    deltas = [v - p0 for v in curve.values]
    return trapezoid(curve.shots, deltas) / curve.shots[-1]


def summarize(curve: ShotCurve) -> CurveSummary:
    eff = icl_efficiency(curve)
    return CurveSummary(zero_shot=curve.values[0], peak=max(curve.values), efficiency=eff)


def stability_score(clean: ShotCurve, perturbed: ShotCurve) -> float:
    if clean.shots != perturbed.shots:
        raise ValidationError(f"stability_score: grid mismatch {clean.shots} vs {perturbed.shots}")
    for i, v in enumerate(clean.values):
        if v <= 0:
            raise ValidationError(f"stability_score: clean values[{i}] = {v!r} not positive")
    base = trapezoid(clean.shots, clean.values)
    if base <= 0:
        raise ValidationError("stability_score: non-positive clean area")
    dev = trapezoid(clean.shots, [abs(c - p) for c, p in zip(clean.values, perturbed.values)])
    return 100.0 * dev / base


def percent_changes(base: ShotCurve, variant: ShotCurve) -> list[float]:
    """Percent change of ``variant`` over ``base`` at each point of their shared grid."""
    if base.shots != variant.shots:
        raise ValidationError(f"grid mismatch {base.shots} vs {variant.shots}")
    for j, bv in enumerate(base.values):
        if bv == 0:
            raise ValidationError(f"zero base value at point {j}")
    return [100.0 * (vv - bv) / bv for bv, vv in zip(base.values, variant.values)]


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys):
        raise ValidationError(f"spearman: length mismatch {len(xs)} vs {len(ys)}")
    return pearson(average_ranks(xs), average_ranks(ys))


def relative_change(base: Sequence[ShotCurve], variant: Sequence[ShotCurve]) -> float:
    if len(base) != len(variant):
        raise ValidationError(f"relative_change: curve count mismatch {len(base)} vs {len(variant)}")
    if not base:
        raise ValidationError("relative_change: no curves")
    diffs: list[float] = []
    for i, (b, v) in enumerate(zip(base, variant)):
        try:
            diffs.extend(percent_changes(b, v))
        except ValidationError as exc:
            raise ValidationError(f"relative_change: curve {i}: {exc}") from None
    with np.errstate(invalid="ignore"):
        return float(np.mean(diffs))
