"""Shot-curve metrics: efficiency, stability, correlation, transfer deltas.

All aggregations run in float64.  Curves live on explicit shot grids (see
:class:`ctxforge.records.ShotCurve`); nothing here interpolates beyond the
trapezoid rule on the given grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ValidationError
from .records import ShotCurve, TAXONOMIES, _read_jsonl, _unchecked

PERTURBATION_KINDS = ("random_replace", "reverse_order", "interference")
RESULT_MODALITIES = ("und", "gen")
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class CurveSummary:
    """Headline numbers for one curve: P_0, best P_k, and efficiency."""

    zero_shot: float
    peak: float
    efficiency: float


@dataclass(frozen=True)
class StabilityReport:
    perturbation: str
    deviation_percent: float

    def __post_init__(self) -> None:
        if self.perturbation not in PERTURBATION_KINDS:
            raise ValidationError(
                f"perturbation: {self.perturbation!r} is not one of {PERTURBATION_KINDS}"
            )
        if not math.isfinite(self.deviation_percent) or self.deviation_percent < 0:
            raise ValidationError(
                f"deviation_percent: must be finite and >= 0, got {self.deviation_percent!r}"
            )


def _trapezoid(xs: Sequence[float], ys: Sequence[float]) -> float:
    total = 0.0
    for i in range(1, len(xs)):
        total += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1])
    return total


def icl_efficiency(curve: ShotCurve) -> float:
    """Normalized area under the gain-over-zero-shot curve.

    Eff = (1 / K_max) * sum_i 0.5 * ((P_{k_i} - P_0) + (P_{k_{i-1}} - P_0))
                               * (k_i - k_{i-1})

    The grid must contain shot 0 and at least one more point.
    """
    _check_efficiency_grid(curve.shots)
    p0 = curve.values[0]
    deltas = [v - p0 for v in curve.values]
    k_max = curve.shots[-1]
    return _trapezoid(curve.shots, deltas) / k_max


def _check_efficiency_grid(shots: tuple[int, ...]) -> None:
    if len(shots) < 2:
        raise ValidationError("icl_efficiency: single-point curve")
    if shots[0] != 0:
        raise ValidationError(f"icl_efficiency: missing shot 0 (grid {shots})")


def summarize(curve: ShotCurve) -> CurveSummary:
    """Zero-shot value, peak value, and efficiency for one curve."""
    eff = icl_efficiency(curve)
    return CurveSummary(
        zero_shot=curve.values[0], peak=max(curve.values), efficiency=eff
    )


def stability_score(clean: ShotCurve, perturbed: ShotCurve) -> float:
    """Percent area deviation of a perturbed curve from its clean twin.

    100 * area(|clean - perturbed|) / area(clean), both areas by the
    trapezoid rule on the shared grid.  Clean values must be strictly
    positive and the grids identical.
    """
    if clean.shots != perturbed.shots:
        raise ValidationError(
            f"stability_score: grid mismatch {clean.shots} vs {perturbed.shots}"
        )
    for i, v in enumerate(clean.values):
        if v <= 0:
            raise ValidationError(f"stability_score: clean values[{i}] = {v!r} not positive")
    base = _trapezoid(clean.shots, clean.values)
    if base <= 0:
        raise ValidationError("stability_score: non-positive clean area")
    dev = _trapezoid(
        clean.shots, [abs(c - p) for c, p in zip(clean.values, perturbed.values)]
    )
    return 100.0 * dev / base


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; needs >= 3 paired points and non-constant input."""
    if len(xs) != len(ys):
        raise ValidationError(f"pearson: length mismatch {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise ValidationError("pearson: need at least 3 points")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("pearson: non-finite input")
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        sxx, syy, sxy = float(xc @ xc), float(yc @ yc), float(xc @ yc)
    tiny, huge = sys.float_info.min, sys.float_info.max
    if not (tiny <= sxx <= huge and tiny <= syy <= huge and abs(sxy) <= huge):
        # The sums overflow (or underflow) at extreme magnitudes.  The
        # correlation does not change with scale, so take it from the
        # centred inputs brought to a largest magnitude of 1.
        xc, yc = _unit_centred(x), _unit_centred(y)
        sxx, syy, sxy = float(xc @ xc), float(yc @ yc), float(xc @ yc)
    denom = math.sqrt(sxx) * math.sqrt(syy)
    if denom == 0.0:
        raise ValidationError("pearson: constant input")
    return sxy / denom


def _unit_centred(v: np.ndarray) -> np.ndarray:
    """``v`` minus its mean, divided by the largest magnitude, with no
    intermediate overflow; all zeros for constant ``v``."""
    top = np.max(np.abs(v))
    if top == 0.0:
        return v
    c = v / top  # in [-1, 1], so the mean and the differences stay finite
    c = c - c.mean()
    top = np.max(np.abs(c))
    return c / top if top else c


def _average_ranks(values: Sequence[float]) -> np.ndarray:
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
    """Spearman rank correlation (average ranks for ties)."""
    if len(xs) != len(ys):
        raise ValidationError(f"spearman: length mismatch {len(xs)} vs {len(ys)}")
    return pearson(_average_ranks(xs), _average_ranks(ys))


def relative_change(base: Sequence[ShotCurve], variant: Sequence[ShotCurve]) -> float:
    """Mean percent change of variant over base across all curve points."""
    if len(base) != len(variant):
        raise ValidationError(
            f"relative_change: curve count mismatch {len(base)} vs {len(variant)}"
        )
    if not base:
        raise ValidationError("relative_change: no curves")
    diffs: list[float] = []
    for i, (b, v) in enumerate(zip(base, variant)):
        try:
            diffs.extend(_percent_changes(b, v))
        except ValidationError as exc:
            raise ValidationError(f"relative_change: curve {i}: {exc}") from None
    return float(np.mean(diffs))


def _percent_changes(base: ShotCurve, variant: ShotCurve) -> list[float]:
    """Percent change of ``variant`` over ``base`` at each point of their shared grid."""
    if base.shots != variant.shots:
        raise ValidationError(f"grid mismatch {base.shots} vs {variant.shots}")
    for j, bv in enumerate(base.values):
        if bv == 0:
            raise ValidationError(f"zero base value at point {j}")
    return [100.0 * (vv - bv) / bv for bv, vv in zip(base.values, variant.values)]


def win_tie_lose(outcomes: Sequence[str]) -> tuple[float, float, float]:
    """Percentages of win/tie/lose judgments; always sums to 100."""
    if not outcomes:
        raise ValidationError("win_tie_lose: no outcomes")
    counts = {"win": 0, "tie": 0, "lose": 0}
    for i, o in enumerate(outcomes):
        if not isinstance(o, str) or o not in counts:
            raise ValidationError(f"win_tie_lose: outcomes[{i}] = {o!r} not win/tie/lose")
        counts[o] += 1
    n = len(outcomes)
    return (
        100.0 * counts["win"] / n,
        100.0 * counts["tie"] / n,
        100.0 * counts["lose"] / n,
    )


# ---------------------------------------------------------------------------
# many curves on one grid at once
#
# Each function below takes n curves on one shot grid as (n, len(grid))
# float64 matrices and gives, row by row, every bit its one-curve
# counterpart above gives: the same operations in the same order, one grid
# column at a time.  A row that counterpart rejects is only flagged; the
# caller asks the counterpart for its error.


def _trapezoid_rows(shots: tuple[int, ...], ys: np.ndarray) -> np.ndarray:
    """``_trapezoid(shots, row)`` of every row of ``ys``."""
    total = np.zeros(len(ys))
    for i in range(1, len(shots)):
        total += 0.5 * (ys[:, i] + ys[:, i - 1]) * float(shots[i] - shots[i - 1])
    return total


def _summarize_rows(
    shots: tuple[int, ...], values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``summarize``'s zero-shot values, peaks and efficiencies of the rows
    of ``values``, curves on ``shots``; its error for a grid it rejects."""
    _check_efficiency_grid(shots)
    with np.errstate(all="ignore"):  # as float arithmetic: inf and NaN, no warning
        efficiency = _trapezoid_rows(shots, values - values[:, :1]) / float(shots[-1])
    # argmax takes the first of equal maxima, as max does (-0.0 before 0.0)
    peak = values[np.arange(len(values)), values.argmax(axis=1)]
    return values[:, 0], peak, efficiency


def _stability_rows(
    shots: tuple[int, ...], clean: np.ndarray, perturbed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``stability_score`` of each row of ``perturbed`` against the same row
    of ``clean``, all curves on ``shots``, and a mask of the rows it rejects."""
    with np.errstate(all="ignore"):
        base = _trapezoid_rows(shots, clean)
        deviation = 100.0 * _trapezoid_rows(shots, np.abs(clean - perturbed)) / base
    return deviation, (clean <= 0).any(axis=1) | (base <= 0)


def _percent_changes_rows(base: np.ndarray, variant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_percent_changes`` of each row of ``variant`` over the same row of
    ``base``, both on one grid, and a mask of the rows it rejects."""
    with np.errstate(all="ignore"):
        changes = 100.0 * (variant - base) / base
    return changes, (base == 0).any(axis=1)


def _average_ranks_rows(values: np.ndarray) -> np.ndarray:
    """``_average_ranks`` of each row of ``values``."""
    n = values.shape[1]
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    position = np.broadcast_to(np.arange(n), values.shape)
    # a run of equal values spans sorted positions first..last
    starts = np.ones(values.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.ones(values.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, position, n - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=1)
    return ranks


# ---------------------------------------------------------------------------
# result rows (shared input schema of the eval subcommands)


@dataclass(frozen=True)
class ResultRow:
    """One benchmark curve: who produced it, on what, and the curve itself."""

    model: str
    task: str
    taxonomy: str
    modality: str
    curve: ShotCurve
    perturbation: str | None = None

    def __post_init__(self) -> None:
        for name in ("model", "task"):
            if not isinstance(getattr(self, name), str) or not getattr(self, name):
                raise ValidationError(f"{name}: must be a non-empty string")
        # a string test first: a list or dict cannot be looked up in a frozenset
        if not isinstance(self.taxonomy, str) or self.taxonomy not in TAXONOMIES:
            raise ValidationError(f"taxonomy: {self.taxonomy!r} is not one of {sorted(TAXONOMIES)}")
        if not isinstance(self.modality, str) or self.modality not in RESULT_MODALITIES:
            raise ValidationError(
                f"modality: {self.modality!r} is not one of {RESULT_MODALITIES}"
            )
        if self.perturbation is not None and (
            not isinstance(self.perturbation, str) or self.perturbation not in PERTURBATION_KINDS
        ):
            raise ValidationError(
                f"perturbation: {self.perturbation!r} is not one of {PERTURBATION_KINDS}"
            )

    @staticmethod
    def from_json(obj: Any, path: str = "result") -> "ResultRow":
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        for key in ("model", "task", "taxonomy", "modality", "shots", "values"):
            if key not in obj:
                raise ValidationError(f"{path}.{key}: missing")
        shots = obj["shots"]
        values = obj["values"]
        if not isinstance(shots, list) or not isinstance(values, list):
            raise ValidationError(f"{path}: shots and values must be lists")
        try:
            curve = ShotCurve(shots=tuple(shots), values=tuple(float(v) for v in values))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{path}.values: expected numbers") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        pert = obj.get("perturbation")
        if pert == "clean":
            pert = None
        try:
            return ResultRow(
                model=obj["model"],
                task=obj["task"],
                taxonomy=obj["taxonomy"],
                modality=obj["modality"],
                curve=curve,
                perturbation=pert,
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


class ResultTable(Sequence[ResultRow]):
    """Result rows held as columns: a read-only sequence of ``ResultRow``.

    Per row: ``models``, ``tasks``, ``taxonomies``, ``modalities``,
    ``perturbations`` (``None`` for a clean curve), and the curve's
    ``shots`` and ``values``, one tuple each.  A row is built only when it
    is indexed or iterated.  The ``eval`` reports read the columns directly.
    """

    def __init__(self) -> None:
        self.models: list[str] = []
        self.tasks: list[str] = []
        self.taxonomies: list[str] = []
        self.modalities: list[str] = []
        self.perturbations: list[str | None] = []
        self.shots: list[tuple[int, ...]] = []
        self.values: list[tuple[float, ...]] = []

    def _append(
        self,
        model: str,
        task: str,
        taxonomy: str,
        modality: str,
        perturbation: str | None,
        shots: tuple[int, ...],
        values: tuple[float, ...],
    ) -> None:
        """Add one row, as it is: nothing is checked or converted."""
        self.models.append(model)
        self.tasks.append(task)
        self.taxonomies.append(taxonomy)
        self.modalities.append(modality)
        self.perturbations.append(perturbation)
        self.shots.append(shots)
        self.values.append(values)

    def __len__(self) -> int:
        return len(self.models)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # negative indices, and IndexError past the end
        return _unchecked(
            ResultRow,
            model=self.models[i],
            task=self.tasks[i],
            taxonomy=self.taxonomies[i],
            modality=self.modalities[i],
            curve=_unchecked(ShotCurve, shots=self.shots[i], values=self.values[i]),
            perturbation=self.perturbations[i],
        )


def _row_fields(row: ResultRow) -> tuple:
    """``ResultTable._append``'s arguments for ``row``."""
    return (row.model, row.task, row.taxonomy, row.modality, row.perturbation,
            row.curve.shots, row.curve.values)


def load_results(path: str) -> ResultTable:
    """Load a result JSONL file into a ``ResultTable``."""
    table = ResultTable()
    _read_jsonl(
        path,
        lambda obj: _exact_result(table, obj) or table._append(*_row_fields(ResultRow.from_json(obj))),
        lambda lineno, added: None,
    )
    return table


def _exact_result(table: ResultTable, obj: Any) -> bool:
    """Append the row ``ResultRow.from_json(obj)`` returns to ``table``'s
    columns, taken from ``obj`` without checking a field twice, when every
    field already has its exact JSON type and is in range; for any other
    object append nothing and return ``False``, and ``from_json`` then
    converts it (ints, numeric strings) or rejects it with its own message."""
    if type(obj) is not dict:
        return False
    model, task = obj.get("model"), obj.get("task")
    taxonomy, modality = obj.get("taxonomy"), obj.get("modality")
    shots, values = obj.get("shots"), obj.get("values")
    pert = obj.get("perturbation")
    if pert == "clean":
        pert = None
    if not (
        type(model) is str and model
        and type(task) is str and task
        and type(taxonomy) is str and taxonomy in TAXONOMIES
        and type(modality) is str and modality in RESULT_MODALITIES
        and (pert is None or type(pert) is str and pert in PERTURBATION_KINDS)
        and type(shots) is list and type(values) is list and len(shots) == len(values) > 0
    ):
        return False
    prev = -1
    for s in shots:
        if type(s) is not int or not prev < s <= _FLOAT_MAX:
            return False
        prev = s
    for v in values:
        if type(v) is not float or v - v != 0.0:  # NaN and +-inf give NaN
            return False
    table._append(model, task, taxonomy, modality, pert, tuple(shots), tuple(values))
    return True
