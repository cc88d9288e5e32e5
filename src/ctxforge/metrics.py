"""Shot-curve metrics: efficiency, stability, correlation, transfer deltas,
and the ``forge eval`` reports built on them.

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
from .records import ShotCurve, TAXONOMIES, TAXONOMY_ORDER, _read_jsonl, _unchecked

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


def _row(values: Sequence[float]) -> np.ndarray:
    """``values`` as a one-row float64 matrix."""
    return np.array([values], dtype=np.float64)


def icl_efficiency(curve: ShotCurve) -> float:
    """Normalized area under the gain-over-zero-shot curve (see
    ``_summarize_rows``); the grid must contain shot 0 and one more point."""
    return summarize(curve).efficiency


def summarize(curve: ShotCurve) -> CurveSummary:
    """Zero-shot value, peak value, and efficiency for one curve."""
    summary = _summarize_rows(curve.shots, _row(curve.values))
    zero_shot, peak, efficiency = (float(column[0]) for column in summary)
    return CurveSummary(zero_shot=zero_shot, peak=peak, efficiency=efficiency)


def stability_score(clean: ShotCurve, perturbed: ShotCurve) -> float:
    """Percent area deviation of a perturbed curve from its clean twin (see
    ``_stability_rows``).  Clean values must be strictly positive and the
    grids identical."""
    if clean.shots != perturbed.shots:
        raise ValidationError(
            f"stability_score: grid mismatch {clean.shots} vs {perturbed.shots}"
        )
    return float(_stability_rows(clean.shots, _row(clean.values), _row(perturbed.values))[0])


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


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    if len(xs) != len(ys):
        raise ValidationError(f"spearman: length mismatch {len(xs)} vs {len(ys)}")
    return pearson(*_average_ranks_rows(np.array([xs, ys], dtype=np.float64)))


def relative_change(base: Sequence[ShotCurve], variant: Sequence[ShotCurve]) -> float:
    """Mean percent change of variant over base across all curve points."""
    if len(base) != len(variant):
        raise ValidationError(
            f"relative_change: curve count mismatch {len(base)} vs {len(variant)}"
        )
    if not base:
        raise ValidationError("relative_change: no curves")
    changes = []
    for i, (b, v) in enumerate(zip(base, variant)):
        try:
            if b.shots != v.shots:
                raise ValidationError(f"grid mismatch {b.shots} vs {v.shots}")
            changes.append(_percent_changes_rows(_row(b.values), _row(v.values)))
        except ValidationError as exc:
            raise ValidationError(f"relative_change: curve {i}: {exc}") from None
    with np.errstate(invalid="ignore"):  # a mean of +inf and -inf is NaN, and says so itself
        return float(np.mean(np.concatenate(changes, axis=None)))


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
# the curve formulas, each written once for n curves on one shot grid
#
# Each function takes the curves as (n, len(grid)) float64 matrices and works
# one grid column at a time.  It raises the error of the first row it
# rejects, as a ``_RowError`` that names the row.  The public functions above
# are one-row calls of these.


class _RowError(ValidationError):
    """A row function's error: the one-curve text for row ``row`` of its input."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


def _trapezoid_rows(shots: tuple[int, ...], ys: np.ndarray) -> np.ndarray:
    """The trapezoid-rule area of each row of ``ys`` over ``shots``."""
    total = np.zeros(len(ys))
    for i in range(1, len(shots)):
        total += 0.5 * (ys[:, i] + ys[:, i - 1]) * float(shots[i] - shots[i - 1])
    return total


def _summarize_rows(
    shots: tuple[int, ...], values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The zero-shot value, peak value and ICL efficiency of each row of
    ``values``, curves on ``shots``.  The efficiency is the normalized area
    under the gain-over-zero-shot curve:

    Eff = (1 / K_max) * sum_i 0.5 * ((P_{k_i} - P_0) + (P_{k_{i-1}} - P_0))
                               * (k_i - k_{i-1})

    The grid must contain shot 0 and at least one more point."""
    if len(shots) < 2:
        raise _RowError("icl_efficiency: single-point curve", 0)
    if shots[0] != 0:
        raise _RowError(f"icl_efficiency: missing shot 0 (grid {shots})", 0)
    with np.errstate(all="ignore"):  # as float arithmetic: inf and NaN, no warning
        efficiency = _trapezoid_rows(shots, values - values[:, :1]) / float(shots[-1])
    # argmax takes the first of equal maxima, as max does (-0.0 before 0.0)
    peak = values[np.arange(len(values)), values.argmax(axis=1)]
    return values[:, 0], peak, efficiency


def _stability_rows(shots: tuple[int, ...], clean: np.ndarray, perturbed: np.ndarray) -> np.ndarray:
    """The percent area deviation of each row of ``perturbed`` from the same
    row of ``clean``, all curves on ``shots``: 100 * area(|clean - perturbed|)
    / area(clean), both by the trapezoid rule.  Clean values must be strictly
    positive."""
    with np.errstate(all="ignore"):
        base = _trapezoid_rows(shots, clean)
        deviation = 100.0 * _trapezoid_rows(shots, np.abs(clean - perturbed)) / base
    bad = (clean <= 0).any(axis=1) | (base <= 0)
    if bad.any():
        row = int(bad.argmax())
        for i, v in enumerate(clean[row].tolist()):
            if v <= 0:
                raise _RowError(f"stability_score: clean values[{i}] = {v!r} not positive", row)
        raise _RowError("stability_score: non-positive clean area", row)
    return deviation


def _percent_changes_rows(base: np.ndarray, variant: np.ndarray) -> np.ndarray:
    """The percent change of each row of ``variant`` over the same row of
    ``base`` at each point of their shared grid."""
    zero = base == 0
    if zero.any():
        row = int(zero.any(axis=1).argmax())
        raise _RowError(f"zero base value at point {int(zero[row].argmax())}", row)
    with np.errstate(all="ignore"):
        return 100.0 * (variant - base) / base


def _average_ranks_rows(values: np.ndarray) -> np.ndarray:
    """The 1-based ranks within each row of ``values``; tied values share
    the average of their positions."""
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


# ---------------------------------------------------------------------------
# the eval reports: the JSON rows of ``forge eval <report>``
#
# The curve reports compute with the row functions above, one matrix per shot
# grid.  A report's error is that of the first row it rejects in report
# order, prefixed with the report's name and the row's (model, task,
# modality).


def _taxonomy_rank(taxonomy: str) -> int:
    return TAXONOMY_ORDER.index(taxonomy)


def _key(table: ResultTable, i: int) -> tuple[str, str, str]:
    return (table.models[i], table.tasks[i], table.modalities[i])


def _clean_curves(report: str, path: str) -> tuple[ResultTable, dict[tuple, int]]:
    """The result rows at ``path``, and the index of the clean row of each
    (model, task, modality), in file order: the one curve a report reads.  A
    second one is a data error."""
    table = load_results(path)
    clean = {}
    for i, key in enumerate(zip(table.models, table.tasks, table.modalities)):
        if table.perturbations[i] is None:
            if key in clean:
                raise ValidationError(f"{report}: duplicate clean curve for {key}")
            clean[key] = i
    return table, clean


def _positions_by(keys: Sequence[Any]) -> dict[Any, list[int]]:
    """The positions in ``keys`` of each distinct key, in order."""
    positions: dict[Any, list[int]] = {}
    for p, key in enumerate(keys):
        positions.setdefault(key, []).append(p)
    return positions


def _raise_first(errors: list[tuple[int, str]]) -> None:
    """Raise the message of the earliest (report position, message), if any."""
    if errors:
        raise ValidationError(min(errors)[1])


def curves_report(path: str) -> list[dict[str, Any]]:
    """The zero-shot value, peak and efficiency of each clean curve at
    ``path``, by taxonomy, task, model and modality."""
    table, clean = _clean_curves("curves", path)
    order = sorted(clean.values(), key=lambda i: (_taxonomy_rank(table.taxonomies[i]),
                                                  table.tasks[i], table.models[i],
                                                  table.modalities[i]))
    summary = np.empty((3, len(order)))
    # grids in first-appearance order: a grid is rejected as a whole, so the
    # first rejected grid's first row is the report's first rejected curve
    for grid, positions in _positions_by([table.shots[i] for i in order]).items():
        values = np.array([table.values[order[p]] for p in positions])
        try:
            summary[:, positions] = _summarize_rows(grid, values)
        except _RowError as exc:
            raise ValidationError(f"curves: {_key(table, order[positions[0]])}: {exc}") from None
    return [
        {
            "model": table.models[i],
            "task": table.tasks[i],
            "taxonomy": table.taxonomies[i],
            "modality": table.modalities[i],
            "zero_shot": zero_shot,
            "peak": peak,
            "efficiency": efficiency,
        }
        for i, zero_shot, peak, efficiency in zip(order, *summary.tolist())
    ]


def stability_report(path: str) -> list[dict[str, Any]]:
    """The deviation of each perturbed curve at ``path``, in file order, from
    the clean curve of its (model, task, modality) read on its grid, which
    may start later (k >= 1)."""
    table, clean = _clean_curves("stability", path)
    order = [i for i, pert in enumerate(table.perturbations) if pert is not None]
    twins = [clean.get(_key(table, i)) for i in order]
    pairs = [(table.shots[twin], table.shots[i]) if twin is not None else None
             for i, twin in zip(order, twins)]
    deviation = np.empty(len(order))
    errors = []  # (report position, message) of each group's first rejected row
    for pair, positions in _positions_by(pairs).items():
        if pair is None:
            p = positions[0]
            errors.append((p, f"stability: no clean curve for {_key(table, order[p])}"))
            continue
        base_grid, grid = pair
        try:
            for s in grid:  # value_at's error for a shot not on the clean grid
                if s not in base_grid:
                    table[twins[positions[0]]].curve.value_at(s)
            base = np.array([table.values[twins[p]] for p in positions])
            perturbed = np.array([table.values[order[p]] for p in positions])
            columns = [base_grid.index(s) for s in grid]
            deviation[positions] = _stability_rows(grid, base[:, columns], perturbed)
        except ValidationError as exc:
            p = positions[getattr(exc, "row", 0)]
            errors.append((p, f"stability: {_key(table, order[p])}: {exc}"))
    _raise_first(errors)
    return [
        {
            "model": table.models[i],
            "task": table.tasks[i],
            "modality": table.modalities[i],
            "perturbation": table.perturbations[i],
            "deviation_percent": d,
        }
        for i, d in zip(order, deviation.tolist())
    ]


def align_report(path: str, x_field: str, y_field: str) -> list[dict[str, Any]]:
    """The Pearson and Spearman correlations of the finite (``x_field``,
    ``y_field``) pairs at ``path``, by ``task``."""
    groups: dict[str, tuple[list[float], list[float]]] = {}

    def pair(obj: Any) -> tuple[str, float, float]:
        if not isinstance(obj, dict):
            raise ValidationError("expected an object")
        task = obj.get("task", "all")
        if not isinstance(task, str):
            raise ValidationError(f"task must be a string, got {task!r}")
        try:
            x, y = float(obj[x_field]), float(obj[y_field])
            if math.isfinite(x) and math.isfinite(y):
                return task, x, y
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
        raise ValidationError(f"needs numeric {x_field!r} and {y_field!r}")

    def add_pair(lineno: int, fields: tuple[str, float, float]) -> None:
        task, x, y = fields
        xs, ys = groups.setdefault(task, ([], []))
        xs.append(x)
        ys.append(y)

    _read_jsonl(path, pair, add_pair)
    tasks = sorted(groups)
    ranks = {}
    # spearman's average ranks, for the xs and ys of all tasks of one size at once
    for positions in _positions_by([len(groups[t][0]) for t in tasks]).values():
        rows = _average_ranks_rows(np.array([groups[tasks[p]][axis] for p in positions
                                             for axis in (0, 1)]))
        ranks.update((tasks[p], rows[2 * j:2 * j + 2]) for j, p in enumerate(positions))
    report = []
    for task in tasks:
        xs, ys = groups[task]
        try:
            report.append({"task": task, "n": len(xs), "pearson": pearson(xs, ys),
                           "spearman": pearson(*ranks[task])})
        except ValidationError as exc:
            raise ValidationError(f"align: task {task!r}: {exc}") from None
    return report


def transfer_report(base_path: str, variant_path: str) -> list[dict[str, Any]]:
    """The mean percent change of the clean curves at ``variant_path`` over
    those at ``base_path``, for each taxonomy in order, and their average."""
    (base, base_map), (variant, var_map) = (_clean_curves(f"transfer: {p}", p)
                                            for p in (base_path, variant_path))
    unmatched = sorted(base_map.keys() ^ var_map.keys())
    if unmatched:
        raise ValidationError(f"transfer: unmatched curves for {unmatched}")
    if not base_map:
        raise ValidationError(
            f"transfer: no result rows with a clean curve in {base_path} or {variant_path}")
    keys = sorted(base_map, key=lambda k: (_taxonomy_rank(base.taxonomies[base_map[k]]), k))
    pairs = [(base_map[k], var_map[k]) for k in keys]
    errors = []  # (report position, message) of the first pair each check rejects
    checked = len(pairs)  # the pairs before the first one the pairwise checks reject
    for p, (b, v) in enumerate(pairs):
        if base.taxonomies[b] != variant.taxonomies[v]:
            error = f"base taxonomy {base.taxonomies[b]!r}, variant taxonomy {variant.taxonomies[v]!r}"
        elif base.shots[b] != variant.shots[v]:
            error = f"grid mismatch {base.shots[b]} vs {variant.shots[v]}"
        else:
            continue
        errors.append((p, f"transfer: {keys[p]}: {error}"))
        checked = p
        break
    changes: dict[int, np.ndarray] = {}  # each pair's percent changes, by report position
    for positions in _positions_by([base.shots[b] for b, _ in pairs[:checked]]).values():
        try:
            changes.update(zip(positions, _percent_changes_rows(
                np.array([base.values[pairs[p][0]] for p in positions]),
                np.array([variant.values[pairs[p][1]] for p in positions]))))
        except _RowError as exc:
            p = positions[exc.row]
            errors.append((p, f"transfer: {keys[p]}: {exc}"))
    _raise_first(errors)
    # each taxonomy's points in report order, so its mean has relative_change's bits;
    # a mean of +inf and -inf is NaN, which the JSON writer's numeric guard rejects
    with np.errstate(invalid="ignore"):
        rows = [{"taxonomy": t, "relative_change_percent":
                 float(np.mean(np.concatenate([changes[p] for p in ps])))}
                for t, ps in _positions_by([base.taxonomies[b] for b, _ in pairs]).items()]
        average = float(np.mean([r["relative_change_percent"] for r in rows]))
    return [*rows, {"taxonomy": "Average", "relative_change_percent": average}]


def human_report(path: str) -> list[dict[str, Any]]:
    """The win, tie and lose percentages of the human study outcomes at
    ``path``, per metric and pooled ("Overall")."""
    by_metric: dict[str, list[str]] = {}
    pooled: list[str] = []

    def judgment(obj: Any) -> tuple[str, str]:
        if not isinstance(obj, dict) or "outcome" not in obj:
            raise ValidationError("expected an 'outcome' field")
        metric = obj.get("metric", "all")
        if not isinstance(metric, str):
            raise ValidationError(f"metric must be a string, got {metric!r}")
        if metric == "Overall":
            raise ValidationError("metric 'Overall' is reserved for the pooled row")
        outcome = obj["outcome"]
        if outcome not in ("win", "tie", "lose"):  # indexed as in the pooled outcomes
            raise ValidationError(f"outcomes[{len(pooled)}] = {outcome!r} not win/tie/lose")
        return metric, outcome

    def add_judgment(lineno: int, fields: tuple[str, str]) -> None:
        metric, outcome = fields
        by_metric.setdefault(metric, []).append(outcome)
        pooled.append(outcome)

    _read_jsonl(path, judgment, add_judgment)
    if not pooled:
        raise ValidationError(f"{path}: no outcomes")
    rows = []
    for metric, outcomes in [*sorted(by_metric.items()), ("Overall", pooled)]:
        win, tie, lose = win_tie_lose(outcomes)
        rows.append({"metric": metric, "win": win, "tie": tie, "lose": lose})
    return rows
