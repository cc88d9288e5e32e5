"""Record types and file formats for episodes, embeddings, and scene metadata.

Three line-oriented JSON formats plus one binary container:

* Episodes (JSONL): one task episode per line with keys ``episode_id``,
  ``taxonomy``, ``subtask``, ``shots``, ``query``, ``gold``.
* Embeddings (JSONL): one vector per line with keys ``id``, ``modality``,
  ``dim``, ``values``.
* Metadata (JSONL): one scene per line with keys ``scene_id``, ``instances``,
  ``scene_attributes``, ``scores``.
* Embeddings (binary): magic ``UIEB``, version u32 LE, count u32, dim u32,
  then per record a u16 id length, the UTF-8 id bytes, and ``dim`` float32
  values (little-endian).  Detected on load by the magic bytes.

Vectors pass between a file and a matrix only as numpy rows: a container
block is read into, and written from, one ``(n, dim)`` float64 array (a
finite value beyond float32 is refused before any byte is written), and
rows from either embedding format get the same checks and normalization;
an ``EmbeddingStore`` hands its vectors out only as arrays.  Every JSONL
file, and ``forge``'s data stream, is written by ``_write_jsonl``, which
writes all of its lines or none.  Scene metadata loads into a
``SceneTable``: columns from which a ``MetadataRecord`` is built only on
demand.  All records are immutable after construction and safe to share
across threads.  Loaders report parse errors with line (or container
record) numbers and invariant violations with field paths; they never
return partially valid data.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import struct
import sys
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

# Capability taxonomy, in canonical report order.
TAXONOMY_ORDER = (
    "Perception",
    "Imitation",
    "Conception",
    "Deduction",
    "Analogy",
    "Discernment",
)
TAXONOMIES = frozenset(TAXONOMY_ORDER)

# Canonical subtask -> owning taxonomy level.  Unknown subtask names are
# tolerated with a warning; a known name paired with the wrong level is an
# error.
SUBTASK_TO_TAXONOMY = {
    "Visual Grounding": "Perception",
    "Attribute Recognition": "Perception",
    "Image Manipulation": "Perception",
    "Style-Aware Caption": "Imitation",
    "Scene Reasoning": "Imitation",
    "Instructional Generation": "Imitation",
    "Fast Concept Mapping": "Conception",
    "Fast Concept Generation": "Conception",
    "World-Aware Planning": "Deduction",
    "Chain-of-Editing": "Deduction",
    "Analogical Inference": "Analogy",
    "Analogical Editing": "Analogy",
    "Aesthetic Assessment": "Discernment",
    "Forgery Detection": "Discernment",
    "Visual Refinement": "Discernment",
}

EMBEDDING_MODALITIES = ("visual", "text")

DEFAULT_MAX_SHOTS = 8

CONTAINER_MAGIC = b"UIEB"
CONTAINER_VERSION = 1


class UnknownSubtaskWarning(UserWarning):
    """A subtask name outside the canonical table was encountered."""


def _unchecked(cls: type, **fields: Any) -> Any:
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without running ``__post_init__``: for values already checked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        # set one by one, as the dataclass's __init__ does: filling __dict__
        # directly would give each instance a larger, unshared dict
        object.__setattr__(obj, name, value)
    return obj


def _str_dict(obj: Any) -> bool:
    """Whether ``obj`` is a plain dict whose values are all plain strings."""
    if type(obj) is not dict:
        return False
    for v in obj.values():
        if type(v) is not str:
            return False
    return True


def is_finite_number(value: Any) -> bool:
    """Whether ``value`` is an int or float, not a bool, that float arithmetic
    holds: not NaN, not infinite, and not an int too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_finite(values: Sequence[float], path: str) -> None:
    for i, v in enumerate(values):
        if not is_finite_number(v):
            raise ValidationError(f"{path}[{i}]: non-finite or non-numeric value {v!r}")


def _known_labels(taxonomy: Any, subtask: Any) -> bool:
    """Whether ``subtask`` is in the canonical table; raise ``ValidationError``
    for a ``taxonomy`` outside it or a known subtask of another level."""
    if taxonomy not in TAXONOMIES:
        raise ValidationError(f"taxonomy: {taxonomy!r} is not one of {sorted(TAXONOMIES)}")
    expected = SUBTASK_TO_TAXONOMY.get(subtask)
    if expected is not None and expected != taxonomy:
        raise ValidationError(f"subtask: {subtask!r} belongs to taxonomy {expected!r}, got {taxonomy!r}")
    return expected is not None


# ---------------------------------------------------------------------------
# record types


@dataclass(frozen=True)
class DemoOutput:
    """One-of output payload: generated text or a reference to an image."""

    text: str | None = None
    image_ref: str | None = None

    def __post_init__(self) -> None:
        if (self.text is None) == (self.image_ref is None):
            raise ValidationError("output: exactly one of text/image_ref must be set")

    def to_json(self) -> dict[str, str]:
        if self.text is not None:
            return {"text": self.text}
        return {"image_ref": self.image_ref}  # type: ignore[dict-item]

    @staticmethod
    def from_json(obj: Any, path: str = "output") -> "DemoOutput":
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        unknown = set(obj) - {"text", "image_ref"}
        if unknown:
            raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
        text = obj.get("text")
        image_ref = obj.get("image_ref")
        for key, val in (("text", text), ("image_ref", image_ref)):
            if val is not None and not isinstance(val, str):
                raise ValidationError(f"{path}.{key}: expected a string")
        try:
            return DemoOutput(text=text, image_ref=image_ref)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Demonstration:
    """A single demonstration: optional image, instruction, optional output."""

    id: str
    instruction: str = ""
    image_ref: str | None = None
    output: DemoOutput | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("id: must be a non-empty string")
        if self.image_ref is None and not self.instruction:
            raise ValidationError(
                f"demonstration {self.id!r}: at least one of image_ref/instruction required"
            )

    def to_json(self) -> dict[str, Any]:
        obj: dict[str, Any] = {"id": self.id}
        if self.image_ref is not None:
            obj["image_ref"] = self.image_ref
        obj["instruction"] = self.instruction
        if self.output is not None:
            obj["output"] = self.output.to_json()
        return obj

    @staticmethod
    def from_json(obj: Any, path: str = "demonstration") -> "Demonstration":
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        rid = obj.get("id")
        if not isinstance(rid, str) or not rid:
            raise ValidationError(f"{path}.id: must be a non-empty string")
        instruction = obj.get("instruction", "")
        if not isinstance(instruction, str):
            raise ValidationError(f"{path}.instruction: expected a string")
        image_ref = obj.get("image_ref")
        if image_ref is not None and not isinstance(image_ref, str):
            raise ValidationError(f"{path}.image_ref: expected a string")
        output = None
        if obj.get("output") is not None:
            output = DemoOutput.from_json(obj["output"], f"{path}.output")
        try:
            return Demonstration(id=rid, instruction=instruction, image_ref=image_ref, output=output)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Episode:
    """A task episode: shots (support demonstrations), a query, optional gold."""

    episode_id: str
    taxonomy: str
    subtask: str
    shots: tuple[Demonstration, ...]
    query: Demonstration
    gold: DemoOutput | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.episode_id, str) or not self.episode_id:
            raise ValidationError("episode_id: must be a non-empty string")
        if not _known_labels(self.taxonomy, self.subtask):
            warnings.warn(
                f"episode {self.episode_id!r}: unknown subtask {self.subtask!r}",
                UnknownSubtaskWarning,
                stacklevel=3,  # past the dataclass's __init__, to the code building the episode
            )
        seen: set[str] = set()
        for i, shot in enumerate(self.shots):
            if shot.id in seen:
                raise ValidationError(f"shots[{i}].id: duplicate id {shot.id!r}")
            seen.add(shot.id)
        if self.query.output is not None:
            raise ValidationError("query.output: must be absent on the query demonstration")

    def to_json(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "episode_id": self.episode_id,
            "taxonomy": self.taxonomy,
            "subtask": self.subtask,
            "shots": [s.to_json() for s in self.shots],
            "query": self.query.to_json(),
        }
        if self.gold is not None:
            obj["gold"] = self.gold.to_json()
        return obj

    @staticmethod
    def from_json(obj: Any, path: str = "episode") -> "Episode":
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        episode_id = obj.get("episode_id")
        if not isinstance(episode_id, str) or not episode_id:
            raise ValidationError(f"{path}.episode_id: must be a non-empty string")
        taxonomy = obj.get("taxonomy")
        if not isinstance(taxonomy, str):
            raise ValidationError(f"{path}.taxonomy: expected a string")
        subtask = obj.get("subtask")
        if not isinstance(subtask, str):
            raise ValidationError(f"{path}.subtask: expected a string")
        shots_obj = obj.get("shots")
        if not isinstance(shots_obj, list):
            raise ValidationError(f"{path}.shots: expected a list")
        shots = tuple(
            Demonstration.from_json(s, f"{path}.shots[{i}]") for i, s in enumerate(shots_obj)
        )
        if "query" not in obj:
            raise ValidationError(f"{path}.query: missing")
        query = Demonstration.from_json(obj["query"], f"{path}.query")
        gold = None
        if obj.get("gold") is not None:
            gold = DemoOutput.from_json(obj["gold"], f"{path}.gold")
        try:
            return Episode(
                episode_id=episode_id,
                taxonomy=taxonomy,
                subtask=subtask,
                shots=shots,
                query=query,
                gold=gold,
            )
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EmbeddingRecord:
    """A dense feature vector for one item in one modality."""

    id: str
    modality: str
    dim: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("id: must be a non-empty string")
        if self.modality not in EMBEDDING_MODALITIES:
            raise ValidationError(
                f"modality: {self.modality!r} is not one of {EMBEDDING_MODALITIES}"
            )
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ValidationError(f"dim: must be a positive integer, got {self.dim!r}")
        if len(self.values) != self.dim:
            raise ValidationError(
                f"values: length {len(self.values)} does not match dim {self.dim}"
            )
        _check_finite(self.values, "values")

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "modality": self.modality,
            "dim": self.dim,
            "values": list(self.values),
        }

    @staticmethod
    def from_json(obj: Any, path: str = "embedding") -> "EmbeddingRecord":
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        rid = obj.get("id")
        if not isinstance(rid, str) or not rid:
            raise ValidationError(f"{path}.id: must be a non-empty string")
        modality = obj.get("modality")
        if not isinstance(modality, str):
            raise ValidationError(f"{path}.modality: expected a string")
        dim = obj.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValidationError(f"{path}.dim: expected an integer")
        values = obj.get("values")
        if not isinstance(values, list):
            raise ValidationError(f"{path}.values: expected a list")
        try:
            return EmbeddingRecord(
                id=rid, modality=modality, dim=dim, values=tuple(float(v) for v in values)
            )
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{path}.values: expected numbers") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Instance:
    """One detected object in a scene."""

    category: str
    attributes: dict[str, str] = field(default_factory=dict)
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if not isinstance(self.category, str) or not self.category:
            raise ValidationError("category: must be a non-empty string")
        if len(self.bbox) != 4:
            raise ValidationError("bbox: expected [x0, y0, x1, y1]")
        x0, y0, x1, y1 = self.bbox
        for name, v in zip(("x0", "y0", "x1", "y1"), self.bbox):
            # a number in [0, 1] is finite; NaN fails both comparisons
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                raise ValidationError(f"bbox.{name}: must be a number in [0, 1], got {v!r}")
        if x0 > x1 or y0 > y1:
            raise ValidationError(f"bbox: corners out of order {self.bbox}")

    def center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.bbox
        return (x0 + x1) / 2.0, (y0 + y1) / 2.0

    def to_json(self) -> dict[str, Any]:
        return {
            "category": self.category,
            "attributes": dict(self.attributes),
            "bbox": list(self.bbox),
        }

    @staticmethod
    def from_json(obj: Any, path: str = "instance") -> "Instance":
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        category = obj.get("category")
        attributes = obj.get("attributes", {})
        if not isinstance(attributes, dict):
            raise ValidationError(f"{path}.attributes: expected an object")
        for k, v in attributes.items():
            if not isinstance(v, str):
                raise ValidationError(f"{path}.attributes.{k}: expected a string")
        bbox = obj.get("bbox")
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise ValidationError(f"{path}.bbox: expected [x0, y0, x1, y1]")
        try:
            return Instance(
                category=category,  # type: ignore[arg-type]
                attributes=dict(attributes),
                bbox=tuple(float(v) for v in bbox),  # type: ignore[arg-type]
            )
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{path}.bbox: expected numbers") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class MetadataRecord:
    """Structured description of one candidate scene."""

    scene_id: str
    instances: tuple[Instance, ...] = ()
    scene_attributes: dict[str, str] = field(default_factory=dict)
    scores: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.scene_id, str) or not self.scene_id:
            raise ValidationError("scene_id: must be a non-empty string")
        for k, v in self.scores.items():
            if not is_finite_number(v):
                raise ValidationError(f"scores.{k}: must be a finite number, got {v!r}")

    def to_json(self) -> dict[str, Any]:
        return {
            "scene_id": self.scene_id,
            "instances": [i.to_json() for i in self.instances],
            "scene_attributes": dict(self.scene_attributes),
            "scores": dict(self.scores),
        }

    @staticmethod
    def from_json(obj: Any, path: str = "metadata") -> "MetadataRecord":
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: expected an object")
        scene_id = obj.get("scene_id")
        if not isinstance(scene_id, str) or not scene_id:
            raise ValidationError(f"{path}.scene_id: must be a non-empty string")
        inst_obj = obj.get("instances", [])
        if not isinstance(inst_obj, list):
            raise ValidationError(f"{path}.instances: expected a list")
        instances = tuple(
            Instance.from_json(o, f"{path}.instances[{i}]") for i, o in enumerate(inst_obj)
        )
        scene_attributes = obj.get("scene_attributes", {})
        if not isinstance(scene_attributes, dict):
            raise ValidationError(f"{path}.scene_attributes: expected an object")
        for k, v in scene_attributes.items():
            if not isinstance(v, str):
                raise ValidationError(f"{path}.scene_attributes.{k}: expected a string")
        scores = obj.get("scores", {})
        if not isinstance(scores, dict):
            raise ValidationError(f"{path}.scores: expected an object")
        try:
            return MetadataRecord(
                scene_id=scene_id,
                instances=instances,
                scene_attributes=dict(scene_attributes),
                scores={k: float(v) for k, v in scores.items()},
            )
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{path}.scores: expected numbers") from None
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ShotCurve:
    """Performance sampled over a shot grid (values on a 0-100 scale)."""

    shots: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.shots) != len(self.values):
            raise ValidationError(
                f"curve: {len(self.shots)} shots vs {len(self.values)} values"
            )
        if not self.shots:
            raise ValidationError("curve: needs at least one shot")
        for i, s in enumerate(self.shots):
            if not isinstance(s, int) or isinstance(s, bool) or s < 0:
                raise ValidationError(f"shots[{i}]: must be a non-negative integer, got {s!r}")
            if s > sys.float_info.max:  # the curve metrics compute in float64
                raise ValidationError(f"shots[{i}]: too large for float arithmetic")
            if i > 0 and s <= self.shots[i - 1]:
                raise ValidationError(f"shots[{i}]: grid must be strictly increasing")
        _check_finite(self.values, "values")

    def value_at(self, shot: int) -> float:
        try:
            return self.values[self.shots.index(shot)]
        except ValueError:
            raise ValidationError(f"curve: shot {shot} not on grid {self.shots}") from None


# ---------------------------------------------------------------------------
# JSONL plumbing


def _iter_lines(path: str) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a UTF-8 text file, with their line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace():  # never empty: strip()'s test, without its copy
                    yield lineno, line
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not valid UTF-8 text") from None


# The deepest nesting any JSON input may have, well under the interpreter's
# recursion limit of 1000, whose frames json's decoder shares with its caller
MAX_JSON_DEPTH = 500
# a JSON string (skipped) or a bracket
_JSON_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]')


def _nested_too_deep(text: str) -> bool:
    """Whether ``text`` opens more than ``MAX_JSON_DEPTH`` brackets at once
    outside its strings; only text holding that many brackets is scanned."""
    if text.count("{") + text.count("[") <= MAX_JSON_DEPTH:
        return False
    depth = 0
    for match in _JSON_BRACKETS.finditer(text):
        char = text[match.start()]
        if char in "[{":
            depth += 1
            if depth > MAX_JSON_DEPTH:
                return True
        elif char != '"':
            depth -= 1
    return False


def _decode_json(text: str) -> Any:
    """``json``'s value of the one JSON document ``text``, or a
    ``ValidationError`` saying why it has none.  Nesting past
    ``MAX_JSON_DEPTH`` is refused before ``json`` reads it, so whether a
    document loads depends on its text, not on how deep the caller is."""
    if _nested_too_deep(text):
        raise ValidationError(f"nested deeper than {MAX_JSON_DEPTH} levels")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(exc.msg) from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, a deep caller
        raise ValidationError(str(exc)) from None


def _read_jsonl(path: str, parse: Callable[[Any], Any], add: Callable[[int, Any], None]) -> None:
    """Call ``add(lineno, parse(value))`` for each line of the JSONL file at
    ``path``; a ``ValidationError`` from ``parse`` or ``add`` is raised again
    naming the file and line.

    orjson decodes a line first: it returns json's doubles several times
    faster and keeps a duplicated key's last value, as json does.  It accepts
    nesting deeper than ``MAX_JSON_DEPTH``, which an extra key or a duplicated
    key's discarded value can hide, so it reads only a line
    ``_nested_too_deep`` does not flag: the one depth rule, which
    ``_decode_json`` enforces on every JSON input.  ``_decode_json`` decodes the other lines
    and those orjson refuses (NaN, ``1e400``, an escaped lone surrogate, ...),
    and a value json decodes is refused when it holds a lone surrogate, as no
    UTF-8 text can carry it.  orjson's value differs from json's only in an
    integer literal of 19 or more digits, which orjson may turn into the
    double ``float()`` makes of json's int; so ``parse`` runs again on json's
    value when it rejects orjson's value of a line holding 19 digits in a row.
    Every value and error is thus the one json's value gives."""
    import orjson  # here, not at the top: ``import ctxforge.cli`` must not load it

    for lineno, line in _iter_lines(path):
        try:
            # ``find`` scans a long line several times faster than ``count``, so a
            # line with at most one "{" and two "[" (an embedding, a result row)
            # is settled without counting
            fast = (
                line.find("{", line.find("{") + 1) < 0
                and ((i := line.find("[")) < 0 or (i := line.find("[", i + 1)) < 0
                     or line.find("[", i + 1) < 0)
                or not _nested_too_deep(line)
            )
            if fast:
                try:
                    fields = parse(orjson.loads(line))
                except orjson.JSONDecodeError:
                    fast = False
                except ValidationError:  # json's value differs only in an integer of 19+ digits
                    if not re.search(r"\d{19}", line):
                        raise
                    fast = False
            if not fast:
                try:
                    value = _decode_json(line)
                except ValidationError as exc:
                    raise ValidationError(f"parse error: {exc}") from None
                try:
                    json.dumps(value, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError("parse error: a string holds an escaped lone surrogate, "
                                          "which is not UTF-8 text") from None
                fields = parse(value)
            add(lineno, fields)
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None


# Every JSON line written: RFC 8259 has no NaN or Infinity, so a non-finite
# value raises ValueError (``json.dumps`` would build a new encoder per call)
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def _write_jsonl(lines: Sequence[str], path: str | None) -> None:
    """The one JSONL writer: ``lines``, each with a newline, to the file at
    ``path`` or, when it is None or empty, to stdout.  Every line is encoded
    as UTF-8 before any is written, so one that cannot be (a string can hold
    a lone surrogate) raises ``ValidationError`` naming it and writes nothing."""
    text = "".join(line + "\n" for line in lines)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = text.count("\n", 0, exc.start) + 1
        raise ValidationError(f"data line {line} cannot be written as UTF-8: {exc.reason}") from None
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(text)


def load_episodes(path: str, max_shots: int = DEFAULT_MAX_SHOTS) -> list[Episode]:
    """Load and validate an episode JSONL file.

    ``max_shots`` is the explicit override for the default shot-count ceiling
    of 8.  Duplicate ``episode_id`` values are rejected.
    """
    episodes: dict[str, Episode] = {}

    def add(lineno: int, ep: Episode) -> None:
        if len(ep.shots) > max_shots:
            raise ValidationError(
                f"episode.shots: shot count out of range (got {len(ep.shots)}, max {max_shots})"
            )
        if ep.episode_id in episodes:
            raise ValidationError(f"duplicate episode_id {ep.episode_id!r}")
        episodes[ep.episode_id] = ep

    _read_jsonl(path, Episode.from_json, add)
    return list(episodes.values())


def save_episodes(episodes: Iterable[Episode], path: str) -> None:
    _write_jsonl([_ENCODER.encode(ep.to_json()) for ep in episodes], path)


class SceneTable(Sequence[MetadataRecord]):
    """Scenes held as columns: a read-only sequence of ``MetadataRecord``.

    Per scene: ``scene_ids``, ``scene_attributes`` and ``scores`` (the
    record's dicts) and ``counts``, its number of instances.  Per instance,
    all scenes' instances in order: ``categories``, ``attributes`` and
    ``bbox``, one float64 ``(m, 4)`` array.  A record is built only when it
    is indexed or iterated.  The rule evaluator reads the columns directly.
    """

    def __init__(self) -> None:
        self.scene_ids: list[str] = []
        self.scene_attributes: list[dict[str, str]] = []
        self.scores: list[dict[str, float]] = []
        self.counts: list[int] = []
        self.categories: list[str] = []
        self.attributes: list[dict[str, str]] = []
        self._boxes = array("d")
        # derived from the columns; dropped whenever a scene is appended
        self._bbox: np.ndarray | None = None
        self._owner: np.ndarray | None = None
        self._starts: list[int] | None = None

    @classmethod
    def from_records(cls, records: Iterable[MetadataRecord]) -> "SceneTable":
        """A table of ``records``, as they are: nothing is checked or converted."""
        table = cls()
        for rec in records:
            table._append(*_record_fields(rec))
        return table

    def _append(
        self,
        scene_id: str,
        instances: Sequence[tuple[str, dict[str, str], Sequence[float]]],
        scene_attributes: dict[str, str],
        scores: dict[str, float],
    ) -> None:
        """Add one scene, its instances given as (category, attributes, bbox)."""
        self.scene_ids.append(scene_id)
        self.scene_attributes.append(scene_attributes)
        self.scores.append(scores)
        self.counts.append(len(instances))
        for category, attributes, bbox in instances:
            self.categories.append(category)
            self.attributes.append(attributes)
            self._boxes.extend(bbox)
        self._bbox = self._owner = self._starts = None

    @property
    def bbox(self) -> np.ndarray:
        """Every instance's ``[x0, y0, x1, y1]``, as a read-only ``(m, 4)`` array."""
        if self._bbox is None:
            self._bbox = np.array(self._boxes, dtype=np.float64).reshape(-1, 4)
            self._bbox.flags.writeable = False
        return self._bbox

    @property
    def owner(self) -> np.ndarray:
        """The scene index of every instance."""
        if self._owner is None:
            self._owner = np.repeat(np.arange(len(self)), self.counts)
            self._owner.flags.writeable = False
        return self._owner

    def _record(self, i: int, start: int) -> MetadataRecord:
        """Scene ``i``, whose instances start at ``start``."""
        boxes = self._boxes
        instances = tuple(
            _unchecked(
                Instance,
                category=self.categories[j],
                attributes=self.attributes[j],
                bbox=tuple(boxes[4 * j : 4 * j + 4]),
            )
            for j in range(start, start + self.counts[i])
        )
        return _unchecked(
            MetadataRecord,
            scene_id=self.scene_ids[i],
            instances=instances,
            scene_attributes=self.scene_attributes[i],
            scores=self.scores[i],
        )

    def __len__(self) -> int:
        return len(self.scene_ids)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # negative indices, and IndexError past the end
        if self._starts is None:
            self._starts = [0, *itertools.accumulate(self.counts)]
        return self._record(i, self._starts[i])

    def __iter__(self) -> Iterator[MetadataRecord]:
        start = 0
        for i, count in enumerate(self.counts):
            yield self._record(i, start)
            start += count


def _record_fields(rec: MetadataRecord) -> tuple[str, list, dict, dict]:
    """``SceneTable._append``'s arguments for ``rec``."""
    return (
        rec.scene_id,
        [(i.category, i.attributes, i.bbox) for i in rec.instances],
        rec.scene_attributes,
        rec.scores,
    )


def load_metadata(path: str) -> SceneTable:
    """Load a metadata JSONL file into a ``SceneTable``; duplicate scene ids
    are rejected."""
    table = SceneTable()
    seen: set[str] = set()

    def add(lineno: int, fields: tuple[str, list, dict, dict]) -> None:
        scene_id = fields[0]
        if scene_id in seen:
            raise ValidationError(f"duplicate scene_id {scene_id!r}")
        seen.add(scene_id)
        table._append(*fields)

    _read_jsonl(path, lambda obj: _exact_scene(obj) or _record_fields(MetadataRecord.from_json(obj)),
                add)
    return table


def _exact_scene(obj: Any) -> tuple[str, list[tuple[str, dict, list]], dict, dict] | None:
    """``SceneTable._append``'s arguments for the record
    ``MetadataRecord.from_json(obj)`` returns, taken from ``obj`` without
    checking a field twice, when every field already has its exact JSON type
    and is in range; ``None`` for any other object, which ``from_json`` then
    converts (ints, numeric strings) or rejects with its own message."""
    if type(obj) is not dict:
        return None
    scene_id = obj.get("scene_id")
    inst_objs = obj.get("instances", [])
    scene_attributes = obj.get("scene_attributes", {})
    scores = obj.get("scores", {})
    if not (
        type(scene_id) is str and scene_id
        and type(inst_objs) is list
        and _str_dict(scene_attributes)
        and type(scores) is dict
    ):
        return None
    for v in scores.values():
        if type(v) is not float or v - v != 0.0:  # NaN and +-inf give NaN
            return None
    instances = []
    for inst in inst_objs:
        if type(inst) is not dict:
            return None
        category = inst.get("category")
        attributes = inst.get("attributes", {})
        bbox = inst.get("bbox")
        if not (
            type(category) is str and category
            and _str_dict(attributes)
            and type(bbox) is list and len(bbox) == 4
        ):
            return None
        x0, y0, x1, y1 = bbox
        if not (
            type(x0) is float and type(y0) is float and type(x1) is float and type(y1) is float
            and 0.0 <= x0 <= x1 <= 1.0 and 0.0 <= y0 <= y1 <= 1.0
        ):
            return None
        instances.append((category, attributes, bbox))
    return scene_id, instances, scene_attributes, scores


def save_metadata(records: Iterable[MetadataRecord], path: str) -> None:
    _write_jsonl([_ENCODER.encode(r.to_json()) for r in records], path)


# ---------------------------------------------------------------------------
# embedding store


class EmbeddingStore:
    """Embeddings keyed by (modality, id), with per-modality dim consistency.

    Each modality is one float64 ``(n, d)`` matrix, rows in insertion order,
    plus an ``id -> row`` dict.  The matrix lives in a buffer that doubles in
    rows as it fills; ``load_embeddings`` trims it to the rows it loaded.
    Vectors leave the store only as arrays: ``matrix``, ``rows``,
    ``row_norms`` and ``paired``.
    """

    def __init__(self) -> None:
        self._rows: dict[str, dict[str, int]] = {m: {} for m in EMBEDDING_MODALITIES}
        self._buffers: dict[str, np.ndarray] = {m: np.empty((0, 0)) for m in EMBEDDING_MODALITIES}
        # derived from the rows; dropped by ``add``
        self._norms: dict[str, np.ndarray] = {}
        self._paired: tuple[list[str], np.ndarray, np.ndarray] | None = None

    def _append(self, item_id: str, modality: str, values: Sequence[float]) -> None:
        """Store ``values`` as the modality's next row, unchecked."""
        rows = self._rows[modality]
        buf = self._buffers[modality]
        n = len(rows)
        if n == len(buf):
            grown = np.empty((max(2 * n, 16), len(values)))
            if n:
                grown[:n] = buf
            self._buffers[modality] = buf = grown
        buf[n] = values
        rows[item_id] = n

    def _check_new_id(self, item_id: str, modality: str) -> None:
        """Raise unless ``item_id`` is non-empty and not yet held for ``modality``."""
        if not item_id:
            raise ValidationError("id: must be a non-empty string")
        if item_id in self._rows[modality]:
            raise ValidationError(f"duplicate id {item_id!r} for modality {modality!r}")

    def add(self, record: EmbeddingRecord) -> None:
        self._check_new_id(record.id, record.modality)
        expect = self.dim(record.modality)
        if expect is not None and record.dim != expect:
            raise ValidationError(f"embedding {record.id!r}: dim {record.dim} inconsistent "
                                  f"with {record.modality} dim {expect}")
        self._append(record.id, record.modality, record.values)
        # the one intake that can follow a read (a load fills a new store)
        self._norms.pop(record.modality, None)
        self._paired = None

    def ids(self, modality: str) -> list[str]:
        return list(self._rows[modality])

    def dim(self, modality: str) -> int | None:
        if not self._rows[modality]:
            return None
        return self._buffers[modality].shape[1]

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def matrix(self, modality: str) -> np.ndarray:
        """The modality's ``(n, d)`` rows in ``ids`` order, as a read-only view."""
        view = self._buffers[modality][: len(self._rows[modality])]
        view.flags.writeable = False
        return view

    def rows(self, ids: Sequence[str], modality: str) -> np.ndarray:
        """Row indices of ``ids`` in ``matrix(modality)``; a missing id raises
        ``ValidationError`` naming it."""
        index = self._rows[modality]
        try:
            return np.fromiter((index[i] for i in ids), dtype=np.intp, count=len(ids))
        except KeyError as exc:
            raise ValidationError(
                f"missing embedding for id {exc.args[0]!r} ({modality})"
            ) from None

    def row_norms(self, modality: str) -> np.ndarray:
        """Euclidean norm of each row of ``matrix(modality)``, computed once per store state."""
        norms = self._norms.get(modality)
        if norms is None:
            m = self.matrix(modality)
            norms = self._norms[modality] = np.sqrt(np.einsum("ij,ij->i", m, m))
        return norms

    def paired(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Ids held in both modalities, ascending, with their visual and text rows."""
        if self._paired is None:
            text = self._rows["text"]
            ids = sorted(i for i in self._rows["visual"] if i in text)
            self._paired = (ids, self.rows(ids, "visual"), self.rows(ids, "text"))
        return self._paired


def is_container(path: str) -> bool:
    """Whether the file at ``path`` starts with the binary container's magic."""
    with open(path, "rb") as fh:
        return fh.read(4) == CONTAINER_MAGIC


def load_embeddings(path: str, normalize: bool = False) -> EmbeddingStore:
    """Load embeddings from JSONL or the binary container (auto-detected).

    The binary container stores no modality; its records are tagged
    ``visual``.  With ``normalize=True`` every vector is scaled to unit norm;
    zero vectors and vectors whose squared norm overflows are rejected.
    """
    store = EmbeddingStore()
    # Finiteness and norms are checked once over the filled matrices, so each
    # row keeps its line or record number to report; an error found while
    # reading is raised only after the rows before it pass those checks.
    positions = {m: array("q") for m in EMBEDDING_MODALITIES}
    unit, read = ("record", _read_container) if is_container(path) else ("line", _read_embedding_lines)
    try:
        read(store, path, positions)
    except ValidationError:
        _check_rows(store, positions, normalize, path, unit)
        raise
    _check_rows(store, positions, normalize, path, unit)
    for modality, rows in store._rows.items():
        # give back the doubling slack in place (``resize`` refuses a buffer a
        # view still shares); a later ``add`` grows a new buffer, and views
        # taken before it keep this one
        store._buffers[modality].resize((len(rows), store._buffers[modality].shape[1]))
    return store


def _read_container(store: EmbeddingStore, path: str, positions: dict[str, array]) -> None:
    with open(path, "rb") as fh:
        try:
            ids, rows = read_vector_block(fh)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if fh.read(1):
            raise ValidationError(f"{path}: trailing bytes after container block")
    for i, rid in enumerate(ids):
        try:
            store._check_new_id(rid, "visual")
        except ValidationError as exc:
            raise ValidationError(f"{path}: record {i}: {exc}") from None
        store._append(rid, "visual", rows[i])
        positions["visual"].append(i)


def _read_embedding_lines(store: EmbeddingStore, path: str, positions: dict[str, array]) -> None:
    def convert(obj: Any) -> str:  # from_json converts what float takes, or says what is wrong
        rec = EmbeddingRecord.from_json(obj)
        store.add(rec)
        return rec.modality

    _read_jsonl(path, lambda obj: _add_exact_embedding(store, obj) or convert(obj),
                lambda lineno, modality: positions[modality].append(lineno))


def _add_exact_embedding(store: EmbeddingStore, obj: Any) -> str | None:
    """Write a parsed JSONL embedding straight into its modality's matrix
    when every field has its exact JSON type and passes the store's checks;
    return its modality, or ``None`` for any other object.

    The row's finiteness and norm are left to ``_check_rows``.
    """
    if type(obj) is not dict:
        return None
    rid, modality = obj.get("id"), obj.get("modality")
    dim, values = obj.get("dim"), obj.get("values")
    if not (
        type(rid) is str and rid
        and type(modality) is str and modality in store._rows
        and type(dim) is int and dim >= 1
        and type(values) is list and len(values) == dim
        and rid not in store._rows[modality]
        and store.dim(modality) in (None, dim)
    ):
        return None
    try:
        row = array("d", values)  # numbers only: strings and None take the slow path
    except (TypeError, OverflowError):
        return None
    store._append(rid, modality, row)
    return modality


def _check_rows(
    store: EmbeddingStore, positions: dict[str, array], normalize: bool, path: str, unit: str
) -> None:
    """Raise for the earliest row (by its ``unit`` number in ``positions``)
    holding a non-finite value or, with ``normalize``, a squared norm that is
    zero or overflows.  If none does, ``normalize`` scales every row to unit
    norm in place: the one normalization of every embedding source."""
    first, sq_norms = None, {}
    for modality in EMBEDDING_MODALITIES:
        data = store.matrix(modality)
        bad = ~np.isfinite(data).all(axis=1)
        if normalize:
            sq = sq_norms[modality] = np.einsum("ij,ij->i", data, data)
            bad |= (sq == 0.0) | ~np.isfinite(sq)
        hits = np.flatnonzero(bad)
        if hits.size and (first is None or positions[modality][hits[0]] < first[0]):
            first = (positions[modality][hits[0]], modality, int(hits[0]))
    if first is None:
        for modality, sq in sq_norms.items():
            store._buffers[modality][: len(sq)] /= np.sqrt(sq)[:, None]
        return
    pos, modality, row = first
    where = f"{path}: {unit} {pos}: embedding"
    values = store.matrix(modality)[row]
    nonfinite = np.flatnonzero(~np.isfinite(values))
    if nonfinite.size:
        i = int(nonfinite[0])
        raise ValidationError(
            f"{where}: values[{i}]: non-finite or non-numeric value {float(values[i])!r}"
        )
    item_id = list(store._rows[modality])[row]
    problem = "zero-norm vector" if sq_norms[modality][row] == 0.0 else "squared norm overflows;"
    raise ValidationError(f"{where} {item_id!r}: {problem} cannot be normalized")


def save_embeddings_jsonl(records: Iterable[EmbeddingRecord], path: str) -> None:
    _write_jsonl([_ENCODER.encode(r.to_json()) for r in records], path)


def save_embeddings_binary(records: Sequence[EmbeddingRecord], path: str) -> None:
    """Write records into one binary container block (single shared dim);
    nothing is written unless every value fits float32."""
    if not records:
        raise ValidationError("binary container: at least one record required")
    dim = records[0].dim
    for r in records:
        if r.dim != dim:
            raise ValidationError(
                f"binary container: mixed dims ({r.dim} vs {dim}); split by modality first"
            )
    rows = np.array([r.values for r in records], dtype=np.float64)
    block = pack_vector_block([r.id for r in records], rows)
    with open(path, "wb") as fh:
        fh.write(block)


# ---------------------------------------------------------------------------
# binary container primitives (shared with parameter serialization)


def pack_vector_block(ids: Sequence[str], rows: np.ndarray) -> bytes:
    """One container block's bytes: one float32 record per id, from the
    matching row of ``rows``.  Raises if an id is too long or a finite value
    rounds beyond the float32 range."""
    with np.errstate(over="ignore"):
        packed = rows.astype("<f4")
    over = np.argwhere(np.isinf(packed) & np.isfinite(rows))
    if over.size:
        i, j = over[0]
        raise ValidationError(
            f"record {ids[i]!r}: values[{j}]: {float(rows[i, j])!r} is outside the float32 range"
        )
    parts = [CONTAINER_MAGIC, struct.pack("<III", CONTAINER_VERSION, len(ids), rows.shape[1])]
    for rid, row in zip(ids, packed, strict=True):
        ident = rid.encode("utf-8")
        if len(ident) > 0xFFFF:
            raise ValidationError(f"id too long for container: {rid!r}")
        parts += (struct.pack("<H", len(ident)), ident, row.tobytes())
    return b"".join(parts)


def read_vector_block(fh: BinaryIO) -> tuple[list[str], np.ndarray]:
    """Read one container block as its ids and an ``(n, dim)`` float64 array;
    raises on bad magic/version or truncation.  Rows are sized from the bytes
    read, never from the header's count."""
    magic = fh.read(4)
    if magic != CONTAINER_MAGIC:
        raise ValidationError(f"bad container magic {magic!r}")
    header = fh.read(12)
    if len(header) != 12:
        raise ValidationError("truncated container header")
    version, count, dim = struct.unpack("<III", header)
    if version != CONTAINER_VERSION:
        raise ValidationError(f"unsupported container version {version}")
    if dim < 1:
        raise ValidationError(f"container dim must be positive, got {dim}")
    ids: list[str] = []
    payload = bytearray()
    for i in range(count):
        raw = fh.read(2)
        if len(raw) != 2:
            raise ValidationError(f"truncated container at record {i}")
        (id_len,) = struct.unpack("<H", raw)
        ident = fh.read(id_len)
        if len(ident) != id_len:
            raise ValidationError(f"truncated id at record {i}")
        values = fh.read(4 * dim)
        if len(values) != 4 * dim:
            raise ValidationError(f"truncated values at record {i}")
        try:
            ids.append(ident.decode("utf-8"))
        except UnicodeDecodeError:
            raise ValidationError(f"id at record {i} is not valid UTF-8") from None
        payload += values
    return ids, np.frombuffer(payload, dtype="<f4").reshape(-1, dim).astype(np.float64)
