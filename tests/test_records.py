"""Record model: validation, JSON round-trips, containers."""

from __future__ import annotations

import copy
import io
import json
import math
import os
import random
import struct
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxforge.errors import ValidationError
from ctxforge.metrics import ResultRow, ResultTable, _exact_result, load_results
from ctxforge.records import (
    CONTAINER_MAGIC,
    EMBEDDING_MODALITIES,
    MAX_JSON_DEPTH,
    DemoOutput,
    Demonstration,
    EmbeddingRecord,
    EmbeddingStore,
    Episode,
    Instance,
    MetadataRecord,
    ShotCurve,
    SUBTASK_TO_TAXONOMY,
    TAXONOMIES,
    UnknownSubtaskWarning,
    SceneTable,
    _decode_json,
    _exact_scene,
    _read_jsonl,
    load_embeddings,
    load_episodes,
    load_metadata,
    pack_vector_block,
    read_vector_block,
    save_embeddings_binary,
    save_embeddings_jsonl,
    save_episodes,
    save_metadata,
)


def make_episode(episode_id="ep1", n_shots=2, taxonomy="Perception", subtask="Visual Grounding"):
    shots = tuple(
        Demonstration(
            id=f"d{i}",
            instruction="point at the mug",
            image_ref=f"img{i}",
            output=DemoOutput(text="the mug is left of the bowl"),
        )
        for i in range(n_shots)
    )
    query = Demonstration(id="q", instruction="point at the bowl", image_ref="imgq")
    return Episode(episode_id=episode_id, taxonomy=taxonomy, subtask=subtask, shots=shots, query=query)


class TestDemonstration:
    def test_requires_content(self):
        with pytest.raises(ValidationError):
            Demonstration(id="d1")

    def test_instruction_only_is_fine(self):
        Demonstration(id="d1", instruction="describe the scene")

    def test_output_one_of(self):
        with pytest.raises(ValidationError):
            DemoOutput(text="a", image_ref="b")
        with pytest.raises(ValidationError):
            DemoOutput()

    def test_round_trip(self):
        d = Demonstration(id="d", instruction="x", image_ref="y", output=DemoOutput(image_ref="z"))
        assert Demonstration.from_json(d.to_json()) == d


class TestEpisode:
    def test_taxonomy_must_be_known(self):
        with pytest.raises(ValidationError, match="taxonomy"):
            make_episode(taxonomy="Sorcery")

    def test_known_subtask_wrong_taxonomy_is_an_error(self):
        assert SUBTASK_TO_TAXONOMY["Visual Grounding"] == "Perception"
        with pytest.raises(ValidationError, match="Visual Grounding"):
            make_episode(taxonomy="Deduction", subtask="Visual Grounding")

    def test_unknown_subtask_warns_but_builds(self):
        with pytest.warns(UnknownSubtaskWarning):
            ep = make_episode(subtask="Underwater Basket Weaving")
        assert ep.subtask == "Underwater Basket Weaving"

    def test_unknown_subtask_warning_names_the_caller(self):
        # not the dataclass's generated __init__, which has no file
        with pytest.warns(UnknownSubtaskWarning) as caught:
            make_episode(subtask="Underwater Basket Weaving")
        assert [w.filename for w in caught] == [__file__]

    def test_duplicate_shot_ids_rejected(self):
        shots = (
            Demonstration(id="d0", instruction="a", image_ref="i"),
            Demonstration(id="d0", instruction="b", image_ref="j"),
        )
        q = Demonstration(id="q", instruction="c")
        with pytest.raises(ValidationError, match="duplicate"):
            Episode(episode_id="e", taxonomy="Perception", subtask="Visual Grounding", shots=shots, query=q)

    def test_query_must_not_carry_output(self):
        q = Demonstration(id="q", instruction="c", output=DemoOutput(text="leak"))
        with pytest.raises(ValidationError, match="query"):
            Episode(episode_id="e", taxonomy="Perception", subtask="Visual Grounding", shots=(), query=q)

    def test_round_trip(self):
        ep = make_episode()
        assert Episode.from_json(ep.to_json()) == ep

    def test_all_taxonomies_cover_subtask_map(self):
        assert set(SUBTASK_TO_TAXONOMY.values()) <= TAXONOMIES


class TestEpisodeFiles:
    def test_load_save_round_trip(self, tmp_path):
        eps = [make_episode(f"ep{i}") for i in range(3)]
        path = tmp_path / "eps.jsonl"
        save_episodes(eps, path)
        assert load_episodes(path) == eps

    def test_shot_budget_enforced_at_load(self, tmp_path):
        ep = make_episode("big", n_shots=9)  # the type itself does not bound shots
        path = tmp_path / "eps.jsonl"
        save_episodes([ep], path)
        with pytest.raises(ValidationError, match="shot count"):
            load_episodes(path)
        assert load_episodes(path, max_shots=16) == [ep]

    def test_duplicate_episode_id(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        save_episodes([make_episode("same"), make_episode("same")], path)
        with pytest.raises(ValidationError, match="duplicate"):
            load_episodes(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(make_episode().to_json())
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_episodes(path)

    def test_field_error_reports_line_and_path(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"episode_id": "x"}\n')
        with pytest.raises(ValidationError, match="line 1.*taxonomy"):
            load_episodes(path)


class TestInstance:
    def test_bbox_bounds(self):
        with pytest.raises(ValidationError):
            Instance(category="mug", attributes={}, bbox=(0.0, 0.0, 1.2, 1.0))

    def test_bbox_ordering(self):
        with pytest.raises(ValidationError):
            Instance(category="mug", attributes={}, bbox=(0.5, 0.0, 0.4, 1.0))

    def test_center(self):
        inst = Instance(category="mug", attributes={}, bbox=(0.2, 0.4, 0.6, 0.8))
        assert inst.center() == (0.4, 0.6000000000000001)


class TestMetadata:
    def test_round_trip(self, tmp_path):
        recs = [
            MetadataRecord(
                scene_id="s1",
                instances=(Instance(category="mug", attributes={"color": "red"}, bbox=(0, 0, 1, 1)),),
                scene_attributes={"room": "kitchen"},
                scores={"clip": 0.5},
            )
        ]
        path = tmp_path / "meta.jsonl"
        save_metadata(recs, path)
        assert list(load_metadata(path)) == recs

    def test_duplicate_scene_id(self, tmp_path):
        rec = MetadataRecord(scene_id="s", instances=(), scene_attributes={}, scores={})
        path = tmp_path / "meta.jsonl"
        save_metadata([rec, rec], path)
        with pytest.raises(ValidationError, match="duplicate"):
            load_metadata(path)

    def test_table_indexes_as_a_sequence(self, tmp_path):
        recs = [
            MetadataRecord(
                scene_id=f"s{i}",
                instances=(Instance(category="mug", attributes={}, bbox=(0, 0, 1, 0.5 * i)),) * i,
                scene_attributes={},
                scores={"clip": float(i)},
            )
            for i in range(3)
        ]
        path = tmp_path / "meta.jsonl"
        save_metadata(recs, path)
        table = load_metadata(path)
        assert (table[0], table[2], table[-1], table[-3]) == (recs[0], recs[2], recs[2], recs[0])
        assert (table[1:], table[::-1], table[5:]) == (recs[1:], recs[::-1], [])
        for index in (3, -4):
            with pytest.raises(IndexError):
                table[index]


class TestShotCurve:
    def test_strictly_increasing(self):
        with pytest.raises(ValidationError):
            ShotCurve(shots=(0, 2, 2), values=(1.0, 2.0, 3.0))

    def test_negative_shot(self):
        with pytest.raises(ValidationError):
            ShotCurve(shots=(-1, 0), values=(1.0, 2.0))

    def test_value_at(self):
        c = ShotCurve(shots=(0, 4), values=(1.0, 5.0))
        assert c.value_at(4) == 5.0
        with pytest.raises(ValidationError):
            c.value_at(2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ShotCurve(shots=(0, 1), values=(1.0, float("nan")))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="^curve: needs at least one shot$"):
            ShotCurve(shots=(), values=())


HUGE = 10**400  # an int that float arithmetic cannot hold


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EmbeddingRecord("a", "visual", 1, (HUGE,)), "values[0]: non-finite"),
        (lambda: MetadataRecord("s", scores={"q": HUGE}), "scores.q: must be a finite number"),
        (lambda: ShotCurve((0,), (HUGE,)), "values[0]: non-finite"),
        (lambda: Instance("mug", bbox=(0, 0, HUGE, 1)), "bbox.x1: must be a number in [0, 1]"),
    ],
    ids=["embedding-values", "metadata-scores", "curve-values", "instance-bbox"],
)
def test_huge_int_is_a_validation_error(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value).startswith(message)


class TestEmbeddingStore:
    def test_duplicate_per_modality(self):
        store = EmbeddingStore()
        store.add(EmbeddingRecord(id="a", modality="visual", dim=2, values=(1.0, 0.0)))
        store.add(EmbeddingRecord(id="a", modality="text", dim=2, values=(1.0, 0.0)))  # other modality OK
        with pytest.raises(ValidationError, match="duplicate"):
            store.add(EmbeddingRecord(id="a", modality="visual", dim=2, values=(0.0, 1.0)))

    def test_dim_consistency_per_modality(self):
        store = EmbeddingStore()
        store.add(EmbeddingRecord(id="a", modality="visual", dim=2, values=(1.0, 0.0)))
        with pytest.raises(ValidationError, match="dim"):
            store.add(EmbeddingRecord(id="b", modality="visual", dim=3, values=(1.0, 0.0, 0.0)))

    def test_require_missing(self):
        store = EmbeddingStore()
        with pytest.raises(ValidationError, match="missing embedding"):
            store.require("ghost", "visual")


class TestJsonlEmbeddings:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        recs = [
            EmbeddingRecord(id="a", modality="visual", dim=3, values=(1.0, 2.0, 3.0)),
            EmbeddingRecord(id="a", modality="text", dim=2, values=(0.5, 0.5)),
        ]
        save_embeddings_jsonl(recs, path)
        store = load_embeddings(path)
        assert store.require("a", "visual").values == (1.0, 2.0, 3.0)
        assert store.require("a", "text").dim == 2

    def test_dim_mismatch_detected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "modality": "visual", "dim": 3, "values": [1.0, 2.0]}\n')
        with pytest.raises(ValidationError, match="dim"):
            load_embeddings(path)


class TestBinaryContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.bin"
        recs = [
            EmbeddingRecord(id="alpha", modality="visual", dim=4, values=(0.25, -1.5, 3.0, 0.0)),
            EmbeddingRecord(id="β-scene", modality="visual", dim=4, values=(1.0, 2.0, 3.0, 4.0)),
        ]
        save_embeddings_binary(recs, path)
        with open(path, "rb") as fh:
            assert fh.read(4) == CONTAINER_MAGIC
        store = load_embeddings(path)
        # values chosen exactly representable in float32
        assert store.require("alpha", "visual").values == (0.25, -1.5, 3.0, 0.0)
        assert store.require("β-scene", "visual").dim == 4

    def test_container_rows_are_visual(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings_binary(
            [EmbeddingRecord(id="a", modality="text", dim=1, values=(1.0,))], path
        )
        store = load_embeddings(path)  # the container stores no modality
        assert store.require("a", "visual").values == (1.0,)
        assert store.ids("text") == []

    def test_truncated_container(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings_binary(
            [EmbeddingRecord(id="a", modality="visual", dim=2, values=(1.0, 2.0))], path
        )
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(ValidationError, match="truncated"):
            load_embeddings(path)

    def test_mixed_dims_rejected(self, tmp_path):
        recs = [
            EmbeddingRecord(id="a", modality="visual", dim=2, values=(1.0, 2.0)),
            EmbeddingRecord(id="b", modality="visual", dim=3, values=(1.0, 2.0, 3.0)),
        ]
        with pytest.raises(ValidationError):
            save_embeddings_binary(recs, tmp_path / "emb.bin")

    def test_vector_block_api(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        ids, out = read_vector_block(io.BytesIO(pack_vector_block(["one", "two"], rows)))
        assert ids == ["one", "two"]
        assert out.dtype == np.float64 and out.tobytes() == rows.tobytes()

    def test_vector_block_matches_per_value_struct_packing(self):
        # the v1 layout as a per-value reference: u16 id length, id, float32 LE
        f32 = np.finfo(np.float32)
        edges = [0.0, -0.0, 1.0, -2.5, 1e-39, -1e-45, 1e-46, 3e-45, float(f32.tiny), float(f32.max),
                 -float(f32.max), float(f32.max) * (1 + 2**-25), math.inf, -math.inf, math.nan,
                 0.1, 1 / 3, 123456789.123, -1e38]
        rng = np.random.default_rng(3)
        rows = np.array([edges, rng.normal(scale=1e3, size=len(edges))])
        ids = ["e", "rnd-ß"]
        want = CONTAINER_MAGIC + struct.pack("<III", 1, 2, len(edges))
        for rid, row in zip(ids, rows):
            ident = rid.encode("utf-8")
            want += struct.pack("<H", len(ident)) + ident + struct.pack(f"<{len(row)}f", *row)
        blob = pack_vector_block(ids, rows)
        assert blob == want
        got_ids, got = read_vector_block(io.BytesIO(blob))
        assert got_ids == ids
        back = [struct.unpack(f"<{len(edges)}f", struct.pack(f"<{len(edges)}f", *r)) for r in rows]
        assert got.tobytes() == np.array(back).tobytes()

    @pytest.mark.parametrize("value", [1e39, -3.5e38, 1e300], ids=["1e39", "-3.5e38", "1e300"])
    def test_value_beyond_float32_writes_nothing(self, tmp_path, value):
        with pytest.raises(ValidationError) as info:
            pack_vector_block(["a", "b"], np.array([[1.0, 2.0], [3.0, value]]))
        assert str(info.value) == f"record 'b': values[1]: {value!r} is outside the float32 range"
        path = tmp_path / "emb.bin"
        recs = [EmbeddingRecord(id="a", modality="visual", dim=2, values=(value, 1.0))]
        with pytest.raises(ValidationError, match="outside the float32 range"):
            save_embeddings_binary(recs, path)
        assert not path.exists()


def _container_bytes(ids, rows):
    return pack_vector_block(ids, np.array(rows, dtype=np.float64))


@pytest.mark.parametrize(
    "ids, rows, normalize, message",
    [
        (["a", "b", "a"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], False,
         "record 2: duplicate id 'a' for modality 'visual'"),
        (["a", "", "c"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], False,
         "record 1: id: must be a non-empty string"),
        (["a", "b", "c"], [[1.0, 0.0], [math.nan, 1.0], [1.0, 1.0]], False,
         "record 1: embedding: values[0]: non-finite or non-numeric value nan"),
        (["a", "b"], [[1.0, 0.0], [1.0, -math.inf]], True,
         "record 1: embedding: values[1]: non-finite or non-numeric value -inf"),
        (["a", "b", "c"], [[1.0, 0.0], [1.0, 1.0], [0.0, -0.0]], True,
         "record 2: embedding 'c': zero-norm vector cannot be normalized"),
        # a bad row before a duplicate is reported first, as in JSONL
        (["a", "b", "a"], [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]], True,
         "record 1: embedding 'b': zero-norm vector cannot be normalized"),
    ],
    ids=["duplicate-id", "empty-id", "nan", "inf", "zero-vector", "zero-vector-before-duplicate"],
)
def test_container_errors_name_file_and_record(tmp_path, ids, rows, normalize, message):
    path = tmp_path / "emb.bin"
    path.write_bytes(_container_bytes(ids, rows))
    with pytest.raises(ValidationError) as info:
        load_embeddings(path, normalize=normalize)
    assert str(info.value) == f"{path}: {message}"


def test_container_normalizes_as_jsonl_does(tmp_path):
    rows = np.random.default_rng(5).normal(size=(20, 7)).astype(np.float32).astype(np.float64)
    ids = [f"i{k}" for k in range(len(rows))]
    binary, text = tmp_path / "emb.bin", tmp_path / "emb.jsonl"
    binary.write_bytes(_container_bytes(ids, rows))
    save_embeddings_jsonl(
        [EmbeddingRecord(id=i, modality="visual", dim=7, values=tuple(r)) for i, r in zip(ids, rows)],
        text,
    )
    for normalize in (False, True):
        a, b = load_embeddings(binary, normalize), load_embeddings(text, normalize)
        assert a.ids("visual") == b.ids("visual") == ids
        assert a.matrix("visual").tobytes() == b.matrix("visual").tobytes()


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
def test_container_cut_anywhere_is_a_validation_error(tmp_path, normalize):
    blob = _container_bytes(["a", "βb"], [[1.0, 2.0, 3.0], [0.5, -0.5, 4.0]])
    path = tmp_path / "emb.bin"
    for end in range(1, len(blob)):  # an empty file is an empty JSONL store
        path.write_bytes(blob[:end])
        with pytest.raises(ValidationError):
            load_embeddings(path, normalize=normalize)
    path.write_bytes(blob)
    assert len(load_embeddings(path, normalize=normalize)) == 2


def test_loader_normalize_flag(tmp_path):
    path = tmp_path / "emb.jsonl"
    save_embeddings_jsonl(
        [EmbeddingRecord(id="a", modality="visual", dim=2, values=(3.0, 4.0))], path
    )
    store = load_embeddings(path, normalize=True)
    np.testing.assert_allclose(store.require("a", "visual").values, (0.6, 0.8))


GOOD_LINES = (
    '{"id": "a", "modality": "visual", "dim": 2, "values": [1.0, 2.0]}\n'
    '{"id": "a", "modality": "text", "dim": 2, "values": [3.0, 4.0]}\n'
    "\n"
)


@pytest.mark.parametrize(
    "line, normalize, message",
    [
        ('{"id": "b", "modality": "visual", "dim": true, "values": [1.0]}', False,
         "embedding.dim: expected an integer"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": [1.0, NaN]}', False,
         "embedding: values[1]: non-finite or non-numeric value nan"),
        ('{"id": "b", "modality": "text", "dim": 2, "values": [1e400, 1.0]}', True,
         "embedding: values[0]: non-finite or non-numeric value inf"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": ["x", 1.0]}', False,
         "embedding.values: expected numbers"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": [null, 1.0]}', True,
         "embedding.values: expected numbers"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": [1' + "0" * 400 + ", 1.0]}",
         False, "embedding.values: expected numbers"),
        ('{"id": "b", "modality": "visual", "dim": 3, "values": [1.0, 1.0, 1.0]}', False,
         "embedding 'b': dim 3 inconsistent with visual dim 2"),
        ('{"id": "b", "modality": "visual", "dim": 3, "values": [1.0, 1.0]}', False,
         "embedding: values: length 2 does not match dim 3"),
        ('{"id": "a", "modality": "visual", "dim": 2, "values": [5.0, 6.0]}', False,
         "duplicate id 'a' for modality 'visual'"),
        ('{"id": "a", "modality": "visual", "dim": 2, "values": [NaN, 6.0]}', False,
         "embedding: values[0]: non-finite or non-numeric value nan"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": [0.0, 0.0]}', True,
         "embedding 'b': zero-norm vector cannot be normalized"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": [0.0, 0.0]}\n{"id": ', True,
         "embedding 'b': zero-norm vector cannot be normalized"),
        ('{"id": "b", "modality": "audio", "dim": 2, "values": [1.0, 1.0]}', False,
         "embedding: modality: 'audio' is not one of ('visual', 'text')"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": [1e154, 1e154]}', True,
         "embedding 'b': squared norm overflows; cannot be normalized"),
        ('{"id": "b", "modality": "visual", "dim": 2, "values": [1e154, "1e154"]}', True,
         "embedding 'b': squared norm overflows; cannot be normalized"),
        ('{"id": "a", "modality": "visual", "dim": 2, "values": [0.0, 0.0]}', True,
         "duplicate id 'a' for modality 'visual'"),
    ],
    ids=["bool-dim", "nan", "inf", "string", "null", "huge-int", "dim-mismatch",
         "length-mismatch", "duplicate-id", "duplicate-id-and-nan", "zero-vector",
         "zero-vector-before-parse-error", "unknown-modality", "norm-overflow",
         "norm-overflow-numeric-string", "duplicate-id-before-zero-norm"],
)
def test_loader_reports_bad_line(tmp_path, line, normalize, message):
    # The rows are checked for finiteness and zero norms after the last line,
    # so an error found later in the file must still name the earliest line.
    path = tmp_path / "emb.jsonl"
    path.write_text(GOOD_LINES + line + "\n")
    with pytest.raises(ValidationError) as info:
        load_embeddings(path, normalize=normalize)
    assert str(info.value) == f"{path}: line 4: {message}"


def test_loader_takes_what_float_takes(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        GOOD_LINES + '{"id": "b", "modality": "visual", "dim": 2, "values": ["1.5", true]}\n'
    )
    store = load_embeddings(path)
    assert store.require("b", "visual").values == (1.5, 1.0)
    assert store.require("a", "text").values == (3.0, 4.0)


def test_store_add_after_load(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(GOOD_LINES)
    store = load_embeddings(path, normalize=True)
    np.testing.assert_allclose(store.row_norms("visual"), [1.0])
    for i in range(40):  # past the loaded matrix's capacity
        store.add(EmbeddingRecord(id=f"n{i}", modality="visual", dim=2, values=(0.0, float(i + 1))))
    assert len(store) == 42
    assert store.ids("visual")[:2] == ["a", "n0"]
    np.testing.assert_allclose(store.require("a", "visual").values, (0.2**0.5, 0.8**0.5))
    assert store.require("n39", "visual").values == (0.0, 40.0)
    assert store.matrix("visual").shape == (41, 2)
    assert store.row_norms("visual")[-1] == 40.0
    assert [r.id for r in store] == ["a", *(f"n{i}" for i in range(40)), "a"]
    with pytest.raises(ValidationError, match="duplicate id 'n3'"):
        store.add(EmbeddingRecord(id="n3", modality="visual", dim=2, values=(1.0, 0.0)))
    with pytest.raises(ValidationError, match="inconsistent"):
        store.add(EmbeddingRecord(id="z", modality="text", dim=3, values=(1.0, 0.0, 0.0)))


@pytest.mark.parametrize("binary", [False, True], ids=["jsonl", "container"])
def test_loaded_store_holds_exactly_its_rows(tmp_path, binary):
    recs = [EmbeddingRecord(id=f"v{i}", modality="visual", dim=3, values=(1.0, i, 2.0))
            for i in range(20)]  # past the first buffer's 16 rows
    path = tmp_path / "emb"
    if binary:
        save_embeddings_binary(recs, path)
    else:
        save_embeddings_jsonl(recs + [EmbeddingRecord(id="t", modality="text", dim=2,
                                                      values=(1.0, 0.0))], path)
    store = load_embeddings(path, normalize=True)
    for modality in ("visual", "text"):
        view = store.matrix(modality)
        assert view.base.shape == view.shape  # the buffer the view is cut from
    before = store.matrix("visual")
    kept = before.copy()
    store.add(EmbeddingRecord(id="new", modality="visual", dim=3, values=(0.0, 0.0, 1.0)))
    after = store.matrix("visual")
    assert after.shape == (21, 3) and after[20].tolist() == [0.0, 0.0, 1.0]
    assert np.array_equal(before, kept) and np.array_equal(after[:20], kept)


# ---------------------------------------------------------------------------
# one-pass loaders against the plain from_json path


class Raw(str):
    """JSON text that ``_dumps`` writes as it is: what ``json.dumps`` cannot
    make, such as ``1e400`` or an object with a duplicate key."""


def _dumps(obj):
    """``json.dumps(obj)``, with every ``Raw`` in ``obj`` written as it is."""
    if isinstance(obj, Raw):
        return str(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    return json.dumps(obj)


def _nested(depth):
    return "[" * depth + "]" * depth


# Values on which orjson and json part ways, beside NaN and Infinity:
# integers beyond 64 bits (orjson makes floats of them, json ints), literals
# orjson refuses (1e400, an escaped lone surrogate), duplicate keys (both keep
# the last value), and nesting too deep for json, which orjson accepts and an
# extra key or a duplicate key's discarded value can hide.
BIG_INTS = [2**64, 2**64 + 2048, 2**64 + 2049, -(2**64 + 6144), 10**25, 2**1024 - 2**970]
ODD_FLOATS = [Raw("1e400"), Raw("-1e400"), Raw("1e-400"), Raw("2.4703282292062328e-324"),
              -math.inf]
ODD_STRINGS = [Raw('"\\ud800"'), Raw('"mu\\udc00g"')]
DEEP = [Raw(_nested(150)), Raw(_nested(1000))]
ODD_OBJECTS = [
    Raw('{"color": "red", "color": "big"}'),
    Raw('{"q": 0.5, "q": 1}'),
    Raw('{"q": 1, "q": 0.5}'),
    Raw('{"category": "cup", "bbox": [0.0, 0.0, 1.0, 1.0], "category": "mug"}'),
    *(Raw(f'{{"category": {d}, "category": "mug", "bbox": [0.0, 0.0, 1.0, 1.0]}}') for d in DEEP),
    *(Raw(f'{{"category": "mug", "bbox": [0.0, 0.0, 1.0, 1.0], "x": {d}}}') for d in DEEP),
]
# Replacements by the type of the value they replace: values from_json
# converts (ints, bools, numeric strings), values it rejects (NaN, inf,
# 400-digit ints, null, ...) and values of the right type out of range or order.
SPOILERS = {
    float: [0, 1, True, "0.5", "nan", 10**400, math.nan, math.inf, -0.5, 1.5, None, -0.0, 0.75, 1.0,
            *BIG_INTS, *ODD_FLOATS],
    int: [True, 1.0, "1", -1, 0, 1, 5, 10**400, None],
    str: ["", "x", "Perception", "und", "clean", 1, None, ["Perception"], *ODD_STRINGS],
    list: [None, "x", {}, [], [0.5], ["x"], *DEEP],
    dict: [None, "x", [], {"a": 1}, {"a": "b"}, *ODD_OBJECTS],
}
REMOVE = object()
NOT_AN_OBJECT = [None, 1, "x", [], [{"scene_id": "s"}]]

SCENE_EXAMPLE = {
    "scene_id": "s1",
    "instances": [{"category": "mug", "attributes": {"color": "red"}, "bbox": [0.0, 0.25, 0.5, 1.0]},
                  {"category": "cup", "bbox": [0.5, 0.5, 0.5, 0.5]}],
    "scene_attributes": {"place": "kitchen"},
    "scores": {"q": 0.5},
}
# a scene with an extra key nested past orjson's guard
SCENE_EXAMPLES = [SCENE_EXAMPLE, {**SCENE_EXAMPLE, "x": DEEP[0]}]
RESULT_EXAMPLES = [
    {"model": "m", "task": "t", "taxonomy": "Perception", "modality": "und",
     "perturbation": "interference", "shots": [0, 2, 4], "values": [1.0, 2.0, 3.0]},
    {"model": "m", "task": "t", "taxonomy": "Analogy", "modality": "gen",
     "perturbation": "clean", "shots": [1], "values": [0.5]},
]
EPISODE_EXAMPLES = [
    {"episode_id": "e1", "taxonomy": "Perception", "subtask": "Visual Grounding",
     "shots": [{"id": "d1", "image_ref": "i1", "instruction": "point", "output": {"text": "left"}},
               {"id": "d2", "instruction": "point", "output": {"image_ref": "o2"}}],
     "query": {"id": "q", "image_ref": "iq", "instruction": "point"},
     "gold": {"text": "right"}},
    # an extra key nested past orjson's guard
    {"episode_id": "e2", "taxonomy": "Conception", "subtask": "Fast Concept Mapping",
     "shots": [], "query": {"id": "q", "instruction": "map"}, "x": DEEP[0]},
]
EMBEDDING_PREFIX = [
    {"id": "p", "modality": "visual", "dim": 2, "values": [1.0, 0.0]},
    {"id": "p", "modality": "text", "dim": 3, "values": [0.0, 1.0, 0.0]},
]
EMBEDDING_EXAMPLES = [
    {"id": "a", "modality": "visual", "dim": 2, "values": [0.5, -1.5]},
    {"id": "a", "modality": "text", "dim": 3, "values": [1.0, 0.25, -0.0]},
]


def _slots(obj):
    """(container, key) of every value nested in ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _spoil(container, key, value):
    if value is REMOVE:
        del container[key]
    else:
        container[key] = copy.deepcopy(value)  # later spoils must not edit SPOILERS


def _spoilers(container, key):
    value = container[key]
    return ([REMOVE] if isinstance(container, dict) else []) + SPOILERS.get(type(value), SPOILERS[str])


@st.composite
def spoiled(draw, valid):
    """A valid record object with up to two nested values replaced or removed."""
    obj = draw(valid)
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        slots = list(_slots(obj))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        _spoil(container, key, draw(st.sampled_from(_spoilers(container, key))))
    return obj


UNIT = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, -0.0])
PAIR = st.tuples(UNIT, UNIT).map(sorted)
STR_DICT = st.dictionaries(st.sampled_from(["color", "size"]), st.sampled_from(["red", "big"]),
                           max_size=1)
SCENE = st.fixed_dictionaries({
    "scene_id": st.sampled_from(["s1", "s2", "s3", "s4", "s5"]),
    "instances": st.lists(st.fixed_dictionaries({
        "category": st.sampled_from(["mug", "cup"]),
        "attributes": STR_DICT,
        "bbox": st.tuples(PAIR, PAIR).map(lambda p: [p[0][0], p[1][0], p[0][1], p[1][1]]),
    }), max_size=2),
    "scene_attributes": STR_DICT,
    "scores": st.dictionaries(st.sampled_from(["q", "rel"]), st.floats(-1e6, 1e6), max_size=1),
}, optional={"x": st.sampled_from(DEEP)})


@st.composite
def result_row(draw):
    shots = draw(st.lists(st.integers(0, 16), unique=True, max_size=3).map(sorted))
    row = {
        "model": draw(st.sampled_from(["m1", "m2"])),
        "task": "t1",
        "taxonomy": draw(st.sampled_from(["Perception", "Analogy"])),
        "modality": draw(st.sampled_from(["und", "gen"])),
        "shots": shots,
        "values": draw(st.lists(st.floats(0.0, 100.0), min_size=len(shots), max_size=len(shots))),
    }
    pert = draw(st.sampled_from(["clean", "interference", "reverse_order", None, "absent"]))
    if pert != "absent":
        row["perturbation"] = pert
    return row


def _outcome(load, path):
    """repr of what ``load`` returns (which tells 1 from 1.0), or its error."""
    try:
        return repr(load(path))
    except ValidationError as exc:
        return str(exc)


LONE_SURROGATE = "a string holds an escaped lone surrogate, which is not UTF-8 text"


def _json_depth(text):
    """The deepest nesting of ``text`` outside its strings, by a plain scan."""
    depth = deepest = 0
    in_string = escaped = False
    for char in text:
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
        elif char == '"':
            in_string = True
        elif char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif char in "]}":
            depth -= 1
    return deepest


def _json_loads(line):
    """``json.loads``, refusing nesting deeper than ``MAX_JSON_DEPTH`` before
    it, and a value that holds a lone surrogate after it: only a ``\\u``
    escape decodes to one, and no UTF-8 text can carry it."""
    if _json_depth(line) > MAX_JSON_DEPTH:
        raise ValueError(f"nested deeper than {MAX_JSON_DEPTH} levels")
    obj = json.loads(line)
    if "\\u" in line:
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(LONE_SURROGATE) from None
    return obj


def _plain_load(from_json, key=None):
    """A loader that parses with ``_json_loads`` and builds with ``from_json``."""
    def load(path):
        out, seen = [], set()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj = _json_loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}: line {lineno}: parse error: {exc.msg}") from None
                except (ValueError, RecursionError) as exc:
                    raise ValidationError(f"{path}: line {lineno}: parse error: {exc}") from None
                try:
                    rec = from_json(obj)
                except ValidationError as exc:
                    raise ValidationError(f"{path}: line {lineno}: {exc}") from None
                if key is not None:
                    if getattr(rec, key) in seen:
                        raise ValidationError(
                            f"{path}: line {lineno}: duplicate {key} {getattr(rec, key)!r}"
                        )
                    seen.add(getattr(rec, key))
                out.append(rec)
        return out
    return load


PLAIN_METADATA = _plain_load(MetadataRecord.from_json, "scene_id")
PLAIN_RESULTS = _plain_load(ResultRow.from_json)
PLAIN_EPISODES = _plain_load(Episode.from_json, "episode_id")


def _fsum_normalized(rec):
    """``rec`` scaled by its exactly rounded ``math.fsum`` norm; a zero or
    overflowing squared norm is rejected in the loader's words."""
    try:
        sq = math.fsum(v * v for v in rec.values)
    except OverflowError:  # the partial sums passed the largest double
        sq = math.inf
    if sq == 0.0 or sq == math.inf:
        problem = "zero-norm vector" if sq == 0.0 else "squared norm overflows;"
        raise ValidationError(f"embedding {rec.id!r}: {problem} cannot be normalized")
    values = tuple(v / math.sqrt(sq) for v in rec.values)
    return EmbeddingRecord(id=rec.id, modality=rec.modality, dim=rec.dim, values=values)


def PLAIN_EMBEDDINGS(path, normalize=False):
    """``_json_loads``, then ``EmbeddingRecord.from_json``, then ``store.add``;
    a line's duplicate id or dim is reported before its norm."""
    store, raw = EmbeddingStore(), EmbeddingStore()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = _json_loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: line {lineno}: parse error: {exc.msg}") from None
            except (ValueError, RecursionError) as exc:
                raise ValidationError(f"{path}: line {lineno}: parse error: {exc}") from None
            try:
                rec = EmbeddingRecord.from_json(obj)
                raw.add(rec)
                store.add(_fsum_normalized(rec) if normalize else rec)
            except ValidationError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    return store


def _store_view(load):
    """``load`` returning each modality's ids and rows, which ``repr`` tells
    apart bit for bit (``-0.0`` from ``0.0`` too)."""
    def view(path):
        store = load(path)
        return [(m, store.ids(m), store.matrix(m).tolist()) for m in EMBEDDING_MODALITIES]
    return view


def _assert_same_store(text, path, normalize):
    """``load_embeddings`` gives ``PLAIN_EMBEDDINGS``'s error, or its ids and
    rows: bit for bit, or within 4 ulp when normalizing, as the loader
    scales by a summed norm where the reference takes ``math.fsum``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    outcomes = []
    for load in (load_embeddings, PLAIN_EMBEDDINGS):
        try:
            store = load(path, normalize=normalize)
        except ValidationError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append({m: (store.ids(m), store.matrix(m)) for m in EMBEDDING_MODALITIES})
    got, want = outcomes
    if isinstance(got, str) or isinstance(want, str):
        assert got == want, text[:300]
        return
    for m in EMBEDDING_MODALITIES:
        assert got[m][0] == want[m][0], text[:300]
        if normalize:
            np.testing.assert_array_max_ulp(got[m][1], want[m][1], maxulp=4)
        else:
            assert got[m][1].tobytes() == want[m][1].tobytes(), text[:300]


def _assert_same(objs, load, plain, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(_dumps(o) + "\n" for o in objs))
    assert _outcome(load, path) == _outcome(plain, path), objs


@pytest.mark.parametrize(
    "examples, prefix, load, plain",
    [
        (SCENE_EXAMPLES, [], lambda p: list(load_metadata(p)), PLAIN_METADATA),
        (RESULT_EXAMPLES, [], lambda p: list(load_results(p)), PLAIN_RESULTS),
        (EPISODE_EXAMPLES, [], load_episodes, PLAIN_EPISODES),
        # after the prefix, a spoiled id, modality or dim can also collide
        # with a stored id or dim
        (EMBEDDING_EXAMPLES, EMBEDDING_PREFIX, _store_view(load_embeddings),
         _store_view(PLAIN_EMBEDDINGS)),
    ],
    ids=["metadata", "results", "episodes", "embeddings"],
)
def test_each_single_spoil_matches_from_json(tmp_path, examples, prefix, load, plain):
    path = tmp_path / "records.jsonl"
    for example in examples:
        _assert_same([*prefix, example], load, plain, path)
        for i, (container, key) in enumerate(_slots(example)):
            for value in _spoilers(container, key):
                obj = copy.deepcopy(example)
                _spoil(*list(_slots(obj))[i], value)
                _assert_same([*prefix, obj], load, plain, path)
    for obj in NOT_AN_OBJECT:
        _assert_same([*prefix, obj], load, plain, path)


@settings(max_examples=200, deadline=None)
@given(st.lists(spoiled(SCENE) | st.sampled_from(NOT_AN_OBJECT), min_size=1, max_size=3))
def test_load_metadata_matches_from_json(scenes):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_same(scenes, lambda p: list(load_metadata(p)), PLAIN_METADATA,
                     os.path.join(tmp, "m.jsonl"))


@settings(max_examples=200, deadline=None)
@given(st.lists(spoiled(result_row()) | st.sampled_from(NOT_AN_OBJECT), min_size=1, max_size=3))
def test_load_results_matches_from_json(rows):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_same(rows, lambda p: list(load_results(p)), PLAIN_RESULTS, os.path.join(tmp, "r.jsonl"))


@st.composite
def embedding(draw):
    dim = draw(st.integers(1, 3))
    value = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1, 2**64 + 1])
    return {
        "id": draw(st.sampled_from(["a", "b", "c"])),
        "modality": draw(st.sampled_from(EMBEDDING_MODALITIES)),
        "dim": dim,
        "values": draw(st.lists(value, min_size=dim, max_size=dim)),
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(spoiled(embedding()) | st.sampled_from(NOT_AN_OBJECT), min_size=1, max_size=4),
       st.booleans())
def test_load_embeddings_matches_from_json(objs, normalize):
    with tempfile.TemporaryDirectory() as tmp:
        text = "".join(json.dumps(o) + "\n" for o in objs)
        _assert_same_store(text, os.path.join(tmp, "e.jsonl"), normalize)


# Lines on which orjson and json part ways; each must load as json has it.
ORJSON_DIVERGENCES = {
    # integers beyond 64 bits: orjson makes floats of them
    "dim-20-digits": '"dim": 18446744073709551616, "values": [1.0, 2.0]',
    "dim-20-digits-negative": '"dim": -18446744073709551617, "values": [1.0, 2.0]',
    "values-20-digits": '"dim": 2, "values": [12345678901234567891, -98765432109876543211]',
    # what orjson refuses and json takes
    "values-309-digits-past-max": f'"dim": 2, "values": [{2**1024 - 2**970}, 1.0]',
    "values-310-digits": f'"dim": 2, "values": [{10**309}, 1.0]',
    "values-1e400": '"dim": 2, "values": [1e400, 1.0]',
    "values-nan": '"dim": 2, "values": [NaN, 1.0]',
    "values-infinity": '"dim": 2, "values": [1.0, -Infinity]',
    "id-lone-surrogate": '"dim": 2, "values": [1.0, 2.0], "id": "\\ud800"',
    # duplicate keys: both keep the last value
    "duplicate-id": '"dim": 2, "values": [1.0, 2.0], "id": "c"',
    "duplicate-values": '"dim": 2, "values": [1.0, 2.0], "values": [3.0, 4.0]',
    "duplicate-dim": '"dim": 3, "values": [1.0, 2.0], "dim": 2',
    # nesting that orjson reads up to MAX_JSON_DEPTH, and accepts past it
    # where json is refused
    **{
        f"nested-{depth}-{where}": line
        for depth in (300, MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1, 990, 1000, 1100)
        for where, line in [
            ("extra-key", f'"dim": 2, "values": [1.0, 2.0], "x": {_nested(depth)}'),
            ("duplicate-key", f'"dim": {_nested(depth)}, "dim": 2, "values": [1.0, 2.0]'),
        ]
    },
}


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("fields", ORJSON_DIVERGENCES.values(), ids=ORJSON_DIVERGENCES.keys())
def test_orjson_divergences_load_as_json_has_them(tmp_path, fields, normalize):
    line = '{"id": "b", "modality": "visual", ' + fields + "}\n"
    _assert_same_store(GOOD_LINES + line + GOOD_LINES.replace('"a"', '"z"'), tmp_path / "e.jsonl",
                       normalize)


# strings that hold brackets, quotes and backslashes, which the depth scan must skip
BRACKETED_STRINGS = ['"["', '"]]"', '"{\\"["', '"\\\\"', '"a\\\\\\"]"', '"}"']


@st.composite
def nested_documents(draw):
    """A JSON document nested near ``MAX_JSON_DEPTH``, with bracketed strings
    at random levels."""
    depth = draw(st.integers(MAX_JSON_DEPTH - 3, MAX_JSON_DEPTH + 3))
    text = draw(st.sampled_from(["1", "[]", "{}", *BRACKETED_STRINGS]))
    # an empty container as the leaf adds a level
    levels = depth - (text in ("[]", "{}"))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(levels):
        sibling = rnd.choice([None, *BRACKETED_STRINGS])
        if rnd.random() < 0.5:
            text = f"[{text}]" if sibling is None else f"[{sibling}, {text}]"
        else:
            text = f'{{"k": {text}}}' if sibling is None else f'{{{sibling}: {text}}}'
    return depth, text


@settings(max_examples=150, deadline=None)
@given(nested_documents())
def test_decode_json_bounds_nesting_by_the_text_alone(document):
    # hypothesis raises the recursion limit, which a bound taken from the
    # text alone does not depend on
    depth, text = document
    assert _json_depth(text) == depth
    if depth > MAX_JSON_DEPTH:
        with pytest.raises(ValidationError, match=f"^nested deeper than {MAX_JSON_DEPTH} levels$"):
            _decode_json(text)
    else:
        assert _decode_json(text) == json.loads(text)


@pytest.mark.parametrize(
    "line",
    ['  {"a": 1}', '{"a": 1} \t\r', '{"a": 1} x', '{"a": 1}{"b": 2}', '{"a": 1}\x0c', '\ufeff{"a": 1}',
     '{"a": 1', '[1, 2] 3', '"\\ud800"', '{"a\\udfff": 1}', '["x", {"a": "\\ud83d\\ude00"}]',
     '{"a": "\\\\ud800"}', '{"a": "\\ud800", "a": 1}', '[{"k": {"\\ud800": 1}}]',
     '{"a": [1, {"b": "x\\udc00"}], "c": 2}', '{"a": {"b": ["\\ud800"]}, "a": 2}', "1" * 5000,
     "[" * 100_000, _nested(300), "[" + "[], " * 300 + _nested(MAX_JSON_DEPTH - 1) + "]",
     _nested(MAX_JSON_DEPTH + 1), '{"a": 1, "b": ' + _nested(MAX_JSON_DEPTH + 1) + "}"],
    ids=["leading-space", "trailing-space", "extra-data", "two-values", "form-feed", "bom",
         "truncated", "array-extra", "lone-surrogate", "lone-surrogate-key", "surrogate-pair",
         "escaped-backslash", "lone-surrogate-dropped", "lone-surrogate-nested-key",
         "lone-surrogate-nested-value", "lone-surrogate-nested-dropped", "integer-digits",
         "nesting", "brackets-300-deep", "brackets-800-at-depth-500", "nested-501",
         "nested-501-in-a-key"],
)
def test_line_reader_matches_json_loads(tmp_path, line):
    path = tmp_path / "lines.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    try:
        expected = [(1, _json_loads(line + "\n"))]
    except json.JSONDecodeError as exc:
        expected = f"{path}: line 1: parse error: {exc.msg}"
    except (ValueError, RecursionError) as exc:
        expected = f"{path}: line 1: parse error: {exc}"
    got = []
    try:
        _read_jsonl(str(path), lambda obj: obj, lambda lineno, obj: got.append((lineno, obj)))
    except ValidationError as exc:
        got = str(exc)
    assert got == expected


def test_unknown_subtask_warns_once_per_episode_line(tmp_path):
    # orjson reads line 1 and refuses line 2 (an unused key holding 1e400);
    # line 3 fails after its warning
    ep = {"episode_id": "e1", "taxonomy": "Perception", "subtask": "x", "shots": [],
          "query": {"id": "q", "instruction": "i"}}
    lines = [ep, {**ep, "episode_id": "e2", "x": 0},
             {**ep, "episode_id": "e3", "shots": [{"id": "d", "instruction": "i"}] * 2}]
    path = tmp_path / "e.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in lines).replace('"x": 0', '"x": 1e400'))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=r"line 3: episode: shots\[1\]\.id: duplicate id 'd'"):
            load_episodes(str(path))
    assert [str(w.message) for w in caught] == [
        f"episode 'e{i}': unknown subtask 'x'" for i in (1, 2, 3)
    ]


def test_exact_types_take_the_one_pass_path():
    table = SceneTable()
    table._append(*_exact_scene(SCENE_EXAMPLE))
    assert list(table) == [MetadataRecord.from_json(SCENE_EXAMPLE)]
    results = ResultTable()
    for row in RESULT_EXAMPLES:
        assert _exact_result(results, row)
    assert list(results) == [ResultRow.from_json(row) for row in RESULT_EXAMPLES]
    # an int where a float belongs goes to from_json, which converts it
    assert _exact_scene(dict(SCENE_EXAMPLE, scores={"q": 1})) is None
    assert not _exact_result(results, dict(RESULT_EXAMPLES[0], values=[1, 2.0, 3.0]))
    # an empty curve goes to from_json, which rejects it
    assert not _exact_result(results, dict(RESULT_EXAMPLES[0], shots=[], values=[]))
    assert len(results) == len(RESULT_EXAMPLES)


def test_a_result_curve_with_no_points_is_a_load_error(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(RESULT_EXAMPLES[0]) + "\n"
                    + json.dumps(dict(RESULT_EXAMPLES[0], shots=[], values=[])) + "\n")
    with pytest.raises(ValidationError) as info:
        load_results(str(path))
    assert str(info.value) == f"{path}: line 2: result: curve: needs at least one shot"


def _count_json_loads(monkeypatch):
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return calls


def test_lines_that_need_conversion_are_decoded_once(tmp_path, monkeypatch):
    # ints where floats belong fail the exact-type paths; from_json converts
    # them from the first decoder's value, with no second decode.  orjson
    # reads a line within MAX_JSON_DEPTH however many brackets it holds.
    scenes = [dict(SCENE_EXAMPLE, scene_id=f"s{i}", scores={"q": i},
                   instances=[{"category": "mug", "bbox": [0, 0, 1, 1]}]) for i in range(40)]
    scenes[1]["x"] = json.loads(_nested(300))
    scenes[2]["x"] = [[]] * 600
    scenes[3]["x"] = [json.loads(_nested(MAX_JSON_DEPTH - 2))] * 2
    rows = [dict(RESULT_EXAMPLES[0], model=f"m{i}", values=[1, 2, i]) for i in range(40)]
    vectors = [dict(EMBEDDING_EXAMPLES[0], id=f"v{i}", values=[1, i]) for i in range(20)]
    cases = [(scenes, lambda p: list(load_metadata(p)), PLAIN_METADATA),
             (rows, lambda p: list(load_results(p)), PLAIN_RESULTS),
             (vectors, _store_view(load_embeddings), _store_view(PLAIN_EMBEDDINGS))]
    for objs, load, plain in cases:
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        want = _outcome(plain, path)
        calls = _count_json_loads(monkeypatch)
        assert _outcome(load, path) == want
        assert calls == []
        monkeypatch.undo()


@settings(max_examples=300, deadline=None)
@given(st.integers(19, 309).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
       st.booleans())
def test_long_integer_reads_as_float_of_it(n, negative):
    # the JSONL reader's rule rests on this: where orjson reads an integer of
    # 19 or more digits, it gives json's int or the double float() makes of it
    import orjson

    n = min(n, int(sys.float_info.max))
    if negative:
        n = -n
    got = orjson.loads(str(n))
    if type(got) is int:
        assert got == n and -(2**63) <= n < 2**64
    else:
        assert type(got) is float and got.hex() == float(n).hex()


def test_long_integers_load_as_json_has_them(tmp_path):
    big = 12345678901234567890  # 20 digits, beyond 64 bits
    low = -(2**63) - 1  # 19 digits, below 64 bits
    scenes = [dict(SCENE_EXAMPLE, scores={"q": big}), dict(SCENE_EXAMPLE, scores={"q": -big}),
              dict(SCENE_EXAMPLE, instances=[{"category": "mug", "bbox": [0.0, 0.0, 1.0, big]}])]
    rows = [dict(RESULT_EXAMPLES[0], values=[1.0, big, -big]),
            dict(RESULT_EXAMPLES[0], shots=[0, 2, big]),
            dict(RESULT_EXAMPLES[0], shots=[0, 2, low])]
    for objs, load, plain in ((scenes, lambda p: list(load_metadata(p)), PLAIN_METADATA),
                              (rows, lambda p: list(load_results(p)), PLAIN_RESULTS)):
        for obj in objs:
            _assert_same([obj], load, plain, tmp_path / "records.jsonl")
