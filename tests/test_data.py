"""Dataset schema, vocabulary, caption encoding and the toy world."""

import json

import numpy as np
import pytest

from conftest import (iou, object_proposals, reference_background, reference_placement,
                      scalar_features, union_box)
from relcap import data
from relcap.data import (END_ID, TOY_MARGIN, UNK_ID, GroundTruthRelation, PosTag,
                         proposals_for_record,
                         RelationalRecord, ToyFeatureProvider, ToyWorldConfig,
                         Vocabulary, box_inside, build_vocab, encode_caption,
                         generate_toy_world, load_dataset, load_pos_lexicon,
                         save_dataset, spatial_predicate, split_records, tag_segments)
from relcap.errors import ConfigError, DataError
from relcap.geometry import Box, box_rows

S, P, O = PosTag.SUBJ, PosTag.PRED, PosTag.OBJ


def tiny_record(image_id=0):
    tokens, tags = tag_segments(("the", "red", "square"), ("is", "near",),
                                ("the", "blue", "circle"))
    rel = GroundTruthRelation(Box(20, 20, 10, 10), Box(60, 20, 10, 10),
                              tokens, tags, image_id)
    return RelationalRecord(image_id=image_id, width=100, height=100,
                            relations=[rel]).validate()


class TestDatasetIO:
    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(str(path)) == []

    def test_roundtrip_identity(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = [tiny_record(0), tiny_record(1)]
        save_dataset(str(path), records)
        loaded = load_dataset(str(path))
        assert loaded == records
        save_dataset(str(tmp_path / "again.jsonl"), loaded)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_bad_box_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({
            "schema_version": 1, "image_id": 0, "width": 100, "height": 100,
            "relations": [], "objects": []})
        bad = json.dumps({
            "schema_version": 1, "image_id": 1, "width": 100, "height": 100,
            "relations": [{"subject_box": {"x": 5, "y": 5, "w": -3, "h": 2},
                           "object_box": {"x": 5, "y": 5, "w": 2, "h": 2},
                           "tokens": ["a", "b", "c"],
                           "pos": ["SUBJ", "PRED", "OBJ"]}],
            "objects": []})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataError, match="bad.jsonl:2"):
            load_dataset(str(path))

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text(json.dumps({"schema_version": 9, "image_id": 0,
                                    "width": 10, "height": 10, "relations": []}) + "\n")
        with pytest.raises(DataError, match="schema_version"):
            load_dataset(str(path))

    def test_pos_segments_must_be_ordered(self):
        with pytest.raises(ValueError, match="SUBJ, PRED, OBJ"):
            GroundTruthRelation(Box(5, 5, 2, 2), Box(8, 8, 2, 2),
                                ["a", "b"], [O, S], 0).validate()


class TestVocabulary:
    def _records(self, captions):
        records = []
        for i, tokens in enumerate(captions):
            tags = [S] + [P] * (len(tokens) - 2) + [O]
            rel = GroundTruthRelation(Box(20, 20, 10, 10), Box(60, 20, 10, 10),
                                      list(tokens), tags, i)
            records.append(RelationalRecord(i, 100, 100, [rel]))
        return records

    def test_min_count_filters(self):
        vocab = build_vocab(self._records([["a", "a", "b"]]), min_count=2)
        assert "a" in vocab and "b" not in vocab
        assert len(vocab) == 5  # four reserved + "a"

    def test_min_count_one_keeps_all(self):
        vocab = build_vocab(self._records([["a", "a", "b"]]), min_count=1)
        assert "a" in vocab and "b" in vocab

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(self._records([["b", "c", "a"], ["c", "b", "a"],
                                           ["c", "z", "a"]]), min_count=1)
        # c appears 3x, a 3x, b 2x, z 1x -> a, c (alphabetical at count 3), b, z
        assert vocab.words == ["a", "c", "b", "z"]
        assert vocab.encode_token("a") == 4

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab(self._records([["a", "b", "c"]]), min_count=1)
        assert vocab.encode_token("zzz") == UNK_ID

    def test_roundtrip(self):
        vocab = build_vocab(self._records([["a", "b", "c"]]), min_count=1)
        again = Vocabulary.from_json(json.loads(json.dumps(vocab.to_json())))
        assert again.words == vocab.words


class TestEncodeCaption:
    def test_segment_rule(self):
        tokens, tags = tag_segments(("the", "man"), ("riding",), ("a", "horse"))
        assert tokens == ["the", "man", "riding", "a", "horse"]
        assert tags == [S, S, P, O, O]

    def test_end_token_appended_with_obj_tag(self):
        vocab = Vocabulary(words=["the", "man", "riding", "a", "horse"])
        tokens, tags = tag_segments(("the", "man"), ("riding",), ("a", "horse"))
        ids, out_tags = encode_caption(tokens, tags, vocab, max_len=12)
        assert ids == [vocab.encode_token(t) for t in tokens] + [END_ID]
        assert out_tags == [S, S, P, O, O, O]

    def test_oov_word_keeps_tag(self):
        vocab = Vocabulary(words=["the", "man"])
        ids, tags = encode_caption(["the", "martian"], [S, S], vocab, max_len=8)
        assert ids == [vocab.encode_token("the"), UNK_ID, END_ID]
        assert tags == [S, S, O]

    def test_truncation_preserves_labels(self):
        vocab = Vocabulary(words=["a", "b", "c", "d", "e"])
        ids, tags = encode_caption(["a", "b", "c", "d", "e"], [S, S, P, O, O],
                                   vocab, max_len=4)
        assert len(ids) == 4 and ids[-1] == END_ID
        assert ids[:3] == [vocab.encode_token(t) for t in ("a", "b", "c")]
        assert tags == [S, S, P, O]

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError):
            encode_caption([], [], Vocabulary(words=["a"]), max_len=4)

    def test_roundtrip_for_in_vocab_captions(self):
        vocab = Vocabulary(words=["the", "red", "square", "is", "near"])
        tokens = ["the", "red", "square", "is", "near", "the", "red", "square"]
        tags = [S, S, S, P, P, O, O, O]
        ids, _ = encode_caption(tokens, tags, vocab, max_len=12)
        assert [vocab.decode_id(i) for i in ids[:-1]] == tokens


class TestToyWorld:
    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = ToyWorldConfig(n_images=6)
        for run in ("a", "b"):
            records, _ = generate_toy_world(7, cfg)
            save_dataset(str(tmp_path / f"{run}.jsonl"), records)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize("count", [2, 6, 12, 40])
    def test_placement_equals_attempt_at_a_time_reference(self, count):
        # 12 boxes need rejected attempts; 40 cannot all be placed.
        for seed in range(8):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            try:
                want = reference_placement(rngs[0], count)
            except ConfigError:
                with pytest.raises(ConfigError):
                    data._place_objects(rngs[1], count)
            else:
                assert data._place_objects(rngs[1], count) == want
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_relation_count_is_pairwise(self):
        cfg = ToyWorldConfig(n_images=10, min_objects=3, max_objects=3)
        records, _ = generate_toy_world(11, cfg)
        assert sum(len(r.relations) for r in records) == 10 * 3 * 2

    def test_predicates_match_geometry_oracle(self):
        cfg = ToyWorldConfig(n_images=40, min_objects=2, max_objects=4)
        records, _ = generate_toy_world(3, cfg)
        checked = 0
        for record in records:
            boxes = {(o.box.x, o.box.y): o.box for o in record.scene}
            for rel in record.relations:
                sb, ob = rel.subject_box, rel.object_box
                pred = tuple(rel.segment(PosTag.PRED))
                # independent recomputation from raw geometry
                if box_inside(sb, ob):
                    want = ("is", "inside")
                elif sb.x < ob.x - TOY_MARGIN:
                    want = ("is", "left", "of")
                elif sb.y < ob.y - TOY_MARGIN:
                    want = ("is", "above")
                else:
                    want = ("is", "near")
                assert pred == want
                checked += 1
        assert checked > 100

    def test_left_of_iff_center_separation(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = Box(rng.uniform(10, 90), rng.uniform(10, 90), rng.uniform(4, 20),
                    rng.uniform(4, 20))
            b = Box(rng.uniform(10, 90), rng.uniform(10, 90), rng.uniform(4, 20),
                    rng.uniform(4, 20))
            pred = spatial_predicate(a, b, margin=4.0)
            if pred == ("is", "left", "of"):
                assert a.x < b.x - 4.0
            elif not box_inside(a, b):
                assert a.x >= b.x - 4.0

    def test_scene_objects_are_distinct(self):
        records, _ = generate_toy_world(2, ToyWorldConfig(n_images=15))
        for record in records:
            combos = [(s.shape, s.color) for s in record.scene]
            assert len(combos) == len(set(combos))

    def test_segments_ordered_and_nonempty(self):
        records, _ = generate_toy_world(4, ToyWorldConfig(n_images=5))
        for record in records:
            for rel in record.relations:
                assert rel.segment(S) and rel.segment(P) and rel.segment(O)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ToyWorldConfig(n_images=0).validate()

    def test_split_sizes(self):
        records, _ = generate_toy_world(7, ToyWorldConfig(n_images=120))
        train, val, test = split_records(records)
        assert (len(train), len(val), len(test)) == (96, 12, 12)


class TestFeatureProvider:
    def test_deterministic(self):
        records, provider = generate_toy_world(9, ToyWorldConfig(n_images=3))
        box = records[0].scene[0].box
        a = provider.features(records[0], box)
        b = provider.features(records[0], box)
        assert np.array_equal(a, b)
        assert a.tobytes() == scalar_features(provider, records[0], box).tobytes()

    def test_object_box_activates_its_shape_and_color(self):
        records, provider = generate_toy_world(9, ToyWorldConfig(n_images=3))
        record = records[0]
        obj = record.scene[0]
        feats = provider.features(record, obj.box)[0]
        s_idx = provider.shapes.index(obj.shape)
        c_idx = provider.colors.index(obj.color)
        assert feats[s_idx] == pytest.approx(1.0)  # object fully inside its own box
        assert feats[len(provider.shapes) + c_idx] == pytest.approx(1.0)

    def test_union_box_sees_both_objects(self):
        records, provider = generate_toy_world(9, ToyWorldConfig(n_images=5))
        record = records[0]
        a, b = record.scene[0], record.scene[1]
        feats = provider.features(record, union_box(a.box, b.box))[0]
        for obj in (a, b):
            assert feats[provider.shapes.index(obj.shape)] >= 0.99

    def test_spec_roundtrip(self):
        _, provider = generate_toy_world(9, ToyWorldConfig(n_images=2))
        again = ToyFeatureProvider.from_json(json.loads(json.dumps(provider.to_json())))
        assert again.shapes == provider.shapes
        assert again.feature_width == provider.feature_width


class TestProposals:
    def test_jittered_boxes_stay_positive_matches(self):
        records, provider = generate_toy_world(13, ToyWorldConfig(n_images=8))
        for record in records:
            props = object_proposals(record, provider, 0)
            for obj, row in zip(record.objects, props.boxes.tolist()):
                assert iou(Box(*row), obj.box) >= 0.7

    def test_background_boxes_are_negatives(self):
        records, provider = generate_toy_world(13, ToyWorldConfig(n_images=8))
        for record in records:
            props = object_proposals(record, provider, 0)
            n = len(record.objects)
            for row, confidence in zip(props.boxes[n:].tolist(), props.confidence[n:]):
                assert all(iou(Box(*row), o.box) < 0.3 for o in record.objects)
                assert confidence < 0.5

    def test_deterministic_per_seed(self):
        records, provider = generate_toy_world(13, ToyWorldConfig(n_images=2))
        a = object_proposals(records[0], provider, 5)
        b = object_proposals(records[0], provider, 5)
        assert (a.boxes.tolist(), a.confidence.tolist()) == (b.boxes.tolist(),
                                                             b.confidence.tolist())
        c = object_proposals(records[0], provider, 6)
        assert a.boxes.tolist() != c.boxes.tolist()


    @pytest.mark.parametrize("n_background", [0, 1, 2, 80, 400])
    def test_background_draws_equal_attempt_at_a_time_reference(self, n_background):
        # 400 boxes do not fit beside the objects: the attempt limit ends the loop
        records, provider = generate_toy_world(13, ToyWorldConfig(n_images=6))
        small = RelationalRecord(image_id=9, width=12, height=30, relations=[], scene=[])
        cases = [(r, [o.box for o in r.objects]) for r in records]
        cases += [(small, []), (small, [Box(6, 15, 6, 8)])]
        for record, boxes in cases:
            props = proposals_for_record(record, box_rows(boxes), provider, 3, 0.08,
                                         n_background)
            kept, confidences = reference_background(record, boxes, 3, 0.08, n_background)
            assert props.boxes[len(boxes):].tolist() == [[b.x, b.y, b.w, b.h] for b in kept]
            assert props.confidence[len(boxes):].tolist() == confidences


class TestPosLexicon:
    def test_parse(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\ntall\tJJ\nrunning\tVBG\n\n")
        assert load_pos_lexicon(str(path)) == {"tall": "JJ", "running": "VBG"}

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("tall\tJJ\nbroken line\n")
        with pytest.raises(DataError, match="lex.tsv:2"):
            load_pos_lexicon(str(path))
