"""The array pair path against its scalar oracles: many-box provider features
and region proposals against ``scalar_features``, ``caption_pairs`` against
``union_box``, ``geometric_feature`` and the list references of the
combination layer, bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_pairs_image_batch, geometric_feature, intersection_area, iou,
                      reference_combination_layer, reference_top_pairs, scalar_features,
                      tiny_config, union_box)
from relcap.data import RelationalRecord, SceneObject, ToyFeatureProvider, proposals_for_record
from relcap.errors import DataError
from relcap.geometry import Box, Proposals, box_rows, nms
from relcap.model import ModelConfig
from relcap.pipeline import (ProposalSettings, build_image_batch, build_proposals,
                             caption_pairs, make_pair_batch)

PROVIDER = ToyFeatureProvider(["circle", "square"], ["red", "blue", "green"])

# Integer-grid boxes touch edge-on (iw == 0) and nest exactly; float boxes
# give general overlaps.
grid_boxes = st.builds(Box, x=st.integers(0, 12), y=st.integers(0, 12),
                       w=st.integers(1, 8), h=st.integers(1, 8))
float_boxes = st.builds(Box, x=st.floats(-5, 30), y=st.floats(-5, 30),
                        w=st.floats(0.25, 20), h=st.floats(0.25, 20))
any_boxes = st.one_of(grid_boxes, float_boxes)


def scene_objects(shapes=PROVIDER.shapes, colors=PROVIDER.colors):
    return st.builds(SceneObject, shape=st.sampled_from(shapes),
                     color=st.sampled_from(colors), box=any_boxes)


def image(scene):
    return RelationalRecord(image_id=3, width=32, height=24, relations=[], scene=scene)


def scalar_rows(record, boxes):
    """Each box's ``scalar_features`` row, or the DataError message it raises."""
    out = []
    for box in boxes:
        try:
            out.append(scalar_features(PROVIDER, record, box)[0].tobytes())
        except DataError as exc:
            out.append(str(exc))
    return out


class TestFeaturesMany:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(scene_objects(), max_size=5), st.lists(any_boxes, min_size=1, max_size=8))
    def test_rows_equal_scalar_features(self, scene, boxes):
        record = image(scene)
        many = PROVIDER.features_many(record, box_rows(boxes))
        assert many.shape == (len(boxes), PROVIDER.feature_width)
        assert [row.tobytes() for row in many] == scalar_rows(record, boxes)
        assert [PROVIDER.features(record, box).tobytes() for box in boxes] == \
            [row.tobytes() for row in many]

    def test_touching_and_empty_boxes(self):
        obj = SceneObject("square", "blue", Box(5, 5, 2, 2))       # x from 4 to 6
        touching = Box(7, 5, 2, 2)                                  # x from 6 to 8
        nothing = Box(20, 20, 3, 3)
        inside = Box(5, 5, 1, 1)
        record = image([obj])
        assert intersection_area(obj.box, touching) == 0.0
        boxes = [touching, nothing, inside]
        many = PROVIDER.features_many(record, box_rows(boxes))
        assert [row.tobytes() for row in many] == scalar_rows(record, boxes)
        assert not many[:2, :5].any() and not many[:2, -1].any()
        assert many[2, -1] == 1.0

    def test_no_scene_is_data_error(self):
        record = image(None)
        with pytest.raises(DataError) as scalar:
            scalar_features(PROVIDER, record, Box(1, 1, 1, 1))
        with pytest.raises(DataError) as many:
            PROVIDER.features_many(record, box_rows([Box(1, 1, 1, 1)]))
        assert str(many.value) == str(scalar.value)

    def test_no_boxes_keep_their_width(self):
        for scene in (None, []):
            out = PROVIDER.features_many(image(scene), box_rows([]))
            assert out.shape == (0, PROVIDER.feature_width)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(scene_objects(), max_size=3),
           st.lists(scene_objects(("circle", "hexagon"), ("red", "mauve")), min_size=1,
                    max_size=3),
           st.lists(any_boxes, min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_unknown_object_errors_only_when_it_overlaps(self, known, odd, boxes, rnd):
        scene = known + odd
        rnd.shuffle(scene)
        record = image(scene)
        expected = scalar_rows(record, boxes)
        errors = [row for row in expected if isinstance(row, str)]
        if errors:
            with pytest.raises(DataError) as many:
                PROVIDER.features_many(record, box_rows(boxes))
            assert str(many.value) == errors[0]
        else:
            many = PROVIDER.features_many(record, box_rows(boxes))
            assert [row.tobytes() for row in many] == expected

    def test_unknown_shape_beside_the_boxes_is_ignored(self):
        odd = SceneObject("hexagon", "red", Box(20, 20, 2, 2))
        record = image([SceneObject("circle", "red", Box(5, 5, 4, 4)), odd])
        boxes = [Box(5, 5, 2, 2), Box(19, 5, 2, 2)]
        many = PROVIDER.features_many(record, box_rows(boxes))
        assert [row.tobytes() for row in many] == scalar_rows(record, boxes)
        with pytest.raises(DataError, match="hexagon"):
            PROVIDER.features_many(record, box_rows(boxes + [Box(21, 21, 2, 2)]))

    def test_error_names_the_object_the_first_box_meets(self):
        # the per-box calls raise at box 0, which meets only the later object
        record = image([SceneObject("hexagon", "red", Box(5, 5, 2, 2)),
                        SceneObject("circle", "mauve", Box(20, 20, 2, 2))])
        boxes = [Box(20, 20, 1, 1), Box(5, 5, 1, 1)]
        with pytest.raises(DataError, match="mauve circle"):
            PROVIDER.features_many(record, box_rows(boxes))
        assert "mauve circle" in scalar_rows(record, boxes)[0]


def scalar_proposals(record, boxes, provider, seed, jitter, n_background):
    """Per-box reference of ``proposals_for_record``: the same draws, each
    kept box featurised by ``scalar_features`` as soon as it is drawn."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, record.image_id]))
    out = []
    for source in boxes:
        box = source
        for _attempt in range(30):
            cand = Box(source.x + rng.uniform(-jitter, jitter) * source.w,
                       source.y + rng.uniform(-jitter, jitter) * source.h,
                       source.w * rng.uniform(1.0 - jitter, 1.0 + jitter),
                       source.h * rng.uniform(1.0 - jitter, 1.0 + jitter))
            if iou(cand, source) >= 0.75:
                box = cand
                break
        out.append((box, rng.uniform(0.80, 0.98), scalar_features(provider, record, box)))
    placed = 0
    for _attempt in range(60 * max(n_background, 1)):
        if placed >= n_background:
            break
        w, h = rng.uniform(16.0, 40.0), rng.uniform(16.0, 40.0)
        cand = Box(rng.uniform(w / 2, record.width - w / 2),
                   rng.uniform(h / 2, record.height - h / 2), w, h)
        if all(iou(cand, g) < 0.25 for g in boxes):
            out.append((cand, rng.uniform(0.05, 0.35), scalar_features(provider, record, cand)))
            placed += 1
    return [(k, box, confidence, feature.tobytes())
            for k, (box, confidence, feature) in enumerate(out)]


class TestProposals:
    @pytest.mark.parametrize("seed,jitter,n_background", [(0, 0.08, 2), (3, 0.3, 0), (5, 0.0, 80)])
    @pytest.mark.parametrize("kind", ["objects", "unions"])
    def test_equal_to_per_box_reference(self, toy_world_small, kind, seed, jitter,
                                        n_background):
        records, provider, _ = toy_world_small
        for record in records:
            boxes = ([obj.box for obj in record.objects] if kind == "objects" else
                     [union_box(rel.subject_box, rel.object_box) for rel in record.relations])
            got = proposals_for_record(record, box_rows(boxes), provider, seed, jitter,
                                       n_background)
            assert [(k, Box(*row), confidence, feature.tobytes())
                    for k, (row, confidence, feature) in enumerate(
                        zip(got.boxes.tolist(), got.confidence.tolist(), got.features))] == \
                scalar_proposals(record, boxes, provider, seed, jitter, n_background)

    @pytest.mark.parametrize("scene", [None, [SceneObject("hexagon", "red", Box(16, 12, 30, 20))]],
                             ids=["no-scene", "unknown-shape"])
    def test_errors_equal_the_per_box_reference(self, scene):
        record = image(scene)
        boxes = [Box(16, 12, 8, 8)]
        with pytest.raises(DataError) as scalar:
            scalar_proposals(record, boxes, PROVIDER, 0, 0.08, 0)
        with pytest.raises(DataError) as many:
            proposals_for_record(record, box_rows(boxes), PROVIDER, 0, 0.08, 0)
        assert str(many.value) == str(scalar.value)

    def test_no_boxes_and_no_background_is_empty(self):
        assert len(proposals_for_record(image(None), [], PROVIDER, 0, 0.08, 0)) == 0


def proposals_from(boxes):
    return Proposals(box_rows(boxes), [0.2 + 0.7 * ((k * 37) % 101) / 101
                                       for k in range(len(boxes))],
                     np.zeros((len(boxes), PROVIDER.feature_width)))


def object_config():
    return tiny_config(PROVIDER.feature_width, 10)


def union_config():
    return ModelConfig.from_name("direct-union", PROVIDER.feature_width, 10, d_subj_obj=10,
                                 d_union=8, code_width=6, hidden=6, dropout=0.0)


class TestCaptionPairs:
    @pytest.mark.parametrize("pair_cap", [None, 1, 7, 5000])
    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_object_pairs_equal_scalar_oracles(self, n, pair_cap, data):
        boxes = data.draw(st.lists(any_boxes, min_size=n, max_size=n))
        props = proposals_from(boxes)
        subject, obj, unions, geos = caption_pairs(props, object_config(), pair_cap)
        pairs = reference_combination_layer(props.confidence.tolist(), pair_cap)
        assert list(zip(subject.tolist(), obj.tolist())) == pairs
        assert unions.shape == (len(pairs), 4) and geos.shape == (len(pairs), 6)
        want_unions = [union_box(boxes[i], boxes[j]) for i, j in pairs]
        assert unions.tobytes() == box_rows(want_unions).tobytes()
        want_geos = [geometric_feature(boxes[i], boxes[j]) for i, j in pairs]
        assert geos.tobytes() == np.reshape(want_geos, (-1, 6)).tobytes()

    @pytest.mark.parametrize("pair_cap", [None, 1, 7])
    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    def test_direct_union_self_pairs(self, n, pair_cap):
        boxes = [Box(k, 2 * k, 1 + k % 3, 2 + k % 5) for k in range(n)]
        props = proposals_from(boxes)
        subject, obj, unions, geos = caption_pairs(props, union_config(), pair_cap)
        keep = reference_top_pairs([c * c for c in props.confidence.tolist()], pair_cap)
        assert subject.tolist() == obj.tolist() == keep
        assert unions.tobytes() == box_rows([boxes[i] for i in keep]).tobytes()
        assert geos.shape == (len(keep), 6) and not geos.any()

    def test_degenerate_union_raises_as_scalar(self):
        # at x = 1e20 a 1-pixel width vanishes from the corners
        boxes = [Box(1e20, 0, 1, 1), Box(1e20, 5, 1, 1)]
        props = proposals_from(boxes)
        with pytest.raises(ValueError) as scalar:
            union_box(boxes[0], boxes[1])
        with pytest.raises(ValueError) as many:
            caption_pairs(props, object_config())
        assert str(many.value) == str(scalar.value)

    def test_dense_pair_batch_equals_scalar_path(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        record = records[0]
        kept = nms(build_proposals(record, provider, cfg,
                                   ProposalSettings(n_background=80)), 0.5, 50)
        assert len(kept) == 50
        batch, boxes = make_pair_batch(record, kept, provider, cfg)
        pairs = reference_combination_layer(kept.confidence.tolist())
        kept_boxes = [Box(*row) for row in kept.boxes.tolist()]
        unions = [union_box(kept_boxes[i], kept_boxes[j]) for i, j in pairs]
        want = np.vstack([scalar_features(provider, record, ub) for ub in unions])
        assert batch.union_features.tobytes() == want.tobytes()
        assert boxes == [(kept_boxes[i], kept_boxes[j]) for i, j in pairs]


class TestImageBatchPairs:
    @pytest.mark.parametrize("config", [object_config, union_config])
    def test_equal_the_all_pairs_reference(self, toy_world_small, config):
        """Only the pairs of GT-matched proposals get geometry; the batch is
        the one that keeps the captioned rows of all pairs. The proposals
        include background boxes and a second proposal of some GT boxes."""
        records, provider, vocab = toy_world_small
        cfg = dataclasses.replace(config(), feature_width=provider.feature_width,
                                  vocab_size=len(vocab))
        settings = ProposalSettings(seed=4, n_background=30)
        rows = 0
        for record in records:
            props = build_proposals(record, provider, cfg, settings)
            again = props[np.arange(len(props)) % 3 == 0]
            props = Proposals(np.concatenate([props.boxes, again.boxes + 0.25]),
                              np.concatenate([props.confidence, again.confidence]),
                              np.concatenate([props.features, again.features]))
            got = build_image_batch(record, props, provider, vocab, cfg)
            want = all_pairs_image_batch(record, props, provider, vocab, cfg)
            for name in ("features", "subject_index", "object_index", "union_features", "geos"):
                assert getattr(got.pairs, name).tobytes() == getattr(want.pairs, name).tobytes()
            for name in ("prop_boxes", "gt_boxes", "labels"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert (got.token_ids, got.tags) == (want.token_ids, want.tags)
            rows += len(got.pairs)
        assert rows


class TestEmptyBatches:
    @pytest.mark.parametrize("config", [object_config, union_config])
    @pytest.mark.parametrize("n", [0, 1])
    def test_pair_batch_shapes(self, config, n):
        cfg = config()
        record = image([])
        props = proposals_from([Box(3, 3, 2, 2)] * n)
        batch, boxes = make_pair_batch(record, props, PROVIDER, cfg)
        want = n if cfg.rpn_output == "union" else 0
        assert len(batch) == len(boxes) == want
        assert batch.union_features.shape == (want, cfg.feature_width)
        assert batch.geos.shape == (want, 6)

    def test_image_batch_without_captioned_pairs(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        far = Proposals(box_rows([Box(1 + 2 * k, 1, 1, 1) for k in range(2)]), [0.5, 0.5],
                        np.zeros((2, provider.feature_width)))
        batch = build_image_batch(records[0], far, provider, vocab, cfg)
        assert len(batch.pairs) == 0 and batch.token_ids == []
        assert batch.pairs.union_features.shape == (0, provider.feature_width)
        assert batch.pairs.geos.shape == (0, 6)
