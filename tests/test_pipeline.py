"""Training/evaluation glue: batch assembly, the epoch loop, prediction."""

import dataclasses

import numpy as np
import pytest

from conftest import (decode_batch, fresh_params, gt_captions, object_proposals, pair_rows,
                      reference_pos_accuracy, reference_predictions, table_of, tiny_config,
                      union_box)
from relcap.cli import prediction_to_json, write_predictions
from relcap.data import (END_ID, GroundTruthRelation, ObjectAnnotation, RelationalRecord,
                         ToyWorldConfig, encode_caption, generate_toy_world,
                         proposals_for_record, save_jsonl, tag_segments)
from relcap.geometry import Box, box_rows, iou_matrix, nms
from relcap.errors import DataError
from relcap import pipeline
from relcap.metrics import MetricConfig, Predictions, score_pairs
from relcap.model import ModelConfig, encode_pair_batch, caption_losses
from relcap.pipeline import (ProposalSettings, TrainSettings, build_image_batch,
                             build_proposals, evaluate_model, history_to_csv,
                             make_pair_batch, predict_image, predict_proposals, train_model)

from test_model import step_logits


def cfg_for(provider, vocab, **overrides):
    return tiny_config(provider.feature_width, len(vocab), **overrides)


def direct_union_config(provider, vocab):
    return ModelConfig.from_name("direct-union", provider.feature_width, len(vocab),
                                 d_subj_obj=10, d_union=8, code_width=6, hidden=6,
                                 dropout=0.0)


class TestBatchAssembly:
    def test_targets_mirror_gt_relations(self, toy_world_small):
        records, provider, vocab = toy_world_small
        record = records[0]
        cfg = cfg_for(provider, vocab)
        proposals = object_proposals(record, provider, 0)
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        # every annotated object pair with a relation appears exactly once
        n_objects = len(record.objects)
        assert len(batch.pairs) == n_objects * (n_objects - 1)
        assert len(batch.token_ids) == len(batch.tags) == len(batch.pairs)
        for i, j, ids, tags in zip(batch.pairs.subject_index, batch.pairs.object_index,
                                   batch.token_ids, batch.tags):
            assert i != j
            assert ids[-1] == END_ID
            assert len(ids) == len(tags)

    def test_target_caption_matches_relation_direction(self, toy_world_small):
        records, provider, vocab = toy_world_small
        record = records[0]
        cfg = cfg_for(provider, vocab)
        proposals = object_proposals(record, provider, 0)
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        for i, j, ids in zip(batch.pairs.subject_index, batch.pairs.object_index,
                             batch.token_ids):
            rel = next(
                r for r in record.relations
                if r.subject_box == record.objects[batch.labels[i]].box
                and r.object_box == record.objects[batch.labels[j]].box)
            want, _ = rel.tokens, rel.pos
            got = [vocab.decode_id(k) for k in ids[:-1]]
            assert got == want[:len(got)]

    def test_batched_loss_equals_sum_of_single_pairs(self, toy_world_small):
        records, provider, vocab = toy_world_small
        record = records[0]
        cfg = cfg_for(provider, vocab)
        params = fresh_params(cfg, seed=3)
        proposals = object_proposals(record, provider, 0)
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        codes = encode_pair_batch(batch.pairs, params, cfg)
        l_cap, l_pos = caption_losses(codes, batch.token_ids, batch.tags, params, cfg)
        single_cap = single_pos = 0.0
        for k, (ids, tags) in enumerate(zip(batch.token_ids, batch.tags)):
            c = encode_pair_batch(pair_rows(batch.pairs, [k]), params, cfg)
            lc, lp = caption_losses(c, [ids], [tags], params, cfg)
            single_cap += float(lc.data)
            single_pos += float(lp.data)
        assert float(l_cap.data) == pytest.approx(single_cap, rel=1e-12)
        assert float(l_pos.data) == pytest.approx(single_pos, rel=1e-12)

    def test_direct_union_batch(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = direct_union_config(provider, vocab)
        record = records[0]
        proposals = build_proposals(record, provider, cfg, ProposalSettings())
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        assert batch.pairs, "union-region proposals must yield caption pairs"
        assert np.array_equal(batch.pairs.subject_index, batch.pairs.object_index)

    def test_direct_union_proposals_cover_distinct_union_boxes(self, toy_world_small):
        records, provider, vocab = toy_world_small
        settings = ProposalSettings(seed=4)
        for record in records[:3]:
            boxes = []
            for rel in record.relations:
                ub = union_box(rel.subject_box, rel.object_box)
                if ub not in boxes:
                    boxes.append(ub)
            want = proposals_for_record(record, box_rows(boxes), provider, settings.seed,
                                        settings.jitter, settings.n_background)
            got = build_proposals(record, provider, direct_union_config(provider, vocab),
                                  settings)
            assert got.boxes.tolist() == want.boxes.tolist()
            assert got.confidence.tolist() == want.confidence.tolist()
            for a, b in zip(got.features, want.features):
                assert a.tobytes() == b.tobytes()

    def test_direct_union_both_directions_caption_one_proposal(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = direct_union_config(provider, vocab)
        record = records[0]
        forward = record.relations[0]
        backward = next(r for r in record.relations
                        if (r.subject_box, r.object_box) ==
                        (forward.object_box, forward.subject_box))
        proposals = build_proposals(record, provider, cfg, ProposalSettings())
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        ub = union_box(forward.subject_box, forward.object_box)
        rows = [i for i, label in enumerate(batch.labels.tolist())
                if label >= 0 and Box(*batch.gt_boxes[label]) == ub]
        assert rows
        for row in rows:
            captions = [ids for i, ids in zip(batch.pairs.subject_index, batch.token_ids)
                        if i == row]
            for rel in (forward, backward):
                ids, _ = encode_caption(rel.tokens, rel.pos, vocab, cfg.max_len)
                assert ids in captions

    def test_inexact_endpoint_maps_to_the_first_object_at_equal_iou(self):
        # Box(20.5, ...) is no object's box and overlaps the first two at
        # IoU 95/105 each, bit for bit.
        objects = [ObjectAnnotation(name, [], box) for name, box in (
            ("a", Box(20, 20, 10, 10)), ("b", Box(21, 20, 10, 10)), ("c", Box(60, 60, 10, 10)))]
        tokens, tags = tag_segments(("the", "a"), ("near",), ("the", "c"))
        rel = GroundTruthRelation(Box(20.5, 20, 10, 10), objects[2].box, tokens, tags, 0)
        record = RelationalRecord(0, 100, 100, [rel], objects).validate()
        rows, captions = pipeline._gt_captions(record, ModelConfig(1, 1))
        assert rows.tolist() == box_rows([obj.box for obj in objects]).tolist()
        assert captions == {(0, 2): [rel]} and captions[0, 2][0] is rel

    def test_relation_on_one_object_yields_no_target(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        base = records[0]
        first = base.objects[0].box
        self_rel = dataclasses.replace(base.relations[0], subject_box=first, object_box=first)
        record = dataclasses.replace(base, relations=[self_rel] + base.relations)
        proposals = object_proposals(record, provider, 0)
        # a second proposal on the first object, so two distinct rows match it
        proposals = proposals[np.r_[np.arange(len(proposals)), 0]]
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        n = len(record.objects)
        assert len(batch.pairs) == n * (n - 1) + 2 * (n - 1)
        for i, j in zip(batch.pairs.subject_index, batch.pairs.object_index):
            assert batch.labels[i] != batch.labels[j]

    @pytest.mark.parametrize("make_config", [cfg_for, direct_union_config])
    def test_training_rows_equal_inference_rows(self, toy_world_small, make_config):
        # a training pair is the inference pair with the same (i, j), bit for bit
        records, provider, vocab = toy_world_small
        cfg = make_config(provider, vocab)
        for record in records[:4]:
            proposals = build_proposals(record, provider, cfg, ProposalSettings())
            train = build_image_batch(record, proposals, provider, vocab, cfg).pairs
            infer, _ = make_pair_batch(record, proposals, provider, cfg)
            assert train and train.features.tobytes() == infer.features.tobytes()
            row_of = {ij: k for k, ij in enumerate(zip(infer.subject_index,
                                                       infer.object_index))}
            for k, ij in enumerate(zip(train.subject_index, train.object_index)):
                want = row_of[ij]
                assert train.union_features[k].tobytes() == \
                    infer.union_features[want].tobytes()
                assert train.geos[k].tobytes() == infer.geos[want].tobytes()

    def test_provider_called_once_per_caption_pair(self, toy_world_small, monkeypatch):
        # direct-union captions both directions of a union box on one pair
        records, provider, vocab = toy_world_small
        cfg = direct_union_config(provider, vocab)
        record = records[0]
        proposals = build_proposals(record, provider, cfg, ProposalSettings())
        calls = []
        features_many = provider.features_many

        def counting(rec, boxes):
            calls.append([Box(*row) for row in boxes])
            return features_many(rec, boxes)

        monkeypatch.setattr(provider, "features_many", counting)
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        pairs = sorted(set(zip(batch.pairs.subject_index, batch.pairs.object_index)))
        assert len(calls) == 1
        assert len(calls[0]) == len(pairs) < len(batch.pairs)
        assert calls[0] == [Box(*proposals.boxes[i]) for i, _ in pairs]



def nudged(box, dx):
    return Box(box.x + dx, box.y, box.w, box.h)


class TestGtStep:
    """``_gt_rows`` and ``_gt_captions`` against the ``Box``-based reference in
    ``conftest``: the same GT rows, bit for bit, and the same relations on the
    same pairs, in the same order."""

    @staticmethod
    def assert_equal_to_reference(record, config):
        want_boxes, want = gt_captions(record, config)
        rows, got = pipeline._gt_captions(record, config)
        assert rows.dtype == np.float64 and rows.shape == (len(want_boxes), 4)
        assert rows.tobytes() == box_rows(want_boxes).tobytes()
        assert pipeline._gt_rows(record, config)[0].tobytes() == rows.tobytes()
        assert list(got) == list(want)
        for key, rels in want.items():
            assert len(got[key]) == len(rels)
            assert all(a is b for a, b in zip(got[key], rels))
        return got

    @staticmethod
    def worlds():
        """Records of 2 to 6 objects each, their relations as generated, with
        every third endpoint nudged off its object, with one relation repeated
        (a duplicate union box), with none, and with one object's box also
        that of an object after it."""
        for objects in range(2, 7):
            records, _ = generate_toy_world(objects, ToyWorldConfig(
                n_images=4, min_objects=objects, max_objects=objects))
            for record in records:
                rels = record.relations
                moved = [dataclasses.replace(rel, subject_box=nudged(rel.subject_box, 0.5))
                         if k % 3 == 0 else rel for k, rel in enumerate(rels)]
                yield record
                yield dataclasses.replace(record, relations=moved)
                yield dataclasses.replace(record, relations=[*rels, rels[0]])
                yield dataclasses.replace(record, relations=[])
                yield dataclasses.replace(record, objects=[*record.objects, record.objects[0]])

    @pytest.mark.parametrize("name", ["mttsnet,mtl,rem", "direct-union"])
    def test_equal_to_box_reference_on_toy_worlds(self, name):
        config = ModelConfig(1, 1, name=name)
        sizes = [len(self.assert_equal_to_reference(record, config))
                 for record in self.worlds()]
        assert 0 in sizes and max(sizes) >= 20

    @pytest.mark.parametrize("name", ["mttsnet,mtl,rem", "direct-union"])
    def test_endpoint_at_equal_iou_and_a_shared_union(self, name):
        # nudged(a, 0.5) is no object's box and overlaps a and b at IoU 95/105
        # each; the third relation repeats the first one's union box.
        a, b, c = Box(20, 20, 10, 10), Box(21, 20, 10, 10), Box(60, 60, 10, 10)
        objects = [ObjectAnnotation(n, [], box) for n, box in zip("abc", (a, b, c))]
        tokens, tags = tag_segments(("the", "a"), ("near",), ("the", "c"))
        rels = [GroundTruthRelation(s, o, tokens, tags, 0)
                for s, o in ((nudged(a, 0.5), c), (b, c), (c, nudged(a, 0.5)), (nudged(a, 0.5), c))]
        record = RelationalRecord(0, 100, 100, rels, objects).validate()
        got = self.assert_equal_to_reference(record, ModelConfig(1, 1, name=name))
        if name == "direct-union":
            assert [len(group) for group in got.values()] == [3, 1]
        else:
            assert list(got) == [(0, 2), (1, 2), (2, 0)] and got[0, 2] == [rels[0]]

    @pytest.mark.parametrize("name", ["mttsnet,mtl,rem", "direct-union"])
    def test_relations_without_objects(self, name):
        config = ModelConfig(1, 1, name=name)
        tokens, tags = tag_segments(("the", "a"), ("near",), ("the", "c"))
        rel = GroundTruthRelation(Box(20, 20, 10, 10), Box(60, 60, 10, 10), tokens, tags, 4)
        record = RelationalRecord(4, 100, 100, [rel], []).validate()
        if name == "direct-union":        # union boxes need no objects
            self.assert_equal_to_reference(record, config)
            return
        with pytest.raises(DataError) as want:
            gt_captions(record, config)
        with pytest.raises(DataError) as got:
            pipeline._gt_captions(record, config)
        assert str(got.value) == str(want.value)
        assert pipeline._gt_rows(record, config)[0].shape == (0, 4)   # proposals need no match
        self.assert_equal_to_reference(dataclasses.replace(record, relations=[]), config)


class TestTraining:
    def test_loss_decreases_and_is_deterministic(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        settings = TrainSettings(epochs=30, lr=5e-3, seed=1)
        runs = []
        for _ in range(2):
            params, _, history = train_model(records[:5], provider, vocab, cfg, settings)
            runs.append((params, history))
        (pa, ha), (pb, hb) = runs
        assert ha[-1]["total"] < ha[0]["total"]
        assert ha == hb
        for name in pa:
            assert pa[name].data.tobytes() == pb[name].data.tobytes()

    def test_history_csv_shape(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        _, _, history = train_model(records[:2], provider, vocab, cfg,
                                    TrainSettings(epochs=2, seed=0))
        csv = history_to_csv(history)
        lines = csv.strip().split("\n")
        assert lines[0] == "epoch,l_cap,l_pos,l_det,l_box,total"
        assert len(lines) == 3

    def test_resume_continues_from_state(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        settings = TrainSettings(epochs=3, lr=5e-3, seed=2)
        params, optimizer, _ = train_model(records[:3], provider, vocab, cfg, settings)
        step_before = optimizer.step_count
        params, optimizer, _ = train_model(records[:3], provider, vocab, cfg,
                                           TrainSettings(epochs=1, lr=5e-3, seed=2),
                                           params=params, optimizer=optimizer)
        assert optimizer.step_count == step_before + 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name,value,term", [
        ("head.word.b", np.inf, "l_cap"), ("det.b", np.nan, "l_det")])
    def test_non_finite_loss_stops_before_on_epoch(self, toy_world_small, name, value,
                                                   term):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        params = fresh_params(cfg)
        params[name].data[0] = value
        epochs_seen = []
        with pytest.raises(DataError,
                           match=rf"epoch 1, image {records[0].image_id}: non-finite {term}"):
            train_model(records[:2], provider, vocab, cfg, TrainSettings(epochs=2),
                        params=params, on_epoch=lambda epoch, *_: epochs_seen.append(epoch))
        assert epochs_seen == []


class TestPrediction:
    def test_prediction_records_validate(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        params = fresh_params(cfg, seed=7)
        preds = predict_image(records[0], params, cfg, vocab, provider,
                              ProposalSettings())
        for p in preds:
            p.validate()
            assert p.image_id == records[0].image_id

    @pytest.mark.parametrize("make_config", [cfg_for, direct_union_config],
                             ids=["mttsnet", "direct-union"])
    def test_pair_cap_limits_predictions(self, toy_world_small, make_config):
        records, provider, vocab = toy_world_small
        cfg = make_config(provider, vocab)
        params = fresh_params(cfg, seed=7)
        every, few = (predict_image(records[0], params, cfg, vocab, provider,
                                    ProposalSettings(), pair_cap=cap) for cap in (None, 2))
        assert len(every) > 2 and len(few) <= 2

    def test_direct_union_predictions_carry_equal_boxes(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = direct_union_config(provider, vocab)
        params = fresh_params(cfg, seed=7)
        preds = predict_image(records[0], params, cfg, vocab, provider,
                              ProposalSettings())
        for p in preds:
            assert p.subject_box == p.object_box

    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_records_equal_decode_rows(self, toy_world_small, mode):
        # predict_proposals and the tests' decode_batch translate the same
        # decode arrays. The end-token bias is rigged so that greedy stops
        # half the pairs at step 0: exactly the empty captions get no record.
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        params = fresh_params(cfg, seed=7)
        proposals = build_proposals(records[0], provider, cfg, ProposalSettings())
        survivors = nms(proposals, 0.5, MetricConfig().keep_after_nms)
        batch, boxes = make_pair_batch(records[0], survivors, provider, cfg)
        logits = step_logits(encode_pair_batch(batch, params, cfg), [[]] * len(batch), params,
                             cfg)[0]
        margin = np.delete(logits, END_ID, axis=1).max(axis=1) - logits[:, END_ID]
        params["head.word.b"].data[END_ID] += np.median(margin)

        def rng():
            return np.random.default_rng(3) if mode == "stochastic" else None

        want = [(*pair, [vocab.decode_id(i) for i in row.token_ids],
                 [tag.name for tag in row.pos], row.word_probs, row.confidence)
                for row, pair in zip(decode_batch(batch, params, cfg, mode, rng()), boxes)
                if row.token_ids]
        floor = sorted(w[-1] for w in want)[len(want) // 2]     # a record sits on the floor
        for min_confidence, kept in ((None, want), (floor, [w for w in want if w[-1] >= floor])):
            got = predict_proposals([(records[0], proposals)], params, cfg, vocab, provider,
                                    min_confidence=min_confidence, mode=mode, rng=rng())
            assert [(p.subject_box, p.object_box, p.tokens, p.pos, p.word_probs, p.confidence)
                    for p in got] == kept
            assert all(p.image_id == records[0].image_id for p in got)
        assert 0 < len(kept) < len(want) < len(batch)

    def test_make_pair_batch_boxes_align(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        proposals = object_proposals(records[0], provider, 0)
        batch, boxes = make_pair_batch(records[0], proposals, provider, cfg)
        assert len(batch) == len(boxes) == len(proposals) * (len(proposals) - 1)


def rigged_params(record, provider, vocab, cfg):
    """Fresh parameters whose end-token bias stops greedy decoding at step 0
    for about half of the image's pairs, so some captions are empty."""
    params = fresh_params(cfg, seed=7)
    batch, _ = make_pair_batch(record, nms(build_proposals(record, provider, cfg,
                                                           ProposalSettings()), 0.5, 50),
                               provider, cfg)
    logits = step_logits(encode_pair_batch(batch, params, cfg), [[]] * len(batch), params,
                         cfg)[0]
    margin = np.delete(logits, END_ID, axis=1).max(axis=1) - logits[:, END_ID]
    params["head.word.b"].data[END_ID] += np.median(margin)
    return params


class TestPredictionsTable:
    """``predict_proposals``' table against the record loop it replaced
    (``reference_predictions``): the same rows, the same file bytes."""

    @pytest.mark.parametrize("name", ["mttsnet,mtl,rem", "direct-union"])
    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    @pytest.mark.parametrize("pair_cap", [None, 9])
    def test_rows_and_bytes_equal_record_loop(self, toy_world_small, tmp_path, name, mode,
                                              pair_cap):
        records, provider, vocab = toy_world_small
        cfg = (cfg_for(provider, vocab, name=name) if name != "direct-union"
               else direct_union_config(provider, vocab))
        params = rigged_params(records[0], provider, vocab, cfg)
        settings = ProposalSettings(n_background=5)
        proposals = [build_proposals(r, provider, cfg, settings) for r in records[:4]]
        confidences = [p.confidence for p in reference_predictions(
            records[0], proposals[0], params, cfg, vocab, provider, mode=mode,
            rng=np.random.default_rng(3))]
        floor = sorted(confidences)[len(confidences) // 2]   # a row sits on the floor
        sizes = []
        for min_confidence in (None, floor):
            def run(predict):
                rng = np.random.default_rng(3) if mode == "stochastic" else None
                return [predict(record, props, params, cfg, vocab, provider, pair_cap=pair_cap,
                                min_confidence=min_confidence, mode=mode, rng=rng)
                        for record, props in zip(records[:4], proposals)]

            tables = run(lambda record, props, *args, **options:
                         predict_proposals([(record, props)], *args, **options))
            want = run(reference_predictions)
            assert [list(t) for t in tables] == want
            assert all("records" in vars(t) for t in tables)
            flat = [p for rows in want for p in rows]
            assert list(Predictions.of(tables)) == flat
            paths = [str(tmp_path / f"{k}.jsonl") for k in range(3)]
            assert write_predictions(paths[0], tables) == len(flat)
            write_predictions(paths[1], [table_of(flat)])
            save_jsonl(paths[2], map(prediction_to_json, flat))
            assert len({open(p, "rb").read() for p in paths}) == 1
            sizes.append((len(want[0]), len(flat)))
        # some pairs have empty captions, and the floor drops some rows
        batch, _ = make_pair_batch(records[0], nms(proposals[0], 0.5, 50), provider, cfg,
                                   pair_cap)
        assert 0 < sizes[1][1] < sizes[0][1] and sizes[0][0] < len(batch)

    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_one_call_equals_one_call_per_image(self, toy_world_small, mode):
        # Greedy stacks the images; stochastic must draw as image after image.
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab, name="mttsnet,mtl,rem")
        params = rigged_params(records[0], provider, vocab, cfg)
        items = [(r, build_proposals(r, provider, cfg, ProposalSettings())) for r in records]

        def rng():
            return np.random.default_rng(5) if mode == "stochastic" else None

        one = predict_proposals(items, params, cfg, vocab, provider, mode=mode, rng=rng())
        shared = rng()
        want = Predictions.of([predict_proposals([item], params, cfg, vocab, provider,
                                                 mode=mode, rng=shared) for item in items])
        for f in dataclasses.fields(Predictions):
            got, expected = getattr(one, f.name), getattr(want, f.name)
            assert got.shape == expected.shape and got.tolist() == expected.tolist(), f.name
        assert len({r.image_id for r in one}) > 5

    def test_direct_union_iou_union_equals_union_box_path(self, toy_world_small):
        # A self-pair's union row is union_box(b, b), whose corner round trip
        # moves some boxes off b; score_pairs must score the moved box.
        records, provider, vocab = toy_world_small
        cfg = direct_union_config(provider, vocab)
        params = fresh_params(cfg, seed=7)
        table = Predictions.of(predict_image(r, params, cfg, vocab, provider,
                                             ProposalSettings(n_background=8))
                               for r in records[:5])
        gts = [rel for r in records[:5] for rel in r.relations]
        rows = list(table)
        moved = 0
        for scores in score_pairs(table, gts):
            preds = [rows[k] for k in scores.pred_index]
            unions = [union_box(p.subject_box, p.object_box) for p in preds]
            gt_unions = [union_box(g.subject_box, g.object_box) for g in gts
                         if g.image_id == scores.image_id]
            want = iou_matrix(box_rows(unions), box_rows(gt_unions))
            assert scores.iou_union.tobytes() == want.tobytes()
            moved += sum(u != p.subject_box for u, p in zip(unions, preds))
        assert moved


def run_sizes(recorded, sizes, budget):
    """``recorded`` (per pass, its images' pair counts) cuts ``sizes`` into
    runs of whole images, each over ``budget`` pairs only when alone, and
    each as long as it can be."""
    assert [n for run in recorded for n in run] == sizes
    assert all(sum(run) <= budget for run in recorded if len(run) > 1)
    assert all(sum(run) + after[0] > budget for run, after in zip(recorded, recorded[1:]))


class TestStackedEvaluation:
    """``evaluate_model`` runs whole images stacked, up to ``STACK_ROWS``
    pairs per decode and per POS pass; its table and report equal the
    one-image-at-a-time references."""

    @pytest.fixture
    def world(self, toy_world_small, monkeypatch):
        """Records, proposals, provider, vocab, config and parameters. Image 3
        keeps one proposal, so no pair; the end-token bias is rigged so that
        exactly one other image's captions are all empty."""
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab, name="mttsnet,mtl,rem")
        params = fresh_params(cfg, seed=7)
        build = pipeline.build_proposals
        lonely = records[3].image_id

        def one_lonely(record, *args):
            props = build(record, *args)
            return props[:1] if record.image_id == lonely else props

        monkeypatch.setattr(pipeline, "build_proposals", one_lonely)
        proposals = [one_lonely(r, provider, cfg, ProposalSettings()) for r in records]
        margins = {}    # per image, its pairs' best step-0 margin of a word over the end token
        for record, props in zip(records, proposals):
            batch, _ = make_pair_batch(record, nms(props, 0.5, 50), provider, cfg)
            if len(batch):
                logits = step_logits(encode_pair_batch(batch, params, cfg), [[]] * len(batch),
                                     params, cfg)[0]
                margin = np.delete(logits, END_ID, axis=1).max(axis=1) - logits[:, END_ID]
                margins[record.image_id] = margin.max()
        low, next_low = sorted(margins.values())[:2]
        params["head.word.b"].data[END_ID] += (low + next_low) / 2
        assert lonely not in margins and len(margins) == len(records) - 1
        return records, proposals, provider, vocab, cfg, params

    def evaluate(self, world, monkeypatch, budget, **options):
        """``evaluate_model`` at a ``STACK_ROWS`` of ``budget``, with the
        image pair counts of each decode pass and each POS pass."""
        records, _, provider, vocab, cfg, params = world
        passes = {"decode": [], "pos": []}
        decode, encode = pipeline.decode_arrays, pipeline.encode_pair_batch

        def counted(kind, run):
            def wrapper(batch, *args, **kwargs):
                ends = np.cumsum(batch.image_regions)
                image = np.searchsorted(ends, batch.subject_index, side="right")
                passes[kind].append(np.bincount(image, minlength=len(ends)).tolist())
                return run(batch, *args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "STACK_ROWS", budget)
            patch.setattr(pipeline, "decode_arrays", counted("decode", decode))
            patch.setattr(pipeline, "encode_pair_batch", counted("pos", encode))
            report, table = evaluate_model(records, params, cfg, vocab, provider,
                                           ProposalSettings(), vrd_ks=(5, 50), **options)
        return report, table, passes

    @pytest.mark.parametrize("options", [{}, {"pair_cap": 7, "min_confidence": "median"}],
                             ids=["defaults", "pair-cap-min-confidence"])
    def test_table_and_report_equal_the_per_image_references(self, world, monkeypatch,
                                                            options):
        records, proposals, provider, vocab, cfg, params = world
        if options.get("min_confidence") == "median":
            confidences = sorted(p.confidence for r, props in zip(records, proposals)
                                 for p in reference_predictions(r, props, params, cfg, vocab,
                                                                provider, pair_cap=7))
            options = {**options, "min_confidence": confidences[len(confidences) // 2]}
        per_image = [predict_proposals([item], params, cfg, vocab, provider, **options)
                     for item in zip(records, proposals)]
        want = [reference_predictions(r, props, params, cfg, vocab, provider, **options)
                for r, props in zip(records, proposals)]
        assert [list(t) for t in per_image] == want
        sizes = [len(rows) for rows in want]
        assert sizes[3] == 0 and sizes.count(0) >= 2 and sum(sizes) > 5
        pair_counts = [len(make_pair_batch(r, nms(props, 0.5, 50), provider, cfg,
                                           options.get("pair_cap"))[0])
                       for r, props in zip(records, proposals)]
        gt_counts = [len(build_image_batch(r, props, provider, vocab, cfg).pairs)
                     for r, props in zip(records, proposals)]
        pair_counts = [n for n in pair_counts if n]
        gt_counts = [n for n in gt_counts if n]
        reference = Predictions.of(per_image)
        pos = reference_pos_accuracy(records, proposals, params, cfg, vocab, provider)
        reports = []
        # one image per pass; the first two images exactly, for each kind of
        # pass, and one row fewer; everything in one pass
        budgets = (0, sum(pair_counts[:2]), sum(pair_counts[:2]) - 1, sum(gt_counts[:2]),
                   sum(gt_counts[:2]) - 1, pipeline.STACK_ROWS)
        for budget in budgets:
            report, table, passes = self.evaluate(world, monkeypatch, budget, **options)
            for f in dataclasses.fields(Predictions):
                got, expected = getattr(table, f.name), getattr(reference, f.name)
                assert got.dtype == expected.dtype and got.shape == expected.shape, f.name
                assert (got.tolist() == expected.tolist() if got.dtype == object
                        else got.tobytes() == expected.tobytes()), f.name
            assert {k: v.hex() for k, v in report.pos_accuracy.items()} == \
                {k: v.hex() for k, v in pos.items()}
            run_sizes(passes["decode"], pair_counts, budget)
            run_sizes(passes["pos"], gt_counts, budget)
            reports.append(report.to_json())
        assert all(r == reports[0] for r in reports)
        assert max(len(run) for run in passes["decode"]) == len(pair_counts)
        assert len(passes["pos"]) == 1

    def test_non_finite_confidences_name_their_image(self, world, monkeypatch):
        records, proposals, provider, vocab, cfg, params = world
        bad = records[5].image_id
        build = pipeline.pair_batch

        def poisoned(record, *args):
            batch = build(record, *args)
            if record.image_id == bad:
                batch.union_features = np.full_like(batch.union_features, np.nan)
            return batch

        monkeypatch.setattr(pipeline, "pair_batch", poisoned)
        with pytest.raises(DataError, match=rf"^image {bad}: caption confidences are not finite"):
            self.evaluate(world, monkeypatch, 10 ** 6)
        with pytest.raises(DataError, match=rf"^image {bad}: "):
            predict_proposals(zip(records, proposals), params, cfg, vocab, provider)


class TestEvaluation:
    def test_report_on_briefly_trained_model(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        params, _, _ = train_model(records[:6], provider, vocab, cfg,
                                   TrainSettings(epochs=8, lr=5e-3, seed=3))
        report, preds = evaluate_model(records[6:8], params, cfg, vocab, provider,
                                       ProposalSettings(), vrd_ks=(50,))
        report.validate()
        assert preds
        assert report.pos_accuracy is not None

    def test_proposals_built_once_per_record(self, toy_world_small, monkeypatch):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        calls = []

        def counting(record, *args):
            calls.append(record.image_id)
            return build_proposals(record, *args)

        monkeypatch.setattr(pipeline, "build_proposals", counting)
        report, _ = evaluate_model(records[:3], fresh_params(cfg), cfg, vocab, provider,
                                   ProposalSettings(), vrd_ks=(50,))
        assert report.pos_accuracy is not None
        assert calls == [r.image_id for r in records[:3]]

    @pytest.mark.parametrize("name", ["mttsnet,mtl", "subj-obj,mtl", "direct-union,mtl"])
    def test_pos_accuracy_equals_the_name_oracle(self, toy_world_small, name):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab, name=name)
        params = fresh_params(cfg, seed=4)
        proposals = [build_proposals(r, provider, cfg, ProposalSettings()) for r in records]
        got = pipeline.model_pos_accuracy(records, proposals, params, cfg, vocab, provider)
        want = reference_pos_accuracy(records, proposals, params, cfg, vocab, provider)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
        assert 0.0 < got["overall"] < 1.0

    def test_pos_accuracy_requires_mtl_for_report(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab, name="tsnet")
        params = fresh_params(cfg)
        report, _ = evaluate_model(records[:2], params, cfg, vocab, provider,
                                   ProposalSettings(), vrd_ks=(50,))
        assert report.pos_accuracy is None
