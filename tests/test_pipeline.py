"""Training/evaluation glue: batch assembly, the epoch loop, prediction."""

import numpy as np
import pytest

from conftest import fresh_params, tiny_config
from relcap.data import END_ID, proposals_for_record
from relcap.errors import InvariantError
from relcap.model import ModelConfig, PairBatch, encode_pair_batch, caption_losses
from relcap.pipeline import (ProposalSettings, TrainSettings, build_image_batch,
                             build_proposals, evaluate_model, history_to_csv,
                             make_pair_batch, predict_image, train_model)


def cfg_for(provider, vocab, **overrides):
    return tiny_config(provider.feature_width, len(vocab), **overrides)


class TestBatchAssembly:
    def test_targets_mirror_gt_relations(self, toy_world_small):
        records, provider, vocab = toy_world_small
        record = records[0]
        cfg = cfg_for(provider, vocab)
        proposals = proposals_for_record(record, provider, seed=0)
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        # every annotated object pair with a relation appears exactly once
        n_objects = len(record.objects)
        assert len(batch.targets) == n_objects * (n_objects - 1)
        for target in batch.targets:
            assert target.subject_index != target.object_index
            assert target.token_ids[-1] == END_ID
            assert len(target.token_ids) == len(target.tags)

    def test_target_caption_matches_relation_direction(self, toy_world_small):
        records, provider, vocab = toy_world_small
        record = records[0]
        cfg = cfg_for(provider, vocab)
        proposals = proposals_for_record(record, provider, seed=0)
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        for target in batch.targets:
            subj_label = batch.labels[target.subject_index]
            rel = next(
                r for r in record.relations
                if r.subject_box == record.objects[subj_label.gt_index].box
                and r.object_box == record.objects[
                    batch.labels[target.object_index].gt_index].box)
            want, _ = rel.tokens, rel.pos
            got = [vocab.decode_id(i) for i in target.token_ids[:-1]]
            assert got == want[:len(got)]

    def test_batched_loss_equals_sum_of_single_pairs(self, toy_world_small):
        records, provider, vocab = toy_world_small
        record = records[0]
        cfg = cfg_for(provider, vocab)
        params = fresh_params(cfg, seed=3)
        proposals = proposals_for_record(record, provider, seed=0)
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        codes = encode_pair_batch(PairBatch.from_targets(batch.features, batch.targets),
                                  params, cfg)
        l_cap, l_pos = caption_losses(codes, [t.token_ids for t in batch.targets],
                                      [t.tags for t in batch.targets], params, cfg)
        single_cap = single_pos = 0.0
        for t in batch.targets:
            c = encode_pair_batch(PairBatch.from_targets(batch.features, [t]), params, cfg)
            lc, lp = caption_losses(c, [t.token_ids], [t.tags], params, cfg)
            single_cap += float(lc.data)
            single_pos += float(lp.data)
        assert float(l_cap.data) == pytest.approx(single_cap, rel=1e-12)
        assert float(l_pos.data) == pytest.approx(single_pos, rel=1e-12)

    def test_direct_union_batch(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = ModelConfig.from_name("direct-union", provider.feature_width,
                                    len(vocab), d_subj_obj=10, d_union=8,
                                    code_width=6, hidden=6, dropout=0.0)
        record = records[0]
        proposals = build_proposals(record, provider, cfg, ProposalSettings())
        batch = build_image_batch(record, proposals, provider, vocab, cfg)
        assert batch.targets, "union-region proposals must yield caption targets"
        for target in batch.targets:
            assert target.subject_index == target.object_index


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
        for name in pa.names():
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
        with pytest.raises(InvariantError,
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

    def test_pair_cap_limits_predictions(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        params = fresh_params(cfg, seed=7)
        few = predict_image(records[0], params, cfg, vocab, provider,
                            ProposalSettings(), pair_cap=2)
        assert len(few) <= 2

    def test_direct_union_predictions_carry_equal_boxes(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = ModelConfig.from_name("direct-union", provider.feature_width,
                                    len(vocab), d_subj_obj=10, d_union=8,
                                    code_width=6, hidden=6, dropout=0.0)
        params = fresh_params(cfg, seed=7)
        preds = predict_image(records[0], params, cfg, vocab, provider,
                              ProposalSettings())
        for p in preds:
            assert p.subject_box == p.object_box

    def test_make_pair_batch_boxes_align(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab)
        proposals = proposals_for_record(records[0], provider, seed=0)
        batch, boxes = make_pair_batch(records[0], proposals, provider, cfg)
        assert len(batch) == len(boxes) == len(proposals) * (len(proposals) - 1)


class TestEvaluation:
    def test_report_on_briefly_trained_model(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab, mtl=True)
        params, _, _ = train_model(records[:6], provider, vocab, cfg,
                                   TrainSettings(epochs=8, lr=5e-3, seed=3))
        report, preds = evaluate_model(records[6:8], params, cfg, vocab, provider,
                                       ProposalSettings(), vrd_ks=(50,))
        report.validate()
        assert preds
        assert report.pos_accuracy is not None

    def test_pos_accuracy_requires_mtl_for_report(self, toy_world_small):
        records, provider, vocab = toy_world_small
        cfg = cfg_for(provider, vocab, mtl=False, streams="triple",
                      inputs=("subject", "object", "union", "coord"))
        params = fresh_params(cfg)
        report, _ = evaluate_model(records[:2], params, cfg, vocab, provider,
                                   ProposalSettings(), vrd_ks=(50,))
        assert report.pos_accuracy is None
