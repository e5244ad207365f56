"""Network-level checks: the relational embedding, encoders, decoder steps,
losses, decoding, and hand-rigged exact traces."""

import math

import numpy as np
import pytest

from conftest import fresh_params, tiny_config
from relcap import autodiff as ad
from relcap.autodiff import Tensor
from relcap.data import END_ID, PosTag, Vocabulary
from relcap.errors import ConfigError
from relcap.geometry import Box, MatchLabel, RegionPair, RegionProposal
from relcap.model import (MODEL_PRESETS, CaptionTarget, ImageBatch, ModelConfig,
                          PairBatch, caption_losses, decode_batch, decode_step,
                          encode_pair_batch, importance_trace, init_params,
                          init_state, load_model, lstm_step, rem_forward,
                          save_model, teacher_forced_unroll, total_loss)

S, P, O = PosTag.SUBJ, PosTag.PRED, PosTag.OBJ


def proposal(x, y, feature, pid, conf=0.9):
    return RegionProposal(Box(x, y, 4, 4), conf, np.asarray(feature, dtype=float), pid)


# ---------------------------------------------------------------------------
# configuration and parameter inventories
# ---------------------------------------------------------------------------

class TestModelConfig:
    def test_presets_cover_the_variant_table(self):
        assert set(MODEL_PRESETS) == {
            "direct-union", "union", "union-coord", "subj-obj", "subj-obj-coord",
            "subj-obj-union", "uuu", "tsnet", "mttsnet"}

    @pytest.mark.parametrize("name,streams,mtl", [
        ("union", "single", False), ("union,mtl", "single", True),
        ("tsnet", "triple", False), ("mttsnet", "triple", True),
        ("mttsnet,mtl,rem", "triple", True), ("uuu,mtl", "triple", True),
    ])
    def test_from_name(self, name, streams, mtl):
        cfg = ModelConfig.from_name(name, feature_width=14, vocab_size=20,
                                    d_subj_obj=10, d_union=8, code_width=6,
                                    hidden=6)
        assert cfg.streams == streams
        assert cfg.mtl is mtl
        assert cfg.rem == name.endswith(",rem")
        assert cfg.fusion == ("late" if streams == "triple" else "early")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_name("resnet", 14, 20)

    def test_code_width_must_equal_hidden(self):
        with pytest.raises(ConfigError):
            tiny_config(14, 20, code_width=4, hidden=6)

    def test_json_roundtrip(self):
        cfg = ModelConfig.from_name("mttsnet,rem", 14, 20, d_subj_obj=10,
                                    d_union=8, code_width=6, hidden=6)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_single_vs_triple_parameter_inventory(self):
        union = fresh_params(tiny_config(14, 20, streams="single", inputs=("union",),
                                         mtl=False, name="union"))
        mtts = fresh_params(tiny_config(14, 20))
        assert "lstm.main.w" in union and "lstm.subject.w" not in union
        for stream in ("subject", "predicate", "object"):
            assert f"lstm.{stream}.w" in mtts
        assert "lstm.main.w" not in mtts
        assert "head.pos.w" in mtts and "head.pos.w" not in union
        assert "enc.subject.w" not in union and "enc.subject.w" in mtts

    def test_rem_parameters_only_when_enabled(self):
        plain = fresh_params(tiny_config(14, 20))
        with_rem = fresh_params(tiny_config(14, 20, rem=True))
        assert "rem.wa" not in plain
        for name in ("rem.wa", "rem.wb", "rem.wx", "rem.wz"):
            assert name in with_rem

    def test_fusion_adapter_only_when_widths_differ(self):
        multi = fresh_params(tiny_config(14, 20, streams="single",
                                         inputs=("subject", "object"), mtl=False))
        single = fresh_params(tiny_config(14, 20, streams="single",
                                          inputs=("union",), mtl=False))
        assert "fuse.w" in multi and "fuse.w" not in single

    def test_forget_gate_bias_initialized_to_one(self):
        params = fresh_params(tiny_config(14, 20))
        b = params["lstm.subject.b"].data
        h = 6
        assert np.all(b[h:2 * h] == 1.0)
        assert np.all(b[:h] == 0.0)


# ---------------------------------------------------------------------------
# relational embedding module
# ---------------------------------------------------------------------------

class TestRem:
    def _params(self, d=4, r=3, seed=0):
        cfg = tiny_config(14, 20, d_subj_obj=d, rem_dim=r, rem=True)
        return fresh_params(cfg, seed), cfg

    def test_zero_weights_identity(self):
        params, _ = self._params()
        for name in ("rem.wa", "rem.wb", "rem.wx", "rem.wz"):
            params[name].data[...] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 4))
        z = rem_forward(Tensor(x), params)
        assert np.array_equal(z.data, x)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        params, _ = self._params(seed=3)
        x = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        z = rem_forward(Tensor(x), params).data
        z_perm = rem_forward(Tensor(x[perm]), params).data
        assert np.max(np.abs(z[perm] - z_perm)) < 1e-12

    def test_single_region_hand_evaluation(self):
        params, _ = self._params(d=2, r=2)
        wa, wb = params["rem.wa"], params["rem.wb"]
        wx, wz = params["rem.wx"], params["rem.wz"]
        x = np.array([[0.3, -0.7]])
        z = rem_forward(Tensor(x), params).data
        # B=1: the association matrix is exactly [[1]]
        v = np.maximum(x @ wx.data, 0.0)
        expected = x + v @ wz.data.T
        assert np.allclose(z, expected, atol=1e-15)

    def test_rows_of_association_sum_to_one(self):
        params, _ = self._params()
        x = Tensor(np.random.default_rng(4).normal(size=(5, 4)))
        a = ad.relu(ad.matmul(x, params["rem.wa"]))
        b = ad.relu(ad.matmul(x, params["rem.wb"]))
        r = ad.row_softmax(ad.matmul(a, ad.transpose(b)))
        assert np.allclose(r.data.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def one_pair(feature_width=14, seed=0):
    rng = np.random.default_rng(seed)
    a = proposal(5, 5, rng.normal(size=(1, feature_width)), 0)
    b = proposal(15, 5, rng.normal(size=(1, feature_width)), 1)
    pair = RegionPair(a, b)
    feats = {0: a.feature, 1: b.feature}
    union_feat = rng.normal(size=(1, feature_width))
    return pair, feats, union_feat


def pair_codes(pair, feats, union_feat, params, cfg):
    """Region codes of one pair, keyed by input kind."""
    return encode_pair_batch(PairBatch.from_pair(pair, union_feat, feats), params, cfg)


class TestEncodePair:
    def test_zero_second_fc_gives_bias(self):
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        beta = np.arange(6, dtype=float) * 0.1
        for prefix in ("enc.subject", "enc.object", "union.code"):
            params[f"{prefix}.w"].data[...] = 0.0
            params[f"{prefix}.b"].data[...] = beta
        pair, feats, union_feat = one_pair()
        codes = pair_codes(pair, feats, union_feat, params, cfg)
        for code in (codes["subject"], codes["object"], codes["union"]):
            assert np.allclose(code.data, beta, atol=1e-15)

    def test_shared_first_fc_with_equalized_second_fcs(self):
        # identical inputs and manually equalized second FCs: equality of the
        # codes certifies that the first FC really is one shared parameter
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        params["enc.object.w"].data[...] = params["enc.subject.w"].data
        params["enc.object.b"].data[...] = params["enc.subject.b"].data
        feat = np.random.default_rng(3).normal(size=(1, 14))
        a = proposal(5, 5, feat, 0)
        b = proposal(15, 5, feat, 1)
        pair = RegionPair(a, b)
        codes = pair_codes(pair, {0: feat, 1: feat}, feat, params, cfg)
        assert np.array_equal(codes["subject"].data, codes["object"].data)

    def test_two_region_hand_evaluation(self):
        cfg = tiny_config(2, 20, d_subj_obj=2, d_union=2, code_width=2, hidden=2)
        params = fresh_params(cfg)
        params["enc.first.w"].data[...] = np.eye(2)
        params["enc.first.b"].data[...] = 0.0
        params["enc.subject.w"].data[...] = [[1.0, 0.0], [0.0, 2.0]]
        params["enc.subject.b"].data[...] = [0.5, -0.5]
        feat_a = np.array([[1.0, -2.0]])
        feat_b = np.array([[0.5, 0.25]])
        a = proposal(5, 5, feat_a, 0)
        b = proposal(15, 5, feat_b, 1)
        codes = pair_codes(RegionPair(a, b), {0: feat_a, 1: feat_b}, feat_b, params, cfg)
        # relu([1, -2]) = [1, 0]; affine: [1*1+0.5, 0*2-0.5]
        assert np.allclose(codes["subject"].data, [[1.5, -0.5]], atol=1e-15)

    def test_missing_member_rejected(self):
        cfg = tiny_config(14, 20)
        pair, feats, union_feat = one_pair()
        del feats[1]
        with pytest.raises(ValueError, match="pair members must be present"):
            PairBatch.from_pair(pair, union_feat, feats)

    def test_feature_width_mismatch_raises_dimension_error(self):
        cfg = tiny_config(14, 20)
        pair, feats, _ = one_pair(feature_width=9)
        with pytest.raises(ValueError):
            pair_codes(pair, feats, np.zeros((1, 9)), fresh_params(cfg), cfg)


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def naive_lstm(x, h, c, w, b):
    """Unit-by-unit re-implementation of the recurrence (independent oracle)."""
    hidden = h.shape[1]
    out_h = np.zeros_like(h)
    out_c = np.zeros_like(c)
    for row in range(x.shape[0]):
        concat = np.concatenate([x[row], h[row]])
        for unit in range(hidden):
            zi = concat @ w[:, unit] + b[unit]
            zf = concat @ w[:, hidden + unit] + b[hidden + unit]
            zg = concat @ w[:, 2 * hidden + unit] + b[2 * hidden + unit]
            zo = concat @ w[:, 3 * hidden + unit] + b[3 * hidden + unit]
            i = 1 / (1 + math.exp(-zi))
            f = 1 / (1 + math.exp(-zf))
            g = math.tanh(zg)
            o = 1 / (1 + math.exp(-zo))
            out_c[row, unit] = f * c[row, unit] + i * g
            out_h[row, unit] = o * math.tanh(out_c[row, unit])
    return out_h, out_c


class TestLstmStep:
    def test_zero_everything(self):
        w = Tensor(np.zeros((4, 8)))
        b = Tensor(np.zeros(8))
        h, c = lstm_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))),
                         Tensor(np.zeros((1, 2))), w, b)
        assert np.array_equal(h.data, np.zeros((1, 2)))
        assert np.array_equal(c.data, np.zeros((1, 2)))

    def test_zero_weights_halve_cell_state(self):
        c0 = np.array([[0.8, -0.4]])
        _, c = lstm_step(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))),
                         Tensor(c0.copy()), Tensor(np.zeros((4, 8))), Tensor(np.zeros(8)))
        assert np.allclose(c.data, 0.5 * c0, atol=1e-15)

    def test_random_instance_matches_independent_recurrence(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(4, 8))
        b = rng.normal(size=8)
        x, h, c = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        h2, c2 = lstm_step(Tensor(x), Tensor(h), Tensor(c), Tensor(w), Tensor(b))
        oh, oc = naive_lstm(x, h, c, w, b)
        assert np.max(np.abs(h2.data - oh)) < 1e-12
        assert np.max(np.abs(c2.data - oc)) < 1e-12


# ---------------------------------------------------------------------------
# hand-rigged decoder: deterministic chains through the LSTM
# ---------------------------------------------------------------------------

def rigged_chain_model(sequence_ids, vocab_size=8, gain=100.0):
    """A single-stream union model whose greedy decode emits ``sequence_ids``.

    The forget gate is slammed shut and the input gate open, so the cell
    holds tanh of the current input's active channel. The region code
    activates channel 0, the embedding of the t-th sequence word activates
    channel t+1, and the word head maps channel t to the (t+1)-th target
    (the last channel maps to the end token).
    """
    hidden = len(sequence_ids) + 1
    cfg = ModelConfig(feature_width=4, vocab_size=vocab_size, d_subj_obj=4,
                      d_union=4, code_width=hidden, hidden=hidden, geo_dim=4,
                      rem_dim=4, streams="single", inputs=("union",), mtl=False,
                      dropout=0.0, name="union").validate()
    params = init_params(cfg, np.random.default_rng(0))
    for name in params.names():
        params[name].data[...] = 0.0
    # union path: relu(0 + 0) = 0, then bias activates channel 0
    params["union.code.b"].data[0] = 3.0
    # embeddings: word t of the chain activates channel t+1
    for t, wid in enumerate(sequence_ids):
        params["embed.table"].data[wid, t + 1] = 3.0
    w = params["lstm.main.w"].data
    b = params["lstm.main.b"].data
    b[0 * hidden:1 * hidden] = 50.0      # input gate open
    b[1 * hidden:2 * hidden] = -50.0     # forget gate shut
    b[3 * hidden:4 * hidden] = 50.0      # output gate open
    w[:hidden, 2 * hidden:3 * hidden] = np.eye(hidden)  # g = tanh(x)
    head = params["head.word.w"].data
    for t, wid in enumerate(sequence_ids):
        head[t, wid] = gain
    head[len(sequence_ids), END_ID] = gain
    return params, cfg


def chain_batch(cfg):
    return PairBatch(features=np.zeros((2, cfg.feature_width)),
                     subject_index=[0], object_index=[1],
                     union_features=np.zeros((1, cfg.feature_width)),
                     geos=np.zeros((1, 6)))


class TestDecode:
    def test_rigged_three_token_sequence(self):
        params, cfg = rigged_chain_model([4, 5, 6])
        pred = decode_batch(chain_batch(cfg), params, cfg)[0]
        assert pred.token_ids == [4, 5, 6]
        assert len(pred.word_probs) == 4          # three words plus the end step
        assert pred.confidence == pytest.approx(1.0, abs=1e-6)

    def test_decode_step_logits_match_hand_trace(self):
        params, cfg = rigged_chain_model([4], gain=10.0)
        codes = encode_pair_batch(chain_batch(cfg), params, cfg)
        state = init_state(1, cfg)
        logits1, pos1, state = decode_step(codes, None, state, params, cfg)
        assert pos1 is None
        activation = math.tanh(math.tanh(3.0))    # open gates, g = tanh(code)
        expected1 = np.zeros(cfg.vocab_size)
        expected1[4] = 10.0 * activation
        assert np.allclose(logits1.data[0], expected1, atol=1e-12)
        logits2, _, _ = decode_step(None, [4], state, params, cfg)
        expected2 = np.zeros(cfg.vocab_size)
        expected2[END_ID] = 10.0 * activation
        assert np.allclose(logits2.data[0], expected2, atol=1e-12)

    def test_end_first_gives_empty_caption_with_end_probability(self):
        cfg = tiny_config(14, 8, streams="single", inputs=("union",), mtl=False)
        params = fresh_params(cfg)
        for name in params.names():
            params[name].data[...] = 0.0
        params["head.word.b"].data[END_ID] = 5.0
        batch = PairBatch(features=np.zeros((2, 14)), subject_index=[0],
                          object_index=[1], union_features=np.zeros((1, 14)),
                          geos=np.zeros((1, 6)))
        pred = decode_batch(batch, params, cfg)[0]
        assert pred.token_ids == []
        p_end = math.exp(5.0) / (math.exp(5.0) + (cfg.vocab_size - 1))
        assert pred.word_probs == [pytest.approx(p_end, abs=1e-12)]
        assert pred.confidence == pred.word_probs[0]

    def test_zero_head_weights_give_uniform_distribution(self):
        cfg = tiny_config(14, 8, mtl=True)
        params = fresh_params(cfg)
        params["head.word.w"].data[...] = 0.0
        params["head.word.b"].data[...] = 0.0
        pair, feats, union_feat = one_pair()
        batch = PairBatch(features=np.vstack([feats[0], feats[1]]),
                          subject_index=[0], object_index=[1],
                          union_features=union_feat, geos=pair.geo.reshape(1, -1))
        codes = encode_pair_batch(batch, params, cfg)
        logits, _, _ = decode_step(codes, None, init_state(1, cfg), params, cfg)
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        assert np.allclose(probs, 1.0 / cfg.vocab_size, atol=1e-15)

    def test_stochastic_reproducible_under_seed(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=4)
        pair, feats, union_feat = one_pair()
        out = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            pred = decode_batch(PairBatch.from_pair(pair, union_feat, feats), params, cfg,
                                mode="stochastic", rng=rng)[0]
            out.append((tuple(pred.token_ids), tuple(pred.word_probs)))
        assert out[0] == out[1]

    def test_stochastic_requires_rng(self):
        cfg = tiny_config(14, 10)
        pair, feats, union_feat = one_pair()
        with pytest.raises(ValueError):
            decode_batch(PairBatch.from_pair(pair, union_feat, feats), fresh_params(cfg),
                         cfg, mode="stochastic")

    def test_confidence_is_product_of_word_probs(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=6)
        pair, feats, union_feat = one_pair(seed=9)
        pred = decode_batch(PairBatch.from_pair(pair, union_feat, feats), params, cfg)[0]
        assert pred.confidence == pytest.approx(math.prod(pred.word_probs), abs=1e-12)

    def test_max_len_caps_output(self):
        params, cfg = rigged_chain_model([4, 5, 6])
        pred = decode_batch(chain_batch(cfg), params, cfg, max_len=2)[0]
        assert pred.token_ids == [4, 5]
        assert len(pred.word_probs) == 2


# ---------------------------------------------------------------------------
# teacher forcing and the composite loss
# ---------------------------------------------------------------------------

class TestTeacherForcing:
    def test_rigged_model_reaches_zero_loss(self):
        params, cfg = rigged_chain_model([4, 5], gain=200.0)
        batch = chain_batch(cfg)
        codes = encode_pair_batch(batch, params, cfg)
        l_cap, l_pos = caption_losses(codes, [[4, 5, END_ID]],
                                      [[O, O, O]], params, cfg)
        assert float(l_cap.data) < 1e-10
        assert float(l_pos.data) == 0.0  # mtl off

    def test_unroll_feeds_previous_target_each_step(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=5)
        pair, feats, union_feat = one_pair()
        codes = pair_codes(pair, feats, union_feat, params, cfg)
        targets = np.array([[4, 5, END_ID]])
        steps = teacher_forced_unroll(codes, targets, params, cfg)
        assert len(steps) == 3
        state = init_state(1, cfg)
        for t, (word, pos, step_state) in enumerate(steps):
            prev = None if t == 0 else targets[:, t - 1]
            want_word, want_pos, state = decode_step(codes if t == 0 else None, prev, state,
                                                     params, cfg)
            assert np.array_equal(word.data, want_word.data)
            assert np.array_equal(pos.data, want_pos.data)
            for name in state:
                assert np.array_equal(step_state[name][0].data, state[name][0].data)

    def test_uniform_model_gives_log_vocab(self):
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        for name in ("head.word.w", "head.word.b"):
            params[name].data[...] = 0.0
        pair, feats, union_feat = one_pair()
        l_cap, _ = caption_losses(pair_codes(pair, feats, union_feat, params, cfg),
                                  [[4, 5, END_ID]], [[S, P, O]], params, cfg)
        assert float(l_cap.data) == pytest.approx(math.log(20.0), abs=1e-12)

    def test_empty_caption_rejected(self):
        cfg = tiny_config(14, 20)
        pair, feats, union_feat = one_pair()
        params = fresh_params(cfg)
        with pytest.raises(ValueError):
            caption_losses(pair_codes(pair, feats, union_feat, params, cfg),
                           [[]], [[]], params, cfg)


def loss_fixture(rem=False, mtl=True, seed=0, rig_perfect=False):
    cfg = tiny_config(6, 10, rem=rem, mtl=mtl)
    params = fresh_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 50)
    gt_boxes = [Box(10, 10, 6, 6), Box(30, 10, 6, 6)]
    prop_boxes = [Box(10, 10, 6, 6), Box(30, 10, 6, 6), Box(60, 60, 6, 6)]
    labels = [MatchLabel("positive", 0), MatchLabel("positive", 1), MatchLabel("negative")]
    features = rng.normal(size=(3, 6))
    targets = [
        CaptionTarget(0, 1, rng.normal(size=(1, 6)), rng.normal(size=6),
                      [4, 6, END_ID], [S, P, O]),
        CaptionTarget(1, 0, rng.normal(size=(1, 6)), rng.normal(size=6),
                      [5, END_ID], [S, O]),
    ]
    batch = ImageBatch(features=features, prop_boxes=prop_boxes, gt_boxes=gt_boxes,
                       labels=labels, targets=targets)
    if rig_perfect:
        params["det.w"].data[...] = 0.0
        params["box.w"].data[...] = 0.0
        params["box.b"].data[...] = 0.0  # proposals == GT so offsets are exactly 0
        params["det.b"].data[...] = 0.0
    return batch, params, cfg


class TestTotalLoss:
    def test_zero_weights_reduce_to_caption_loss(self):
        batch, params, cfg = loss_fixture()
        total, report = total_loss(batch, params, cfg, alpha=0.0, beta=0.0, gamma=0.0)
        assert float(total.data) == report.l_cap

    def test_report_components_sum(self):
        batch, params, cfg = loss_fixture()
        total, report = total_loss(batch, params, cfg)
        recomputed = (report.l_cap + 0.1 * report.l_pos + 0.1 * report.l_det
                      + 0.1 * report.l_box)
        assert report.total == pytest.approx(recomputed, rel=1e-12)
        assert float(total.data) == report.total
        for part in (report.l_cap, report.l_pos, report.l_det, report.l_box):
            assert part >= 0.0

    def test_mtl_weight_contribution_is_exactly_alpha_l_pos(self):
        batch, params, cfg = loss_fixture()
        _, with_pos = total_loss(batch, params, cfg, alpha=0.1)
        _, without = total_loss(batch, params, cfg, alpha=0.0)
        assert with_pos.total - without.total == pytest.approx(
            0.1 * with_pos.l_pos, rel=1e-12, abs=1e-15)

    def test_mtl_off_gives_zero_pos_loss(self):
        batch, params, cfg = loss_fixture(mtl=False)
        _, report = total_loss(batch, params, cfg)
        assert report.l_pos == 0.0

    def test_no_positive_pairs_flagged(self):
        batch, params, cfg = loss_fixture()
        batch = ImageBatch(features=batch.features, prop_boxes=batch.prop_boxes,
                           gt_boxes=batch.gt_boxes,
                           labels=[MatchLabel("negative")] * 3, targets=[])
        total, report = total_loss(batch, params, cfg)
        assert report.no_positive_pairs
        assert report.l_cap == report.l_pos == report.l_box == 0.0
        ad.backward(total)  # must be a valid (constant) graph

    def test_nearly_perfect_model_is_nearly_zero(self):
        batch, params, cfg = loss_fixture(rig_perfect=True)
        # force the caption head onto the targets with a chain rig instead:
        # here just check det/box are exactly zero-able
        _, report = total_loss(batch, params, cfg)
        assert report.l_box == 0.0
        assert report.l_det == pytest.approx(math.log(2.0), abs=1e-12)  # logits 0

    def test_gradients_flow_to_every_group(self):
        batch, params, cfg = loss_fixture(rem=True)
        params.zero_grads()
        total, _ = total_loss(batch, params, cfg)
        ad.backward(total)
        for name in params.names():
            assert np.any(params[name].grad != 0.0), f"no gradient reached {name}"


# ---------------------------------------------------------------------------
# weight sharing, importance traces, gradient checks, checkpoints
# ---------------------------------------------------------------------------

class TestWeightSharing:
    def test_store_contains_single_first_fc(self):
        params = fresh_params(tiny_config(14, 20))
        shared = [n for n in params.names() if n.startswith("enc.first")]
        assert shared == ["enc.first.w", "enc.first.b"]

    def test_shared_parameter_receives_gradients_from_both_paths(self):
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        pair, feats, union_feat = one_pair()
        for which in ("subject", "object"):
            params.zero_grads()
            target = pair_codes(pair, feats, union_feat, params, cfg)[which]
            loss = ad.matmul(ad.matmul(Tensor(np.ones((1, 1))), target),
                             Tensor(np.ones((cfg.code_width, 1))))
            ad.backward(loss)
            assert np.any(params["enc.first.w"].grad != 0.0), which


class TestImportanceTrace:
    def test_columns_sum_to_zero(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=2)
        pair, feats, union_feat = one_pair()
        trace = importance_trace(pair_codes(pair, feats, union_feat, params, cfg),
                                 [4, 5, 6, END_ID], params, cfg)
        assert trace.shape == (4, 3)
        assert np.all(np.abs(trace.sum(axis=0)) < 1e-9)

    def test_zero_weight_model_traces_zero(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg)
        for name in params.names():
            params[name].data[...] = 0.0
        pair, feats, union_feat = one_pair()
        trace = importance_trace(pair_codes(pair, feats, union_feat, params, cfg),
                                 [4, END_ID], params, cfg)
        assert np.array_equal(trace, np.zeros((2, 3)))

    def test_single_stream_rejected(self):
        cfg = tiny_config(14, 10, streams="single", inputs=("union",), mtl=False)
        pair, feats, union_feat = one_pair()
        params = fresh_params(cfg)
        with pytest.raises(ValueError):
            importance_trace(pair_codes(pair, feats, union_feat, params, cfg),
                             [4, END_ID], params, cfg)


class TestGradientCheck:
    def test_full_model_small_instance(self):
        batch, params, cfg = loss_fixture(rem=True)

        def forward():
            loss, _ = total_loss(batch, params, cfg)
            return loss

        err = ad.finite_diff_check(forward, params.all(), eps=1e-5,
                                   max_coords_per_param=3,
                                   rng=np.random.default_rng(0))
        assert err < 1e-6


class TestCheckpoints:
    def test_roundtrip_and_determinism(self, tmp_path):
        cfg = tiny_config(14, 9, rem=True)
        params = fresh_params(cfg, seed=11)
        vocab = Vocabulary(words=["a", "b", "c", "d", "e"])
        opt = ad.OptimizerState(params.all(), lr=0.01)
        opt.step_count = 5
        p1, p2 = tmp_path / "a.rckpt", tmp_path / "b.rckpt"
        save_model(str(p1), params, cfg, vocab, optimizer=opt)
        save_model(str(p2), params, cfg, vocab, optimizer=opt)
        assert p1.read_bytes() == p2.read_bytes()
        params2, cfg2, vocab2, opt2, _ = load_model(str(p1))
        assert cfg2 == cfg
        assert vocab2.words == vocab.words
        assert opt2.step_count == 5
        for name in params.names():
            assert np.array_equal(params2[name].data, params[name].data)


class TestFiniteness:
    def test_forward_values_finite_on_finite_inputs(self):
        rng = np.random.default_rng(77)
        cfg = tiny_config(14, 12, rem=True)
        params = fresh_params(cfg, seed=77)
        batch = PairBatch(features=rng.uniform(-5, 5, (5, 14)),
                          subject_index=[0, 3], object_index=[2, 4],
                          union_features=rng.uniform(-5, 5, (2, 14)),
                          geos=rng.uniform(-3, 3, (2, 6)))
        codes = encode_pair_batch(batch, params, cfg)
        state = init_state(2, cfg)
        word_logits, pos_logits, state = decode_step(codes, None, state, params, cfg)
        for t in (word_logits, pos_logits, *codes.values()):
            assert np.all(np.isfinite(t.data))
        for h, c in state.values():
            assert np.all(np.isfinite(h.data)) and np.all(np.isfinite(c.data))
