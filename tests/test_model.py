"""Network-level checks: the relational embedding, encoders, the LSTM stream
kernel, losses, decoding, and hand-rigged exact traces."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (block_retrieval_scores, decode_batch, finite_diff_check, fresh_params,
                      geometric_feature, pair_rows, per_pair, regroup_inputs, retrieval_score,
                      same_groups, tiny_config, zero_grad)
import relcap.model
from relcap import autodiff as ad
from relcap.apps import retrieval_scores
from relcap.autodiff import Tensor
from relcap.data import END_ID, PosTag, Vocabulary
from relcap.errors import ConfigError
from relcap.geometry import IGNORE, NEGATIVE, Box, box_rows
from relcap.model import (MODEL_PRESETS, ImageBatch, ModelConfig, PairBatch,
                          caption_losses, decode_arrays, encode_pair_batch, encode_regions,
                          importance_trace, init_params, load_model, regroup,
                          rem_forward, run_streams, sample_rows, save_model, stream_inputs,
                          stream_states, total_loss)
from relcap.pipeline import predicted_pos_tags

S, P, O = PosTag.SUBJ, PosTag.PRED, PosTag.OBJ


# ---------------------------------------------------------------------------
# configuration and parameter inventories
# ---------------------------------------------------------------------------

# (streams, inputs, mtl, rem, rpn_output, has the single-stream fuse layer)
# of every preset with each switch suffix.
_SO, _SOUC = ("subject", "object"), ("subject", "object", "union", "coord")
_VARIANTS = {
    "direct-union": ("single", ("union",), False, False, "union", False),
    "direct-union,mtl": ("single", ("union",), True, False, "union", False),
    "direct-union,rem": ("single", ("union",), False, True, "union", False),
    "direct-union,mtl,rem": ("single", ("union",), True, True, "union", False),
    "union": ("single", ("union",), False, False, "object", False),
    "union,mtl": ("single", ("union",), True, False, "object", False),
    "union,rem": ("single", ("union",), False, True, "object", False),
    "union,mtl,rem": ("single", ("union",), True, True, "object", False),
    "union-coord": ("single", ("union", "coord"), False, False, "object", False),
    "union-coord,mtl": ("single", ("union", "coord"), True, False, "object", False),
    "union-coord,rem": ("single", ("union", "coord"), False, True, "object", False),
    "union-coord,mtl,rem": ("single", ("union", "coord"), True, True, "object", False),
    "subj-obj": ("single", _SO, False, False, "object", True),
    "subj-obj,mtl": ("single", _SO, True, False, "object", True),
    "subj-obj,rem": ("single", _SO, False, True, "object", True),
    "subj-obj,mtl,rem": ("single", _SO, True, True, "object", True),
    "subj-obj-coord": ("single", (*_SO, "coord"), False, False, "object", True),
    "subj-obj-coord,mtl": ("single", (*_SO, "coord"), True, False, "object", True),
    "subj-obj-coord,rem": ("single", (*_SO, "coord"), False, True, "object", True),
    "subj-obj-coord,mtl,rem": ("single", (*_SO, "coord"), True, True, "object", True),
    "subj-obj-union": ("single", (*_SO, "union"), False, False, "object", True),
    "subj-obj-union,mtl": ("single", (*_SO, "union"), True, False, "object", True),
    "subj-obj-union,rem": ("single", (*_SO, "union"), False, True, "object", True),
    "subj-obj-union,mtl,rem": ("single", (*_SO, "union"), True, True, "object", True),
    "uuu": ("triple", ("union",), False, False, "object", False),
    "uuu,mtl": ("triple", ("union",), True, False, "object", False),
    "uuu,rem": ("triple", ("union",), False, True, "object", False),
    "uuu,mtl,rem": ("triple", ("union",), True, True, "object", False),
    "tsnet": ("triple", _SOUC, False, False, "object", False),
    "tsnet,mtl": ("triple", _SOUC, True, False, "object", False),
    "tsnet,rem": ("triple", _SOUC, False, True, "object", False),
    "tsnet,mtl,rem": ("triple", _SOUC, True, True, "object", False),
    "mttsnet": ("triple", _SOUC, True, False, "object", False),
    "mttsnet,mtl": ("triple", _SOUC, True, False, "object", False),
    "mttsnet,rem": ("triple", _SOUC, True, True, "object", False),
    "mttsnet,mtl,rem": ("triple", _SOUC, True, True, "object", False),
}


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

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_name("resnet", 14, 20)

    @pytest.mark.parametrize("name,expected", list(_VARIANTS.items()), ids=list(_VARIANTS))
    def test_name_derives_the_variant(self, name, expected):
        cfg = tiny_config(14, 20, name=name)
        assert (cfg.streams, cfg.inputs, cfg.mtl, cfg.rem, cfg.rpn_output,
                "fuse.w" in fresh_params(cfg)) == expected

    def test_from_json_rejects_an_echo_that_contradicts_the_name(self):
        cfg = tiny_config(14, 20)
        assert cfg.streams == "triple"
        with pytest.raises(ConfigError, match="streams"):
            ModelConfig.from_json({**cfg.to_json(), "streams": "single"})

    def test_code_width_must_equal_hidden(self):
        with pytest.raises(ConfigError):
            tiny_config(14, 20, code_width=4, hidden=6)

    def test_json_roundtrip(self):
        cfg = ModelConfig.from_name("mttsnet,rem", 14, 20, d_subj_obj=10,
                                    d_union=8, code_width=6, hidden=6)
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_single_vs_triple_parameter_inventory(self):
        union = fresh_params(tiny_config(14, 20, name="union"))
        mtts = fresh_params(tiny_config(14, 20))
        assert "lstm.main.w" in union and "lstm.subject.w" not in union
        for stream in ("subject", "predicate", "object"):
            assert f"lstm.{stream}.w" in mtts
        assert "lstm.main.w" not in mtts
        assert "head.pos.w" in mtts and "head.pos.w" not in union
        assert "enc.subject.w" not in union and "enc.subject.w" in mtts

    def test_rem_parameters_only_when_enabled(self):
        plain = fresh_params(tiny_config(14, 20))
        with_rem = fresh_params(tiny_config(14, 20, name="mttsnet,rem"))
        assert "rem.wa" not in plain
        for name in ("rem.wa", "rem.wb", "rem.wx", "rem.wz"):
            assert name in with_rem

    def test_fusion_adapter_only_when_widths_differ(self):
        multi = fresh_params(tiny_config(14, 20, name="subj-obj"))
        single = fresh_params(tiny_config(14, 20, name="union"))
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
        cfg = tiny_config(14, 20, d_subj_obj=d, rem_dim=r, name="mttsnet,rem")
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

def two_region_batch(feat_a, feat_b, union_feat):
    """PairBatch of the one pair (a, b) of 4x4 boxes at (5, 5) and (15, 5)."""
    return PairBatch(features=np.vstack([feat_a, feat_b]), subject_index=[0],
                     object_index=[1], union_features=union_feat,
                     geos=geometric_feature(Box(5, 5, 4, 4), Box(15, 5, 4, 4)).reshape(1, -1))


def one_pair(feature_width=14, seed=0):
    """two_region_batch over random features."""
    rng = np.random.default_rng(seed)
    return two_region_batch(*(rng.normal(size=(1, feature_width)) for _ in range(3)))


class TestEncodePair:
    def test_zero_second_fc_gives_bias(self):
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        beta = np.arange(6, dtype=float) * 0.1
        for prefix in ("enc.subject", "enc.object", "union.code"):
            params[f"{prefix}.w"].data[...] = 0.0
            params[f"{prefix}.b"].data[...] = beta
        batch = one_pair()
        codes = encode_pair_batch(batch, params, cfg)
        for code in (codes["subject"], codes["object"], codes["union"]):
            assert np.allclose(per_pair(code), beta, atol=1e-15)

    def test_shared_first_fc_with_equalized_second_fcs(self):
        # identical inputs and manually equalized second FCs: equality of the
        # codes certifies that the first FC really is one shared parameter
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        params["enc.object.w"].data[...] = params["enc.subject.w"].data
        params["enc.object.b"].data[...] = params["enc.subject.b"].data
        feat = np.random.default_rng(3).normal(size=(1, 14))
        codes = encode_pair_batch(two_region_batch(feat, feat, feat), params, cfg)
        assert np.array_equal(per_pair(codes["subject"]), per_pair(codes["object"]))

    def test_two_region_hand_evaluation(self):
        cfg = tiny_config(2, 20, d_subj_obj=2, d_union=2, code_width=2, hidden=2)
        params = fresh_params(cfg)
        params["enc.first.w"].data[...] = np.eye(2)
        params["enc.first.b"].data[...] = 0.0
        params["enc.subject.w"].data[...] = [[1.0, 0.0], [0.0, 2.0]]
        params["enc.subject.b"].data[...] = [0.5, -0.5]
        feat_a = np.array([[1.0, -2.0]])
        feat_b = np.array([[0.5, 0.25]])
        codes = encode_pair_batch(two_region_batch(feat_a, feat_b, feat_b), params, cfg)
        # relu([1, -2]) = [1, 0]; affine: [1*1+0.5, 0*2-0.5]
        assert np.allclose(per_pair(codes["subject"]), [[1.5, -0.5]], atol=1e-15)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_region_index_out_of_range_raises(self, index):
        # Untaped codes are indexed without a gather, so the batch checks.
        with pytest.raises(IndexError, match="out of range"):
            PairBatch(features=np.zeros((2, 14)), subject_index=[0, index], object_index=[1, 0],
                      union_features=np.zeros((2, 14)), geos=np.zeros((2, 6)))

    def test_feature_width_mismatch_raises_dimension_error(self):
        cfg = tiny_config(14, 20)
        with pytest.raises(ValueError):
            encode_pair_batch(one_pair(feature_width=9), fresh_params(cfg), cfg)


STACK_REGIONS = (1, 5, 31, 32, 33, 50)      # images whose rows cross 32-row tile edges
MIXED_REGIONS = (1, 4, 4, 5, 31, 33, 33, 50)     # counts shared by several images


def stack_images(cfg, counts=STACK_REGIONS):
    """One random PairBatch per ``counts`` entry n, of n + 3 pairs; a
    repeated count draws another batch."""
    return [random_pair_batch(cfg, n_pairs=n + 3, n_regions=n,
                              seed=n + 1000 * counts[:k].count(n))
            for k, n in enumerate(counts)]


def graph_nodes(*roots) -> int:
    """Number of autodiff nodes reachable from ``roots`` (roots included)."""
    seen = {id(root) for root in roots}
    stack = list(roots)
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestStackedEncoding:
    @pytest.mark.parametrize("name", [base + rem for base in MODEL_PRESETS
                                      for rem in ("", ",rem")])
    def test_codes_equal_per_image_codes(self, name):
        cfg = tiny_config(14, 10, name=name)
        self.assert_codes_equal(cfg, fresh_params(cfg, seed=2))

    def test_codes_equal_per_image_codes_at_default_widths(self):
        cfg = ModelConfig(14, 10, name="mttsnet,mtl,rem").validate()
        self.assert_codes_equal(cfg, fresh_params(cfg, seed=2))

    @pytest.mark.parametrize("name", [base + rem for base in MODEL_PRESETS
                                      for rem in ("", ",rem")])
    def test_mixed_region_counts_attend_once_per_count(self, monkeypatch, name):
        cfg = tiny_config(14, 10, name=name)
        softmax, attended = ad.softmax, []

        def spy(logits):
            attended.append(logits.shape)
            return softmax(logits)

        monkeypatch.setattr(ad, "softmax", spy)
        self.assert_codes_equal(cfg, fresh_params(cfg, seed=2), MIXED_REGIONS)
        # One (images, n, n) attention per distinct count n, then the
        # per-image references' one (n, n) attention each.
        counts = sorted(set(MIXED_REGIONS))
        stacked = [(MIXED_REGIONS.count(n), n, n) for n in counts]
        alone = [(n, n) for n in MIXED_REGIONS]
        assert attended == (stacked + alone if cfg.rem else [])

    @staticmethod
    def assert_codes_equal(cfg, params, counts=STACK_REGIONS):
        batches = stack_images(cfg, counts)
        with ad.no_grad():
            got = encode_pair_batch(PairBatch.stack(batches), params, cfg)
            alone = [encode_pair_batch(batch, params, cfg) for batch in batches]
        assert set(got) == set(alone[0])
        for kind, code in got.items():
            want = np.concatenate([per_pair(codes[kind]) for codes in alone])
            assert per_pair(code).tobytes() == want.tobytes(), kind

    @pytest.mark.parametrize("name", ["mttsnet", "mttsnet,rem", "subj-obj", "subj-obj-coord,rem",
                                      "tsnet"])
    def test_untaped_codes_equal_the_taped_gather_then_fc(self, name):
        cfg = tiny_config(14, 10, name=name)
        params = fresh_params(cfg, seed=5)
        batch = random_pair_batch(cfg, n_pairs=70, n_regions=40, seed=6)
        taped = encode_pair_batch(batch, params, cfg)
        with ad.no_grad():
            untaped = encode_pair_batch(batch, params, cfg)
        for role in ("subject", "object"):
            # Taped, the FC reads the gathered pair rows, one per pair;
            # untaped, it reads the regions, which the batch's index maps
            # to pairs, and no pair row is gathered.
            assert taped[role][0]._parents[0].shape == (len(batch), cfg.d_subj_obj)
            assert taped[role][1] is None
            assert untaped[role][0].shape == (len(batch.features), cfg.hidden)
            assert untaped[role][1] is getattr(batch, f"{role}_index")
            assert per_pair(untaped[role]).tobytes() == per_pair(taped[role]).tobytes(), role

    def test_stack_offsets_each_image_by_the_regions_before_it(self):
        cfg = tiny_config(14, 10)
        batches = stack_images(cfg)
        stacked = PairBatch.stack(batches)
        assert batches[0].image_regions == (1,) and stacked.image_regions == STACK_REGIONS
        starts = np.cumsum((0,) + STACK_REGIONS[:-1])
        for name in ("subject_index", "object_index"):
            want = np.concatenate([getattr(b, name) + s for b, s in zip(batches, starts)])
            assert np.array_equal(getattr(stacked, name), want)
        assert np.array_equal(stacked.geos, np.concatenate([b.geos for b in batches]))
        # Stacking stacks keeps one entry per image.
        again = PairBatch.stack([PairBatch.stack(batches[:2]), PairBatch.stack(batches[2:])])
        for field in dataclasses.fields(PairBatch):
            assert np.array_equal(getattr(again, field.name), getattr(stacked, field.name))

    def test_rem_attends_within_each_image(self):
        cfg = tiny_config(14, 10, name="mttsnet,rem")
        params = fresh_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(sum(STACK_REGIONS), cfg.d_subj_obj))
        starts = np.cumsum((0,) + STACK_REGIONS[:-1])
        perm = np.concatenate([s + rng.permutation(n) for s, n in zip(starts, STACK_REGIONS)])
        with ad.no_grad():
            z = rem_forward(Tensor(x), params, STACK_REGIONS).data
            z_perm = rem_forward(Tensor(x[perm]), params, STACK_REGIONS).data
            for s, n in zip(starts, STACK_REGIONS):
                assert np.array_equal(z[s:s + n], rem_forward(Tensor(x[s:s + n]), params).data)
        assert np.max(np.abs(z[perm] - z_perm)) < 1e-12

    def test_several_images_are_forward_only(self):
        cfg = tiny_config(14, 10, name="mttsnet,rem")
        stacked = PairBatch.stack(stack_images(cfg))
        with pytest.raises(ValueError, match="forward-only"):
            encode_pair_batch(stacked, fresh_params(cfg), cfg)

    def test_one_image_records_the_graph_it_did_before_stacking(self):
        cfg = tiny_config(14, 10, name="mttsnet,rem")
        params = fresh_params(cfg)
        # The counts the encoder and loss recorded before batches could stack.
        assert graph_nodes(rem_forward(Tensor(np.ones((5, cfg.d_subj_obj))), params)) == 18
        for name, nodes in (("mttsnet,rem", 73), ("mttsnet", 56)):
            batch, loss_params, loss_cfg = loss_fixture(name)
            assert graph_nodes(total_loss(batch, loss_params, loss_cfg)[0]) == nodes
        batch = random_pair_batch(cfg)
        one = encode_pair_batch(batch, params, cfg)
        stacked = encode_pair_batch(PairBatch.stack([batch]), params, cfg)
        assert (graph_nodes(*(x for x, _ in one.values()))
                == graph_nodes(*(x for x, _ in stacked.values())) == 44)


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


def single_stream(w, b, embed):
    """Parameters of a single-stream model with the given LSTM weights and
    word embedding (hidden = w.shape[0] // 2)."""
    hidden = w.shape[0] // 2
    cfg = tiny_config(14, len(embed), name="union", hidden=hidden, code_width=hidden)
    params = fresh_params(cfg)
    params["lstm.main.w"].data[...] = w
    params["lstm.main.b"].data[...] = b
    params["embed.table"].data[...] = embed
    return params, cfg


def kernel_states(x0, words, params, cfg):
    """Hidden and cell states after every step of ``run_streams``, each
    ``(T, P, width)``: step 0 reads ``x0``, step t feeds ``words[:, t - 1]``."""
    n = len(x0)
    hiddens = []

    def emit(t, lo, feat):
        hiddens.append(feat.copy())
        return words[:, t] if t < words.shape[1] else None

    tape = run_streams([(Tensor(x0), None)] * (3 if cfg.streams == "triple" else 1), params,
                       cfg, words.shape[1] + 1, emit)
    return np.array(hiddens), np.array([np.concatenate([x[:n] for x in c], axis=1)
                                        for _, c in tape])


class TestLstmStep:
    """The recurrence of ``run_streams``, one stream, by hand and against
    the unit-by-unit oracle."""

    def test_zero_everything(self):
        params, cfg = single_stream(np.zeros((4, 8)), np.zeros(8), np.zeros((5, 2)))
        h, c = kernel_states(np.zeros((1, 2)), np.zeros((1, 0), dtype=np.intp), params, cfg)
        assert np.array_equal(h, np.zeros((1, 1, 2)))
        assert np.array_equal(c, np.zeros((1, 1, 2)))

    def test_zero_weights_halve_cell_state(self):
        # Step 0 writes c0 = 0.5 tanh(x0) through the g columns; with a zero
        # embedding every gate of step 1 is sigmoid(0) = 0.5 and g = 0.
        w = np.zeros((4, 8))
        w[:2, 4:6] = np.eye(2)
        params, cfg = single_stream(w, np.zeros(8), np.zeros((5, 2)))
        _, c = kernel_states(np.array([[0.8, -0.4]]), np.array([[4]]), params, cfg)
        assert np.array_equal(c[0], 0.5 * np.tanh([[0.8, -0.4]]))
        assert np.array_equal(c[1], 0.5 * c[0])

    def test_random_instance_matches_independent_recurrence(self):
        rng = np.random.default_rng(8)
        w, b = rng.normal(size=(4, 8)), rng.normal(size=8)
        embed = rng.normal(size=(5, 2))
        params, cfg = single_stream(w, b, embed)
        x0, words = rng.normal(size=(3, 2)), np.array([[4, 2], [0, 4], [1, 1]])
        h, c = kernel_states(x0, words, params, cfg)
        want_h, want_c = naive_lstm(x0, np.zeros((3, 2)), np.zeros((3, 2)), w, b)
        for t in range(3):
            if t:
                want_h, want_c = naive_lstm(embed[words[:, t - 1]], want_h, want_c, w, b)
            assert np.max(np.abs(h[t] - want_h)) < 1e-12
            assert np.max(np.abs(c[t] - want_c)) < 1e-12


class TestRegroup:
    """The step of ``run_streams`` that maps (state, fed word) to a state."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n_states=st.integers(1, 40),
           vocab=st.one_of(st.integers(1, 12), st.just(2000)))
    def test_equal_pairs_share_a_state_and_remember_it(self, data, n_states, vocab):
        n = data.draw(st.integers(0, 200))
        states = np.array(data.draw(st.lists(st.integers(0, n_states - 1), min_size=n,
                                             max_size=n)), dtype=np.intp)
        words = np.array(data.draw(st.lists(st.integers(0, vocab - 1), min_size=n,
                                            max_size=n)), dtype=np.intp)
        row_map, parent, word = regroup(states, words, vocab)
        pairs = list(zip(states.tolist(), words.tolist()))
        # One new state per distinct pair, every one of them used.
        assert len(parent) == len(word) == len(set(pairs))
        assert sorted(set(row_map.tolist())) == list(range(len(parent)))
        for i, j in ((i, j) for i in range(min(n, 30)) for j in range(min(n, 30))):
            assert (row_map[i] == row_map[j]) == (pairs[i] == pairs[j])
        assert np.array_equal(parent[row_map], states)
        assert np.array_equal(word[row_map], words)
        # The numbering of a sort. A key range above 32 per row (2,000 words,
        # or a small batch) takes regroup's sorting path, the others its
        # counting path.
        keys, inverse = np.unique(states * vocab + words, return_inverse=True)
        assert row_map.dtype == np.intp and np.array_equal(row_map, inverse)
        assert np.array_equal(parent * vocab + word, keys)


class TestStepZeroSharing:
    """Step-0 grouping by region: in an untaped pass of more than BLOCK
    rows, the rows of a stream fed subject (object) codes share a step-0
    state exactly when they share a subject (object) region; the predicate
    stream and a single stream keep one state per row."""

    @staticmethod
    def step_zero(monkeypatch, batch, params, cfg):
        """The step-0 maps of a two-step greedy decode of ``batch``."""
        cfg = dataclasses.replace(cfg, max_len=2)
        return regroup_inputs(monkeypatch, lambda: decode_arrays(batch, params, cfg))[1]

    @pytest.mark.parametrize("name,roles", [
        ("mttsnet", ("subject", "object")), ("tsnet,rem", ("subject", "object")),
        ("uuu", ()), ("subj-obj", ()), ("subj-obj-union,mtl", ()), ("union", ()),
    ])
    def test_rows_of_one_region_share_one_state(self, monkeypatch, name, roles):
        cfg = tiny_config(14, 12, name=name)
        params = fresh_params(cfg, seed=12)
        batch = random_pair_batch(cfg, n_pairs=300, n_regions=9, seed=5)
        with ad.no_grad():
            codes = encode_pair_batch(batch, params, cfg)
        maps = self.step_zero(monkeypatch, batch, params, cfg)
        assert len(maps) == len(roles)
        for role, states in zip(roles, maps):
            region = getattr(batch, f"{role}_index")
            assert same_groups(states, region)
            # The row independence that makes the grouping exact: the rows
            # of one region have byte-equal codes.
            _, first, inverse = np.unique(region, return_index=True, return_inverse=True)
            code = per_pair(codes[role])
            assert code[first][inverse].tobytes() == code.tobytes()

    def test_passes_of_at_most_block_rows_keep_one_state_per_row(self, monkeypatch):
        cfg = tiny_config(14, 12, name="mttsnet")
        params = fresh_params(cfg, seed=12)
        batch = random_pair_batch(cfg, n_pairs=relcap.model.BLOCK, n_regions=9, seed=5)
        assert self.step_zero(monkeypatch, batch, params, cfg) == []

    def test_distinct_regions_with_equal_codes_keep_their_own_states(self, monkeypatch):
        cfg = tiny_config(14, 12, name="mttsnet")
        params = fresh_params(cfg, seed=12)
        batch = random_pair_batch(cfg, n_pairs=300, n_regions=9, seed=5)
        batch.features[1] = batch.features[0]
        with ad.no_grad():
            code = per_pair(encode_pair_batch(batch, params, cfg)["subject"])
        rows = [np.flatnonzero(batch.subject_index == k)[0] for k in (0, 1)]
        assert code[rows[0]].tobytes() == code[rows[1]].tobytes()
        states = self.step_zero(monkeypatch, batch, params, cfg)[0]
        assert same_groups(states, batch.subject_index)
        assert states[rows[0]] != states[rows[1]]


def split_calls(monkeypatch):
    """The row counts of the ``split_states`` calls a run makes from now on."""
    split, calls = relcap.model.split_states, []

    def spy(states, parent):
        calls.append(len(parent))
        return split(states, parent)

    monkeypatch.setattr(relcap.model, "split_states", spy)
    return calls


class TestSplitSteps:
    def test_dense_decode_whose_states_split_equals_its_block_reference(self, monkeypatch):
        """States that split are copied to their new rows; decoding in
        passes of at most BLOCK rows (one state per row) gives the same
        bits."""
        cfg = tiny_config(14, 12, name="mttsnet,mtl,rem")
        params = fresh_params(cfg, seed=12)
        n = 300
        batch = random_pair_batch(cfg, n_pairs=n, n_regions=9, seed=5)
        blocks = [decode_arrays(pair_rows(batch, list(range(lo, min(lo + 100, n)))), params, cfg)
                  for lo in range(0, n, 100)]
        calls = split_calls(monkeypatch)
        dense = decode_arrays(batch, params, cfg)
        assert calls                    # some step fed a state two words
        for got, parts in zip(dense, zip(*blocks), strict=True):
            assert got.tobytes() == np.concatenate(parts).tobytes()


def even_regions(batch):
    """``batch`` with every subject and object index rounded down to an even
    region: the odd regions start no row."""
    batch.subject_index, batch.object_index = batch.subject_index & -2, batch.object_index & -2
    return batch


class TestRegionsWithoutRows:
    """Step 0 steps a state for every region, also for the regions that
    start no row; step 1 then keeps only the states of the regions that do,
    so a pass of more than BLOCK rows whose odd regions start no row gives
    the bits of passes of at most 200 rows (one state per row)."""

    @pytest.mark.parametrize("name", ["mttsnet,mtl,rem", "tsnet"])
    def test_decode_equals_passes_of_at_most_200_rows(self, name):
        cfg = tiny_config(14, 12, name=name)
        params = fresh_params(cfg, seed=12)
        params["head.word.w"].data *= 6.0
        n = 2 * relcap.model.BLOCK + 1
        # More regions than rows: most start one row, so step 1 splits few states.
        batch = even_regions(random_pair_batch(cfg, n_pairs=n, n_regions=1000, seed=5))
        parts = [decode_arrays(pair_rows(batch, list(range(lo, min(lo + 200, n)))), params, cfg)
                 for lo in range(0, n, 200)]
        for got, want in zip(decode_arrays(batch, params, cfg), zip(*parts), strict=True):
            assert got.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("name", ["mttsnet,mtl,rem", "tsnet"])
    def test_retrieval_equals_images_scored_alone(self, name):
        cfg = tiny_config(14, 12, name=name)
        params = fresh_params(cfg, seed=13)
        params["head.word.w"].data *= 6.0
        images = [even_regions(random_pair_batch(cfg, n_pairs=n, n_regions=10, seed=n))
                  for n in (200, 200, 113)]
        stacked = PairBatch.stack(images)
        query = [4, 7, 5, 9, END_ID]
        with ad.no_grad():
            codes = encode_pair_batch(stacked, params, cfg)
        assert len(stacked) > relcap.model.BLOCK
        assert (retrieval_scores(query, stacked, codes, params, cfg)
                == [retrieval_score(query, image, params, cfg) for image in images])

    def test_retrieval_over_trailing_regions_without_rows(self):
        # Regions 0-8 start every row and 9-99 none: step 1 keeps states
        # 0-8 in order, fewer than step 0 stepped, so it still copies them.
        cfg = tiny_config(14, 12, name="mttsnet,mtl,rem")
        params = fresh_params(cfg, seed=13)
        batch = random_pair_batch(cfg, n_pairs=300, n_regions=9, seed=6)
        batch.features = np.concatenate([batch.features, np.ones((91, cfg.feature_width))])
        query = [4, 7, 5, 9, END_ID]
        with ad.no_grad():
            codes = encode_pair_batch(batch, params, cfg)
        assert (retrieval_scores(query, batch, codes, params, cfg)
                == block_retrieval_scores(query, [batch], params, cfg))


class TestEmitRows:
    def test_dense_pass_emits_float64_rows_of_the_float32_states(self, monkeypatch):
        """A pass of more than BLOCK rows, whose subject and object streams
        share states, hands ``emit`` float64 rows that hold exactly the
        float32 states the same rows get in passes of at most BLOCK rows
        (one state per row)."""
        cfg = tiny_config(14, 12, name="mttsnet,rem")
        params = fresh_params(cfg, seed=12)
        n, steps = 300, 4
        batch = random_pair_batch(cfg, n_pairs=n, n_regions=9, seed=5)
        targets = np.random.default_rng(6).integers(0, cfg.vocab_size, (n, steps))

        def states(rows):
            out = np.zeros((steps, len(rows), 3 * cfg.hidden))
            sub = pair_rows(batch, rows)

            def emit(t, lo, feat):
                assert feat.dtype == np.float64
                out[t, lo:lo + len(feat)] = feat
                return targets[rows[lo:lo + len(feat)], t]

            with ad.no_grad():
                codes = encode_pair_batch(sub, params, cfg)
                run_streams(stream_inputs(codes, params, cfg), params, cfg, steps, emit)
            return out

        dense, maps = regroup_inputs(monkeypatch, lambda: states(list(range(n))))
        assert same_groups(maps[0], batch.subject_index)
        assert same_groups(maps[1], batch.object_index)
        assert np.array_equal(dense.astype(np.float32), dense)
        alone = np.concatenate([states(list(range(lo, min(lo + 100, n))))
                                for lo in range(0, n, 100)], axis=1)
        assert dense.tobytes() == alone.tobytes()


class TestStreamGradients:
    """``stream_states`` alone against central differences: its BPTT
    backward reaches the step-0 inputs, every stream's weights and the
    shared embedding."""

    @pytest.mark.parametrize("name,inputs", [
        ("union", ("union",)), ("mttsnet", ("subject", "object", "union")),
        ("uuu", ("union",)),
    ])
    def test_finite_differences(self, name, inputs):
        cfg = tiny_config(14, 9, name=name, hidden=3, code_width=3)
        params = fresh_params(cfg, seed=4)
        rng = np.random.default_rng(5)
        codes = {kind: (ad.Parameter(kind, rng.normal(size=(4, 3))), None) for kind in inputs}
        targets = np.array([[4, 6, 1, 0], [5, 1, 0, 0], [8, 7, 6, 1], [4, 4, 1, 0]])
        mix = Tensor(rng.normal(size=(3 * len(stream_inputs(codes, params, cfg)), 4)))
        rows = targets.size
        picks = rng.integers(0, 4, rows)

        def forward():
            hidden = stream_states(codes, targets, params, cfg)
            return ad.weighted_cross_entropy(ad.matmul(hidden, mix), picks,
                                             np.linspace(0.1, 1.0, rows))

        lstm = [p for p in params.values() if p.name.startswith(("lstm.", "embed."))]
        err = finite_diff_check(forward, [*(x for x, _ in codes.values()), *lstm], eps=1e-4,
                                max_coords_per_param=12, rng=np.random.default_rng(0))
        assert err < 1e-6


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
                      d_union=4, code_width=hidden, hidden=hidden, rem_dim=4,
                      dropout=0.0, name="union").validate()
    params = init_params(cfg, np.random.default_rng(0))
    for name in params:
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


def step_logits(codes, words, params, cfg):
    """``(T, P, V)`` word logits of ``stream_states`` fed ``words`` (one list
    per pair, of the ids fed at steps 1..T-1)."""
    words = np.array(words, dtype=np.intp).reshape(len(words), -1)
    targets = np.pad(words, ((0, 0), (0, 1)))         # the last column is fed nowhere
    with ad.no_grad():
        hidden = stream_states(codes, targets, params, cfg)
        logits = ad.affine(hidden, params["head.word.w"], params["head.word.b"]).data
    return logits.reshape(targets.shape[1], len(words), -1)


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
        logits = step_logits(codes, [[4]], params, cfg)
        activation = math.tanh(math.tanh(3.0))    # open gates, g = tanh(code)
        expected1 = np.zeros(cfg.vocab_size)
        expected1[4] = 10.0 * activation
        assert np.allclose(logits[0, 0], expected1, atol=1e-12)
        expected2 = np.zeros(cfg.vocab_size)
        expected2[END_ID] = 10.0 * activation
        assert np.allclose(logits[1, 0], expected2, atol=1e-12)

    @pytest.mark.parametrize("bad", [-1, "vocab_size"])
    def test_out_of_range_previous_word_raises(self, bad):
        params, cfg = rigged_chain_model([4])
        bad = cfg.vocab_size if bad == "vocab_size" else bad
        codes = encode_pair_batch(pair_rows(chain_batch(cfg), [0, 0]), params, cfg)
        with pytest.raises(IndexError, match="out of range"):
            step_logits(codes, [[4], [bad]], params, cfg)

    def test_end_first_gives_empty_caption_with_end_probability(self):
        cfg = tiny_config(14, 8, name="union")
        params = fresh_params(cfg)
        for name in params:
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
        cfg = tiny_config(14, 8)
        params = fresh_params(cfg)
        params["head.word.w"].data[...] = 0.0
        params["head.word.b"].data[...] = 0.0
        logits = step_logits(encode_pair_batch(one_pair(), params, cfg), [[]], params, cfg)
        probs = np.exp(logits[0]) / np.exp(logits[0]).sum()
        assert np.allclose(probs, 1.0 / cfg.vocab_size, atol=1e-15)
        pred = decode_batch(one_pair(), params, cfg)[0]
        assert pred.word_probs == [1.0 / cfg.vocab_size] * len(pred.word_probs)

    def test_stochastic_reproducible_under_seed(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=4)
        batch = one_pair()
        out = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            pred = decode_batch(batch, params, cfg,
                                mode="stochastic", rng=rng)[0]
            out.append((tuple(pred.token_ids), tuple(pred.word_probs)))
        assert out[0] == out[1]

    def test_stochastic_requires_rng(self):
        cfg = tiny_config(14, 10)
        batch = one_pair()
        with pytest.raises(ValueError):
            decode_batch(batch, fresh_params(cfg),
                         cfg, mode="stochastic")

    def test_confidence_is_product_of_word_probs(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=6)
        batch = one_pair(seed=9)
        pred = decode_batch(batch, params, cfg)[0]
        assert pred.confidence == pytest.approx(math.prod(pred.word_probs), abs=1e-12)

    def test_max_len_caps_output(self):
        params, cfg = rigged_chain_model([4, 5, 6])
        cfg = dataclasses.replace(cfg, max_len=2)
        pred = decode_batch(chain_batch(cfg), params, cfg)[0]
        assert pred.token_ids == [4, 5]
        assert len(pred.word_probs) == 2


def random_pair_batch(cfg, n_pairs=30, n_regions=8, seed=0):
    rng = np.random.default_rng(seed)
    return PairBatch(features=rng.normal(size=(n_regions, cfg.feature_width)),
                     subject_index=rng.integers(0, n_regions, n_pairs).tolist(),
                     object_index=rng.integers(0, n_regions, n_pairs).tolist(),
                     union_features=rng.normal(size=(n_pairs, cfg.feature_width)),
                     geos=rng.normal(size=(n_pairs, 6)))


U32 = 2.0 ** -24        # float32 unit roundoff


def state_error_budget(cfg, steps):
    """Bound on |float32 - float64| of any LSTM state after ``steps`` steps.

    Each step a state element comes out of a 2H-term dot product and at most
    8 element-wise ops (bias add, tanh, the sigmoid's halving and shift,
    forget, input, cell tanh, output gate), on values of magnitude about 1,
    each rounding by at most U32 relative; the gates (< 1) carry an earlier
    step's error forward without growth. On the tape test's models the
    measured difference is at most 1.3 U32 after 5 steps, against a budget
    of 100 U32 there."""
    return steps * (2 * cfg.hidden + 8) * U32


def stable_sigmoid(v):
    return np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                    np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))


def reference_states(first, word, state, params, cfg, dtype=np.float64):
    """One step of every stream for one row, with the unsplit ``[x, h] @ W``
    of the checkpoint layout (gates i, f, g, o) and the stable sigmoid, in
    ``dtype``. ``first`` holds the row's step-0 inputs, used when ``word``
    is None. Returns the new ``[(h, c)]`` per stream and their hidden states
    side by side."""
    names = ("subject", "predicate", "object") if cfg.streams == "triple" else ("main",)
    hid = cfg.hidden
    new_state = []
    for s, name in enumerate(names):
        x = first[s] if word is None else params["embed.table"].data[word]
        h, c = state[s]
        w, b = (params[f"lstm.{name}.{k}"].data.astype(dtype) for k in ("w", "b"))
        z = np.concatenate([x, h]).astype(dtype) @ w + b
        i, f = stable_sigmoid(z[:hid]), stable_sigmoid(z[hid:2 * hid])
        g, o = np.tanh(z[2 * hid:3 * hid]), stable_sigmoid(z[3 * hid:])
        c = f * c + i * g
        new_state.append((o * np.tanh(c), c))
    return new_state, np.concatenate([h for h, _ in new_state])


def reference_decode(batch, params, cfg, mode="greedy", rng=None, dtype=np.float32):
    """Decode with an independent numpy LSTM that runs one row at a time,
    step-major (every unfinished row of a step, in row order, before the
    next step). The LSTM runs in ``dtype`` (float32, as untaped
    ``run_streams``); the word and POS heads and the softmax in float64.
    Returns (token ids, POS, word probs, confidence, top-two word-logit
    margin per step) per row."""
    n = len(batch)
    with ad.no_grad():
        first = [per_pair(x) for x in stream_inputs(encode_pair_batch(batch, params, cfg),
                                                    params, cfg)]
    zeros = np.zeros(cfg.hidden, dtype)
    states = [[(zeros, zeros)] * len(first) for _ in range(n)]
    prev = [None] * n
    token_ids = [[] for _ in range(n)]
    pos_tags = [[] for _ in range(n)]
    word_probs = [[] for _ in range(n)]
    margins = [[] for _ in range(n)]
    done = [False] * n
    for _step in range(cfg.max_len):
        for row in range(n):
            if done[row]:
                continue
            states[row], feat = reference_states([x[row] for x in first], prev[row],
                                                 states[row], params, cfg, dtype)
            feat = feat.astype(np.float64)
            logits = feat @ params["head.word.w"].data + params["head.word.b"].data
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            if mode == "greedy":
                pick = int(probs.argmax())
            else:
                pick = int(rng.choice(cfg.vocab_size, p=probs))
            word_probs[row].append(float(probs[pick]))
            top_two = np.sort(logits)[-2:]
            margins[row].append(float(top_two[1] - top_two[0]))
            prev[row] = pick
            if pick == END_ID:
                done[row] = True
            else:
                token_ids[row].append(pick)
                if cfg.mtl:
                    pos = feat @ params["head.pos.w"].data + params["head.pos.b"].data
                    pos_tags[row].append(PosTag(int(pos.argmax())))
        if all(done):
            break
    return [(token_ids[r], pos_tags[r], word_probs[r],
             float(math.prod(word_probs[r])) if word_probs[r] else 1.0, margins[r])
            for r in range(n)]


def assert_matches_reference(preds, reference):
    """Tokens and POS exactly; word probabilities within 100 U32 relative
    and confidences within that times the number of steps. Both sides run the LSTM
    in float32 but round in a different order (the split input GEMM, the
    tanh form of the sigmoid), which moves each probability by a few U32
    (at most 6.6 U32 over 20 random batches of this model)."""
    assert len(preds) == len(reference)
    for pred, (tokens, pos, probs, confidence, _) in zip(preds, reference):
        assert pred.token_ids == tokens
        assert pred.pos == pos
        assert pred.word_probs == pytest.approx(probs, rel=100 * U32, abs=0)
        assert pred.confidence == pytest.approx(confidence, rel=100 * U32 * len(probs), abs=0)


def step0_best_other(batch, params, cfg, special):
    """Per row, the largest step-0 word logit outside the ``special`` ids."""
    logits = step_logits(encode_pair_batch(batch, params, cfg), [[]] * len(batch), params, cfg)
    return np.delete(logits[0], special, axis=1).max(axis=1)


class TestDecodeMatchesReference:
    """``decode_batch`` on the tiled kernel against the per-row reference."""

    def model(self):
        cfg = tiny_config(14, 12)
        params = fresh_params(cfg, seed=8)
        # A sharper word head and a higher end-token bias end rows at
        # different steps, some only at max_len.
        params["head.word.w"].data *= 8.0
        params["head.word.b"].data[END_ID] += 1.0
        return params, cfg

    def test_greedy_random_model(self):
        params, cfg = self.model()
        batch = random_pair_batch(cfg)
        got = decode_batch(batch, params, cfg)
        assert_matches_reference(got, reference_decode(batch, params, cfg))
        lengths = {len(p.word_probs) for p in got}
        assert len(lengths) >= 3 and cfg.max_len in lengths

    def test_greedy_row_emitting_end_first(self):
        params, cfg = self.model()
        batch = random_pair_batch(cfg)
        params["head.word.w"].data[:, END_ID] = 0.0
        best = step0_best_other(batch, params, cfg, [END_ID])
        first, second = np.argsort(best)[:2]
        params["head.word.b"].data[END_ID] = (best[first] + best[second]) / 2
        got = decode_batch(batch, params, cfg)
        assert_matches_reference(got, reference_decode(batch, params, cfg))
        assert got[first].token_ids == [] and len(got[first].word_probs) == 1

    def test_greedy_argmax_tie_resolves_to_lowest_id(self):
        params, cfg = self.model()
        batch = random_pair_batch(cfg)
        low, high = 5, 9
        for word in (low, high):
            params["head.word.w"].data[:, word] = 0.0
        best = step0_best_other(batch, params, cfg, [low, high])
        first, second = np.argsort(best)[:2]
        params["head.word.b"].data[[low, high]] = (best[first] + best[second]) / 2
        got = decode_batch(batch, params, cfg)
        assert_matches_reference(got, reference_decode(batch, params, cfg))
        assert got[first].token_ids[0] == low
        assert all(p.token_ids[:1] != [low] for i, p in enumerate(got) if i != first)

    def test_stochastic_consumes_the_rng_stream_alike(self):
        params, cfg = self.model()
        batch = random_pair_batch(cfg)
        rng_got, rng_want = np.random.default_rng(31), np.random.default_rng(31)
        got = decode_batch(batch, params, cfg, mode="stochastic", rng=rng_got)
        want = reference_decode(batch, params, cfg, mode="stochastic", rng=rng_want)
        assert_matches_reference(got, want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestFloat32Accuracy:
    """Untaped float32 decoding and scoring against float64 references: the
    row-at-a-time decoder run in float64, and the taped ``stream_states``,
    which stays float64. A word logit moves by at most the head's largest
    column L1 norm times ``state_error_budget``; a greedy pick whose
    float64 top-two margin exceeds twice that cannot flip, and a log
    probability moves by at most twice it."""

    @staticmethod
    def logit_error(params, cfg, steps):
        head = np.abs(params["head.word.w"].data).sum(axis=0).max()
        return head * state_error_budget(cfg, steps)

    @pytest.mark.parametrize("name,seed", [("mttsnet,rem", 1), ("union,mtl", 2),
                                           ("subj-obj-coord", 3), ("tsnet", 4)])
    def test_greedy_tokens_and_confidence(self, name, seed):
        cfg = tiny_config(14, 12, name=name)
        params = fresh_params(cfg, seed=seed)
        params["head.word.w"].data *= 8.0
        params["head.word.b"].data[END_ID] += 1.0
        batch = random_pair_batch(cfg, n_pairs=60, seed=seed)
        got = decode_batch(batch, params, cfg)
        whole = 0
        for pred, (tokens, _, probs, confidence, margins) in zip(
                got, reference_decode(batch, params, cfg, dtype=np.float64)):
            picks = tokens + [END_ID] * (len(probs) - len(tokens))
            got_picks = pred.token_ids + [END_ID] * (len(pred.word_probs) - len(pred.token_ids))
            errors = [self.logit_error(params, cfg, t + 1) for t in range(len(margins))]
            resolved = next((t for t, (m, e) in enumerate(zip(margins, errors)) if m <= 2 * e),
                            len(margins))
            assert got_picks[:resolved + 1] == picks[:resolved + 1]
            if resolved == len(margins):
                whole += 1
                assert len(got_picks) == len(picks)
                assert pred.confidence == pytest.approx(
                    confidence, rel=math.expm1(2 * sum(errors)), abs=0)
        assert whole >= 0.9 * len(got)

    def test_retrieval_ranks(self):
        cfg = tiny_config(14, 12, name="mttsnet,rem")
        params = fresh_params(cfg, seed=5)
        params["head.word.w"].data *= 4.0
        query = [4, 7, 5, 9, END_ID]
        steps = np.arange(len(query))
        batches = [random_pair_batch(cfg, n_pairs=n, n_regions=6, seed=n) for n in range(1, 41)]
        stacked = PairBatch.stack(batches)
        with ad.no_grad():
            codes = encode_pair_batch(stacked, params, cfg)
            alone = [encode_pair_batch(b, params, cfg) for b in batches]
        got = np.log([score for score, _, _ in
                      retrieval_scores(query, stacked, codes, params, cfg)])
        want = []
        for code in alone:
            n = len(per_pair(code["union"]))
            hidden = stream_states(code, np.tile(query, (n, 1)), params, cfg)
            assert hidden._parents                      # taped: float64
            logits = hidden.data @ params["head.word.w"].data + params["head.word.b"].data
            logp = ad.log_softmax(logits).reshape(len(query), n, -1)
            want.append(logp[steps, :, query].sum(axis=0).max())
        want = np.array(want)
        bound = 2 * sum(self.logit_error(params, cfg, t + 1) for t in steps)
        assert np.max(np.abs(got - want)) <= bound
        # Every two images whose float64 scores are further apart than the
        # error of both rank alike.
        gap = want[:, None] - want[None, :]
        apart = np.abs(gap) > 2 * bound
        assert apart.mean() > 0.9
        assert np.array_equal(np.sign(got[:, None] - got[None, :])[apart], np.sign(gap)[apart])

    def test_taped_stream_states_keeps_float64_gates(self, monkeypatch):
        cfg = tiny_config(14, 10, name="mttsnet")
        params = fresh_params(cfg, seed=3)
        codes = encode_pair_batch(random_pair_batch(cfg, n_pairs=5), params, cfg)
        targets = np.random.default_rng(2).integers(0, cfg.vocab_size, (5, 4))
        tapes, kernel = [], relcap.model.run_streams

        def spy(*args):
            tapes.append(kernel(*args))
            return tapes[-1]

        monkeypatch.setattr(relcap.model, "run_streams", spy)
        stream_states(codes, targets, params, cfg)
        with ad.no_grad():
            stream_states(codes, targets, params, cfg)
        taped, untaped = tapes
        assert untaped is None and len(taped) == 4
        for gates, cells in taped:
            assert len(gates) == len(cells) == 3
            assert all(x.dtype == np.float64 for x in (*gates, *cells))

    def test_run_streams_returns_a_tape_exactly_when_recording(self):
        # Untaped codes of 300 pairs over 9 regions: the taped run still
        # steps one state per row (300, padded to 320).
        cfg = tiny_config(14, 10, name="mttsnet")
        params = fresh_params(cfg, seed=3)
        with ad.no_grad():
            batch = random_pair_batch(cfg, n_pairs=300, n_regions=9)
            first = stream_inputs(encode_pair_batch(batch, params, cfg), params, cfg)

        def emit(t, lo, feat):
            return np.full(len(feat), 4)

        tape = run_streams(first, params, cfg, 3, emit)
        assert len(tape) == 3
        for gates, cells in tape:
            assert [z.shape for z in gates] == [(4, 320, cfg.hidden)] * 3
            assert [x.shape for x in cells] == [(320, cfg.hidden)] * 3
        with ad.no_grad():
            assert run_streams(first, params, cfg, 3, emit) is None


class TestSampleRows:
    """The vectorised stochastic pick against ``Generator.choice`` per row."""

    def test_picks_and_generator_state_match_the_choice_loop(self):
        rng = np.random.default_rng(40)
        for trial in range(60):
            vocab = int(rng.integers(2, 40))
            logits = rng.normal(size=(int(rng.integers(1, 50)), vocab)) * rng.uniform(0.1, 8)
            logits[rng.random(logits.shape) < 0.3] = -np.inf      # zero-probability entries
            logits[:, int(rng.integers(vocab))] = 0.0             # at least one live entry
            probs = ad.softmax(logits)
            loop, vec = np.random.default_rng(trial), np.random.default_rng(trial)
            want = [int(loop.choice(vocab, p=row)) for row in probs]
            got = sample_rows(probs, vec.random(len(probs)))
            assert got.tolist() == want
            assert loop.bit_generator.state == vec.bit_generator.state
            assert np.all(probs[np.arange(len(probs)), got] > 0.0)

    def test_one_hot_rows_pick_their_word(self):
        probs = np.eye(5)[[3, 0, 4]]
        assert sample_rows(probs, np.array([0.0, 0.5, 0.999])).tolist() == [3, 0, 4]


class TestBatchInvariance:
    """A pair decoded or scored alone equals the same pair inside any batch,
    bit for bit: greedy tokens, word_probs, POS, teacher-forced POS and
    retrieval scores. The batch spans more than one kernel block."""

    @staticmethod
    def model():
        cfg = tiny_config(14, 12, name="mttsnet,rem")
        params = fresh_params(cfg, seed=12)
        params["head.word.w"].data *= 6.0
        params["head.word.b"].data[END_ID] += 1.0
        return params, cfg

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n_pairs=st.integers(1, 300), seed=st.integers(0, 2**16),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6))
    # Above BLOCK rows, so the subject and object streams share states.
    @example(n_pairs=300, seed=1601, picks=[0, 17, 256, 299])
    def test_pair_alone_equals_pair_in_batch(self, n_pairs, seed, picks):
        params, cfg = self.model()
        batch = random_pair_batch(cfg, n_pairs=n_pairs, n_regions=9, seed=seed)
        rows = sorted({p % n_pairs for p in picks})
        full = decode_batch(batch, params, cfg)
        query = [4, 7, 5, END_ID]
        score, best, probs = retrieval_score(query, batch, params, cfg)
        assert retrieval_score(query, pair_rows(batch, [best]), params, cfg) == (score, 0, probs)
        with ad.no_grad():
            full_tags = predicted_pos_tags([query] * n_pairs,
                                           encode_pair_batch(batch, params, cfg), params, cfg)
        for subset in ([rows[0]], rows):
            sub = pair_rows(batch, subset)
            assert decode_batch(sub, params, cfg) == [full[k] for k in subset]
            with ad.no_grad():
                tags = predicted_pos_tags([query] * len(subset),
                                          encode_pair_batch(sub, params, cfg), params, cfg)
            assert np.array_equal(tags, full_tags[subset])
            _, _, sub_probs = retrieval_score(query, sub, params, cfg)
            # The subset's best pair scores exactly as in the full batch.
            assert any(sub_probs == retrieval_score(query, pair_rows(batch, [k]), params, cfg)[2]
                       for k in subset)

    def test_stochastic_dense_batch_equals_pairs_decoded_alone(self, monkeypatch):
        """A batch of more than BLOCK pairs, whose subject and object streams
        share states, samples each pair as that pair decoded alone does when
        it is given the same uniform draws."""
        params, cfg = self.model()
        batch = random_pair_batch(cfg, n_pairs=300, n_regions=9, seed=5)
        groups = []
        real_regroup = relcap.model.regroup

        def counting(states, words, vocab):
            out = real_regroup(states, words, vocab)
            groups.append(len(out[1]))
            return out

        monkeypatch.setattr(relcap.model, "regroup", counting)
        draws = []
        rng = np.random.default_rng(61)

        class Recording:
            def random(self, size):
                draws.append(rng.random(size))
                return draws[-1]

        full = decode_batch(batch, params, cfg, mode="stochastic", rng=Recording())
        assert len(full) > relcap.model.BLOCK
        assert groups and max(groups) < len(full)      # states were shared
        steps = np.array([len(p.word_probs) for p in full])
        assert len({p.confidence for p in full}) > 100 and len(set(steps.tolist())) >= 3

        class Scripted:
            def __init__(self, values):
                self.values = list(values)

            def random(self, size):
                assert size == 1
                return np.array([self.values.pop(0)])

        for p in range(0, len(full), 7):
            # Row p draws at every step it decodes, in row order among the
            # rows still decoding at that step.
            mine = [draws[t][np.count_nonzero(steps[:p] > t)] for t in range(steps[p])]
            scripted = Scripted(mine)
            alone = decode_batch(pair_rows(batch, [p]), params, cfg, mode="stochastic",
                                 rng=scripted)
            assert alone == [full[p]] and not scripted.values


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
        batch = pair_rows(one_pair(), [0, 0])
        codes = encode_pair_batch(batch, params, cfg)
        targets = np.array([[4, 5, END_ID], [6, END_ID, 0]])
        hidden = stream_states(codes, targets, params, cfg).data
        assert hidden.shape == (3 * 2, 3 * cfg.hidden)
        first = [per_pair(x) for x in stream_inputs(codes, params, cfg)]
        zeros = np.zeros(cfg.hidden)
        for row in range(2):
            state, prev = [(zeros, zeros)] * 3, None
            for t in range(3):
                state, want = reference_states([x[row] for x in first], prev, state, params, cfg)
                assert np.max(np.abs(hidden[t * 2 + row] - want)) < 1e-12
                prev = targets[row, t]

    @pytest.mark.parametrize("name,n_pairs", [
        pytest.param("mttsnet", 9, id="triple"), pytest.param("union,mtl", 9, id="single"),
        pytest.param("mttsnet,mtl", 300, id="blocked")])
    def test_logits_bitwise_equal_with_tape_on_and_off(self, name, n_pairs):
        # 300 pairs run untaped in two kernel blocks, taped in one.
        cfg = tiny_config(14, 10, name=name)
        params = fresh_params(cfg, seed=7)
        batch = random_pair_batch(cfg, n_pairs=n_pairs, seed=3)
        targets = np.random.default_rng(4).integers(0, cfg.vocab_size, (n_pairs, 5))

        def head_logits(hidden):
            return [ad.affine(hidden, params[f"head.{k}.w"], params[f"head.{k}.b"])
                    for k in ("word", "pos")]

        taped = stream_states(encode_pair_batch(batch, params, cfg), targets, params, cfg)
        with ad.no_grad():
            codes = encode_pair_batch(batch, params, cfg)
            free = stream_states(codes, targets, params, cfg)
            blocks = []
            run_streams(stream_inputs(codes, params, cfg), params, cfg, 5,
                        lambda t, lo, feat: blocks.append(feat.copy())
                        or targets[lo:lo + len(feat), t])
            free_logits = head_logits(free)
        assert taped._parents and not free._parents
        # emit gets float64 rows holding the float32 states exactly.
        assert all(block.dtype == np.float64 for block in blocks)
        assert all(np.array_equal(block.astype(np.float32), block) for block in blocks)
        assert np.array_equal(free.data, np.concatenate(blocks))
        # The taped run is float64, the untaped one float32.
        assert np.max(np.abs(taped.data - free.data)) <= state_error_budget(cfg, 5)
        # The heads are float64 either way: recorded over the untaped states
        # they give the unrecorded logits bit for bit.
        for recorded, plain in zip(head_logits(free), free_logits):
            assert recorded._parents
            assert np.array_equal(recorded.data, plain.data)

    def test_uniform_model_gives_log_vocab(self):
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        for name in ("head.word.w", "head.word.b"):
            params[name].data[...] = 0.0
        batch = one_pair()
        l_cap, _ = caption_losses(encode_pair_batch(batch, params, cfg),
                                  [[4, 5, END_ID]], [[S, P, O]], params, cfg)
        assert float(l_cap.data) == pytest.approx(math.log(20.0), abs=1e-12)

    def test_empty_caption_rejected(self):
        cfg = tiny_config(14, 20)
        batch = one_pair()
        params = fresh_params(cfg)
        with pytest.raises(ValueError):
            caption_losses(encode_pair_batch(batch, params, cfg),
                           [[]], [[]], params, cfg)


def loss_fixture(name="mttsnet", seed=0, rig_perfect=False):
    cfg = tiny_config(6, 10, name=name)
    params = fresh_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 50)
    gt_boxes = box_rows([Box(10, 10, 6, 6), Box(30, 10, 6, 6)])
    prop_boxes = box_rows([Box(10, 10, 6, 6), Box(30, 10, 6, 6), Box(60, 60, 6, 6)])
    labels = np.array([0, 1, NEGATIVE])
    features = rng.normal(size=(3, 6))
    union_features, geos = zip(*[(rng.normal(size=(1, 6)), rng.normal(size=6))
                                 for _ in range(2)])
    pairs = PairBatch(features=features, subject_index=[0, 1], object_index=[1, 0],
                      union_features=np.vstack(union_features), geos=np.vstack(geos))
    batch = ImageBatch(pairs=pairs, token_ids=[[4, 6, END_ID], [5, END_ID]],
                       tags=[[S, P, O], [S, O]], prop_boxes=prop_boxes,
                       gt_boxes=gt_boxes, labels=labels)
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
        batch, params, cfg = loss_fixture(name="tsnet")
        _, report = total_loss(batch, params, cfg)
        assert report.l_pos == 0.0

    def test_no_positive_pairs_flagged(self):
        batch, params, cfg = loss_fixture()
        batch = ImageBatch(pairs=pair_rows(batch.pairs, []), token_ids=[], tags=[],
                           prop_boxes=batch.prop_boxes, gt_boxes=batch.gt_boxes,
                           labels=np.full(3, NEGATIVE))
        total, report = total_loss(batch, params, cfg)
        assert report.no_positive_pairs
        assert report.l_cap == report.l_pos == report.l_box == 0.0
        ad.backward(total)  # must be a valid (constant) graph

    def test_detection_and_box_terms_equal_scalar_reference(self):
        # an ignored proposal, and positives matched out of GT order
        batch, params, cfg = loss_fixture()
        props = [Box(29, 11, 6, 7), Box(60, 60, 6, 6), Box(11, 9, 5, 9)]
        gts = [Box(10, 10, 6, 8), Box(30, 10, 5, 6)]
        labels = [1, IGNORE, 0]
        batch = dataclasses.replace(batch, prop_boxes=box_rows(props), gt_boxes=box_rows(gts),
                                    labels=np.array(labels))
        _, report = total_loss(batch, params, cfg)
        x, _ = encode_regions(batch.pairs.features, params, cfg)
        z = ad.affine(x, params["det.w"], params["det.b"]).data.reshape(-1)
        labeled = [i for i, g in enumerate(labels) if g != IGNORE]
        want_det = sum(np.logaddexp(0.0, z[i]) - (labels[i] >= 0) * z[i] for i in labeled)
        assert report.l_det == pytest.approx(want_det / len(labeled), rel=1e-12)
        pred = ad.affine(x, params["box.w"], params["box.b"]).data
        positives = [i for i, g in enumerate(labels) if g >= 0]
        want_box = 0.0
        for i in positives:
            p, g = props[i], gts[labels[i]]
            d = pred[i] - [(p.x - g.x) / g.w, (p.y - g.y) / g.h,
                           math.log(p.w / g.w), math.log(p.h / g.h)]
            want_box += np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5).sum()
        assert report.l_box == pytest.approx(want_box / len(positives), rel=1e-12)

    def test_nearly_perfect_model_is_nearly_zero(self):
        batch, params, cfg = loss_fixture(rig_perfect=True)
        # force the caption head onto the targets with a chain rig instead:
        # here just check det/box are exactly zero-able
        _, report = total_loss(batch, params, cfg)
        assert report.l_box == 0.0
        assert report.l_det == pytest.approx(math.log(2.0), abs=1e-12)  # logits 0

    def test_gradients_flow_to_every_group(self):
        batch, params, cfg = loss_fixture(name="mttsnet,rem")
        for p in params.values():
            zero_grad(p)
        total, _ = total_loss(batch, params, cfg)
        ad.backward(total)
        for name in params:
            assert np.any(params[name].grad != 0.0), f"no gradient reached {name}"


# ---------------------------------------------------------------------------
# weight sharing, importance traces, gradient checks, checkpoints
# ---------------------------------------------------------------------------

class TestWeightSharing:
    def test_store_contains_single_first_fc(self):
        params = fresh_params(tiny_config(14, 20))
        shared = [n for n in params if n.startswith("enc.first")]
        assert shared == ["enc.first.w", "enc.first.b"]

    def test_shared_parameter_receives_gradients_from_both_paths(self):
        cfg = tiny_config(14, 20)
        params = fresh_params(cfg)
        batch = one_pair()
        for which in ("subject", "object"):
            for p in params.values():
                zero_grad(p)
            target, _ = encode_pair_batch(batch, params, cfg)[which]
            loss = ad.matmul(ad.matmul(Tensor(np.ones((1, 1))), target),
                             Tensor(np.ones((cfg.code_width, 1))))
            ad.backward(loss)
            assert np.any(params["enc.first.w"].grad != 0.0), which


class TestImportanceTrace:
    def test_columns_sum_to_zero(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=2)
        batch = one_pair()
        trace = importance_trace(encode_pair_batch(batch, params, cfg),
                                 [4, 5, 6, END_ID], params, cfg)
        assert trace.shape == (4, 3)
        assert np.all(np.abs(trace.sum(axis=0)) < 1e-9)

    def test_zero_weight_model_traces_zero(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg)
        for name in params:
            params[name].data[...] = 0.0
        batch = one_pair()
        trace = importance_trace(encode_pair_batch(batch, params, cfg),
                                 [4, END_ID], params, cfg)
        assert np.array_equal(trace, np.zeros((2, 3)))

    def test_single_stream_rejected(self):
        cfg = tiny_config(14, 10, name="union")
        batch = one_pair()
        params = fresh_params(cfg)
        with pytest.raises(ValueError):
            importance_trace(encode_pair_batch(batch, params, cfg),
                             [4, END_ID], params, cfg)


class TestGradientCheck:
    def test_full_model_small_instance(self):
        batch, params, cfg = loss_fixture(name="mttsnet,rem")

        def forward():
            loss, _ = total_loss(batch, params, cfg)
            return loss

        err = finite_diff_check(forward, params.values(), eps=1e-5,
                                max_coords_per_param=3,
                                rng=np.random.default_rng(0))
        assert err < 1e-6


class TestCheckpoints:
    def test_roundtrip_and_determinism(self, tmp_path):
        cfg = tiny_config(14, 9, name="mttsnet,rem")
        params = fresh_params(cfg, seed=11)
        vocab = Vocabulary(words=["a", "b", "c", "d", "e"])
        opt = ad.OptimizerState(params, lr=0.01)
        rng = np.random.default_rng(12)
        for _ in range(5):
            params.grad[...] = rng.normal(size=params.grad.shape)
            ad.adam_step(params, opt)
        p1, p2 = tmp_path / "a.rckpt", tmp_path / "b.rckpt"
        save_model(str(p1), params, cfg, vocab, optimizer=opt)
        save_model(str(p2), params, cfg, vocab, optimizer=opt)
        assert p1.read_bytes() == p2.read_bytes()
        params2, cfg2, vocab2, opt2, _ = load_model(str(p1))
        assert cfg2 == cfg
        assert vocab2.words == vocab.words
        assert opt2.step_count == 5
        for name in params:
            assert np.array_equal(params2[name].data, params[name].data)
        assert np.array_equal(opt2.m, opt.m) and np.array_equal(opt2.v, opt.v)
        # One more step from the reloaded state equals the in-memory step.
        grad = rng.normal(size=params.grad.shape)
        for store, state in ((params, opt), (params2, opt2)):
            store.grad[...] = grad
            ad.adam_step(store, state)
        assert params2.data.tobytes() == params.data.tobytes()
        assert opt2.m.tobytes() == opt.m.tobytes() and opt2.v.tobytes() == opt.v.tobytes()


class TestFiniteness:
    def test_forward_values_finite_on_finite_inputs(self):
        rng = np.random.default_rng(77)
        cfg = tiny_config(14, 12, name="mttsnet,rem")
        params = fresh_params(cfg, seed=77)
        batch = PairBatch(features=rng.uniform(-5, 5, (5, 14)),
                          subject_index=[0, 3], object_index=[2, 4],
                          union_features=rng.uniform(-5, 5, (2, 14)),
                          geos=rng.uniform(-3, 3, (2, 6)))
        codes = encode_pair_batch(batch, params, cfg)
        hidden = []
        tape = run_streams(stream_inputs(codes, params, cfg), params, cfg, 1,
                           lambda t, lo, feat: hidden.append(feat.copy()))
        word_logits, pos_logits = (ad.affine(Tensor(hidden[0]), params[f"head.{k}.w"],
                                             params[f"head.{k}.b"]) for k in ("word", "pos"))
        for t in (word_logits, pos_logits, *(x for x, _ in codes.values())):
            assert np.all(np.isfinite(t.data))
        gates, cells = tape[0]
        assert all(np.all(np.isfinite(z)) for z in gates)
        assert np.all(np.isfinite(hidden[0])) and np.all(np.isfinite(cells))
