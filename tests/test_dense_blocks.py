"""Untaped passes keep their per-pair temporaries within one BLOCK of rows:
``encode_pair_batch`` computes union and coordinate codes per block,
``run_streams`` each block's step-0 input term, and the softmaxes take their
row max from one column pass. Each is checked bit for bit against the
whole-batch form, and the encoding's memory peak against a bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_params, pair_rows, per_pair, per_row_decode, tiny_config
from relcap import autodiff as ad
from relcap.apps import retrieval_scores
from relcap.model import (BLOCK, MODEL_PRESETS, ModelConfig, PairBatch, decode_arrays,
                          encode_pair_batch)

ALL_PRESETS = [base + rem for base in MODEL_PRESETS for rem in ("", ",rem")]
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


def last_axis_softmax(x):
    """Reference softmax: the row max reduced over the last axis."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def last_axis_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def assert_softmaxes_match(x):
    with np.errstate(all="ignore"):
        assert ad.softmax(x).tobytes() == last_axis_softmax(x).tobytes()
        if x.ndim == 2:
            want = last_axis_log_softmax(x)
            assert ad.log_softmax(x).tobytes() == want.tobytes()
            for column in range(x.shape[1]):
                assert ad.log_softmax(x, column).tobytes() == want[:, column].tobytes()


class TestColumnPassMax:
    def test_special_rows(self):
        rows = [[0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [-0.0, -np.inf, -np.inf],
                [0.0, -0.0, 0.0], [np.inf, 1.0, np.inf], [-np.inf, -np.inf, -np.inf],
                [np.nan, 1.0, 2.0], [1.0, np.nan, np.inf], [2.0, 2.0, 2.0], [3.0, -1.0, 3.0]]
        x = np.array(rows)
        assert_softmaxes_match(x)
        for row in x:
            assert_softmaxes_match(row[None])
        assert_softmaxes_match(np.stack([x[:3, :3], x[3:6, :3], x[6:9, :3]]))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(1, 20), (256, 20), (256, 1), (1, 1), (7, 300),
                                  (5, 33, 33), (1, 4, 4), (3, 1, 1)]),
           seed=st.integers(0, 2 ** 16), ties=st.booleans(),
           specials=st.lists(st.sampled_from(SPECIALS), max_size=4),
           density=st.sampled_from([0.01, 0.2, 0.9]))
    @example(shape=(256, 20), seed=0, ties=True, specials=[0.0, -0.0], density=0.9)
    @example(shape=(4, 50, 50), seed=1, ties=False, specials=[np.nan, -np.inf], density=0.01)
    def test_equals_the_last_axis_max(self, shape, seed, ties, specials, density):
        """Tied logits, signed zeros, infinities and NaN, in 1- and 256-row
        blocks and REM's (images, n, n) stacks."""
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=8.0, size=shape)
        if ties:
            x = np.round(x / 4.0)
        if specials:
            where = rng.random(shape) < density
            x[where] = rng.choice(specials, int(where.sum()))
        assert_softmaxes_match(x)


def random_batch(cfg, n_pairs, n_regions=9, seed=0, features=None):
    rng = np.random.default_rng(seed)
    if features is None:
        features = rng.normal(size=(n_regions, cfg.feature_width))
    return PairBatch(features, rng.integers(0, len(features), n_pairs),
                     rng.integers(0, len(features), n_pairs),
                     rng.normal(size=(n_pairs, cfg.feature_width)),
                     rng.normal(size=(n_pairs, 6)))


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_untaped_block_codes_equal_the_taped_whole_batch_codes(name):
    cfg = tiny_config(14, 10, name=name)
    params = fresh_params(cfg, seed=3)
    for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        batch = random_batch(cfg, n, seed=n)
        taped = encode_pair_batch(batch, params, cfg)
        with ad.no_grad():
            untaped = encode_pair_batch(batch, params, cfg)
        assert list(untaped) == list(taped)
        for kind, code in taped.items():
            assert per_pair(untaped[kind]).tobytes() == per_pair(code).tobytes(), (n, kind)


DENSE_PRESETS = ["mttsnet,mtl,rem", "subj-obj-coord", "union,mtl"]


def sharpened(cfg, seed):
    """Parameters whose greedy captions vary from pair to pair."""
    params = fresh_params(cfg, seed=seed)
    params["head.word.w"].data *= 6.0
    return params


@pytest.mark.parametrize("name", DENSE_PRESETS)
def test_decode_above_block_equals_passes_of_at_most_block_rows(name):
    cfg = tiny_config(14, 12, name=name)
    params = sharpened(cfg, seed=21)
    n, part = 2 * BLOCK + 1, 200
    batch = random_batch(cfg, n, seed=4)
    parts = [per_row_decode(pair_rows(batch, list(range(lo, min(lo + part, n)))), params, cfg)
             for lo in range(0, n, part)]
    for got, want in zip(decode_arrays(batch, params, cfg), zip(*parts), strict=True):
        assert got.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("name", DENSE_PRESETS)
def test_retrieval_above_block_equals_each_image_scored_alone(name):
    cfg = tiny_config(14, 12, name=name)
    params = sharpened(cfg, seed=22)
    images = [random_batch(cfg, n, n_regions=7, seed=n) for n in (200, 120, 197)]
    query = [4, 7, 5, 3]

    def scores(batch):
        with ad.no_grad():
            codes = encode_pair_batch(batch, params, cfg)
        return retrieval_scores(query, batch, codes, params, cfg)

    stacked = PairBatch.stack(images)
    assert len(stacked) > 2 * BLOCK
    assert scores(stacked) == [scores(image)[0] for image in images]


def test_untaped_dense_encode_peak_stays_within_block_sized_temporaries():
    """2,450 pairs of 50 regions at the default widths: whole-batch float64
    union and coordinate temporaries peak at about 6.7 MiB, the block-wise
    pass at about 3.6 MiB (the three final codes are 2.7 of it)."""
    cfg = ModelConfig(14, 20).validate()
    params = fresh_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    subject, obj = np.nonzero(~np.eye(50, dtype=bool))
    batch = random_batch(cfg, len(subject), features=rng.normal(size=(50, cfg.feature_width)))
    batch.subject_index, batch.object_index = subject, obj
    with ad.no_grad():
        tracemalloc.start()
        try:
            encode_pair_batch(batch, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 5.0 * 2 ** 20, peak / 2 ** 20
