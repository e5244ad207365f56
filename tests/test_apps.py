"""Caption graphs and sentence-based retrieval."""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import (block_retrieval_scores, fresh_params, regroup_inputs, retrieval_score,
                      same_groups, tiny_config)
from relcap import apps, model
from relcap.apps import (RetrievalProtocol, build_caption_graph, export_graph, retrieval_eval,
                         retrieval_scores)
from relcap import autodiff as ad
from relcap.errors import ConfigError, DataError
from relcap.geometry import Box
from relcap.metrics import PredictionRecord
from relcap.model import BLOCK, PairBatch, encode_pair_batch

from test_model import chain_batch, rigged_chain_model, split_calls


def prediction(subject_box, object_box, tokens, pos, confidence, image_id=0):
    return PredictionRecord(
        image_id=image_id, subject_box=subject_box, object_box=object_box,
        tokens=tokens, pos=pos,
        word_probs=[confidence ** (1 / len(tokens))] * len(tokens),
        confidence=float(np.prod([confidence ** (1 / len(tokens))] * len(tokens))))


def simple_pred(sx, ox, subject, verb, obj, confidence, image_id=0, sy=10, oy=10):
    tokens = [subject, verb, obj]
    pos = ["SUBJ", "PRED", "OBJ"]
    return prediction(Box(sx, sy, 6, 6), Box(ox, oy, 6, 6), tokens, pos,
                      confidence, image_id)


class TestCaptionGraph:
    def test_single_prediction_two_nodes_one_edge(self):
        graph = build_caption_graph([simple_pred(10, 30, "cat", "near", "dog", 0.9)])
        assert len(graph.nodes) == 2
        assert len(graph.edges) == 1
        assert graph.edges[0].phrase == "near"

    def test_shared_subject_box_merges(self):
        preds = [simple_pred(10, 30, "cat", "near", "dog", 0.9),
                 simple_pred(10, 50, "cat", "above", "bird", 0.8)]
        graph = build_caption_graph(preds)
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 2

    def test_four_caption_fixture_matches_hand_adjacency(self):
        preds = [
            simple_pred(10, 30, "cat", "near", "dog", 0.9),
            simple_pred(30, 10, "dog", "near", "cat", 0.8),
            simple_pred(10, 50, "cat", "above", "bird", 0.7),
            simple_pred(50, 30, "bird", "below", "dog", 0.6),
        ]
        graph = build_caption_graph(preds)
        phrases = {n.id: n.phrase for n in graph.nodes}
        adjacency = {(phrases[e.source], phrases[e.target]): e.phrase
                     for e in graph.edges}
        assert adjacency == {
            ("cat", "dog"): "near",
            ("dog", "cat"): "near",
            ("cat", "bird"): "above",
            ("bird", "dog"): "below",
        }
        assert len(graph.nodes) == 3

    def test_equal_overlap_merges_into_the_earlier_node(self):
        # Box(10.5, ...) overlaps both subject nodes at IoU 95/105, bit for bit;
        # they overlap each other at 90/110, below the 0.9 merge threshold.
        preds = [prediction(Box(10, 10, 10, 10), Box(60, 10, 6, 6), ["cat", "near", "dog"],
                            ["SUBJ", "PRED", "OBJ"], 0.9),
                 prediction(Box(11, 10, 10, 10), Box(60, 40, 6, 6), ["cat", "near", "bird"],
                            ["SUBJ", "PRED", "OBJ"], 0.8),
                 prediction(Box(10.5, 10, 10, 10), Box(60, 70, 6, 6), ["cat", "near", "fish"],
                            ["SUBJ", "PRED", "OBJ"], 0.7)]
        graph = build_caption_graph(preds)
        assert [n.phrase for n in graph.nodes] == ["cat", "dog", "cat", "bird", "fish"]
        assert [(e.source, e.target) for e in graph.edges] == [(0, 1), (2, 3), (0, 4)]

    def test_node_phrase_from_highest_confidence(self):
        preds = [simple_pred(10, 30, "kitten", "near", "dog", 0.95),
                 simple_pred(10, 50, "cat", "above", "bird", 0.5)]
        graph = build_caption_graph(preds)
        subject_node = next(n for n in graph.nodes if n.box == Box(10, 10, 6, 6))
        assert subject_node.phrase == "kitten"

    def test_parallel_edges_keep_max_confidence(self):
        preds = [simple_pred(10, 30, "cat", "near", "dog", 0.9),
                 simple_pred(10, 30, "cat", "beside", "dog", 0.4)]
        graph = build_caption_graph(preds)
        assert len(graph.edges) == 1
        assert graph.edges[0].phrase == "near"
        assert graph.edges[0].confidence == pytest.approx(0.9)

    def test_missing_pred_span_skipped_with_warning(self):
        bad = prediction(Box(10, 10, 6, 6), Box(30, 10, 6, 6),
                         ["cat", "dog"], ["SUBJ", "OBJ"], 0.9)
        with pytest.warns(UserWarning, match="skipped"):
            graph = build_caption_graph([bad])
        assert graph.nodes == [] and graph.edges == []

    def test_node_and_edge_count_bounds(self):
        preds = [simple_pred(10 * i, 10 * i + 30, "a", "b", "c", 0.5, sy=10 * i,
                             oy=10 * i) for i in range(1, 5)]
        graph = build_caption_graph(preds)
        assert len(graph.nodes) <= 2 * len(preds)
        assert len(graph.edges) <= len(preds)


class TestGraphExport:
    def test_empty_graph_valid_documents(self):
        graph = build_caption_graph([])
        dot = export_graph(graph, "dot")
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert json.loads(export_graph(graph, "json")) == {"nodes": [], "edges": []}

    def test_one_edge_dot_statement(self):
        graph = build_caption_graph([simple_pred(10, 30, "cat", "near", "dog", 0.9)])
        dot = export_graph(graph, "dot")
        assert dot.count("->") == 1
        assert '[label="near"]' in dot

    def test_json_roundtrip_structural_equality(self):
        graph = build_caption_graph([
            simple_pred(10, 30, "cat", "near", "dog", 0.9),
            simple_pred(10, 50, "cat", "above", "bird", 0.8)])
        doc = json.loads(export_graph(graph, "json"))
        assert [(n["id"], n["phrase"], Box.from_json(n["box"]), n["confidence"])
                for n in doc["nodes"]] == [(n.id, n.phrase, n.box, n.confidence)
                                           for n in graph.nodes]
        assert [(e["source"], e["target"], e["phrase"], e["confidence"])
                for e in doc["edges"]] == [(e.source, e.target, e.phrase, e.confidence)
                                           for e in graph.edges]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_graph(build_caption_graph([]), "xml")


class TestRetrievalScore:
    def test_rigged_model_scores_its_sequence_near_one(self):
        params, cfg = rigged_chain_model([4, 5, 6], gain=200.0)
        score, best, probs = retrieval_score([4, 5, 6], chain_batch(cfg), params, cfg)
        assert score == pytest.approx(1.0, abs=1e-9)
        assert best == 0
        assert len(probs) == 3

    def test_monotone_in_query_length(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=5)
        rng = np.random.default_rng(0)
        batch = PairBatch(features=rng.normal(size=(3, 14)),
                          subject_index=[0, 1], object_index=[1, 2],
                          union_features=rng.normal(size=(2, 14)),
                          geos=rng.normal(size=(2, 6)))
        query = [4, 5, 6, 7, 8]
        scores = [retrieval_score(query[:n], batch, params, cfg)[0]
                  for n in range(1, len(query) + 1)]
        for shorter, longer in zip(scores, scores[1:]):
            assert longer <= shorter + 1e-15

    def test_empty_query_rejected(self):
        cfg = tiny_config(14, 10)
        with pytest.raises(ValueError):
            retrieval_score([], chain_batch(cfg), fresh_params(cfg), cfg)

    def test_max_over_pairs_matches_per_pair_recomputation(self):
        cfg = tiny_config(14, 10)
        params = fresh_params(cfg, seed=6)
        rng = np.random.default_rng(1)
        features = rng.normal(size=(4, 14))
        pair_indices = [(0, 1), (1, 2), (2, 3), (3, 0)]
        union_features = rng.normal(size=(4, 14))
        geos = rng.normal(size=(4, 6))
        batch = PairBatch(features=features,
                          subject_index=[i for i, _ in pair_indices],
                          object_index=[j for _, j in pair_indices],
                          union_features=union_features, geos=geos)
        query = [4, 7, 5]
        score, best, _ = retrieval_score(query, batch, params, cfg)
        # brute force: score each pair in a singleton batch
        singles = []
        for k in range(len(pair_indices)):
            one = PairBatch(features=features,
                            subject_index=[pair_indices[k][0]],
                            object_index=[pair_indices[k][1]],
                            union_features=union_features[k:k + 1],
                            geos=geos[k:k + 1])
            singles.append(retrieval_score(query, one, params, cfg)[0])
        assert score == pytest.approx(max(singles), rel=1e-12)
        assert best == int(np.argmax(singles))


def random_batch(cfg, n_pairs, rng):
    """``n_pairs`` random (subject, object) pairs over 6 random regions."""
    return PairBatch(features=rng.normal(size=(6, cfg.feature_width)),
                     subject_index=list(rng.integers(0, 6, n_pairs)),
                     object_index=list(rng.integers(0, 6, n_pairs)),
                     union_features=rng.normal(size=(n_pairs, cfg.feature_width)),
                     geos=rng.normal(size=(n_pairs, 6)))


class TestGroupedRetrieval:
    # One pass of 610 rows: [300] crosses row 256, [215] crosses row 512,
    # [1, 17] ends mid-tile and [33, 1] ends the last, short block.
    SIZES = (1, 17, 300, 40, 1, 215, 2, 33, 1)

    def test_segments_across_block_edges_score_as_the_block_reference(self, monkeypatch):
        cfg = tiny_config(14, 10, name="mttsnet,mtl,rem")
        params = fresh_params(cfg, seed=4)
        rng = np.random.default_rng(11)
        batches = [random_batch(cfg, n, rng) for n in self.SIZES]
        stacked = PairBatch.stack(batches)
        with ad.no_grad():
            codes = encode_pair_batch(stacked, params, cfg)
        ends = np.cumsum(self.SIZES)
        assert BLOCK == 256                  # SIZES are chosen around it
        assert any(lo < 256 < hi for lo, hi in zip(ends - self.SIZES, ends))
        assert any(lo < 512 < hi for lo, hi in zip(ends - self.SIZES, ends))
        regroup, shared = model.regroup, []

        def counting(states, words, vocab):
            got = regroup(states, words, vocab)
            shared.append(len(got[1]) < len(states))        # fewer states than rows
            return got

        monkeypatch.setattr(model, "regroup", counting)
        query = list(rng.integers(0, cfg.vocab_size, cfg.max_len))
        scores = retrieval_scores(query, stacked, codes, params, cfg)
        assert scores == block_retrieval_scores(query, batches, params, cfg)
        assert shared and all(shared)
        assert [len(probs) for _, _, probs in scores] == [cfg.max_len] * len(self.SIZES)

    def test_pass_copies_states_only_to_drop_regions_without_rows(self, monkeypatch):
        # Every row is fed the query's word, so no state ever splits: the
        # shared states keep their rows, but for step 1's copy, one per
        # shared stream, that keeps the regions that start a row. Random
        # pairs leave some regions without a row; all pairs leave none.
        cfg = tiny_config(14, 10, name="mttsnet,mtl,rem")
        params = fresh_params(cfg, seed=4)
        rng = np.random.default_rng(12)
        query = list(rng.integers(0, cfg.vocab_size, cfg.max_len))
        sparse = [random_batch(cfg, n, rng) for n in self.SIZES]
        every = [PairBatch(rng.normal(size=(k, cfg.feature_width)),
                           *np.nonzero(~np.eye(k, dtype=bool)),
                           rng.normal(size=(k * k - k, cfg.feature_width)),
                           rng.normal(size=(k * k - k, 6))) for k in (2, 5, 17, 3, 9)]
        for batches, copies in ((sparse, True), (every, False)):
            stacked = PairBatch.stack(batches)
            assert len(stacked) > BLOCK
            with ad.no_grad():
                codes = encode_pair_batch(stacked, params, cfg)
            gathered = split_calls(monkeypatch)
            scores, maps = regroup_inputs(
                monkeypatch, lambda: retrieval_scores(query, stacked, codes, params, cfg))
            used = [len(np.unique(x)) for x in (stacked.subject_index, stacked.object_index)]
            assert len(maps) == 2 * (cfg.max_len - 1) and bool(gathered) == copies
            assert gathered == [k + -k % ad.TILE for k in used if k < len(stacked.features)]
            assert scores == block_retrieval_scores(query, batches, params, cfg)

    @pytest.mark.parametrize("name", ["union", "union-coord", "subj-obj", "subj-obj-coord",
                                      "uuu", "tsnet,rem", "mttsnet,mtl"])
    def test_grouped_equals_per_image_bit_for_bit(self, name):
        cfg = tiny_config(14, 10, name=name)
        params = fresh_params(cfg, seed=3)
        rng = np.random.default_rng(7)
        batches = [random_batch(cfg, n, rng) for n in self.SIZES]
        stacked = PairBatch.stack(batches)
        with ad.no_grad():
            codes = encode_pair_batch(stacked, params, cfg)
        for length in (1, 4, cfg.max_len):
            query = list(rng.integers(0, cfg.vocab_size, length))
            scores = retrieval_scores(query, stacked, codes, params, cfg)
            assert scores == block_retrieval_scores(query, batches, params, cfg), (name, length)
            assert scores == [retrieval_score(query, b, params, cfg) for b in batches]
            assert all(0 <= best < n for (_, best, _), n in zip(scores, self.SIZES))

    def test_images_keep_their_own_regions(self, monkeypatch):
        # Two candidates with one batch: byte-equal codes, but each image's
        # regions start from their own states.
        cfg = tiny_config(14, 10, name="mttsnet,mtl")
        params = fresh_params(cfg, seed=4)
        batch = random_batch(cfg, 200, np.random.default_rng(5))
        stacked = PairBatch.stack([batch, batch])
        with ad.no_grad():
            codes = encode_pair_batch(stacked, params, cfg)
        scores, maps = regroup_inputs(
            monkeypatch, lambda: retrieval_scores([4, 7], stacked, codes, params, cfg))
        assert scores[0] == scores[1] and len(maps) == 2
        for states, region in zip(maps, (batch.subject_index, batch.object_index)):
            assert same_groups(states, np.concatenate([region, region + len(batch.features)]))

    def test_eval_encodes_each_candidate_once(self, toy_world_small, monkeypatch):
        _, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        params = fresh_params(cfg, seed=2)
        scorables, captions = toy_scorables(cfg, params, 5, np.random.default_rng(3))
        calls = []

        def counting(batch, *args, **kwargs):
            calls.append(batch)
            return encode_pair_batch(batch, *args, **kwargs)

        monkeypatch.setattr(apps, "encode_pair_batch", counting)
        result = retrieval_eval(scorables, captions, vocab, params, cfg,
                                RetrievalProtocol(num_images=5, num_query_images=2,
                                                  captions_per_image=2, ks=(1,),
                                                  rounds=2), seed=0)
        assert result["num_queries"] == 8
        assert len(calls) == 1
        want = PairBatch.stack([b for _, b in scorables])
        for field in dataclasses.fields(PairBatch):
            got, expected = getattr(calls[0], field.name), getattr(want, field.name)
            assert np.array_equal(got, expected), field.name


def toy_scorables(cfg, params, n_images, rng):
    scorables, captions = [], {}
    for image_id in range(n_images):
        features = rng.normal(size=(3, cfg.feature_width))
        batch = PairBatch(features=features, subject_index=[0, 1], object_index=[1, 2],
                          union_features=rng.normal(size=(2, cfg.feature_width)),
                          geos=rng.normal(size=(2, 6)))
        scorables.append((image_id, batch))
        captions[image_id] = [["red", "square"], ["blue", "circle"]]
    return scorables, captions


class TestRetrievalEval:
    def test_k_at_least_pool_size_gives_recall_one(self, toy_world_small):
        _, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        params = fresh_params(cfg, seed=2)
        rng = np.random.default_rng(3)
        scorables, captions = toy_scorables(cfg, params, 5, rng)
        result = retrieval_eval(scorables, captions, vocab, params, cfg,
                                RetrievalProtocol(num_images=5, num_query_images=2,
                                                  captions_per_image=1, ks=(5,),
                                                  rounds=1), seed=0)
        assert result["r_at_k"][5] == 1.0

    def test_too_few_images_rejected(self, toy_world_small):
        _, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        params = fresh_params(cfg)
        with pytest.raises(ConfigError):
            retrieval_eval([], {}, vocab, params, cfg,
                           RetrievalProtocol(num_query_images=2), seed=0)

    def test_queries_come_only_from_captioned_images(self, toy_world_small):
        _, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        params = fresh_params(cfg, seed=2)
        scorables, captions = toy_scorables(cfg, params, 5, np.random.default_rng(3))
        captions = {image_id: (c if image_id in (1, 3) else [])
                    for image_id, c in captions.items()}
        protocol = RetrievalProtocol(num_images=5, num_query_images=2,
                                     captions_per_image=1, ks=(5,), rounds=3)
        result = retrieval_eval(scorables, captions, vocab, params, cfg, protocol, seed=0)
        assert result["num_queries"] == 6 and result["r_at_k"][5] == 1.0
        del captions[3]
        with pytest.raises(DataError, match="only 1 of 5"):
            retrieval_eval(scorables, captions, vocab, params, cfg, protocol, seed=0)

    def test_ranking_invariant_under_log_transform(self, toy_world_small):
        # scores are positive; ranking by score equals ranking by log-score
        _, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        params = fresh_params(cfg, seed=9)
        rng = np.random.default_rng(4)
        scorables, _ = toy_scorables(cfg, params, 4, rng)
        query = [vocab.encode_token(t) for t in ("red", "square")]
        scores = [retrieval_score(query, batch, params, cfg)[0]
                  for _, batch in scorables]
        by_score = np.argsort([-s for s in scores], kind="stable")
        by_log = np.argsort([-math.log(s) for s in scores], kind="stable")
        assert np.array_equal(by_score, by_log)
