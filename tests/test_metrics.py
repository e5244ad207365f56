"""Metric checks: caption-score fixtures, an independent AP oracle, recall
and diversity examples, and ranking invariances."""

import json
import math
import os
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fresh_params, iou, pos_accuracy_by_name, reference_meteor, table_of,
                      tag_names, tiny_config, union_box)
from relcap import metrics
from relcap.data import GroundTruthRelation, PosTag
from relcap.geometry import Box, box_rows
from relcap.metrics import (EmptyCaptionWarning, EvalReport, MetricConfig,
                            PredictionRecord, Predictions, diversity_stats, image_level_recall,
                            mean_meteor, meteor_lite, pos_accuracy, relational_map,
                            row_products, score_pairs, vrd_recall_at_k)
from relcap.pipeline import ProposalSettings, evaluate_model

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def pred(image_id, sbox, obox, tokens, confidence, pos=None):
    probs = [confidence ** (1.0 / len(tokens))] * len(tokens) if tokens else []
    return PredictionRecord(
        image_id=image_id, subject_box=sbox, object_box=obox, tokens=list(tokens),
        pos=list(pos) if pos else [],
        word_probs=probs,
        confidence=float(np.prod(probs)) if probs else 1.0)


def gt(image_id, sbox, obox, tokens):
    n = len(tokens)
    tags = ([PosTag.SUBJ] * max(1, n - 2) + [PosTag.PRED] + [PosTag.OBJ])[:n]
    return GroundTruthRelation(subject_box=sbox, object_box=obox, tokens=list(tokens),
                               pos=tags, image_id=image_id)


class TestMeteorLite:
    def test_frozen_fixtures_exactly(self):
        with open(os.path.join(FIXTURES, "meteor_fixtures.json")) as fh:
            fixtures = json.load(fh)
        assert len(fixtures) >= 10
        for case in fixtures:
            got = meteor_lite(case["candidate"].split(), case["reference"].split())
            assert got == case["expected"], case

    def test_fixture_scores_recompute_from_counts(self):
        # independent re-derivation from the hand-tallied counts
        with open(os.path.join(FIXTURES, "meteor_fixtures.json")) as fh:
            fixtures = json.load(fh)
        for case in fixtures:
            m, chunks = case["matches"], case["chunks"]
            if m == 0:
                assert case["expected"] == 0.0
                continue
            p = m / len(case["candidate"].split())
            r = m / len(case["reference"].split())
            f = 10 * p * r / (r + 9 * p)
            assert case["expected"] == f * (1 - 0.5 * (chunks / m) ** 3)

    def test_identical_three_tokens(self):
        score = meteor_lite("a red car".split(), "a red car".split())
        assert score == pytest.approx(1 - 0.5 / 27, abs=1e-12)

    def test_zero_overlap(self):
        assert meteor_lite(["dog"], ["car"]) == 0.0

    def test_empty_warns_and_scores_zero(self):
        with pytest.warns(EmptyCaptionWarning):
            assert meteor_lite([], ["a"]) == 0.0
        with pytest.warns(EmptyCaptionWarning):
            assert meteor_lite(["a"], []) == 0.0

    def test_asymmetry_on_fixture(self):
        a, b = "a red car".split(), "a car".split()
        assert meteor_lite(a, b) != meteor_lite(b, a)

    @given(st.lists(st.sampled_from("red blue car cat dog square".split()),
                    min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_self_score_range(self, tokens):
        score = meteor_lite(tokens, tokens)
        assert 0.5 < score <= 1.0

    def test_self_score_approaches_one(self):
        long = ["w%d" % i for i in range(40)]
        assert meteor_lite(long, long) > 0.99

    # Case variants and stem collisions: run/runs/Running share a stem, ran
    # does not; car/cars/Car share one too.
    CAPTION = st.lists(st.sampled_from("run runs Running RUN ran car cars Car the The a red"
                                       .split()), max_size=10)

    @given(CAPTION, CAPTION)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_equals_the_left_to_right_reference(self, candidate, reference):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = meteor_lite(candidate, reference)
        assert got == reference_meteor(candidate, reference)
        empty = not candidate or not reference
        assert [w.category for w in caught] == [EmptyCaptionWarning] * empty

    def test_stem_matches_take_the_first_free_reference_position(self):
        # Exact: run -> 0, ran -> 1. Stem: runs -> 2 and Running -> 3, the
        # free copies of "run" in order. All four match (F = 1) in four
        # chunks, (0,0) (1,2) (2,1) (3,3), so the penalty is 0.5; taking the
        # copies in the other order would join (2,1) (3,2) into one chunk.
        candidate, reference = "run runs ran Running".split(), "run ran run RUN".split()
        assert meteor_lite(candidate, reference) == 0.5

    def test_list_and_tuple_score_alike(self):
        candidate, reference = "a Red car runs".split(), "the red cars run".split()
        score = meteor_lite(candidate, reference)
        assert score > 0.0
        assert meteor_lite(tuple(candidate), tuple(reference)) == score
        assert meteor_lite(tuple(candidate), reference) == score


# ---------------------------------------------------------------------------
# relational mAP against an exhaustive oracle
# ---------------------------------------------------------------------------

def oracle_relational_map(predictions, gts, config):
    """Naive re-derivation: explicit ranking sweep, matching simulation and
    precision/recall lists; no caching or shared code with the implementation."""
    gt_by_img = {}
    for g in gts:
        gt_by_img.setdefault(g.image_id, []).append(g)
    ranked = sorted(range(len(predictions)),
                    key=lambda k: (-predictions[k].confidence, predictions[k].image_id, k))
    all_aps = []
    for mt in config.meteor_thresholds:
        for it in config.iou_thresholds:
            used = set()
            flags = []
            for k in ranked:
                p = predictions[k]
                choices = []
                for j, g in enumerate(gt_by_img.get(p.image_id, [])):
                    if (p.image_id, j) in used:
                        continue
                    iou_s = iou(p.subject_box, g.subject_box)
                    iou_o = iou(p.object_box, g.object_box)
                    if iou_s >= it and iou_o >= it and meteor_lite(p.tokens, g.tokens) >= mt:
                        choices.append((min(iou_s, iou_o), -j, j))
                if choices:
                    used.add((p.image_id, max(choices)[2]))
                    flags.append(1)
                else:
                    flags.append(0)
            precisions, recalls = [], []
            tp = 0
            for i, f in enumerate(flags, start=1):
                tp += f
                precisions.append(tp / i)
                recalls.append(tp / len(gts))
            ap = 0.0
            prev_r = 0.0
            for prec, rec in zip(precisions, recalls):
                ap += (rec - prev_r) * prec
                prev_r = rec
            all_aps.append(ap)
    return 100.0 * sum(all_aps) / len(all_aps)


# The oracles below rescan every prediction and GT list per image and score
# each pair where it is used. Their averages use np.mean, as the report does,
# so the results compare exactly.

def _image_order(gts):
    order = []
    for g in gts:
        if g.image_id not in order:
            order.append(g.image_id)
    return order


def oracle_image_level_recall(predictions, gts, thresholds):
    per_image = []
    for image_id in _image_order(gts):
        mine = [g for g in gts if g.image_id == image_id]
        theirs = [p for p in predictions if p.image_id == image_id]
        fractions = []
        for t in thresholds:
            hits = [1.0 if any(meteor_lite(p.tokens, g.tokens) >= t for p in theirs) else 0.0
                    for g in mine]
            fractions.append(np.mean(hits))
        per_image.append(np.mean(fractions))
    return float(np.mean(per_image))


def oracle_mean_meteor(predictions, gts):
    if not predictions:
        return 0.0
    scores = []
    for p in predictions:
        best = 0.0
        for g in gts:
            if g.image_id == p.image_id:
                best = max(best, meteor_lite(p.tokens, g.tokens))
        scores.append(best)
    return float(np.mean(scores))


def oracle_vrd_recall(predictions, gts, k, mode, config):
    recalls = []
    for image_id in _image_order(gts):
        mine = [g for g in gts if g.image_id == image_id]
        remaining = [p for p in predictions if p.image_id == image_id]
        top = []
        while remaining and len(top) < k:
            pick = 0      # most confident left, the earliest on a tie
            for i, p in enumerate(remaining):
                if p.confidence > remaining[pick].confidence:
                    pick = i
            top.append(remaining.pop(pick))
        found = 0
        for g in mine:
            for p in top:
                if meteor_lite(p.tokens, g.tokens) < config.vrd_meteor:
                    continue
                if mode == "phrase":
                    ok = iou(union_box(p.subject_box, p.object_box),
                             union_box(g.subject_box, g.object_box)) >= config.vrd_iou
                else:
                    ok = (iou(p.subject_box, g.subject_box) >= config.vrd_iou
                          and iou(p.object_box, g.object_box) >= config.vrd_iou)
                if ok:
                    found += 1
                    break
        recalls.append(found / len(mine))
    return float(np.mean(recalls))


def random_fixture(rng):
    words = ["red", "blue", "square", "circle", "cat", "dog", "near", "above", "the"]

    def rand_box():
        return Box(rng.uniform(2, 30), rng.uniform(2, 30), rng.uniform(2, 12), rng.uniform(2, 12))

    def rand_tokens():
        return [words[i] for i in rng.integers(0, len(words), size=rng.integers(2, 6))]

    gts = [gt(int(rng.integers(0, 2)), rand_box(), rand_box(), rand_tokens())
           for _ in range(rng.integers(1, 4))]
    preds = []
    for _ in range(rng.integers(0, 6)):
        base = gts[rng.integers(0, len(gts))]
        if rng.random() < 0.5:
            # perturbed copy of a GT so thresholds actually bite
            sbox = Box(base.subject_box.x + rng.uniform(-2, 2),
                       base.subject_box.y + rng.uniform(-2, 2),
                       base.subject_box.w * rng.uniform(0.7, 1.3),
                       base.subject_box.h * rng.uniform(0.7, 1.3))
            obox = Box(base.object_box.x + rng.uniform(-2, 2),
                       base.object_box.y + rng.uniform(-2, 2),
                       base.object_box.w * rng.uniform(0.7, 1.3),
                       base.object_box.h * rng.uniform(0.7, 1.3))
            tokens = list(base.tokens)
            if rng.random() < 0.5 and len(tokens) > 2:
                tokens[rng.integers(0, len(tokens))] = words[rng.integers(0, len(words))]
        else:
            sbox, obox, tokens = rand_box(), rand_box(), rand_tokens()
        preds.append(pred(base.image_id, sbox, obox, tokens,
                          confidence=float(rng.uniform(0.05, 0.95))))
    return preds, gts


def reference_relational_map(scores, config):
    """One walk down the ranking per threshold pair: the grid-by-grid form
    the single-walk ``relational_map`` must equal bit for bit."""
    n_gt = sum(s.meteor.shape[1] for s in scores)
    ranked = sorted((-s.confidence[r], s.image_id, k, i, r)
                    for i, s in enumerate(scores) for r, k in enumerate(s.pred_index))
    quality = [np.minimum(s.iou_subject, s.iou_object) for s in scores]
    aps = []
    for mt in config.meteor_thresholds:
        for it in config.iou_thresholds:
            passes = [(s.meteor >= mt) & (s.iou_subject >= it) & (s.iou_object >= it)
                      for s in scores]
            free = [np.ones(s.meteor.shape[1], dtype=bool) for s in scores]
            ap = 0.0
            tp_cum = 0
            for rank, (*_, i, r) in enumerate(ranked, start=1):
                hits = passes[i][r] & free[i]
                if hits.any():
                    free[i][np.argmax(np.where(hits, quality[i][r], -1.0))] = False
                    tp_cum += 1
                    ap += (1.0 / n_gt) * (tp_cum / rank)
            aps.append(ap)
    return 100.0 * float(np.mean(aps))


def tied_multi_image_fixture(rng):
    """Three random_fixture draws on distinct image ids, with confidences on a
    0.1 grid so that ranks tie."""
    preds, gts = [], []
    for draw in range(3):
        p_draw, g_draw = random_fixture(rng)
        gts += [replace(g, image_id=g.image_id + 2 * draw) for g in g_draw]
        for p in p_draw:
            conf = round(p.confidence, 1) or 0.1
            preds.append(replace(p, image_id=p.image_id + 2 * draw, word_probs=[conf],
                                 confidence=conf))
    return preds, gts


class TestRelationalMap:
    def test_perfect_predictions_score_100(self):
        gts = [gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"]),
               gt(0, Box(15, 5, 4, 4), Box(5, 5, 4, 4), ["the", "dog", "runs"])]
        preds = [pred(0, g.subject_box, g.object_box, g.tokens, 0.99) for g in gts]
        assert relational_map(score_pairs(table_of(preds), gts)) == pytest.approx(100.0, abs=1e-9)

    def test_empty_predictions_score_0(self):
        gts = [gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["a", "b"])]
        assert relational_map(score_pairs(table_of([]), gts)) == 0.0

    def test_no_gt_is_an_error(self):
        with pytest.raises(ValueError):
            relational_map(score_pairs(table_of([]), []))

    def test_small_fixture_matches_oracle(self):
        g1 = gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"])
        g2 = gt(0, Box(15, 5, 4, 4), Box(25, 5, 4, 4), ["a", "dog", "runs"])
        preds = [
            pred(0, Box(5.5, 5, 4, 4), Box(15, 5.5, 4, 4), ["the", "cat", "sits"], 0.9),
            pred(0, Box(15, 5, 4, 4), Box(25, 5, 4, 4), ["a", "dog", "naps"], 0.8),
            pred(0, Box(40, 40, 4, 4), Box(45, 45, 4, 4), ["the", "cat", "sits"], 0.7),
        ]
        cfg = MetricConfig()
        assert relational_map(score_pairs(table_of(preds), [g1, g2]), cfg) == pytest.approx(
            oracle_relational_map(preds, [g1, g2], cfg), abs=1e-9)

    def test_50_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(2024)
        cfg = MetricConfig()
        checked = 0
        while checked < 50:
            preds, gts = random_fixture(rng)
            assert relational_map(score_pairs(table_of(preds), gts), cfg) == pytest.approx(
                oracle_relational_map(preds, gts, cfg), abs=1e-9)
            checked += 1

    def test_single_walk_equals_grid_by_grid_reference(self):
        rng = np.random.default_rng(2028)
        for _ in range(40):
            preds, gts = tied_multi_image_fixture(rng)
            scores = score_pairs(table_of(preds), gts)
            # thresholds drawn from the tables themselves are hit exactly
            meteors = np.concatenate([s.meteor.ravel() for s in scores] + [[0.0]])
            ious = np.concatenate([s.iou_subject.ravel() for s in scores]
                                  + [s.iou_object.ravel() for s in scores] + [[0.5]])
            exact = MetricConfig(
                meteor_thresholds=tuple(np.sort(rng.choice(meteors, 6)).tolist()),
                iou_thresholds=tuple(np.sort(rng.choice(ious, 5)).tolist()))
            for cfg in (MetricConfig(), exact):
                assert relational_map(scores, cfg) == reference_relational_map(scores, cfg)

    def test_invariant_under_monotone_confidence_transform(self):
        rng = np.random.default_rng(7)
        preds, gts = random_fixture(rng)
        while not preds:
            preds, gts = random_fixture(rng)
        base = relational_map(score_pairs(table_of(preds), gts))
        squashed = [PredictionRecord(p.image_id, p.subject_box, p.object_box,
                                     p.tokens, p.pos, [p.confidence ** 3],
                                     p.confidence ** 3) for p in preds]
        assert relational_map(score_pairs(table_of(squashed), gts)) == pytest.approx(base, abs=1e-12)

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(99)
        preds, gts = random_fixture(rng)
        while len(preds) < 3:
            preds, gts = random_fixture(rng)
        loose = MetricConfig(meteor_thresholds=(0.0,), iou_thresholds=(0.2,))
        tight = MetricConfig(meteor_thresholds=(0.25,), iou_thresholds=(0.6,))
        scores = score_pairs(table_of(preds), gts)
        assert relational_map(scores, tight) <= relational_map(scores, loose) + 1e-12


class TestImageLevelRecall:
    def test_perfect_predictions(self):
        gts = [gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"])]
        preds = [pred(0, g.subject_box, g.object_box, g.tokens, 0.9) for g in gts]
        assert image_level_recall(score_pairs(table_of(preds), gts)) == 1.0

    def test_no_predictions(self):
        gts = [gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["a", "b"])]
        assert image_level_recall(score_pairs(table_of([]), gts)) == 0.0

    def test_threshold_averaging_hand_case(self):
        # two GT captions, one matched perfectly: t=0 covers both (score >= 0),
        # t=0.25 covers one -> mean(1.0, 0.5) = 0.75
        g1 = gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"])
        g2 = gt(0, Box(15, 5, 4, 4), Box(5, 5, 4, 4), ["zebras", "gallop", "fast"])
        p1 = pred(0, g1.subject_box, g1.object_box, g1.tokens, 0.9)
        assert image_level_recall(score_pairs(table_of([p1]), [g1, g2]),
                                  (0.0, 0.25)) == pytest.approx(0.75)

    def test_superset_predictions_give_one_at_every_threshold(self):
        gts = [gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"]),
               gt(1, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["a", "dog", "naps"])]
        preds = [pred(g.image_id, g.subject_box, g.object_box, g.tokens, 0.9) for g in gts]
        preds.append(pred(0, Box(1, 1, 2, 2), Box(3, 3, 2, 2), ["extra", "words"], 0.5))
        assert image_level_recall(score_pairs(table_of(preds), gts)) == 1.0

    def test_50_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(2025)
        thresholds = MetricConfig().meteor_thresholds
        for _ in range(50):
            preds, gts = random_fixture(rng)
            assert image_level_recall(score_pairs(table_of(preds), gts), thresholds) == (
                oracle_image_level_recall(preds, gts, thresholds))


class TestMeanMeteor:
    def test_50_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            preds, gts = random_fixture(rng)
            assert mean_meteor(score_pairs(table_of(preds), gts)) == oracle_mean_meteor(preds, gts)


class TestDiversity:
    def test_repeated_word_counts_once(self):
        p = pred(0, Box(1, 1, 2, 2), Box(3, 3, 2, 2), ["a", "b", "a"], 0.9)
        words_img, _ = diversity_stats(table_of([p]))
        assert words_img == 2.0

    def test_mean_across_images(self):
        p1 = pred(0, Box(1, 1, 2, 2), Box(3, 3, 2, 2), ["a", "b"], 0.9)
        p2 = pred(1, Box(1, 1, 2, 2), Box(3, 3, 2, 2), ["c", "d", "e", "f"], 0.9)
        words_img, _ = diversity_stats(table_of([p1, p2]))
        assert words_img == 3.0

    def test_words_per_box_recount(self):
        # box A appears in two captions (union of words), box B and C in one
        a, b, c = Box(1, 1, 2, 2), Box(5, 5, 2, 2), Box(9, 9, 2, 2)
        preds = [pred(0, a, b, ["red", "cat"], 0.9),
                 pred(0, a, c, ["red", "dog", "runs"], 0.8)]
        # oracle recount: A={red,cat,dog,runs}=4, B={red,cat}=2, C={red,dog,runs}=3
        _, words_box = diversity_stats(table_of(preds))
        assert words_box == pytest.approx((4 + 2 + 3) / 3)

    def test_empty(self):
        assert diversity_stats(table_of([])) == (0.0, 0.0)


class TestVrdRecall:
    def test_perfect_predictions(self):
        gts = [gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"])]
        preds = [pred(0, g.subject_box, g.object_box, g.tokens, 0.9) for g in gts]
        assert vrd_recall_at_k(score_pairs(table_of(preds), gts), 10, "phrase") == 1.0
        assert vrd_recall_at_k(score_pairs(table_of(preds), gts), 10, "relationship") == 1.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            vrd_recall_at_k(score_pairs(table_of([]), [gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4),
                                                ["a", "b"])]), 0, "phrase")

    def test_union_overlap_without_endpoint_overlap(self):
        # swapped endpoints: identical union box, disjoint endpoint boxes
        sbox, obox = Box(2, 2, 2, 2), Box(20, 2, 2, 2)
        g = gt(0, sbox, obox, ["the", "cat", "sits"])
        p = pred(0, obox, sbox, g.tokens, 0.9)
        assert iou(union_box(p.subject_box, p.object_box), union_box(sbox, obox)) == 1.0
        assert iou(p.subject_box, sbox) == 0.0
        assert vrd_recall_at_k(score_pairs(table_of([p]), [g]), 5, "phrase") == 1.0
        assert vrd_recall_at_k(score_pairs(table_of([p]), [g]), 5, "relationship") == 0.0

    def test_top_k_budget(self):
        g = gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"])
        decoys = [pred(0, Box(40, 40, 2, 2), Box(44, 44, 2, 2), ["zzz", "yyy"],
                       0.9 - 0.01 * i) for i in range(3)]
        hit = pred(0, g.subject_box, g.object_box, g.tokens, 0.5)
        assert vrd_recall_at_k(score_pairs(table_of(decoys + [hit]), [g]), 2, "phrase") == 0.0
        assert vrd_recall_at_k(score_pairs(table_of(decoys + [hit]), [g]), 4, "phrase") == 1.0

    def test_50_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(2027)
        cfg = MetricConfig()
        for _ in range(50):
            preds, gts = random_fixture(rng)
            scores = score_pairs(table_of(preds), gts)
            for mode in ("phrase", "relationship"):
                for k in (1, 2, 5):
                    assert vrd_recall_at_k(scores, k, mode, cfg) == oracle_vrd_recall(
                        preds, gts, k, mode, cfg), (mode, k)


class TestScorePairs:
    def test_tables_and_image_order(self):
        g0 = gt(1, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"])
        g1 = gt(1, Box(15, 5, 4, 4), Box(25, 5, 4, 4), ["a", "dog", "runs"])
        g2 = gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["a", "dog", "naps"])
        preds = [pred(2, Box(1, 1, 2, 2), Box(3, 3, 2, 2), ["extra"], 0.5),
                 pred(1, g1.object_box, g1.subject_box, ["a", "dog"], 0.6),
                 pred(1, g0.subject_box, g0.object_box, g0.tokens, 0.9)]
        scores = score_pairs(table_of(preds), [g0, g1, g2])
        assert [s.image_id for s in scores] == [1, 0, 2]
        assert [s.pred_index for s in scores] == [[1, 2], [], [0]]
        assert [s.meteor.shape for s in scores] == [(2, 2), (0, 1), (1, 0)]
        first = scores[0]
        assert first.confidence.tolist() == [preds[1].confidence, preds[2].confidence]
        for r, k in enumerate(first.pred_index):
            for c, g in enumerate([g0, g1]):
                p = preds[k]
                assert first.meteor[r, c] == meteor_lite(p.tokens, g.tokens)
                assert first.iou_subject[r, c] == iou(p.subject_box, g.subject_box)
                assert first.iou_object[r, c] == iou(p.object_box, g.object_box)
                assert first.iou_union[r, c] == iou(union_box(p.subject_box, p.object_box),
                                                    union_box(g.subject_box, g.object_box))

    def test_evaluate_model_scores_each_pair_once(self, toy_world_small, monkeypatch):
        records, provider, vocab = toy_world_small
        cfg = tiny_config(provider.feature_width, len(vocab))
        calls = []

        def counting(candidate, reference):
            calls.append(1)
            return meteor_lite(candidate, reference)

        monkeypatch.setattr(metrics, "meteor_lite", counting)
        _, preds = evaluate_model(records[:3], fresh_params(cfg, seed=7), cfg, vocab,
                                  provider, ProposalSettings(), vrd_ks=(1, 50))
        distinct = sum(len({(tuple(p.tokens), tuple(rel.tokens)) for rel in r.relations
                            for p in preds if p.image_id == r.image_id})
                       for r in records[:3])
        pairs = sum(len(r.relations) * sum(p.image_id == r.image_id for p in preds)
                    for r in records[:3])
        assert 0 < distinct < pairs and len(calls) == distinct


# Word probabilities at the edges of float64: exact 1.0, values just below
# it, 1e-300 (products underflow within a few factors) and subnormals.
EDGE_PROBS = st.one_of(
    st.sampled_from([1.0, math.nextafter(1.0, 0.0), 1.0 - 2.0 ** -40, 1e-300, 5e-324,
                     2.2250738585072014e-308 / 3, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e-290))


class TestRowProducts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.lists(EDGE_PROBS, max_size=12), st.integers(0, 12)),
                    min_size=1, max_size=8))
    def test_equals_math_prod_bit_for_bit(self, rows):
        # each row holds its own probabilities past its count, which must not count
        probs = np.full((len(rows), 12), 0.75)
        counts = [min(k, len(row)) for row, k in rows]
        for r, (row, _k) in enumerate(rows):
            probs[r, :len(row)] = row
        got = row_products(probs, np.array(counts))
        for r, ((row, _k), k) in enumerate(zip(rows, counts)):
            assert got[r].hex() == float(math.prod(row[:k])).hex(), (row, k)


class TestPredictionsTable:
    def test_records_round_trip_through_a_table(self):
        preds = [pred(2, Box(1, 1, 2, 2), Box(3, 3, 2, 2), ["a", "b"], 0.5, ["SUBJ", "OBJ"]),
                 pred(0, Box(3, 3, 2, 2), Box(3, 3, 2, 2), ["c"], 0.25, ["PRED"])]
        table = table_of(preds)
        assert "records" not in vars(table)          # rows are built on first use only
        assert list(table) == preds and len(table) == 2
        assert list(table)[0] is list(table)[0]      # and once
        assert table.boxes.shape == (4, 4) and table.validate() is table
        both = Predictions.of([table, Predictions.of(()), table_of(preds[::-1])])
        assert list(both) == preds + preds[::-1]
        assert both.subject_rows.tolist() == [0, 2, 4, 6] and both.boxes.shape == (8, 4)

    @pytest.mark.parametrize("change,message", [
        (dict(confidence=0.0), "outside"),
        (dict(word_probs=[0.5]), "1 word probabilities for 2 tokens"),
        (dict(word_probs=[0.5, 0.5, 1.0, 1.0]), "4 word probabilities for 2 tokens"),
        (dict(pos=["SUBJ"]), r"\d POS tags for \d tokens"),
        (dict(confidence=0.3), "product"),
        (dict(word_probs=[2.0, 0.25, 1.0], confidence=0.5), "word probability 2.0 outside"),
        (dict(word_probs=[math.nan, 0.5, 1.0], confidence=0.5), "word probability nan outside"),
        (dict(word_probs=[0.5, math.nan, 1.0], confidence=0.5), "word probability nan outside"),
        (dict(word_probs=[-1.0, -0.5, 1.0], confidence=0.5), "word probability -1.0 outside")])
    def test_validate_rejects_what_record_validate_rejects(self, change, message):
        good = pred(0, Box(1, 1, 2, 2), Box(3, 3, 2, 2), ["a", "b"], 0.25, ["SUBJ", "OBJ"])
        bad = replace(good, **change)
        with pytest.raises(ValueError, match=message):
            bad.validate()
        with pytest.raises(ValueError, match=message):
            table_of([good, bad]).validate()


def tag_ids(*names):
    return np.array([PosTag[name] for name in names], dtype=np.intp)


class TestPosAccuracy:
    def test_identical(self):
        ids = tag_ids("SUBJ", "PRED", "OBJ")
        assert pos_accuracy(ids, ids)["overall"] == 1.0

    def test_complementary(self):
        out = pos_accuracy(tag_ids("SUBJ", "SUBJ"), tag_ids("PRED", "OBJ"))
        assert out["overall"] == 0.0

    def test_partial_counts(self):
        # 5/5 correct in the first caption, 2/5 in the second: 7/10 overall
        predicted = tag_ids("SUBJ", "SUBJ", "PRED", "OBJ", "OBJ",
                            "SUBJ", "PRED", "PRED", "SUBJ", "SUBJ")
        reference = tag_ids("SUBJ", "SUBJ", "PRED", "OBJ", "OBJ",
                            "SUBJ", "SUBJ", "PRED", "OBJ", "OBJ")
        out = pos_accuracy(predicted, reference)
        assert out["overall"] == pytest.approx(0.7)
        assert out["SUBJ"] == pytest.approx(3 / 4)
        assert out["PRED"] == pytest.approx(1.0)
        assert out["OBJ"] == pytest.approx(2 / 4)

    def test_length_mismatch_rejected(self):
        # Broadcasting would compare a length-1 array with any other.
        pair = tag_ids("SUBJ", "OBJ")
        for predicted, reference in ((tag_ids("SUBJ"), pair), (pair, tag_ids("SUBJ")),
                                     (pair[None], pair)):
            with pytest.raises(ValueError):
                pos_accuracy(predicted, reference)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sets(st.sampled_from(list(PosTag)), min_size=1).flatmap(
        lambda classes: st.lists(st.tuples(st.sampled_from(list(PosTag)),
                                           st.sampled_from(sorted(classes))), max_size=200)))
    def test_equals_the_name_oracle(self, pairs):
        predicted = np.array([p for p, _ in pairs], dtype=np.intp)
        reference = np.array([g for _, g in pairs], dtype=np.intp)
        want = pos_accuracy_by_name([tag_names(predicted)], [tag_names(reference)])
        got = pos_accuracy(predicted, reference)
        assert list(got) == list(want)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


class TestEvalReport:
    def test_ranges_validated(self):
        report = EvalReport(map_percent=150.0, image_level_recall=0.5, mean_meteor=0.4,
                            words_per_img=3.0, words_per_box=2.0)
        with pytest.raises(ValueError):
            report.validate()

    def test_json_roundtrip(self):
        report = EvalReport(map_percent=42.0, image_level_recall=0.5, mean_meteor=0.4,
                            words_per_img=3.0, words_per_box=2.0,
                            vrd_phrase_recall={50: 0.5}, vrd_relationship_recall={50: 0.25},
                            pos_accuracy={"overall": 0.9, "SUBJ": 0.9, "PRED": 0.8, "OBJ": 1.0})
        assert json.loads(json.dumps(report.to_json())) == {
            "map_percent": 42.0, "image_level_recall": 0.5, "mean_meteor": 0.4,
            "words_per_img": 3.0, "words_per_box": 2.0, "vrd_phrase_recall": {"50": 0.5},
            "vrd_relationship_recall": {"50": 0.25},
            "pos_accuracy": {"overall": 0.9, "SUBJ": 0.9, "PRED": 0.8, "OBJ": 1.0}}

    def test_mean_meteor_best_match(self):
        g1 = gt(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["the", "cat", "sits"])
        p = pred(0, g1.subject_box, g1.object_box, ["the", "cat", "sits"], 0.9)
        assert mean_meteor(score_pairs(table_of([p]), [g1])) == meteor_lite(p.tokens, g1.tokens)


class TestMetricConfigDefaults:
    def test_threshold_sets_exactly_as_specified(self):
        cfg = MetricConfig()
        assert cfg.meteor_thresholds == (0.0, 0.05, 0.1, 0.15, 0.2, 0.25)
        assert cfg.iou_thresholds == (0.2, 0.3, 0.4, 0.5, 0.6)
        assert cfg.vrd_iou == 0.5
        assert cfg.vrd_meteor == 0.25
        assert cfg.keep_after_nms == 50
