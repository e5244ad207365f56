"""Box geometry against rasterization and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import geometric_feature, tiny_config
from relcap.geometry import (Box, MatchLabel, RegionProposal, combination_layer, iou,
                             iou_matrix, match_to_gt, nms, union_box)
from relcap.pipeline import caption_pairs

boxes = st.builds(
    Box,
    x=st.floats(-50, 50), y=st.floats(-50, 50),
    w=st.floats(0.5, 40), h=st.floats(0.5, 40),
)
# Integer-grid boxes: edges touch, boxes nest and repeat exactly.
grid_boxes = st.builds(
    Box,
    x=st.integers(0, 8), y=st.integers(0, 8), w=st.integers(1, 6), h=st.integers(1, 6),
)


def raster_iou(a: Box, b: Box, cells=400):
    """Pixel-rasterization oracle on a fine grid over the joint extent."""
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    x0, y0 = min(ax0, bx0), min(ay0, by0)
    x1, y1 = max(ax1, bx1), max(ay1, by1)
    xs = np.linspace(x0, x1, cells, endpoint=False) + (x1 - x0) / (2 * cells)
    ys = np.linspace(y0, y1, cells, endpoint=False) + (y1 - y0) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= ax0) & (gx <= ax1) & (gy >= ay0) & (gy <= ay1)
    in_b = (gx >= bx0) & (gx <= bx1) & (gy >= by0) & (gy <= by1)
    inter = np.count_nonzero(in_a & in_b)
    union = np.count_nonzero(in_a | in_b)
    return inter / union if union else 0.0


def proposal(x, y, w, h, conf, pid, dim=3):
    return RegionProposal(Box(x, y, w, h), conf, np.zeros((1, dim)), pid)


class TestIou:
    def test_identity(self):
        b = Box(3, 4, 2, 5)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 2, 2), Box(10, 10, 2, 2)) == 0.0

    def test_hand_case_against_raster_oracle(self):
        a, b = Box(1, 1, 2, 2), Box(2, 1, 2, 2)
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=5e-3)

    @given(boxes, boxes)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        assert iou(a, a) == 1.0

    @given(boxes, boxes)
    @settings(max_examples=30, deadline=None)
    def test_matches_rasterization(self, a, b):
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=2e-2)


class TestIouMatrix:
    def _assert_equals_scalar(self, a, b):
        table = iou_matrix(a, b)
        assert table.shape == (len(a), len(b))
        assert not np.signbit(table).any()
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert table[i, j] == iou(box_a, box_b), (box_a, box_b)

    @given(st.lists(st.one_of(boxes, grid_boxes), max_size=6),
           st.lists(st.one_of(boxes, grid_boxes), max_size=6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_scalar_iou_bit_for_bit(self, a, b):
        self._assert_equals_scalar(a, b)
        assert (np.diag(iou_matrix(a, a)) == 1.0).all()

    def test_disjoint_touching_nested_and_equal(self):
        a = [Box(1, 1, 2, 2), Box(3, 1, 2, 2), Box(2, 2, 4, 4), Box(20, 20, 2, 2)]
        b = [Box(1, 1, 2, 2), Box(2, 2, 0.5, 0.5), Box(1, 3, 2, 2)]
        self._assert_equals_scalar(a, b)
        table = iou_matrix(a, b)
        assert table[0, 0] == 1.0                 # equal
        assert table[1, 0] == table[0, 2] == 0.0  # touching at an edge
        assert table[2, 1] == 0.25 / 16           # nested
        assert (table[3] == 0.0).all()            # disjoint


class TestUnionBox:
    def test_self_union(self):
        b = Box(3, 4, 2, 5)
        assert union_box(b, b) == b

    def test_hand_evaluation(self):
        u = union_box(Box(1, 1, 2, 2), Box(3, 1, 2, 2))
        assert (u.x, u.y, u.w, u.h) == (2, 1, 4, 2)

    def test_nested(self):
        outer, inner = Box(0, 0, 10, 10), Box(1, 1, 2, 2)
        assert union_box(outer, inner) == outer

    @given(boxes, boxes)
    @settings(max_examples=40, deadline=None)
    def test_contains_both(self, a, b):
        u = union_box(a, b)
        ux0, uy0, ux1, uy1 = u.corners()
        for box in (a, b):
            x0, y0, x1, y1 = box.corners()
            assert ux0 <= x0 + 1e-9 and uy0 <= y0 + 1e-9
            assert ux1 >= x1 - 1e-9 and uy1 >= y1 - 1e-9


class TestGeometricFeature:
    def test_identical_boxes(self):
        r = geometric_feature(Box(5, 5, 4, 2), Box(5, 5, 4, 2))
        assert np.allclose(r, [0, 0, 1, 2, 2, 1], atol=1e-15)

    def test_hand_evaluation(self):
        r = geometric_feature(Box(0, 0, 2, 2), Box(2, 0, 2, 2))
        assert np.allclose(r, [1, 0, 1, 1, 1, 0], atol=1e-15)

    def test_translation_invariance(self):
        a, b = Box(0, 0, 2, 3), Box(4, 1, 5, 2)
        moved = geometric_feature(Box(10, 10, 2, 3), Box(14, 11, 5, 2))
        assert np.array_equal(geometric_feature(a, b), moved)

    @given(boxes, boxes,
           st.floats(-30, 30), st.floats(-30, 30), st.floats(0.1, 7))
    @settings(max_examples=80, deadline=None)
    def test_joint_translation_and_scale_invariance(self, a, b, dx, dy, s):
        base = geometric_feature(a, b)
        moved = geometric_feature(
            Box(a.x * s + dx, a.y * s + dy, a.w * s, a.h * s),
            Box(b.x * s + dx, b.y * s + dy, b.w * s, b.h * s))
        assert np.all(np.abs(base - moved) < 1e-12)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0.0, 2)


def brute_force_nms(proposals, threshold, keep):
    """Exhaustive-suppression oracle: re-derives survivors from the rule."""
    order = sorted(proposals, key=lambda p: (-p.confidence, p.id))
    survivors = []
    for cand in order:
        if len(survivors) == keep:
            break
        suppressed = False
        for kept in survivors:
            if iou(cand.box, kept.box) > threshold:
                suppressed = True
        if not suppressed:
            survivors.append(cand)
    return [p.id for p in survivors]


def scalar_match_to_gt(proposals, gt_boxes):
    """Per-pair reference: the scalar ``iou`` of each proposal with each GT."""
    labels = []
    for prop in proposals:
        ious = [iou(prop.box, g) for g in gt_boxes]
        best = max(ious) if ious else 0.0
        if best >= 0.7:
            labels.append(MatchLabel("positive", ious.index(best)))
        elif best < 0.3:
            labels.append(MatchLabel("negative"))
        else:
            labels.append(MatchLabel("ignore"))
    return labels


def tied_proposals(rng, n):
    """Integer-grid proposals whose confidences take three values, so that
    ties in confidence and in IoU are common."""
    return [proposal(int(rng.integers(0, 10)), int(rng.integers(0, 10)),
                     int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                     float(rng.choice([0.3, 0.5, 0.7])), int(pid))
            for pid in rng.permutation(n)]


class TestNms:
    def test_disjoint_all_kept(self):
        props = [proposal(i * 10, 0, 2, 2, 0.5 + 0.01 * i, i) for i in range(5)]
        kept = nms(props, 0.5, keep=10)
        assert sorted(p.id for p in kept) == [0, 1, 2, 3, 4]

    def test_duplicate_suppressed(self):
        props = [proposal(0, 0, 2, 2, 0.9, 0), proposal(0, 0, 2, 2, 0.8, 1)]
        kept = nms(props, 0.5, keep=10)
        assert [p.id for p in kept] == [0]

    def test_overlap_chain_matches_oracle(self):
        # a suppresses b; c overlaps b but not a, so c survives
        props = [proposal(0, 0, 4, 4, 0.9, 0), proposal(1.1, 0, 4, 4, 0.8, 1),
                 proposal(2.6, 0, 4, 4, 0.7, 2)]
        kept = [p.id for p in nms(props, 0.4, keep=10)]
        assert kept == brute_force_nms(props, 0.4, 10)
        assert kept == [0, 2]

    def test_keep_budget(self):
        props = [proposal(i * 10, 0, 2, 2, 0.9 - 0.1 * i, i) for i in range(5)]
        assert [p.id for p in nms(props, 0.5, keep=2)] == [0, 1]

    def test_tie_broken_by_id(self):
        props = [proposal(0, 0, 2, 2, 0.7, 5), proposal(0, 0, 2, 2, 0.7, 2)]
        assert [p.id for p in nms(props, 0.5, keep=10)] == [2]

    @given(st.lists(st.tuples(st.floats(0, 30), st.floats(0, 30),
                              st.floats(1, 8), st.floats(1, 8),
                              st.floats(0.01, 0.99)), min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_random_fixtures_match_oracle_and_idempotent(self, raw):
        props = [proposal(x, y, w, h, round(c, 3), i)
                 for i, (x, y, w, h, c) in enumerate(raw)]
        kept = nms(props, 0.4, keep=6)
        assert [p.id for p in kept] == brute_force_nms(props, 0.4, 6)
        again = nms(kept, 0.4, keep=6)
        assert [p.id for p in again] == [p.id for p in kept]


    def test_tied_confidences_match_scalar_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            props = tied_proposals(rng, int(rng.integers(0, 25)))
            threshold = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            keep = int(rng.integers(0, 12))
            assert ([p.id for p in nms(props, threshold, keep)]
                    == brute_force_nms(props, threshold, keep))


class TestMatchToGt:
    def test_exact_match_positive(self):
        gt = [Box(5, 5, 4, 4)]
        labels = match_to_gt([proposal(5, 5, 4, 4, 0.9, 0)], gt)
        assert labels[0] == MatchLabel("positive", 0)

    def test_disjoint_negative(self):
        labels = match_to_gt([proposal(50, 50, 2, 2, 0.9, 0)], [Box(5, 5, 4, 4)])
        assert labels[0].kind == "negative"

    def test_intermediate_iou_ignored(self):
        # identical height, half-width offset: IoU = 1/3 (rasterization-checked)
        prop = proposal(2, 1, 2, 2, 0.9, 0)
        gt = Box(1, 1, 2, 2)
        assert 0.3 <= iou(prop.box, gt) < 0.7
        assert iou(prop.box, gt) == pytest.approx(raster_iou(prop.box, gt), abs=5e-3)
        assert match_to_gt([prop], [gt])[0].kind == "ignore"

    def test_no_gt_all_negative(self):
        assert match_to_gt([proposal(0, 0, 2, 2, 0.5, 0)], [])[0].kind == "negative"

    def test_positive_takes_argmax_gt(self):
        gt = [Box(0, 0, 4, 4), Box(0.2, 0, 4, 4)]
        labels = match_to_gt([proposal(0.2, 0, 4, 4, 0.9, 0)], gt)
        assert labels[0] == MatchLabel("positive", 1)


    def test_random_proposals_match_scalar_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            props = tied_proposals(rng, int(rng.integers(0, 15)))
            # some GT boxes repeat a proposal box, so positives occur
            gt_boxes = [p.box for p in props[:int(rng.integers(0, 3))]
                        + tied_proposals(rng, int(rng.integers(0, 6)))]
            assert match_to_gt(props, gt_boxes) == scalar_match_to_gt(props, gt_boxes)


class TestCombinationLayer:
    def _props(self, n):
        return [proposal(i * 10, 0, 2, 2, 0.3 + 0.01 * i, i) for i in range(n)]

    def test_three_proposals_six_pairs(self):
        pairs = combination_layer(self._props(3))
        assert len(pairs) == 6

    def test_single_proposal_no_pairs(self):
        assert combination_layer(self._props(1)) == []

    def test_fifty_proposals(self):
        assert len(combination_layer(self._props(50))) == 50 * 49

    def test_symmetric_membership_and_order(self):
        pairs = combination_layer(self._props(4))
        assert pairs == sorted(pairs)
        for i, j in pairs:
            assert i != j
            assert (j, i) in pairs

    def test_pair_fields_populated(self):
        # caption_pairs adds each kept pair's union box and geometry
        props = self._props(3)
        subject, obj, unions, geos = caption_pairs(props, tiny_config(1, 5))
        assert list(zip(subject.tolist(), obj.tolist())) == combination_layer(props)
        for i, j, ub, geo in zip(subject, obj, unions, geos):
            assert Box(*ub) == union_box(props[i].box, props[j].box)
            assert np.array_equal(geo, geometric_feature(props[i].box, props[j].box))

    def test_cap_keeps_highest_confidence_products(self):
        props = self._props(4)  # confidences 0.30, 0.31, 0.32, 0.33
        assert set(combination_layer(props, max_pairs=2)) == {(2, 3), (3, 2)}

    def test_duplicate_ids_rejected(self):
        a = proposal(0, 0, 2, 2, 0.5, 7)
        b = proposal(9, 0, 2, 2, 0.5, 7)
        with pytest.raises(ValueError):
            combination_layer([a, b])
