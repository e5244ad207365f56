"""Box geometry against rasterization and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (geometric_feature, iou, reference_combination_layer, reference_top_pairs,
                      tiny_config, union_box)
from relcap.geometry import (IGNORE, NEGATIVE, Box, Proposals, box_rows, combination_layer,
                             iou_matrix, match_to_gt, nms, top_pairs)
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


def proposals(rows, ids=None):
    """Proposals over (x, y, w, h, confidence) tuples. Feature column 0
    holds each row's id (its position unless ``ids`` is given), so that
    ``ids_of`` names the rows NMS keeps."""
    rows = np.reshape(rows, (-1, 5))
    ids = np.arange(len(rows)) if ids is None else ids
    return Proposals(rows[:, :4], rows[:, 4], np.reshape(ids, (-1, 1)))


def ids_of(props):
    return props.features[:, 0].astype(int).tolist()


def boxes_of(props):
    return [Box(*row) for row in props.boxes.tolist()]


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
        table = iou_matrix(box_rows(a), box_rows(b))
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
        assert (np.diag(iou_matrix(box_rows(a), box_rows(a))) == 1.0).all()

    def test_disjoint_touching_nested_and_equal(self):
        a = [Box(1, 1, 2, 2), Box(3, 1, 2, 2), Box(2, 2, 4, 4), Box(20, 20, 2, 2)]
        b = [Box(1, 1, 2, 2), Box(2, 2, 0.5, 0.5), Box(1, 3, 2, 2)]
        self._assert_equals_scalar(a, b)
        table = iou_matrix(box_rows(a), box_rows(b))
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


def brute_force_nms(props, threshold, keep):
    """Exhaustive-suppression oracle: re-derives survivors from the rule,
    confidence ties by row, and returns their ids."""
    boxes = boxes_of(props)
    order = sorted(range(len(props)), key=lambda k: (-props.confidence[k], k))
    survivors = []
    for cand in order:
        if len(survivors) == keep:
            break
        suppressed = False
        for kept in survivors:
            if iou(boxes[cand], boxes[kept]) > threshold:
                suppressed = True
        if not suppressed:
            survivors.append(cand)
    return [ids_of(props)[k] for k in survivors]


def scalar_match_to_gt(boxes, gt_boxes):
    """Per-pair reference: the scalar ``iou`` of each proposal row with each
    GT row."""
    labels = []
    for row in boxes.tolist():
        ious = [iou(Box(*row), Box(*g)) for g in gt_boxes.tolist()]
        best = max(ious) if ious else 0.0
        if best >= 0.7:
            labels.append(ious.index(best))
        elif best < 0.3:
            labels.append(NEGATIVE)
        else:
            labels.append(IGNORE)
    return labels


def tied_proposals(rng, n):
    """Integer-grid proposals whose confidences take three values, so that
    ties in confidence and in IoU are common. They are drawn under shuffled
    ids and then reordered so that row k holds id k."""
    drawn = [(int(rng.integers(0, 10)), int(rng.integers(0, 10)),
              int(rng.integers(1, 6)), int(rng.integers(1, 6)),
              float(rng.choice([0.3, 0.5, 0.7])), int(pid))
             for pid in rng.permutation(n)]
    drawn.sort(key=lambda d: d[-1])
    return proposals([d[:5] for d in drawn])


class TestNms:
    def test_disjoint_all_kept(self):
        props = proposals([(i * 10, 0, 2, 2, 0.5 + 0.01 * i) for i in range(5)])
        kept = nms(props, 0.5, keep=10)
        assert sorted(ids_of(kept)) == [0, 1, 2, 3, 4]

    def test_duplicate_suppressed(self):
        props = proposals([(0, 0, 2, 2, 0.9), (0, 0, 2, 2, 0.8)])
        kept = nms(props, 0.5, keep=10)
        assert ids_of(kept) == [0]

    def test_overlap_chain_matches_oracle(self):
        # a suppresses b; c overlaps b but not a, so c survives
        props = proposals([(0, 0, 4, 4, 0.9), (1.1, 0, 4, 4, 0.8), (2.6, 0, 4, 4, 0.7)])
        kept = ids_of(nms(props, 0.4, keep=10))
        assert kept == brute_force_nms(props, 0.4, 10)
        assert kept == [0, 2]

    def test_keep_budget(self):
        props = proposals([(i * 10, 0, 2, 2, 0.9 - 0.1 * i) for i in range(5)])
        assert ids_of(nms(props, 0.5, keep=2)) == [0, 1]

    def test_tie_broken_by_id(self):
        # ids 5 and 2 with rows ordered by id: a tie goes to the first row
        props = proposals([(0, 0, 2, 2, 0.7), (0, 0, 2, 2, 0.7)], ids=[2, 5])
        assert ids_of(nms(props, 0.5, keep=10)) == [2]

    @given(st.lists(st.tuples(st.floats(0, 30), st.floats(0, 30),
                              st.floats(1, 8), st.floats(1, 8),
                              st.floats(0.01, 0.99)), min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_random_fixtures_match_oracle_and_idempotent(self, raw):
        props = proposals([(x, y, w, h, round(c, 3)) for x, y, w, h, c in raw])
        kept = nms(props, 0.4, keep=6)
        assert ids_of(kept) == brute_force_nms(props, 0.4, 6)
        again = nms(kept, 0.4, keep=6)
        assert ids_of(again) == ids_of(kept)


    def test_tied_confidences_match_scalar_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            props = tied_proposals(rng, int(rng.integers(0, 25)))
            threshold = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            keep = int(rng.integers(0, 12))
            assert ids_of(nms(props, threshold, keep)) == brute_force_nms(props, threshold, keep)


class TestMatchToGt:
    def test_exact_match_positive(self):
        gt = box_rows([Box(5, 5, 4, 4)])
        labels = match_to_gt(box_rows([Box(5, 5, 4, 4)]), gt)
        assert labels[0] == 0

    def test_disjoint_negative(self):
        labels = match_to_gt(box_rows([Box(50, 50, 2, 2)]), box_rows([Box(5, 5, 4, 4)]))
        assert labels[0] == NEGATIVE

    def test_intermediate_iou_ignored(self):
        # identical height, half-width offset: IoU = 1/3 (rasterization-checked)
        prop = Box(2, 1, 2, 2)
        gt = Box(1, 1, 2, 2)
        assert 0.3 <= iou(prop, gt) < 0.7
        assert iou(prop, gt) == pytest.approx(raster_iou(prop, gt), abs=5e-3)
        assert match_to_gt(box_rows([prop]), box_rows([gt]))[0] == IGNORE

    def test_no_gt_all_negative(self):
        assert match_to_gt(box_rows([Box(0, 0, 2, 2)]), box_rows([]))[0] == NEGATIVE

    def test_positive_takes_argmax_gt(self):
        gt = box_rows([Box(0, 0, 4, 4), Box(0.2, 0, 4, 4)])
        labels = match_to_gt(box_rows([Box(0.2, 0, 4, 4)]), gt)
        assert labels[0] == 1
        # a repeated best GT box: the first one
        assert match_to_gt(box_rows([Box(0.2, 0, 4, 4)]), gt[[0, 1, 1]])[0] == 1


    def test_random_proposals_match_scalar_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            props = tied_proposals(rng, int(rng.integers(0, 15)))
            # some GT boxes repeat a proposal box, so positives occur
            repeated = props.boxes[:int(rng.integers(0, 3))]
            gt_boxes = np.vstack([repeated, tied_proposals(rng, int(rng.integers(0, 6))).boxes])
            assert (match_to_gt(props.boxes, gt_boxes).tolist()
                    == scalar_match_to_gt(props.boxes, gt_boxes))


def pair_list(pairs):
    """A (P, 2) pair array as a list of (subject, object) tuples."""
    return [tuple(p) for p in pairs.tolist()]


class TestCombinationLayer:
    def _props(self, n):
        return proposals([(i * 10, 0, 2, 2, 0.3 + 0.01 * i) for i in range(n)])

    def test_three_proposals_six_pairs(self):
        pairs = combination_layer(self._props(3).confidence)
        assert len(pairs) == 6

    def test_single_proposal_no_pairs(self):
        assert combination_layer(self._props(1).confidence).tolist() == []

    def test_fifty_proposals(self):
        assert len(combination_layer(self._props(50).confidence)) == 50 * 49

    def test_symmetric_membership_and_order(self):
        pairs = pair_list(combination_layer(self._props(4).confidence))
        assert pairs == sorted(pairs)
        for i, j in pairs:
            assert i != j
            assert (j, i) in pairs

    def test_pair_fields_populated(self):
        # caption_pairs adds each kept pair's union box and geometry
        props = self._props(3)
        boxes = boxes_of(props)
        subject, obj, unions, geos = caption_pairs(props, tiny_config(1, 5))
        assert list(zip(subject.tolist(), obj.tolist())) == pair_list(
            combination_layer(props.confidence))
        for i, j, ub, geo in zip(subject, obj, unions, geos):
            assert Box(*ub) == union_box(boxes[i], boxes[j])
            assert np.array_equal(geo, geometric_feature(boxes[i], boxes[j]))

    def test_cap_keeps_highest_confidence_products(self):
        props = self._props(4)  # confidences 0.30, 0.31, 0.32, 0.33
        assert set(pair_list(combination_layer(props.confidence, max_pairs=2))) == {
            (2, 3), (3, 2)}

    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1)),
                    max_size=7))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_equals_list_reference_at_every_cap(self, confidence):
        # repeated values tie both confidences and products
        n_pairs = len(confidence) * (len(confidence) - 1)
        products = [confidence[i] * confidence[j]
                    for i, j in reference_combination_layer(confidence)]
        for cap in (None, *range(n_pairs + 1)):
            pairs = combination_layer(np.array(confidence), cap)
            want = reference_combination_layer(confidence, cap)
            assert pairs.shape == (len(want), 2)
            assert pair_list(pairs) == want
            assert top_pairs(products, cap).tolist() == reference_top_pairs(products, cap)
