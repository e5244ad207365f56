"""Box geometry, pairwise geometric features, NMS and proposal matching.

Boxes are stored in center format (x, y, w, h), matching the JSON wire
format ``{"x":..., "y":..., "w":..., "h":...}``; functions over many boxes
take (N, 4) rows in that order. ``iou_matrix`` is the one IoU and
``union_rows`` the one union box: every box comparison runs on rows.
``Box`` is the validated type that JSON input and output read and write.
All functions here are pure and safe to evaluate in parallel across images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POSITIVE_IOU = 0.7   # proposal is positive at or above this IoU with a GT box
NEGATIVE_IOU = 0.3   # proposal is negative only if below this IoU with every GT box
NMS_IOU = 0.5        # default IoU above which NMS suppresses the less confident box
NEGATIVE = -1        # match_to_gt label of a proposal below NEGATIVE_IOU with every GT box
IGNORE = -2          # match_to_gt label of a proposal neither positive nor negative


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with center (x, y) and extents (w, h) in pixels: one
    validated box of the JSON input and output. Geometry runs on rows."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"degenerate box: w={self.w}, h={self.h}")
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError("box coordinates must be finite")

    @property
    def area(self) -> float:
        return self.w * self.h

    def corners(self):
        """(x0, y0, x1, y1) corner form."""
        return (self.x - self.w / 2, self.y - self.h / 2,
                self.x + self.w / 2, self.y + self.h / 2)

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "w": self.w, "h": self.h}

    @staticmethod
    def from_json(obj) -> "Box":
        return Box(float(obj["x"]), float(obj["y"]), float(obj["w"]), float(obj["h"]))


@dataclass
class Proposals:
    """Detected regions as row-aligned arrays: (N, 4) centre-form boxes
    (x, y, w, h), (N,) detector confidences in [0, 1] and (N, F) appearance
    features. ``proposals[rows]`` selects rows by an index array or slice."""

    boxes: np.ndarray
    confidence: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.boxes = np.reshape(np.asarray(self.boxes, dtype=np.float64), (-1, 4))
        self.confidence = np.asarray(self.confidence, dtype=np.float64).reshape(-1)
        self.features = np.asarray(self.features, dtype=np.float64)
        if not len(self.boxes) == len(self.confidence) == len(self.features):
            raise ValueError("proposal boxes, confidences and features must align by row")
        outside = self.confidence[~((self.confidence >= 0.0) & (self.confidence <= 1.0))]
        if len(outside):
            raise ValueError(f"proposal confidence {outside[0]} outside [0, 1]")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("proposal feature contains non-finite values")

    def __len__(self):
        return len(self.confidence)

    def __getitem__(self, rows) -> "Proposals":
        return Proposals(self.boxes[rows], self.confidence[rows], self.features[rows])


def _corners(boxes):
    """(x0, y0, x1, y1) columns of (N, 4) centre-form rows."""
    x, y, w, h = np.reshape(boxes, (-1, 4)).T
    half_w, half_h = w / 2, h / 2
    return x - half_w, y - half_h, x + half_w, y + half_h


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """(A, B) table of intersection over union of two sets of (N, 4)
    centre-form rows: 0 for disjoint boxes, exactly 1 for equal ones.

    Areas come from the corners, so that they cancel exactly against the
    intersection; the final clamp guards the one-ulp cases."""
    ax0, ay0, ax1, ay1 = (c[:, None] for c in _corners(boxes_a))
    bx0, by0, bx1, by1 = _corners(boxes_b)
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return np.where(inter == 0.0, 0.0, np.minimum(1.0, inter / union))


def box_rows(boxes) -> np.ndarray:
    """(N, 4) centre-form rows (x, y, w, h) of ``boxes``."""
    return np.reshape([(b.x, b.y, b.w, b.h) for b in boxes], (-1, 4))


def union_rows(boxes, subject, obj) -> np.ndarray:
    """(P, 4) centre-form union boxes of the ordered pairs
    ``(boxes[subject[k]], boxes[obj[k]])`` of the (N, 4) centre-form rows
    ``boxes``: the corners' extremes, back in centre form. That round trip
    can move a self-pair's union off its box by an ulp."""
    x0, y0, x1, y1 = _corners(boxes)
    s, o = np.asarray(subject, dtype=np.intp), np.asarray(obj, dtype=np.intp)
    ux0, uy0 = np.minimum(x0[s], x0[o]), np.minimum(y0[s], y0[o])
    ux1, uy1 = np.maximum(x1[s], x1[o]), np.maximum(y1[s], y1[o])
    union = np.column_stack([(ux0 + ux1) / 2, (uy0 + uy1) / 2, ux1 - ux0, uy1 - uy0])
    valid = (union[:, 2] > 0) & (union[:, 3] > 0) & np.isfinite(union).all(axis=1)
    if not valid.all():
        Box(*union[np.argmin(valid)])          # raises Box's error for the first
    return union


def pair_geometry(boxes, subject, obj):
    """Union boxes (``union_rows``) and (P, 6) relative geometry of the
    ordered pairs ``(boxes[subject[k]], boxes[obj[k]])`` of the (N, 4)
    centre-form rows ``boxes``.

    Geometry components, in order: x-offset and y-offset normalized by the
    subject scale sqrt(w_s * h_s), square root of the area ratio, the two
    aspect ratios w_s/h_s and w_o/h_o, and the IoU of the boxes (from
    ``iou_matrix``). Invariant under joint translation and joint uniform
    scaling.
    """
    x, y, w, h = np.reshape(boxes, (-1, 4)).T
    s, o = np.asarray(subject, dtype=np.intp), np.asarray(obj, dtype=np.intp)
    union = union_rows(boxes, s, o)
    scale = np.sqrt(w[s] * h[s])
    geos = np.column_stack([(x[o] - x[s]) / scale, (y[o] - y[s]) / scale,
                            np.sqrt((w[o] * h[o]) / (w[s] * h[s])), w[s] / h[s], w[o] / h[o],
                            iou_matrix(boxes, boxes)[s, o]])
    return union, geos


def nms(proposals: Proposals, iou_threshold: float, keep: int) -> Proposals:
    """Greedy suppression in descending confidence, ties by ascending row.

    No two survivors overlap above ``iou_threshold``; at most ``keep``
    survivors are returned, in descending-confidence order.
    """
    if keep < 0:
        raise ValueError("nms: keep must be >= 0")
    order = np.argsort(-proposals.confidence, kind="stable")
    boxes = proposals.boxes[order]
    apart = iou_matrix(boxes, boxes) <= iou_threshold
    kept = []
    for c in range(len(order)):
        if len(kept) >= keep:
            break
        if apart[c, kept].all():
            kept.append(c)
    return proposals[order[kept]]


def match_to_gt(boxes, gt_boxes) -> np.ndarray:
    """Label (N, 4) centre-form proposal rows against ground-truth rows: the
    argmax GT index at max IoU >= 0.7, ``NEGATIVE`` when every IoU < 0.3,
    ``IGNORE`` in between."""
    ious = iou_matrix(boxes, gt_boxes)
    best = ious.max(axis=1, initial=0.0)
    labels = np.where(best < NEGATIVE_IOU, NEGATIVE, IGNORE)
    positive = best >= POSITIVE_IOU
    if positive.any():
        labels[positive] = ious[positive].argmax(axis=1)
    return labels


def top_pairs(products, max_pairs: int | None = None) -> np.ndarray:
    """Positions of the ``max_pairs`` largest subject-object confidence
    products (ties by position), in input order; all of them uncapped."""
    products = np.asarray(products, dtype=np.float64)
    if max_pairs is None or len(products) <= max_pairs:
        return np.arange(len(products))
    return np.sort(np.argsort(-products, kind="stable")[:max_pairs])


def combination_layer(confidence, max_pairs: int | None = None) -> np.ndarray:
    """Expand B proposals, given by their (B,) confidences, into all B(B-1)
    ordered (subject, object) position pairs ``(i, j)``, i != j, as a
    (P, 2) array.

    Rows are ordered lexicographically by input position. With
    ``max_pairs`` set, the pairs with the highest subject-object
    confidence products are kept (original ordering preserved).
    """
    confidence = np.asarray(confidence, dtype=np.float64)
    pairs = np.argwhere(~np.eye(len(confidence), dtype=bool))
    return pairs[top_pairs(confidence[pairs[:, 0]] * confidence[pairs[:, 1]], max_pairs)]
