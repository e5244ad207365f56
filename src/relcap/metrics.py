"""Evaluation machinery for relational captioning.

Covers the caption-similarity score (exact + stem alignment with a
fragmentation penalty), average precision over a grid of language and
dual-box localization thresholds, image-level recall, diversity counts,
phrase/relationship detection recall, and POS tagging accuracy. The
caption metrics read one per-image table of pair scores (``score_pairs``).
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .data import PosTag
from .geometry import Box, box_rows, iou_matrix, union_rows
from .stemming import porter_stem

_STEM_CACHE: dict[str, str] = {}


def _stem(token: str) -> str:
    if token not in _STEM_CACHE:
        _STEM_CACHE[token] = porter_stem(token)
    return _STEM_CACHE[token]


class EmptyCaptionWarning(UserWarning):
    pass


@dataclass(frozen=True)
class MetricConfig:
    meteor_thresholds: tuple = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25)
    iou_thresholds: tuple = (0.2, 0.3, 0.4, 0.5, 0.6)
    vrd_iou: float = 0.5
    vrd_meteor: float = 0.25
    keep_after_nms: int = 50


@dataclass
class PredictionRecord:
    """One decoded relational caption, as written to the predictions file."""

    image_id: int
    subject_box: Box
    object_box: Box
    tokens: list
    pos: list                  # tag names; empty when the model has no POS head
    word_probs: list
    confidence: float

    def validate(self):
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside (0, 1]")
        if self.pos and len(self.pos) != len(self.tokens):
            raise ValueError(f"{len(self.pos)} POS tags for {len(self.tokens)} tokens")
        if len(self.word_probs) not in (len(self.tokens), len(self.tokens) + 1):
            raise ValueError(
                f"{len(self.word_probs)} word probabilities for {len(self.tokens)} tokens"
            )
        probs = self.word_probs
        prod = math.prod(probs)
        # a NaN after the first entry passes min and max, but not the product
        if math.isnan(prod) or probs and not (0.0 < min(probs) and max(probs) <= 1.0):
            bad = next(p for p in probs if not 0.0 < p <= 1.0)
            raise ValueError(f"word probability {bad} outside (0, 1]")
        if abs(prod - self.confidence) > 1e-9:
            raise ValueError("confidence does not equal the product of word probabilities")
        return self


def row_products(probs, counts) -> np.ndarray:
    """Product of the first ``counts[k]`` entries of each row k of the (P, S)
    ``probs``, one column at a time from the left: ``math.prod`` bit for bit."""
    out = np.ones(len(probs))
    for t, column in enumerate(np.transpose(probs)):
        out = np.where(t < counts, out * column, out)
    return out


def _split(values: list, lengths) -> list:
    """``values`` cut into consecutive runs of ``lengths``."""
    ends = np.cumsum(lengths, dtype=np.intp).tolist()
    return [values[a:b] for a, b in zip([0, *ends], ends)]


@dataclass(eq=False)
class Predictions:
    """Decoded relational captions as row-aligned arrays; row k is one
    ``PredictionRecord``, and iterating a table yields them.

    ``subject_rows`` and ``object_rows`` index ``boxes``, (B, 4) centre-form
    rows (one per kept proposal). Row k's caption is its ``lengths[k]``
    entries of the flat ``tokens`` and of ``pos`` (empty without a POS head),
    its word probabilities its ``counts[k]`` entries of ``word_probs``.
    """

    image_id: np.ndarray
    boxes: np.ndarray
    subject_rows: np.ndarray
    object_rows: np.ndarray
    tokens: np.ndarray
    lengths: np.ndarray
    pos: np.ndarray
    word_probs: np.ndarray
    counts: np.ndarray
    confidence: np.ndarray

    def __post_init__(self):
        for f, dtype in zip(fields(self), (object, np.float64, np.intp, np.intp, object, np.intp,
                                           object, np.float64, np.intp, np.float64)):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=dtype))
        self.boxes = self.boxes.reshape(-1, 4)

    @staticmethod
    def of(tables) -> "Predictions":
        """The rows of ``tables``, in order, as one table."""
        tables = [Predictions(*[[]] * 10), *tables]
        starts = np.cumsum([0, *(len(t.boxes) for t in tables)])
        table = Predictions(*(np.concatenate([getattr(t, f.name) for t in tables])
                              for f in fields(Predictions)))
        for name in ("subject_rows", "object_rows"):
            setattr(table, name, np.concatenate([getattr(t, name) + s
                                                 for t, s in zip(tables, starts)]))
        return table

    def validate(self):
        """``PredictionRecord.validate`` of every row at once."""
        outside = self.confidence[~((self.confidence > 0.0) & (self.confidence <= 1.0))]
        if len(outside):
            raise ValueError(f"confidence {outside[0]} outside (0, 1]")
        if len(self.pos) not in (0, len(self.tokens)):
            raise ValueError(f"{len(self.pos)} POS tags for {len(self.tokens)} tokens")
        bad = ~np.isin(self.counts - self.lengths, (0, 1))
        if bad.any():
            raise ValueError(f"{self.counts[bad][0]} word probabilities for "
                             f"{self.lengths[bad][0]} tokens")
        outside = self.word_probs[~((self.word_probs > 0.0) & (self.word_probs <= 1.0))]
        if len(outside):
            raise ValueError(f"word probability {outside[0]} outside (0, 1]")
        probs = np.ones((len(self), self.counts.max(initial=0)))
        probs[np.arange(probs.shape[1]) < self.counts[:, None]] = self.word_probs
        if (abs(row_products(probs, self.counts) - self.confidence) > 1e-9).any():
            raise ValueError("confidence does not equal the product of word probabilities")
        return self

    def __len__(self):
        return len(self.confidence)

    def __iter__(self):
        return iter(self.records)

    @cached_property
    def records(self) -> list:
        """The rows as ``PredictionRecord``s, built once, one ``Box`` per box row."""
        boxes = [Box(*row) for row in self.boxes.tolist()]
        return [PredictionRecord(i, boxes[s], boxes[o], tokens, pos, probs, c)
                for i, s, o, tokens, pos, probs, c in self.columns()]

    def columns(self):
        """Per row: image id, box rows, tokens, POS tags, word probabilities, confidence."""
        return zip(self.image_id.tolist(), self.subject_rows.tolist(),
                   self.object_rows.tolist(), _split(self.tokens.tolist(), self.lengths),
                   _split(self.pos.tolist(), self.lengths),    # all [] without POS tags
                   _split(self.word_probs.tolist(), self.counts), self.confidence.tolist())


@functools.lru_cache(maxsize=4096)
def _prepared(caption: tuple):
    """A caption's lower-cased tokens, their stems, which copy of its token
    each one is, and each token's and each stem's positions in order."""
    tokens = [t.lower() for t in caption]
    stems = [_stem(t) for t in tokens]
    copy = [tokens[:i].count(t) for i, t in enumerate(tokens)]
    at = [{w: [j for j, v in enumerate(words) if v == w] for w in words}
          for words in (tokens, stems)]
    return tokens, stems, copy, *at


def meteor_lite(candidate, reference) -> float:
    """Unigram alignment score in [0, 1].

    Tokens are aligned greedily left-to-right, exact surface matches
    first, then Porter-stem matches, each token used at most once.
    With m matches: P = m/|cand|, R = m/|ref|, F = 10PR / (R + 9P),
    and the fragmentation penalty is 0.5 * (chunks / m)^3.
    Per token class, as that scan does: the k-th candidate copy of a token
    takes the k-th reference copy, then each unaligned one its stem's first.
    """
    cand, cand_stems, copy, _, _ = _prepared(tuple(candidate))
    ref, _, _, ref_at, ref_stem_at = _prepared(tuple(reference))
    if not cand or not ref:
        warnings.warn("empty candidate or reference caption scores 0", EmptyCaptionWarning)
        return 0.0

    align = [at[k] if k < len(at) else -1
             for at, k in zip([ref_at.get(t, ()) for t in cand], copy)]
    free = {}    # per stem, its free reference positions, last first
    for i, st in enumerate(cand_stems):
        if align[i] < 0 and st in ref_stem_at:
            if st not in free:
                free[st] = [j for j in ref_stem_at[st] if j not in align][::-1]
            if free[st]:
                align[i] = free[st].pop()

    m = len(align) - align.count(-1)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)

    # a chunk goes on where the next token takes the next reference position
    chunks = m - sum(1 for p, a in zip(align, align[1:]) if p >= 0 and a == p + 1)
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1.0 - penalty)


@dataclass
class ImageScores:
    """Every prediction of one image scored against every GT relation of it.

    The tables are (P, G): rows follow ``pred_index`` (positions in the
    predictions list, input order), columns the image's GT in input order.
    """

    image_id: int
    pred_index: list
    confidence: np.ndarray     # (P,)
    meteor: np.ndarray         # caption score
    iou_subject: np.ndarray
    iou_object: np.ndarray
    iou_union: np.ndarray      # prediction union box against GT union box


def score_pairs(table: Predictions, gts):
    """Score each (prediction, GT) pair of an image once: one caption score per
    distinct (caption, GT caption) pair, one IoU table per box kind.

    Images with GT come first, in GT order, then images that have only
    predictions; every metric below reduces this list.
    """
    gt_groups, pred_groups = {}, {}
    for g in gts:
        gt_groups.setdefault(g.image_id, []).append(g)
    for k, image_id in enumerate(table.image_id.tolist()):
        gt_groups.setdefault(image_id, [])
        pred_groups.setdefault(image_id, []).append(k)
    captions = list(map(tuple, _split(table.tokens.tolist(), table.lengths)))
    subjects, objects = table.boxes[table.subject_rows], table.boxes[table.object_rows]
    unions = union_rows(table.boxes, table.subject_rows, table.object_rows)
    out = []
    for image_id, gt_list in gt_groups.items():
        rows = pred_groups.get(image_id, [])
        # each distinct caption -> its row (prediction) or column (GT) of `distinct`
        cands, refs = {}, {}
        cand_of = [cands.setdefault(captions[k], len(cands)) for k in rows]
        ref_of = [refs.setdefault(tuple(g.tokens), len(refs)) for g in gt_list]
        distinct = np.reshape([meteor_lite(c, r) for c in cands for r in refs],
                              (len(cands), len(refs)))
        # the GT subject rows, then their object rows
        ends = box_rows([g.subject_box for g in gt_list] + [g.object_box for g in gt_list])
        n = len(gt_list)
        out.append(ImageScores(
            image_id, rows, table.confidence[rows], distinct[np.ix_(cand_of, ref_of)],
            iou_matrix(subjects[rows], ends[:n]), iou_matrix(objects[rows], ends[n:]),
            iou_matrix(unions[rows], union_rows(ends, range(n), range(n, 2 * n)))))
    return out


def relational_map(scores, config: MetricConfig = MetricConfig()) -> float:
    """Mean average precision (percent) over the language x localization grid.

    A ranked prediction is a true positive at thresholds (mt, it) when some
    still-unmatched ground-truth relation in its image has subject IoU and
    object IoU both >= it and caption score >= mt; each ground truth is
    consumed once, the candidate with the largest min(IoU_s, IoU_o) first.
    Predictions rank by confidence, ties by image id then input order. One
    walk down the ranking updates all threshold pairs, (mt, it) row-major.
    """
    n_gt = sum(s.meteor.shape[1] for s in scores)
    if not n_gt:
        raise ValueError("relational mAP is undefined without ground-truth relations")
    ranked = sorted((-s.confidence[r], s.image_id, k, i, r)
                    for i, s in enumerate(scores) for r, k in enumerate(s.pred_index))
    mts = np.repeat(config.meteor_thresholds, len(config.iou_thresholds))[:, None]
    its = np.tile(config.iou_thresholds, len(config.meteor_thresholds))[:, None]
    # passes[i][r, t, g]: prediction r of image i meets grid row t against GT g
    passes = [(s.meteor[:, None] >= mts) & (s.iou_subject[:, None] >= its)
              & (s.iou_object[:, None] >= its) for s in scores]
    quality = [np.minimum(s.iou_subject, s.iou_object) for s in scores]
    free = [np.ones((len(mts), s.meteor.shape[1]), dtype=bool) for s in scores]
    ap = np.zeros(len(mts))
    tp_cum = np.zeros(len(mts), dtype=np.int64)
    for rank, (*_, i, r) in enumerate(ranked, start=1):
        hits = passes[i][r] & free[i]
        rows = np.flatnonzero(hits.any(axis=1))
        if rows.size:
            # the best min(IoU_s, IoU_o) among the hits, the first GT on a tie
            picks = np.argmax(np.where(hits[rows], quality[i][r], -1.0), axis=1)
            free[i][rows, picks] = False
            tp_cum[rows] += 1
            ap[rows] += (1.0 / n_gt) * (tp_cum[rows] / rank)
    return 100.0 * float(np.mean(ap))


def image_level_recall(scores, meteor_thresholds=None) -> float:
    """Recall of GT captions by the bag of predicted captions per image.

    For each threshold t a GT caption counts as covered when some predicted
    caption in the image scores >= t against it; the covered fraction is
    averaged over thresholds, then over images.
    """
    thresholds = tuple(MetricConfig().meteor_thresholds if meteor_thresholds is None
                       else meteor_thresholds)
    per_image = []
    for s in scores:
        if not s.meteor.shape[1]:
            continue
        best = s.meteor.max(axis=0, initial=-1.0)      # -1 for a GT no prediction sees
        per_image.append(float(np.mean([np.mean(best >= t) for t in thresholds])))
    if not per_image:
        raise ValueError("image-level recall needs at least one GT caption per image")
    return float(np.mean(per_image))


def mean_meteor(scores) -> float:
    """Average caption score of predictions against their best-matching GT
    (0 in an image without GT), in prediction input order."""
    best = np.zeros(sum(len(s.pred_index) for s in scores))
    for s in scores:
        best[s.pred_index] = s.meteor.max(axis=1, initial=0.0)
    return float(np.mean(best)) if len(best) else 0.0


def diversity_stats(table: Predictions):
    """(words/img, words/box): mean unique word types per image and per box
    of a ``Predictions`` table."""
    if not len(table):
        return 0.0, 0.0
    per_image, per_row, per_box, image_of = (defaultdict(set), defaultdict(set),
                                             defaultdict(set), {})
    for image_id, s, o, tokens in zip(table.image_id.tolist(), table.subject_rows.tolist(),
                                      table.object_rows.tolist(),
                                      _split(table.tokens.tolist(), table.lengths)):
        per_image[image_id].update(tokens)
        per_row[s].update(tokens)
        per_row[o].update(tokens)
        image_of[s] = image_of[o] = image_id
    boxes = table.boxes.tolist()
    for row, words in per_row.items():      # equal boxes of one image share their words
        per_box[(image_of[row], *boxes[row])].update(words)
    words_per_img = float(np.mean([len(s) for s in per_image.values()]))
    words_per_box = float(np.mean([len(s) for s in per_box.values()]))
    return words_per_img, words_per_box


def vrd_recall_at_k(scores, k: int, mode: str, config: MetricConfig = MetricConfig()) -> float:
    """Detection-style recall at top-k predictions per image.

    ``mode`` "phrase" matches on the IoU of the union boxes; "relationship"
    requires both endpoint boxes to clear the localization threshold. The
    caption must score at least the configured language threshold.
    """
    if k <= 0:
        raise ValueError("vrd_recall_at_k: k must be positive")
    if mode not in ("phrase", "relationship"):
        raise ValueError(f"unknown mode {mode!r}")
    recalls = []
    for s in scores:
        if not s.meteor.shape[1]:
            continue
        top = np.argsort(-s.confidence, kind="stable")[:k]
        located = (s.iou_union[top] if mode == "phrase"     # relationship: both endpoints
                   else np.minimum(s.iou_subject[top], s.iou_object[top]))
        hit = (located >= config.vrd_iou) & (s.meteor[top] >= config.vrd_meteor)
        recalls.append(int(hit.any(axis=0).sum()) / s.meteor.shape[1])
    if not recalls:
        raise ValueError("vrd recall needs ground-truth relations")
    return float(np.mean(recalls))


def pos_accuracy(predicted, reference):
    """Token-level tag accuracy, overall and per ``PosTag`` class of the
    reference, of two aligned 1-D arrays of tag ids."""
    if predicted.shape != reference.shape:
        raise ValueError(f"tag arrays of shape {predicted.shape} vs {reference.shape}")
    hit = predicted == reference
    out = {"overall": float(hit.mean()) if hit.size else 0.0}
    for tag in PosTag:
        seen = reference == tag
        out[tag.name] = float(hit[seen].mean()) if seen.any() else 0.0
    return out


@dataclass
class EvalReport:
    map_percent: float
    image_level_recall: float
    mean_meteor: float
    words_per_img: float
    words_per_box: float
    vrd_phrase_recall: dict = field(default_factory=dict)        # k -> recall
    vrd_relationship_recall: dict = field(default_factory=dict)  # k -> recall
    pos_accuracy: dict | None = None

    def validate(self):
        if not 0.0 <= self.map_percent <= 100.0:
            raise ValueError(f"map_percent {self.map_percent} outside [0, 100]")
        unit = {"image_level_recall": self.image_level_recall,
                "mean_meteor": self.mean_meteor}
        unit.update({f"vrd_phrase@{k}": v for k, v in self.vrd_phrase_recall.items()})
        unit.update({f"vrd_rel@{k}": v for k, v in self.vrd_relationship_recall.items()})
        if self.pos_accuracy is not None:
            unit.update({f"pos_{k}": v for k, v in self.pos_accuracy.items()})
        for name, value in unit.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} = {value} outside [0, 1]")
        if self.words_per_img < 0 or self.words_per_box < 0:
            raise ValueError("diversity statistics must be non-negative")
        return self

    def to_json(self) -> dict:
        out = asdict(self)
        for key in ("vrd_phrase_recall", "vrd_relationship_recall"):
            out[key] = {str(k): v for k, v in out[key].items()}
        return out

    def render_table(self) -> str:
        rows = [
            ("relational mAP (%)", f"{self.map_percent:.3f}"),
            ("image-level recall", f"{self.image_level_recall:.4f}"),
            ("mean METEOR", f"{self.mean_meteor:.4f}"),
            ("words/img", f"{self.words_per_img:.2f}"),
            ("words/box", f"{self.words_per_box:.2f}"),
        ]
        for k in sorted(self.vrd_phrase_recall):
            rows.append((f"phrase R@{k}", f"{self.vrd_phrase_recall[k]:.4f}"))
        for k in sorted(self.vrd_relationship_recall):
            rows.append((f"relationship R@{k}", f"{self.vrd_relationship_recall[k]:.4f}"))
        if self.pos_accuracy is not None:
            for key in ("overall", "SUBJ", "PRED", "OBJ"):
                rows.append((f"POS acc ({key})", f"{self.pos_accuracy[key]:.4f}"))
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)
