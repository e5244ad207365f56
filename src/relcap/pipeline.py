"""Glue between datasets and the network: training batches, the epoch
loop, batched decoding into ``Predictions`` tables, and full evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import PosTag, RelationalRecord, Vocabulary, encode_caption, proposals_for_record
from .errors import ConfigError, DataError
from .geometry import (NMS_IOU, Box, box_rows, combination_layer, iou_matrix, match_to_gt, nms,
                       pair_geometry, top_pairs, union_rows)
from .metrics import (EvalReport, MetricConfig, Predictions, diversity_stats,
                      image_level_recall, mean_meteor, pos_accuracy, relational_map, row_products,
                      score_pairs, vrd_recall_at_k)
from .model import (DECODE_MODES, LOSS_COMPONENTS, LOSS_WEIGHT, STACK_ROWS, ImageBatch,
                    ModelConfig, ModelParams, PairBatch, _pad_targets, decode_arrays,
                    encode_pair_batch, head_logits, init_params, stream_states, total_loss)


@dataclass
class ProposalSettings:
    seed: int = 0
    jitter: float = 0.08  # fraction of box size; 1 or more can give a negative width
    n_background: int = 2

    def __post_init__(self):
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(f"jitter must lie in [0, 1), got {self.jitter}")


@dataclass
class TrainSettings:
    epochs: int = 100
    lr: float = 1e-3
    alpha: float = LOSS_WEIGHT
    beta: float = LOSS_WEIGHT
    gamma: float = LOSS_WEIGHT
    seed: int = 0
    proposals: ProposalSettings = field(default_factory=ProposalSettings)


def _gt_rows(record: RelationalRecord, config: ModelConfig):
    """(G, 4) rows of the GT boxes the proposals stand for, and the row of
    each relation's union box: the annotated objects' rows (and None), or for
    direct-union the distinct relation union boxes in order of first
    appearance."""
    if config.rpn_output != "union":
        return box_rows([obj.box for obj in record.objects]), None
    ends = box_rows([b for rel in record.relations for b in (rel.subject_box, rel.object_box)])
    unions = union_rows(ends, range(0, len(ends), 2), range(1, len(ends), 2))
    first = {}
    union_of = [first.setdefault(row, len(first)) for row in map(tuple, unions.tolist())]
    return np.reshape(list(first), (-1, 4)), union_of


def _gt_captions(record: RelationalRecord, config: ModelConfig):
    """``_gt_rows`` and (subject GT row, object GT row) -> relations
    captioning that pair.

    Direct-union: every relation of a union row g sits on the self-pair
    (g, g), so both directions that share the box are targets of one
    proposal. Object path: a relation endpoint matches the first object whose
    row equals its box, else the first object of highest IoU, and each
    ordered pair of distinct objects keeps its first relation.
    """
    rows, union_of = _gt_rows(record, config)
    captions = {}
    if union_of is not None:
        for g, rel in zip(union_of, record.relations):
            captions.setdefault((g, g), []).append(rel)
        return rows, captions
    if not record.relations:
        return rows, captions
    if not len(rows):
        raise DataError(f"image {record.image_id}: relations need annotated objects "
                        "to match their boxes, but the image has none")
    ends = box_rows([b for rel in record.relations for b in (rel.subject_box, rel.object_box)])
    exact = (ends[:, None] == rows).all(axis=2)
    index, inexact = exact.argmax(axis=1), ~exact.any(axis=1)
    if inexact.any():
        index[inexact] = iou_matrix(ends[inexact], rows).argmax(axis=1)
    for rel, (s, o) in zip(record.relations, index.reshape(-1, 2).tolist()):
        if s != o:
            captions.setdefault((s, o), [rel])
    return rows, captions


def caption_pairs(proposals, config: ModelConfig, pair_cap: int | None = None):
    """(subject rows, object rows, union boxes, geometry) of the proposal
    pairs to caption: two index arrays, (P, 4) centre-form union boxes and
    (P, 6) relative geometry rows (``pair_geometry``).

    The combination layer's ordered pairs, or for direct-union each proposal
    paired with itself over its own box (geometry zero), both capped by
    ``top_pairs``. Training and inference batches both enumerate pairs here.
    """
    if config.rpn_output == "union":
        keep = top_pairs(proposals.confidence * proposals.confidence, pair_cap)
        return keep, keep, proposals.boxes[keep], np.zeros((len(keep), 6))
    subject, obj = combination_layer(proposals.confidence, pair_cap).T
    return (subject, obj, *pair_geometry(proposals.boxes, subject, obj))


def build_proposals(record: RelationalRecord, provider, config: ModelConfig,
                    settings: ProposalSettings):
    """Jittered proposals over the detected GT boxes plus background boxes."""
    return proposals_for_record(record, _gt_rows(record, config)[0], provider,
                                settings.seed, settings.jitter, settings.n_background)


def build_image_batch(record: RelationalRecord, proposals, provider,
                      vocab: Vocabulary, config: ModelConfig) -> ImageBatch:
    """Assemble proposals, match labels and one caption pair per GT caption
    for one image; each distinct captioned pair's union box is featurised
    once.

    Captions are keyed by GT indices, which no NEGATIVE or IGNORE label
    equals, so only the pairs of GT-matched proposals are enumerated and
    given geometry: ``caption_pairs`` over those proposals, in the order of
    all pairs."""
    gt_boxes, captions = _gt_captions(record, config)
    labels = match_to_gt(proposals.boxes, gt_boxes)
    matched = np.flatnonzero(labels >= 0)
    subject, obj, unions, geos = caption_pairs(proposals[matched], config)
    subject, obj = matched[subject], matched[obj]
    rows, token_ids, tags = [], [], []
    for k, key in enumerate(zip(labels[subject].tolist(), labels[obj].tolist())):
        for rel in captions.get(key, ()):
            ids, pos = encode_caption(rel.tokens, rel.pos, vocab, config.max_len)
            rows.append(k)
            token_ids.append(ids)
            tags.append(pos)
    distinct, row_of = np.unique(np.array(rows, dtype=np.intp), return_inverse=True)
    union_features = provider.features_many(record, unions[distinct])[row_of]
    return ImageBatch(pairs=PairBatch(proposals.features, subject[rows], obj[rows],
                                      union_features, geos[rows]),
                      token_ids=token_ids, tags=tags, prop_boxes=proposals.boxes,
                      gt_boxes=gt_boxes, labels=labels)


def train_model(records, provider, vocab: Vocabulary, config: ModelConfig,
                settings: TrainSettings, params: ModelParams | None = None,
                optimizer: ad.OptimizerState | None = None,
                on_epoch=None):
    """Train on one image per optimizer step; deterministic under the seed.

    Batches (proposals and caption targets) are fixed per image, so they
    are assembled once up front. Returns (params, optimizer, history) where
    history holds per-epoch mean loss components. A loss component that is
    not finite (a diverged run) is a ``DataError`` naming the epoch, the
    image and the learning rate; ``on_epoch`` is not called for its epoch.
    """
    if params is None:
        params = init_params(config, np.random.default_rng(
            np.random.SeedSequence([settings.seed, 0])))
    if optimizer is None:
        optimizer = ad.OptimizerState(params, lr=settings.lr)
    dropout_rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 1]))

    batches = [
        (rec.image_id,
         build_image_batch(rec, build_proposals(rec, provider, config, settings.proposals),
                           provider, vocab, config))
        for rec in records
    ]
    history = []
    # A diverging run overflows on its way to a non-finite loss; the loss
    # check below reports it, without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(settings.epochs):
            sums = dict.fromkeys(LOSS_COMPONENTS, 0.0)
            for image_id, batch in batches:
                loss, report = total_loss(batch, params, config,
                                          alpha=settings.alpha, beta=settings.beta,
                                          gamma=settings.gamma, rng=dropout_rng)
                bad = [key for key in LOSS_COMPONENTS
                       if not math.isfinite(getattr(report, key))]
                if bad:
                    raise DataError(f"epoch {epoch + 1}, image {image_id}: non-finite "
                                    f"{bad[0]} = {getattr(report, bad[0])!r} at lr "
                                    f"{optimizer.lr!r} (diverged?)")
                ad.backward(loss)
                ad.adam_step(params, optimizer)
                for key in LOSS_COMPONENTS:
                    sums[key] += getattr(report, key)
            row = {"epoch": epoch + 1}
            row.update({key: sums[key] / max(len(batches), 1) for key in LOSS_COMPONENTS})
            history.append(row)
            if on_epoch is not None:
                on_epoch(epoch, row, params, optimizer)
    return params, optimizer, history


def history_to_csv(history) -> str:
    lines = [",".join(("epoch", *LOSS_COMPONENTS))]
    lines += [",".join((str(row["epoch"]), *(repr(row[key]) for key in LOSS_COMPONENTS)))
              for row in history]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# prediction and evaluation
# ---------------------------------------------------------------------------

def pair_batch(record: RelationalRecord, proposals, provider, config: ModelConfig,
               pair_cap: int | None = None) -> PairBatch:
    """PairBatch over kept proposals: the ``caption_pairs`` and their union features."""
    subject, obj, unions, geos = caption_pairs(proposals, config, pair_cap)
    return PairBatch(proposals.features, subject, obj, provider.features_many(record, unions),
                     geos)


def make_pair_batch(record: RelationalRecord, proposals, provider,
                    config: ModelConfig, pair_cap: int | None = None):
    """``pair_batch`` plus per-pair (subject, object) boxes."""
    batch = pair_batch(record, proposals, provider, config, pair_cap)
    boxes = [Box(*row) for row in proposals.boxes.tolist()]
    return batch, [(boxes[i], boxes[j]) for i, j in zip(batch.subject_index, batch.object_index)]


def _chunks(items, budget: int):
    """Runs of consecutive ``(pairs, ...)`` items, ``budget`` pairs at most or one item."""
    chunk, total = [], 0
    for item in items:
        if chunk and total + item[0] > budget:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += item[0]
    if chunk:
        yield chunk


def predict_proposals(images, params: ModelParams, config: ModelConfig, vocab: Vocabulary,
                      provider, metric_config: MetricConfig = MetricConfig(),
                      nms_iou: float = NMS_IOU, pair_cap: int | None = None,
                      min_confidence: float | None = None, mode: str = DECODE_MODES[0],
                      rng: np.random.Generator | None = None):
    """Decode every pair of the proposals that survive NMS, over the ``(record,
    proposals)`` ``images``, into one ``Predictions`` table: greedy stacks whole
    images up to ``STACK_ROWS`` pairs a ``decode_arrays`` call, stochastic (whose
    draws follow the rows) runs each alone. A pair whose caption is empty or below
    ``min_confidence`` gets no row; non-finite word probabilities are a ``DataError``."""
    survivors = ((r, nms(props, nms_iou, metric_config.keep_after_nms)) for r, props in images)
    pairs = ((r, k, pair_batch(r, k, provider, config, pair_cap)) for r, k in survivors)
    words = np.array(list(map(vocab.decode_id, range(len(vocab)))), dtype=object)
    tag_names = np.array([tag.name for tag in PosTag], dtype=object)   # by the tag's value
    steps = np.arange(config.max_len)
    tables = []
    for chunk in _chunks(((len(b), r, k, b) for r, k, b in pairs if len(b)),
                         STACK_ROWS if mode == "greedy" else 0):
        sizes, records, kept, batches = zip(*chunk)
        batch = PairBatch.stack(batches)
        picks, chosen_probs, tags, emitted, taken = decode_arrays(batch, params, config, mode,
                                                                  rng)
        bad = ~np.isfinite(chosen_probs).all(axis=1)
        if bad.any():
            record = records[np.searchsorted(np.cumsum(sizes), bad.argmax(), side="right")]
            raise DataError(f"image {record.image_id}: caption confidences are not finite "
                            "(diverged parameters?)")
        confidence = row_products(chosen_probs, taken)
        keep = (emitted > 0) & (min_confidence is None or confidence >= min_confidence)
        caption = steps < emitted[keep, None]
        tables.append(Predictions(
            np.repeat(np.array([r.image_id for r in records], dtype=object), sizes)[keep],
            np.concatenate([k.boxes for k in kept]),
            batch.subject_index[keep], batch.object_index[keep],
            words[picks[keep][caption]], emitted[keep],
            tag_names[tags[keep][caption]] if config.mtl else tag_names[:0],
            chosen_probs[keep][steps < taken[keep, None]], taken[keep],
            confidence[keep]).validate())
    return tables[0] if len(tables) == 1 else Predictions.of(tables)


def predict_image(record: RelationalRecord, params: ModelParams, config: ModelConfig,
                  vocab: Vocabulary, provider, settings: ProposalSettings, **options):
    """``predict_proposals`` (with its keyword ``options``) over the image's
    own ``build_proposals``."""
    return predict_proposals([(record, build_proposals(record, provider, config, settings))],
                             params, config, vocab, provider, **options)


def predicted_pos_tags(token_ids, codes, params, config):
    """Teacher-forced POS argmax id per step, a ``(P, T)`` array over the
    captions padded to the longest; call under ``no_grad``."""
    padded = _pad_targets(token_ids, 0)
    hidden = stream_states(codes, padded, params, config)
    logits = head_logits(hidden.data, params, "pos")
    return logits.argmax(axis=1).reshape(padded.shape[::-1]).T


def model_pos_accuracy(records, proposals, params, config: ModelConfig, vocab, provider):
    """Teacher-forced tag accuracy over all GT-matched pairs of each record
    and its proposals, whole images stacked up to ``STACK_ROWS`` pairs a pass."""
    predicted, reference = [], []
    with ad.no_grad():
        batches = (build_image_batch(record, props, provider, vocab, config)
                   for record, props in zip(records, proposals, strict=True))
        for chunk in _chunks(((len(b.pairs), b) for b in batches if b.pairs), STACK_ROWS):
            token_ids = [ids for _, b in chunk for ids in b.token_ids]
            tags = _pad_targets([t for _, b in chunk for t in b.tags], -1)
            codes = encode_pair_batch(PairBatch.stack([b.pairs for _, b in chunk]), params, config)
            real = tags >= 0
            predicted.append(predicted_pos_tags(token_ids, codes, params, config)[real])
            reference.append(tags[real])
    if not predicted:
        raise ConfigError("no GT-matched pairs available for POS evaluation")
    return pos_accuracy(np.concatenate(predicted), np.concatenate(reference))


def evaluate_model(records, params, config: ModelConfig, vocab: Vocabulary, provider,
                   settings: ProposalSettings, metric_config: MetricConfig = MetricConfig(),
                   nms_iou: float = NMS_IOU, pair_cap: int | None = None,
                   min_confidence: float | None = None, vrd_ks=(50, 100)):
    """Full evaluation report plus the ``Predictions`` it was computed from."""
    gts = [rel for record in records for rel in record.relations]
    if not gts:
        raise DataError("evaluation needs ground-truth relations; the dataset has none")
    # One proposal set per record, shared by decoding and POS accuracy.
    proposals = [build_proposals(record, provider, config, settings) for record in records]
    predictions = predict_proposals(zip(records, proposals), params, config, vocab, provider,
                                    metric_config=metric_config, nms_iou=nms_iou,
                                    pair_cap=pair_cap, min_confidence=min_confidence)
    words_img, words_box = diversity_stats(predictions)
    scores = score_pairs(predictions, gts)
    report = EvalReport(
        map_percent=relational_map(scores, metric_config),
        image_level_recall=image_level_recall(scores, metric_config.meteor_thresholds),
        mean_meteor=mean_meteor(scores),
        words_per_img=words_img,
        words_per_box=words_box,
        vrd_phrase_recall={k: vrd_recall_at_k(scores, k, "phrase", metric_config)
                           for k in vrd_ks},
        vrd_relationship_recall={k: vrd_recall_at_k(scores, k, "relationship", metric_config)
                                 for k in vrd_ks},
        pos_accuracy=(model_pos_accuracy(records, proposals, params, config, vocab, provider)
                      if config.mtl else None),
    )
    return report.validate(), predictions
