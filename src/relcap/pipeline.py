"""Glue between datasets and the network: training batches, the epoch
loop, batched decoding into prediction records, and full evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import PosTag, RelationalRecord, Vocabulary, encode_caption, proposals_for_record
from .errors import ConfigError, DataError, InvariantError
from .geometry import (Box, box_rows, combination_layer, iou, match_to_gt, nms,
                       pair_geometry, top_pairs, union_box)
from .metrics import (EvalReport, MetricConfig, PredictionRecord, diversity_stats,
                      image_level_recall, mean_meteor, pos_accuracy, relational_map,
                      score_pairs, vrd_recall_at_k)
from .model import (LOSS_COMPONENTS, ImageBatch, ModelConfig, ModelParams, PairBatch,
                    _decode_arrays, _pad_targets, encode_pair_batch, init_params, stream_states,
                    total_loss)


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
    alpha: float = 0.1
    beta: float = 0.1
    gamma: float = 0.1
    seed: int = 0
    proposals: ProposalSettings = field(default_factory=ProposalSettings)


def _match_relation_endpoints(record: RelationalRecord):
    """Map (subject object-index, object object-index) -> relation.

    Relation endpoint boxes are associated with annotated objects by exact
    coordinates, falling back to the highest-IoU object.
    """
    def object_index(box: Box) -> int:
        for i, obj in enumerate(record.objects):
            if obj.box == box:
                return i
        if not record.objects:
            raise DataError(f"image {record.image_id}: relations need annotated objects "
                            "to match their boxes, but the image has none")
        return int(np.argmax([iou(box, obj.box) for obj in record.objects]))

    lookup = {}
    for rel in record.relations:
        key = (object_index(rel.subject_box), object_index(rel.object_box))
        lookup.setdefault(key, rel)
    return lookup


def _distinct_union_boxes(record: RelationalRecord):
    """De-duplicated relation union boxes with the relations they cover."""
    boxes = []
    rels = []
    seen = {}
    for rel in record.relations:
        ub = union_box(rel.subject_box, rel.object_box)
        key = (ub.x, ub.y, ub.w, ub.h)
        if key not in seen:
            seen[key] = len(boxes)
            boxes.append(ub)
            rels.append([])
        rels[seen[key]].append(rel)
    return boxes, rels


def _detected_boxes(record: RelationalRecord, config: ModelConfig):
    """GT boxes the proposals stand for: the annotated objects, or for
    direct-union the de-duplicated relation union boxes."""
    if config.rpn_output == "union":
        return _distinct_union_boxes(record)[0]
    return [obj.box for obj in record.objects]


def _gt_captions(record: RelationalRecord, config: ModelConfig):
    """``_detected_boxes`` and (subject gt index, object gt index) ->
    relations captioning that pair.

    Object path: one relation per pair of distinct objects. Direct-union:
    every relation of a union box sits on the self-pair (g, g), so both
    directions that share the box are targets of one proposal.
    """
    if config.rpn_output == "union":
        boxes, rels = _distinct_union_boxes(record)
        return boxes, {(g, g): group for g, group in enumerate(rels)}
    return _detected_boxes(record, config), {
        key: [rel] for key, rel in _match_relation_endpoints(record).items() if key[0] != key[1]}


def caption_pairs(proposals, config: ModelConfig, pair_cap: int | None = None):
    """(subject rows, object rows, union boxes, geometry) of the proposal
    pairs to caption: two index arrays, (P, 4) centre-form union boxes and
    (P, 6) ``geometric_feature`` rows.

    The combination layer's ordered pairs, or for direct-union each proposal
    paired with itself over its own box (geometry zero), both capped by
    ``top_pairs``. Training and inference batches both enumerate pairs here.
    """
    if config.rpn_output == "union":
        keep = np.array(top_pairs([p.confidence * p.confidence for p in proposals], pair_cap),
                        dtype=np.intp)
        return keep, keep, box_rows([p.box for p in proposals])[keep], np.zeros((len(keep), 6))
    subject, obj = np.array(combination_layer(proposals, max_pairs=pair_cap),
                            dtype=np.intp).reshape(-1, 2).T
    return (subject, obj, *pair_geometry([p.box for p in proposals], subject, obj))


def _pair_batch(proposals, subject, obj, union_features, geos,
                config: ModelConfig) -> PairBatch:
    """PairBatch over ``proposals`` with pairs ``(subject[k], obj[k])``."""
    width = config.feature_width
    return PairBatch(
        features=np.vstack([p.feature for p in proposals]) if proposals else np.zeros((0, width)),
        subject_index=subject.tolist(),
        object_index=obj.tolist(),
        union_features=union_features if len(subject) else np.zeros((0, width)),
        geos=geos,
    )


def build_proposals(record: RelationalRecord, provider, config: ModelConfig,
                    settings: ProposalSettings):
    """Jittered proposals over the detected GT boxes plus background boxes."""
    return proposals_for_record(record, _detected_boxes(record, config), provider,
                                settings.seed, settings.jitter, settings.n_background)


def build_image_batch(record: RelationalRecord, proposals, provider,
                      vocab: Vocabulary, config: ModelConfig) -> ImageBatch:
    """Assemble proposals, match labels and one caption pair per GT caption
    for one image; each distinct captioned pair's union box is featurised
    once."""
    gt_boxes, captions = _gt_captions(record, config)
    labels = match_to_gt(proposals, gt_boxes)
    subject, obj, unions, geos = caption_pairs(proposals, config)
    rows, token_ids, tags = [], [], []
    for k, (i, j) in enumerate(zip(subject.tolist(), obj.tolist())):
        if labels[i].kind != "positive" or labels[j].kind != "positive":
            continue
        for rel in captions.get((labels[i].gt_index, labels[j].gt_index), ()):
            ids, pos = encode_caption(rel.tokens, rel.pos, vocab, config.max_len)
            rows.append(k)
            token_ids.append(ids)
            tags.append(pos)
    distinct, row_of = np.unique(np.array(rows, dtype=np.intp), return_inverse=True)
    union_features = provider.features_many(record, unions[distinct])[row_of]
    return ImageBatch(pairs=_pair_batch(proposals, subject[rows], obj[rows], union_features,
                                        geos[rows], config),
                      token_ids=token_ids, tags=tags,
                      prop_boxes=[p.box for p in proposals],
                      gt_boxes=gt_boxes, labels=labels)


def train_model(records, provider, vocab: Vocabulary, config: ModelConfig,
                settings: TrainSettings, params: ModelParams | None = None,
                optimizer: ad.OptimizerState | None = None,
                on_epoch=None):
    """Train on one image per optimizer step; deterministic under the seed.

    Batches (proposals and caption targets) are fixed per image, so they
    are assembled once up front. Returns (params, optimizer, history) where
    history holds per-epoch mean loss components.
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
    for epoch in range(settings.epochs):
        sums = dict.fromkeys(LOSS_COMPONENTS, 0.0)
        for image_id, batch in batches:
            loss, report = total_loss(batch, params, config,
                                      alpha=settings.alpha, beta=settings.beta,
                                      gamma=settings.gamma, rng=dropout_rng)
            bad = [key for key in LOSS_COMPONENTS if not math.isfinite(getattr(report, key))]
            if bad:
                raise InvariantError(f"epoch {epoch + 1}, image {image_id}: non-finite "
                                     f"{bad[0]} = {getattr(report, bad[0])!r}")
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

def make_pair_batch(record: RelationalRecord, proposals, provider,
                    config: ModelConfig, pair_cap: int | None = None):
    """PairBatch over kept proposals plus per-pair (subject, object) boxes."""
    subject, obj, unions, geos = caption_pairs(proposals, config, pair_cap)
    batch = _pair_batch(proposals, subject, obj, provider.features_many(record, unions), geos,
                        config)
    return batch, [(proposals[i].box, proposals[j].box)
                   for i, j in zip(batch.subject_index, batch.object_index)]


def predict_proposals(record: RelationalRecord, proposals, params: ModelParams,
                      config: ModelConfig, vocab: Vocabulary, provider,
                      metric_config: MetricConfig | None = None,
                      nms_iou: float = 0.5, pair_cap: int | None = None,
                      min_confidence: float | None = None,
                      mode: str = "greedy", rng: np.random.Generator | None = None):
    """Decode captions for every pair of the ``proposals`` that survive NMS.
    Word probabilities that are not finite are a ``DataError``."""
    metric_config = metric_config or MetricConfig()
    kept = nms(proposals, nms_iou, metric_config.keep_after_nms)
    batch, boxes = make_pair_batch(record, kept, provider, config, pair_cap)
    if not boxes:
        return []
    picks, chosen_probs, tags, emitted, taken = _decode_arrays(batch, params, config, mode, rng)
    if not np.isfinite(chosen_probs).all():
        raise DataError(f"image {record.image_id}: caption confidences are not finite "
                        "(diverged parameters?)")
    words = np.array(list(map(vocab.decode_id, range(len(vocab)))), dtype=object)
    tag_names = np.array([tag.name for tag in PosTag], dtype=object)   # by the tag's value
    tag_rows = tag_names[tags].tolist() if config.mtl else [[]] * len(boxes)
    out = []
    for e, k, tokens, pos, word_probs, (sbox, obox) in zip(
            emitted.tolist(), taken.tolist(), words[picks].tolist(), tag_rows,
            chosen_probs.tolist(), boxes):
        if not e:
            continue
        word_probs = word_probs[:k]
        confidence = math.prod(word_probs)
        if min_confidence is not None and confidence < min_confidence:
            continue
        out.append(PredictionRecord(
            image_id=record.image_id,
            subject_box=sbox, object_box=obox,
            tokens=tokens[:e], pos=pos[:e],
            word_probs=word_probs,
            confidence=confidence,
        ).validate())
    return out


def predict_image(record: RelationalRecord, params: ModelParams, config: ModelConfig,
                  vocab: Vocabulary, provider, settings: ProposalSettings, **options):
    """``predict_proposals`` (with its keyword ``options``) over the image's
    own ``build_proposals``."""
    return predict_proposals(record, build_proposals(record, provider, config, settings),
                             params, config, vocab, provider, **options)


def predicted_pos_tags(token_ids, codes, params, config):
    """Teacher-forced POS argmax per step of each caption; call under ``no_grad``."""
    padded = _pad_targets(token_ids, 0)
    hidden = stream_states(codes, padded, params, config)
    logits = ad.affine(hidden, params["head.pos.w"], params["head.pos.b"]).data
    picks = logits.argmax(axis=1).reshape(padded.shape[::-1]).T
    return [[PosTag(int(x)).name for x in picks[i, :len(ids)]]
            for i, ids in enumerate(token_ids)]


def model_pos_accuracy(records, proposals, params, config: ModelConfig, vocab, provider):
    """Teacher-forced tag accuracy over all GT-matched pairs of each record
    and its proposals."""
    predicted, reference = [], []
    with ad.no_grad():
        for record, props in zip(records, proposals, strict=True):
            batch = build_image_batch(record, props, provider, vocab, config)
            if not batch.pairs:
                continue
            codes = encode_pair_batch(batch.pairs, params, config)
            predicted.extend(predicted_pos_tags(batch.token_ids, codes, params, config))
            reference.extend([[PosTag(int(x)).name for x in tags] for tags in batch.tags])
    if not predicted:
        raise ConfigError("no GT-matched pairs available for POS evaluation")
    return pos_accuracy(predicted, reference)


def evaluate_model(records, params, config: ModelConfig, vocab: Vocabulary, provider,
                   settings: ProposalSettings, metric_config: MetricConfig | None = None,
                   nms_iou: float = 0.5, pair_cap: int | None = None,
                   min_confidence: float | None = None, vrd_ks=(50, 100)):
    """Full evaluation report plus the prediction records it was computed from."""
    metric_config = metric_config or MetricConfig()
    gts = [rel for record in records for rel in record.relations]
    if not gts:
        raise DataError("evaluation needs ground-truth relations; the dataset has none")
    # One proposal set per record, shared by decoding and POS accuracy.
    proposals = [build_proposals(record, provider, config, settings) for record in records]
    predictions = [pred for record, props in zip(records, proposals)
                   for pred in predict_proposals(record, props, params, config, vocab, provider,
                                                 metric_config=metric_config, nms_iou=nms_iou,
                                                 pair_cap=pair_cap,
                                                 min_confidence=min_confidence)]
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
