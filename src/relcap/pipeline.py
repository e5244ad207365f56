"""Glue between datasets and the network: training batches, the epoch
loop, batched decoding into prediction records, and full evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import (ObjectAnnotation, PosTag, RelationalRecord, Vocabulary,
                   encode_caption, proposals_for_record)
from .errors import ConfigError, DataError, InvariantError
from .geometry import (Box, combination_layer, geometric_feature, iou,
                       match_to_gt, nms, union_box)
from .metrics import (EvalReport, MetricConfig, PredictionRecord, diversity_stats,
                      image_level_recall, mean_meteor, pos_accuracy, relational_map,
                      vrd_recall_at_k)
from .model import (CaptionTarget, ImageBatch, ModelConfig, ModelParams, PairBatch,
                    _pad_targets, decode_batch, encode_pair_batch, init_params,
                    teacher_forced_unroll, total_loss)


@dataclass
class ProposalSettings:
    seed: int = 0
    jitter: float = 0.08
    n_background: int = 2


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


def union_region_proposals(record: RelationalRecord, provider, settings: ProposalSettings):
    """Proposals over whole relation regions (the direct-union variant).

    Reuses the jitter/background machinery with the de-duplicated relation
    union boxes standing in for the annotated objects.
    """
    boxes, _ = _distinct_union_boxes(record)
    stand_in = RelationalRecord(
        image_id=record.image_id, width=record.width, height=record.height,
        relations=[], objects=[ObjectAnnotation("union", [], b) for b in boxes],
        scene=record.scene)
    return proposals_for_record(stand_in, provider, settings.seed,
                                jitter=settings.jitter,
                                n_background=settings.n_background)


def build_proposals(record: RelationalRecord, provider, config: ModelConfig,
                    settings: ProposalSettings):
    if config.rpn_output == "union":
        return union_region_proposals(record, provider, settings)
    return proposals_for_record(record, provider, settings.seed,
                                jitter=settings.jitter,
                                n_background=settings.n_background)


def build_image_batch(record: RelationalRecord, proposals, provider,
                      vocab: Vocabulary, config: ModelConfig) -> ImageBatch:
    """Assemble proposals, match labels and caption targets for one image."""
    features = np.vstack([p.feature for p in proposals])
    if config.rpn_output == "union":
        gt_boxes, gt_relations = _distinct_union_boxes(record)
        labels = match_to_gt(proposals, gt_boxes)
        targets = []
        for i, label in enumerate(labels):
            if label.kind != "positive":
                continue
            for rel in gt_relations[label.gt_index]:
                ids, tags = encode_caption(rel.tokens, rel.pos, vocab, config.max_len)
                targets.append(CaptionTarget(
                    subject_index=i, object_index=i,
                    union_feature=proposals[i].feature,
                    geo=np.zeros(6), token_ids=ids, tags=tags))
        return ImageBatch(features=features,
                          prop_boxes=[p.box for p in proposals],
                          gt_boxes=gt_boxes, labels=labels, targets=targets)

    gt_boxes = [obj.box for obj in record.objects]
    labels = match_to_gt(proposals, gt_boxes)
    lookup = _match_relation_endpoints(record)
    targets = []
    for i, a in enumerate(proposals):
        if labels[i].kind != "positive":
            continue
        for j, b in enumerate(proposals):
            if i == j or labels[j].kind != "positive":
                continue
            if labels[i].gt_index == labels[j].gt_index:
                continue
            rel = lookup.get((labels[i].gt_index, labels[j].gt_index))
            if rel is None:
                continue
            ids, tags = encode_caption(rel.tokens, rel.pos, vocab, config.max_len)
            ub = union_box(a.box, b.box)
            targets.append(CaptionTarget(
                subject_index=i, object_index=j,
                union_feature=provider.features(record, ub),
                geo=geometric_feature(a.box, b.box),
                token_ids=ids, tags=tags))
    return ImageBatch(features=features,
                      prop_boxes=[p.box for p in proposals],
                      gt_boxes=gt_boxes, labels=labels, targets=targets)


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
        optimizer = ad.OptimizerState(params.all(), lr=settings.lr)
    dropout_rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 1]))

    batches = [
        (rec.image_id,
         build_image_batch(rec, build_proposals(rec, provider, config, settings.proposals),
                           provider, vocab, config))
        for rec in records
    ]
    history = []
    keys = ("l_cap", "l_pos", "l_det", "l_box", "total")
    for epoch in range(settings.epochs):
        sums = dict.fromkeys(keys, 0.0)
        for image_id, batch in batches:
            loss, report = total_loss(batch, params, config,
                                      alpha=settings.alpha, beta=settings.beta,
                                      gamma=settings.gamma, training=True,
                                      rng=dropout_rng)
            bad = [key for key in keys if not math.isfinite(getattr(report, key))]
            if bad:
                raise InvariantError(f"epoch {epoch + 1}, image {image_id}: non-finite "
                                     f"{bad[0]} = {getattr(report, bad[0])!r}")
            ad.backward(loss)
            ad.adam_step(params.all(), optimizer)
            for key in keys:
                sums[key] += getattr(report, key)
        row = {"epoch": epoch + 1}
        row.update({key: sums[key] / max(len(batches), 1) for key in keys})
        history.append(row)
        if on_epoch is not None:
            on_epoch(epoch, row, params, optimizer)
    return params, optimizer, history


def history_to_csv(history) -> str:
    lines = ["epoch,l_cap,l_pos,l_det,l_box,total"]
    for row in history:
        lines.append(f"{row['epoch']},{row['l_cap']!r},{row['l_pos']!r},"
                     f"{row['l_det']!r},{row['l_box']!r},{row['total']!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# prediction and evaluation
# ---------------------------------------------------------------------------

def make_pair_batch(record: RelationalRecord, proposals, provider,
                    config: ModelConfig, pair_cap: int | None = None):
    """PairBatch over kept proposals plus per-pair (subject, object) boxes."""
    if not proposals:
        empty = np.zeros((0, config.feature_width))
        return PairBatch(empty, [], [], empty.copy(), np.zeros((0, 6))), []
    features = np.vstack([p.feature for p in proposals])
    row_of = {p.id: i for i, p in enumerate(proposals)}
    if config.rpn_output == "union":
        batch = PairBatch(
            features=features,
            subject_index=list(range(len(proposals))),
            object_index=list(range(len(proposals))),
            union_features=features.copy(),
            geos=np.zeros((len(proposals), 6)),
        )
        boxes = [(p.box, p.box) for p in proposals]
        return batch, boxes
    pairs = combination_layer(proposals, max_pairs=pair_cap)
    if not pairs:
        return PairBatch(features, [], [], np.zeros((0, features.shape[1])),
                         np.zeros((0, 6))), []
    batch = PairBatch(
        features=features,
        subject_index=[row_of[p.subject.id] for p in pairs],
        object_index=[row_of[p.object.id] for p in pairs],
        union_features=np.vstack([provider.features(record, p.union_box) for p in pairs]),
        geos=np.vstack([p.geo.reshape(1, -1) for p in pairs]),
    )
    return batch, [(p.subject.box, p.object.box) for p in pairs]


def kept_pair_batch(record: RelationalRecord, provider, config: ModelConfig,
                    settings: ProposalSettings, nms_iou: float, keep: int,
                    pair_cap: int | None = None):
    """Proposals, NMS down to ``keep``, then make_pair_batch over the survivors."""
    kept = nms(build_proposals(record, provider, config, settings), nms_iou, keep)
    return make_pair_batch(record, kept, provider, config, pair_cap)


def predict_image(record: RelationalRecord, params: ModelParams, config: ModelConfig,
                  vocab: Vocabulary, provider, settings: ProposalSettings,
                  metric_config: MetricConfig | None = None,
                  nms_iou: float = 0.5, pair_cap: int | None = None,
                  min_confidence: float | None = None,
                  mode: str = "greedy", rng: np.random.Generator | None = None):
    """Decode captions for every surviving pair of one image."""
    metric_config = metric_config or MetricConfig()
    batch, boxes = kept_pair_batch(record, provider, config, settings, nms_iou,
                                   metric_config.keep_after_nms, pair_cap)
    if not boxes:
        return []
    decoded = decode_batch(batch, params, config, mode=mode, rng=rng)
    out = []
    for pred, (sbox, obox) in zip(decoded, boxes):
        if not pred.token_ids:
            continue
        if min_confidence is not None and pred.confidence < min_confidence:
            continue
        out.append(PredictionRecord(
            image_id=record.image_id,
            subject_box=sbox, object_box=obox,
            tokens=[vocab.decode_id(i) for i in pred.token_ids],
            pos=[tag.name for tag in pred.pos],
            word_probs=list(pred.word_probs),
            confidence=pred.confidence,
        ).validate())
    return out


def predict_records(records, params: ModelParams, config: ModelConfig, vocab: Vocabulary,
                    provider, settings: ProposalSettings, **predict_options):
    """predict_image over every record, concatenated in record order."""
    return [pred for record in records
            for pred in predict_image(record, params, config, vocab, provider, settings,
                                      **predict_options)]


def predicted_pos_tags(batch_targets, codes, params, config):
    """Teacher-forced POS argmax per step for each caption target."""
    padded = _pad_targets([t.token_ids for t in batch_targets], 0)
    steps = teacher_forced_unroll(codes, padded, params, config)
    picks = np.stack([pos.data.argmax(axis=1) for _, pos, _ in steps], axis=1)
    return [[PosTag(int(x)).name for x in picks[i, :len(t.token_ids)]]
            for i, t in enumerate(batch_targets)]


def model_pos_accuracy(records, params, config: ModelConfig, vocab, provider,
                       settings: ProposalSettings):
    """Teacher-forced tag accuracy over all GT-matched pairs."""
    predicted, reference = [], []
    for record in records:
        proposals = build_proposals(record, provider, config, settings)
        batch = build_image_batch(record, proposals, provider, vocab, config)
        if not batch.targets:
            continue
        codes = encode_pair_batch(PairBatch.from_targets(batch.features, batch.targets),
                                  params, config)
        predicted.extend(predicted_pos_tags(batch.targets, codes, params, config))
        reference.extend([[PosTag(int(x)).name for x in t.tags] for t in batch.targets])
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
    predictions = predict_records(records, params, config, vocab, provider, settings,
                                  metric_config=metric_config, nms_iou=nms_iou,
                                  pair_cap=pair_cap, min_confidence=min_confidence)
    words_img, words_box = diversity_stats(predictions)
    report = EvalReport(
        map_percent=relational_map(predictions, gts, metric_config),
        image_level_recall=image_level_recall(predictions, gts,
                                              metric_config.meteor_thresholds),
        mean_meteor=mean_meteor(predictions, gts),
        words_per_img=words_img,
        words_per_box=words_box,
        vrd_phrase_recall={k: vrd_recall_at_k(predictions, gts, k, "phrase", metric_config)
                           for k in vrd_ks},
        vrd_relationship_recall={k: vrd_recall_at_k(predictions, gts, k, "relationship",
                                                    metric_config) for k in vrd_ks},
        pos_accuracy=(model_pos_accuracy(records, params, config, vocab, provider, settings)
                      if config.mtl else None),
    )
    return report.validate(), predictions
