import math
from collections import namedtuple

import numpy as np
import pytest

import relcap.model
from relcap.apps import retrieval_scores
from relcap.autodiff import Tensor, affine, backward, log_softmax, no_grad
from relcap.data import (SCHEMA_VERSION, TOY_SIZE, PosTag, ToyWorldConfig, build_vocab,
                         encode_caption, generate_toy_world, proposals_for_record, save_jsonl)
from relcap.errors import ConfigError, DataError
from relcap.geometry import Box, box_rows, iou_matrix, match_to_gt, nms, union_rows
from relcap.metrics import MetricConfig, PredictionRecord, Predictions
from relcap.model import (BLOCK, ImageBatch, ModelConfig, PairBatch, decode_arrays,
                          encode_pair_batch, init_params, stream_states)
from relcap.pipeline import (ProposalSettings, _gt_captions, build_image_batch, caption_pairs,
                             make_pair_batch, predicted_pos_tags)
from relcap.stemming import porter_stem


# Scalar box geometry: the oracles of ``geometry.iou_matrix`` and
# ``geometry.union_rows``, one ``Box`` at a time.

def intersection_area(a: Box, b: Box) -> float:
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih


def _corner_area(box: Box) -> float:
    x0, y0, x1, y1 = box.corners()
    return (x1 - x0) * (y1 - y0)


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 for disjoint boxes, exactly 1 for a == b.

    Areas are computed from corner coordinates so that they cancel exactly
    against the intersection; the final clamp guards the one-ulp cases.
    """
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    return min(1.0, inter / (_corner_area(a) + _corner_area(b) - inter))


def from_corners(x0, y0, x1, y1) -> Box:
    return Box((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0)


def union_box(a: Box, b: Box) -> Box:
    """Minimal axis-aligned box covering both inputs."""
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    return from_corners(min(ax0, bx0), min(ay0, by0), max(ax1, bx1), max(ay1, by1))


# Box-based reference of pipeline's GT step (``_gt_rows`` and ``_gt_captions``):
# endpoints match objects by ``Box`` equality, and one ``Box`` per distinct
# union box.

def match_relation_endpoints(record):
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
        return int(np.argmax(iou_matrix(box_rows([box]),
                                        box_rows([obj.box for obj in record.objects]))))

    lookup = {}
    for rel in record.relations:
        key = (object_index(rel.subject_box), object_index(rel.object_box))
        lookup.setdefault(key, rel)
    return lookup


def distinct_union_boxes(record):
    """De-duplicated relation union boxes with the relations they cover."""
    n = len(record.relations)
    ends = box_rows([rel.subject_box for rel in record.relations]
                    + [rel.object_box for rel in record.relations])
    unions = union_rows(ends, range(n), range(n, 2 * n)).tolist()
    boxes, rels, seen = [], [], {}
    for row, rel in zip(map(tuple, unions), record.relations):
        if row not in seen:
            seen[row] = len(boxes)
            boxes.append(Box(*row))
            rels.append([])
        rels[seen[row]].append(rel)
    return boxes, rels


def detected_boxes(record, config):
    """GT boxes the proposals stand for: the annotated objects, or for
    direct-union the de-duplicated relation union boxes."""
    if config.rpn_output == "union":
        return distinct_union_boxes(record)[0]
    return [obj.box for obj in record.objects]


def gt_captions(record, config):
    """``detected_boxes`` and (subject gt index, object gt index) ->
    relations captioning that pair.

    Object path: one relation per pair of distinct objects. Direct-union:
    every relation of a union box sits on the self-pair (g, g), so both
    directions that share the box are targets of one proposal.
    """
    if config.rpn_output == "union":
        boxes, rels = distinct_union_boxes(record)
        return boxes, {(g, g): group for g, group in enumerate(rels)}
    return detected_boxes(record, config), {
        key: [rel] for key, rel in match_relation_endpoints(record).items() if key[0] != key[1]}


def table_of(records):
    """The ``PredictionRecord``s as one ``Predictions`` table, row k record k,
    each record's boxes two rows of its own."""
    return Predictions(
        [p.image_id for p in records],
        box_rows([b for p in records for b in (p.subject_box, p.object_box)]),
        range(0, 2 * len(records), 2), range(1, 2 * len(records), 2),
        [t for p in records for t in p.tokens], [len(p.tokens) for p in records],
        [t for p in records for t in p.pos], [q for p in records for q in p.word_probs],
        [len(p.word_probs) for p in records], [p.confidence for p in records])


@pytest.fixture(scope="session")
def toy_world_small():
    """A small deterministic toy world shared across test modules."""
    records, provider = generate_toy_world(5, ToyWorldConfig(n_images=10))
    vocab = build_vocab(records, min_count=1)
    return records, provider, vocab


def tiny_config(feature_width, vocab_size, **overrides):
    defaults = dict(
        d_subj_obj=10, d_union=8, code_width=6, hidden=6, rem_dim=5,
        max_len=12, dropout=0.0,
    )
    defaults.update(overrides)
    return ModelConfig(feature_width=feature_width, vocab_size=vocab_size,
                       **defaults).validate()


def fresh_params(config, seed=0):
    return init_params(config, np.random.default_rng(seed))


def object_proposals(record, provider, seed):
    """``proposals_for_record`` over the record's annotated objects, with the
    default ``ProposalSettings`` jitter and background count."""
    settings = ProposalSettings(seed)
    return proposals_for_record(record, box_rows([obj.box for obj in record.objects]), provider,
                                settings.seed, settings.jitter, settings.n_background)


def pair_rows(pairs, rows):
    """The ``rows`` of a PairBatch as a PairBatch over the same regions."""
    return PairBatch(features=pairs.features,
                     subject_index=[pairs.subject_index[k] for k in rows],
                     object_index=[pairs.object_index[k] for k in rows],
                     union_features=pairs.union_features[rows],
                     geos=pairs.geos[rows])


def per_pair(code):
    """An ``encode_pair_batch`` (or ``stream_inputs``) code ``(rows, index)``
    as its ``(P, width)`` array, one row per pair."""
    rows, index = code
    return rows.data if index is None else rows.data[index]


def regroup_inputs(monkeypatch, run):
    """``run()``'s result and the ``states`` of each ``regroup`` call it
    made, in call order. In a ``run_streams`` pass of two steps or more,
    the first calls are step 1's, one per stream that shares states, in
    stream order: each holds that stream's row -> step-0 state map."""
    regroup, seen = relcap.model.regroup, []

    def spy(states, words, vocab):
        seen.append(states.copy())
        return regroup(states, words, vocab)

    monkeypatch.setattr(relcap.model, "regroup", spy)
    return run(), seen


def same_groups(a, b) -> bool:
    """Whether the labels ``a`` and ``b`` group rows alike: ``a[i] == a[j]``
    exactly when ``b[i] == b[j]``."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


def block_retrieval_scores(query, batches, params, config):
    """Reference of ``apps.retrieval_scores`` over the images ``batches``
    that never stacks an image and never shares a state: each image encoded
    alone, ``stream_states`` over consecutive chunks of at most BLOCK of the
    concatenated codes (so every row keeps its own state), one word head and
    log-softmax over every row's states at once, log sums in step order,
    then each image's first maximum."""
    steps = len(query)
    chunks = []
    with no_grad():
        codes = [encode_pair_batch(batch, params, config) for batch in batches]
        rows = {kind: np.concatenate([per_pair(code[kind]) for code in codes])
                for kind in codes[0]}
        n = sum(len(batch) for batch in batches)
        for lo in range(0, n, BLOCK):
            chunk = {kind: (Tensor(x[lo:lo + BLOCK]), None) for kind, x in rows.items()}
            targets = np.tile(query, (min(BLOCK, n - lo), 1))
            hidden = stream_states(chunk, targets, params, config).data
            chunks.append(hidden.reshape(steps, len(targets), -1))
        hidden = np.concatenate(chunks, axis=1).reshape(steps * n, -1)
        logits = affine(Tensor(hidden), params["head.word.w"], params["head.word.b"]).data
    logp = log_softmax(logits).reshape(steps, n, -1)
    log_scores = np.zeros(n)
    for t, word in enumerate(query):
        log_scores += logp[t, :, word]
    out, lo = [], 0
    for batch in batches:
        hi = lo + len(batch)
        best = lo + int(np.argmax(log_scores[lo:hi]))
        probs = np.exp(logp[np.arange(steps), best, query])
        out.append((float(math.exp(log_scores[best])), best - lo, probs.tolist()))
        lo = hi
    return out


# One pair's decoded caption: token ids, PosTag per token (empty without
# mtl), the chosen probability of every step taken (the end token's too)
# and their product.
CaptionPrediction = namedtuple("CaptionPrediction", "token_ids pos word_probs confidence")


def decode_batch(batch, params, config, mode="greedy", rng=None):
    """``decode_arrays`` as one ``CaptionPrediction`` per pair, in row order."""
    picks, chosen_probs, tags, emitted, taken = decode_arrays(batch, params, config, mode, rng)
    return [CaptionPrediction(ids[:e], [PosTag(x) for x in pos[:e]] if config.mtl else [],
                              probs[:k], float(math.prod(probs[:k])))
            for e, k, ids, probs, pos in zip(emitted.tolist(), taken.tolist(), picks.tolist(),
                                             chosen_probs.tolist(), tags.tolist())]


def reference_placement(rng, count):
    """Attempt-at-a-time reference of ``data._place_objects``: one ``Box`` per
    attempt, kept when its scalar ``iou`` with every kept box is below 0.2."""
    boxes = []
    for _ in range(count):
        for _attempt in range(200):
            w = rng.uniform(18.0, 42.0)
            h = rng.uniform(18.0, 42.0)
            x = rng.uniform(w / 2 + 1, TOY_SIZE - w / 2 - 1)
            y = rng.uniform(h / 2 + 1, TOY_SIZE - h / 2 - 1)
            box = Box(x, y, w, h)
            if all(iou(box, other) < 0.2 for other in boxes):
                boxes.append(box)
                break
        else:
            raise ConfigError("could not place non-overlapping toy objects")
    return boxes


def reference_background(record, boxes, seed, jitter, n_background):
    """Attempt-at-a-time reference of the background boxes and confidences
    ``proposals_for_record`` appends after its jittered boxes: scalar
    ``rng.uniform`` draws and a scalar ``iou`` against each box of ``boxes``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, record.image_id]))
    for source in boxes:                  # the jittered boxes' draws come first
        for _attempt in range(30):
            cand = Box(source.x + rng.uniform(-jitter, jitter) * source.w,
                       source.y + rng.uniform(-jitter, jitter) * source.h,
                       source.w * rng.uniform(1.0 - jitter, 1.0 + jitter),
                       source.h * rng.uniform(1.0 - jitter, 1.0 + jitter))
            if iou(cand, source) >= 0.75:
                break
        rng.uniform(0.80, 0.98)
    kept, confidences = [], []
    for _attempt in range(60 * max(n_background, 1)):
        if len(kept) >= n_background:
            break
        w = min(rng.uniform(16.0, 40.0), record.width)
        h = min(rng.uniform(16.0, 40.0), record.height)
        cand = Box(rng.uniform(w / 2, record.width - w / 2),
                   rng.uniform(h / 2, record.height - h / 2), w, h)
        if all(iou(cand, g) < 0.25 for g in boxes):
            kept.append(cand)
            confidences.append(rng.uniform(0.05, 0.35))
    return kept, confidences


def reference_predictions(record, proposals, params, config, vocab, provider,
                          pair_cap=None, min_confidence=None, mode="greedy", rng=None):
    """Record-loop reference of ``pipeline.predict_proposals`` at the default
    NMS: one validated ``PredictionRecord`` per decoded pair with a caption at
    or above ``min_confidence``, its confidence ``math.prod`` of its word
    probabilities, its boxes ``make_pair_batch``'s (subject, object) pair."""
    kept = nms(proposals, 0.5, MetricConfig().keep_after_nms)
    batch, boxes = make_pair_batch(record, kept, provider, config, pair_cap)
    if not boxes:
        return []
    picks, chosen_probs, tags, emitted, taken = decode_arrays(batch, params, config, mode, rng)
    out = []
    for e, k, ids, pos, word_probs, (sbox, obox) in zip(
            emitted.tolist(), taken.tolist(), picks.tolist(), tags.tolist(),
            chosen_probs.tolist(), boxes):
        confidence = math.prod(word_probs[:k])
        if e and (min_confidence is None or confidence >= min_confidence):
            out.append(PredictionRecord(
                record.image_id, sbox, obox, [vocab.decode_id(i) for i in ids[:e]],
                [PosTag(x).name for x in pos[:e]] if config.mtl else [], word_probs[:k],
                confidence).validate())
    return out


def reference_meteor(candidate, reference) -> float:
    """Left-to-right reference of ``metrics.meteor_lite``: each candidate
    token in order takes the first unused reference token equal to it, then
    each still unaligned one the first unused reference token of its stem.
    Empty captions score 0 (``meteor_lite`` also warns)."""
    cand = [t.lower() for t in candidate]
    ref = [t.lower() for t in reference]
    if not cand or not ref:
        return 0.0
    align = [-1] * len(cand)
    used = [False] * len(ref)
    for same in (lambda a, b: a == b, lambda a, b: porter_stem(a) == porter_stem(b)):
        for i, tok in enumerate(cand):
            if align[i] >= 0:
                continue
            for j, rtok in enumerate(ref):
                if not used[j] and same(rtok, tok):
                    align[i] = j
                    used[j] = True
                    break
    m = sum(1 for a in align if a >= 0)
    if m == 0:
        return 0.0
    precision = m / len(cand)
    recall = m / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    chunks = 0
    prev = None
    for i, a in enumerate(align):
        if a < 0:
            continue
        if prev is None or i != prev[0] + 1 or a != prev[1] + 1:
            chunks += 1
        prev = (i, a)
    return fmean * (1.0 - 0.5 * (chunks / m) ** 3)


# Tag names: the oracle of ``metrics.pos_accuracy`` over tag-name sequences,
# and of ``pipeline.model_pos_accuracy`` through an id -> name round trip.

def pos_accuracy_by_name(predicted_tags, gt_tags):
    """Token-level tag accuracy, overall and per class, of aligned sequences
    of tag-name sequences; a length mismatch within any pair is a ValueError."""
    counts = {"SUBJ": [0, 0], "PRED": [0, 0], "OBJ": [0, 0]}
    total = [0, 0]
    for pred_seq, gt_seq in zip(predicted_tags, gt_tags, strict=True):
        if len(pred_seq) != len(gt_seq):
            raise ValueError(f"tag sequences of length {len(pred_seq)} vs {len(gt_seq)}")
        for p, g in zip(pred_seq, gt_seq):
            hit = 1 if p == g else 0
            counts[g][0] += hit
            counts[g][1] += 1
            total[0] += hit
            total[1] += 1
    out = {"overall": total[0] / total[1] if total[1] else 0.0}
    for tag, (hit, seen) in counts.items():
        out[tag] = hit / seen if seen else 0.0
    return out


def all_pairs_image_batch(record, proposals, provider, vocab, config):
    """Reference of ``build_image_batch`` that gives every ordered pair of
    proposals its geometry and keeps the rows whose two labels key a caption."""
    gt_boxes, captions = _gt_captions(record, config)
    labels = match_to_gt(proposals.boxes, gt_boxes)
    subject, obj, unions, geos = caption_pairs(proposals, config)
    rows, token_ids, tags = [], [], []
    for k, key in enumerate(zip(labels[subject].tolist(), labels[obj].tolist())):
        for rel in captions.get(key, ()):
            ids, pos = encode_caption(rel.tokens, rel.pos, vocab, config.max_len)
            rows.append(k)
            token_ids.append(ids)
            tags.append(pos)
    return ImageBatch(pairs=PairBatch(proposals.features, subject[rows], obj[rows],
                                      provider.features_many(record, unions[rows]), geos[rows]),
                      token_ids=token_ids, tags=tags, prop_boxes=proposals.boxes,
                      gt_boxes=gt_boxes, labels=labels)


def tag_names(ids):
    return [PosTag(int(x)).name for x in ids]


def reference_pos_accuracy(records, proposals, params, config, vocab, provider):
    """``pos_accuracy_by_name`` over the tag names of every GT-matched
    caption's teacher-forced predictions and references, caption by caption."""
    predicted, reference = [], []
    with no_grad():
        for record, props in zip(records, proposals, strict=True):
            batch = build_image_batch(record, props, provider, vocab, config)
            if not batch.pairs:
                continue
            codes = encode_pair_batch(batch.pairs, params, config)
            picks = predicted_pos_tags(batch.token_ids, codes, params, config)
            predicted += [tag_names(row[:len(ids)]) for row, ids in zip(picks, batch.token_ids)]
            reference += [tag_names(tags) for tags in batch.tags]
    return pos_accuracy_by_name(predicted, reference)


def geometric_feature(subject, obj):
    """Scalar reference of one ``geometry.pair_geometry`` geometry row."""
    scale = math.sqrt(subject.w * subject.h)
    return np.array([
        (obj.x - subject.x) / scale,
        (obj.y - subject.y) / scale,
        math.sqrt((obj.w * obj.h) / (subject.w * subject.h)),
        subject.w / subject.h,
        obj.w / obj.h,
        iou(subject, obj),
    ])


def scalar_features(provider, record, box):
    """Per-box reference of ``ToyFeatureProvider.features_many``: the
    (1, feature_width) descriptor of one ``Box``, object by object."""
    if record.scene is None:
        raise DataError(f"image {record.image_id}: the toy feature provider needs "
                        "a scene description")
    shape_vec = np.zeros(len(provider.shapes))
    color_vec = np.zeros(len(provider.colors))
    covered = 0.0
    for obj in record.scene:
        inter = intersection_area(obj.box, box)
        if inter <= 0.0:
            continue
        frac = inter / obj.box.area
        try:
            shape_vec[provider.shapes.index(obj.shape)] += frac
            color_vec[provider.colors.index(obj.color)] += frac
        except ValueError:
            raise DataError(f"image {record.image_id}: scene object {obj.color} {obj.shape} "
                            "is outside the provider's shapes and colors") from None
        covered += inter
    stats = np.array([
        box.x / record.width,
        box.y / record.height,
        box.w / record.width,
        box.h / record.height,
        min(covered / box.area, 1.0),
    ])
    return np.concatenate([shape_vec, color_vec, stats]).reshape(1, -1)


def reference_top_pairs(products, max_pairs=None):
    """List reference of ``geometry.top_pairs``: positions of the
    ``max_pairs`` largest products (ties by position), in input order."""
    if max_pairs is None or len(products) <= max_pairs:
        return list(range(len(products)))
    scored = sorted(range(len(products)), key=lambda k: (-products[k], k))
    return sorted(scored[:max_pairs])


def reference_combination_layer(confidence, max_pairs=None):
    """List-of-tuples reference of ``geometry.combination_layer``: every
    ordered pair (i, j), i != j, lexicographic, capped by
    ``reference_top_pairs`` of the confidence products."""
    n = len(confidence)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = reference_top_pairs([confidence[i] * confidence[j] for i, j in pairs], max_pairs)
    return [pairs[k] for k in keep]


def retrieval_score(query_ids, batch, params, config):
    """``apps.retrieval_scores`` of one image, encoded alone: (score, best
    pair index, per-word probabilities of that pair)."""
    with no_grad():
        codes = encode_pair_batch(batch, params, config)
    return retrieval_scores(query_ids, batch, codes, params, config)[0]


def save_attributes(path, records):
    """Write ``ImageAttributes`` as the attributes file ``relcap enrich`` reads."""
    save_jsonl(path, ({"schema_version": SCHEMA_VERSION, "image_id": rec.image_id,
                       "objects": [{"name": e.name, "attributes": list(e.attributes),
                                    "box": e.box.to_json()} for e in rec.entries]}
                      for rec in records))


def zero_grad(p):
    """Zero a ``Parameter``'s persistent gradient buffer in place."""
    p.grad[...] = 0.0


def finite_diff_check(forward, params, eps: float = 1e-5,
                      max_coords_per_param: int = 8,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward`` must be a deterministic closure returning a scalar Tensor;
    determinism is verified by evaluating the baseline twice. Up to
    ``max_coords_per_param`` coordinates are probed per parameter.
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be positive")
    params = list(params)
    base_a = forward().data.item()
    base_b = forward().data.item()
    if base_a != base_b:
        raise ValueError("finite_diff_check: forward closure is not deterministic")

    for p in params:
        zero_grad(p)
    backward(forward())
    analytic = {p.name: p.grad.copy() for p in params}
    for p in params:
        zero_grad(p)

    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = forward().data.item()
            flat[c] = orig - eps
            f_minus = forward().data.item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[p.name].reshape(-1)[c]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst
