"""Downstream consumers of predictions: caption graphs and sentence-based
image / region-pair retrieval."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError
from .geometry import Box, box_rows, iou_matrix
from .model import (ModelConfig, ModelParams, PairBatch, encode_pair_batch, head_logits,
                    run_streams, stream_inputs)

NODE_MERGE_IOU = 0.9     # default IoU at or above which caption-graph nodes merge


@dataclass
class GraphNode:
    id: int
    phrase: str
    box: Box
    confidence: float


@dataclass
class GraphEdge:
    source: int
    target: int
    phrase: str
    confidence: float


@dataclass
class CaptionGraph:
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)


def _span(prediction, tag: str):
    return [t for t, p in zip(prediction.tokens, prediction.pos) if p == tag]


def build_caption_graph(predictions, node_merge_iou: float = NODE_MERGE_IOU) -> CaptionGraph:
    """Graph over one image's predictions: subject/object phrases become
    nodes, predicate phrases become directed edges.

    Nodes whose boxes overlap at or above ``node_merge_iou`` merge, keeping
    the phrase from the highest-confidence caption; parallel edges between
    the same ordered node pair keep only the highest confidence. Predictions
    missing any POS span are skipped with a warning.
    """
    graph = CaptionGraph()

    def node_for(phrase, box, confidence):
        if graph.nodes:
            overlaps = iou_matrix(box_rows([node.box for node in graph.nodes]), box_rows([box]))
            best = int(np.argmax(overlaps))
            if overlaps[best, 0] >= node_merge_iou:
                return graph.nodes[best].id
        node = GraphNode(id=len(graph.nodes), phrase=phrase, box=box, confidence=confidence)
        graph.nodes.append(node)
        return node.id

    seen_edges = {}
    for pred in sorted(predictions, key=lambda p: -p.confidence):
        subj = _span(pred, "SUBJ")
        verb = _span(pred, "PRED")
        obj = _span(pred, "OBJ")
        if not subj or not verb or not obj:
            warnings.warn(f"prediction {' '.join(pred.tokens)!r} lacks a full "
                          "SUBJ/PRED/OBJ segmentation; skipped")
            continue
        src = node_for(" ".join(subj), pred.subject_box, pred.confidence)
        dst = node_for(" ".join(obj), pred.object_box, pred.confidence)
        if (src, dst) not in seen_edges:
            edge = GraphEdge(source=src, target=dst, phrase=" ".join(verb),
                             confidence=pred.confidence)
            seen_edges[(src, dst)] = edge
            graph.edges.append(edge)
    return graph


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_graph(graph: CaptionGraph, fmt: str) -> str:
    """Serialize a caption graph as DOT or JSON text."""
    if fmt == "dot":
        lines = ["digraph caption_graph {"]
        for node in graph.nodes:
            lines.append(f'  n{node.id} [label="{_dot_escape(node.phrase)}"];')
        for edge in graph.edges:
            lines.append(f'  n{edge.source} -> n{edge.target} '
                         f'[label="{_dot_escape(edge.phrase)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({
            "nodes": [{"id": n.id, "phrase": n.phrase, "box": n.box.to_json(),
                       "confidence": n.confidence} for n in graph.nodes],
            "edges": [{"source": e.source, "target": e.target, "phrase": e.phrase,
                       "confidence": e.confidence} for e in graph.edges],
        }, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def retrieval_scores(query_ids, batch: PairBatch, codes, params: ModelParams,
                     config: ModelConfig):
    """Probability that a query occurs for the best pair of each image.

    ``batch`` holds the candidate images (``PairBatch.stack``, pairs in image
    order) and ``codes`` its ``encode_pair_batch`` codes. All its rows run
    through one untaped ``run_streams`` pass, teacher-forced with the query;
    ``emit`` applies the word head per block (``head_logits``) and
    keeps only the query words' log-probabilities (``log_softmax`` of the
    word's column), ``(T, P)``, never the hidden states. Like every untaped
    pass, at any size, it steps one subject or object state per region and
    fed prefix (``run_streams``). A row's log sum (in step order) does not
    depend on the other rows (every product runs in fixed tiles); an image's
    score is the first maximum over its rows. Returns one (score, best pair
    index within the image, per-word probabilities of that pair) per image.
    A non-finite score is a ``DataError``.
    """
    query = list(query_ids)
    if not query:
        raise ValueError("retrieval needs a non-empty query")
    image = np.searchsorted(np.cumsum(batch.image_regions), batch.subject_index, side="right")
    sizes = np.bincount(image, minlength=len(batch.image_regions))
    if sizes.min() == 0:
        raise ValueError("retrieval needs at least one candidate pair per image")
    logp = np.empty((len(query), len(batch)))

    def emit(t, lo, feat):
        logp[t, lo:lo + len(feat)] = ad.log_softmax(head_logits(feat, params, "word"), query[t])
        return np.full(len(feat), query[t])

    with ad.no_grad():
        run_streams(stream_inputs(codes, params, config), params, config, len(query), emit)
    log_scores = np.zeros(logp.shape[1])
    for row in logp:
        log_scores += row
    if not np.isfinite(log_scores).all():
        raise DataError("retrieval scores are not finite (diverged parameters?)")
    out, lo = [], 0
    for size in sizes.tolist():
        best = lo + int(np.argmax(log_scores[lo:lo + size]))
        probs = np.exp(logp[:, best])
        out.append((float(math.exp(log_scores[best])), best - lo, probs.tolist()))
        lo += size
    return out


@dataclass(frozen=True)
class RetrievalProtocol:
    """Scaled-down sentence-retrieval protocol.

    ``num_images`` candidate images; each round samples
    ``captions_per_image`` GT captions from ``num_query_images`` randomly
    chosen images and averages results over ``rounds`` reshuffles.
    """

    num_images: int = 100
    num_query_images: int = 5
    captions_per_image: int = 4
    ks: tuple = (1, 5, 10)
    rounds: int = 3


def retrieval_eval(scorables, gt_captions, vocab, params, config,
                   protocol: RetrievalProtocol, seed: int = 0):
    """R@K table and median rank for sentence-based image retrieval.

    ``scorables``: list of (image_id, PairBatch) candidates;
    ``gt_captions``: image_id -> list of token lists to sample queries from.
    Query images are drawn among the candidates with at least one caption.
    The candidates are stacked into one ``PairBatch`` and encoded in one
    ``encode_pair_batch`` call; every query then scores all candidates in
    one ``retrieval_scores`` pass, which holds the query words'
    log-probabilities of every candidate row, not their hidden states.
    """
    candidates = list(scorables)[:protocol.num_images]
    if len(candidates) < protocol.num_query_images:
        raise ConfigError(
            f"retrieval needs at least {protocol.num_query_images} images, "
            f"got {len(candidates)}")
    candidate_ids = [img for img, _ in candidates]
    captioned = [k for k, img in enumerate(candidate_ids) if gt_captions.get(img)]
    if len(captioned) < protocol.num_query_images:
        raise DataError(
            f"retrieval needs {protocol.num_query_images} query images with GT "
            f"captions, but only {len(captioned)} of {len(candidates)} candidates have any")
    batch = PairBatch.stack([batch for _, batch in candidates])
    with ad.no_grad():
        codes = encode_pair_batch(batch, params, config)

    per_round_recall = {k: [] for k in protocol.ks}
    per_round_median = []
    ranks_all = []
    for round_idx in range(protocol.rounds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, round_idx]))
        chosen = rng.choice(len(captioned), size=protocol.num_query_images, replace=False)
        queries = []
        for pos in chosen:
            image_id = candidate_ids[captioned[pos]]
            captions = gt_captions[image_id]
            picks = rng.choice(len(captions),
                               size=min(protocol.captions_per_image, len(captions)),
                               replace=False)
            for p in picks:
                queries.append((image_id, captions[p]))
        ranks = []
        for source_id, tokens in queries:
            ids = [vocab.encode_token(t) for t in tokens]
            scores = [score for score, _, _ in retrieval_scores(ids, batch, codes, params, config)]
            order = sorted(zip(candidate_ids, scores), key=lambda s: (-s[1], s[0]))
            rank = 1 + next(i for i, (img, _) in enumerate(order) if img == source_id)
            ranks.append(rank)
        ranks_all.extend(ranks)
        for k in protocol.ks:
            per_round_recall[k].append(np.mean([1.0 if r <= k else 0.0 for r in ranks]))
        per_round_median.append(float(np.median(ranks)))
    return {
        "r_at_k": {k: float(np.mean(v)) for k, v in per_round_recall.items()},
        "median_rank": float(np.mean(per_round_median)),
        "num_queries": len(ranks_all),
        "rounds": protocol.rounds,
    }
