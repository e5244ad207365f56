"""Command-line entry points.

Subcommands: gen-toy, train, eval, infer, graph, retrieve, enrich. Every
command is deterministic given its configuration and inputs; outputs carry
a provenance block (config hash, seed, format versions). Exit codes:
0 success, 2 config/usage error, 3 data error, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .apps import RetrievalProtocol, build_caption_graph, export_graph, retrieval_eval
from .checkpoint import write_atomic
from .data import (SCHEMA_VERSION, ToyFeatureProvider, ToyWorldConfig, build_vocab,
                   enrich_attributes, generate_toy_world, load_attributes, load_dataset,
                   load_jsonl, load_pos_lexicon, save_dataset, save_jsonl, split_records)
from .errors import ConfigError, DataError, InvariantError
from .geometry import Box, nms
from .metrics import MetricConfig, PredictionRecord
from .model import ModelConfig, load_model, save_model
from .pipeline import (ProposalSettings, TrainSettings, build_proposals, evaluate_model,
                       history_to_csv, make_pair_batch, predict_records, train_model)


def _sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256_bytes(fh.read())


def provenance(config: dict, seed) -> dict:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "config_sha256": _sha256_bytes(canon.encode("utf-8")),
        "seed": seed,
        "dataset_schema_version": SCHEMA_VERSION,
        "package_version": __version__,
    }


def _write_json(path: str, payload: dict) -> None:
    write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# prediction JSON-lines wire format
# ---------------------------------------------------------------------------

def prediction_to_json(pred: PredictionRecord) -> dict:
    return {
        "image_id": pred.image_id,
        "subject_box": pred.subject_box.to_json(),
        "object_box": pred.object_box.to_json(),
        "caption": " ".join(pred.tokens),
        "pos": list(pred.pos),
        "word_probs": list(pred.word_probs),
        "confidence": pred.confidence,
    }


def prediction_from_json(obj: dict) -> PredictionRecord:
    return PredictionRecord(
        image_id=int(obj["image_id"]),
        subject_box=Box.from_json(obj["subject_box"]),
        object_box=Box.from_json(obj["object_box"]),
        tokens=obj["caption"].split(),
        pos=[str(p) for p in obj["pos"]],
        word_probs=[float(p) for p in obj["word_probs"]],
        confidence=float(obj["confidence"]),
    ).validate()


def write_predictions(path: str, predictions) -> None:
    save_jsonl(path, (prediction_to_json(p.validate()) for p in predictions))


def read_predictions(path: str):
    return load_jsonl(path, prediction_from_json, "prediction")


# ---------------------------------------------------------------------------
# shared option loading
# ---------------------------------------------------------------------------

def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _resolve(args, file_config: dict, name: str, default, kind=None):
    """Precedence: CLI flag > config file > default.

    A missing or null config-file value gives the default; any other is
    converted to ``kind`` (default: the type of ``default``), and one that
    does not convert is a ConfigError naming the key.
    """
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    value = file_config.get(name)
    if value is None:
        return default
    kind = kind or type(default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {name!r}: {value!r} is not a valid "
                          f"{kind.__name__}") from exc


def _at_least(value: int, minimum: int, option: str) -> int:
    if value < minimum:
        raise ConfigError(f"--{option} must be at least {minimum}, got {value}")
    return value


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_provider(path: str) -> ToyFeatureProvider:
    try:
        with open(_require_file(path, "provider spec"), "r", encoding="utf-8") as fh:
            return ToyFeatureProvider.from_json(json.load(fh))
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"bad provider spec {path}: {exc}") from exc


def _check_vocab(vocab, records) -> None:
    tokens = [t for record in records for rel in record.relations for t in rel.tokens]
    if not tokens:
        return
    oov = sum(1 for t in tokens if t not in vocab)
    if oov / len(tokens) > 0.5:
        raise ConfigError(
            "vocabulary mismatch: over half of the dataset tokens are unknown "
            "to the checkpoint vocabulary")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_toy(args) -> int:
    cfg_file = _load_config_file(args.config)
    seed = _resolve(args, cfg_file, "seed", 7)
    toy = ToyWorldConfig(
        n_images=_resolve(args, cfg_file, "images", 120),
        min_objects=_resolve(args, cfg_file, "min-objects", 2),
        max_objects=_resolve(args, cfg_file, "max-objects", 4),
        inside_prob=_resolve(args, cfg_file, "inside-prob", 0.25),
        n_background=_resolve(args, cfg_file, "background", 2),
        jitter=_resolve(args, cfg_file, "jitter", 0.08),
    ).validate()
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    records, provider = generate_toy_world(seed, toy)
    train, val, test = split_records(records, toy.splits)
    paths = {}
    for name, subset in (("train", train), ("val", val), ("test", test)):
        path = os.path.join(out_dir, f"{name}.jsonl")
        save_dataset(path, subset)
        paths[name] = {"path": f"{name}.jsonl", "images": len(subset),
                       "sha256": _sha256_file(path)}
    provider_path = os.path.join(out_dir, "provider.json")
    _write_json(provider_path, provider.to_json())
    config_echo = {"seed": seed, "toy": toy.__dict__ | {"shapes": list(toy.shapes),
                                                        "colors": list(toy.colors),
                                                        "splits": list(toy.splits)}}
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "splits": paths,
        "provider": {"path": "provider.json", "sha256": _sha256_file(provider_path)},
        "config": config_echo,
        "provenance": provenance(config_echo, seed),
    })
    print(f"wrote {sum(p['images'] for p in paths.values())} images to {out_dir} "
          f"({paths['train']['images']}/{paths['val']['images']}/{paths['test']['images']} split)")
    return 0


def _proposal_settings(args, cfg_file) -> ProposalSettings:
    return ProposalSettings(
        seed=_resolve(args, cfg_file, "proposal-seed", 0),
        jitter=_resolve(args, cfg_file, "jitter", 0.08),
        n_background=_resolve(args, cfg_file, "background", 2),
    )


def cmd_train(args) -> int:
    cfg_file = _load_config_file(args.config)
    records = load_dataset(_require_file(args.data, "training dataset"))
    provider = _load_provider(args.provider)
    seed = _resolve(args, cfg_file, "seed", 0)
    epochs = _at_least(_resolve(args, cfg_file, "epochs", 100), 1, "epochs")
    settings = TrainSettings(
        epochs=epochs,
        lr=_resolve(args, cfg_file, "lr", 1e-3),
        alpha=_resolve(args, cfg_file, "alpha", 0.1),
        beta=_resolve(args, cfg_file, "beta", 0.1),
        gamma=_resolve(args, cfg_file, "gamma", 0.1),
        seed=seed,
        proposals=_proposal_settings(args, cfg_file),
    )
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "model.rckpt")

    params = optimizer = None
    if args.resume:
        params, config, vocab, optimizer, _ = load_model(_require_file(args.resume, "checkpoint"))
        _check_vocab(vocab, records)
    else:
        vocab = build_vocab(records, min_count=_resolve(args, cfg_file, "min-count", 1))
        config = ModelConfig.from_name(
            _resolve(args, cfg_file, "model", "mttsnet"),
            feature_width=provider.feature_width,
            vocab_size=len(vocab),
            d_subj_obj=_resolve(args, cfg_file, "d-subj-obj", 64),
            d_union=_resolve(args, cfg_file, "d-union", 32),
            code_width=_resolve(args, cfg_file, "hidden", 48),
            hidden=_resolve(args, cfg_file, "hidden", 48),
            rem_dim=_resolve(args, cfg_file, "rem-dim", 32),
            max_len=_resolve(args, cfg_file, "max-len", 12),
            dropout=_resolve(args, cfg_file, "dropout", 0.1),
        )

    config_echo = {"model": config.to_json(), "train": {
        "epochs": settings.epochs, "lr": settings.lr, "alpha": settings.alpha,
        "beta": settings.beta, "gamma": settings.gamma, "seed": seed,
        "proposal_seed": settings.proposals.seed, "jitter": settings.proposals.jitter,
        "background": settings.proposals.n_background}}
    prov = provenance(config_echo, seed)

    def on_epoch(_epoch, _row, cur_params, cur_opt):
        save_model(ckpt_path, cur_params, config, vocab, optimizer=cur_opt,
                   extra_meta={"provenance": prov})

    params, optimizer, history = train_model(
        records, provider, vocab, config, settings,
        params=params, optimizer=optimizer, on_epoch=on_epoch)
    write_atomic(os.path.join(out_dir, "train_log.csv"),
                 history_to_csv(history).encode("utf-8"))
    _write_json(os.path.join(out_dir, "train_manifest.json"),
                {"config": config_echo, "provenance": prov,
                 "checkpoint": {"path": "model.rckpt", "sha256": _sha256_file(ckpt_path)},
                 "final_loss": history[-1] if history else None})
    if history:
        print(f"epoch {history[-1]['epoch']}: total loss {history[-1]['total']:.6f}")
    print(f"checkpoint written to {ckpt_path}")
    return 0


def _eval_like_setup(args, cfg_file):
    params, config, vocab, _, _ = load_model(_require_file(args.checkpoint, "checkpoint"))
    records = load_dataset(_require_file(args.data, "dataset"))
    provider = _load_provider(args.provider)
    if provider.feature_width != config.feature_width:
        raise ConfigError(
            f"provider feature width {provider.feature_width} does not match "
            f"checkpoint feature width {config.feature_width}")
    _check_vocab(vocab, records)
    settings = _proposal_settings(args, cfg_file)
    return params, config, vocab, records, provider, settings


def _predict_options(args, cfg_file) -> dict:
    """predict_image keyword options shared by eval and infer."""
    pair_cap = _resolve(args, cfg_file, "pair-cap", None, int)
    return {
        "metric_config": MetricConfig(keep_after_nms=_at_least(
            _resolve(args, cfg_file, "keep-after-nms", 50), 0, "keep-after-nms")),
        "nms_iou": _resolve(args, cfg_file, "nms-iou", 0.5),
        "pair_cap": None if pair_cap is None else _at_least(pair_cap, 0, "pair-cap"),
        "min_confidence": _resolve(args, cfg_file, "min-confidence", None, float),
    }


def cmd_eval(args) -> int:
    cfg_file = _load_config_file(args.config)
    params, config, vocab, records, provider, settings = _eval_like_setup(args, cfg_file)
    report, predictions = evaluate_model(records, params, config, vocab, provider, settings,
                                         **_predict_options(args, cfg_file))
    payload = {"report": report.to_json(),
               "n_predictions": len(predictions),
               "provenance": provenance({"eval": vars(args).get("data")}, settings.seed)}
    if args.out:
        _write_json(args.out, payload)
    print(report.render_table())
    return 0


def cmd_infer(args) -> int:
    cfg_file = _load_config_file(args.config)
    params, config, vocab, records, provider, settings = _eval_like_setup(args, cfg_file)
    mode = _resolve(args, cfg_file, "mode", "greedy")
    if mode not in ("greedy", "stochastic"):
        raise ConfigError(f"config key 'mode': expected greedy or stochastic, got {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 99])) \
        if mode == "stochastic" else None
    proposals = (build_proposals(record, provider, config, settings) for record in records)
    predictions = predict_records(records, proposals, params, config, vocab, provider,
                                  mode=mode, rng=rng, **_predict_options(args, cfg_file))
    write_predictions(args.out, predictions)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def cmd_graph(args) -> int:
    predictions = read_predictions(_require_file(args.predictions, "predictions file"))
    image_ids = sorted({p.image_id for p in predictions})
    if args.image_id is not None:
        predictions = [p for p in predictions if p.image_id == args.image_id]
        if not predictions:
            raise DataError(f"no predictions for image {args.image_id}")
    elif len(image_ids) > 1:
        raise ConfigError(
            f"predictions span images {image_ids}; pick one with --image-id")
    graph = build_caption_graph(predictions, node_merge_iou=args.node_merge_iou)
    write_atomic(args.out + ".dot", export_graph(graph, "dot").encode("utf-8"))
    write_atomic(args.out + ".json", export_graph(graph, "json").encode("utf-8"))
    print(f"graph with {len(graph.nodes)} nodes / {len(graph.edges)} edges "
          f"written to {args.out}.dot and {args.out}.json")
    return 0


def cmd_retrieve(args) -> int:
    cfg_file = _load_config_file(args.config)
    params, config, vocab, records, provider, settings = _eval_like_setup(args, cfg_file)
    try:
        ks = tuple(int(k) for k in _resolve(args, cfg_file, "k", "1,5,10").split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --k list: {exc}") from exc
    protocol = RetrievalProtocol(
        num_images=_resolve(args, cfg_file, "images", 100),
        num_query_images=_at_least(_resolve(args, cfg_file, "query-images", 5), 1,
                                   "query-images"),
        captions_per_image=_at_least(_resolve(args, cfg_file, "captions-per-image", 4), 1,
                                     "captions-per-image"),
        ks=ks,
        rounds=_at_least(_resolve(args, cfg_file, "rounds", 3), 1, "rounds"),
    )
    keep = _at_least(_resolve(args, cfg_file, "keep-after-nms", 100), 0, "keep-after-nms")
    nms_iou = _resolve(args, cfg_file, "nms-iou", 0.5)
    scorables = []
    gt_captions = {}
    for record in records:
        kept = nms(build_proposals(record, provider, config, settings), nms_iou, keep)
        batch, boxes = make_pair_batch(record, kept, provider, config)
        if not boxes:
            continue
        scorables.append((record.image_id, batch))
        gt_captions[record.image_id] = [rel.tokens for rel in record.relations]
    result = retrieval_eval(scorables, gt_captions, vocab, params, config, protocol,
                            seed=settings.seed)
    payload = {"retrieval": result,
               "provenance": provenance({"protocol": protocol.__dict__ |
                                         {"ks": list(protocol.ks)}}, settings.seed)}
    if args.out:
        _write_json(args.out, payload)
    for k in protocol.ks:
        print(f"R@{k}: {result['r_at_k'][k]:.4f}")
    print(f"median rank: {result['median_rank']:.1f}")
    return 0


def cmd_enrich(args) -> int:
    records = load_dataset(_require_file(args.data, "relations dataset"))
    attributes = load_attributes(_require_file(args.attributes, "attributes dataset"))
    lexicon = load_pos_lexicon(_require_file(args.lexicon, "POS lexicon"))
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    enriched = enrich_attributes(records, attributes, lexicon, rng)
    save_dataset(args.out, enriched)
    n_rel = sum(len(r.relations) for r in enriched)
    print(f"enriched {n_rel} relations across {len(enriched)} images into {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcap",
        description="Relational captioning toolkit: toy worlds, training, "
                    "evaluation, caption graphs, retrieval, enrichment.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; CLI flags take precedence")
        p.add_argument("--seed", type=int, help="master seed")

    p = sub.add_parser("gen-toy", help="generate the deterministic toy dataset")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--images", type=int)
    p.add_argument("--min-objects", type=int, dest="min_objects")
    p.add_argument("--max-objects", type=int, dest="max_objects")
    p.add_argument("--inside-prob", type=float, dest="inside_prob")
    p.add_argument("--background", type=int)
    p.add_argument("--jitter", type=float)

    p = sub.add_parser("train", help="train a model variant")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--provider", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model",
                   help="direct-union|union|union-coord|subj-obj|subj-obj-coord|"
                        "subj-obj-union|tsnet|mttsnet, with optional ,mtl and ,rem")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--d-subj-obj", type=int, dest="d_subj_obj")
    p.add_argument("--d-union", type=int, dest="d_union")
    p.add_argument("--rem-dim", type=int, dest="rem_dim")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--dropout", type=float)
    p.add_argument("--min-count", type=int, dest="min_count")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--proposal-seed", type=int, dest="proposal_seed")
    p.add_argument("--jitter", type=float)
    p.add_argument("--background", type=int)

    def add_eval_like(p):
        add_common(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--provider", required=True)
        p.add_argument("--keep-after-nms", type=int, dest="keep_after_nms")
        p.add_argument("--nms-iou", type=float, dest="nms_iou")
        p.add_argument("--proposal-seed", type=int, dest="proposal_seed")
        p.add_argument("--jitter", type=float)
        p.add_argument("--background", type=int)

    def add_predict(p):
        add_eval_like(p)
        p.add_argument("--pair-cap", type=int, dest="pair_cap")
        p.add_argument("--min-confidence", type=float, dest="min_confidence")

    p = sub.add_parser("eval", help="relational captioning evaluation report")
    add_predict(p)
    p.add_argument("--out", help="report JSON path")

    p = sub.add_parser("infer", help="decode predictions to JSON lines")
    add_predict(p)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("greedy", "stochastic"))

    p = sub.add_parser("graph", help="build a caption graph from predictions")
    p.add_argument("--predictions", required=True)
    p.add_argument("--image-id", type=int, dest="image_id")
    p.add_argument("--node-merge-iou", type=float, default=0.9, dest="node_merge_iou")
    p.add_argument("--out", required=True, help="output path prefix (.dot/.json added)")

    p = sub.add_parser("retrieve", help="sentence-based image retrieval")
    add_eval_like(p)
    p.add_argument("--k", help="comma-separated K values, default 1,5,10")
    p.add_argument("--images", type=int)
    p.add_argument("--query-images", type=int, dest="query_images")
    p.add_argument("--captions-per-image", type=int, dest="captions_per_image")
    p.add_argument("--rounds", type=int)
    p.add_argument("--out", help="report JSON path")

    p = sub.add_parser("enrich", help="attribute enrichment for relation captions")
    p.add_argument("--data", required=True)
    p.add_argument("--attributes", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "gen-toy": cmd_gen_toy,
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "graph": cmd_graph,
    "retrieve": cmd_retrieve,
    "enrich": cmd_enrich,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvariantError, ValueError, IndexError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
