"""Command-line entry points.

Subcommands: gen-toy, train, eval, infer, graph, retrieve, enrich. Every
command is deterministic given its configuration and inputs; see
``run_provenance`` for the provenance block some outputs carry. Exit codes:
0 success, 2 config/usage error, 3 data error, 4 internal invariant
violation, 141 stdout closed before the command's output was written (the
code of a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .apps import (NODE_MERGE_IOU, RetrievalProtocol, build_caption_graph, export_graph,
                   retrieval_eval)
from .checkpoint import write_atomic
from .data import (SCHEMA_VERSION, PosTag, ToyFeatureProvider, ToyWorldConfig, Vocabulary,
                   build_vocab, enrich_attributes, generate_toy_world, image_id_from_json,
                   load_attributes, load_dataset, load_jsonl, load_pos_lexicon, read_text,
                   save_dataset, save_jsonl, split_records)
from .errors import ConfigError, DataError
from .geometry import NMS_IOU, Box, json_number, nms
from .metrics import MetricConfig, PredictionRecord, Predictions
from .model import (DECODE_MODES, LOSS_COMPONENTS, MODEL_PRESETS, ModelConfig, load_model,
                    save_model)
from .pipeline import (ProposalSettings, TrainSettings, build_proposals, evaluate_model,
                       history_to_csv, pair_batch, predict_image, train_model)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def provenance(config: dict, seed) -> dict:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "config_sha256": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
        "seed": seed,
        "dataset_schema_version": SCHEMA_VERSION,
        "package_version": __version__,
    }


def run_provenance(args, **inputs) -> dict:
    """The provenance of a run of gen-toy, train, eval or retrieve: the command,
    its resolved ``SETTINGS``, the sha256 of each input file (name -> path,
    None left out) and a ``config_sha256`` over those three."""
    settings = {name: getattr(args, name.replace("-", "_")) for name in SETTINGS[args.command]}
    echo = {"command": args.command, "settings": settings,
            "inputs": {name: _sha256_file(path) for name, path in inputs.items()
                       if path is not None}}
    return echo | provenance(echo, settings.get("seed", settings.get("proposal-seed")))


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
    """A prediction line as a record: ``image_id`` must be an integer,
    ``caption`` a string, every ``pos`` entry a ``PosTag`` name and
    ``confidence``, each ``word_probs`` entry and each box coordinate a
    number (``json_number``)."""
    if not isinstance(obj["caption"], str):
        raise TypeError(f"caption must be a string, got {obj['caption']!r}")
    return PredictionRecord(
        image_id=image_id_from_json(obj),
        subject_box=Box.from_json(obj["subject_box"]),
        object_box=Box.from_json(obj["object_box"]),
        tokens=obj["caption"].split(),
        pos=[PosTag.parse(p).name for p in obj["pos"]],
        word_probs=[json_number(p, "word_probs entry") for p in obj["word_probs"]],
        confidence=json_number(obj["confidence"], "confidence"),
    ).validate()


def predictions_to_json(table: Predictions):
    """``prediction_to_json`` of each row of a table, read from its columns."""
    boxes = [dict(zip("xywh", row)) for row in table.boxes.tolist()]
    return ({"image_id": i, "subject_box": boxes[s], "object_box": boxes[o],
             "caption": " ".join(tokens), "pos": pos, "word_probs": probs, "confidence": c}
            for i, s, o, tokens, pos, probs, c in table.validate().columns())


def write_predictions(path: str, tables) -> int:
    """Write the rows of each ``Predictions`` table as the table comes
    (``relcap infer`` passes one per image), one JSON line each; returns the
    number of lines."""
    return save_jsonl(path, (obj for table in tables for obj in predictions_to_json(table)))


def read_predictions(path: str):
    return load_jsonl(path, prediction_from_json, "prediction")


# ---------------------------------------------------------------------------
# shared option loading
# ---------------------------------------------------------------------------

def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(read_text(path, "config", ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


# A setting's allowed range: (description, test). None means any value.
_NON_NEGATIVE = "at least 0", lambda value: value >= 0
_AT_LEAST_1 = "at least 1", lambda value: value >= 1
_POSITIVE = "above 0", lambda value: value > 0
_UNIT = "in [0, 1]", lambda value: 0 <= value <= 1
_MODES = " or ".join(DECODE_MODES), lambda value: value in DECODE_MODES
# NMS's IoU table and training's REM attention grow as B^2 with B proposals;
# training and POS accuracy pair only GT-matched proposals.
MAX_BACKGROUND = 1024
_BACKGROUND = f"in [0, {MAX_BACKGROUND}]", lambda value: 0 <= value <= MAX_BACKGROUND
# name -> (type, default, range) of every setting a config-reading command
# resolves; ``--name`` is the flag and ``name`` the config-file key. A default is
# the library's own, but for gen-toy's seed and retrieve's keep-after-nms.
_PROPOSAL_SETTINGS = {"proposal-seed": (int, ProposalSettings.seed, _NON_NEGATIVE),
                      "jitter": (float, ProposalSettings.jitter, None),  # range: ProposalSettings
                      "background": (int, ProposalSettings.n_background, _BACKGROUND)}
_PREDICT_SETTINGS = {**_PROPOSAL_SETTINGS,
                     "keep-after-nms": (int, MetricConfig.keep_after_nms, _NON_NEGATIVE),
                     "nms-iou": (float, NMS_IOU, _UNIT), "pair-cap": (int, None, _NON_NEGATIVE),
                     "min-confidence": (float, None, _UNIT)}
SETTINGS = {
    "gen-toy": {"seed": (int, 7, _NON_NEGATIVE), "images": (int, ToyWorldConfig.n_images, None),
                "min-objects": (int, ToyWorldConfig.min_objects, None),
                "max-objects": (int, ToyWorldConfig.max_objects, None),
                "inside-prob": (float, ToyWorldConfig.inside_prob, _UNIT)},
    "train": {"seed": (int, TrainSettings.seed, _NON_NEGATIVE),
              "model": (str, ModelConfig.name, None),
              "max-len": (int, ModelConfig.max_len, None),  # range: ModelConfig
              "epochs": (int, TrainSettings.epochs, _AT_LEAST_1),
              "lr": (float, TrainSettings.lr, _POSITIVE),
              **{name: (float, getattr(TrainSettings, name), _NON_NEGATIVE)
                 for name in ("alpha", "beta", "gamma")},
              "hidden": (int, ModelConfig.hidden, _AT_LEAST_1),
              "d-subj-obj": (int, ModelConfig.d_subj_obj, _AT_LEAST_1),
              "d-union": (int, ModelConfig.d_union, _AT_LEAST_1),
              "rem-dim": (int, ModelConfig.rem_dim, _AT_LEAST_1),
              "dropout": (float, ModelConfig.dropout, None),
              "min-count": (int, Vocabulary.min_count, _AT_LEAST_1), **_PROPOSAL_SETTINGS},
    "eval": _PREDICT_SETTINGS,
    "infer": {**_PREDICT_SETTINGS, "mode": (str, DECODE_MODES[0], _MODES)},
    "retrieve": {**_PROPOSAL_SETTINGS, "keep-after-nms": (int, 100, _NON_NEGATIVE),
                 "nms-iou": (float, NMS_IOU, _UNIT),
                 "k": (str, ",".join(map(str, RetrievalProtocol.ks)), None),
                 "images": (int, RetrievalProtocol.num_images, _AT_LEAST_1),
                 "query-images": (int, RetrievalProtocol.num_query_images, _AT_LEAST_1),
                 "captions-per-image": (int, RetrievalProtocol.captions_per_image, _AT_LEAST_1),
                 "rounds": (int, RetrievalProtocol.rounds, _AT_LEAST_1)},
}
_SETTING_HELP = {
    "seed": "master seed",
    "model": "|".join(MODEL_PRESETS) + ", with optional ,mtl and ,rem",
    "k": "comma-separated K values, default " + SETTINGS["retrieve"]["k"][1],
    "mode": _MODES[0],
}
# JSON types a config-file value may have, per setting type (never a boolean).
_CONFIG_TYPES = {int: (int, float, str), float: (int, float, str), str: (str,)}


def _from_config(name: str, kind, value):
    try:
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[kind]):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {name!r}: {value!r} is not a valid "
                          f"{kind.__name__}") from exc


def resolve_settings(args) -> None:
    """Set each of the command's settings in ``args`` by precedence: CLI flag
    > config file > default.

    A missing or null config-file value gives the default. A float setting
    must be finite and every setting within its range; a value that breaks
    either rule is a ConfigError naming the flag or key. ``args.explicit``
    is the set of settings given by flag or config file.
    """
    file_config = _load_config_file(args.config)
    args.explicit = set()
    for name, (kind, default, allowed) in SETTINGS[args.command].items():
        dest = name.replace("-", "_")
        value, source = getattr(args, dest), f"--{name}"
        if value is None and file_config.get(name) is not None:
            value, source = _from_config(name, kind, file_config[name]), f"config key {name!r}"
        if value is None:
            value = default
        elif kind is float and not math.isfinite(value):
            raise ConfigError(f"{source} must be finite, got {value}")
        elif allowed is not None and not allowed[1](value):
            raise ConfigError(f"{source} must be {allowed[0]}, got {value}")
        else:
            args.explicit.add(name)
        setattr(args, dest, value)


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _make_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {path}: {exc.strerror}") from exc
    return path


def _load_provider(path: str) -> ToyFeatureProvider:
    try:
        return ToyFeatureProvider.from_json(
            json.loads(read_text(_require_file(path, "provider spec"), "provider spec")))
    except (json.JSONDecodeError, KeyError) as exc:
        raise DataError(f"bad provider spec {path}: {exc}") from exc


# train setting -> the ModelConfig field it sets, and that a resumed checkpoint fixes
_MODEL_SETTINGS = {"model": "name", "hidden": "hidden", "d-subj-obj": "d_subj_obj",
                   "d-union": "d_union", "rem-dim": "rem_dim", "max-len": "max_len",
                   "dropout": "dropout"}


def _check_checkpoint_inputs(config, vocab, provider, records) -> None:
    """A checkpoint's model must read the provider's features and most of the
    dataset's words."""
    if provider.feature_width != config.feature_width:
        raise ConfigError(
            f"provider feature width {provider.feature_width} does not match "
            f"checkpoint feature width {config.feature_width}")
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
    toy = ToyWorldConfig(n_images=args.images, min_objects=args.min_objects,
                         max_objects=args.max_objects, inside_prob=args.inside_prob).validate()
    out_dir = _make_dir(args.out)
    records, provider = generate_toy_world(args.seed, toy)
    train, val, test = split_records(records, toy.splits)
    paths = {}
    for name, subset in (("train", train), ("val", val), ("test", test)):
        path = os.path.join(out_dir, f"{name}.jsonl")
        save_dataset(path, subset)
        paths[name] = {"path": f"{name}.jsonl", "images": len(subset),
                       "sha256": _sha256_file(path)}
    provider_path = os.path.join(out_dir, "provider.json")
    _write_json(provider_path, provider.to_json())
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "splits": paths,
        "provider": {"path": "provider.json", "sha256": _sha256_file(provider_path)},
        "provenance": run_provenance(args),
    })
    print(f"wrote {sum(p['images'] for p in paths.values())} images to {out_dir} "
          f"({paths['train']['images']}/{paths['val']['images']}/{paths['test']['images']} split)")
    return 0


def cmd_train(args) -> int:
    records = load_dataset(_require_file(args.data, "training dataset"))
    provider = _load_provider(args.provider)
    settings = TrainSettings(epochs=args.epochs, lr=args.lr, alpha=args.alpha,
                             beta=args.beta, gamma=args.gamma, seed=args.seed,
                             proposals=ProposalSettings(args.proposal_seed, args.jitter,
                                                        args.background))
    params = optimizer = None
    if args.resume:
        params, config, vocab, optimizer, meta = load_model(
            _require_file(args.resume, "checkpoint"))
        if "min-count" in args.explicit:
            raise ConfigError("--min-count cannot be given with --resume: "
                              "the checkpoint fixes the vocabulary")
        # The model settings and min-count take the checkpoint's values, so
        # that the provenance echoes what runs.
        for name, field in _MODEL_SETTINGS.items():
            dest, fixed = name.replace("-", "_"), getattr(config, field)
            if name in args.explicit and getattr(args, dest) != fixed:
                raise ConfigError(f"--{name} {getattr(args, dest)} disagrees with the resumed "
                                  f"checkpoint's {field} {fixed}")
            setattr(args, dest, fixed)
        try:    # as the checkpoint's own provenance records it, if it does
            args.min_count = meta["provenance"]["settings"]["min-count"]
        except (KeyError, TypeError):
            args.min_count = None
        _check_checkpoint_inputs(config, vocab, provider, records)
    else:
        vocab = build_vocab(records, min_count=args.min_count)
        config = ModelConfig(provider.feature_width, len(vocab),
                             **{field: getattr(args, name.replace("-", "_"))
                                for name, field in _MODEL_SETTINGS.items()}).validate()
    prov = run_provenance(args, dataset=args.data, provider=args.provider,
                          checkpoint=args.resume)
    # Made once every check passed, so that a rejected run leaves no directory.
    out_dir = _make_dir(args.out)
    ckpt_path = os.path.join(out_dir, "model.rckpt")

    started = time.perf_counter()   # epoch 1 also counts building the batches

    def on_epoch(_epoch, row, cur_params, cur_opt):
        nonlocal started
        rate = len(records) / (time.perf_counter() - started)
        print(" ".join([f"epoch {row['epoch']}:",
                        *(f"{key} {row[key]!r}" for key in LOSS_COMPONENTS),
                        f"images/s {rate:.1f}"]), file=sys.stderr, flush=True)
        save_model(ckpt_path, cur_params, config, vocab, optimizer=cur_opt,
                   extra_meta={"provenance": prov})
        started = time.perf_counter()

    params, optimizer, history = train_model(
        records, provider, vocab, config, settings,
        params=params, optimizer=optimizer, on_epoch=on_epoch)
    write_atomic(os.path.join(out_dir, "train_log.csv"),
                 history_to_csv(history).encode("utf-8"))
    _write_json(os.path.join(out_dir, "train_manifest.json"),
                {"provenance": prov,
                 "checkpoint": {"path": "model.rckpt", "sha256": _sha256_file(ckpt_path)},
                 "final_loss": history[-1] if history else None})
    if history:
        print(f"epoch {history[-1]['epoch']}: total loss {history[-1]['total']:.6f}")
    print(f"checkpoint written to {ckpt_path}")
    return 0


def _eval_like_setup(args):
    # An --out that cannot be written fails before anything is loaded or computed.
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise ConfigError(f"cannot write {args.out}: no such directory")
    params, config, vocab, _, _ = load_model(_require_file(args.checkpoint, "checkpoint"))
    records = load_dataset(_require_file(args.data, "dataset"))
    provider = _load_provider(args.provider)
    _check_checkpoint_inputs(config, vocab, provider, records)
    settings = ProposalSettings(args.proposal_seed, args.jitter, args.background)
    return params, config, vocab, records, provider, settings


def _predict_options(args) -> dict:
    """Keyword options of ``predict_proposals`` shared by eval and infer."""
    return {"metric_config": MetricConfig(keep_after_nms=args.keep_after_nms),
            "nms_iou": args.nms_iou, "pair_cap": args.pair_cap,
            "min_confidence": args.min_confidence}


def cmd_eval(args) -> int:
    params, config, vocab, records, provider, settings = _eval_like_setup(args)
    report, predictions = evaluate_model(records, params, config, vocab, provider, settings,
                                         **_predict_options(args))
    payload = {"report": report.to_json(),
               "n_predictions": len(predictions),
               "provenance": run_provenance(args, checkpoint=args.checkpoint, dataset=args.data,
                                            provider=args.provider)}
    if args.out:
        _write_json(args.out, payload)
    print(report.render_table())
    return 0


def cmd_infer(args) -> int:
    params, config, vocab, records, provider, settings = _eval_like_setup(args)
    rng = np.random.default_rng(np.random.SeedSequence([settings.seed, 99])) \
        if args.mode == "stochastic" else None
    count = write_predictions(args.out, (
        predict_image(record, params, config, vocab, provider, settings, mode=args.mode, rng=rng,
                      **_predict_options(args)) for record in records))
    print(f"wrote {count} predictions to {args.out}")
    return 0


def cmd_graph(args) -> int:
    if not _UNIT[1](args.node_merge_iou):
        raise ConfigError(f"--node-merge-iou must be {_UNIT[0]}, got {args.node_merge_iou}")
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
    try:
        ks = tuple(int(k) for k in args.k.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --k list: {exc}") from exc
    if min(ks) < 1:
        raise ConfigError(f"--k values must be at least 1, got {args.k}")
    if args.query_images > args.images:
        raise ConfigError(f"--query-images {args.query_images} exceeds --images {args.images}")
    protocol = RetrievalProtocol(num_images=args.images, num_query_images=args.query_images,
                                 captions_per_image=args.captions_per_image, ks=ks,
                                 rounds=args.rounds)
    params, config, vocab, records, provider, settings = _eval_like_setup(args)
    scorables = []
    gt_captions = {}
    for record in records:
        if len(scorables) == protocol.num_images:       # retrieval_eval keeps no more
            break
        kept = nms(build_proposals(record, provider, config, settings), args.nms_iou,
                   args.keep_after_nms)
        batch = pair_batch(record, kept, provider, config)
        if len(batch) == 0:
            continue
        scorables.append((record.image_id, batch))
        gt_captions[record.image_id] = [rel.tokens for rel in record.relations]
    if len(scorables) < protocol.num_query_images:
        raise ConfigError(f"retrieval needs at least {protocol.num_query_images} images with a "
                          f"region pair, got {len(scorables)} of the {len(records)} images read")
    result = retrieval_eval(scorables, gt_captions, vocab, params, config, protocol,
                            seed=settings.seed)
    payload = {"retrieval": result,
               "provenance": run_provenance(args, checkpoint=args.checkpoint, dataset=args.data,
                                            provider=args.provider)}
    if args.out:
        _write_json(args.out, payload)
    for k in protocol.ks:
        print(f"R@{k}: {result['r_at_k'][k]:.4f}")
    print(f"median rank: {result['median_rank']:.1f}")
    return 0


def cmd_enrich(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
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

    def add_settings(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config",
                       help="JSON config file keyed by flag names without --; "
                            "CLI flags take precedence")
        for key, (kind, _default, _allowed) in SETTINGS[name].items():
            p.add_argument(f"--{key}", type=kind, help=_SETTING_HELP.get(key))
        return p

    p = add_settings("gen-toy", help="generate the deterministic toy dataset")
    p.add_argument("--out", required=True, help="output directory")

    p = add_settings("train", help="train a model variant")
    p.add_argument("--data", required=True)
    p.add_argument("--provider", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="checkpoint to continue from")

    def add_eval_like(name, help_text):
        p = add_settings(name, help=help_text)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--provider", required=True)
        return p

    add_eval_like("eval", "relational captioning evaluation report").add_argument(
        "--out", help="report JSON path")
    add_eval_like("infer", "decode predictions to JSON lines").add_argument(
        "--out", required=True)

    p = sub.add_parser("graph", help="build a caption graph from predictions")
    p.add_argument("--predictions", required=True)
    p.add_argument("--image-id", type=int, dest="image_id")
    p.add_argument("--node-merge-iou", type=float, default=NODE_MERGE_IOU, dest="node_merge_iou")
    p.add_argument("--out", required=True, help="output path prefix (.dot/.json added)")

    add_eval_like("retrieve", "sentence-based image retrieval").add_argument(
        "--out", help="report JSON path")

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


EXIT_STDOUT_CLOSED = 141


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in SETTINGS:
            resolve_settings(args)
        code = _COMMANDS[args.command](args)
        if sys.stdout is not None:      # None when started with fd 1 closed
            sys.stdout.flush()          # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away (``relcap eval ... | head -2``). Point stdout at
        # devnull so the interpreter's own flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
