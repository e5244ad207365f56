"""Run the golden command list and print the sha256 of every output.

Usage: python3 scripts/golden_hashes.py OUTDIR

OUTDIR must be missing or empty. The ``relcap`` commands below run there
with this checkout's ``src`` on PYTHONPATH and OPENBLAS_NUM_THREADS=1: the
seed-7 toy dataset, three 3-epoch models (``mttsnet,mtl,rem``,
``direct-union``, ``direct-union,mtl,rem``) with eval, greedy and stochastic
infer and retrieve on each, two pair-capped infers, a greedy and a
stochastic dense infer of ``mttsnet,mtl,rem`` at 80 background proposals
(up to 50 kept after NMS, so up to 2,450 pairs per image: the decoder runs
more than one row block and shares subject and object states across
pairs), one caption graph, one 1-epoch ``train --resume`` of the
``mttsnet,mtl,rem`` checkpoint (which reads and writes its Adam moments),
and a 1-epoch model of every other preset, so each variant's
``model_config`` echo is hashed. Then ``perfbench/run.py`` runs every
workload for 2 s on seed 701.

The output is one ``sha256  path`` line per file under OUTDIR and one per
perfbench output hash (path ``perfbench/<workload>/<name>``), sorted by
path. Byte-identity of two checkouts is then one ``diff`` of their outputs.
Each greedy, dense or capped predictions file also gets a ``<file>:no-probs``
line: the sha256 of its records without ``word_probs`` and ``confidence``,
so a change that moves only last bits of probabilities can show with the
same ``diff`` that tokens, POS and boxes stayed put.

Each ``*/model.rckpt``, ``eval_*.json`` and ``retrieve_*.json`` also gets
a ``<file>:payload`` line: the sha256 of what the file holds besides its
provenance block. For a checkpoint that is every tensor's name, shape and
bytes plus its ``meta`` without ``provenance``; for a report, the JSON
payload without ``provenance``. A change that moves only provenance then
shows with the same ``diff`` that the model and the reported numbers
stayed put.

``relcap retrieve`` writes only R@K and the median rank, so two more lines
per golden checkpoint pin what those round away, on ``toy/test.jsonl``:
``scores/<model>/retrieval_score``, the sha256 of the ``float.hex`` of the
score, the best pair and the per-word probabilities of every GT caption of
the split against every image (NMS keep 100, as ``relcap retrieve``; each
caption scores all images in one ``retrieval_scores`` call), and
for triple-stream models ``scores/<model>/importance_trace``, the sha256 of
the bytes of the trace of every GT-matched pair. For ``mttsnet,mtl,rem``,
``scores/<model>/retrieval_score_dense`` hashes the same table over the
candidates of the dense infers (80 background proposals, NMS keep 50: 2,450
pairs per image), so the scores of passes far above BLOCK rows, whose
subject and object streams share states across pairs, are pinned too.

Two lines per golden checkpoint pin the pair path at its source, on
``toy/test.jsonl``: ``pairs/<model>/pair_batch``, the sha256 of
``make_pair_batch``'s union features, geometry, subject and object indices
and (subject, object) boxes of every image at NMS keep 50 and keep 100, and
``pairs/<model>/image_batch``, the same fields of ``build_image_batch`` (the
boxes read from its proposal boxes) plus its caption token ids and POS tags.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = ("mttsnet,mtl,rem", "direct-union", "direct-union,mtl,rem")
VARIANTS = ("union", "union-coord", "subj-obj", "subj-obj-coord,mtl,rem", "subj-obj-union",
            "uuu", "tsnet", "mttsnet")
WORKLOADS = ("train", "infer-dense", "eval", "retrieve")


def run(argv, cwd, env) -> str:
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def relcap_commands():
    """Argument lists of the golden ``relcap`` runs, in order."""
    yield ["gen-toy", "--out", "toy", "--seed", "7"]
    for model in MODELS:
        out = model.replace(",", "_")
        yield ["train", "--data", "toy/train.jsonl", "--provider", "toy/provider.json",
               "--out", out, "--model", model, "--epochs", "3", "--seed", "1"]
        inputs = ["--checkpoint", f"{out}/model.rckpt", "--data", "toy/test.jsonl",
                  "--provider", "toy/provider.json"]
        yield ["eval", *inputs, "--out", f"eval_{out}.json"]
        yield ["infer", *inputs, "--out", f"greedy_{out}.jsonl"]
        yield ["infer", *inputs, "--out", f"stoch_{out}.jsonl", "--mode", "stochastic"]
        yield ["retrieve", *inputs, "--images", "12", "--out", f"retrieve_{out}.json"]
    yield ["infer", "--checkpoint", "mttsnet_mtl_rem/model.rckpt", "--data", "toy/test.jsonl",
           "--provider", "toy/provider.json", "--pair-cap", "5", "--keep-after-nms", "4",
           "--out", "capped.jsonl"]
    yield ["infer", "--checkpoint", "direct-union/model.rckpt", "--data", "toy/test.jsonl",
           "--provider", "toy/provider.json", "--pair-cap", "1", "--out", "capped_du.jsonl"]
    for mode in ("greedy", "stochastic"):
        yield ["infer", "--checkpoint", "mttsnet_mtl_rem/model.rckpt", "--data",
               "toy/test.jsonl", "--provider", "toy/provider.json", "--background", "80",
               "--mode", mode, "--out", f"dense_{mode}.jsonl"]
    yield ["train", "--data", "toy/train.jsonl", "--provider", "toy/provider.json",
           "--out", "resumed", "--resume", "mttsnet_mtl_rem/model.rckpt", "--epochs", "1",
           "--seed", "1"]
    for model in VARIANTS:
        yield ["train", "--data", "toy/train.jsonl", "--provider", "toy/provider.json",
               "--out", "variant_" + model.replace(",", "_"), "--model", model,
               "--epochs", "1", "--seed", "1"]


def file_hashes(outdir: str) -> dict:
    out = {}
    for base, _dirs, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def token_hashes(outdir: str) -> dict:
    """sha256 of each greedy, dense or capped predictions file without its
    ``word_probs`` and ``confidence`` fields."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".jsonl") and name.startswith(("greedy_", "dense_", "capped")):
            digest = hashlib.sha256()
            with open(os.path.join(outdir, name), encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    record.pop("word_probs")
                    record.pop("confidence")
                    digest.update(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
            out[f"{name}:no-probs"] = digest.hexdigest()
    return out


def payload_hashes(outdir: str, paths) -> dict:
    """sha256 of each checkpoint and eval / retrieve report among ``paths``
    (relative to ``outdir``) without its provenance block."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from relcap.checkpoint import load_checkpoint

    out = {}
    for path in paths:
        name = os.path.basename(path)
        if name == "model.rckpt":
            arrays, meta = load_checkpoint(os.path.join(outdir, path))
            meta.pop("provenance", None)
            digest = hashlib.sha256(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
            for key, array in arrays.items():
                digest.update(f"{key} {list(array.shape)}\n".encode("utf-8"))
                digest.update(array.tobytes())
        elif name.startswith(("eval_", "retrieve_")) and name.endswith(".json"):
            with open(os.path.join(outdir, path), encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("provenance", None)
            digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8"))
        else:
            continue
        out[f"{path}:payload"] = digest.hexdigest()
    return out


def retrieval_table_hash(queries, candidates, params, config) -> str:
    """sha256 of the ``float.hex`` of the score, the best pair and the
    per-word probabilities of every query against every candidate (a list of
    ``encode_pair_batch`` dicts), each query scoring all candidates in one
    ``retrieval_scores`` call."""
    from relcap import apps

    scored = candidates
    if hasattr(apps, "stack_candidates"):   # a tree that scores in BLOCK-row groups
        scored = apps.stack_candidates(candidates)
    table = [apps.retrieval_scores(query, scored, params, config) for query in queries]
    digest = hashlib.sha256()
    for image in range(len(candidates)):
        for row in table:
            score, best, probs = row[image]
            line = " ".join([score.hex(), str(best), *(p.hex() for p in probs)])
            digest.update(line.encode("ascii") + b"\n")
    return digest.hexdigest()


def score_hashes(outdir: str) -> dict:
    """sha256 of every retrieval score and importance trace of the golden
    checkpoints on the test split (see the module docstring)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from relcap.autodiff import Tensor, no_grad
    from relcap.data import ToyFeatureProvider, load_dataset
    from relcap.geometry import nms
    from relcap.model import encode_pair_batch, importance_trace, load_model
    from relcap.pipeline import (ProposalSettings, build_image_batch, build_proposals,
                                 make_pair_batch)

    records = load_dataset(os.path.join(outdir, "toy", "test.jsonl"))
    with open(os.path.join(outdir, "toy", "provider.json"), encoding="utf-8") as fh:
        provider = ToyFeatureProvider.from_json(json.load(fh))
    out = {}
    for model in MODELS:
        name = model.replace(",", "_")
        params, config, vocab, _, _ = load_model(os.path.join(outdir, name, "model.rckpt"))
        queries = [[vocab.encode_token(t) for t in rel.tokens]
                   for record in records for rel in record.relations]
        candidates, traces = [], hashlib.sha256()
        for record in records:
            proposals = build_proposals(record, provider, config, ProposalSettings())
            batch, boxes = make_pair_batch(record, nms(proposals, 0.5, 100), provider, config)
            if boxes:
                with no_grad():
                    candidates.append(encode_pair_batch(batch, params, config))
            if config.streams == "triple":
                image = build_image_batch(record, proposals, provider, vocab, config)
                codes = encode_pair_batch(image.pairs, params, config)
                for k, token_ids in enumerate(image.token_ids):
                    pair = {kind: Tensor(code.data[k:k + 1]) for kind, code in codes.items()}
                    traces.update(importance_trace(pair, token_ids, params, config).tobytes())
        out[f"scores/{name}/retrieval_score"] = retrieval_table_hash(queries, candidates,
                                                                     params, config)
        if config.streams == "triple":
            out[f"scores/{name}/importance_trace"] = traces.hexdigest()
        if model == MODELS[0]:
            dense = []
            for record in records:
                proposals = build_proposals(record, provider, config,
                                            ProposalSettings(n_background=80))
                batch, _ = make_pair_batch(record, nms(proposals, 0.5, 50), provider, config)
                with no_grad():
                    dense.append(encode_pair_batch(batch, params, config))
            out[f"scores/{name}/retrieval_score_dense"] = retrieval_table_hash(
                queries, dense, params, config)
    return out


def pair_batch_bytes(pairs, box_pairs) -> bytes:
    """The arrays of a PairBatch and the float.hex of its box pairs."""
    import numpy as np
    boxes = " ".join(v.hex() for s, o in box_pairs for b in (s, o) for v in (b.x, b.y, b.w, b.h))
    return b"".join([np.ascontiguousarray(pairs.union_features).tobytes(),
                     np.ascontiguousarray(pairs.geos).tobytes(),
                     np.asarray(pairs.subject_index, dtype=np.int64).tobytes(),
                     np.asarray(pairs.object_index, dtype=np.int64).tobytes(),
                     boxes.encode("ascii"), b"\n"])


def pair_hashes(outdir: str) -> dict:
    """sha256 of the pair and image batches the golden checkpoints build on
    the test split (see the module docstring)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from relcap.data import ToyFeatureProvider, load_dataset
    from relcap.geometry import nms
    from relcap.model import load_model
    from relcap.pipeline import (ProposalSettings, build_image_batch, build_proposals,
                                 make_pair_batch)

    records = load_dataset(os.path.join(outdir, "toy", "test.jsonl"))
    with open(os.path.join(outdir, "toy", "provider.json"), encoding="utf-8") as fh:
        provider = ToyFeatureProvider.from_json(json.load(fh))
    out = {}
    for model in MODELS:
        name = model.replace(",", "_")
        _, config, vocab, _, _ = load_model(os.path.join(outdir, name, "model.rckpt"))
        pair, image = hashlib.sha256(), hashlib.sha256()
        for record in records:
            proposals = build_proposals(record, provider, config, ProposalSettings())
            for keep in (50, 100):
                batch, boxes = make_pair_batch(record, nms(proposals, 0.5, keep), provider,
                                               config)
                pair.update(pair_batch_bytes(batch, boxes))
            built = build_image_batch(record, proposals, provider, vocab, config)
            pairs = built.pairs
            boxes = [(built.prop_boxes[i], built.prop_boxes[j])
                     for i, j in zip(pairs.subject_index, pairs.object_index)]
            image.update(pair_batch_bytes(pairs, boxes))
            image.update(repr((built.token_ids, built.tags)).encode("ascii") + b"\n")
        out[f"pairs/{name}/pair_batch"] = pair.hexdigest()
        out[f"pairs/{name}/image_batch"] = image.hexdigest()
    return out


def perfbench_hashes(env) -> dict:
    out = {}
    for workload in WORKLOADS:
        stdout = run([sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", "701", "--seconds", "2"], ROOT, env)
        info = next(json.loads(line)["info"] for line in stdout.splitlines()
                    if line.startswith('{"info"'))
        for name, digest in info["hashes"].items():
            out[f"perfbench/{workload}/{name}"] = digest
    return out


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__.strip().splitlines()[2])
    outdir = os.path.abspath(argv[0])
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir):
        sys.exit(f"{outdir} is not empty")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"        # before score_hashes imports numpy
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    relcap = [sys.executable, "-m", "relcap.cli"]
    for args in relcap_commands():
        run(relcap + args, outdir, env)
    with open(os.path.join(outdir, "greedy_mttsnet_mtl_rem.jsonl")) as fh:
        first_image = json.loads(fh.readline())["image_id"]
    run(relcap + ["graph", "--predictions", "greedy_mttsnet_mtl_rem.jsonl",
                  "--image-id", str(first_image), "--out", "graph"], outdir, env)
    files = file_hashes(outdir)
    hashes = (files | token_hashes(outdir) | payload_hashes(outdir, files)
              | score_hashes(outdir) | pair_hashes(outdir) | perfbench_hashes(env))
    for path in sorted(hashes):
        print(f"{hashes[path]}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
