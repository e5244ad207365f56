"""The four benchmark workloads: inputs made from the seed, set-up, one
operation, and the check of that operation's output.

Every workload exposes the same shape:

* ``setup(seed, workdir, probe)`` builds all inputs and returns a state
  object, running the machine-speed probe after each training epoch;
* ``run(state, deadline, hooks)`` performs operations until ``deadline``
  (``time.perf_counter`` seconds) has passed and at least one full pass
  over the fixed input set is done, and returns a ``Phase``.

The first pass over the input set is deterministic given the seed, so its
output hashes and counts can be compared between runs; later operations
repeat inputs of the first pass and must reproduce its outputs exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import relcap
from relcap import apps, cli, data, geometry, metrics, model, pipeline
from relcap import autodiff as ad

# Model and training settings of ``relcap train`` with its defaults, on the
# ``mttsnet,mtl,rem`` variant.
MODEL_SPEC = "mttsnet,mtl,rem"
MODEL_DIMS = dict(d_subj_obj=64, d_union=32, code_width=48, hidden=48, rem_dim=32,
                  max_len=12, dropout=0.1)

# Set-up checkpoint: two epochs over the 96-image train split. After one
# epoch the captions still drop words and their length, hence the decode
# cost, changes from seed to seed; after two every seed decodes full-length
# captions (ten steps per image on infer-dense).
SETUP_EPOCHS = 2
# ``train``: each round trains a fresh model for this many epochs, so the
# checkpoint of every round, and of every run with the same seed, is the same.
TRAIN_EPOCHS = 2
# ``infer-dense``: 80 background proposals leave exactly 50 proposals after
# NMS (IoU 0.5, keep 50), the paper's scale of 2,450 ordered pairs per image.
DENSE_BACKGROUND = 80
DENSE_KEEP = 50
DENSE_IMAGES = 12
# ``eval``: images with 6 objects (30 GT relations) and 2 background
# proposals (8 proposals, 56 pairs); one operation evaluates this batch.
EVAL_OBJECTS = 6
EVAL_BATCH = 2
EVAL_BATCHES = 24
# ``retrieve``: 100 candidate images, NMS keep 100 as ``relcap retrieve``
# does; one operation ranks the candidates for one query caption.
RETRIEVE_IMAGES = 100
RETRIEVE_KEEP = 100
RETRIEVE_QUERIES = 16


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


@dataclass
class Phase:
    """Result of one measured phase."""

    elapsed_s: float = 0.0
    op_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)     # first few failure messages
    hashes: dict = field(default_factory=dict)     # artifact -> sha256 (first pass)
    quality: dict = field(default_factory=dict)    # workload-specific outputs

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Hooks:
    """What a run does between operations: machine-speed probes, and
    operation boundaries forwarded to a tracer when one is installed."""

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.first_pass_done = None    # callback run once the first pass ends

    def begin(self, index: int) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(index)

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.end_op()

    def pass_done(self) -> None:
        if self.first_pass_done is not None:
            self.first_pass_done()
            self.first_pass_done = None


# ---------------------------------------------------------------------------
# shared set-up
# ---------------------------------------------------------------------------

@dataclass
class World:
    train: list
    test: list
    provider: object
    vocab: object
    config: object


def make_world(seed: int) -> World:
    """The default toy world of ``relcap gen-toy`` (120 images, 96/12/12)."""
    toy = data.ToyWorldConfig()
    records, provider = data.generate_toy_world(seed, toy)
    train, _val, test = data.split_records(records, toy.splits)
    vocab = data.build_vocab(train)
    config = model.ModelConfig.from_name(MODEL_SPEC, feature_width=provider.feature_width,
                                         vocab_size=len(vocab), **MODEL_DIMS)
    return World(train, test, provider, vocab, config)


def train_settings(seed: int, epochs: int) -> pipeline.TrainSettings:
    return pipeline.TrainSettings(epochs=epochs, seed=seed,
                                  proposals=pipeline.ProposalSettings(seed=seed))


def train_checkpoint(world: World, seed: int, path: str, probe):
    """Train the short set-up checkpoint, save it, and load it back the way
    ``relcap eval`` does. Returns (params, final-epoch mean loss)."""
    params, optimizer, history = pipeline.train_model(
        world.train, world.provider, world.vocab, world.config,
        train_settings(seed, SETUP_EPOCHS), on_epoch=lambda *_: probe.run())
    model.save_model(path, params, world.config, world.vocab, optimizer=optimizer)
    params, _config, _vocab, _opt, _meta = model.load_model(path)
    return params, history[-1]["total"]


def run_passes(inputs, operate, check, deadline, hooks: Hooks, phase: Phase):
    """Cycle through ``inputs`` until the deadline, finishing the first pass.

    ``operate(item)`` is the timed operation; ``check(position, output)``
    returns an error message or None and is not timed. Probe time is
    excluded from the phase's elapsed time.
    """
    index = 0
    probe_before = hooks.probe.spent_s
    start = time.perf_counter()
    while True:
        position = index % len(inputs)
        hooks.begin(index)
        t0 = time.perf_counter()
        try:
            output = operate(inputs[position])
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        t1 = time.perf_counter()
        hooks.end()
        phase.attempted += 1
        phase.op_ms.append((t1 - t0) * 1e3)
        if error is None:
            error = check(position, output)
        if error is not None:
            phase.fail(f"op {index}: {error}")
        index += 1
        if index == len(inputs):
            hooks.pass_done()
        if index >= len(inputs) and time.perf_counter() >= deadline:
            break
        hooks.probe.maybe()
    phase.elapsed_s = time.perf_counter() - start - (hooks.probe.spent_s - probe_before)
    return phase


class FirstPass:
    """Keeps the first pass's output digests and checks repeats against them."""

    def __init__(self, size: int):
        self.digests = [None] * size

    def check(self, position: int, digest: str):
        if self.digests[position] is None:
            self.digests[position] = digest
            return None
        if self.digests[position] != digest:
            return f"output of input {position} differs from its first pass"
        return None


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

@dataclass
class Trained:
    """The world and the short checkpoint every workload's set-up trains."""

    world: World
    seed: int
    ckpt_path: str
    params: object
    loss_final: float


def setup_common(seed: int, workdir: str, probe) -> Trained:
    world = make_world(seed)
    path = os.path.join(workdir, "setup.rckpt")
    params, loss_final = train_checkpoint(world, seed, path, probe)
    return Trained(world, seed, path, params, loss_final)


def run_train(state: Trained, deadline: float, hooks: Hooks) -> Phase:
    """Rounds of ``train_model`` resumed from the set-up checkpoint, as
    ``relcap train --resume`` does; one op is one optimizer step.

    A step runs from the start of ``total_loss`` to the end of
    ``adam_step``; the two are hooked where ``train_model`` looks them up.
    """
    world = state.world
    phase = Phase()
    ckpt_path = os.path.join(os.path.dirname(state.ckpt_path), "model.rckpt")
    settings = train_settings(state.seed, TRAIN_EPOCHS)
    config_echo = {"model": world.config.to_json(),
                   "train": {"epochs": settings.epochs, "lr": settings.lr,
                             "seed": settings.seed}}
    prov = cli.provenance(config_echo, state.seed)
    step = {"t0": 0.0, "index": 0, "loss": None}
    total_loss = pipeline.total_loss
    adam_step = ad.adam_step

    def timed_loss(*args, **kwargs):
        hooks.begin(step["index"])
        step["t0"] = time.perf_counter()
        loss, report = total_loss(*args, **kwargs)
        step["loss"] = report.total
        return loss, report

    def timed_adam(*args, **kwargs):
        adam_step(*args, **kwargs)
        phase.op_ms.append((time.perf_counter() - step["t0"]) * 1e3)
        hooks.end()
        phase.attempted += 1
        step["index"] += 1
        if not math.isfinite(step["loss"]):
            phase.fail(f"step {step['index']}: non-finite loss {step['loss']!r}")

    def on_epoch(_epoch, _row, params, optimizer):
        model.save_model(ckpt_path, params, world.config, world.vocab, optimizer=optimizer,
                         extra_meta={"provenance": prov})
        hooks.probe.maybe()

    pipeline.total_loss, ad.adam_step = timed_loss, timed_adam
    probe_before = hooks.probe.spent_s
    start = time.perf_counter()
    digest = None
    try:
        while True:
            round_start = time.perf_counter()
            try:
                params, _config, _vocab, optimizer, _meta = model.load_model(state.ckpt_path)
                _p, _o, history = pipeline.train_model(
                    world.train, world.provider, world.vocab, world.config, settings,
                    params=params, optimizer=optimizer, on_epoch=on_epoch)
            except Exception as exc:  # noqa: BLE001 - counted as a failed step
                hooks.end()
                phase.attempted += 1
                phase.op_ms.append((time.perf_counter() - round_start) * 1e3)
                phase.fail(f"train_model raised {type(exc).__name__}: {exc}")
            else:
                round_digest = sha256_file(ckpt_path)
                if digest is None:
                    digest = round_digest
                    phase.hashes["checkpoint"] = digest
                    phase.quality["loss_final"] = history[-1]["total"]
                    hooks.pass_done()
                elif round_digest != digest:
                    phase.fail("checkpoint differs between rounds of the same training")
            if time.perf_counter() >= deadline:
                break
    finally:
        pipeline.total_loss, ad.adam_step = total_loss, adam_step
    phase.elapsed_s = time.perf_counter() - start - (hooks.probe.spent_s - probe_before)
    return phase


# ---------------------------------------------------------------------------
# infer-dense
# ---------------------------------------------------------------------------

@dataclass
class InferState:
    trained: Trained
    images: list
    settings: object
    kept: list     # proposals left after NMS, per image; must be DENSE_KEEP


def setup_infer_dense(seed: int, workdir: str, probe) -> InferState:
    trained = setup_common(seed, workdir, probe)
    world = trained.world
    images = world.test[:DENSE_IMAGES]
    settings = pipeline.ProposalSettings(seed=seed, n_background=DENSE_BACKGROUND)
    # The NMS that ``predict_image`` runs, with its defaults.
    keep = metrics.MetricConfig().keep_after_nms
    kept = [len(geometry.nms(pipeline.build_proposals(record, world.provider, world.config,
                                                      settings), 0.5, keep))
            for record in images]
    return InferState(trained, images, settings, kept)


def prediction_error(pred) -> str | None:
    try:
        pred.validate()
    except ValueError as exc:
        return f"invalid prediction: {exc}"
    if pred.confidence != float(math.prod(pred.word_probs)):
        return "confidence is not the exact product of word_probs"
    return None


def predictions_jsonl(predictions) -> bytes:
    """Bytes of the predictions file ``relcap infer`` writes."""
    lines = [json.dumps(cli.prediction_to_json(p), sort_keys=True, separators=(",", ":"))
             for p in predictions]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def run_infer_dense(state: InferState, deadline: float, hooks: Hooks) -> Phase:
    trained = state.trained
    world = trained.world
    phase = Phase(quality={"loss_final": trained.loss_final})
    first = FirstPass(len(state.images))
    outputs = [None] * len(state.images)

    def operate(record):
        return pipeline.predict_image(record, trained.params, world.config, world.vocab,
                                      world.provider, state.settings)

    def check(position, predictions):
        if state.kept[position] != DENSE_KEEP:
            return f"NMS kept {state.kept[position]} proposals, not {DENSE_KEEP}"
        for pred in predictions:
            error = prediction_error(pred)
            if error is not None:
                return error
        payload = predictions_jsonl(predictions)
        if outputs[position] is None:
            outputs[position] = payload
        return first.check(position, sha256_bytes(payload))

    run_passes(state.images, operate, check, deadline, hooks, phase)
    phase.hashes["predictions"] = sha256_bytes(b"".join(p for p in outputs if p))
    return phase


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

@dataclass
class EvalState:
    trained: Trained
    batches: list
    provider: object
    settings: object


def setup_eval(seed: int, workdir: str, probe) -> EvalState:
    trained = setup_common(seed, workdir, probe)
    toy = data.ToyWorldConfig(n_images=EVAL_BATCH * EVAL_BATCHES,
                              min_objects=EVAL_OBJECTS, max_objects=EVAL_OBJECTS)
    records, provider = data.generate_toy_world([seed, 1], toy)
    batches = [records[i:i + EVAL_BATCH] for i in range(0, len(records), EVAL_BATCH)]
    return EvalState(trained, batches, provider, pipeline.ProposalSettings(seed=seed))


def report_bytes(report, predictions) -> bytes:
    """Bytes of the report file ``relcap eval --out`` writes, minus provenance."""
    payload = {"report": report.to_json(), "n_predictions": len(predictions)}
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def run_eval(state: EvalState, deadline: float, hooks: Hooks) -> Phase:
    trained = state.trained
    world = trained.world
    phase = Phase(quality={"loss_final": trained.loss_final})
    first = FirstPass(len(state.batches))
    reports = [None] * len(state.batches)

    def operate(records):
        return pipeline.evaluate_model(records, trained.params, world.config, world.vocab,
                                       state.provider, state.settings)

    def check(position, output):
        report, predictions = output
        try:
            report.validate()
        except ValueError as exc:
            return f"invalid report: {exc}"
        for pred in predictions:
            error = prediction_error(pred)
            if error is not None:
                return error
        payload = report_bytes(report, predictions)
        if reports[position] is None:
            reports[position] = (report.map_percent, payload)
        return first.check(position, sha256_bytes(payload))

    run_passes(state.batches, operate, check, deadline, hooks, phase)
    done = [r for r in reports if r is not None]
    phase.hashes["report"] = sha256_bytes(b"".join(payload for _m, payload in done))
    if done:
        phase.quality["map_percent"] = float(np.mean([m for m, _p in done]))
    return phase


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------

@dataclass
class RetrieveState:
    trained: Trained
    scorables: list
    gt_captions: dict
    query_seeds: list


def setup_retrieve(seed: int, workdir: str, probe) -> RetrieveState:
    trained = setup_common(seed, workdir, probe)
    config = trained.world.config
    records, provider = data.generate_toy_world([seed, 2],
                                                data.ToyWorldConfig(n_images=RETRIEVE_IMAGES))
    settings = pipeline.ProposalSettings(seed=seed)
    scorables, gt_captions = [], {}
    for record in records:
        proposals = geometry.nms(pipeline.build_proposals(record, provider, config, settings),
                                 0.5, RETRIEVE_KEEP)
        batch, boxes = pipeline.make_pair_batch(record, proposals, provider, config)
        if boxes:
            scorables.append((record.image_id, batch))
            gt_captions[record.image_id] = [rel.tokens for rel in record.relations]
    query_seeds = [seed * RETRIEVE_QUERIES + q for q in range(RETRIEVE_QUERIES)]
    return RetrieveState(trained, scorables, gt_captions, query_seeds)


def run_retrieve(state: RetrieveState, deadline: float, hooks: Hooks) -> Phase:
    """One op ranks all candidates for one query: ``retrieval_eval`` with a
    single round of one caption from one image, drawn from the query seed."""
    trained = state.trained
    world = trained.world
    phase = Phase(quality={"loss_final": trained.loss_final})
    first = FirstPass(len(state.query_seeds))
    protocol = apps.RetrievalProtocol(num_images=RETRIEVE_IMAGES, num_query_images=1,
                                      captions_per_image=1, ks=(1, 5, 10), rounds=1)
    ranks = [None] * len(state.query_seeds)
    n_candidates = min(len(state.scorables), protocol.num_images)

    def operate(query_seed):
        return apps.retrieval_eval(state.scorables, state.gt_captions, world.vocab,
                                   trained.params, world.config, protocol, seed=query_seed)

    def check(position, result):
        rank = result["median_rank"]
        if result["num_queries"] != 1 or not (1 <= rank <= n_candidates) \
                or rank != int(rank):
            return f"rank {rank!r} outside 1..{n_candidates}"
        if ranks[position] is None:
            ranks[position] = int(rank)
        return first.check(position, str(rank))

    run_passes(state.query_seeds, operate, check, deadline, hooks, phase)
    done = [r for r in ranks if r is not None]
    phase.hashes["ranks"] = sha256_bytes(json.dumps(done).encode("utf-8"))
    if done:
        phase.quality["median_rank"] = float(np.median(done))
    return phase


WORKLOADS = {
    "train": (setup_common, run_train),
    "infer-dense": (setup_infer_dense, run_infer_dense),
    "eval": (setup_eval, run_eval),
    "retrieve": (setup_retrieve, run_retrieve),
}


def package_fingerprint(bench_dir: str) -> str:
    """sha256 over the relcap sources and the benchmark's own sources."""
    digest = hashlib.sha256()
    for directory in (os.path.dirname(relcap.__file__), bench_dir):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                digest.update(name.encode("utf-8"))
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()
