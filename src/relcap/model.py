"""The relational captioning network.

Region features pass through a shared first FC (optionally refined by the
relational embedding module), per-role second FCs produce fixed-width
region codes, and one or three LSTM streams decode captions with a
multi-task word + POS head. Loss is the weighted sum of captioning, POS,
detection and box-regression terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .data import END_ID, PAD_ID, PosTag, Vocabulary
from .errors import CheckpointError, ConfigError
from .geometry import Box

STREAM_NAMES = ("subject", "predicate", "object")
GEO_DIM = 64                    # width of the coordinate (geometry) code

# Table of named model variants: (streams, inputs, mtl). The w/MTL and +REM
# switches are appended to the name with commas, e.g. "union,mtl" or
# "mttsnet,rem".
MODEL_PRESETS = {
    "direct-union": ("single", ("union",), False),
    "union": ("single", ("union",), False),
    "union-coord": ("single", ("union", "coord"), False),
    "subj-obj": ("single", ("subject", "object"), False),
    "subj-obj-coord": ("single", ("subject", "object", "coord"), False),
    "subj-obj-union": ("single", ("subject", "object", "union"), False),
    "uuu": ("triple", ("union",), False),
    "tsnet": ("triple", ("subject", "object", "union", "coord"), False),
    "mttsnet": ("triple", ("subject", "object", "union", "coord"), True),
}
# to_json keys that echo what the name determines; from_json checks them.
DERIVED_KEYS = ("streams", "inputs", "mtl", "rem", "rpn_output", "geo_dim", "pos_classes")


@dataclass(frozen=True)
class ModelConfig:
    """Layer widths plus the variant ``name``: a MODEL_PRESETS key with
    optional ``,mtl`` and ``,rem`` switches. The name alone sets the streams,
    inputs, POS head, REM and RPN output."""

    feature_width: int
    vocab_size: int
    d_subj_obj: int = 4096       # intermediate width of the shared first FC
    d_union: int = 512           # intermediate width of the union path
    code_width: int = 512        # region-code width; must equal hidden
    hidden: int = 512
    rem_dim: int = 512
    max_len: int = 12
    dropout: float = 0.5
    name: str = "mttsnet"
    streams: str = field(init=False)
    inputs: tuple = field(init=False)
    mtl: bool = field(init=False)
    rem: bool = field(init=False)
    rpn_output: str = field(init=False)   # "union": proposals are whole relation regions

    def __post_init__(self):
        spec = self.name
        parts = [p.strip() for p in spec.split(",") if p.strip()] if isinstance(spec, str) else []
        if not parts or parts[0] not in MODEL_PRESETS:
            raise ConfigError(f"unknown model {spec!r}; expected one of {sorted(MODEL_PRESETS)}")
        base, flags = parts[0], parts[1:]
        for flag in flags:
            if flag not in ("mtl", "rem"):
                raise ConfigError(f"unknown model flag {flag!r} in {spec!r}")
        streams, inputs, mtl = MODEL_PRESETS[base]
        object.__setattr__(self, "streams", streams)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "mtl", mtl or "mtl" in flags)
        object.__setattr__(self, "rem", "rem" in flags)
        object.__setattr__(self, "rpn_output", "union" if base == "direct-union" else "object")

    @property
    def use_subject(self):
        return "subject" in self.inputs

    @property
    def use_object(self):
        return "object" in self.inputs

    @property
    def use_union(self):
        return "union" in self.inputs

    @property
    def use_coord(self):
        return "coord" in self.inputs

    @property
    def fuse(self):
        """Whether a single stream reads its concatenated codes through the
        ``fuse`` FC: it does when they include subject or object codes; the
        union code alone is already hidden-wide."""
        return self.streams == "single" and (self.use_subject or self.use_object)

    def validate(self):
        if self.code_width != self.hidden:
            raise ConfigError("region-code width must equal the LSTM hidden width "
                              "(codes are the first-step LSTM inputs)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.max_len < 2:
            raise ConfigError("max_len must leave room for one word plus the end token")
        if self.vocab_size <= len(("<s>", "</s>", "<unk>", "<pad>")):
            raise ConfigError("vocabulary must contain at least one real word")
        return self

    @staticmethod
    def from_name(spec: str, feature_width: int, vocab_size: int, **overrides) -> "ModelConfig":
        return ModelConfig(feature_width, vocab_size, name=spec, **overrides).validate()

    def to_json(self) -> dict:
        return {
            "feature_width": self.feature_width, "vocab_size": self.vocab_size,
            "d_subj_obj": self.d_subj_obj, "d_union": self.d_union,
            "code_width": self.code_width, "hidden": self.hidden,
            "geo_dim": GEO_DIM, "rem_dim": self.rem_dim,
            "pos_classes": len(PosTag), "max_len": self.max_len,
            "streams": self.streams, "inputs": list(self.inputs),
            "mtl": self.mtl, "rem": self.rem, "dropout": self.dropout,
            "rpn_output": self.rpn_output, "name": self.name,
        }

    @staticmethod
    def from_json(obj: dict) -> "ModelConfig":
        """Rebuild from the name and widths; an echoed derived key that
        disagrees with the name is a ConfigError."""
        obj = dict(obj)
        config = ModelConfig(**{k: v for k, v in obj.items() if k not in DERIVED_KEYS})
        echo = config.to_json()
        bad = [k for k in DERIVED_KEYS if k in obj and obj[k] != echo[k]]
        if bad:
            raise ConfigError(f"model {config.name!r} has {bad[0]} {echo[bad[0]]!r}, "
                              f"not {obj[bad[0]]!r}")
        return config.validate()


class ModelParams:
    """Ordered store of named parameters; shared weights appear once."""

    def __init__(self, params):
        self._params = dict(params)

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def all(self):
        return list(self._params.values())

    def arrays(self):
        return {name: p.data for name, p in self._params.items()}

    @staticmethod
    def from_arrays(arrays) -> "ModelParams":
        return ModelParams({name: Parameter(name, arr) for name, arr in arrays.items()})


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, LSTM forget-gate bias 1."""
    config.validate()
    params = {}

    def fc(prefix, fan_in, fan_out):
        params[f"{prefix}.w"] = ad.glorot_init(f"{prefix}.w", fan_in, fan_out, rng)
        params[f"{prefix}.b"] = Parameter(f"{prefix}.b", np.zeros(fan_out))

    fc("enc.first", config.feature_width, config.d_subj_obj)
    if config.use_subject:
        fc("enc.subject", config.d_subj_obj, config.code_width)
    if config.use_object:
        fc("enc.object", config.d_subj_obj, config.code_width)
    if config.use_union:
        fc("union.first", config.feature_width, config.d_union)
        in_width = config.d_union + (GEO_DIM if config.use_coord else 0)
        fc("union.code", in_width, config.code_width)
    if config.use_coord:
        fc("geo", 6, GEO_DIM)
    if config.rem:
        for name in ("rem.wa", "rem.wb", "rem.wx", "rem.wz"):
            params[name] = ad.glorot_init(name, config.d_subj_obj, config.rem_dim, rng)
    params["embed.table"] = ad.glorot_init("embed.table", config.vocab_size, config.hidden, rng)

    h = config.hidden
    streams = STREAM_NAMES if config.streams == "triple" else ("main",)
    for stream in streams:
        w = ad.glorot_init(f"lstm.{stream}.w", 2 * h, 4 * h, rng)
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0     # forget gate
        params[w.name] = w
        params[f"lstm.{stream}.b"] = Parameter(f"lstm.{stream}.b", b)
    if config.fuse:
        n_codes = config.use_subject + config.use_object + config.use_union
        geo_width = GEO_DIM if config.use_coord and not config.use_union else 0
        fc("fuse", n_codes * config.code_width + geo_width, h)

    head_in = 3 * h if config.streams == "triple" else h
    fc("head.word", head_in, config.vocab_size)
    if config.mtl:
        fc("head.pos", head_in, len(PosTag))
    fc("det", config.d_subj_obj, 1)
    fc("box", config.d_subj_obj, 4)
    return ModelParams(params)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def rem_forward(x: Tensor, params: ModelParams) -> Tensor:
    """Relational embedding: attention over all regions, residually added.

    R = row_softmax(relu(X Wa) relu(X Wb)^T); Z = X + R relu(X Wx) Wz^T.
    Row permutations of X permute Z identically.
    """
    a = ad.relu(ad.matmul(x, params["rem.wa"]))
    b = ad.relu(ad.matmul(x, params["rem.wb"]))
    r = ad.row_softmax(ad.matmul(a, ad.transpose(b)))
    v = ad.relu(ad.matmul(x, params["rem.wx"]))
    attended = ad.matmul(ad.matmul(r, v), ad.transpose(params["rem.wz"]))
    return ad.add(x, attended)


def encode_regions(features: np.ndarray, params: ModelParams, config: ModelConfig,
                   training: bool = False, rng: np.random.Generator | None = None):
    """Shared first FC over all B regions; returns (x, z) at width d_subj_obj.

    ``x`` feeds the detection and box heads; ``z`` (REM-refined when
    enabled) feeds the subject/object code FCs.
    """
    x = ad.relu(ad.affine(Tensor(features), params["enc.first.w"], params["enc.first.b"]))
    x = ad.dropout(x, config.dropout, rng, training)
    z = rem_forward(x, params) if config.rem else x
    return x, z


@dataclass
class PairBatch:
    """Per-image batch of region pairs ready for encoding/decoding; the one
    pair representation after the combination layer, in training and
    inference alike."""

    features: np.ndarray            # (B, feature_width) all proposals
    subject_index: list             # per pair, row into features
    object_index: list
    union_features: np.ndarray      # (P, feature_width)
    geos: np.ndarray                # (P, 6)

    def __len__(self):
        return len(self.subject_index)


def encode_pair_batch(batch: PairBatch, params: ModelParams, config: ModelConfig,
                      z: Tensor | None = None, training: bool = False,
                      rng: np.random.Generator | None = None):
    """Region codes for every pair in the batch, keyed by input kind."""
    if z is None:
        _, z = encode_regions(batch.features, params, config, training, rng)
    codes = {}
    if config.use_subject:
        rows = ad.gather_rows(z, batch.subject_index)
        codes["subject"] = ad.affine(rows, params["enc.subject.w"], params["enc.subject.b"])
    if config.use_object:
        rows = ad.gather_rows(z, batch.object_index)
        codes["object"] = ad.affine(rows, params["enc.object.w"], params["enc.object.b"])
    geo64 = None
    if config.use_coord:
        geo64 = ad.relu(ad.affine(Tensor(batch.geos), params["geo.w"], params["geo.b"]))
    if config.use_union:
        u = ad.relu(ad.affine(Tensor(batch.union_features),
                              params["union.first.w"], params["union.first.b"]))
        u = ad.dropout(u, config.dropout, rng, training)
        if config.use_coord:
            u = ad.concat([u, geo64])
        codes["union"] = ad.affine(u, params["union.code.w"], params["union.code.b"])
    elif config.use_coord:
        codes["geo"] = geo64
    return codes


def _stream_names(config: ModelConfig):
    return STREAM_NAMES if config.streams == "triple" else ("main",)


def _first_inputs(codes: dict, params: ModelParams, config: ModelConfig):
    if config.streams == "triple":
        union = codes["union"]
        return {
            "subject": codes.get("subject", union),
            "predicate": union,
            "object": codes.get("object", union),
        }
    parts = [codes[k] for k in ("subject", "object", "union", "geo") if k in codes]
    if not config.fuse:
        return {"main": parts[0]}
    return {"main": ad.affine(ad.concat(parts), params["fuse.w"], params["fuse.b"])}


def lstm_step(x: Tensor, h: Tensor, c: Tensor, weights, bias):
    """Standard LSTM cell: gates from one affine over [x, h]."""
    hidden = h.data.shape[1]
    z = ad.affine(ad.concat([x, h]), weights, bias)
    i = ad.sigmoid(ad.slice_cols(z, 0, hidden))
    f = ad.sigmoid(ad.slice_cols(z, hidden, 2 * hidden))
    g = ad.tanh(ad.slice_cols(z, 2 * hidden, 3 * hidden))
    o = ad.sigmoid(ad.slice_cols(z, 3 * hidden, 4 * hidden))
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, c_next


def init_state(n: int, config: ModelConfig):
    zeros = lambda: (Tensor(np.zeros((n, config.hidden))), Tensor(np.zeros((n, config.hidden))))
    return {name: zeros() for name in _stream_names(config)}


def decode_step(codes, prev_word_ids, state, params: ModelParams, config: ModelConfig):
    """One decoder step for a batch of pairs.

    The first step (``prev_word_ids`` None) consumes the region codes, one
    per stream; later steps feed the shared embedding of the previous word
    into every stream. Returns (word logits, POS logits or None, state).
    """
    if prev_word_ids is None:
        inputs = _first_inputs(codes, params, config)
    else:
        shared = ad.gather_rows(params["embed.table"], prev_word_ids)
        inputs = {name: shared for name in _stream_names(config)}
    new_state = {}
    hiddens = []
    for name in _stream_names(config):
        h, c = state[name]
        h2, c2 = lstm_step(inputs[name], h, c, params[f"lstm.{name}.w"], params[f"lstm.{name}.b"])
        new_state[name] = (h2, c2)
        hiddens.append(h2)
    feat = ad.concat(hiddens) if len(hiddens) > 1 else hiddens[0]
    word_logits = ad.affine(feat, params["head.word.w"], params["head.word.b"])
    pos_logits = None
    if config.mtl:
        pos_logits = ad.affine(feat, params["head.pos.w"], params["head.pos.b"])
    return word_logits, pos_logits, new_state


def _pad_targets(sequences, pad_value):
    n = len(sequences)
    t = max(len(s) for s in sequences)
    out = np.full((n, t), pad_value, dtype=np.intp)
    for i, seq in enumerate(sequences):
        out[i, :len(seq)] = seq
    return out


def teacher_forced_unroll(codes, padded_targets, params: ModelParams, config: ModelConfig):
    """Run the decoder over (P, T) target ids, feeding ground-truth words.

    Step 0 consumes the region codes; step t feeds column t - 1 of
    ``padded_targets``. Returns one (word logits, POS logits or None, state)
    triple per step.
    """
    state = init_state(padded_targets.shape[0], config)
    steps = []
    for t in range(padded_targets.shape[1]):
        prev = None if t == 0 else padded_targets[:, t - 1]
        word_logits, pos_logits, state = decode_step(
            codes if t == 0 else None, prev, state, params, config)
        steps.append((word_logits, pos_logits, state))
    return steps


def caption_losses(codes, token_ids, tags, params: ModelParams, config: ModelConfig):
    """Teacher-forced word and POS losses, summed over pairs.

    ``token_ids`` / ``tags`` are per-pair sequences ending with the end
    token; each pair contributes the mean over its own steps. Ground-truth
    words (not samples) feed the next step.
    """
    if not token_ids or any(len(seq) == 0 for seq in token_ids):
        raise ValueError("teacher forcing needs non-empty target captions")
    targets = _pad_targets(token_ids, PAD_ID)
    lengths = np.array([len(s) for s in token_ids])
    mask = np.arange(targets.shape[1])[None, :] < lengths[:, None]
    weights = np.where(mask, 1.0 / lengths[:, None], 0.0)
    steps = teacher_forced_unroll(codes, targets, params, config)

    flat_logits = ad.concat([word for word, _, _ in steps], axis=0)   # step-major (T*P, V)
    flat_targets = targets.T.reshape(-1)
    flat_weights = weights.T.reshape(-1)
    l_cap = ad.weighted_cross_entropy(flat_logits, flat_targets, flat_weights)
    if config.mtl:
        tag_targets = _pad_targets([[int(x) for x in seq] for seq in tags], 0)
        l_pos = ad.weighted_cross_entropy(
            ad.concat([pos for _, pos, _ in steps], axis=0), tag_targets.T.reshape(-1),
            flat_weights)
    else:
        l_pos = Tensor(0.0)
    return l_cap, l_pos


@dataclass
class ImageBatch:
    """Everything total_loss needs for one image: every proposal, and one
    pair row with its caption per supervisable (pair, caption)."""

    pairs: PairBatch                # features of all proposals; one row per caption
    token_ids: list                 # per pair row, caption ids ending with the end token
    tags: list                      # per pair row, PosTag per token
    prop_boxes: list                # Box per proposal
    gt_boxes: list                  # Box per annotated object
    labels: list                    # MatchLabel per proposal


@dataclass
class LossReport:
    l_cap: float
    l_pos: float
    l_det: float
    l_box: float
    total: float
    alpha: float
    beta: float
    gamma: float
    n_caption_pairs: int
    n_positive: int
    n_labeled: int
    no_positive_pairs: bool

    def to_json(self):
        return dict(self.__dict__)


def box_offset_targets(prop: Box, gt: Box) -> np.ndarray:
    """Regression target: offsets normalized by the GT size, log size ratios."""
    return np.array([
        (prop.x - gt.x) / gt.w,
        (prop.y - gt.y) / gt.h,
        math.log(prop.w / gt.w),
        math.log(prop.h / gt.h),
    ])


def total_loss(batch: ImageBatch, params: ModelParams, config: ModelConfig,
               alpha: float = 0.1, beta: float = 0.1, gamma: float = 0.1,
               training: bool = False, rng: np.random.Generator | None = None):
    """Composite loss L_cap + alpha L_POS + beta L_det + gamma L_box.

    Returns (loss node, report). Pairs without ground truth contribute
    nothing; an image with no positive pairs zeroes the caption, POS and
    box terms and flags the report.
    """
    x, z = encode_regions(batch.pairs.features, params, config, training, rng)

    if batch.pairs:
        codes = encode_pair_batch(batch.pairs, params, config, z=z, training=training, rng=rng)
        l_cap, l_pos = caption_losses(codes, batch.token_ids, batch.tags, params, config)
    else:
        l_cap, l_pos = Tensor(0.0), Tensor(0.0)

    n = len(batch.labels)
    det_logits = ad.affine(x, params["det.w"], params["det.b"])
    y = np.zeros(n)
    w = np.zeros(n)
    labeled = [i for i, lab in enumerate(batch.labels) if lab.kind != "ignore"]
    for i in labeled:
        y[i] = 1.0 if batch.labels[i].kind == "positive" else 0.0
        w[i] = 1.0 / len(labeled)
    l_det = ad.binary_logistic_loss(det_logits, y, w) if labeled else Tensor(0.0)

    positives = [i for i, lab in enumerate(batch.labels) if lab.kind == "positive"]
    if positives:
        rows = ad.gather_rows(x, positives)
        pred = ad.affine(rows, params["box.w"], params["box.b"])
        offsets = np.vstack([
            box_offset_targets(batch.prop_boxes[i], batch.gt_boxes[batch.labels[i].gt_index])
            for i in positives
        ])
        l_box = ad.smooth_l1(pred, offsets, np.full(len(positives), 1.0 / len(positives)))
    else:
        l_box = Tensor(0.0)

    total = ad.add_scalars([l_cap, ad.scale(l_pos, alpha), ad.scale(l_det, beta),
                            ad.scale(l_box, gamma)])
    report = LossReport(
        l_cap=float(l_cap.data), l_pos=float(l_pos.data), l_det=float(l_det.data),
        l_box=float(l_box.data), total=float(total.data),
        alpha=alpha, beta=beta, gamma=gamma,
        n_caption_pairs=len(batch.pairs), n_positive=len(positives),
        n_labeled=len(labeled), no_positive_pairs=not batch.pairs,
    )
    return total, report


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@dataclass
class CaptionPrediction:
    """Decoded caption for one pair.

    ``word_probs`` records the chosen probability of every decode step;
    when the sequence terminated at the end token that final probability is
    included, so the confidence is always the exact product of
    ``word_probs``.
    """

    token_ids: list
    pos: list                    # PosTag per emitted token; empty without mtl
    word_probs: list
    confidence: float


def decode_batch(batch: PairBatch, params: ModelParams, config: ModelConfig,
                 mode: str = "greedy", rng: np.random.Generator | None = None):
    """Decode every pair in the batch; greedy or stochastic.

    Greedy takes the argmax each step (ties resolve to the lowest word id);
    stochastic samples from the word softmax and requires ``rng``. Runs
    under ``no_grad``: nothing is differentiated, so no graph is kept.
    """
    if mode not in ("greedy", "stochastic"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic decoding needs an explicit rng")
    n = len(batch)
    rows = np.arange(n)
    done = np.zeros(n, dtype=bool)
    taken = np.zeros(n, dtype=np.intp)           # steps each row decoded
    picks = np.full((n, config.max_len), END_ID, dtype=np.intp)
    chosen_probs = np.zeros((n, config.max_len))
    tags = np.zeros((n, config.max_len), dtype=np.intp)
    with ad.no_grad():
        codes = encode_pair_batch(batch, params, config)
        state = init_state(n, config)
        prev = None
        for t in range(config.max_len):
            word_logits, pos_logits, state = decode_step(
                codes if prev is None else None, prev, state, params, config)
            probs = ad.softmax(word_logits.data)
            active = ~done
            if mode == "greedy":
                step_picks = probs.argmax(axis=1)
            else:
                step_picks = np.full(n, END_ID, dtype=np.intp)
                for row in np.flatnonzero(active):
                    step_picks[row] = rng.choice(config.vocab_size, p=probs[row])
            prev = np.where(active, step_picks, END_ID)
            picks[:, t] = prev
            chosen_probs[:, t] = probs[rows, prev]
            if pos_logits is not None:
                tags[:, t] = pos_logits.data.argmax(axis=1)
            taken += active
            done |= prev == END_ID
            if done.all():
                break
    # Each row decoded its first ``taken`` steps; a finished row's last pick
    # is the end token, which has a probability but is not emitted.
    tag_of = tuple(PosTag)                      # PosTag(x) for x in 0, 1, 2
    out = []
    for finished, k, row_picks, row_probs, row_tags in zip(
            done.tolist(), taken.tolist(), picks.tolist(), chosen_probs.tolist(), tags.tolist()):
        emitted = k - 1 if finished else k
        word_probs = row_probs[:k]
        out.append(CaptionPrediction(
            token_ids=row_picks[:emitted],
            pos=[tag_of[x] for x in row_tags[:emitted]] if config.mtl else [],
            word_probs=word_probs,
            confidence=float(math.prod(word_probs)) if word_probs else 1.0,
        ))
    return out


def importance_trace(codes, gt_token_ids, params: ModelParams,
                     config: ModelConfig) -> np.ndarray:
    """Per-step L2 norms of the three stream hidden states, mean-centered.

    ``codes`` are the region codes of one pair. Returns a T x 3 matrix
    ordered (subject, predicate, object); each column sums to zero. Only
    defined for triple-stream configurations.
    """
    if config.streams != "triple":
        raise ValueError("importance traces need a triple-stream configuration")
    targets = list(gt_token_ids)
    if not targets:
        raise ValueError("importance trace needs a non-empty token sequence")
    with ad.no_grad():
        steps = teacher_forced_unroll(codes, np.array([targets], dtype=np.intp), params, config)
    trace = np.array([[float(np.linalg.norm(state[name][0].data)) for name in STREAM_NAMES]
                      for _, _, state in steps])
    return trace - trace.mean(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_model(path: str, params: ModelParams, config: ModelConfig,
               vocab: Vocabulary, optimizer: "ad.OptimizerState | None" = None,
               extra_meta: dict | None = None) -> None:
    arrays = dict(params.arrays())
    meta = {"model_config": config.to_json(), "vocab": vocab.to_json()}
    if optimizer is not None:
        meta["adam"] = {"lr": optimizer.lr, "beta1": optimizer.beta1,
                        "beta2": optimizer.beta2, "epsilon": optimizer.epsilon,
                        "step_count": optimizer.step_count}
        for name, arr in optimizer.m.items():
            arrays[f"adam.m.{name}"] = arr
        for name, arr in optimizer.v.items():
            arrays[f"adam.v.{name}"] = arr
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, arrays, meta)


def load_model(path: str):
    """Returns (params, config, vocab, optimizer_or_None, meta)."""
    arrays, meta = load_checkpoint(path)
    try:
        config = ModelConfig.from_json(meta["model_config"])
        vocab = Vocabulary.from_json(meta["vocab"])
        if len(vocab) != config.vocab_size:
            raise ValueError(f"{len(vocab)} vocabulary entries for vocab_size "
                             f"{config.vocab_size}")
        params = ModelParams.from_arrays(
            {n: a for n, a in arrays.items() if not n.startswith("adam.")})
        optimizer = None
        if "adam" in meta:
            info = meta["adam"]
            optimizer = ad.OptimizerState(params.all(), lr=info["lr"], beta1=info["beta1"],
                                          beta2=info["beta2"], epsilon=info["epsilon"])
            optimizer.step_count = int(info["step_count"])
            for name in params.names():
                optimizer.m[name] = arrays[f"adam.m.{name}"]
                optimizer.v[name] = arrays[f"adam.v.{name}"]
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint metadata: {exc!r}") from exc
    return params, config, vocab, optimizer, meta
