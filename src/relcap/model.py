"""The relational captioning network.

Region features pass through a shared first FC (optionally refined by the
relational embedding module), per-role second FCs produce fixed-width
region codes, and one or three LSTM streams decode captions with a
multi-task word + POS head. Loss is the weighted sum of captioning, POS,
detection and box-regression terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .data import END_ID, PAD_ID, PosTag, Vocabulary
from .errors import CheckpointError, ConfigError
from .geometry import Box, RegionPair

STREAM_NAMES = ("subject", "predicate", "object")
INPUT_KINDS = ("subject", "object", "union", "coord")

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


@dataclass(frozen=True)
class ModelConfig:
    feature_width: int
    vocab_size: int
    d_subj_obj: int = 4096       # intermediate width of the shared first FC
    d_union: int = 512           # intermediate width of the union path
    code_width: int = 512        # region-code width; must equal hidden
    hidden: int = 512
    geo_dim: int = 64
    rem_dim: int = 512
    pos_classes: int = 3
    max_len: int = 12
    streams: str = "triple"
    inputs: tuple = ("subject", "object", "union", "coord")
    mtl: bool = True
    rem: bool = False
    dropout: float = 0.5
    rpn_output: str = "object"   # "union": proposals are whole relation regions
    name: str = "mttsnet"

    @property
    def fusion(self) -> str:
        return "late" if self.streams == "triple" else "early"

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

    def validate(self):
        if self.streams not in ("single", "triple"):
            raise ConfigError(f"streams must be single or triple, got {self.streams!r}")
        bad = [k for k in self.inputs if k not in INPUT_KINDS]
        if bad:
            raise ConfigError(f"unknown stream inputs {bad}")
        if not (self.use_subject or self.use_object or self.use_union):
            raise ConfigError("at least one region input is required")
        if self.streams == "triple" and not self.use_union:
            raise ConfigError("triple-stream configs need the union input")
        if self.code_width != self.hidden:
            raise ConfigError("region-code width must equal the LSTM hidden width "
                              "(codes are the first-step LSTM inputs)")
        if self.rpn_output not in ("object", "union"):
            raise ConfigError(f"rpn_output must be object or union, got {self.rpn_output!r}")
        if self.rpn_output == "union" and (self.streams != "single" or self.inputs != ("union",)):
            raise ConfigError("direct-union requires a single stream over the union input")
        if self.pos_classes != 3:
            raise ConfigError("the POS head is a 3-class classifier")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.vocab_size <= len(("<s>", "</s>", "<unk>", "<pad>")):
            raise ConfigError("vocabulary must contain at least one real word")
        return self

    @staticmethod
    def from_name(spec: str, feature_width: int, vocab_size: int, **overrides) -> "ModelConfig":
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        if not parts or parts[0] not in MODEL_PRESETS:
            raise ConfigError(f"unknown model {spec!r}; expected one of {sorted(MODEL_PRESETS)}")
        base = parts[0]
        streams, inputs, mtl = MODEL_PRESETS[base]
        rem = False
        for flag in parts[1:]:
            if flag == "mtl":
                mtl = True
            elif flag == "rem":
                rem = True
            else:
                raise ConfigError(f"unknown model flag {flag!r} in {spec!r}")
        cfg = ModelConfig(
            feature_width=feature_width, vocab_size=vocab_size,
            streams=streams, inputs=inputs, mtl=mtl, rem=rem,
            rpn_output="union" if base == "direct-union" else "object",
            name=spec, **overrides)
        return cfg.validate()

    def to_json(self) -> dict:
        return {
            "feature_width": self.feature_width, "vocab_size": self.vocab_size,
            "d_subj_obj": self.d_subj_obj, "d_union": self.d_union,
            "code_width": self.code_width, "hidden": self.hidden,
            "geo_dim": self.geo_dim, "rem_dim": self.rem_dim,
            "pos_classes": self.pos_classes, "max_len": self.max_len,
            "streams": self.streams, "inputs": list(self.inputs),
            "mtl": self.mtl, "rem": self.rem, "dropout": self.dropout,
            "rpn_output": self.rpn_output, "name": self.name,
        }

    @staticmethod
    def from_json(obj: dict) -> "ModelConfig":
        obj = dict(obj)
        obj["inputs"] = tuple(obj["inputs"])
        return ModelConfig(**obj).validate()


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

    def zero_grads(self):
        for p in self._params.values():
            p.zero_grad()

    def arrays(self):
        return {name: p.data for name, p in self._params.items()}

    @staticmethod
    def from_arrays(arrays) -> "ModelParams":
        return ModelParams({name: Parameter(name, arr) for name, arr in arrays.items()})


def _fused_width(config: ModelConfig) -> int:
    width = 0
    if config.use_subject:
        width += config.code_width
    if config.use_object:
        width += config.code_width
    if config.use_union:
        width += config.code_width
    elif config.use_coord:
        width += config.geo_dim
    return width


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
        in_width = config.d_union + (config.geo_dim if config.use_coord else 0)
        fc("union.code", in_width, config.code_width)
    if config.use_coord:
        fc("geo", 6, config.geo_dim)
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
    if config.streams == "single" and _fused_width(config) != h:
        fc("fuse", _fused_width(config), h)

    head_in = 3 * h if config.streams == "triple" else h
    fc("head.word", head_in, config.vocab_size)
    if config.mtl:
        fc("head.pos", head_in, config.pos_classes)
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
    """Per-image batch of region pairs ready for encoding/decoding."""

    features: np.ndarray            # (B, feature_width) all proposals
    subject_index: list             # per pair, row into features
    object_index: list
    union_features: np.ndarray      # (P, feature_width)
    geos: np.ndarray                # (P, 6)

    def __len__(self):
        return len(self.subject_index)

    @staticmethod
    def from_pair(pair: RegionPair, union_feature,
                  all_region_features=None) -> "PairBatch":
        """Batch of one pair.

        ``all_region_features`` maps proposal id -> feature row (default: the
        two members); the relational embedding runs over all of them jointly
        before the pair is selected. ``union_feature`` is the provider
        descriptor of the pair's union box.
        """
        if all_region_features is None:
            all_region_features = {pair.subject.id: pair.subject.feature,
                                   pair.object.id: pair.object.feature}
        if pair.subject.id not in all_region_features or pair.object.id not in all_region_features:
            raise ValueError("pair members must be present in all_region_features")
        ids = sorted(all_region_features)
        return PairBatch(
            features=np.vstack([np.asarray(all_region_features[i]).reshape(1, -1) for i in ids]),
            subject_index=[ids.index(pair.subject.id)],
            object_index=[ids.index(pair.object.id)],
            union_features=np.asarray(union_feature).reshape(1, -1),
            geos=pair.geo.reshape(1, -1),
        )

    @staticmethod
    def from_targets(features: np.ndarray, targets) -> "PairBatch":
        """Batch of one image's supervisable pairs (``CaptionTarget`` list)."""
        return PairBatch(
            features=features,
            subject_index=[t.subject_index for t in targets],
            object_index=[t.object_index for t in targets],
            union_features=np.vstack([t.union_feature.reshape(1, -1) for t in targets]),
            geos=np.vstack([t.geo.reshape(1, -1) for t in targets]),
        )


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
    if len(parts) == 1 and parts[0].data.shape[1] == config.hidden:
        return {"main": parts[0]}
    fused = ad.concat(parts) if len(parts) > 1 else parts[0]
    return {"main": ad.affine(fused, params["fuse.w"], params["fuse.b"])}


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
        prev = np.asarray(prev_word_ids, dtype=np.intp)
        if prev.size and (prev.min() < 0 or prev.max() >= config.vocab_size):
            raise IndexError(f"word id out of range for vocabulary of {config.vocab_size}")
        shared = ad.gather_rows(params["embed.table"], prev)
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
class CaptionTarget:
    """One supervisable pair: indices into the proposal set plus its caption."""

    subject_index: int
    object_index: int
    union_feature: np.ndarray
    geo: np.ndarray
    token_ids: list
    tags: list


@dataclass
class ImageBatch:
    """Everything total_loss needs for one image."""

    features: np.ndarray            # (B, feature_width)
    prop_boxes: list                # Box per proposal
    gt_boxes: list                  # Box per annotated object
    labels: list                    # MatchLabel per proposal
    targets: list                   # CaptionTarget per supervisable pair


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
    x, z = encode_regions(batch.features, params, config, training, rng)

    if batch.targets:
        codes = encode_pair_batch(PairBatch.from_targets(batch.features, batch.targets),
                                  params, config, z=z, training=training, rng=rng)
        l_cap, l_pos = caption_losses(
            codes, [t.token_ids for t in batch.targets], [t.tags for t in batch.targets],
            params, config)
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
        n_caption_pairs=len(batch.targets), n_positive=len(positives),
        n_labeled=len(labeled), no_positive_pairs=not batch.targets,
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
                 mode: str = "greedy", rng: np.random.Generator | None = None,
                 max_len: int | None = None):
    """Decode every pair in the batch; greedy or stochastic.

    Greedy takes the argmax each step (ties resolve to the lowest word id);
    stochastic samples from the word softmax and requires ``rng``.
    """
    if mode not in ("greedy", "stochastic"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic decoding needs an explicit rng")
    limit = config.max_len if max_len is None else max_len
    n = len(batch)
    codes = encode_pair_batch(batch, params, config)
    state = init_state(n, config)
    token_ids = [[] for _ in range(n)]
    pos_tags = [[] for _ in range(n)]
    word_probs = [[] for _ in range(n)]
    done = [False] * n
    prev = None
    for _step in range(limit):
        word_logits, pos_logits, state = decode_step(
            codes if prev is None else None, prev, state, params, config)
        probs = ad.softmax(word_logits.data)
        pos_argmax = pos_logits.data.argmax(axis=1) if pos_logits is not None else None
        chosen = np.full(n, END_ID, dtype=np.intp)
        for row in range(n):
            if done[row]:
                continue
            if mode == "greedy":
                pick = int(probs[row].argmax())
            else:
                pick = int(rng.choice(config.vocab_size, p=probs[row]))
            chosen[row] = pick
            word_probs[row].append(float(probs[row][pick]))
            if pick == END_ID:
                done[row] = True
            else:
                token_ids[row].append(pick)
                if pos_argmax is not None:
                    pos_tags[row].append(PosTag(int(pos_argmax[row])))
        if all(done):
            break
        prev = chosen
    out = []
    for row in range(n):
        out.append(CaptionPrediction(
            token_ids=token_ids[row],
            pos=pos_tags[row],
            word_probs=word_probs[row],
            confidence=float(math.prod(word_probs[row])) if word_probs[row] else 1.0,
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
