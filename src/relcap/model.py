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
from .autodiff import ModelParams, Tensor
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
# The optimizer fields a checkpoint's "adam" meta holds.
ADAM_KEYS = ("lr", "beta1", "beta2", "epsilon", "step_count")


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


def param_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every parameter ``config`` has, in creation order:
    the checkpoint layout. Weights are ``(fan_in, fan_out)``, biases 1-D."""
    config.validate()
    shapes = {}

    def fc(prefix, fan_in, fan_out):
        shapes[f"{prefix}.w"] = (fan_in, fan_out)
        shapes[f"{prefix}.b"] = (fan_out,)

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
            shapes[name] = (config.d_subj_obj, config.rem_dim)
    shapes["embed.table"] = (config.vocab_size, config.hidden)

    h = config.hidden
    for stream in _stream_names(config):
        fc(f"lstm.{stream}", 2 * h, 4 * h)
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
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, LSTM forget-gate bias 1."""
    params = ModelParams(param_shapes(config))
    for p in params.values():
        if p.data.ndim == 2:
            p.data[...] = ad.glorot_init(*p.shape, rng)
    for stream in _stream_names(config):
        params[f"lstm.{stream}.b"].data[config.hidden:2 * config.hidden] = 1.0   # forget gate
    return params


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
                   rng: np.random.Generator | None = None):
    """Shared first FC over all B regions; returns (x, z) at width d_subj_obj.

    ``x`` feeds the detection and box heads; ``z`` (REM-refined when
    enabled) feeds the subject/object code FCs. Dropout runs when an
    ``rng`` is given.
    """
    x = ad.relu(ad.affine(Tensor(features), params["enc.first.w"], params["enc.first.b"]))
    x = ad.dropout(x, config.dropout, rng)
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
                      z: Tensor | None = None, rng: np.random.Generator | None = None):
    """Region codes for every pair in the batch, keyed by input kind; with
    an ``rng``, dropout runs as in training."""
    if z is None:
        _, z = encode_regions(batch.features, params, config, rng)
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
        u = ad.dropout(u, config.dropout, rng)
        if config.use_coord:
            u = ad.concat([u, geo64])
        codes["union"] = ad.affine(u, params["union.code.w"], params["union.code.b"])
    elif config.use_coord:
        codes["geo"] = geo64
    return codes


def _stream_names(config: ModelConfig):
    return STREAM_NAMES if config.streams == "triple" else ("main",)


def stream_inputs(codes: dict, params: ModelParams, config: ModelConfig):
    """The step-0 input of each stream, in stream order: the region codes
    (one per role for triple streams, fused for a single stream)."""
    if config.streams == "triple":
        union = codes["union"]
        return [codes.get("subject", union), union, codes.get("object", union)]
    parts = [codes[k] for k in ("subject", "object", "union", "geo") if k in codes]
    if not config.fuse:
        return [parts[0]]
    return [ad.affine(ad.concat(parts), params["fuse.w"], params["fuse.b"])]


# ---------------------------------------------------------------------------
# the LSTM streams
# ---------------------------------------------------------------------------

BLOCK = 8 * ad.TILE     # rows whose gate work runs together within a step


# Gate blocks of the checkpoint's 4H columns (i, f, g, o) in kernel order
# i, f, o, g, and the factor each is pre-scaled by: sigmoid(x) is
# 0.5 tanh(0.5 x) + 0.5, and halving a weight halves its products exactly.
_GATES = ((0, 0.5), (1, 0.5), (3, 0.5), (2, 1.0))


def _gate_weights(params: ModelParams, config: ModelConfig, dtype):
    """Per stream (W_x, W_h, b): the checkpoint's [x, h] @ W split in two and
    stacked gate-major, ``(4, hidden, hidden)`` and ``(4, 1, hidden)``, in
    ``dtype``."""
    h = config.hidden
    out = []
    for name in _stream_names(config):
        w, b = params[f"lstm.{name}.w"].data, params[f"lstm.{name}.b"].data
        w = np.stack([w[:, k * h:(k + 1) * h] * scale for k, scale in _GATES])
        b = np.stack([b[k * h:(k + 1) * h] * scale for k, scale in _GATES])
        w, b = w.astype(dtype, copy=False), b.astype(dtype, copy=False)
        out.append((np.ascontiguousarray(w[:, :h]), np.ascontiguousarray(w[:, h:]),
                    b[:, None, :]))
    return out


def regroup(states: np.ndarray, words: np.ndarray, vocab: int):
    """The distinct (state, word) pairs of rows in ``states`` fed ``words``:
    returns (row -> new state, each new state's parent state, its word).
    Two rows share a new state exactly when they share both; new states are
    numbered in ascending ``state * vocab + word`` order."""
    keys, row_map = np.unique(states * vocab + words, return_inverse=True)
    parent, word = np.divmod(keys, vocab)
    return row_map, parent, word


def run_streams(first, params: ModelParams, config: ModelConfig, n_steps: int, emit,
                tape=None):
    """Run every LSTM stream over up to ``n_steps`` steps on raw arrays.

    ``first`` holds each stream's step-0 input (a ``(P, hidden)`` Tensor,
    see ``stream_inputs``). Step t >= 1 feeds every stream the shared
    embedding of the word chosen for the row at step t - 1; its input term
    is then a row of the per-stream table ``embed.table @ W_x + b``.

    A stream keeps one state per distinct (step-0 input row, fed-word
    prefix), not one per row. Step-0 rows with byte-equal inputs share a
    state, and a state fed one word at step t becomes one new state
    (``regroup``), so the subject and object streams of a dense batch,
    whose rows repeat each region's code, step far fewer states than rows.
    A stream keeps the identity map instead, one state per row updated in
    place, when the run keeps a tape, when it has at most BLOCK rows, or
    when its step-0 rows are all distinct (the union-fed predicate stream,
    a fused single stream).

    States are padded to a multiple of TILE and each step runs them in
    blocks of BLOCK, stream by stream. Gates are kept gate-major, so every
    element-wise pass is over contiguous memory, and every GEMM is a stack
    of TILE-row products, so a state's values do not depend on the other
    states: a row's outputs are the same bits whichever rows share its
    states.

    ``emit(t, lo, hidden)`` then receives the hidden states of each block of
    BLOCK rows ``lo, lo + 1, ...`` below P after step t, the streams side
    by side (``(rows, S * hidden)``; it may be a view that the next step
    overwrites). It returns the word ids fed to those rows at step t + 1,
    or None to end the run after step t. With a ``tape`` list, all rows run
    as one block and each step appends (gates, cell states), one
    ``(4, rows, hidden)`` array of activated i, f, o, g gates and one
    ``(rows, hidden)`` array per stream, for the backward pass of
    ``stream_states``.

    The run is float64 exactly when it keeps a tape. Without one (decoding
    and every other forward-only pass) the gate weights, step-0 inputs, word
    tables and states are cast to float32, and ``emit`` receives float32
    states; the parameters themselves stay float64.
    """
    hid = config.hidden
    dtype = np.float64 if tape is not None else np.float32
    weights = _gate_weights(params, config, dtype)
    embed = params["embed.table"].data.astype(dtype, copy=False)
    n = len(first[0].data)
    rows = n + (-n % ad.TILE)
    block = max(rows, 1) if tape is not None else BLOCK
    inputs, maps = [], []           # per stream: step-0 input per state; row -> state or None
    for x in first:
        x = np.ascontiguousarray(x.data, dtype)
        row_map = None
        if tape is None and n > BLOCK:
            _, keep, inverse = np.unique(x.view(np.dtype((np.void, x.strides[0]))).ravel(),
                                         return_index=True, return_inverse=True)
            if len(keep) < n:
                x, row_map = x[keep], inverse
        inputs.append(x)
        maps.append(row_map)
    start = [np.matmul(ad.tile_rows(x), w_x[:, None]).reshape(4, -1, hid) + b
             for x, (w_x, _, b) in zip(inputs, weights)]
    h = [np.zeros((x.shape[1], hid), dtype) for x in start]
    c = [np.zeros_like(x) for x in h]
    vocab = len(embed)
    lookup = [(np.matmul(ad.tile_rows(embed), w_x[:, None]).reshape(4, -1, hid)[:, :vocab] + b)
              .reshape(4 * vocab, hid) for w_x, _, b in weights]
    offsets = (np.arange(4) * vocab)[:, None]
    ids = None
    for t in range(n_steps):
        if tape is not None:
            c = [cell.copy() for cell in c]
            tape.append(([], c))
        fed = ids + offsets if t else None       # rows of the stacked word tables
        for s, (_, w_h, _) in enumerate(weights):
            fed_s = fed
            if t and maps[s] is not None:
                maps[s], parent, words = regroup(maps[s], ids[:n], vocab)
                pad = (0, -len(parent) % ad.TILE)           # pad states: state 0, word 0
                parent, fed_s = np.pad(parent, pad), np.pad(words, pad) + offsets
                h[s], c[s] = h[s][parent], c[s][parent]
            for lo in range(0, len(h[s]), block):
                hidden, cell = h[s][lo:lo + block], c[s][lo:lo + block]
                z = np.matmul(hidden.reshape(-1, ad.TILE, hid), w_h[:, None])
                z = z.reshape(4, len(hidden), hid)
                z += (start[s][:, lo:lo + block] if t == 0
                      else np.take(lookup[s], fed_s[:, lo:lo + block], axis=0))
                np.tanh(z, out=z)
                z[:3] *= 0.5                     # i, f, o: 0.5 tanh(0.5 x) + 0.5
                z[:3] += 0.5
                cell *= z[1]
                cell += z[0] * z[3]
                np.tanh(cell, out=hidden)
                hidden *= z[2]
                if tape is not None:
                    tape[-1][0].append(z)
        next_ids = np.zeros(rows, dtype=np.intp)
        stop = False
        for lo in range(0, rows, block):
            top = min(lo + block, n)
            feats = [x[lo:top] if m is None else x[m[lo:top]] for x, m in zip(h, maps)]
            got = emit(t, lo, feats[0] if len(feats) == 1 else np.concatenate(feats, axis=1))
            if got is None:
                stop = True
            else:
                next_ids[lo:lo + len(got)] = got
        if stop:
            break
        if next_ids.size and (next_ids.min() < 0 or next_ids.max() >= vocab):
            raise IndexError(f"run_streams: word id out of range for {vocab} words")
        ids = next_ids


def stream_states(codes, targets: np.ndarray, params: ModelParams, config: ModelConfig):
    """Teacher-forced hidden states as one graph node, ``(T * P, S * hidden)``
    step-major: step t of pair p is row ``t * P + p``.

    The teacher-forced unroll that keeps every step's states, for the
    caption and POS losses, POS accuracy and importance traces. Step 0 reads
    the region codes; step t feeds column t - 1 of the ``(P, T)``
    ``targets``. The backward pass is backpropagation through time over the
    gates ``run_streams`` recorded (the vanilla-LSTM equations of Greff et
    al., "LSTM: A Search Space Odyssey"). Inside ``no_grad`` no gates are
    recorded, the rows run in blocks and the kernel runs in float32 (see
    ``run_streams``), so the states agree with the taped float64 ones only
    to float32 rounding; the result is a float64 array either way.
    """
    first = stream_inputs(codes, params, config)
    names = _stream_names(config)
    n, steps = targets.shape
    hid = config.hidden
    width = len(names) * hid
    hidden = np.empty((steps, n, width))
    tape = [] if ad.is_recording() else None

    def emit(t, lo, feat):
        hidden[t, lo:lo + len(feat)] = feat
        return targets[lo:lo + len(feat), t]

    run_streams(first, params, config, steps, emit, tape=tape)
    embed = params["embed.table"]
    fed = targets[:, :-1].T.reshape(-1)          # word ids of steps 1.., step-major

    def backward(g):
        g = g.reshape(steps, n, width)
        d_first, d_params = [], []
        d_embed = np.zeros_like(embed.data)
        for s, name in enumerate(names):
            w = params[f"lstm.{name}.w"].data
            cols = slice(s * hid, (s + 1) * hid)
            dz = np.empty((steps, n, 4 * hid))          # checkpoint order i, f, g, o
            dh_next, dc_next = np.zeros((n, hid)), np.zeros((n, hid))
            for t in reversed(range(steps)):
                i, f, o, gg = tape[t][0][s][:, :n]
                tanh_c = np.tanh(tape[t][1][s][:n])
                c_prev = tape[t - 1][1][s][:n] if t else 0.0
                dh = g[t][:, cols] + dh_next
                dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
                dz[t, :, :hid] = dc * gg * i * (1.0 - i)
                dz[t, :, hid:2 * hid] = dc * c_prev * f * (1.0 - f)
                dz[t, :, 2 * hid:3 * hid] = dc * i * (1.0 - gg * gg)
                dz[t, :, 3 * hid:] = dh * tanh_c * o * (1.0 - o)
                dc_next = dc * f
                dh_next = dz[t] @ w[hid:].T
            flat = dz.reshape(-1, 4 * hid)
            h_prev = np.concatenate([np.zeros((n, hid)), hidden[:-1, :, cols].reshape(-1, hid)])
            x_in = np.concatenate([first[s].data, embed.data[fed]])
            d_x = flat @ w[:hid].T
            np.add.at(d_embed, fed, d_x[n:])
            d_first.append(d_x[:n])
            d_params += [np.concatenate([x_in.T @ flat, h_prev.T @ flat]), flat.sum(axis=0)]
        return [*d_first, *d_params, d_embed]

    lstm = [params[f"lstm.{name}.{kind}"] for name in names for kind in ("w", "b")]
    return ad.custom_op(hidden.reshape(-1, width), [*first, *lstm, embed], backward)


def _pad_targets(sequences, pad_value):
    n = len(sequences)
    t = max(len(s) for s in sequences)
    out = np.full((n, t), pad_value, dtype=np.intp)
    for i, seq in enumerate(sequences):
        out[i, :len(seq)] = seq
    return out


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
    hidden = stream_states(codes, targets, params, config)     # step-major (T*P, S*H)

    flat_weights = weights.T.reshape(-1)
    l_cap = ad.weighted_cross_entropy(
        ad.affine(hidden, params["head.word.w"], params["head.word.b"]),
        targets.T.reshape(-1), flat_weights)
    if config.mtl:
        tag_targets = _pad_targets([[int(x) for x in seq] for seq in tags], 0)
        l_pos = ad.weighted_cross_entropy(
            ad.affine(hidden, params["head.pos.w"], params["head.pos.b"]),
            tag_targets.T.reshape(-1), flat_weights)
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


LOSS_COMPONENTS = ("l_cap", "l_pos", "l_det", "l_box", "total")


@dataclass
class LossReport:
    l_cap: float
    l_pos: float
    l_det: float
    l_box: float
    total: float
    no_positive_pairs: bool


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
               rng: np.random.Generator | None = None):
    """Composite loss L_cap + alpha L_POS + beta L_det + gamma L_box.

    Returns (loss node, report). Pairs without ground truth contribute
    nothing; an image with no positive pairs zeroes the caption, POS and
    box terms and flags the report. Dropout runs when an ``rng`` is given.
    """
    x, z = encode_regions(batch.pairs.features, params, config, rng)

    if batch.pairs:
        codes = encode_pair_batch(batch.pairs, params, config, z=z, rng=rng)
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
        l_box=float(l_box.data), total=float(total.data), no_positive_pairs=not batch.pairs,
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


def sample_rows(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Per row of ``probs``, the id ``Generator.choice(V, p=row)`` picks when
    its uniform draw is the row's entry of ``uniforms``: the number of
    entries of the normalised cumulative sum that are <= the draw."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=1)


def decode_batch(batch: PairBatch, params: ModelParams, config: ModelConfig,
                 mode: str = "greedy", rng: np.random.Generator | None = None):
    """Decode every pair in the batch; greedy or stochastic.

    Greedy takes the argmax each step (ties resolve to the lowest word id);
    stochastic samples from the word softmax and requires ``rng``: each step
    draws one uniform per unfinished row, in row order, as a per-row
    ``rng.choice`` would. Runs under ``no_grad``: nothing is differentiated,
    so no graph is kept and the LSTM runs in float32; the heads and softmax
    stay float64. A pair's output does not depend on the other pairs of the
    batch.
    """
    picks, chosen_probs, tags, emitted, taken = _decode_arrays(batch, params, config, mode, rng)
    tag_of = tuple(PosTag)                      # PosTag(x) for x in 0, 1, 2
    out = []
    for e, k, row_picks, row_probs, row_tags in zip(
            emitted.tolist(), taken.tolist(), picks.tolist(), chosen_probs.tolist(),
            tags.tolist()):
        word_probs = row_probs[:k]
        out.append(CaptionPrediction(
            token_ids=row_picks[:e],
            pos=[tag_of[x] for x in row_tags[:e]] if config.mtl else [],
            word_probs=word_probs,
            confidence=float(math.prod(word_probs)) if word_probs else 1.0,
        ))
    return out


def _decode_arrays(batch: PairBatch, params: ModelParams, config: ModelConfig,
                   mode: str = "greedy", rng: np.random.Generator | None = None):
    """``decode_batch`` as arrays: (picks, chosen probabilities, POS tag
    values, emitted, taken). Row p decoded ``taken[p]`` steps, whose word
    ids and probabilities are the first ``taken[p]`` entries of its
    ``(P, max_len)`` rows; the first ``emitted[p]`` words (and tags, with
    mtl) are its caption, one fewer than ``taken[p]`` when the last pick
    was the end token."""
    if mode not in ("greedy", "stochastic"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic decoding needs an explicit rng")
    n = len(batch)
    done = np.zeros(n, dtype=bool)
    taken = np.zeros(n, dtype=np.intp)           # steps each row decoded
    picks = np.full((n, config.max_len), END_ID, dtype=np.intp)
    chosen_probs = np.zeros((n, config.max_len))
    tags = np.zeros((n, config.max_len), dtype=np.intp)
    uniforms = np.zeros(n)

    def emit(t, lo, feat):
        top = lo + len(feat)
        word = ad.affine(Tensor(feat), params["head.word.w"], params["head.word.b"])
        probs = ad.softmax(word.data)
        if mode == "stochastic" and lo == 0:
            uniforms[~done] = rng.random(n - int(done.sum()))
        active = ~done[lo:top]
        if mode == "greedy":
            step_picks = probs.argmax(axis=1)
        else:
            step_picks = np.full(len(feat), END_ID, dtype=np.intp)
            step_picks[active] = sample_rows(probs[active], uniforms[lo:top][active])
        prev = np.where(active, step_picks, END_ID)
        picks[lo:top, t] = prev
        chosen_probs[lo:top, t] = probs[np.arange(len(feat)), prev]
        if config.mtl:
            pos = ad.affine(Tensor(feat), params["head.pos.w"], params["head.pos.b"])
            tags[lo:top, t] = pos.data.argmax(axis=1)
        taken[lo:top] += active
        done[lo:top] |= prev == END_ID
        return None if top == n and done.all() else prev

    with ad.no_grad():
        codes = encode_pair_batch(batch, params, config)
        run_streams(stream_inputs(codes, params, config), params, config, config.max_len, emit)
    # A finished row's last pick is the end token, which has a probability
    # but is not emitted.
    return picks, chosen_probs, tags, taken - done, taken


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
        hidden = stream_states(codes, np.array([targets]), params, config).data
    trace = np.array([[np.linalg.norm(x) for x in np.split(row, len(STREAM_NAMES))]
                      for row in hidden])
    return trace - trace.mean(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_model(path: str, params: ModelParams, config: ModelConfig,
               vocab: Vocabulary, optimizer: "ad.OptimizerState | None" = None,
               extra_meta: dict | None = None) -> None:
    arrays = params.views(params.data)
    meta = {"model_config": config.to_json(), "vocab": vocab.to_json()}
    if optimizer is not None:
        meta["adam"] = {key: getattr(optimizer, key) for key in ADAM_KEYS}
        for k, flat in (("m", optimizer.m), ("v", optimizer.v)):
            arrays |= {f"adam.{k}.{name}": view for name, view in params.views(flat).items()}
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
        # Exactly the tensors init_params builds for the config, each finite.
        params = ModelParams(param_shapes(config))
        want = dict(params.shapes)
        if "adam" in meta:
            want |= {f"adam.{k}.{name}": shape for k in "mv" for name, shape in want.items()}
        got = {name: arr.shape for name, arr in arrays.items()}
        if wrong := [name for name in [*want, *got] if want.get(name) != got.get(name)]:
            raise ValueError(f"tensor {wrong[0]!r}: shape {got.get(wrong[0])} in the file, "
                             f"{want.get(wrong[0])} for the model")
        if bad := [name for name, arr in arrays.items() if not np.isfinite(arr).all()]:
            raise ValueError(f"tensor {bad[0]!r} is not finite")
        buffers = {"": params.data}
        optimizer = None
        if "adam" in meta:
            lr, beta1, beta2, epsilon, steps = (meta["adam"][key] for key in ADAM_KEYS)
            if any(isinstance(x, bool) for x in (lr, beta1, beta2, epsilon)) or not (
                    0 < lr < math.inf and 0 < epsilon < math.inf
                    and 0 <= beta1 < 1 and 0 <= beta2 < 1):
                raise ValueError(f"adam {meta['adam']}: lr and epsilon must be finite and "
                                 f"> 0, beta1 and beta2 in [0, 1)")
            if type(steps) is not int or steps < 0:
                raise ValueError(f"adam step_count {steps!r} is not a non-negative integer")
            optimizer = ad.OptimizerState(params, lr, beta1, beta2, epsilon)
            optimizer.step_count = steps
            buffers |= {"adam.m.": optimizer.m, "adam.v.": optimizer.v}
        for prefix, flat in buffers.items():
            for name, view in params.views(flat).items():
                view[...] = arrays[prefix + name]
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint: {exc!r}") from exc
    return params, config, vocab, optimizer, meta
