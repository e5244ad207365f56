"""Dataset schema, vocabulary, POS-segment labeling, the deterministic toy
world, and the attribute-enrichment tool.

Datasets are JSON-lines files, one image per line, with an explicit
``schema_version`` on every line. POS tags here are the 3-way
subject / predicate / object segment labels of a relational caption.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .checkpoint import write_atomic
from .errors import ConfigError, DataError
from .geometry import Box, Proposals, box_rows, iou_matrix, json_number

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

START_TOKEN, END_TOKEN, UNK_TOKEN, PAD_TOKEN = "<s>", "</s>", "<unk>", "<pad>"
START_ID, END_ID, UNK_ID, PAD_ID = 0, 1, 2, 3
RESERVED_TOKENS = (START_TOKEN, END_TOKEN, UNK_TOKEN, PAD_TOKEN)


class PosTag(IntEnum):
    SUBJ = 0
    PRED = 1
    OBJ = 2

    @staticmethod
    def parse(name: str) -> "PosTag":
        try:
            return PosTag[name]
        except KeyError:
            raise ValueError(f"unknown POS tag {name!r}") from None


@dataclass
class GroundTruthRelation:
    subject_box: Box
    object_box: Box
    tokens: list
    pos: list                    # PosTag per token
    image_id: int = -1

    def validate(self):
        if not self.tokens:
            raise ValueError("relation caption must be non-empty")
        if len(self.tokens) != len(self.pos):
            raise ValueError(f"{len(self.tokens)} tokens vs {len(self.pos)} POS tags")
        # segments must be contiguous and ordered SUBJ -> PRED -> OBJ
        order = [tag for i, tag in enumerate(self.pos) if i == 0 or tag != self.pos[i - 1]]
        if order != [PosTag.SUBJ, PosTag.PRED, PosTag.OBJ]:
            raise ValueError("POS segments must be contiguous in SUBJ, PRED, OBJ order")
        return self

    def segment(self, tag: PosTag):
        return [t for t, p in zip(self.tokens, self.pos) if p == tag]


@dataclass
class ObjectAnnotation:
    category: str
    attributes: list
    box: Box


@dataclass
class SceneObject:
    shape: str
    color: str
    box: Box


@dataclass
class RelationalRecord:
    image_id: int
    width: float
    height: float
    relations: list
    objects: list = field(default_factory=list)
    scene: list | None = None

    def __post_init__(self):
        self.width = float(self.width)
        self.height = float(self.height)

    def validate(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.width, self.height)):
            raise ValueError(f"image size {self.width}x{self.height} must be finite and positive")
        for rel in self.relations:
            rel.validate()
            for box in (rel.subject_box, rel.object_box):
                self._check_bounds(box)
        for obj in self.objects:
            self._check_bounds(obj.box)
        return self

    def _check_bounds(self, box: Box):
        x0, y0, x1, y1 = box.corners()
        if x0 < -1e-6 or y0 < -1e-6 or x1 > self.width + 1e-6 or y1 > self.height + 1e-6:
            raise ValueError(f"box {box} outside image bounds {self.width}x{self.height}")


@dataclass
class AttributeRecord:
    name: str
    attributes: list
    box: Box

    def validate(self):
        if not self.name:
            raise ValueError("attribute record needs a non-empty object name")
        return self


@dataclass
class ImageAttributes:
    image_id: int
    entries: list


# ---------------------------------------------------------------------------
# JSON-lines serialization
# ---------------------------------------------------------------------------

def _relation_to_json(rel: GroundTruthRelation) -> dict:
    return {
        "subject_box": rel.subject_box.to_json(),
        "object_box": rel.object_box.to_json(),
        "tokens": list(rel.tokens),
        "pos": [tag.name for tag in rel.pos],
    }


def record_to_json(record: RelationalRecord) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "image_id": record.image_id,
        "width": record.width,
        "height": record.height,
        "relations": [_relation_to_json(r) for r in record.relations],
        "objects": [
            {"category": o.category, "attributes": list(o.attributes), "box": o.box.to_json()}
            for o in record.objects
        ],
    }
    if record.scene is not None:
        out["scene"] = [
            {"shape": s.shape, "color": s.color, "box": s.box.to_json()} for s in record.scene
        ]
    return out


def image_id_from_json(obj: dict) -> int:
    """A record's ``image_id``, which must be a JSON integer (not a bool)."""
    value = obj["image_id"]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"image_id must be an integer, got {value!r}")
    return value


def record_from_json(obj: dict) -> RelationalRecord:
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version {obj.get('schema_version')!r}, expected {SCHEMA_VERSION}")
    image_id = image_id_from_json(obj)
    relations = []
    for rel in obj["relations"]:
        relations.append(GroundTruthRelation(
            subject_box=Box.from_json(rel["subject_box"]),
            object_box=Box.from_json(rel["object_box"]),
            tokens=[str(t) for t in rel["tokens"]],
            pos=[PosTag.parse(p) for p in rel["pos"]],
            image_id=image_id,
        ))
    objects = [
        ObjectAnnotation(str(o["category"]), [str(a) for a in o["attributes"]],
                         Box.from_json(o["box"]))
        for o in obj.get("objects", [])
    ]
    scene = None
    if "scene" in obj:
        scene = [SceneObject(str(s["shape"]), str(s["color"]), Box.from_json(s["box"]))
                 for s in obj["scene"]]
    return RelationalRecord(
        image_id=image_id,
        width=json_number(obj["width"], "width"),
        height=json_number(obj["height"], "height"),
        relations=relations,
        objects=objects,
        scene=scene,
    ).validate()


def read_text(path: str, what: str, error=DataError) -> str:
    """The UTF-8 text of ``path``, newlines translated to "\\n"; a file that
    cannot be opened or decoded raises ``error`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot open {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} file {path} is not UTF-8 text: {exc}") from exc


def load_jsonl(path: str, parse, what: str):
    """Parse every non-blank line of a JSON-lines file with ``parse``.

    Unreadable files and bad lines raise DataError naming the file (and line).
    """
    items = []
    for lineno, line in enumerate(read_text(path, what).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            items.append(parse(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return items


def save_jsonl(path: str, objects) -> int:
    """Atomically write one compact, key-sorted JSON object per line, each as
    ``objects`` yields it; returns the number of lines."""
    count = itertools.count()       # zip draws from it once per object, after the object
    write_atomic(path, ((json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
                        .encode("utf-8") for obj, _ in zip(objects, count)))
    return next(count)


def load_dataset(path: str):
    """Read and validate a relational dataset; errors carry line numbers.
    Every record needs its own ``image_id``."""
    seen = set()

    def parse(obj):
        record = record_from_json(obj)
        if record.image_id in seen:
            raise ValueError(f"image_id {record.image_id} repeats an earlier record")
        seen.add(record.image_id)
        return record

    return load_jsonl(path, parse, "dataset")


def save_dataset(path: str, records) -> None:
    save_jsonl(path, (record_to_json(r) for r in records))


def attributes_from_json(obj: dict) -> ImageAttributes:
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version {obj.get('schema_version')!r}, expected {SCHEMA_VERSION}")
    entries = [
        AttributeRecord(str(e["name"]), [str(a) for a in e["attributes"]],
                        Box.from_json(e["box"])).validate()
        for e in obj["objects"]
    ]
    return ImageAttributes(image_id_from_json(obj), entries)


def load_attributes(path: str):
    return load_jsonl(path, attributes_from_json, "attributes")


# ---------------------------------------------------------------------------
# vocabulary and caption encoding
# ---------------------------------------------------------------------------

@dataclass
class Vocabulary:
    """Word <-> id bijection with fixed reserved ids 0-3."""

    words: list                  # non-reserved words, id = 4 + position
    min_count: int = 1
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {w: i + len(RESERVED_TOKENS) for i, w in enumerate(self.words)}
        if len(self._index) != len(self.words):
            raise ValueError("vocabulary words must be unique")

    def __len__(self):
        return len(RESERVED_TOKENS) + len(self.words)

    def encode_token(self, word: str) -> int:
        return self._index.get(word, UNK_ID)

    def decode_id(self, idx: int) -> str:
        if idx < len(RESERVED_TOKENS):
            return RESERVED_TOKENS[idx]
        return self.words[idx - len(RESERVED_TOKENS)]

    def __contains__(self, word):
        return word in self._index

    def to_json(self) -> dict:
        return {"words": list(self.words), "min_count": self.min_count}

    @staticmethod
    def from_json(obj) -> "Vocabulary":
        return Vocabulary(list(obj["words"]), int(obj.get("min_count", Vocabulary.min_count)))


def build_vocab(records, min_count: int = Vocabulary.min_count) -> Vocabulary:
    """Frequency-then-lexicographic vocabulary over all relation captions."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    freq = {}
    for record in records:
        for rel in record.relations:
            for token in rel.tokens:
                freq[token] = freq.get(token, 0) + 1
    kept = sorted((w for w, c in freq.items() if c >= min_count),
                  key=lambda w: (-freq[w], w))
    return Vocabulary(words=kept, min_count=min_count)


def tag_segments(subject_tokens, predicate_tokens, object_tokens):
    """Expand caption segments into aligned (tokens, tags); function words
    inherit their segment's tag."""
    segs = (list(subject_tokens), list(predicate_tokens), list(object_tokens))
    if not all(segs):
        raise ValueError("every caption segment must be non-empty")
    tokens = segs[0] + segs[1] + segs[2]
    tags = ([PosTag.SUBJ] * len(segs[0]) + [PosTag.PRED] * len(segs[1])
            + [PosTag.OBJ] * len(segs[2]))
    return tokens, tags


def encode_caption(tokens, tags, vocab: Vocabulary, max_len: int):
    """Map a tagged caption to ids with the end token appended (tagged OBJ).

    Output length is at most ``max_len`` including the end token; truncation
    keeps each surviving token's segment label.
    """
    if not tokens:
        raise ValueError("cannot encode an empty caption")
    if len(tokens) != len(tags):
        raise ValueError(f"{len(tokens)} tokens vs {len(tags)} tags")
    if max_len < 2:
        raise ValueError("max_len must leave room for one token plus the end token")
    content = min(len(tokens), max_len - 1)
    ids = [vocab.encode_token(t) for t in tokens[:content]] + [END_ID]
    out_tags = list(tags[:content]) + [PosTag.OBJ]
    return ids, out_tags


# ---------------------------------------------------------------------------
# toy world
# ---------------------------------------------------------------------------

TOY_SIZE = 128.0             # toy image width and height, px
TOY_SHAPES = ("square", "circle", "triangle", "star")
TOY_COLORS = ("red", "blue", "green", "yellow", "purple")
TOY_MARGIN = 4.0             # px slack for the left-of / above predicates
SPLITS = (0.8, 0.1, 0.1)     # train / val / test fractions


@dataclass(frozen=True)
class ToyWorldConfig:
    n_images: int = 120
    min_objects: int = 2
    max_objects: int = 4
    inside_prob: float = 0.25    # chance a scene nests one object inside another
    splits = SPLITS              # not a field: every toy world splits alike

    def validate(self):
        if self.n_images <= 0:
            raise ConfigError("toy world needs at least one image")
        if not (2 <= self.min_objects <= self.max_objects <= 6):
            raise ConfigError("objects per image must lie in 2..6")
        return self


def box_inside(inner: Box, outer: Box) -> bool:
    ix0, iy0, ix1, iy1 = inner.corners()
    ox0, oy0, ox1, oy1 = outer.corners()
    return ix0 >= ox0 and iy0 >= oy0 and ix1 <= ox1 and iy1 <= oy1


def spatial_predicate(subject: Box, obj: Box, margin: float):
    """Deterministic predicate phrase for an ordered box pair.

    Priority: containment, then left-of (center x separation beyond the
    margin), then above, with "near" as the total fallback.
    """
    if box_inside(subject, obj):
        return ("is", "inside")
    if subject.x < obj.x - margin:
        return ("is", "left", "of")
    if subject.y < obj.y - margin:
        return ("is", "above")
    return ("is", "near")


class ToyFeatureProvider:
    """Deterministic (scene, box) -> appearance descriptor map.

    The descriptor concatenates shape and color one-hots weighted by how
    much of each scene object lies inside the query box, and five
    normalized geometry statistics of the query box itself.
    """

    kind = "toy-occupancy"

    def __init__(self, shapes, colors):
        self.shapes = tuple(shapes)
        self.colors = tuple(colors)
        self.feature_width = len(self.shapes) + len(self.colors) + 5

    def features(self, record: RelationalRecord, box: Box) -> np.ndarray:
        """(1, feature_width) descriptor of one ``box``."""
        return self.features_many(record, box_rows([box]))

    def features_many(self, record: RelationalRecord, boxes) -> np.ndarray:
        """Descriptors of each row of the (N, 4) centre-form ``boxes``
        (x, y, w, h), stacked: row n equals the per-box computation on
        ``Box(*boxes[n])`` bit for bit, and the call raises what those N
        computations would raise first."""
        x, y, w, h = np.reshape(boxes, (-1, 4)).T
        n_shapes, n_colors = len(self.shapes), len(self.colors)
        out = np.zeros((len(x), self.feature_width))
        if not len(x):
            return out
        if record.scene is None:
            raise DataError(f"image {record.image_id}: the toy feature provider needs "
                            "a scene description")
        x0, y0, x1, y1 = x - w / 2, y - h / 2, x + w / 2, y + h / 2
        covered = np.zeros(len(x))
        # Unknown objects that overlap a box, as (first such box, scene
        # position, object); per-box calls would raise for the least.
        unknown = []
        for k, obj in enumerate(record.scene):
            ox0, oy0, ox1, oy1 = obj.box.corners()
            iw = np.minimum(ox1, x1) - np.maximum(ox0, x0)
            ih = np.minimum(oy1, y1) - np.maximum(oy0, y0)
            inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
            hit = inter > 0.0
            if not hit.any():
                continue
            if obj.shape not in self.shapes or obj.color not in self.colors:
                unknown.append((int(hit.argmax()), k, obj))
                continue
            # A row that misses the object adds 0.0 to a non-negative sum: no change.
            frac = inter / obj.box.area
            out[:, self.shapes.index(obj.shape)] += frac
            out[:, n_shapes + self.colors.index(obj.color)] += frac
            covered += inter
        if unknown:
            obj = min(unknown)[2]
            raise DataError(f"image {record.image_id}: scene object {obj.color} {obj.shape} "
                            "is outside the provider's shapes and colors")
        stats = out[:, n_shapes + n_colors:]
        stats[:, 0] = x / record.width
        stats[:, 1] = y / record.height
        stats[:, 2] = w / record.width
        stats[:, 3] = h / record.height
        stats[:, 4] = np.minimum(covered / (w * h), 1.0)
        return out

    def to_json(self) -> dict:
        return {"type": self.kind, "shapes": list(self.shapes),
                "colors": list(self.colors), "feature_width": self.feature_width}

    @staticmethod
    def from_json(obj) -> "ToyFeatureProvider":
        if not isinstance(obj, dict):
            raise DataError("feature provider spec must be a JSON object")
        if obj.get("type") != ToyFeatureProvider.kind:
            raise DataError(f"unknown feature provider type {obj.get('type')!r}")
        for key in ("shapes", "colors"):
            if not isinstance(obj.get(key), list):
                raise DataError(f"feature provider {key!r} must be a list")
        provider = ToyFeatureProvider(obj["shapes"], obj["colors"])
        if provider.feature_width != obj["feature_width"]:
            raise DataError("feature provider width mismatch")
        return provider


def _place_objects(rng: np.random.Generator, count: int):
    rows = []
    for _ in range(count):
        for _attempt in range(200):
            w = rng.uniform(18.0, 42.0)
            h = rng.uniform(18.0, 42.0)
            x = rng.uniform(w / 2 + 1, TOY_SIZE - w / 2 - 1)
            y = rng.uniform(h / 2 + 1, TOY_SIZE - h / 2 - 1)
            if not rows or (iou_matrix((x, y, w, h), rows) < 0.2).all():
                rows.append((x, y, w, h))
                break
        else:
            raise ConfigError("could not place non-overlapping toy objects")
    return [Box(*row) for row in rows]


def generate_toy_world(seed: int, config: ToyWorldConfig | None = None):
    """Build the deterministic toy dataset and its feature provider."""
    config = (config or ToyWorldConfig()).validate()
    combos = [(s, c) for s in TOY_SHAPES for c in TOY_COLORS]
    records = []
    children = np.random.SeedSequence(seed).spawn(config.n_images)
    for image_id in range(config.n_images):
        rng = np.random.default_rng(children[image_id])
        count = int(rng.integers(config.min_objects, config.max_objects + 1))
        count = min(count, len(combos))
        picks = rng.permutation(len(combos))[:count]
        boxes = _place_objects(rng, count)
        if count >= 2 and rng.random() < config.inside_prob:
            # nest the last object inside the first; the small area ratio
            # keeps their IoU below the placement threshold
            outer = boxes[0]
            w = outer.w * rng.uniform(0.28, 0.38)
            h = outer.h * rng.uniform(0.28, 0.38)
            x = outer.x + rng.uniform(-0.5, 0.5) * (outer.w - w) * 0.9
            y = outer.y + rng.uniform(-0.5, 0.5) * (outer.h - h) * 0.9
            boxes[-1] = Box(x, y, w, h)
        scene = [SceneObject(combos[p][0], combos[p][1], b) for p, b in zip(picks, boxes)]
        relations = []
        for i, subj in enumerate(scene):
            for j, obj in enumerate(scene):
                if i == j:
                    continue
                pred = spatial_predicate(subj.box, obj.box, TOY_MARGIN)
                tokens, tags = tag_segments(
                    ("the", subj.color, subj.shape), pred, ("the", obj.color, obj.shape))
                relations.append(GroundTruthRelation(
                    subject_box=subj.box, object_box=obj.box,
                    tokens=tokens, pos=tags, image_id=image_id))
        records.append(RelationalRecord(
            image_id=image_id,
            width=TOY_SIZE,
            height=TOY_SIZE,
            relations=relations,
            objects=[ObjectAnnotation(s.shape, [s.color], s.box) for s in scene],
            scene=scene,
        ).validate())
    return records, ToyFeatureProvider(TOY_SHAPES, TOY_COLORS)


def split_records(records, splits=SPLITS):
    """Deterministic train/val/test split by record order."""
    n = len(records)
    n_train = int(round(splits[0] * n))
    n_val = int(round(splits[1] * n))
    return records[:n_train], records[n_train:n_train + n_val], records[n_train + n_val:]


def proposals_for_record(record: RelationalRecord, gt_rows, provider, seed: int,
                         jitter: float, n_background: int):
    """Deterministic region proposals for one image, as ``Proposals``.

    One jittered proposal per row of the (G, 4) centre-form ``gt_rows`` (IoU
    with the row is kept at or above 0.75 by rejection) plus low-confidence
    background boxes that overlap no row above 0.25 IoU. Every kept box is
    featurised in one ``features_many`` call.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, record.image_id]))
    gt_rows, kept, confidences = np.reshape(gt_rows, (-1, 4)), [], []
    for source in gt_rows.tolist():
        x, y, w, h = box = source
        for _attempt in range(30):
            cand = (x + rng.uniform(-jitter, jitter) * w, y + rng.uniform(-jitter, jitter) * h,
                    w * rng.uniform(1.0 - jitter, 1.0 + jitter),
                    h * rng.uniform(1.0 - jitter, 1.0 + jitter))
            if iou_matrix(cand, source)[0, 0] >= 0.75:
                box = cand
                break
        kept.append(box)
        confidences.append(rng.uniform(0.80, 0.98))
    # rng.uniform(a, b) is a + (b - a) * rng.random(): each background attempt
    # takes w, h, x and y, then a confidence if the box clears every GT box,
    # from rng.random draws made in blocks. Every block position starts a
    # candidate, all tested by one iou_matrix call, and the loop walks them.
    placed, block, at = 0, np.zeros(0), 0
    for _attempt in range(60 * max(n_background, 1)):
        if placed >= n_background:
            break
        if at + 5 > len(block):
            block, at = np.concatenate([block[at:], rng.random(5 * (n_background - placed))]), 0
            # Clamped to the image, so a small image still gives a valid range below.
            w = np.minimum(16.0 + (40.0 - 16.0) * block[:-3], record.width)
            h = np.minimum(16.0 + (40.0 - 16.0) * block[1:-2], record.height)
            cands = np.column_stack([w / 2 + ((record.width - w / 2) - w / 2) * block[2:-1],
                                     h / 2 + ((record.height - h / 2) - h / 2) * block[3:], w, h])
            clear = (iou_matrix(cands, gt_rows) < 0.25).all(axis=1)
        at += 4
        if clear[at - 4]:
            kept.append(cands[at - 4])
            confidences.append(0.05 + (0.35 - 0.05) * block[at])
            placed, at = placed + 1, at + 1
    rows = np.reshape(kept, (-1, 4))
    return Proposals(rows, confidences, provider.features_many(record, rows))


# ---------------------------------------------------------------------------
# attribute enrichment
# ---------------------------------------------------------------------------

ATTRIBUTE_TAGS = frozenset({"NN", "VBN", "VBG", "VBD", "JJ"})


def load_pos_lexicon(path: str) -> dict:
    """Read a "word<TAB>tag" lexicon; '#' lines are comments."""
    lexicon = {}
    for lineno, line in enumerate(read_text(path, "lexicon").split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: expected 'word<TAB>tag'")
        lexicon[parts[0].lower()] = parts[1].upper()
    return lexicon


def _enrich_endpoint(relation, tag, entries, original_tokens, lexicon, rng):
    span = relation.segment(tag)
    category = span[-1].lower()
    box = relation.subject_box if tag == PosTag.SUBJ else relation.object_box

    same = [entry for entry in entries if entry.name.lower() == category]
    overlaps = iou_matrix(box_rows([entry.box for entry in same]), box_rows([box]))[:, 0]
    chosen = None
    if same and overlaps.max() > 0.7:
        best = same[int(np.argmax(overlaps))]
        survivors = []
        for word in best.attributes:
            w = word.lower()
            lex_tag = lexicon.get(w)
            if lex_tag is None:
                log.info("attribute %r missing from lexicon; skipped", word)
                continue
            if lex_tag not in ATTRIBUTE_TAGS:
                continue
            if w in original_tokens:
                continue
            survivors.append(w)
        if len(survivors) == 1:
            chosen = survivors[0]
        elif len(survivors) > 1:
            chosen = survivors[int(rng.integers(len(survivors)))]
    return chosen if chosen is not None else "the"


def enrich_attributes(records, attribute_records, lexicon: dict,
                      rng: np.random.Generator):
    """Prepend a matched attribute (or "the") to each relation endpoint.

    For each endpoint: candidate annotations must share the endpoint's
    category word and overlap its box above 0.7 IoU; the highest-IoU box
    wins; its attributes are filtered to lexicon tags NN/VBN/VBG/VBD/JJ and
    must not already occur in the caption; one survivor is chosen uniformly
    at random; endpoints with none get "the".
    """
    records = list(records)
    attrs_by_image = {rec.image_id: rec.entries for rec in attribute_records}
    streams = rng.spawn(len(records))
    enriched = []
    for record, stream in zip(records, streams):
        entries = attrs_by_image.get(record.image_id, [])
        new_relations = []
        for relation in record.relations:
            original_tokens = {t.lower() for t in relation.tokens}
            prefixes = {}
            for tag in (PosTag.SUBJ, PosTag.OBJ):
                prefixes[tag] = _enrich_endpoint(
                    relation, tag, entries, original_tokens, lexicon, stream)
            subj = [prefixes[PosTag.SUBJ]] + relation.segment(PosTag.SUBJ)
            pred = relation.segment(PosTag.PRED)
            obj = [prefixes[PosTag.OBJ]] + relation.segment(PosTag.OBJ)
            tokens, tags = tag_segments(subj, pred, obj)
            new_relations.append(GroundTruthRelation(
                subject_box=relation.subject_box,
                object_box=relation.object_box,
                tokens=tokens, pos=tags, image_id=record.image_id))
        enriched.append(RelationalRecord(
            image_id=record.image_id, width=record.width, height=record.height,
            relations=new_relations, objects=list(record.objects),
            scene=record.scene))
    return enriched
