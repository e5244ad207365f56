"""Dataset schema, vocabulary, POS-segment labeling, the deterministic toy
world, and the attribute-enrichment tool.

Datasets are JSON-lines files, one image per line, with an explicit
``schema_version`` on every line. POS tags here are the 3-way
subject / predicate / object segment labels of a relational caption.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .checkpoint import write_atomic
from .errors import ConfigError, DataError
from .geometry import Box, RegionProposal, intersection_area, iou

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


def record_from_json(obj: dict) -> RelationalRecord:
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"schema_version {obj.get('schema_version')!r}, expected {SCHEMA_VERSION}")
    image_id = int(obj["image_id"])
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
        width=float(obj["width"]),
        height=float(obj["height"]),
        relations=relations,
        objects=objects,
        scene=scene,
    ).validate()


def load_jsonl(path: str, parse, what: str):
    """Parse every non-blank line of a JSON-lines file with ``parse``.

    Unreadable files and bad lines raise DataError naming the file (and line).
    """
    items = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {what} file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                items.append(parse(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return items


def save_jsonl(path: str, objects) -> None:
    """Atomically write one compact, key-sorted JSON object per line."""
    lines = [json.dumps(obj, sort_keys=True, separators=(",", ":")) for obj in objects]
    write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


def load_dataset(path: str):
    """Read and validate a relational dataset; errors carry line numbers."""
    return load_jsonl(path, record_from_json, "dataset")


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
    return ImageAttributes(int(obj["image_id"]), entries)


def attributes_to_json(rec: ImageAttributes) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "image_id": rec.image_id,
        "objects": [
            {"name": e.name, "attributes": list(e.attributes), "box": e.box.to_json()}
            for e in rec.entries
        ],
    }


def load_attributes(path: str):
    return load_jsonl(path, attributes_from_json, "attributes")


def save_attributes(path: str, records) -> None:
    save_jsonl(path, (attributes_to_json(r) for r in records))


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
        return Vocabulary(words=list(obj["words"]), min_count=int(obj.get("min_count", 1)))


def build_vocab(records, min_count: int = 1) -> Vocabulary:
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

@dataclass(frozen=True)
class ToyWorldConfig:
    n_images: int = 120
    min_objects: int = 2
    max_objects: int = 4
    image_width: float = 128.0
    image_height: float = 128.0
    shapes: tuple = ("square", "circle", "triangle", "star")
    colors: tuple = ("red", "blue", "green", "yellow", "purple")
    margin: float = 4.0          # px slack for the left-of / above predicates
    inside_prob: float = 0.25    # chance a scene nests one object inside another
    n_background: int = 2        # background proposals per image
    jitter: float = 0.08         # proposal jitter as a fraction of box size
    splits: tuple = (0.8, 0.1, 0.1)

    def validate(self):
        if self.n_images <= 0:
            raise ConfigError("toy world needs at least one image")
        if not (2 <= self.min_objects <= self.max_objects <= 6):
            raise ConfigError("objects per image must lie in 2..6")
        if not self.shapes or not self.colors:
            raise ConfigError("shape and color inventories must be non-empty")
        if abs(sum(self.splits) - 1.0) > 1e-9 or len(self.splits) != 3:
            raise ConfigError("splits must be three fractions summing to 1")
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
        if record.scene is None:
            raise ValueError("toy feature provider needs records with scene descriptions")
        shape_vec = np.zeros(len(self.shapes))
        color_vec = np.zeros(len(self.colors))
        covered = 0.0
        for obj in record.scene:
            inter = intersection_area(obj.box, box)
            if inter <= 0.0:
                continue
            frac = inter / obj.box.area
            shape_vec[self.shapes.index(obj.shape)] += frac
            color_vec[self.colors.index(obj.color)] += frac
            covered += inter
        stats = np.array([
            box.x / record.width,
            box.y / record.height,
            box.w / record.width,
            box.h / record.height,
            min(covered / box.area, 1.0),
        ])
        return np.concatenate([shape_vec, color_vec, stats]).reshape(1, -1)

    def to_json(self) -> dict:
        return {"type": self.kind, "shapes": list(self.shapes),
                "colors": list(self.colors), "feature_width": self.feature_width}

    @staticmethod
    def from_json(obj) -> "ToyFeatureProvider":
        if obj.get("type") != ToyFeatureProvider.kind:
            raise DataError(f"unknown feature provider type {obj.get('type')!r}")
        provider = ToyFeatureProvider(obj["shapes"], obj["colors"])
        if provider.feature_width != obj["feature_width"]:
            raise DataError("feature provider width mismatch")
        return provider


def _place_objects(rng: np.random.Generator, config: ToyWorldConfig, count: int):
    boxes = []
    for _ in range(count):
        for _attempt in range(200):
            w = rng.uniform(18.0, 42.0)
            h = rng.uniform(18.0, 42.0)
            x = rng.uniform(w / 2 + 1, config.image_width - w / 2 - 1)
            y = rng.uniform(h / 2 + 1, config.image_height - h / 2 - 1)
            box = Box(x, y, w, h)
            if all(iou(box, other) < 0.2 for other in boxes):
                boxes.append(box)
                break
        else:
            raise ConfigError("could not place non-overlapping toy objects")
    return boxes


def generate_toy_world(seed: int, config: ToyWorldConfig | None = None):
    """Build the deterministic toy dataset and its feature provider."""
    config = (config or ToyWorldConfig()).validate()
    combos = [(s, c) for s in config.shapes for c in config.colors]
    records = []
    children = np.random.SeedSequence(seed).spawn(config.n_images)
    for image_id in range(config.n_images):
        rng = np.random.default_rng(children[image_id])
        count = int(rng.integers(config.min_objects, config.max_objects + 1))
        count = min(count, len(combos))
        picks = rng.permutation(len(combos))[:count]
        boxes = _place_objects(rng, config, count)
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
                pred = spatial_predicate(subj.box, obj.box, config.margin)
                tokens, tags = tag_segments(
                    ("the", subj.color, subj.shape), pred, ("the", obj.color, obj.shape))
                relations.append(GroundTruthRelation(
                    subject_box=subj.box, object_box=obj.box,
                    tokens=tokens, pos=tags, image_id=image_id))
        records.append(RelationalRecord(
            image_id=image_id,
            width=config.image_width,
            height=config.image_height,
            relations=relations,
            objects=[ObjectAnnotation(s.shape, [s.color], s.box) for s in scene],
            scene=scene,
        ).validate())
    return records, ToyFeatureProvider(config.shapes, config.colors)


def split_records(records, splits=(0.8, 0.1, 0.1)):
    """Deterministic train/val/test split by record order."""
    n = len(records)
    n_train = int(round(splits[0] * n))
    n_val = int(round(splits[1] * n))
    return records[:n_train], records[n_train:n_train + n_val], records[n_train + n_val:]


def proposals_for_record(record: RelationalRecord, provider, seed: int,
                         jitter: float = 0.08, n_background: int = 2):
    """Deterministic region proposals for one image.

    One jittered proposal per annotated object (IoU with the source box is
    kept at or above 0.75 by rejection) plus low-confidence background
    boxes that overlap no object above 0.25 IoU.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, record.image_id]))
    proposals = []
    for obj in record.objects:
        box = obj.box
        for _attempt in range(30):
            cand = Box(
                obj.box.x + rng.uniform(-jitter, jitter) * obj.box.w,
                obj.box.y + rng.uniform(-jitter, jitter) * obj.box.h,
                obj.box.w * rng.uniform(1.0 - jitter, 1.0 + jitter),
                obj.box.h * rng.uniform(1.0 - jitter, 1.0 + jitter),
            )
            if iou(cand, obj.box) >= 0.75:
                box = cand
                break
        confidence = rng.uniform(0.80, 0.98)
        proposals.append(RegionProposal(box, confidence, provider.features(record, box),
                                        id=len(proposals)))
    gt_boxes = [obj.box for obj in record.objects]
    placed = 0
    for _attempt in range(60 * max(n_background, 1)):
        if placed >= n_background:
            break
        w = rng.uniform(16.0, 40.0)
        h = rng.uniform(16.0, 40.0)
        x = rng.uniform(w / 2, record.width - w / 2)
        y = rng.uniform(h / 2, record.height - h / 2)
        cand = Box(x, y, w, h)
        if all(iou(cand, g) < 0.25 for g in gt_boxes):
            confidence = rng.uniform(0.05, 0.35)
            proposals.append(RegionProposal(cand, confidence,
                                            provider.features(record, cand),
                                            id=len(proposals)))
            placed += 1
    return proposals


# ---------------------------------------------------------------------------
# attribute enrichment
# ---------------------------------------------------------------------------

ATTRIBUTE_TAGS = frozenset({"NN", "VBN", "VBG", "VBD", "JJ"})


def load_pos_lexicon(path: str) -> dict:
    """Read a "word<TAB>tag" lexicon; '#' lines are comments."""
    lexicon = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open lexicon {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
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

    candidates = []
    for idx, entry in enumerate(entries):
        if entry.name.lower() != category:
            continue
        overlap = iou(entry.box, box)
        if overlap > 0.7:
            candidates.append((overlap, -idx, entry))
    chosen = None
    if candidates:
        best = max(candidates)[2]
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
