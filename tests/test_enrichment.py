"""Attribute enrichment against hand-derived expected outputs.

The fixture exercises every rule: the strict IoU > 0.7 gate, name matching,
highest-IoU box selection, the NN/VBN/VBG/VBD/JJ tag filter, exclusion of
words already in the caption, seeded uniform choice among survivors, and
the "the" fallback.
"""

import numpy as np
import pytest

from conftest import iou
from relcap.data import (AttributeRecord, GroundTruthRelation, ImageAttributes,
                         PosTag, RelationalRecord, enrich_attributes, tag_segments)
from relcap.geometry import Box

LEXICON = {
    "tall": "JJ", "brown": "JJ", "young": "JJ", "old": "JJ", "white": "JJ",
    "red": "JJ", "green": "JJ", "happy": "JJ", "gray": "JJ",
    "sleeping": "VBG", "running": "VBG", "riding": "VBG",
    "broken": "VBN", "painted": "VBD",
    "chair": "NN", "horse": "NN", "man": "NN",
    "fast": "RB", "quickly": "RB", "the": "DT",
}


def rel(image_id, y, subject=("man",), predicate=("rides",), obj=("horse",)):
    tokens, tags = tag_segments(subject, predicate, obj)
    return GroundTruthRelation(
        subject_box=Box(20, y, 10, 10), object_box=Box(60, y, 10, 10),
        tokens=tokens, pos=tags, image_id=image_id)


def entry(name, x, y, attributes, w=10.0, h=10.0):
    return AttributeRecord(name=name, attributes=list(attributes), box=Box(x, y, w, h))


def build_fixture():
    """Returns (records, attributes, expected) where expected maps
    (image_id, relation_idx, 'SUBJ'|'OBJ') -> exact phrase or set of phrases."""
    records, attributes, expected = [], [], {}

    def add_image(image_id, relations, entries):
        records.append(RelationalRecord(
            image_id=image_id, width=200, height=200, relations=relations).validate())
        attributes.append(ImageAttributes(image_id=image_id, entries=entries))

    # image 0: the IoU gate and the name-match requirement
    add_image(0, [rel(0, 20), rel(0, 50), rel(0, 80), rel(0, 110)], [
        entry("man", 21, 20, ["tall"]),        # IoU 9/11 > 0.7: accepted
        entry("man", 22, 50, ["tall"]),        # IoU 2/3 < 0.7: rejected
        entry("horse", 61, 50, ["brown"]),     # accepted on the object side
        entry("man", 20, 80, ["tall"], h=7.0), # IoU exactly 0.7: rejected (strict >)
        entry("woman", 20, 110, ["tall"]),     # wrong category word
    ])
    expected.update({
        (0, 0, "SUBJ"): "tall man", (0, 0, "OBJ"): "the horse",
        (0, 1, "SUBJ"): "the man", (0, 1, "OBJ"): "brown horse",
        (0, 2, "SUBJ"): "the man", (0, 2, "OBJ"): "the horse",
        (0, 3, "SUBJ"): "the man",
    })

    # image 1: among gated candidates the highest-IoU box wins, the first of
    # equal ones, and tag filtering applies only to the winner's attributes
    add_image(1, [rel(1, 20), rel(1, 50), rel(1, 80), rel(1, 110)], [
        entry("man", 21.5, 20, ["old"]),       # IoU ~0.739
        entry("man", 21, 20, ["young"]),       # IoU ~0.818: wins
        entry("man", 20, 50, ["fast"]),        # IoU 1.0 wins, but RB is filtered
        entry("man", 21, 50, ["tall"]),        # loses despite a usable attribute
        entry("horse", 61.5, 80, ["white"]),
        entry("horse", 60, 80, ["sleeping"]),  # IoU 1.0 wins
        entry("man", 21, 110, ["tall"]),       # IoU 9/11: the lower index wins
        entry("man", 19, 110, ["old"]),        # IoU 9/11, bit for bit
    ])
    expected.update({
        (1, 0, "SUBJ"): "young man",
        (1, 1, "SUBJ"): "the man",
        (1, 2, "OBJ"): "sleeping horse",
        (1, 3, "SUBJ"): "tall man",
    })

    # image 2: the NN/VBN/VBG/VBD/JJ tag filter, incl. a word missing from
    # the lexicon (treated as filtered out)
    rows = [20, 45, 70, 95, 120, 145]
    attrs = [["quickly"], ["broken"], ["painted"], ["running"], ["chair"],
             ["mysteriousness"]]
    add_image(2, [rel(2, y) for y in rows],
              [entry("man", 21, y, a) for y, a in zip(rows, attrs)])
    expected.update({
        (2, 0, "SUBJ"): "the man",
        (2, 1, "SUBJ"): "broken man",
        (2, 2, "SUBJ"): "painted man",
        (2, 3, "SUBJ"): "running man",
        (2, 4, "SUBJ"): "chair man",
        (2, 5, "SUBJ"): "the man",
    })

    # image 3: words already in the caption are excluded
    add_image(3, [rel(3, 20, predicate=("riding",)),
                  rel(3, 50, predicate=("riding",)),
                  rel(3, 80, predicate=("riding",))], [
        entry("man", 21, 20, ["riding"]),
        entry("man", 21, 50, ["horse"]),
        entry("man", 21, 80, ["riding", "tall"]),
    ])
    expected.update({
        (3, 0, "SUBJ"): "the man",
        (3, 1, "SUBJ"): "the man",
        (3, 2, "SUBJ"): "tall man",
    })

    # image 4: more than one survivor: seeded uniform choice
    add_image(4, [rel(4, 20), rel(4, 50)], [
        entry("man", 21, 20, ["red", "green"]),
        entry("man", 21, 50, ["old", "happy"]),
    ])
    expected.update({
        (4, 0, "SUBJ"): {"red man", "green man"},
        (4, 1, "SUBJ"): {"old man", "happy man"},
    })

    # image 5: multi-token endpoints; the category word is the head (last)
    # token and the attribute joins the whole segment
    add_image(5, [rel(5, 20, subject=("young", "man"), predicate=("riding",),
                      obj=("a", "horse"))], [
        entry("man", 21, 20, ["tall"]),
        entry("horse", 61, 20, ["gray"]),
    ])
    expected.update({
        (5, 0, "SUBJ"): "tall young man",
        (5, 0, "OBJ"): "gray a horse",
    })
    return records, attributes, expected


def phrase(relation, tag):
    return " ".join(relation.segment(tag))


def run_fixture(seed=0):
    records, attributes, expected = build_fixture()
    out = enrich_attributes(records, attributes, LEXICON,
                            np.random.default_rng(np.random.SeedSequence([seed])))
    return out, expected


class TestEnrichmentFixture:
    def test_fixture_boxes_hit_intended_iou_regimes(self):
        assert iou(Box(21, 20, 10, 10), Box(20, 20, 10, 10)) == pytest.approx(9 / 11)
        assert iou(Box(22, 50, 10, 10), Box(20, 50, 10, 10)) == pytest.approx(2 / 3)
        assert iou(Box(20, 80, 10, 7), Box(20, 80, 10, 10)) == 0.7
        assert iou(Box(21, 110, 10, 10), Box(20, 110, 10, 10)) == \
            iou(Box(19, 110, 10, 10), Box(20, 110, 10, 10))

    def test_twenty_case_fixture(self):
        out, expected = run_fixture()
        assert len(expected) >= 20
        by_image = {r.image_id: r for r in out}
        for (image_id, rel_idx, tag_name), want in expected.items():
            got = phrase(by_image[image_id].relations[rel_idx], PosTag[tag_name])
            if isinstance(want, set):
                assert got in want, (image_id, rel_idx, tag_name, got)
            else:
                assert got == want, (image_id, rel_idx, tag_name, got)

    def test_deterministic_under_fixed_seed(self):
        first, _ = run_fixture(seed=3)
        second, _ = run_fixture(seed=3)
        for a, b in zip(first, second):
            for ra, rb in zip(a.relations, b.relations):
                assert ra.tokens == rb.tokens

    def test_random_choice_actually_varies_with_seed(self):
        seen = set()
        for seed in range(10):
            out, _ = run_fixture(seed=seed)
            image4 = next(r for r in out if r.image_id == 4)
            seen.add(phrase(image4.relations[0], PosTag.SUBJ))
        assert seen == {"red man", "green man"}


class TestEnrichmentInvariants:
    def test_empty_attribute_dataset_gives_the_prefix_everywhere(self):
        records, _, _ = build_fixture()
        out = enrich_attributes(records, [], LEXICON, np.random.default_rng(0))
        for record in out:
            for relation in record.relations:
                assert relation.segment(PosTag.SUBJ)[0] == "the"
                assert relation.segment(PosTag.OBJ)[0] == "the"

    def test_geometry_and_predicates_unchanged(self):
        records, attributes, _ = build_fixture()
        out = enrich_attributes(records, attributes, LEXICON, np.random.default_rng(0))
        for before, after in zip(records, out):
            for rb, ra in zip(before.relations, after.relations):
                assert rb.subject_box == ra.subject_box
                assert rb.object_box == ra.object_box
                assert rb.segment(PosTag.PRED) == ra.segment(PosTag.PRED)
                assert len(ra.tokens) >= len(rb.tokens)

    def test_output_records_still_validate(self):
        records, attributes, _ = build_fixture()
        out = enrich_attributes(records, attributes, LEXICON, np.random.default_rng(0))
        for record in out:
            record.validate()
