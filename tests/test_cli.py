"""End-to-end command-line checks on tiny configurations."""

import json
import os

import jsonschema
import pytest

from relcap import schemas
from relcap.checkpoint import load_checkpoint, save_checkpoint
from relcap.cli import main, read_predictions, write_predictions
from relcap.data import save_attributes, ImageAttributes, AttributeRecord
from relcap.geometry import Box
from relcap.metrics import PredictionRecord
from relcap.model import load_model


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("toy"))
    code = run(["gen-toy", "--out", out, "--seed", "7", "--images", "10",
                "--max-objects", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, toy_dir):
    out = str(tmp_path_factory.mktemp("run"))
    code = run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                "--provider", os.path.join(toy_dir, "provider.json"),
                "--out", out, "--model", "mttsnet", "--epochs", "3",
                "--hidden", "8", "--d-subj-obj", "10", "--d-union", "8",
                "--rem-dim", "6", "--seed", "1", "--lr", "0.005",
                "--dropout", "0.0"])
    assert code == 0
    return out


class TestGenToy:
    def test_outputs_and_manifest(self, toy_dir):
        manifest = json.load(open(os.path.join(toy_dir, "manifest.json")))
        assert manifest["splits"]["train"]["images"] == 8
        assert manifest["splits"]["val"]["images"] == 1
        assert manifest["splits"]["test"]["images"] == 1
        assert "config_sha256" in manifest["provenance"]
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "provider.json"):
            assert os.path.exists(os.path.join(toy_dir, name))

    def test_default_split_rule(self, tmp_path):
        out = str(tmp_path / "toy120")
        assert run(["gen-toy", "--out", out, "--seed", "7", "--images", "120"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        sizes = [manifest["splits"][k]["images"] for k in ("train", "val", "test")]
        assert sizes == [96, 12, 12]

    def test_rerun_identical_hashes(self, toy_dir, tmp_path):
        out2 = str(tmp_path / "again")
        assert run(["gen-toy", "--out", out2, "--seed", "7", "--images", "10",
                    "--max-objects", "3"]) == 0
        m1 = json.load(open(os.path.join(toy_dir, "manifest.json")))
        m2 = json.load(open(os.path.join(out2, "manifest.json")))
        assert m1["splits"] == m2["splits"]

    def test_zero_images_is_config_error(self, tmp_path):
        assert run(["gen-toy", "--out", str(tmp_path / "x"), "--images", "0"]) == 2


class TestTrain:
    def test_checkpoint_and_log_written(self, trained_dir):
        assert os.path.exists(os.path.join(trained_dir, "model.rckpt"))
        log = open(os.path.join(trained_dir, "train_log.csv")).read().strip().split("\n")
        assert log[0] == "epoch,l_cap,l_pos,l_det,l_box,total"
        assert len(log) == 4

    def test_variant_parameter_inventories(self, toy_dir, tmp_path):
        inventories = {}
        for model in ("union", "mttsnet"):
            out = str(tmp_path / model)
            assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                        "--provider", os.path.join(toy_dir, "provider.json"),
                        "--out", out, "--model", model, "--epochs", "1",
                        "--hidden", "8", "--d-subj-obj", "10", "--d-union", "8",
                        "--seed", "0"]) == 0
            params, config, _, _, _ = load_model(os.path.join(out, "model.rckpt"))
            inventories[model] = set(params.names())
            assert config.name == model
        assert "lstm.main.w" in inventories["union"]
        assert "lstm.subject.w" in inventories["mttsnet"]
        assert "head.pos.w" in inventories["mttsnet"]
        assert "head.pos.w" not in inventories["union"]

    def test_missing_dataset_is_config_error(self, toy_dir, tmp_path):
        assert run(["train", "--data", "/nonexistent.jsonl",
                    "--provider", os.path.join(toy_dir, "provider.json"),
                    "--out", str(tmp_path / "x")]) == 2


class TestEvalAndInfer:
    def test_eval_report_validates_against_schema(self, toy_dir, trained_dir, tmp_path):
        report_path = str(tmp_path / "report.json")
        code = run(["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", os.path.join(toy_dir, "test.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"),
                    "--out", report_path])
        assert code == 0
        payload = json.load(open(report_path))
        jsonschema.validate(payload["report"], schemas.EVAL_REPORT_SCHEMA)

    def test_infer_emits_schema_valid_predictions(self, toy_dir, trained_dir, tmp_path):
        preds_path = str(tmp_path / "preds.jsonl")
        code = run(["infer", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", os.path.join(toy_dir, "test.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"),
                    "--out", preds_path])
        assert code == 0
        lines = [l for l in open(preds_path).read().split("\n") if l]
        assert lines
        for line in lines:
            jsonschema.validate(json.loads(line), schemas.PREDICTION_SCHEMA)

    def test_graph_command_on_prediction_file(self, tmp_path):
        pred = PredictionRecord(
            image_id=0, subject_box=Box(5, 5, 4, 4), object_box=Box(15, 5, 4, 4),
            tokens=["the", "cat", "near", "a", "dog"],
            pos=["SUBJ", "SUBJ", "PRED", "OBJ", "OBJ"],
            word_probs=[0.9] * 5, confidence=float(0.9 ** 5))
        preds_path = str(tmp_path / "one.jsonl")
        write_predictions(preds_path, [pred])
        out_prefix = str(tmp_path / "graph")
        assert run(["graph", "--predictions", preds_path, "--out", out_prefix]) == 0
        dot = open(out_prefix + ".dot").read()
        assert dot.startswith("digraph")
        assert dot.count("->") == 1
        graph = json.load(open(out_prefix + ".json"))
        assert len(graph["nodes"]) == 2 and len(graph["edges"]) == 1

    def test_eval_deterministic_rerun(self, toy_dir, trained_dir, tmp_path):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        for out in (out1, out2):
            assert run(["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                        "--data", os.path.join(toy_dir, "test.jsonl"),
                        "--provider", os.path.join(toy_dir, "provider.json"),
                        "--out", out]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()


class TestRetrieveCommand:
    def test_retrieve_emits_requested_ks(self, toy_dir, trained_dir, tmp_path, capsys):
        out = str(tmp_path / "ret.json")
        code = run(["retrieve", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"),
                    "--k", "1,2,3", "--images", "8", "--query-images", "2",
                    "--captions-per-image", "1", "--rounds", "1", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("R@") == 3
        payload = json.load(open(out))
        assert set(payload["retrieval"]["r_at_k"]) == {"1", "2", "3"} or \
            set(payload["retrieval"]["r_at_k"]) == {1, 2, 3}


class TestEnrichCommand:
    def test_enrich_with_empty_attributes_prefixes_the(self, toy_dir, tmp_path):
        attrs_path = str(tmp_path / "attrs.jsonl")
        save_attributes(attrs_path, [])
        lex_path = str(tmp_path / "lex.tsv")
        with open(lex_path, "w") as fh:
            fh.write("tall\tJJ\n")
        out = str(tmp_path / "enriched.jsonl")
        assert run(["enrich", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--attributes", attrs_path, "--lexicon", lex_path,
                    "--seed", "0", "--out", out]) == 0
        from relcap.data import load_dataset, PosTag
        for record in load_dataset(out):
            for rel in record.relations:
                assert rel.segment(PosTag.SUBJ)[0] == "the"

    def test_enrich_deterministic(self, toy_dir, tmp_path):
        attrs = [ImageAttributes(0, [AttributeRecord("square", ["shiny"],
                                                     Box(20, 20, 10, 10))])]
        attrs_path = str(tmp_path / "attrs.jsonl")
        save_attributes(attrs_path, attrs)
        lex_path = str(tmp_path / "lex.tsv")
        with open(lex_path, "w") as fh:
            fh.write("shiny\tJJ\n")
        outs = []
        for name in ("e1.jsonl", "e2.jsonl"):
            out = str(tmp_path / name)
            assert run(["enrich", "--data", os.path.join(toy_dir, "train.jsonl"),
                        "--attributes", attrs_path, "--lexicon", lex_path,
                        "--seed", "3", "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


class TestPredictionWireFormat:
    def test_roundtrip(self, tmp_path):
        pred = PredictionRecord(
            image_id=3, subject_box=Box(5, 5, 4, 4), object_box=Box(15, 5, 4, 4),
            tokens=["the", "red", "square"], pos=["SUBJ", "SUBJ", "SUBJ"],
            word_probs=[0.5, 0.5, 0.5, 0.9], confidence=0.5 * 0.5 * 0.5 * 0.9)
        path = str(tmp_path / "p.jsonl")
        write_predictions(path, [pred])
        again = read_predictions(path)
        assert again == [pred]
        jsonschema.validate(json.loads(open(path).read().strip()),
                            schemas.PREDICTION_SCHEMA)

    def test_bad_confidence_rejected_on_read(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        record = {"image_id": 0,
                  "subject_box": {"x": 5, "y": 5, "w": 4, "h": 4},
                  "object_box": {"x": 15, "y": 5, "w": 4, "h": 4},
                  "caption": "a b", "pos": [], "word_probs": [0.5, 0.5],
                  "confidence": 0.9}
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        from relcap.errors import DataError
        with pytest.raises(DataError, match="bad.jsonl:1"):
            read_predictions(path)

    def test_graph_requires_single_image(self, tmp_path):
        preds = [
            PredictionRecord(i, Box(5, 5, 4, 4), Box(15, 5, 4, 4),
                             ["a", "b", "c"], ["SUBJ", "PRED", "OBJ"],
                             [0.5, 0.5, 0.5], 0.125)
            for i in (0, 1)
        ]
        path = str(tmp_path / "multi.jsonl")
        write_predictions(path, preds)
        assert run(["graph", "--predictions", path,
                    "--out", str(tmp_path / "g")]) == 2


class TestExitCodes:
    def test_malformed_dataset_is_data_error(self, toy_dir, trained_dir, tmp_path):
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w") as fh:
            fh.write('{"schema_version": 1, "image_id": 0}\n')
        assert run(["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", bad,
                    "--provider", os.path.join(toy_dir, "provider.json")]) == 3

    def test_corrupt_checkpoint_is_data_error(self, toy_dir, trained_dir, tmp_path, capsys):
        fake = str(tmp_path / "fake.rckpt")
        with open(fake, "wb") as fh:
            fh.write(b"NOTACKPT" + b"\x00" * 32)
        arrays, meta = load_checkpoint(os.path.join(trained_dir, "model.rckpt"))
        broken_metas = [
            {**meta, "model_config": {**meta["model_config"], "colour": "red"}},
            {k: v for k, v in meta.items() if k != "vocab"},
            {**meta, "vocab": {**meta["vocab"], "words": meta["vocab"]["words"][1:]}},
            {**meta, "model_config": {**meta["model_config"], "streams": "quad"}},
            {**meta, "model_config": {k: v for k, v in meta["model_config"].items()
                                      if k != "hidden"}},
        ]
        paths = [fake]
        for i, broken in enumerate(broken_metas):
            paths.append(str(tmp_path / f"meta{i}.rckpt"))
            save_checkpoint(paths[-1], arrays, broken)
        for path in paths:
            assert run(["eval", "--checkpoint", path,
                        "--data", os.path.join(toy_dir, "test.jsonl"),
                        "--provider", os.path.join(toy_dir, "provider.json")]) == 3, path
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def _dataset_variant(self, toy_dir, tmp_path, name, edit):
        with open(os.path.join(toy_dir, "test.jsonl")) as fh:
            objs = [json.loads(line) for line in fh]
        for obj in objs:
            edit(obj)
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(obj) + "\n" for obj in objs))
        return path

    def test_relations_without_objects_are_data_errors(self, toy_dir, trained_dir,
                                                      tmp_path, capsys):
        bad = self._dataset_variant(toy_dir, tmp_path, "no_objects.jsonl",
                                    lambda obj: obj.update(objects=[]))
        provider = os.path.join(toy_dir, "provider.json")
        assert run(["train", "--data", bad, "--provider", provider,
                    "--out", str(tmp_path / "run"), "--epochs", "1", "--hidden", "8",
                    "--d-subj-obj", "10", "--d-union", "8", "--rem-dim", "6"]) == 3
        assert run(["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", bad, "--provider", provider]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("relations need annotated objects") == 2

    def test_eval_without_relations_is_data_error(self, toy_dir, trained_dir, tmp_path,
                                                  capsys):
        bad = self._dataset_variant(toy_dir, tmp_path, "no_relations.jsonl",
                                    lambda obj: obj.update(relations=[]))
        assert run(["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", bad,
                    "--provider", os.path.join(toy_dir, "provider.json")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "evaluation needs ground-truth relations" in err
