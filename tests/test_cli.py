"""End-to-end command-line checks on tiny configurations."""

import argparse
import csv
import gc
import json
import os
import struct
import subprocess
import sys
import weakref

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_attributes, table_of
import relcap
from relcap import cli, schemas
from relcap.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from relcap.cli import (MAX_BACKGROUND, SETTINGS, build_parser, main, prediction_to_json,
                        read_predictions, resolve_settings, run_provenance, write_predictions)
from relcap.data import ImageAttributes, AttributeRecord
from relcap.errors import DataError
from relcap.geometry import Box
from relcap.metrics import PredictionRecord
from relcap.model import LOSS_COMPONENTS, ModelConfig, load_model, param_shapes
from relcap.pipeline import STACK_ROWS


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


def run_gen_toy(out, **popen_args):
    """``relcap gen-toy`` in a child process, stderr captured."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(relcap.__file__)))
    return subprocess.run([sys.executable, "-m", "relcap.cli", "gen-toy", "--out", str(out),
                           "--seed", "7", "--images", "4"], stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, **popen_args)


def test_closed_stdout_exits_without_traceback(tmp_path):
    # A pipe whose reader is gone (``relcap ... | head``): exit 141.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_gen_toy(tmp_path / "piped", stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
    assert os.path.exists(tmp_path / "piped" / "manifest.json")
    # No stdout at all (``relcap ... >&-``): nothing to write, exit 0.
    proc = run_gen_toy(tmp_path / "closed", preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


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

    def test_one_progress_line_per_epoch(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"), "--out", str(out),
                    "--epochs", "3", "--hidden", "8", "--d-subj-obj", "10", "--d-union", "8",
                    "--rem-dim", "6", "--seed", "1"]) == 0
        err = capsys.readouterr().err.splitlines()
        with open(out / "train_log.csv", encoding="utf-8") as fh:
            log = list(csv.DictReader(fh))
        assert len(err) == len(log) == 3
        for line, row in zip(err, log):
            words = line.split()
            assert words[:2] == ["epoch", f"{row['epoch']}:"]
            shown = dict(zip(words[2::2], words[3::2]))
            assert list(shown) == [*LOSS_COMPONENTS, "images/s"]
            assert all(shown[key] == row[key] for key in LOSS_COMPONENTS)
            assert float(shown["images/s"]) > 0

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
            inventories[model] = set(params)
            assert config.name == model
        assert "lstm.main.w" in inventories["union"]
        assert "lstm.subject.w" in inventories["mttsnet"]
        assert "head.pos.w" in inventories["mttsnet"]
        assert "head.pos.w" not in inventories["union"]

    def test_library_model_config_is_the_default_run(self, toy_dir, tmp_path):
        # No model flag: train builds ModelConfig's own defaults.
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"),
                    "--out", str(tmp_path), "--epochs", "1"]) == 0
        _, config, _, _, _ = load_model(os.path.join(tmp_path, "model.rckpt"))
        assert ModelConfig(config.feature_width, config.vocab_size) == config

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

    @pytest.mark.parametrize("cap", ["1", "3"])
    def test_pair_capped_lines_equal_uncapped_lines(self, toy_dir, trained_dir, tmp_path, cap):
        # Decoding is batch-invariant: a kept pair's line, word_probs and
        # confidence included, does not depend on how many pairs were decoded.
        files = {}
        for name, extra in (("all", []), ("capped", ["--pair-cap", cap])):
            files[name] = str(tmp_path / f"{name}.jsonl")
            assert run(["infer", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                        "--data", os.path.join(toy_dir, "train.jsonl"),
                        "--provider", os.path.join(toy_dir, "provider.json"),
                        "--out", files[name], *extra]) == 0
        lines = {name: open(path).read().splitlines() for name, path in files.items()}
        assert 0 < len(lines["capped"]) < len(lines["all"])
        assert set(lines["capped"]) <= set(lines["all"])

    def test_graph_command_on_prediction_file(self, tmp_path):
        pred = PredictionRecord(
            image_id=0, subject_box=Box(5, 5, 4, 4), object_box=Box(15, 5, 4, 4),
            tokens=["the", "cat", "near", "a", "dog"],
            pos=["SUBJ", "SUBJ", "PRED", "OBJ", "OBJ"],
            word_probs=[0.9] * 5, confidence=float(0.9 ** 5))
        preds_path = str(tmp_path / "one.jsonl")
        write_predictions(preds_path, [table_of([pred])])
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
        write_predictions(path, [table_of([pred])])
        again = read_predictions(path)
        assert again == [pred]
        jsonschema.validate(json.loads(open(path).read().strip()),
                            schemas.PREDICTION_SCHEMA)

    def test_tables_are_written_as_they_come(self, tmp_path):
        # ``relcap infer`` passes one table per image; each is encoded and
        # released before the next is made, so memory does not grow with images
        written = []

        def tables():
            for k in range(4):
                gc.collect()
                assert all(ref() is None for ref in written[:-1])
                table = table_of([PredictionRecord(k, Box(5, 5, 4, 4), Box(15, 5, 4, 4),
                                                   ["a", "b"], [], [0.5, 0.5], 0.25)])
                written.append(weakref.ref(table))
                yield table

        path = str(tmp_path / "p.jsonl")
        assert write_predictions(path, tables()) == 4
        assert [p.image_id for p in read_predictions(path)] == [0, 1, 2, 3]

    def test_a_table_that_fails_midway_leaves_no_file(self, tmp_path):
        def tables():
            yield table_of([PredictionRecord(0, Box(5, 5, 4, 4), Box(15, 5, 4, 4),
                                             ["a"], [], [0.5], 0.5)])
            raise DataError("image 1: caption confidences are not finite")

        with pytest.raises(DataError):
            write_predictions(str(tmp_path / "p.jsonl"), tables())
        assert os.listdir(tmp_path) == []

    def test_bad_confidence_rejected_on_read(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        record = {"image_id": 0,
                  "subject_box": {"x": 5, "y": 5, "w": 4, "h": 4},
                  "object_box": {"x": 15, "y": 5, "w": 4, "h": 4},
                  "caption": "a b", "pos": [], "word_probs": [0.5, 0.5],
                  "confidence": 0.9}
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
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
        write_predictions(path, [table_of(preds)])
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
            {**meta, "model_config": {**meta["model_config"], "streams": "single"}},
            {**meta, "model_config": {k: v for k, v in meta["model_config"].items()
                                      if k != "hidden"}},
            {**meta, "adam": {**meta["adam"], "beta1": 1.0}},
            {**meta, "adam": {**meta["adam"], "beta2": -0.5}},
            {**meta, "adam": {**meta["adam"], "lr": float("nan")}},
            {**meta, "adam": {**meta["adam"], "lr": 0.0}},
            {**meta, "adam": {**meta["adam"], "lr": True}},
            {**meta, "adam": {**meta["adam"], "epsilon": float("inf")}},
            {**meta, "adam": {**meta["adam"], "step_count": -1}},
            {**meta, "adam": {**meta["adam"], "step_count": 2.7}},
            {**meta, "adam": {**meta["adam"], "step_count": True}},
            {**meta, "adam": {k: v for k, v in meta["adam"].items() if k != "lr"}},
        ]
        broken_headers = [
            {"format_version": 1, "meta": {}},
            {"format_version": 1, "meta": meta, "tensors": [{"name": "embed.table"}]},
            {"format_version": 1, "meta": meta,
             "tensors": [{"name": "embed.table", "shape": [-1, 2]}]},
            {"format_version": 1, "tensors": []},
            [1, 2],
        ]
        nan_weight = arrays["head.word.w"].copy()
        nan_weight[0, 0] = np.nan
        broken_arrays = [
            {k: v for k, v in arrays.items() if k != "head.word.b"},
            {**arrays, "head.word.b": arrays["head.word.b"][:3]},
            {**arrays, "head.word.w": nan_weight},
            {k: v for k, v in arrays.items() if k != "adam.v.embed.table"},
            {**arrays, "adam.m.box.b": np.zeros(5)},
            {**arrays, "head.extra.b": np.zeros(3)},
        ]
        paths = [fake]
        for i, broken in enumerate(broken_metas):
            paths.append(str(tmp_path / f"meta{i}.rckpt"))
            save_checkpoint(paths[-1], arrays, broken)
        for i, header in enumerate(broken_headers):
            paths.append(str(tmp_path / f"header{i}.rckpt"))
            head = json.dumps(header).encode("utf-8")
            with open(paths[-1], "wb") as fh:
                fh.write(MAGIC + struct.pack("<I", len(head)) + head)
        for i, broken in enumerate(broken_arrays):
            paths.append(str(tmp_path / f"tensors{i}.rckpt"))
            save_checkpoint(paths[-1], broken, meta)
        for path in paths:
            assert run(["eval", "--checkpoint", path,
                        "--data", os.path.join(toy_dir, "test.jsonl"),
                        "--provider", os.path.join(toy_dir, "provider.json")]) == 3, path
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"),
                    "--out", str(tmp_path / "resumed"), "--epochs", "1",
                    "--resume", str(tmp_path / "tensors0.rckpt")]) == 3
        err = capsys.readouterr().err
        assert "head.word.b" in err and "Traceback" not in err
        bad_adam = str(tmp_path / "bad_adam.rckpt")
        save_checkpoint(bad_adam, arrays, {**meta, "adam": {**meta["adam"], "step_count": 2.7}})
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"),
                    "--out", str(tmp_path / "resumed"), "--epochs", "1",
                    "--resume", bad_adam]) == 3
        err = capsys.readouterr().err
        assert "step_count 2.7" in err and "Traceback" not in err

    def test_retrieve_without_gt_captions_is_data_error(self, toy_dir, trained_dir,
                                                         tmp_path, capsys):
        records = [json.loads(line) for line in open(os.path.join(toy_dir, "train.jsonl"))]
        bare = tmp_path / "no_relations.jsonl"
        bare.write_text("".join(json.dumps({**r, "relations": []}) + "\n" for r in records))
        out = tmp_path / "retrieve.json"
        assert run(["retrieve", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", str(bare), "--provider", os.path.join(toy_dir, "provider.json"),
                    "--images", "4", "--query-images", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "GT captions" in err and "Traceback" not in err
        assert not out.exists()

    def test_retrieve_without_pairs_names_the_images_read(self, toy_dir, trained_dir, tmp_path,
                                                          capsys):
        # One proposal kept after NMS pairs nothing, so no image has a pair.
        data = os.path.join(toy_dir, "train.jsonl")
        n_read = sum(1 for _ in open(data))
        assert run(["retrieve", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", data, "--provider", os.path.join(toy_dir, "provider.json"),
                    "--keep-after-nms", "1", "--query-images", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"2 images with a region pair, got 0 of the {n_read} images read" in err

    @pytest.mark.parametrize("command", ["train", "eval", "infer", "retrieve", "enrich"])
    def test_repeated_image_id_is_data_error(self, toy_dir, trained_dir, tmp_path, capsys,
                                             command):
        train = os.path.join(toy_dir, "train.jsonl")
        records = [json.loads(line) for line in open(train)]
        records[2]["image_id"] = records[0]["image_id"]
        repeated = str(tmp_path / "repeated.jsonl")
        with open(repeated, "w") as fh:
            fh.write("".join(json.dumps(r) + "\n" for r in records))
        argv = [repeated if a == train else a
                for a in self._argv(command, toy_dir, trained_dir, tmp_path)]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert f"{repeated}:3:" in err and f"image_id {records[0]['image_id']} " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "infer", "graph", "retrieve", "enrich"])
    def test_out_in_a_missing_directory_is_usage_error(self, toy_dir, trained_dir, tmp_path,
                                                       capsys, command):
        inputs = ["--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                  "--data", os.path.join(toy_dir, "train.jsonl"),
                  "--provider", os.path.join(toy_dir, "provider.json")]
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(_prediction_line() + "\n")
        argv = {"eval": ["eval", *inputs], "infer": ["infer", *inputs],
                "graph": ["graph", "--predictions", str(predictions)],
                "retrieve": ["retrieve", *inputs, "--images", "8", "--query-images", "2",
                             "--captions-per-image", "1", "--rounds", "1"],
                "enrich": self._argv("enrich", toy_dir, trained_dir, tmp_path)[:-2]}[command]
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "missing" / "out")
        assert run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["eval", "infer", "retrieve"])
    @pytest.mark.parametrize("shape", ["missing/out", "afile/out"])
    def test_unwritable_out_fails_before_the_checkpoint_loads(self, toy_dir, trained_dir,
                                                               tmp_path, capsys, monkeypatch,
                                                               command, shape):
        def never(*args, **kwargs):
            raise AssertionError("the command started its work")

        for name in ("load_model", "evaluate_model", "predict_image", "retrieval_eval"):
            monkeypatch.setattr(cli, name, never)
        (tmp_path / "afile").write_text("")
        argv = self._argv(command, toy_dir, trained_dir, tmp_path)
        out = str(tmp_path / shape)
        assert run([*(argv if command == "eval" else argv[:-2]), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: no such directory\n"

    @pytest.mark.parametrize("command", ["gen-toy", "train"])
    @pytest.mark.parametrize("shape", ["afile", "afile/sub"])
    def test_out_directory_that_cannot_be_made_is_usage_error(self, toy_dir, tmp_path, capsys,
                                                               command, shape):
        (tmp_path / "afile").write_text("")
        argv = self._argv(command, toy_dir, None, tmp_path)
        out = str(tmp_path / shape)
        assert run([*argv[:argv.index("--out")], *argv[argv.index("--out") + 2:],
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make directory {out}: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["afile"]

    def _argv(self, command, toy_dir, trained_dir, tmp_path):
        """A small run of ``command`` on the toy data (train without --epochs)."""
        if command == "gen-toy":
            return ["gen-toy", "--out", str(tmp_path / "toy"), "--images", "4"]
        inputs = ["--data", os.path.join(toy_dir, "train.jsonl"),
                  "--provider", os.path.join(toy_dir, "provider.json")]
        if command == "enrich":
            attributes, lexicon = str(tmp_path / "attrs.jsonl"), tmp_path / "lex.tsv"
            save_attributes(attributes, [])
            lexicon.write_text("tall\tJJ\n")
            return ["enrich", *inputs[:2], "--attributes", attributes, "--lexicon",
                    str(lexicon), "--out", str(tmp_path / "enriched.jsonl")]
        if command == "train":
            return ["train", *inputs, "--out", str(tmp_path / "run"), "--hidden", "8",
                    "--d-subj-obj", "10", "--d-union", "8", "--rem-dim", "6"]
        argv = [command, *inputs, "--checkpoint", os.path.join(trained_dir, "model.rckpt")]
        if command != "eval":
            argv += ["--out", str(tmp_path / f"{command}.out")]
        return argv

    @pytest.mark.parametrize("command,options", [
        ("train", ["--epochs", "0"]),
        ("train", ["--max-len", "1"]),
        ("eval", ["--keep-after-nms", "-1"]),
        ("eval", ["--pair-cap", "-1"]),
        ("retrieve", ["--rounds", "0"]),
        ("retrieve", ["--query-images", "0"]),
        ("retrieve", ["--captions-per-image", "0"]),
        ("train", ["--min-count", "0"]),
        ("train", ["--hidden", "0"]),
        ("train", ["--d-subj-obj", "0"]),
        ("train", ["--d-union", "0"]),
        ("train", ["--rem-dim", "0"]),
        ("train", ["--jitter", "1.5"]),
        ("eval", ["--jitter", "1.5"]),
        ("train", ["--lr", "nan"]),
        ("eval", ["--background", "-3"]),
        ("gen-toy", ["--seed", "-1"]),
        ("train", ["--seed", "-1"]),
        ("train", ["--proposal-seed", "-1"]),
        ("eval", ["--proposal-seed", "-1"]),
        ("infer", ["--proposal-seed", "-1"]),
        ("retrieve", ["--proposal-seed", "-1"]),
        ("enrich", ["--seed", "-1"]),
        ("eval", ["--nms-iou", "-1"]),
        ("retrieve", ["--nms-iou", "1.5"]),
        ("eval", ["--min-confidence", "2"]),
        ("infer", ["--min-confidence", "-0.5"]),
        ("gen-toy", ["--inside-prob", "7"]),
        ("train", ["--lr", "0"]),
        ("train", ["--alpha", "-5"]),
        ("train", ["--beta", "-1"]),
        ("train", ["--gamma", "-1"]),
        ("infer", ["--mode", "beam"]),
    ], ids=["epochs-0", "max-len-1", "keep-after-nms-neg", "pair-cap-neg", "rounds-0",
            "query-images-0", "captions-per-image-0", "min-count-0", "hidden-0",
            "d-subj-obj-0", "d-union-0", "rem-dim-0", "train-jitter-1.5", "eval-jitter-1.5",
            "lr-nan", "background-neg", "gen-toy-seed-neg", "train-seed-neg",
            "train-proposal-seed-neg", "eval-proposal-seed-neg", "infer-proposal-seed-neg",
            "retrieve-proposal-seed-neg", "enrich-seed-neg", "eval-nms-iou-neg",
            "retrieve-nms-iou-1.5", "eval-min-confidence-2", "infer-min-confidence-neg",
            "gen-toy-inside-prob-7", "lr-0", "alpha-neg", "beta-neg", "gamma-neg",
            "infer-mode-beam"])
    def test_bad_numeric_setting_is_config_error(self, toy_dir, trained_dir, tmp_path,
                                                 capsys, command, options):
        argv = self._argv(command, toy_dir, trained_dir, tmp_path)
        if command == "train":
            argv += ["--epochs", "1"]
        assert run(argv + options) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command,key,value", [
        ("train", "epochs", "x"),
        ("train", "model", 5),
        ("train", "jitter", [1]),
        ("eval", "keep-after-nms", "many"),
        ("infer", "mode", "beam"),
        ("train", "epochs", 2.9),
        ("train", "epochs", True),
        ("train", "lr", "nan"),
    ], ids=["epochs-str", "model-int", "jitter-list", "keep-after-nms-str", "mode-beam",
            "epochs-non-integral", "epochs-bool", "lr-nan-str"])
    def test_bad_config_file_value_is_config_error(self, toy_dir, trained_dir, tmp_path,
                                                   capsys, command, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        argv = self._argv(command, toy_dir, trained_dir, tmp_path)
        assert run(argv + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("option", [["--pair-cap", "1"], ["--min-confidence", "0.99"]])
    def test_retrieve_rejects_prediction_options(self, toy_dir, trained_dir, tmp_path,
                                                 capsys, option):
        argv = self._argv("retrieve", toy_dir, trained_dir, tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            run(argv + option)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_retrieve_rejects_k_below_1(self, toy_dir, trained_dir, tmp_path, capsys):
        argv = self._argv("retrieve", toy_dir, trained_dir, tmp_path)
        assert run(argv + ["--k", "0,-2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --k") and "Traceback" not in err

    @pytest.mark.parametrize("command,option", [
        ("gen-toy", ["--jitter", "0.5"]),
        ("gen-toy", ["--background", "9"]),
        ("eval", ["--seed", "5"]),
        ("infer", ["--seed", "5"]),
        ("retrieve", ["--seed", "5"]),
    ], ids=["gen-toy-jitter", "gen-toy-background", "eval-seed", "infer-seed",
            "retrieve-seed"])
    def test_removed_flags_are_usage_errors(self, toy_dir, trained_dir, tmp_path, capsys,
                                            command, option):
        argv = self._argv(command, toy_dir, trained_dir, tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            run(argv + option)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "1.5", "nan", "inf"])
    def test_graph_node_merge_iou_outside_unit_interval(self, tmp_path, capsys, value):
        path = str(tmp_path / "one.jsonl")
        write_predictions(path, [table_of([PredictionRecord(
            0, Box(5, 5, 4, 4), Box(15, 5, 4, 4), ["a", "b", "c"], ["SUBJ", "PRED", "OBJ"],
            [0.5, 0.5, 0.5], 0.125)])])
        assert run(["graph", "--predictions", path, "--out", str(tmp_path / "g"),
                    "--node-merge-iou", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --node-merge-iou") and "Traceback" not in err
        assert not os.path.exists(str(tmp_path / "g.dot"))

    @pytest.mark.parametrize("option,name", [
        (["--hidden", "99"], "hidden"),
        (["--model", "union"], "model"),
        (["--dropout", "0.5"], "dropout"),
        (["--min-count", "1"], "min-count"),
        ({"d-union": 12}, "d-union"),
    ], ids=["hidden", "model", "dropout", "min-count", "config-d-union"])
    def test_resume_rejects_disagreeing_model_settings(self, toy_dir, trained_dir, tmp_path,
                                                       capsys, option, name):
        argv = ["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                "--provider", os.path.join(toy_dir, "provider.json"),
                "--out", str(tmp_path / "resumed"), "--epochs", "1",
                "--resume", os.path.join(trained_dir, "model.rckpt")]
        if isinstance(option, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(option))
            option = ["--config", str(config)]
        assert run(argv + option) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --{name}")
        assert not os.path.exists(str(tmp_path / "resumed"))

    @pytest.mark.parametrize("option", [[], ["--hidden", "8", "--model", "mttsnet",
                                             "--dropout", "0.0"]],
                             ids=["no-settings", "agreeing-settings"])
    def test_resume_keeps_checkpoint_widths(self, toy_dir, trained_dir, tmp_path, option):
        # the checkpoint's widths (hidden 8, d_union 8) differ from the defaults
        out = str(tmp_path / "resumed")
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"), "--out", out,
                    "--epochs", "1", "--resume", os.path.join(trained_dir, "model.rckpt"),
                    *option]) == 0
        _, config, _, _, _ = load_model(os.path.join(out, "model.rckpt"))
        _, original, _, _, _ = load_model(os.path.join(trained_dir, "model.rckpt"))
        assert config == original
        # the provenance echoes what ran: the checkpoint's settings, not the defaults
        with open(os.path.join(out, "train_manifest.json"), encoding="utf-8") as fh:
            settings = json.load(fh)["provenance"]["settings"]
        assert (settings["hidden"], settings["d-union"], settings["dropout"],
                settings["min-count"]) == (8, 8, 0.0, 1)

    def test_resume_from_checkpoint_that_records_no_min_count(self, toy_dir, trained_dir,
                                                              tmp_path):
        arrays, meta = load_checkpoint(os.path.join(trained_dir, "model.rckpt"))
        del meta["provenance"]
        bare = str(tmp_path / "bare.rckpt")
        save_checkpoint(bare, arrays, meta)
        out = str(tmp_path / "resumed")
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"), "--out", out,
                    "--epochs", "1", "--resume", bare]) == 0
        with open(os.path.join(out, "train_manifest.json"), encoding="utf-8") as fh:
            settings = json.load(fh)["provenance"]["settings"]
        assert settings["min-count"] is None and settings["hidden"] == 8

    def test_resume_with_another_feature_width_is_config_error(self, toy_dir, trained_dir,
                                                               tmp_path, capsys):
        with open(os.path.join(toy_dir, "provider.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        spec["shapes"].append("hexagon")
        spec["feature_width"] += 1
        provider = tmp_path / "provider.json"
        provider.write_text(json.dumps(spec))
        out = tmp_path / "resumed"
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", str(provider), "--out", str(out), "--epochs", "1",
                    "--resume", os.path.join(trained_dir, "model.rckpt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: provider feature width ")
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--dropout", "1.5"], "dropout must lie in [0, 1)"),
        (["--max-len", "1"], "max_len must leave room"),
    ], ids=["dropout", "max-len"])
    def test_rejected_model_config_leaves_no_directory(self, toy_dir, tmp_path, capsys,
                                                       option, message):
        out = tmp_path / "run"
        assert run(["train", "--data", os.path.join(toy_dir, "train.jsonl"),
                    "--provider", os.path.join(toy_dir, "provider.json"), "--out", str(out),
                    "--epochs", "1", *option]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "infer", "retrieve"])
    def test_background_above_its_bound_is_config_error(self, tmp_path, capsys, command):
        # No input exists: the bound is checked before anything loads.
        argv = [command, *(a if a.startswith("--") else str(tmp_path / a)
                           for a in _REQUIRED[command])]
        assert run(argv + ["--background", str(MAX_BACKGROUND + 1)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --background must be in [0, {MAX_BACKGROUND}], "
                       f"got {MAX_BACKGROUND + 1}"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"background": MAX_BACKGROUND + 1}))
        assert run(argv + ["--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: config key 'background' must be")
        assert _resolved(argv + ["--background", str(MAX_BACKGROUND)])["background"] \
            == MAX_BACKGROUND
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("flag,bound", [
        ("hidden", cli.MAX_WIDTH), ("d-subj-obj", cli.MAX_WIDTH), ("d-union", cli.MAX_WIDTH),
        ("rem-dim", cli.MAX_WIDTH), ("max-len", cli.MAX_LEN)])
    def test_model_size_above_its_bound_is_config_error(self, tmp_path, capsys, flag, bound):
        # No input exists: the bound is checked before anything loads.
        argv = ["train", *(a if a.startswith("--") else str(tmp_path / a)
                           for a in _REQUIRED["train"])]
        for value in (bound + 1, 1000000):
            assert run(argv + [f"--{flag}", str(value)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: --{flag} must be ")
            assert err[0].endswith(f"{bound}], got {value}" if flag != "max-len"
                                   else f"at most {bound}, got {value}")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag: bound + 1}))
        assert run(argv + ["--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config key '{flag}' must be")
        assert _resolved(argv + [f"--{flag}", str(bound)])[flag.replace("-", "_")] == bound
        assert os.listdir(tmp_path) == ["config.json"]

    def test_model_size_bounds_share_one_budget(self):
        # The largest preset at every width MAX_WIDTH, its float64 parameters
        # with their gradients and Adam moments, fits on a 200-word
        # vocabulary, and so do a stacked decode's three arrays at MAX_LEN.
        wide = ModelConfig(14, 200, d_subj_obj=cli.MAX_WIDTH, d_union=cli.MAX_WIDTH,
                           hidden=cli.MAX_WIDTH, rem_dim=cli.MAX_WIDTH, name="mttsnet,mtl,rem")
        size = sum(np.prod(shape) for shape in param_shapes(wide).values())
        assert 4 * 8 * size <= cli.MEMORY_BUDGET < 4 * 8 * size * 1.1
        assert 3 * 8 * STACK_ROWS * cli.MAX_LEN <= cli.MEMORY_BUDGET

    def _dataset_variant(self, toy_dir, tmp_path, name, edit):
        with open(os.path.join(toy_dir, "test.jsonl")) as fh:
            objs = [json.loads(line) for line in fh]
        for obj in objs:
            edit(obj)
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(obj) + "\n" for obj in objs))
        return path

    def _assert_data_error_on_infer_and_eval(self, trained_dir, tmp_path, capsys, data,
                                             provider):
        for command in ("infer", "eval"):
            assert run([command, "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                        "--data", data, "--provider", provider,
                        "--out", str(tmp_path / f"{command}.out")]) == 3, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda spec: [spec],
        lambda spec: {**spec, "shapes": len(spec["shapes"])},
        lambda spec: {**spec, "colors": len(spec["colors"])},
    ], ids=["json-list", "shapes-not-list", "colors-not-list"])
    def test_malformed_provider_spec_is_data_error(self, toy_dir, trained_dir, tmp_path,
                                                   capsys, edit):
        with open(os.path.join(toy_dir, "provider.json")) as fh:
            spec = json.load(fh)
        provider = str(tmp_path / "provider.json")
        with open(provider, "w") as fh:
            json.dump(edit(spec), fh)
        self._assert_data_error_on_infer_and_eval(
            trained_dir, tmp_path, capsys, os.path.join(toy_dir, "test.jsonl"), provider)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(width=float("nan")),
        lambda obj: obj.update(width=float("inf")),
        lambda obj: obj.pop("scene"),
        lambda obj: [item.update(shape="hexagon") for item in obj["scene"]],
        lambda obj: [item.update(color="mauve") for item in obj["scene"]],
    ], ids=["width-nan", "width-inf", "no-scene", "unknown-shape", "unknown-color"])
    def test_bad_image_fields_are_data_errors(self, toy_dir, trained_dir, tmp_path,
                                              capsys, edit):
        bad = self._dataset_variant(toy_dir, tmp_path, "bad_image.jsonl", edit)
        self._assert_data_error_on_infer_and_eval(
            trained_dir, tmp_path, capsys, bad, os.path.join(toy_dir, "provider.json"))

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


# Arguments every config-reading command requires; only parsed, never opened.
_REQUIRED = {
    "gen-toy": ["--out", "o"],
    "train": ["--data", "d", "--provider", "p", "--out", "o"],
    "eval": ["--checkpoint", "c", "--data", "d", "--provider", "p"],
    "infer": ["--checkpoint", "c", "--data", "d", "--provider", "p", "--out", "o"],
    "retrieve": ["--checkpoint", "c", "--data", "d", "--provider", "p"],
}
_NOT_SETTINGS = {"-h", "--help", "--config", "--out", "--data", "--provider",
                 "--checkpoint", "--resume"}


def _resolved(argv):
    args = build_parser().parse_args(argv)
    resolve_settings(args)
    return {k: v for k, v in vars(args).items() if k != "config"}


class TestSettingsTable:
    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_parser_flags_are_the_table(self, command):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        flags = {flag for action in commands[command]._actions
                 for flag in action.option_strings}
        assert sorted(flags - _NOT_SETTINGS) == sorted(f"--{name}" for name in SETTINGS[command])

    @pytest.mark.parametrize("command,name", [(command, name) for command in sorted(SETTINGS)
                                              for name in SETTINGS[command]])
    def test_flag_and_config_file_resolve_equal(self, tmp_path, command, name):
        kind = SETTINGS[command][name][0]
        value = {int: 4, float: 0.25, str: "stochastic"}[kind]   # inside every setting's range
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: value}))
        argv = [command, *_REQUIRED[command]]
        by_flag = _resolved(argv + [f"--{name}", str(value)])
        assert by_flag[name.replace("-", "_")] == value
        assert _resolved(argv + ["--config", str(config)]) == by_flag

    def test_defaults_are_pinned(self):
        proposals = {"proposal-seed": 0, "jitter": 0.08, "background": 2}
        predict = {**proposals, "keep-after-nms": 50, "nms-iou": 0.5, "pair-cap": None,
                   "min-confidence": None}
        want = {
            "gen-toy": {"seed": 7, "images": 120, "min-objects": 2, "max-objects": 4,
                        "inside-prob": 0.25},
            "train": {"seed": 0, "model": "mttsnet", "epochs": 100, "lr": 1e-3, "alpha": 0.1,
                      "beta": 0.1, "gamma": 0.1, "hidden": 48, "d-subj-obj": 64,
                      "d-union": 32, "rem-dim": 32, "max-len": 12, "dropout": 0.1,
                      "min-count": 1, **proposals},
            "eval": predict,
            "infer": {**predict, "mode": "greedy"},
            "retrieve": {**proposals, "keep-after-nms": 100, "nms-iou": 0.5, "k": "1,5,10",
                         "images": 100, "query-images": 5, "captions-per-image": 4,
                         "rounds": 3},
        }
        assert sorted(want) == sorted(SETTINGS)
        for command, defaults in want.items():
            resolved = _resolved([command, *_REQUIRED[command]])
            assert {name: resolved[name.replace("-", "_")]
                    for name in SETTINGS[command]} == defaults, command

    def test_integral_config_numbers_convert(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": "2", "hidden": 2.0, "lr": 1, "model": None}))
        settings = _resolved(["train", *_REQUIRED["train"], "--config", str(config)])
        assert (settings["epochs"], settings["hidden"], settings["lr"]) == (2, 2, 1.0)
        assert type(settings["hidden"]) is int and type(settings["lr"]) is float
        assert settings["model"] == "mttsnet"


# Commands that write a provenance block -> the input files they hash.
_PROVENANCE_INPUTS = {"gen-toy": (), "train": ("dataset", "provider", "checkpoint"),
                      "eval": ("checkpoint", "dataset", "provider"),
                      "retrieve": ("checkpoint", "dataset", "provider")}


def _input_files(tmp_path, command):
    """name -> path of a small file for each input ``command`` hashes."""
    paths = {name: str(tmp_path / name) for name in _PROVENANCE_INPUTS[command]}
    for name, path in paths.items():
        with open(path, "wb") as fh:
            fh.write(f"{name} bytes\n".encode("ascii"))
    return paths


def _provenance(argv, inputs) -> bytes:
    """The provenance block of the parsed and resolved ``argv`` as canonical JSON."""
    args = build_parser().parse_args(argv)
    resolve_settings(args)
    return json.dumps(run_provenance(args, **inputs), sort_keys=True).encode("utf-8")


def _other_value(kind, default):
    """An accepted value of a setting that differs from its default."""
    if kind is str:
        return {"mttsnet": "tsnet", "1,5,10": "1,2"}[default]
    if default is None:
        return {int: 4, float: 0.25}[kind]
    return default + 1 if kind is int else default / 2


class TestProvenance:
    @pytest.mark.parametrize("command,name", [(command, name)
                                              for command in sorted(_PROVENANCE_INPUTS)
                                              for name in SETTINGS[command]])
    def test_each_setting_moves_the_hash_by_flag_or_config_file(self, tmp_path, command,
                                                                 name):
        value = _other_value(*SETTINGS[command][name][:2])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: value}))
        inputs = _input_files(tmp_path, command)
        argv = [command, *_REQUIRED[command]]
        by_flag = _provenance(argv + [f"--{name}", str(value)], inputs)
        by_config = _provenance(argv + ["--config", str(config),
                                        "--out", str(tmp_path / "elsewhere")], inputs)
        assert by_flag == by_config
        default = json.loads(_provenance(argv, inputs))
        assert json.loads(by_flag)["config_sha256"] != default["config_sha256"]
        assert json.loads(by_flag)["settings"][name] == value

    @pytest.mark.parametrize("command,name", [(command, name)
                                              for command in sorted(_PROVENANCE_INPUTS)
                                              for name in _PROVENANCE_INPUTS[command]])
    def test_every_flipped_input_byte_moves_the_hash(self, tmp_path, command, name):
        inputs = _input_files(tmp_path, command)
        argv = [command, *_REQUIRED[command]]
        before = json.loads(_provenance(argv, inputs))["config_sha256"]
        with open(inputs[name], "rb") as fh:
            raw = fh.read()
        for at in range(len(raw)):
            with open(inputs[name], "wb") as fh:
                fh.write(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])
            assert json.loads(_provenance(argv, inputs))["config_sha256"] != before


@pytest.fixture(scope="module")
def seed3_toy_dir(tmp_path_factory):
    """A world whose train split keeps every word at ``--min-count`` 2, so
    min-count 1 and 2 give vocabularies of one size."""
    out = str(tmp_path_factory.mktemp("toy_seed3"))
    assert run(["gen-toy", "--out", out, "--seed", "3", "--images", "10"]) == 0
    return out


@pytest.fixture(scope="module")
def min_count_runs(seed3_toy_dir, tmp_path_factory):
    """Two 1-epoch checkpoints that differ only in ``--min-count`` (1, 2)."""
    outs = []
    for min_count in (1, 2):
        out = str(tmp_path_factory.mktemp(f"min_count_{min_count}"))
        assert run(["train", "--data", os.path.join(seed3_toy_dir, "train.jsonl"),
                    "--provider", os.path.join(seed3_toy_dir, "provider.json"), "--out", out,
                    "--epochs", "1", "--hidden", "8", "--d-subj-obj", "10", "--d-union", "8",
                    "--rem-dim", "6", "--seed", "1", "--min-count", str(min_count)]) == 0
        outs.append(out)
    return outs


def _config_sha256(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["provenance"]["config_sha256"]


class TestProvenanceProbes:
    def test_min_count_moves_the_train_hash(self, min_count_runs):
        sizes = {load_model(os.path.join(out, "model.rckpt"))[1].vocab_size
                 for out in min_count_runs}
        hashes = {_config_sha256(os.path.join(out, "train_manifest.json"))
                  for out in min_count_runs}
        assert len(sizes) == 1 and len(hashes) == 2

    def test_checkpoint_and_keep_after_nms_move_the_eval_hash(self, seed3_toy_dir,
                                                              min_count_runs, tmp_path):
        hashes = set()
        for k, out in enumerate(min_count_runs):
            for keep in ("50", "3"):
                report = str(tmp_path / f"eval_{k}_{keep}.json")
                assert run(["eval", "--checkpoint", os.path.join(out, "model.rckpt"),
                            "--data", os.path.join(seed3_toy_dir, "test.jsonl"),
                            "--provider", os.path.join(seed3_toy_dir, "provider.json"),
                            "--keep-after-nms", keep, "--out", report]) == 0
                hashes.add(_config_sha256(report))
        assert len(hashes) == 4


def _payloads(out):
    """Relative path -> bytes of every file under ``out``: JSON reports and
    checkpoints without their provenance block, other files as they are."""
    payloads = {}
    for base, _dirs, names in os.walk(out):
        for name in names:
            path = os.path.join(base, name)
            if name.endswith(".rckpt"):
                arrays, meta = load_checkpoint(path)
                meta.pop("provenance")
                data = json.dumps(meta, sort_keys=True).encode("utf-8") + b"".join(
                    key.encode("utf-8") + array.tobytes() for key, array in arrays.items())
            elif name.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                report.pop("provenance", None)
                data = json.dumps(report, sort_keys=True).encode("utf-8")
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            payloads[os.path.relpath(path, out)] = data
    return payloads


class TestDeterminism:
    def test_thread_count_and_hash_seed_leave_the_outputs_alone(self, tmp_path):
        # gen-toy, train, greedy and stochastic dense infer, eval and retrieve
        # in child processes, once per (OpenBLAS threads, PYTHONHASHSEED).
        src = os.path.dirname(os.path.dirname(os.path.abspath(relcap.__file__)))
        runs = []
        for threads, hash_seed in ((1, 0), (min(2, os.cpu_count() or 1), 1)):
            out = tmp_path / f"threads{threads}_hash{hash_seed}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONHASHSEED=str(hash_seed))
            checkpoint = ["--checkpoint", str(out / "run" / "model.rckpt")]
            provider = ["--provider", str(out / "toy" / "provider.json")]
            test = [*checkpoint, "--data", str(out / "toy" / "test.jsonl"), *provider]
            for argv in (["gen-toy", "--out", str(out / "toy"), "--images", "20"],
                         ["train", "--data", str(out / "toy" / "train.jsonl"), *provider,
                          "--out", str(out / "run"), "--epochs", "1"],
                         ["infer", *test, "--background", "80", "--out", str(out / "greedy.jsonl")],
                         ["infer", *test, "--background", "80", "--mode", "stochastic",
                          "--out", str(out / "stochastic.jsonl")],
                         ["eval", *test, "--out", str(out / "eval.json")],
                         # the test split's 2 images are fewer than retrieval needs
                         ["retrieve", *checkpoint, "--data", str(out / "toy" / "train.jsonl"),
                          *provider, "--images", "8", "--out", str(out / "retrieve.json")]):
                proc = subprocess.run([sys.executable, "-m", "relcap.cli", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                assert proc.returncode == 0, (argv, proc.stderr)
            runs.append(_payloads(out))
        assert {"run/model.rckpt", "greedy.jsonl", "stochastic.jsonl", "eval.json",
                "retrieve.json"} <= set(runs[0])
        assert all(len(data) for data in runs[0].values())
        assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def diverged_checkpoint(seed3_toy_dir, tmp_path_factory):
    """A checkpoint trained at ``--lr 1e30``, whose parameters overflow the
    float32 LSTM kernel."""
    out = str(tmp_path_factory.mktemp("diverged"))
    assert run(["train", "--data", os.path.join(seed3_toy_dir, "train.jsonl"),
                "--provider", os.path.join(seed3_toy_dir, "provider.json"), "--out", out,
                "--lr", "1e30", "--epochs", "1"]) == 0
    return os.path.join(out, "model.rckpt")


class TestNonFiniteOutputs:
    @pytest.mark.parametrize("command, extra, message", [
        ("retrieve", ["--images", "2", "--query-images", "1"], "retrieval scores are not finite"),
        ("eval", [], "caption confidences are not finite"),
        ("infer", [], "caption confidences are not finite"),
        ("infer", ["--mode", "stochastic"], "caption confidences are not finite")],
        ids=("retrieve", "eval", "infer", "infer-stochastic"))
    def test_diverged_checkpoint_is_data_error(self, seed3_toy_dir, diverged_checkpoint,
                                               tmp_path, capsys, recwarn, command, extra,
                                               message):
        out = tmp_path / "out"
        assert run([command, "--checkpoint", diverged_checkpoint,
                    "--data", os.path.join(seed3_toy_dir, "test.jsonl"),
                    "--provider", os.path.join(seed3_toy_dir, "provider.json"),
                    *extra, "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_diverging_training_is_data_error(self, seed3_toy_dir, tmp_path, capsys, recwarn):
        out = tmp_path / "run"
        assert run(["train", "--data", os.path.join(seed3_toy_dir, "train.jsonl"),
                    "--provider", os.path.join(seed3_toy_dir, "provider.json"),
                    "--out", str(out), "--lr", "1e300", "--epochs", "2"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: epoch 1, image ")
        assert "non-finite" in err[0] and "lr 1e+300" in err[0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (out / "model.rckpt").exists()


class TestSmallImage:
    def test_image_smaller_than_a_background_box(self, toy_dir, tmp_path):
        # Background boxes are drawn 16 to 40 px wide and high: wider and
        # higher than this 30x14 image.
        def box(x):
            return {"x": x, "y": 7.0, "w": 8.0, "h": 8.0}

        objects = [("circle", "red", box(8.0)), ("square", "blue", box(22.0))]
        record = {
            "schema_version": 1, "image_id": 0, "width": 30.0, "height": 14.0,
            "objects": [{"category": shape, "attributes": [color], "box": b}
                        for shape, color, b in objects],
            "scene": [{"shape": shape, "color": color, "box": b} for shape, color, b in objects],
            "relations": [{"subject_box": box(8.0), "object_box": box(22.0),
                           "tokens": ["the", "circle", "is", "left", "of", "the", "square"],
                           "pos": ["SUBJ", "SUBJ", "PRED", "PRED", "PRED", "OBJ", "OBJ"]}],
        }
        data = str(tmp_path / "small.jsonl")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        provider = os.path.join(toy_dir, "provider.json")
        checkpoint = str(tmp_path / "run" / "model.rckpt")
        assert run(["train", "--data", data, "--provider", provider,
                    "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
        inputs = ["--checkpoint", checkpoint, "--data", data, "--provider", provider]
        assert run(["eval", *inputs]) == 0
        assert run(["infer", *inputs, "--out", str(tmp_path / "preds.jsonl")]) == 0
        assert run(["retrieve", *inputs, "--images", "1", "--query-images", "1"]) == 0


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _prediction_line():
    pred = PredictionRecord(
        image_id=9, subject_box=Box(5, 5, 4, 4), object_box=Box(15, 5, 4, 4),
        tokens=["a", "cat", "near", "a", "dog"], pos=["SUBJ", "SUBJ", "PRED", "OBJ", "OBJ"],
        word_probs=[0.5] * 5, confidence=0.5 ** 5)
    return json.dumps(prediction_to_json(pred), sort_keys=True)


class TestUndecodableText:
    """A text input that does not decode as UTF-8 is a data error, or a
    config error for ``--config``; never an internal error."""

    @pytest.mark.parametrize("what,code", [("dataset", 3), ("provider", 3),
                                           ("config", 2), ("attributes", 3),
                                           ("lexicon", 3), ("predictions", 3)])
    def test_leading_ff_byte(self, toy_dir, trained_dir, tmp_path, capsys, what, code):
        dataset, provider = os.path.join(toy_dir, "test.jsonl"), \
            os.path.join(toy_dir, "provider.json")
        attributes, lexicon = str(tmp_path / "attrs.jsonl"), str(tmp_path / "lex.tsv")
        predictions, config = str(tmp_path / "preds.jsonl"), str(tmp_path / "config.json")
        save_attributes(attributes, [ImageAttributes(0, [])])
        with open(lexicon, "w", encoding="utf-8") as fh:
            fh.write("tall\tJJ\n")
        with open(predictions, "w", encoding="utf-8") as fh:
            fh.write(_prediction_line() + "\n")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write('{"keep-after-nms": 8}\n')
        paths = {"dataset": dataset, "provider": provider, "config": config,
                 "attributes": attributes, "lexicon": lexicon, "predictions": predictions}
        with open(paths[what], "rb") as fh:
            payload = fh.read()
        paths[what] = str(tmp_path / ("bad_" + os.path.basename(paths[what])))
        with open(paths[what], "wb") as fh:
            fh.write(b"\xff" + payload)
        if what in ("attributes", "lexicon"):
            argv = ["enrich", "--data", paths["dataset"], "--attributes", paths["attributes"],
                    "--lexicon", paths["lexicon"], "--out", str(tmp_path / "out.jsonl")]
        elif what == "predictions":
            argv = ["graph", "--predictions", paths["predictions"],
                    "--out", str(tmp_path / "graph")]
        else:
            argv = ["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", paths["dataset"], "--provider", paths["provider"],
                    "--config", paths["config"]]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err and paths[what] in err
        assert "Traceback" not in err


class TestStrictRecordReaders:
    @pytest.mark.parametrize("key,value", [("caption", 5), ("image_id", 9.5),
                                           ("image_id", True), ("image_id", "9"),
                                           ("pos", ["X", "SUBJ", "PRED", "OBJ", "OBJ"]),
                                           ("pos", [0, 0, 1, 2, 2])],
                             ids=["caption-int", "image-id-float", "image-id-bool",
                                  "image-id-str", "pos-unknown-name", "pos-ints"])
    def test_bad_prediction_field_is_data_error(self, tmp_path, capsys, key, value):
        obj = json.loads(_prediction_line())
        obj[key] = value
        path = str(tmp_path / "preds.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj) + "\n")
        assert run(["graph", "--predictions", path, "--out", str(tmp_path / "g")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: bad prediction record") and key in err.lower()
        assert "Traceback" not in err

    @pytest.mark.parametrize("confidence,word_probs,message", [
        (0.5, [2.0, 0.25, 1.0], "word probability 2.0 outside"),
        (0.5, [float("nan"), 0.5, 1.0], "word probability nan outside"),
        (0.5, [0.5, float("nan"), 1.0], "word probability nan outside"),
        (0.5, [-1.0, -0.5, 1.0], "word probability -1.0 outside"),
        (True, [1.0, 1.0, 1.0], "not booleans"),
        (0.5, [True, 0.5, 1.0], "not booleans")],
        ids=["above-1", "nan-first", "nan-second", "negative", "bool-confidence", "bool-prob"])
    def test_bad_word_probabilities_are_data_error(self, tmp_path, capsys, confidence,
                                                   word_probs, message):
        # each list's product equals the confidence, so only the range check fails it
        obj = json.loads(_prediction_line())
        obj.update(caption="a cat near", pos=[], word_probs=word_probs, confidence=confidence)
        path = str(tmp_path / "preds.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj) + "\n")
        assert run(["graph", "--predictions", path, "--out", str(tmp_path / "g")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: bad prediction record") and message in err
        assert not os.path.exists(str(tmp_path / "g.dot"))

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
    def test_non_integer_dataset_image_id_is_data_error(self, toy_dir, trained_dir,
                                                        tmp_path, capsys, value):
        lines = _lines(os.path.join(toy_dir, "test.jsonl"))
        obj = json.loads(lines[0])
        obj["image_id"] = value
        path = str(tmp_path / "data.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
        assert run(["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                    "--data", path, "--provider", os.path.join(toy_dir, "provider.json")]) == 3
        err = capsys.readouterr().err
        assert f"{path}:1:" in err and "image_id must be an integer" in err

    def test_non_integer_attributes_image_id_is_data_error(self, toy_dir, tmp_path, capsys):
        attributes, lexicon = str(tmp_path / "attrs.jsonl"), tmp_path / "lex.tsv"
        save_attributes(attributes, [ImageAttributes(0, [])])
        obj = json.loads(_lines(attributes)[0])
        obj["image_id"] = 0.5
        with open(attributes, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj) + "\n")
        lexicon.write_text("tall\tJJ\n")
        assert run(["enrich", "--data", os.path.join(toy_dir, "test.jsonl"),
                    "--attributes", attributes, "--lexicon", str(lexicon),
                    "--out", str(tmp_path / "out.jsonl")]) == 3
        assert "image_id must be an integer" in capsys.readouterr().err

    def test_lines_end_at_universal_newlines_only(self, tmp_path):
        # \r\n ends a line; a raw U+2028 inside a JSON string does not
        good = json.loads(_prediction_line())
        good["caption"] = "a cat\u2028near a dog"
        path = tmp_path / "preds.jsonl"
        path.write_bytes((json.dumps(good, ensure_ascii=False) + "\r\n\r\n{").encode("utf-8"))
        with pytest.raises(DataError, match=r"preds\.jsonl:3:"):
            read_predictions(str(path))
        path.write_bytes((json.dumps(good, ensure_ascii=False) + "\r\n").encode("utf-8"))
        assert read_predictions(str(path))[0].tokens == ["a", "cat", "near", "a", "dog"]


def _key_paths(obj, prefix=()):
    """(path to a dict key) for every key of every dict nested in ``obj``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _key_paths(value, prefix + (k,))


@pytest.fixture(scope="module")
def fuzz_inputs(toy_dir, trained_dir, tmp_path_factory):
    """kind -> (argv, the file the argv reads, that file's one good line)."""
    out = tmp_path_factory.mktemp("fuzz")
    dataset, predictions = str(out / "data.jsonl"), str(out / "preds.jsonl")
    return {
        "dataset": (["eval", "--checkpoint", os.path.join(trained_dir, "model.rckpt"),
                     "--data", dataset, "--provider", os.path.join(toy_dir, "provider.json"),
                     "--keep-after-nms", "8"],
                    dataset, _lines(os.path.join(toy_dir, "test.jsonl"))[0]),
        "predictions": (["graph", "--predictions", predictions, "--out", str(out / "graph")],
                        predictions, _prediction_line()),
    }


class TestMutationFuzz:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_line_exits_0_2_or_3(self, fuzz_inputs, data):
        kind = data.draw(st.sampled_from(sorted(fuzz_inputs)), label="kind")
        argv, path, line = fuzz_inputs[kind]
        raw = line.encode("utf-8")
        op = data.draw(st.sampled_from(["truncate", "flip", "insert-ff", "drop", "retype"]),
                       label="op")
        if op in ("drop", "retype"):
            obj = json.loads(line)
            *parents, key = data.draw(st.sampled_from(list(_key_paths(obj))), label="key")
            owner = obj
            for step in parents:
                owner = owner[step]
            if op == "drop":
                del owner[key]
            else:
                owner[key] = data.draw(st.sampled_from(
                    [None, True, -1, 2.5, 1e308, "x", [], {}]), label="value")
            raw = json.dumps(obj).encode("utf-8")
        else:
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            if op == "truncate":
                raw = raw[:at]
            elif op == "flip":
                raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
            else:
                raw = raw[:at] + b"\xff" + raw[at:]
        with open(path, "wb") as fh:
            fh.write(raw + b"\n")
        assert run(argv) in (0, 2, 3)
