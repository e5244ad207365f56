"""Apply each mutant of a table to a temporary copy of the tree and report
whether the tests named for it catch it.

Usage: python3 scripts/mutants.py [NAME ...]

A mutant is (name, file, snippet, replacement, node ids): ``snippet`` must
occur exactly once in ``file``, and every pytest node id must fail once it
is replaced. For each mutant (or the named ones) the script copies ``src``
and ``tests`` to a temporary directory, makes the replacement there and runs
each node id in its own pytest process, then prints one line:

- ``killed``: every node id failed;
- ``survived``: some node id passed (they are named);
- ``stale``: the snippet does not occur exactly once, or a node id is not
  collected: the table no longer matches the code.

It exits 1 if any mutant survived or is stale, else 0. The checkout itself is
never edited. Mutation checks are slow (one pytest start per node id) and
not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_UNUSED = "tests/test_model.py::TestRegionsWithoutRows::"
_DENSE = "tests/test_dense_blocks.py::test_untaped_block_codes_equal_the_taped_whole_batch_codes"
_BUDGET = "tests/test_cli.py::TestExitCodes::"
_GT_STEP = "tests/test_pipeline.py::TestGtStep::"
MUTANTS = [
    ("no-split shortcut", "src/relcap/model.py",
     "if not np.array_equal(parent, np.arange(len(h[s]) - len(pad))):",
     "if parent[-1] + 1 < len(parent):",
     [_UNUSED + "test_decode_equals_passes_of_at_most_200_rows[mttsnet,mtl,rem]",
      _UNUSED + "test_decode_equals_passes_of_at_most_200_rows[tsnet]",
      _UNUSED + "test_retrieval_equals_images_scored_alone[mttsnet,mtl,rem]",
      _UNUSED + "test_retrieval_equals_images_scored_alone[tsnet]"]),
    ("no-split test without the state count", "src/relcap/model.py",
     "if not np.array_equal(parent, np.arange(len(h[s]) - len(pad))):",
     "if not np.array_equal(parent, np.arange(len(parent))):",
     [_UNUSED + "test_retrieval_over_trailing_regions_without_rows"]),
    ("taped run steps one state per region", "src/relcap/model.py",
     "share = tape is None and n > BLOCK", "share = n > BLOCK",
     ["tests/test_model.py::TestFloat32Accuracy::"
      "test_run_streams_returns_a_tape_exactly_when_recording"]),
    ("passes of at most BLOCK rows share states", "src/relcap/model.py",
     "share = tape is None and n > BLOCK", "share = tape is None",
     ["tests/test_model.py::TestStepZeroSharing::"
      "test_passes_of_at_most_block_rows_keep_one_state_per_row"]),
    ("untaped subject and object indices swapped", "src/relcap/model.py",
     "else (ad.affine(z, w, b), index))",
     'else (ad.affine(z, w, b), batch.object_index if role == "subject" '
     "else batch.subject_index))",
     ["tests/test_model.py::TestStackedEncoding::"
      "test_untaped_codes_equal_the_taped_gather_then_fc[mttsnet]",
      _DENSE + "[tsnet]", _DENSE + "[subj-obj,rem]",
      "tests/test_model.py::TestTeacherForcing::test_logits_bitwise_equal_with_tape_on_and_off"
      "[triple]"]),
    ("budget summed with np.prod", "src/relcap/model.py",
     "sum(map(math.prod, shapes.values()))", "sum(map(np.prod, shapes.values()))",
     [_BUDGET + "test_model_size_above_the_budget_is_config_error[hidden]"]),
    ("budget without the stacked decode", "src/relcap/model.py",
     " + 3 * 8 * STACK_ROWS * self.max_len", "",
     [_BUDGET + "test_a_model_of_exactly_the_budget_fits"]),
    ("a model of exactly the budget rejected", "src/relcap/model.py",
     "if need > MEMORY_BUDGET:", "if need >= MEMORY_BUDGET:",
     [_BUDGET + "test_a_model_of_exactly_the_budget_fits"]),
    ("training pairs skip GT 0", "src/relcap/pipeline.py",
     "matched = np.flatnonzero(labels >= 0)", "matched = np.flatnonzero(labels > 0)",
     ["tests/test_pipeline.py::TestBatchAssembly::test_targets_mirror_gt_relations",
      "tests/test_pair_arrays.py::TestImageBatchPairs::"
      "test_equal_the_all_pairs_reference[object_config]"]),
    ("regroup ranks reversed", "src/relcap/model.py",
     "rank[present] = np.arange(len(present))", "rank[present] = np.arange(len(present))[::-1]",
     ["tests/test_model.py::TestRegroup::test_equal_pairs_share_a_state_and_remember_it",
      "tests/test_dense_blocks.py::"
      "test_decode_above_block_equals_passes_of_at_most_block_rows[mttsnet,mtl,rem]"]),
    ("nms ties by the later row", "src/relcap/geometry.py",
     'order = np.argsort(-proposals.confidence, kind="stable")',
     'order = len(proposals.confidence) - 1 - np.argsort(-proposals.confidence[::-1], '
     'kind="stable")',
     ["tests/test_geometry.py::TestNms::test_tie_broken_by_id",
      "tests/test_geometry.py::TestNms::test_tied_confidences_match_scalar_reference"]),
    ("top_pairs ties by the later position", "src/relcap/geometry.py",
     'return np.sort(np.argsort(-products, kind="stable")[:max_pairs])',
     'return np.sort(len(products) - 1 - np.argsort(-products[::-1], kind="stable")'
     "[:max_pairs])",
     ["tests/test_geometry.py::TestCombinationLayer::test_equals_list_reference_at_every_cap"]),
    ("match_to_gt takes the last best GT", "src/relcap/geometry.py",
     "labels[positive] = ious[positive].argmax(axis=1)",
     "labels[positive] = ious.shape[1] - 1 - ious[positive][:, ::-1].argmax(axis=1)",
     ["tests/test_geometry.py::TestMatchToGt::test_positive_takes_argmax_gt"]),
    ("caption endpoints take the last exact GT", "src/relcap/pipeline.py",
     "index, inexact = exact.argmax(axis=1), ~exact.any(axis=1)",
     "index, inexact = len(rows) - 1 - exact[:, ::-1].argmax(axis=1), ~exact.any(axis=1)",
     [_GT_STEP + "test_equal_to_box_reference_on_toy_worlds[mttsnet,mtl,rem]"]),
    ("caption endpoints take the last best-IoU GT", "src/relcap/pipeline.py",
     "index[inexact] = iou_matrix(ends[inexact], rows).argmax(axis=1)",
     "index[inexact] = len(rows) - 1 - iou_matrix(ends[inexact], rows)[:, ::-1].argmax(axis=1)",
     ["tests/test_pipeline.py::TestBatchAssembly::"
      "test_inexact_endpoint_maps_to_the_first_object_at_equal_iou",
      _GT_STEP + "test_endpoint_at_equal_iou_and_a_shared_union[mttsnet,mtl,rem]"]),
]


def run_mutant(file, snippet, replacement, node_ids):
    """(verdict, node ids that passed) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="relcap-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        path = os.path.join(tmp, file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(snippet) != 1:
            return "stale", []
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(snippet, replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), OPENBLAS_NUM_THREADS="1")
        passed = []
        for node in node_ids:
            code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                                   "no:cacheprovider", node], cwd=tmp, env=env,
                                  capture_output=True).returncode
            if code == 0:
                passed.append(node)
            elif code != 1:                 # not collected, or a usage error
                return "stale", [node]
    return ("survived" if passed else "killed"), passed


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    if unknown := set(argv) - {m[0] for m in MUTANTS}:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    counts = {"killed": 0, "survived": 0, "stale": 0}
    for name, file, snippet, replacement, node_ids in chosen:
        verdict, nodes = run_mutant(file, snippet, replacement, node_ids)
        counts[verdict] += 1
        print(f"{verdict:8}  {name}" + "".join(f"\n          {node}" for node in nodes),
              flush=True)
    print(", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["survived"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
