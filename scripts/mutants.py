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
_SHARING = "tests/test_model.py::TestStepZeroSharing::"
_REM_GRADIENTS = [
    "tests/test_model.py::TestRem::test_gradients_match_finite_differences_at_every_coordinate",
    "tests/test_model.py::TestGradientCheck::test_full_model_small_instance",
    "tests/test_acceptance.py::TestCriterion1Gradients::test_full_mttsnet_rem_gradient_check"]
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
    ("no state sharing", "src/relcap/model.py",
     "maps = [index for _, index in first]", "maps = [None for _ in first]",
     [_SHARING + "test_passes_of_at_most_block_rows_step_one_state_per_region",
      _SHARING + "test_rows_of_one_region_share_one_state[mttsnet-roles0]"]),
    ("the BLOCK-rows fork restored", "src/relcap/model.py",
     "    inputs = [x.data for x, _ in first]\n    maps = [index for _, index in first]",
     "    inputs = [x.data if index is None or n > BLOCK else x.data[index]\n"
     "              for x, index in first]\n"
     "    maps = [index if n > BLOCK else None for _, index in first]",
     [_SHARING + "test_passes_of_at_most_block_rows_step_one_state_per_region"]),
    ("REM backward r @ g for r.T @ g", "src/relcap/model.py",
     "r.T @ g]", "r @ g]", _REM_GRADIENTS),
    ("REM backward without the softmax's row term", "src/relcap/model.py",
     "d_s = (d_r - (d_r * r).sum(axis=1, keepdims=True)) * r", "d_s = d_r * r",
     _REM_GRADIENTS),
    ("REM backward d_s.T @ b for d_s @ b", "src/relcap/model.py",
     "[d_s @ b.data,", "[d_s.T @ b.data,", _REM_GRADIENTS),
    ("REM attends over images of 0 regions", "src/relcap/model.py",
     "sorted(set(sizes.tolist()) - {0})", "sorted(set(sizes.tolist()))",
     ["tests/test_model.py::TestRem::test_an_image_of_no_regions_attends_to_nothing"]),
    ("taped REM over several images", "src/relcap/model.py",
     "if ad.is_recording() and len(sizes) > 1:", "if False:",
     ["tests/test_model.py::TestStackedEncoding::test_several_images_are_forward_only"]),
    ("taped stream_states keeps the region index", "src/relcap/model.py",
     "if ad.is_recording():           # the backward pass reads one row per pair",
     "if False:",
     ["tests/test_model.py::TestTeacherForcing::"
      "test_taped_run_over_untaped_codes_gathers_them_per_pair"]),
    ("REM pairs an image with another image's keys", "src/relcap/model.py",
     "ad._tile_matmul(a_n, b_n.transpose(0, 2, 1))",
     "ad._tile_matmul(a_n, np.roll(b_n, 1, axis=0).transpose(0, 2, 1))",
     ["tests/test_model.py::TestStackedEncoding::"
      "test_mixed_region_counts_attend_once_per_count[mttsnet,rem]"]),
    ("a block's step-0 term read one tile back", "src/relcap/model.py",
     "x = ad.tile_rows(inputs[s][lo:lo + block].astype(dtype, copy=False))",
     "x = ad.tile_rows(inputs[s][max(lo - ad.TILE, 0):][:len(hidden)]"
     ".astype(dtype, copy=False))",
     ["tests/test_dense_blocks.py::"
      "test_decode_above_block_equals_passes_of_at_most_block_rows[mttsnet,mtl,rem]",
      "tests/test_dense_blocks.py::"
      "test_retrieval_above_block_equals_each_image_scored_alone[union,mtl]"]),
    ("retrieval log-probabilities written one tile back", "src/relcap/apps.py",
     "logp[t, lo:lo + len(feat)] = ",
     "logp[t, max(lo - ad.TILE, 0):max(lo - ad.TILE, 0) + len(feat)] = ",
     ["tests/test_apps.py::TestGroupedRetrieval::"
      "test_segments_across_block_edges_score_as_the_block_reference",
      "tests/test_model.py::TestFloat32Accuracy::test_retrieval_ranks"]),
    ("retrieval scores the next query word", "src/relcap/apps.py",
     'head_logits(feat, params, "word"), query[t])',
     'head_logits(feat, params, "word"), query[min(t + 1, len(query) - 1)])',
     ["tests/test_apps.py::TestRetrievalScore::test_rigged_model_scores_its_sequence_near_one",
      "tests/test_apps.py::TestGroupedRetrieval::test_grouped_equals_per_image_bit_for_bit[uuu]"]),
    ("encode blocks step 2 * BLOCK", "src/relcap/model.py",
     "for lo in range(0, max(len(batch), 1), BLOCK)]",
     "for lo in range(0, max(len(batch), 1), 2 * BLOCK)]",
     [_DENSE + "[tsnet]"]),
    ("a float32 emit buffer", "src/relcap/model.py",
     "out = np.empty((min(block, n), len(weights) * hid))",
     "out = np.empty((min(block, n), len(weights) * hid), np.float32)",
     ["tests/test_model.py::TestEmitRows::"
      "test_dense_pass_emits_float64_rows_of_the_float32_states"]),
    ("run_streams without errstate", "src/relcap/model.py",
     '@np.errstate(over="ignore", invalid="ignore")\ndef run_streams', "def run_streams",
     ["tests/test_cli.py::TestNonFiniteOutputs::test_diverged_checkpoint_is_data_error[eval]"]),
    ("METEOR exact pass takes the first copy", "src/relcap/metrics.py",
     "align = [at[k] if k < len(at) else -1", "align = [at[0] if k < len(at) else -1",
     ["tests/test_metrics.py::TestMeteorLite::test_equals_the_left_to_right_reference"]),
    ("checkpoint tensors sized with np.prod", "src/relcap/checkpoint.py",
     "nbytes = math.prod(shape) * 8", "nbytes = int(np.prod(shape)) * 8",
     ["tests/test_cli.py::TestExitCodes::"
      "test_tensor_shape_numpy_cannot_make_is_data_error[wraps-to-0]"]),
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
     "sum(map(math.prod, shapes.values())) + decode", "sum(map(math.prod, shapes.values()))",
     [_BUDGET + "test_a_model_of_exactly_the_budget_fits"]),
    ("over-budget message always names the largest block", "src/relcap/model.py",
     "if 2 * decode > need", "if False",
     [_BUDGET + "test_checkpoint_above_the_budget_is_data_error",
      _BUDGET + "test_model_size_above_the_budget_is_config_error[max-len]"]),
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
