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
