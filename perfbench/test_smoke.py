"""Smoke test of the benchmark: run with ``python3 -m pytest perfbench``.

It runs the ``train`` workload (one pass takes a few seconds) in both modes,
checks the result line against BENCHMARK.json, checks that the benchmark
refuses to run without the relcap sources, and checks the tracer's
self-time bookkeeping against a recomputation from its spans.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def test_result_line_matches_benchmark_json():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench(ROOT, "--workload", "train", "--seed", "3", "--seconds", "0.5",
                         "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared_metrics(section)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "eval", "--seed", "0", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    wrapped_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        time.sleep(0.002)
        wrapped_leaf()
        wrapped_leaf()

    tracer.wrap(outer, "outer")()
    assert tracer.calls == {"outer": 1, "leaf": 2}
    recomputed = spans.self_times(tracer.columns, tracer.names)
    for name in ("outer", "leaf"):
        assert abs(recomputed[name] - tracer.self_time[name]) < 1e-9
    cols = tracer.columns
    outer = list(cols["name"]).index(tracer.names.index("outer"))
    assert list(cols["parent"]).count(cols["id"][outer]) == 2
    assert tracer.self_time["outer"] < (cols["end"][outer] - cols["start"][outer]) - 0.004
