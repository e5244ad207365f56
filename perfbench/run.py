"""relcap benchmark: one workload per process, on one BLAS thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,infer-dense,eval,retrieve}
                             --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run sets up the workload several times (reporting
the median set-up time), then measures operations for S seconds and prints
the end-to-end metrics. Times are scaled to a reference machine speed by
a probe timed during the run (see perfbench/speed.py). With ``--trace 1`` it sets up once, measures S/2
seconds untraced and S/2 seconds with every public relcap function wrapped
in a span recorder, and prints the per-layer metrics. Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, the output hashes, the exact counts and the machine.
See perfbench/README.md.
"""

import os

# One BLAS thread; must be set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 3
# Percentiles are reported only with at least this many samples beyond them.
TAIL_SAMPLES = 10


def import_relcap():
    """Import relcap from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "relcap", "__init__.py")):
        raise SystemExit(f"error: no relcap sources under {SRC}")
    sys.path.insert(0, SRC)
    import relcap
    if os.path.dirname(os.path.abspath(relcap.__file__)) != os.path.join(SRC, "relcap"):
        raise SystemExit(f"error: relcap was imported from {relcap.__file__}, not {SRC}")
    return relcap


def machine_block() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase, setup_s: list, setup_factor: float, factor: float) -> dict:
    """The factors scale measured times to the reference machine speed."""
    return {
        "ops_per_s": (phase.attempted / (phase.elapsed_s * factor), "1/s"),
        "op_ms.p50": (statistics.median(phase.op_ms) * factor, "ms"),
        "setup_s": (statistics.median(setup_s) * setup_factor, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


QUALITY_UNITS = {"loss_final": "loss", "map_percent": "%", "median_rank": "rank"}


def extra_metrics(phase, setup_s: list, probe, factor: float) -> dict:
    """Metrics printed for reading but not part of the result line; times
    here are as measured, not scaled. ``phase`` is the measured (on a traced
    run, the traced) phase and ``factor`` its speed factor."""
    out = {"fail_rate": (phase.failed / phase.attempted, "ratio"),
           "ops": (phase.attempted, "count"),
           "elapsed_s": (phase.elapsed_s, "s"),
           "measured.ops_per_s": (phase.attempted / phase.elapsed_s, "1/s"),
           "measured.op_ms.p50": (statistics.median(phase.op_ms), "ms")}
    for q in (90, 99):
        if len(phase.op_ms) * (100 - q) / 100.0 >= TAIL_SAMPLES:
            cut = statistics.quantiles(phase.op_ms, n=100, method="inclusive")[q - 1]
            out[f"measured.op_ms.p{q}"] = (cut, "ms")
    out["measured.setup_s"] = (statistics.median(setup_s), "s")
    out["probe_ms.mean"] = (statistics.fmean(probe.samples_ms), "ms")
    out["probe.samples"] = (len(probe.samples_ms), "count")
    out["speed_factor"] = (factor, "ratio")
    for name, value in phase.quality.items():
        out[name] = (value, QUALITY_UNITS[name])
    return out


# Per-layer spans reported as ``<name>.self_ms`` and ``<name>.calls`` per op.
SELF_MS = ("autodiff.backward", "autodiff.adam_step", "model.total_loss",
           "model.caption_losses", "model.encode_regions", "model.decode_step",
           "model.decode_batch", "model.encode_pair_batch", "model.lstm_step",
           "data.provider_features", "geometry.combination_layer", "geometry.nms",
           "pipeline.make_pair_batch", "pipeline.predict_image", "metrics.meteor_lite",
           "metrics.relational_map", "metrics.image_level_recall", "metrics.mean_meteor",
           "metrics.vrd_recall_at_k", "pipeline.model_pos_accuracy", "apps.retrieval_score",
           "checkpoint.save_checkpoint")
CALLS = ("model.decode_step", "data.provider_features", "metrics.meteor_lite",
         "stemming.porter_stem", "geometry.iou", "apps.retrieval_score")
# autodiff functions other than these two are the graph-building forward ops.
AUTODIFF_PASSES = ("autodiff.backward", "autodiff.adam_step")


def per_layer(tracer, traced, untraced, factor: float, untraced_factor: float) -> dict:
    """Per-op layer metrics; the factors scale each phase's times as in
    ``end_to_end``, so the overhead ratio compares the two phases at the
    same machine speed."""
    ops = traced.attempted
    ms = 1e3 * factor / ops
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (tracer.self_time.get(name, 0.0) * ms, "ms")
    for name in CALLS:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / ops, "count")
    forward = [n for n in tracer.calls
               if n.startswith("autodiff.") and n not in AUTODIFF_PASSES]
    metrics["autodiff.forward_ops.self_ms"] = (
        sum(tracer.self_time[n] for n in forward) * ms, "ms")
    metrics["autodiff.forward_ops.calls"] = (sum(tracer.calls[n] for n in forward) / ops,
                                             "count")
    metrics["autodiff.graph_nodes"] = (tracer.counters.get("autodiff.graph_nodes", 0) / ops,
                                       "count")
    metrics["geometry.combination_layer.pairs"] = (
        tracer.counters.get("geometry.combination_layer.pairs", 0) / ops, "count")
    meteor_calls = tracer.calls.get("metrics.meteor_lite", 0)
    distinct = tracer.counters.get("metrics.meteor_lite.distinct_pairs", 0)
    metrics["metrics.meteor_lite.useful_ratio"] = (
        distinct / meteor_calls if meteor_calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (
        (traced.attempted / (traced.elapsed_s * factor))
        / (untraced.attempted / (untraced.elapsed_s * untraced_factor)), "ratio")
    return metrics


def exact_counts(calls: dict, counters: dict) -> dict:
    """Counts of the first pass, which is the same work on every run."""
    def per(total, n):
        return total / n if n else 0.0
    backward = calls.get("autodiff.backward", 0)
    layers = calls.get("geometry.combination_layer", 0)
    return {
        "graph_nodes_per_step": per(counters.get("autodiff.graph_nodes", 0), backward),
        "pairs_per_image": per(counters.get("geometry.combination_layer.pairs", 0), layers),
        "decode_steps": calls.get("model.decode_step", 0),
        "meteor_lite_calls": calls.get("metrics.meteor_lite", 0),
        "calls": dict(sorted(calls.items())),
    }


def compare_with_earlier(key: str, record: dict) -> list:
    """Compare hashes and counts with earlier runs of the same code and seed.

    Returns the list of keys whose values differ; stores keys not seen before.
    """
    state_dir = os.path.join(OUT_DIR, "state")
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, key + ".json")
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    differing = []
    for section in ("hashes", "counts"):
        old, new = earlier.get(section, {}), record.get(section, {})
        differing += [f"{section}.{k}" for k in new if k in old and old[k] != new[k]]
        # The first value recorded stays the reference.
        for k, v in new.items():
            old.setdefault(k, v)
        earlier[section] = old
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(earlier, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return differing


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer-dense", "eval", "retrieve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    relcap = import_relcap()
    import spans
    import speed
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    probe = speed.Probe()
    try:
        setup_s = []
        probe.run(2)
        for _ in range(1 if args.trace else SETUP_REPEATS):
            # Set-up probes once per training epoch; that time is excluded.
            probe_before = probe.spent_s
            t0 = time.perf_counter()
            state = setup(args.seed, workdir, probe)
            setup_s.append(time.perf_counter() - t0 - (probe.spent_s - probe_before))
            gc.collect()
            probe.run()
        setup_factor = probe.factor()
        phase_start = len(probe.samples_ms)

        if not args.trace:
            phase = run(state, time.perf_counter() + args.seconds, workloads.Hooks(probe))
            probe.run(2)
            factor = probe.factor(phase_start)
            metrics = end_to_end(phase, setup_s, setup_factor, factor)
            hashes, counts, mismatch = phase.hashes, {}, []
            attempted, failed, errors = phase.attempted, phase.failed, phase.errors
        else:
            untraced = run(state, time.perf_counter() + args.seconds / 2,
                           workloads.Hooks(probe))
            probe.run(2)
            untraced_factor = probe.factor(phase_start)
            phase_start = len(probe.samples_ms)
            gc.collect()
            tracer = spans.Tracer()
            hooks = workloads.Hooks(probe, tracer)
            first_pass = {}
            hooks.first_pass_done = lambda: first_pass.update(
                exact_counts(dict(tracer.calls), dict(tracer.counters)))
            # The untraced phase filled metrics' process-wide stem cache;
            # empty it so the traced phase stems what a fresh process does.
            relcap.metrics._STEM_CACHE.clear()
            tracer.install(relcap)
            try:
                phase = run(state, time.perf_counter() + args.seconds / 2, hooks)
            finally:
                tracer.uninstall()
            probe.run(2)
            factor = probe.factor(phase_start)
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))
            metrics = per_layer(tracer, phase, untraced, factor, untraced_factor)
            hashes, counts = phase.hashes, first_pass
            # Tracing must not change any output byte.
            mismatch = [f"hashes.{k} traced vs untraced" for k in hashes
                        if untraced.hashes.get(k) != hashes[k]]
            attempted = phase.attempted + untraced.attempted
            failed = phase.failed + untraced.failed
            errors = untraced.errors + phase.errors

        key = f"{args.workload}-seed{args.seed}-{workloads.package_fingerprint(BENCH_DIR)[:16]}"
        flagged = compare_with_earlier(key, {"hashes": hashes, "counts": {
            k: v for k, v in counts.items() if k != "calls"}})
        hash_mismatch = mismatch + [f for f in flagged if f.startswith("hashes.")]
        correct = failed == 0 and not hash_mismatch

        print_metrics(f"{args.workload} seed {args.seed} trace {args.trace}", metrics)
        print_metrics("also measured (not in the result line)",
                      extra_metrics(phase, setup_s, probe, factor))
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "hashes": hashes, "counts": counts, "quality": phase.quality,
                "setup_s_samples": setup_s, "probe_ms_samples": probe.samples_ms,
                "flagged": flagged + mismatch,
                "errors": errors, "machine": machine_block()}
        print(json.dumps({"info": info}, sort_keys=True, default=str))
        if flagged or mismatch:
            print(f"warning: outputs or counts differ: {', '.join(flagged + mismatch)}",
                  file=sys.stderr)
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": value, "unit": unit}
                              for name, (value, unit) in metrics.items()}}
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
