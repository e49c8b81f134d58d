"""Benchmark runner for ``factrank``.

Run from the root of a checkout::

    python3 bench/run.py --workload fvqa-answer --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

One run prepares the workload's inputs from ``--seed`` (untimed; the first
fvqa run in a checkout also builds the FVQA-scale fixture and checkpoints
under ``.bench_build/``), sets up several times, repeats the
workload's operation for ``--seconds`` seconds, checks the outputs, and
prints the workload's figures followed by one JSON line:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median set-up),
  ``op_mean_ms`` (mean operation) and ``peak_rss_mb``. The operation
  time is a mean, not a median: on a shared host, short calls are fast
  or ~1.5x slow in spells of seconds, so the median of a run's calls
  jumps between the two while the mean moves with the share of slow
  time, as a long operation's own time does;
* ``--trace 1``: the per-layer metrics of ``PER_LAYER``, from spans
  recorded around calls into each ``factrank`` module, with operations
  alternating untraced and traced so ``trace.overhead_frac`` compares
  the two. The spans are written to ``.bench_build/traces/``.

``--workload all`` runs the three workloads one after another in child
processes and prints every figure by name and unit.

BLAS runs on ``BLAS_THREADS`` thread(s), set before numpy loads.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import TAPE_PRIMITIVES, Tracer, dump  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-train", "fvqa-evaluate", "fvqa-answer")

# (metric, unit, better); every traced run reports all of them, 0 where the
# workload does no such work
PER_LAYER = [
    ("dataio.load_dataset.s", "s", "lower"),
    ("dataio.load_features.cold_s", "s", "lower"),
    ("dataio.load_features.warm_s", "s", "lower"),
    ("dataio.FeatureStore.stack.s", "s", "lower"),
    ("kb.parse_kb.s", "s", "lower"),
    ("kb.ids_with_relation.calls", "count", "lower"),
    ("kb.ids_with_relation.s", "s", "lower"),
    ("kb.ids_with_relation.ids_copied", "count", "lower"),
    ("wordvec.load_vectors.s", "s", "lower"),
    ("wordvec.FactMatrix.build.s", "s", "lower"),
    ("checkpoint.load.s", "s", "lower"),
    ("checkpoint.load.bytes", "B", "lower"),
    *[(f"numerics.{p}.{m}", unit, "lower") for p in TAPE_PRIMITIVES for m, unit in (("calls", "count"), ("fwd_s", "s"))],
    ("numerics.matmul.flops", "flop", "lower"),
    ("numerics.backward.s", "s", "lower"),
    ("numerics.backward.records", "count", "lower"),
    ("optim.step.s", "s", "lower"),
    ("optim.clip_gradients.s", "s", "lower"),
    ("optim.clip_gradients.clipped_fraction", "fraction", "lower"),
    ("encoders.lstm_hidden.s", "s", "lower"),
    ("encoders.lstm_hidden.calls", "count", "lower"),
    ("encoders.lstm_hidden.steps", "count", "lower"),
    ("encoders.lstm_hidden.padded_fraction", "fraction", "lower"),
    ("encoders.encode_batch.s", "s", "lower"),
    ("encoders.predict_relation_batch.s", "s", "lower"),
    ("encoders.predict_source_batch.s", "s", "lower"),
    ("encoders.train_relation_classifier.epoch_s", "s", "lower"),
    ("encoders.train_source_classifier.epoch_s", "s", "lower"),
    ("scorer.iq_embedding_batch.s", "s", "lower"),
    ("scorer.embed_batch.s", "s", "lower"),
    ("scorer.embed_image_question.s", "s", "lower"),
    ("scorer.rank_candidates.s", "s", "lower"),
    ("scorer.rank_candidates.calls", "count", "lower"),
    ("scorer.rank_candidates.candidates", "count", "lower"),
    ("scorer.candidate_scores.s", "s", "lower"),
    ("scorer.score_matrix.s", "s", "lower"),
    ("scorer.score_matrix.bytes", "B", "lower"),
    ("trainer.train_scorer.epoch_s", "s", "lower"),
    ("trainer.build_initial_dataset.s", "s", "lower"),
    ("trainer.mine_hard_negatives.s", "s", "lower"),
    ("trainer.fact_precision.s", "s", "lower"),
    ("trainer.fact_precision.calls", "count", "lower"),
    ("trainer.hard_pool_fraction", "fraction", "higher"),
    ("trainer.empty_pool_fallbacks", "count", "lower"),
    ("pipeline.evaluate.s", "s", "lower"),
    ("pipeline.evaluate.self_s", "s", "lower"),
    ("pipeline.answer_question.s", "s", "lower"),
    ("pipeline.answer_question.self_s", "s", "lower"),
    ("pipeline.no_fact", "count", "lower"),
    ("fact_at1", "fraction", "higher"),
    ("answer_at1", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
]
# per-layer metrics of the set-up phase, reported per set-up; the rest are per operation
SETUP_SPANS = ("dataio.load_dataset", "dataio.load_features", "kb.parse_kb", "wordvec.load_vectors",
               "wordvec.FactMatrix.build", "checkpoint.load")


def environment(args) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "openblas": openblas,
        "python": sys.version.split()[0],
    }


def timed(step) -> float:
    start = time.perf_counter()
    step()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
    """Run one untimed warm-up operation, then repeat the operation until
    ``seconds`` have passed and ``min_ops`` have run. With a tracer,
    operations alternate untraced and traced, at least two of each.
    Returns the (untraced, traced) phase timings of the timed operations."""
    plain: list[dict] = []
    traced: list[dict] = []
    want_plain, want_traced = (workload.min_ops, 0) if tracer is None else (max(2, workload.min_ops // 2),) * 2
    deadline = None
    while deadline is None or len(plain) < want_plain or len(traced) < want_traced or time.perf_counter() < deadline:
        trace_this = tracer is not None and len(plain) > len(traced)
        workload.attempted += workload.op_items
        try:
            if deadline is None:
                workload.op()  # warm-up: caches fill, lazy set-up finishes
                deadline = time.perf_counter() + seconds
            elif trace_this:
                with tracer.installed():
                    traced.append(workload.op())
            else:
                plain.append(workload.op())
        except Exception:  # a failing operation is counted, reported and ends measuring
            traceback.print_exc(file=sys.stderr)
            workload.failed += workload.op_items
            break
    return plain, traced


def per_layer(setup_tracer, setups: int, cold_tracer, op_tracer, ops: int, overhead: float, quality: dict) -> dict:
    setup_totals, op_totals, cold = setup_tracer.totals(), op_tracer.totals(), cold_tracer.totals()
    counts = op_tracer.counts

    def span(name, field="s"):
        totals, n = (setup_totals, setups) if name in SETUP_SPANS else (op_totals, ops)
        return totals[name][field] / n if name in totals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "dataio.load_features.cold_s": cold["dataio.load_features"]["s"],
        "dataio.load_features.warm_s": span("dataio.load_features"),
        "checkpoint.load.bytes": setup_tracer.counts["checkpoint.load.bytes"] / setups,
        "numerics.matmul.flops": counts["numerics.matmul.flops"] / ops,
        "numerics.backward.records": counts["numerics.backward.records"] / ops,
        "optim.clip_gradients.clipped_fraction": ratio(counts["optim.clip_gradients.clipped"],
                                                       span("optim.clip_gradients", "calls") * ops),
        "encoders.lstm_hidden.steps": counts["encoders.lstm_hidden.steps"] / ops,
        "encoders.lstm_hidden.padded_fraction": ratio(counts["encoders.lstm_hidden.padded"],
                                                      counts["encoders.lstm_hidden.slots"]),
        "kb.ids_with_relation.ids_copied": counts["kb.ids_with_relation.ids_copied"] / ops,
        "scorer.rank_candidates.candidates": counts["scorer.rank_candidates.candidates"] / ops,
        "scorer.score_matrix.bytes": counts["scorer.score_matrix.bytes"] / ops,
        "trainer.hard_pool_fraction": ratio(counts["trainer.hard_pool"], counts["trainer.pool_slots"]),
        "trainer.empty_pool_fallbacks": counts["trainer.empty_pool_fallbacks"] / ops,
        "pipeline.no_fact": counts["pipeline.no_fact"] / ops,
        "trace.overhead_frac": overhead,
        **quality,
    }
    for epochs_of in ("encoders.train_relation_classifier", "encoders.train_source_classifier",
                      "trainer.train_scorer"):
        values[f"{epochs_of}.epoch_s"] = ratio(span(epochs_of) * ops, counts[f"{epochs_of}.epochs"])
    out = {}
    for name, unit, _ in PER_LAYER:
        if name not in values:
            base, _, field = name.rpartition(".")
            if field == "fwd_s":
                field = "s"
            values[name] = span(base, field)
        out[name] = {"value": float(values[name]), "unit": unit}
    return out


def run_workload(args) -> int:
    from workloads import WORKLOADS

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()

    setup_tracer, cold_tracer = Tracer(), Tracer()
    if args.trace:
        cold_dir = workload.dir.parent / "cold"
        shutil.rmtree(cold_dir, ignore_errors=True)
        cold_dir.mkdir(parents=True)
        features = cold_dir / "features.txt"
        shutil.copyfile(workload.feature_path(), features)
        from factrank import dataio

        with cold_tracer.installed():
            dataio.load_features(features)
        shutil.rmtree(cold_dir)

    setup_times = []
    for _ in range(workload.setup_repeats):
        if args.trace:
            with setup_tracer.installed():
                workload.setup()
            continue
        setup_times.append(timed(workload.setup))

    op_tracer = Tracer() if args.trace else None
    plain, traced = run_ops(workload, args.seconds, op_tracer)
    if not plain or (args.trace and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1
    workload.check()
    correct = workload.failed == 0

    if args.trace:
        overhead = statistics.fmean(p["op_s"] for p in traced) / statistics.fmean(p["op_s"] for p in plain) - 1.0
        metrics = per_layer(setup_tracer, workload.setup_repeats, cold_tracer, op_tracer, len(traced), overhead,
                            workload.quality())
        path = ROOT / ".bench_build" / "traces" / f"{args.workload}.jsonl"
        dump(path, {"env": env, "setups": workload.setup_repeats, "ops": len(traced)},
             {"cold": cold_tracer, "setup": setup_tracer, "op": op_tracer})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_mean_ms": {"value": statistics.fmean(p["op_s"] for p in plain) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        figures = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
        figures.update(workload.report(plain))
        figures["operations"] = (len(plain), "count")
        figures["failed_frac"] = (workload.failed / workload.attempted, "fraction")
        for name, (value, unit) in figures.items():
            print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": workload.attempted, "failed": workload.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print their figures and one
    combined JSON line with metrics named ``<workload>/<metric>``."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="factrank benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "factrank" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}; run from a factrank checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
