"""Run one benchmark workload against the `lsekg` sources of this checkout.

    python3 perfbench/run.py --workload wnshape-lse_d --seed 1 --seconds 30 \
        --trace 0

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones from spans
around the library's layers. The lines before it list each metric by name
and unit. The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_library():
    """Put this checkout's `src` first on the path; never fall back to an
    installed copy, which would measure other code."""
    if not os.path.isfile(os.path.join(SRC, "lsekg", "__init__.py")):
        sys.exit(f"perfbench: no lsekg sources under {SRC}")
    sys.path.insert(0, SRC)


def layer_metrics(tracer, result) -> dict[str, tuple[float, str]]:
    """Per-layer figures: set-up spans per round, training spans per step,
    ranking spans per query. Times are self times."""
    rounds = len(result.rounds)
    steps = sum(len(r.step_s) + 1 for r in result.rounds)
    queries = sum(r.queries for r in result.rounds)
    spans, counts = tracer.spans, tracer.counts

    def self_time(span, per, scale):
        stats = spans.get(span)
        return (stats.self_time() * scale / per) if stats else 0.0

    def peak_mb(*names):
        return max((spans[n].peak_bytes for n in names if n in spans),
                   default=0) / 2**20

    step_ms = sorted(x * 1e3 for r in result.rounds for x in r.step_s)
    scored = counts.get("training.active_rows_in", 0.0)
    out = {}
    for name in ("load_split", "build_dataset", "build_filter_index"):
        out[f"data.{name}_s"] = (self_time(f"data.{name}", rounds, 1), "s")
    out["data.triples_read"] = (counts["data.triples_read"] / rounds,
                                "count")
    for name in ("save_checkpoint", "load_checkpoint"):
        out[f"training.{name}_s"] = (
            self_time(f"training.{name}", rounds, 1), "s")
    out["training.checkpoint_bytes"] = (
        counts["training.checkpoint_bytes"] / rounds, "bytes")
    out["sampling.corrupt_batch_ms"] = (
        self_time("sampling.corrupt_batch", steps, 1e3), "ms")
    out["sampling.screen_ms"] = (self_time("sampling.screen", steps, 1e3),
                                 "ms")
    out["sampling.negatives"] = (counts["sampling.negatives"] / steps,
                                 "count")
    out["sampling.redraw_cap_hits"] = (
        counts["sampling.redraw_cap_hits"] / steps, "count")
    out["training.forward_ms"] = (self_time("training.forward", steps, 1e3),
                                  "ms")
    out["training.forward_peak_mb"] = (peak_mb("training.forward"), "MB")
    out["training.rows_scored"] = (counts["training.rows_scored"] / steps,
                                   "count")
    out["training.loss_ms"] = (self_time("training.loss", steps, 1e3), "ms")
    out["training.active_rows_ms"] = (
        self_time("training.active_rows", steps, 1e3), "ms")
    out["training.active_row_fraction"] = (
        counts["training.active_rows_kept"] / scored if scored else 0.0,
        "ratio")
    out["training.backward_ms"] = (
        self_time("training.backward", steps, 1e3), "ms")
    out["training.segment_sum_ms"] = (
        self_time("training.segment_sum", steps, 1e3), "ms")
    out["training.backward_peak_mb"] = (peak_mb("training.backward"), "MB")
    out["training.entity_rows_touched"] = (
        counts["training.entity_rows_touched"] / steps, "count")
    out["training.update_ms"] = (self_time("training.update", steps, 1e3),
                                 "ms")
    out["training.rows_updated"] = (counts["training.rows_updated"] / steps,
                                    "count")
    out["training.step_ms_p50"] = (_quantile(step_ms, 0.50), "ms")
    out["training.step_ms_p99"] = (_quantile(step_ms, 0.99), "ms")
    for side in ("tail", "head"):
        out[f"models.all_{side}_energies_ms"] = (
            self_time(f"models.all_{side}_energies", queries, 1e3), "ms")
    out["models.kernel_peak_mb"] = (
        peak_mb("models.all_tail_energies", "models.all_head_energies"),
        "MB")
    out["models.entities_scored"] = (
        counts["models.entities_scored"] / queries, "count")
    out["evaluation.evaluate_self_ms"] = (
        self_time("evaluation.evaluate", queries, 1e3), "ms")
    out["evaluation.rank_of_truth_ms"] = (
        self_time("evaluation.rank_of_truth", queries, 1e3), "ms")
    out["evaluation.aggregate_ms"] = (
        self_time("evaluation.aggregate", queries, 1e3), "ms")
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    i = min(len(sorted_values) - 1, max(0, round(q * len(sorted_values))
                                        - 1))
    return sorted_values[i]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checks
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tracer = None
    step_diff = None
    try:
        triples = workload.make_triples(args.seed)
        workloads.write_splits(triples, work)
        if args.trace:
            tracer = Tracer()
            tracer.install()
        pipeline = workloads.Pipeline(workload, args.seed, work, triples,
                                      tracer)
        started = time.perf_counter()
        result = pipeline.run(args.seconds)
        measured = time.perf_counter() - started
        if workload.check_step:
            step_diff = max(pipeline.check_one_step(step)
                            for step in pipeline.record_first_steps())
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    e2e = result.end_to_end()
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{len(result.rounds)} rounds in {measured:.1f} s, "
          f"{result.attempted} operations (training steps and ranking "
          "queries), 0 failed; checks passed"
          + (f" (steps matched within {step_diff:.2g})"
             if step_diff is not None else ""))
    if tracer is not None:
        for name in tracer.absent:
            print(f"absent: {name} (its metrics read 0)")
        print("traced end-to-end (slowed by tracing; not for comparison): "
              + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in e2e.items()))
        metrics = layer_metrics(tracer, result)
    else:
        metrics = e2e
        print("wall-clock rates (with the time spent waiting for a CPU; "
              "not compared): " + ", ".join(
                  f"{k}={v:.6g} 1/s" for k, v in result.wall_rates().items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": result.attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
