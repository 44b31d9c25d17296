"""Fast self-test of the benchmark: every workload and its checks at tiny
sizes, traced and untraced, then each check fed a corrupted output that it
must reject.

    python3 perfbench/selftest.py

Prints one line per case and exits non-zero if any case fails.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import shutil
import subprocess
import sys
import tempfile

import run

run._import_library()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from lsekg import evaluation  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "memorize-lse": dict(
        make_triples=functools.partial(workloads.memorize_triples,
                                       n_triples=40, n_entities=15),
        steps=600, rank_calls=2),
    "wnshape-lse_d": dict(
        make_triples=functools.partial(
            workloads.wn18rr_shaped_triples, n_entities=400,
            relation_counts=(300, 200, 60, 20), splits=(580, 30, 30)),
        config=dict(workloads.CRITERION_10, dim=12, batch_size=64,
                    sampler=dict(workloads.CRITERION_10["sampler"],
                                 negatives_per_positive=8)),
        steps=4, rank=5, rank_calls=2, rank_dim=16),
}

failures: list[str] = []


def case(name: str, fn) -> None:
    try:
        note = fn()
    except Exception as exc:  # report every case, then fail at the end
        failures.append(name)
        print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    else:
        print(f"ok   {name}" + (f" ({note})" if note else ""))


def rejects(fn, *args) -> str:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        return str(exc)
    raise AssertionError("the corrupted output was accepted")


def tiny_pipeline(name: str, directory: str, tracer=None):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    triples = workload.make_triples(3)
    workloads.write_splits(triples, directory)
    return workloads.Pipeline(workload, 3, directory, triples, tracer)


def run_workload(name: str, directory: str, traced: bool) -> None:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        pipeline = tiny_pipeline(name, directory, tracer)
        result = pipeline.run(seconds=0, min_rounds=2)
        if pipeline.w.check_step:
            for step in pipeline.record_first_steps():
                pipeline.check_one_step(step)
    finally:
        if tracer:
            tracer.uninstall()
    values = result.end_to_end()
    assert all(v > 0 for v, _ in values.values()), values
    if tracer:
        assert not tracer.absent, tracer.absent
        layers = run.layer_metrics(tracer, result)
        assert layers["training.forward_ms"][0] > 0, layers


def corrupted_ranking(directory: str) -> None:
    pipeline = tiny_pipeline("wnshape-lse_d", directory)
    pipeline.round()  # writes the checkpoint and passes its own checks
    ckpt = workloads.training.load_checkpoint(
        os.path.join(directory, "model.ckpt"))
    dataset = workloads.data.build_dataset(*(
        workloads.data.load_split(os.path.join(directory, f"{s}.txt"))
        for s in workloads.SPLITS))
    queries = dataset.test[:pipeline.w.rank]
    index = workloads.data.build_filter_index(
        [dataset.train, dataset.valid, dataset.test])
    metrics, records = evaluation.evaluate(ckpt.params, queries, index, 1)
    own = np.array(queries)
    known = pipeline._known(ckpt.vocabulary)
    every = np.arange(len(records))

    def check(recs, mets):
        checks.check_records(ckpt.params, own, recs, mets, known, every)

    check(records, metrics)
    off = list(records)
    off[3] = dataclasses.replace(off[3], filtered_rank=off[3].filtered_rank
                                 + 1)
    case("rejects a filtered rank off by one",
         lambda: rejects(check, off, evaluation.aggregate(off)))
    off = list(records)
    off[4] = dataclasses.replace(off[4], raw_rank=off[4].raw_rank + 1)
    case("rejects a raw rank off by one",
         lambda: rejects(check, off, evaluation.aggregate(off)))
    case("rejects a missing query",
         lambda: rejects(check, records[:-1],
                         evaluation.aggregate(records[:-1])))
    bad = dataclasses.replace(metrics, filtered=dataclasses.replace(
        metrics.filtered, mrr=metrics.filtered.mrr * (1 + 1e-9)))
    case("rejects an MRR that its ranks do not give",
         lambda: rejects(check, records, bad))
    bad = dataclasses.replace(metrics, raw=dataclasses.replace(
        metrics.raw, hits10=metrics.raw.hits10 + 1 / len(records)))
    case("rejects a Hits@10 that its ranks do not give",
         lambda: rejects(check, records, bad))


def corrupted_step(directory: str) -> None:
    pipeline = tiny_pipeline("wnshape-lse_d", directory)
    *_, step = pipeline.record_first_steps()
    pipeline.check_one_step(step)
    lr = pipeline.config.learning_rate

    def with_after(change):
        after = step["after"].copy()
        change(after)
        return dict(step, after=after)

    def perturb_gradient_row(after):
        row = int(step["pos"][0, 0])
        grad = (step["before"].entities[row] - after.entities[row]) / lr
        after.entities[row] -= lr * 1e-6 * grad

    def nudge_untouched_row(after):
        touched = np.unique(np.concatenate(
            [step["pos"][:, [0, 2]].ravel(),
             step["neg"][..., [0, 2]].ravel()]))
        row = int(np.setdiff1d(np.arange(step["n_e"]), touched)[0])
        after.entities[row, 0] = np.nextafter(after.entities[row, 0], np.inf)

    def perturb_relation(after):
        after.relation_vectors[int(step["pos"][0, 1]), 0] += 1e-9

    for name, change in (
            ("rejects a gradient row perturbed by 1e-6 of itself",
             perturb_gradient_row),
            ("rejects an untouched row moved by one ulp",
             nudge_untouched_row),
            ("rejects a relation row off by 1e-9", perturb_relation)):
        case(name, lambda change=change: rejects(
            pipeline.check_one_step, with_after(change)))

    def leak(cap_hits):
        neg = step["neg"].copy()
        neg[0, 0] = step["pos"][0]
        checks.check_negatives(step["pos"], neg, step["n_e"],
                               step["train_keys"], step["n_r"], cap_hits)

    case("rejects a negative that is a training triple",
         lambda: rejects(leak, 0))
    case("accepts it when a redraw-cap hit was counted",
         lambda: leak(1))
    case("rejects a non-finite loss",
         lambda: rejects(checks.check_losses, [0.5, float("nan")], 2))


def corrupted_coefficients(directory: str) -> None:
    """At full size, the step checked at the batch's median energy rejects
    a step whose ce derivatives are wrong."""
    workload = workloads.WORKLOADS["wnshape-lse_d"]
    triples = workload.make_triples(3)
    workloads.write_splits(triples, directory)
    pipeline = workloads.Pipeline(workload, 3, directory, triples)
    *_, step = pipeline.record_first_steps()
    before, pos, neg = step["before"], step["pos"], step["neg"]
    b, k = neg.shape[:2]
    coef = checks.ce_coefficients(before, pos, neg, step["margin"])

    def stepped(coef):
        tables = checks.expected_step(before, pos, neg, coef,
                                      pipeline.config.learning_rate)
        after = before.copy()
        after.entities[:] = tables["entity"][0]
        after.relation_vectors[:] = tables["relation"][0]
        return dict(step, after=after)

    pipeline.check_one_step(step)
    pipeline.check_one_step(stepped(coef))  # the unchanged recomputation
    for name, wrong in (
            ("the negatives' derivatives dropped",
             np.concatenate([coef[:b], np.zeros(b * k)])),
            ("the negatives' derivatives negated",
             np.concatenate([coef[:b], -coef[b:]])),
            ("constants in place of the logistic terms",
             np.concatenate([np.full(b, 1 / b),
                             np.full(b * k, -1 / (b * k))]))):
        case(f"rejects a full-size step with {name}",
             lambda wrong=wrong: rejects(pipeline.check_one_step,
                                         stepped(wrong)))


def untrained_capacity(directory: str) -> None:
    pipeline = tiny_pipeline("memorize-lse", directory)
    pipeline.round()
    ckpt = workloads.training.load_checkpoint(
        os.path.join(directory, "model.ckpt"))
    ckpt.params.entities[:] = np.random.default_rng(0).normal(
        size=ckpt.params.entities.shape)
    case("rejects a model that does not memorize its training set",
         lambda: rejects(pipeline.check_capacity, ckpt))


def bare_directory(directory: str) -> None:
    """Without the library's sources the benchmark fails, printing no
    result."""
    bench = os.path.join(directory, "perfbench")
    shutil.copytree(run.ROOT + "/perfbench", bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), directory)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "memorize-lse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=directory, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    for name, fn in (
            *((f"{w} runs and passes its checks{' traced' * t}",
               functools.partial(run_workload, w, traced=bool(t)))
              for w in TINY for t in (0, 1)),
            ("ranking checks", corrupted_ranking),
            ("step checks", corrupted_step),
            ("full-size step checks", corrupted_coefficients),
            ("capacity check", untrained_capacity),
            ("fails without the library", bare_directory)):
        directory = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
        try:
            case(name, lambda: fn(directory) and None)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
