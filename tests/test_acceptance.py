"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints `CRITERION n: PASS ...` or `CRITERION n: FAIL ...` with
the measured numbers before asserting, so a red run still reports every
measured value.
"""
import os
import time

import numpy as np
import pytest

from lsekg import synth
from lsekg.cli import PROFILES
from lsekg.data import (build_dataset, build_filter_index,
                        compute_bernoulli_stats, detect_patterns,
                        load_split)
from lsekg.evaluation import MetricBlock, evaluate, rank_of_truth
from lsekg.models import (ModelKind, Parameters, energy, energy_gradients,
                          init_params, lemma_diagnostics)
from lsekg.sampling import NegativeSampler, SamplerConfig
from lsekg.training import (TrainConfig, load_checkpoint, save_checkpoint,
                            train)

KINDS = list(ModelKind)


def verdict(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def desk_config(seed=0):
    spec = dict(PROFILES["desk"])
    negatives = spec.pop("negatives")
    mode = spec.pop("mode")
    return TrainConfig(**spec, seed=seed,
                       sampler=SamplerConfig(
                           mode=mode, negatives_per_positive=negatives,
                           seed=seed))


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(11)
    start = time.time()
    step = 1e-6
    worst = 0.0
    for kind in KINDS:
        for p in (1, 2):
            tol = 1e-4 if p == 1 else 1e-5
            checked = 0
            while checked < 100:
                d = 6
                params = init_params(kind, 4, 2, d, seed=int(rng.integers(1e9)))
                params.entities[:] = rng.normal(size=(4, d))
                h, r, t = 0, 1, 2
                if p == 1 and kind is not ModelKind.DISTMULT:
                    res = (params.entities[h] - params.entities[t]
                           if kind is ModelKind.TRANSE else None)
                    if kind is ModelKind.LSE_D:
                        res = (params.entities[h]
                               * params.relation_vectors[r]
                               - params.entities[t])
                    elif kind is ModelKind.LSE:
                        res = (params.entities[h]
                               @ params.relation_matrices[r]
                               - params.entities[t])
                    elif kind is ModelKind.TRANSE:
                        res = (params.entities[h]
                               + params.relation_vectors[r]
                               - params.entities[t])
                    if np.abs(res).min() <= 1e-3:
                        continue
                g = energy_gradients(params, h, r, t, p)
                for array, grad in [
                        (params.entities[h], g.d_head),
                        (params.entities[t], g.d_tail),
                        (params.relation_matrices[r] if kind.uses_matrix
                         else params.relation_vectors[r], g.d_relation)]:
                    flat = array.ravel()
                    gflat = np.asarray(grad).ravel()
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + step
                        up = energy(params, h, r, t, p)
                        flat[i] = orig - step
                        down = energy(params, h, r, t, p)
                        flat[i] = orig
                        fd = (up - down) / (2 * step)
                        err = abs(gflat[i] - fd) / max(abs(fd), 1e-8)
                        worst = max(worst, err) if err < 0.5 else worst
                        assert err < max(tol, 1e-8 / max(abs(fd), 1e-8)), (
                            kind, p, err)
                checked += 1
    elapsed = time.time() - start
    verdict(1, elapsed < 10.0,
            f"100 instances per kind/p, worst rel err {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(2)
    d = 16
    worst_diag = worst_id = worst_sym = 0.0
    for _ in range(1000):
        h_row = rng.normal(size=d)
        t_row = rng.normal(size=d)
        r_vec = rng.normal(size=d)
        entities = np.stack([h_row, t_row])
        diag = Parameters(kind=ModelKind.LSE_D, entities=entities,
                          relations=r_vec[None, :])
        full = Parameters(kind=ModelKind.LSE, entities=entities,
                          relations=np.diag(r_vec)[None, :, :])
        ident = Parameters(kind=ModelKind.LSE, entities=entities,
                           relations=np.eye(d)[None, :, :])
        dist = Parameters(kind=ModelKind.DISTMULT, entities=entities,
                          relations=r_vec[None, :])
        for p in (1, 2):
            worst_diag = max(worst_diag,
                             abs(energy(full, 0, 0, 1, p)
                                 - energy(diag, 0, 0, 1, p)))
            plain = (np.abs(h_row - t_row).sum() if p == 1
                     else float(np.linalg.norm(h_row - t_row)))
            worst_id = max(worst_id,
                           abs(energy(ident, 0, 0, 1, p) - plain))
        worst_sym = max(worst_sym, abs(energy(dist, 0, 0, 1)
                                       - energy(dist, 1, 0, 0)))
    ok = worst_diag < 1e-12 and worst_id < 1e-12 and worst_sym == 0.0
    verdict(2, ok, f"diag gap {worst_diag:.2e}, identity gap "
            f"{worst_id:.2e}, distmult asym {worst_sym:.2e}")


def test_criterion_3_ranking_oracle():
    start = time.time()
    rng = np.random.default_rng(3)
    n_e, n_r = 200, 4
    params = init_params(ModelKind.LSE_D, n_e, n_r, 16, seed=3)
    params.entities[:] = rng.normal(size=(n_e, 16))
    triples = sorted({tuple(map(int, row)) for row in
                      rng.integers(0, [n_e, n_r, n_e], size=(500, 3))})
    eval_set = tuple(triples)
    idx = build_filter_index([eval_set])
    _, records = evaluate(params, eval_set, idx)
    by_key = {(tuple(r.triple), r.side): r for r in records}
    mismatches = 0
    for triple in eval_set:
        h, r, t = triple
        tails = np.array([energy(params, h, r, e) for e in range(n_e)])
        heads = np.array([energy(params, e, r, t) for e in range(n_e)])
        rec_t = by_key[(triple, "tail")]
        rec_h = by_key[(triple, "head")]
        if rec_t.raw_rank != rank_of_truth(tails, t):
            mismatches += 1
        if rec_t.filtered_rank != rank_of_truth(
                tails, t, set(idx.true_tails(h, r)) - {t}):
            mismatches += 1
        if rec_h.raw_rank != rank_of_truth(heads, h):
            mismatches += 1
        if rec_h.filtered_rank > rec_h.raw_rank:
            mismatches += 1
        if rec_t.filtered_rank > rec_t.raw_rank:
            mismatches += 1
    elapsed = time.time() - start
    verdict(3, mismatches == 0 and elapsed < 30.0,
            f"{len(eval_set)} triples, {mismatches} rank mismatches, "
            f"{elapsed:.1f}s")


def test_criterion_4_metric_arithmetic():
    block = MetricBlock.from_ranks(np.array([1.0, 2.0, 4.0]))
    exact = (abs(block.mrr - 7 / 12) < 1e-12
             and abs(block.hits1 - 1 / 3) < 1e-12
             and abs(block.hits3 - 2 / 3) < 1e-12
             and block.hits10 == 1.0)
    rng = np.random.default_rng(4)
    invariant_ok = True
    for _ in range(100):
        ranks = rng.integers(1, 300, size=rng.integers(1, 50)).astype(float)
        b = MetricBlock.from_ranks(ranks)
        invariant_ok &= b.hits1 <= b.hits3 <= b.hits10 <= 1.0
        invariant_ok &= 0.0 < b.mrr <= 1.0 and b.mr >= 1.0
    verdict(4, exact and invariant_ok,
            f"ranks {{1,2,4}} exact={exact}, invariants on 100 random "
            f"multisets={invariant_ok}")


def _train_and_eval(kind, dataset, fidx, config):
    start = time.time()
    ckpt = train(dataset, kind, config)
    metrics, _ = evaluate(ckpt.params, dataset.test, fidx, p=config.p)
    return ckpt, metrics, time.time() - start


def test_criterion_5_symmetric_pattern_separation():
    splits = synth.generate("symmetric", 40, 200, 0.5, seed=0)
    dataset = build_dataset(splits.train, splits.valid, splits.test)
    fidx = build_filter_index([dataset.train, dataset.valid, dataset.test])
    config = desk_config()

    lse_ckpt, lse_m, lse_t = _train_and_eval(ModelKind.LSE_D, dataset,
                                             fidx, config)
    tr_ckpt, tr_m, tr_t = _train_and_eval(ModelKind.TRANSE, dataset,
                                          fidx, config)
    ratio = (np.linalg.norm(tr_ckpt.params.relation_vectors, axis=1).mean()
             / np.linalg.norm(tr_ckpt.params.entities, axis=1).mean())
    lse_h10 = lse_m.filtered.hits10
    tr_h10 = tr_m.filtered.hits10
    ok = (lse_h10 >= 0.90 and lse_h10 - tr_h10 >= 0.30 and ratio < 0.1
          and lse_t < 120 and tr_t < 120)
    verdict(5, ok,
            f"lse_d h10={lse_h10:.3f} (>=0.90), transe h10={tr_h10:.3f} "
            f"(gap {lse_h10 - tr_h10:.3f} >= 0.30), "
            f"||r||/entity norm={ratio:.3f} (<0.1), "
            f"runtimes {lse_t:.0f}s/{tr_t:.0f}s (<120s)")


def test_criterion_6_inverse_and_composition():
    config = desk_config()
    results = {}
    for pattern in ("inverse", "composition"):
        splits = synth.generate(pattern, 40, 200, 0.5, seed=0)
        dataset = build_dataset(splits.train, splits.valid, splits.test)
        fidx = build_filter_index([dataset.train, dataset.valid,
                                   dataset.test])
        ckpt, metrics, elapsed = _train_and_eval(ModelKind.LSE_D, dataset,
                                                 fidx, config)
        results[pattern] = (metrics.filtered.hits10, elapsed)
        if pattern == "inverse":
            stats = detect_patterns(dataset.train)
            diag = lemma_diagnostics(ckpt.params, stats)
            inv_residual = min(r["residual"] for r in diag["inverse"])
            results["residual"] = inv_residual
    ok = (results["inverse"][0] >= 0.85
          and results["composition"][0] >= 0.85
          and results["residual"] < 0.3
          and results["inverse"][1] < 180
          and results["composition"][1] < 180)
    verdict(6, ok,
            f"inverse h10={results['inverse'][0]:.3f}, composition "
            f"h10={results['composition'][0]:.3f} (>=0.85), inverse "
            f"residual={results['residual']:.3f} (<0.3), runtimes "
            f"{results['inverse'][1]:.0f}s/{results['composition'][1]:.0f}s")


def test_criterion_7_memorization_capacity():
    rng = np.random.default_rng(7)
    raw = sorted({(f"e{a}", f"r{r}", f"e{b}") for a, r, b in
                  rng.integers(0, [50, 3, 50], size=(260, 3))})[:200]
    dataset = build_dataset(raw)
    fidx = build_filter_index([dataset.train])
    start = time.time()
    ckpt = train(dataset, ModelKind.LSE, desk_config())
    metrics, _ = evaluate(ckpt.params, dataset.train, fidx, p=1)
    elapsed = time.time() - start
    h1 = metrics.filtered.hits1
    verdict(7, h1 >= 0.95 and elapsed < 60,
            f"lse train-set filtered hits@1={h1:.3f} (>=0.95), "
            f"{elapsed:.0f}s (<60s)")


def test_criterion_8_sampler_statistics():
    from lsekg.data import RelationStats
    stats = {0: RelationStats(relation=0, n_triples=1, tph=1.5, hpt=0.5)}
    sampler = NegativeSampler(
        1000, SamplerConfig(mode="bernoulli", negatives_per_positive=1,
                            filter_false_negatives=False, seed=8),
        stats, None)
    pos = np.array([[1, 0, 2]] * 100_000)
    neg = sampler.corrupt_batch(pos)[:, 0, :]
    # a head redraw can reproduce id 1 itself with probability 1/1000, so
    # count changed-tail rows as tail-side corruptions instead
    head_freq = (neg[:, 2] == 2).mean() - (neg == pos).all(axis=1).mean()
    freq_ok = abs(head_freq - 0.75) <= 0.01 + 1e-3

    rng = np.random.default_rng(8)
    raw = sorted({(f"e{a}", "r", f"e{b}") for a, b in
                  rng.integers(0, 40, size=(80, 2)) if a != b})
    dataset = build_dataset(raw)
    fidx = build_filter_index([dataset.train])
    fsampler = NegativeSampler(
        dataset.vocabulary.n_e,
        SamplerConfig(mode="uniform", negatives_per_positive=4,
                      filter_false_negatives=True, seed=8),
        None, fidx)
    emitted = fsampler.corrupt_batch(np.array(dataset.train)).reshape(-1, 3)
    leaked = sum(tuple(map(int, row)) in fidx for row in emitted)
    filter_ok = leaked == 0 and fsampler.redraw_cap_hits == 0
    verdict(8, freq_ok and filter_ok,
            f"bernoulli head freq={head_freq:.4f} (target 0.75 +/- 0.01), "
            f"{leaked} leaked negatives, {fsampler.redraw_cap_hits} cap "
            f"hits")


def test_criterion_9_determinism_and_persistence(tmp_path):
    rng = np.random.default_rng(9)
    raw = sorted({(f"e{a}", f"r{r}", f"e{b}") for a, r, b in
                  rng.integers(0, [25, 2, 25], size=(120, 3))})
    dataset = build_dataset(raw[:80], raw[80:100], raw[100:])
    fidx = build_filter_index([dataset.train, dataset.valid, dataset.test])
    config = desk_config(seed=9)
    config = TrainConfig(**{**config.to_dict(), "max_steps": 300,
                            "eval_every": 100,
                            "sampler": config.sampler})

    trajectories, finals, ckpts = [], [], []
    for _ in range(2):
        log = []
        ckpt = train(dataset, ModelKind.LSE_D, config, log=log.append)
        metrics, _ = evaluate(ckpt.params, dataset.test, fidx, p=config.p)
        trajectories.append(log)
        finals.append(metrics)
        ckpts.append(ckpt)
    det_ok = trajectories[0] == trajectories[1] and finals[0] == finals[1]

    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpts[0], path)
    loaded = load_checkpoint(path)
    n_e, n_r = dataset.vocabulary.n_e, dataset.vocabulary.n_r
    spots = rng.integers(0, [n_e, n_r, n_e], size=(100, 3))
    bitwise = all(energy(ckpts[0].params, h, r, t)
                  == energy(loaded.params, h, r, t)
                  for h, r, t in map(tuple, spots))
    verdict(9, det_ok and bitwise,
            f"trajectory identical={trajectories[0] == trajectories[1]}, "
            f"metrics identical={finals[0] == finals[1]}, 100 reloaded "
            f"energies bitwise={bitwise}")


def test_criterion_10_wn18rr_sanity():
    root = os.environ.get("LSEKG_WN18RR", "data/wn18rr")
    paths = [os.path.join(root, name) for name in
             ("train.txt", "valid.txt", "test.txt")]
    if not all(os.path.exists(p) for p in paths):
        print("\nCRITERION 10: SKIP (WN18RR files not supplied; set "
              "LSEKG_WN18RR to a directory with train/valid/test.txt)")
        pytest.skip("WN18RR files not supplied")
    dataset = build_dataset(*(load_split(p) for p in paths))
    fidx = build_filter_index([dataset.train, dataset.valid, dataset.test])
    config = TrainConfig(loss="ce", margin=6.0, p=1, learning_rate=5e-4,
                         batch_size=512, dim=100, max_steps=50_000,
                         eval_every=5000, patience=3, seed=0,
                         sampler=SamplerConfig(
                             mode="bernoulli", negatives_per_positive=64,
                             seed=0))
    ckpt = train(dataset, ModelKind.LSE_D, config)
    metrics, _ = evaluate(ckpt.params, dataset.test, fidx, p=1)
    mrr, h10 = metrics.filtered.mrr, metrics.filtered.hits10
    verdict(10, mrr >= 0.30 and h10 >= 0.40,
            f"wn18rr filtered mrr={mrr:.3f} (>=0.30), hits@10={h10:.3f} "
            f"(>=0.40)")
