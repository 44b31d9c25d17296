import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lsekg.evaluation
from lsekg import ConsistencyError
from lsekg.data import build_filter_index
from lsekg.evaluation import (TIE_POLICIES, MetricBlock, Metrics,
                              RankRecord, _count_ranks, aggregate,
                              evaluate, parse_structured, rank_of_truth,
                              report)
from lsekg.models import (ModelKind, all_head_energies, all_tail_energies,
                          energy, init_params)


class TestRankOfTruth:
    def test_one_better_candidate(self):
        assert rank_of_truth(np.array([0.5, 0.2, 0.9]), 0) == 2.0

    def test_all_tied_mean_policy(self):
        energies = np.full(5, 1.0)
        for truth in range(5):
            assert rank_of_truth(energies, truth) == 3.0

    def test_tie_policies(self):
        energies = np.full(5, 1.0)
        assert rank_of_truth(energies, 2, tie_policy="optimistic") == 1.0
        assert rank_of_truth(energies, 2, tie_policy="pessimistic") == 5.0

    def test_mask_improves_rank(self):
        energies = np.array([0.5, 0.2, 0.9])
        assert rank_of_truth(energies, 0, mask={1}) == 1.0

    def test_truth_must_not_be_masked(self):
        with pytest.raises(ConsistencyError):
            rank_of_truth(np.array([1.0, 2.0]), 0, mask={0})

    def test_truth_out_of_range(self):
        with pytest.raises(ConsistencyError):
            rank_of_truth(np.array([1.0, 2.0]), 5)

    @pytest.mark.parametrize("mask", [[-1], [7], {1, 4}])
    def test_masked_id_out_of_range(self, mask):
        # -1 would otherwise mask the last candidate
        with pytest.raises(ConsistencyError, match="masked id"):
            rank_of_truth(np.array([0.5, 0.2, 0.1, 0.9]), 3, mask=mask)

    def test_nan_ranks_as_inf(self):
        energies = np.array([np.nan, 0.5, np.nan, np.inf, 2.0])
        # behind 0.5 and 2.0, tied with the other NaN and with +inf
        assert rank_of_truth(energies, 0) == 4.0
        assert rank_of_truth(energies, 3) == 4.0
        # a finite truth is not beaten by, nor tied with, a NaN
        assert rank_of_truth(energies, 4) == 2.0

    def test_invariant_under_candidate_permutation(self):
        rng = np.random.default_rng(0)
        energies = rng.normal(size=50)
        truth = 17
        base = rank_of_truth(energies, truth)
        for _ in range(20):
            perm = rng.permutation(50)
            permuted = energies[perm]
            new_truth = int(np.where(perm == truth)[0][0])
            assert rank_of_truth(permuted, new_truth) == base


@st.composite
def ranking_queries(draw):
    """Energies with ties and NaNs, a truth id, and a known-true set that
    may hold the truth."""
    energies = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, np.nan]), min_size=1,
        max_size=30)))
    truth = draw(st.integers(0, len(energies) - 1))
    known = draw(st.frozensets(st.integers(0, len(energies) - 1)))
    return energies, truth, known


def brute_force_ranks(energies: list, truth: int, known, tie_policy: str
                      ) -> tuple[float, float]:
    """The raw and the filtered rank of `truth`, counted over the
    candidates one by one. A NaN energy counts as +inf; a candidate better
    than the truth adds 1, a tied one 0, 1 or 1/2 by the tie policy; the
    filtered rank skips the known ids other than the truth."""
    def value(e):
        return math.inf if math.isnan(e) else e

    ranks = []
    for skipped in (set(), set(known)):
        better = tied = 0
        for i, e in enumerate(energies):
            if i != truth and i not in skipped:
                better += value(e) < value(energies[truth])
                tied += value(e) == value(energies[truth])
        ranks.append(1.0 + better + {"optimistic": 0, "pessimistic": tied,
                                     "mean": tied / 2}[tie_policy])
    return ranks[0], ranks[1]


@st.composite
def ranking_batches(draw):
    """A (Q, n) energy array with ties, signed zeros, +-inf and NaNs, a
    truth per row and a known-true set per row that may hold the truth."""
    q, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    values = draw(st.lists(st.sampled_from(
        [0.0, -0.0, 0.5, 1.0, -2.0, np.inf, -np.inf, np.nan]),
        min_size=q * n, max_size=q * n))
    truths = draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))
    known = [draw(st.frozensets(st.integers(0, n - 1))) for _ in range(q)]
    return np.array(values).reshape(q, n), np.array(truths), known


class TestOnePassRanks:
    @given(ranking_queries(), st.sampled_from(TIE_POLICIES))
    def test_equal_rank_of_truth(self, query, tie_policy):
        energies, truth, known = query
        ids = np.array(sorted(known), np.int64)
        raw, filtered = _count_ranks(energies[None], np.array([truth]),
                                     np.zeros(len(ids), np.intp), ids,
                                     tie_policy)
        assert (float(raw[0]), float(filtered[0])) == (
            rank_of_truth(energies, truth, None, tie_policy),
            rank_of_truth(energies, truth, known - {truth}, tie_policy))

    @settings(max_examples=200, deadline=None)
    @given(ranking_batches(), st.sampled_from(TIE_POLICIES))
    def test_equal_brute_force(self, batch, tie_policy):
        energies, truths, known = batch
        # the known pairs unsorted, as a chunk's filter lists may come
        pairs = np.array([(i, k) for i, ids in enumerate(known)
                          for k in ids], np.int64).reshape(-1, 2)
        pairs = np.random.default_rng(len(truths)).permutation(pairs)
        raw, filtered = _count_ranks(energies, truths, pairs[:, 0],
                                     pairs[:, 1], tie_policy)
        assert list(zip(raw.tolist(), filtered.tolist())) == [
            brute_force_ranks(row, truth, ids, tie_policy)
            for row, truth, ids in zip(energies.tolist(), truths.tolist(),
                                       known)]


class TestMetricArithmetic:
    def test_ranks_1_2_4(self):
        records = [RankRecord((0, 0, 0), "tail", r, r)
                   for r in (1, 2, 4)]
        m = aggregate(records)
        assert m.filtered.mrr == pytest.approx(7 / 12)
        assert m.filtered.hits1 == pytest.approx(1 / 3)
        assert m.filtered.hits3 == pytest.approx(2 / 3)
        assert m.filtered.hits10 == 1.0
        assert m.filtered.mr == pytest.approx(7 / 3)

    def test_perfect_model(self):
        records = [RankRecord((0, 0, 0), "head", 1, 1)
                   for _ in range(10)]
        m = aggregate(records)
        assert m.filtered.mrr == 1.0
        assert m.filtered.hits1 == 1.0
        assert m.filtered.mr == 1.0

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1,
                    max_size=60))
    def test_invariants_on_random_rank_multisets(self, ranks):
        block = MetricBlock.from_ranks(np.array(ranks, dtype=float))
        assert block.hits1 <= block.hits3 <= block.hits10
        assert 0 < block.mrr <= 1
        assert block.mr >= 1
        assert 1 / block.mr <= block.mrr + 1e-12

    def test_empty(self):
        m = aggregate([])
        assert m.n_queries == 0
        assert m.raw is None and m.filtered is None


def small_setup(kind=ModelKind.LSE_D, n_e=12, n_r=2, n_triples=30, seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(kind, n_e, n_r, 6, seed=seed)
    triples = {tuple(map(int, rng.integers(0, [n_e, n_r, n_e])))
               for _ in range(n_triples)}
    eval_set = tuple(sorted(triples))
    return params, eval_set, build_filter_index([eval_set])


class TestEvaluate:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_ranks_match_brute_force(self, kind):
        params, eval_set, idx = small_setup(kind)
        _, records = evaluate(params, eval_set, idx)
        by_key = {(r.triple, r.side): r for r in records}
        for triple in eval_set:
            h, rel, t = triple
            tail_energies = np.array(
                [energy(params, h, rel, e) for e in range(params.n_e)])
            rec = by_key[(triple, "tail")]
            assert rec.raw_rank == rank_of_truth(tail_energies, t)
            assert rec.filtered_rank == rank_of_truth(
                tail_energies, t, set(idx.true_tails(h, rel)) - {t})
            head_energies = np.array(
                [energy(params, e, rel, t) for e in range(params.n_e)])
            rec = by_key[(triple, "head")]
            assert rec.raw_rank == rank_of_truth(head_energies, h)

    def test_filtered_never_worse_than_raw(self):
        params, eval_set, idx = small_setup(n_triples=60, seed=5)
        metrics, records = evaluate(params, eval_set, idx)
        assert all(r.filtered_rank <= r.raw_rank for r in records)
        assert metrics.filtered.mrr >= metrics.raw.mrr

    def test_two_queries_per_triple(self):
        params, eval_set, idx = small_setup()
        metrics, records = evaluate(params, eval_set, idx)
        assert metrics.n_queries == 2 * len(eval_set)

    def test_pure_function_of_inputs(self):
        params, eval_set, idx = small_setup()
        a, _ = evaluate(params, eval_set, idx)
        b, _ = evaluate(params, eval_set, idx)
        assert a == b

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_all_nan_model_ranks_low(self, kind):
        params, eval_set, idx = small_setup(kind, n_triples=20)
        params.entities[:] = np.nan
        metrics, _ = evaluate(params, eval_set, idx)
        # every truth ties with all other entities
        assert metrics.raw.mrr == pytest.approx(1 / 6.5)
        assert metrics.filtered.mrr < 0.35

    def test_vocabulary_mismatch_rejected(self):
        params, _, idx = small_setup()
        with pytest.raises(ConsistencyError):
            evaluate(params, ((99, 0, 0),), idx)


    @pytest.mark.parametrize("triple", [(-1, 0, 0), (0, 0, -1),
                                        (0, 0, 12), (0, -1, 0),
                                        (0, 2, 0)])
    def test_id_out_of_range_rejected(self, triple):
        params, _, idx = small_setup(n_e=12, n_r=2)
        with pytest.raises(ConsistencyError, match="outside"):
            evaluate(params, ((0, 0, 1), triple), idx)

    def test_unknown_tie_policy_rejected(self):
        params, eval_set, idx = small_setup()
        with pytest.raises(ValueError):
            evaluate(params, eval_set, idx, tie_policy="median")


def oracle_records(params, eval_set, idx, p, tie_policy):
    """The records of `evaluate`, one query at a time: `rank_of_truth`
    over `all_tail_energies` and `all_head_energies`."""
    records = []
    for h, r, t in eval_set:
        triple = (int(h), int(r), int(t))
        for side, energies, truth, known in (
                ("tail", all_tail_energies(params, h, r, p), t,
                 idx.true_tails(h, r)),
                ("head", all_head_energies(params, r, t, p), h,
                 idx.true_heads(r, t))):
            records.append(RankRecord(
                triple, side, rank_of_truth(energies, truth, None, tie_policy),
                rank_of_truth(energies, truth, set(known.tolist()) - {truth},
                              tie_policy)))
    return records


class TestChunkedEvaluate:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("p_norm", [1, 2])
    @pytest.mark.parametrize("tie_policy", TIE_POLICIES)
    @pytest.mark.parametrize("model", ["plain", "tied", "nan"])
    def test_records_equal_the_per_query_oracle(self, monkeypatch, kind,
                                                p_norm, tie_policy, model):
        n_e = 40
        params = init_params(kind, n_e, 3, 5, seed=11)
        rng = np.random.default_rng(12)
        triples = np.unique(rng.integers(0, [n_e, 3, n_e], size=(90, 3)),
                            axis=0)
        rng.shuffle(triples)
        eval_set = triples[:23]
        if model == "tied":
            # a zero relation and repeated rows tie whole candidate sets
            params.relations[1] = 0.0
            params.entities[::4] = params.entities[0]
        elif model == "nan":
            params.entities[[3, 17]] = np.nan
            params.entities[eval_set[0, 0]] = np.nan
            params.entities[eval_set[1, 2], 0] = np.inf
        # the eval set is only partly indexed, so some known sets are empty
        idx = build_filter_index([triples[10:]])
        assert any(not len(idx.true_tails(h, r)) for h, r, _ in eval_set)
        # chunks of 5 triples: 23 is no multiple of 5
        monkeypatch.setattr(lsekg.evaluation, "_CHUNK_ENERGIES", 5 * n_e)
        with np.errstate(invalid="ignore"):
            metrics, records = evaluate(params, eval_set, idx, p_norm,
                                        tie_policy)
            want = oracle_records(params, eval_set, idx, p_norm, tie_policy)
        assert records == want
        assert all(type(x) is float for rec in records
                   for x in (rec.raw_rank, rec.filtered_rank))
        assert metrics == aggregate(want, tie_policy)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1_000])
    def test_chunk_size_leaves_records_equal(self, monkeypatch, chunk):
        params, eval_set, idx = small_setup(ModelKind.LSE, n_triples=40)
        want = evaluate(params, eval_set, idx)
        monkeypatch.setattr(lsekg.evaluation, "_CHUNK_ENERGIES",
                            chunk * params.n_e)
        assert evaluate(params, eval_set, idx) == want

    def test_never_holds_the_whole_set_energy_matrix(self):
        n_e, n_triples = 20_000, 400
        params = init_params(ModelKind.LSE_D, n_e, 4, 2, seed=13)
        rng = np.random.default_rng(13)
        eval_set = rng.integers(0, [n_e, 4, n_e], size=(n_triples, 3))
        idx = build_filter_index([eval_set])
        whole = n_triples * n_e * 8  # one side's energies, 64 MB
        tracemalloc.start()
        try:
            metrics, _ = evaluate(params, eval_set, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert metrics.n_queries == 2 * n_triples
        assert peak < whole / 4

    def test_lse_holds_no_matrix_per_query(self):
        n_e, d, n_triples = 1_000, 128, 300
        params = init_params(ModelKind.LSE, n_e, 40, d, seed=14)
        rng = np.random.default_rng(14)
        eval_set = rng.integers(0, [n_e, 40, n_e], size=(n_triples, 3))
        idx = build_filter_index([eval_set])
        gather = n_triples * d * d * 8  # one (Q, d, d) matrix gather, 39 MB
        tracemalloc.start()
        try:
            evaluate(params, eval_set, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gather / 4

    @pytest.mark.parametrize("known", [(0, 0, 7), (7, 0, 1)])
    def test_known_entity_outside_the_model_rejected(self, known):
        params = init_params(ModelKind.LSE_D, 5, 1, 4, seed=0)
        idx = build_filter_index([((0, 0, 1), known)])
        with pytest.raises(ConsistencyError, match="outside"):
            evaluate(params, ((0, 0, 1),), idx)


class TestReport:
    def test_structured_round_trip(self):
        params, eval_set, idx = small_setup(n_triples=40, seed=9)
        metrics, _ = evaluate(params, eval_set, idx)
        parsed = parse_structured(report(metrics, format="structured"))
        assert parsed["n"] == metrics.n_queries
        assert parsed["tie_policy"] == "mean"
        assert parsed["filtered.mrr"] == pytest.approx(metrics.filtered.mrr,
                                                       abs=1e-6)
        assert parsed["raw.hits10"] == pytest.approx(metrics.raw.hits10,
                                                     abs=1e-6)
        assert parsed["filtered.head.mrr"] == pytest.approx(
            metrics.filtered_by_side["head"].mrr, abs=1e-6)

    def test_text_contains_both_settings(self):
        params, eval_set, idx = small_setup()
        metrics, _ = evaluate(params, eval_set, idx)
        text = report(metrics)
        assert "raw" in text and "filtered" in text
        assert "MRR" in text and "Hits@10" in text

    def test_empty_eval_set(self):
        m = Metrics(n_queries=0, tie_policy="mean")
        assert "no queries" in report(m)
        parsed = parse_structured(report(m, format="structured"))
        assert parsed["n"] == 0
