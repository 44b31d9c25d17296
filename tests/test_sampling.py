import numpy as np
import pytest

from lsekg import ConsistencyError
from lsekg.data import (RelationStats, build_dataset,
                        build_filter_index, compute_bernoulli_stats)
from lsekg.sampling import (REDRAW_CAP, NegativeSampler, SamplerConfig,
                            corruption_side_probability)


def stats(tph, hpt):
    return RelationStats(n_triples=1, tph=tph, hpt=hpt)


class TestSideProbability:
    def test_bernoulli_formula(self):
        assert corruption_side_probability(stats(1.5, 0.5),
                                           "bernoulli") == pytest.approx(0.75)

    def test_balanced_relation(self):
        assert corruption_side_probability(stats(2.0, 2.0),
                                           "bernoulli") == 0.5

    def test_uniform_ignores_stats(self):
        assert corruption_side_probability(stats(9.0, 1.0), "uniform") == 0.5
        assert corruption_side_probability(None, "uniform") == 0.5

    def test_missing_stats_rejected(self):
        with pytest.raises(ConsistencyError):
            corruption_side_probability(None, "bernoulli")


def make_sampler(n_e=20, mode="uniform", k=1, filter_index=None,
                 stats_map=None, seed=0, filter_false_negatives=False):
    config = SamplerConfig(mode=mode, negatives_per_positive=k,
                           filter_false_negatives=filter_false_negatives,
                           seed=seed)
    return NegativeSampler(n_e, config, stats_map, filter_index)


def corrupt_one(sampler, positive):
    """The first negative that `corrupt_batch` draws for one positive."""
    return tuple(map(int, sampler.corrupt_batch(np.array([positive]))[0, 0]))


class TestCorrupt:
    def test_exactly_one_side_changes(self):
        sampler = make_sampler(n_e=50)
        pos = (3, 0, 7)
        for _ in range(200):
            neg = corrupt_one(sampler, pos)
            head_changed = neg[0] != pos[0]
            tail_changed = neg[2] != pos[2]
            assert head_changed != tail_changed or (
                not head_changed and not tail_changed)
            # the replaced side may redraw the original entity by chance,
            # but never both sides at once
            assert neg[1] == pos[1]

    def test_screening_without_filter_index_rejected(self):
        with pytest.raises(ConsistencyError, match="filter index"):
            make_sampler(filter_false_negatives=True)

    def test_relation_never_changes(self):
        sampler = make_sampler(n_e=10, k=5)
        batch = sampler.corrupt_batch(np.array([[1, 0, 2], [3, 0, 4]]))
        assert (batch[:, :, 1] == 0).all()

    def test_two_entity_filtered_case(self):
        # train = {(0, r, 1)}: with filtering, a corrupted head must be 1
        ds = build_dataset([("a", "r", "b")])
        idx = build_filter_index([ds.train])
        sampler = make_sampler(n_e=2, filter_index=idx,
                               filter_false_negatives=True)
        for _ in range(100):
            neg = corrupt_one(sampler, (0, 0, 1))
            assert neg not in idx
        assert sampler.redraw_cap_hits == 0

    def test_redraw_cap_on_complete_graph(self):
        raw = [(f"e{a}", "r", f"e{b}") for a in range(3) for b in range(3)]
        ds = build_dataset(raw)
        idx = build_filter_index([ds.train])
        sampler = make_sampler(n_e=3, filter_index=idx,
                               filter_false_negatives=True)
        sampler.corrupt_batch(np.array([[0, 0, 1]] * 10))
        assert sampler.redraw_cap_hits == 10

    def test_filtered_negatives_not_in_train(self):
        rng = np.random.default_rng(0)
        raw = [(f"e{a}", "r", f"e{b}")
               for a, b in rng.integers(0, 30, size=(60, 2))]
        with pytest.warns(UserWarning, match="dropped 2 duplicate"):
            ds = build_dataset(raw)
        idx = build_filter_index([ds.train])
        sampler = make_sampler(n_e=ds.vocabulary.n_e, k=8, filter_index=idx,
                               filter_false_negatives=True)
        neg = sampler.corrupt_batch(np.array(ds.train))
        assert sampler.redraw_cap_hits == 0
        for row in neg.reshape(-1, 3):
            assert tuple(map(int, row)) not in idx


class LoopScreeningSampler(NegativeSampler):
    """Reference screening: a visit of every negative in row-major order,
    redrawing each known-true one from the filter index's sets."""

    def _screen_false_negatives(self, neg, replace_head):
        index = self.filter_index
        for i in range(neg.shape[0]):
            for j in range(neg.shape[1]):
                h, r, t = (int(x) for x in neg[i, j])
                on_head = bool(replace_head[i, j])
                truths = (index.true_heads(r, t) if on_head
                          else index.true_tails(h, r))
                redraws = 0
                value = h if on_head else t
                while value in truths:
                    if redraws >= REDRAW_CAP:
                        self.redraw_cap_hits += 1
                        break
                    value = int(self.rng.integers(0, self.n_e))
                    redraws += 1
                neg[i, j, 0 if on_head else 2] = value


class TestScreeningMatchesLoop:
    """Key-lookup screening draws what the per-negative loop draws."""

    def check(self, n_e, known, batches, k):
        index = build_filter_index([tuple(tuple(t) for t in known)])
        config = SamplerConfig(mode="uniform", negatives_per_positive=k,
                               filter_false_negatives=True, seed=5)
        fast = NegativeSampler(n_e, config, None, index)
        slow = LoopScreeningSampler(n_e, config, None, index)
        for pos in batches:
            assert np.array_equal(fast.corrupt_batch(pos),
                                  slow.corrupt_batch(pos))
        assert fast.redraw_cap_hits == slow.redraw_cap_hits
        assert fast.rng.random() == slow.rng.random()
        return fast.redraw_cap_hits

    def test_complete_graph(self):
        known = [(a, 0, b) for a in range(3) for b in range(3)]
        hits = self.check(3, known, [np.array(known)] * 3, k=4)
        assert hits == 3 * 9 * 4

    def test_dense_random_graph(self):
        rng = np.random.default_rng(6)
        known = {tuple(t) for t in
                 rng.integers(0, [30, 3, 30], size=(900, 3)).tolist()}
        known |= {(0, 0, t) for t in range(30)}  # (0, 0, ?) is full
        known = sorted(known)
        # relation 4 has no known triple; relation 7 is past the keys'
        # range, so its keys match those of other triples
        pos = np.array(known + [(1, 4, 2), (3, 7, 0)])
        hits = self.check(30, known, [pos, pos[::-1]], k=8)
        assert hits > 0
        assert hits < 2 * len(pos) * 8


class TestGenerateBatch:
    """A batch of negatives drawn by `corrupt_batch`."""

    def test_cardinality(self):
        sampler = make_sampler(k=4)
        out = sampler.corrupt_batch(np.array([(0, 0, 1), (2, 0, 3)]))
        assert len(out) == 2
        assert all(len(negs) == 4 for negs in out)

    def test_deterministic_given_seed(self):
        pos = np.array([(0, 0, 1), (2, 0, 3)])
        a = make_sampler(k=3, seed=42).corrupt_batch(pos)
        b = make_sampler(k=3, seed=42).corrupt_batch(pos)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        pos = np.array([(0, 0, 1)] * 20)
        a = make_sampler(k=3, seed=1).corrupt_batch(pos)
        b = make_sampler(k=3, seed=2).corrupt_batch(pos)
        assert not np.array_equal(a, b)

    def test_replacement_differs_with_expected_probability(self):
        # replaced entity equals the original with probability 1/n_e
        n_e = 10
        sampler = make_sampler(n_e=n_e, seed=3)
        pos = np.array([[1, 0, 2]] * 20000)
        neg = sampler.corrupt_batch(pos)[:, 0, :]
        unchanged = (neg == pos).all(axis=1).mean()
        assert unchanged == pytest.approx(1.0 / n_e, abs=0.01)


class TestBernoulliFrequency:
    def test_head_replacement_frequency(self):
        # tph = 1.5, hpt = 0.5 -> P(head) = 0.75, checked over 1e5 draws
        stats_map = {0: stats(1.5, 0.5)}
        sampler = make_sampler(n_e=1000, mode="bernoulli",
                               stats_map=stats_map, seed=7)
        pos = np.array([[1, 0, 2]] * 100_000)
        neg = sampler.corrupt_batch(pos)[:, 0, :]
        head_freq = (neg[:, 0] != 1).mean()
        # the replaced head can redraw id 1 itself 1/1000 of the time
        assert head_freq == pytest.approx(0.75, abs=0.01)

    def test_frequency_matches_computed_stats(self):
        ds = build_dataset([("a", "r", "b"), ("a", "r", "c"),
                            ("a", "r", "d"), ("e", "r", "b")])
        stats_map = compute_bernoulli_stats(ds.train)
        expected = corruption_side_probability(stats_map[0], "bernoulli")
        sampler = make_sampler(n_e=500, mode="bernoulli",
                               stats_map=stats_map, seed=11)
        pos = np.array([[0, 0, 1]] * 50_000)
        neg = sampler.corrupt_batch(pos)[:, 0, :]
        head_freq = (neg[:, 0] != 0).mean()
        # 3 sigma binomial bound plus the 1/n_e redraw-identity slack
        sigma = np.sqrt(expected * (1 - expected) / 50_000)
        assert abs(head_freq - expected) < 3 * sigma + 1.0 / 500

    def test_missing_relation_stats_named(self):
        sampler = make_sampler(n_e=10, mode="bernoulli",
                               stats_map={0: stats(1.0, 1.0)})
        with pytest.raises(ConsistencyError, match="5"):
            sampler.corrupt_batch(np.array([[0, 5, 1]]))

    def test_relation_gap_in_stats_named(self):
        sampler = make_sampler(n_e=10, mode="bernoulli",
                               stats_map={0: stats(1.0, 1.0),
                                          2: stats(1.0, 1.0)})
        with pytest.raises(ConsistencyError, match="relation 1"):
            sampler.corrupt_batch(np.array([[0, 2, 1], [0, 1, 1]]))
