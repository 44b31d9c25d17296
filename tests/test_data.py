import dataclasses
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lsekg import ConsistencyError, InputError
from lsekg.data import (INVERSE_THRESHOLD, build_dataset, build_filter_index,
                        compute_bernoulli_stats, detect_patterns, load_split)
from lsekg.synth import PATTERNS, generate


@pytest.fixture
def tsv(tmp_path):
    def write(name, lines):
        path = tmp_path / name
        path.write_bytes(b"".join(lines))
        return path
    return write


class TestLoadSplit:
    def test_single_record(self, tsv):
        path = tsv("t.txt", [b"a\tr\tb\n"])
        assert load_split(path) == [("a", "r", "b")]

    def test_empty_file(self, tsv):
        assert load_split(tsv("t.txt", [])) == []

    def test_crlf_and_blank_lines(self, tsv):
        path = tsv("t.txt", [b"a\tr\tb\r\n", b"\n", b"c\tr\td\n"])
        assert load_split(path) == [("a", "r", "b"), ("c", "r", "d")]

    def test_whitespace_trimmed(self, tsv):
        path = tsv("t.txt", [b" a \tr\t b\n"])
        assert load_split(path) == [("a", "r", "b")]

    def test_malformed_line_names_line_number(self, tsv):
        path = tsv("t.txt", [b"a\tr\tb\n", b"a\tb\n"])
        with pytest.raises(InputError, match=":2"):
            load_split(path)

    def test_empty_field_names_line(self, tsv):
        path = tsv("t.txt", [b"a\tr\tb\n", b"a\t\tb\n"])
        with pytest.raises(InputError, match="t.txt:2"):
            load_split(path)

    def test_leading_byte_order_mark_dropped(self, tsv):
        path = tsv("t.txt", [b"\xef\xbb\xbfc\tr\td\n", b"d\tr\tc\n"])
        assert load_split(path) == [("c", "r", "d"), ("d", "r", "c")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_split(tmp_path / "nope.txt")

    def test_order_preserved(self, tsv):
        lines = [f"e{i}\tr\te{i + 1}\n".encode() for i in range(50)]
        triples = load_split(tsv("t.txt", lines))
        assert triples == [(f"e{i}", "r", f"e{i + 1}") for i in range(50)]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "split.txt"


# lines built from the characters a TSV parser must handle, plus bytes that
# are not UTF-8
_TSV_LINES = st.lists(st.one_of(
    st.text(alphabet=st.sampled_from("ab \t\r\u00e9\x00"), max_size=12)
    .map(lambda s: (s + "\n").encode()),
    st.binary(max_size=12)), max_size=8)


class TestLoadSplitFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_TSV_LINES)
    def test_loads_or_raises_input_error(self, fuzz_path, lines):
        fuzz_path.write_bytes(b"".join(lines))
        try:
            triples = load_split(fuzz_path)
        except InputError:
            return
        assert all(len(t) == 3 and all(isinstance(x, str) for x in t)
                   for t in triples)

    def test_invalid_utf8_names_file(self, tsv):
        path = tsv("t.txt", [b"a\tr\tb\n", b"\xff\tr\tb\n"])
        with pytest.raises(InputError, match="t.txt"):
            load_split(path)


class TestBuildDataset:
    def test_encode_decode_round_trip(self):
        raw = [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a")]
        ds = build_dataset(raw)
        v = ds.vocabulary
        assert [(v.id_to_entity[h], v.id_to_relation[r], v.id_to_entity[t])
                for h, r, t in ds.train.tolist()] == raw

    def test_dense_ids(self):
        with pytest.warns(UserWarning, match="2 entities appear only in"):
            ds = build_dataset([("a", "r", "b")], [("c", "s", "d")])
        v = ds.vocabulary
        assert sorted(v.entity_to_id.values()) == list(range(v.n_e))
        assert sorted(v.relation_to_id.values()) == list(range(v.n_r))
        for name, i in v.entity_to_id.items():
            assert v.id_to_entity[i] == name

    def test_duplicates_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="1 duplicate"):
            ds = build_dataset([("a", "r", "b"), ("a", "r", "b")])
        assert len(ds.train) == 1
        assert ds.duplicates_dropped["train"] == 1

    def test_unseen_entities_flagged(self):
        with pytest.warns(UserWarning, match="only in valid/test"):
            ds = build_dataset([("a", "r", "b")], test=[("x", "r", "y")])
        assert ds.vocabulary.n_e == 4

    def test_splits_encoded_against_shared_vocab(self):
        ds = build_dataset([("a", "r", "b")], [("b", "r", "a")],
                           [("a", "r", "a")])
        a = ds.vocabulary.entity_to_id["a"]
        b = ds.vocabulary.entity_to_id["b"]
        assert np.array_equal(ds.valid, [(b, 0, a)])
        assert np.array_equal(ds.test, [(a, 0, a)])


# raw triples over few names, so that triples repeat within and across splits
_RAW_TRIPLES = st.tuples(st.sampled_from("abcd"), st.sampled_from("rs"),
                         st.sampled_from("abcde"))


class TestBuildDatasetProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_RAW_TRIPLES, max_size=12), min_size=1,
                    max_size=3))
    @example([[]])
    @example([[], [], []])
    @example([[("a", "r", "b")] * 3, [], [("a", "r", "b"), ("c", "s", "c")]])
    def test_equals_dict_reference(self, splits):
        entity_to_id, relation_to_id = {}, {}
        for split in splits:
            for h, r, t in split:
                entity_to_id.setdefault(h, len(entity_to_id))
                entity_to_id.setdefault(t, len(entity_to_id))
                relation_to_id.setdefault(r, len(relation_to_id))
        names = ("train", "valid", "test")
        expected, dropped = {}, {}
        for name, split in zip(names, splits):
            seen, kept = set(), []
            for triple in split:
                if triple not in seen:
                    seen.add(triple)
                    kept.append(triple)
            expected[name] = [[entity_to_id[h], relation_to_id[r],
                               entity_to_id[t]] for h, r, t in kept]
            if len(split) > len(kept):
                dropped[name] = len(split) - len(kept)
        unseen = set(entity_to_id) - {e for h, _, t in splits[0]
                                      for e in (h, t)}

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = build_dataset(*splits)
        v = ds.vocabulary
        assert list(v.entity_to_id.items()) == list(entity_to_id.items())
        assert list(v.relation_to_id.items()) == list(relation_to_id.items())
        assert v.id_to_entity == tuple(entity_to_id)
        assert v.id_to_relation == tuple(relation_to_id)
        for name in names:
            ids = getattr(ds, name)
            assert ids.dtype == np.int64 and ids.shape[1:] == (3,)
            assert ids.flags.c_contiguous
            assert ids.tolist() == expected.get(name, [])
        assert ds.duplicates_dropped == dropped
        messages = sorted(str(w.message) for w in caught)
        assert messages == sorted(
            [f"split {name!r}: dropped {n} duplicate triples"
             for name, n in dropped.items()]
            + [f"{len(unseen)} entities appear only in valid/test; they "
               "keep their (untrained) initial embeddings"] * bool(unseen))


class TestFilterIndex:
    def test_direct_construction(self):
        ds = build_dataset([("a", "r", "b"), ("a", "r", "c")])
        idx = build_filter_index([ds.train])
        a = ds.vocabulary.entity_to_id["a"]
        b = ds.vocabulary.entity_to_id["b"]
        c = ds.vocabulary.entity_to_id["c"]
        assert set(idx.true_tails(a, 0)) == {b, c}
        assert set(idx.true_heads(0, b)) == {a}

    def test_empty(self):
        idx = build_filter_index([])
        assert set(idx.true_tails(0, 0)) == frozenset()
        assert (0, 0, 0) not in idx

    def test_membership_equals_brute_force_scan(self):
        rng = np.random.default_rng(7)
        n_e, n_r = 30, 4
        splits = [
            tuple(tuple(map(int, rng.integers(0, [n_e, n_r, n_e])))
                  for _ in range(300))
            for _ in range(3)
        ]
        idx = build_filter_index(splits)
        union = {t for s in splits for t in s}
        for h in range(n_e):
            for r in range(n_r):
                for t in range(n_e):
                    assert ((h, r, t) in idx) == (
                        (h, r, t) in union)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2),
                                       st.integers(0, 6)), max_size=25),
                    max_size=3),
           st.booleans())
    @example([], False)
    @example([[]], True)
    def test_lookups_equal_dict_of_sets(self, splits, as_arrays):
        tails, heads = defaultdict(set), defaultdict(set)
        for split in splits:
            for h, r, t in split:
                tails[h, r].add(t)
                heads[r, t].add(h)
        idx = build_filter_index(
            [np.array(s, np.int64).reshape(-1, 3) if as_arrays
             else tuple(tuple(x) for x in s) for s in splits])
        # ids past the index's range, whose keys could alias other triples
        ids = [-1, *range(9), 2**40]
        grid = np.array([[h, r, t] for h in ids for r in ids for t in ids])
        assert idx.contains(grid).tolist() == [
            t in tails.get((h, r), ()) for h, r, t in grid.tolist()]
        for a in ids:
            for b in ids:
                assert idx.true_tails(a, b).tolist() == sorted(
                    tails.get((a, b), ()))
                assert idx.true_heads(a, b).tolist() == sorted(
                    heads.get((a, b), ()))
                assert ((a, b, 0) in idx) == (0 in tails.get((a, b), ()))

    @pytest.mark.parametrize("side", ["tail", "head"])
    def test_pairs_are_the_flat_form_of_the_known_sets(self, side):
        rng = np.random.default_rng(8)
        triples = rng.integers(0, [9, 3, 9], size=(60, 3))
        idx = build_filter_index([triples])
        # in range, out of range, repeated, and a pair with no known ids
        a = np.array([0, 4, 4, -1, 9, 8, 2**40, 3])
        b = np.array([1, 2, 2, 0, 0, 1, 0, 1])
        if side == "tail":
            query, ids = idx.known_tail_pairs(a, b)
            runs = [idx.true_tails(x, y) for x, y in zip(a, b)]
        else:
            query, ids = idx.known_head_pairs(b, a)
            runs = [idx.true_heads(y, x) for x, y in zip(a, b)]
        assert query.tolist() == [i for i, run in enumerate(runs)
                                  for _ in run]
        assert ids.tolist() == [x for run in runs for x in run.tolist()]
        assert any(not len(run) for run in runs)
        assert idx.known_tails([], []) == [] == idx.known_heads([], [])
        query, ids = idx.known_tail_pairs([], [])
        assert len(query) == len(ids) == 0

    def test_key_overflow_rejected(self):
        with pytest.raises(ConsistencyError, match="int64"):
            build_filter_index([((3_037_000_500, 0, 0),)])

    def test_negative_id_rejected(self):
        with pytest.raises(ConsistencyError, match="negative"):
            build_filter_index([np.array([[0, -1, 0]])])


class TestBernoulliStats:
    def test_hand_counted_example(self):
        ds = build_dataset([("a", "r", "b"), ("a", "r", "c"),
                            ("d", "r", "b")])
        stats = compute_bernoulli_stats(ds.train)
        assert stats[0].tph == pytest.approx(1.5)
        assert stats[0].hpt == pytest.approx(1.5)

    def test_bijection_relation(self):
        ds = build_dataset([("a", "r", "b"), ("c", "r", "d")])
        stats = compute_bernoulli_stats(ds.train)
        assert stats[0].tph == 1.0 and stats[0].hpt == 1.0

    def test_single_triple(self):
        ds = build_dataset([("a", "r", "b")])
        stats = compute_bernoulli_stats(ds.train)
        assert stats[0].tph == 1.0 and stats[0].hpt == 1.0

    def test_relation_without_triples_absent(self):
        ds = build_dataset([("a", "r", "b")], valid=[("a", "s", "b")])
        stats = compute_bernoulli_stats(ds.train)
        assert set(stats) == {ds.vocabulary.relation_to_id["r"]}

    def test_invariant_under_input_permutation(self):
        raw = [(f"e{i}", f"r{i % 3}", f"e{(i * 7) % 11}") for i in range(40)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = compute_bernoulli_stats(build_dataset(raw).train)
            b = compute_bernoulli_stats(build_dataset(raw[::-1]).train)
        for r in a:
            # ids differ between the two vocabularies; compare multisets
            pass
        assert sorted((s.tph, s.hpt) for s in a.values()) == \
            sorted((s.tph, s.hpt) for s in b.values())


class TestDetectPatterns:
    def test_closed_under_reversal(self):
        ds = build_dataset([("a", "r", "b"), ("b", "r", "a"),
                            ("b", "r", "c"), ("c", "r", "b")])
        stats = detect_patterns(ds.train)
        assert stats[0].symmetry_score == 1.0

    def test_no_reversed_edges(self):
        ds = build_dataset([("a", "r", "b"), ("b", "r", "c")])
        stats = detect_patterns(ds.train)
        assert stats[0].symmetry_score == 0.0

    def test_symmetry_score_equals_reversed_graph_score(self):
        rng = np.random.default_rng(3)
        raw = [(f"e{a}", "r", f"e{b}")
               for a, b in rng.integers(0, 12, size=(60, 2)) if a != b]
        reversed_raw = [(t, r, h) for h, r, t in raw]
        with pytest.warns(UserWarning, match="dropped 13 duplicate"):
            forward = detect_patterns(build_dataset(raw).train)
        with pytest.warns(UserWarning, match="dropped 13 duplicate"):
            backward = detect_patterns(build_dataset(reversed_raw).train)
        assert forward[0].symmetry_score == pytest.approx(
            backward[0].symmetry_score)

    def test_inverse_pair_detected(self):
        raw = [(f"a{i}", "r1", f"b{i}") for i in range(10)]
        raw += [(f"b{i}", "r2", f"a{i}") for i in range(10)]
        ds = build_dataset(raw)
        stats = detect_patterns(ds.train)
        r1 = ds.vocabulary.relation_to_id["r1"]
        r2 = ds.vocabulary.relation_to_id["r2"]
        assert (r2, 1.0) in stats[r1].inverse_partners
        assert (r1, 1.0) in stats[r2].inverse_partners

    def test_inverse_below_threshold_not_reported(self):
        raw = [(f"a{i}", "r1", f"b{i}") for i in range(10)]
        raw += [(f"b{i}", "r2", f"a{i}") for i in range(5)]  # score 0.5
        ds = build_dataset(raw)
        stats = detect_patterns(ds.train)
        r1 = ds.vocabulary.relation_to_id["r1"]
        assert stats[r1].inverse_partners == []

    def test_composition_support_by_exhaustive_enumeration(self):
        # r2 := r1 then r1', closed on exactly 20 paths
        raw = []
        for i in range(20):
            raw.append((f"a{i}", "r1", f"b{i}"))
            raw.append((f"b{i}", "r2", f"c{i}"))
            raw.append((f"a{i}", "r3", f"c{i}"))
        ds = build_dataset(raw)
        stats = detect_patterns(ds.train)
        r1 = ds.vocabulary.relation_to_id["r1"]
        r2 = ds.vocabulary.relation_to_id["r2"]
        r3 = ds.vocabulary.relation_to_id["r3"]
        assert (r1, r2, r3, 20) in stats[r3].composition_samples

    def test_composition_path_cap(self):
        raw = []
        for i in range(20):
            raw.append((f"a{i}", "r1", f"b{i}"))
            raw.append((f"b{i}", "r2", f"c{i}"))
            raw.append((f"a{i}", "r3", f"c{i}"))
        ds = build_dataset(raw)
        stats = detect_patterns(ds.train, composition_path_cap=5)
        total = sum(s[3] for rs in stats.values()
                    for s in rs.composition_samples)
        assert total <= 5

    def test_composition_path_cap_keeps_the_first_paths(self):
        chains = []
        for i in range(20):
            chains.append((f"a{i}", "r1", f"b{i}"))
            chains.append((f"b{i}", "r2", f"c{i}"))
            chains.append((f"a{i}", "r3", f"c{i}"))
        # several tails per (r2, m), so a cap can fall inside one m's tails
        hub = [("a", "r1", "b"), ("d", "r1", "b")]
        hub += [("b", "r2", f"c{i}") for i in range(8)]
        hub += [(h, "r3", f"c{i}") for h in "ad" for i in range(8)
                if i % 3 != 1]
        for raw in (chains, hub):
            ds = build_dataset(raw)
            for cap in range(1, 22):
                expected = brute_force_patterns(ds.train, cap)
                stats = detect_patterns(ds.train, composition_path_cap=cap)
                for r, rs in stats.items():
                    assert rs.composition_samples == (
                        expected[r]["composition_samples"]), cap

    @pytest.mark.parametrize("cap", [None, 50, 7, 1])
    def test_equals_brute_force(self, cap):
        graphs = [build_dataset(generate(pattern, 40, 200, 0.5, seed).train)
                  .train for pattern in PATTERNS for seed in range(3)]
        rng = np.random.default_rng(11)
        for _ in range(40):
            # unsorted ids that skip some relations, self-loops included
            n_e, n_r = rng.integers(2, 10), rng.integers(1, 5)
            triples = np.unique(rng.integers(0, [n_e, n_r, n_e],
                                             size=(rng.integers(1, 50), 3)),
                                axis=0)
            graphs.append(rng.permutation(triples))
        for train in graphs:
            expected = brute_force_patterns(train, cap)
            bernoulli = compute_bernoulli_stats(train)
            stats = (detect_patterns(train) if cap is None
                     else detect_patterns(train, composition_path_cap=cap))
            assert list(stats) == list(bernoulli) == list(expected)
            for r, fields in expected.items():
                got = dataclasses.asdict(stats[r])
                got = {key: got[key] for key in fields}
                assert got == fields
                # the same Python types, not numpy scalars
                assert repr(got) == repr(fields)
                assert repr((bernoulli[r].n_triples, bernoulli[r].tph,
                             bernoulli[r].hpt)) == repr(
                    (fields["n_triples"], fields["tph"], fields["hpt"]))


def brute_force_patterns(train: np.ndarray, cap: int | None) -> dict:
    """`detect_patterns`' fields for each relation of a duplicate-free id
    array, counted over the triples one by one: the two-hop paths are
    enumerated in sorted (r1, r2, h, m, t) order, and the first `cap` of
    them (all of them for None) are counted."""
    triples = [tuple(x) for x in train.tolist()]
    known = set(triples)
    relations = sorted({r for _, r, _ in triples})
    expected = {}
    for r in relations:
        edges = [(h, t) for h, r_, t in triples if r_ == r]
        n = len(edges)

        def reversed_share(r2):
            return sum((t, r2, h) in known for h, t in edges) / n

        expected[r] = {
            "n_triples": n,
            "tph": n / len({h for h, _ in edges}),
            "hpt": n / len({t for _, t in edges}),
            "symmetry_score": reversed_share(r),
            "inverse_partners": [
                (r2, reversed_share(r2)) for r2 in relations
                if r2 != r and reversed_share(r2) >= INVERSE_THRESHOLD],
            "composition_samples": [],
        }
    paths = sorted((r1, r2, h, m, t)
                   for h, r1, m in triples
                   for m2, r2, t in triples if m2 == m)
    support = defaultdict(int)
    for r1, r2, h, _, t in paths[:cap]:
        for r3 in relations:
            if (h, r3, t) in known:
                support[(r1, r2, r3)] += 1
    for (r1, r2, r3), n in sorted(support.items()):
        expected[r3]["composition_samples"].append((r1, r2, r3, n))
    return expected
