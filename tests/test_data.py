import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lsekg import InputError
from lsekg.data import (Triple, build_dataset, build_filter_index,
                        compute_bernoulli_stats, detect_patterns, load_split)


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
        assert [ds.vocabulary.decode(t) for t in ds.train] == raw

    def test_dense_ids(self):
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
        assert ds.valid == (Triple(b, 0, a),)
        assert ds.test == (Triple(a, 0, a),)


class TestFilterIndex:
    def test_direct_construction(self):
        ds = build_dataset([("a", "r", "b"), ("a", "r", "c")])
        idx = build_filter_index([ds.train])
        a = ds.vocabulary.entity_to_id["a"]
        b = ds.vocabulary.entity_to_id["b"]
        c = ds.vocabulary.entity_to_id["c"]
        assert idx.true_tails(a, 0) == {b, c}
        assert idx.true_heads(0, b) == {a}

    def test_empty(self):
        idx = build_filter_index([])
        assert idx.true_tails(0, 0) == frozenset()
        assert Triple(0, 0, 0) not in idx

    def test_membership_equals_brute_force_scan(self):
        rng = np.random.default_rng(7)
        n_e, n_r = 30, 4
        splits = [
            tuple(Triple(*map(int, rng.integers(0, [n_e, n_r, n_e])))
                  for _ in range(300))
            for _ in range(3)
        ]
        idx = build_filter_index(splits)
        union = {t for s in splits for t in s}
        for h in range(n_e):
            for r in range(n_r):
                for t in range(n_e):
                    assert (Triple(h, r, t) in idx) == (
                        Triple(h, r, t) in union)


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
        forward = detect_patterns(build_dataset(raw).train)
        reversed_raw = [(t, r, h) for h, r, t in raw]
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
