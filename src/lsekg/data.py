"""Triple files, vocabularies, filter indexes, and per-relation statistics.

Triple files are plain UTF-8 TSV: one `head<TAB>relation<TAB>tail` per line,
no header, LF, CRLF or CR endings — the format the FB15k / FB15k-237 / WN18 /
WN18RR distributions use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain, compress, cycle, repeat
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from lsekg import ConsistencyError, InputError

RawTriple = tuple[str, str, str]


@dataclass(frozen=True)
class Vocabulary:
    """Dense bidirectional entity/relation id maps shared by all splits.

    A name's id is its position in its tuple; `entity_to_id` and
    `relation_to_id` are derived from the tuples. Raises `ConsistencyError`
    unless each tuple holds distinct strings, the names a checkpoint can
    store.
    """

    id_to_entity: tuple[str, ...]
    id_to_relation: tuple[str, ...]
    entity_to_id: dict[str, int] = field(init=False, repr=False,
                                         compare=False)
    relation_to_id: dict[str, int] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        for what, names, attr in (
                ("entities", self.id_to_entity, "entity_to_id"),
                ("relations", self.id_to_relation, "relation_to_id")):
            ids = dict(zip(names, range(len(names))))
            if (len(ids) != len(names)
                    or not all(map(isinstance, names, repeat(str)))):
                raise ConsistencyError(f"vocabulary {what} are not "
                                       f"{len(names)} distinct names")
            object.__setattr__(self, attr, ids)

    @property
    def n_e(self) -> int:
        return len(self.id_to_entity)

    @property
    def n_r(self) -> int:
        return len(self.id_to_relation)

    def encode(self, raw: Sequence[RawTriple]) -> np.ndarray:
        """Raw triples as an (n, 3) int64 array of (head, relation, tail)
        ids. Raises `ConsistencyError` naming the first triple outside the
        vocabulary."""
        tables = (self.entity_to_id, self.relation_to_id, self.entity_to_id)
        ids = np.empty((len(raw), 3), np.int64)
        try:
            for column, table in enumerate(tables):
                ids[:, column] = np.fromiter(
                    map(table.__getitem__, map(itemgetter(column), raw)),
                    np.int64, len(raw))
        except KeyError:
            # the first name missing from its table, in row-major order
            known = map(dict.__contains__, cycle(tables),
                        chain.from_iterable(raw))
            h, r, t = raw[list(known).index(False) // 3]
            raise ConsistencyError(
                f"triple ({h}, {r}, {t}) is outside the vocabulary") from None
        return ids


@dataclass(frozen=True, eq=False)
class Dataset:
    # each split is a C-contiguous (n, 3) int64 array of (head, relation,
    # tail) ids, duplicate-free, in the order of first appearance
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    vocabulary: Vocabulary


def load_split(path) -> list[RawTriple]:
    """Read one TSV split file into raw string triples, order preserved.

    Lines end at LF, CRLF or a lone CR, and a leading byte-order mark is
    dropped. A blank or whitespace-only line is skipped, and each field is
    stripped of whitespace. The first other line, in file order, that does
    not hold 3 tab-separated fields or holds an empty one raises
    `InputError` naming it.

    The file is read and decoded in one call. A good file takes one C-level
    pass over all lines or all fields per step; a bad one, one more loop.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read triple file {path}: {exc}") from exc
    # text mode turns CRLF and CR into LF; `splitlines` would also break
    # at other characters, such as \x0b, \x1c and \u2028
    lines = text.split("\n")
    rows = list(compress(lines, map(str.strip, lines)))
    if not rows:
        return []
    tabs = np.fromiter(map(str.count, rows, repeat("\t")), np.int64,
                       len(rows))
    fields = list(map(str.strip, "\t".join(rows).split("\t")))
    if (tabs == 2).all() and "" not in fields:
        return list(zip(fields[0::3], fields[1::3], fields[2::3]))
    # some row breaks a rule; one that breaks both reports its field count
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 tab-separated "
                             f"fields, got {len(fields)}")
        if not all(map(str.strip, fields)):
            raise InputError(f"{path}:{lineno}: empty head, relation or tail")


def distinct(values) -> np.ndarray:
    """The distinct values of an integer array, flattened and ascending:
    `np.unique(values)`, by one sort and a neighbour mask. numpy 2.4.6's
    `np.unique` hashes instead, and is about 20 times as slow on 87k int64
    keys (tests/test_dependencies.py has the figures)."""
    values = np.sort(values, axis=None)
    keep = np.empty(len(values), bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def first_occurrences(values) -> np.ndarray:
    """Where each distinct value of a 1-d integer array first occurs, in
    ascending order of value: `np.unique(values, return_index=True)[1]`, by
    one argsort and the least position of each run of equal values."""
    order = np.argsort(values)
    ordered = values[order]
    starts = np.empty(len(values), bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.minimum.reduceat(order, np.flatnonzero(starts))


def _tail_major_keys(triples: np.ndarray, n_e: int, n_r: int) -> np.ndarray:
    """The key (h * n_r + r) * n_e + t of each row of an (n, 3) int64 id
    array whose ids lie in [0, n_e) and [0, n_r).

    Raises `ConsistencyError` when the keys of the id ranges, n_e * n_e *
    n_r of them, do not fit in int64.
    """
    if n_e * n_e * n_r > np.iinfo(np.int64).max:
        raise ConsistencyError(
            f"cannot index {n_e} entities and {n_r} relations: "
            f"{n_e}^2 * {n_r} triple keys do not fit in int64")
    h, r, t = triples.T
    return (h * n_r + r) * n_e + t


def encode_split(vocabulary: Vocabulary, raw: Sequence[RawTriple],
                 name: str) -> np.ndarray:
    """One split as an (n, 3) int64 id array that keeps the first
    occurrence of each triple; the repeats dropped are counted in a
    warning. A triple outside the vocabulary raises `ConsistencyError`
    naming the split.
    """
    try:
        ids = vocabulary.encode(raw)
    except ConsistencyError as exc:
        raise ConsistencyError(f"split {name!r}: {exc}") from None
    keys = _tail_major_keys(ids, vocabulary.n_e, vocabulary.n_r)
    first = first_occurrences(keys)
    dropped = len(ids) - len(first)
    if dropped:
        warnings.warn(f"split {name!r}: dropped {dropped} duplicate triples")
    return ids[np.sort(first)]


def build_dataset(train: Iterable[RawTriple],
                  valid: Iterable[RawTriple] = (),
                  test: Iterable[RawTriple] = ()) -> Dataset:
    """Integer-encode three splits over a shared vocabulary.

    The vocabulary is built from the union of all splits (first-appearance
    order). Duplicates within a split are dropped with a warning; entities
    seen only in valid/test are retained but flagged. A name that is not a
    string raises `ConsistencyError` (`Vocabulary`).
    """
    splits = {"train": list(train), "valid": list(valid), "test": list(test)}

    # every name in order of first appearance: a triple's head before its
    # tail, the splits in turn
    triples = list(chain.from_iterable(splits.values()))
    names = [None] * (2 * len(triples))
    names[0::2] = map(itemgetter(0), triples)
    names[1::2] = map(itemgetter(2), triples)
    vocab = Vocabulary(tuple(dict.fromkeys(names)),
                       tuple(dict.fromkeys(map(itemgetter(1), triples))))

    encoded = {name: encode_split(vocab, raw, name)
               for name, raw in splits.items()}

    in_train = np.bincount(encoded["train"][:, ::2].ravel(),
                           minlength=vocab.n_e)
    unseen = np.count_nonzero(in_train == 0)
    if unseen:
        warnings.warn(f"{unseen} entities appear only in valid/test; "
                      "they keep their (untrained) initial embeddings")

    return Dataset(train=encoded["train"], valid=encoded["valid"],
                   test=encoded["test"], vocabulary=vocab)


@dataclass(frozen=True, eq=False)
class FilterIndex:
    """Known-true triple index for the filtered evaluation setting and for
    false-negative screening during sampling.

    The triples are held as two sorted, duplicate-free int64 key arrays over
    the id ranges `n_e` and `n_r`, one more than the largest entity and
    relation id indexed: tail-major keys (h * n_r + r) * n_e + t and
    head-major keys (r * n_e + t) * n_e + h. The known tails of (h, r), or
    heads of (r, t), are then one contiguous run of keys. An id outside
    the ranges is never known.
    """

    n_e: int
    n_r: int
    tail_keys: np.ndarray
    head_keys: np.ndarray
    source_splits: tuple[str, ...] = ()

    def contains(self, triples) -> np.ndarray:
        """Whether each triple of a (..., 3) id array is known-true."""
        triples = np.asarray(triples, np.int64)
        shape = triples.shape[:-1]
        if not len(self.tail_keys):
            return np.zeros(shape, bool)
        h, r, t = triples.reshape(-1, 3).T
        base = self._bases(h, r, self.n_e, self.n_r)
        # -1 matches no key, so an id out of range never aliases a triple
        keys = np.where((base >= 0) & (0 <= t) & (t < self.n_e), base + t, -1)
        pos = np.searchsorted(self.tail_keys, keys)
        np.minimum(pos, len(self.tail_keys) - 1, out=pos)
        return (self.tail_keys[pos] == keys).reshape(shape)

    def __contains__(self, triple) -> bool:
        return bool(self.contains(tuple(triple)))

    def known_tail_pairs(self, heads, relations
                         ) -> tuple[np.ndarray, np.ndarray]:
        """The known tails of every (head, relation) pair in one flat form,
        `(query, ids)`: ids[k] is a known tail of pair query[k]. The pairs
        come sorted by query, then by id."""
        return _pairs(self.tail_keys, self._bases(heads, relations, self.n_e,
                                                  self.n_r), self.n_e)

    def known_head_pairs(self, relations, tails
                         ) -> tuple[np.ndarray, np.ndarray]:
        """The known heads of every (relation, tail) pair, flat as in
        `known_tail_pairs`."""
        return _pairs(self.head_keys, self._bases(relations, tails, self.n_r,
                                                  self.n_e), self.n_e)

    def true_tails(self, head: int, relation: int) -> np.ndarray:
        return self.known_tail_pairs([head], [relation])[1]

    def true_heads(self, relation: int, tail: int) -> np.ndarray:
        return self.known_head_pairs([relation], [tail])[1]

    def _bases(self, major, minor, n_major: int, n_minor: int) -> np.ndarray:
        """The first key of each (major, minor) prefix, (major * n_minor +
        minor) * n_e, or -1 where an id is out of its range."""
        major = np.asarray(major, np.int64)
        minor = np.asarray(minor, np.int64)
        known = ((0 <= major) & (major < n_major)
                 & (0 <= minor) & (minor < n_minor))
        # an id out of range may overflow here; its base is dropped
        return np.where(known, (major * n_minor + minor) * self.n_e, -1)


def _pairs(keys: np.ndarray, bases: np.ndarray, width: int,
           budget: int = 2**63 - 1) -> tuple[np.ndarray, np.ndarray]:
    """The sorted keys in [base, base + width) less their base, as (base
    index, id) pairs, cut to the first `budget` before they are gathered.
    One search bounds every run; a base of -1 has none."""
    ends = np.where(bases < 0, bases, bases + width)
    lo, hi = np.searchsorted(keys, [bases, ends])
    counts = hi - lo
    before = np.cumsum(counts) - counts
    counts = np.clip(budget - before, 0, counts)
    query = np.repeat(np.arange(len(bases)), counts)
    # each pair's offset within its run, plus the run's first key
    at = np.arange(len(query)) + np.repeat(lo - before, counts)
    return query, keys[at] - bases[query]


def build_filter_index(splits: Iterable,
                       names: Iterable[str] = ()) -> FilterIndex:
    """Index the union of the given splits, each an (n, 3) int id array or
    a sequence of id triples, by (head, relation) and (relation, tail).

    Raises `ConsistencyError` for a negative id, or when the keys of the
    id ranges, n_e * n_e * n_r of them, do not fit in int64.
    """
    triples = np.concatenate([np.empty((0, 3), np.int64)] + [
        np.asarray(s, np.int64).reshape(-1, 3) for s in splits])
    if triples.min(initial=0) < 0:
        raise ConsistencyError("a triple to index has a negative id")
    h, r, t = triples.T
    n_e = int(max(h.max(initial=-1), t.max(initial=-1))) + 1
    n_r = int(r.max(initial=-1)) + 1
    return FilterIndex(
        n_e=n_e, n_r=n_r,
        tail_keys=distinct(_tail_major_keys(triples, n_e, n_r)),
        head_keys=distinct((r * n_e + t) * n_e + h),
        source_splits=tuple(names),
    )


INVERSE_THRESHOLD = 0.8


@dataclass
class RelationStats:
    """Per-relation training statistics.

    tph/hpt drive Bernoulli corruption-side selection; the pattern fields
    (symmetry score, inverse partners, composition samples) feed the
    linear-map diagnostics and the synthetic-graph checks.
    """

    n_triples: int = 0
    tph: float = 0.0
    hpt: float = 0.0
    symmetry_score: float = 0.0
    # (partner relation id, score), score >= INVERSE_THRESHOLD
    inverse_partners: list[tuple[int, float]] = field(default_factory=list)
    # (r1, r2, r3, support): support = closed two-hop paths h -r1-> m -r2-> t
    # with (h, r3, t) present
    composition_samples: list[tuple[int, int, int, int]] = field(
        default_factory=list)


def compute_bernoulli_stats(train: np.ndarray) -> dict[int, RelationStats]:
    """tph (triples per distinct head) and hpt (triples per distinct tail)
    for every relation with at least one triple of an (n, 3) id array, in
    ascending relation id."""
    h, r, t = np.asarray(train, np.int64).reshape(-1, 3).T
    n_r = int(r.max(initial=-1)) + 1
    # the triples, distinct heads and distinct tails of each relation
    n, heads, tails = (np.bincount(keys % n_r, minlength=n_r).tolist()
                       for keys in (r, distinct(h * n_r + r),
                                    distinct(t * n_r + r)))
    return {rel: RelationStats(n_triples=n[rel], tph=n[rel] / heads[rel],
                               hpt=n[rel] / tails[rel])
            for rel in range(n_r) if n[rel]}


def detect_patterns(train: np.ndarray, composition_path_cap: int = 100_000
                    ) -> dict[int, RelationStats]:
    """Score symmetry, inverse pairs, and composition closures on a graph,
    an (n, 3) id array. The relations come in ascending id, as do each
    one's inverse partners; for `build_dataset` output that is their order
    of first appearance.

    symmetry_score(r) is the fraction of r-edges whose reverse is also an
    r-edge. An inverse partner (r1, r2) is reported when at least
    `INVERSE_THRESHOLD` of r1-edges have the reversed r2-edge present.
    Composition support counts two-hop paths (h, r1, m), (m, r2, t) closed by
    (h, r3, t). Paths are enumerated in (r1, r2, h, m, t) order, and only
    the first `composition_path_cap` of them are counted.
    """
    stats = compute_bernoulli_stats(train)
    index = build_filter_index([train])
    n_e, n_r, keys = index.n_e, index.n_r, index.tail_keys
    # the distinct edges, in (h, r, t) order
    hr, t = np.divmod(keys, n_e)
    h, r = np.divmod(hr, n_r)
    # pair-major keys: the relations holding an entity pair are one run
    pair_keys = np.sort((h * n_e + t) * n_r + r)
    # (edge, r2) for each r2-edge that reverses an edge
    edge, reverse = _pairs(pair_keys, (t * n_e + h) * n_r, n_r)
    n = np.bincount(r, minlength=n_r)
    # scores[r1, r2]: the share of r1-edges whose reverse is an r2-edge
    scores = np.bincount(r[edge] * n_r + reverse, minlength=n_r * n_r
                         ).reshape(n_r, n_r) / np.maximum(n, 1)[:, None]
    for rel, rs in stats.items():
        rs.symmetry_score = float(scores[rel, rel])
    partners = (scores >= INVERSE_THRESHOLD) & ~np.eye(n_r, dtype=bool)
    for r1, r2 in np.argwhere(partners).tolist():
        stats[r1].inverse_partners.append((r2, float(scores[r1, r2])))

    budget = composition_path_cap
    for r1 in stats:
        h1, m1 = h[r == r1], t[r == r1]
        for r2 in stats:
            if budget <= 0:
                return stats
            # the first paths of (r1, r2) in the budget, and the r3s of each
            path, t2 = _pairs(keys, (m1 * n_r + r2) * n_e, n_e, budget)
            budget -= len(path)
            closing = _pairs(pair_keys, (h1[path] * n_e + t2) * n_r, n_r)[1]
            support = np.bincount(closing, minlength=n_r)
            for r3 in np.flatnonzero(support).tolist():
                stats[r3].composition_samples.append(
                    (r1, r2, r3, int(support[r3])))
    return stats
