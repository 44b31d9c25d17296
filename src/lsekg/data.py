"""Triple files, vocabularies, filter indexes, and per-relation statistics.

Triple files are plain UTF-8 TSV: one `head<TAB>relation<TAB>tail` per line,
no header, LF or CRLF endings — the format the FB15k / FB15k-237 / WN18 /
WN18RR distributions use.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from lsekg import InputError

RawTriple = tuple[str, str, str]


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


# A split is an ordered, duplicate-free tuple of integer-encoded triples.
TripleSet = tuple[Triple, ...]


@dataclass(frozen=True)
class Vocabulary:
    """Dense bidirectional entity/relation id maps shared by all splits."""

    entity_to_id: dict[str, int]
    id_to_entity: tuple[str, ...]
    relation_to_id: dict[str, int]
    id_to_relation: tuple[str, ...]

    @property
    def n_e(self) -> int:
        return len(self.id_to_entity)

    @property
    def n_r(self) -> int:
        return len(self.id_to_relation)

    def encode(self, raw: RawTriple) -> Triple:
        h, r, t = raw
        return Triple(self.entity_to_id[h], self.relation_to_id[r],
                      self.entity_to_id[t])

    def decode(self, triple: Triple) -> RawTriple:
        return (self.id_to_entity[triple.head],
                self.id_to_relation[triple.relation],
                self.id_to_entity[triple.tail])


@dataclass(frozen=True)
class Dataset:
    train: TripleSet
    valid: TripleSet
    test: TripleSet
    vocabulary: Vocabulary
    # per-split count of dropped duplicate triples
    duplicates_dropped: dict[str, int] = field(default_factory=dict)


def load_split(path) -> list[RawTriple]:
    """Read one TSV split file into raw string triples, order preserved.
    A leading byte-order mark is dropped; an empty field is an error."""
    triples: list[RawTriple] = []
    try:
        with open(path, encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\r\n")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise InputError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, "
                        f"got {len(fields)}")
                h, r, t = (x.strip() for x in fields)
                if not (h and r and t):
                    raise InputError(
                        f"{path}:{lineno}: empty head, relation or tail")
                triples.append((h, r, t))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read triple file {path}: {exc}") from exc
    return triples


def _dedup(raw: Iterable[RawTriple]) -> tuple[list[RawTriple], int]:
    seen: set[RawTriple] = set()
    out: list[RawTriple] = []
    dropped = 0
    for t in raw:
        if t in seen:
            dropped += 1
        else:
            seen.add(t)
            out.append(t)
    return out, dropped


def build_dataset(train: Iterable[RawTriple],
                  valid: Iterable[RawTriple] = (),
                  test: Iterable[RawTriple] = ()) -> Dataset:
    """Integer-encode three splits over a shared vocabulary.

    The vocabulary is built from the union of all splits (first-appearance
    order). Duplicates within a split are dropped with a warning; entities
    seen only in valid/test are retained but flagged.
    """
    splits = {"train": list(train), "valid": list(valid), "test": list(test)}

    entity_to_id: dict[str, int] = {}
    relation_to_id: dict[str, int] = {}
    for raw in splits.values():
        for h, r, t in raw:
            for e in (h, t):
                if e not in entity_to_id:
                    entity_to_id[e] = len(entity_to_id)
            if r not in relation_to_id:
                relation_to_id[r] = len(relation_to_id)

    train_entities = {e for h, _, t in splits["train"] for e in (h, t)}
    unseen = len(entity_to_id) - len(train_entities & set(entity_to_id))
    if unseen:
        warnings.warn(f"{unseen} entities appear only in valid/test; "
                      "they keep their (untrained) initial embeddings")

    vocab = Vocabulary(
        entity_to_id=entity_to_id,
        id_to_entity=tuple(entity_to_id),
        relation_to_id=relation_to_id,
        id_to_relation=tuple(relation_to_id),
    )

    encoded: dict[str, TripleSet] = {}
    duplicates: dict[str, int] = {}
    for name, raw in splits.items():
        deduped, dropped = _dedup(raw)
        if dropped:
            warnings.warn(f"split {name!r}: dropped {dropped} duplicate triples")
            duplicates[name] = dropped
        encoded[name] = tuple(vocab.encode(t) for t in deduped)

    return Dataset(train=encoded["train"], valid=encoded["valid"],
                   test=encoded["test"], vocabulary=vocab,
                   duplicates_dropped=duplicates)


@dataclass(frozen=True)
class FilterIndex:
    """Known-true triple index for the filtered evaluation setting and for
    false-negative screening during sampling."""

    tails_of: dict[tuple[int, int], frozenset[int]]
    heads_of: dict[tuple[int, int], frozenset[int]]
    source_splits: tuple[str, ...] = ()

    def __contains__(self, triple: Triple) -> bool:
        h, r, t = triple
        return t in self.tails_of.get((h, r), ())

    def true_tails(self, head: int, relation: int) -> frozenset[int]:
        return self.tails_of.get((head, relation), frozenset())

    def true_heads(self, relation: int, tail: int) -> frozenset[int]:
        return self.heads_of.get((relation, tail), frozenset())


def build_filter_index(splits: Iterable[TripleSet],
                       names: Iterable[str] = ()) -> FilterIndex:
    """Index the union of the given splits by (head, relation) and
    (relation, tail)."""
    tails: dict[tuple[int, int], set[int]] = defaultdict(set)
    heads: dict[tuple[int, int], set[int]] = defaultdict(set)
    for split in splits:
        for h, r, t in split:
            tails[(h, r)].add(t)
            heads[(r, t)].add(h)
    return FilterIndex(
        tails_of={k: frozenset(v) for k, v in tails.items()},
        heads_of={k: frozenset(v) for k, v in heads.items()},
        source_splits=tuple(names),
    )


@dataclass
class RelationStats:
    """Per-relation training statistics.

    tph/hpt drive Bernoulli corruption-side selection; the pattern fields
    (symmetry score, inverse partners, composition samples) feed the
    linear-map diagnostics and the synthetic-graph checks.
    """

    relation: int
    n_triples: int = 0
    tph: float = 0.0
    hpt: float = 0.0
    symmetry_score: float = 0.0
    # (partner relation id, score), score >= the detection threshold
    inverse_partners: list[tuple[int, float]] = field(default_factory=list)
    # (r1, r2, r3, support): support = closed two-hop paths h -r1-> m -r2-> t
    # with (h, r3, t) present
    composition_samples: list[tuple[int, int, int, int]] = field(
        default_factory=list)


def compute_bernoulli_stats(train: TripleSet) -> dict[int, RelationStats]:
    """tph (triples per distinct head) and hpt (triples per distinct tail)
    for every relation with at least one training triple."""
    count: dict[int, int] = defaultdict(int)
    heads: dict[int, set[int]] = defaultdict(set)
    tails: dict[int, set[int]] = defaultdict(set)
    for h, r, t in train:
        count[r] += 1
        heads[r].add(h)
        tails[r].add(t)
    return {
        r: RelationStats(relation=r, n_triples=n,
                         tph=n / len(heads[r]), hpt=n / len(tails[r]))
        for r, n in count.items()
    }


def detect_patterns(train: TripleSet,
                    inverse_threshold: float = 0.8,
                    composition_path_cap: int = 100_000,
                    ) -> dict[int, RelationStats]:
    """Score symmetry, inverse pairs, and composition closures on a graph.

    symmetry_score(r) is the fraction of r-edges whose reverse is also an
    r-edge. An inverse partner (r1, r2) is reported when at least
    `inverse_threshold` of r1-edges have the reversed r2-edge present.
    Composition support counts two-hop paths (h, r1, m), (m, r2, t) closed by
    (h, r3, t); path enumeration stops after `composition_path_cap` paths.
    """
    stats = compute_bernoulli_stats(train)

    edges: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for h, r, t in train:
        edges[r].add((h, t))
    # all relations holding an edge h -> t, for closure lookups
    rels_of: dict[tuple[int, int], set[int]] = defaultdict(set)
    for r, es in edges.items():
        for e in es:
            rels_of[e].add(r)
    out_by_head: dict[int, dict[int, list[int]]] = {
        r: defaultdict(list) for r in edges
    }
    for r, es in edges.items():
        for h, t in es:
            out_by_head[r][h].append(t)

    for r1, es1 in edges.items():
        reversed_hits = sum((t, h) in es1 for h, t in es1)
        stats[r1].symmetry_score = reversed_hits / len(es1)
        for r2, es2 in edges.items():
            if r2 == r1:
                continue
            score = sum((t, h) in es2 for h, t in es1) / len(es1)
            if score >= inverse_threshold:
                stats[r1].inverse_partners.append((r2, score))

    support: dict[tuple[int, int, int], int] = defaultdict(int)
    paths = 0
    for r1 in sorted(edges):
        for r2 in sorted(edges):
            for h, m in sorted(edges[r1]):
                for t in out_by_head[r2].get(m, ()):
                    paths += 1
                    for r3 in rels_of.get((h, t), ()):
                        support[(r1, r2, r3)] += 1
                    if paths >= composition_path_cap:
                        break
                if paths >= composition_path_cap:
                    break
            if paths >= composition_path_cap:
                break
        if paths >= composition_path_cap:
            break
    for (r1, r2, r3), n in sorted(support.items()):
        stats[r3].composition_samples.append((r1, r2, r3, n))

    return stats
