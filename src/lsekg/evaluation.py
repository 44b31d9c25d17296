"""Link-prediction evaluation: raw and filtered entity ranking, MRR / MR /
Hits@{1,3,10} aggregated over head- and tail-replacement queries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lsekg import ConsistencyError
from lsekg.data import FilterIndex
from lsekg.models import Parameters, all_entity_energies

TIE_POLICIES = ("optimistic", "pessimistic", "mean")

# `evaluate` ranks its triples in chunks of `_CHUNK_ENERGIES // n_e` (at
# least one), so that each side of a chunk holds at most this many energies,
# 4 MB of float64, however long the eval set. At WN18RR's 40,943 entities a
# chunk holds 12 triples; on a 2-core VM, 8 to 16 queries per scan ran
# fastest there.
_CHUNK_ENERGIES = 1 << 19


def _tie_rank(better, equal, tie_policy: str):
    """The rank of a truth that `better` candidates beat and `equal` tie;
    ints or int arrays."""
    if tie_policy == "optimistic":
        return 1.0 + better
    if tie_policy == "pessimistic":
        return 1.0 + better + equal
    return 1.0 + better + equal / 2.0


def _check_tie_policy(tie_policy: str) -> None:
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")


def _count_ranks(energies: np.ndarray, truths: np.ndarray,
                 query: np.ndarray, known: np.ndarray,
                 tie_policy: str) -> tuple[np.ndarray, np.ndarray]:
    """The raw and the filtered rank of each row's truth in an
    ascending-energy ordering of the row, counted for all rows at once.

    `energies` is (Q, n), `truths` holds the truth's column in each row, and
    (`query`, `known`) are flat pairs: known[k] is a known-true id of row
    query[k], distinct within a row, and may be the truth itself, which is
    never counted. The better and tied candidates are counted once over
    every entity; the filtered rank then takes away those at the known-true
    ids. A NaN energy ranks as +inf: it ties with the other NaNs and +inf,
    and below +inf it is neither better than a truth nor tied with it.
    """
    rows = np.arange(len(truths))
    e_truth = energies[rows, truths]
    last = ~(e_truth < np.inf)  # a NaN or +inf truth
    e_truth = np.where(last, np.inf, e_truth)[:, None]
    better = np.count_nonzero(energies < e_truth, axis=1)
    # less the truth, which ties with itself
    equal = np.count_nonzero(energies == e_truth, axis=1) - 1
    if last.any():
        equal[last] += np.count_nonzero(np.isnan(energies[last]), axis=1)
    raw = _tie_rank(better, equal, tie_policy)
    others = known != truths[query]
    query, known = query[others], known[others]
    e_known, e_truth = energies[query, known], e_truth[query, 0]
    tied = (e_known == e_truth) | (np.isnan(e_known) & last[query])
    better -= np.bincount(query[e_known < e_truth], minlength=len(rows))
    equal -= np.bincount(query[tied], minlength=len(rows))
    return raw, _tie_rank(better, equal, tie_policy)


def _raw_and_filtered_ranks(energies: np.ndarray, truth: int,
                            known: np.ndarray,
                            tie_policy: str) -> tuple[float, float]:
    """The raw and the filtered rank of one query: a batch of one of
    `_count_ranks`. `known`, an int array of distinct ids, may hold the
    truth itself, which is never counted."""
    known = np.asarray(known, np.int64)
    raw, filtered = _count_ranks(
        np.asarray(energies)[None], np.array([truth]),
        np.zeros(len(known), np.intp), known, tie_policy)
    return float(raw[0]), float(filtered[0])


def rank_of_truth(energies: np.ndarray, truth: int,
                  mask=None, tie_policy: str = "mean") -> float:
    """Rank of `truth` in an ascending-energy ordering of the candidates.

    Candidates in `mask` (other known-true entities, filtered setting) are
    excluded. Ties with the truth contribute 0 (optimistic), all
    (pessimistic), or half (mean, the default) to the rank. A NaN energy
    ranks as +inf.
    """
    _check_tie_policy(tie_policy)
    energies = np.asarray(energies)
    if not 0 <= truth < energies.shape[0]:
        raise ConsistencyError(f"truth id {truth} out of range")
    masked = np.zeros(energies.shape[0], dtype=bool)
    if mask is not None:
        masked[list(mask)] = True
        if masked[truth]:
            raise ConsistencyError("truth must not be masked")
    return _raw_and_filtered_ranks(energies, truth, np.flatnonzero(masked),
                                   tie_policy)[1]


@dataclass(frozen=True)
class RankRecord:
    triple: tuple[int, int, int]
    side: str  # "head" | "tail"
    raw_rank: float
    filtered_rank: float


@dataclass(frozen=True)
class MetricBlock:
    n: int
    mrr: float
    mr: float
    hits1: float
    hits3: float
    hits10: float

    @staticmethod
    def from_ranks(ranks: np.ndarray) -> "MetricBlock":
        return MetricBlock(
            n=len(ranks),
            mrr=float((1.0 / ranks).mean()),
            mr=float(ranks.mean()),
            hits1=float((ranks <= 1).mean()),
            hits3=float((ranks <= 3).mean()),
            hits10=float((ranks <= 10).mean()),
        )


@dataclass(frozen=True)
class Metrics:
    n_queries: int
    tie_policy: str
    raw: MetricBlock | None = None
    filtered: MetricBlock | None = None
    raw_by_side: dict = field(default_factory=dict)
    filtered_by_side: dict = field(default_factory=dict)


def aggregate(records: list[RankRecord], tie_policy: str = "mean") -> Metrics:
    """Aggregate rank records into overall and per-side metric blocks."""
    if not records:
        return Metrics(n_queries=0, tie_policy=tie_policy)
    raw = np.array([r.raw_rank for r in records])
    filt = np.array([r.filtered_rank for r in records])
    sides = np.array([r.side for r in records])
    raw_by_side = {}
    filtered_by_side = {}
    for side in ("head", "tail"):
        pick = sides == side
        if pick.any():
            raw_by_side[side] = MetricBlock.from_ranks(raw[pick])
            filtered_by_side[side] = MetricBlock.from_ranks(filt[pick])
    return Metrics(
        n_queries=len(records), tie_policy=tie_policy,
        raw=MetricBlock.from_ranks(raw),
        filtered=MetricBlock.from_ranks(filt),
        raw_by_side=raw_by_side, filtered_by_side=filtered_by_side,
    )


def evaluate(params: Parameters, eval_set,
             filter_index: FilterIndex, p: int = 1,
             tie_policy: str = "mean") -> tuple[Metrics, list[RankRecord]]:
    """Rank the true entity of every triple under head and tail replacement.

    `eval_set` is an (n, 3) int id array or a sequence of id triples. Raw
    ranks consider all entities; filtered ranks exclude the other
    known-true entities recorded in `filter_index`. A triple whose ids lie
    outside the model's entity or relation range, or a known-true entity of
    one of its queries outside the entity range, raises `ConsistencyError`
    before anything is scored.

    The triples are ranked in chunks of at most `_CHUNK_ENERGIES // n_e`,
    each side of a chunk scored as one batch (`all_entity_energies`) and
    counted as one (`_count_ranks`), so a chunk's memory does not grow with
    the eval set.
    """
    _check_tie_policy(tie_policy)
    n_e, n_r = params.n_e, params.n_r
    ids = np.asarray(eval_set, np.int64).reshape(-1, 3)
    outside = ((ids < 0) | (ids >= (n_e, n_r, n_e))).any(axis=1)
    if outside.any():
        raise ConsistencyError(
            f"triple {tuple(ids[outside.argmax()].tolist())} outside the "
            f"model vocabulary (n_e={n_e}, n_r={n_r})")
    heads, rels, tails = ids.T
    sides = (("tail", heads, tails,
              filter_index.known_tail_pairs(heads, rels)),
             ("head", tails, heads,
              filter_index.known_head_pairs(rels, tails)))
    for side, _, _, (query, known) in sides:
        if len(known) and known.max() >= n_e:
            at = query[known.argmax()]
            raise ConsistencyError(
                f"the filter index holds a known {side} {known.max()} of "
                f"triple {tuple(ids[at].tolist())}, outside the model "
                f"vocabulary (n_e={n_e})")
    ranks = np.empty((len(ids), 2, 2))  # triple, side, raw | filtered
    chunk = max(1, _CHUNK_ENERGIES // n_e)
    for lo in range(0, len(ids), chunk):
        hi = min(lo + chunk, len(ids))
        for i, (side, anchors, truths, (query, known)) in enumerate(sides):
            a, b = np.searchsorted(query, (lo, hi))
            energies = all_entity_energies(params, side, anchors[lo:hi],
                                           rels[lo:hi], p)
            ranks[lo:hi, i] = np.stack(_count_ranks(
                energies, truths[lo:hi], query[a:b] - lo, known[a:b],
                tie_policy), axis=1)
    records = [RankRecord(triple=triple, side=side, raw_rank=raw,
                          filtered_rank=filtered)
               for triple, triple_ranks in zip(map(tuple, ids.tolist()),
                                               ranks.tolist())
               for side, (raw, filtered) in zip(("tail", "head"),
                                                triple_ranks)]
    return aggregate(records, tie_policy), records


def _block_lines(prefix: str, block: MetricBlock) -> list[str]:
    return [
        f"{prefix}.mrr={block.mrr:.6f}",
        f"{prefix}.mr={block.mr:.4f}",
        f"{prefix}.hits1={block.hits1:.6f}",
        f"{prefix}.hits3={block.hits3:.6f}",
        f"{prefix}.hits10={block.hits10:.6f}",
        f"{prefix}.n={block.n}",
    ]


def report(metrics: Metrics, format: str = "text") -> str:
    """Render metrics as a human-readable table or as key=value records."""
    if format == "structured":
        lines = [f"n={metrics.n_queries}",
                 f"tie_policy={metrics.tie_policy}"]
        for setting, block, by_side in (
                ("raw", metrics.raw, metrics.raw_by_side),
                ("filtered", metrics.filtered, metrics.filtered_by_side)):
            if block is None:
                continue
            lines += _block_lines(setting, block)
            for side, sblock in sorted(by_side.items()):
                lines += _block_lines(f"{setting}.{side}", sblock)
        return "\n".join(lines) + "\n"

    if metrics.n_queries == 0:
        return ("link prediction: no queries (empty evaluation set)\n"
                f"tie policy: {metrics.tie_policy}\n")
    lines = [f"link prediction over {metrics.n_queries} queries "
             f"(tie policy: {metrics.tie_policy})",
             f"{'':>16} {'MRR':>8} {'MR':>9} {'Hits@1':>8} "
             f"{'Hits@3':>8} {'Hits@10':>8}"]
    for setting, block, by_side in (
            ("raw", metrics.raw, metrics.raw_by_side),
            ("filtered", metrics.filtered, metrics.filtered_by_side)):
        lines.append(f"{setting:>16} {block.mrr:8.3f} {block.mr:9.2f} "
                     f"{block.hits1:8.3f} {block.hits3:8.3f} "
                     f"{block.hits10:8.3f}")
        for side, sblock in sorted(by_side.items()):
            lines.append(f"{setting + '/' + side:>16} {sblock.mrr:8.3f} "
                         f"{sblock.mr:9.2f} {sblock.hits1:8.3f} "
                         f"{sblock.hits3:8.3f} {sblock.hits10:8.3f}")
    return "\n".join(lines) + "\n"


def parse_structured(text: str) -> dict[str, float | int | str]:
    """Parse a structured report back into a flat key -> value mapping."""
    out: dict[str, float | int | str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if key in ("tie_policy",):
            out[key] = value
        elif key == "n" or key.endswith(".n"):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out
