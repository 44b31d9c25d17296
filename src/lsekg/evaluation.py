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


def rank_of_truth(energies: np.ndarray, truth: int,
                  mask=None, tie_policy: str = "mean") -> float:
    """Rank of `truth` in an ascending-energy ordering of the candidates.

    Candidates in `mask` (other known-true entities, filtered setting) are
    excluded; a truth or masked id outside the candidates raises
    `ConsistencyError`. Ties with the truth contribute 0 (optimistic), all
    (pessimistic), or half (mean, the default) to the rank. A NaN energy
    ranks as +inf. This is the filtered rank of a batch of one of
    `_count_ranks`, which `evaluate` counts with.
    """
    _check_tie_policy(tie_policy)
    energies = np.asarray(energies)
    if not 0 <= truth < energies.shape[0]:
        raise ConsistencyError(f"truth id {truth} out of range")
    masked = np.zeros(energies.shape[0], dtype=bool)
    if mask is not None:
        mask = list(mask)
        outside = [i for i in mask if not 0 <= i < len(masked)]
        if outside:
            raise ConsistencyError(f"masked id {outside[0]} out of range")
        masked[mask] = True
        if masked[truth]:
            raise ConsistencyError("truth must not be masked")
    known = np.flatnonzero(masked)
    return float(_count_ranks(energies[None], np.array([truth]),
                              np.zeros(len(known), np.intp), known,
                              tie_policy)[1][0])


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


def _metrics(raw: np.ndarray, filtered: np.ndarray, by_side: dict,
             tie_policy: str) -> Metrics:
    """Metrics of the raw and filtered ranks of every query, in record
    order, and of each side's: {side: (raw, filtered)}."""
    if not len(raw):
        return Metrics(n_queries=0, tie_policy=tie_policy)
    return Metrics(
        n_queries=len(raw), tie_policy=tie_policy,
        raw=MetricBlock.from_ranks(raw),
        filtered=MetricBlock.from_ranks(filtered),
        raw_by_side={side: MetricBlock.from_ranks(r)
                     for side, (r, _) in by_side.items()},
        filtered_by_side={side: MetricBlock.from_ranks(f)
                          for side, (_, f) in by_side.items()},
    )


def aggregate(records: list[RankRecord], tie_policy: str = "mean") -> Metrics:
    """Aggregate rank records into overall and per-side metric blocks."""
    raw = np.array([r.raw_rank for r in records])
    filt = np.array([r.filtered_rank for r in records])
    sides = np.array([r.side for r in records])
    picks = {side: sides == side for side in ("head", "tail")}
    return _metrics(raw, filt, {side: (raw[pick], filt[pick])
                                for side, pick in picks.items()
                                if pick.any()}, tie_policy)


@np.errstate(over="ignore", invalid="ignore")
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
    the eval set. An energy that overflows, or is NaN, raises none of
    numpy's warnings; a NaN energy ranks as +inf.
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
    chunk = max(1, _CHUNK_ENERGIES // max(n_e, 1))
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
    # tails are side 0 and heads side 1, in `sides` and in each record pair
    by_side = {"head": (ranks[:, 1, 0], ranks[:, 1, 1]),
               "tail": (ranks[:, 0, 0], ranks[:, 0, 1])}
    return _metrics(ranks[..., 0].ravel(), ranks[..., 1].ravel(), by_side,
                    tie_policy), records


def report(metrics: Metrics, format: str = "text") -> str:
    """Render metrics as a human-readable table or as key=value records."""
    # (name, block) of each setting, each followed by its sides'
    rows = []
    for setting, block, by_side in (
            ("raw", metrics.raw, metrics.raw_by_side),
            ("filtered", metrics.filtered, metrics.filtered_by_side)):
        if block is not None:
            rows.append((setting, block))
            rows += [(f"{setting}.{side}", sblock)
                     for side, sblock in sorted(by_side.items())]
    if format == "structured":
        lines = [f"n={metrics.n_queries}",
                 f"tie_policy={metrics.tie_policy}"]
        for name, b in rows:
            lines += [f"{name}.mrr={b.mrr:.6f}", f"{name}.mr={b.mr:.4f}",
                      f"{name}.hits1={b.hits1:.6f}",
                      f"{name}.hits3={b.hits3:.6f}",
                      f"{name}.hits10={b.hits10:.6f}", f"{name}.n={b.n}"]
    elif metrics.n_queries == 0:
        lines = ["link prediction: no queries (empty evaluation set)",
                 f"tie policy: {metrics.tie_policy}"]
    else:
        lines = [f"link prediction over {metrics.n_queries} queries "
                 f"(tie policy: {metrics.tie_policy})",
                 f"{'':>16} {'MRR':>8} {'MR':>9} {'Hits@1':>8} "
                 f"{'Hits@3':>8} {'Hits@10':>8}"]
        lines += [f"{name.replace('.', '/'):>16} {b.mrr:8.3f} {b.mr:9.2f} "
                  f"{b.hits1:8.3f} {b.hits3:8.3f} {b.hits10:8.3f}"
                  for name, b in rows]
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
