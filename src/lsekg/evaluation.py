"""Link-prediction evaluation: raw and filtered entity ranking, MRR / MR /
Hits@{1,3,10} aggregated over head- and tail-replacement queries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lsekg import ConsistencyError
from lsekg.data import FilterIndex
from lsekg.models import Parameters, all_head_energies, all_tail_energies

TIE_POLICIES = ("optimistic", "pessimistic", "mean")


def _tie_rank(better: int, equal: int, tie_policy: str) -> float:
    if tie_policy == "optimistic":
        return 1.0 + better
    if tie_policy == "pessimistic":
        return 1.0 + better + equal
    return 1.0 + better + equal / 2.0


def _check_tie_policy(tie_policy: str) -> None:
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")


def _nan_last(energies: np.ndarray, e_truth) -> tuple[np.ndarray, float]:
    """The energies and the truth's energy with NaN read as +inf, so that a
    NaN ranks behind every finite energy and ties with the other NaNs.
    Below +inf a NaN candidate already counts as neither better nor tied,
    so only a NaN or +inf truth needs the copy."""
    if e_truth < np.inf:
        return energies, e_truth
    return np.where(np.isnan(energies), np.inf, energies), np.inf


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
    keep = np.ones(energies.shape[0], dtype=bool)
    if mask is not None:
        keep[list(mask)] = False
        if not keep[truth]:
            raise ConsistencyError("truth must not be masked")
    keep[truth] = False
    energies, e_truth = _nan_last(energies, energies[truth])
    others = energies[keep]
    better = int((others < e_truth).sum())
    equal = int((others == e_truth).sum())
    return _tie_rank(better, equal, tie_policy)


def _raw_and_filtered_ranks(energies: np.ndarray, truth: int,
                            known: np.ndarray,
                            tie_policy: str) -> tuple[float, float]:
    """The raw and the filtered `rank_of_truth` of one query, from one
    comparison pass over all candidates.

    The better and tied candidates are counted once over every entity; the
    filtered rank then takes away those at the known-true ids (`known`, an
    int array, may hold the truth itself, which is never counted).
    """
    energies, e_truth = _nan_last(energies, energies[truth])
    better = np.count_nonzero(energies < e_truth)
    # less the truth, which ties with itself
    equal = np.count_nonzero(energies == e_truth) - 1
    raw = _tie_rank(int(better), int(equal), tie_policy)
    ids = known[known != truth]
    if not len(ids):
        return raw, raw
    e_known = energies[ids]
    better -= np.count_nonzero(e_known < e_truth)
    equal -= np.count_nonzero(e_known == e_truth)
    return raw, _tie_rank(int(better), int(equal), tie_policy)


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
    outside the model's entity or relation range raises `ConsistencyError`
    before anything is scored.
    """
    _check_tie_policy(tie_policy)
    n_e, n_r = params.n_e, params.n_r
    ids = np.asarray(eval_set, np.int64).reshape(-1, 3)
    outside = ((ids < 0) | (ids >= (n_e, n_r, n_e))).any(axis=1)
    if outside.any():
        raise ConsistencyError(
            f"triple {tuple(ids[outside.argmax()].tolist())} outside the "
            f"model vocabulary (n_e={n_e}, n_r={n_r})")
    known_tails = filter_index.known_tails(ids[:, 0], ids[:, 1])
    known_heads = filter_index.known_heads(ids[:, 1], ids[:, 2])
    records: list[RankRecord] = []
    for triple, tails, heads in zip(map(tuple, ids.tolist()), known_tails,
                                    known_heads):
        h, r, t = triple
        raw, filtered = _raw_and_filtered_ranks(
            all_tail_energies(params, h, r, p), t, tails, tie_policy)
        records.append(RankRecord(triple=triple, side="tail",
                                  raw_rank=raw, filtered_rank=filtered))
        raw, filtered = _raw_and_filtered_ranks(
            all_head_energies(params, r, t, p), h, heads, tie_policy)
        records.append(RankRecord(triple=triple, side="head",
                                  raw_rank=raw, filtered_rank=filtered))
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
