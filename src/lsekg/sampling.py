"""Negative sampling by head/tail corruption.

Exactly one side of a positive triple is replaced with a uniformly drawn
entity. In Bernoulli mode the corrupted side is chosen with
P(head) = tph / (tph + hpt) so that many-to-one relations are corrupted on
the side less likely to produce a false negative. Optional screening against
the training filter index redraws candidates that are known-true, capped at
100 redraws per negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lsekg import ConsistencyError
from lsekg.data import FilterIndex, RelationStats
from lsekg.seeding import substream

REDRAW_CAP = 100
MODES = ("bernoulli", "uniform")


@dataclass
class SamplerConfig:
    mode: str = field(default="bernoulli", metadata={"choices": MODES})
    negatives_per_positive: int = 1
    filter_false_negatives: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must not be negative")


def corruption_side_probability(stats: RelationStats | None,
                                mode: str) -> float:
    """Probability of replacing the head entity of a triple."""
    if mode == "uniform":
        return 0.5
    if stats is None:
        raise ConsistencyError(
            "bernoulli sampling needs tph/hpt stats for the relation")
    return stats.tph / (stats.tph + stats.hpt)


class NegativeSampler:
    """Stateful corruption sampler; not thread-safe.

    `redraw_cap_hits` counts negatives accepted after exhausting the
    false-negative redraw budget.
    """

    def __init__(self, n_e: int, config: SamplerConfig,
                 stats: dict[int, RelationStats] | None = None,
                 filter_index: FilterIndex | None = None):
        if config.filter_false_negatives and filter_index is None:
            raise ConsistencyError(
                "false-negative screening requires a filter index")
        self.n_e = n_e
        self.config = config
        self.filter_index = filter_index if config.filter_false_negatives else None
        self.rng = substream(config.seed, "sampling")
        self.redraw_cap_hits = 0

        if config.mode == "bernoulli":
            if stats is None:
                raise ConsistencyError(
                    "bernoulli sampling requires relation stats")
            # indexed by relation id; NaN marks a relation without stats
            self._p_head = np.full(max(stats, default=-1) + 1, np.nan)
            for r, rs in stats.items():
                self._p_head[r] = corruption_side_probability(rs, "bernoulli")
        else:
            self._p_head = None

    def _head_probs(self, relations: np.ndarray) -> np.ndarray:
        if self._p_head is None:
            return np.full(relations.shape, 0.5)
        known = (relations >= 0) & (relations < len(self._p_head))
        probs = np.full(relations.shape, np.nan)
        probs[known] = self._p_head[relations[known]]
        missing = np.isnan(probs)
        if missing.any():
            raise ConsistencyError(
                f"no tph/hpt stats for relation {int(relations[missing][0])}")
        return probs

    def corrupt_batch(self, positives: np.ndarray) -> np.ndarray:
        """Corrupt a (B, 3) array of positives into (B, k, 3) negatives.

        The corruption side is drawn independently per negative; draws for
        distinct positives are independent.
        """
        pos = np.asarray(positives)
        b = pos.shape[0]
        k = self.config.negatives_per_positive
        neg = np.repeat(pos[:, None, :], k, axis=1)

        p_head = self._head_probs(pos[:, 1])[:, None]
        replace_head = self.rng.random((b, k)) < p_head
        candidates = self.rng.integers(0, self.n_e, size=(b, k))
        neg[:, :, 0] = np.where(replace_head, candidates, neg[:, :, 0])
        neg[:, :, 2] = np.where(~replace_head, candidates, neg[:, :, 2])

        if self.filter_index is not None:
            self._screen_false_negatives(neg, replace_head)
        return neg

    def _screen_false_negatives(self, neg: np.ndarray,
                                replace_head: np.ndarray) -> None:
        """Redraw the replaced side of each known-true negative until it is
        no longer known-true, at most `REDRAW_CAP` times.

        One key lookup over the batch finds them. Only they are visited, in
        row-major order, so the values drawn are those of a visit of every
        negative.
        """
        index = self.filter_index
        for i, j in zip(*np.nonzero(index.contains(neg))):
            col = 0 if replace_head[i, j] else 2
            redraws = 0
            while index.contains(neg[i, j]):
                if redraws >= REDRAW_CAP:
                    self.redraw_cap_hits += 1
                    break
                neg[i, j, col] = self.rng.integers(0, self.n_e)
                redraws += 1
