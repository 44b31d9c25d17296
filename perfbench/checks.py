"""Correctness checks computed apart from the program.

Energies, ranks, metrics and one training step are recomputed here from the
benchmark's own formulas and compared with what `lsekg` returned. Every
check raises `CheckFailed` with a message naming what disagreed.

Only the configurations the workloads use are covered: the L1 energy
(p = 1) of LSE and LSE_d, and the step of LSE_d under the `ce` loss.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps
# relative width of the band within which a candidate's energy counts as a
# tie with the truth's: two float64 sums of <= 200 terms of like magnitude
# agree to far better than this
TIE_RTOL = 1e-9
METRIC_RTOL = 1e-12


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's recomputation."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def _mapped(params, rows: np.ndarray, r: int) -> np.ndarray:
    """rows R_r (LSE, row vectors times a matrix) or rows * r (LSE_d)."""
    kind = params.kind.value
    if kind == "lse":
        return np.matmul(rows, params.relation_matrices[r])
    if kind == "lse_d":
        return rows * params.relation_vectors[r]
    raise ValueError(f"no reference energy for kind {kind!r}")


def tail_energies(params, h: int, r: int) -> np.ndarray:
    """||h R_r - e||_1 for every entity e."""
    ents = params.entities
    return np.abs(_mapped(params, ents[h], r) - ents).sum(axis=1)


def head_energies(params, r: int, t: int) -> np.ndarray:
    """||e R_r - t||_1 for every entity e."""
    ents = params.entities
    return np.abs(_mapped(params, ents, r) - ents[t]).sum(axis=1)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

class KnownTriples:
    """The benchmark's own filter sets over (head, relation, tail) ids."""

    def __init__(self, triples: np.ndarray):
        self.tails: dict[tuple[int, int], set[int]] = {}
        self.heads: dict[tuple[int, int], set[int]] = {}
        for h, r, t in triples.tolist():
            self.tails.setdefault((h, r), set()).add(t)
            self.heads.setdefault((r, t), set()).add(h)

    def others(self, triple, side: str) -> set[int]:
        h, r, t = triple
        if side == "tail":
            return self.tails.get((h, r), set()) - {t}
        return self.heads.get((r, t), set()) - {h}


def rank_bounds(energies: np.ndarray, truth: int, excluded) -> tuple[int, int]:
    """Lowest and highest rank of the truth among the candidates not
    excluded, where a candidate within the tie band may fall either side."""
    keep = np.ones(len(energies), dtype=bool)
    keep[list(excluded)] = False
    keep[truth] = False
    e_truth = energies[truth]
    band = TIE_RTOL * max(1.0, abs(e_truth))
    others = energies[keep]
    lo = 1 + int((others < e_truth - band).sum())
    return lo, lo + int((np.abs(others - e_truth) <= band).sum())


def query_energies(params, triple, side: str) -> np.ndarray:
    h, r, t = triple
    return tail_energies(params, h, r) if side == "tail" else head_energies(
        params, r, t)


def check_records(params, queries: np.ndarray, records, metrics,
                  known: KnownTriples, sample: np.ndarray) -> None:
    """Check `evaluate`'s output for `queries` (program ids).

    Every triple must have one head and one tail record; the records at
    `sample` must carry the raw and filtered ranks that the benchmark's own
    energies give; and the reported metrics must be those of the ranks.
    """
    expected = {(tuple(q), side) for q in queries.tolist()
                for side in ("head", "tail")}
    got = [(tuple(int(x) for x in rec.triple), rec.side) for rec in records]
    _require(len(got) == len(expected) and set(got) == expected,
             f"{len(got)} rank records for {len(queries)} triples do not "
             "cover each head and tail query once")
    for i in sample.tolist():
        rec = records[i]
        triple = tuple(int(x) for x in rec.triple)
        energies = query_energies(params, triple, rec.side)
        truth = triple[0] if rec.side == "head" else triple[2]
        for name, rank, excluded in (
                ("raw", rec.raw_rank, ()),
                ("filtered", rec.filtered_rank,
                 known.others(triple, rec.side))):
            lo, hi = rank_bounds(energies, truth, excluded)
            _require(lo <= rank <= hi,
                     f"{name} {rec.side} rank of {triple} is {rank}; "
                     f"recomputed {lo}..{hi}")
    raw = np.array([rec.raw_rank for rec in records])
    filtered = np.array([rec.filtered_rank for rec in records])
    _require(metrics.n_queries == len(records),
             f"metrics count {metrics.n_queries} queries, records "
             f"{len(records)}")
    for name, ranks, block in (("raw", raw, metrics.raw),
                               ("filtered", filtered, metrics.filtered)):
        want = {"mrr": (1.0 / ranks).mean(), "mr": ranks.mean(),
                "hits1": (ranks <= 1).mean(), "hits3": (ranks <= 3).mean(),
                "hits10": (ranks <= 10).mean()}
        for key, value in want.items():
            _require(np.isclose(getattr(block, key), value,
                                rtol=METRIC_RTOL, atol=0.0),
                     f"{name} {key} is {getattr(block, key)!r}, its ranks "
                     f"give {float(value)!r}")


def filtered_hits_at_1(params, queries: np.ndarray,
                       known: KnownTriples) -> float:
    """Share of head and tail queries whose truth has strictly the lowest
    energy among the candidates not known to be true."""
    hits = 0
    for triple in map(tuple, queries.tolist()):
        for side, truth in (("tail", triple[2]), ("head", triple[0])):
            energies = query_energies(params, triple, side)
            keep = np.ones(len(energies), dtype=bool)
            keep[list(known.others(triple, side))] = False
            keep[truth] = False
            hits += bool((energies[keep] > energies[truth]).all())
    return hits / (2 * len(queries))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_losses(losses: list[float], steps: int) -> None:
    _require(len(losses) == steps,
             f"{len(losses)} step records for {steps} steps")
    bad = [i + 1 for i, x in enumerate(losses) if not np.isfinite(x)]
    _require(not bad, f"non-finite loss at steps {bad[:5]}")


def check_negatives(pos: np.ndarray, neg: np.ndarray, n_e: int,
                    train_keys: np.ndarray, n_r: int,
                    cap_hits: int) -> None:
    """Each negative keeps its positive's relation, replaces at most one
    side with an entity in range, and is no training triple unless the
    sampler counted a redraw-cap hit for it."""
    rep = np.broadcast_to(pos[:, None, :], neg.shape)
    _require((neg[..., 1] == rep[..., 1]).all(),
             "a negative changed its relation")
    _require(((neg[..., 0] == rep[..., 0]) | (neg[..., 2] == rep[..., 2])
              ).all(), "a negative replaced both head and tail")
    _require(((neg[..., [0, 2]] >= 0) & (neg[..., [0, 2]] < n_e)).all(),
             "a negative entity is out of range")
    keys = triple_keys(neg.reshape(-1, 3), n_e, n_r)
    leaked = int(np.isin(keys, train_keys).sum())
    _require(leaked <= cap_hits,
             f"{leaked} negatives are training triples, {cap_hits} "
             "redraw-cap hits counted")


def triple_keys(triples: np.ndarray, n_e: int, n_r: int) -> np.ndarray:
    t = triples.astype(np.int64)
    return (t[:, 0] * n_r + t[:, 1]) * n_e + t[:, 2]


def _batch_residuals(before, pos: np.ndarray, neg: np.ndarray):
    """Ids of the positives then the negatives, and their LSE_d (p = 1)
    residuals h * r - t."""
    _require(before.kind.value == "lse_d", "the ce step check covers LSE_d")
    flat = np.concatenate([pos, neg.reshape(-1, 3)]).astype(np.int64)
    h, r, t = flat[:, 0], flat[:, 1], flat[:, 2]
    residual = (before.entities[h] * before.relation_vectors[r]
                - before.entities[t])
    return (h, r, t), residual


def median_batch_energy(before, pos: np.ndarray, neg: np.ndarray) -> float:
    """The median L1 energy of a batch's positives and negatives; with this
    as the margin, the logistic terms of the ce loss are mid-range."""
    return float(np.median(np.abs(_batch_residuals(before, pos, neg)[1])
                           .sum(axis=1)))


def ce_coefficients(before, pos: np.ndarray, neg: np.ndarray,
                    margin: float) -> np.ndarray:
    """d(loss)/d(energy) of LSE_d (p = 1) under the `ce` loss, positives
    first, then the negatives row by row.

    Loss per batch: mean over positives of
    -log s(g - e+) - (1/k) sum_j log(1 - s(g - e-_j)), s the logistic
    function; its derivative is (1 - s(g - e+))/b for a positive's energy
    and -s(g - e-)/(b k) for a negative's.
    """
    b, k = neg.shape[:2]
    energy = np.abs(_batch_residuals(before, pos, neg)[1]).sum(axis=1)
    prob = 0.5 * (1.0 + np.tanh(0.5 * (margin - energy)))  # s(g - e)
    return np.concatenate([(1.0 - prob[:b]) / b, -prob[b:] / (b * k)])


def expected_step(before, pos: np.ndarray, neg: np.ndarray,
                  coef: np.ndarray, learning_rate: float):
    """One SGD step of LSE_d (p = 1) with the given energy derivatives
    (`ce_coefficients`), recomputed: the L1 gradient, an `np.add.at` scatter
    and the update. Returns, for "entity" and "relation", the expected
    table, a per-element tolerance and the ids of the touched rows."""
    (h, r, t), residual = _batch_residuals(before, pos, neg)
    ents, rels = before.entities, before.relation_vectors
    direction = np.sign(residual) * coef[:, None]

    contrib_e = np.concatenate([direction * rels[r], -direction])
    rows_e = np.concatenate([h, t])
    contrib_r = direction * ents[h]

    def scatter(n_rows, ids, contrib, table):
        grad = np.zeros((n_rows, contrib.shape[1]))
        np.add.at(grad, ids, contrib)
        mass = np.zeros_like(grad)
        np.add.at(mass, ids, np.abs(contrib))
        count = np.bincount(ids, minlength=n_rows)[:, None]
        touched = np.unique(ids)
        expected = table.copy()
        expected[touched] -= learning_rate * grad[touched]
        # a sum of n terms in another order differs by at most n eps times
        # the sum of their magnitudes; the update adds 2 eps of the result
        tol = (learning_rate * count * EPS * mass
               + 2 * EPS * np.abs(expected))
        return expected, tol, touched

    return {"entity": scatter(len(ents), rows_e, contrib_e, ents),
            "relation": scatter(len(rels), r, contrib_r, rels)}


def check_step(before, after, pos: np.ndarray, neg: np.ndarray,
               margin: float, learning_rate: float) -> float:
    """Compare the program's parameters after one step with the
    recomputed step: touched rows within tolerance, all other rows bitwise
    unchanged. Returns the largest touched-row difference."""
    tables = expected_step(before, pos, neg,
                           ce_coefficients(before, pos, neg, margin),
                           learning_rate)
    worst = 0.0
    for name, old, new in (
            ("entity", before.entities, after.entities),
            ("relation", before.relation_vectors, after.relation_vectors)):
        expected, tol, touched = tables[name]
        _require(new.shape == old.shape, f"{name} table changed shape")
        diff = np.abs(new[touched] - expected[touched])
        over = ~(diff <= tol[touched])  # a NaN is over too
        _require(not over.any(),
                 f"{int(over.any(axis=1).sum())} touched {name} rows differ "
                 f"from the recomputed step by up to {diff.max():.3g}")
        untouched = np.setdiff1d(np.arange(len(old)), touched)
        moved = ~(new[untouched].view(np.uint64)
                  == old[untouched].view(np.uint64)).all(axis=1)
        _require(not moved.any(),
                 f"{int(moved.sum())} untouched {name} rows changed")
        worst = max(worst, float(diff.max(initial=0.0)))
    return worst
