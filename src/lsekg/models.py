"""Scoring models and their analytic gradients.

All four models share one lower-is-better "energy" convention:

    LSE       ||h @ R_r - t||_p      (d x d relation matrix, row vectors)
    LSE_d     ||h * r - t||_p        (elementwise relation vector)
    TransE    ||h + r - t||_p
    DistMult  -((h * t) * r).sum()   (negated similarity; p ignored)

Each kind's math is written once, batched over rows: the relation map
(`map_heads`), the row p-norm (`_row_norms`), the energies
(`_batch_energies`, which also holds DistMult's product) and the
closed-form gradients (`_batch_gradients`). Scalar `energy` and
`energy_gradients` are batches of one, and the training step, the
all-entity block scan and `lemma_diagnostics` call the same functions.
Energies and gradients are pure reads of `Parameters`; the training module
owns all mutation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from lsekg import ConsistencyError
from lsekg.data import RelationStats
from lsekg.seeding import substream


class ModelKind(str, Enum):
    LSE = "lse"
    LSE_D = "lse_d"
    TRANSE = "transe"
    DISTMULT = "distmult"

    @property
    def uses_matrix(self) -> bool:
        return self is ModelKind.LSE


@dataclass
class Parameters:
    kind: ModelKind
    d: int
    entities: np.ndarray                       # (n_e, d)
    relation_vectors: np.ndarray | None = None   # (n_r, d)
    relation_matrices: np.ndarray | None = None  # (n_r, d, d), LSE only

    @property
    def relations(self) -> np.ndarray:
        """The relation table of the kind: matrices for LSE, else vectors."""
        return (self.relation_matrices if self.kind.uses_matrix
                else self.relation_vectors)

    @property
    def n_e(self) -> int:
        return self.entities.shape[0]

    @property
    def n_r(self) -> int:
        return self.relations.shape[0]

    def copy(self) -> "Parameters":
        return Parameters(
            kind=self.kind, d=self.d, entities=self.entities.copy(),
            relation_vectors=None if self.relation_vectors is None
            else self.relation_vectors.copy(),
            relation_matrices=None if self.relation_matrices is None
            else self.relation_matrices.copy(),
        )


@dataclass
class ScoreGradients:
    d_head: np.ndarray
    d_tail: np.ndarray
    d_relation: np.ndarray  # (d,) vector or (d, d) matrix matching the kind


@dataclass(frozen=True)
class RowGrads:
    """A row-sparse gradient: distinct row ids, and one gradient row (a
    vector, or an LSE relation matrix) per id. Its length is its row
    count."""

    ids: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def init_params(kind: ModelKind, n_e: int, n_r: int, d: int,
                seed: int) -> Parameters:
    """Deterministically initialize parameters for `seed`.

    Entities and relation vectors are drawn uniform in [-6/sqrt(d),
    +6/sqrt(d)]; TransE relation vectors are then scaled to unit L2 norm,
    as in TransE's Algorithm 1 (Bordes et al. 2013). Without it a
    translation of norm ~sqrt(12) dwarfs unit-norm entities, so
    sign(h + r - t) = sign(r) for positives and negatives alike and the L1
    hinge gradients on r cancel. Multiplicative parameters start near their
    identity: LSE_d vectors near 1, LSE matrices near I.
    """
    if d < 1 or n_e < 1 or n_r < 1:
        raise ConsistencyError(
            f"invalid model size n_e={n_e} n_r={n_r} d={d}")
    rng = substream(seed, "init")
    kind = ModelKind(kind)
    bound = 6.0 / np.sqrt(d)
    entities = rng.uniform(-bound, bound, size=(n_e, d))
    vectors = matrices = None
    if kind is ModelKind.LSE:
        noise = rng.uniform(-0.1 / np.sqrt(d), 0.1 / np.sqrt(d),
                            size=(n_r, d, d))
        matrices = np.eye(d)[None, :, :] + noise
    elif kind is ModelKind.LSE_D:
        vectors = rng.uniform(1.0 - bound * 0.1, 1.0 + bound * 0.1,
                              size=(n_r, d))
    else:
        vectors = rng.uniform(-bound, bound, size=(n_r, d))
        if kind is ModelKind.TRANSE:
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return Parameters(kind=kind, d=d, entities=entities,
                      relation_vectors=vectors, relation_matrices=matrices)


# ---------------------------------------------------------------------------
# the batched kernel
# ---------------------------------------------------------------------------

def map_heads(params: Parameters, rows: np.ndarray, rels, ids=None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Each kind's relation map applied to a batch of rows: LSE maps x to
    x @ R_r, LSE_d and DistMult to x * r, TransE to x + r. Without `ids`,
    relation `rels` maps every row of `rows`; with them, relation `rels[i]`
    maps row `rows[ids[i]]`.
    """
    kind = params.kind
    if kind is not ModelKind.LSE:
        op = np.add if kind is ModelKind.TRANSE else np.multiply
        if ids is not None:  # map the fresh gather in place
            rows = out = rows[ids]
        return op(rows, params.relation_vectors[rels], out=out)
    mats = params.relation_matrices
    if ids is None:
        return np.matmul(rows, mats[rels], out=out)
    # a matrix map costs d products per element, and a batch's negatives
    # repeat most of its (relation, head) pairs: map each distinct pair
    # once, one product per relation, then gather
    pairs, inv = np.unique(rels * len(rows) + ids, return_inverse=True)
    pair_rels, pair_ids = np.divmod(pairs, len(rows))
    mapped = np.empty((len(pairs), rows.shape[1]))
    for r in np.unique(pair_rels):
        sel = pair_rels == r
        mapped[sel] = rows[pair_ids[sel]] @ mats[r]
    return np.take(mapped, inv, axis=0, out=out)


def _row_norms(residual: np.ndarray, p: int, out: np.ndarray | None = None,
               overwrite: bool = False) -> np.ndarray:
    """The p-norm of each row of `residual`, into `out` if given. With
    `overwrite`, the residual's own buffer takes the |x| or x * x terms."""
    terms = residual if overwrite else None
    if p == 1:
        terms = np.abs(residual, out=terms)
    else:
        terms = np.multiply(residual, residual, out=terms)
    norms = terms.sum(axis=1, out=out)
    return norms if p == 1 else np.sqrt(norms, out=norms)


def _batch_energies(params: Parameters, triples: np.ndarray, p: int):
    """Energies for an (N, 3) id array, plus the residual map(h) - t that
    the backward pass needs (None for DistMult)."""
    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    ents = params.entities
    if params.kind is ModelKind.DISTMULT:
        # (h * t) * r keeps the energy bitwise symmetric under h <-> t
        prod = ents[heads] * ents[tails]
        prod *= params.relation_vectors[rels]
        return -prod.sum(axis=1), None
    # batch-sized temporaries are costly to allocate, so the residual is
    # built in place
    residual = map_heads(params, ents, rels, heads)
    residual -= ents[tails]
    return _row_norms(residual, p), residual


def _batch_gradients(params: Parameters, triples: np.ndarray,
                     coeffs: np.ndarray, residual: np.ndarray | None, p: int,
                     energies: np.ndarray) -> tuple[RowGrads, RowGrads]:
    """Accumulate d(loss)/d(row) for every touched entity row and relation,
    given per-triple coefficients d(loss)/d(energy) and the forward pass's
    residuals and energies for the same rows. The row ids come sorted."""
    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    kind = params.kind
    h_rows = params.entities[heads]
    # d(energy)/d(row) for the head rows, then the tail rows; like the
    # forward pass, this writes into buffers instead of new temporaries
    ent_contrib = np.empty((2 * len(triples), params.d))
    g_head, g_tail = ent_contrib[:len(triples)], ent_contrib[len(triples):]

    if kind is ModelKind.DISTMULT:
        r_rows = params.relation_vectors[rels]
        t_rows = params.entities[tails]
        np.negative(np.multiply(r_rows, t_rows, out=g_head), out=g_head)
        np.negative(np.multiply(h_rows, r_rows, out=g_tail), out=g_tail)
        g_rel = np.negative(np.multiply(h_rows, t_rows, out=h_rows),
                            out=h_rows)
    else:
        # d(energy)/d(residual): sign for L1 (sign(0) := 0), unit vector
        # for L2 (zero at the origin)
        if p == 1:
            s = np.sign(residual)
        else:
            norm = energies[:, None]
            s = np.divide(residual, norm, out=np.zeros_like(residual),
                          where=norm > 0)
        np.negative(s, out=g_tail)
        if kind is ModelKind.LSE:
            uniq_r = np.unique(rels)
            acc_r = np.empty((len(uniq_r), params.d, params.d))
            for i, r in enumerate(uniq_r):
                sel = rels == r
                g_head[sel] = s[sel] @ params.relation_matrices[r].T
                acc_r[i] = h_rows[sel].T @ (coeffs[sel, None] * s[sel])
            relation_grads = RowGrads(uniq_r, acc_r)
        elif kind is ModelKind.LSE_D:
            np.multiply(s, params.relation_vectors[rels], out=g_head)
            g_rel = np.multiply(s, h_rows, out=h_rows)
        else:  # TransE
            g_head[:] = s
            g_rel = s

    # the segment sums run while the batch-sized temporaries above are
    # still held: freeing them first let the allocator hand their pages
    # back, and refaulting them slowed a WN18RR-shaped step by about 10%
    c = coeffs[:, None]
    ent_contrib *= np.concatenate([c, c])
    entity_grads = RowGrads(*_segment_sum(np.concatenate([heads, tails]),
                                          ent_contrib))
    if not kind.uses_matrix:
        g_rel *= c
        relation_grads = RowGrads(*_segment_sum(rels, g_rel))
    return entity_grads, relation_grads


def _segment_sum(ids: np.ndarray, rows: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows that share an id: (sorted unique ids, one sum per id).

    `np.bincount` adds its weights in input order, so every sum is bitwise
    the one that `np.add.at` into zeros gives, at a fraction of its cost.
    """
    uniq, inv = np.unique(ids, return_inverse=True)
    d = rows.shape[1]
    slots = (inv[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(slots, weights=rows.ravel(), minlength=len(uniq) * d)
    return uniq, sums.reshape(len(uniq), d)


def energy(params: Parameters, h: int, r: int, t: int, p: int = 1) -> float:
    """Energy of a single triple; lower means more plausible."""
    energies, _ = _batch_energies(params, np.array([[h, r, t]]), p)
    return float(energies[0])


def energy_gradients(params: Parameters, h: int, r: int, t: int,
                     p: int = 1) -> ScoreGradients:
    """Exact (sub)gradient of `energy` w.r.t. the head row, tail row, and
    relation parameters."""
    # the batch's own table holds the head, then the tail, so that their
    # gradients stay apart when h == t
    pair = dataclasses.replace(params, entities=params.entities[[h, t]])
    triple = np.array([[0, r, 1]])
    energies, residual = _batch_energies(pair, triple, p)
    entity, relation = _batch_gradients(pair, triple, np.ones(1), residual,
                                        p, energies)
    return ScoreGradients(d_head=entity.rows[0], d_tail=entity.rows[1],
                          d_relation=relation.rows[0])


# ---------------------------------------------------------------------------
# all-entity ranking
# ---------------------------------------------------------------------------

# Rows per block of the all-entity scan. A (512, d) float64 block stays in
# cache at d = 200, where a whole-table temporary of WN18RR's 40,943 rows is
# 65.5 MB that every query must fault in afresh. On a 2-core VM, 128 rows
# took 1.05x, 2,048 rows 1.3x and 8,192 rows 2.1x the time of 512 rows.
_BLOCK_ROWS = 512


def _scan_entities(params: Parameters, fill, p: int) -> np.ndarray:
    """The p-norm of one residual row per entity, computed block by block.

    `fill(rows, out)` writes the residuals of a block of entity rows into
    `out`, a view of one (block, d) buffer that every block reuses. Each row
    is still summed whole, so the energies are bitwise those of an unblocked
    pass with the same residuals.
    """
    ents = params.entities
    n_e = ents.shape[0]
    energies = np.empty(n_e)
    buf = np.empty((min(_BLOCK_ROWS, n_e), ents.shape[1]))
    for lo in range(0, n_e, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_e)
        res = buf[:hi - lo]
        fill(ents[lo:hi], res)
        _row_norms(res, p, out=energies[lo:hi], overwrite=True)
    return energies


def all_tail_energies(params: Parameters, h: int, r: int,
                      p: int = 1) -> np.ndarray:
    """Energies of (h, r, e) for every entity e, as one batched pass."""
    mapped = map_heads(params, params.entities[h], r)
    if params.kind is ModelKind.DISTMULT:
        return -(params.entities @ mapped)
    return _scan_entities(
        params, lambda rows, out: np.subtract(mapped, rows, out=out), p)


def all_head_energies(params: Parameters, r: int, t: int,
                      p: int = 1) -> np.ndarray:
    """Energies of (e, r, t) for every entity e."""
    t_row = params.entities[t]
    if params.kind is ModelKind.DISTMULT:
        # a diagonal map: (e * r) . t = e . (t * r)
        return -(params.entities @ map_heads(params, t_row, r))

    def fill(rows, out):
        # for LSE, a matmul over one block of rows may block its sums
        # differently from one over the whole table: within 1e-15 relative
        map_heads(params, rows, r, out=out)
        out -= t_row

    return _scan_entities(params, fill, p)


def lemma_diagnostics(params: Parameters,
                      stats: dict[int, RelationStats],
                      symmetry_threshold: float = 0.8,
                      min_composition_support: int = 5,
                      ) -> dict[str, list[dict]]:
    """Residuals of the linear-map identities implied by detected patterns.

    For a symmetric relation the learned map should square to the identity;
    for an inverse pair the two maps should compose to the identity; for a
    composition triple the chained map should equal the third. Matrix
    residuals are Frobenius norms normalized by sqrt(d); diagonal residuals
    are max-abs elementwise. For TransE the report instead carries the
    translation-norm degeneracy witness ||r|| / mean entity norm and the
    L2 norms of the composed translations' residuals.
    """
    kind = params.kind
    d = params.d
    mean_entity_norm = float(
        np.linalg.norm(params.entities, axis=1).mean())
    report: dict[str, list[dict]] = {
        "symmetric": [], "inverse": [], "composition": [],
    }
    transe = kind is ModelKind.TRANSE
    if kind is ModelKind.LSE:
        identity = np.eye(d)
    else:
        identity = np.zeros(d) if transe else np.ones(d)

    def compose(*rels: int) -> np.ndarray:
        # row-vector convention: the map of applying `rels` in order
        out = identity
        for r in rels:
            out = map_heads(params, out, r)
        return out

    def residual(product: np.ndarray, target: np.ndarray) -> float:
        if kind is ModelKind.LSE:
            return float(np.linalg.norm(product - target) / np.sqrt(d))
        if transe:
            return float(np.linalg.norm(product - target))
        return float(np.abs(product - target).max())

    for r, rs in sorted(stats.items()):
        if rs.symmetry_score >= symmetry_threshold:
            rec = {"relation": r, "symmetry_score": rs.symmetry_score}
            if transe:
                norm = residual(compose(r), identity)
                rec["translation_norm"] = norm
                rec["norm_ratio"] = norm / mean_entity_norm
            elif kind is ModelKind.DISTMULT:
                rec["residual"] = 0.0  # symmetric by construction
            else:
                rec["residual"] = residual(compose(r, r), identity)
            report["symmetric"].append(rec)
        for r2, score in rs.inverse_partners:
            key = "translation_sum_norm" if transe else "residual"
            report["inverse"].append({
                "r1": r, "r2": r2, "score": score,
                key: residual(compose(r, r2), identity)})
        for r1, r2, r3, support in rs.composition_samples:
            if support < min_composition_support:
                continue
            key = "translation_residual_norm" if transe else "residual"
            report["composition"].append({
                "r1": r1, "r2": r2, "r3": r3, "support": support,
                key: residual(compose(r1, r2), compose(r3))})

    report["mean_entity_norm"] = mean_entity_norm  # type: ignore[assignment]
    return report
