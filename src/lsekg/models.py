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
all-entity ranking and `lemma_diagnostics` call the same functions.
`all_entity_energies` ranks every entity for Q queries in one scan loop
over blocks of `_BLOCK_ROWS` rows; its residuals op(E'[e], v_q) - s_q
equal those of `_batch_energies` up to a sign that no p-norm sees. The
training kernels write into the buffers of a `Workspace` that a run
keeps from step to step.
Energies and gradients are pure reads of `Parameters`; the training module
owns all mutation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from lsekg import ConsistencyError
from lsekg.data import INVERSE_THRESHOLD, RelationStats
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
    """A model's tables. `relations` holds one relation map per row: a
    (d, d) matrix for LSE, a (d,) vector for the other kinds. The sizes are
    read from the tables."""

    kind: ModelKind
    entities: np.ndarray   # (n_e, d)
    relations: np.ndarray  # (n_r, d, d) for LSE, else (n_r, d)

    def __post_init__(self):
        if self.relations.shape[1:] != (self.d,) * (1 + self.kind.uses_matrix):
            raise ConsistencyError(
                f"{self.kind.value} tables of shapes {self.entities.shape} "
                f"and {self.relations.shape} do not fit together")

    @property
    def d(self) -> int:
        return self.entities.shape[1]

    @property
    def n_e(self) -> int:
        return self.entities.shape[0]

    @property
    def n_r(self) -> int:
        return self.relations.shape[0]

    @property
    def relation_vectors(self) -> np.ndarray | None:
        """The relation table of a vector kind; None for LSE."""
        return None if self.kind.uses_matrix else self.relations

    @property
    def relation_matrices(self) -> np.ndarray | None:
        """The relation table of LSE; None for the other kinds."""
        return self.relations if self.kind.uses_matrix else None

    def copy(self) -> "Parameters":
        return dataclasses.replace(self, entities=self.entities.copy(),
                                   relations=self.relations.copy())


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
    if kind is ModelKind.LSE:
        noise = rng.uniform(-0.1 / np.sqrt(d), 0.1 / np.sqrt(d),
                            size=(n_r, d, d))
        relations = np.eye(d)[None, :, :] + noise
    elif kind is ModelKind.LSE_D:
        relations = rng.uniform(1.0 - bound * 0.1, 1.0 + bound * 0.1,
                                size=(n_r, d))
    else:
        relations = rng.uniform(-bound, bound, size=(n_r, d))
        if kind is ModelKind.TRANSE:
            relations /= np.linalg.norm(relations, axis=1, keepdims=True)
    return Parameters(kind=kind, entities=entities, relations=relations)


# ---------------------------------------------------------------------------
# the batched kernel
# ---------------------------------------------------------------------------

# Rows per block of the row-wise kernels: the training step's forward and
# backward passes and the all-entity scan. A (512, d) float64 block stays in
# cache at d = 200, where a whole-table temporary of WN18RR's 40,943 rows is
# 65.5 MB that every query must fault in afresh. On a 2-core VM, the scan
# took 1.05x the time of 512 rows with 128 rows, 1.3x with 2,048 and 2.1x
# with 8,192. A WN18RR-shaped LSE_d training step (33,280 rows, d = 100)
# took about as long with 256 and 1,024 rows as with 512, and 1.06x with
# 2,048.
_BLOCK_ROWS = 512


class Workspace:
    """Named buffers that the training kernels write into, kept from one
    call to the next.

    `buffer(name, shape)` returns a view of the buffer kept under `name`,
    allocated anew only when it is too small, so the steps of a run fault
    in no fresh batch-sized pages after the first. A view holds what its
    last user left there. A kernel called without a workspace makes a fresh
    one, whose buffers are new arrays; `train` keeps one for its run.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: tuple[int, ...],
               dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _blocks(n: int):
    """The (lo, hi) bounds of `n` rows in blocks of `_BLOCK_ROWS`."""
    return ((lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def _vector_op(kind: ModelKind):
    """The ufunc of a vector kind's relation map: x + r for TransE, x * r
    for LSE_d and DistMult."""
    return np.add if kind is ModelKind.TRANSE else np.multiply


def map_heads(params: Parameters, rows: np.ndarray, rels, ids=None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Each kind's relation map applied to a batch of rows: LSE maps x to
    x @ R_r, LSE_d and DistMult to x * r, TransE to x + r. Without `ids`,
    relation `rels` maps every row of `rows`; with them, relation `rels[i]`
    maps row `rows[ids[i]]`.
    """
    kind = params.kind
    if kind is not ModelKind.LSE:
        op = _vector_op(kind)
        if ids is not None:
            rows = rows[ids]
            if out is None:  # map the fresh gather in place
                out = rows
        return op(rows, params.relations[rels], out=out)
    mats = params.relations
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
    # every inverse index is in range: "clip" spares the copy through a
    # temporary that "raise" makes of `out`
    return np.take(mapped, inv, axis=0, out=out, mode="clip")


def _row_norms(residual: np.ndarray, p: int, out: np.ndarray | None = None,
               terms: np.ndarray | None = None) -> np.ndarray:
    """The p-norm of each row of `residual`, into `out` if given. The |x| or
    x * x terms go into `terms` if given, which may be `residual` itself."""
    if p == 1:
        terms = np.abs(residual, out=terms)
    else:
        terms = np.multiply(residual, residual, out=terms)
    norms = terms.sum(axis=-1, out=out)
    return norms if p == 1 else np.sqrt(norms, out=norms)


def _batch_energies(params: Parameters, triples: np.ndarray, p: int,
                    workspace: Workspace | None = None):
    """Energies for an (N, 3) id array, plus the residual map(h) - t that
    the backward pass needs (None for DistMult). Both are buffers of
    `workspace`, valid until its next use.

    Each block of `_BLOCK_ROWS` rows is gathered, mapped and normed while
    it is in cache. A row's energy takes only its own elements, so the
    block size does not change it; LSE maps the whole batch first, since
    BLAS blocks a product's sums by its row count.
    """
    ws = Workspace() if workspace is None else workspace
    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    ents = params.entities
    n, d = len(triples), params.d
    energies = ws.buffer("energies", (n,))
    block = ws.buffer("block", (min(n, _BLOCK_ROWS), d))
    if params.kind is ModelKind.DISTMULT:
        for lo, hi in _blocks(n):
            # (h * t) * r keeps the energy bitwise symmetric under h <-> t
            prod = np.multiply(ents[heads[lo:hi]], ents[tails[lo:hi]],
                               out=block[:hi - lo])
            prod *= params.relations[rels[lo:hi]]
            prod.sum(axis=1, out=energies[lo:hi])
        return np.negative(energies, out=energies), None
    residual = ws.buffer("residual", (n, d))
    if params.kind is ModelKind.LSE:
        map_heads(params, ents, rels, heads, out=residual)
    for lo, hi in _blocks(n):
        res = residual[lo:hi]
        if params.kind is not ModelKind.LSE:
            map_heads(params, ents, rels[lo:hi], heads[lo:hi], out=res)
        res -= ents[tails[lo:hi]]
        _row_norms(res, p, out=energies[lo:hi], terms=block[:hi - lo])
    return energies, residual


def _batch_gradients(params: Parameters, triples: np.ndarray,
                     coeffs: np.ndarray, residual: np.ndarray | None, p: int,
                     energies: np.ndarray,
                     workspace: Workspace | None = None
                     ) -> tuple[RowGrads, RowGrads]:
    """Accumulate d(loss)/d(row) for every touched entity row and relation,
    given per-triple coefficients d(loss)/d(energy) and the forward pass's
    residuals and energies for the same rows. The row ids come sorted.

    Each triple's coefficient times d(energy)/d(row) is computed in blocks
    of `_BLOCK_ROWS` rows into contribution buffers of `workspace`, which
    `_segment_sum` then sums per row. LSE's per-relation matrix products
    take the whole batch, as in the forward pass.
    """
    ws = Workspace() if workspace is None else workspace
    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    kind = params.kind
    ents, table = params.entities, params.relations
    n, d = len(triples), params.d
    # the head rows' contributions, then the tail rows'
    ent_contrib = ws.buffer("entity_contrib", (2 * n, d))
    g_head, g_tail = ent_contrib[:n], ent_contrib[n:]
    if not kind.uses_matrix:  # the forward pass's scratch block is free
        units = ws.buffer("block", (min(n, _BLOCK_ROWS), d))
        g_rel = ws.buffer("relation_contrib", (n, d))

    for lo, hi in _blocks(n):
        c = coeffs[lo:hi, None]
        gh, gt = g_head[lo:hi], g_tail[lo:hi]
        if kind is ModelKind.DISTMULT:
            h_rows, t_rows = ents[heads[lo:hi]], ents[tails[lo:hi]]
            r_rows = table[rels[lo:hi]]
            gr = g_rel[lo:hi]
            np.negative(np.multiply(r_rows, t_rows, out=gh), out=gh)
            np.negative(np.multiply(h_rows, r_rows, out=gt), out=gt)
            np.negative(np.multiply(h_rows, t_rows, out=gr), out=gr)
            gh *= c
            gt *= c
            gr *= c
            continue
        # d(energy)/d(residual): sign for L1 (sign(0) := 0), unit vector
        # for L2 (zero at the origin). LSE keeps every row's where its head
        # rows' gradients go, for the products below.
        s = gh if kind.uses_matrix else units[:hi - lo]
        if p == 1:
            np.sign(residual[lo:hi], out=s)
        else:
            norm = energies[lo:hi, None]
            s[...] = 0.0
            np.divide(residual[lo:hi], norm, out=s, where=norm > 0)
        np.negative(s, out=gt)
        gt *= c
        if kind is ModelKind.LSE_D:
            np.multiply(s, table[rels[lo:hi]], out=gh)
            gh *= c
            gr = np.multiply(s, ents[heads[lo:hi]], out=g_rel[lo:hi])
            gr *= c
        elif kind is ModelKind.TRANSE:
            np.multiply(s, c, out=gh)
            np.multiply(s, c, out=g_rel[lo:hi])

    if kind.uses_matrix:
        uniq_r = np.unique(rels)
        acc_r = np.empty((len(uniq_r), d, d))
        for i, r in enumerate(uniq_r):
            sel = rels == r
            s = g_head[sel]
            acc_r[i] = ents[heads[sel]].T @ (coeffs[sel, None] * s)
            g_head[sel] = s @ table[r].T
        g_head *= coeffs[:, None]
        relation_grads = RowGrads(uniq_r, acc_r)
    else:
        relation_grads = RowGrads(*_segment_sum(rels, g_rel, ws))
    entity_grads = RowGrads(*_segment_sum(np.concatenate([heads, tails]),
                                          ent_contrib, ws))
    return entity_grads, relation_grads


def _segment_sum(ids: np.ndarray, rows: np.ndarray,
                 workspace: Workspace | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sum the (N, d) rows that share an id: (sorted unique ids, one sum
    per id).

    Every sum adds its rows in input order, starting from +0.0, so it is
    bitwise the one that `np.add.at` into zeros gives. One sort of the
    distinct keys id·N + position orders the rows stably by id, then one of
    two paths adds them, the one with the shorter Python loop:

    - by slices, one iteration per id, when there are no more ids than
      the deepest id has rows, as in a batch's relations and a small
      graph's entities. `sum(axis=0)` adds the rows of a C-ordered (m, d)
      gather one after another; along a single column (d = 1) it would sum
      pairwise, so d = 1 never takes this path.
    - otherwise by occurrence layers, one iteration per layer, as in the
      entities of a batch from a large graph; there are as many layers as
      the deepest id has rows. Each id starts from its first row; layer j
      adds the j-th row of every id with more than j rows. With those ids
      ordered by depth, most rows first, a layer's ids are a prefix, so a
      layer is one gather into a `workspace` buffer and one add in place.
      The ids go in blocks of `_BLOCK_ROWS`, so the two buffers stay in
      cache and keep their size from call to call.

    Both start from each id's first row, and `+= 0.0` turns the -0.0 that
    this gives for an id of only -0.0 rows into the +0.0 of a sum from
    zero.
    """
    ws = Workspace() if workspace is None else workspace
    n, d = rows.shape
    if not n:
        return np.unique(ids), np.zeros((0, d))
    keys = np.multiply(ids, n, dtype=np.int64)
    keys += np.arange(n)
    keys.sort()
    order = keys % n
    sorted_ids = ids[order]
    # where each id's rows start, and where the last one's end
    bounds = np.ones(n + 1, bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=bounds[1:n])
    edges = np.flatnonzero(bounds)
    starts, counts = edges[:-1], np.diff(edges)
    uniq = sorted_ids[starts]
    if d > 1 and len(uniq) <= counts.max():
        sums = np.empty((len(uniq), d))
        edges = edges.tolist()
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            rows[order[lo:hi]].sum(axis=0, out=sums[i])
    else:
        sums = np.take(rows, order[starts], axis=0)
        # the ids of more than one row, deepest first
        deep = np.flatnonzero(counts > 1)
        deep = deep[np.argsort(-counts[deep], kind="stable")]
        for lo, hi in _blocks(len(deep)):
            block, depths = deep[lo:hi], counts[deep[lo:hi]]
            # every index is in range; "clip" writes `out` without a copy
            acc = np.take(sums, block, axis=0, mode="clip",
                          out=ws.buffer("layer_sums", (hi - lo, d)))
            layer = ws.buffer("layer_rows", acc.shape)
            block_starts = starts[block]
            # layer j's ids: the first `width` of the block, those deeper
            # than j
            widths = np.searchsorted(-depths, -np.arange(1, depths[0]))
            for j, width in enumerate(widths.tolist(), 1):
                np.take(rows, order[block_starts[:width] + j], axis=0,
                        mode="clip", out=layer[:width])
                acc[:width] += layer[:width]
            sums[block] = acc
    sums += 0.0
    return uniq, sums


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

def all_entity_energies(params: Parameters, side: str, anchors, rels,
                        p: int = 1) -> np.ndarray:
    """Energies of every entity in Q queries at once, as a (Q, n_e) array.

    With `side` "tail", row i holds (anchors[i], rels[i], e) for every
    entity e; with "head", (e, rels[i], anchors[i]). Each row is bitwise
    the one its query gives alone: a query maps its anchor by a product of
    its own (LSE tails, DistMult), which a product over a group of queries
    would not sum alike, and LSE ranks one relation at a time, mapping each
    block of entity rows once for its heads, over one query's block bounds.

    The distance kinds scan the entity rows in blocks of `_BLOCK_ROWS`,
    each in slices of `_BLOCK_ROWS // Q` rows, and the residual of query q
    and entity e is op(E'[e], v_q) - s_q. On the tail side E' is the table,
    with no op, and s_q the mapped anchor: the negative of
    `_batch_energies`' map(h) - t, which gives the same bits, since IEEE
    subtraction is antisymmetric and |x| and x * x drop the sign. On the
    head side s_q is the anchor's row, and E' the block mapped by LSE's
    matrix, or op TransE's or LSE_d's map by the query's vector v_q. One
    (Q, rows * d) buffer holds a slice's residuals, each query's rows end
    to end, so that numpy loops along whole slices: over (Q, rows, d) it
    took 1.4 to 1.9 times as long at d = 48 and 100 on a 2-core VM.
    """
    if side not in ("tail", "head"):
        raise ValueError(f"unknown side {side!r}")
    kind, ents = params.kind, params.entities
    anchors = np.asarray(anchors, np.int64).reshape(-1)
    rels = np.asarray(rels, np.int64).reshape(-1)
    q = len(anchors)
    if kind is ModelKind.DISTMULT:
        # (h * r) . e for tails, and a diagonal map: (e * r) . t = e . (t * r)
        mapped = map_heads(params, ents, rels, anchors)
        energies = np.matmul(ents, mapped[:, :, None])[:, :, 0]
        return np.negative(energies, out=energies)
    lse = kind is ModelKind.LSE
    if lse and len(uniq := np.unique(rels)) != 1:
        # one relation at a time, so that no (Q, d, d) gather of matrices
        # and no mapped block per relation is held at once
        energies = np.empty((q, len(ents)))
        for r in uniq.tolist():
            sel = rels == r
            energies[sel] = all_entity_energies(params, side, anchors[sel],
                                                rels[sel], p)
        return energies
    # with no queries, each block's slices hold no residuals
    (n_e, d), step = ents.shape, max(1, _BLOCK_ROWS // max(q, 1))
    head = side == "head"
    vecs = np.tile(params.relations[rels], step) if head and not lse else None
    mapped = np.empty((min(_BLOCK_ROWS, n_e), d)) if head and lse else None
    if head:
        subtrahend = ents[anchors]
    elif lse:  # each anchor a (1, d) row, mapped by a product of its own
        subtrahend = map_heads(params, ents[anchors][:, None], rels[0])[:, 0]
    else:
        subtrahend = map_heads(params, ents, rels, anchors)
    # each query's row repeated along a slice of entity rows
    subtrahend = np.tile(subtrahend, step)
    energies = np.empty((q, n_e))
    buf = np.empty((q, min(step, n_e) * d))
    for lo, hi in _blocks(n_e):
        block = ents[lo:hi] if mapped is None else map_heads(
            params, ents[lo:hi], rels[0], out=mapped[:hi - lo])
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            w = (stop - start) * d
            res, rows = buf[:, :w], block[start - lo:stop - lo].reshape(-1)
            if vecs is not None:
                rows = _vector_op(kind)(rows, vecs[:, :w], out=res)
            np.subtract(rows, subtrahend[:, :w], out=res)
            res = res.reshape(q, stop - start, d)
            _row_norms(res, p, out=energies[:, start:stop], terms=res)
    return energies


def all_tail_energies(params: Parameters, h: int, r: int,
                      p: int = 1) -> np.ndarray:
    """Energies of (h, r, e) for every entity e: a batch of one."""
    return all_entity_energies(params, "tail", [h], [r], p)[0]


def all_head_energies(params: Parameters, r: int, t: int,
                      p: int = 1) -> np.ndarray:
    """Energies of (e, r, t) for every entity e: a batch of one."""
    return all_entity_energies(params, "head", [t], [r], p)[0]


# a relation is checked as symmetric, its own inverse partner, from
# INVERSE_THRESHOLD on, and a composition chain from this support on
MIN_COMPOSITION_SUPPORT = 5


def lemma_diagnostics(params: Parameters, stats: dict[int, RelationStats]
                      ) -> dict[str, list[dict]]:
    """Residuals of the linear-map identities implied by detected patterns.

    Every record holds the pattern's `relations` (a tuple of ids), its
    `score` (`support` for a composition) and one `residual`. An inverse
    pair should compose to the identity, R_r1 R_r2 = I, and a composition
    chain to the third map, R_r1 R_r2 = R_r3; a symmetric relation of a map
    kind is the inverse pair (r, r). DistMult scores (h, r1, t) and
    (t, r2, h) alike exactly when r2 = r1, so its inverse identity is
    R_r2 = R_r1. Matrix residuals are Frobenius norms normalized by
    sqrt(d); diagonal residuals are max-abs elementwise. TransE residuals
    are L2 norms of translation sums; a symmetric TransE relation reports
    ||r||, and ||r|| / mean entity norm as the degeneracy witness
    `norm_ratio`.
    """
    kind = params.kind
    d = params.d
    # the mean of no entities is NaN, without numpy's empty-slice warning
    mean_entity_norm = float(
        np.linalg.norm(params.entities, axis=1).mean() if params.n_e
        else np.nan)
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

    def record(relations, left, right, **fields) -> dict:
        # the residual of the identity compose(*left) = compose(*right)
        diff = compose(*left) - compose(*right)
        if kind is ModelKind.LSE:
            residual = np.linalg.norm(diff) / np.sqrt(d)
        elif transe:
            residual = np.linalg.norm(diff)
        else:
            residual = np.abs(diff).max()
        return {"relations": relations, **fields, "residual": float(residual)}

    def inverse(relations, r1, r2, score) -> dict:
        if kind is ModelKind.DISTMULT:
            return record(relations, (r2,), (r1,), score=score)
        return record(relations, (r1, r2), (), score=score)

    for r, rs in sorted(stats.items()):
        if rs.symmetry_score >= INVERSE_THRESHOLD:
            if transe:
                rec = record((r,), (r,), (), score=rs.symmetry_score)
                rec["norm_ratio"] = rec["residual"] / mean_entity_norm
            else:
                rec = inverse((r,), r, r, rs.symmetry_score)
            report["symmetric"].append(rec)
        for r2, score in rs.inverse_partners:
            report["inverse"].append(inverse((r, r2), r, r2, score))
        for r1, r2, r3, support in rs.composition_samples:
            if support >= MIN_COMPOSITION_SUPPORT:
                report["composition"].append(
                    record((r1, r2, r3), (r1, r2), (r3,), support=support))

    report["mean_entity_norm"] = mean_entity_norm  # type: ignore[assignment]
    return report
