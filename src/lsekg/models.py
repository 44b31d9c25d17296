"""Scoring models and their analytic gradients.

All four models share one lower-is-better "energy" convention:

    LSE       ||h @ R_r - t||_p      (d x d relation matrix, row vectors)
    LSE_d     ||h * r - t||_p        (elementwise relation vector)
    TransE    ||h + r - t||_p
    DistMult  -(h * r) . t           (negated similarity; p ignored)

Energies and gradients are pure reads of `Parameters`; the training module
owns all mutation.
"""

from __future__ import annotations

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
    def n_e(self) -> int:
        return self.entities.shape[0]

    @property
    def n_r(self) -> int:
        rel = (self.relation_matrices if self.kind.uses_matrix
               else self.relation_vectors)
        return rel.shape[0]

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


def _mapped_head(params: Parameters, h_row: np.ndarray,
                 r: int) -> np.ndarray:
    kind = params.kind
    if kind is ModelKind.LSE:
        return h_row @ params.relation_matrices[r]
    if kind is ModelKind.LSE_D:
        return h_row * params.relation_vectors[r]
    return h_row + params.relation_vectors[r]  # TransE


def energy(params: Parameters, h: int, r: int, t: int, p: int = 1) -> float:
    """Energy of a single triple; lower means more plausible."""
    h_row = params.entities[h]
    t_row = params.entities[t]
    if params.kind is ModelKind.DISTMULT:
        # (h*t)@r keeps the energy bitwise symmetric under h <-> t
        return float(-(h_row * t_row) @ params.relation_vectors[r])
    residual = _mapped_head(params, h_row, r) - t_row
    if p == 1:
        return float(np.abs(residual).sum())
    return float(np.sqrt((residual * residual).sum()))


def _residual_direction(residual: np.ndarray, p: int) -> np.ndarray:
    """d(energy)/d(residual): sign for L1 (sign(0) := 0), unit vector for L2
    (zero at the origin)."""
    if p == 1:
        return np.sign(residual)
    norm = np.sqrt((residual * residual).sum(axis=-1, keepdims=True))
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(norm > 0, residual / np.where(norm > 0, norm, 1.0), 0.0)
    return out


def energy_gradients(params: Parameters, h: int, r: int, t: int,
                     p: int = 1) -> ScoreGradients:
    """Exact (sub)gradient of `energy` w.r.t. the head row, tail row, and
    relation parameters."""
    h_row = params.entities[h]
    t_row = params.entities[t]
    kind = params.kind
    if kind is ModelKind.DISTMULT:
        r_vec = params.relation_vectors[r]
        return ScoreGradients(d_head=-(r_vec * t_row),
                              d_tail=-(h_row * r_vec),
                              d_relation=-(h_row * t_row))
    residual = _mapped_head(params, h_row, r) - t_row
    s = _residual_direction(residual, p)
    if kind is ModelKind.LSE:
        mat = params.relation_matrices[r]
        return ScoreGradients(d_head=s @ mat.T, d_tail=-s,
                              d_relation=np.outer(h_row, s))
    if kind is ModelKind.LSE_D:
        r_vec = params.relation_vectors[r]
        return ScoreGradients(d_head=s * r_vec, d_tail=-s,
                              d_relation=s * h_row)
    return ScoreGradients(d_head=s, d_tail=-s, d_relation=s)  # TransE


def all_tail_energies(params: Parameters, h: int, r: int,
                      p: int = 1) -> np.ndarray:
    """Energies of (h, r, e) for every entity e, as one batched pass."""
    ents = params.entities
    if params.kind is ModelKind.DISTMULT:
        return -ents @ (params.entities[h] * params.relation_vectors[r])
    mapped = _mapped_head(params, params.entities[h], r)
    residual = mapped[None, :] - ents
    if p == 1:
        return np.abs(residual).sum(axis=1)
    return np.sqrt((residual * residual).sum(axis=1))


def all_head_energies(params: Parameters, r: int, t: int,
                      p: int = 1) -> np.ndarray:
    """Energies of (e, r, t) for every entity e."""
    ents = params.entities
    kind = params.kind
    if kind is ModelKind.DISTMULT:
        return -ents @ (params.relation_vectors[r] * params.entities[t])
    if kind is ModelKind.LSE:
        mapped = ents @ params.relation_matrices[r]
    elif kind is ModelKind.LSE_D:
        mapped = ents * params.relation_vectors[r][None, :]
    else:
        mapped = ents + params.relation_vectors[r][None, :]
    residual = mapped - params.entities[t][None, :]
    if p == 1:
        return np.abs(residual).sum(axis=1)
    return np.sqrt((residual * residual).sum(axis=1))


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
    translation-norm degeneracy witness ||r|| / mean entity norm.
    """
    kind = params.kind
    d = params.d
    mean_entity_norm = float(
        np.linalg.norm(params.entities, axis=1).mean())
    report: dict[str, list[dict]] = {
        "symmetric": [], "inverse": [], "composition": [],
    }

    def map_residual(product: np.ndarray, target: np.ndarray) -> float:
        if kind is ModelKind.LSE:
            return float(np.linalg.norm(product - target) / np.sqrt(d))
        return float(np.abs(product - target).max())

    def compose(a: int, b: int) -> np.ndarray:
        # row-vector convention: applying a then b is R_a @ R_b
        if kind is ModelKind.LSE:
            return params.relation_matrices[a] @ params.relation_matrices[b]
        return params.relation_vectors[a] * params.relation_vectors[b]

    identity = (np.eye(d) if kind is ModelKind.LSE else np.ones(d))

    for r, rs in sorted(stats.items()):
        if rs.symmetry_score >= symmetry_threshold:
            rec = {"relation": r, "symmetry_score": rs.symmetry_score}
            if kind is ModelKind.TRANSE:
                norm = float(np.linalg.norm(params.relation_vectors[r]))
                rec["translation_norm"] = norm
                rec["norm_ratio"] = norm / mean_entity_norm
            elif kind is ModelKind.DISTMULT:
                rec["residual"] = 0.0  # symmetric by construction
            else:
                rec["residual"] = map_residual(compose(r, r), identity)
            report["symmetric"].append(rec)
        for r2, score in rs.inverse_partners:
            rec = {"r1": r, "r2": r2, "score": score}
            if kind is ModelKind.TRANSE:
                rec["translation_sum_norm"] = float(np.linalg.norm(
                    params.relation_vectors[r] + params.relation_vectors[r2]))
            else:
                rec["residual"] = map_residual(compose(r, r2), identity)
            report["inverse"].append(rec)
        for r1, r2, r3, support in rs.composition_samples:
            if support < min_composition_support:
                continue
            rec = {"r1": r1, "r2": r2, "r3": r3, "support": support}
            if kind is ModelKind.TRANSE:
                vecs = params.relation_vectors
                rec["translation_residual_norm"] = float(
                    np.linalg.norm(vecs[r1] + vecs[r2] - vecs[r3]))
            else:
                target = (params.relation_matrices[r3]
                          if kind is ModelKind.LSE
                          else params.relation_vectors[r3])
                rec["residual"] = map_residual(compose(r1, r2), target)
            report["composition"].append(rec)

    report["mean_entity_norm"] = mean_entity_norm  # type: ignore[assignment]
    return report
