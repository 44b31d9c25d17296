"""Sparse-SGD training with margin-ranking or cross-entropy loss,
validation-based early stopping, and binary checkpoints.

Only the entity rows and relation parameters touched by a batch are updated;
every other row is left bitwise unchanged. Training is single-threaded and
fully deterministic given the config and sampler seeds.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
import typing
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from lsekg import ConsistencyError, InputError, LsekgError
from lsekg.data import (Dataset, Vocabulary, build_filter_index,
                        compute_bernoulli_stats, distinct)
from lsekg.evaluation import evaluate
# the batched forward and backward passes live with the models; the
# benchmark's spans find them under these names too
from lsekg.models import (ModelKind, Parameters, RowGrads,  # noqa: F401
                          Workspace, _batch_energies, _batch_gradients,
                          _blocks, _segment_sum, init_params,
                          refuse_beyond_memory)
from lsekg.sampling import NegativeSampler, SamplerConfig
from lsekg.seeding import substream

CHECKPOINT_MAGIC = b"LSEKGE1\n"
CHECKPOINT_VERSION = 1
LOSSES = ("margin", "ce")
NORMS = (1, 2)  # the p of the energy's p-norm


@dataclass
class TrainConfig:
    # a field's "choices" metadata is the value set the CLI offers
    loss: str = field(default="margin", metadata={"choices": LOSSES})
    margin: float = 6.0
    p: int = field(default=1, metadata={"choices": NORMS})
    learning_rate: float = 5e-4
    batch_size: int = 512
    dim: int = 200
    max_steps: int = 100_000
    eval_every: int = 1000
    patience: int = 5
    seed: int = 0
    # per-step unit-norm projection of touched entity rows (TransE only);
    # off by default since norm constraints are dropped here
    normalize_entities: bool = False
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.p not in NORMS:
            raise ValueError("norm p must be 1 or 2")
        if not (0 < self.margin < math.inf
                and 0 < self.learning_rate < math.inf):
            raise ValueError("margin and learning rate must be positive "
                             "and finite")
        if self.batch_size < 1 or self.dim < 1:
            raise ValueError("batch size and dim must be at least 1")
        if min(self.max_steps, self.eval_every, self.patience, self.seed) < 0:
            raise ValueError("max steps, eval every, patience and seed must "
                             "not be negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        """The config of `to_dict`'s output. A value whose type is not its
        field's raises TypeError."""
        d = dict(d)
        d["sampler"] = SamplerConfig(**_typed(SamplerConfig,
                                              d.get("sampler", {})))
        return TrainConfig(**_typed(TrainConfig, d))


def _typed(cls, values: dict) -> dict:
    """`values`, once each has the type of the `cls` field it names. An int
    passes for a float; a bool passes only for a bool."""
    hints = typing.get_type_hints(cls)
    for name in (f.name for f in dataclasses.fields(cls)):
        if name in values and not (type(values[name]) is hints[name] or (
                hints[name] is float and type(values[name]) is int)):
            raise TypeError(f"config {name}={values[name]!r} is not "
                            f"{hints[name].__name__}")
    return values


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def margin_loss(e_pos, e_neg, gamma: float):
    """Hinge on the positive/negative energy gap: max(0, gamma + e+ - e-)."""
    return np.maximum(0.0, gamma + np.asarray(e_pos) - np.asarray(e_neg))


def triple_probability(e, gamma: float):
    """sigma(gamma - e): probability that a triple with energy e holds."""
    x = gamma - np.asarray(e, dtype=float)
    # evaluate the saturating branch to keep exp() from overflowing
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def _ce_terms(e_pos, e_neg, gamma: float):
    """Cross entropy per positive from the energies of positives (B,) and
    their negatives (B, k), the negatives' terms weighted 1/k: -log
    sigma(gamma - e) = log(1 + exp(e - gamma)) and -log(1 - sigma(gamma -
    e)) = log(1 + exp(gamma - e)), exact and finite for any finite e."""
    return (np.logaddexp(0.0, e_pos - gamma)
            + np.logaddexp(0.0, gamma - e_neg).sum(axis=-1) / e_neg.shape[-1])


def ce_loss(e_pos, e_negs, gamma: float) -> float:
    """Cross entropy of one positive energy and its negatives'."""
    return float(_ce_terms(np.asarray(e_pos, dtype=float),
                           np.asarray(e_negs, dtype=float), gamma))


# ---------------------------------------------------------------------------
# active rows and the update
# ---------------------------------------------------------------------------

def _active_rows(triples: np.ndarray, coeffs: np.ndarray,
                 residual: np.ndarray | None, energies: np.ndarray):
    """Restrict a batch and its forward residuals to the rows whose loss
    coefficient is non-zero; the other rows add exact zeros to every
    gradient, so the backward pass can skip them. When every row is kept,
    as under the ce loss, the inputs come back as they are, uncopied."""
    if coeffs.all():
        return triples, coeffs, residual, energies
    keep = np.flatnonzero(coeffs)
    if residual is not None:
        residual = residual[keep]
    return triples[keep], coeffs[keep], residual, energies[keep]


def sgd_step(params: Parameters, entity_grads: RowGrads,
             relation_grads: RowGrads, learning_rate: float,
             workspace: Workspace | None = None) -> None:
    """Apply theta <- theta - lr * grad to exactly the listed rows, or,
    when any gradient or updated value is non-finite, to none; an overflow
    raises `LsekgError`, not numpy's warning. The updated rows are computed
    in blocks of `_BLOCK_ROWS` into the contribution buffers of
    `workspace`, which the backward pass no longer needs once it has
    summed them, with lr * grad in one more block of `workspace`."""
    ws = Workspace() if workspace is None else workspace
    tables = (("entity_contrib", params.entities, entity_grads),
              ("relation_contrib", params.relations, relation_grads))
    updated = []
    for name, table, grads in tables:
        rows = ws.buffer(name, grads.rows.shape)
        updated.append(rows)
        for lo, hi in _blocks(len(grads)):
            block = rows[lo:hi]
            step = ws.buffer("update", block.shape)
            # the ids are in range: "clip" writes `out` without a copy
            np.take(table, grads.ids[lo:hi], axis=0, mode="clip", out=block)
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(grads.rows[lo:hi], learning_rate, out=step)
                block -= step
            # a non-finite gradient, or a finite one that overflows
            if not np.isfinite(block).all():
                raise LsekgError("non-finite gradient or update")
    for (_, table, grads), rows in zip(tables, updated):
        table[grads.ids] = rows


def _loss_coefficients(e_pos: np.ndarray, e_neg: np.ndarray,
                       config: TrainConfig
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean batch loss and d(loss)/d(energy) for positives (B,) and
    negatives (B, k); the batch loss is averaged per positive."""
    b, k = e_neg.shape
    gamma = config.margin
    if config.loss == "margin":
        hinge = margin_loss(e_pos[:, None], e_neg, gamma)
        active = hinge > 0
        loss = float(hinge.mean())
        c_pos = active.sum(axis=1) / (b * k)
        c_neg = -active.astype(float) / (b * k)
    else:
        loss = float(_ce_terms(e_pos, e_neg, gamma).mean())
        p_pos = triple_probability(e_pos, gamma)
        p_neg = triple_probability(e_neg, gamma)
        c_pos = (1.0 - p_pos) / b
        c_neg = -p_neg / (b * k)
    return loss, c_pos, c_neg


@dataclass
class Checkpoint:
    """A model and what only the run knows of it; the kind and sizes are
    the parameters'."""

    vocabulary: Vocabulary
    params: Parameters
    config: TrainConfig
    step: int = 0
    best_valid_mrr: float | None = None


def train(dataset: Dataset, kind: ModelKind, config: TrainConfig,
          log: Callable[[dict], None] | None = None) -> Checkpoint:
    """Optimize a fresh model on `dataset.train`, selecting the best
    checkpoint by filtered validation MRR.

    Runs up to `config.max_steps` minibatch steps with reshuffled epochs,
    evaluating every `eval_every` steps and stopping after `patience`
    non-improving evaluations. On divergence (a non-finite loss, gradient
    or updated value) a warning is issued and the last good parameters are
    returned. numpy's overflow and invalid-value warnings are kept back in
    the steps and in their validation alike: the step's finiteness checks
    decide, and validation ranks a NaN energy as +inf, as `evaluate` does.

    Every step's forward pass, backward pass and update write into one
    `Workspace`, which the steps of this call share and which is dropped
    when it returns. When a step's buffers or the model's tables would not
    fit in physical memory, `ConsistencyError` is raised before either is
    allocated.
    """
    kind = ModelKind(kind)
    vocab = dataset.vocabulary
    n = len(dataset.train)
    batch_size = min(config.batch_size, n)
    k = config.sampler.negatives_per_positive
    # each of a step's b * (1 + k) rows takes at least three rows of d in
    # its buffers (a residual or relation contribution, and a head and a
    # tail contribution), besides the (b, k, 3) negatives
    refuse_beyond_memory(
        8 * (3 * batch_size * (1 + k) * config.dim + 3 * batch_size * k),
        f"training steps of {batch_size} positives, {k} negatives each, "
        f"d={config.dim}")
    params = init_params(kind, vocab.n_e, vocab.n_r, config.dim, config.seed)

    stats = compute_bernoulli_stats(dataset.train)
    train_filter = (build_filter_index([dataset.train], ["train"])
                    if config.sampler.filter_false_negatives else None)
    sampler = NegativeSampler(vocab.n_e, config.sampler, stats, train_filter)
    valid_filter = (build_filter_index([dataset.train, dataset.valid],
                                       ["train", "valid"])
                    if len(dataset.valid) else None)
    shuffle_rng = substream(config.seed, "shuffle")

    def batches():
        """Minibatches of reshuffled epochs, none from an empty split."""
        while n:
            order = shuffle_rng.permutation(n)
            for start in range(0, n, batch_size):
                yield dataset.train[order[start:start + batch_size]]

    workspace = Workspace()
    # the best-MRR checkpoint so far, None until the first validation round
    best = None
    bad_rounds = 0
    step = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for pos in itertools.islice(batches(), config.max_steps):
            neg = sampler.corrupt_batch(pos)
            b, k = neg.shape[:2]
            flat = np.concatenate([pos, neg.reshape(-1, 3)])
            energies, residual = _batch_energies(params, flat, config.p,
                                                 workspace)
            loss, c_pos, c_neg = _loss_coefficients(
                energies[:b], energies[b:].reshape(b, k), config)
            try:
                if not np.isfinite(loss):
                    raise LsekgError("training diverged")
                coeffs = np.concatenate([c_pos, c_neg.ravel()])
                triples, coeffs, residual, energies = _active_rows(
                    flat, coeffs, residual, energies)
                # positional arguments only: tests wrap this with *args
                ent_g, rel_g = _batch_gradients(params, triples, coeffs,
                                                residual, config.p, energies,
                                                workspace)
                sgd_step(params, ent_g, rel_g, config.learning_rate,
                         workspace)
            except LsekgError as exc:  # nothing applied
                warnings.warn(f"{exc} at step {step}; returning last good "
                              "checkpoint")
                break
            if config.normalize_entities and kind is ModelKind.TRANSE:
                rows = distinct(flat[:, [0, 2]])
                norms = np.linalg.norm(params.entities[rows], axis=1,
                                       keepdims=True)
                params.entities[rows] /= np.maximum(norms, 1e-12)
            step += 1

            if config.eval_every and step % config.eval_every == 0:
                if len(dataset.valid):
                    metrics, _ = evaluate(params, dataset.valid,
                                          valid_filter, config.p)
                    mrr = metrics.filtered.mrr
                    if best is None or mrr > best.best_valid_mrr:
                        best = Checkpoint(vocab, params.copy(), config, step,
                                          mrr)
                        bad_rounds = 0
                    else:
                        bad_rounds += 1
                else:
                    mrr = None
                if log is not None:
                    log({"step": step, "loss": loss, "valid_mrr": mrr})
                if best is not None and bad_rounds >= config.patience:
                    return best

    if best is not None:
        return best
    # params are last-good: a diverging step is never applied. Nothing else
    # holds them, so they are returned uncopied
    return Checkpoint(vocab, params, config, step, None)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary format: magic, length-prefixed JSON metadata, then the
    parameter arrays as little-endian float64, entities first."""
    params, vocab = ckpt.params, ckpt.vocabulary
    # a file that `load_checkpoint` would reject is not written
    if (vocab.n_e, vocab.n_r, ckpt.config.dim) != (params.n_e, params.n_r,
                                                   params.d):
        raise ConsistencyError("checkpoint vocabulary or config dim does not "
                               "fit its tables")
    meta = {
        "version": CHECKPOINT_VERSION,
        "kind": params.kind.value,
        "d": params.d,
        "n_e": params.n_e,
        "n_r": params.n_r,
        "step": ckpt.step,
        "best_valid_mrr": ckpt.best_valid_mrr,
        "config": ckpt.config.to_dict(),
        "vocabulary": {
            "entities": list(vocab.id_to_entity),
            "relations": list(vocab.id_to_relation),
        },
    }
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for table in (params.entities, params.relations):
            # written from the array's own memory, not from a bytes copy
            f.write(np.ascontiguousarray(table, dtype="<f8").reshape(-1)
                    .view(np.uint8))


def _check_remaining(f, count: int, what: str) -> None:
    # a corrupt size must not make a read allocate before it finds EOF
    remaining = os.fstat(f.fileno()).st_size - f.tell()
    if count > remaining:
        raise ConsistencyError(
            f"truncated checkpoint: expected {count} bytes for {what}, "
            f"got {max(remaining, 0)}")


def _read_exact(f, count: int, what: str) -> bytes:
    _check_remaining(f, count, what)
    return f.read(count)


def _read_array(f, shape: tuple[int, ...], what: str) -> np.ndarray:
    """An array read straight into its own memory, with no bytes copy."""
    count = 8 * math.prod(shape)
    _check_remaining(f, count, what)
    out = np.empty(shape, dtype="<f8")
    if f.readinto(out.reshape(-1).view(np.uint8)) != count:
        raise ConsistencyError(f"truncated checkpoint: short read of {what}")
    return out


def _meta_int(meta: dict, key: str, minimum: int) -> int:
    value = meta[key]
    if type(value) is not int or value < minimum:
        raise ConsistencyError(f"corrupt checkpoint metadata: {key}="
                               f"{value!r} is not an integer >= {minimum}")
    return value


def _meta_names(vocabulary, key: str, count: int) -> tuple:
    """The names of a vocabulary list of `count` names; `Vocabulary`
    checks that they are distinct strings."""
    names = vocabulary[key]
    if not isinstance(names, list) or len(names) != count:
        raise ConsistencyError(f"corrupt checkpoint metadata: vocabulary "
                               f"{key} are not {count} names")
    return tuple(names)


def load_checkpoint(path) -> Checkpoint:
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot open checkpoint {path}: {exc}") from exc
    with f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ConsistencyError(f"bad checkpoint magic in {path}")
        (meta_len,) = struct.unpack("<Q", _read_exact(f, 8, "metadata length"))
        try:
            meta = json.loads(_read_exact(f, meta_len, "metadata"))
        except (ValueError, RecursionError) as exc:
            raise ConsistencyError(f"corrupt checkpoint metadata: {exc}")
        if not isinstance(meta, dict):
            raise ConsistencyError("corrupt checkpoint metadata: not an "
                                   "object")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConsistencyError(
                f"unsupported checkpoint version {meta.get('version')}")
        try:
            kind = ModelKind(meta["kind"])
            d = _meta_int(meta, "d", 1)
            n_e = _meta_int(meta, "n_e", 0)
            n_r = _meta_int(meta, "n_r", 0)
            step = _meta_int(meta, "step", 0)
            vocabulary = Vocabulary(
                _meta_names(meta["vocabulary"], "entities", n_e),
                _meta_names(meta["vocabulary"], "relations", n_r))
            config = TrainConfig.from_dict(meta["config"])
            best_valid_mrr = meta["best_valid_mrr"]
            if type(best_valid_mrr) not in (type(None), int, float):
                raise ConsistencyError("corrupt checkpoint metadata: "
                                       f"best_valid_mrr={best_valid_mrr!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConsistencyError(
                f"corrupt checkpoint metadata: {exc!r}") from exc
        if config.dim != d:
            raise ConsistencyError(f"checkpoint config dim {config.dim} != d")
        entities = _read_array(f, (n_e, d), "entity array")
        rel = _read_array(f, (n_r, d, d) if kind.uses_matrix else (n_r, d),
                          "relation array")
        trailing = f.read(1)
        if trailing:
            raise ConsistencyError("checkpoint has trailing bytes")

    return Checkpoint(vocabulary=vocabulary,
                      params=Parameters(kind, entities, rel), config=config,
                      step=step, best_valid_mrr=best_valid_mrr)
