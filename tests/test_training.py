import hashlib
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lsekg.models
import lsekg.training
from lsekg import ConsistencyError, InputError, LsekgError
from lsekg.data import Vocabulary, build_dataset
from lsekg.models import (ModelKind, Workspace, all_entity_energies,
                          energy, init_params)
from lsekg.sampling import NegativeSampler, SamplerConfig
from lsekg.synth import generate
from lsekg.training import (CHECKPOINT_MAGIC, LOSSES, Checkpoint, RowGrads,
                            TrainConfig, ce_loss, load_checkpoint,
                            margin_loss, save_checkpoint,
                            sgd_step, train, triple_probability,
                            _active_rows, _batch_energies, _batch_gradients,
                            _loss_coefficients, _segment_sum)


def row_grads(by_id: dict) -> RowGrads:
    """RowGrads from {row id: gradient row}."""
    ids = sorted(by_id)
    return RowGrads(np.array(ids, dtype=np.int64),
                    np.array([by_id[i] for i in ids], dtype=float))


def as_dict(grads: RowGrads) -> dict:
    """{row id: gradient row} from RowGrads."""
    return dict(zip(grads.ids.tolist(), grads.rows))


class TestMarginLoss:
    def test_hinge_boundary(self):
        assert margin_loss(0.0, 1.0, gamma=1.0) == 0.0

    def test_active_hinge(self):
        assert margin_loss(2.0, 1.0, gamma=1.0) == 2.0

    def test_saturated(self):
        assert margin_loss(0.0, 1e9, gamma=1.0) == 0.0

    def test_monotone(self):
        grid = np.linspace(-5, 5, 41)
        for gamma in (0.5, 2.0):
            for e_neg in grid:
                losses = margin_loss(grid, e_neg, gamma)
                assert (np.diff(losses) >= 0).all()  # nondecreasing in e_pos
            for e_pos in grid:
                losses = margin_loss(e_pos, grid, gamma)
                assert (np.diff(losses) <= 0).all()  # nonincreasing in e_neg


class TestTripleProbability:
    def test_at_margin(self):
        assert triple_probability(3.0, gamma=3.0) == 0.5

    def test_limit(self):
        assert triple_probability(0.0, gamma=50.0) == pytest.approx(1.0)

    def test_quarter_point(self):
        e = 2.0 + math.log(3)
        assert triple_probability(e, gamma=2.0) == pytest.approx(0.25)


class TestCeLoss:
    def test_balanced_point(self):
        assert ce_loss(1.0, [1.0], gamma=1.0) == pytest.approx(2 * math.log(2))

    def test_separated_limit(self):
        assert ce_loss(0.0, [100.0], gamma=30.0) == pytest.approx(0.0,
                                                                  abs=1e-3)

    def test_identical_negatives_average(self):
        many = ce_loss(1.0, [4.0] * 4, gamma=2.0)
        one = ce_loss(1.0, [4.0], gamma=2.0)
        assert many == pytest.approx(one)

    def test_finite_under_extreme_energies(self):
        assert math.isfinite(ce_loss(1000.0, [-1000.0], gamma=1.0))

    def test_exact_far_beyond_the_margin(self):
        # -log sigma(6 - 46) = 40 + log(1 + e^-40): no probability clamp
        # holds it at -log 1e-7 = 16.118
        assert ce_loss(46.0, [100.0], gamma=6.0) == pytest.approx(40.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e_pos = rng.uniform(-10, 10)
            e_negs = rng.uniform(-10, 10, size=5)
            assert ce_loss(e_pos, e_negs, gamma=rng.uniform(0.1, 5)) >= 0


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        params = init_params(ModelKind.LSE_D, 5, 2, 4, seed=0)
        before = params.entities.copy()
        sgd_step(params, row_grads({1: np.zeros(4)}),
                 row_grads({0: np.zeros(4)}), 0.1)
        assert np.array_equal(params.entities, before)

    def test_untouched_rows_bitwise_unchanged(self):
        params = init_params(ModelKind.TRANSE, 10, 3, 4, seed=1)
        before_e = params.entities.copy()
        before_r = params.relation_vectors.copy()
        sgd_step(params, row_grads({2: np.ones(4)}),
                 row_grads({1: np.ones(4)}), 0.1)
        untouched = [i for i in range(10) if i != 2]
        assert np.array_equal(params.entities[untouched],
                              before_e[untouched])
        assert np.array_equal(params.relation_vectors[[0, 2]],
                              before_r[[0, 2]])
        assert not np.array_equal(params.entities[2], before_e[2])

    def test_disjoint_updates_commute(self):
        grads_a = (row_grads({0: np.array([1.0, 2.0])}),
                   row_grads({0: np.array([0.5, 0.5])}))
        grads_b = (row_grads({1: np.array([-1.0, 3.0])}),
                   row_grads({1: np.array([0.1, 0.2])}))
        p1 = init_params(ModelKind.LSE_D, 4, 2, 2, seed=3)
        p2 = p1.copy()
        sgd_step(p1, *grads_a, 0.05)
        sgd_step(p1, *grads_b, 0.05)
        sgd_step(p2, *grads_b, 0.05)
        sgd_step(p2, *grads_a, 0.05)
        assert np.array_equal(p1.entities, p2.entities)
        assert np.array_equal(p1.relation_vectors, p2.relation_vectors)

    def test_nonfinite_gradient_aborts(self):
        params = init_params(ModelKind.LSE_D, 4, 2, 2, seed=3)
        before = params.entities.copy()
        with pytest.raises(LsekgError):
            sgd_step(params, row_grads({0: np.array([np.nan, 0.0])}),
                     row_grads({}), 0.1)
        assert np.array_equal(params.entities, before)

    def test_overflowing_update_aborts(self):
        # lr * 10 overflows to inf, though the gradient is finite
        params = init_params(ModelKind.LSE_D, 4, 2, 2, seed=3)
        before = params.copy()
        with pytest.raises(LsekgError):
            sgd_step(params, row_grads({0: np.full(2, 10.0)}),
                     row_grads({1: np.full(2, 10.0)}), 1e308)
        assert np.array_equal(params.entities, before.entities)
        assert np.array_equal(params.relation_vectors,
                              before.relation_vectors)

    def test_overflowing_update_raises_no_runtime_warning(self):
        params = init_params(ModelKind.LSE_D, 4, 2, 2, seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(LsekgError):
                sgd_step(params, row_grads({0: np.full(2, 10.0)}),
                         row_grads({1: np.full(2, 10.0)}), 1e308)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_array_update_matches_row_by_row_bitwise(self, kind):
        rng = np.random.default_rng(21)
        params = init_params(kind, 12, 3, 4, seed=21)
        expected = params.copy()
        rel, expected_rel = params.relations, expected.relations
        ent_g = RowGrads(np.array([0, 3, 7, 11]), rng.normal(size=(4, 4)))
        rel_g = RowGrads(np.array([0, 2]),
                         rng.normal(size=(2, *rel.shape[1:])))
        for table, grads in ((expected.entities, ent_g),
                             (expected_rel, rel_g)):
            for i, g in zip(grads.ids, grads.rows):
                table[i] -= 0.03 * g
        sgd_step(params, ent_g, rel_g, 0.03)
        assert np.array_equal(params.entities, expected.entities)
        assert np.array_equal(rel, expected_rel)

    @pytest.mark.parametrize("kind", [ModelKind.LSE, ModelKind.TRANSE])
    @pytest.mark.parametrize("bad", ["entity", "relation"])
    def test_nonfinite_row_leaves_every_parameter(self, kind, bad):
        params = init_params(kind, 6, 2, 3, seed=4)
        before = params.copy()
        rel_shape = (3, 3) if kind.uses_matrix else (3,)
        ent_g = RowGrads(np.array([1, 4]), np.ones((2, 3)))
        rel_g = RowGrads(np.array([0, 1]), np.ones((2, *rel_shape)))
        (ent_g if bad == "entity" else rel_g).rows.flat[-1] = np.nan
        with pytest.raises(LsekgError):
            sgd_step(params, ent_g, rel_g, 0.1)
        assert np.array_equal(params.entities, before.entities)
        assert np.array_equal(params.relations, before.relations)

    def test_single_triple_descent(self):
        params = init_params(ModelKind.LSE_D, 4, 1, 8, seed=5)
        triples = np.array([[0, 0, 1], [2, 0, 3]])  # positive, negative
        config = TrainConfig(loss="margin", margin=5.0, dim=8,
                             learning_rate=1e-3)

        def pair_loss():
            return margin_loss(energy(params, 0, 0, 1),
                               energy(params, 2, 0, 3), config.margin)

        before = pair_loss()
        assert before > 0
        energies, cache = _batch_energies(params, triples, 1)
        loss, c_pos, c_neg = _loss_coefficients(
            energies[:1], energies[1:].reshape(1, 1), config)
        coeffs = np.concatenate([c_pos, c_neg.ravel()])
        ent_g, rel_g = _batch_gradients(params, triples, coeffs, cache, 1,
                                        energies)
        sgd_step(params, ent_g, rel_g, config.learning_rate)
        assert pair_loss() < before


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("loss", ["margin", "ce"])
def test_batch_gradient_matches_finite_differences(kind, loss):
    """Full-batch gradient of loss(energies) vs central differences through
    the composed map, p=2 (smooth everywhere)."""
    check_batch_gradient(kind, loss)


@pytest.mark.parametrize("block_rows", [1, 4])
@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("loss", ["margin", "ce"])
def test_blocked_batch_gradient_matches_finite_differences(
        monkeypatch, block_rows, kind, loss):
    """The same check with the batch's 6 rows split into blocks."""
    monkeypatch.setattr(lsekg.models, "_BLOCK_ROWS", block_rows)
    check_batch_gradient(kind, loss)


def check_batch_gradient(kind, loss):
    rng = np.random.default_rng(8)
    d = 8
    params = init_params(kind, 6, 2, d, seed=8)
    params.entities[:] = rng.normal(size=(6, d))
    triples = np.array([[0, 0, 1], [2, 1, 3],       # positives
                        [0, 0, 4], [5, 0, 1],       # negatives of first
                        [2, 1, 5], [4, 1, 3]])      # negatives of second
    config = TrainConfig(loss=loss, margin=2.0, p=2, dim=d)

    def total_loss():
        energies, _ = _batch_energies(params, triples, 2)
        loss_v, _, _ = _loss_coefficients(energies[:2],
                                          energies[2:].reshape(2, 2), config)
        return loss_v

    energies, cache = _batch_energies(params, triples, 2)
    _, c_pos, c_neg = _loss_coefficients(energies[:2],
                                         energies[2:].reshape(2, 2), config)
    coeffs = np.concatenate([c_pos, c_neg.ravel()])
    ent_g, rel_g = _batch_gradients(params, triples, coeffs, cache, 2,
                                    energies)

    step = 1e-6
    for row, grad in as_dict(ent_g).items():
        for i in range(d):
            orig = params.entities[row, i]
            params.entities[row, i] = orig + step
            up = total_loss()
            params.entities[row, i] = orig - step
            down = total_loss()
            params.entities[row, i] = orig
            fd = (up - down) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)
    rel_arrays = params.relations
    for r, grad in as_dict(rel_g).items():
        flat_grad = grad.ravel()
        flat = rel_arrays[r].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = total_loss()
            flat[i] = orig - step
            down = total_loss()
            flat[i] = orig
            fd = (up - down) / (2 * step)
            assert flat_grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("p_norm", [1, 2])
def test_active_row_gradients_match_every_row(kind, p_norm):
    """The backward pass over only the rows with a non-zero loss coefficient
    gives the gradients of the pass over every row. The sums keep their
    order, so they agree bitwise, except LSE's, whose matrix products go
    through BLAS with a blocking that depends on the row count; those may
    drift by a few ulp."""
    rng = np.random.default_rng(12)
    d, b, k = 8, 16, 8
    params = init_params(kind, 30, 3, d, seed=12)
    pos = rng.integers(0, [30, 3, 30], size=(b, 3))
    sampler = NegativeSampler(30, SamplerConfig(
        mode="uniform", negatives_per_positive=k, seed=12))
    flat = np.concatenate([pos, sampler.corrupt_batch(pos).reshape(-1, 3)])
    config = TrainConfig(loss="margin", margin=1.0, p=p_norm, dim=d)
    energies, residual = _batch_energies(params, flat, p_norm)
    _, c_pos, c_neg = _loss_coefficients(energies[:b],
                                         energies[b:].reshape(b, k), config)
    coeffs = np.concatenate([c_pos, c_neg.ravel()])
    assert 0 < np.count_nonzero(coeffs) < len(coeffs)

    every = _batch_gradients(params, flat, coeffs, residual, p_norm,
                             energies)
    triples, c_act, r_act, e_act = _active_rows(flat, coeffs, residual,
                                                energies)
    active = _batch_gradients(params, triples, c_act, r_act, p_norm, e_act)

    atol = 64 * np.finfo(float).eps if kind is ModelKind.LSE else 0.0
    for full, part in zip(map(as_dict, every), map(as_dict, active)):
        assert set(part) <= set(full)
        for key, grad in full.items():
            if key in part:
                np.testing.assert_allclose(part[key], grad, rtol=0,
                                           atol=atol)
            else:  # touched only by rows with a zero coefficient
                assert not grad.any()


@pytest.mark.parametrize("kind", list(ModelKind))
def test_batch_without_active_rows_has_no_gradients(kind):
    # a converged margin batch leaves every hinge at zero
    params = init_params(kind, 5, 2, 4, seed=0)
    flat = np.array([[0, 0, 1], [2, 1, 3]])
    energies, residual = _batch_energies(params, flat, 1)
    triples, coeffs, residual, energies = _active_rows(
        flat, np.zeros(2), residual, energies)
    assert tuple(map(as_dict, _batch_gradients(
        params, triples, coeffs, residual, 1, energies))) == ({}, {})


def assert_sums_as_add_at(ids, rows, workspace=None):
    """`_segment_sum` of the rows equals `np.add.at` into zeros, bit for
    bit."""
    uniq, sums = _segment_sum(ids, rows, workspace)
    ref_ids, inv = np.unique(ids, return_inverse=True)
    ref = np.zeros((len(ref_ids), rows.shape[1]))
    np.add.at(ref, inv, rows)
    assert np.array_equal(uniq, ref_ids)
    assert sums.shape == ref.shape and sums.dtype == ref.dtype
    assert np.array_equal(sums.view(np.uint64), ref.view(np.uint64))


def test_segment_sum_matches_add_at_bitwise():
    rng = np.random.default_rng(13)
    assert_sums_as_add_at(rng.integers(0, 40, size=2000),
                          rng.normal(size=(2000, 6)))

    # unsorted ids with -0.0 rows, an id of only -0.0 rows and ids of one
    # row, summed by slices (few ids), by layers (many ids) and by layers
    # again (few ids, but one column)
    for n_ids, d in ((4, 64), (300, 64), (4, 1)):
        ids = rng.permutation(np.concatenate([
            rng.integers(0, n_ids, size=600), [n_ids + 3, n_ids + 7]]))
        rows = rng.normal(size=(len(ids), d))
        rows[rng.random(len(ids)) < 0.2] = -0.0
        rows[ids == ids[0]] = -0.0
        rows[ids == n_ids + 3] = -0.0
        assert_sums_as_add_at(ids, rows)


def segment_sum_path(workspace: Workspace) -> str:
    """The path a `_segment_sum` call took, told by the buffers it left in
    its workspace. A call by layers whose ids have one row each adds no
    layer and leaves none, so it reads as "slices"."""
    return {frozenset(): "slices",
            frozenset({"layer_sums", "layer_rows"}): "layers"}[
        frozenset(workspace._buffers)]


def rule_path(ids: np.ndarray, d: int) -> str:
    """The path that `_segment_sum`'s rule names for the ids, as
    `segment_sum_path` tells it: slices for more than one column and no
    more ids than the deepest id has rows, layers otherwise. No rows, or
    ids of one row each, leave no buffer on either path."""
    counts = np.unique(ids, return_counts=True)[1]
    deepest = counts.max(initial=0)
    by_slices = d > 1 and len(counts) <= deepest
    return "slices" if by_slices or deepest <= 1 else "layers"


def power_law_ids(rng, n_ids: int, n_rows: int) -> np.ndarray:
    """Ids drawn with weight 1/(i+10)^0.8, as a batch's entities are: many
    ids of one row, a few deep ones. The deep ids are not the smallest."""
    weights = 1.0 / (np.arange(n_ids) + 10.0) ** 0.8
    drawn = rng.choice(n_ids, size=n_rows, p=weights / weights.sum())
    return rng.permutation(n_ids)[drawn]


def test_segment_sum_adds_power_law_ids_by_layers():
    rng = np.random.default_rng(29)
    ids = power_law_ids(rng, 5000, 3000)
    counts = np.bincount(ids)
    assert (counts == 1).sum() > 500 and counts.max() >= 20
    rows = rng.normal(size=(len(ids), 8))
    rows[rng.random(len(ids)) < 0.1] = -0.0
    # an id of only -0.0 rows, deep enough to be in several layers
    rows[ids == np.flatnonzero(counts >= 4)[0]] = -0.0
    rows[rng.choice(len(ids), 12, replace=False)] = np.repeat(
        [np.inf, -np.inf, np.nan], 4)[:, None]
    ws = Workspace()
    assert_sums_as_add_at(ids, rows, ws)
    assert segment_sum_path(ws) == "layers"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("shape", ["few deep ids", "power law",
                                   "one id of half the rows"])
def test_segment_sum_narrow_rows_on_every_path(shape, d):
    # d = 2 rows can take the slice path; d = 1 rows never may, since
    # `sum(axis=0)` adds a single column pairwise
    rng = np.random.default_rng(31)
    if shape == "few deep ids":
        ids = rng.integers(0, 4, size=600)
        path = "slices" if d == 2 else "layers"
    elif shape == "power law":
        ids = power_law_ids(rng, 5000, 3000)
        path = "layers"
    else:  # 100 ids, the deepest of 100 rows: as many ids as layers
        ids = rng.permutation(np.concatenate([np.zeros(100, int),
                                              np.arange(1, 100)]))
        path = "slices" if d == 2 else "layers"
    rows = rng.normal(size=(len(ids), d))
    rows[rng.random(len(ids)) < 0.1] = -0.0
    rows[ids == ids[0]] = -0.0
    ws = Workspace()
    assert_sums_as_add_at(ids, rows, ws)
    assert segment_sum_path(ws) == path


@pytest.mark.parametrize("d", [1, 64])
def test_segment_sum_of_no_rows(d):
    assert_sums_as_add_at(np.zeros(0, np.int64), np.zeros((0, d)))


@pytest.mark.parametrize("path", ["layers", "slices"])
def test_segment_sum_builds_no_slot_index(path):
    # a slot index alone would be n·d·8 bytes
    rng = np.random.default_rng(37)
    n, d = 20_000, 64
    ids = (power_law_ids(rng, 2000, n) if path == "layers"
           else rng.integers(0, 40, size=n))
    rows = rng.normal(size=(n, d))
    ws = Workspace()
    tracemalloc.start()
    try:
        _segment_sum(ids, rows, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert segment_sum_path(ws) == path
    assert peak < n * d * 8 / 2


@st.composite
def segment_sum_inputs(draw):
    """Unsorted ids and rows with +0.0 and -0.0 entries. The ids run from
    one deep id to all distinct, and include as many ids as the deepest id
    has rows, and one more."""
    d = draw(st.sampled_from([1, 2, 3, 32, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["drawn", "all distinct",
                                  "as many ids as layers",
                                  "one id more than layers"]))
    if shape == "drawn":  # one id when n_ids is 1
        n = draw(st.integers(0, 700))
        n_ids = draw(st.integers(1, max(1, n)))
        ids = rng.integers(0, n_ids, size=n)
    elif shape == "all distinct":
        ids = np.arange(draw(st.integers(0, 700)))
    else:  # k ids or k + 1 ids, the deepest of k rows and none deeper
        k = draw(st.integers(1, 26))
        n_ids = k + (shape == "one id more than layers")
        ids = np.repeat(np.arange(n_ids),
                        np.r_[k, rng.integers(1, k + 1, size=n_ids - 1)])
    # sparse, unsorted labels
    ids = rng.permutation(rng.choice(10 * len(ids) + 1, size=len(ids) + 1,
                                     replace=False)[ids])
    rows = rng.normal(size=(len(ids), d))
    rows[rng.random(rows.shape) < 0.1] = 0.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[rng.random(len(ids)) < 0.1] = -0.0
    if len(ids):  # an id of only -0.0 rows
        rows[ids == ids[0]] = -0.0
    return ids, rows


@settings(max_examples=300, deadline=None)
@given(segment_sum_inputs())
def test_segment_sum_takes_the_shorter_loop_bitwise(inputs):
    ids, rows = inputs
    ws = Workspace()
    assert_sums_as_add_at(ids, rows, ws)
    assert segment_sum_path(ws) == rule_path(ids, rows.shape[1])


def test_active_rows_returns_a_full_batch_uncopied():
    flat = np.array([[0, 0, 1], [2, 1, 3]])
    batch = (flat, np.array([0.5, -0.25]), np.ones((2, 4)), np.ones(2))
    assert all(a is b for a, b in zip(_active_rows(*batch), batch))


def test_active_rows_drops_the_zero_coefficient_rows():
    flat = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])
    residual = np.arange(12.0).reshape(3, 4)
    triples, coeffs, res, energies = _active_rows(
        flat, np.array([0.5, 0.0, -0.25]), residual, np.arange(3.0))
    assert triples.tolist() == [[0, 0, 1], [4, 0, 5]]
    assert coeffs.tolist() == [0.5, -0.25]
    assert np.array_equal(res, residual[[0, 2]])
    assert energies.tolist() == [0.0, 2.0]


@pytest.mark.parametrize("kind", list(ModelKind))
def test_workspace_buffers_serve_every_step(kind):
    """A second batch, no larger than the first, is scored and
    differentiated in the buffers of the first: no new arrays."""
    rng = np.random.default_rng(5)
    params = init_params(kind, 30, 3, 8, seed=5)
    workspace = Workspace()
    seen = []
    for n in (40, 25):
        flat = rng.integers(0, [30, 3, 30], size=(n, 3))
        energies, residual = _batch_energies(params, flat, 1, workspace)
        _batch_gradients(params, flat, rng.normal(size=n), residual, 1,
                         energies, workspace)
        seen.append(dict(workspace._buffers))
    assert seen[0].keys() == seen[1].keys()
    assert all(seen[0][k] is seen[1][k] for k in seen[0])


@pytest.fixture
def tiny_dataset():
    rng = np.random.default_rng(4)
    raw = list({(f"e{a}", f"r{r}", f"e{b}")
                for a, r, b in rng.integers(0, [15, 2, 15], size=(60, 3))})
    raw.sort()
    return build_dataset(raw[:40], raw[40:50], raw[50:])


def desk_config(**kw):
    base = dict(loss="ce", margin=2.0, p=1, learning_rate=0.05,
                batch_size=16, dim=8, max_steps=50, eval_every=20,
                patience=3, seed=0,
                sampler=SamplerConfig(negatives_per_positive=4, seed=0))
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_zero_steps_returns_initialization(self, tiny_dataset):
        config = desk_config(max_steps=0)
        ckpt = train(tiny_dataset, ModelKind.LSE_D, config)
        ref = init_params(ModelKind.LSE_D, tiny_dataset.vocabulary.n_e,
                          tiny_dataset.vocabulary.n_r, config.dim,
                          config.seed)
        assert ckpt.step == 0
        assert np.array_equal(ckpt.params.entities, ref.entities)
        assert np.array_equal(ckpt.params.relation_vectors,
                              ref.relation_vectors)

    def test_identical_seed_identical_trajectory(self, tiny_dataset):
        logs = []
        for _ in range(2):
            records = []
            train(tiny_dataset, ModelKind.TRANSE, desk_config(),
                  log=records.append)
            logs.append(records)
        assert logs[0] == logs[1]

    def test_different_seed_different_trajectory(self, tiny_dataset):
        a, b = [], []
        train(tiny_dataset, ModelKind.TRANSE, desk_config(seed=1),
              log=a.append)
        train(tiny_dataset, ModelKind.TRANSE, desk_config(seed=2),
              log=b.append)
        assert a != b

    def test_sampler_seed_is_honoured(self, tiny_dataset, tmp_path):
        """With one config seed, the sampler draws from its own seed, and
        the checkpoint stores the seed it drew from."""
        tables = []
        for seed in (0, 99):
            config = desk_config(max_steps=10, eval_every=0,
                                 sampler=SamplerConfig(
                                     negatives_per_positive=4, seed=seed))
            path = tmp_path / f"{seed}.ckpt"
            save_checkpoint(train(tiny_dataset, ModelKind.LSE_D, config),
                            path)
            loaded = load_checkpoint(path)
            assert loaded.config.sampler.seed == seed
            tables.append(loaded.params.entities)
        assert not np.array_equal(*tables)

    def test_checkpoint_metadata(self, tiny_dataset):
        ckpt = train(tiny_dataset, ModelKind.LSE_D, desk_config())
        assert ckpt.params.kind is ModelKind.LSE_D
        assert ckpt.params.entities.shape == (tiny_dataset.vocabulary.n_e,
                                              ckpt.config.dim)
        assert ckpt.best_valid_mrr is not None

    def test_nonfinite_gradient_returns_last_good(self, tiny_dataset,
                                                  monkeypatch):
        config = desk_config(max_steps=10, eval_every=0)
        expected = train(tiny_dataset, ModelKind.LSE_D,
                         desk_config(max_steps=3, eval_every=0))
        original = lsekg.training._batch_gradients
        calls = []

        def nan_on_fourth_step(*args):
            ent_g, rel_g = original(*args)
            calls.append(1)
            if len(calls) == 4:
                ent_g.rows[0, 0] = np.nan
            return ent_g, rel_g

        monkeypatch.setattr(lsekg.training, "_batch_gradients",
                            nan_on_fourth_step)
        with pytest.warns(UserWarning, match="non-finite gradient"):
            ckpt = train(tiny_dataset, ModelKind.LSE_D, config)
        assert len(calls) == 4
        assert ckpt.step == 3
        assert np.array_equal(ckpt.params.entities, expected.params.entities)
        assert np.array_equal(ckpt.params.relation_vectors,
                              expected.params.relation_vectors)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_overflowing_learning_rate_returns_finite_parameters(self,
                                                                 kind):
        splits = generate("symmetric", 30, 120, 0.5, seed=0)
        dataset = build_dataset(splits.train, splits.valid, splits.test)
        config = desk_config(learning_rate=1.7e308, batch_size=1,
                             eval_every=0,
                             sampler=SamplerConfig(negatives_per_positive=1,
                                                   seed=0))
        with pytest.warns(UserWarning, match="last good checkpoint"):
            ckpt = train(dataset, kind, config)
        assert np.isfinite(ckpt.params.entities).all()
        assert np.isfinite(ckpt.params.relations).all()

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_overflow_raises_no_runtime_warning(self, kind):
        """numpy's overflow warnings stay inside `train`; its own warning
        reports the divergence."""
        splits = generate("symmetric", 30, 120, 0.5, seed=0)
        dataset = build_dataset(splits.train, splits.valid, splits.test)
        config = desk_config(learning_rate=1.7e308, batch_size=1,
                             eval_every=0,
                             sampler=SamplerConfig(negatives_per_positive=1,
                                                   seed=0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train(dataset, kind, config)
        assert [w.category for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        assert any("last good checkpoint" in str(w.message) for w in caught)

    @pytest.mark.parametrize("kind, loss, p, learning_rate", [
        (ModelKind.DISTMULT, "margin", 1, 1e3),
        (ModelKind.LSE, "ce", 1, 1e5),
        (ModelKind.LSE_D, "ce", 1, 1e5),
        (ModelKind.TRANSE, "margin", 2, 1e200)])
    def test_validation_of_huge_parameters_ranks_nan_last(
            self, monkeypatch, kind, loss, p, learning_rate):
        """Parameters that grow huge but stay finite overflow validation's
        energies to inf or NaN. numpy's warnings stay inside `train` (the
        suite turns a `RuntimeWarning` into an error), and each round's
        filtered MRR is the brute-force one over the kernel's energies, a
        NaN ranking as +inf."""
        splits = generate("mixed", 30, 120, 0.5, seed=0)
        dataset = build_dataset(splits.train, splits.valid, splits.test)
        rounds = []
        evaluate = lsekg.training.evaluate

        def recorded(params, *args):
            metrics, records = evaluate(params, *args)
            rounds.append((params.copy(), metrics.filtered.mrr))
            return metrics, records

        monkeypatch.setattr(lsekg.training, "evaluate", recorded)
        config = desk_config(loss=loss, margin=6.0, p=p,
                             learning_rate=learning_rate, dim=6,
                             max_steps=60, eval_every=1, patience=100)
        with pytest.warns(UserWarning, match="last good checkpoint"):
            train(dataset, kind, config)

        known = {tuple(t) for t in np.concatenate([dataset.train,
                                                   dataset.valid]).tolist()}
        n_e = dataset.vocabulary.n_e
        nonfinite = False
        for params, mrr in rounds:
            reciprocal = []
            for h, r, t in dataset.valid.tolist():
                for side, anchor, truth in (("tail", h, t), ("head", t, h)):
                    with np.errstate(over="ignore", invalid="ignore"):
                        e = all_entity_energies(params, side, [anchor], [r],
                                                p)[0]
                    nonfinite |= not np.isfinite(e).all()
                    e = np.where(np.isnan(e), np.inf, e)
                    others = [c for c in range(n_e) if c != truth and (
                        (h, r, c) if side == "tail" else (c, r, t))
                        not in known]
                    rank = (1 + np.count_nonzero(e[others] < e[truth])
                            + np.count_nonzero(e[others] == e[truth]) / 2)
                    reciprocal.append(1 / rank)
            assert mrr == pytest.approx(np.mean(reciprocal), rel=1e-12)
        assert nonfinite

    def test_normalize_entities_projects_rows(self, tiny_dataset):
        config = desk_config(normalize_entities=True, max_steps=30,
                             eval_every=0)
        ckpt = train(tiny_dataset, ModelKind.TRANSE, config)
        norms = np.linalg.norm(ckpt.params.entities, axis=1)
        touched = norms[np.abs(norms - 1.0) < 1e-9]
        assert len(touched) > 0  # every updated row is unit length


class TestCheckpointIO:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_round_trip_bitwise(self, kind, tiny_dataset, tmp_path):
        ckpt = train(tiny_dataset, kind, desk_config(max_steps=5,
                                                     eval_every=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.params.kind == ckpt.params.kind
        assert loaded.step == ckpt.step
        assert np.array_equal(loaded.params.entities, ckpt.params.entities)
        assert np.array_equal(loaded.params.relations, ckpt.params.relations)
        assert loaded.vocabulary == ckpt.vocabulary
        assert loaded.config == ckpt.config

    def test_reloaded_energies_bitwise_equal(self, tiny_dataset, tmp_path):
        ckpt = train(tiny_dataset, ModelKind.LSE, desk_config(max_steps=5,
                                                              eval_every=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(0)
        for _ in range(100):
            h, t = rng.integers(0, ckpt.params.n_e, size=2)
            r = rng.integers(0, ckpt.params.n_r)
            assert energy(ckpt.params, h, r, t) == energy(loaded.params,
                                                          h, r, t)

    def test_tables_are_written_as_little_endian_float64(self, tmp_path):
        ckpt = small_checkpoint()
        _, arrays = split_checkpoint(checkpoint_bytes(tmp_path, ckpt))
        assert arrays == b"".join(table.astype("<f8").tobytes() for table in
                                  (ckpt.params.entities,
                                   ckpt.params.relations))

    @pytest.mark.parametrize("kind", [ModelKind.LSE, ModelKind.LSE_D])
    def test_empty_tables_round_trip(self, kind, tmp_path):
        """Tables with no rows are written and read back with their
        shapes."""
        d = 2
        rel_shape = (0, d, d) if kind.uses_matrix else (0, d)
        params = lsekg.models.Parameters(kind=kind, entities=np.zeros((0, d)),
                                         relations=np.zeros(rel_shape))
        ckpt = Checkpoint(vocabulary=Vocabulary(id_to_entity=(),
                                                id_to_relation=()),
                          params=params, config=TrainConfig(dim=d))
        path = tmp_path / "empty.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.params.entities.shape == (0, d)
        assert loaded.params.relations.shape == rel_shape

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_file_bytes_are_pinned(self, kind, tmp_path):
        """A checkpoint of fixed tables is written byte for byte as the
        format has always written it, and reads back with its tables."""
        ckpt = pinned_checkpoint(kind)
        blob = checkpoint_bytes(tmp_path, ckpt)
        assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256[kind]
        loaded = load_checkpoint(tmp_path / "valid.ckpt")
        assert loaded.params.kind is kind
        assert (loaded.vocabulary, loaded.config, loaded.step,
                loaded.best_valid_mrr) == (ckpt.vocabulary, ckpt.config, 3,
                                           0.25)
        for got, want in ((loaded.params.entities, ckpt.params.entities),
                          (loaded.params.relations, ckpt.params.relations)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_relation_views_are_the_one_table(self):
        for kind in ModelKind:
            params = init_params(kind, 3, 2, 2, seed=0)
            views = (params.relation_matrices, params.relation_vectors)
            assert views[not kind.uses_matrix] is params.relations
            assert views[kind.uses_matrix] is None

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_parameters_reject_a_table_of_the_other_shape(self, kind):
        other = init_params(ModelKind.LSE if kind is not ModelKind.LSE
                            else ModelKind.LSE_D, 3, 2, 2, seed=0)
        with pytest.raises(ConsistencyError, match="do not fit"):
            lsekg.models.Parameters(kind, other.entities, other.relations)
        with pytest.raises(ConsistencyError, match="do not fit"):
            lsekg.models.Parameters(kind, other.entities[:, :1],
                                    init_params(kind, 3, 2, 2, 0).relations)

    @pytest.mark.parametrize("change", ["entities", "relations", "dim"])
    def test_unreadable_checkpoint_not_written(self, tmp_path, change):
        ckpt = small_checkpoint()
        if change == "dim":
            ckpt.config = TrainConfig(dim=3)
        else:
            vocab, names = ckpt.vocabulary, ("x", "y", "z", "w")
            ckpt.vocabulary = (Vocabulary(
                id_to_entity=names,
                id_to_relation=vocab.id_to_relation) if change == "entities"
                else Vocabulary(
                id_to_entity=vocab.id_to_entity, id_to_relation=("r",)))
        with pytest.raises(ConsistencyError, match="does not fit"):
            save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        assert not (tmp_path / "bad.ckpt").exists()

    def test_truncated_file_rejected(self, tiny_dataset, tmp_path):
        ckpt = train(tiny_dataset, ModelKind.LSE_D,
                     desk_config(max_steps=1, eval_every=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        data = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(data[:-40])
        with pytest.raises(ConsistencyError, match="truncated"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ConsistencyError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tiny_dataset, tmp_path):
        ckpt = train(tiny_dataset, ModelKind.LSE_D,
                     desk_config(max_steps=1, eval_every=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ConsistencyError, match="trailing"):
            load_checkpoint(path)


def small_checkpoint(kind=ModelKind.LSE_D) -> Checkpoint:
    params = init_params(kind, 3, 2, 2, seed=0)
    vocab = Vocabulary(id_to_entity=("a", "b", "c"),
                       id_to_relation=("r", "s"))
    return Checkpoint(vocabulary=vocab, params=params,
                      config=TrainConfig(dim=2), step=7, best_valid_mrr=0.5)


# the SHA-256 of each kind's `pinned_checkpoint` file, as the format writes
# it; a change to these is a change to the file format
PINNED_SHA256 = {
    ModelKind.LSE:
        "a2421b463c421c2984f21f2c143d3dadc362c9f26396ecbfad465c55cd36d42f",
    ModelKind.LSE_D:
        "e67b08fc4d0a9aa3aff4e5fae1e87cf2f2fe6b36193ec34ae2416508b5a89b98",
    ModelKind.TRANSE:
        "115e1e331b25439bbfc95e76552263adaa0ee6397a2d6f2ee81035b039765dc1",
    ModelKind.DISTMULT:
        "2d84bdd144203cfaace527cce81f50f3a581b08438826a7200e31d61e3a9f412",
}


def pinned_checkpoint(kind) -> Checkpoint:
    """A checkpoint of fixed tables: two entities and two relations at
    d = 2."""
    relations = (np.arange(1.0, 9.0).reshape(2, 2, 2) / 4 if kind.uses_matrix
                 else np.array([[1.5, -0.5], [0.25, 3.0]]))
    params = lsekg.models.Parameters(
        kind, np.array([[0.5, -1.25], [2.0, 0.125]]), relations)
    vocab = Vocabulary(id_to_entity=("a", "b"), id_to_relation=("r", "s"))
    return Checkpoint(vocabulary=vocab, params=params,
                      config=TrainConfig(dim=2), step=3, best_valid_mrr=0.25)


def checkpoint_bytes(tmp_path, ckpt) -> bytes:
    path = tmp_path / "valid.ckpt"
    save_checkpoint(ckpt, path)
    return path.read_bytes()


def split_checkpoint(blob: bytes) -> tuple[dict, bytes]:
    """(metadata, array bytes) of a checkpoint file."""
    start = len(CHECKPOINT_MAGIC) + 8
    (meta_len,) = struct.unpack("<Q", blob[len(CHECKPOINT_MAGIC):start])
    meta = json.loads(blob[start:start + meta_len])
    return meta, blob[start + meta_len:]


def join_checkpoint(meta, arrays: bytes) -> bytes:
    text = json.dumps(meta).encode()
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text + arrays


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt_fuzz")


def loads_or_rejects(path):
    """Load a checkpoint; a rejection must be a documented error."""
    try:
        ckpt = load_checkpoint(path)
    except (InputError, ConsistencyError):
        return None
    assert ckpt.params.entities.shape == (ckpt.params.n_e, ckpt.config.dim)
    assert len(ckpt.vocabulary.entity_to_id) == ckpt.params.n_e
    assert len(ckpt.vocabulary.relation_to_id) == ckpt.params.n_r
    return ckpt


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


class TestCheckpointFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.binary(max_size=64))
    def test_arbitrary_bytes(self, fuzz_dir, magic, tail):
        path = fuzz_dir / "bytes.ckpt"
        path.write_bytes((CHECKPOINT_MAGIC if magic else b"") + tail)
        loads_or_rejects(path)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_corrupted_bytes(self, fuzz_dir, data):
        blob = bytearray(checkpoint_bytes(fuzz_dir, small_checkpoint()))
        if data.draw(st.booleans()):
            blob = blob[:data.draw(st.integers(0, len(blob)))]
        else:
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] = data.draw(st.integers(0, 255))
        path = fuzz_dir / "corrupt.ckpt"
        path.write_bytes(bytes(blob))
        loads_or_rejects(path)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(ModelKind)),
           st.sampled_from(["version", "kind", "d", "n_e", "n_r", "step",
                            "best_valid_mrr", "config", "vocabulary",
                            "vocabulary.entities", "vocabulary.relations"]),
           _JSON)
    def test_metadata_value_replaced(self, fuzz_dir, kind, key, value):
        meta, arrays = split_checkpoint(
            checkpoint_bytes(fuzz_dir, small_checkpoint(kind)))
        outer, _, inner = key.partition(".")
        if inner:
            meta[outer][inner] = value
        else:
            meta[outer] = value
        path = fuzz_dir / "meta.ckpt"
        path.write_bytes(join_checkpoint(meta, arrays))
        loads_or_rejects(path)

    @pytest.mark.parametrize("key,value", [
        ("d", "3"), ("d", 2.5), ("d", None), ("d", -1), ("d", 0),
        ("d", True), ("d", 2**64), ("n_e", "3"), ("n_r", -2),
        ("step", -1), ("step", 1.5), ("best_valid_mrr", "high"),
        ("vocabulary", {"entities": ["a", "a", "c"], "relations": ["r", "s"]}),
        ("vocabulary", {"entities": [1, 2, 3], "relations": ["r", "s"]}),
        ("vocabulary", {"entities": "abc", "relations": ["r", "s"]}),
    ])
    def test_bad_metadata_value_rejected(self, tmp_path, key, value):
        meta, arrays = split_checkpoint(
            checkpoint_bytes(tmp_path, small_checkpoint()))
        meta[key] = value
        path = tmp_path / "bad.ckpt"
        path.write_bytes(join_checkpoint(meta, arrays))
        with pytest.raises(ConsistencyError):
            load_checkpoint(path)

    @pytest.mark.parametrize("changes", [
        {"p": True}, {"seed": "x"}, {"dim": 500}, {"sampler.seed": [1]},
        {"normalize_entities": 1},
        {"p": True, "seed": "x", "dim": 500, "sampler.seed": [1]},
    ], ids=repr)
    def test_bad_stored_config_rejected(self, tmp_path, changes):
        ckpt = small_checkpoint()
        ckpt.params = init_params(ModelKind.LSE_D, 3, 2, 1, seed=0)
        ckpt.config = TrainConfig(dim=1)
        meta, arrays = split_checkpoint(checkpoint_bytes(tmp_path, ckpt))
        for key, value in changes.items():
            outer, _, inner = key.partition(".")
            if inner:
                meta["config"][outer][inner] = value
            else:
                meta["config"][outer] = value
        path = tmp_path / "config.ckpt"
        path.write_bytes(join_checkpoint(meta, arrays))
        with pytest.raises(ConsistencyError):
            load_checkpoint(path)

    def test_integer_float_config_value_loads(self, tmp_path):
        meta, arrays = split_checkpoint(
            checkpoint_bytes(tmp_path, small_checkpoint()))
        meta["config"]["margin"] = 6
        path = tmp_path / "int.ckpt"
        path.write_bytes(join_checkpoint(meta, arrays))
        assert load_checkpoint(path).config.margin == 6

    def test_huge_metadata_length_rejected(self, tmp_path):
        path = tmp_path / "long.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", 2**64 - 1))
        with pytest.raises(ConsistencyError, match="truncated"):
            load_checkpoint(path)

    def test_huge_table_size_rejected_before_allocating(self, tmp_path):
        meta, arrays = split_checkpoint(
            checkpoint_bytes(tmp_path, small_checkpoint()))
        meta["d"] = meta["config"]["dim"] = 2**40
        path = tmp_path / "wide.ckpt"
        path.write_bytes(join_checkpoint(meta, arrays))
        with pytest.raises(ConsistencyError, match="truncated"):
            load_checkpoint(path)

    def test_valid_metadata_round_trips(self, tmp_path):
        ckpt = small_checkpoint()
        meta, arrays = split_checkpoint(checkpoint_bytes(tmp_path, ckpt))
        path = tmp_path / "same.ckpt"
        path.write_bytes(join_checkpoint(meta, arrays))
        loaded = loads_or_rejects(path)
        assert loaded is not None and loaded.step == 7
        assert np.array_equal(loaded.params.entities, ckpt.params.entities)


class TestBlockBoundaries:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("p_norm", [1, 2])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_block_size_leaves_trajectory_bitwise(self, tiny_dataset,
                                                  monkeypatch, kind, p_norm,
                                                  loss):
        """Blocks of 1 row, of 3 rows and of more than a batch give the
        checkpoint of the default block size, bit for bit, over steps that
        include an epoch's partial last batch."""
        config = desk_config(loss=loss, p=p_norm, max_steps=5, eval_every=0)
        # 40 triples in batches of 16: every third batch has 8
        assert len(tiny_dataset.train) % config.batch_size
        expected = train(tiny_dataset, kind, config).params
        for block_rows in (1, 3, 10_000):
            monkeypatch.setattr(lsekg.models, "_BLOCK_ROWS", block_rows)
            params = train(tiny_dataset, kind, config).params
            for got, want in ((params.entities, expected.entities),
                              (params.relations, expected.relations)):
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
