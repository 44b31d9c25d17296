import numpy as np
import pytest

import lsekg.models
from lsekg import ConsistencyError
from lsekg.data import RelationStats
from lsekg.models import (_BLOCK_ROWS, ModelKind, Parameters, _row_norms,
                          all_entity_energies, all_head_energies,
                          all_tail_energies, energy, energy_gradients,
                          init_params, lemma_diagnostics, map_heads)
from lsekg.training import _batch_energies, _batch_gradients

KINDS = list(ModelKind)
EPS = np.finfo(float).eps
DISTANCE_KINDS = [ModelKind.LSE, ModelKind.LSE_D, ModelKind.TRANSE]


def whole_table_energies(params, side, anchor, r, p):
    """One query's energies from whole-table maps, with the training
    kernel's residual map(h) - t."""
    ents = params.entities
    if side == "tail":
        return _row_norms(map_heads(params, ents[anchor], r) - ents, p)
    return _row_norms(map_heads(params, ents, r) - ents[anchor], p)


def make_params(kind, n_e=6, n_r=3, d=8, seed=0):
    rng = np.random.default_rng(seed)
    entities = rng.normal(size=(n_e, d))
    kind = ModelKind(kind)
    relations = rng.normal(size=(n_r, d, d) if kind.uses_matrix else (n_r, d))
    return Parameters(kind=kind, entities=entities, relations=relations)


class TestInit:
    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic(self, kind):
        a = init_params(kind, 10, 4, 16, seed=5)
        b = init_params(kind, 10, 4, 16, seed=5)
        assert np.array_equal(a.entities, b.entities)
        assert np.array_equal(a.relations, b.relations)

    def test_different_seeds_differ(self):
        a = init_params(ModelKind.TRANSE, 10, 4, 16, seed=5)
        b = init_params(ModelKind.TRANSE, 10, 4, 16, seed=6)
        assert not np.array_equal(a.entities, b.entities)

    def test_lse_matrices_near_identity(self):
        p = init_params(ModelKind.LSE, 5, 7, 4, seed=0)
        for mat in p.relation_matrices:
            assert np.abs(mat - np.eye(4)).max() <= 0.1 / np.sqrt(4)

    def test_lse_d_vectors_near_one(self):
        p = init_params(ModelKind.LSE_D, 5, 7, 100, seed=0)
        assert np.abs(p.relation_vectors - 1.0).max() <= 0.06

    def test_transe_relations_unit_norm(self):
        # TransE's Algorithm 1 (Bordes et al. 2013) normalizes r at init
        p = init_params(ModelKind.TRANSE, 5, 7, 32, seed=0)
        norms = np.linalg.norm(p.relation_vectors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_entity_bound(self):
        p = init_params(ModelKind.TRANSE, 50, 3, 25, seed=1)
        assert np.abs(p.entities).max() <= 6.0 / 5.0

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConsistencyError):
            init_params(ModelKind.TRANSE, 0, 1, 4, seed=0)
        with pytest.raises(ConsistencyError):
            init_params(ModelKind.TRANSE, 1, 1, 0, seed=0)


class TestEnergy:
    def test_lse_d_hand_example(self):
        p = Parameters(kind=ModelKind.LSE_D,
                       entities=np.array([[1.0, 2.0], [2.0, 0.0]]),
                       relations=np.array([[3.0, -1.0]]))
        # |1*3 - 2| + |2*(-1) - 0| = 3
        assert energy(p, 0, 0, 1, p=1) == pytest.approx(3.0)

    def test_transe_zero_translation(self):
        p = make_params(ModelKind.TRANSE)
        p.relation_vectors[0] = 0.0
        assert energy(p, 2, 0, 2, p=1) == 0.0
        assert energy(p, 2, 0, 2, p=2) == 0.0

    def test_distmult_hand_example(self):
        p = Parameters(kind=ModelKind.DISTMULT,
                       entities=np.array([[1.0, 0.0], [3.0, 4.0]]),
                       relations=np.array([[2.0, 5.0]]))
        assert energy(p, 0, 0, 1) == pytest.approx(-6.0)

    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_lse_diag_reduces_to_lse_d(self, p_norm):
        rng = np.random.default_rng(2)
        d = 8
        diag = make_params(ModelKind.LSE_D, d=d, seed=3)
        full = Parameters(
            kind=ModelKind.LSE, entities=diag.entities,
            relations=np.stack([np.diag(v) for v in diag.relations]))
        for _ in range(50):
            h, t = rng.integers(0, diag.n_e, size=2)
            r = rng.integers(0, 3)
            assert energy(full, h, r, t, p_norm) == pytest.approx(
                energy(diag, h, r, t, p_norm), abs=1e-12)

    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_lse_identity_reduces_to_plain_distance(self, p_norm):
        d = 8
        params = make_params(ModelKind.LSE, d=d, seed=4)
        params.relation_matrices[0] = np.eye(d)
        h_row = params.entities[1]
        t_row = params.entities[2]
        expect = (np.abs(h_row - t_row).sum() if p_norm == 1
                  else np.linalg.norm(h_row - t_row))
        assert energy(params, 1, 0, 2, p_norm) == pytest.approx(expect,
                                                                abs=1e-12)

    @pytest.mark.parametrize("kind", DISTANCE_KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_nonnegative(self, kind, p_norm):
        params = make_params(kind, seed=9)
        for h in range(params.n_e):
            for t in range(params.n_e):
                assert energy(params, h, 0, t, p_norm) >= 0.0

    def test_distmult_symmetric_in_head_tail(self):
        params = make_params(ModelKind.DISTMULT, seed=11)
        for h in range(params.n_e):
            for t in range(params.n_e):
                assert energy(params, h, 1, t) == energy(params, t, 1, h)

    def test_lse_d_asymmetry_witness(self):
        p = Parameters(kind=ModelKind.LSE_D,
                       entities=np.array([[1.0], [3.0]]),
                       relations=np.array([[2.0]]))
        assert energy(p, 0, 0, 1) != energy(p, 1, 0, 0)


def finite_difference(params, h, r, t, p_norm, step=1e-6):
    """Central differences of energy w.r.t. head row, tail row, relation."""
    def fd(array):
        grad = np.zeros_like(array)
        flat = array.ravel()
        g = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            e_plus = energy(params, h, r, t, p_norm)
            flat[i] = orig - step
            e_minus = energy(params, h, r, t, p_norm)
            flat[i] = orig
            g[i] = (e_plus - e_minus) / (2 * step)
        return grad

    d_head = fd(params.entities[h])
    d_tail = fd(params.entities[t])
    d_rel = fd(params.relations[r])
    return d_head, d_tail, d_rel


class TestGradients:
    def test_lse_d_hand_example(self):
        p = Parameters(kind=ModelKind.LSE_D,
                       entities=np.array([[1.0, 2.0], [2.0, 0.0]]),
                       relations=np.array([[3.0, -1.0]]))
        g = energy_gradients(p, 0, 0, 1, p=1)
        np.testing.assert_allclose(g.d_head, [3.0, 1.0])
        np.testing.assert_allclose(g.d_relation, [1.0, -2.0])
        np.testing.assert_allclose(g.d_tail, [-1.0, 1.0])

    def test_transe_at_minimum_is_zero(self):
        p = make_params(ModelKind.TRANSE)
        p.relation_vectors[0] = 0.0
        g = energy_gradients(p, 3, 0, 3, p=2)
        assert np.all(g.d_head == 0)
        assert np.all(g.d_tail == 0)
        assert np.all(g.d_relation == 0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_matches_finite_differences(self, kind, p_norm):
        params = make_params(kind, seed=17)
        h, r, t = 0, 1, 4
        g = energy_gradients(params, h, r, t, p_norm)
        fd_head, fd_tail, fd_rel = finite_difference(params, h, r, t, p_norm)
        tol = 1e-4 if p_norm == 1 else 1e-5
        np.testing.assert_allclose(g.d_head, fd_head, rtol=tol, atol=tol)
        np.testing.assert_allclose(g.d_tail, fd_tail, rtol=tol, atol=tol)
        np.testing.assert_allclose(g.d_relation, fd_rel, rtol=tol, atol=tol)

    @pytest.mark.parametrize("block_rows", [1, 3, 10_000])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_matches_finite_differences_at_any_block_size(
            self, monkeypatch, block_rows, kind, p_norm):
        monkeypatch.setattr(lsekg.models, "_BLOCK_ROWS", block_rows)
        self.test_matches_finite_differences(kind, p_norm)


def assert_matches_oracle(kind, batched, singles):
    """The block scan and the scalar oracle share the kernel: bitwise for
    the elementwise maps. LSE's matmul may block its sums differently over
    a block than over one row, and DistMult ranks by a matrix-vector
    product."""
    if kind in (ModelKind.LSE_D, ModelKind.TRANSE):
        assert np.array_equal(batched, singles)
    else:
        np.testing.assert_allclose(batched, singles, rtol=1e-12)


class TestBatchedKernels:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_oracle_is_training_kernel(self, kind, p_norm):
        params = make_params(kind, seed=24)
        h, r, t = 1, 2, 4
        triple = np.array([[h, r, t]])
        energies, residual = _batch_energies(params, triple, p_norm)
        assert energy(params, h, r, t, p_norm) == energies[0]
        ent_g, rel_g = _batch_gradients(params, triple, np.ones(1), residual,
                                        p_norm, energies)
        g = energy_gradients(params, h, r, t, p_norm)
        assert ent_g.ids.tolist() == [h, t] and rel_g.ids.tolist() == [r]
        assert np.array_equal(ent_g.rows[0], g.d_head)
        assert np.array_equal(ent_g.rows[1], g.d_tail)
        assert np.array_equal(rel_g.rows[0], g.d_relation)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_all_tail_matches_per_call(self, kind, p_norm):
        params = make_params(kind, n_e=3, seed=21)
        batched = all_tail_energies(params, 1, 0, p_norm)
        singles = [energy(params, 1, 0, e, p_norm)
                   for e in range(params.n_e)]
        assert_matches_oracle(kind, batched, singles)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_all_head_matches_per_call(self, kind, p_norm):
        params = make_params(kind, n_e=3, seed=22)
        batched = all_head_energies(params, 0, 2, p_norm)
        singles = [energy(params, e, 0, 2, p_norm)
                   for e in range(params.n_e)]
        assert_matches_oracle(kind, batched, singles)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    @pytest.mark.parametrize("n_e", [_BLOCK_ROWS - 5, _BLOCK_ROWS,
                                     2 * _BLOCK_ROWS + 7])
    def test_blocked_scan_matches_whole_table(self, kind, p_norm, n_e):
        params = make_params(kind, n_e=n_e, d=9, seed=n_e)
        ents = params.entities
        h, r, t = 4, 1, n_e - 1
        if kind is ModelKind.DISTMULT:
            tails = -ents @ (ents[h] * params.relation_vectors[r])
            heads = -ents @ (params.relation_vectors[r] * ents[t])
        else:
            if kind is ModelKind.LSE:
                mat = params.relation_matrices[r]
                tail_res, head_res = ents[h] @ mat - ents, ents @ mat - ents[t]
            elif kind is ModelKind.LSE_D:
                vec = params.relation_vectors[r]
                tail_res, head_res = ents[h] * vec - ents, ents * vec - ents[t]
            else:
                vec = params.relation_vectors[r]
                tail_res, head_res = ents[h] + vec - ents, ents + vec - ents[t]
            if p_norm == 1:
                tails, heads = (np.abs(x).sum(axis=1)
                                for x in (tail_res, head_res))
            else:
                tails, heads = (np.sqrt((x * x).sum(axis=1))
                                for x in (tail_res, head_res))
        assert np.array_equal(all_tail_energies(params, h, r, p_norm), tails)
        blocked = all_head_energies(params, r, t, p_norm)
        if kind is ModelKind.LSE:
            # a matmul over one block may block its sums differently
            np.testing.assert_allclose(blocked, heads, rtol=64 * EPS, atol=0)
        else:
            assert np.array_equal(blocked, heads)

    @pytest.mark.parametrize("kind", DISTANCE_KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    @pytest.mark.parametrize("n_e", [1, 50, _BLOCK_ROWS])
    def test_one_block_table_equals_block_scan(self, kind, p_norm, n_e):
        # a table of at most one block is mapped and normed as one
        params = make_params(kind, n_e=n_e, d=40, seed=n_e)
        h, r, t = 0, 1, n_e - 1
        assert np.array_equal(all_tail_energies(params, h, r, p_norm),
                              whole_table_energies(params, "tail", h, r,
                                                   p_norm))
        assert np.array_equal(all_head_energies(params, r, t, p_norm),
                              whole_table_energies(params, "head", t, r,
                                                   p_norm))

    def test_lse_d_self_hit(self):
        params = make_params(ModelKind.LSE_D, seed=23)
        params.relation_vectors[0] = 1.0
        energies = all_tail_energies(params, 2, 0, p=1)
        assert energies[2] == 0.0


# a chunk of 16 queries scans 32-row slices; 17 leave a remainder in each
# block, and more queries than a block has rows scan one row at a time
QUERY_COUNTS = [1, 16, 17, _BLOCK_ROWS + 1]


class TestAllEntityEnergies:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    @pytest.mark.parametrize("n_e", [50, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 7])
    @pytest.mark.parametrize("n_queries", QUERY_COUNTS)
    def test_rows_are_bitwise_the_single_queries(self, kind, p_norm, n_e,
                                                 n_queries):
        params = make_params(kind, n_e=n_e, n_r=5, d=7, seed=n_e + p_norm)
        rng = np.random.default_rng(n_queries)
        anchors = rng.integers(0, n_e, n_queries)
        # the relations cycle, so a batch of 16 spans all five
        rels = (np.arange(n_queries) + rng.integers(5)) % 5
        if n_queries >= 16:
            assert len(set(rels[:16].tolist())) >= 3
        tails = all_entity_energies(params, "tail", anchors, rels, p_norm)
        heads = all_entity_energies(params, "head", anchors, rels, p_norm)
        assert tails.shape == heads.shape == (n_queries, n_e)
        want_tails = np.stack([all_tail_energies(params, a, r, p_norm)
                               for a, r in zip(anchors, rels)])
        want_heads = np.stack([all_head_energies(params, r, a, p_norm)
                               for a, r in zip(anchors, rels)])
        assert np.array_equal(tails.view(np.uint64),
                              want_tails.view(np.uint64))
        assert np.array_equal(heads.view(np.uint64),
                              want_heads.view(np.uint64))

    @pytest.mark.parametrize("d", [7, 100])
    def test_lse_heads_map_whole_blocks(self, d):
        # more queries of one relation than a block has rows scan one-row
        # slices; a one-row product sums unlike the block's
        params = make_params(ModelKind.LSE, n_e=2 * _BLOCK_ROWS + 7, n_r=2,
                             d=d, seed=d)
        anchors = np.arange(_BLOCK_ROWS + 1)
        rels = np.ones(len(anchors), np.int64)
        heads = all_entity_energies(params, "head", anchors, rels, 1)
        want = np.stack([all_head_energies(params, 1, a, 1) for a in anchors])
        assert np.array_equal(heads.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind", DISTANCE_KINDS)
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_residual_sign_leaves_energies_bitwise(self, kind, p_norm):
        # the scan's tail residual is e - map(h), the negative of the
        # training kernel's map(h) - e. Zeros of both signs in the tables,
        # and rows equal to a mapped anchor, make entries of +0.0 and -0.0
        params = make_params(kind, n_e=40, n_r=2, d=6, seed=42)
        ents, table = params.entities, params.relations
        rng = np.random.default_rng(42)
        for values, share in ((ents, 0.4), (table, 0.2)):
            values[rng.random(values.shape) < share / 2] = 0.0
            values[rng.random(values.shape) < share / 2] = -0.0
        table[..., 0] = 0.0  # an LSE map zeroes every row's first entry
        anchors, rels = np.array([0, 1, 2]), np.array([0, 1, 0])
        for i, (a, r) in enumerate(zip(anchors, rels)):
            # query i's tail anchor maps onto row 10 + i, and row 20 + i
            # maps onto its head anchor
            ents[a] = map_heads(params, ents, r)[20 + i]
            ents[10 + i] = map_heads(params, ents[a], r)
        for side, exact in (("tail", 10), ("head", 20)):
            got = all_entity_energies(params, side, anchors, rels, p_norm)
            want = np.stack([whole_table_energies(params, side, a, r, p_norm)
                             for a, r in zip(anchors, rels)])
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64))
            assert not got[np.arange(3), exact + np.arange(3)].any()
        # the scan's tail residuals hold zeros of both signs
        mapped = np.stack([map_heads(params, ents[a], r)
                           for a, r in zip(anchors, rels)])
        zeros = np.signbit((ents - mapped[:, None])[ents == mapped[:, None]])
        assert zeros.any() and not zeros.all()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("side", ["tail", "head"])
    @pytest.mark.parametrize("n_e", [0, 50, 2 * _BLOCK_ROWS + 7])
    def test_no_queries_give_no_rows(self, kind, side, n_e):
        params = make_params(kind, n_e=n_e, n_r=2, d=5)
        energies = all_entity_energies(params, side, [], [])
        assert energies.shape == (0, n_e) and energies.dtype == np.float64

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            all_entity_energies(make_params(ModelKind.LSE_D), "middle",
                                [0], [0])


class TestLemmaDiagnostics:
    def test_lse_d_plus_minus_one_is_symmetric_exact(self):
        params = make_params(ModelKind.LSE_D, d=4, seed=31)
        params.relation_vectors[0] = np.array([1.0, -1.0, 1.0, -1.0])
        stats = {0: RelationStats(n_triples=4, symmetry_score=1.0)}
        diag = lemma_diagnostics(params, stats)
        assert diag["symmetric"][0]["residual"] == 0.0

    def test_lse_exact_inverse_pair(self):
        params = make_params(ModelKind.LSE, d=4, seed=32)
        params.relation_matrices[1] = np.linalg.inv(
            params.relation_matrices[0])
        stats = {0: RelationStats(n_triples=4,
                                  inverse_partners=[(1, 1.0)])}
        diag = lemma_diagnostics(params, stats)
        assert diag["inverse"][0]["residual"] == pytest.approx(0.0, abs=1e-9)

    def test_lse_exact_composition(self):
        params = make_params(ModelKind.LSE, d=4, seed=33)
        params.relation_matrices[2] = (params.relation_matrices[0]
                                       @ params.relation_matrices[1])
        stats = {2: RelationStats(n_triples=9,
                                  composition_samples=[(0, 1, 2, 9)])}
        diag = lemma_diagnostics(params, stats)
        assert diag["composition"][0]["residual"] == pytest.approx(0.0,
                                                                   abs=1e-9)

    def test_transe_reports_degeneracy_witness(self):
        params = make_params(ModelKind.TRANSE, seed=34)
        stats = {0: RelationStats(n_triples=4, symmetry_score=0.95)}
        diag = lemma_diagnostics(params, stats)
        rec = diag["symmetric"][0]
        assert rec["residual"] == pytest.approx(
            np.linalg.norm(params.relation_vectors[0]))
        assert rec["norm_ratio"] > 0

    def test_distmult_inverse_pair_is_an_equal_relation(self):
        # DistMult scores (h, r1, t) and (t, r2, h) alike when r2 = r1
        params = init_params(ModelKind.DISTMULT, 6, 2, 4, seed=1)
        params.relation_vectors[1] = params.relation_vectors[0]
        for h in range(6):
            for t in range(6):
                assert energy(params, h, 0, t) == energy(params, t, 1, h)
        stats = {0: RelationStats(n_triples=4,
                                  symmetry_score=1.0,
                                  inverse_partners=[(1, 1.0)])}
        diag = lemma_diagnostics(params, stats)
        assert diag["inverse"][0]["residual"] == 0.0
        assert diag["symmetric"][0]["residual"] == 0.0
        params.relation_vectors[1, 2] += 0.25
        diag = lemma_diagnostics(params, stats)
        assert diag["inverse"][0]["residual"] == pytest.approx(0.25)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_record_has_one_shape(self, kind):
        params = make_params(kind, seed=35)
        stats = {
            0: RelationStats(n_triples=4, symmetry_score=0.9,
                             inverse_partners=[(1, 0.85)]),
            2: RelationStats(n_triples=9,
                             composition_samples=[(0, 1, 2, 9),
                                                  (1, 1, 2, 4)]),
        }
        diag = lemma_diagnostics(params, stats)
        (sym,), (inv,) = diag["symmetric"], diag["inverse"]
        (comp,) = diag["composition"]  # support 4 is below the minimum 5
        ratio = {"norm_ratio"} if kind is ModelKind.TRANSE else set()
        assert set(sym) == {"relations", "score", "residual"} | ratio
        assert set(inv) == {"relations", "score", "residual"}
        assert set(comp) == {"relations", "support", "residual"}
        assert (sym["relations"], sym["score"]) == ((0,), 0.9)
        assert (inv["relations"], inv["score"]) == ((0, 1), 0.85)
        assert (comp["relations"], comp["support"]) == ((0, 1, 2), 9)
        assert all(type(rec["residual"]) is float for rec in (sym, inv, comp))
