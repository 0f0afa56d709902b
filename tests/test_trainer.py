import json
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import scalar_reference
from drrl import dataio
from drrl import trainer as tr
from drrl.dataio import BatchSample, split_iid
from drrl.graphmodel import (BackboneConfig, EmbeddingTable, InteractionGraph, load_checkpoint,
                             save_checkpoint)
from drrl.losses import LOSS_KINDS, LiveEntries, LossSpec, MarginState
from drrl.synthetic import make_block_log


def toy_setup(seed=0, kind="mf"):
    table = EmbeddingTable.init_normal(4, 4, 3, seed=seed)
    pairs = [(u, i) for u in range(4) for i in range(4) if (u + i) % 2 == 0]
    graph = InteractionGraph(np.asarray(pairs), 4, 4)
    cfg = BackboneConfig(kind=kind, layers=2)
    batch = BatchSample(
        np.array([[0, 0], [1, 1], [2, 2]]),
        np.array([[1, 3], [0, 2], [3, 1]]),
        np.zeros((3, 2), dtype=bool),
    )
    return table, graph, cfg, batch


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # bias correction makes the very first update lr * g / (|g| + floor)
        adam = tr.Adam({"w": (2,)})
        params = {"w": np.array([1.0, -1.0])}
        adam.step(params, {"w": np.array([0.5, -2.0])}, 0.1)
        np.testing.assert_allclose(params["w"], [0.9, -0.9], atol=1e-6)

    def test_rejects_non_finite_gradients(self):
        adam = tr.Adam({"w": (1,)})
        with pytest.raises(FloatingPointError):
            adam.step({"w": np.zeros(1)}, {"w": np.array([np.nan])}, 0.1)

    # one block; blocks of 2 rows, the last one short; rows wider than the block
    @pytest.mark.parametrize("block", [tr.CACHE_BLOCK, 6, 2])
    def test_matches_fresh_array_reference_bit_for_bit(self, block, monkeypatch):
        monkeypatch.setattr(tr, "CACHE_BLOCK", block)
        shapes = {"user": (7, 3), "item": (5, 3), "bias": (4,)}
        rng = np.random.default_rng(8)
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref_params = {k: p.copy() for k, p in params.items()}
        adam, ref = tr.Adam(shapes), scalar_reference.Adam(shapes)
        for _ in range(5):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s)
                     for k, s in shapes.items()}
            adam.step(params, grads, 0.01)
            ref.step(ref_params, grads, 0.01)
            for k in shapes:
                np.testing.assert_array_equal(params[k], ref_params[k])
                np.testing.assert_array_equal(adam.m[k], ref.m[k])
                np.testing.assert_array_equal(adam.v[k], ref.v[k])


def test_weight_decay_touches_only_batch_rows():
    table = EmbeddingTable.init_normal(3, 3, 2, seed=0)
    gu = np.zeros((3, 2))
    gi = np.zeros((3, 2))
    # repeated ids decay their row once
    tr.apply_weight_decay(table, gu, gi, np.array([1, 1]), (np.array([0, 2, 0]),), 0.5)
    np.testing.assert_allclose(gu[1], table.user[1])
    assert not gu[0].any() and not gu[2].any()
    assert not gi[1].any()


def test_weight_decay_counts_an_item_once_across_positives_and_negatives():
    table = EmbeddingTable.init_normal(3, 5, 2, seed=1)
    gu = np.zeros((3, 2))
    gi = np.zeros((5, 2))
    # item 3 is row 0's positive and row 1's negative (twice)
    positives, negatives = np.array([3, 1]), np.array([[0, 0], [3, 3]])
    tr.apply_weight_decay(table, gu, gi, np.array([0, 2]), (positives, negatives), 0.25)
    np.testing.assert_array_equal(gi[3], 2 * 0.25 * table.item[3])
    np.testing.assert_array_equal(gi[[0, 1]], 2 * 0.25 * table.item[[0, 1]])
    assert not gi[[2, 4]].any()
    np.testing.assert_array_equal(gu[[0, 2]], 2 * 0.25 * table.user[[0, 2]])
    assert not gu[1].any()


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(lr=0.0).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(noise=2.0).validate()
    with pytest.raises(ValueError):
        tr.TrainConfig(noise_pool="other").validate()
    # K = 0 would fail only after a whole epoch, in the evaluator; zero
    # tables make every cosine 0 / 0
    for key, value in (("metric_k", 0), ("metric_k", -5), ("init_std", 0.0),
                       ("init_std", -0.1)):
        with pytest.raises(ValueError, match=f"train.{key} must be positive"):
            tr.TrainConfig(**{key: value}).validate()
    # numpy would refuse a negative seed only at the first draw, unnamed
    with pytest.raises(ValueError, match="train.seed must be nonnegative"):
        tr.TrainConfig(seed=-1).validate()


def test_margin_update_happens_before_loss():
    table, graph, cfg, batch = toy_setup()
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.0, eps=0.1, beta0=0.2,
                    lr_beta=0.05)
    margins = MarginState.initialize(4, spec.beta0)
    before = margins.beta.copy()
    tr.loss_and_gradients(table, graph, cfg, spec, margins, batch, margin_update=True)
    # batch users 0..2 get margin steps, user 3 untouched
    assert not np.array_equal(margins.beta[:3], before[:3])
    assert margins.beta[3] == before[3]


def test_no_margin_update_leaves_margins_alone():
    # without a margin step, the default, a DrRL pass leaves the margins alone
    table, graph, cfg, batch = toy_setup()
    spec = LossSpec(kind="drrl", beta0=0.2)
    for update in ({}, {"margin_update": False}):
        margins = MarginState.initialize(4, spec.beta0)
        tr.loss_and_gradients(table, graph, cfg, spec, margins, batch, **update)
        np.testing.assert_array_equal(margins.beta, np.full(4, 0.2))


@pytest.mark.parametrize("kind", ["drrl", "sl"])
def test_empty_batch_fails_with_a_named_error(kind):
    table, graph, cfg, _ = toy_setup()
    batch = BatchSample(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64),
                        np.zeros((0, 2), dtype=bool))
    with pytest.raises(ValueError, match="empty batch"):
        tr.loss_and_gradients(table, graph, cfg, LossSpec(kind=kind),
                              MarginState.initialize(4, 0.1), batch, margin_update=True)


def _relative_gap(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n", [2, 3, 10, 200, 1000])
def test_infonce_matches_dense_reference(n):
    # n live nodes of uneven norms, plus one zero row in each view
    rng = np.random.default_rng(n)
    zf = rng.normal(size=(n + 2, 8)) * rng.uniform(0.1, 3.0, size=(n + 2, 1))
    zl = rng.normal(size=(n + 2, 8)) * rng.uniform(0.1, 3.0, size=(n + 2, 1))
    zf[n // 2] = 0.0
    zl[n + 1] = 0.0
    value, d_final, d_lstar = tr.infonce_auxiliary(zf, zl, 0.2, 0.5)
    ref_value, ref_final, ref_lstar = scalar_reference.infonce_auxiliary(zf, zl, 0.2, 0.5)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert _relative_gap(d_final, ref_final) <= 1e-12
    assert _relative_gap(d_lstar, ref_lstar) <= 1e-12
    assert not d_final[[n // 2, n + 1]].any() and not d_lstar[[n // 2, n + 1]].any()


def _clustered_views(n, seed, d=8):
    """Two (n + 2, d) views around one shared direction, of uneven norms,
    with one zero row in each: their cosines are close, so a row's softmax
    is not one-hot to rounding even at temperature 1e-3."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=d)
    views = [(base + 0.1 * rng.normal(size=(n + 2, d))) * rng.uniform(0.1, 3.0, (n + 2, 1))
             for _ in range(2)]
    views[0][n // 2] = 0.0
    views[1][n + 1] = 0.0
    return views


@pytest.mark.parametrize("n", [2, 3, 10, 200, 1000])
def test_infonce_shifts_each_row_by_its_max_where_the_exps_would_overflow(n):
    # 1 / temperature = 1000 lies above float64's exp range, so every row is
    # shifted by its max before the exp
    zf, zl = _clustered_views(n, n)
    value, d_final, d_lstar = tr.infonce_auxiliary(zf, zl, 1e-3, 0.5)
    ref_value, ref_final, ref_lstar = scalar_reference.infonce_auxiliary(zf, zl, 1e-3, 0.5)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert _relative_gap(d_final, ref_final) <= 1e-12
    assert _relative_gap(d_lstar, ref_lstar) <= 1e-12
    assert not d_final[[n // 2, n + 1]].any() and not d_lstar[[n // 2, n + 1]].any()


@pytest.mark.parametrize("temperature", [0.2, 0.01], ids=["unshifted", "row_max"])
@pytest.mark.parametrize("n", [2, 3, 10, 200, 700])
def test_float32_infonce_matches_the_float64_reference(n, temperature):
    # float32's exp overflows above 88.7: at 0.2 the logits are taken
    # unshifted, at 0.01 (1 / t = 100) each row is shifted by its max. The
    # bound is float32 rounding: the kernel that shifted every row read at
    # most 1.3e-5 on these views
    zf, zl = _clustered_views(n, n)
    value, d_final, d_lstar = tr.infonce_auxiliary(zf.astype(np.float32),
                                                   zl.astype(np.float32), temperature, 0.5)
    ref_value, ref_final, ref_lstar = scalar_reference.infonce_auxiliary(zf, zl, temperature,
                                                                         0.5)
    assert d_final.dtype == d_lstar.dtype == np.float32
    assert abs(value - ref_value) <= 5e-5 * abs(ref_value)
    assert _relative_gap(d_final, ref_final) <= 5e-5
    assert _relative_gap(d_lstar, ref_lstar) <= 5e-5


def test_aligned_float32_views_at_a_low_temperature_stay_finite():
    # identical views put every logit's row max on the diagonal, at
    # 1 / t = 200, far beyond float32's exp range
    z = np.random.default_rng(3).normal(size=(300, 16)).astype(np.float32)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        value, d_final, d_lstar = tr.infonce_auxiliary(z, z.copy(), 0.005, 0.5)
    assert np.isfinite(value)
    assert np.isfinite(d_final).all() and np.isfinite(d_lstar).all()


def test_infonce_keeps_the_gradient_of_a_row_one_hot_to_rounding():
    # two nodes, each closer to its own view than to the other's by about
    # 0.1 in cosine: at t = 1e-3 a row's other exp is about e^-100 of its
    # own, far below float64's rounding of 1, so the softmax rounds to one-hot.
    # The gradient is then, in closed form, scale p (l_other - l_own) for the
    # other node's softmax weight p, pulled back to the unit view
    zf = np.array([[1.0, 0.0, 0.1], [0.9, 0.45, 0.0]])
    zl = np.array([[1.0, 0.02, 0.1], [0.9, 0.44, 0.02]])
    t, weight = 1e-3, 0.5
    _, d_final, _ = tr.infonce_auxiliary(zf, zl, t, weight)
    fhat = zf / np.linalg.norm(zf, axis=1, keepdims=True)
    lhat = zl / np.linalg.norm(zl, axis=1, keepdims=True)
    cos = fhat @ lhat.T
    p = np.exp((cos[[0, 1], [1, 0]] - cos[[0, 1], [0, 1]]) / t)  # / (1 + p), which is 1
    assert np.all((p > 1e-300) & (p < 1e-20))
    g = weight / (2 * t) * p[:, None] * (lhat[::-1] - lhat)
    want = (g - np.einsum("nd,nd->n", g, fhat)[:, None] * fhat) / np.linalg.norm(
        zf, axis=1, keepdims=True)
    assert _relative_gap(d_final, want) <= 1e-12


def test_infonce_matches_the_reference_on_random_two_node_views_at_a_low_temperature():
    # at t = 0.01 a random 2-node row's other exp is often far below the
    # rounding of its own, so both the kernel and the reference must form
    # p_ii - 1 from the off-diagonal mass; the losses round alike only to
    # about 1e-7 there (log of 1 + x), so only the gradients are compared
    for seed in range(50):
        zf, zl = np.random.default_rng(seed).normal(size=(2, 2, 8))
        _, d_final, d_lstar = tr.infonce_auxiliary(zf, zl, 0.01, 0.5)
        _, ref_final, ref_lstar = scalar_reference.infonce_auxiliary(zf, zl, 0.01, 0.5)
        assert _relative_gap(d_final, ref_final) <= 1e-12
        assert _relative_gap(d_lstar, ref_lstar) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_sums_add_in_batch_order_as_a_2d_add_at(dtype):
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 7, 300)  # every user repeats
    values = rng.normal(size=(300, 5)).astype(dtype)
    like = np.empty((7, 5), dtype)
    want = np.zeros_like(like)
    np.add.at(want, rows, values)
    got = tr._row_sums(rows, values, like)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


# a margin step, as `train_step` takes, and none, as the verify chain takes
MARGIN_UPDATES = pytest.mark.parametrize("margin_update", [True, False],
                                         ids=["per_user", "fixed"])


@MARGIN_UPDATES
@pytest.mark.parametrize("backbone", ["mf", "lightgcn", "xsimgcl"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_matches_scalar_reference(kind, backbone, margin_update, monkeypatch):
    n_users, n_items, d, n_neg = 6, 9, 4, 7
    rng = np.random.default_rng(11)
    table = EmbeddingTable.init_normal(n_users, n_items, d, seed=3)
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if (u * 3 + i) % 4 == 0]
    graph = InteractionGraph(np.asarray(pairs), n_users, n_items)
    cfg = BackboneConfig(kind=backbone, layers=2, noise_modulus=0.0, infonce_weight=0.5)
    # repeated users and items, and a last chunk shorter than the others
    batch = BatchSample(
        np.array([[0, 1], [2, 3], [0, 4], [5, 1], [3, 8]]),
        rng.integers(0, n_items, size=(5, n_neg)),
        np.zeros((5, n_neg), dtype=bool),
    )
    monkeypatch.setattr(dataio, "BLOCK_BYTES", 2 * 2 * 8 * n_neg * d)
    spec = LossSpec(kind=kind, tau=0.2, alpha=2.0, margin=0.1, gamma_star=2.0, c=1.2,
                    eps=0.1, beta0=0.1, lr_beta=0.05)
    start = MarginState(rng.uniform(-0.2, 0.4, n_users))
    margins, ref_margins = start.copy(), start.copy()
    value, gu, gi = tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                                          margin_update=margin_update)
    ref_value, ref_gu, ref_gi = scalar_reference.loss_and_gradients(
        table, graph, cfg, spec, ref_margins, batch, margin_update=margin_update)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert _relative_gap(gu, ref_gu) <= 1e-12
    assert _relative_gap(gi, ref_gi) <= 1e-12
    assert _relative_gap(margins.beta, ref_margins.beta) <= 1e-12
    if kind == "drrl" and margin_update:
        assert not np.array_equal(margins.beta, start.beta)


# the catalogue-dense and catalogue-sparse pullback regimes; the sparse
# regime's case ids keep the name it had while it gathered the negatives' rows
REGIMES = pytest.mark.parametrize("regime", ["dense", "sparse"], ids=["dense", "gather"])


@MARGIN_UPDATES
@pytest.mark.parametrize("backbone", ["mf", "lightgcn", "xsimgcl"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
@REGIMES
def test_matches_scalar_reference_in_each_regime(regime, kind, backbone, margin_update,
                                                 monkeypatch):
    # 9 items pull back densely against 7 negatives, 40 items sparsely
    # against 3; the budget fits two rows' float64 (rows x items) score
    # block, so the scorer walks row chunks of 2, 2 and 1
    n_users, d = 6, 4
    n_items, n_neg = (9, 7) if regime == "dense" else (40, 3)
    assert (n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)) == (regime == "dense")
    monkeypatch.setattr(dataio, "BLOCK_BYTES", 2 * 2 * 8 * n_items)
    chunks, pulled, sparse = [], [], []
    monkeypatch.setattr(tr, "_negative_scores", lambda *a, f=tr._negative_scores:
                        chunks.append([c.stop - c.start for c in a[3]]) or f(*a))
    monkeypatch.setattr(tr, "_dense_score_pullback", lambda *a, f=tr._dense_score_pullback:
                        pulled.append([c.stop - c.start for c in a[6]]) or f(*a))
    monkeypatch.setattr(tr, "_sparse_score_pullback",
                        lambda *a, f=tr._sparse_score_pullback: sparse.append(1) or f(*a))
    rng = np.random.default_rng(12)
    table = EmbeddingTable.init_normal(n_users, n_items, d, seed=4)
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if (u * 7 + i) % 5 == 0]
    graph = InteractionGraph(np.asarray(pairs), n_users, n_items)
    cfg = BackboneConfig(kind=backbone, layers=2, noise_modulus=0.0, infonce_weight=0.5)
    # repeated users, a negative repeated within a row and equal to a positive
    batch = BatchSample(
        np.array([[0, 5], [2, 3], [0, 1], [5, 0], [3, n_items - 1]]),
        np.vstack([[5, 5, 1] + [2] * (n_neg - 3), rng.integers(0, n_items, size=(4, n_neg))]),
        np.zeros((5, n_neg), dtype=bool),
    )
    spec = LossSpec(kind=kind, tau=0.2, alpha=2.0, margin=0.1, gamma_star=2.0, c=1.2,
                    eps=0.1, beta0=0.1, lr_beta=0.05)
    start = MarginState(rng.uniform(-0.2, 0.4, n_users))
    margins, ref_margins = start.copy(), start.copy()
    value, gu, gi = tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                                          margin_update=margin_update)
    ref_value, ref_gu, ref_gi = scalar_reference.loss_and_gradients(
        table, graph, cfg, spec, ref_margins, batch, margin_update=margin_update)
    assert chunks == [[2, 2, 1]]
    assert pulled == ([] if regime == "sparse" else chunks)
    assert bool(sparse) == (regime == "sparse")
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert _relative_gap(gu, ref_gu) <= 1e-12
    assert _relative_gap(gi, ref_gi) <= 1e-12
    assert _relative_gap(margins.beta, ref_margins.beta) <= 1e-12


@pytest.mark.parametrize("backbone", ["mf", "lightgcn", "xsimgcl"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
@REGIMES
def test_float32_step_matches_float64_step(regime, kind, backbone):
    # the scalar-reference step cases on a float32 copy of the table: every
    # kernel but the float64 loss kernels computes in float32
    n_users, d = 6, 4
    n_items, n_neg = (9, 7) if regime == "dense" else (40, 3)
    rng = np.random.default_rng(12)
    table = EmbeddingTable.init_normal(n_users, n_items, d, seed=4)
    table32 = EmbeddingTable(table.user.astype(np.float32), table.item.astype(np.float32))
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if (u * 7 + i) % 5 == 0]
    graph = InteractionGraph(np.asarray(pairs), n_users, n_items)
    cfg = BackboneConfig(kind=backbone, layers=2, noise_modulus=0.0, infonce_weight=0.5)
    batch = BatchSample(
        np.array([[0, 5], [2, 3], [0, 1], [5, 0], [3, n_items - 1]]),
        np.vstack([[5, 5, 1] + [2] * (n_neg - 3), rng.integers(0, n_items, size=(4, n_neg))]),
        np.zeros((5, n_neg), dtype=bool),
    )
    spec = LossSpec(kind=kind, tau=0.2, alpha=2.0, margin=0.1, gamma_star=2.0, c=1.2,
                    eps=0.1, beta0=0.1, lr_beta=0.05)
    start = MarginState(rng.uniform(-0.2, 0.4, n_users))
    margins, margins32 = start.copy(), start.copy()
    value, gu, gi = tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                                          margin_update=True)
    value32, gu32, gi32 = tr.loss_and_gradients(table32, graph, cfg, spec, margins32, batch,
                                                margin_update=True)
    assert gu32.dtype == gi32.dtype == np.float32
    assert margins32.beta.dtype == np.float64
    assert abs(value32 - value) <= 1e-4 * abs(value)
    assert _relative_gap(gu32, gu) <= 1e-4
    assert _relative_gap(gi32, gi) <= 1e-4
    assert _relative_gap(margins32.beta, margins.beta) <= 1e-4


def _live_rule_case(n_items, n_neg, backbone="mf"):
    """The regime tests' set-up at a given shape: 5 rows of 6 users with
    repeated users and a negative repeated within a row and equal to a
    positive."""
    rng = np.random.default_rng(12)
    table = EmbeddingTable.init_normal(6, n_items, 4, seed=4)
    pairs = [(u, i) for u in range(6) for i in range(n_items) if (u * 7 + i) % 5 == 0]
    graph = InteractionGraph(np.asarray(pairs), 6, n_items)
    cfg = BackboneConfig(kind=backbone, layers=2, noise_modulus=0.0, infonce_weight=0.5)
    batch = BatchSample(
        np.array([[0, 5], [2, 3], [0, 1], [5, 0], [3, n_items - 1]]),
        np.vstack([[5, 5, 1] + [2] * (n_neg - 3), rng.integers(0, n_items, size=(4, n_neg))]),
        np.zeros((5, n_neg), dtype=bool),
    )
    return table, graph, cfg, batch


def _live_count(d_neg):
    """The live negatives of a d_neg that a pullback takes, in either form."""
    return len(d_neg.index) if isinstance(d_neg, LiveEntries) else np.count_nonzero(d_neg)


def _record_pullbacks(monkeypatch):
    """The pullback each `loss_and_gradients` call takes with the live
    negatives of the d_neg it pulls back, and the entry count of each
    sparse matrix it builds."""
    taken, entries = [], []
    for name in ("dense", "sparse"):
        monkeypatch.setattr(tr, f"_{name}_score_pullback",
                            lambda *a, f=getattr(tr, f"_{name}_score_pullback"), name=name:
                            taken.append((name, _live_count(a[5]))) or f(*a))

    def csr_matrix(arrays, **kwargs):
        entries.append(len(arrays[0]))
        return sp.csr_matrix(arrays, **kwargs)

    monkeypatch.setattr(tr, "sp", types.SimpleNamespace(csr_matrix=csr_matrix))
    return taken, entries


def _assert_matches_scalar_reference(table, graph, cfg, spec, start, batch, margin_update):
    margins, ref_margins = start.copy(), start.copy()
    value, gu, gi = tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                                          margin_update=margin_update)
    ref_value, ref_gu, ref_gi = scalar_reference.loss_and_gradients(
        table, graph, cfg, spec, ref_margins, batch, margin_update=margin_update)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert _relative_gap(gu, ref_gu) <= 1e-12
    assert _relative_gap(gi, ref_gi) <= 1e-12
    np.testing.assert_allclose(margins.beta, ref_margins.beta, rtol=1e-12, atol=0)


@MARGIN_UPDATES
@pytest.mark.parametrize("backbone", ["mf", "lightgcn", "xsimgcl"])
def test_fully_truncated_batch_at_a_dense_catalogue_pulls_back_only_its_positives(
        backbone, margin_update, monkeypatch):
    # 9 items against 7 negatives are catalogue-dense, but margins above
    # every cosine (still above 1 after the margin step) truncate every
    # negative: only the 5 positives carry a gradient
    n_items, n_neg = 9, 7
    assert n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    table, graph, cfg, batch = _live_rule_case(n_items, n_neg, backbone)
    taken, entries = _record_pullbacks(monkeypatch)
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1, lr_beta=0.05)
    start = MarginState(np.linspace(1.2, 1.5, 6))
    _assert_matches_scalar_reference(table, graph, cfg, spec, start, batch, margin_update)
    assert taken == [("sparse", 0)] and entries == [len(batch.pairs)]


def test_all_live_loss_at_a_dense_catalogue_keeps_the_dense_pullback(monkeypatch):
    table, graph, cfg, batch = _live_rule_case(9, 7)
    taken, entries = _record_pullbacks(monkeypatch)
    tr.loss_and_gradients(table, graph, cfg, LossSpec(kind="sl", tau=0.2),
                          MarginState.initialize(6, 1.5), batch)
    assert taken == [("dense", batch.negatives.size)] and entries == []


@pytest.mark.parametrize("kind", ["ccl", "drrl"])
def test_partly_live_batch_takes_the_side_its_live_count_predicts(kind, monkeypatch):
    # 40 items against 7 negatives are catalogue-dense; the live rule keeps
    # 5 rows dense while 40 * 5 <= 8 (5 + live negatives), at 20 or more of
    # the 35. The margins sweep the live count across that line
    n_items, n_neg = 40, 7
    assert n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    table, graph, cfg, batch = _live_rule_case(n_items, n_neg)
    taken, entries = _record_pullbacks(monkeypatch)
    for margin in np.linspace(-0.6, 0.6, 13):
        spec = LossSpec(kind=kind, alpha=2.0, margin=margin, gamma_star=2.0, c=1.2, eps=0.1)
        _assert_matches_scalar_reference(table, graph, cfg, spec, MarginState(np.full(6, margin)),
                                         batch, margin_update=False)
    assert [name for name, _ in taken] == [
        "dense" if n_items * 5 <= 8 * (5 + live) else "sparse" for _, live in taken]
    assert entries == [5 + live for name, live in taken if name == "sparse"]
    assert 0 < len(entries) < len(taken)


def _every_slot_sparse_score_pullback(user_rows, item_unit, pos_items, negatives, d_pos, d_neg):
    """`_sparse_score_pullback` as it was before it dropped zero entries:
    every slot of every row, in slot order, in the dtype of d_pos and d_neg."""
    items = np.hstack([pos_items[:, None], negatives])
    coeff = sp.csr_matrix(
        (
            np.hstack([d_pos, d_neg]).ravel(),
            items.ravel(),
            np.arange(0, items.size + 1, items.shape[1]),
        ),
        shape=(len(items), len(item_unit)),
    )
    return coeff @ item_unit, coeff.T @ user_rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sparse_pullback_of_live_entries_equals_the_every_slot_pullback_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    batch_size, n_neg, n_items, d = 64, 30, 500, 8
    user_rows = rng.normal(size=(batch_size, d)).astype(dtype)
    item_unit = rng.normal(size=(n_items, d)).astype(dtype)
    pos_items = rng.integers(0, n_items, batch_size)
    negatives = rng.integers(0, n_items, (batch_size, n_neg))
    negatives[:, 1] = negatives[:, 0]  # repeats within a row
    negatives[:, 2] = pos_items  # and a negative equal to the positive
    d_pos = rng.normal(size=(batch_size, 1))
    d_neg = rng.normal(size=(batch_size, n_neg)) * (rng.random((batch_size, n_neg)) < 0.3)
    d_neg[[0, 7, -1]] = 0.0  # rows without a live negative, the first and last among them
    d_neg[8] = -0.0
    d_neg[9] = rng.normal(size=n_neg)  # a row whose every negative is live
    live = np.flatnonzero(d_neg)
    want = _every_slot_sparse_score_pullback(user_rows, item_unit, pos_items, negatives,
                                             d_pos.astype(dtype), d_neg.astype(dtype))
    # the live entries of a truncating loss, and the (B, n) array of an
    # all-live one, as batch_loss returns each
    for form in (LiveEntries(live, d_neg.ravel()[live], d_neg.shape), d_neg):
        got = tr._sparse_score_pullback(user_rows, item_unit, pos_items, negatives, d_pos, form)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype
            assert g.tobytes() == w.tobytes()


def _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg, kind="mf",
                                   dtype=np.float64):
    rng = np.random.default_rng(0)
    table = EmbeddingTable.init_normal(n_users, n_items, d, seed=0, dtype=dtype)
    batch = BatchSample(
        np.stack([rng.integers(0, n_users, batch_size),
                  rng.integers(0, n_items, batch_size)], axis=1),
        rng.integers(0, n_items, size=(batch_size, n_neg)),
        np.zeros((batch_size, n_neg), dtype=bool),
    )
    graph = None
    if kind != "mf":
        pairs = np.stack([rng.integers(0, n_users, 4 * n_items),
                          rng.integers(0, n_items, 4 * n_items)], axis=1)
        graph = InteractionGraph(pairs, n_users, n_items)
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1)
    margins = MarginState.initialize(n_users, 0.1)
    tracemalloc.start()
    try:
        tr.loss_and_gradients(table, graph, BackboneConfig(kind=kind, layers=2), spec,
                              margins, batch, noise_rng=np.random.default_rng(1),
                              margin_update=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fully_truncated_step_forms_no_batch_sized_score_gradient(dtype):
    # margins above every cosine truncate all 1024 x 1024 negatives: the
    # step holds the float64 scores f_neg and the (B x items) score block,
    # about 2 MB of d-sized rows and gradients beside them, and no (B, n)
    # float64 zero gradient, which would add 8 MB
    batch_size = n_neg = 1024
    n_items = 1000
    assert n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)  # the block is held
    rng = np.random.default_rng(0)
    table = EmbeddingTable.init_normal(2000, n_items, 64, seed=0, dtype=dtype)
    batch = BatchSample(
        np.stack([rng.integers(0, 2000, batch_size), rng.integers(0, n_items, batch_size)],
                 axis=1),
        rng.integers(0, n_items, size=(batch_size, n_neg)),
        np.zeros((batch_size, n_neg), dtype=bool),
    )
    spec = LossSpec(kind="drrl", gamma_star=13.5, c=1.0, eps=1e-10)
    tracemalloc.start()
    try:
        tr.loss_and_gradients(table, None, BackboneConfig(kind="mf"), spec,
                              MarginState.initialize(2000, 1.5), batch, margin_update=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scores = 8 * batch_size * n_neg + table.item.itemsize * batch_size * n_items
    assert peak < scores + 8 * batch_size * n_neg // 2


def test_xsimgcl_contrast_set_is_batch_users_and_positive_items(monkeypatch):
    n_users, n_items = 6, 40
    rng = np.random.default_rng(13)
    table = EmbeddingTable.init_normal(n_users, n_items, 4, seed=5)
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if (u * 7 + i) % 5 == 0]
    graph = InteractionGraph(np.asarray(pairs), n_users, n_items)
    cfg = BackboneConfig(kind="xsimgcl", layers=2, noise_modulus=0.0, infonce_weight=0.5)
    # repeated users and positives; negatives drawn from items 20.. only
    batch = BatchSample(np.array([[0, 5], [2, 3], [0, 1], [5, 5], [3, 10]]),
                        rng.integers(20, n_items, size=(5, 6)), np.zeros((5, 6), dtype=bool))
    calls, contrast_grads = [], []
    monkeypatch.setattr(tr, "infonce_auxiliary",
                        lambda *a, f=tr.infonce_auxiliary: calls.append(a) or f(*a))
    monkeypatch.setattr(tr, "backward", lambda *a, f=tr.backward:
                        contrast_grads.append(a[4]) or f(*a))
    tr.loss_and_gradients(table, graph, cfg, LossSpec(kind="sl", tau=0.2),
                          MarginState.initialize(n_users, 0.0), batch)
    out = tr.forward(table, graph, cfg)
    users, items = [0, 2, 3, 5], [1, 3, 5, 10]
    assert [len(a[0]) for a in calls] == [len(users), len(items)]
    np.testing.assert_array_equal(calls[0][0], out.final_user[users])
    np.testing.assert_array_equal(calls[0][1], out.contrast_user[users])
    np.testing.assert_array_equal(calls[1][0], out.final_item[items])
    np.testing.assert_array_equal(calls[1][1], out.contrast_item[items])
    grad_user, grad_item = contrast_grads[0]
    assert not np.delete(grad_user, users, axis=0).any()
    assert not np.delete(grad_item, items, axis=0).any()
    assert grad_item[items].any(axis=1).all()


def test_xsimgcl_step_peak_is_set_by_the_batch_not_the_catalogue():
    # at fixed B the contrast set is fixed, so 4x the items may add to the
    # InfoNCE share of the peak (XSimGCL's over LightGCN's) only the two
    # item-table-shaped arrays XSimGCL holds: the contrast layer and its
    # gradient, plus small allocations. A set holding the sampled negatives
    # would add (n x n) arrays whose n grows with the catalogue.
    n_users, d, batch_size, n_neg = 200, 8, 64, 64
    share = {}
    for n_items in (1000, 4000):
        assert n_items > tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
        share[n_items] = (
            _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg, "xsimgcl")
            - _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg,
                                             "lightgcn"))
    table_growth = 8 * (4000 - 1000) * d
    assert share[4000] - share[1000] <= 2 * table_growth + (64 << 10)


def test_xsimgcl_step_stays_finite_when_a_batch_touches_an_isolated_item():
    # items 200..299 have no train pair, so without noise their propagated
    # (contrast-layer) rows are zero; negatives drawn among them used to make
    # the InfoNCE term divide by a zero norm and return NaN
    rng = np.random.default_rng(0)
    n_users, n_items = 50, 300
    pairs = np.unique(np.stack([rng.integers(0, n_users, 600), rng.integers(0, 200, 600)],
                               axis=1), axis=0)
    graph = InteractionGraph(pairs, n_users, n_items)
    table = EmbeddingTable.init_normal(n_users, n_items, 8, seed=1)
    batch = BatchSample(pairs[rng.integers(0, len(pairs), 32)],
                        rng.integers(0, n_items, size=(32, 16)), np.zeros((32, 16), dtype=bool))
    assert (batch.negatives >= 200).any()
    cfg = BackboneConfig(kind="xsimgcl", layers=2, noise_modulus=0.0, infonce_weight=0.5)
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.5, eps=0.1)
    with np.errstate(divide="raise", invalid="raise"):
        value, grad_user, grad_item = tr.loss_and_gradients(
            table, graph, cfg, spec, MarginState.initialize(n_users, 0.2), batch)
    assert np.isfinite(value)
    assert np.isfinite(grad_user).all() and np.isfinite(grad_item).all()


def test_xsimgcl_step_on_one_repeated_pair_equals_the_step_without_infonce():
    # one distinct user and one distinct positive: each contrast set has a
    # single node, so the InfoNCE term adds nothing at any weight
    n_users, n_items = 4, 6
    rng = np.random.default_rng(3)
    table = EmbeddingTable.init_normal(n_users, n_items, 3, seed=2)
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if (u + i) % 2 == 0]
    graph = InteractionGraph(np.asarray(pairs), n_users, n_items)
    batch = BatchSample(np.array([[1, 3]] * 4), rng.integers(0, n_items, size=(4, 5)),
                        np.zeros((4, 5), dtype=bool))
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.5, eps=0.1)
    steps = []
    for weight in (0.5, 0.0):
        cfg = BackboneConfig(kind="xsimgcl", layers=2, noise_modulus=0.2, infonce_weight=weight)
        margins = MarginState.initialize(n_users, 0.2)
        value, grad_user, grad_item = tr.loss_and_gradients(
            table, graph, cfg, spec, margins, batch, noise_rng=np.random.default_rng(9),
            margin_update=True)
        steps.append((value, grad_user, grad_item, margins.beta))
    assert steps[0][0] == steps[1][0]
    for got, want in zip(steps[0][1:], steps[1][1:]):
        np.testing.assert_array_equal(got, want)
    assert steps[1][1].any() and steps[1][2].any()


def test_loss_and_gradients_memory_bounded_by_chunk_budget():
    n_users, n_items, d, batch_size, n_neg = 100, 200, 128, 64, 512
    assert n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    # one float64 (B, n_neg, d) array would exceed the budget
    assert 8 * batch_size * n_neg * d > dataio.BLOCK_BYTES
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak < dataio.BLOCK_BYTES


def test_loss_and_gradients_memory_bounded_by_chunk_budget_in_sparse_regime():
    n_users, n_items, d, batch_size, n_neg = 100, 1000, 128, 512, 64
    assert n_items > tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    # one float64 (B, n_neg, d) array would exceed the budget
    assert 8 * batch_size * n_neg * d > dataio.BLOCK_BYTES
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak < dataio.BLOCK_BYTES


def test_sparse_regime_scores_within_the_budget_at_a_large_catalogue():
    n_users, n_items, d, batch_size, n_neg = 100, 40000, 8, 512, 64
    assert n_items > tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    # one float64 (B, items) score block would take nearly ten times the budget
    assert 8 * batch_size * n_items > 9 * dataio.BLOCK_BYTES
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak < dataio.BLOCK_BYTES


def test_loss_and_gradients_memory_bounded_by_chunk_budget_in_dense_regime():
    n_users, n_items, d, batch_size, n_neg = 100, 4100, 32, 512, 512
    assert n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    # one float64 (B, items) block would exceed the budget
    assert 8 * batch_size * n_items > dataio.BLOCK_BYTES
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak < dataio.BLOCK_BYTES


def test_preset_shape_step_peaks_no_higher_than_the_l2_chunked_step():
    # B = 1024, n_neg = 1024 on 1000 items: one (1024 x 1000) float64 score
    # block serves the whole batch. The step that scored and pulled back in
    # L2-sized chunks through a bincount block peaked at 27,687,146 traced
    # bytes here (numpy 2.4); holding the float64 scores through the
    # pullback would add their 8 MiB
    n_users, n_items, d, batch_size, n_neg = 2000, 1000, 64, 1024, 1024
    assert n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    assert 8 * batch_size * n_items <= dataio.BLOCK_BYTES // 2
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak <= 27_687_146


@pytest.mark.parametrize("kind", ["mf", "xsimgcl"])
def test_float32_step_peaks_at_most_six_tenths_of_the_float64_step(kind):
    n_users, n_items, d, batch_size, n_neg = 100, 1000, 128, 512, 64
    assert n_items > tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    shape = (n_users, n_items, d, batch_size, n_neg, kind)
    peak64 = _peak_loss_and_gradients_bytes(*shape)
    peak32 = _peak_loss_and_gradients_bytes(*shape, dtype=np.float32)
    assert peak32 <= 0.6 * peak64


def _peak_evaluate_split_bytes(n_users, n_items, d):
    split = split_iid(make_block_log(n_users, n_items, interactions_per_user=20, seed=0),
                      seed=0)
    table = EmbeddingTable.init_normal(n_users, n_items, d, seed=0)
    tracemalloc.start()
    try:
        tr.evaluate_split(table, None, BackboneConfig(kind="mf"), split, [10, 20, 50])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_evaluate_split_memory_bounded_by_block_budget():
    n_items, d = 2000, 16
    # one float64 users x items score matrix would exceed the budget
    assert 8 * 1200 * n_items > dataio.BLOCK_BYTES
    small, large = (_peak_evaluate_split_bytes(n, n_items, d) for n in (1200, 2400))
    unit_tables = 8 * (1200 + n_items) * d
    assert small < dataio.BLOCK_BYTES + unit_tables
    assert large < 1.05 * small


def _smoke_train(spec, seed=0, **overrides):
    log = make_block_log(num_users=30, num_items=20, seed=seed)
    split = split_iid(log, seed=seed)
    kwargs = dict(batch_size=64, n_neg=8, lr=0.05, max_epochs=5, embed_dim=8,
                  metric_k=5, seed=seed)
    kwargs.update(overrides)
    cfg = tr.TrainConfig(**kwargs)
    return tr.train(split, BackboneConfig(kind="mf"), spec, cfg)


def test_training_is_deterministic_given_seed():
    spec = LossSpec(kind="sl", tau=0.2)
    t1, _, r1 = _smoke_train(spec)
    t2, _, r2 = _smoke_train(spec)
    np.testing.assert_array_equal(t1.user, t2.user)
    assert r1.epoch_loss == r2.epoch_loss


def test_training_reduces_loss():
    _, _, report = _smoke_train(LossSpec(kind="bpr"), max_epochs=10)
    assert report.epoch_loss[-1] < report.epoch_loss[0]


def test_best_checkpoint_tracks_validation():
    _, _, report = _smoke_train(LossSpec(kind="sl", tau=0.2), max_epochs=6)
    # every epoch is evaluated
    assert len(report.val_ndcg) == len(report.val_recall) == len(report.epoch_loss)
    assert report.best_metric == pytest.approx(max(report.val_ndcg))


def test_report_serialization(tmp_path):
    _, _, report = _smoke_train(LossSpec(kind="bpr"), max_epochs=3)
    report.to_json(tmp_path / "r.json")
    data = json.loads((tmp_path / "r.json").read_text())
    assert list(data) == ["epoch_loss", "val_ndcg", "val_recall", "best_epoch",
                          "best_metric", "stop_reason"]
    assert len(data["epoch_loss"]) == 3


def test_drrl_margins_move_during_training():
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1, beta0=0.3,
                    lr_beta=0.01)
    _, margins, _ = _smoke_train(spec, max_epochs=3)
    assert np.ptp(margins.beta) > 0


def test_train_keeps_float32_tables_and_moments_and_saves_them_exactly(tmp_path,
                                                                       monkeypatch):
    adams = []
    monkeypatch.setattr(tr, "train_step", lambda *a, f=tr.train_step: adams.append(a[-1]) or f(*a))
    split = split_iid(make_block_log(num_users=30, num_items=20, seed=0), seed=0)
    cfg = tr.TrainConfig(batch_size=64, n_neg=8, max_epochs=1, embed_dim=8, metric_k=5)
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1)
    table, margins, report = tr.train(split, BackboneConfig(kind="xsimgcl", layers=2), spec,
                                      cfg)
    assert report.stop_reason == "max epochs reached"
    assert table.user.dtype == table.item.dtype == np.float32
    moments = [*adams[-1].m.values(), *adams[-1].v.values()]
    assert moments and all(m.dtype == np.float32 for m in moments)
    assert margins.beta.dtype == np.float64
    save_checkpoint(tmp_path / "model.ckpt", table, margins.beta)
    loaded, _ = load_checkpoint(tmp_path / "model.ckpt")
    assert loaded.user.dtype == loaded.item.dtype == np.float32
    np.testing.assert_array_equal(loaded.user, table.user)
    np.testing.assert_array_equal(loaded.item, table.item)


def test_train_at_a_large_gamma_star_takes_finite_steps():
    # g* = 400 at eps = 0 on LightGCN: the DrRL kernel's unscaled powers
    # over- and underflowed here, and the run stopped at its first step
    split = split_iid(make_block_log(num_users=40, num_items=30, seed=3), seed=0)
    cfg = tr.TrainConfig(batch_size=64, n_neg=8, max_epochs=2, embed_dim=8, metric_k=5)
    spec = LossSpec(kind="drrl", gamma_star=400.0, c=1.2, eps=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, margins, report = tr.train(split, BackboneConfig(kind="lightgcn", layers=2), spec,
                                      cfg)
    assert report.stop_reason == "max epochs reached"
    assert len(report.epoch_loss) == 2 and np.all(np.isfinite(report.epoch_loss))
    assert np.all(np.isfinite(margins.beta))


def test_train_step_weight_decay_adds_2_wd_e_on_batch_rows_only(monkeypatch):
    # float64 tables; the gradients handed to Adam with and without decay
    split = split_iid(make_block_log(num_users=30, num_items=60, seed=0), seed=0)
    table = EmbeddingTable.init_normal(split.num_users, split.num_items, 8, seed=1)
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1, lr_beta=0.01)
    batches = []
    monkeypatch.setattr(tr, "sample_batch", lambda *a, f=tr.sample_batch, **k:
                        batches.append(f(*a, **k)) or batches[-1])

    class Recorder:
        def step(self, params, grads, lr):
            self.grads = {key: grad.copy() for key, grad in grads.items()}

    wd = 0.3
    grads = []
    for decay in (wd, 0.0):
        adam = Recorder()
        cfg = tr.TrainConfig(batch_size=8, n_neg=2, weight_decay=decay)
        tr.train_step(table.copy(), None, BackboneConfig(kind="mf"), spec,
                      MarginState.initialize(split.num_users, spec.beta0), split, cfg,
                      np.random.default_rng(5), np.random.default_rng(6),
                      split.train_pairs(), adam)
        grads.append(adam.grads)
    decayed, plain = grads
    first, second = batches
    np.testing.assert_array_equal(first.pairs, second.pairs)
    np.testing.assert_array_equal(first.negatives, second.negatives)
    users = np.unique(first.pairs[:, 0])
    items = np.unique(np.hstack([first.pairs[:, 1:], first.negatives]))
    assert 0 < users.size < split.num_users and 0 < items.size < split.num_items
    for key, emb, rows in (("user", table.user, users), ("item", table.item, items)):
        want = np.zeros_like(emb)
        want[rows] = 2.0 * wd * emb[rows]
        np.testing.assert_allclose(decayed[key] - plain[key], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("fail_epoch", [0, 2])
@pytest.mark.parametrize("fail", ["gradient", "loss"])
def test_train_stops_on_a_non_finite_step_and_returns_the_best_epoch(fail, fail_epoch,
                                                                      monkeypatch):
    # 270 train pairs in batches of 64: five steps an epoch; the failure
    # starts at the second step of `fail_epoch`
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1, lr_beta=0.01)
    _, _, untouched = _smoke_train(spec, patience=10)
    steps = [0]
    live = {}

    def failing(table, *args, f=tr.loss_and_gradients, **kwargs):
        steps[0] += 1
        if steps[0] <= 5 * fail_epoch + 1:
            return f(table, *args, **kwargs)
        live["table"], live["margins"] = table.copy(), args[3].copy()
        if fail == "gradient":
            return 0.0, np.full_like(table.user, np.nan), np.zeros_like(table.item)
        return (np.nan, *f(table, *args, **kwargs)[1:])

    monkeypatch.setattr(tr, "loss_and_gradients", failing)
    table, margins, report = _smoke_train(spec, patience=10)
    monkeypatch.undo()
    assert report.stop_reason == f"non-finite {fail}; kept last good checkpoint"
    assert report.val_ndcg == untouched.val_ndcg[:fail_epoch]
    if fail == "gradient":
        assert report.epoch_loss == untouched.epoch_loss[:fail_epoch]
    else:
        assert report.epoch_loss[:fail_epoch] == untouched.epoch_loss[:fail_epoch]
        assert len(report.epoch_loss) == fail_epoch + 1
        assert np.isnan(report.epoch_loss[-1])
    if fail_epoch:
        # the best of the epochs before the failure, as a run that stops there
        want_table, want_margins, want = _smoke_train(spec, patience=10, max_epochs=fail_epoch)
        assert report.best_epoch == want.best_epoch >= 0
    elif fail == "gradient":
        # Adam refused the step: the table as the failing step found it
        want_table, want_margins = live["table"], live["margins"]
        assert report.best_epoch == -1
    else:
        # the NaN values changed no update: the table as the first epoch left it
        want_table, want_margins, _ = _smoke_train(spec, patience=10, max_epochs=1)
        assert report.best_epoch == -1
    np.testing.assert_array_equal(table.user, want_table.user)
    np.testing.assert_array_equal(table.item, want_table.item)
    np.testing.assert_array_equal(margins.beta, want_margins.beta)
