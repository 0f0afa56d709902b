import json
import tracemalloc

import numpy as np
import pytest

import scalar_reference
from drrl import dataio
from drrl import trainer as tr
from drrl.dataio import BatchSample, split_iid
from drrl.graphmodel import (BackboneConfig, EmbeddingTable, InteractionGraph, load_checkpoint,
                             save_checkpoint)
from drrl.losses import LOSS_KINDS, LossSpec, MarginState
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
    tr.apply_weight_decay(table, gu, gi, np.array([1, 1]), np.array([0, 2, 0]), 0.5)
    np.testing.assert_allclose(gu[1], table.user[1])
    assert not gu[0].any() and not gu[2].any()
    assert not gi[1].any()


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
    # against 3; each budget gives the scorer row chunks of 2, 2 and 1
    n_users, d = 6, 4
    n_items, n_neg = (9, 7) if regime == "dense" else (40, 3)
    assert (n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)) == (regime == "dense")
    if regime == "dense":
        monkeypatch.setattr(dataio, "BLOCK_BYTES", 2 * 2 * 8 * 2 * (n_items + n_neg + 1))
    else:
        monkeypatch.setattr(dataio, "BLOCK_BYTES", 2 * 2 * (8 * n_items + 8 * n_neg))
    chunks, sparse = [], []
    monkeypatch.setattr(tr, "_negative_scores", lambda *a, f=tr._negative_scores:
                        chunks.append([c.stop - c.start for c in a[3]]) or f(*a))
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
    assert loaded.user.dtype == loaded.item.dtype == np.float64
    np.testing.assert_array_equal(loaded.user, table.user)
    np.testing.assert_array_equal(loaded.item, table.item)


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
