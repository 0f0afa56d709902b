import json
import tracemalloc

import numpy as np
import pytest

import scalar_reference
from drrl import trainer as tr
from drrl.dataio import BatchSample, split_iid
from drrl.graphmodel import BackboneConfig, EmbeddingTable, InteractionGraph
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
    @pytest.mark.parametrize("block", [tr.ADAM_BLOCK, 6, 2])
    def test_matches_fresh_array_reference_bit_for_bit(self, block, monkeypatch):
        monkeypatch.setattr(tr, "ADAM_BLOCK", block)
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
    with pytest.raises(ValueError):
        tr.TrainConfig(margin_mode="global").validate()


def test_margin_update_happens_before_loss():
    table, graph, cfg, batch = toy_setup()
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.0, eps=0.1, beta0=0.2,
                    lr_beta=0.05)
    margins = MarginState.initialize(4, spec.beta0)
    before = margins.beta.copy()
    tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                          margin_update="per_user")
    # batch users 0..2 get margin steps, user 3 untouched
    assert not np.array_equal(margins.beta[:3], before[:3])
    assert margins.beta[3] == before[3]


def test_shared_margin_moves_all_users_equally():
    table, graph, cfg, batch = toy_setup()
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.0, eps=0.1, beta0=0.2,
                    lr_beta=0.05)
    margins = MarginState.initialize(4, spec.beta0)
    tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                          margin_update="shared")
    assert np.ptp(margins.beta) == pytest.approx(0.0, abs=1e-15)


def test_fixed_margin_mode_leaves_margins_alone():
    table, graph, cfg, batch = toy_setup()
    spec = LossSpec(kind="drrl", beta0=0.2)
    margins = MarginState.initialize(4, spec.beta0)
    tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                          margin_update="fixed")
    np.testing.assert_array_equal(margins.beta, np.full(4, 0.2))


def _relative_gap(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("margin_mode", tr.MARGIN_MODES)
@pytest.mark.parametrize("backbone", ["mf", "lightgcn", "xsimgcl"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_matches_scalar_reference(kind, backbone, margin_mode, monkeypatch):
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
    monkeypatch.setattr(tr, "CHUNK_BYTES", 2 * 2 * 8 * n_neg * d)
    spec = LossSpec(kind=kind, tau=0.2, alpha=2.0, margin=0.1, gamma_star=2.0, c=1.2,
                    eps=0.1, beta0=0.1, lr_beta=0.05)
    start = MarginState(rng.uniform(-0.2, 0.4, n_users))
    margins, ref_margins = start.copy(), start.copy()
    value, gu, gi = tr.loss_and_gradients(table, graph, cfg, spec, margins, batch,
                                          margin_update=margin_mode)
    ref_value, ref_gu, ref_gi = scalar_reference.loss_and_gradients(
        table, graph, cfg, spec, ref_margins, batch, margin_update=margin_mode)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert _relative_gap(gu, ref_gu) <= 1e-12
    assert _relative_gap(gi, ref_gi) <= 1e-12
    assert _relative_gap(margins.beta, ref_margins.beta) <= 1e-12
    if kind == "drrl" and margin_mode != "fixed":
        assert not np.array_equal(margins.beta, start.beta)


@pytest.mark.parametrize("margin_mode", tr.MARGIN_MODES)
@pytest.mark.parametrize("backbone", ["mf", "lightgcn", "xsimgcl"])
@pytest.mark.parametrize("kind", LOSS_KINDS)
@pytest.mark.parametrize("regime", ["dense", "gather"])
def test_matches_scalar_reference_in_each_regime(regime, kind, backbone, margin_mode,
                                                 monkeypatch):
    # 9 items score densely against 7 negatives, 40 items gather 3; each
    # budget gives row chunks of 2, 2 and 1
    n_users, d = 6, 4
    n_items, n_neg = (9, 7) if regime == "dense" else (40, 3)
    assert (n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)) == (regime == "dense")
    if regime == "dense":
        monkeypatch.setattr(tr, "CHUNK_BYTES", 2 * 2 * 8 * 2 * (n_items + n_neg + 1))
        assert tr._dense_rows(n_items, n_neg) == 2
    else:
        monkeypatch.setattr(tr, "CHUNK_BYTES", 2 * 2 * 8 * n_neg * d)
    gathered = []
    monkeypatch.setattr(tr, "_negative_scores",
                        lambda *a, f=tr._negative_scores: gathered.append(1) or f(*a))
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
                                          margin_update=margin_mode)
    ref_value, ref_gu, ref_gi = scalar_reference.loss_and_gradients(
        table, graph, cfg, spec, ref_margins, batch, margin_update=margin_mode)
    assert bool(gathered) == (regime == "gather")
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert _relative_gap(gu, ref_gu) <= 1e-12
    assert _relative_gap(gi, ref_gi) <= 1e-12
    assert _relative_gap(margins.beta, ref_margins.beta) <= 1e-12


def _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg):
    rng = np.random.default_rng(0)
    table = EmbeddingTable.init_normal(n_users, n_items, d, seed=0)
    batch = BatchSample(
        np.stack([rng.integers(0, n_users, batch_size),
                  rng.integers(0, n_items, batch_size)], axis=1),
        rng.integers(0, n_items, size=(batch_size, n_neg)),
        np.zeros((batch_size, n_neg), dtype=bool),
    )
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1)
    margins = MarginState.initialize(n_users, 0.1)
    tracemalloc.start()
    try:
        tr.loss_and_gradients(table, None, BackboneConfig(kind="mf"), spec, margins, batch,
                              margin_update="per_user")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


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
    assert 8 * batch_size * n_neg * d > tr.CHUNK_BYTES
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak < tr.CHUNK_BYTES


def test_loss_and_gradients_memory_bounded_by_chunk_budget_in_gather_regime():
    n_users, n_items, d, batch_size, n_neg = 100, 1000, 128, 512, 64
    assert n_items > tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    # one float64 (B, n_neg, d) array would exceed the budget
    assert 8 * batch_size * n_neg * d > tr.CHUNK_BYTES
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak < tr.CHUNK_BYTES


def test_loss_and_gradients_memory_bounded_by_chunk_budget_in_dense_regime():
    n_users, n_items, d, batch_size, n_neg = 100, 4100, 32, 512, 512
    assert n_items <= tr.DENSE_ITEMS_PER_SLOT * (n_neg + 1)
    # one float64 (B, items) block would exceed the budget
    assert 8 * batch_size * n_items > tr.CHUNK_BYTES
    peak = _peak_loss_and_gradients_bytes(n_users, n_items, d, batch_size, n_neg)
    assert peak < tr.CHUNK_BYTES


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
    evaluated = [v for v in report.val_ndcg if v is not None]
    assert report.best_metric == pytest.approx(max(evaluated))


def test_report_serialization(tmp_path):
    _, _, report = _smoke_train(LossSpec(kind="bpr"), max_epochs=3)
    report.to_json(tmp_path / "r.json")
    report.to_csv(tmp_path / "r.csv")
    data = json.loads((tmp_path / "r.json").read_text())
    assert len(data["epoch_loss"]) == 3
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_ndcg,val_recall"
    assert len(lines) == 4


def test_drrl_margins_move_during_training():
    spec = LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1, beta0=0.3,
                    lr_beta=0.01)
    _, margins, _ = _smoke_train(spec, max_epochs=3)
    assert np.ptp(margins.beta) > 0
