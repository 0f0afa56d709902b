import math
import tracemalloc

import numpy as np
import pytest

from builders import split_of
from drrl import losses as L
from drrl import metrics
from drrl.dataio import split_iid
from drrl.diagnostics import checkpoint_scores, user_diagnostics
from drrl.graphmodel import BackboneConfig, CosineScores, EmbeddingTable
from drrl.synthetic import make_block_log

# user 0: train {0, 1}, held out {2, 3}; user 1: train {2}, held out {0};
# user 2: train {4}, held out {1}, every non-train score <= 0
SPLIT = split_of(
    train=[{0, 1}, {2}, {4}],
    validation=[{2}, set(), {1}],
    test=[{3}, {0}, set()],
    num_items=5,
)
SCORES = np.array([
    [0.9, 0.8, 0.5, -0.3, 0.2],
    [-0.1, 0.4, 0.6, -0.5, -0.2],
    [-0.1, -0.2, -0.3, -0.4, 0.5],
])
# CCL at margin 0 weighs every positive score alike: w = alpha 1[f > 0]
CCL = L.LossSpec(kind="ccl", alpha=2.0)


def rows_of(spec, **kwargs):
    return [(r.user, r.k1, r.k2, r.truncation, r.degenerate)
            for r in user_diagnostics(SCORES, SPLIT, spec, **kwargs)]


def test_heldout_pool_sweeps_non_train_items_and_flags_heldout():
    # candidates: user 0 items 2, 3, 4 (flagged 2, 3); user 1 items 0, 1, 3, 4
    # (flagged 0); user 2 items 0-3, all truncated
    got = rows_of(CCL)
    assert got[:2] == [
        (0, pytest.approx(1.5), pytest.approx(0.75), pytest.approx(1 / 3), False),
        (1, pytest.approx(4.0), pytest.approx(0.0), pytest.approx(0.75), False),
    ]
    user, k1, k2, truncation, degenerate = got[2]
    assert (user, k2, truncation, degenerate) == (2, None, 1.0, True)
    assert math.isnan(k1)


def test_train_pool_sweeps_every_item_and_flags_train():
    assert rows_of(CCL, noise_pool="train") == [
        (0, pytest.approx(1.25), pytest.approx(1.25), pytest.approx(0.2), False),
        (1, pytest.approx(2.5), pytest.approx(2.5), pytest.approx(0.6), False),
        (2, pytest.approx(5.0), pytest.approx(5.0), pytest.approx(0.8), False),
    ]


def test_ccl_rows_use_the_trained_margin_not_beta0():
    # CCL trains at loss.margin; beta0 is DrRL's margin init. User 0's
    # candidates 2, 3, 4 score 0.5, -0.3, 0.2: item 2 clears 0.4, none clears 0.5
    spec = L.LossSpec(kind="ccl", alpha=2.0, margin=0.4, beta0=0.5)
    row = user_diagnostics(SCORES, SPLIT, spec)[0]
    assert (row.beta, row.truncation, row.k1, row.degenerate) == (
        0.4, pytest.approx(2 / 3), pytest.approx(3.0), False)


def test_drrl_rows_use_the_given_margins():
    # g* = 2 at eps = 0: w proportional to (f - beta)_+; user 0's candidates
    # 2, 3, 4 weigh 0.5, 0, 0.2 and the flagged 2, 3 average 0.25
    spec = L.LossSpec(kind="drrl", gamma_star=2.0, c=1.5, eps=0.1)
    rows = user_diagnostics(SCORES, SPLIT, spec, margins=L.MarginState(np.zeros(3)))
    assert rows[0].beta == 0.0
    assert rows[0].k1 == pytest.approx(0.5 / (0.7 / 3))
    assert rows[0].k2 == pytest.approx(0.25 / (0.7 / 3))


def test_user_with_no_candidates_is_skipped():
    split = split_of([{0, 1}, {0}], [set(), {1}], [set(), set()], 2)
    rows = user_diagnostics(np.array([[0.3, 0.1], [0.2, 0.4]]), split, CCL)
    assert [r.user for r in rows] == [1]
    no_items = split_of([set()], [set()], [set()], 0)
    assert user_diagnostics(np.zeros((1, 0)), no_items, CCL) == []


@pytest.mark.parametrize("noise_pool", ["heldout", "train"])
def test_rows_do_not_depend_on_mask_block_size(noise_pool, monkeypatch):
    whole = rows_of(CCL, noise_pool=noise_pool)
    for users_per_block in (1, 2):
        monkeypatch.setattr(metrics, "BLOCK_BYTES", 20 * SPLIT.num_items * users_per_block)
        assert metrics.block_rows(SPLIT.num_items) == users_per_block
        assert repr(rows_of(CCL, noise_pool=noise_pool)) == repr(whole)


def _block_model(n_users, n_items, d):
    split = split_iid(make_block_log(n_users, n_items, interactions_per_user=20, seed=0),
                      seed=0)
    return split, EmbeddingTable.init_normal(n_users, n_items, d, seed=0)


@pytest.mark.parametrize("noise_pool", ["heldout", "train"])
def test_scorer_rows_match_the_dense_matrix(noise_pool, monkeypatch):
    split, table = _block_model(40, 30, 8)
    cfg = BackboneConfig(kind="mf")
    dense = user_diagnostics(checkpoint_scores(table, None, cfg), split, CCL,
                             noise_pool=noise_pool)
    monkeypatch.setattr(metrics, "BLOCK_BYTES", 20 * 30 * 7)  # blocks of 7 users
    blocked = user_diagnostics(CosineScores(table, None, cfg), split, CCL,
                               noise_pool=noise_pool)
    assert len(blocked) == len(dense) == 40
    for got, want in zip(blocked, dense):
        assert (got.user, got.beta, got.degenerate) == (want.user, want.beta, want.degenerate)
        assert (got.k1, got.k2, got.truncation) == pytest.approx(
            (want.k1, want.k2, want.truncation), rel=1e-12)


def _peak_diagnostics_bytes(n_users, n_items, d):
    split, table = _block_model(n_users, n_items, d)
    tracemalloc.start()
    try:
        scores = CosineScores(table, None, BackboneConfig(kind="mf"))
        user_diagnostics(scores, split, CCL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_memory_bounded_by_block_budget_when_fed_the_scorer():
    n_items, d = 4000, 16
    # one float64 users x items score matrix would exceed the budget
    assert 8 * 600 * n_items > metrics.BLOCK_BYTES
    small, large = (_peak_diagnostics_bytes(n, n_items, d) for n in (600, 1200))
    unit_tables = 8 * (600 + n_items) * d
    assert small < metrics.BLOCK_BYTES + unit_tables
    assert large < 1.05 * small
