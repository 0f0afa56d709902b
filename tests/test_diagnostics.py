import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalar_reference as ref
from builders import cosine_scores_peak, parts, split_of
from drrl import losses as L
from drrl import dataio
from drrl.config import load_config
from drrl.dataio import split_iid
from drrl.diagnostics import (
    BYTES_PER_SCORE,
    RECORD,
    aggregate,
    checkpoint_scores,
    user_diagnostics,
)
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
    assert (user, truncation, degenerate) == (2, 1.0, True)
    assert math.isnan(k1) and math.isnan(k2)


def test_train_pool_sweeps_every_item_and_flags_train():
    assert rows_of(CCL, noise_pool="train") == [
        (0, pytest.approx(1.25), pytest.approx(1.25), pytest.approx(0.2), False),
        (1, pytest.approx(2.5), pytest.approx(2.5), pytest.approx(0.6), False),
        (2, pytest.approx(5.0), pytest.approx(5.0), pytest.approx(0.8), False),
    ]


def test_unknown_noise_pool_rejected():
    with pytest.raises(ValueError, match="'heldout' or 'train', got 'test'"):
        user_diagnostics(SCORES, SPLIT, CCL, noise_pool="test")


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


def test_weights_kernel_reads_each_blocks_packed_width(monkeypatch):
    # at margins 0.45 user 0 keeps its one candidate above the margin and
    # its other flagged one, users 1 and 2 their flagged one: the kernel
    # weighs 2 columns, not the catalogue's 5
    widths = []
    kernel = L._drrl_negative_weights

    def recording(f_neg, *args, **kwargs):
        widths.append(f_neg.shape[1])
        return kernel(f_neg, *args, **kwargs)

    monkeypatch.setattr(L, "_drrl_negative_weights", recording)
    spec = L.LossSpec(kind="drrl", gamma_star=2.0, c=1.5)
    rows = user_diagnostics(SCORES, SPLIT, spec, margins=L.MarginState(np.full(3, 0.45)))
    assert widths == [2]
    assert rows.truncation.tolist() == [pytest.approx(2 / 3), 1.0, 1.0]
    assert rows.k1[0] == 3.0 and rows.degenerate.tolist() == [False, True, True]


@pytest.mark.parametrize("spec", [CCL, L.LossSpec(kind="drrl", gamma_star=2.0, c=1.5)],
                         ids=["ccl", "drrl"])
def test_block_with_nothing_above_its_margins_and_nothing_flagged_is_degenerate(spec):
    # the packed block keeps no candidate, yet the kernels get one column
    split = split_of([{0}, {2}], [set(), set()], [set(), set()], 3)
    scores = np.array([[0.3, 0.1, 0.2], [0.4, 0.0, 0.9]])
    rows = user_diagnostics(scores, split, spec, margins=L.MarginState(np.full(2, 0.5)))
    assert rows.truncation.tolist() == [1.0, 1.0] and rows.degenerate.all()
    assert np.isnan(rows.k1).all() and np.isnan(rows.k2).all()


def test_nan_candidate_is_weighed_not_truncated():
    # NaN is not at or below the margin: it is packed with the 0.9, and its
    # DrRL weight, nan, leaves the user degenerate, as weighing the whole row does
    split = split_of([{0}], [set()], [set()], 4)
    scores = np.array([[0.3, np.nan, 0.2, 0.9]])
    spec = L.LossSpec(kind="drrl", gamma_star=2.0, c=1.5)
    row = user_diagnostics(scores, split, spec, margins=L.MarginState(np.array([0.25])))[0]
    assert row.truncation == pytest.approx(1 / 3) and row.degenerate


def test_nan_given_margin_is_named():
    # no count of the scores at or below nan is a truncation ratio
    spec = L.LossSpec(kind="drrl", gamma_star=2.0, c=1.5)
    margins = L.MarginState(np.array([0.1, np.nan, 0.2]))
    with pytest.raises(ValueError, match="given margins must not be nan: user 1's is"):
        user_diagnostics(SCORES, SPLIT, spec, margins=margins)


def test_user_with_no_candidates_is_skipped():
    split = split_of([{0, 1}, {0}], [set(), {1}], [set(), set()], 2)
    rows = user_diagnostics(np.array([[0.3, 0.1], [0.2, 0.4]]), split, CCL)
    assert [r.user for r in rows] == [1]


def test_records_carry_what_the_benchmark_reads_with_nan_for_missing_values():
    rows = user_diagnostics(SCORES, SPLIT, L.LossSpec(kind="sl", tau=0.2))
    assert isinstance(rows, np.recarray) and rows.dtype == RECORD
    assert len(rows) == 3
    assert [(r.user, bool(r.degenerate)) for r in rows] == [(0, False), (1, False), (2, False)]
    assert all(r.k1 >= 1.0 for r in rows if not r.degenerate)
    # SL has no margin, so no margin and no truncation ratio
    assert np.isnan(rows.beta).all() and np.isnan(rows.truncation).all()
    # under CCL user 2 scores every candidate at or below the margin: it is
    # degenerate, with neither k1 nor k2
    ccl = user_diagnostics(SCORES, SPLIT, CCL)
    assert ccl[2].degenerate and math.isnan(ccl[2].k1) and math.isnan(ccl[2].k2)
    assert not np.isnan(ccl.beta).any() and not np.isnan(ccl.truncation).any()
    # a user with nothing flagged has k1 but no k2
    split = split_of([{0}, {1}], [{2}, set()], [set(), set()], 3)
    scores = np.array([[0.3, 0.1, 0.4], [0.2, 0.4, 0.5]])
    k1, k2 = (user_diagnostics(scores, split, CCL)[1][name] for name in ("k1", "k2"))
    assert k1 == pytest.approx(1.0) and math.isnan(k2)
    # a catalogue without candidates gives zero records, which aggregate reads
    no_items = split_of([set()], [set()], [set()], 0)
    empty = user_diagnostics(np.zeros((1, 0)), no_items, CCL)
    assert isinstance(empty, np.recarray) and empty.dtype == RECORD and len(empty) == 0
    assert aggregate(empty)["users"] == 0


def test_aggregate_of_no_rows_reads_null_means():
    no_items = split_of([set()], [set()], [set()], 0)
    empty = aggregate(user_diagnostics(np.zeros((1, 0)), no_items, CCL))
    assert empty == {"users": 0, "degenerate_users": 0, "k1_mean": None, "k2_mean": None,
                     "truncation_mean": None}


@pytest.mark.parametrize("noise_pool", ["heldout", "train"])
def test_rows_do_not_depend_on_mask_block_size(noise_pool, monkeypatch):
    whole = rows_of(CCL, noise_pool=noise_pool)
    for users_per_block in (1, 2):
        monkeypatch.setattr(dataio, "BLOCK_BYTES",
                            BYTES_PER_SCORE * SPLIT.num_items * users_per_block)
        assert dataio.row_blocks(SPLIT.num_users, BYTES_PER_SCORE * SPLIT.num_items)[0] == (
            slice(0, users_per_block))
        assert repr(rows_of(CCL, noise_pool=noise_pool)) == repr(whole)


def test_aggregate_means_k1_over_live_users_and_truncation_over_all():
    # the degenerate user 2 (every candidate truncated) is left out of
    # k1_mean but counts with truncation 1
    agg = aggregate(user_diagnostics(SCORES, SPLIT, CCL))
    assert agg["users"] == 3 and agg["degenerate_users"] == 1
    assert agg["k1_mean"] == pytest.approx(2.75)
    assert agg["truncation_mean"] == pytest.approx((1 / 3 + 3 / 4 + 1) / 3)


def _random_case(num_users=30, num_items=24, seed=0):
    """A split and score matrix with the edge users the block code pads
    around: user 3 trains on every item (no held-out candidate), user 5
    scores every item below every margin (degenerate under CCL and DrRL),
    and several users hold out nothing (no k2)."""
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for user in range(num_users):
        items = rng.permutation(num_items).tolist()
        n_train = num_items if user == 3 else int(rng.integers(1, num_items // 2))
        n_val, n_test = (int(n) for n in rng.integers(0, 3, 2))
        parts[0].append(set(items[:n_train]))
        parts[1].append(set(items[n_train:n_train + n_val]))
        parts[2].append(set(items[n_train + n_val:n_train + n_val + n_test]))
    scores = rng.uniform(-1.0, 1.0, (num_users, num_items))
    scores[5] = -0.9
    margins = L.MarginState(rng.uniform(-0.2, 0.6, num_users))
    return split_of(*parts, num_items), scores, margins


def _same_rows(got, want):
    assert isinstance(got, np.recarray) and got.dtype == want.dtype == RECORD
    assert len(got) == len(want)
    # user, margin and degeneracy exactly (nan margins match nan)
    for name in ("user", "beta", "degenerate"):
        np.testing.assert_array_equal(got[name], want[name])
    for name in ("k1", "k2", "truncation"):
        missing = np.isnan(want[name])
        np.testing.assert_array_equal(np.isnan(got[name]), missing)
        assert got[name][~missing] == pytest.approx(want[name][~missing], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", [
    L.LossSpec(kind="sl", tau=0.2),
    L.LossSpec(kind="ccl", alpha=2.0, margin=0.1),
    L.LossSpec(kind="drrl", gamma_star=1.0, c=1.3, eps=0.05),
    L.LossSpec(kind="drrl", gamma_star=2.0, c=1.3, eps=0.05),
    L.LossSpec(kind="drrl", gamma_star=13.5, c=1.3, eps=0.05),
], ids=["sl", "ccl", "drrl-1", "drrl-2", "drrl-13.5"])
@pytest.mark.parametrize("noise_pool", ["heldout", "train"])
@pytest.mark.parametrize("margin", ["given", "default", "resolved"])
def test_blocks_match_the_per_user_reference(spec, noise_pool, margin, monkeypatch):
    split, scores, margins = _random_case()
    kwargs = {"noise_pool": noise_pool, "margins": margins if margin == "given" else None,
              "resolve_margin": margin == "resolved"}
    want = ref.user_diagnostics(scores, split, spec, **kwargs)
    assert len(want) == (30 if noise_pool == "train" else 29)
    assert any(r.degenerate for r in want) == (spec.kind != "sl" and margin != "resolved")
    if noise_pool == "heldout":
        assert any(math.isnan(r.k2) and not r.degenerate for r in want)
    _same_rows(user_diagnostics(scores, split, spec, **kwargs), want)
    for users_per_block in (1, 2, 7):
        monkeypatch.setattr(dataio, "BLOCK_BYTES",
                            BYTES_PER_SCORE * split.num_items * users_per_block)
        _same_rows(user_diagnostics(scores, split, spec, **kwargs), want)


@pytest.mark.parametrize("spec", [
    L.LossSpec(kind="sl", tau=0.2),
    L.LossSpec(kind="ccl", alpha=2.0, margin=0.1),
    L.LossSpec(kind="drrl", gamma_star=1.0, c=1.3, eps=0.05),
    L.LossSpec(kind="drrl", gamma_star=2.0, c=1.3, eps=0.05),
    L.LossSpec(kind="drrl", gamma_star=13.5, c=1.3, eps=0.05),
], ids=["sl", "ccl", "drrl-1", "drrl-2", "drrl-13.5"])
@pytest.mark.parametrize("noise_pool", ["heldout", "train"])
@pytest.mark.parametrize("margin", ["given", "default", "resolved"])
def test_float32_block_reads_the_records_of_its_float64_cast(spec, noise_pool, margin):
    # a float32 block is weighed in its own dtype, with no float64 copy of
    # it; every kernel casts it exactly, so its records are those of the
    # float64 block byte for byte
    split, scores, margins = _random_case()
    kwargs = {"noise_pool": noise_pool, "margins": margins if margin == "given" else None,
              "resolve_margin": margin == "resolved"}
    scores = scores.astype(np.float32)
    got = user_diagnostics(scores, split, spec, **kwargs)
    want = user_diagnostics(scores.astype(np.float64), split, spec, **kwargs)
    assert len(got) == (29 if noise_pool == "heldout" else 30)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [
    L.LossSpec(kind="ccl", alpha=2.0, margin=0.1),
    L.LossSpec(kind="drrl", gamma_star=2.0, c=1.3, eps=0.05),
], ids=["ccl", "drrl"])
@pytest.mark.parametrize("noise_pool", ["heldout", "train"])
def test_parts_that_repeat_train_items_match_the_per_user_reference(spec, noise_pool):
    # a hand-written split directory can list a train item in a held-out
    # part as well: it stays no candidate, so it is never flagged
    split, scores, margins = _random_case()
    train, validation, test = parts(split)
    for user, items in enumerate(train):
        if user % 2 == 0:
            validation[user].append(items[0])
        if user % 3 == 0:
            test[user].append(items[-1])
    split = split_of(*(list(map(set, part)) for part in (train, validation, test)),
                     split.num_items)
    for kwargs in ({"margins": margins}, {"resolve_margin": True}):
        want = ref.user_diagnostics(scores, split, spec, noise_pool=noise_pool, **kwargs)
        _same_rows(user_diagnostics(scores, split, spec, noise_pool=noise_pool, **kwargs), want)


@pytest.mark.parametrize("spec", [L.LossSpec(kind="drrl", gamma_star=2.0, c=1.0, eps=0.1),
                                  L.LossSpec(kind="ccl", alpha=1.0)], ids=["drrl", "ccl"])
def test_radius_zero_weighs_every_candidate_alike(spec):
    # at c = 1 (alpha = 1) the resolved margin is -inf and the worst case is
    # P: every user, the constant-score user 5 too, reads k1 = k2 = 1 and
    # truncation 0, and no kernel takes inf - inf
    split, scores, _ = _random_case()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = user_diagnostics(scores, split, spec, resolve_margin=True)
    assert len(rows) == 29 and not rows.degenerate.any()
    assert (rows.beta == -np.inf).all() and (rows.truncation == 0.0).all()
    assert (rows.k1 == 1.0).all()
    flagged = ~np.isnan(rows.k2)
    assert flagged.any() and (rows.k2[flagged] == 1.0).all()


@pytest.mark.parametrize("preset", ["electronics-ood-mf-drrl", "kitchen-ood-mf-drrl"])
def test_resolved_margins_make_the_worst_case_weights_a_mean_one_density(preset):
    # the two presets at c > 1 train with eps = 0.1, but their worst-case
    # weights are the Renyi ball's own, taken at eps = 0: a margin resolved
    # on the eps-free objective is their optimum, where each user's weights
    # on their candidates average 1. The rows are wide enough (970
    # candidates) that no optimum sits on the top score's kink, where the
    # slope does not vanish and the mean is not 1
    path = Path(__file__).resolve().parent.parent / "presets" / f"{preset}.cfg"
    spec = load_config(path, with_env=False).loss
    assert spec.c > 1 and spec.eps > 0
    rng = np.random.default_rng(0)
    num_users, num_items = 20, 1000
    train = [set(rng.choice(num_items, 30, replace=False).tolist()) for _ in range(num_users)]
    split = split_of(train, [set()] * num_users, [set()] * num_users, num_items)
    scores = rng.uniform(-1.0, 1.0, (num_users, num_items))
    rows = user_diagnostics(scores, split, spec, resolve_margin=True)
    assert len(rows) == num_users and np.isfinite(rows.beta).all()
    for user, beta in zip(rows.user, rows.beta):
        candidates = sorted(set(range(num_items)) - train[user])
        w = L.worst_case_weights(scores[user, candidates][None], spec, beta)
        assert w.mean() == pytest.approx(1.0, abs=1e-6)


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
    monkeypatch.setattr(dataio, "BLOCK_BYTES", BYTES_PER_SCORE * 30 * 7)  # blocks of 7 users
    blocked = user_diagnostics(CosineScores(table, None, cfg), split, CCL,
                               noise_pool=noise_pool)
    assert len(blocked) == len(dense) == 40
    for got, want in zip(blocked, dense):
        assert (got.user, got.beta, got.degenerate) == (want.user, want.beta, want.degenerate)
        assert (got.k1, got.k2, got.truncation) == pytest.approx(
            (want.k1, want.k2, want.truncation), rel=1e-12)


def _peak_diagnostics_bytes(n_users, n_items, d, spec=CCL):
    split, table = _block_model(n_users, n_items, d)
    tracemalloc.start()
    try:
        scores = CosineScores(table, None, BackboneConfig(kind="mf"))
        user_diagnostics(scores, split, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_memory_bounded_by_block_budget_when_fed_the_scorer():
    n_items, d = 4000, 16
    # one float64 users x items score matrix would exceed the budget
    assert 8 * 600 * n_items > dataio.BLOCK_BYTES
    small, large = (_peak_diagnostics_bytes(n, n_items, d) for n in (600, 1200))
    unit_tables = 8 * (600 + n_items) * d
    assert small < dataio.BLOCK_BYTES + unit_tables
    assert large < 1.05 * small


@pytest.mark.parametrize("spec", [L.LossSpec(kind="sl", tau=0.1),
                                  L.LossSpec(kind="drrl", gamma_star=2.5, c=1.2)])
def test_memory_bounded_by_block_budget_under_every_kernel(spec):
    # the SL and DrRL kernels hold more float64 temporaries than CCL's
    n_items, d = 4000, 16
    assert _peak_diagnostics_bytes(600, n_items, d, spec) < (
        dataio.BLOCK_BYTES + 8 * (600 + n_items) * d)


@pytest.mark.parametrize("spec", [L.LossSpec(kind="sl"),
                                  L.LossSpec(kind="drrl", gamma_star=13.5, c=1.0, eps=0.1)],
                         ids=["sl", "drrl"])
def test_diagnostics_on_cosine_scores_stay_within_the_block_budget(spec):
    n_items = 4000
    # one float32 users x items score matrix would exceed the budget
    assert 4 * 1200 * n_items > dataio.BLOCK_BYTES

    def diagnose(scores, split):
        user_diagnostics(scores, split, spec, resolve_margin=spec.kind == "drrl")

    small, large = (cosine_scores_peak(diagnose, n, n_items) for n in (1200, 2400))
    assert small < dataio.BLOCK_BYTES
    assert large < 1.05 * small
