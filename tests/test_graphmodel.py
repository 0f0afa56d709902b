import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from drrl import graphmodel as gm
from drrl.synthetic import make_block_log
from scalar_reference import score, score_gradient, stacked_forward


def two_node_graph():
    # single edge (u0, i0); both degree 1
    return gm.InteractionGraph(np.array([[0, 0]]), 1, 1)


def test_mf_forward_is_identity():
    table = gm.EmbeddingTable.init_normal(3, 4, 2, seed=0)
    out = gm.forward(table, None, gm.BackboneConfig(kind="mf"))
    np.testing.assert_array_equal(out.final_user, table.user)
    np.testing.assert_array_equal(out.final_item, table.item)


def test_lightgcn_two_node_hand_unroll():
    # e_u^(1) = e_i^(0), e_u^(2) = e_u^(0): final = (2 e_u + e_i) / 3
    table = gm.EmbeddingTable(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    cfg = gm.BackboneConfig(kind="lightgcn", layers=2)
    out = gm.forward(table, two_node_graph(), cfg)
    np.testing.assert_allclose(out.final_user[0], [2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(out.final_item[0], [1 / 3, 2 / 3], atol=1e-12)


def test_xsimgcl_zero_noise_equals_lightgcn():
    table = gm.EmbeddingTable.init_normal(4, 5, 3, seed=1)
    pairs = np.array([[0, 0], [1, 1], [2, 2], [3, 3], [0, 4]])
    graph = gm.InteractionGraph(pairs, 4, 5)
    lgcn = gm.forward(table, graph, gm.BackboneConfig(kind="lightgcn", layers=2))
    xsim = gm.forward(
        table, graph, gm.BackboneConfig(kind="xsimgcl", layers=2, noise_modulus=0.0)
    )
    np.testing.assert_allclose(xsim.final_user, lgcn.final_user, atol=1e-12)
    assert xsim.contrast_user is not None


def test_xsimgcl_noise_has_fixed_norm_per_node():
    table = gm.EmbeddingTable.init_normal(4, 5, 3, seed=1)
    pairs = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
    graph = gm.InteractionGraph(pairs, 4, 5)
    cfg = gm.BackboneConfig(kind="xsimgcl", layers=1, noise_modulus=0.3)
    rng = np.random.default_rng(0)
    clean = gm.forward(table, graph, gm.BackboneConfig(kind="xsimgcl", layers=1,
                                                        noise_modulus=0.0))
    out = gm.forward(table, graph, cfg, rng)
    # the layer-1 (contrast) output differs from the clean propagation by a
    # norm-0.3 vector
    delta = out.contrast_user - clean.contrast_user
    np.testing.assert_allclose(np.linalg.norm(delta, axis=1), 0.3, atol=1e-9)


def test_xsimgcl_noise_requires_rng():
    table = gm.EmbeddingTable.init_normal(2, 2, 2, seed=0)
    graph = gm.InteractionGraph(np.array([[0, 0], [1, 1]]), 2, 2)
    with pytest.raises(ValueError):
        gm.forward(table, graph, gm.BackboneConfig(kind="xsimgcl"))


def _block_graph(num_users, num_items, seed=0):
    log = make_block_log(num_users, num_items, interactions_per_user=10, seed=seed)
    return gm.InteractionGraph(np.stack([log.users, log.items], axis=1), num_users, num_items)


@pytest.mark.parametrize("layers", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["lightgcn", "xsimgcl"])
def test_forward_equals_the_mean_of_the_stacked_layers(kind, layers):
    # the running sum adds the layers in the order np.mean adds the stack
    table = gm.EmbeddingTable.init_normal(30, 20, 4, seed=layers)
    graph = _block_graph(30, 20)
    for contrast_layer in range(layers + 1):
        cfg = gm.BackboneConfig(kind=kind, layers=layers, contrast_layer=contrast_layer)
        got = gm.forward(table, graph, cfg, np.random.default_rng(7))
        want = stacked_forward(table, graph, cfg, np.random.default_rng(7))
        for name in ("final_user", "final_item", "contrast_user", "contrast_item"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_float32_noise_rows_have_the_modulus_norm():
    # a layer with no zero entry, small enough that adding the noise rounds
    # it by far less than 1e-6 of its norm
    before = (0.01 * np.random.default_rng(1).standard_normal((2000, 64))).astype(np.float32)
    assert before.all()
    layer = before.copy()
    gm._add_noise(layer, 0.2, np.random.default_rng(0))
    assert layer.dtype == np.float32
    norms = np.linalg.norm(layer.astype(np.float64) - before, axis=1)
    assert np.max(np.abs(norms / 0.2 - 1.0)) <= 1e-6


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
def test_noise_is_the_sign_aligned_uniform_perturbation(dtype, rtol):
    # XSimGCL's delta = eps * sign(e) * x / |x| for x uniform on [0, 1)^d, at
    # fixed seeds in place of an equality with the earlier normal draws
    rng = np.random.default_rng(2)
    before = (0.01 * rng.standard_normal((4000, 16))).astype(dtype)
    before[rng.random(before.shape) < 0.02] = 0.0
    layer = before.copy()
    gm._add_noise(layer, 0.2, np.random.default_rng(3))
    delta = layer.astype(np.float64) - before
    # the noise lies in the layer's orthant, and a zero entry gets none
    np.testing.assert_array_equal(np.sign(delta), np.sign(before))
    # norm eps in full rows; rows with zero entries lose those coordinates
    norms = np.linalg.norm(delta, axis=1)
    full = before.all(axis=1)
    assert 0 < full.sum() < len(full)
    assert np.max(np.abs(norms[full] / 0.2 - 1.0)) <= rtol
    assert np.all(norms[~full] < 0.2)
    # |delta_j| / max_k |delta_k| is x_j / max_k x_k: over each full row's
    # d - 1 non-maximal coordinates these are iid U[0, 1)
    size = np.sort(np.abs(delta[full]), axis=1)
    ratios = (size[:, :-1] / size[:, -1:]).ravel()
    assert stats.kstest(ratios, "uniform").pvalue >= 1e-3


@pytest.mark.parametrize("kind", ["lightgcn", "xsimgcl"])
def test_float32_forward_and_backward_stay_float32(kind):
    table = gm.EmbeddingTable.init_normal(30, 20, 4, seed=2)
    table32 = gm.EmbeddingTable.init_normal(30, 20, 4, seed=2, dtype=np.float32)
    np.testing.assert_array_equal(table32.user, table.user.astype(np.float32))
    graph = _block_graph(30, 20)
    cfg = gm.BackboneConfig(kind=kind, layers=2, noise_modulus=0.0)
    want, got = gm.forward(table, graph, cfg), gm.forward(table32, graph, cfg)
    for name in ("final_user", "final_item"):
        assert getattr(got, name).dtype == np.float32
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-5,
                                   atol=1e-6)
    gu, gi = gm.backward(table32.user, table32.item, graph, cfg)
    assert gu.dtype == gi.dtype == np.float32
    # the float32 operator is built once and reused
    assert graph.operators(np.float32) is graph.operators(np.float32)


@pytest.mark.parametrize("layers", [2, 3])
def test_forward_peak_memory_does_not_grow_with_layers(layers):
    # the running sum holds the sum, the last layer and the one being
    # propagated: about three tables, where stacking every layer held L + 2
    table = gm.EmbeddingTable.init_normal(3000, 4000, 32, seed=0)
    graph = _block_graph(3000, 4000)
    tracemalloc.start()
    try:
        out = gm.forward(table, graph, gm.BackboneConfig(kind="lightgcn", layers=layers))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * (out.final_user.nbytes + out.final_item.nbytes)


def test_backward_is_adjoint_of_forward():
    # <forward(x), y> + <contrast view(x), c> == <x, backward(y, c)> for the
    # linear propagation map: LightGCN without a contrast gradient, then
    # XSimGCL's contrast view at each layer
    rng = np.random.default_rng(2)
    table = gm.EmbeddingTable(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
    pairs = np.array([[0, 0], [0, 1], [1, 2], [2, 3]])
    graph = gm.InteractionGraph(pairs, 3, 4)
    for contrast_layer in (None, 0, 1, 2):
        if contrast_layer is None:
            cfg = gm.BackboneConfig(kind="lightgcn", layers=2)
        else:
            cfg = gm.BackboneConfig(kind="xsimgcl", layers=2, noise_modulus=0.0,
                                    contrast_layer=contrast_layer)
        out = gm.forward(table, graph, cfg)
        yu = rng.normal(size=(3, 2))
        yi = rng.normal(size=(4, 2))
        lhs = np.sum(out.final_user * yu) + np.sum(out.final_item * yi)
        grad_contrast = None
        if contrast_layer is not None:
            grad_contrast = (rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
            lhs += (np.sum(out.contrast_user * grad_contrast[0])
                    + np.sum(out.contrast_item * grad_contrast[1]))
        gu, gi = gm.backward(yu, yi, graph, cfg, grad_contrast)
        rhs = np.sum(table.user * gu) + np.sum(table.item * gi)
        assert lhs == pytest.approx(rhs, abs=1e-10), contrast_layer


def test_isolated_node_keeps_layer0_contribution():
    table = gm.EmbeddingTable(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[3.0, 0.0]]))
    graph = gm.InteractionGraph(np.array([[0, 0]]), 2, 1)
    out = gm.forward(table, graph, gm.BackboneConfig(kind="lightgcn", layers=2))
    # user 1 has no edges: propagation contributes nothing beyond layer 0
    np.testing.assert_allclose(out.final_user[1], np.array([0.0, 2.0]) / 3, atol=1e-12)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_cosine_score_bounded(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=3)
    i = rng.normal(size=3)
    s = score(u, i)
    assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


def test_score_gradient_matches_finite_difference():
    rng = np.random.default_rng(4)
    u = rng.normal(size=5)
    i = rng.normal(size=5)
    gu, gi = score_gradient(u, i)
    h = 1e-6
    for k in range(5):
        e = np.zeros(5)
        e[k] = h
        fd_u = (score(u + e, i) - score(u - e, i)) / (2 * h)
        fd_i = (score(u, i + e) - score(u, i - e)) / (2 * h)
        assert gu[k] == pytest.approx(fd_u, abs=1e-8)
        assert gi[k] == pytest.approx(fd_i, abs=1e-8)


def test_cosine_matrix_agrees_with_scalar_score():
    rng = np.random.default_rng(5)
    users = rng.normal(size=(3, 4))
    items = rng.normal(size=(5, 4))
    mat = gm.cosine_matrix(users, items)
    assert mat[1, 2] == pytest.approx(score(users[1], items[2]), abs=1e-12)


def test_cosine_scores_blocks_are_rows_of_the_noise_free_cosine_matrix():
    rng = np.random.default_rng(5)
    pairs = np.unique(np.stack([rng.integers(0, 6, 20), rng.integers(0, 9, 20)], axis=1),
                      axis=0)
    graph = gm.InteractionGraph(pairs, 6, 9)
    table = gm.EmbeddingTable.init_normal(6, 9, 4, seed=1)
    # the scorer runs no noise draws, so it needs no rng
    cfg = gm.BackboneConfig(kind="xsimgcl", layers=2, noise_modulus=0.2)
    out = gm.forward(table, graph, gm.BackboneConfig(kind="lightgcn", layers=2))
    want = gm.cosine_matrix(out.final_user, out.final_item)
    scores = gm.CosineScores(table, graph, cfg)
    assert scores.shape == (6, 9)
    for rows in (np.array([4, 0, 4]), slice(1, 5), slice(None)):
        np.testing.assert_allclose(scores[rows], want[rows], rtol=0, atol=1e-15)


def test_infonce_value_positive_and_shift_invariant_pairing():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 3))
    value, da, db = gm.infonce_auxiliary(a, a.copy(), 0.2, 1.0)
    # perfectly aligned views still pay the in-batch partition cost
    assert value > 0
    assert da.shape == a.shape


def test_infonce_leaves_out_nodes_with_a_zero_view():
    rng = np.random.default_rng(7)
    zf, zl = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    zf[1] = 0.0
    zl[3] = 0.0
    live = [0, 2, 4]
    value, d_final, d_lstar = gm.infonce_auxiliary(zf, zl, 0.2, 0.5)
    want = gm.infonce_auxiliary(zf[live], zl[live], 0.2, 0.5)
    assert value == want[0]
    np.testing.assert_array_equal(d_final[live], want[1])
    np.testing.assert_array_equal(d_lstar[live], want[2])
    assert not d_final[[1, 3]].any() and not d_lstar[[1, 3]].any()


def test_checkpoint_roundtrip(tmp_path):
    table = gm.EmbeddingTable.init_normal(3, 4, 2, seed=7)
    margins = np.array([0.1, -0.2, 0.3])
    path = tmp_path / "ck.bin"
    gm.save_checkpoint(path, table, margins)
    loaded, loaded_margins = gm.load_checkpoint(path)
    np.testing.assert_allclose(loaded.user, table.user, atol=1e-6)
    np.testing.assert_allclose(loaded.item, table.item, atol=1e-6)
    np.testing.assert_allclose(loaded_margins, margins, atol=1e-6)


def test_checkpoint_without_margins(tmp_path):
    table = gm.EmbeddingTable.init_normal(2, 2, 2, seed=8)
    path = tmp_path / "ck.bin"
    gm.save_checkpoint(path, table)
    _, margins = gm.load_checkpoint(path)
    assert margins is None


def test_checkpoint_with_a_wrong_length_margin_vector_writes_nothing(tmp_path):
    table = gm.EmbeddingTable.init_normal(3, 4, 2, seed=7)
    path = tmp_path / "ck.bin"
    with pytest.raises(ValueError, match="margin vector length must equal num_users"):
        gm.save_checkpoint(path, table, np.array([0.1, 0.2]))
    assert list(tmp_path.iterdir()) == []
    gm.save_checkpoint(path, table, np.array([0.1, -0.2, 0.3]))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="margin vector length must equal num_users"):
        gm.save_checkpoint(path, gm.EmbeddingTable.init_normal(3, 4, 2, seed=8), np.zeros(4))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"nope" + b"\x00" * 32)
    with pytest.raises(ValueError):
        gm.load_checkpoint(path)


@pytest.mark.parametrize("cut, part, needs, found", [
    (4 + 10, "header", 16, 10),
    (20 + 5, "user block", 24, 5),
    (20 + 24 + 9, "item block", 32, 9),
    (20 + 24 + 32 + 4 + 6, "margin section", 12, 6),
])
def test_checkpoint_truncation_names_file_and_sizes(tmp_path, cut, part, needs, found):
    # 3 users, 4 items, d = 2: 4-byte magic, 16-byte header, 24- and 32-byte
    # blocks, 4-byte tag and 12-byte margin section
    table = gm.EmbeddingTable.init_normal(3, 4, 2, seed=7)
    path = tmp_path / "ck.bin"
    gm.save_checkpoint(path, table, np.array([0.1, -0.2, 0.3]))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError) as exc:
        gm.load_checkpoint(path)
    message = str(exc.value)
    assert f"truncated checkpoint {path}" in message
    assert f"{part} needs {needs} bytes, found {found}" in message


def test_checkpoint_header_larger_than_the_file_is_named_before_reading(tmp_path):
    # a 2^31 x (2^31 - 1) float32 user block: reading it would overflow
    table = gm.EmbeddingTable.init_normal(3, 4, 2, seed=7)
    path = tmp_path / "ck.bin"
    gm.save_checkpoint(path, table)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", 2**31)
    data[16:20] = struct.pack("<I", 2**31 - 1)
    path.write_bytes(bytes(data))
    left = len(data) - 20
    with pytest.raises(ValueError, match=(
            f"the user block needs {2**31 * (2**31 - 1) * 4} bytes, found {left}")):
        gm.load_checkpoint(path)


@pytest.mark.parametrize("tail", [b"\x00", b"MARG" + b"\x00" * 12])
def test_checkpoint_rejects_bytes_after_the_margin_section(tmp_path, tail):
    # a stray byte, or a second margin section
    table = gm.EmbeddingTable.init_normal(3, 4, 2, seed=7)
    path = tmp_path / "ck.bin"
    gm.save_checkpoint(path, table, np.array([0.1, -0.2, 0.3]))
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ValueError, match=f"checkpoint {path} has bytes after its margin section"):
        gm.load_checkpoint(path)


def test_backbone_config_validation():
    with pytest.raises(ValueError):
        gm.BackboneConfig(kind="gcn").validate()
    with pytest.raises(ValueError):
        gm.BackboneConfig(kind="lightgcn", layers=0).validate()
    with pytest.raises(ValueError):
        gm.BackboneConfig(kind="xsimgcl", layers=2, contrast_layer=3).validate()
    # temperature 0 divides by zero in infonce_auxiliary; a negative one
    # flips the contrast
    for key, value, message in (("infonce_temperature", 0.0, "must be positive"),
                                ("infonce_temperature", -0.2, "must be positive"),
                                ("infonce_weight", -0.001, "must be nonnegative")):
        with pytest.raises(ValueError, match=f"backbone.{key} {message}"):
            gm.BackboneConfig(kind="xsimgcl", **{key: value}).validate()
    gm.BackboneConfig(kind="xsimgcl", infonce_weight=0.0).validate()
