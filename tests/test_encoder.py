"""Tests for the text/entity encoder: position-LSTM embeddings, multi-head
attention-on-attention, and the visual selective gate.

Numeric cases are checked against straight-line numpy re-implementations that
share no code with the module under test."""

import numpy as np
import pytest

from newscap import encoder as E
from newscap import tensor as T
from newscap.model import CaptionModel, ModelConfig, init_params
from newscap.corpus import Vocabulary


VOCAB = Vocabulary(["alpha", "beta", "gamma", "delta"])


def tiny_cfg(**kw):
    base = dict(vocab_size=len(VOCAB), hidden=8, heads=2, enc_layers=1,
                dec_layers=1, k_patches=3, feat_dim=5, max_pos=16,
                dropout=0.0, ffn_mult=2)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture()
def params():
    with T.precision("float64"):
        yield init_params(tiny_cfg(), seed=3)


@pytest.fixture(autouse=True)
def fp64():
    with T.precision("float64"):
        yield


def table(params, length=None):
    """The position table over `length` positions (default all of them)."""
    return E.position_lstm(params, tiny_cfg(), length or tiny_cfg().max_pos)


def stacked(lengths):
    """The positions of sequences of these lengths stacked row-wise."""
    return np.concatenate([np.arange(k) for k in lengths])


# ---------------------------------------------------------------------------
# position embeddings


def test_embed_positions_zero_lstm_gives_word_embeddings(params):
    for name in ("emb/lstm/wx", "emb/lstm/wh", "emb/lstm/b"):
        params[name].data[:] = 0.0
    out = E.embed_positions(params, [0, 3, 1], table(params))
    words = params["emb/word"].data[[0, 3, 1]]
    assert np.array_equal(out.data, words)


def test_embed_positions_position_sensitivity(params):
    a = E.embed_positions(params, [1, 2], table(params)).data
    b = E.embed_positions(params, [2, 1], table(params)).data
    assert not np.allclose(a[0], b[0])


def test_embed_positions_single_step_matches_hand_lstm(params):
    cfg = tiny_cfg()
    h_dim = cfg.hidden
    out = E.embed_positions(params, [2], table(params)).data[0]
    # hand-evaluated single LSTM cell over the first position row
    p0 = params["emb/pos"].data[0]
    gates = p0 @ params["emb/lstm/wx"].data + params["emb/lstm/b"].data[0]

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    i = sig(gates[:h_dim])
    f = sig(gates[h_dim:2 * h_dim])
    g = np.tanh(gates[2 * h_dim:3 * h_dim])
    o = sig(gates[3 * h_dim:])
    c = i * g  # initial cell state is zero; f gate multiplies nothing
    h = o * np.tanh(c)
    expect = params["emb/word"].data[2] + h
    assert np.allclose(out, expect, atol=1e-12)


def test_embed_positions_length_checks(params):
    cfg = tiny_cfg()
    with pytest.raises(ValueError):
        E.embed_positions(params, [], table(params))
    with pytest.raises(ValueError):
        E.embed_positions(params, [0] * (cfg.max_pos + 1),
                          table(params))
    with pytest.raises(ValueError):
        E.embed_positions(params, [0, 1, 2], table(params, 2))
    with pytest.raises(ValueError):
        E.embed_positions(params, [0, 1, 2, 3], table(params, 2),
                          pos=stacked([1, 3]))


@pytest.mark.parametrize("ids,lengths", [
    ([0, 1, 2], None),
    ([0, 1, 2, 3, 3, 0], [2, 3, 1]),
], ids=["flat", "stacked"])
def test_embed_positions_longer_table_is_bit_identical(params, ids, lengths):
    exact = table(params, len(ids) if lengths is None else max(lengths))
    full = table(params)
    assert full.shape[0] > exact.shape[0]
    pos = None if lengths is None else stacked(lengths)
    a = E.embed_positions(params, ids, exact, pos=pos).data
    b = E.embed_positions(params, ids, full, pos=pos).data
    assert np.array_equal(a, b)
    if lengths is not None:
        # each stacked sequence embeds as it would on its own
        start = 0
        for k in lengths:
            alone = E.embed_positions(params, ids[start:start + k], full)
            assert np.array_equal(b[start:start + k], alone.data)
            start += k


# ---------------------------------------------------------------------------
# multi-head attention


def test_mh_attention_single_key(params):
    q = T.Tensor(np.random.default_rng(0).normal(size=(2, 8)))
    kv = T.Tensor(np.random.default_rng(1).normal(size=(1, 8)))
    res = E.mh_attention(params, "enc/l0/self", q,
                         E.project_kv(params, "enc/l0/self", kv, 2), heads=2)
    assert res.weights.shape == (2, 2, 1)
    assert np.allclose(res.weights.data, 1.0)


def test_mh_attention_identical_keys_uniform(params):
    rng = np.random.default_rng(2)
    q = T.Tensor(rng.normal(size=(2, 8)))
    k = T.Tensor(np.tile(rng.normal(size=(1, 8)), (4, 1)))
    v = T.Tensor(rng.normal(size=(4, 8)))
    keys, _ = E.project_kv(params, "enc/l0/self", k, 2)
    _, values = E.project_kv(params, "enc/l0/self", v, 2)
    res = E.mh_attention(params, "enc/l0/self", q, (keys, values), heads=2)
    assert np.allclose(res.weights.data, 0.25)


def test_mh_attention_rows_sum_to_one(params):
    rng = np.random.default_rng(3)
    q = T.Tensor(rng.normal(size=(3, 8)))
    kv = T.Tensor(rng.normal(size=(4, 8)))
    res = E.mh_attention(params, "enc/l0/self", q,
                         E.project_kv(params, "enc/l0/self", kv, 2), heads=2)
    assert np.allclose(res.weights.data.sum(axis=-1), 1.0, atol=1e-6)
    assert (res.weights.data >= 0).all()


def test_mh_attention_fully_masked_row_errors(params):
    rng = np.random.default_rng(4)
    q = T.Tensor(rng.normal(size=(2, 8)))
    kv = T.Tensor(rng.normal(size=(2, 8)))
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(ValueError):
        E.mh_attention(params, "enc/l0/self", q,
                       E.project_kv(params, "enc/l0/self", kv, 2), heads=2,
                       mask=mask)


def test_mh_attention_head_count_must_divide(params):
    q = T.Tensor(np.zeros((1, 8)))
    with pytest.raises(ValueError):
        E.project_kv(params, "enc/l0/self", q, 3)
    with pytest.raises(ValueError):
        E.mh_attention(params, "enc/l0/self", q,
                       E.project_kv(params, "enc/l0/self", q, 2), heads=3)


def _oracle_mha(params, pfx, q, k, v, heads, mask=None):
    """Independent straight-line multi-head attention."""
    qp = q @ params[pfx + "/wq"].data
    kp = k @ params[pfx + "/wk"].data
    vp = v @ params[pfx + "/wv"].data
    dh = q.shape[1] // heads
    ctxs = []
    for i in range(heads):
        s = qp[:, i * dh:(i + 1) * dh] @ kp[:, i * dh:(i + 1) * dh].T
        s = s / np.sqrt(dh)
        if mask is not None:
            s = s + np.where(mask, 0.0, -1e9)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        ctxs.append(w @ vp[:, i * dh:(i + 1) * dh])
    return np.concatenate(ctxs, axis=1) @ params[pfx + "/wo"].data


def _oracle_aoa(params, pfx, q, k, v, heads, mask=None):
    att = _oracle_mha(params, pfx, q, k, v, heads, mask)
    cat = np.concatenate([att, q], axis=1)
    gate = 1.0 / (1.0 + np.exp(-(cat @ params[pfx + "/gate_wg"].data
                                 + params[pfx + "/gate_bg"].data)))
    info = cat @ params[pfx + "/gate_wa"].data + params[pfx + "/gate_ba"].data
    return gate * info


# ---------------------------------------------------------------------------
# attention on attention


def test_aoa_saturated_zero_gate(params):
    params["enc/l0/self/gate_bg"].data[:] = -1e6
    rng = np.random.default_rng(5)
    q = T.Tensor(rng.normal(size=(3, 8)))
    out, _ = E.aoa(params, "enc/l0/self", q,
                   E.project_kv(params, "enc/l0/self", q, 2), heads=2)
    assert np.abs(out.data).max() < 1e-12


def test_aoa_projector_recovers_attended_vector(params):
    # W_a = [I ; 0] and gate forced open -> output equals v_att
    params["enc/l0/self/gate_wa"].data[:] = np.vstack(
        [np.eye(8), np.zeros((8, 8))])
    params["enc/l0/self/gate_ba"].data[:] = 0.0
    params["enc/l0/self/gate_wg"].data[:] = 0.0
    params["enc/l0/self/gate_bg"].data[:] = 1e6  # gate == 1
    rng = np.random.default_rng(6)
    q = T.Tensor(rng.normal(size=(3, 8)))
    kv = T.Tensor(rng.normal(size=(4, 8)))
    out, att = E.aoa(params, "enc/l0/self", q,
                     E.project_kv(params, "enc/l0/self", kv, 2), heads=2)
    assert np.allclose(out.data, att.out.data, atol=1e-12)


@pytest.mark.parametrize("heads", [2, 4])
@pytest.mark.parametrize("mask", [None, np.tril(np.ones((3, 4), dtype=bool))],
                         ids=["unmasked", "causal"])
def test_aoa_matches_straight_line_oracle(params, heads, mask):
    rng = np.random.default_rng(7)
    q = rng.normal(size=(3, 8))
    kv = rng.normal(size=(4, 8))
    out, _ = E.aoa(params, "enc/l0/self", T.Tensor(q),
                   E.project_kv(params, "enc/l0/self", T.Tensor(kv), heads),
                   heads=heads, mask=mask)
    expect = _oracle_aoa(params, "enc/l0/self", q, kv, kv, heads=heads,
                         mask=mask)
    assert np.allclose(out.data, expect, atol=1e-6)


def test_aoa_finite_differences(params):
    sub = {k: v for k, v in params.items() if k.startswith("enc/l0/self/")}
    rng = np.random.default_rng(8)
    q = rng.normal(size=(3, 8))

    def fn(p):
        out, _ = E.aoa(p, "enc/l0/self", T.Tensor(q.copy()),
                       E.project_kv(p, "enc/l0/self", T.Tensor(q.copy()), 2),
                       heads=2)
        return T.sum_all(T.tanh(out))

    report = T.finite_diff_check(fn, sub, coords_per_param=4)
    assert report.passed, (report.worst_param, report.max_rel_err)


def test_averaged_weights():
    w = T.Tensor(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    res = E.AttentionResult(out=None, weights=w)
    avg = res.averaged_weights()
    assert avg.shape == (1, 2)
    assert np.allclose(avg.data, [[0.5, 0.5]])


# ---------------------------------------------------------------------------
# image projection


def test_project_image_zero_weights_gives_bias(params):
    params["img/proj/w"].data[:] = 0.0
    params["img/proj/b"].data[:] = 1.5
    out = E.project_image(params, np.ones((3, 5)))
    assert np.allclose(out.data, 1.5)


def test_project_image_shape_and_oracle(params):
    grid = np.random.default_rng(9).normal(size=(1, 5))
    out = E.project_image(params, grid)
    assert out.shape == (1, 8)
    expect = grid @ params["img/proj/w"].data + params["img/proj/b"].data
    assert np.allclose(out.data, expect, atol=1e-6)


def test_project_image_dim_mismatch(params):
    with pytest.raises(ValueError):
        E.project_image(params, np.ones((3, 4)))


# ---------------------------------------------------------------------------
# visual selective layer


def test_visual_selective_zero_gate_ignores_image(params):
    params["enc/l0/vs/gate_w"].data[:] = 0.0
    params["enc/l0/vs/gate_b"].data[:] = 0.0
    rng = np.random.default_rng(10)
    t_tilde = T.Tensor(rng.normal(size=(4, 8)))
    v1 = T.Tensor(rng.normal(size=(3, 8)))
    v2 = T.Tensor(rng.normal(size=(3, 8)))
    a = E.visual_selective(params, "enc/l0/vs", t_tilde, v1, heads=2).data
    b = E.visual_selective(params, "enc/l0/vs", t_tilde, v2, heads=2).data
    assert np.array_equal(a, b)  # bit-identical: image cannot reach the output
    # zero gate kills the text too: rows are identical
    assert np.allclose(a, a[0], atol=1e-12)


def test_visual_selective_identical_patches_k_invariant(params):
    rng = np.random.default_rng(11)
    t_tilde = rng.normal(size=(4, 8))
    patch = rng.normal(size=(1, 8))
    a = E.visual_selective(params, "enc/l0/vs", T.Tensor(t_tilde.copy()),
                           T.Tensor(np.tile(patch, (2, 1))), heads=2).data
    b = E.visual_selective(params, "enc/l0/vs", T.Tensor(t_tilde.copy()),
                           T.Tensor(np.tile(patch, (5, 1))), heads=2).data
    assert np.allclose(a, b, atol=1e-9)


def test_visual_selective_matches_straight_line_oracle(params):
    rng = np.random.default_rng(12)
    t_tilde = rng.normal(size=(4, 8))
    vproj = rng.normal(size=(3, 8))
    got = E.visual_selective(params, "enc/l0/vs", T.Tensor(t_tilde.copy()),
                             T.Tensor(vproj.copy()), heads=2).data
    pooled = t_tilde.mean(axis=0, keepdims=True)
    att = _oracle_aoa(params, "enc/l0/vs/att", pooled, vproj, vproj, heads=2)
    gate = np.tanh(att @ params["enc/l0/vs/gate_w"].data
                   + params["enc/l0/vs/gate_b"].data)
    gated = gate * t_tilde
    h = np.maximum(gated @ params["enc/l0/vs/ffn/w1"].data
                   + params["enc/l0/vs/ffn/b1"].data, 0.0)
    ffn = h @ params["enc/l0/vs/ffn/w2"].data + params["enc/l0/vs/ffn/b2"].data
    pre = gated + ffn
    mu = pre.mean(axis=-1, keepdims=True)
    var = pre.var(axis=-1, keepdims=True)
    xhat = (pre - mu) / np.sqrt(var + 1e-5)
    expect = params["enc/l0/vs/ln_g"].data * xhat + params["enc/l0/vs/ln_b"].data
    assert np.allclose(got, expect, atol=1e-6)


# ---------------------------------------------------------------------------
# full text encoder


def test_encode_text_shape_and_determinism(params):
    cfg = tiny_cfg()
    vproj = T.Tensor(np.random.default_rng(13).normal(size=(3, 8)))
    a = E.encode_text(params, cfg, [0, 1, 2, 3, 1], vproj, table(params))
    b = E.encode_text(params, cfg, [0, 1, 2, 3, 1], vproj, table(params))
    assert a.shape == (5, 8)
    assert np.array_equal(a.data, b.data)


def test_encode_text_image_reaches_text(params):
    cfg = tiny_cfg()
    rng = np.random.default_rng(14)
    v1 = rng.normal(size=(3, 8))
    v2 = v1.copy()
    v2[0, 0] += 1.0
    a = E.encode_text(params, cfg, [0, 1], T.Tensor(v1), table(params)).data
    b = E.encode_text(params, cfg, [0, 1], T.Tensor(v2), table(params)).data
    assert not np.allclose(a, b)


def test_encode_text_empty_input(params):
    with pytest.raises(ValueError):
        E.encode_text(params, tiny_cfg(), [], T.Tensor(np.zeros((3, 8))),
                      table(params))


# ---------------------------------------------------------------------------
# entity encoder


def test_encode_entities_empty_returns_none(params):
    cfg = tiny_cfg()
    vproj = T.Tensor(np.zeros((1, 3, 8)))
    assert E.encode_entities(params, cfg, [[]], vproj, table(params)) is None
    assert E.encode_entities(params, cfg, [[[]]], vproj, table(params)) is None


def test_encode_entities_single_token_mention(params):
    cfg = tiny_cfg()
    vproj = T.Tensor(np.random.default_rng(15).normal(size=(3, 8)))
    enc = E.encode_text(params, cfg, [2], vproj, table(params))
    ents, real = E.encode_entities(params, cfg, [[[2]]],
                                   T.reshape(vproj, (1, 3, 8)), table(params))
    assert real is None
    assert np.allclose(ents.data[0], enc.data, atol=1e-12)


def test_encode_entities_mean_pool(params):
    cfg = tiny_cfg()
    vproj = T.Tensor(np.random.default_rng(16).normal(size=(3, 8)))
    enc = E.encode_text(params, cfg, [1, 3], vproj, table(params))
    ents, _ = E.encode_entities(params, cfg, [[[1, 3]]],
                                T.reshape(vproj, (1, 3, 8)), table(params))
    assert ents.shape == (1, 1, 8)
    assert np.allclose(ents.data[0, 0], enc.data.mean(axis=0), atol=1e-12)


def _pooled_by_loop(enc, sizes):
    """Per-mention mean of the encoded rows: slice, pool, concatenate."""
    rows, offset = [], 0
    for k in sizes:
        rows.append(T.avg_pool_rows(T.take(enc, np.s_[offset:offset + k])))
        offset += k
    return T.concat(rows, axis=0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_encode_entities_matches_per_mention_loop(dtype):
    cfg = tiny_cfg()
    groups = [[2], [0, 1, 3], [3, 1]]
    flat = [t for g in groups for t in g]
    with T.precision(dtype):
        params = init_params(cfg, seed=5)
        vproj = T.Tensor(
            np.random.default_rng(18).normal(size=(3, 8)).astype(dtype))
        weights = np.random.default_rng(19).normal(size=(len(groups), 8))

        def run(pool):
            """Pooled mentions and the parameter gradients of a weighted sum."""
            T.zero_grads(params)
            pooled = pool(table(params))
            T.backward(T.sum_all(pooled * weights))
            return pooled.data, T.collect_grads(params)

        got, got_grads = run(lambda pos: T.reshape(E.encode_entities(
            params, cfg, [groups + [[]]], T.reshape(vproj, (1, 3, 8)),
            pos)[0], (len(groups), 8)))
        want, want_grads = run(lambda pos: _pooled_by_loop(
            E.encode_text(params, cfg, flat, vproj, pos),
            [len(g) for g in groups]))
    assert got.dtype == np.dtype(dtype)
    assert np.array_equal(got, want)
    for name, g in got_grads.items():
        assert np.array_equal(g, want_grads[name]), name


def test_dropout_threading_changes_training_forward(params):
    cfg = tiny_cfg(dropout=0.5)
    model = CaptionModel(cfg, VOCAB, params=params)
    drop = model.dropout_ctx(np.random.default_rng(0))
    vproj = T.Tensor(np.random.default_rng(17).normal(size=(3, 8)))
    with_drop = E.encode_text(params, cfg, [0, 1], vproj, table(params),
                              drop=drop).data
    without = E.encode_text(params, cfg, [0, 1], vproj, table(params)).data
    assert not np.array_equal(with_drop, without)
