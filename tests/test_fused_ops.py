"""Tests for the fused block ops of the tensor core: attention, aoa_gate,
feed_forward, and the pointer's switches and copy_mix.

Each op replaced a composition of primitive ops, kept here as a
straight-line reference. In float32 the op's forward and its gradients equal
the reference's bit for bit: on one held decoding row, on stacked beam
prefixes under the causal mask, and on a padded batch with key masks and a
sample without mentions. In float64 the gradients agree with central
differences. A held greedy step at the acceptance config stays cheap in
tensors."""

import math

import numpy as np
import pytest

from newscap import decoder as D
from newscap import tensor as T
from newscap.corpus import EntityMention, ProcessedSample, Vocabulary
from newscap.model import CaptionModel, ModelConfig

H, HEADS = 8, 2
DH = H // HEADS


# ---------------------------------------------------------------------------
# the compositions the fused ops replaced


def ref_attention(q, wq, keys, values, wo, heads, mask=None):
    """Multi-head attention as primitive ops; returns the output and the
    weights averaged over the heads."""
    shape = q.shape
    dh = shape[-1] // heads
    n = len(shape) + 1
    perm = tuple(range(n - 3)) + (n - 2, n - 3, n - 1)
    qh = T.transpose(T.reshape(T.matmul(q, wq), shape[:-1] + (heads, dh)),
                     perm)
    scores = T.matmul(qh, keys) * (1.0 / math.sqrt(dh))
    if mask is not None and not mask.all():
        scores = scores + T.Constant(np.where(mask, 0.0, -1e9).astype(
            q.data.dtype)[..., None, :, :])
    w = T.softmax(scores, axis=-1)
    ctx = T.reshape(T.transpose(T.matmul(w, values), perm), shape)
    out = T.matmul(ctx, wo)
    # the mean over the heads: a sum over that axis in order, then a divide
    ws = w.shape
    index = list(np.indices(ws, sparse=True))
    index[-3] = np.zeros_like(index[-3])
    pooled = T.scatter_add(w, tuple(index), ws[:-3] + (1,) + ws[-2:]) \
        / float(ws[-3])
    return out, T.reshape(pooled, ws[:-3] + ws[-2:])


def ref_gate(att, x, wg, bg, wa, ba):
    cat = T.concat([att, x], axis=-1)
    gate = T.sigmoid(T.matmul(cat, wg) + bg)
    return gate * (T.matmul(cat, wa) + ba)


def ref_ffn(x, w1, b1, w2, b2):
    return T.matmul(T.relu(T.matmul(x, w1) + b1), w2) + b2


def _ref_scatter(att, ids, vocab):
    lead = att.shape[:-1]
    index = tuple(np.arange(n).reshape((n,) + (1,) * (len(lead) - i))
                  for i, n in enumerate(lead))
    return T.scatter_add(att, index + (np.asarray(ids)[..., None, :],),
                         lead + (vocab,))


def ref_pointer(p, has=None):
    """The pointer mix as primitive ops over the inputs dict p."""
    p_gen = T.sigmoid(T.matmul(T.concat([p["x0"], p["a"], p["v"]], axis=-1),
                               p["wp"]) + p["bp"])
    if "a_e" in p:
        q_gen = T.sigmoid(T.matmul(T.concat([p["x0"], p["e"], p["v"]],
                                            axis=-1), p["wq"]) + p["bq"])
        if has is not None:
            q_gen = q_gen * T.Constant(has)
    else:
        q_gen = T.Constant(np.zeros(p_gen.shape, dtype=p_gen.data.dtype))
    w_s = T.relu(1.0 - p_gen - q_gen)
    denom = p_gen + q_gen + w_s
    vocab = p["p_s"].shape[-1]
    mixed = (p_gen / denom) * _ref_scatter(p["a_v"], p["art_ids"], vocab) \
        + (w_s / denom) * p["p_s"]
    if "a_e" in p:
        mixed = mixed + (q_gen / denom) * _ref_scatter(p["a_e"], p["ent_ids"],
                                                       vocab)
    return mixed


def fused_pointer(p, has=None):
    ent = "a_e" in p
    sw = T.switches(((p["x0"], p["a"], p["v"]), p["wp"], p["bp"]),
                    ((p["x0"], p["e"], p["v"]), p["wq"], p["bq"]) if ent
                    else None, has=has)
    return T.copy_mix(p["p_s"], sw, (p["a_v"], p["art_ids"]),
                      (p["a_e"], p["ent_ids"]) if ent else None)


# ---------------------------------------------------------------------------
# inputs


def _t(rng, *shape, scale=1.0):
    return T.Tensor(scale * rng.normal(size=shape))


def _dist(rng, *shape):
    x = rng.normal(size=shape)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return T.Tensor(e / e.sum(axis=-1, keepdims=True))


# (lead axes, rows, keys, mask): one held row of one sequence; three stacked
# beam prefixes of lengths 2, 3 and 1 over their 3 held keys and their own
# rows; a padded batch of two, the second with its last two keys padding
CASES = {
    "held_row": ((1,), 1, 5, None),
    "beam_prefixes": ((1,), 3, 6, D.causal_mask(
        (np.array([[0, 1, 2]]), np.array([[1, 2, 0]])),
        (np.array([[0, 1, 1, 0, 1, 2]]), np.array([[0, 0, 1, 1, 2, 0]])))),
    "padded_batch": ((2,), 4, 6,
                     np.array([[[True] * 6], [[True] * 4 + [False] * 2]])),
}


def attention_inputs(rng, case):
    lead, rows, keys, mask = CASES[case]
    return dict(q=_t(rng, *lead, rows, H), wq=_t(rng, H, H, scale=0.5),
                keys=_t(rng, *lead, HEADS, DH, keys),
                values=_t(rng, *lead, HEADS, keys, DH),
                wo=_t(rng, H, H, scale=0.5)), mask


def pointer_inputs(rng, case, entities=True, bias=0.0):
    lead, rows, _, _ = CASES[case]
    vocab, length, mentions = 11, 7, 3
    p = dict(x0=_t(rng, *lead, rows, H), v=_t(rng, *lead, rows, H),
             a=_t(rng, *lead, rows, H), e=_t(rng, *lead, rows, H),
             wp=_t(rng, 3 * H, 1, scale=0.3), bp=T.Tensor([[bias]]),
             wq=_t(rng, 3 * H, 1, scale=0.3), bq=T.Tensor([[bias]]),
             a_v=_dist(rng, *lead, rows, length),
             a_e=_dist(rng, *lead, rows, mentions),
             p_s=_dist(rng, *lead, rows, vocab),
             art_ids=rng.integers(0, vocab, size=lead + (length,)),
             ent_ids=rng.integers(0, vocab, size=lead + (mentions,)))
    if not entities:
        for k in ("e", "wq", "bq", "a_e", "ent_ids"):
            del p[k]
    return p


def _has(case):
    """A batch's second sample has no mentions."""
    return np.array([[[1.0]], [[0.0]]]) if case == "padded_batch" else None


def _leaves(d):
    return {k: v for k, v in d.items() if isinstance(v, T.Tensor)}


def _run(build, leaves, rng):
    """The outputs of build() and the leaves' gradients of a random
    weighting of them."""
    T.zero_grads(leaves)
    outs = build()
    outs = outs if isinstance(outs, tuple) else (outs,)
    loss = None
    for o in outs:
        term = T.sum_all(o * T.Constant(rng.normal(size=o.shape).astype(
            o.data.dtype)))
        loss = term if loss is None else loss + term
    T.backward(loss)
    return [o.data for o in outs], {k: t.grad for k, t in leaves.items()}


def _as32(d):
    return {k: T.Tensor(v.data.astype(np.float32)) if isinstance(v, T.Tensor)
            else v for k, v in d.items()}


def _assert_same(a, b):
    (outs_a, grads_a), (outs_b, grads_b) = a, b
    for x, y in zip(outs_a, outs_b):
        assert x.dtype == np.float32
        assert np.array_equal(x, y)
    for name, g in grads_a.items():
        assert np.array_equal(g, grads_b[name]), name


# ---------------------------------------------------------------------------
# float32: bit for bit against the composition


@pytest.mark.parametrize("case", sorted(CASES))
def test_attention_matches_composition_bit_for_bit(case):
    p, mask = attention_inputs(np.random.default_rng(0), case)
    p = _as32(p)
    args = (p["q"], p["wq"], p["keys"], p["values"], p["wo"], HEADS)
    got = _run(lambda: T.attention(*args, mask=mask, average=True), p,
               np.random.default_rng(1))
    want = _run(lambda: ref_attention(*args, mask=mask), p,
                np.random.default_rng(1))
    _assert_same(got, want)
    # without the averaged weights, the same output and gradients
    got = _run(lambda: T.attention(*args, mask=mask), p,
               np.random.default_rng(2))
    want = _run(lambda: ref_attention(*args, mask=mask)[0], p,
                np.random.default_rng(2))
    _assert_same(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_aoa_gate_and_ffn_match_composition_bit_for_bit(case):
    rng = np.random.default_rng(3)
    lead, rows, _, _ = CASES[case]
    p = _as32(dict(att=_t(rng, *lead, rows, H), x=_t(rng, *lead, rows, H),
                   wg=_t(rng, 2 * H, H), bg=_t(rng, 1, H),
                   wa=_t(rng, 2 * H, H), ba=_t(rng, 1, H),
                   w1=_t(rng, H, 2 * H), b1=_t(rng, 1, 2 * H),
                   w2=_t(rng, 2 * H, H), b2=_t(rng, 1, H)))
    gate = [p[k] for k in ("att", "x", "wg", "bg", "wa", "ba")]
    _assert_same(_run(lambda: T.aoa_gate(*gate), p, np.random.default_rng(4)),
                 _run(lambda: ref_gate(*gate), p, np.random.default_rng(4)))
    ffn = [p[k] for k in ("x", "w1", "b1", "w2", "b2")]
    _assert_same(_run(lambda: T.feed_forward(*ffn), p,
                      np.random.default_rng(5)),
                 _run(lambda: ref_ffn(*ffn), p, np.random.default_rng(5)))


@pytest.mark.parametrize("entities", [True, False], ids=["entities", "none"])
@pytest.mark.parametrize("bias", [-1.5, 3.0], ids=["inside", "overflowing"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pointer_matches_composition_bit_for_bit(case, bias, entities):
    p = _as32(pointer_inputs(np.random.default_rng(6), case, entities, bias))
    has = _has(case) if entities else None
    if has is not None:
        has = has.astype(np.float32)
    got = _run(lambda: fused_pointer(p, has), _leaves(p),
               np.random.default_rng(7))
    want = _run(lambda: ref_pointer(p, has), _leaves(p),
                np.random.default_rng(7))
    _assert_same(got, want)
    assert np.allclose(got[0][0].sum(axis=-1), 1.0, atol=1e-5)


def test_pointer_copy_ids_out_of_range():
    p = pointer_inputs(np.random.default_rng(8), "held_row")
    p["art_ids"] = p["art_ids"].copy()
    p["art_ids"][0, 0] = p["p_s"].shape[-1]
    with pytest.raises(IndexError):
        fused_pointer(p)


# ---------------------------------------------------------------------------
# float64: finite differences


def _fd(fn, leaves):
    report = T.finite_diff_check(fn, leaves, coords_per_param=6)
    assert report.passed, (report.worst_param, report.max_rel_err)


@pytest.mark.parametrize("case", sorted(CASES))
def test_attention_finite_differences(case):
    with T.precision("float64"):
        p, mask = attention_inputs(np.random.default_rng(9), case)
        lead, rows, keys, _ = CASES[case]
        r1 = np.random.default_rng(10).normal(size=lead + (rows, H))
        r2 = np.random.default_rng(11).normal(size=lead + (rows, keys))

        def fn(p):
            out, avg = T.attention(p["q"], p["wq"], p["keys"], p["values"],
                                   p["wo"], HEADS, mask=mask, average=True)
            return T.sum_all(T.tanh(out) * T.Constant(r1)) \
                + T.sum_all(avg * T.Constant(r2))

        _fd(fn, p)


def test_attention_finite_differences_padded_rows():
    # as encode_text masks a padded batch: real rows attend real keys,
    # padding attends padding
    with T.precision("float64"):
        rng = np.random.default_rng(12)
        valid = np.array([[True] * 5, [True] * 3 + [False] * 2])
        mask = valid[:, :, None] == valid[:, None, :]
        p = dict(q=_t(rng, 2, 5, H), wq=_t(rng, H, H, scale=0.5),
                 keys=_t(rng, 2, HEADS, DH, 5),
                 values=_t(rng, 2, HEADS, 5, DH), wo=_t(rng, H, H, scale=0.5))
        r = np.random.default_rng(13).normal(size=(2, 5, H))
        _fd(lambda p: T.sum_all(T.tanh(T.attention(
            p["q"], p["wq"], p["keys"], p["values"], p["wo"], HEADS,
            mask=mask)) * T.Constant(r)), p)


def test_aoa_gate_and_ffn_finite_differences():
    with T.precision("float64"):
        rng = np.random.default_rng(14)
        p = dict(att=_t(rng, 2, 3, H), x=_t(rng, 2, 3, H),
                 wg=_t(rng, 2 * H, H), bg=_t(rng, 1, H),
                 wa=_t(rng, 2 * H, H), ba=_t(rng, 1, H),
                 w1=_t(rng, H, 2 * H), b1=_t(rng, 1, 2 * H),
                 w2=_t(rng, 2 * H, H), b2=_t(rng, 1, H))
        r = np.random.default_rng(15).normal(size=(2, 3, H))

        def fn(p):
            gated = T.aoa_gate(p["att"], p["x"], p["wg"], p["bg"], p["wa"],
                               p["ba"])
            return T.sum_all(T.tanh(T.feed_forward(
                gated, p["w1"], p["b1"], p["w2"], p["b2"])) * T.Constant(r))

        with T.diagnostics() as diag:
            fn(p)
        assert diag["relu_margin"] > 1e-3  # no kink within the step
        _fd(fn, p)


@pytest.mark.parametrize("entities", [True, False], ids=["entities", "none"])
@pytest.mark.parametrize("bias", [-1.5, 3.0], ids=["inside", "overflowing"])
def test_pointer_finite_differences(bias, entities):
    with T.precision("float64"):
        p = pointer_inputs(np.random.default_rng(16), "padded_batch",
                           entities, bias)
        has = _has("padded_batch") if entities else None
        leaves = _leaves(p)
        r = np.random.default_rng(17).normal(size=p["p_s"].shape)

        def fn(leaves):
            return T.sum_all(fused_pointer({**p, **leaves}, has)
                             * T.Constant(r))

        with T.diagnostics() as diag:
            fn(leaves)
        assert diag["relu_margin"] > 1e-3
        if bias > 0 and entities:  # the switches leave the simplex
            sw = T.switches(((p["x0"], p["a"], p["v"]), p["wp"], p["bp"]),
                            ((p["x0"], p["e"], p["v"]), p["wq"], p["bq"]))
            assert (sw.data.sum(axis=-1) > 1.0).any()
        _fd(fn, leaves)


# ---------------------------------------------------------------------------
# tensors per held greedy step


def test_held_greedy_step_creates_at_most_120_tensors(monkeypatch):
    vocab = Vocabulary(["alpha", "beta", "gamma", "delta"])
    cfg = ModelConfig(vocab_size=len(vocab), hidden=64, heads=4, enc_layers=2,
                      dec_layers=2, k_patches=9, feat_dim=32, max_pos=128,
                      dropout=0.0)
    model = CaptionModel(cfg, vocab, seed=0)
    toks = ["alpha", "beta", "Zorb", "gamma", "beta"]
    sample = ProcessedSample(
        id="s", source="t", article_tokens=toks,
        article_ids=[vocab.id_of(t) for t in toks],
        entities=[EntityMention("Zorb", "PERSON", 2, 3, 1)],
        caption_tokens=["alpha"], caption_entities=[],
        caption_ids=[vocab.bos_id, vocab.id_of("alpha"), vocab.eos_id],
        feature_ref="")
    grid = np.random.default_rng(0).normal(size=(9, 32)).astype(np.float32)
    with T.no_grad():
        ctx = model.encode(sample, grid, positions=model.position_table())
        prefix = [vocab.bos_id, vocab.id_of("alpha"), vocab.id_of("beta")]
        model.next_token_dist(prefix[:2], ctx)  # holds the parent
        count = [0]
        init = T.Tensor.__init__

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(T.Tensor, "__init__", counted)
        model.next_token_dist(prefix, ctx)
    assert count[0] <= 120, count[0]
