"""Tests for the caption decoder: masking, multi-modal attention, fusion,
the dual-source pointer-generator, and the NLL loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newscap import decoder as D
from newscap import runtime as R
from newscap import tensor as T
from newscap.corpus import EntityMention, ProcessedSample, Vocabulary
from newscap.encoder import project_kv
from newscap.model import CaptionModel, ModelConfig, build_copy_maps, init_params


VOCAB = Vocabulary(["alpha", "beta", "gamma", "delta"])


def tiny_cfg(**kw):
    base = dict(vocab_size=len(VOCAB), hidden=8, heads=2, enc_layers=1,
                dec_layers=1, k_patches=3, feat_dim=5, max_pos=16,
                dropout=0.0, ffn_mult=2)
    base.update(kw)
    return ModelConfig(**base)


def make_sample(vocab=VOCAB):
    toks = ["alpha", "beta", "Zorb", "gamma", "beta"]
    return ProcessedSample(
        id="s", source="t",
        article_tokens=toks,
        article_ids=[vocab.id_of(t) for t in toks],
        entities=[EntityMention("Zorb", "PERSON", 2, 3, 1)],
        caption_tokens=["alpha", "Zorb", "beta"],
        caption_entities=[EntityMention("Zorb", "PERSON", 1, 2, 1)],
        caption_ids=[vocab.bos_id, vocab.id_of("alpha"),
                     vocab.tag_id("PERSON"), vocab.id_of("beta"),
                     vocab.eos_id],
        feature_ref="")


def make_model(seed=0, **cfg_kw):
    cfg = tiny_cfg(**cfg_kw)
    return CaptionModel(cfg, VOCAB, seed=seed)


def encode(model, sample=None, seed=0):
    sample = sample or make_sample()
    grid = np.random.default_rng(seed).normal(
        size=(model.cfg.k_patches, model.cfg.feat_dim))
    return sample, model.encode(sample, grid)


@pytest.fixture(autouse=True)
def fp64():
    with T.precision("float64"):
        yield


# ---------------------------------------------------------------------------
# masking


def one_sequence(n):
    """The (sequence, position) labels of n rows of one sequence."""
    return np.zeros(n, dtype=np.int64), np.arange(n)


def test_causal_mask_shape():
    m = D.causal_mask(one_sequence(3), one_sequence(3))
    assert m.tolist() == [[True, False, False],
                          [True, True, False],
                          [True, True, True]]


def test_masked_self_aoa_single_position_equals_unmasked(seed=0):
    from newscap.encoder import aoa
    params = init_params(tiny_cfg(), seed=seed)
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 8)))
    masked, _ = D.masked_self_aoa(params, "dec/l0/self", x, 2,
                                  D.causal_mask(one_sequence(1),
                                                one_sequence(1)))
    unmasked, _ = aoa(params, "dec/l0/self", x,
                      project_kv(params, "dec/l0/self", x, 2), heads=2)
    assert np.array_equal(masked.data, unmasked.data)


def test_masked_self_aoa_causality():
    params = init_params(tiny_cfg(), seed=2)
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=(4, 8))
    x2 = x1.copy()
    x2[3] += 1.0  # perturb the last position only
    mask = D.causal_mask(one_sequence(4), one_sequence(4))
    a = D.masked_self_aoa(params, "dec/l0/self", T.Tensor(x1), 2,
                          mask)[0].data
    b = D.masked_self_aoa(params, "dec/l0/self", T.Tensor(x2), 2,
                          mask)[0].data
    assert np.array_equal(a[:3], b[:3])  # bit-identical
    assert not np.allclose(a[3], b[3])


# ---------------------------------------------------------------------------
# multi-modal attention


def test_multimodal_single_article_row_attention_is_one():
    params = init_params(tiny_cfg(), seed=4)
    rng = np.random.default_rng(5)
    xa = T.Tensor(rng.normal(size=(2, 8)))
    vproj = T.Tensor(rng.normal(size=(3, 8)))
    art = T.Tensor(rng.normal(size=(1, 8)))
    _, _, _, a_w, e_w = D.multimodal_aoa(
        params, "dec/l0", xa, project_kv(params, "dec/l0/img", vproj, 2),
        project_kv(params, "dec/l0/art", art, 2), None, heads=2, average=True)
    assert np.allclose(a_w.data, 1.0)
    assert e_w is None


def test_multimodal_empty_entities_zero_context():
    params = init_params(tiny_cfg(), seed=6)
    rng = np.random.default_rng(7)
    xa = T.Tensor(rng.normal(size=(2, 8)))
    vproj = T.Tensor(rng.normal(size=(3, 8)))
    art = T.Tensor(rng.normal(size=(4, 8)))
    _, _, e_ctx, a_w, _ = D.multimodal_aoa(
        params, "dec/l0", xa, project_kv(params, "dec/l0/img", vproj, 2),
        project_kv(params, "dec/l0/art", art, 2), None, heads=2, average=True)
    assert np.array_equal(e_ctx.data, np.zeros((2, 8)))
    assert np.allclose(a_w.data.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# fusion


def test_fuse_and_project_zero_contexts_reduce_to_self_term():
    params = init_params(tiny_cfg(), seed=8)
    rng = np.random.default_rng(9)
    xa = T.Tensor(rng.normal(size=(2, 8)))
    zero = T.Tensor(np.zeros((2, 8)))
    got = D.fuse_and_project(params, "dec/l0", xa, zero, zero, zero).data
    # independent straight-line evaluation with C_t = 0
    x = xa.data

    def ln(v, g, b):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return g * (v - mu) / np.sqrt(var + 1e-5) + b

    x1 = ln(x, params["dec/l0/ln1_g"].data, params["dec/l0/ln1_b"].data)
    h = np.maximum(x1 @ params["dec/l0/ffn/w1"].data
                   + params["dec/l0/ffn/b1"].data, 0.0)
    f = h @ params["dec/l0/ffn/w2"].data + params["dec/l0/ffn/b2"].data
    expect = ln(x1 + f, params["dec/l0/ln2_g"].data, params["dec/l0/ln2_b"].data)
    assert np.allclose(got, expect, atol=1e-6)


# ---------------------------------------------------------------------------
# pointer mixing


def _pointer_inputs(seed, n=2):
    rng = np.random.default_rng(seed)
    h = 8
    x0 = T.Tensor(rng.normal(size=(n, h)))
    v_ctx = T.Tensor(rng.normal(size=(n, h)))
    a_ctx = T.Tensor(rng.normal(size=(n, h)))
    e_ctx = T.Tensor(rng.normal(size=(n, h)))
    a_v = T.softmax(T.Tensor(rng.normal(size=(n, 5))), axis=1)
    a_e = T.softmax(T.Tensor(rng.normal(size=(n, 2))), axis=1)
    p_s = T.softmax(T.Tensor(rng.normal(size=(n, len(VOCAB)))), axis=1)
    article_map = rng.integers(0, len(VOCAB), size=5)
    entity_map = rng.integers(0, len(VOCAB), size=2)
    return x0, v_ctx, a_ctx, e_ctx, a_v, a_e, p_s, article_map, entity_map


def test_pointer_mix_switches_off_gives_vocab_distribution():
    params = init_params(tiny_cfg(), seed=10)
    params["ptr/bp"].data[:] = -1e6
    params["ptr/bq"].data[:] = -1e6
    params["ptr/wp"].data[:] = 0.0
    params["ptr/wq"].data[:] = 0.0
    x0, v, a, e, a_v, a_e, p_s, am, em = _pointer_inputs(11)
    mixed, p_gen, q_gen = D.pointer_mix(params, x0, v, a, e, a_v, a_e, p_s,
                                        am, em, len(VOCAB))
    assert np.allclose(mixed.data, p_s.data, atol=1e-12)


def test_pointer_mix_article_switch_only_copies_article_ids():
    params = init_params(tiny_cfg(), seed=12)
    params["ptr/bp"].data[:] = 1e6   # p_gen == 1
    params["ptr/bq"].data[:] = -1e6  # q_gen == 0
    params["ptr/wp"].data[:] = 0.0
    params["ptr/wq"].data[:] = 0.0
    x0, v, a, e, a_v, a_e, p_s, am, em = _pointer_inputs(13)
    mixed, _, _ = D.pointer_mix(params, x0, v, a, e, a_v, a_e, p_s,
                                am, em, len(VOCAB))
    outside = np.setdiff1d(np.arange(len(VOCAB)), am)
    assert np.abs(mixed.data[:, outside]).max() < 1e-12
    assert np.allclose(mixed.data.sum(axis=1), 1.0, atol=1e-9)


def test_pointer_mix_hand_renormalization():
    # raw switches (0.7, 0.6) leave the simplex; the residual clamps to 0 and
    # the pair renormalizes to (0.7, 0.6)/1.3
    params = init_params(tiny_cfg(), seed=14)
    params["ptr/wp"].data[:] = 0.0
    params["ptr/wq"].data[:] = 0.0
    params["ptr/bp"].data[:] = math.log(0.7 / 0.3)  # sigmoid -> 0.7
    params["ptr/bq"].data[:] = math.log(0.6 / 0.4)  # sigmoid -> 0.6
    x0, v, a, e, a_v, a_e, p_s, am, em = _pointer_inputs(15, n=1)
    mixed, p_gen, q_gen = D.pointer_mix(params, x0, v, a, e, a_v, a_e, p_s,
                                        am, em, len(VOCAB))
    assert abs(p_gen.item() - 0.7) < 1e-12
    assert abs(q_gen.item() - 0.6) < 1e-12
    w_p, w_q = 0.7 / 1.3, 0.6 / 1.3
    copy_v = np.zeros(len(VOCAB))
    for pos, vid in enumerate(am):
        copy_v[vid] += a_v.data[0, pos]
    copy_e = np.zeros(len(VOCAB))
    for pos, vid in enumerate(em):
        copy_e[vid] += a_e.data[0, pos]
    expect = w_p * copy_v + w_q * copy_e  # vocab share renormalizes to 0
    assert np.allclose(mixed.data[0], expect, atol=1e-9)
    assert abs(mixed.data.sum() - 1.0) < 1e-9


def test_pointer_mix_copy_map_out_of_range():
    params = init_params(tiny_cfg(), seed=16)
    x0, v, a, e, a_v, a_e, p_s, am, em = _pointer_inputs(17)
    with pytest.raises(IndexError):
        D.pointer_mix(params, x0, v, a, e, a_v, a_e, p_s,
                      np.array([0, 1, 2, 3, len(VOCAB)]), em, len(VOCAB))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pointer_mix_always_a_distribution(seed):
    params = init_params(tiny_cfg(), seed=seed)
    # random biases force arbitrary switch values, including p+q > 1
    rng = np.random.default_rng(seed)
    params["ptr/bp"].data[:] = rng.normal(scale=4.0)
    params["ptr/bq"].data[:] = rng.normal(scale=4.0)
    x0, v, a, e, a_v, a_e, p_s, am, em = _pointer_inputs(seed)
    mixed, _, _ = D.pointer_mix(params, x0, v, a, e, a_v, a_e, p_s,
                                am, em, len(VOCAB))
    assert (mixed.data >= 0).all()
    assert np.abs(mixed.data.sum(axis=1) - 1.0).max() < 1e-5


# ---------------------------------------------------------------------------
# loss


def test_nll_loss_perfect_prediction_is_zero():
    p = T.Tensor(np.eye(4)[[1, 2]])
    total, per_token = D.nll_loss(p, [1, 2])
    assert total.item() == 0.0
    assert per_token == 0.0


def test_nll_loss_uniform_closed_form():
    n_vocab = 22
    p = T.Tensor(np.full((3, n_vocab), 1.0 / n_vocab))
    _, per_token = D.nll_loss(p, [0, 5, 21])
    assert abs(per_token - math.log(22)) < 1e-9


def test_nll_loss_clamps_tiny_mass():
    p = T.Tensor(np.full((1, 4), 1e-20))
    total, _ = D.nll_loss(p, [0])
    assert np.isfinite(total.data).all()
    assert abs(total.item() - (-math.log(1e-12))) < 1e-9


def test_nll_loss_length_mismatch():
    with pytest.raises(ValueError):
        D.nll_loss(T.Tensor(np.full((2, 4), 0.25)), [0])


# ---------------------------------------------------------------------------
# full teacher-forced pass


def test_forward_teacher_forced_deterministic():
    model = make_model(seed=18)
    sample, ctx = encode(model)
    l1, pt1, _ = model.loss(sample, ctx)
    l2, pt2, _ = model.loss(sample, ctx)
    assert l1.item() == l2.item() and pt1 == pt2


def test_forward_teacher_forced_rejects_short_caption():
    model = make_model(seed=19)
    sample, ctx = encode(model)
    sample.caption_ids = [VOCAB.bos_id]
    with pytest.raises(ValueError):
        model.loss(sample, ctx)


def test_step_outputs_are_valid_distributions():
    model = make_model(seed=20)
    sample, ctx = encode(model)
    _, _, out = model.loss(sample, ctx)
    n = len(sample.caption_ids) - 1
    assert out.p_star.shape == (n, len(VOCAB))
    for dist in (out.p_s[0], out.a_v[0], out.p_star.data):
        assert (dist >= 0).all()
        assert np.abs(dist.sum(axis=-1) - 1.0).max() < 1e-5
    assert np.abs(out.a_e[0].sum(axis=-1) - 1.0).max() < 1e-5
    for switch in (out.p_gen, out.q_gen):
        assert switch.shape == (1, n, 1)
        assert ((0.0 < switch) & (switch < 1.0)).all()


def test_no_entities_degrades_gracefully():
    model = make_model(seed=21)
    sample = make_sample()
    sample.entities = []
    sample, ctx = encode(model, sample)
    assert all(ent is None for _, _, ent in ctx.memory)
    _, _, out = model.loss(sample, ctx)
    assert out.a_e is None
    assert (out.q_gen == 0.0).all()
    assert np.abs(out.p_star.data.sum(axis=-1) - 1.0).max() < 1e-5


def test_pointer_off_uses_vocab_distribution():
    model = make_model(seed=22, pointer=False)
    sample, ctx = encode(model)
    _, _, out = model.loss(sample, ctx)
    assert np.array_equal(out.p_star.data, out.p_s[0])
    assert out.p_gen is None and out.q_gen is None


def test_copy_consistency_entity_route():
    # force the entity switch open; the loss on a tag target must equal
    # -log of the attention mass landing on mentions mapped to that tag
    model = make_model(seed=23)
    model.params["ptr/wp"].data[:] = 0.0
    model.params["ptr/bp"].data[:] = -1e6
    model.params["ptr/wq"].data[:] = 0.0
    model.params["ptr/bq"].data[:] = 1e6
    sample, ctx = encode(model)
    tag_id = VOCAB.tag_id("PERSON")
    assert list(ctx.entity_map[0]) == [tag_id]  # "Zorb" is OOV -> tag id
    _, _, out = model.loss(sample, ctx)
    t = sample.caption_ids[1:].index(tag_id)
    picked = out.p_star.data[t, tag_id]
    assert abs(picked - out.a_e[0, t, 0]) < 1e-9
    expected_nll = -math.log(out.a_e[0, t, 0])
    assert abs(-math.log(picked) - expected_nll) < 1e-9


def test_build_copy_maps_rules():
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    toks = ["alpha", "Zorb", "Qux", "beta", "strange"]
    sample = ProcessedSample(
        id="s", source="t", article_tokens=toks,
        article_ids=[vocab.id_of(t) for t in toks],
        entities=[EntityMention("Zorb Qux", "ORG", 1, 3, 1),
                  EntityMention("beta", "GPE", 3, 4, 1)],
        caption_tokens=["alpha"], caption_entities=[],
        caption_ids=[vocab.bos_id, vocab.id_of("alpha"), vocab.eos_id])
    article_map, entity_map = build_copy_maps(sample, vocab)
    assert list(article_map) == [
        vocab.id_of("alpha"),
        vocab.tag_id("ORG"), vocab.tag_id("ORG"),  # OOV inside entity span
        vocab.id_of("beta"),
        vocab.unk_id,                              # OOV outside any span
    ]
    # OOV mention -> tag id; fully in-vocab mention -> first token id
    assert list(entity_map) == [vocab.tag_id("ORG"), vocab.id_of("beta")]


# ---------------------------------------------------------------------------
# incremental decoding


def test_next_token_dist_equals_teacher_forced_last_row():
    model = make_model(seed=24)
    sample, ctx = encode(model)
    ids = sample.caption_ids
    for t in range(1, len(ids) + 1):
        full = D.decode_distributions(model.params, model.cfg, ids[:t], ctx)
        got = model.next_token_dist(ids[:t], ctx)
        assert got.shape == (len(VOCAB),)
        np.testing.assert_allclose(got, full.p_star.data[-1], rtol=1e-6,
                                   atol=0)


@pytest.mark.parametrize("pointer, entities", [
    (True, True), (True, False), (False, True)])
def test_stacked_prefixes_match_single_prefix_calls(pointer, entities):
    model = make_model(seed=25, pointer=pointer)
    sample = make_sample()
    if not entities:
        sample.entities = []
    sample, ctx = encode(model, sample)
    ids = sample.caption_ids
    prefixes = [ids[:3], ids[:1], ids[:5], [ids[0], ids[3], ids[1]], ids[:2]]
    stacked = model.next_token_dist(prefixes, ctx)
    assert stacked.shape == (len(prefixes), len(VOCAB))
    for row, prefix in zip(stacked, prefixes):
        np.testing.assert_allclose(row, model.next_token_dist(prefix, ctx),
                                   rtol=1e-6, atol=0)


def record_rows(monkeypatch):
    """The number of rows each decoder call runs, one entry per call."""
    runs = []
    embed = D.embed_positions

    def recording(params, ids, positions, pos=None):
        runs.append(np.size(ids))
        return embed(params, ids, positions, pos)

    monkeypatch.setattr(D, "embed_positions", recording)
    return runs


def full_run(model, prefix, ctx):
    """The distribution after `prefix` from a decoder call with no past."""
    return D.decode_distributions(model.params, model.cfg, prefix,
                                  ctx).p_star.data[-1]


@pytest.mark.parametrize("dec_layers", [1, 2])
def test_stepping_a_caption_runs_one_row_per_step(monkeypatch, dec_layers):
    model = make_model(seed=26, dec_layers=dec_layers)
    sample, ctx = encode(model)
    ids = sample.caption_ids
    expect = [full_run(model, ids[:t], ctx) for t in range(1, len(ids) + 1)]
    runs = record_rows(monkeypatch)
    for t in range(1, len(ids) + 1):
        np.testing.assert_allclose(model.next_token_dist(ids[:t], ctx),
                                   expect[t - 1], rtol=1e-6, atol=0)
    assert runs == [1] * len(ids)


@pytest.mark.parametrize("entities", [True, False])
def test_stacked_held_and_new_parents_match_full_runs(monkeypatch, entities):
    model = make_model(seed=27, dec_layers=2)
    sample = make_sample()
    if not entities:
        sample.entities = []
    sample, ctx = encode(model, sample)
    ids = sample.caption_ids
    model.next_token_dist([ids[:2], ids[:3]], ctx)
    # parents held: ids[:2], ids[:3], ids[:3]; (BOS, ids[3]) was never
    # stepped, so it is stepped first; ids[:1] has no parent
    prefixes = [ids[:3], ids[:4], [ids[0], ids[3], ids[1]], ids[:1],
                ids[:3] + [ids[1]]]
    runs = record_rows(monkeypatch)
    stacked = model.next_token_dist(prefixes, ctx)
    assert runs == [1, 5]
    for row, prefix in zip(stacked, prefixes):
        np.testing.assert_allclose(row, full_run(model, prefix, ctx),
                                   rtol=1e-6, atol=0)


def test_prefix_with_no_stepped_ancestor_steps_each_ancestor(monkeypatch):
    model = make_model(seed=28, dec_layers=2)
    sample, ctx = encode(model)
    ids = [VOCAB.bos_id] + list(
        np.random.default_rng(28).integers(0, len(VOCAB), size=12))
    expect = full_run(model, ids[:12], ctx)  # the teacher-forced row
    runs = record_rows(monkeypatch)
    got = model.next_token_dist(ids[:12], ctx)
    assert runs == [1] * 12
    np.testing.assert_allclose(got, expect, rtol=1e-6, atol=0)
    # its child then runs its last token over the held prefix
    np.testing.assert_allclose(model.next_token_dist(ids, ctx),
                               full_run(model, ids, ctx), rtol=1e-6, atol=0)
    assert runs[12] == 1


def test_prefix_without_past_is_rejected():
    model = make_model(seed=31)
    sample, ctx = encode(model)
    ids = sample.caption_ids
    with pytest.raises(ValueError, match="past"):
        D.decode_distributions(model.params, model.cfg, ids[:1] + ids[:3],
                               ctx, lengths=[1, 3])


def test_beam_decode_runs_one_row_per_prefix(monkeypatch):
    model = make_model(seed=32, dec_layers=2)
    # EOS never wins, so every hypothesis runs all max_len steps
    model.params["out/b"].data[0, VOCAB.eos_id] = -1e4
    sample = make_sample()
    grid = np.random.default_rng(32).normal(
        size=(model.cfg.k_patches, model.cfg.feat_dim))
    runs = record_rows(monkeypatch)
    prefixes = []
    decode = D.decode_distributions

    def counting(*args, lengths=None, **kwargs):
        prefixes.append(len(lengths))
        return decode(*args, lengths=lengths, **kwargs)

    monkeypatch.setattr(D, "decode_distributions", counting)
    R.decode_sample(model, sample, grid, decode="beam", beam=3, max_len=8)
    assert len(runs) >= 8 and max(runs) > 1
    assert runs == prefixes


def test_held_step_cost_does_not_grow_with_the_prefix(monkeypatch):
    model = make_model(seed=29, dec_layers=2, max_pos=32)
    sample, ctx = encode(model)
    ids = [VOCAB.bos_id] + list(
        np.random.default_rng(30).integers(0, len(VOCAB), size=29))
    created = []
    init = T.Tensor.__init__

    def counting(self, *args, **kwargs):
        created[-1] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(T.Tensor, "__init__", counting)
    runs = record_rows(monkeypatch)
    for t in range(1, len(ids) + 1):
        created.append(0)
        model.next_token_dist(ids[:t], ctx)
    assert created[1] == created[29] > 0
    assert len(set(created[1:])) == 1
    assert runs == [1] * len(ids)
