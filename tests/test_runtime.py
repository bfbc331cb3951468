"""Tests for the runtime: checkpoint round-trips, greedy/beam decoding
(against exhaustive enumeration), tag cleaning, and the training loop."""

import copy
import dataclasses
import hashlib
import itertools
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newscap import runtime as R
from newscap import tensor as T
from newscap.corpus import EntityMention, ProcessedSample, Vocabulary
from newscap.features import FeatureStore, save_features, synthetic_features
from newscap import model as M
from newscap.model import CaptionModel, ModelConfig


VOCAB = Vocabulary(["alpha", "beta", "gamma", "delta"])


def tiny_cfg(**kw):
    base = dict(vocab_size=len(VOCAB), hidden=8, heads=2, enc_layers=1,
                dec_layers=1, k_patches=3, feat_dim=5, max_pos=16,
                dropout=0.0, ffn_mult=2)
    base.update(kw)
    return ModelConfig(**base)


def make_sample(idx=0, feature_ref=""):
    toks = ["alpha", "beta", "Zorb", "gamma", "beta"]
    caps = [["alpha", "beta", "gamma"], ["beta", "gamma", "alpha"],
            ["gamma", "alpha", "beta"]]
    cap = caps[idx % len(caps)]
    return ProcessedSample(
        id=f"s{idx}", source="t",
        article_tokens=toks,
        article_ids=[VOCAB.id_of(t) for t in toks],
        entities=[EntityMention("Zorb", "PERSON", 2, 3, 1)],
        caption_tokens=cap,
        caption_entities=[],
        caption_ids=[VOCAB.bos_id] + [VOCAB.id_of(t) for t in cap]
        + [VOCAB.eos_id],
        feature_ref=feature_ref)


def make_model(seed=0, **kw):
    return CaptionModel(tiny_cfg(**kw), VOCAB, seed=seed)


def encoded(model, sample=None, seed=0):
    sample = sample or make_sample()
    grid = np.random.default_rng(seed).normal(
        size=(model.cfg.k_patches, model.cfg.feat_dim)).astype(np.float32)
    return sample, model.encode(sample, grid)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = make_model(seed=1)
    sample, ctx = encoded(model)
    before = model.next_token_dist(sample.caption_ids[:2], ctx).copy()
    ckpt = R.checkpoint_from_model(model, step=7, epoch=3, seed=1)
    path = str(tmp_path / "m.bin")
    R.save_checkpoint(ckpt, path)
    loaded = R.load_checkpoint(path)
    assert loaded.step == 7 and loaded.epoch == 3 and loaded.seed == 1
    for name, arr in ckpt.params.items():
        assert np.array_equal(loaded.params[name], arr)
    model2 = R.model_from_checkpoint(loaded, VOCAB)
    _, ctx2 = encoded(model2)
    after = model2.next_token_dist(sample.caption_ids[:2], ctx2)
    assert np.array_equal(before, after)


def test_checkpoint_with_adam_state_round_trip(tmp_path):
    model = make_model(seed=2)
    adam = T.AdamState(base_lr=1e-3, warmup=5)
    grads = {k: np.ones_like(p.data) for k, p in model.params.items()}
    T.adam_step(model.params, grads, adam)
    ckpt = R.checkpoint_from_model(model, adam=copy.deepcopy(adam))
    path = str(tmp_path / "m.bin")
    R.save_checkpoint(ckpt, path)
    loaded = R.load_checkpoint(path)
    assert loaded.adam.step == 1
    for name in model.params:
        assert np.array_equal(loaded.adam.m[name], adam.m[name])
        assert np.array_equal(loaded.adam.v[name], adam.v[name])


def _straight_line_checkpoint(ckpt):
    """The documented format, written out in one piece: magic, version and
    header length (little-endian u32), the header JSON (sorted keys), then
    every parameter's raw bytes by sorted name, then Adam's m and v the same
    way; the checksum is the SHA-256 of those bytes."""
    names = sorted(ckpt.params)
    buckets = [ckpt.params]
    if ckpt.adam is not None:
        buckets += [ckpt.adam.m, ckpt.adam.v]
    blob = b"".join(b[n].tobytes() for b in buckets for n in names)
    a = ckpt.adam
    header = {
        "version": 1, "dtype": str(ckpt.params[names[0]].dtype),
        "config": ckpt.config.to_dict(), "vocab_hash": ckpt.vocab_hash,
        "step": ckpt.step, "epoch": ckpt.epoch, "seed": ckpt.seed,
        "rng_state": ckpt.rng_state,
        "adam": None if a is None else {
            "base_lr": a.base_lr, "beta1": a.beta1, "beta2": a.beta2,
            "eps": a.eps, "warmup": a.warmup, "step": a.step},
        "train_config": ckpt.train_config,
        "best_val_cider": ckpt.best_val_cider,
        "params": [{"name": n, "shape": list(ckpt.params[n].shape)}
                   for n in names],
        "checksum": hashlib.sha256(blob).hexdigest(),
    }
    hdr = json.dumps(header, sort_keys=True).encode()
    return b"NCKP" + struct.pack("<II", 1, len(hdr)) + hdr + blob


@pytest.mark.parametrize("with_adam", [False, True])
def test_checkpoint_bytes_equal_straight_line_writer(tmp_path, with_adam):
    model = make_model(seed=6)
    adam = None
    if with_adam:
        adam = T.AdamState(base_lr=1e-3, warmup=5)
        T.adam_step(model.params, {k: np.full_like(p.data, 0.5) for k, p
                                   in model.params.items()}, adam)
    ckpt = R.checkpoint_from_model(model, step=3, epoch=2, seed=6, adam=adam,
                                   best_val_cider=0.25)
    path = str(tmp_path / "m.bin")
    R.save_checkpoint(ckpt, path)
    with open(path, "rb") as fh:
        assert fh.read() == _straight_line_checkpoint(ckpt)


def test_failed_checkpoint_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """A write that raises OSError part way removes the temp file and
    leaves the file already at the path as it was."""
    path = tmp_path / "m.bin"
    path.write_bytes(b"old")

    class Full:
        def __init__(self, fh):
            self.fh, self.left = fh, 3

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.left -= 1
            if not self.left:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(R, "open", lambda p, mode: Full(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        R.save_checkpoint(R.checkpoint_from_model(make_model(seed=3)),
                          str(path))
    assert os.listdir(tmp_path) == ["m.bin"]
    assert path.read_bytes() == b"old"


def test_checkpoint_truncated_blob_detected(tmp_path):
    path = str(tmp_path / "m.bin")
    R.save_checkpoint(R.checkpoint_from_model(make_model(seed=3)), path)
    blob = open(path, "rb").read()
    for cut in (blob[:-5], blob + b"x"):
        open(path, "wb").write(cut)
        with pytest.raises(ValueError, match="checksum"):
            R.load_checkpoint(path)


def test_checkpoint_corruption_detected(tmp_path):
    model = make_model(seed=3)
    path = str(tmp_path / "m.bin")
    R.save_checkpoint(R.checkpoint_from_model(model), path)
    blob = bytearray(open(path, "rb").read())
    blob[-3] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="checksum"):
        R.load_checkpoint(path)


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = str(tmp_path / "junk.bin")
    open(path, "wb").write(b"garbage bytes")
    with pytest.raises(ValueError):
        R.load_checkpoint(path)


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    model = make_model(seed=4)
    path = str(tmp_path / "m.bin")
    R.save_checkpoint(R.checkpoint_from_model(model), path)
    other = Vocabulary(["different", "words", "here", "now"])
    with pytest.raises(ValueError, match="vocabulary"):
        R.model_from_checkpoint(R.load_checkpoint(path), other)


def test_init_params_draws_the_param_table():
    cfg = tiny_cfg(enc_layers=2, ffn_mult=3)
    assert {k: p.data.shape for k, p in M.init_params(cfg).items()} == \
        {k: shape for k, (shape, _) in M.param_table(cfg).items()}


def test_model_from_checkpoint_checks_params_without_drawing(monkeypatch):
    ckpt = R.checkpoint_from_model(make_model(seed=4))

    def draw(*args, **kw):
        raise AssertionError("init_params called")
    monkeypatch.setattr(M, "init_params", draw)
    R.model_from_checkpoint(ckpt, VOCAB)
    ckpt.params["emb/pos"] = ckpt.params["emb/pos"][:, :4]
    with pytest.raises(ValueError, match=r"'emb/pos' has shape \(16, 4\)"):
        R.model_from_checkpoint(ckpt, VOCAB)


# ---------------------------------------------------------------------------
# decoding


def test_greedy_decode_deterministic():
    model = make_model(seed=5)
    _, ctx = encoded(model)
    a = R.greedy_decode(model, ctx, max_len=6)
    b = R.greedy_decode(model, ctx, max_len=6)
    assert a == b


def test_greedy_decode_max_len_one():
    model = make_model(seed=6)
    _, ctx = encoded(model)
    assert len(R.greedy_decode(model, ctx, max_len=1)) <= 1


def test_beam_one_equals_greedy():
    for seed in range(5):
        model = make_model(seed=seed)
        _, ctx = encoded(model, seed=seed)
        assert R.beam_decode(model, ctx, beam=1, max_len=6) == \
            R.greedy_decode(model, ctx, max_len=6)


def _table_step_fn(table, vocab_size):
    def fn(prefix):
        key = tuple(prefix)
        dist = table.get(key)
        if dist is None:
            dist = np.zeros(vocab_size)
            dist[1] = 1.0  # force EOS when off-table
        return np.asarray(dist, dtype=float)
    return lambda prefixes: np.stack([fn(p) for p in prefixes])


def _exhaustive_best(table, bos, eos, max_len, vocab_size, alpha=0.7):
    """Enumerate every sequence up to max_len; return the best normalized one."""
    fn = _table_step_fn(table, vocab_size)
    best = (None, -np.inf)
    for length in range(1, max_len + 1):
        for seq in itertools.product(range(vocab_size), repeat=length):
            if eos in seq[:-1] or bos in seq or seq == (eos,):
                continue  # the empty caption is not a caption
            toks = list(seq)
            ends_with_eos = toks[-1] == eos
            lp = 0.0
            prefix = [bos]
            ok = True
            for tok in toks:
                p = fn([prefix])[0, tok]
                if p <= 0:
                    ok = False
                    break
                lp += np.log(p)
                prefix.append(tok)
            if not ok:
                continue
            body = toks[:-1] if ends_with_eos else toks
            if not ends_with_eos and length < max_len:
                continue  # only terminal sequences compete
            score = lp / (max(len(body), 1) ** alpha)
            if score > best[1]:
                best = (body, score)
    return best[0]


def test_beam_search_matches_exhaustive_enumeration():
    # hand-set 3-step distribution table: ids 0=BOS, 1=EOS, 2..4 words
    v = 5
    table = {
        (0,): [0, 0.05, 0.5, 0.25, 0.2],
        (0, 2): [0, 0.1, 0.1, 0.7, 0.1],
        (0, 3): [0, 0.3, 0.3, 0.2, 0.2],
        (0, 4): [0, 0.9, 0.02, 0.04, 0.04],
        (0, 2, 3): [0, 0.8, 0.1, 0.05, 0.05],
        (0, 3, 2): [0, 0.5, 0.2, 0.2, 0.1],
    }
    fn = _table_step_fn(table, v)
    got = R.beam_search(fn, bos_id=0, eos_id=1, max_len=3, beam=5)
    expect = _exhaustive_best(table, bos=0, eos=1, max_len=3, vocab_size=v)
    assert got == expect


@pytest.mark.parametrize("table,beam,expect", [
    # EOS is the argmax after BOS, and the empty caption (log 0.6) would
    # outscore every other caption; greedy ends after its first word
    ({(0,): [0, 0.6, 0.2, 0.15, 0.05], (0, 2): [0, 0.5, 0.1, 0.3, 0.1],
      (0, 3): [0, 0.4, 0.3, 0.2, 0.1]}, 1, [2]),
    ({(0,): [0, 0.6, 0.2, 0.15, 0.05], (0, 2): [0, 0.5, 0.1, 0.3, 0.1],
      (0, 3): [0, 0.4, 0.3, 0.2, 0.1]}, 3, [2, 3]),
    # EOS holds all but 1 % after BOS; the only other word with mass wins
    ({(0,): [0, 0.99, 0, 0.01, 0]}, 1, [3]),
    ({(0,): [0, 0.99, 0, 0.01, 0]}, 3, [3]),
], ids=["eos-argmax-beam1", "eos-argmax-beam3", "eos-nearly-certain-beam1",
        "eos-nearly-certain-beam3"])
def test_beam_search_never_returns_the_empty_caption(table, beam, expect):
    fn = _table_step_fn(table, 5)
    got = R.beam_search(fn, bos_id=0, eos_id=1, max_len=3, beam=beam)
    assert got == expect
    if beam > 1:
        assert got == _exhaustive_best(table, bos=0, eos=1, max_len=3,
                                       vocab_size=5)


def test_beam_search_steps_all_live_prefixes_in_one_call():
    v = 5
    table = {
        (0,): [0, 0.05, 0.5, 0.25, 0.2],
        (0, 2): [0, 0.1, 0.1, 0.7, 0.1],
        (0, 3): [0, 0.3, 0.3, 0.2, 0.2],
        (0, 4): [0, 0.9, 0.02, 0.04, 0.04],
        (0, 2, 3): [0, 0.8, 0.1, 0.05, 0.05],
    }
    calls = []

    def counting(table):
        fn = _table_step_fn(table, v)

        def step(prefixes):
            calls.append(sorted(tuple(p) for p in prefixes))
            return fn(prefixes)
        return step

    assert R.beam_search(counting(table), 0, 1, max_len=3, beam=1) == [2, 3]
    assert calls == [[(0,)], [(0, 2)], [(0, 2, 3)]]
    calls.clear()
    R.beam_search(counting(table), 0, 1, max_len=3, beam=3)
    # the greedy pass's prefixes (0,), (0, 2), (0, 2, 3) are beam prefixes
    assert [{len(p) for p in c} for c in calls] == [{1}, {2}, {3}]
    assert (0, 2) in calls[1] and (0, 2, 3) in calls[2]
    # greedy's (0, 2, 2) drops out of the beam of 2 and joins its call
    calls.clear()
    table = {(0,): [0, 0, 0.4, 0.35, 0.25], (0, 2): [0, 0, 0.34, 0.33, 0.33],
             (0, 3): [0, 0, 0.5, 0.5, 0]}
    R.beam_search(counting(table), 0, 1, max_len=3, beam=2)
    assert calls == [[(0,)], [(0, 2), (0, 3)],
                     [(0, 2, 2), (0, 3, 2), (0, 3, 3)]]


def test_beam_search_wider_never_worse():
    model = make_model(seed=7)
    _, ctx = encoded(model, seed=7)

    def score(seq, alpha=0.7):
        lp = 0.0
        prefix = [VOCAB.bos_id]
        with T.no_grad():
            for tok in seq + [VOCAB.eos_id]:
                lp += float(np.log(max(
                    model.next_token_dist(prefix, ctx)[tok], 1e-12)))
                prefix.append(tok)
        return lp / (max(len(seq), 1) ** 0.7)

    greedy = R.greedy_decode(model, ctx, max_len=5)
    wide = R.beam_decode(model, ctx, beam=4, max_len=5)
    assert score(wide) >= score(greedy) - 1e-12


def test_beam_search_rejects_bad_beam():
    with pytest.raises(ValueError):
        R.beam_search(lambda p: np.ones(3), 0, 1, 4, beam=0)


@pytest.mark.parametrize("beam", [1, 3])
def test_beam_search_rejects_non_finite_distribution(beam):
    table = {(0,): [0, 0.1, 0.6, 0.3], (0, 2): [np.nan] * 4}
    with pytest.raises(FloatingPointError):
        R.beam_search(_table_step_fn(table, 4), 0, 1, 4, beam=beam)


def test_top_ids_matches_stable_argsort():
    rng = np.random.default_rng(0)
    mostly_zero = np.zeros(300)
    mostly_zero[[7, 250, 31]] = [0.5, 0.25, 0.25]
    for dist in (rng.random(50), np.repeat(rng.random(10), 5),
                 np.ones(7), np.array([0.2, 0.5, 0.5, 0.1, 0.5]),
                 np.zeros(9), mostly_zero,
                 np.array([0.0, 0.3, 0.0, 0.3, 0.4, 0.0], np.float32)):
        for k in (1, 2, 5, 60):
            assert list(R._top_ids(dist, k)) == \
                list(np.argsort(-dist, kind="stable")[:k])


def test_beam_search_falls_back_to_greedy_under_eos_score():
    # ids 0=BOS, 1=EOS. [4, 4] wins on the open score at max_len, but its EOS
    # term (0.01) sinks it below greedy's [2, 3] once EOS is appended.
    v = 5
    table = {
        (0,): [0, 0, 0.5, 0, 0.45],
        (0, 2): [0, 0, 0, 0.6, 0],
        (0, 4): [0, 0, 0, 0, 0.95],
        (0, 2, 3): [0, 0.9, 0, 0, 0],
        (0, 4, 4): [0, 0.01, 0, 0, 0],
    }
    fn = _table_step_fn(table, v)
    assert R.beam_search(fn, bos_id=0, eos_id=1, max_len=2, beam=1) == [2, 3]
    assert R.beam_search(fn, bos_id=0, eos_id=1, max_len=2, beam=2) == [2, 3]


def test_decode_sample_encodes_once_without_tape(tmp_path, monkeypatch):
    from newscap import encoder as E
    samples, store = _training_setup(tmp_path, n=1)
    model = make_model(seed=10)
    lstm_calls = []
    contexts = []
    position_lstm, encode = E.position_lstm, model.encode

    def counting_lstm(*args):
        lstm_calls.append(args[2])
        return position_lstm(*args)

    def recording_encode(*args, **kwargs):
        contexts.append(encode(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(E, "position_lstm", counting_lstm)
    monkeypatch.setattr(model, "encode", recording_encode)
    # max_len may reach the position table: encode builds the full table
    # once and every decoding step reads it
    R.decode_sample(model, samples[0], store.get(samples[0].feature_ref),
                    max_len=model.cfg.max_pos)
    assert lstm_calls == [model.cfg.max_pos]
    ctx, = contexts
    assert all(t._bw is None for layer in ctx.memory for kv in layer
               for t in kv)


# ---------------------------------------------------------------------------
# tag cleaning


def ent(text, etype, start, freq):
    return EntityMention(text, etype, start, start + len(text.split()), freq)


def test_tag_clean_highest_frequency_wins():
    ents = [ent("John Smith", "PERSON", 0, 3), ent("Mary", "PERSON", 5, 1)]
    out, n = R.tag_clean(["PERSON_", "spoke"], ents)
    assert out == ["John", "Smith", "spoke"]
    assert n == 0


def test_tag_clean_identity_without_tags():
    ents = [ent("Paris", "GPE", 0, 2)]
    toks = ["a", "plain", "caption", "."]
    out, n = R.tag_clean(toks, ents)
    assert out == toks and n == 0


def test_tag_clean_tie_breaks_earliest():
    ents = [ent("Late Corp", "ORG", 9, 2), ent("Early Inc", "ORG", 4, 2)]
    out, _ = R.tag_clean(["ORG_"], ents)
    assert out == ["Early", "Inc"]


def test_tag_clean_missing_category_counted():
    out, n = R.tag_clean(["GPE_", "x", "PERSON_"],
                         [ent("Acme", "ORG", 0, 1)])
    assert out == ["GPE_", "x", "PERSON_"]
    assert n == 2


def test_tag_clean_never_touches_non_tags():
    ents = [ent("Zorb", "PERSON", 2, 3)]
    toks = ["alpha", "PERSON", "_PERSON", "PERSONS_", "PERSON_"]
    out, _ = R.tag_clean(toks, ents)
    assert out == ["alpha", "PERSON", "_PERSON", "PERSONS_", "Zorb"]


# ---------------------------------------------------------------------------
# training


def _training_setup(tmp_path, n=3):
    store_dir = tmp_path / "feat"
    store_dir.mkdir(exist_ok=True)
    samples = []
    for i in range(n):
        ref = f"f{i}.bin"
        save_features(synthetic_features(3, 5, seed=i), str(store_dir / ref))
        samples.append(make_sample(i, feature_ref=ref))
    return samples, FeatureStore(str(store_dir))


def _train_cfg(**kw):
    base = dict(batch_size=2, base_lr=1e-3, warmup=5, dropout=0.0,
                patience=100, max_epochs=3, eval_every=1, seed=0,
                max_decode_len=6, model=tiny_cfg())
    base.update(kw)
    return R.TrainConfig(**base)


def test_train_runs_and_returns_best_checkpoint(tmp_path):
    samples, store = _training_setup(tmp_path)
    records = []
    path = str(tmp_path / "m.bin")
    epoch, val = R.train(_train_cfg(), samples, samples, VOCAB, store, path,
                         log_cb=records.append)
    assert val is not None
    assert len(records) == 3
    assert all(np.isfinite(r["loss"]) for r in records)
    ckpt = R.load_checkpoint(path)
    assert (ckpt.epoch, ckpt.best_val_cider) == (epoch, val)
    assert val == max(r["val_cider"] for r in records)


def test_train_determinism_identical_logs(tmp_path):
    samples, store = _training_setup(tmp_path)
    logs, files = [], []
    for run in range(2):
        records = []
        path = tmp_path / f"m{run}.bin"
        R.train(_train_cfg(), samples, samples, VOCAB, store, str(path),
                log_cb=records.append)
        logs.append(json.dumps(records, sort_keys=True))
        files.append(path.read_bytes())
    assert logs[0] == logs[1]
    assert files[0] == files[1]


def test_train_patience_zero_stops_after_first_regression(tmp_path):
    samples, store = _training_setup(tmp_path)
    records = []
    R.train(_train_cfg(patience=0, max_epochs=50), samples, samples, VOCAB,
            store, str(tmp_path / "m.bin"), log_cb=records.append)
    # must stop well before the epoch cap once CIDEr stops improving
    assert len(records) < 50


def test_train_target_loss_stop(tmp_path):
    samples, store = _training_setup(tmp_path)
    records = []
    epoch, _ = R.train(_train_cfg(target_loss=100.0, max_epochs=50), samples,
                       samples, VOCAB, store, str(tmp_path / "m.bin"),
                       log_cb=records.append)
    assert len(records) == 1  # any finite loss beats the silly target
    assert epoch == 1


def test_train_writes_the_live_arrays(tmp_path, monkeypatch):
    """Each write streams the model's own parameter arrays and the live Adam
    moments, not copies; the file holds their values at that moment."""
    samples, store = _training_setup(tmp_path)
    models, states, writes = [], [], []
    from_model, save, step = (R.checkpoint_from_model, R.save_checkpoint,
                              T.adam_step)

    def checkpoint_from_model(model, **kw):
        models.append(model)
        return from_model(model, **kw)

    def adam_step(params, grads, state):
        states.append(state)
        step(params, grads, state)

    def save_checkpoint(ckpt, path):
        model = models[-1]
        assert ckpt.adam is states[-1]
        for name, p in model.params.items():
            assert ckpt.params[name] is p.data
            assert ckpt.adam.m[name] is states[-1].m[name]
            assert ckpt.adam.v[name] is states[-1].v[name]
        save(ckpt, path)
        loaded = R.load_checkpoint(path)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name], p.data)
            assert np.array_equal(loaded.adam.m[name], states[-1].m[name])
        writes.append(ckpt.epoch)

    monkeypatch.setattr(R, "checkpoint_from_model", checkpoint_from_model)
    monkeypatch.setattr(R, "save_checkpoint", save_checkpoint)
    monkeypatch.setattr(T, "adam_step", adam_step)
    records = []
    R.train(_train_cfg(), samples, samples, VOCAB, store,
            str(tmp_path / "m.bin"), log_cb=records.append)
    improved, best = [], -1.0
    for r in records:
        if r["val_cider"] > best:
            improved.append(r["epoch"])
            best = r["val_cider"]
    assert writes == improved


def test_train_patience_keeps_the_best_epoch(tmp_path, monkeypatch):
    """Under patience the file holds the best epoch's weights and Adam
    step, as they were at the end of that epoch, not the last epoch's."""
    samples, store = _training_setup(tmp_path)
    models = []

    class Recorded(CaptionModel):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            models.append(self)

    monkeypatch.setattr(R, "CaptionModel", Recorded)
    records, weights = [], {}

    def log_cb(record):
        records.append(record)
        weights[record["epoch"]] = {k: p.data.copy()
                                    for k, p in models[0].params.items()}

    path = str(tmp_path / "checkpoint.bin")
    epoch, val = R.train(_train_cfg(patience=0, max_epochs=50), samples,
                         samples, VOCAB, store, path, log_cb=log_cb)
    assert epoch < records[-1]["epoch"]
    assert val == max(r["val_cider"] for r in records)
    ckpt = R.load_checkpoint(path)
    assert ckpt.epoch == epoch and ckpt.step == records[epoch - 1]["step"]
    assert not all(np.array_equal(weights[epoch][k], p.data)
                   for k, p in models[0].params.items())
    for name, arr in weights[epoch].items():
        assert np.array_equal(ckpt.params[name], arr), name


def test_per_sample_backward_equals_summed_loss(tmp_path, monkeypatch):
    """At micro-batches of one sample, train() runs one backward per sample
    against the batch's position table as a leaf, then one through the
    LSTM; its gradients equal, bit for bit, one backward of the batch's
    summed loss over one tape."""
    monkeypatch.setattr(R, "MICRO_BATCH_ELEMENTS", 1)
    samples, store = _training_setup(tmp_path, n=3)
    cfg = _train_cfg(batch_size=3, max_epochs=1, model=tiny_cfg(dropout=0.1))
    assert [len(m) for m in R.micro_batches(samples, cfg.model)] == [1, 1, 1]
    grads = {}

    class Captured(Exception):
        pass

    def capture(params, g, state):
        grads.update({k: v.copy() for k, v in g.items()})
        raise Captured

    monkeypatch.setattr(T, "adam_step", capture)
    with pytest.raises(Captured):
        R.train(cfg, samples, samples, VOCAB, store, str(tmp_path / "m.bin"))

    model = CaptionModel(cfg.model, VOCAB, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    batch = [samples[i] for i in rng.permutation(len(samples))]
    assert all(s.entities for s in batch)
    positions = model.position_table(max(
        max(len(s.article_ids), len(s.caption_ids) - 1) for s in batch))
    total = None
    for s in batch:
        drop = model.dropout_ctx(rng)
        ctx = model.encode(s, store.get(s.feature_ref), drop=drop,
                           positions=positions)
        loss, _, _ = model.loss(s, ctx, drop=drop)
        total = loss if total is None else total + loss
    T.backward(total * (1.0 / len(batch)))
    expect = T.collect_grads(model.params)
    assert set(grads) == set(expect)
    for name, g in expect.items():
        assert np.array_equal(grads[name], g), name


def varied_samples():
    """Samples that differ in article length, caption length and mention
    count; the last has no mentions."""
    def sample(i, toks, entities, cap):
        return ProcessedSample(
            id=f"v{i}", source="t", article_tokens=toks,
            article_ids=[VOCAB.id_of(t) for t in toks], entities=entities,
            caption_tokens=cap, caption_entities=[],
            caption_ids=[VOCAB.bos_id] + [VOCAB.id_of(t) for t in cap]
            + [VOCAB.eos_id], feature_ref=f"v{i}")
    return [
        sample(0, ["alpha", "beta", "Zorb", "gamma", "beta"],
               [EntityMention("Zorb", "PERSON", 2, 3, 1)],
               ["alpha", "beta", "gamma"]),
        sample(1, ["Qux", "Vel", "alpha", "delta", "Zorb", "beta", "gamma",
                   "alpha", "delta"],
               [EntityMention("Qux Vel", "ORG", 0, 2, 1),
                EntityMention("Zorb", "PERSON", 4, 5, 1),
                EntityMention("delta", "GPE", 8, 9, 1)],
               ["gamma", "alpha", "delta", "beta", "alpha", "gamma"]),
        sample(2, ["gamma", "delta", "beta"], [], ["delta"]),
    ]


def _varied_grids(dtype):
    """Feature grids by sample id; the last has fewer patches."""
    rng = np.random.default_rng(40)
    return {f"v{i}": rng.normal(size=(k, 5)).astype(dtype)
            for i, k in enumerate((3, 3, 2))}


def _losses_and_grads(model, samples, grids, batched):
    """Per-sample losses and the parameter gradients of their mean, from one
    padded micro-batch or from one tape per sample; both read one position
    table as a leaf, as train() does."""
    T.zero_grads(model.params)
    table = model.position_table(12)
    positions = T.Tensor(table.data)
    if batched:
        ctx = model.encode(samples, [grids[s.id] for s in samples],
                           positions=positions)
        loss, _, _ = model.loss(samples, ctx)
        losses = list(loss.data)
        T.backward(loss, np.full_like(loss.data, 1.0 / len(samples)))
    else:
        losses = []
        for s in samples:
            loss, _, _ = model.loss(s, model.encode(s, grids[s.id],
                                                    positions=positions))
            losses.append(loss.item())
            T.backward(loss * (1.0 / len(samples)))
    T.backward(table, positions.grad)
    return np.asarray(losses), T.collect_grads(model.params)


@pytest.mark.parametrize("dtype, rtol", [("float64", 1e-9), ("float32", 1e-4)])
def test_padded_micro_batch_equals_per_sample_runs(dtype, rtol):
    samples = varied_samples()
    with T.precision(dtype):
        model = make_model(seed=31, dec_layers=2)
        grids = _varied_grids(dtype)
        got_loss, got = _losses_and_grads(model, samples, grids, True)
        want_loss, want = _losses_and_grads(model, samples, grids, False)
    np.testing.assert_allclose(got_loss, want_loss, rtol=rtol, atol=0)
    for name, g in want.items():
        assert got[name].dtype == np.dtype(dtype)
        np.testing.assert_allclose(got[name], g, rtol=rtol,
                                   atol=rtol * np.abs(g).max(), err_msg=name)


def test_padded_micro_batch_finite_differences():
    """Tape gradients through a padded batch of two (one sample without
    mentions) against central differences in float64. The step is small
    (1e-6) and the point clear of relu kinks and eps-dominated layer
    norms."""
    samples = varied_samples()[1:]
    with T.precision("float64"):
        grids = _varied_grids("float64")
        for seed in range(1, 21):
            model = make_model(seed=seed, hidden=16)
            # embeddings at the gradient checker's scale keep the layer
            # norms' input variance well above eps
            emb_rng = np.random.default_rng(seed + 10_000)
            for name in ("emb/word", "emb/pos"):
                model.params[name].data = emb_rng.normal(
                    0.0, 0.5, model.params[name].shape)

            def fn(params):
                ctx = model.encode(samples, [grids[s.id] for s in samples])
                loss, _, _ = model.loss(samples, ctx)
                return T.sum_all(loss)

            with T.diagnostics() as diag:
                fn(model.params)
            if diag["relu_margin"] >= 1e-5 and diag["ln_min_var"] >= 1e-4:
                break
        else:
            pytest.fail("no well-conditioned evaluation point")
        report = T.finite_diff_check(fn, model.params, eps=1e-6, tol=1e-6,
                                     coords_per_param=3,
                                     rng=np.random.default_rng(seed))
    assert report.passed, (report.worst_param, report.max_rel_err)


def test_micro_batches_pack_consecutive_samples_under_the_bound(monkeypatch):
    cfg = tiny_cfg(vocab_size=len(VOCAB))
    samples = varied_samples() * 3
    cost = [max(cfg.heads * len(s.article_ids) ** 2,
                (len(s.caption_ids) - 1) * cfg.vocab_size) for s in samples]
    monkeypatch.setattr(R, "MICRO_BATCH_ELEMENTS", 2 * max(cost))
    runs = R.micro_batches(samples, cfg)
    assert [s for run in runs for s in run] == samples
    start = 0
    for run in runs:
        assert len(run) * max(cost[start:start + len(run)]) <= \
            R.MICRO_BATCH_ELEMENTS
        if start + len(run) < len(samples):  # the next sample did not fit
            assert (len(run) + 1) * max(cost[start:start + len(run) + 1]) > \
                R.MICRO_BATCH_ELEMENTS
        start += len(run)
    monkeypatch.setattr(R, "MICRO_BATCH_ELEMENTS", 1)
    assert [len(run) for run in R.micro_batches(samples, cfg)] == [1] * 9


def test_train_empty_sets_rejected(tmp_path):
    samples, store = _training_setup(tmp_path)
    with pytest.raises(ValueError):
        R.train(_train_cfg(), [], samples, VOCAB, store,
                str(tmp_path / "m.bin"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=4)
CONFIG_FIELDS = [(R.TrainConfig, f.name) for f in
                 dataclasses.fields(R.TrainConfig)] + \
    [(ModelConfig, f.name) for f in dataclasses.fields(ModelConfig)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONFIG_FIELDS), JSON_VALUES)
def test_any_json_field_value_builds_a_config_or_raises_value_error(
        cls_field, value):
    cls, name = cls_field
    model = {"vocab_size": len(VOCAB), "hidden": 8, "heads": 2}
    try:
        if cls is ModelConfig:
            ModelConfig.from_dict(dict(model, **{name: value}))
        else:
            R.TrainConfig(**{"model": ModelConfig(**model), name: value})
    except ValueError:
        pass


def test_train_log_written(tmp_path):
    samples, store = _training_setup(tmp_path)
    log_path = tmp_path / "log.jsonl"
    with open(log_path, "w") as fh:
        R.train(_train_cfg(), samples, samples, VOCAB, store,
                str(tmp_path / "m.bin"), log_fh=fh)
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert len(lines) == 3
    assert set(lines[0]) == {"epoch", "step", "loss", "val_cider", "lr"}


# ---------------------------------------------------------------------------
# evaluation driver


def test_evaluate_reports_pre_and_post_tc(tmp_path):
    samples, store = _training_setup(tmp_path)
    model = make_model(seed=8)
    report = R.evaluate(model, samples, store, decode="greedy", max_len=6)
    for key in ("bleu4", "rouge_l", "cider", "entity_precision",
                "entity_recall", "pre_tc", "unresolved_tags"):
        assert key in report
    assert report["n"] == len(samples)


def test_evaluate_unknown_decode_mode(tmp_path):
    samples, store = _training_setup(tmp_path)
    model = make_model(seed=9)
    with pytest.raises(ValueError):
        R.decode_sample(model, samples[0], store.get(samples[0].feature_ref),
                        decode="sampling")
