"""The benchmark's tracer (perfbench/tracing.py, loaded read-only) still sees
the decoder's blocks now that each runs as one fused tensor op: a traced
greedy decode records the attention and AoA spans inside each self and
multi-modal block, and one pointer span per step."""

import os
import sys

import numpy as np

from newscap import runtime as R
from newscap.corpus import EntityMention, ProcessedSample, Vocabulary
from newscap.model import CaptionModel, ModelConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import tracing  # noqa: E402

VOCAB = Vocabulary(["alpha", "beta", "gamma", "delta"])
STEPS = 5


def _traced_greedy_spans():
    cfg = ModelConfig(vocab_size=len(VOCAB), hidden=8, heads=2, enc_layers=1,
                      dec_layers=2, k_patches=3, feat_dim=5, max_pos=16,
                      dropout=0.0, ffn_mult=2)
    model = CaptionModel(cfg, VOCAB, seed=1)
    # EOS never wins, so the decode runs all STEPS steps
    model.params["out/b"].data[0, VOCAB.eos_id] = -1e4
    toks = ["alpha", "Zorb", "beta", "gamma"]
    sample = ProcessedSample(
        id="s", source="t", article_tokens=toks,
        article_ids=[VOCAB.id_of(t) for t in toks],
        entities=[EntityMention("Zorb", "PERSON", 1, 2, 1)],
        caption_tokens=["alpha"], caption_entities=[],
        caption_ids=[VOCAB.bos_id, VOCAB.id_of("alpha"), VOCAB.eos_id],
        feature_ref="")
    grid = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install("greedy")
    try:
        R.decode_sample(model, sample, grid, max_len=STEPS)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    return tracer.spans


def _children(spans, parent, name):
    return [i for i, s in enumerate(spans)
            if s[tracing.PARENT] == parent and s[tracing.NAME] == name]


def _named(spans, name):
    return [i for i, s in enumerate(spans) if s[tracing.NAME] == name]


def test_attention_spans_nest_in_the_decoder_blocks():
    spans = _traced_greedy_spans()
    blocks = {"decoder.masked_self_aoa": 1, "decoder.multimodal_aoa": 3}
    for block, per_call in blocks.items():
        calls = _named(spans, block)
        assert len(calls) == 2 * STEPS  # per layer, per step
        for i in calls:
            aoas = _children(spans, i, "encoder.aoa")
            assert len(aoas) == per_call
            for a in aoas:
                assert len(_children(spans, a, "encoder.mh_attention")) == 1


def test_one_pointer_span_per_step():
    spans = _traced_greedy_spans()
    steps = _named(spans, "decoder.decode_distributions")
    assert len(steps) == STEPS
    for i in steps:
        assert len(_children(spans, i, "decoder.pointer_mix")) == 1
    assert len(_named(spans, "decoder.pointer_mix")) == STEPS
