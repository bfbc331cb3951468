"""The contract between the program and the benchmark's tracer
(perfbench/tracing.py, loaded read-only): every name it wraps still exists,
and a traced decode records the spans its per-layer metrics are built from.
A metric whose spans are missing reads null in a traced bench run."""

import dataclasses
import os
import sys

import numpy as np

from newscap import runtime as R
from newscap.corpus import EntityMention, ProcessedSample, Vocabulary
from newscap.model import CaptionModel, ModelConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import tracing  # noqa: E402

NTD = "model.CaptionModel.next_token_dist"
DD = "decoder.decode_distributions"
LSTM = "encoder.position_lstm"
ENCODE = "model.CaptionModel.encode"
VOCAB = Vocabulary(["alpha", "beta", "gamma", "delta"])
MAX_LEN = 6


def _model_and_input():
    cfg = ModelConfig(vocab_size=len(VOCAB), hidden=8, heads=2, enc_layers=1,
                      dec_layers=1, k_patches=3, feat_dim=5, max_pos=16,
                      dropout=0.0, ffn_mult=2)
    model = CaptionModel(cfg, VOCAB, seed=0)
    # EOS never wins, so every decode runs all MAX_LEN steps
    model.params["out/b"].data[0, VOCAB.eos_id] = -1e4
    toks = ["alpha", "beta", "Zorb", "gamma", "beta"]
    sample = ProcessedSample(
        id="s", source="t", article_tokens=toks,
        article_ids=[VOCAB.id_of(t) for t in toks],
        entities=[EntityMention("Zorb", "PERSON", 2, 3, 1)],
        caption_tokens=["alpha"], caption_entities=[],
        caption_ids=[VOCAB.bos_id, VOCAB.id_of("alpha"), VOCAB.eos_id],
        feature_ref="")
    grid = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
    return model, sample, grid


def _traced_decode(phase, **decode):
    model, sample, grid = _model_and_input()
    tracer = tracing.Tracer()
    tracer.install(phase)
    try:
        R.decode_sample(model, sample, grid, max_len=MAX_LEN, **decode)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    return tracer.spans


def _named(spans, name):
    return [s for s in spans if s[tracing.NAME] == name]


def test_every_traced_name_resolves():
    for target in tracing.TARGETS + list(tracing.COUNTERS.values()):
        assert tracing._resolve(target) is not None, target


def test_greedy_step_enters_next_token_dist_once_with_flat_prefix():
    spans = _traced_decode("greedy", decode="greedy")
    assert len(_named(spans, NTD)) == MAX_LEN
    prefix_lens = sorted(s[tracing.ATTR] for s in _named(spans, DD))
    assert prefix_lens == list(range(1, MAX_LEN + 1))


def test_beam_steps_go_through_next_token_dist():
    spans = _traced_decode("beam", decode="beam", beam=3)
    assert len(_named(spans, NTD)) >= MAX_LEN
    assert len(_named(spans, DD)) == len(_named(spans, NTD))


class _Store:
    def __init__(self, grid):
        self.grid = grid

    def get(self, ref):
        return self.grid


def test_evaluate_builds_one_position_table_outside_encode():
    model, sample, grid = _model_and_input()
    samples = [dataclasses.replace(sample, id=f"s{i}") for i in range(3)]
    tracer = tracing.Tracer()
    tracer.install("greedy")
    try:
        R.evaluate(model, samples, _Store(grid), max_len=MAX_LEN)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert len(_named(spans, ENCODE)) == 3
    lstm, = _named(spans, LSTM)
    parent = lstm[tracing.PARENT]
    while parent >= 0:
        assert spans[parent][tracing.NAME] != ENCODE
        parent = spans[parent][tracing.PARENT]
