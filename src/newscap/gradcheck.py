"""Model-level gradient checking: finite differences over every parameter
group, run in 64-bit on a small synthetic sample.

Finite differences are undefined at relu kinks and unreliable when a layer
norm's input variance is eps-dominated, so evaluation points are drawn from a
seed list and rejected unless they clear conditioning margins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import EntityMention, ProcessedSample, Vocabulary
from .model import CaptionModel, ModelConfig

PARAM_GROUPS = (
    "embeddings", "position_lstm", "image_projection", "encoder_self_aoa",
    "visual_selective", "masked_self_aoa", "multimodal_aoa", "fusion_ffn",
    "pointer_gates",
)


def group_of(name):
    if name.startswith("emb/lstm/"):
        return "position_lstm"
    if name.startswith("emb/"):
        return "embeddings"
    if name.startswith("img/"):
        return "image_projection"
    if name.startswith("enc/"):
        return "visual_selective" if "/vs/" in name else "encoder_self_aoa"
    if name.startswith("dec/"):
        if "/self/" in name:
            return "masked_self_aoa"
        if "/img/" in name or "/art/" in name or "/ent/" in name:
            return "multimodal_aoa"
        return "fusion_ffn"
    if name.startswith("ptr/"):
        return "pointer_gates"
    return "fusion_ffn"  # out/* projections


def default_check_sample(vocab):
    """A 5-token synthetic sample exercising article, entity, and copy paths."""
    return ProcessedSample(
        id="gradcheck",
        source="synthetic",
        article_tokens=["alpha", "beta", "Zorb", "gamma", "beta"],
        article_ids=[vocab.id_of(t) for t in
                     ["alpha", "beta", "Zorb", "gamma", "beta"]],
        entities=[EntityMention("Zorb", "PERSON", 2, 3, 1)],
        caption_tokens=["alpha", "Zorb", "beta"],
        caption_entities=[EntityMention("Zorb", "PERSON", 1, 2, 1)],
        caption_ids=[vocab.bos_id, vocab.id_of("alpha"),
                     vocab.tag_id("PERSON"), vocab.id_of("beta"),
                     vocab.eos_id],
        feature_ref="",
    )


def default_check_vocab():
    return Vocabulary(["alpha", "beta", "gamma", "delta"])


@dataclass
class ModelGradCheckResult:
    seed: int
    max_rel_err: float
    per_group: dict
    per_param: dict
    tol: float
    skipped_seeds: list

    @property
    def passed(self):
        return self.max_rel_err < self.tol


def model_grad_check(cfg=None, seeds=range(1, 21), eps=1e-4, tol=1e-6,
                     coords_per_param=4, emb_scale=0.5,
                     min_relu_margin=5e-4, min_ln_var=1e-3):
    """Check all model gradients against central differences in float64."""
    vocab = default_check_vocab()
    if cfg is None:
        cfg = ModelConfig(vocab_size=len(vocab), hidden=16, heads=2,
                          enc_layers=1, dec_layers=1, k_patches=3, feat_dim=5,
                          max_pos=32, dropout=0.0, ffn_mult=2)
    sample = default_check_sample(vocab)
    grid = np.random.default_rng(7).normal(size=(cfg.k_patches, cfg.feat_dim))
    skipped = []
    with T.precision("float64"):
        for seed in seeds:
            model = CaptionModel(cfg, vocab, seed=seed)
            emb_rng = np.random.default_rng(seed + 10_000)
            for name, p in model.params.items():
                if name.startswith("emb/word") or name.startswith("emb/pos"):
                    p.data = emb_rng.normal(0.0, emb_scale, p.data.shape)

            def fn(params):
                ctx = model.encode(sample, grid)
                loss, _, _ = model.loss(sample, ctx)
                return loss

            with T.diagnostics() as diag:
                fn(model.params)
            if diag["relu_margin"] < min_relu_margin or \
                    diag["ln_min_var"] < min_ln_var:
                skipped.append(seed)
                continue

            report = T.finite_diff_check(
                fn, model.params, eps=eps, tol=tol,
                coords_per_param=coords_per_param,
                rng=np.random.default_rng(seed))
            per_group = {}
            for name, err in report.per_param.items():
                g = group_of(name)
                per_group[g] = max(per_group.get(g, 0.0), err)
            return ModelGradCheckResult(
                seed=seed,
                max_rel_err=report.max_rel_err,
                per_group=per_group,
                per_param=report.per_param,
                tol=tol,
                skipped_seeds=skipped,
            )
    raise RuntimeError(
        f"no well-conditioned evaluation point among seeds {list(seeds)}")
