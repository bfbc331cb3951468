"""Caption decoder: masked self-AoA, multi-modal AoA over image/article/entity
contexts, fusion, and the dual-source pointer-generator with NLL loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import aoa, embed_positions, ffn, project_kv


@dataclass
class StepOutput:
    p_s: np.ndarray        # vocabulary distribution
    a_v: np.ndarray        # attention over article positions
    a_e: np.ndarray | None  # attention over entity mentions (None if no entities)
    p_gen: float
    q_gen: float
    p_star: np.ndarray     # final mixed distribution


@dataclass
class DecoderOutput:
    p_star: T.Tensor       # [N x V]; one row per prefix with `lengths`
    steps: list            # per-step StepOutput (detached numpy views)
    kv: list               # per prefix, per layer: its self-attention
                           # (keys, values) arrays over all its positions


def causal_mask(rows, keys):
    """The decoder's one attention rule: a row attends the keys of its own
    sequence up to its own position. rows and keys are each a (sequence
    ids, positions) pair of arrays."""
    return (rows[0][:, None] == keys[0][None, :]) & \
        (keys[1][None, :] <= rows[1][:, None])


def masked_self_aoa(params, pfx, x, heads, rows, past=None, drop=None):
    """Self-AoA under causal_mask; rows is the (sequence, position) of each
    row of x. past, if given, is the (keys, values, (sequences, positions))
    of earlier rows, held from an earlier call, that these rows attend too.
    Returns the output and the projected (keys, values) of x's own rows."""
    own = project_kv(params, pfx, x, heads)
    kv, at = own, rows
    if past is not None:
        keys, values, held = past
        kv = (T.concat([T.Tensor(keys), own[0]], axis=2),
              T.concat([T.Tensor(values), own[1]], axis=1))
        at = tuple(np.concatenate(pair) for pair in zip(held, rows))
    out, _ = aoa(params, pfx, x, kv, heads, mask=causal_mask(rows, at),
                 drop=drop)
    return out, own


def multimodal_aoa(params, pfx, xa, img, art, ent, heads, drop=None):
    """Three AoA blocks sharing the query, over the projected (keys, values)
    of the image, the article and the entities (None without entities);
    returns attended contexts plus the article and entity attention results
    (None without entities)."""
    v_ctx, _ = aoa(params, pfx + "/img", xa, img, heads, drop=drop)
    a_ctx, a_att = aoa(params, pfx + "/art", xa, art, heads, drop=drop)
    if ent is not None:
        e_ctx, e_att = aoa(params, pfx + "/ent", xa, ent, heads, drop=drop)
    else:
        e_ctx = T.Constant(np.zeros(xa.data.shape, dtype=xa.data.dtype))
        e_att = None
    return v_ctx, a_ctx, e_ctx, a_att, e_att


def fuse_and_project(params, pfx, xa, v_ctx, a_ctx, e_ctx, drop=None):
    """Residual fusion of the three contexts followed by FFN and layer norms."""
    combined = xa + (v_ctx + a_ctx + e_ctx)
    x1 = T.layer_norm(combined, params[pfx + "/ln1_g"], params[pfx + "/ln1_b"])
    return T.layer_norm(x1 + ffn(params, pfx + "/ffn", x1, drop=drop),
                        params[pfx + "/ln2_g"], params[pfx + "/ln2_b"])


def pointer_mix(params, x0, v_ctx, a_ctx, e_ctx, a_v, a_e, p_s,
                article_map, entity_map, vocab_size):
    """Mix the vocabulary distribution with the two copy distributions.

    The raw mixture weights (p_gen, q_gen, 1-p_gen-q_gen) can leave the
    simplex since the switches are independent sigmoids; the last weight is
    clamped at zero and the triple renormalized so the result is always a
    distribution.
    """
    dtype = p_s.data.dtype
    p_gen = T.sigmoid(T.matmul(T.concat([x0, a_ctx, v_ctx], axis=1),
                               params["ptr/wp"]) + params["ptr/bp"])
    if a_e is not None:
        q_gen = T.sigmoid(T.matmul(T.concat([x0, e_ctx, v_ctx], axis=1),
                                   params["ptr/wq"]) + params["ptr/bq"])
    else:
        q_gen = T.Constant(np.zeros(p_gen.data.shape, dtype=dtype))
    w_s = T.relu(1.0 - p_gen - q_gen)
    denom = p_gen + q_gen + w_s
    rows = a_v.shape[0]
    copy_v = T.scatter_add(a_v, np.s_[:, article_map], (rows, vocab_size))
    mixed = (p_gen / denom) * copy_v + (w_s / denom) * p_s
    if a_e is not None:
        copy_e = T.scatter_add(a_e, np.s_[:, entity_map], (rows, vocab_size))
        mixed = mixed + (q_gen / denom) * copy_e
    return mixed, p_gen, q_gen


def decode_distributions(params, cfg, input_ids, contexts, drop=None,
                         collect_steps=False, lengths=None, past=None):
    """Run the decoder stack on an input prefix; returns per-position final
    distributions. input_ids is BOS + tokens (targets are not consumed here).

    With `lengths`, input_ids stacks BOS-rooted prefixes of those lengths,
    each attending only within itself, and the output holds one row per
    prefix: the distribution after its last token. Only those rows go
    through the output head and the pointer mix.

    past gives, per prefix, the per-layer self-attention (keys, values) of
    that prefix without its last token (an earlier call's `kv`), or None. A
    prefix with a past runs its last token only; the others run whole.
    """
    last_only = lengths is not None
    lengths = lengths if last_only else [len(input_ids)]
    past = past or [None] * len(lengths)
    runs = [n if p is None else 1 for n, p in zip(lengths, past)]
    seq = np.repeat(np.arange(len(lengths)), runs)
    pos = np.concatenate([np.arange(n - r, n) for n, r in zip(lengths, runs)])
    first = np.cumsum(lengths) - lengths
    x0 = embed_positions(params, np.asarray(input_ids)[first[seq] + pos],
                         contexts.positions, pos)
    held = [i for i, p in enumerate(past) if p is not None]
    if held:  # the (sequence, position) of every key held in a past
        at = (np.repeat(held, [lengths[i] - 1 for i in held]),
              np.concatenate([np.arange(lengths[i] - 1) for i in held]))
    x = x0
    own = []
    for l in range(cfg.dec_layers):
        layer_past = (
            np.concatenate([past[i][l][0] for i in held], axis=2),
            np.concatenate([past[i][l][1] for i in held], axis=1),
            at) if held else None
        xa, kv = masked_self_aoa(params, f"dec/l{l}/self", x, cfg.heads,
                                 (seq, pos), layer_past, drop=drop)
        own.append(kv)
        v_ctx, a_ctx, e_ctx, a_att, e_att = multimodal_aoa(
            params, f"dec/l{l}", xa, *contexts.memory[l], cfg.heads,
            drop=drop)
        x = fuse_and_project(params, f"dec/l{l}", xa, v_ctx, a_ctx, e_ctx,
                             drop=drop)
    # the pointer reads the last layer's head-averaged copy attention only
    a_v = a_att.averaged_weights()
    a_e = None if e_att is None else e_att.averaged_weights()
    if last_only:
        last = np.cumsum(runs) - 1
        x, x0, v_ctx, a_ctx, e_ctx, a_v, a_e = (
            None if t is None else T.take(t, last)
            for t in (x, x0, v_ctx, a_ctx, e_ctx, a_v, a_e))
    p_s = T.softmax(T.matmul(x, params["out/w"]) + params["out/b"], axis=1)
    if cfg.pointer:
        p_star, p_gen, q_gen = pointer_mix(
            params, x0, v_ctx, a_ctx, e_ctx, a_v, a_e, p_s,
            contexts.article_map, contexts.entity_map, cfg.vocab_size)
    else:
        p_star = p_s
        p_gen = q_gen = None
    steps = []
    if collect_steps:
        for t in range(p_star.shape[0]):
            steps.append(StepOutput(
                p_s=p_s.data[t].copy(),
                a_v=a_v.data[t].copy(),
                a_e=None if a_e is None else a_e.data[t].copy(),
                p_gen=0.0 if p_gen is None else float(p_gen.data[t, 0]),
                q_gen=0.0 if q_gen is None else float(q_gen.data[t, 0]),
                p_star=p_star.data[t].copy(),
            ))
    return DecoderOutput(p_star=p_star, steps=steps,
                         kv=_prefix_kv(own, past, runs))


def _prefix_kv(own, past, runs):
    """Each prefix's per-layer (keys, values) over all its positions: its
    past's, then those of the rows this call ran for it."""
    out = []
    for i, (end, n) in enumerate(zip(np.cumsum(runs), runs)):
        layers = []
        for l, (keys, values) in enumerate(own):
            k, v = keys.data[:, :, end - n:end], values.data[:, end - n:end]
            if past[i] is not None:
                k = np.concatenate([past[i][l][0], k], axis=2)
                v = np.concatenate([past[i][l][1], v], axis=1)
            layers.append((k, v))
        out.append(layers)
    return out


def nll_loss(p_star, target_ids):
    """Sum of negative log-likelihood of the targets; also the per-token mean."""
    n = len(target_ids)
    if p_star.shape[0] != n:
        raise ValueError("distribution/target length mismatch")
    picked = T.take(p_star, (np.arange(n), target_ids))
    total = -T.sum_all(T.log_clamped(picked))
    return total, total.item() / n


def forward_teacher_forced(params, cfg, caption_ids, contexts, drop=None,
                           collect_steps=False):
    """Teacher-forced decoder pass over a full caption (BOS ... EOS)."""
    if len(caption_ids) < 2:
        raise ValueError("caption must contain BOS and at least one target")
    inputs = caption_ids[:-1]
    targets = caption_ids[1:]
    out = decode_distributions(params, cfg, inputs, contexts, drop=drop,
                               collect_steps=collect_steps)
    loss, per_token = nll_loss(out.p_star, targets)
    return loss, per_token, out
