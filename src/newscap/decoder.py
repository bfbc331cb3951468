"""Caption decoder: masked self-AoA, multi-modal AoA over image/article/entity
contexts, fusion, and the dual-source pointer-generator with NLL loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import aoa, embed_positions, ffn, pad, project_kv


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
    p_star: T.Tensor       # [N x V] for one sequence or stacked prefixes,
                           # [B x N x V] for a batch
    steps: list            # per real row, StepOutput (detached numpy views)
    kv: list               # per prefix, per layer: its self-attention
                           # (keys, values) arrays over all its positions


def causal_mask(rows, keys):
    """The decoder's one attention rule: a row attends the keys of its own
    sequence up to its own position. rows and keys are each a (sequence
    ids, positions) pair of arrays, [N] or [B x N] each."""
    return (rows[0][..., :, None] == keys[0][..., None, :]) & \
        (keys[1][..., None, :] <= rows[1][..., :, None])


def masked_self_aoa(params, pfx, x, heads, rows, past=None, drop=None):
    """Self-AoA under causal_mask; rows is the (sequence, position) of each
    row of x. past, if given, is the (keys, values, (sequences, positions))
    of earlier rows, held from an earlier call, that these rows attend too.
    Returns the output and the projected (keys, values) of x's own rows."""
    own = project_kv(params, pfx, x, heads)
    kv, at = own, rows
    if past is not None:
        keys, values, held = past
        kv = (T.concat([T.Constant(keys), own[0]], axis=-1),
              T.concat([T.Constant(values), own[1]], axis=-2))
        at = tuple(np.concatenate(pair, axis=-1) for pair in zip(held, rows))
    out, _ = aoa(params, pfx, x, kv, heads, mask=causal_mask(rows, at),
                 drop=drop)
    return out, own


def multimodal_aoa(params, pfx, xa, img, art, ent, heads, drop=None,
                   masks=(None, None, None), has_entities=None):
    """Three AoA blocks sharing the query, over the projected (keys, values)
    of the image, the article and the entities (None without entities),
    each read under its key mask of masks; returns attended contexts plus
    the article and entity attention results (None without entities). The
    entity context of a sample whose has_entities is 0 is zero."""
    img_mask, art_mask, ent_mask = masks
    v_ctx, _ = aoa(params, pfx + "/img", xa, img, heads, mask=img_mask,
                   drop=drop)
    a_ctx, a_att = aoa(params, pfx + "/art", xa, art, heads, mask=art_mask,
                       drop=drop)
    if ent is not None:
        e_ctx, e_att = aoa(params, pfx + "/ent", xa, ent, heads,
                           mask=ent_mask, drop=drop)
        if has_entities is not None:
            e_ctx = e_ctx * T.Constant(has_entities)
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


def _scatter_into_vocab(att, ids, vocab_size):
    """Add attention [... x R x L] over copy positions into [... x R x V] at
    the vocabulary ids [... x L] of those positions: one id list per
    leading index (per sample), shared by its R rows."""
    lead = att.shape[:-1]
    index = tuple(np.arange(n).reshape((n,) + (1,) * (len(lead) - i))
                  for i, n in enumerate(lead))
    return T.scatter_add(att, index + (np.asarray(ids)[..., None, :],),
                         lead + (vocab_size,))


def pointer_mix(params, x0, v_ctx, a_ctx, e_ctx, a_v, a_e, p_s,
                article_map, entity_map, vocab_size, has_entities=None):
    """Mix the vocabulary distribution with the two copy distributions.

    The raw mixture weights (p_gen, q_gen, 1-p_gen-q_gen) can leave the
    simplex since the switches are independent sigmoids; the last weight is
    clamped at zero and the triple renormalized so the result is always a
    distribution. q_gen is 0 for a sample whose has_entities is 0.
    """
    dtype = p_s.data.dtype
    p_gen = T.sigmoid(T.matmul(T.concat([x0, a_ctx, v_ctx], axis=-1),
                               params["ptr/wp"]) + params["ptr/bp"])
    if a_e is not None:
        q_gen = T.sigmoid(T.matmul(T.concat([x0, e_ctx, v_ctx], axis=-1),
                                   params["ptr/wq"]) + params["ptr/bq"])
        if has_entities is not None:
            q_gen = q_gen * T.Constant(has_entities)
    else:
        q_gen = T.Constant(np.zeros(p_gen.data.shape, dtype=dtype))
    w_s = T.relu(1.0 - p_gen - q_gen)
    denom = p_gen + q_gen + w_s
    copy_v = _scatter_into_vocab(a_v, article_map, vocab_size)
    mixed = (p_gen / denom) * copy_v + (w_s / denom) * p_s
    if a_e is not None:
        copy_e = _scatter_into_vocab(a_e, entity_map, vocab_size)
        mixed = mixed + (q_gen / denom) * copy_e
    return mixed, p_gen, q_gen


def _rows(input_ids, lengths, past):
    """The token ids, sequence ids and positions [B x N] of the rows a
    decoder call runs, and the rows run per prefix.

    Without lengths, each sample of the batch runs its one sequence whole;
    rows past a sequence's end are padding, after all of its real rows, so
    the causal rule alone keeps the real rows from attending them. With
    lengths, one sample runs stacked prefixes; a prefix with a past runs its
    last token only.
    """
    if lengths is None:
        ids, _ = pad(input_ids)
        pos = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        return ids, np.zeros(ids.shape, dtype=np.int64), pos, None
    runs = [n if p is None else 1 for n, p in zip(lengths, past)]
    seq = np.repeat(np.arange(len(lengths)), runs)
    pos = np.concatenate([np.arange(n - r, n) for n, r in zip(lengths, runs)])
    first = np.cumsum(lengths) - lengths
    ids = np.asarray(input_ids)[first[seq] + pos]
    return ids[None], seq[None], pos[None], runs


def decode_distributions(params, cfg, input_ids, contexts, drop=None,
                         collect_steps=False, lengths=None, past=None):
    """Run the decoder stack on BOS-rooted inputs; returns per-position
    final distributions (targets are not consumed here).

    input_ids is one sequence (BOS + tokens) for contexts of one sample, or
    one sequence per sample for contexts of a batch, padded here to the
    longest: p_star is then [B x N x V], and a padded row's distribution is
    not read by anything.

    With `lengths`, input_ids stacks BOS-rooted prefixes of those lengths,
    each attending only within itself, and the output holds one row per
    prefix: the distribution after its last token. Only those rows go
    through the output head and the pointer mix.

    past gives, per prefix, the per-layer self-attention (keys, values) of
    that prefix without its last token (an earlier call's `kv`), or None. A
    prefix with a past runs its last token only; the others run whole.
    """
    one = np.ndim(input_ids[0]) == 0
    past = past or [None] * len(lengths or ())
    seqs = [input_ids] if one and lengths is None else input_ids
    ids, seq, pos, runs = _rows(seqs, lengths, past)
    x0 = embed_positions(params, ids, contexts.positions, pos)
    held = [i for i, p in enumerate(past) if p is not None]
    if held:  # the (sequence, position) of every key held in a past
        at = (np.repeat(held, [lengths[i] - 1 for i in held])[None],
              np.concatenate([np.arange(lengths[i] - 1) for i in held])[None])
    x = x0
    own = []
    for l in range(cfg.dec_layers):
        layer_past = (
            np.concatenate([past[i][l][0] for i in held], axis=-1),
            np.concatenate([past[i][l][1] for i in held], axis=-2),
            at) if held else None
        xa, kv = masked_self_aoa(params, f"dec/l{l}/self", x, cfg.heads,
                                 (seq, pos), layer_past, drop=drop)
        own.append(kv)
        v_ctx, a_ctx, e_ctx, a_att, e_att = multimodal_aoa(
            params, f"dec/l{l}", xa, *contexts.memory[l], cfg.heads,
            drop=drop, masks=contexts.masks,
            has_entities=contexts.has_entities)
        x = fuse_and_project(params, f"dec/l{l}", xa, v_ctx, a_ctx, e_ctx,
                             drop=drop)
    # the pointer reads the last layer's head-averaged copy attention only
    a_v = a_att.averaged_weights()
    a_e = None if e_att is None else e_att.averaged_weights()
    if runs is not None:
        last = np.s_[:, np.cumsum(runs) - 1]
        x, x0, v_ctx, a_ctx, e_ctx, a_v, a_e = (
            None if t is None else T.take(t, last)
            for t in (x, x0, v_ctx, a_ctx, e_ctx, a_v, a_e))
    p_s = T.softmax(T.matmul(x, params["out/w"]) + params["out/b"], axis=-1)
    if cfg.pointer:
        p_star, p_gen, q_gen = pointer_mix(
            params, x0, v_ctx, a_ctx, e_ctx, a_v, a_e, p_s,
            contexts.article_map, contexts.entity_map, cfg.vocab_size,
            has_entities=contexts.has_entities)
    else:
        p_star = p_s
        p_gen = q_gen = None
    steps = _steps(contexts, [len(q) for q in seqs] if runs is None
                   else [len(runs)], p_s, a_v, a_e, p_gen, q_gen,
                   p_star) if collect_steps else []
    if one:
        p_star = T.reshape(p_star, p_star.shape[1:])
    return DecoderOutput(p_star=p_star, steps=steps,
                         kv=[] if runs is None else _prefix_kv(own, past, runs))


def _steps(contexts, rows, p_s, a_v, a_e, p_gen, q_gen, p_star):
    """A StepOutput per real output row (the first rows[b] of sample b),
    with each sample's copy attention cut to its real article positions and
    mentions (a_e None for a sample without mentions)."""
    _, art_mask, ent_mask = contexts.masks
    has = contexts.has_entities
    steps = []
    for b, t in ((b, t) for b, n in enumerate(rows) for t in range(n)):
        n_art = a_v.shape[-1] if art_mask is None else int(art_mask[b].sum())
        n_ent = None if a_e is None or (has is not None and not has[b]) else \
            a_e.shape[-1] if ent_mask is None else int(ent_mask[b].sum())
        steps.append(StepOutput(
            p_s=p_s.data[b, t].copy(),
            a_v=a_v.data[b, t, :n_art].copy(),
            a_e=None if n_ent is None else a_e.data[b, t, :n_ent].copy(),
            p_gen=0.0 if p_gen is None else float(p_gen.data[b, t, 0]),
            q_gen=0.0 if q_gen is None else float(q_gen.data[b, t, 0]),
            p_star=p_star.data[b, t].copy(),
        ))
    return steps


def _prefix_kv(own, past, runs):
    """Each prefix's per-layer (keys, values) over all its positions: its
    past's, then those of the rows this call ran for it."""
    out = []
    for i, (end, n) in enumerate(zip(np.cumsum(runs), runs)):
        layers = []
        for l, (keys, values) in enumerate(own):
            k = keys.data[..., end - n:end]
            v = values.data[..., end - n:end, :]
            if past[i] is not None:
                k = np.concatenate([past[i][l][0], k], axis=-1)
                v = np.concatenate([past[i][l][1], v], axis=-2)
            layers.append((k, v))
        out.append(layers)
    return out


def nll_loss(p_star, target_ids):
    """Negative log-likelihood of the targets: its [B] per-sample sums, and
    the mean per target token. p_star is [B x N x V] with one target list
    per sample, each at most N long (later rows are padding); a [N x V]
    with one flat list of N targets is a batch of one."""
    one = p_star.data.ndim == 2
    targets = [target_ids] if one else target_ids
    counts = [len(t) for t in targets]
    n = p_star.shape[-2]
    if max(counts) > n or (one and counts[0] != n):
        raise ValueError("distribution/target length mismatch")
    sample = np.repeat(np.arange(len(targets)), counts)
    row = np.concatenate([np.arange(c) for c in counts])
    index = (row,) if one else (sample, row)
    picked = T.take(p_star, index + (np.concatenate(targets),))
    totals = T.scatter_add(-T.log_clamped(picked), sample, (len(targets),))
    return totals, float(totals.data.sum()) / sum(counts)


def forward_teacher_forced(params, cfg, caption_ids, contexts, drop=None,
                           collect_steps=False):
    """Teacher-forced decoder pass over a full caption (BOS ... EOS), or one
    per sample of a batch; returns nll_loss's per-sample sums and
    per-token mean, and the decoder output."""
    one = np.ndim(caption_ids[0]) == 0
    captions = [caption_ids] if one else caption_ids
    if any(len(c) < 2 for c in captions):
        raise ValueError("caption must contain BOS and at least one target")
    inputs = [list(c[:-1]) for c in captions]
    targets = [list(c[1:]) for c in captions]
    out = decode_distributions(params, cfg, inputs[0] if one else inputs,
                               contexts, drop=drop,
                               collect_steps=collect_steps)
    loss, per_token = nll_loss(out.p_star, targets[0] if one else targets)
    return loss, per_token, out
