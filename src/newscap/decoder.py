"""Caption decoder: masked self-AoA, multi-modal AoA over image/article/entity
contexts, fusion, and the dual-source pointer-generator with NLL loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import aoa, embed_positions, ffn, pad, project_kv


@dataclass
class DecoderOutput:
    """What a decoder call computes. p_star is [N x V] for one sequence or
    stacked prefixes and [B x N x V] for a batch; the arrays keep the batch
    axis, [B x N x ...] (B is 1 for one sequence or stacked prefixes)."""
    p_star: T.Tensor          # final mixed distribution
    p_s: np.ndarray           # vocabulary distribution
    a_v: np.ndarray           # last layer's attention over article positions
    a_e: np.ndarray | None    # ... over entity mentions; None without any
    p_gen: np.ndarray | None  # [B x N x 1] article copy switch, and
    q_gen: np.ndarray | None  # entity copy switch; None without the pointer
    kv: list                  # per prefix, per layer: its self-attention
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


def _rows(input_ids, lengths):
    """The token ids, sequence ids and positions [B x N] of the rows a
    decoder call runs.

    Without lengths, each sample of the batch runs its one sequence whole;
    rows past a sequence's end are padding, after all of its real rows, so
    the causal rule alone keeps the real rows from attending them. With
    lengths, one sample runs the last token of each stacked prefix.
    """
    if lengths is None:
        ids, _ = pad(input_ids)
        pos = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        return ids, np.zeros(ids.shape, dtype=np.int64), pos
    last = np.cumsum(lengths) - 1
    return (np.asarray(input_ids)[last][None],
            np.arange(len(lengths))[None], (np.asarray(lengths) - 1)[None])


def decode_distributions(params, cfg, input_ids, contexts, drop=None,
                         lengths=None, past=None):
    """Run the decoder stack on BOS-rooted inputs; returns per-position
    final distributions (targets are not consumed here).

    input_ids is one sequence (BOS + tokens) for contexts of one sample, or
    one sequence per sample for contexts of a batch, padded here to the
    longest: p_star is then [B x N x V], and a padded row's distribution is
    not read by anything.

    With `lengths`, input_ids stacks BOS-rooted prefixes of those lengths,
    and the call runs one row per prefix, its last token: p_star holds the
    distribution after each prefix. past gives, per prefix, the per-layer
    self-attention (keys, values) of that prefix without its last token (an
    earlier call's `kv`); only a prefix of BOS alone has none.
    """
    one = np.ndim(input_ids[0]) == 0
    past = past or [None] * len(lengths or ())
    if any(p is None and n > 1 for p, n in zip(past, lengths or ())):
        raise ValueError("a prefix longer than BOS needs the keys and values "
                         "of its parent (past)")
    ids, seq, pos = _rows([input_ids] if one and lengths is None
                          else input_ids, lengths)
    x0 = embed_positions(params, ids, contexts.positions, pos)
    held = [p for p in past if p is not None]
    if held:  # the (sequence, position) of every key held in a past
        at = (np.repeat(np.arange(len(lengths)), np.subtract(lengths, 1))[None],
              np.concatenate([np.arange(n - 1) for n in lengths])[None])
    x = x0
    own = []
    for l in range(cfg.dec_layers):
        layer_past = (np.concatenate([p[l][0] for p in held], axis=-1),
                      np.concatenate([p[l][1] for p in held], axis=-2),
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
    p_s = T.softmax(T.matmul(x, params["out/w"]) + params["out/b"], axis=-1)
    p_star, p_gen, q_gen = p_s, None, None
    if cfg.pointer:
        p_star, p_gen, q_gen = pointer_mix(
            params, x0, v_ctx, a_ctx, e_ctx, a_v, a_e, p_s,
            contexts.article_map, contexts.entity_map, cfg.vocab_size,
            has_entities=contexts.has_entities)
    if one:
        p_star = T.reshape(p_star, p_star.shape[1:])
    return DecoderOutput(
        p_star=p_star, p_s=p_s.data, a_v=a_v.data,
        a_e=None if a_e is None else a_e.data,
        p_gen=None if p_gen is None else p_gen.data,
        q_gen=None if q_gen is None else q_gen.data,
        kv=[] if lengths is None else _prefix_kv(own, past))


def _prefix_kv(own, past):
    """Each prefix's per-layer (keys, values) over all its positions: its
    past's, then those of the one row this call ran for it."""
    out = []
    for i, p in enumerate(past):
        layers = []
        for l, (keys, values) in enumerate(own):
            k = keys.data[..., i:i + 1]
            v = values.data[..., i:i + 1, :]
            if p is not None:
                k = np.concatenate([p[l][0], k], axis=-1)
                v = np.concatenate([p[l][1], v], axis=-2)
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


def forward_teacher_forced(params, cfg, caption_ids, contexts, drop=None):
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
                               contexts, drop=drop)
    loss, per_token = nll_loss(out.p_star, targets[0] if one else targets)
    return loss, per_token, out
