"""Text/entity encoder: position-LSTM embeddings, multi-head attention on
attention (AoA), and the visual selective gate that fuses image features into
every token embedding."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class AttentionResult:
    out: T.Tensor                 # [... x Lq x H]
    weights: T.Tensor             # [... x heads x Lq x Lk]

    def averaged_weights(self):
        """The weights averaged over heads, [... x Lq x Lk]."""
        shape = self.weights.shape
        return T.reshape(T.avg_pool_rows(self.weights, axis=-3),
                         shape[:-3] + shape[-2:])


@dataclass
class Dropout:
    """Threaded through forward passes; None means inference."""
    rate: float
    rng: np.random.Generator

    def __call__(self, x):
        return T.dropout(x, self.rate, True, self.rng)


def _drop(x, drop):
    return drop(x) if drop is not None else x


def pad(seqs):
    """Integer sequences of unequal length as one zero-filled [B x L] array,
    L the longest, and which of its entries are real ([B x L] booleans), or
    None when none is padding."""
    n = max(len(q) for q in seqs)
    out = np.zeros((len(seqs), n), dtype=np.int64)
    valid = np.zeros(out.shape, dtype=bool)
    for b, q in enumerate(seqs):
        out[b, :len(q)] = q
        valid[b, :len(q)] = True
    return out, (None if valid.all() else valid)


@functools.lru_cache(maxsize=None)
def _after_lead(ndim, axes):
    """The permutation of ndim axes that keeps the leading ones in place
    and orders the last len(axes) by axes."""
    k = ndim - len(axes)
    return tuple(range(k)) + tuple(k + a for a in axes)


def _split_heads(x, w, heads, axes):
    """Project x [... x n x h] by w and lay its heads out along an axis
    before the rows: axes orders (rows, heads, h / heads) as np.transpose
    does, after the leading axes."""
    shape = x.shape
    h = shape[-1]
    if h % heads:
        raise ValueError("head count must divide hidden size")
    y = T.reshape(T.matmul(x, w), shape[:-1] + (heads, h // heads))
    return T.transpose(y, _after_lead(len(shape) + 1, axes))


def project_kv(params, pfx, x, heads):
    """The keys [... x heads x dh x L] and values [... x heads x L x dh]
    that attention `pfx` reads from the rows of x [... x L x H]. Contexts
    that stay fixed while a caption is decoded are projected once and
    reused at every step."""
    return (_split_heads(x, params[pfx + "/wk"], heads, (1, 2, 0)),
            _split_heads(x, params[pfx + "/wv"], heads, (1, 0, 2)))


def mh_attention(params, pfx, q, kv, heads, mask=None):
    """Scaled dot-product attention of the rows of q [... x Lq x H] with
    `heads` heads over the projected (keys, values) pair kv of project_kv;
    leading axes (a batch) broadcast.

    mask, if given, is a boolean array that broadcasts to [... x Lq x Lk];
    False entries are not attendable. A row with no attendable key is an
    error.
    """
    keys, values = kv
    h = q.shape[-1]
    scale = 1.0 / math.sqrt(h // heads)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise ValueError("attention row with no attendable key")
    qh = _split_heads(q, params[pfx + "/wq"], heads, (1, 0, 2))
    scores = T.matmul(qh, keys) * scale
    if mask is not None and not mask.all():
        # a mask that hides nothing adds nothing (a held decoding step); the
        # penalty broadcasts over the heads axis
        scores = scores + T.Constant(np.where(mask, 0.0, -1e9).astype(
            q.data.dtype)[..., None, :, :])
    w = T.softmax(scores, axis=-1)
    ctx = T.reshape(T.transpose(T.matmul(w, values),
                                _after_lead(q.data.ndim + 1, (1, 0, 2))),
                    q.shape)
    out = T.matmul(ctx, params[pfx + "/wo"])
    return AttentionResult(out=out, weights=w)


def aoa(params, pfx, query_in, kv, heads, mask=None, drop=None):
    """Attention on attention: gate the attended vector with a sigmoid of the
    concatenated [attended ; query] features. kv is the projected (keys,
    values) pair of project_kv."""
    att = mh_attention(params, pfx, query_in, kv, heads, mask=mask)
    cat = T.concat([att.out, query_in], axis=-1)
    gate = T.sigmoid(T.matmul(cat, params[pfx + "/gate_wg"]) + params[pfx + "/gate_bg"])
    info = T.matmul(cat, params[pfx + "/gate_wa"]) + params[pfx + "/gate_ba"]
    out = _drop(gate * info, drop)
    return out, att


def ffn(params, pfx, x, drop=None):
    """Two-layer position-wise feed-forward with ReLU."""
    h = T.relu(T.matmul(x, params[pfx + "/w1"]) + params[pfx + "/b1"])
    return _drop(T.matmul(h, params[pfx + "/w2"]) + params[pfx + "/b2"], drop)


def position_lstm(params, cfg, length):
    """The position table: an LSTM over the first `length` position
    embeddings, [length x H]. It depends only on the parameters."""
    if length > cfg.max_pos:
        raise ValueError(
            f"sequence length {length} exceeds position table {cfg.max_pos}")
    x = T.take(params["emb/pos"], np.s_[:length])
    return T.lstm(x, *(params["emb/lstm/" + k] for k in ("wx", "wh", "b")))


def embed_positions(params, ids, positions, pos=None):
    """Word embedding plus the position table's row for each position.

    pos gives the position of each id (counted from 0); by default each
    row of ids (a flat list is one row) is one sequence at positions
    0..n-1.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("cannot embed an empty token sequence")
    pos = np.arange(ids.shape[-1]) if pos is None else np.asarray(pos)
    span = int(pos.max()) + 1
    if span > positions.shape[0]:
        raise ValueError(f"sequence length {span} exceeds position table "
                         f"{positions.shape[0]}")
    return T.take(params["emb/word"], ids) + T.take(positions, pos)


def project_image(params, grid):
    """Per-patch affine map of raw image features [... x K x D] ->
    [... x K x H]."""
    feats = T.Constant(np.asarray(grid))
    if feats.shape[-1] != params["img/proj/w"].shape[0]:
        raise ValueError("image feature dim does not match projection")
    return T.matmul(feats, params["img/proj/w"]) + params["img/proj/b"]


def _row_mean(valid, x):
    """[... x 1 x L] weights that average the real rows of x [... x L x H]
    by one product: 1/n on the n real rows of a sequence, 0 on padding."""
    n = x.shape[-2]
    if valid is None:
        return np.full(x.shape[:-2] + (1, n), 1.0 / n, dtype=x.data.dtype)
    count = np.maximum(valid.sum(axis=-1, keepdims=True), 1)
    return (valid / count).astype(x.data.dtype)[..., None, :]


def visual_selective(params, pfx, t_tilde, vproj, heads, drop=None,
                     valid=None, img_mask=None):
    """Gate every token embedding by a tanh of image-attended pooled text,
    then residual FFN + layer norm. valid marks the real rows of each
    sequence of t_tilde (None: all are); the pooled text is their mean.
    img_mask marks the real patches of vproj, as a key mask."""
    pooled = T.matmul(T.Constant(_row_mean(valid, t_tilde)), t_tilde)
    att_out, _ = aoa(params, pfx + "/att", pooled,
                     project_kv(params, pfx + "/att", vproj, heads), heads,
                     mask=img_mask, drop=drop)
    gate = T.tanh(T.matmul(att_out, params[pfx + "/gate_w"]) + params[pfx + "/gate_b"])
    gated = gate * t_tilde
    return T.layer_norm(gated + ffn(params, pfx + "/ffn", gated, drop=drop),
                        params[pfx + "/ln_g"], params[pfx + "/ln_b"])


def encode_text(params, cfg, ids, vproj, positions, drop=None, valid=None,
                img_mask=None):
    """Full text encoder: embeddings, then per layer self-AoA + visual gate.

    ids is one sequence, or a padded [B x L] batch of them with valid
    marking the real tokens (None: all are), read with the image
    projections vproj [B x K x H]. Real tokens attend real tokens only;
    padding attends padding, so no row is left without a key.
    """
    x = embed_positions(params, ids, positions)
    mask = None if valid is None else \
        valid[..., :, None] == valid[..., None, :]
    for l in range(cfg.enc_layers):
        pfx = f"enc/l{l}/self"
        x, _ = aoa(params, pfx, x, project_kv(params, pfx, x, cfg.heads),
                   cfg.heads, mask=mask, drop=drop)
        x = visual_selective(params, f"enc/l{l}/vs", x, vproj, cfg.heads,
                             drop=drop, valid=valid, img_mask=img_mask)
    return x


def encode_entities(params, cfg, mentions, vproj, positions, drop=None,
                    img_mask=None):
    """Encode entity mentions with the shared text encoder.

    mentions holds, per sample of the batch read with vproj [B x K x H],
    that sample's mentions as token-id lists. Each sample's mentions are
    concatenated into one sequence; each mention embedding is the mean over
    its token positions. Returns the mentions [B x M x H], M the most any
    sample has, and which of them are real ([B x M] booleans, or None when
    all are); or None when no sample has a mention.
    """
    groups = [[ids for ids in sample if ids] for sample in mentions]
    if not any(groups):
        return None
    flat = [[t for g in gs for t in g] for gs in groups]
    ids, valid = pad(flat)
    enc = encode_text(params, cfg, ids, vproj, positions, drop=drop,
                      valid=valid, img_mask=img_mask)
    # one segment sum per mention over its sample's real tokens, divided so
    # that it rounds as a mean
    sizes, real = pad([[len(g) for g in gs] for gs in groups])
    sample = np.concatenate([np.full(len(f), b) for b, f in enumerate(flat)])
    token = np.concatenate([np.arange(len(f)) for f in flat])
    mention = np.concatenate([np.repeat(np.arange(len(gs)), sizes[b, :len(gs)])
                              for b, gs in enumerate(groups)])
    sums = T.scatter_add(T.take(enc, (sample, token)), (sample, mention),
                         sizes.shape + (enc.shape[-1],))
    return sums / np.maximum(sizes, 1).astype(enc.data.dtype)[..., None], real
