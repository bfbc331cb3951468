"""Text/entity encoder: position-LSTM embeddings, multi-head attention on
attention (AoA), and the visual selective gate that fuses image features into
every token embedding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class AttentionResult:
    out: T.Tensor                 # [Lq x H]
    weights: T.Tensor             # [heads x Lq x Lk]

    def averaged_weights(self):
        return T.reshape(T.avg_pool_rows(self.weights), self.weights.shape[1:])


@dataclass
class Dropout:
    """Threaded through forward passes; None means inference."""
    rate: float
    rng: np.random.Generator

    def __call__(self, x):
        return T.dropout(x, self.rate, True, self.rng)


def _drop(x, drop):
    return drop(x) if drop is not None else x


def _split_heads(x, w, heads, axes):
    """Project x by w and lay its heads out along the first axis."""
    n, h = x.shape
    if h % heads:
        raise ValueError("head count must divide hidden size")
    return T.transpose(T.reshape(T.matmul(x, w), (n, heads, h // heads)), axes)


def project_kv(params, pfx, x, heads):
    """The keys [heads x dh x L] and values [heads x L x dh] that attention
    `pfx` reads from the rows of x. Contexts that stay fixed while a caption
    is decoded are projected once and reused at every step."""
    return (_split_heads(x, params[pfx + "/wk"], heads, (1, 2, 0)),
            _split_heads(x, params[pfx + "/wv"], heads, (1, 0, 2)))


def mh_attention(params, pfx, q, kv, heads, mask=None):
    """Scaled dot-product attention with `heads` heads over the projected
    (keys, values) pair kv of project_kv.

    mask, if given, is a boolean [Lq x Lk] array; False entries are not
    attendable. A row with no attendable key is an error.
    """
    keys, values = kv
    h = q.shape[1]
    scale = 1.0 / math.sqrt(h // heads)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=1).all():
            raise ValueError("attention row with no attendable key")
        penalty = T.Constant(np.where(mask, 0.0, -1e9).astype(q.data.dtype))
    qh = _split_heads(q, params[pfx + "/wq"], heads, (1, 0, 2))
    scores = T.matmul(qh, keys) * scale
    if mask is not None:
        scores = scores + penalty
    w = T.softmax(scores, axis=-1)
    ctx = T.reshape(T.transpose(T.matmul(w, values), (1, 0, 2)),
                    (q.shape[0], h))
    out = T.matmul(ctx, params[pfx + "/wo"])
    return AttentionResult(out=out, weights=w)


def aoa(params, pfx, query_in, kv, heads, mask=None, drop=None):
    """Attention on attention: gate the attended vector with a sigmoid of the
    concatenated [attended ; query] features. kv is the projected (keys,
    values) pair of project_kv."""
    att = mh_attention(params, pfx, query_in, kv, heads, mask=mask)
    cat = T.concat([att.out, query_in], axis=1)
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

    pos gives the position of each id (counted from 0); by default ids is
    one sequence at positions 0..n-1.
    """
    n = len(ids)
    if n == 0:
        raise ValueError("cannot embed an empty token sequence")
    pos = np.arange(n) if pos is None else np.asarray(pos)
    span = int(pos.max()) + 1
    if span > positions.shape[0]:
        raise ValueError(f"sequence length {span} exceeds position table "
                         f"{positions.shape[0]}")
    return T.take(params["emb/word"], ids) + T.take(positions, pos)


def project_image(params, grid):
    """Per-patch affine map of raw image features [K x D] -> [K x H]."""
    feats = T.Constant(np.asarray(grid))
    if feats.shape[1] != params["img/proj/w"].shape[0]:
        raise ValueError("image feature dim does not match projection")
    return T.matmul(feats, params["img/proj/w"]) + params["img/proj/b"]


def visual_selective(params, pfx, t_tilde, vproj, heads, drop=None):
    """Gate every token embedding by a tanh of image-attended pooled text,
    then residual FFN + layer norm."""
    pooled = T.avg_pool_rows(t_tilde)
    att_out, _ = aoa(params, pfx + "/att", pooled,
                     project_kv(params, pfx + "/att", vproj, heads), heads,
                     drop=drop)
    gate = T.tanh(T.matmul(att_out, params[pfx + "/gate_w"]) + params[pfx + "/gate_b"])
    gated = gate * t_tilde
    return T.layer_norm(gated + ffn(params, pfx + "/ffn", gated, drop=drop),
                        params[pfx + "/ln_g"], params[pfx + "/ln_b"])


def encode_text(params, cfg, ids, vproj, positions, drop=None):
    """Full text encoder: embeddings, then per layer self-AoA + visual gate."""
    x = embed_positions(params, ids, positions)
    for l in range(cfg.enc_layers):
        pfx = f"enc/l{l}/self"
        x, _ = aoa(params, pfx, x, project_kv(params, pfx, x, cfg.heads),
                   cfg.heads, drop=drop)
        x = visual_selective(params, f"enc/l{l}/vs", x, vproj, cfg.heads, drop=drop)
    return x


def encode_entities(params, cfg, mention_token_ids, vproj, positions,
                    drop=None):
    """Encode entity mentions with the shared text encoder.

    mention_token_ids is a list of token-id lists, one per mention. The
    mentions are concatenated into one sequence; each mention embedding is the
    mean over its token positions. Returns None when there are no mentions.
    """
    groups = [ids for ids in mention_token_ids if ids]
    if not groups:
        return None
    sizes = [len(g) for g in groups]
    enc = encode_text(params, cfg, [t for g in groups for t in g], vproj,
                      positions, drop=drop)
    # one segment sum per mention, divided so that it rounds as a mean
    mention = np.repeat(np.arange(len(groups)), sizes)
    sums = T.scatter_add(enc, mention, (len(groups), enc.shape[1]))
    return sums / np.asarray(sizes, dtype=enc.data.dtype)[:, None]
