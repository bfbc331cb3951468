"""Model configuration, parameter initialization, and the full captioner:
encoder + decoder wired together over processed samples."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, asdict, field

import numpy as np

from . import tensor as T
from . import decoder as D
from . import encoder as E


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int = 512
    heads: int = 8
    enc_layers: int = 2
    dec_layers: int = 2
    k_patches: int = 49
    feat_dim: int = 2048
    max_pos: int = 512
    dropout: float = 0.1
    ffn_mult: int = 4
    pointer: bool = True

    def __post_init__(self):
        for name in ("vocab_size", "hidden", "heads", "dec_layers",
                     "k_patches", "feat_dim", "max_pos", "ffn_mult"):
            require(self, name, 1)
        require(self, "enc_layers", 0)
        require(self, "dropout", 0, 1, numbers.Real)
        if not isinstance(self.pointer, bool):
            raise ValueError(f"pointer must be a bool, got {self.pointer!r}")
        if self.hidden % self.heads:
            raise ValueError("heads must divide hidden size")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(**d)
        except TypeError as e:  # not a dict, or an unknown or missing key
            raise ValueError(f"model config: {e}")


def require(cfg, name, low, high=float("inf"), kind=numbers.Integral):
    """Raise ValueError unless field `name` of cfg is of `kind` (a bool is
    not a number) and in [low, high)."""
    value = getattr(cfg, name)
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not low <= value < high:
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what} in [{low}, {high}), got "
                         f"{value!r}")


def _glorot(rng, fan_in, fan_out):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _attention(t, pfx, h):
    for name in ("wq", "wk", "wv", "wo"):
        t[f"{pfx}/{name}"] = ((h, h), "glorot")
    t[f"{pfx}/gate_wg"] = ((2 * h, h), "glorot")
    t[f"{pfx}/gate_bg"] = ((1, h), "zeros")
    t[f"{pfx}/gate_wa"] = ((2 * h, h), "glorot")
    t[f"{pfx}/gate_ba"] = ((1, h), "zeros")


def _ffn(t, pfx, h, mult):
    t[f"{pfx}/w1"] = ((h, mult * h), "glorot")
    t[f"{pfx}/b1"] = ((1, mult * h), "zeros")
    t[f"{pfx}/w2"] = ((mult * h, h), "glorot")
    t[f"{pfx}/b2"] = ((1, h), "zeros")


def _ln(t, pfx, h):
    t[f"{pfx}_g"] = ((1, h), "ones")
    t[f"{pfx}_b"] = ((1, h), "zeros")


def param_table(cfg):
    """Every trainable weight: path -> (shape, init), in the order
    init_params draws them. init is "normal" (std 0.02), "glorot", "zeros"
    or "ones"."""
    h, v = cfg.hidden, cfg.vocab_size
    t = {
        "emb/word": ((v, h), "normal"),
        "emb/pos": ((cfg.max_pos, h), "normal"),
        "emb/lstm/wx": ((h, 4 * h), "glorot"),
        "emb/lstm/wh": ((h, 4 * h), "glorot"),
        "emb/lstm/b": ((1, 4 * h), "zeros"),
        "img/proj/w": ((cfg.feat_dim, h), "glorot"),
        "img/proj/b": ((1, h), "zeros"),
    }
    for l in range(cfg.enc_layers):
        _attention(t, f"enc/l{l}/self", h)
        _attention(t, f"enc/l{l}/vs/att", h)
        t[f"enc/l{l}/vs/gate_w"] = ((h, h), "glorot")
        t[f"enc/l{l}/vs/gate_b"] = ((1, h), "zeros")
        _ffn(t, f"enc/l{l}/vs/ffn", h, cfg.ffn_mult)
        _ln(t, f"enc/l{l}/vs/ln", h)
    for l in range(cfg.dec_layers):
        for name in ("self", "img", "art", "ent"):
            _attention(t, f"dec/l{l}/{name}", h)
        _ln(t, f"dec/l{l}/ln1", h)
        _ffn(t, f"dec/l{l}/ffn", h, cfg.ffn_mult)
        _ln(t, f"dec/l{l}/ln2", h)
    t.update({
        "out/w": ((h, v), "glorot"),
        "out/b": ((1, v), "zeros"),
        "ptr/wp": ((3 * h, 1), "glorot"),
        "ptr/bp": ((1, 1), "zeros"),
        "ptr/wq": ((3 * h, 1), "glorot"),
        "ptr/bq": ((1, 1), "zeros"),
    })
    return t


def init_params(cfg, seed=0):
    """All trainable weights of param_table(cfg), addressable by path.
    Deterministic per seed."""
    rng = np.random.default_rng(seed)
    draw = {"normal": lambda shape: rng.normal(0.0, 0.02, size=shape),
            "glorot": lambda shape: _glorot(rng, *shape),
            "zeros": np.zeros, "ones": np.ones}
    # draw every array before converting any: freeing each float64 draft
    # right after its conversion left ≈ 4 MB more resident at V = 16k
    drawn = {name: draw[init](shape)
             for name, (shape, init) in param_table(cfg).items()}
    dtype = T.current_dtype()
    return {name: T.Tensor(v.astype(dtype)) for name, v in drawn.items()}


def check_params(cfg, shapes):
    """Raise ValueError naming the first parameter, in name order, that
    `shapes` (path -> shape) lacks, adds, or shapes otherwise than
    param_table(cfg)."""
    table = param_table(cfg)
    for name in sorted(table.keys() | shapes.keys()):
        if name not in shapes:
            raise ValueError(f"parameter {name!r} is missing")
        if name not in table:
            raise ValueError(f"parameter {name!r} is not part of the model")
        if tuple(shapes[name]) != table[name][0]:
            raise ValueError(f"parameter {name!r} has shape "
                             f"{tuple(shapes[name])}; the config needs "
                             f"{table[name][0]}")


@dataclass
class EncodedContexts:
    """The encoded image, article and entities of a batch of B samples (one
    for decoding), padded to the longest of each."""
    memory: list               # per decoder layer: the projected (keys,
                               # values) of the image, the article and the
                               # entities (None when no sample has any)
    masks: tuple               # key masks [B x 1 x Lk] of the image, the
                               # article and the entities; None: all real
    has_entities: np.ndarray | None  # [B x 1 x 1], 0 for a sample without
                               # mentions, whose entity context and switch
                               # are zeroed; None when every sample has some
    article_map: np.ndarray    # [B x L]: article position -> id to copy
    entity_map: np.ndarray     # [B x M]: mention -> vocabulary id to copy
    positions: T.Tensor        # position table for article, mentions, prefixes
    prefix_kv: dict = field(default_factory=dict)  # stepped prefix -> its
                               # per-layer self-attention (keys, values)


def build_copy_maps(sample, vocab):
    """Vocabulary ids emitted when copying article positions or mentions.

    An article token copies as its own id when in-vocab; inside an entity span
    it falls back to the entity's tag id, otherwise UNK. A mention copies as
    its tag id when any of its tokens is OOV, else its first token's id.
    """
    tag_of_pos = {}
    for m in sample.entities:
        for i in range(m.start, m.end):
            tag_of_pos[i] = vocab.tag_id(m.etype)
    article_map = []
    for i, tok in enumerate(sample.article_tokens):
        if tok in vocab:
            article_map.append(vocab.id_of(tok))
        elif i in tag_of_pos:
            article_map.append(tag_of_pos[i])
        else:
            article_map.append(vocab.unk_id)
    entity_map = []
    for m in sample.entities:
        span = sample.article_tokens[m.start:m.end]
        if all(t in vocab for t in span):
            entity_map.append(vocab.id_of(span[0]))
        else:
            entity_map.append(vocab.tag_id(m.etype))
    return np.asarray(article_map, dtype=np.int64), \
        np.asarray(entity_map, dtype=np.int64)


def _key_mask(valid):
    """Real keys [B x L] as a mask that broadcasts over query rows."""
    return None if valid is None else valid[:, None, :]


class CaptionModel:
    """Parameters plus the forward passes the runtime needs."""

    def __init__(self, cfg, vocab, params=None, seed=0):
        if cfg.vocab_size != len(vocab):
            raise ValueError("config vocab_size does not match vocabulary")
        self.cfg = cfg
        self.vocab = vocab
        self.params = params if params is not None else init_params(cfg, seed)

    def dropout_ctx(self, rng):
        if self.cfg.dropout <= 0.0:
            return None
        return E.Dropout(self.cfg.dropout, rng)

    def position_table(self, length=None):
        """The position table over `length` (default cfg.max_pos) positions;
        build it once where the parameters stay fixed."""
        return E.position_lstm(self.params, self.cfg,
                               length or self.cfg.max_pos)

    def encode(self, samples, grids, drop=None, positions=None):
        """Encode one sample and its feature grid [K x D], or a list of
        samples and their grids as one padded batch."""
        if not isinstance(samples, (list, tuple)):
            samples, grids = [samples], [grids]
        if positions is None:
            positions = self.position_table()
        params, cfg = self.params, self.cfg
        patches = [len(g) for g in grids]
        stacked = np.zeros((len(grids), max(patches), np.shape(grids[0])[-1]),
                           dtype=np.asarray(grids[0]).dtype)
        for b, g in enumerate(grids):
            stacked[b, :len(g)] = g
        img_mask = None if min(patches) == max(patches) else _key_mask(
            np.arange(max(patches)) < np.asarray(patches)[:, None])
        vproj = E.project_image(params, stacked)
        ids, words = E.pad([s.article_ids for s in samples])
        article = E.encode_text(params, cfg, ids, vproj, positions, drop=drop,
                                valid=words, img_mask=img_mask)
        ents = E.encode_entities(
            params, cfg,
            [[s.article_ids[m.start:m.end] for m in s.entities]
             for s in samples],
            vproj, positions, drop=drop, img_mask=img_mask)
        has_entities = ent_mask = None
        if ents is not None:
            ents, real = ents
            if real is not None:
                # a sample without mentions attends its first (empty) slot;
                # has_entities zeroes what that yields
                some = real.any(axis=1)
                real[~some, 0] = True
                if not some.all():
                    has_entities = some.astype(ents.data.dtype)[:, None, None]
            ent_mask = _key_mask(real)
        memory = [tuple(
            None if c is None else E.project_kv(
                params, f"dec/l{l}/{name}", c, cfg.heads)
            for name, c in (("img", vproj), ("art", article),
                            ("ent", ents)))
            for l in range(cfg.dec_layers)]
        maps = [build_copy_maps(s, self.vocab) for s in samples]
        return EncodedContexts(
            memory=memory,
            masks=(img_mask, _key_mask(words), ent_mask),
            has_entities=has_entities,
            article_map=E.pad([a for a, _ in maps])[0],
            entity_map=E.pad([e for _, e in maps])[0],
            positions=positions,
        )

    def loss(self, samples, contexts, drop=None):
        """Teacher-forced NLL: a scalar-sized sum for one sample, the [B]
        per-sample sums for a list; also the mean per target token."""
        captions = samples.caption_ids if not isinstance(
            samples, (list, tuple)) else [s.caption_ids for s in samples]
        return D.forward_teacher_forced(
            self.params, self.cfg, captions, contexts, drop=drop)

    def next_token_dist(self, prefixes, contexts):
        """Distribution over the next token after a BOS-rooted prefix: [V]
        for one flat prefix, [k x V] for a list of k prefixes. Each decoder
        call runs one row per prefix over its parent's self-attention keys
        and values, which stay on the contexts (prefix_kv). Ancestors never
        stepped are stepped first, shortest first, so a search, which
        steps children of stepped prefixes, makes one call per step."""
        single = np.ndim(prefixes[0]) == 0
        batch = [tuple(p) for p in ([prefixes] if single else prefixes)]
        held = contexts.prefix_kv
        missing = set()
        for p in batch:  # back to its nearest held ancestor, whose are held
            n = len(p) - 1
            while n > 0 and p[:n] not in held:
                missing.add(p[:n])
                n -= 1
        groups = [[p for p in missing if len(p) == n]
                  for n in sorted({len(p) for p in missing})]
        with T.no_grad():
            for group in groups + [batch]:
                out = D.decode_distributions(
                    self.params, self.cfg, [t for p in group for t in p],
                    contexts, lengths=[len(p) for p in group],
                    past=[held.get(p[:-1]) for p in group])
                held.update(zip(group, out.kv))
        return out.p_star.data[0] if single else out.p_star.data
