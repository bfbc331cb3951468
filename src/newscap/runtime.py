"""Training loop, checkpointing, greedy/beam decoding, tag cleaning, and the
evaluation driver."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from . import metrics
from .corpus import ENTITY_TYPES, UNK, extract_entities, tag_token
from .model import CaptionModel, ModelConfig, check_params, require

CKPT_MAGIC = b"NCKP"
CKPT_VERSION = 1
HEADER_KEYS = ("version", "dtype", "config", "vocab_hash", "step", "epoch",
               "seed", "rng_state", "adam", "train_config", "best_val_cider",
               "params", "checksum")
ADAM_KEYS = ("base_lr", "beta1", "beta2", "eps", "warmup", "step")
MAX_DECODE_LEN = 31
# Padded activations per training micro-batch: its sample count times the
# larger of heads x L^2 (encoder attention scores, L its longest article)
# and T x V (output distributions, T its longest caption input). About four
# samples of 84-token articles at 4 heads fit; a 300-token article or a
# 16k-word vocabulary fills it alone. At those shapes the forward tape is
# about 3.5 MB and 27 MB per sample.
MICRO_BATCH_ELEMENTS = 2 ** 17


@dataclass
class TrainConfig:
    batch_size: int = 64
    base_lr: float = 5e-4
    warmup: int = 4000
    dropout: float = 0.1
    patience: int = 20          # evaluations without val CIDEr improvement
    max_epochs: int = 100
    eval_every: int = 1         # epochs between validation decodes
    seed: int = 0
    max_decode_len: int = MAX_DECODE_LEN
    target_loss: float | None = None  # stop once per-token loss drops below
    model: ModelConfig = None

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("warmup", 1),
                            ("patience", 0), ("max_epochs", 0),
                            ("eval_every", 1), ("seed", 0),
                            ("max_decode_len", 1)):
            require(self, name, least)
        require(self, "base_lr", 0, kind=numbers.Real)
        require(self, "dropout", 0, 1, numbers.Real)
        if self.target_loss is not None:
            require(self, "target_loss", 0, kind=numbers.Real)
        if not isinstance(self.model, ModelConfig):
            raise ValueError("model must be a model config")

    def to_dict(self):
        return asdict(self)


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict               # name -> np.ndarray
    vocab_hash: str
    step: int = 0
    epoch: int = 0
    seed: int = 0
    rng_state: dict | None = None
    adam: T.AdamState | None = None
    train_config: dict | None = None
    best_val_cider: float | None = None


def vocab_hash(vocab):
    payload = json.dumps(
        {t: i for i, t in enumerate(vocab.decode(range(len(vocab))))},
        sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def checkpoint_from_model(model, **kw):
    return Checkpoint(
        config=model.cfg,
        params={k: p.data.copy() for k, p in model.params.items()},
        vocab_hash=vocab_hash(model.vocab),
        **kw,
    )


def model_from_checkpoint(ckpt, vocab):
    if ckpt.vocab_hash != vocab_hash(vocab):
        raise ValueError("checkpoint vocabulary hash does not match vocabulary")
    try:
        check_params(ckpt.config, {k: v.shape for k, v in ckpt.params.items()})
    except ValueError as e:
        raise ValueError(f"checkpoint does not fit its config: {e}") from None
    params = {k: T.Tensor(v.copy()) for k, v in ckpt.params.items()}
    return CaptionModel(ckpt.config, vocab, params=params)


def _blob_arrays(names, buckets, like):
    """The arrays of the blob, in file order: each bucket's array per name,
    zeros where a bucket lacks one."""
    return [np.ascontiguousarray(bucket[n]) if n in bucket
            else np.zeros_like(like[n]) for bucket in buckets for n in names]


def _bytes(arr):
    """The raw bytes of a C-contiguous array, as a view."""
    return arr.reshape(-1).view(np.uint8)


def save_checkpoint(ckpt, path):
    """Versioned container: magic, header JSON, concatenated raw blobs.
    Each array is hashed and then written as it is, with no copy of the
    blob. Written atomically (temp file + rename)."""
    names = sorted(ckpt.params)
    dtype = str(ckpt.params[names[0]].dtype) if names else "float32"
    buckets = [ckpt.params]
    adam = None
    if ckpt.adam is not None:
        adam = {k: getattr(ckpt.adam, k) for k in ADAM_KEYS}
        buckets += [ckpt.adam.m, ckpt.adam.v]
    digest = hashlib.sha256()
    for arr in _blob_arrays(names, buckets, ckpt.params):
        digest.update(_bytes(arr))
    header = {
        "version": CKPT_VERSION,
        "dtype": dtype,
        "config": ckpt.config.to_dict(),
        "vocab_hash": ckpt.vocab_hash,
        "step": ckpt.step,
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "rng_state": ckpt.rng_state,
        "adam": adam,
        "train_config": ckpt.train_config,
        "best_val_cider": ckpt.best_val_cider,
        "params": [{"name": n, "shape": list(ckpt.params[n].shape)}
                   for n in names],
        "checksum": digest.hexdigest(),
    }
    hdr = json.dumps(header, sort_keys=True).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(hdr)))
        fh.write(hdr)
        for arr in _blob_arrays(names, buckets, ckpt.params):
            fh.write(_bytes(arr))
    os.replace(tmp, path)


def _checked_header(raw, hdr_len):
    """The header JSON object, once its keys, dtype, adam block and params
    list have the shape save_checkpoint writes; ValueError names the first
    field that does not. The config is checked where it is read."""
    if len(raw) < hdr_len:
        raise ValueError(f"checkpoint header length {hdr_len} runs past the "
                         f"end of the file")
    header = json.loads(raw.decode())
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise ValueError(f"checkpoint header lacks {', '.join(missing)}")
    if header["dtype"] not in ("float32", "float64"):
        raise ValueError(f"checkpoint header has unknown dtype "
                         f"{header['dtype']!r}")
    adam = header["adam"]
    if adam is not None and (not isinstance(adam, dict)
                             or sorted(adam) != sorted(ADAM_KEYS)):
        raise ValueError(f"checkpoint header adam block must hold exactly "
                         f"{', '.join(ADAM_KEYS)}")
    entries = header["params"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in e["shape"])
            for e in entries):
        raise ValueError("checkpoint header params must list each array's "
                         "name and shape")
    return header


def load_checkpoint(path):
    """Read a checkpoint; each array is read into its own buffer and hashed
    as it comes, and the checksum is verified before anything returns."""
    with open(path, "rb") as fh:
        preamble = fh.read(12)
        if len(preamble) < 12 or preamble[:4] != CKPT_MAGIC:
            raise ValueError("not a checkpoint file")
        version, hdr_len = struct.unpack("<II", preamble[4:])
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = _checked_header(fh.read(hdr_len), hdr_len)
        dtype = np.dtype(header["dtype"])
        params = {}
        buckets = [params]
        adam = None
        if header["adam"] is not None:
            adam = T.AdamState(**header["adam"])
            buckets += [adam.m, adam.v]
        sizes = [math.prod(e["shape"]) * dtype.itemsize
                 for e in header["params"]]
        blob = os.fstat(fh.fileno()).st_size - fh.tell()
        if blob != sum(sizes) * len(buckets):
            raise ValueError(f"checkpoint checksum failure: the blob holds "
                             f"{blob} bytes, its header describes "
                             f"{sum(sizes) * len(buckets)}")
        digest = hashlib.sha256()
        for bucket in buckets:
            for entry in header["params"]:
                arr = np.empty(tuple(entry["shape"]), dtype=dtype)
                fh.readinto(_bytes(arr))
                digest.update(_bytes(arr))
                bucket[entry["name"]] = arr
    if digest.hexdigest() != header["checksum"]:
        raise ValueError("checkpoint checksum failure")
    return Checkpoint(
        config=ModelConfig.from_dict(header["config"]),
        params=params,
        vocab_hash=header["vocab_hash"],
        step=header["step"],
        epoch=header["epoch"],
        seed=header["seed"],
        rng_state=header["rng_state"],
        adam=adam,
        train_config=header["train_config"],
        best_val_cider=header["best_val_cider"],
    )


# ---------------------------------------------------------------------------
# Decoding


def _top_ids(dist, k):
    """The k most probable ids, best first; ties go to the lowest id. Ranks
    the probabilities themselves, since float32 log rounding could merge two
    distinct ones. Equals np.argsort(-dist, kind="stable")[:k] by k passes
    of argmax, which returns the lowest id among ties: a partition slows
    down on rows of many tied values, as an untrained model's mostly-zero
    mixed distributions are."""
    rest = np.array(dist)
    ids = []
    for _ in range(min(k, len(rest))):
        ids.append(int(rest.argmax()))
        rest[ids[-1]] = -np.inf
    return np.asarray(ids, dtype=np.int64)


def beam_search(step_fn, bos_id, eos_id, max_len, beam, alpha=0.7):
    """Length-normalized beam search over an abstract next-token distribution.

    step_fn(prefixes) -> [len(prefixes) x V] probabilities, one row per
    BOS-rooted prefix. Each hypothesis expands its `beam` most probable
    tokens (ties: lowest id); continuing hypotheses compete on raw
    log-probability; final selection uses logprob / len^alpha. EOS is not a
    candidate at the first step, so the caption is never empty. Beam 1 is
    greedy decoding. A wider beam also runs the beam-1 pass, in lockstep,
    and returns the greedy sequence when it scores strictly higher, both
    scored as log p(sequence + EOS) / len^alpha. Distributions are kept in a
    table keyed by prefix, so step_fn is called once per step, with the live
    prefixes of both passes that the table does not hold yet.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    table = {}

    def fill(prefixes):
        todo = list(dict.fromkeys(
            k for k in map(tuple, prefixes) if k not in table))
        if todo:
            rows = np.asarray(step_fn(todo))
            if not np.isfinite(rows).all():
                raise FloatingPointError(
                    "non-finite next-token distribution in beam search")
            table.update(zip(todo, rows))

    def logp(dist, ids):
        return np.log(np.maximum(dist[ids], 1e-12))

    def norm_score(seq, lp):
        return lp / (max(len(seq), 1) ** alpha)

    def search(widths):
        """One search per width, stepped together.
        -> per width: (sequence, summed log-prob, whether it includes EOS)"""
        beams = {w: [([bos_id], 0.0)] for w in widths}
        done = {w: [] for w in widths}
        for _ in range(max_len):
            live = [seq for w in widths for seq, _ in beams[w]]
            if not live:
                break
            fill(live)
            for w in widths:
                cands = []
                for seq, lp in beams[w]:
                    dist = table[tuple(seq)]
                    top = _top_ids(dist, w + (len(seq) == 1))
                    if len(seq) == 1:  # EOS first is the empty caption
                        top = top[top != eos_id][:w]
                    for tok, tok_lp in zip(top, logp(dist, top)):
                        cands.append((seq + [int(tok)], lp + float(tok_lp)))
                cands.sort(key=lambda c: -c[1])
                beams[w] = []
                for seq, lp in cands:
                    if seq[-1] == eos_id:
                        done[w].append((seq[1:-1], lp, True))
                    else:
                        beams[w].append((seq, lp))
                    if len(beams[w]) >= w:
                        break
        return [max(done[w] + [(seq[1:], lp, False) for seq, lp in beams[w]],
                    key=lambda d: norm_score(d[0], d[1])) for w in widths]

    if beam == 1:
        return search([1])[0][0]
    best, greedy = search([beam, 1])
    if greedy[0] == best[0]:
        return best[0]
    # a caption cut at max_len takes one more step for its EOS term
    fill([[bos_id] + seq for seq, _, ended in (greedy, best) if not ended])

    def eos_score(seq, lp, ended):
        if not ended:
            lp += float(logp(table[tuple([bos_id] + seq)], eos_id))
        return norm_score(seq, lp)

    return greedy[0] if eos_score(*greedy) > eos_score(*best) else best[0]


def beam_decode(model, contexts, beam=5, max_len=MAX_DECODE_LEN, alpha=0.7):
    """Beam search over the model; never returns a sequence scoring below the
    greedy one under the same normalized scoring function. Prefixes are
    embedded with the position table the contexts carry."""
    with T.no_grad():
        return beam_search(
            lambda prefixes: model.next_token_dist(prefixes, contexts),
            model.vocab.bos_id, model.vocab.eos_id, max_len, beam, alpha)


def greedy_decode(model, contexts, max_len=MAX_DECODE_LEN):
    """Argmax decoding (beam 1); ties break toward the lowest token id."""
    return beam_decode(model, contexts, beam=1, max_len=max_len)


# ---------------------------------------------------------------------------
# Tag cleaning

_TAG_TYPES = {tag_token(t): t for t in ENTITY_TYPES}


def tag_clean(tokens, entity_set):
    """Replace predicted entity-tag tokens by the same-category article entity
    with the highest frequency (ties: earliest article occurrence). Tags with
    no same-category entity stay in place and are counted.

    Returns (cleaned_tokens, n_unresolved).
    """
    out = []
    unresolved = 0
    for tok in tokens:
        etype = _TAG_TYPES.get(tok)
        if etype is None:
            out.append(tok)
            continue
        candidates = [m for m in entity_set if m.etype == etype]
        if not candidates:
            out.append(tok)
            unresolved += 1
            continue
        best = min(candidates, key=lambda m: (-m.frequency, m.start))
        out.extend(best.text.split())
    return out, unresolved


# ---------------------------------------------------------------------------
# Training


class TrainingDiverged(RuntimeError):
    pass


def _val_cider(model, samples, feature_store, max_len):
    """Greedy validation CIDEr; a named step so traces can tell validation
    apart from training."""
    return evaluate(model, samples, feature_store, max_len=max_len)["cider"]


def micro_batches(samples, cfg):
    """Consecutive runs of samples, each as long as MICRO_BATCH_ELEMENTS
    allows at its padded shapes, and at least one sample."""
    runs, run, widest = [], [], 0
    for s in samples:
        size = max(cfg.heads * len(s.article_ids) ** 2,
                   (len(s.caption_ids) - 1) * cfg.vocab_size)
        if run and (len(run) + 1) * max(widest, size) > MICRO_BATCH_ELEMENTS:
            runs.append(run)
            run, widest = [], 0
        run.append(s)
        widest = max(widest, size)
    return runs + [run] if run else runs


def train(cfg, train_samples, val_samples, vocab, feature_store,
          log_fh=None, log_cb=None):
    """Mini-batch teacher-forced training with Adam and warmup; keeps the
    checkpoint with the best validation CIDEr (greedy decode) and stops after
    `patience` non-improving evaluations. Each batch runs as micro-batches
    (micro_batches), each one padded forward and one backward."""
    if not train_samples or not val_samples:
        raise ValueError("train and validation sets must be nonempty")
    model = CaptionModel(cfg.model, vocab, seed=cfg.seed)
    adam = T.AdamState(base_lr=cfg.base_lr, warmup=cfg.warmup)
    rng = np.random.default_rng(cfg.seed)

    def snapshot(epoch, val):
        return checkpoint_from_model(
            model, step=step, epoch=epoch, seed=cfg.seed,
            rng_state=rng.bit_generator.state, adam=copy.deepcopy(adam),
            train_config=cfg.to_dict(), best_val_cider=val)

    best = None
    best_cider = -1.0
    bad_evals = 0
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_samples[i] for i in order[start:start + cfg.batch_size]]
            T.zero_grads(model.params)
            inv = 1.0 / len(batch)
            # the parameters stay fixed within a batch: one position table
            # for its longest sequence. Each micro-batch's tape reads it as
            # a leaf and runs its own backward, so one tape is alive at a
            # time; the table's summed gradient then goes back through the
            # LSTM once.
            table = model.position_table(max(
                max(len(s.article_ids), len(s.caption_ids) - 1) for s in batch))
            positions = T.Tensor(table.data)
            for micro in micro_batches(batch, model.cfg):
                drop = model.dropout_ctx(rng)
                ctx = model.encode(
                    micro, [feature_store.get(s.feature_ref) for s in micro],
                    drop=drop, positions=positions)
                loss, _, _ = model.loss(micro, ctx, drop=drop)
                finite = np.isfinite(loss.data)
                if not finite.all():
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, sample "
                        f"{micro[int(np.argmin(finite))].id}")
                epoch_loss += sum(map(float, loss.data))
                epoch_tokens += sum(len(s.caption_ids) - 1 for s in micro)
                T.backward(loss, np.full_like(loss.data, inv))
            T.backward(table, positions.grad)
            # the gradients themselves: zero_grads drops them before the
            # next batch, and adam_step does not write to them
            T.adam_step(model.params, {
                name: p.grad if p.grad is not None else np.zeros_like(p.data)
                for name, p in model.params.items()}, adam)
            step += 1
        per_token = epoch_loss / max(epoch_tokens, 1)

        val = None
        if epoch % cfg.eval_every == 0 or epoch == cfg.max_epochs:
            val = _val_cider(model, val_samples, feature_store,
                             cfg.max_decode_len)
            if val > best_cider:
                best_cider = val
                bad_evals = 0
                best = snapshot(epoch, val)
            else:
                bad_evals += 1

        record = {"epoch": epoch, "step": step, "loss": per_token,
                  "val_cider": val, "lr": T.effective_lr(adam)}
        if log_fh is not None:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
        if log_cb is not None:
            log_cb(record)
        if val is not None and bad_evals > cfg.patience:
            break
        if cfg.target_loss is not None and per_token < cfg.target_loss:
            # overfit use-case: the final (memorized) weights are the product
            best = snapshot(epoch, val)
            break
    return best if best is not None else snapshot(cfg.max_epochs, None)


# ---------------------------------------------------------------------------
# Evaluation driver


def decode_sample(model, sample, feat_grid, decode="greedy", beam=5,
                  max_len=MAX_DECODE_LEN, positions=None):
    """The one inference path: encode and search without a tape. `positions`
    is the model's position table; the full one is built when it is None."""
    if decode not in ("greedy", "beam"):
        raise ValueError(f"unknown decode mode {decode!r}")
    with T.no_grad():
        ctx = model.encode(sample, feat_grid, positions=positions)
        ids = beam_decode(model, ctx, beam=beam if decode == "beam" else 1,
                          max_len=max_len)
    return model.vocab.decode(ids)


def evaluate(model, samples, feature_store, decode="greedy", beam=5,
             max_len=MAX_DECODE_LEN):
    """Decode, tag-clean, and score; reports metrics both before and after
    tag cleaning to quantify the post-processing contribution."""
    pre_pairs = []
    post_pairs = []
    unresolved = 0
    with T.no_grad():
        positions = model.position_table()
    for s in samples:
        raw = decode_sample(model, s, feature_store.get(s.feature_ref),
                            decode=decode, beam=beam, max_len=max_len,
                            positions=positions)
        cleaned, n_un = tag_clean(raw, s.entities)
        unresolved += n_un
        ref_entities = [m.text for m in s.caption_entities] \
            if s.caption_entities else \
            [m.text for m in extract_entities(s.caption_tokens)]
        for pairs, cand in ((pre_pairs, raw), (post_pairs, cleaned)):
            pairs.append(metrics.EvalPair(
                candidate=cand if cand else [UNK],
                reference=s.caption_tokens,
                candidate_entities=[m.text for m in extract_entities(cand)],
                reference_entities=ref_entities,
            ))
    report = metrics.score_pairs(post_pairs)
    report["pre_tc"] = metrics.score_pairs(pre_pairs)
    report["decode_mode"] = decode
    report["unresolved_tags"] = unresolved
    return report
