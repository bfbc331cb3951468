"""Command-line entry point: synth, preprocess, stats, train, caption,
evaluate, gradcheck.

Config precedence is CLI flag > config file > built-in default; every run
writes a manifest (resolved config plus content hashes of its inputs) into
the output directory. Exit codes: 0 success, 1 internal error, 2 bad input
or configuration, 3 numeric-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import sys

import numpy as np

from . import corpus, runtime, synth
from . import tensor as T
from .corpus import CorpusError
from .features import FeatureError, FeatureStore
from .gradcheck import model_grad_check
from .metrics import format_report
from .model import ModelConfig
from .runtime import TrainConfig


class InputError(Exception):
    """User-facing validation failure (exit code 2)."""


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, command, config, inputs, **results):
    manifest = {
        "command": command,
        "config": config,
        "inputs": {p: _sha256_file(p) for p in inputs if os.path.exists(p)},
        **results,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_config_file(path):
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read config file {path}: {e}")
    if not isinstance(cfg, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return cfg


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector. Preprocess holds tens of objects
    per kept sample (its raw record, tokens and mentions) until it encodes
    it, none of them in a reference cycle; the collector would rescan them
    again and again (≈ 0.1 s of a 1,550-story preprocess). The only cycles
    it makes are the json encoders of its few output files, a fixed few
    dozen objects, collected once the collector runs again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args):
    out = _ensure_out(args)
    cfg_file = _load_config_file(args.config)
    cfg = {
        "n": args.n if args.n is not None else cfg_file.get("n", 64),
        "seed": args.seed if args.seed is not None else cfg_file.get("seed", 0),
        "k_patches": cfg_file.get("k_patches", 9),
        "feat_dim": cfg_file.get("feat_dim", 32),
        "plant_prob": cfg_file.get("plant_prob", 1.0),
    }
    raw_path, records = synth.generate_corpus(
        out, n=cfg["n"], seed=cfg["seed"], k_patches=cfg["k_patches"],
        feat_dim=cfg["feat_dim"], plant_prob=cfg["plant_prob"])
    _write_manifest(out, "synth", cfg, [raw_path])
    print(f"wrote {len(records)} samples to {raw_path}")
    return 0


@_collector_paused()
def cmd_preprocess(args):
    out = _ensure_out(args)
    cfg_file = _load_config_file(args.config)
    min_freq = args.min_freq if args.min_freq is not None \
        else cfg_file.get("min_freq", 2)
    if not os.path.exists(args.raw):
        raise InputError(f"raw corpus not found: {args.raw}")

    report = corpus.LoadReport()
    rejections = {"image_size": 0, "caption_length": 0, "encode_error": 0}
    kept = []
    for s in corpus.load_corpus(args.raw, report):
        reason = corpus.rejection_reason(s)
        if reason:
            rejections[reason] += 1
        else:
            kept.append(s)
    if not kept:
        raise InputError(
            f"no samples pass the filters: {json.dumps(rejections)} "
            f"(malformed lines: {report.malformed})")

    # each sample is tokenized and its mentions validated once, before the
    # vocabulary counts its tokens: a sample that cannot be encoded adds no
    # word to it. Each is encoded as it is written, so the processed set is
    # never held whole.
    processed_path = os.path.join(out, "processed.jsonl")
    vocab_path = os.path.join(out, "vocab.json")
    valid = []
    for s in kept:
        tokens = corpus.sample_tokens(s)
        try:
            valid.append((s, tokens, corpus.sample_mentions(s, tokens)))
        except CorpusError:
            rejections["encode_error"] += 1
    if not valid:
        raise InputError("no samples survive encoding")
    vocab = corpus.build_vocab(
        (stream for _, tokens, _ in valid for stream in tokens),
        min_freq=min_freq)
    n_kept = corpus.save_processed(
        (corpus.encode_sample(s, vocab, tokens, mentions)
         for s, tokens, mentions in valid), processed_path)
    vocab.save(vocab_path)
    with open(os.path.join(out, "preprocess_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"kept": n_kept, "rejections": rejections,
                   "malformed_lines": report.malformed,
                   "vocab_size": len(vocab), "min_freq": min_freq},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out, "preprocess", {"min_freq": min_freq}, [args.raw])
    print(f"kept {n_kept} samples, vocab size {len(vocab)}")
    return 0


def cmd_stats(args):
    out = _ensure_out(args)
    if not os.path.exists(args.processed):
        raise InputError(f"processed corpus not found: {args.processed}")
    samples = corpus.load_processed(args.processed)
    stats = corpus.dataset_stats(
        samples, overlap_sample=args.overlap_sample, seed=args.seed or 0)
    stats_path = os.path.join(out, "stats.json")
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out, "stats",
                    {"overlap_sample": args.overlap_sample,
                     "seed": args.seed or 0},
                    [args.processed])
    print(f"wrote {stats_path}")
    return 0


def _resolved_train_config(args, vocab):
    cfg_file = _load_config_file(args.config)
    train_d = {k: v for k, v in cfg_file.items() if k != "model"}
    train_d.pop("min_freq", None)
    if args.seed is not None:
        train_d["seed"] = args.seed
    try:
        model_d = dict(cfg_file.get("model", {}))
        if "dropout" in model_d:
            raise ValueError("set dropout with the top-level \"dropout\" "
                             "key, not model.dropout")
        model_d["vocab_size"] = len(vocab)
        cfg = TrainConfig(**train_d, model=ModelConfig.from_dict(model_d))
    except (TypeError, ValueError) as e:
        raise InputError(f"bad config: {e}")
    cfg.model.dropout = cfg.dropout
    return cfg


def _load_samples(path, vocab, limit=None):
    """A processed set, cut to `limit`; it must hold a sample, and every
    token id must lie in the vocabulary."""
    if not os.path.exists(path):
        raise InputError(f"input not found: {path}")
    samples = corpus.load_processed(path)[:limit or None]
    if not samples:
        raise InputError(f"no samples in {path}")
    for s in samples:
        ids = s.article_ids + s.caption_ids
        if ids and (min(ids) < 0 or max(ids) >= len(vocab)):
            raise InputError(f"sample {s.id} in {path} has a token id outside "
                             f"the vocabulary of {len(vocab)}")
    return samples


def _load_model_inputs(args):
    if args.limit is not None and args.limit < 1:
        raise InputError(f"--limit must be at least 1, got {args.limit}")
    if not os.path.exists(args.vocab):
        raise InputError(f"input not found: {args.vocab}")
    try:
        vocab = corpus.Vocabulary.load(args.vocab)
    except (ValueError, CorpusError) as e:
        raise InputError(f"cannot read vocabulary {args.vocab}: {e}")
    samples = _load_samples(args.processed, vocab, args.limit)
    store = FeatureStore(args.features)
    return vocab, samples, store


def _check_positions(max_pos, samples, decode_len, captions=False):
    """Reject up front a position table shorter than the longest article,
    the decode length or, with `captions`, the longest caption input."""
    need = max([decode_len] + [
        max(len(s.article_ids), len(s.caption_ids) - 1 if captions else 0)
        for s in samples])
    if need > max_pos:
        raise InputError(
            f"model.max_pos {max_pos} is below the {need} positions the "
            "longest article, caption or decode length needs")


def _check_decode(args, model, samples, store):
    if args.beam < 1:
        raise InputError(f"--beam must be at least 1, got {args.beam}")
    store.check([s.feature_ref for s in samples], model.cfg.feat_dim)
    # a beam scores a caption cut at the decode length with one more step,
    # for its EOS term
    wide = args.decode == "beam" and args.beam > 1
    _check_positions(model.cfg.max_pos, samples,
                     runtime.MAX_DECODE_LEN + wide)


def cmd_train(args):
    out = _ensure_out(args)
    vocab, train_samples, store = _load_model_inputs(args)
    val_samples = _load_samples(args.val, vocab)
    cfg = _resolved_train_config(args, vocab)
    _check_positions(cfg.model.max_pos, train_samples + val_samples,
                     cfg.max_decode_len, captions=True)
    store.check([s.feature_ref for s in train_samples + val_samples],
                cfg.model.feat_dim)
    log_path = os.path.join(out, "train_log.jsonl")
    ckpt_path = os.path.join(out, "checkpoint.bin")
    # training writes each new best to a staging file; only a run that
    # finishes turns it into checkpoint.bin
    staged = ckpt_path + ".staged"
    with runtime.removed_on_failure(staged):
        with open(log_path, "w", encoding="utf-8") as log_fh:
            epoch, val = runtime.train(cfg, train_samples, val_samples, vocab,
                                       store, staged, log_fh=log_fh)
        os.replace(staged, ckpt_path)
    # best_val_cider is null when no validation ran
    _write_manifest(out, "train", cfg.to_dict(),
                    [args.processed, args.val, args.vocab],
                    checkpoint={"epoch": epoch, "best_val_cider": val})
    if val is None:
        print(f"no validation ran; kept epoch {epoch}; wrote {ckpt_path}")
    else:
        print(f"best val CIDEr {val:.4f} at epoch {epoch}; wrote {ckpt_path}")
    return 0


def _load_model(args, vocab):
    if not os.path.exists(args.checkpoint):
        raise InputError(f"checkpoint not found: {args.checkpoint}")
    try:
        ckpt = runtime.load_checkpoint(args.checkpoint)
        return runtime.model_from_checkpoint(ckpt, vocab)
    except ValueError as e:
        raise InputError(str(e))


def cmd_caption(args):
    vocab, samples, store = _load_model_inputs(args)
    model = _load_model(args, vocab)
    samples = samples[:args.limit or 1]
    _check_decode(args, model, samples, store)
    with T.no_grad():
        positions = model.position_table()
    for s in samples:
        raw = runtime.decode_sample(
            model, s, store.get(s.feature_ref), decode=args.decode,
            beam=args.beam, positions=positions)
        cleaned, _ = runtime.tag_clean(raw, s.entities)
        print(f"{s.id}  pre-TC : {' '.join(raw)}")
        print(f"{s.id}  post-TC: {' '.join(cleaned)}")
    return 0


def cmd_evaluate(args):
    out = _ensure_out(args)
    vocab, samples, store = _load_model_inputs(args)
    model = _load_model(args, vocab)
    _check_decode(args, model, samples, store)
    report = runtime.evaluate(model, samples, store, decode=args.decode,
                              beam=args.beam)
    report_path = os.path.join(out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(out, "evaluate",
                    {"decode": args.decode, "beam": args.beam,
                     "limit": args.limit},
                    [args.processed, args.vocab, args.checkpoint])
    print(format_report(report))
    return 0


def cmd_gradcheck(args):
    result = model_grad_check(tol=args.tol)
    print(f"evaluation seed {result.seed} "
          f"(skipped ill-conditioned: {result.skipped_seeds})")
    for group, err in sorted(result.per_group.items()):
        status = "ok" if err < result.tol else "FAIL"
        print(f"  {group:20s} max rel err {err:.3e}  {status}")
    print(f"overall max rel err {result.max_rel_err:.3e} "
          f"(tolerance {result.tol:.1e})")
    return 0 if result.passed else 3


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="newscap",
        description="Entity-aware news image captioning, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default="", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("preprocess", help="filter, tokenize, build vocab")
    add_common(p)
    p.add_argument("--raw", required=True)
    p.add_argument("--min-freq", type=int, default=None)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("stats", help="dataset statistics")
    add_common(p)
    p.add_argument("--processed", required=True)
    p.add_argument("--overlap-sample", type=int, default=50000)
    p.set_defaults(fn=cmd_stats)

    def add_model_io(p, with_checkpoint=True):
        p.add_argument("--processed", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--features", required=True,
                       help="directory feature refs resolve against")
        p.add_argument("--limit", type=int, default=None)
        if with_checkpoint:
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--decode", choices=("greedy", "beam"),
                           default="greedy")
            p.add_argument("--beam", type=int, default=5)

    p = sub.add_parser("train", help="train a captioner")
    add_common(p)
    add_model_io(p, with_checkpoint=False)
    p.add_argument("--val", required=True, help="validation processed.jsonl")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("caption", help="caption samples with a checkpoint")
    add_common(p)
    add_model_io(p)
    p.set_defaults(fn=cmd_caption)

    p = sub.add_parser("evaluate", help="decode and score a test set")
    add_common(p)
    add_model_io(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, CorpusError, FeatureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (runtime.TrainingDiverged, FloatingPointError) as e:
        print(f"numeric failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
