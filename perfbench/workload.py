"""One benchmark workload: seeded inputs, set-up, timed rounds, checks.

A round runs three timed phases through the program's own CLI entry point,
in this process:

  train   newscap train     teacher-forced training, validation decode included
  greedy  newscap evaluate  --decode greedy, with Tag-Cleaning and scoring
  beam    newscap evaluate  --decode beam --beam 5

and then checks the outputs outside the timed phases. Each command and each
check is one operation; every round attempts the same 13.

The decode phases load a checkpoint of the seeded initial weights, written in
set-up by the program's checkpoint writer: with those weights no caption emits
EOS, so every caption runs the full max_len steps and every beam stays open,
the worst-case decode cost, independent of how a change rounds its arithmetic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from newscap import cli, corpus, runtime
from newscap import tensor as T
from newscap.features import FeatureStore
from newscap.model import CaptionModel, ModelConfig

import inputs
import oracles

BEAM = 5
END_TO_END = {"setup_s": "s", "train_samples_per_s": "1/s",
              "greedy_captions_per_s": "1/s", "beam5_captions_per_s": "1/s",
              "peak_rss_mb": "MB"}
PHASES = ("train", "greedy", "beam")
TAG_TYPES = {etype + "_": etype for etype in corpus.ENTITY_TYPES}

MODEL = {"hidden": 64, "heads": 4, "enc_layers": 2, "dec_layers": 2}
TRAIN = {"batch_size": 8, "base_lr": 1.5e-3, "warmup": 8, "dropout": 0.0,
         "patience": 1000}


@dataclasses.dataclass(frozen=True)
class Workload:
    grid: tuple          # image feature grid (K patches, D features)
    max_pos: int         # position table; must cover the longest article
    n_train: int         # training samples per train command
    epochs: int          # epochs per train command; validation runs once, last
    n_greedy: int        # captions per greedy evaluate
    n_beam: int          # captions per beam evaluate
    n_held: int          # samples in the causality check
    setup_reps: int      # set-ups per run; setup_s is their median
    make_inputs: object  # (out_dir, seed, n_with_features) -> raw.jsonl path


WORKLOADS = {
    "desk": Workload(grid=(9, 32), max_pos=128, n_train=32, epochs=2,
                     n_greedy=24, n_beam=6, n_held=2, setup_reps=15,
                     make_inputs=inputs.make_desk),
    "newsroom": Workload(grid=inputs.NEWSROOM_GRID, max_pos=300, n_train=8,
                         epochs=2, n_greedy=6, n_beam=3, n_held=1,
                         setup_reps=3, make_inputs=inputs.make_newsroom),
}


# ---------------------------------------------------------------------------
# Set-up


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class Bench:
    def __init__(self, name, seed, work_dir):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.dir = work_dir
        self.data = os.path.join(work_dir, "data")
        self.raw = self.wl.make_inputs(
            self.data, seed, max(self.wl.n_train, self.wl.n_greedy))
        self.ops = []                  # (name, ok, detail) per operation

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def model_config(self, vocab):
        k, d = self.wl.grid
        return ModelConfig(vocab_size=len(vocab), k_patches=k, feat_dim=d,
                           max_pos=self.wl.max_pos, dropout=0.0, **MODEL)

    def setup(self, rep):
        """Preprocess, build the vocabulary and the seeded model, write the
        initial checkpoint. Returns the seconds it took."""
        prep = self.path(f"prep{rep}")
        t0 = time.perf_counter()
        rc, err = _cli(["preprocess", "--raw", self.raw, "--out", prep,
                        "--min-freq", "2"])
        if rc != 0:
            raise SystemExit(f"error: preprocess exited {rc}: {err}")
        vocab = corpus.Vocabulary.load(os.path.join(prep, "vocab.json"))
        model = CaptionModel(self.model_config(vocab), vocab, seed=self.seed)
        runtime.save_checkpoint(runtime.checkpoint_from_model(model),
                                os.path.join(prep, "init.bin"))
        return time.perf_counter() - t0

    def finish_setup(self):
        """Slice the processed corpus into the phases' inputs (from the first
        set-up) and load what the checks need."""
        prep = self.path("prep0")
        with open(os.path.join(prep, "processed.jsonl"), encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        wl = self.wl
        if len(lines) < max(wl.n_train, wl.n_greedy):
            raise SystemExit(f"error: only {len(lines)} samples survived "
                             "preprocessing")
        self.vocab_path = os.path.join(prep, "vocab.json")
        self.init_path = os.path.join(prep, "init.bin")
        self.train_path = self.path("train.jsonl")
        self.val_path = self.path("val.jsonl")
        self.decode_path = self.path("decode.jsonl")
        _write_lines(self.train_path, lines[:wl.n_train])
        _write_lines(self.val_path, lines[:1])
        _write_lines(self.decode_path, lines[:wl.n_greedy])
        self.config_path = self.path("train_config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            k, d = wl.grid
            json.dump(dict(TRAIN, max_epochs=wl.epochs, eval_every=wl.epochs,
                           model=dict(MODEL, k_patches=k, feat_dim=d,
                                      max_pos=wl.max_pos)), fh)

        self.vocab = corpus.Vocabulary.load(self.vocab_path)
        self.samples = corpus.load_processed(self.decode_path)
        self.store = FeatureStore(self.data)
        self.init_model = runtime.model_from_checkpoint(
            runtime.load_checkpoint(self.init_path), self.vocab)

    # -----------------------------------------------------------------------
    # Timed phases

    def argv(self, phase):
        io_args = ["--vocab", self.vocab_path, "--features", self.data]
        if phase == "train":
            return ["train", "--processed", self.train_path, "--val",
                    self.val_path, "--config", self.config_path, "--seed",
                    str(self.seed), "--out", self.path("train")] + io_args
        decode = ["--decode", "greedy"] if phase == "greedy" else \
            ["--decode", "beam", "--beam", str(BEAM), "--limit",
             str(self.wl.n_beam)]
        return ["evaluate", "--processed", self.decode_path, "--checkpoint",
                self.init_path, "--out", self.path(phase)] + decode + io_args

    def items(self, phase):
        wl = self.wl
        return {"train": wl.n_train * wl.epochs, "greedy": wl.n_greedy,
                "beam": wl.n_beam}[phase]

    def round(self, tracer=None):
        """One round: the three timed phases, each followed by its checks.
        Returns phase -> seconds."""
        seconds = {}
        captions = {}
        for phase in PHASES:
            argv = self.argv(phase)
            gc.collect()  # start each phase without the last one's garbage
            with _captured_captions() as caps:
                if tracer is not None:
                    tracer.install(phase)
                t0 = time.perf_counter()
                rc, err = _cli(argv)
                seconds[phase] = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            captions[phase] = caps
            ok = rc == 0
            self.record(f"{phase} command", ok, f"exit {rc}: {err.strip()}")
            getattr(self, f"check_{phase}")(ok, captions)
        return seconds

    # -----------------------------------------------------------------------
    # Checks (outside the timed phases)

    def record(self, name, ok, detail=""):
        self.ops.append((name, bool(ok), detail))
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def check(self, name, ran, fn):
        """Run one check; a check whose command failed fails too."""
        if not ran:
            self.record(name, False, "its command failed")
            return
        try:
            ok, detail = fn()
        except Exception:  # a check that crashes is a failed check
            ok, detail = False, traceback.format_exc()
        self.record(name, ok, detail)

    def check_train(self, ran, _captions):
        out = self.path("train")
        self.check("train loss finite and falling", ran,
                   lambda: _losses_ok(os.path.join(out, "train_log.jsonl")))
        ckpt = os.path.join(out, "checkpoint.bin")
        self.check("teacher-forced NLL equals prefix NLL", ran,
                   lambda: self._causality(ckpt))
        self.check("checkpoint load/save round trip", ran,
                   lambda: _round_trip(ckpt, self.path("roundtrip.bin")))

    def check_greedy(self, ran, captions):
        caps = captions["greedy"]
        samples = self.samples[:self.wl.n_greedy]
        self.check("greedy distributions valid", ran,
                   lambda: self._distributions(samples[0], caps))
        self._report_checks("greedy", ran, samples, caps)

    def check_beam(self, ran, captions):
        caps = captions["beam"]
        samples = self.samples[:self.wl.n_beam]
        self.check("beam distributions valid", ran,
                   lambda: self._distributions(samples[0], caps))
        self.check("beam score >= greedy score", ran,
                   lambda: self._beam_vs_greedy(samples, caps,
                                                captions["greedy"]))
        self._report_checks("beam", ran, samples, caps)

    def _report_checks(self, phase, ran, samples, caps):
        report_path = self.path(phase, "report.json")

        def report():
            with open(report_path, encoding="utf-8") as fh:
                return json.load(fh)

        self.check(f"{phase} Tag-Cleaning and unresolved tags", ran,
                   lambda: _tag_clean_ok(samples, caps, report()))
        self.check(f"{phase} ROUGE-L", ran,
                   lambda: _rouge_ok(samples, caps, report()))

    def _dist_fn(self, model, sample, bad):
        with T.no_grad():
            ctx = model.encode(sample, self.store.get(sample.feature_ref))
        bos = self.vocab.bos_id

        def dist_of(ids):
            with T.no_grad():
                dist = np.asarray(model.next_token_dist([bos] + ids, ctx))
            if not oracles.distribution_ok(dist):
                bad.append(len(ids))
            return dist
        return dist_of

    def _causality(self, ckpt_path):
        model = runtime.model_from_checkpoint(
            runtime.load_checkpoint(ckpt_path), self.vocab)
        for s in self.samples[:self.wl.n_held]:
            with T.no_grad():
                ctx = model.encode(s, self.store.get(s.feature_ref))
                total, _, _ = model.loss(s, ctx)
            forced = float(np.asarray(total.data).reshape(-1)[0])
            dist_of = self._dist_fn(model, s, [])
            ids = s.caption_ids[1:]
            stepped = -sum(math.log(max(float(dist_of(ids[:t])[tok]),
                                        oracles.LOG_FLOOR))
                           for t, tok in enumerate(ids))
            if abs(forced - stepped) > oracles.CAUSAL_RTOL * max(abs(forced), 1):
                return False, f"{s.id}: forced {forced} vs prefixes {stepped}"
        return True, ""

    def _distributions(self, sample, caps):
        """Next-token distributions at the empty, half and full prefix of the
        decoded caption."""
        bad = []
        dist_of = self._dist_fn(self.init_model, sample, bad)
        ids = self.vocab.encode(caps[sample.id])
        for t in sorted({0, len(ids) // 2, len(ids)}):
            dist_of(ids[:t])
        return not bad, f"{sample.id}: invalid at prefix lengths {bad}"

    def _beam_vs_greedy(self, samples, beam_caps, greedy_caps):
        """Where beam and greedy disagree, beam must score at least as well
        (equal captions score equal by definition)."""
        eos = self.vocab.eos_id
        for s in samples:
            beam = self.vocab.encode(beam_caps[s.id])
            greedy = self.vocab.encode(greedy_caps[s.id])
            if beam == greedy:
                continue
            bad = []
            dist_of = self._dist_fn(self.init_model, s, bad)
            b = oracles.normalized_logprob(beam, eos, dist_of)
            g = oracles.normalized_logprob(greedy, eos, dist_of)
            if bad or b < g - 1e-9 * max(abs(g), 1.0):
                return False, (f"{s.id}: beam score {b} vs greedy {g}, "
                               f"invalid distributions at {bad}")
        return True, ""


# ---------------------------------------------------------------------------
# Helpers


def _cli(argv):
    """Run one `newscap` command in this process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@contextlib.contextmanager
def _captured_captions():
    """Record the tokens `runtime.decode_sample` returns, by sample id, so the
    checks see the captions the timed command produced."""
    inner = runtime.decode_sample
    caps = {}

    def recording(model, sample, *args, **kwargs):
        tokens = inner(model, sample, *args, **kwargs)
        caps[sample.id] = list(tokens)
        return tokens

    runtime.decode_sample = recording
    try:
        yield caps
    finally:
        runtime.decode_sample = inner


def _losses_ok(log_path):
    with open(log_path, encoding="utf-8") as fh:
        losses = [json.loads(line)["loss"] for line in fh if line.strip()]
    ok = (len(losses) >= 2 and all(math.isfinite(x) for x in losses)
          and losses[-1] < losses[0])
    return ok, f"per-token losses {losses}"


def _round_trip(path, copy_path):
    a = runtime.load_checkpoint(path)
    runtime.save_checkpoint(a, copy_path)
    b = runtime.load_checkpoint(copy_path)
    pairs = [(a.params, b.params)]
    if a.adam is not None:
        pairs += [(a.adam.m, b.adam.m), (a.adam.v, b.adam.v)]
    for x, y in pairs:
        if sorted(x) != sorted(y):
            return False, "parameter names differ"
        for k in x:
            if x[k].dtype != y[k].dtype or x[k].shape != y[k].shape \
                    or x[k].tobytes() != y[k].tobytes():
                return False, f"{k} differs after save/load"
    return True, ""


def _rule(tokens, entities):
    """The documented Tag-Cleaning rule applied to program mentions."""
    mentions = [(m.text, m.etype, m.start) for m in entities]
    return oracles.tag_clean(tokens, mentions, TAG_TYPES)


def _tag_clean_ok(samples, caps, report):
    """The program's Tag-Cleaning against the rule on each decoded caption
    with one of every category tag appended (decoded captions alone rarely
    hold a tag), over the sample's mentions and over one mention per distinct
    entity, where every same-category pair ties and the earliest start must
    win. Then the report's unresolved count on the captions as decoded."""
    for s in samples:
        probe = caps[s.id] + list(TAG_TYPES)
        first = {}
        for m in s.entities:
            first.setdefault(m.text, dataclasses.replace(m, frequency=1))
        for entities in (s.entities, list(first.values())):
            got = runtime.tag_clean(probe, entities)
            want = _rule(probe, entities)
            if tuple(got) != want:
                return False, f"{s.id}: program {got} vs rule {want}"
    unresolved = sum(_rule(caps[s.id], s.entities)[1] for s in samples)
    return (report["unresolved_tags"] == unresolved,
            f"report unresolved_tags {report['unresolved_tags']} vs rule "
            f"{unresolved}")


def _rouge_ok(samples, caps, report):
    post = [(_rule(caps[s.id], s.entities)[0] or [corpus.UNK],
             s.caption_tokens) for s in samples]
    pre = [(caps[s.id] or [corpus.UNK], s.caption_tokens) for s in samples]
    want = (oracles.rouge_l(post), oracles.rouge_l(pre))
    got = (report["rouge_l"], report["pre_tc"]["rouge_l"])
    ok = all(abs(x - y) <= 1e-9 for x, y in zip(want, got))
    return ok, f"report ROUGE-L (post, pre) {got} vs LCS {want}"


# ---------------------------------------------------------------------------
# Driver


def _timed(rounds):
    """The first round warms caches and the allocator; it is left out when
    there are others."""
    return rounds[1:] or rounds


def _rate(bench, rounds, phase):
    """Items per second over the given rounds: total work over total time.
    The machine's speed drifts over seconds, so the whole measured time
    estimates it better than the median of a few rounds would."""
    return bench.items(phase) * len(rounds) / sum(r[phase] for r in rounds)


def run(workload, seed, seconds, trace, work_dir, out_dir):
    """Run one workload. Returns the result (correct, attempted, failed,
    metrics) and the raw figures behind it (set-up and per-round seconds,
    every operation with its outcome)."""
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()

    bench = Bench(workload, seed, work_dir)
    setup_times = []
    for rep in range(bench.wl.setup_reps):
        if tracer is not None:
            tracer.install("setup")
        setup_times.append(bench.setup(rep))
        if tracer is not None:
            tracer.uninstall()
    bench.finish_setup()

    # A traced run warms up with one untraced round, then alternates an
    # untraced and a traced round; it always traces at least one.
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain.append(bench.round())
        if tracer is not None and len(plain) > 1:
            traced.append(bench.round(tracer))
        took = time.perf_counter() - r0
        if time.perf_counter() - start + took > seconds and \
                (tracer is None or traced):
            break

    if tracer is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_times),
            "train_samples_per_s": _rate(bench, _timed(plain), "train"),
            "greedy_captions_per_s": _rate(bench, _timed(plain), "greedy"),
            "beam5_captions_per_s": _rate(bench, _timed(plain), "beam"),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        result_metrics = {k: {"value": v, "unit": END_TO_END[k]}
                          for k, v in values.items()}
    else:
        n = {"rounds": len(traced),
             "train_samples": bench.items("train") * len(traced),
             "greedy_captions": bench.items("greedy") * len(traced),
             "beam_captions": bench.items("beam") * len(traced)}
        for phase in PHASES:
            n[f"overhead_{phase}_pct"] = 100.0 * (
                _rate(bench, plain[1:], phase) / _rate(bench, traced, phase)
                - 1.0)
        spans = tracer.dump()
        with open(os.path.join(out_dir, f"trace-{workload}-seed{seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        layer = tracing.per_layer(
            tracing.Trace(spans["spans"], spans["missing"]), n)
        result_metrics = {}
        for k, (v, u, missing) in layer.items():
            result_metrics[k] = {"value": v, "unit": u}
            if missing:
                result_metrics[k]["missing"] = missing

    failed = sum(1 for _, ok, _ in bench.ops if not ok)
    result = {"correct": failed == 0, "attempted": len(bench.ops),
              "failed": failed, "metrics": result_metrics}
    detail = {"setup_s": setup_times, "rounds": plain, "traced_rounds": traced,
              "operations": bench.ops}
    return result, detail
