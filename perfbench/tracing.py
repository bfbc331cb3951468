"""Span tracer for the benchmark's traced runs.

It wraps named functions of the `newscap` package in every module namespace
that bound them (so `decoder.aoa`, imported from `encoder`, is wrapped too) and
records one span per call: name, start, end, parent span and an optional
attribute taken from the arguments. Two counters run beside the spans: Tensor
objects created, and matmul FLOPs computed from operand shapes (2·k per output
element forward, twice that when the tape later runs the backward closure).
Spans stay in memory until the run writes them out.

A target that no longer exists is recorded as missing; every metric built on
it then reads missing instead of failing the run. Untraced runs never import
this module.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

PACKAGE = "newscap"

# name -> function of the call's arguments giving a span attribute
_PREFIX_LEN = {
    "decoder.decode_distributions":
        lambda a, kw: len(a[2]) if len(a) > 2 else len(kw["input_ids"]),
}

TARGETS = [
    "tensor.backward", "tensor.adam_step",
    "encoder.position_lstm", "encoder.mh_attention", "encoder.aoa",
    "encoder.visual_selective", "encoder.encode_text",
    "encoder.encode_entities", "encoder.project_image",
    "decoder.masked_self_aoa", "decoder.multimodal_aoa",
    "decoder.fuse_and_project", "decoder.pointer_mix",
    "decoder.decode_distributions", "decoder.forward_teacher_forced",
    "model.init_params", "model.build_copy_maps",
    "model.CaptionModel.encode", "model.CaptionModel.loss",
    "model.CaptionModel.next_token_dist",
    "runtime.train", "runtime._val_cider", "runtime.greedy_decode",
    "runtime.beam_search", "runtime.beam_decode", "runtime.tag_clean",
    "runtime.decode_sample", "runtime.evaluate", "runtime.save_checkpoint",
    "runtime.load_checkpoint", "runtime.checkpoint_from_model",
    "metrics.score_pairs",
    "corpus.build_vocab", "corpus.encode_sample", "corpus.load_processed",
    "corpus.save_processed",
    "features.load_features", "features.FeatureStore.get",
]

# counter -> the function whose calls it counts
COUNTERS = {"tensors": "tensor.Tensor.__init__", "flops": "tensor.matmul"}

# span fields
NAME, PHASE, START, END, PARENT, ATTR, TENS0, TENS1, FLOP0, FLOP1 = range(10)


def _resolve(target):
    """(owner, attribute, original) for 'module.func' or 'module.Class.meth',
    or None when the module, class or function is gone."""
    parts = target.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        return None
    return owner, parts[-1], original


def _bindings(owner, attr, original):
    """Every (namespace, name) in the package bound to `original`."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original and (mod, key) not in found:
                found.append((mod, key))
    return found


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.spans = []
        self.missing = set()
        self.tensors = 0
        self.flops = 0
        self._stack = []
        self._phase = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, attr):
        parent = self._stack[-1] if self._stack else -1
        span = [name, self._phase, time.perf_counter(), 0.0, parent, attr,
                self.tensors, 0, self.flops, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        span[TENS1] = self.tensors
        span[FLOP1] = self.flops
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        attr_of = _PREFIX_LEN.get(name)

        def traced(*args, **kwargs):
            span = self._open(name, attr_of(args, kwargs) if attr_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def _count_tensor(self, init):
        def counted(obj, *args, **kwargs):
            self.tensors += 1
            return init(obj, *args, **kwargs)
        return counted

    def _count_matmul(self, matmul):
        def counted(a, b):
            out = matmul(a, b)
            flops = 2 * out.data.size * a.data.shape[-1]
            self.flops += flops
            bw = getattr(out, "_bw", None)
            if bw is not None:
                def counted_bw():
                    self.flops += 2 * flops
                    bw()
                out._bw = counted_bw
            return out
        return counted

    # -- installation ------------------------------------------------------

    def _patch(self, target, make):
        found = _resolve(target)
        if found is None:
            self.missing.add(target)
            return
        owner, attr, original = found
        wrapper = make(original)
        for ns, key in _bindings(owner, attr, original):
            self._patches.append((ns, key, original))
            setattr(ns, key, wrapper)

    def install(self, phase):
        """Wrap every target and open the phase's root span."""
        self._patch(COUNTERS["tensors"], self._count_tensor)
        self._patch(COUNTERS["flops"], self._count_matmul)
        for target in self.targets:
            self._patch(target, lambda fn, t=target: self._span_wrapper(t, fn))
        self._phase = phase
        self._root = self._open("bench." + phase, None)

    def uninstall(self):
        self._close(self._root)
        self._phase = None
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches = []

    def dump(self):
        return {"missing": sorted(self.missing),
                "fields": ["name", "phase", "start", "end", "parent", "attr",
                           "tensors_start", "tensors_end", "flops_start",
                           "flops_end"],
                "spans": self.spans}


# ---------------------------------------------------------------------------
# Analysis


class Missing(Exception):
    pass


class Trace:
    """Queries over recorded spans. Sums skip a span nested inside another
    span of the same name, so recursion never counts twice."""

    def __init__(self, spans, missing):
        self.spans = spans
        self.missing = set(missing)
        self._by_name = {}
        for i, s in enumerate(spans):
            self._by_name.setdefault(s[NAME], []).append(i)

    def _ancestors(self, i):
        p = self.spans[i][PARENT]
        while p >= 0:
            yield p
            p = self.spans[p][PARENT]

    def _under_name(self, i, name):
        return any(self.spans[p][NAME] == name for p in self._ancestors(i))

    def select(self, name, phases, exclude_under=None):
        if name in self.missing:
            raise Missing(name)
        out = []
        for i in self._by_name.get(name, ()):
            if self.spans[i][PHASE] not in phases:
                continue
            if self._under_name(i, name):
                continue
            if exclude_under and self._under_name(i, exclude_under):
                continue
            out.append(i)
        return out

    def count(self, name, phases, exclude_under=None):
        return len(self.select(name, phases, exclude_under))

    def ms(self, name, phases, exclude_under=None):
        return 1e3 * sum(self.spans[i][END] - self.spans[i][START]
                         for i in self.select(name, phases, exclude_under))

    def durations_ms(self, name, phases, attr):
        return [1e3 * (self.spans[i][END] - self.spans[i][START])
                for i in self.select(name, phases)
                if self.spans[i][ATTR] == attr]

    def counter(self, name, phases, field):
        source = COUNTERS[field]
        if source in self.missing:
            raise Missing(source)
        lo, hi = (TENS0, TENS1) if field == "tensors" else (FLOP0, FLOP1)
        return sum(self.spans[i][hi] - self.spans[i][lo]
                   for i in self.select(name, phases))

    def child_ms(self, name, phases, child):
        """Time spent inside `child` spans directly below each `name` span."""
        parents = set(self.select(name, phases))
        if child in self.missing:
            raise Missing(child)
        spans = (self.spans[i] for i in self._by_name.get(child, ()))
        return 1e3 * sum(s[END] - s[START] for s in spans
                         if s[PARENT] in parents)


def per_layer(trace, n):
    """Per-layer metrics from a trace. `n` holds the bench's own counts over
    the traced rounds: train_samples, greedy_captions, beam_captions, rounds,
    and overhead_<phase>_pct for the traced/untraced comparison. Returns
    name -> (value or None, unit, missing-target or None)."""
    TRAIN, GREEDY, BEAM = ("train",), ("greedy",), ("beam",)
    DECODE = ("greedy", "beam")
    RUN = ("setup", "train", "greedy", "beam")
    ROUNDS = ("train", "greedy", "beam")
    VAL = "runtime._val_cider"
    ntd = "model.CaptionModel.next_token_dist"
    ts, gc, bc = n["train_samples"], n["greedy_captions"], n["beam_captions"]

    def train_counter(field):
        total = trace.counter("bench.train", TRAIN, field)
        val = trace.counter(VAL, TRAIN, field)
        return (total - val) / ts

    def per_step(name):
        return trace.ms(name, GREEDY) / trace.count(ntd, GREEDY)

    def mean_ms(name, phases):
        return trace.ms(name, phases) / trace.count(name, phases)

    def median_at(prefix_len):
        return statistics.median(trace.durations_ms(
            "decoder.decode_distributions", GREEDY, prefix_len))

    def hit_ratio():
        gets = trace.count("features.FeatureStore.get", ROUNDS)
        loads = trace.count("features.load_features", ROUNDS)
        return (gets - loads) / gets

    def beam_decode_self():
        total = trace.ms("runtime.beam_decode", BEAM)
        inner = trace.child_ms("runtime.beam_decode", BEAM, "runtime.beam_search")
        return (total - inner) / bc

    defs = {
        "tensor.tensors_per_train_sample":
            ("count", lambda: train_counter("tensors")),
        "tensor.tensors_per_greedy_step":
            ("count", lambda: trace.counter(ntd, GREEDY, "tensors")
             / trace.count(ntd, GREEDY)),
        "tensor.matmul_mflop_per_train_sample":
            ("MFLOP", lambda: train_counter("flops") / 1e6),
        "tensor.matmul_mflop_per_greedy_step":
            ("MFLOP", lambda: trace.counter(ntd, GREEDY, "flops")
             / trace.count(ntd, GREEDY) / 1e6),
        "tensor.backward_ms_per_train_sample":
            ("ms", lambda: trace.ms("tensor.backward", TRAIN) / ts),
        "tensor.adam_step_ms_per_train_sample":
            ("ms", lambda: trace.ms("tensor.adam_step", TRAIN) / ts),
        "encoder.position_lstm_calls_per_caption":
            ("count", lambda: trace.count("encoder.position_lstm", GREEDY) / gc),
        "encoder.position_lstm_ms_per_caption":
            ("ms", lambda: trace.ms("encoder.position_lstm", GREEDY) / gc),
        "encoder.position_lstm_ms_per_train_sample":
            ("ms", lambda: trace.ms("encoder.position_lstm", TRAIN, VAL) / ts),
        "encoder.mh_attention_ms_per_train_sample":
            ("ms", lambda: trace.ms("encoder.mh_attention", TRAIN, VAL) / ts),
        "encoder.visual_selective_ms_per_train_sample":
            ("ms", lambda: trace.ms("encoder.visual_selective", TRAIN, VAL) / ts),
        "model.encode_ms_per_caption":
            ("ms", lambda: trace.ms("model.CaptionModel.encode", GREEDY) / gc),
        "model.next_token_dist_calls_per_beam_caption":
            ("count", lambda: trace.count(ntd, BEAM) / bc),
        "model.next_token_dist_ms_per_call":
            ("ms", lambda: mean_ms(ntd, DECODE)),
        "decoder.step_ms_at_prefix_1": ("ms", lambda: median_at(1)),
        "decoder.step_ms_at_prefix_31": ("ms", lambda: median_at(31)),
        "decoder.masked_self_aoa_ms_per_step":
            ("ms", lambda: per_step("decoder.masked_self_aoa")),
        "decoder.multimodal_aoa_ms_per_step":
            ("ms", lambda: per_step("decoder.multimodal_aoa")),
        "decoder.fuse_and_project_ms_per_step":
            ("ms", lambda: per_step("decoder.fuse_and_project")),
        "decoder.pointer_mix_ms_per_step":
            ("ms", lambda: per_step("decoder.pointer_mix")),
        "decoder.pointer_mix_ms_per_train_sample":
            ("ms", lambda: trace.ms("decoder.pointer_mix", TRAIN, VAL) / ts),
        "runtime.beam_search_ms_per_caption":
            ("ms", lambda: trace.ms("runtime.beam_search", BEAM) / bc),
        "runtime.beam_decode_self_ms_per_caption": ("ms", beam_decode_self),
        "runtime.val_cider_ms_per_train_sample":
            ("ms", lambda: trace.ms(VAL, TRAIN) / ts),
        "runtime.tag_clean_ms_per_caption":
            ("ms", lambda: trace.ms("runtime.tag_clean", GREEDY) / gc),
        "runtime.save_checkpoint_ms":
            ("ms", lambda: mean_ms("runtime.save_checkpoint", RUN)),
        "runtime.load_checkpoint_ms":
            ("ms", lambda: mean_ms("runtime.load_checkpoint", RUN)),
        "metrics.score_pairs_ms_per_caption":
            ("ms", lambda: trace.ms("metrics.score_pairs", GREEDY) / gc),
        "corpus.build_vocab_ms":
            ("ms", lambda: mean_ms("corpus.build_vocab", ("setup",))),
        "corpus.encode_sample_ms_per_sample":
            ("ms", lambda: mean_ms("corpus.encode_sample", ("setup",))),
        "features.load_features_calls":
            ("count", lambda: trace.count("features.load_features", ROUNDS)
             / n["rounds"]),
        "features.store_hit_ratio": ("ratio", hit_ratio),
        "features.load_features_ms_per_call":
            ("ms", lambda: mean_ms("features.load_features", ROUNDS)),
        "trace.overhead_train_pct": ("%", lambda: n["overhead_train_pct"]),
        "trace.overhead_greedy_pct": ("%", lambda: n["overhead_greedy_pct"]),
        "trace.overhead_beam_pct": ("%", lambda: n["overhead_beam_pct"]),
    }
    out = {}
    for name, (unit, fn) in defs.items():
        try:
            out[name] = (float(fn()), unit, None)
        except Missing as e:
            out[name] = (None, unit, str(e))
        except (ZeroDivisionError, statistics.StatisticsError):
            out[name] = (None, unit, "no spans recorded")
    return out
