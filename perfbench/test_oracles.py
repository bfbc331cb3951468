"""Hand-computed cases for the benchmark's oracles and span arithmetic.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles
import tracing

TAGS = {"PERSON_": "PERSON", "GPE_": "GPE", "ORG_": "ORG"}


def test_tag_clean_highest_frequency_wins():
    mentions = [("Ann Lee", "PERSON", 0), ("Bo Chen", "PERSON", 4),
                ("Bo Chen", "PERSON", 9), ("Oslo", "GPE", 6)]
    out, unresolved = oracles.tag_clean(["PERSON_", "visits", "GPE_"],
                                        mentions, TAGS)
    assert out == ["Bo", "Chen", "visits", "Oslo"]
    assert unresolved == 0


def test_tag_clean_tie_goes_to_earliest_start():
    mentions = [("Bo Chen", "PERSON", 7), ("Ann Lee", "PERSON", 2)]
    out, _ = oracles.tag_clean(["PERSON_"], mentions, TAGS)
    assert out == ["Ann", "Lee"]


def test_tag_clean_missing_category_stays_and_counts():
    mentions = [("Oslo", "GPE", 3)]
    out, unresolved = oracles.tag_clean(
        ["ORG_", "in", "GPE_", "ORG_", "said"], mentions, TAGS)
    assert out == ["ORG_", "in", "Oslo", "ORG_", "said"]
    assert unresolved == 2


def test_tag_clean_leaves_plain_tokens():
    out, unresolved = oracles.tag_clean(["PERSON", "_", "Oslo"], [], TAGS)
    assert out == ["PERSON", "_", "Oslo"] and unresolved == 0


def test_lcs_len():
    assert oracles.lcs_len("abcbdab", "bdcaba") == 4
    assert oracles.lcs_len(["a", "b"], ["c"]) == 0
    assert oracles.lcs_len([], ["a"]) == 0


def test_rouge_l_hand_values():
    # lcs 1 of 2 and 2: P = R = 1/2, F = 1/2 for any beta
    assert math.isclose(oracles.rouge_l([(["a", "b"], ["a", "c"])]), 0.5)
    # lcs 1, P = 1/3, R = 1: F = 2.44 * (1/3) / (1 + 1.44/3) = 0.5495495...
    f = oracles.rouge_l([(["a", "b", "c"], ["a"])])
    assert math.isclose(f, 2.44 / 3 / (1 + 1.44 / 3))
    assert math.isclose(f, 0.5495495495495496)
    # mean over pairs, a zero-overlap pair counts as 0
    assert math.isclose(
        oracles.rouge_l([(["x"], ["x"]), (["y"], ["z"])]), 0.5)


def test_normalized_logprob_hand_values():
    eos = 0
    table = {(): [0.1, 0.5, 0.4], (1,): [0.25, 0.25, 0.5],
             (1, 2): [0.8, 0.1, 0.1]}

    def dist_of(prefix):
        return table[tuple(prefix)]

    # log(0.5) + log(0.25) over length 1
    assert math.isclose(oracles.normalized_logprob([1], eos, dist_of),
                        math.log(0.125))
    # log(0.5) + log(0.5) + log(0.8) over 2 ** 0.7
    assert math.isclose(oracles.normalized_logprob([1, 2], eos, dist_of),
                        math.log(0.2) / 2 ** 0.7)
    # an empty caption scores log p(eos) over length 1
    assert math.isclose(oracles.normalized_logprob([], eos, dist_of),
                        math.log(0.1))


def test_normalized_logprob_clamps_zero():
    def dist_of(prefix):
        return [0.0, 1.0]
    assert math.isclose(oracles.normalized_logprob([], 0, dist_of),
                        math.log(oracles.LOG_FLOOR))


def test_distribution_ok():
    assert oracles.distribution_ok([0.25, 0.75])
    assert oracles.distribution_ok([0.5, 0.5 + 0.5 * oracles.DIST_TOL])
    assert not oracles.distribution_ok([0.5, 0.6])
    assert not oracles.distribution_ok([-0.1, 1.1])


def _span(name, phase, start, end, parent):
    return [name, phase, start, end, parent, None, 0, 0, 0, 0]


def test_trace_skips_nested_same_name_and_excluded_subtrees():
    spans = [
        _span("bench.train", "train", 0.0, 10.0, -1),
        _span("f", "train", 1.0, 5.0, 0),
        _span("f", "train", 2.0, 3.0, 1),        # nested f: not counted again
        _span("val", "train", 6.0, 9.0, 0),
        _span("f", "train", 7.0, 8.0, 3),        # f under val
        _span("f", "greedy", 0.0, 2.0, -1),
    ]
    t = tracing.Trace(spans, [])
    assert t.count("f", ("train",)) == 2
    assert math.isclose(t.ms("f", ("train",)), 5000.0)
    assert math.isclose(t.ms("f", ("train",), exclude_under="val"), 4000.0)
    assert math.isclose(t.child_ms("bench.train", ("train",), "val"), 3000.0)


def test_missing_target_reads_missing():
    t = tracing.Trace([], ["encoder.position_lstm"])
    n = {"rounds": 1, "train_samples": 1, "greedy_captions": 1,
         "beam_captions": 1, "overhead_train_pct": 0.0,
         "overhead_greedy_pct": 0.0, "overhead_beam_pct": 0.0}
    out = tracing.per_layer(t, n)
    value, unit, missing = out["encoder.position_lstm_ms_per_caption"]
    assert value is None and unit == "ms"
    assert missing == "encoder.position_lstm"
    assert out["trace.overhead_beam_pct"][0] == 0.0


def test_tracer_wraps_every_binding_and_restores():
    from newscap import decoder, encoder
    original = encoder.aoa
    tracer = tracing.Tracer(targets=["encoder.aoa", "gone.nowhere"])
    tracer.install("greedy")
    try:
        assert encoder.aoa is not original
        assert decoder.aoa is encoder.aoa
    finally:
        tracer.uninstall()
    assert encoder.aoa is original and decoder.aoa is original
    assert tracer.missing == {"gone.nowhere"}


def test_benchmark_json_names_what_the_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import workload
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        workload.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(workload.WORKLOADS)
    n = dict.fromkeys(["rounds", "train_samples", "greedy_captions",
                       "beam_captions", "overhead_train_pct",
                       "overhead_greedy_pct", "overhead_beam_pct"], 1)
    layer = tracing.per_layer(tracing.Trace([], []), n)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit, _) in layer.items()}
