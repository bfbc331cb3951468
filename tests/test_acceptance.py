"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line. Criteria combine exact contracts (bit-identical causality,
checkpoint round-trips), independent oracles (metrics, stats counting), and
scaled-down behavioral checks (overfit, ablation ladder) with stated runtime
budgets.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import hashlib
import json
import math
import os
import time
from collections import Counter

import numpy as np

from newscap import cli, metrics as M, runtime
from newscap import tensor as T
from newscap.corpus import (EntityMention, ProcessedSample, Vocabulary,
                            build_vocab, encode_sample, load_corpus,
                            load_processed, sample_tokens)
from newscap.decoder import decode_distributions, forward_teacher_forced
from newscap.features import FeatureStore
from newscap.gradcheck import PARAM_GROUPS, model_grad_check
from newscap.model import CaptionModel, ModelConfig
from newscap.synth import generate_corpus

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed {tail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness


def test_acceptance_1_gradient_correctness():
    t0 = time.time()
    result = model_grad_check(eps=1e-4, tol=1e-6)
    elapsed = time.time() - t0
    missing = [g for g in PARAM_GROUPS if g not in result.per_group]
    ok = (result.passed and not missing and elapsed < 120.0)
    _report(1, "gradient correctness", ok,
            f"max rel err {result.max_rel_err:.2e} over "
            f"{len(result.per_group)} groups, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Distribution validity

_WORDS = [f"w{i}" for i in range(12)]


def _random_sample(rng, vocab, with_entity):
    art = [str(x) for x in rng.choice(_WORDS, size=int(rng.integers(4, 9)))]
    entities = []
    if with_entity:
        pos = int(rng.integers(0, len(art)))
        art = art[:pos] + ["Zorb", "Qux"] + art[pos:]
        entities = [EntityMention("Zorb Qux", "PERSON", pos, pos + 2, 1)]
    cap = [str(x) for x in rng.choice(_WORDS, size=int(rng.integers(3, 6)))]
    cap_ids = [vocab.bos_id] + vocab.encode(cap)
    if with_entity:
        cap_ids.insert(1 + int(rng.integers(0, len(cap))),
                       vocab.tag_id("PERSON"))
    cap_ids.append(vocab.eos_id)
    return ProcessedSample(
        id="draw", source="synthetic",
        article_tokens=art, article_ids=vocab.encode(art),
        entities=entities,
        caption_tokens=cap, caption_entities=[],
        caption_ids=cap_ids, feature_ref="")


def _check_simplex(vec, tol=1e-5):
    return vec.min() >= 0.0 and abs(vec.sum() - 1.0) <= tol


def test_acceptance_2_distribution_validity():
    t0 = time.time()
    vocab = Vocabulary(_WORDS)
    cfg = ModelConfig(vocab_size=len(vocab), hidden=16, heads=2, enc_layers=1,
                      dec_layers=1, k_patches=3, feat_dim=5, max_pos=32,
                      dropout=0.0, ffn_mult=2)
    bad = 0
    forced_overflow = 0
    for draw in range(200):
        rng = np.random.default_rng(draw)
        model = CaptionModel(cfg, vocab, seed=draw)
        if draw % 2 == 0:
            # force p_gen + q_gen > 1 via large positive switch biases
            model.params["ptr/bp"].data[...] = 6.0
            model.params["ptr/bq"].data[...] = 6.0
        sample = _random_sample(rng, vocab, with_entity=(draw % 3 != 0))
        grid = rng.normal(size=(cfg.k_patches, cfg.feat_dim))
        with T.no_grad():
            ctx = model.encode(sample, grid)
            out = decode_distributions(model.params, cfg,
                                       sample.caption_ids[:-1], ctx)
        for t in range(len(out.p_star.data)):
            if out.p_gen[0, t, 0] + out.q_gen[0, t, 0] > 1.0:
                forced_overflow += 1
            for vec in (out.p_s[0, t], out.a_v[0, t], out.p_star.data[t]):
                if not _check_simplex(vec):
                    bad += 1
            if out.a_e is not None and not _check_simplex(out.a_e[0, t]):
                bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and forced_overflow > 0 and elapsed < 60.0
    _report(2, "distribution validity", ok,
            f"200 draws, {forced_overflow} steps with p+q>1, "
            f"{bad} invalid, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Causality


def _rows_equal(a, b, t):
    """Whether two decoder outputs are bit-identical at row t."""
    def row(out):
        return (out.p_s[0, t], out.a_v[0, t], out.p_star.data[t],
                out.p_gen[0, t], out.q_gen[0, t])
    if not all(np.array_equal(x, y) for x, y in zip(row(a), row(b))):
        return False
    if (a.a_e is None) != (b.a_e is None):
        return False
    return a.a_e is None or np.array_equal(a.a_e[0, t], b.a_e[0, t])


def test_acceptance_3_causality():
    t0 = time.time()
    vocab = Vocabulary(_WORDS)
    cfg = ModelConfig(vocab_size=len(vocab), hidden=16, heads=2, enc_layers=1,
                      dec_layers=1, k_patches=3, feat_dim=5, max_pos=32,
                      dropout=0.0, ffn_mult=2)
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = CaptionModel(cfg, vocab, seed=seed)
        sample = _random_sample(rng, vocab, with_entity=(seed % 2 == 0))
        # exactly 8 caption tokens between BOS and EOS
        body = [int(x) for x in rng.integers(4, len(vocab), size=8)]
        sample.caption_ids = [vocab.bos_id] + body + [vocab.eos_id]
        grid = rng.normal(size=(cfg.k_patches, cfg.feat_dim))
        with T.no_grad():
            ctx = model.encode(sample, grid)
            _, _, base = forward_teacher_forced(
                model.params, cfg, sample.caption_ids, ctx)
            inputs = sample.caption_ids[:-1]
            for tp in range(1, len(inputs)):
                perturbed = list(sample.caption_ids)
                perturbed[tp] = (perturbed[tp] + 1) % len(vocab) or 4
                _, _, alt = forward_teacher_forced(
                    model.params, cfg, perturbed, ctx)
                for t in range(tp):
                    if not _rows_equal(base, alt, t):
                        violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(3, "causality", ok,
            f"20 seeds x all perturbation positions, "
            f"{violations} violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Overfit acceptance


def test_acceptance_4_overfit(tmp_path):
    t0 = time.time()
    out = tmp_path / "corpus"
    generate_corpus(str(out), n=32, seed=0, k_patches=9, feat_dim=32)
    raw = list(load_corpus(str(out / "raw.jsonl")))
    tokens = [sample_tokens(r) for r in raw]
    vocab = build_vocab([t for pair in tokens for t in pair], min_freq=2)
    samples = [encode_sample(r, vocab, t) for r, t in zip(raw, tokens)]
    store = FeatureStore(str(out))
    mc = ModelConfig(vocab_size=len(vocab), hidden=64, heads=4, enc_layers=2,
                     dec_layers=2, k_patches=9, feat_dim=32, max_pos=128,
                     dropout=0.0)
    tc = runtime.TrainConfig(batch_size=8, base_lr=1.5e-3, warmup=100,
                             dropout=0.0, patience=1000, max_epochs=500,
                             eval_every=25, target_loss=0.05, seed=0, model=mc)
    log = []
    best = runtime.train(tc, samples, samples, vocab, store,
                         log_cb=log.append)
    final_loss = log[-1]["loss"]
    model = runtime.model_from_checkpoint(best, vocab)
    exact = 0
    for s in samples:
        ctx = model.encode(s, store.get(s.feature_ref))
        ids = runtime.greedy_decode(model, ctx)
        cand, _ = runtime.tag_clean(model.vocab.decode(ids), s.entities)
        exact += cand == s.caption_tokens
    elapsed = time.time() - t0
    ok = (final_loss < 0.05 and log[-1]["epoch"] <= 500
          and exact >= 0.9 * len(samples) and elapsed < 600.0)
    _report(4, "overfit", ok,
            f"vocab {len(vocab)}, loss {final_loss:.4f} at epoch "
            f"{log[-1]['epoch']}, exact {exact}/{len(samples)}, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Ablation trend


def _ablation_eval(train_s, held_s, vocab, store, seed, pointer):
    mc = ModelConfig(vocab_size=len(vocab), hidden=32, heads=2, enc_layers=1,
                     dec_layers=1, k_patches=9, feat_dim=32, max_pos=128,
                     dropout=0.1, pointer=pointer)
    tc = runtime.TrainConfig(batch_size=8, base_lr=2e-3, warmup=50,
                             dropout=0.1, patience=1000, max_epochs=150,
                             eval_every=75, seed=seed, model=mc)
    best = runtime.train(tc, train_s, train_s, vocab, store)
    model = runtime.model_from_checkpoint(best, vocab)
    return runtime.evaluate(model, held_s, store)


def test_acceptance_5_ablation_trend(tmp_path):
    t0 = time.time()
    out = tmp_path / "corpus"
    # single caption template: held-out caption quality is then a pure
    # measure of copying article content (topic word + entity surfaces)
    generate_corpus(str(out), n=36, seed=11, k_patches=9, feat_dim=32,
                    n_templates=1)
    raw = list(load_corpus(str(out / "raw.jsonl")))
    train_raw, held_raw = raw[:24], raw[24:]
    # vocabulary from all articles but only training captions: each topic
    # word is in-vocabulary (copyable) yet never a training target for
    # held-out samples; planted entities stay OOV everywhere
    tokens = [sample_tokens(r) for r in raw]
    vocab = build_vocab([a for a, _ in tokens] +
                        [c for _, c in tokens[:len(train_raw)]], min_freq=4)
    train_s = [encode_sample(r, vocab, t) for r, t in zip(train_raw, tokens)]
    held_s = [encode_sample(r, vocab, t)
              for r, t in zip(held_raw, tokens[len(train_raw):])]
    store = FeatureStore(str(out))
    full, no_tc, no_ptr = [], [], []
    for seed in (0, 1, 2):
        rp = _ablation_eval(train_s, held_s, vocab, store, seed, pointer=True)
        rnp = _ablation_eval(train_s, held_s, vocab, store, seed,
                             pointer=False)
        full.append(rp["cider"])
        no_tc.append(rp["pre_tc"]["cider"])
        no_ptr.append(rnp["pre_tc"]["cider"])
    m_full = sum(full) / 3
    m_no_tc = sum(no_tc) / 3
    m_no_ptr = sum(no_ptr) / 3
    elapsed = time.time() - t0
    ok = (m_full >= m_no_tc >= m_no_ptr
          and m_full - m_no_ptr >= 5.0 and elapsed < 1800.0)
    _report(5, "ablation trend", ok,
            f"mean CIDEr full {m_full:.2f} >= no-TC {m_no_tc:.2f} >= "
            f"no-pointer {m_no_ptr:.2f}, gap {m_full - m_no_ptr:.2f}, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Metric oracles


def _pair(c, r):
    return M.EvalPair(candidate=c.split(), reference=r.split())


def _oracle_rouge(pairs, beta=1.2):
    def lcs(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = (table[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1]
                               else max(table[i - 1][j], table[i][j - 1]))
        return table[-1][-1]

    scores = []
    for p in pairs:
        ln = lcs(p.candidate, p.reference)
        if ln == 0:
            scores.append(0.0)
            continue
        prec, rec = ln / len(p.candidate), ln / len(p.reference)
        b2 = beta * beta
        scores.append((1 + b2) * prec * rec / (rec + b2 * prec))
    return sum(scores) / len(scores)


def _oracle_cider(pairs):
    n_docs = len(pairs)
    scores = []
    for p in pairs:
        per_n = []
        for n in range(1, 5):
            def grams(toks):
                return Counter(tuple(toks[i:i + n])
                               for i in range(len(toks) - n + 1))

            df = Counter()
            for q in pairs:
                for g in set(grams(q.reference)):
                    df[g] += 1
            cu, ru = grams(p.candidate), grams(p.reference)
            dot = nc = nr = 0.0
            for g in set(cu) | set(ru):
                if not df[g]:
                    continue
                idf = math.log(n_docs / df[g])
                wc, wr = cu.get(g, 0) * idf, ru.get(g, 0) * idf
                dot += wc * wr
                nc += wc * wc
                nr += wr * wr
            per_n.append(dot / math.sqrt(nc * nr) if nc > 0 and nr > 0 else 0.0)
        scores.append(10.0 * sum(per_n) / 4.0)
    return sum(scores) / n_docs


METRIC_FIXTURES = [
    [_pair("a b", "a b"), _pair("b a", "a b")],
    [_pair("a a a", "a a b"), _pair("c d", "c d"), _pair("e f g", "g f e")],
    [_pair("u v w x", "u v w y"), _pair("u v", "v u"),
     _pair("w x y z", "w x y z"), _pair("m n o", "m n o"), _pair("p q", "q p")],
    [_pair("the cat sat on the mat", "the cat sat on a mat"),
     _pair("dogs bark loudly at night", "dogs bark at night")],
    [_pair("x y z", "x y z")],
]


def test_acceptance_6_metric_oracles():
    t0 = time.time()
    identical = [_pair("a b c d e", "a b c d e"), _pair("p q r s", "p q r s")]
    exact_one = M.bleu4(identical) == 1.0
    max_dev = 0.0
    for pairs in METRIC_FIXTURES:
        assert len(pairs) <= 5
        max_dev = max(max_dev,
                      abs(M.rouge_l(pairs) - _oracle_rouge(pairs)),
                      abs(M.cider(pairs) - _oracle_cider(pairs)))
    ep = M.entity_pr([M.EvalPair(candidate=["x"], reference=["x"],
                                 candidate_entities=["A", "B"],
                                 reference_entities=["B", "C"])])
    pr_ok = ep["precision"] == 0.5 and ep["recall"] == 0.5
    ep2 = M.entity_pr([M.EvalPair(candidate=["x"], reference=["x"],
                                  candidate_entities=["B", "B"],
                                  reference_entities=["B"])])
    pr_ok = pr_ok and ep2["precision"] == 0.5 and ep2["recall"] == 1.0
    elapsed = time.time() - t0
    ok = exact_one and max_dev < 1e-6 and pr_ok and elapsed < 10.0
    _report(6, "metric oracles", ok,
            f"BLEU(identical)==1.0 {exact_one}, max oracle dev "
            f"{max_dev:.1e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. Tag-Cleaning contract


def _ent(text, etype, start, freq):
    return EntityMention(text, etype, start, start + len(text.split()), freq)


def _tag_clean_cases():
    """50 rule-table cases: (tokens, entities, expected tokens, unresolved)."""
    cases = []

    # category match: the highest-frequency same-category entity wins (10)
    for i, (etype, win, lose) in enumerate([
            ("PERSON", "Ada Lovelace", "Grace Hopper"),
            ("GPE", "Oslo", "Lima"),
            ("ORG", "Acme Corp", "Globex"),
            ("DATE", "Monday", "Friday"),
            ("EVENT", "the summit", "the gala"),
            ("LOC", "North Ridge", "East Bay"),
            ("FAC", "City Hall", "Pier Nine"),
            ("PRODUCT", "Widget", "Gadget"),
            ("LAW", "the charter", "the accord"),
            ("NORP", "Nordic", "Alpine")]):
        ents = [_ent(win, etype, 5, 3), _ent(lose, etype, 0, 1)]
        cases.append(([etype + "_"], ents, win.split(), 0))

    # tie on frequency: earliest article occurrence wins (10)
    for i, etype in enumerate(["PERSON", "GPE", "ORG", "DATE", "TIME",
                               "MONEY", "PERCENT", "ORDINAL", "CARDINAL",
                               "LANGUAGE"]):
        early, late = f"early{i}", f"late{i}"
        ents = [_ent(late, etype, 8, 2), _ent(early, etype, 2, 2)]
        cases.append((["a", etype + "_", "b"], ents,
                      ["a", early, "b"], 0))

    # missing category: the tag stays in place and is counted (10)
    for i, etype in enumerate(["PERSON", "GPE", "ORG", "DATE", "EVENT",
                               "WORK_OF_ART", "QUANTITY", "PRODUCT", "LOC",
                               "FAC"]):
        ents = [_ent("other", "NORP" if etype != "NORP" else "GPE", 0, 4)]
        cases.append((["x", etype + "_"], ents, ["x", etype + "_"], 1))

    # non-tag tokens are never touched, even entity-looking ones (5)
    for toks in (["plain", "words", "only"],
                 ["person", "gpe", "org"],          # lowercase, no underscore
                 ["PERSON", "GPE"],                  # no trailing underscore
                 ["person_", "gpe_"],                # wrong case
                 ["X_", "FOO_"]):                    # not an entity category
        cases.append((toks, [_ent("Someone", "PERSON", 0, 9)], toks, 0))

    # multiple tags in one caption, mixed categories (5)
    ents = [_ent("Ada Lovelace", "PERSON", 0, 3), _ent("Oslo", "GPE", 4, 2)]
    cases.append((["PERSON_", "visited", "GPE_"], ents,
                  ["Ada", "Lovelace", "visited", "Oslo"], 0))
    cases.append((["PERSON_", "and", "PERSON_"], ents,
                  ["Ada", "Lovelace", "and", "Ada", "Lovelace"], 0))
    cases.append((["GPE_", "then", "GPE_"], ents,
                  ["Oslo", "then", "Oslo"], 0))
    cases.append((["ORG_", "met", "PERSON_"], ents,
                  ["ORG_", "met", "Ada", "Lovelace"], 1))
    cases.append((["ORG_", "and", "LAW_"], ents,
                  ["ORG_", "and", "LAW_"], 2))

    # empty entity set: every tag is unresolved (5)
    for toks, unresolved in ((["PERSON_"], 1), (["GPE_", "DATE_"], 2),
                             (["hello", "world"], 0),
                             (["TIME_", "x", "TIME_"], 2), (["NORP_"], 1)):
        cases.append((toks, [], toks, unresolved))

    # multi-word winners expand to their full surface (5)
    cases.append((["PERSON_"], [_ent("Jean Luc Picard", "PERSON", 0, 2)],
                  ["Jean", "Luc", "Picard"], 0))
    cases.append((["WORK_OF_ART_"],
                  [_ent("The Long March", "WORK_OF_ART", 1, 1)],
                  ["The", "Long", "March"], 0))
    cases.append((["in", "GPE_", "today"],
                  [_ent("New Falls City", "GPE", 0, 1)],
                  ["in", "New", "Falls", "City", "today"], 0))
    cases.append((["FAC_"], [_ent("Old Town Bridge", "FAC", 3, 5),
                             _ent("New Gate", "FAC", 0, 5)],
                  ["New", "Gate"], 0))  # tie -> earlier start
    cases.append((["EVENT_"], [_ent("the spring fair", "EVENT", 2, 4)],
                  ["the", "spring", "fair"], 0))
    return cases


def test_acceptance_7_tag_cleaning_contract():
    t0 = time.time()
    cases = _tag_clean_cases()
    assert len(cases) == 50
    failures = []
    for i, (toks, ents, expect, n_unresolved) in enumerate(cases):
        got, unresolved = runtime.tag_clean(toks, ents)
        if got != expect or unresolved != n_unresolved:
            failures.append(i)
    elapsed = time.time() - t0
    ok = not failures and elapsed < 1.0
    _report(7, "tag-cleaning contract", ok,
            f"50 cases, failures {failures}, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 8. Determinism and checkpoint round-trip


def test_acceptance_8_determinism_and_roundtrip(tmp_path):
    t0 = time.time()
    out = tmp_path / "corpus"
    generate_corpus(str(out), n=8, seed=5, k_patches=9, feat_dim=32)
    raw = list(load_corpus(str(out / "raw.jsonl")))
    tokens = [sample_tokens(r) for r in raw]
    vocab = build_vocab([t for pair in tokens for t in pair], min_freq=2)
    samples = [encode_sample(r, vocab, t) for r, t in zip(raw, tokens)]
    store = FeatureStore(str(out))
    mc = ModelConfig(vocab_size=len(vocab), hidden=16, heads=2, enc_layers=1,
                     dec_layers=1, k_patches=9, feat_dim=32, max_pos=128,
                     dropout=0.1)
    tc = runtime.TrainConfig(batch_size=4, base_lr=1e-3, warmup=20,
                             dropout=0.1, patience=100, max_epochs=3,
                             eval_every=1, seed=3, model=mc)

    def run_once():
        log = []
        ckpt = runtime.train(tc, samples, samples, vocab, store,
                             log_cb=log.append)
        digest = hashlib.sha256(
            "\n".join(json.dumps(r, sort_keys=True) for r in log)
            .encode()).hexdigest()
        return ckpt, digest

    ckpt, digest_a = run_once()
    _, digest_b = run_once()

    path = tmp_path / "ckpt.bin"
    runtime.save_checkpoint(ckpt, str(path))
    loaded = runtime.load_checkpoint(str(path))
    model_a = runtime.model_from_checkpoint(ckpt, vocab)
    model_b = runtime.model_from_checkpoint(loaded, vocab)
    s = samples[0]
    grid = store.get(s.feature_ref)
    with T.no_grad():
        ctx_a = model_a.encode(s, grid)
        ctx_b = model_b.encode(s, grid)
        out_a = decode_distributions(model_a.params, model_a.cfg,
                                     s.caption_ids[:-1], ctx_a)
        out_b = decode_distributions(model_b.params, model_b.cfg,
                                     s.caption_ids[:-1], ctx_b)
    bit_identical = (out_a.p_star.data.tobytes() == out_b.p_star.data.tobytes())
    params_identical = all(
        np.array_equal(model_a.params[k].data, model_b.params[k].data)
        for k in model_a.params)
    elapsed = time.time() - t0
    ok = (digest_a == digest_b and bit_identical and params_identical
          and elapsed < 300.0)
    _report(8, "determinism and checkpoint round-trip", ok,
            f"log hash match {digest_a == digest_b}, forward bit-identical "
            f"{bit_identical}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Stats fidelity


def _independent_stats(path):
    """Straight-line recount of the stats report from the raw JSONL fixture,
    sharing no code with the package."""
    recs = [json.loads(line) for line in open(path, encoding="utf-8")]
    types = ["PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT", "EVENT",
             "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME", "PERCENT",
             "MONEY", "QUANTITY", "ORDINAL", "CARDINAL"]

    def group(rs):
        n = len(rs)
        sents_total = sents_ne = words_total = words_ne = 0
        tcounts = dict.fromkeys(types, 0)
        art_len = cap_len = 0
        for r in rs:
            art_len += len(r["article_tokens"])
            cap_len += len(r["caption_tokens"])
            toks = r["caption_tokens"]
            spans = [(m["start"], m["end"]) for m in r["caption_entities"]]
            # sentence boundaries at . ? !
            bounds, cur = [], 0
            for i, t in enumerate(toks):
                if t in (".", "?", "!"):
                    bounds.append((cur, i + 1))
                    cur = i + 1
            if cur < len(toks):
                bounds.append((cur, len(toks)))
            for a, b in bounds:
                sents_total += 1
                if any(s < b and e > a for s, e in spans):
                    sents_ne += 1
            words_total += len(toks)
            covered = set()
            for s, e in spans:
                covered |= set(range(s, e))
            words_ne += len(covered)
            for m in r["caption_entities"]:
                tcounts[m["etype"]] += 1
        return {
            "images": n,
            "avg_article_len": art_len / n,
            "avg_caption_len": cap_len / n,
            "pct_sentences_with_ne": sents_ne / sents_total,
            "pct_words_in_ne": words_ne / words_total,
            "entities_per_caption": {t: tcounts[t] / n for t in types},
        }

    by_src = {}
    for r in recs:
        by_src.setdefault(r["source"], []).append(r)
    sources = sorted(by_src)
    overlap = {}
    for etype in ["PERSON", "GPE", "ORG", "DATE"]:
        ents = {src: {m["text"] for r in by_src[src]
                      for m in r["caption_entities"] if m["etype"] == etype}
                for src in sources}
        overlap[etype] = {a: {b: len(ents[a] & ents[b]) for b in sources}
                          for a in sources}
    return {"per_source": {s: group(rs) for s, rs in by_src.items()},
            "total": group(recs), "overlap": overlap}


def _compare_group(got, expect):
    devs = []
    for key in ("images", "avg_article_len", "avg_caption_len",
                "pct_sentences_with_ne", "pct_words_in_ne"):
        devs.append(abs(got[key] - expect[key]))
    for t, v in expect["entities_per_caption"].items():
        devs.append(abs(got["entities_per_caption"][t] - v))
    return max(devs)


def test_acceptance_9_stats_fidelity(tmp_path):
    t0 = time.time()
    fixture = os.path.join(FIXTURES, "stats100.jsonl")
    assert len(load_processed(fixture)) == 100
    out = tmp_path / "stats"
    assert cli.main(["stats", "--processed", fixture, "--out", str(out)]) == 0
    got = json.loads((out / "stats.json").read_text())
    expect = _independent_stats(fixture)

    dev = _compare_group(got["total"], expect["total"])
    assert set(got["per_source"]) == set(expect["per_source"])
    for src, grp in expect["per_source"].items():
        dev = max(dev, _compare_group(got["per_source"][src], grp))
    overlap_equal = got["overlap"] == expect["overlap"]
    elapsed = time.time() - t0
    ok = dev < 1e-12 and overlap_equal and elapsed < 5.0
    _report(9, "stats fidelity", ok,
            f"max field deviation {dev:.1e}, overlap matrices equal "
            f"{overlap_equal}, {elapsed:.2f}s")
