"""Tests for corpus ingestion: loading, filtering, tokenization, vocabulary,
entity handling, sample encoding, and dataset statistics."""

import json
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from newscap import corpus as C
from newscap.corpus import (
    CorpusError, EntityMention, OverlappingSpanError, ProcessedSample,
    RawSample, Vocabulary,
)


def raw(id="s1", article="Some article text here .",
        caption="A plain caption with six words .", w=300, h=300,
        source="wire", **kw):
    return RawSample(id=id, article=article, caption=caption,
                     image_width=w, image_height=h, source=source, **kw)


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for o in objs:
            fh.write((o if isinstance(o, str) else json.dumps(o)) + "\n")


def record(i=0, **kw):
    d = {
        "id": f"r{i}",
        "article": "Something happened in town today .",
        "caption": "A caption with enough words here .",
        "image": {"width": 300, "height": 300},
        "source": "wire",
        "feature_path": "",
    }
    d.update(kw)
    return d


# ---------------------------------------------------------------------------
# load_corpus


def test_load_corpus_empty_file(tmp_path):
    p = tmp_path / "raw.jsonl"
    p.write_text("")
    report = C.LoadReport()
    assert list(C.load_corpus(p, report)) == []
    assert report.malformed == 0 and report.loaded == 0


def test_load_corpus_order(tmp_path):
    p = tmp_path / "raw.jsonl"
    write_jsonl(p, [record(0), record(1), record(2)])
    got = list(C.load_corpus(p))
    assert [s.id for s in got] == ["r0", "r1", "r2"]


def test_load_corpus_counts_malformed(tmp_path):
    p = tmp_path / "raw.jsonl"
    write_jsonl(p, [record(0)] * 9 + ["{not json"])
    report = C.LoadReport()
    got = list(C.load_corpus(p, report))
    assert len(got) == 9
    assert report.malformed == 1


def test_load_corpus_aborts_over_ten_percent(tmp_path):
    p = tmp_path / "raw.jsonl"
    write_jsonl(p, [record(0), "{not json", "also bad"])
    with pytest.raises(CorpusError):
        list(C.load_corpus(p))


# ---------------------------------------------------------------------------
# rejection_reason


def test_filter_image_threshold():
    assert C.rejection_reason(raw(w=179)) == "image_size"
    assert C.rejection_reason(raw(h=179)) == "image_size"
    assert C.rejection_reason(raw(w=180, h=180)) is None


def test_filter_caption_length():
    assert C.rejection_reason(raw(caption="only four words here", w=500,
                                  h=500)) == "caption_length"
    assert C.rejection_reason(raw(caption=" ".join(["w"] * 20))) is None
    assert C.rejection_reason(
        raw(caption=" ".join(["w"] * 32))) == "caption_length"
    assert C.rejection_reason(raw(caption=" ".join(["w"] * 31))) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=5))
def test_filter_monotone_in_bounds(n_words, widen_lo, widen_hi):
    s = raw(caption=" ".join(["w"] * n_words) or "x")
    if C.rejection_reason(s) is None:
        # widening the caption-length window never drops a kept sample
        assert C.rejection_reason(s, min_words=max(0, 5 - widen_lo),
                                  max_words=31 + widen_hi) is None


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_punctuation_detachment():
    assert C.tokenize("Hello, world.") == ["Hello", ",", "world", "."]


def test_tokenize_html_strip():
    assert C.tokenize("<b>Tax</b> cut") == ["Tax", "cut"]


def test_tokenize_non_ascii_removed():
    assert C.tokenize("café") == ["caf"]


def test_tokenize_brackets_removed():
    assert C.tokenize("before [note] after (aside) end") == \
        ["before", "after", "end"]


def test_tokenize_leading_punctuation():
    assert C.tokenize('"quoted"') == ['"', "quoted", '"']


def _tokenize_oracle(text):
    """The tokenization rule written out straight: regex cleaning, then
    edge punctuation peeled off one character at a time."""
    text = re.sub(r"<[^>]*>", " ", text)
    text = re.sub(r"\[[^\]]*\]|\([^)]*\)", " ", text)
    text = re.sub(r"[^\x00-\x7f]", "", text)
    tokens = []
    for chunk in text.split():
        head = []
        while chunk and chunk[0] in string.punctuation:
            head.append(chunk[0])
            chunk = chunk[1:]
        tail = []
        while chunk and chunk[-1] in string.punctuation:
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(head)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens


# letters, edge punctuation, tag and bracket delimiters, non-ASCII (with
# non-ASCII whitespace and lone surrogates), and the \x1c-\x1f separators
# that str.split treats as whitespace
_TOKENIZE_ALPHABET = list("abZ09 \t\n.,;'\"!?-$%<>[]()/") + [
    "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2028", "\xe9", "\u4e2d",
    "\ud800", "\udfff", "ab", "<b>", "(x)"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKENIZE_ALPHABET), max_size=40).map("".join))
def test_tokenize_matches_straight_line_rule(text):
    assert C.tokenize(text) == _tokenize_oracle(text)


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_empty_stream_has_fixed_prefix():
    v = C.build_vocab([[]])
    assert len(v) == 22  # 4 specials + 18 tags
    assert v.decode(range(4)) == C.SPECIALS
    assert v.decode(range(4, 22)) == C.TAG_TOKENS


def test_vocab_min_freq_cutoff():
    v = C.build_vocab([["a", "a", "a", "b"]], min_freq=2)
    assert "a" in v and "b" not in v


def test_vocab_id_order_deterministic():
    v = C.build_vocab([["b", "b", "a", "a", "c", "c", "c"]], min_freq=1)
    # descending count, lexicographic ties
    assert v.decode([22, 23, 24]) == ["c", "a", "b"]


def test_vocab_save_load_byte_identical(tmp_path):
    v1 = C.build_vocab([["x", "x", "y", "y"]], min_freq=1)
    v2 = C.build_vocab([["x", "x", "y", "y"]], min_freq=1)
    p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
    v1.save(p1)
    v2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = Vocabulary.load(p1)
    assert loaded.decode(range(len(loaded))) == v1.decode(range(len(v1)))


def test_vocab_load_rejects_missing_specials(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"a": 0, "b": 1}))
    with pytest.raises(CorpusError):
        Vocabulary.load(p)


def _renumbered(ids):
    """A saved vocabulary's token -> id map with `ids` for its ids."""
    tokens = C.build_vocab([["x", "x", "y", "y"]], min_freq=1).decode(
        range(len(ids)))
    return dict(zip(tokens, ids))


@pytest.mark.parametrize("ids", [
    [10 * i for i in range(24)],
    list(range(23)) + [24],
    list(range(23)) + [22],
    list(range(23)) + [23.0],
    list(range(23)) + ["23"],
    [True] + list(range(1, 24)),
], ids=["times-ten", "gap", "duplicate", "float", "string", "bool"])
def test_vocab_load_rejects_ids_other_than_0_to_n(tmp_path, ids):
    p = tmp_path / "vocab.json"
    p.write_text(json.dumps(_renumbered(ids)))
    with pytest.raises(CorpusError, match="0..23"):
        Vocabulary.load(p)


def test_vocab_unknown_token_maps_to_unk():
    v = Vocabulary(["known"])
    assert v.id_of("unknown-token") == v.unk_id


# ---------------------------------------------------------------------------
# entities


def test_extract_entities_annotations_verbatim_with_frequency():
    tokens = ["Obama", "met", "Obama", "in", "Paris"]
    anns = [
        {"text": "Obama", "type": "PERSON", "start": 0, "end": 1},
        {"text": "Obama", "type": "PERSON", "start": 2, "end": 3},
        {"text": "Paris", "type": "GPE", "start": 4, "end": 5},
    ]
    got = C.extract_entities(tokens, anns)
    assert [(m.text, m.etype, m.frequency) for m in got] == [
        ("Obama", "PERSON", 2), ("Obama", "PERSON", 2), ("Paris", "GPE", 1)]


def test_extract_entities_fallback_capitalized_run():
    got = C.extract_entities(["The", "mayor", "of", "Springfield", "spoke"])
    assert [(m.text, m.start, m.end) for m in got] == [("Springfield", 3, 4)]


def test_extract_entities_fallback_year():
    got = C.extract_entities(["in", "1999", "he", "won"])
    assert [(m.text, m.etype) for m in got] == [("1999", "DATE")]


def test_extract_entities_overlap_rejected():
    anns = [
        {"text": "a b", "type": "PERSON", "start": 0, "end": 2},
        {"text": "b c", "type": "ORG", "start": 1, "end": 3},
    ]
    with pytest.raises(OverlappingSpanError):
        C.extract_entities(["a", "b", "c"], anns)


def test_extract_entities_span_out_of_range():
    with pytest.raises(CorpusError):
        C.extract_entities(["a"], [{"text": "a b", "type": "ORG",
                                    "start": 0, "end": 2}])


def test_entity_mention_validation():
    with pytest.raises(CorpusError):
        EntityMention("x", "NOT_A_TYPE", 0, 1)
    with pytest.raises(CorpusError):
        EntityMention("x", "PERSON", 2, 2)
    for start, end in ((0, 1.5), ("0", 1), (False, 1)):
        with pytest.raises(CorpusError, match="integers"):
            EntityMention("x", "PERSON", start, end)


# ---------------------------------------------------------------------------
# OOV entity substitution


def test_replace_oov_entity_whole_span_becomes_tag():
    v = Vocabulary(["visited", "the"])
    tokens = ["visited", "John", "Paul", "Jones", "Arena"]
    ents = [EntityMention("John Paul Jones Arena", "LOC", 1, 5)]
    assert C.replace_oov_entities(tokens, ents, v) == ["visited", "LOC_"]


def test_replace_oov_entities_all_in_vocab_unchanged():
    v = Vocabulary(["Paris", "is", "nice"])
    tokens = ["Paris", "is", "nice"]
    ents = [EntityMention("Paris", "GPE", 0, 1)]
    assert C.replace_oov_entities(tokens, ents, v) == tokens


def test_replace_oov_non_entity_becomes_unk():
    v = Vocabulary(["a"])
    assert C.replace_oov_entities(["a", "zyzzyva"], [], v) == ["a", C.UNK]


def test_partial_oov_mention_still_tagged():
    v = Vocabulary(["John"])  # "Smith" OOV -> whole mention tagged
    tokens = ["John", "Smith", "John"]
    ents = [EntityMention("John Smith", "PERSON", 0, 2)]
    out = C.replace_oov_entities(tokens, ents, v)
    assert out == ["PERSON_", "John"]
    # no UNK inside the annotated span
    assert C.UNK not in out[:1]


# ---------------------------------------------------------------------------
# encode_sample


def _vocab_for(sample):
    art = C.tokenize(sample.article)
    cap = C.tokenize(sample.caption)
    return C.build_vocab([art, cap], min_freq=1)


def _encode(s, vocab):
    return C.encode_sample(s, vocab, C.sample_tokens(s))


def test_encode_sample_truncates_article():
    s = raw(article=" ".join(f"w{i}" for i in range(500)))
    out = _encode(s, _vocab_for(s))
    assert len(out.article_ids) == 300
    assert len(out.article_tokens) == 300


def test_encode_sample_short_article_not_padded():
    s = raw(article="just ten tokens in this very short article right here")
    out = _encode(s, _vocab_for(s))
    assert len(out.article_ids) == 10


def test_encode_sample_drops_entities_past_window():
    words = [f"w{i}" for i in range(302)]
    s = raw(article=" ".join(words),
            article_entities=[
                {"text": "w10", "type": "ORG", "start": 10, "end": 11},
                {"text": "w298 w299 w300 w301", "type": "ORG",
                 "start": 298, "end": 302}])
    out = _encode(s, _vocab_for(s))
    assert [(m.start, m.end) for m in out.entities] == [(10, 11)]


def test_encode_sample_caption_wrapped_and_round_trips():
    s = raw(caption="Paris is a lovely city .")
    v = _vocab_for(s)
    out = _encode(s, v)
    assert out.caption_ids[0] == v.bos_id and out.caption_ids[-1] == v.eos_id
    inner = v.decode(out.caption_ids[1:-1])
    assert v.encode(inner) == out.caption_ids[1:-1]


def test_encode_sample_empty_caption_after_cleaning():
    s = raw(caption="éé üü")
    with pytest.raises(CorpusError):
        _encode(s, Vocabulary())


def test_encode_sample_empty_article_after_cleaning():
    # a sample with no article tokens has no key to attend in training
    s = raw(article="<p> [photo] (file)")
    with pytest.raises(CorpusError, match="article empty"):
        _encode(s, Vocabulary())


def test_processed_sample_serialization_round_trip():
    s = raw(article="Obama visited Paris today .",
            caption="Obama waves in Paris today .",
            article_entities=[
                {"text": "Obama", "type": "PERSON", "start": 0, "end": 1},
                {"text": "Paris", "type": "GPE", "start": 2, "end": 3}],
            caption_entities=[
                {"text": "Obama", "type": "PERSON", "start": 0, "end": 1},
                {"text": "Paris", "type": "GPE", "start": 3, "end": 4}])
    v = _vocab_for(s)
    out = _encode(s, v)
    again = ProcessedSample.from_json(out.to_json())
    assert again == out
    assert again.to_json() == out.to_json()


def test_processed_sample_json_round_trip_with_mentions():
    s = ProcessedSample(
        id="p", source="wire", article_tokens=["Obama", "met", "Jean", "Roe"],
        article_ids=[7, 8, 9, 3],
        entities=[EntityMention("Obama", "PERSON", 0, 1, 1),
                  EntityMention("Jean Roe", "PERSON", 2, 4, 2)],
        caption_tokens=["Obama", "smiles"],
        caption_entities=[EntityMention("Obama", "PERSON", 0, 1, 1)],
        caption_ids=[1, 7, 3, 2], feature_ref="f.bin")
    line = s.to_json()
    again = ProcessedSample.from_json(line)
    assert again == s
    assert again.to_json() == line
    assert json.loads(line)["entities"][1] == {
        "text": "Jean Roe", "etype": "PERSON", "start": 2, "end": 4,
        "frequency": 2}


@pytest.mark.parametrize("bad, message", [
    ('{"id": "x"}', "line 3: missing field 'source'"),
    ("not json", "line 3: malformed sample"),
    ("[1, 2]", "line 3: malformed sample"),
], ids=["missing-field", "not-json", "not-an-object"])
def test_load_processed_names_the_bad_line(tmp_path, bad, message):
    s = raw(article="Alpha beta gamma delta .", caption="One two three .")
    good = _encode(s, _vocab_for(s)).to_json()
    path = tmp_path / "processed.jsonl"
    path.write_text("\n".join([good, "", bad, good]) + "\n")
    with pytest.raises(CorpusError, match=message):
        C.load_processed(path)


def test_preprocessing_deterministic():
    s = raw(article="Alpha beta gamma delta .", caption="One two three four five .")
    v = _vocab_for(s)
    assert _encode(s, v).to_json() == _encode(s, v).to_json()


# ---------------------------------------------------------------------------
# dataset statistics


def _psample(id, source, cap_tokens, cap_ents, art_tokens=None):
    art_tokens = art_tokens or ["some", "article"]
    return ProcessedSample(
        id=id, source=source, article_tokens=art_tokens,
        article_ids=[0] * len(art_tokens), entities=[],
        caption_tokens=cap_tokens, caption_entities=cap_ents,
        caption_ids=[1] + [0] * len(cap_tokens) + [2], feature_ref="")


def test_stats_entity_fractions():
    s = _psample("a", "x", ["Obama", "visited", "Paris"],
                 [EntityMention("Obama", "PERSON", 0, 1, 1),
                  EntityMention("Paris", "GPE", 2, 3, 1)])
    stats = C.dataset_stats([s])
    assert stats["total"]["pct_words_in_ne"] == pytest.approx(2 / 3)
    assert stats["total"]["pct_sentences_with_ne"] == 1.0
    assert stats["total"]["entities_per_caption"]["PERSON"] == 1.0
    assert stats["total"]["entities_per_caption"]["GPE"] == 1.0
    assert stats["total"]["entities_per_caption"]["ORG"] == 0.0


def test_stats_overlap_matrix():
    a = _psample("a", "srcA", ["Obama", "spoke"],
                 [EntityMention("Obama", "PERSON", 0, 1, 1)])
    b = _psample("b", "srcB", ["Obama", "waved"],
                 [EntityMention("Obama", "PERSON", 0, 1, 1)])
    stats = C.dataset_stats([a, b])
    m = stats["overlap"]["PERSON"]
    assert m["srcA"]["srcB"] == 1
    assert m["srcA"]["srcA"] == 1
    assert stats["overlap"]["GPE"]["srcA"]["srcB"] == 0


def test_stats_totals_are_weighted_means():
    groups = {
        "x": [_psample(f"x{i}", "x", ["w"] * 4, []) for i in range(3)],
        "y": [_psample(f"y{i}", "y", ["w"] * 8, []) for i in range(1)],
    }
    samples = groups["x"] + groups["y"]
    stats = C.dataset_stats(samples)
    weighted = sum(
        stats["per_source"][src]["avg_caption_len"] * len(g)
        for src, g in groups.items()) / len(samples)
    assert stats["total"]["avg_caption_len"] == pytest.approx(weighted)


def test_stats_multi_sentence_caption():
    s = _psample("a", "x", ["Obama", "spoke", ".", "Crowds", "cheered", "."],
                 [EntityMention("Obama", "PERSON", 0, 1, 1)])
    stats = C.dataset_stats([s])
    # one of the two sentences contains an entity
    assert stats["total"]["pct_sentences_with_ne"] == 0.5
