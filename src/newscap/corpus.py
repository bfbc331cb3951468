"""Corpus ingestion: filtering, tokenization, vocabulary, entity handling, stats.

Input is one JSON object per line:
  {id, article, caption, image:{width,height}, source, feature_path,
   entities?: {article:[{text,type,start,end}], caption:[...]}}
Entity spans are token indices under tokenize() below.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

ENTITY_TYPES = [
    "PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT", "EVENT",
    "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME", "PERCENT", "MONEY",
    "QUANTITY", "ORDINAL", "CARDINAL",
]

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
SPECIALS = [PAD, BOS, EOS, UNK]

MAX_ARTICLE_TOKENS = 300
MIN_CAPTION_WORDS = 5
MAX_CAPTION_WORDS = 31
MIN_IMAGE_SIDE = 180


def tag_token(etype):
    return etype + "_"


TAG_TOKENS = [tag_token(t) for t in ENTITY_TYPES]


class CorpusError(Exception):
    pass


class OverlappingSpanError(CorpusError):
    """Entity annotations overlap; the sample is rejected."""


@dataclass
class EntityMention:
    text: str
    etype: str
    start: int
    end: int  # exclusive token index
    frequency: int = 0

    def __post_init__(self):
        if type(self.start) is not int or type(self.end) is not int:
            raise CorpusError(f"span bounds must be integers, got "
                              f"[{self.start!r},{self.end!r})")
        if self.etype not in ENTITY_TYPES:
            raise CorpusError(f"unknown entity type {self.etype!r}")
        if self.start < 0 or self.end <= self.start:
            raise CorpusError(f"invalid span [{self.start},{self.end})")


@dataclass
class RawSample:
    id: str
    article: str
    caption: str
    image_width: int
    image_height: int
    source: str = ""
    feature_path: str = ""
    article_entities: list | None = None  # list[dict] as loaded
    caption_entities: list | None = None


@dataclass
class ProcessedSample:
    id: str
    source: str
    article_tokens: list
    article_ids: list
    entities: list  # article EntityMentions, clipped to the 300-token window
    caption_tokens: list  # surface caption, pre tag substitution
    caption_entities: list  # caption EntityMentions
    caption_ids: list  # BOS + substituted ids + EOS
    feature_ref: str = ""

    def to_json(self):
        d = {
            "id": self.id,
            "source": self.source,
            "article_tokens": self.article_tokens,
            "article_ids": self.article_ids,
            # an EntityMention's __dict__ holds exactly its fields
            "entities": [vars(e) for e in self.entities],
            "caption_tokens": self.caption_tokens,
            "caption_entities": [vars(e) for e in self.caption_entities],
            "caption_ids": self.caption_ids,
            "feature_ref": self.feature_ref,
        }
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, line):
        d = json.loads(line)
        return cls(
            id=d["id"],
            source=d["source"],
            article_tokens=d["article_tokens"],
            article_ids=d["article_ids"],
            entities=[EntityMention(**e) for e in d["entities"]],
            caption_tokens=d["caption_tokens"],
            caption_entities=[EntityMention(**e) for e in d["caption_entities"]],
            caption_ids=d["caption_ids"],
            feature_ref=d["feature_ref"],
        )


# ---------------------------------------------------------------------------
# Loading and filtering


@dataclass
class LoadReport:
    loaded: int = 0
    malformed: int = 0
    lines: int = 0


def load_corpus(path, report=None):
    """Yield RawSamples from a JSONL file; malformed lines are counted.

    Raises CorpusError if more than 10% of nonempty lines are malformed.
    """
    if report is None:
        report = LoadReport()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            report.lines += 1
            try:
                s = _raw_sample(json.loads(line))
            except (KeyError, ValueError, TypeError, OverflowError):
                report.malformed += 1
                continue
            report.loaded += 1
            yield s
    if report.lines and report.malformed > 0.1 * report.lines:
        raise CorpusError(
            f"{report.malformed}/{report.lines} malformed lines (>10%)"
        )


def _raw_sample(d):
    """The RawSample of one parsed line; ValueError or TypeError when a field
    has the wrong type, so the line counts as malformed."""
    if not isinstance(d, dict):
        raise TypeError("a line must hold a JSON object")
    img = d.get("image", {})
    ents = d.get("entities") or {}
    if not isinstance(img, dict) or not isinstance(ents, dict):
        raise TypeError("image and entities must be objects")
    s = RawSample(
        id=str(d["id"]),
        article=d["article"],
        caption=d["caption"],
        image_width=int(img.get("width", 0)),
        image_height=int(img.get("height", 0)),
        source=d.get("source", ""),
        feature_path=d.get("feature_path", ""),
        article_entities=_annotations(ents.get("article")),
        caption_entities=_annotations(ents.get("caption")),
    )
    if not all(isinstance(v, str) for v in (
            s.article, s.caption, s.source, s.feature_path)):
        raise TypeError("article, caption, source and feature_path must be "
                        "strings")
    if not s.article.strip() or not s.caption.strip():
        raise ValueError("empty article or caption")
    return s


def _annotations(annotations):
    """A list of {text, type, start, end} annotations as loaded, or None;
    TypeError when a field is missing or of the wrong type (a span bound
    must be an integer)."""
    if annotations is not None and not (
            isinstance(annotations, list) and all(
                isinstance(a, dict) and isinstance(a.get("text"), str)
                and isinstance(a.get("type"), str)
                and type(a.get("start")) is int and type(a.get("end")) is int
                for a in annotations)):
        raise TypeError("entity annotations must be a list of "
                        "{text, type, start, end} objects")
    return annotations


def rejection_reason(s, min_words=MIN_CAPTION_WORDS,
                     max_words=MAX_CAPTION_WORDS, min_side=MIN_IMAGE_SIDE):
    """Why the filters drop a sample: "image_size" when an image side is
    below min_side, "caption_length" when the caption is outside
    [min_words, max_words] words (default [5, 31]); None keeps it."""
    if min(s.image_width, s.image_height) < min_side:
        return "image_size"
    if not min_words <= len(s.caption.split()) <= max_words:
        return "caption_length"
    return None


# ---------------------------------------------------------------------------
# Tokenization

_HTML_RE = re.compile(r"<[^>]*>")
_BRACKET_RE = re.compile(r"\[[^\]]*\]|\([^)]*\)")
_PUNCT = string.punctuation


def tokenize(text):
    """Clean and split text: drop HTML tags, bracketed segments and non-ASCII
    characters, split on whitespace, and detach edge punctuation as tokens."""
    if "<" in text:
        text = _HTML_RE.sub(" ", text)
    if "[" in text or "(" in text:
        text = _BRACKET_RE.sub(" ", text)
    text = text.encode("ascii", "ignore").decode("ascii")
    tokens = []
    for chunk in text.split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            tokens.append(chunk)
            continue
        rest = chunk.lstrip(_PUNCT)
        tokens.extend(chunk[:len(chunk) - len(rest)])
        core = rest.rstrip(_PUNCT)
        if core:
            tokens.append(core)
        tokens.extend(rest[len(core):])
    return tokens


def sample_tokens(s):
    """The (article, caption) tokens of a raw sample, the article cut to its
    first MAX_ARTICLE_TOKENS: what the vocabulary counts and what
    encode_sample encodes."""
    return tokenize(s.article)[:MAX_ARTICLE_TOKENS], tokenize(s.caption)


# ---------------------------------------------------------------------------
# Vocabulary


class Vocabulary:
    """Bidirectional token<->id map; specials and the 18 entity tags are fixed."""

    def __init__(self, tokens=()):
        self._tokens = list(SPECIALS) + list(TAG_TOKENS) + list(tokens)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise CorpusError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self._tokens)

    def __contains__(self, token):
        return token in self._ids

    @property
    def bos_id(self):
        return self._ids[BOS]

    @property
    def eos_id(self):
        return self._ids[EOS]

    @property
    def unk_id(self):
        return self._ids[UNK]

    def tag_id(self, etype):
        return self._ids[tag_token(etype)]

    def id_of(self, token):
        return self._ids.get(token, self._ids[UNK])

    def encode(self, tokens):
        get, unk = self._ids.get, self._ids[UNK]
        return [get(t, unk) for t in tokens]

    def decode(self, ids):
        return [self._tokens[i] for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self._ids, fh, sort_keys=False, indent=0)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            ids = json.load(fh)
        if not isinstance(ids, dict):
            raise CorpusError("vocabulary file must map tokens to ids")
        # every processed id refers to the file's numbering: load nothing
        # that would have to be renumbered
        if any(type(i) is not int for i in ids.values()) or \
                sorted(ids.values()) != list(range(len(ids))):
            raise CorpusError("vocabulary ids must be the integers "
                              f"0..{len(ids) - 1}, each once")
        tokens = sorted(ids, key=ids.get)
        fixed = len(SPECIALS) + len(TAG_TOKENS)
        if tokens[:fixed] != SPECIALS + TAG_TOKENS:
            raise CorpusError("vocabulary file missing specials or entity tags")
        vocab = cls(tokens[fixed:])
        return vocab


def build_vocab(token_streams, min_freq=2):
    """Count tokens over captions and articles; keep those with count >= min_freq.

    Ids are deterministic: specials, tags, then tokens by descending count with
    lexicographic tie-break.
    """
    counts = Counter()
    n_streams = 0
    for stream in token_streams:
        n_streams += 1
        counts.update(stream)
    if n_streams == 0:
        raise CorpusError("empty corpus")
    reserved = set(SPECIALS) | set(TAG_TOKENS)
    kept = [
        t for t, c in counts.items()
        if c >= min_freq and t not in reserved
    ]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


# ---------------------------------------------------------------------------
# Entities


_STOPWORDS = {
    "The", "A", "An", "In", "On", "At", "He", "She", "It", "They", "We",
    "But", "And", "Or", "His", "Her", "This", "That", "After", "Before",
}

_YEAR_RE = re.compile(r"^\d{4}$")


def _validate_mentions(tokens, annotations):
    mentions = []
    for a in annotations:
        m = a if isinstance(a, EntityMention) else EntityMention(
            text=a["text"], etype=a["type"], start=a["start"], end=a["end"])
        if m.end > len(tokens):
            raise CorpusError(f"entity span [{m.start},{m.end}) out of range")
        mentions.append(m)
    mentions.sort(key=lambda m: (m.start, m.end))
    for prev, cur in zip(mentions, mentions[1:]):
        if cur.start < prev.end:
            raise OverlappingSpanError(
                f"spans [{prev.start},{prev.end}) and [{cur.start},{cur.end})")
    return mentions


def extract_entities(tokens, annotations=None):
    """Return validated EntityMentions with frequencies filled.

    Without annotations a naive fallback applies: maximal capitalized runs
    become ORG mentions, bare 4-digit numbers become DATE. The fallback exists
    only to keep the pipeline runnable; tests rely on explicit annotations.
    """
    if annotations is not None:
        mentions = _validate_mentions(tokens, annotations)
    else:
        mentions = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok[:1].isupper() and tok not in _STOPWORDS and tok.isalpha():
                j = i + 1
                while j < len(tokens) and tokens[j][:1].isupper() \
                        and tokens[j] not in _STOPWORDS and tokens[j].isalpha():
                    j += 1
                mentions.append(EntityMention(
                    text=" ".join(tokens[i:j]), etype="ORG", start=i, end=j))
                i = j
            elif _YEAR_RE.match(tok):
                mentions.append(EntityMention(
                    text=tok, etype="DATE", start=i, end=i + 1))
                i += 1
            else:
                i += 1
    surface_counts = Counter(m.text for m in mentions)
    for m in mentions:
        m.frequency = surface_counts[m.text]
    return mentions


def replace_oov_entities(caption_tokens, caption_entities, vocab):
    """Replace entity mentions containing any OOV token with their category tag;
    other OOV tokens become UNK."""
    mentions = _validate_mentions(caption_tokens, caption_entities)
    out = []
    by_start = {m.start: m for m in mentions}
    i = 0
    while i < len(caption_tokens):
        m = by_start.get(i)
        if m is not None:
            span = caption_tokens[m.start:m.end]
            if all(t in vocab for t in span):
                out.extend(span)
            else:
                out.append(tag_token(m.etype))
            i = m.end
        else:
            tok = caption_tokens[i]
            out.append(tok if tok in vocab else UNK)
            i += 1
    return out


# ---------------------------------------------------------------------------
# Sample encoding


def encode_sample(s, vocab, tokens):
    """Encode a raw sample from its sample_tokens(s): substitute OOV caption
    entities by tags, and wrap the caption in BOS/EOS."""
    article_tokens, caption_tokens = tokens
    for name, toks in (("article", article_tokens),
                       ("caption", caption_tokens)):
        if not toks:
            raise CorpusError(f"sample {s.id}: {name} empty after cleaning")

    art_mentions = extract_entities(article_tokens, _clip_annotations(
        s.article_entities, len(article_tokens)))
    cap_annotations = s.caption_entities
    if cap_annotations is None:
        cap_mentions = extract_entities(caption_tokens)
    else:
        cap_mentions = extract_entities(caption_tokens, cap_annotations)

    substituted = replace_oov_entities(caption_tokens, cap_mentions, vocab)
    caption_ids = [vocab.bos_id] + vocab.encode(substituted) + [vocab.eos_id]

    return ProcessedSample(
        id=s.id,
        source=s.source,
        article_tokens=article_tokens,
        article_ids=vocab.encode(article_tokens),
        entities=art_mentions,
        caption_tokens=caption_tokens,
        caption_entities=cap_mentions,
        caption_ids=caption_ids,
        feature_ref=s.feature_path,
    )


def _clip_annotations(annotations, window):
    """Drop article entity annotations extending past the truncation window."""
    if annotations is None:
        return None
    kept = []
    for a in annotations:
        end = a.end if isinstance(a, EntityMention) else a["end"]
        if end <= window:
            kept.append(a)
    return kept


def load_processed(path):
    samples = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                samples.append(ProcessedSample.from_json(line))
            except KeyError as e:
                raise CorpusError(
                    f"{path} line {n}: missing field {e.args[0]!r}") from None
            except (TypeError, ValueError) as e:
                raise CorpusError(
                    f"{path} line {n}: malformed sample: {e}") from None
    return samples


def save_processed(samples, path):
    """Write samples (any iterable) one JSON line each; returns how many."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for n, s in enumerate(samples, 1):
            fh.write(s.to_json())
            fh.write("\n")
    return n


# ---------------------------------------------------------------------------
# Dataset statistics

_SENT_END = {".", "?", "!"}


def _caption_sentences(tokens):
    """Split a token list into sentences at ./?/! boundaries."""
    sents = []
    cur_start = 0
    for i, t in enumerate(tokens):
        if t in _SENT_END:
            sents.append((cur_start, i + 1))
            cur_start = i + 1
    if cur_start < len(tokens):
        sents.append((cur_start, len(tokens)))
    return sents


def _group_stats(samples):
    n = len(samples)
    art_len = sum(len(s.article_tokens) for s in samples)
    cap_len = sum(len(s.caption_tokens) for s in samples)
    sents_total = 0
    sents_with_ne = 0
    words_total = 0
    words_in_ne = 0
    type_counts = {t: 0 for t in ENTITY_TYPES}
    for s in samples:
        spans = [(m.start, m.end) for m in s.caption_entities]
        for a, b in _caption_sentences(s.caption_tokens):
            sents_total += 1
            if any(ms < b and me > a for ms, me in spans):
                sents_with_ne += 1
        words_total += len(s.caption_tokens)
        covered = set()
        for ms, me in spans:
            covered.update(range(ms, me))
        words_in_ne += len(covered)
        for m in s.caption_entities:
            type_counts[m.etype] += 1
    return {
        "images": n,
        "avg_article_len": art_len / n if n else 0.0,
        "avg_caption_len": cap_len / n if n else 0.0,
        "pct_sentences_with_ne": sents_with_ne / sents_total if sents_total else 0.0,
        "pct_words_in_ne": words_in_ne / words_total if words_total else 0.0,
        "entities_per_caption": {
            t: type_counts[t] / n if n else 0.0 for t in ENTITY_TYPES
        },
    }


def dataset_stats(samples, overlap_sample=50000, overlap_types=None, seed=0):
    """Per-source and total corpus statistics plus the pairwise matrix of
    shared unique caption-entity strings between sources (per entity type,
    over a seeded per-source sample)."""
    samples = list(samples)
    by_source = {}
    for s in samples:
        by_source.setdefault(s.source, []).append(s)
    sources = sorted(by_source)

    per_source = {src: _group_stats(group) for src, group in by_source.items()}
    total = _group_stats(samples)

    if overlap_types is None:
        overlap_types = ["PERSON", "GPE", "ORG", "DATE"]
    rng = np.random.default_rng(seed)
    sampled_entities = {}
    for src in sources:
        group = by_source[src]
        if len(group) > overlap_sample:
            idx = rng.choice(len(group), size=overlap_sample, replace=False)
            group = [group[i] for i in sorted(idx)]
        ents = {t: set() for t in overlap_types}
        for s in group:
            for m in s.caption_entities:
                if m.etype in ents:
                    ents[m.etype].add(m.text)
        sampled_entities[src] = ents

    overlap = {}
    for etype in overlap_types:
        overlap[etype] = {
            a: {
                b: len(sampled_entities[a][etype] & sampled_entities[b][etype])
                for b in sources
            }
            for a in sources
        }

    return {
        "per_source": per_source,
        "total": total,
        "overlap": overlap,
        "overlap_sample": overlap_sample,
    }
