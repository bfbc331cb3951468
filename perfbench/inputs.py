"""Seeded input generation for the two workloads.

Both workloads hand the program nothing but files in its own input formats: a
raw JSONL corpus and feature grids (flat float32 plus a JSON sidecar). The
same seed always yields byte-identical inputs.

* desk: the 32-sample corpus of the program's own generator (`newscap.synth`),
  exactly as the overfit acceptance criterion uses it: 9 x 32 grids, articles
  of about 84 tokens with about 6 entity mentions, a vocabulary of about 214.
* newsroom: paper-shaped stories written here. Every article runs past the
  300-token cap, so the program truncates it to exactly 300 tokens, and holds
  one entity mention about every 12 tokens (about 25 inside the cap). Each
  story names its own people, place and organisation several times, and its
  filler words are drawn from a Zipf-shaped pool, so `build_vocab` keeps about
  16k tokens over the corpus. Only the stories the timed phases use get a
  49 x 2048 feature grid, the model's default image grid.
"""

from __future__ import annotations

import json
import os

import numpy as np

from newscap.features import save_features, synthetic_features
from newscap.synth import generate_corpus

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v",
           "z", "br", "dr", "kl", "st", "tr", "gr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou", "ei"]
_CODAS = ["", "n", "r", "l", "s", "k", "m", "x"]
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

NEWSROOM_STORIES = 1550
NEWSROOM_FILLER_POOL = 2400
NEWSROOM_ARTICLE_SENTENCES = 32
NEWSROOM_GRID = (49, 2048)


def _syllables(rng, n):
    return "".join(_ONSETS[rng.integers(len(_ONSETS))]
                   + _VOWELS[rng.integers(len(_VOWELS))]
                   + _CODAS[rng.integers(len(_CODAS))] for _ in range(n))


def _tag(index):
    """Letters-only encoding of an index, so generated words stay unique."""
    out = ""
    while True:
        out = _LETTERS[index % 26] + out
        index //= 26
        if index == 0:
            return out


def _unique_word(rng, index):
    return _syllables(rng, 2) + _tag(index)


def _story(rng, index, filler, filler_cdf):
    """One raw record: an article of NEWSROOM_ARTICLE_SENTENCES sentences,
    each naming one entity, and a caption naming two of them."""
    base = index * 8
    people = [(_unique_word(rng, base + 2 * j).capitalize() + " "
               + _unique_word(rng, base + 2 * j + 1).capitalize())
              for j in range(3)]
    place = _unique_word(rng, base + 6).capitalize()
    org = _unique_word(rng, base + 7).capitalize() + " Council"
    topic = _unique_word(rng, 10_000_000 + index)
    entities = ([(p, "PERSON") for p in people] + [(place, "GPE"),
                                                    (org, "ORG")])

    tokens = []
    annotations = []

    def words(n):
        picks = np.searchsorted(filler_cdf, rng.random(n), side="right")
        return [filler[min(i, len(filler) - 1)] for i in picks]

    for s in range(NEWSROOM_ARTICLE_SENTENCES):
        text, etype = entities[s % len(entities)] if s < 10 else \
            entities[int(rng.integers(len(entities)))]
        before = words(int(rng.integers(2, 6)))
        after = words(int(rng.integers(3, 7)))
        if s % 4 == 1:
            after[len(after) // 2] = topic
        start = len(tokens) + len(before)
        span = text.split()
        tokens += before + span + after + ["."]
        annotations.append({"text": text, "type": etype, "start": start,
                            "end": start + len(span)})

    cap_people = people[0].split()
    cap_place = place.split()
    cap = (cap_people + ["speaks", "about", "the", topic, "plan", "in"]
           + cap_place + words(int(rng.integers(1, 5))) + ["."])
    cap_entities = [
        {"text": people[0], "type": "PERSON", "start": 0,
         "end": len(cap_people)},
        {"text": place, "type": "GPE", "start": len(cap_people) + 6,
         "end": len(cap_people) + 6 + len(cap_place)},
    ]
    return {
        "id": f"newsroom-{index:05d}",
        "article": " ".join(tokens),
        "caption": " ".join(cap),
        "image": {"width": 640, "height": 480},
        "source": ("wire-a", "wire-b", "wire-c")[index % 3],
        "feature_path": f"features/newsroom-{index:05d}.bin",
        "entities": {"article": annotations, "caption": cap_entities},
    }


def make_newsroom(out_dir, seed, n_with_features):
    """Write raw.jsonl with NEWSROOM_STORIES stories; only the first
    n_with_features get a feature grid. Returns the raw.jsonl path."""
    rng = np.random.default_rng([seed, 1])
    filler = sorted({_syllables(rng, int(rng.integers(1, 4)))
                     for _ in range(NEWSROOM_FILLER_POOL)})
    rng.shuffle(filler)
    ranks = np.arange(1, len(filler) + 1, dtype=np.float64)
    filler_cdf = np.cumsum(ranks ** -1.05)
    filler_cdf /= filler_cdf[-1]

    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    path = os.path.join(out_dir, "raw.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(NEWSROOM_STORIES):
            rec = _story(rng, i, filler, filler_cdf)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            if i < n_with_features:
                k, d = NEWSROOM_GRID
                grid_seed = int(np.random.default_rng([seed, 2, i]).integers(2 ** 31))
                save_features(synthetic_features(k, d, grid_seed),
                              os.path.join(out_dir, rec["feature_path"]))
    return path


def make_desk(out_dir, seed, n_with_features):
    """The overfit criterion's corpus: 32 synth samples, 9 x 32 grids. The
    program's generator writes a grid for every sample, whatever
    n_with_features asks for."""
    path, _ = generate_corpus(out_dir, n=32, seed=seed, k_patches=9,
                              feat_dim=32)
    return path
