"""The benchmark's own implementations of the rules it checks the program
against. They are written from the documented rules, not from the program's
code, and `test_oracles.py` pins each to hand-computed cases."""

from __future__ import annotations

import math

ALPHA = 0.7          # beam length-normalisation exponent
LOG_FLOOR = 1e-12    # probabilities are clamped here before the log
DIST_TOL = 1e-4      # |sum - 1| allowed for a float32 distribution
CAUSAL_RTOL = 1e-6   # relative NLL gap allowed between the two code paths;
                     # float32 rounding leaves < 1e-7, a non-causal mask > 5e-6


def tag_clean(tokens, mentions, tag_types):
    """Tag-Cleaning as documented: a category tag (`PERSON_`, ...) becomes the
    words of the same-category article entity with the highest frequency
    (frequency = how many mentions share its surface text); ties go to the
    earliest start; a tag with no same-category entity stays and counts as
    unresolved.

    mentions: (text, etype, start) triples; tag_types: tag token -> category.
    Returns (tokens, n_unresolved).
    """
    freq = {}
    for text, _, _ in mentions:
        freq[text] = freq.get(text, 0) + 1
    out, unresolved = [], 0
    for tok in tokens:
        etype = tag_types.get(tok)
        if etype is None:
            out.append(tok)
            continue
        best = None
        for text, mtype, start in mentions:
            if mtype != etype:
                continue
            if best is None or freq[text] > freq[best[0]] or (
                    freq[text] == freq[best[0]] and start < best[2]):
                best = (text, mtype, start)
        if best is None:
            out.append(tok)
            unresolved += 1
        else:
            out.extend(best[0].split())
    return out, unresolved


def lcs_len(a, b):
    """Longest common subsequence by the full dynamic-programming table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_l(pairs, beta=1.2):
    """Mean ROUGE-L F-measure over (candidate, reference) token lists."""
    total = 0.0
    for cand, ref in pairs:
        lcs = lcs_len(cand, ref)
        if lcs == 0:
            continue
        p, r = lcs / len(cand), lcs / len(ref)
        total += (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
    return total / len(pairs)


def normalized_logprob(seq, eos_id, dist_of, alpha=ALPHA):
    """Length-normalised log-probability of `seq` followed by EOS, where
    dist_of(prefix_without_bos) gives the next-token distribution."""
    lp = 0.0
    for t, tok in enumerate(list(seq) + [eos_id]):
        p = float(dist_of(list(seq[:t]))[tok])
        lp += math.log(max(p, LOG_FLOOR))
    return lp / (max(len(seq), 1) ** alpha)


def distribution_ok(dist):
    """Non-negative and summing to 1 within DIST_TOL (summed in float64)."""
    values = [float(x) for x in dist]
    return min(values) >= 0.0 and abs(math.fsum(values) - 1.0) <= DIST_TOL
