"""Reference n-gram counts and quality rewards, recounted from scratch for parity tests,
and the rewards ``metrics.step_rewards`` gives a transcript."""

from collections import Counter

from simtlab.errors import ContractError
from simtlab.metrics import MAX_ORDER, _bleu, step_rewards


def transcript_rewards(t, ref, cfg) -> list:
    """``metrics.step_rewards`` of transcript ``t`` alone against reference ``ref``."""
    return step_rewards([t], [ref], cfg)[0]


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def count_row(hyp, ref) -> list:
    """Clipped matches and totals per order, then the hypothesis and reference lengths:
    each order's hypothesis n-grams counted at most as often as the reference holds them."""
    hyp, ref = list(hyp), list(ref)
    if not ref:
        raise ContractError("BLEU: empty reference sentence")
    matches, totals = [], []
    for n in range(1, MAX_ORDER + 1):
        in_ref = _ngrams(ref, n)
        matches.append(sum(min(c, in_ref[g]) for g, c in _ngrams(hyp, n).items()))
        totals.append(max(len(hyp) - n + 1, 0))
    return matches + totals + [len(hyp), len(ref)]


def prefix_count_rows(hyp, ref) -> list:
    """``count_row`` of every non-empty prefix of ``hyp``, walking it once: a prefix's
    clipped matches of order n are the previous prefix's, plus one when the new n-gram
    occurred fewer times before it than in the reference."""
    in_ref = sum((_ngrams(ref, n) for n in range(1, MAX_ORDER + 1)), Counter())
    seen, matches, rows = Counter(), [0] * MAX_ORDER, []
    for k in range(1, len(hyp) + 1):
        for n in range(1, min(k, MAX_ORDER) + 1):
            gram = tuple(hyp[k - n:k])
            matches[n - 1] += seen[gram] < in_ref[gram]
            seen[gram] += 1
        rows.append(matches + [max(k - n + 1, 0) for n in range(1, MAX_ORDER + 1)]
                    + [k, len(ref)])
    return rows


def smoothed_sentence_bleu(hyp, ref) -> float:
    """Sentence BLEU with add-one smoothing on orders above 1.

    The unigram precision is left unsmoothed so an empty or fully wrong
    hypothesis scores exactly 0 and an exact match scores exactly 100.
    """
    return _bleu(count_row(hyp, ref), smooth=True)


def quality_rewards_by_recount(t, ref):
    """Rescore the committed prefix from scratch at every content WRITE of transcript ``t``."""
    rewards, prefix, prev = [], [], 0.0
    tokens = iter(t.hyp)
    for action in t.actions:
        reward = 0.0
        if action == "W":
            token = next(tokens)
            if token != "<eos>":
                prefix.append(token)
                score = smoothed_sentence_bleu(prefix, ref)
                reward, prev = score - prev, score
        rewards.append(reward)
    return rewards
