"""Quality and latency metrics, reward computation, and significance tests.

All functions here are pure; scores are on the conventional 0-100 BLEU
scale. Latency metrics operate on the delay profile g, where g[t] is the
number of source tokens read when content token t was committed.
One pass, ``_running_counts``, counts every BLEU score's n-grams. Summed
per sentence, they give corpus BLEU's and the bootstrap's count table
(``_count_table``); summed as they run, every prefix's counts, whose
smoothed BLEU gains are the per-commit rewards (``_prefix_rows``). One
formula scores the counts, in two forms: ``_bleu`` scores one count row
with Python floats (rewards and corpus BLEU), ``_bleu_rows`` scores every
row of a count array at once (the bootstrap's resamples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, check_field

MAX_ORDER = 4   # BLEU-4: n-grams of orders 1 to 4


@dataclass
class RewardConfig:
    """Reward hyperparameters: consecutive-wait and proportion targets.

    ``alpha`` weighs the consecutive-wait term, ``beta`` the hinge on the
    average proportion above ``d_star``. With alpha > 0 (the literal
    published setting) the wait term is a bonus; ROADMAP item 1 settles its
    sign. The proportion hinge is paid on the terminal step only.
    """

    alpha: float = 0.025
    beta: float = -1.0
    c_star: int = 2
    d_star: float = 0.3

    def __post_init__(self):
        check_field(self, "alpha", math.isfinite(self.alpha), "finite")
        check_field(self, "beta", math.isfinite(self.beta), "finite")
        check_field(self, "c_star", self.c_star >= 1, "at least 1")
        check_field(self, "d_star", 0.0 < self.d_star <= 1.0, "in (0, 1]")


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def _brevity_penalty(hyp_len, ref_len):
    return 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)


def _bleu(counts, smooth):
    """BLEU from a (summed) count row: clipped matches and totals per order, then the
    hypothesis and reference lengths.

    Unsmoothed, any zero match count gives 0. Smoothed adds one to the
    matches and totals of orders above 1, so only a zero unigram match
    count gives 0.
    """
    matches = counts[:MAX_ORDER]
    totals = counts[MAX_ORDER:2 * MAX_ORDER]
    hyp_len, ref_len = counts[2 * MAX_ORDER:]
    if matches[0] == 0 or (not smooth and 0 in matches):
        return 0.0
    log_precisions = [math.log(matches[0] / totals[0])]
    for m, c in zip(matches[1:], totals[1:]):
        log_precisions.append(math.log((m + 1.0) / (c + 1.0)) if smooth else math.log(m / c))
    return 100.0 * _brevity_penalty(hyp_len, ref_len) * math.exp(sum(log_precisions) / MAX_ORDER)


def _bleu_rows(counts) -> np.ndarray:
    """Unsmoothed ``_bleu`` of each row of an (R, 10) count array.

    Follows ``_bleu``'s arithmetic step for step, so a row agrees with
    ``_bleu(row, smooth=False)`` to the last bit or two (``np.exp`` and
    ``math.exp`` may round apart), and is exactly 0 wherever that is.
    """
    matches = counts[:, :MAX_ORDER]
    totals = counts[:, MAX_ORDER:2 * MAX_ORDER]
    hyp_len, ref_len = counts[:, 2 * MAX_ORDER], counts[:, 2 * MAX_ORDER + 1]
    scored = (matches > 0).all(axis=1)
    # unscored rows divide 1 by 1, so no 0/0 or log(0) is ever taken
    log_p = np.log(np.where(scored[:, None], matches, 1) / np.where(scored[:, None], totals, 1))
    log_sum = ((log_p[:, 0] + log_p[:, 1]) + log_p[:, 2]) + log_p[:, 3]  # as sum() adds
    short = scored & (hyp_len < ref_len)
    bp = np.ones(len(counts))
    bp[short] = np.exp(1.0 - ref_len[short] / hyp_len[short])
    return np.where(scored, 100.0 * bp * np.exp(log_sum / MAX_ORDER), 0.0)


def _running_counts(hyps, refs):
    """Running n-gram counts over the H hypothesis tokens, and the lengths.

    Row t of the (H + 1, 9) array sums the first t tokens' increments: per
    order, a clipped match and an n-gram ending at the token, then the token
    itself. An n-gram ending at a token matches when the hypothesis holds
    fewer earlier occurrences of it than the reference holds. An n-gram's id
    is a dense id of (its (n-1)-gram's id, its last token), and the 0-gram
    is the sentence pair, so one id is one n-gram of one pair and no key
    exceeds the number of tokens times the vocabulary size.
    """
    if any(len(r) == 0 for r in refs):
        raise ContractError("BLEU: empty reference sentence")
    sents = hyps + refs
    lens = np.array([len(s) for s in sents], dtype=np.int64)
    vocab = {}
    tokens = np.array([vocab.setdefault(t, len(vocab)) for s in sents for t in s], dtype=np.int64)
    n_hyp = int(lens[:len(hyps)].sum())  # the hypotheses' tokens come first
    left = np.repeat(np.cumsum(lens), lens) - np.arange(len(tokens))  # tokens to the sentence end
    increments = np.zeros((n_hyp + 1, 2 * MAX_ORDER + 1), dtype=np.int64)
    before = np.repeat(lens, lens)[:n_hyp] - left[:n_hyp]  # tokens before it in its sentence
    increments[1:, MAX_ORDER:2 * MAX_ORDER] = before[:, None] >= np.arange(MAX_ORDER)
    increments[1:, 2 * MAX_ORDER] = 1
    start = np.arange(len(tokens))  # where each n-gram starts, and its id
    gram = np.repeat(np.tile(np.arange(len(refs)), 2), lens)
    for order in range(MAX_ORDER):
        fits = left[start] > order
        start = start[fits]
        key = gram[fits] * len(vocab) + tokens[start + order]
        # occurrences of one key came in text order (they share one (n-1)-gram id), and a
        # stable sort keeps them so, the hypothesis's first
        by_key = np.argsort(key, kind="stable")
        key, start = key[by_key], start[by_key]
        new = np.ones(len(key), dtype=bool)  # the first occurrence of each key
        new[1:] = key[1:] != key[:-1]
        gram = np.cumsum(new) - 1
        in_hyp = start < n_hyp
        first = np.flatnonzero(new)
        # the hypothesis occurrence at sorted position i has i - first earlier ones, so it
        # matches when i is below its key's first position plus its reference count
        limit = first + np.bincount(gram[~in_hyp], minlength=len(first))
        at = np.flatnonzero(in_hyp)
        increments[start[at] + (order + 1), order] = at < limit[gram[at]]
    return np.cumsum(increments, axis=0, out=increments), lens[:len(hyps)], lens[len(hyps):]


def _count_table(hyps, refs) -> np.ndarray:
    """An (n, 10) int64 array: row i counts hypothesis ``hyps[i]`` against ``refs[i]``:
    clipped matches and totals per order, then the two lengths, as ``_bleu`` reads them."""
    running, hyp_len, ref_len = _running_counts(hyps, refs)
    end = np.cumsum(hyp_len)
    return np.hstack([running[end] - running[end - hyp_len], ref_len[:, None]])


def _prefix_rows(hyps, refs) -> np.ndarray:
    """An (H, 10) int64 array: per hypothesis token, the count row of the prefix ending there."""
    running, hyp_len, ref_len = _running_counts(hyps, refs)
    first = np.repeat(np.cumsum(hyp_len) - hyp_len, hyp_len)  # each token's sentence start
    return np.hstack([running[1:] - running[first], np.repeat(ref_len, hyp_len)[:, None]])


def _smoothed_gains(rows) -> list:
    """The change in smoothed BLEU at each prefix count row of one hypothesis, from 0."""
    scores = [0.0] + [_bleu(row, smooth=True) for row in rows]
    return [after - before for before, after in zip(scores, scores[1:])]


def corpus_bleu(hyps, refs) -> float:
    """Standard unsmoothed corpus BLEU-4 with aggregated counts."""
    hyps, refs = list(hyps), list(refs)
    if len(hyps) != len(refs):
        raise DataError(f"corpus_bleu: {len(hyps)} hypotheses vs {len(refs)} references")
    return _bleu(_count_table(hyps, refs).sum(axis=0).tolist(), smooth=False)


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

def quality_reward_trace(prefixes, ref):
    """Per-commit differences of smoothed BLEU over growing prefixes.

    ``prefixes`` holds the committed content prefix after each content
    WRITE; each must extend the one before by exactly one token. The deltas
    telescope to the final sentence score exactly.
    """
    hyp = []
    for prefix in prefixes:
        prefix = list(prefix)
        if len(prefix) != len(hyp) + 1:
            raise ContractError(
                f"quality_reward_trace: prefixes must grow by one token "
                f"({len(hyp)} -> {len(prefix)})")
        if prefix[:-1] != hyp:
            raise ContractError(
                f"quality_reward_trace: prefix {len(prefix)} does not extend the one before")
        hyp = prefix
    return _smoothed_gains(_prefix_rows([hyp], [list(ref)]).tolist())


def latency_reward(c_t: int, d_t: float, cfg: RewardConfig, is_terminal: bool) -> float:
    """Consecutive-wait term plus, on the terminal step, the hinge on the delay proportion."""
    if c_t < 0:
        raise ContractError("latency_reward: negative consecutive-wait count")
    sign = (c_t > cfg.c_star) - (c_t < cfg.c_star)
    reward = cfg.alpha * (sign + 1.0)
    if is_terminal:
        reward += cfg.beta * max(d_t - cfg.d_star, 0.0)
    return reward


def consecutive_wait_trace(actions):
    """Running consecutive-READ counter: +1 on READ, reset on WRITE."""
    trace = []
    c = 0
    for a in actions:
        if a == "R":
            c += 1
        elif a == "W":
            c = 0
        else:
            raise ContractError(f"consecutive_wait_trace: unknown action {a!r}")
        trace.append(c)
    return trace


def check_references(refs) -> None:
    """Raise ``DataError`` unless every reference is a list (or tuple) of string tokens."""
    for i, ref in enumerate(refs):
        if not (isinstance(ref, (list, tuple)) and all(isinstance(t, str) for t in ref)):
            raise DataError(f"step_rewards: the reference must be a list of tokens (episode {i})")


def step_rewards(transcripts, refs, cfg: RewardConfig) -> list:
    """The reward of every action of each finished episode, read from its transcript.

    Each transcript gives ``actions``, ``src``, ``hyp``, the committed
    tokens with a terminal EOS included, and ``delays``, the delay profile,
    so its first ``len(delays)`` commits are the content tokens. Each step
    earns the consecutive-wait term; a content commit adds its gain in
    smoothed BLEU against the episode's reference, and the last action,
    which ended the episode, the hinge on the average proportion (0 without
    content). One counting pass serves the batch, but each episode's counts
    are its own, so no reward depends on the other episodes.
    """
    transcripts, refs = list(transcripts), list(refs)
    if len(transcripts) != len(refs):
        raise DataError(f"step_rewards: {len(transcripts)} transcripts vs {len(refs)} references")
    check_references(refs)
    contents = [t.hyp[:len(t.delays)] for t in transcripts]
    out, rows = [], iter(_prefix_rows(contents, refs).tolist())
    for t, content in zip(transcripts, contents):
        gains = iter(_smoothed_gains([next(rows) for _ in content]))
        d_end = average_proportion(t.delays, len(t.src), len(t.delays)) if t.delays else 0.0
        rewards, last = [], len(t.actions) - 1
        for k, (action, c_t) in enumerate(zip(t.actions, consecutive_wait_trace(t.actions))):
            gain = next(gains, 0.0) if action == "W" else 0.0  # an EOS commit gains nothing
            rewards.append(gain + latency_reward(c_t, d_end, cfg, is_terminal=k == last))
        out.append(rewards)
    return out


# ---------------------------------------------------------------------------
# Latency metrics
# ---------------------------------------------------------------------------

def _delay_profile(name: str, g, src_len: int, tgt_len: int = None, ref_len: int = 1) -> list:
    """``g`` as a list, once it is a non-empty profile of values in [1, src_len], of
    ``tgt_len`` values when that is given, and ``ref_len`` is at least 1."""
    g = list(g)
    if not g:
        raise ContractError(f"{name}: empty delay profile")
    if tgt_len is not None and len(g) != tgt_len:
        raise ContractError(f"{name}: len(g)={len(g)} vs tgt_len={tgt_len}")
    if ref_len < 1:
        raise ContractError(f"{name}: ref_len={ref_len} must be at least 1")
    if min(g) < 1 or max(g) > src_len:
        raise ContractError(f"{name}: g values outside [1, src_len={src_len}]")
    return g


def average_proportion(g, src_len: int, tgt_len: int) -> float:
    """Mean fraction of source read at each commit: sum(g) / (|src| * |tgt|)."""
    g = _delay_profile("average_proportion", g, src_len, tgt_len)
    return sum(g) / (src_len * tgt_len)


def average_lagging(g, src_len: int, ref_len: int) -> float:
    """Tokens the writer lags behind an ideal proportional reader.

    Averages g[t] - (t - 1) / r over commits up to the first one made with
    the source fully read, where r = ref_len / src_len is the reference's
    rate, as in SimulEval, so an output that ends early scores no lower.
    """
    g = _delay_profile("average_lagging", g, src_len, ref_len=ref_len)
    r = ref_len / src_len
    tau = len(g)
    for t, gt in enumerate(g, start=1):
        if gt >= src_len:
            tau = t
            break
    return sum(g[t - 1] - (t - 1) / r for t in range(1, tau + 1)) / tau


def differentiable_average_lagging(g, src_len: int, ref_len: int) -> float:
    """Differentiable average lagging (Cherry and Foster 2019), which a burst of writes pays for.

    With g'[1] = g[1] and g'[t] = max(g[t], g'[t - 1] + src_len / ref_len),
    the mean over all commits of g'[t] - (t - 1) * src_len / ref_len.
    """
    g = _delay_profile("differentiable_average_lagging", g, src_len, ref_len=ref_len)
    step = src_len / ref_len
    total, raised = 0.0, g[0]
    for t, gt in enumerate(g):
        raised = max(gt, raised + step) if t else gt
        total += raised - t * step
    return total / len(g)


def delays_from_actions(actions, ends_with_eos: bool):
    """Rebuild the delay profile g from an action string.

    The terminal EOS commit, when present, is the final WRITE and carries
    no delay entry of its own.
    """
    g = []
    reads = 0
    for a in actions:
        if a == "R":
            reads += 1
        elif a == "W":
            g.append(reads)
        else:
            raise ContractError(f"delays_from_actions: unknown action {a!r}")
    if ends_with_eos:
        if not g:
            raise ContractError("delays_from_actions: EOS flagged but no WRITE present")
        g = g[:-1]
    return g


# ---------------------------------------------------------------------------
# Significance testing and analysis statistics
# ---------------------------------------------------------------------------

def bootstrap_significance(hyps_a, hyps_b, refs, n_resamples: int = 1000, rng=None) -> float:
    """Paired bootstrap p-value for "system B beats system A".

    Resamples sentence indices with replacement (resample size equals the
    corpus size) and reports the fraction of resamples in which A's corpus
    BLEU is at least B's. Identical systems therefore give p = 1.0. Each
    sentence is counted once; a resample sums the counts of the sentences
    it picks.

    All resamples are drawn by one ``rng.integers(0, n, size=(n_resamples,
    n))`` call, whose rows are the indices ``n_resamples`` successive
    ``integers(0, n, size=n)`` calls return, so a seeded ``rng`` gives the
    same p-value as drawing one resample at a time. A resample's summed
    counts are its per-sentence multiplicities times the count table, one
    exact integer product for both systems.
    """
    hyps_a, hyps_b, refs = list(hyps_a), list(hyps_b), list(refs)
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise DataError("bootstrap_significance: misaligned system outputs")
    if not refs:
        raise DataError("bootstrap_significance: no sentences")
    if n_resamples < 100:
        raise ContractError("bootstrap_significance: need at least 100 resamples")
    n = len(refs)
    both = _count_table(hyps_a + hyps_b, refs + refs)
    counts = np.hstack([both[:n], both[n:]])  # row i: system A's counts, then B's
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(0, n, size=(n_resamples, n))
    idx += n * np.arange(n_resamples)[:, None]  # resample r counts into row r
    picks = np.bincount(idx.ravel(), minlength=n_resamples * n).reshape(n_resamples, n)
    sums = picks @ counts
    width = 2 * MAX_ORDER + 2
    wins = np.count_nonzero(_bleu_rows(sums[:, :width]) >= _bleu_rows(sums[:, width:]))
    return int(wins) / n_resamples


def attention_norm_profile(attention_sequence) -> float:
    """Mean L2 distance between consecutive attention weight vectors."""
    seq = [np.asarray(w, dtype=np.float64) for w in attention_sequence]
    if len(seq) < 2:
        raise ContractError("attention_norm_profile: need at least 2 time steps")
    dim = seq[0].shape
    if any(w.shape != dim for w in seq):
        raise ContractError("attention_norm_profile: inconsistent vector lengths")
    return float(np.mean([np.linalg.norm(b - a) for a, b in zip(seq, seq[1:])]))


def lag_histogram(values, bin_edges):
    """Bin values into half-open [lo, hi) bins with counts and means.

    Returns a list of (lo, hi, count, mean) tuples; mean is None for empty
    bins. Values outside the edges are ignored.
    """
    edges = list(bin_edges)
    if len(edges) < 2:
        raise ContractError("lag_histogram: need at least two bin edges")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ContractError("lag_histogram: edges must be strictly increasing")
    values = list(values)
    if not values:
        raise ContractError("lag_histogram: no values")
    bins = []
    for lo, hi in zip(edges, edges[1:]):
        members = [v for v in values if lo <= v < hi]
        mean = float(np.mean(members)) if members else None
        bins.append((lo, hi, len(members), mean))
    return bins
