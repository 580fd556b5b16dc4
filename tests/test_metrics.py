import math
from collections import Counter

import numpy as np
import pytest

from simtlab import metrics as M
from simtlab.errors import ConfigError, ContractError, DataError
from simtlab.policies import Transcript

from recount import count_row, prefix_count_rows, smoothed_sentence_bleu


# ---------------------------------------------------------------------------
# smoothed sentence BLEU
# ---------------------------------------------------------------------------

def test_sentence_bleu_identity_is_exactly_100():
    assert smoothed_sentence_bleu("a b c d".split(), "a b c d".split()) == 100.0


def test_sentence_bleu_empty_hypothesis_is_zero():
    assert smoothed_sentence_bleu([], "a b".split()) == 0.0


def test_sentence_bleu_hand_computed_value():
    # p1=1, smoothed p2..p4 = 1, BP = exp(-1/3)
    score = smoothed_sentence_bleu("a b c".split(), "a b c d".split())
    assert abs(score - 100.0 * math.exp(-1.0 / 3.0)) <= 1e-9
    assert abs(score - 71.653) <= 1e-3


def test_sentence_bleu_empty_reference_raises():
    with pytest.raises(ContractError):
        smoothed_sentence_bleu("a".split(), [])


def test_sentence_bleu_100_iff_identical():
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(6)]
    for _ in range(300):
        ref = [vocab[i] for i in rng.integers(0, 6, size=rng.integers(1, 8))]
        hyp = [vocab[i] for i in rng.integers(0, 6, size=rng.integers(0, 8))]
        score = smoothed_sentence_bleu(hyp, ref)
        if hyp == ref:
            assert score == 100.0
        else:
            assert score < 100.0


# ---------------------------------------------------------------------------
# quality reward
# ---------------------------------------------------------------------------

def test_quality_trace_single_write_equals_sentence_bleu():
    ref = "a b c".split()
    deltas = M.quality_reward_trace([["a"]], ref)
    assert deltas == [smoothed_sentence_bleu(["a"], ref)]


def test_quality_trace_two_step_hand_case():
    ref = "a b".split()
    deltas = M.quality_reward_trace([["a"], ["a", "b"]], ref)
    first = smoothed_sentence_bleu(["a"], ref)
    assert abs(first - 100.0 * math.exp(-1.0)) <= 1e-9
    assert abs(deltas[0] - first) <= 1e-12
    assert abs(deltas[1] - (100.0 - first)) <= 1e-9


def test_quality_trace_telescopes_over_random_episodes():
    rng = np.random.default_rng(1)
    vocab = [f"w{i}" for i in range(10)]
    for _ in range(500):
        ref = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 9))]
        hyp = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 12))]
        prefixes = [hyp[:i + 1] for i in range(len(hyp))]
        total = sum(M.quality_reward_trace(prefixes, ref))
        assert abs(total - smoothed_sentence_bleu(hyp, ref)) <= 1e-9


def test_quality_trace_rejects_non_growing_prefixes():
    with pytest.raises(ContractError):
        M.quality_reward_trace([["a"], ["a", "b", "c"]], ["a", "b"])


def test_quality_trace_rejects_prefix_that_does_not_extend():
    with pytest.raises(ContractError, match="does not extend"):
        M.quality_reward_trace([["a"], ["b", "a"]], ["a", "b"])


def _trace_by_recount(prefixes, ref):
    """Reference: rescore every prefix from scratch."""
    deltas, prev = [], 0.0
    for prefix in prefixes:
        score = smoothed_sentence_bleu(prefix, ref)
        deltas.append(score - prev)
        prev = score
    return deltas


def test_quality_trace_equals_recount_of_every_prefix():
    rng = np.random.default_rng(8)
    for case in range(2000):
        # few word types, so n-grams repeat and clipping is exercised
        vocab = [f"w{i}" for i in range(2 + case % 4)]
        ref = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 12))]
        hyp = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 16))]
        prefixes = [hyp[:i + 1] for i in range(len(hyp))]
        assert M.quality_reward_trace(prefixes, ref) == _trace_by_recount(prefixes, ref)


# ---------------------------------------------------------------------------
# latency reward and consecutive wait
# ---------------------------------------------------------------------------

def test_latency_reward_below_target_is_zero():
    cfg = M.RewardConfig()
    assert M.latency_reward(1, 0.0, cfg, is_terminal=False) == 0.0


def test_latency_reward_above_target_hand_value():
    cfg = M.RewardConfig()
    assert abs(M.latency_reward(3, 0.0, cfg, is_terminal=False) - 0.05) <= 1e-12


def test_latency_reward_terminal_proportion_hinge():
    cfg = M.RewardConfig()
    assert abs(M.latency_reward(0, 0.5, cfg, is_terminal=True) - (-0.2)) <= 1e-12


def test_latency_reward_at_target_counts_once():
    cfg = M.RewardConfig()
    # sgn(0) + 1 = 1
    assert abs(M.latency_reward(2, 0.0, cfg, is_terminal=False) - 0.025) <= 1e-12


def test_consecutive_wait_traces():
    assert M.consecutive_wait_trace("RRW") == [1, 2, 0]
    assert M.consecutive_wait_trace("RWRWRW") == [1, 0, 1, 0, 1, 0]
    assert max(M.consecutive_wait_trace("RRRRW")) == 4


# ---------------------------------------------------------------------------
# step rewards of a finished episode
# ---------------------------------------------------------------------------

def _episode(actions, hyp, delays, src_len):
    t = Transcript(src=[f"s{i}" for i in range(src_len)], hyp=hyp, actions=actions,
                   delays=delays)
    t.validate()
    return t


def test_step_rewards_of_an_eos_terminated_episode():
    # CW 1 2 0 1 0 0 pays 0, alpha, 0, 0, 0, 0; "x" scores BLEU 100 * BP = 100 / e and
    # "x y" 100; the EOS step pays the hinge on AP = (2 + 3) / (3 * 2)
    [got] = M.step_rewards([_episode("RRWRWW", ["x", "y", "<eos>"], [2, 3], 3)], [["x", "y"]],
                           M.RewardConfig())
    first = 100.0 * math.exp(-1.0)
    want = [0.0, 0.025, first, 0.0, 100.0 - first, -(5.0 / 6.0 - 0.3)]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_step_rewards_of_an_episode_ended_at_the_cap():
    # one source token, so 2 * 1 + 5 = 7 content commits end it without EOS; only the last
    # matches: p1 = 1/7, smoothed p2..p4 = 1/7, 1/6, 1/5, BP = 1
    hyp = ["z"] * 6 + ["x"]
    cfg = M.RewardConfig(alpha=0.5, beta=-2.0, c_star=1, d_star=0.5)
    [got] = M.step_rewards([_episode("R" + "W" * 7, hyp, [1] * 7, 1)], [["x"]], cfg)
    # CW 1 is at c* = 1: alpha; AP = 1 pays beta * (1 - 0.5) on the last commit
    want = [0.5] + [0.0] * 6 + [100.0 * (7 * 7 * 6 * 5) ** -0.25 - 1.0]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_step_rewards_of_an_eos_only_episode():
    # no content: no BLEU, and the hinge on an empty delay profile pays 0
    [got] = M.step_rewards([_episode("RRRW", ["<eos>"], [], 3)], [["x"]], M.RewardConfig())
    assert np.allclose(got, [0.0, 0.025, 0.05, 0.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("ref", ["w13 w10", [["w13", "w10"]], ["w13", 10]],
                         ids=["string", "batch", "non-string-token"])
def test_step_rewards_rejects_a_reference_that_is_not_a_token_list(ref):
    good = _episode("RW", ["w13"], [1], 1)
    with pytest.raises(DataError, match="reference must be a list of tokens"):
        M.step_rewards([good, good], [["w13"], ref], M.RewardConfig())


def test_step_rewards_rejects_transcripts_unlike_references():
    with pytest.raises(DataError, match="1 transcripts vs 2 references"):
        M.step_rewards([_episode("RW", ["w13"], [1], 1)], [["w13"], ["w13"]], M.RewardConfig())


def test_step_rewards_do_not_depend_on_the_batch():
    ref = ["a", "b", "a", "c"]
    batch = [
        (_episode("RWRWRWRWW", ["a", "b", "a", "c", "<eos>"], [1, 2, 3, 4], 4), ref),
        (_episode("RWWRWW", ["a", "a", "b", "<eos>"], [1, 1, 2], 2), ref),  # ref repeated
        (_episode("RRRW", ["<eos>"], [], 3), ["a"]),  # EOS only
        (_episode("R" + "W" * 7, ["a"] * 7, [1] * 7, 1), ["a", "a"]),  # ended at the cap
        (_episode("RRWWWWW", ["a", "b", "a", "c", "<eos>"], [2, 2, 2, 2], 2),
         ref[::-1]),  # reversed
    ]
    cfg = M.RewardConfig()
    alone = [M.step_rewards([t], [r], cfg)[0] for t, r in batch]
    assert M.step_rewards(*zip(*batch), cfg) == alone
    order = np.random.default_rng(5).permutation(len(batch)).tolist()
    assert M.step_rewards(*zip(*[batch[i] for i in order]), cfg) == [alone[i] for i in order]
    assert any(g < 0 for g in alone[4])  # the reversed reference makes a commit lose BLEU


# ---------------------------------------------------------------------------
# AVP / AVL
# ---------------------------------------------------------------------------

def test_average_proportion_consecutive_is_exactly_one():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        assert M.average_proportion([n] * m, n, m) == 1.0


def test_average_proportion_hand_values():
    assert M.average_proportion([1, 2, 3], 3, 3) == 6 / 9
    assert M.average_proportion([2, 3, 4, 4], 4, 4) == 13 / 16


def test_average_proportion_empty_raises():
    with pytest.raises(ContractError):
        M.average_proportion([], 3, 0)


def test_average_lagging_wait2_equal_lengths():
    assert M.average_lagging([2, 3, 4, 4], 4, 4) == 2.0


def test_average_lagging_consecutive():
    assert M.average_lagging([3, 3, 3], 3, 3) == 3.0


def test_average_lagging_longer_target_near_zero():
    # direct evaluation of the formula; demonstrates sub-token lags
    assert M.average_lagging([1, 1, 1, 1, 2, 2, 3, 4], 4, 8) == 0.125


def test_average_lagging_can_be_negative():
    assert M.average_lagging([1, 1, 1, 1, 1, 1, 2, 4], 4, 8) < 0.0


_BAD_PROFILES = {"empty": ([], 3, 0), "empty-source": ([1, 2], 0, 2), "below-one": ([0, 1], 3, 2),
                 "past-source": ([5, 6], 3, 2)}
_LAGS = ["average_lagging", "differentiable_average_lagging"]


@pytest.mark.parametrize("metric, g, src_len, third", [
    pytest.param(metric, *args, id=f"{metric}-{case}")
    for metric in _LAGS + ["average_proportion"] for case, args in _BAD_PROFILES.items()] + [
    # AP's third argument is the hypothesis length; AL's and DAL's is the reference's
    pytest.param("average_proportion", [1, 2], 3, 3, id="average_proportion-tgt-len-unlike-g")] + [
    pytest.param(metric, [1, 2], 3, 0, id=f"{metric}-ref-len-below-one") for metric in _LAGS])
def test_latency_metrics_reject_bad_delay_profiles(metric, g, src_len, third):
    # AL used to divide by zero at src_len=0 and score [0, 1] as -0.25, [5, 6] as 5.0
    with pytest.raises(ContractError, match=metric):
        getattr(M, metric)(g, src_len, third)


def test_burst_writes_pay_under_dal_only():
    # read a window of 3, write its 3 tokens at once: AL rewards the burst, DAL does not
    for n in (3, 6, 9, 12):
        burst = [min(3 * ((t - 1) // 3 + 1), n) for t in range(1, n + 1)]
        wait3 = [min(t + 2, n) for t in range(1, n + 1)]
        assert M.differentiable_average_lagging(burst, n, n) == 3.0
        assert M.differentiable_average_lagging(wait3, n, n) == 3.0
        if n > 3:
            assert M.average_lagging(burst, n, n) < M.average_lagging(wait3, n, n)
    assert M.average_lagging([3, 3, 3, 6, 6, 6], 6, 6) == 9 / 4


def test_an_early_eos_does_not_lower_al():
    # wait-1 on 4 source and 4 reference tokens, stopped after 2 writes
    assert M.average_lagging([1, 2], 4, 4) == M.average_lagging([1, 2, 3, 4], 4, 4) == 1.0
    assert M.average_lagging([1, 2], 4, 2) == 0.5  # the rate of the 2-token hypothesis
    assert M.differentiable_average_lagging([1, 2], 4, 4) == 1.0


def test_dal_on_unequal_lengths_by_hand():
    # src 4, ref 2: step 2; g' = [2, 4, 6], minus (0, 2, 4): mean of [2, 2, 2]
    assert M.differentiable_average_lagging([2, 3, 4], 4, 2) == 2.0
    # src 2, ref 4: step 0.5; g' = [1, 1.5, 2, 2.5], minus (0, .5, 1, 1.5): all 1
    assert M.differentiable_average_lagging([1, 1, 2, 2], 2, 4) == 1.0


def test_wait_k_lagging_is_k_for_equal_lengths():
    for n in range(2, 21):
        for k in range(1, min(n, 11)):
            g = [min(t + k - 1, n) for t in range(1, n + 1)]
            assert M.average_lagging(g, n, n) == float(k)
            assert M.differentiable_average_lagging(g, n, n) == float(k)


def test_delay_reconstruction_matches_recorded():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n_src = int(rng.integers(1, 12))
        actions = []
        reads = 0
        writes = 0
        g = []
        # random legal interleaving, first action READ
        while reads < n_src or writes == 0:
            if reads == 0 or (reads < n_src and rng.random() < 0.5):
                actions.append("R")
                reads += 1
            else:
                actions.append("W")
                g.append(reads)
                writes += 1
        ends_eos = bool(rng.integers(0, 2))
        if ends_eos:
            actions.append("W")
        assert M.delays_from_actions(actions, ends_eos) == g


# ---------------------------------------------------------------------------
# corpus BLEU with independent oracle
# ---------------------------------------------------------------------------

def _oracle_corpus_bleu(hyps, refs):
    """Naive recount of BLEU-4 used only as a cross-check."""
    total_m = [0, 0, 0, 0]
    total_c = [0, 0, 0, 0]
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for hyp, ref in zip(hyps, refs):
        for n in (1, 2, 3, 4):
            hgrams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            rgrams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            remaining = list(rgrams)
            m = 0
            for gram in hgrams:
                if gram in remaining:
                    remaining.remove(gram)
                    m += 1
            total_m[n - 1] += m
            total_c[n - 1] += len(hgrams)
    if hyp_len == 0 or 0 in total_m:
        return 0.0
    log_p = sum(math.log(m / c) for m, c in zip(total_m, total_c)) / 4
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p)


def test_corpus_bleu_identity():
    refs = [s.split() for s in ("a b c d", "x y z w v")]
    assert M.corpus_bleu(refs, refs) == 100.0


def test_corpus_bleu_all_empty_hyps():
    refs = [s.split() for s in ("a b", "c d")]
    assert M.corpus_bleu([[], []], refs) == 0.0


def test_corpus_bleu_matches_brute_force_oracle():
    hyps = ["a b c".split(), "a b c d".split()]
    refs = ["a b c d".split(), "a b c d".split()]
    assert abs(M.corpus_bleu(hyps, refs) - _oracle_corpus_bleu(hyps, refs)) <= 1e-9
    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(8)]
    for _ in range(50):
        refs = [[vocab[i] for i in rng.integers(0, 8, size=rng.integers(4, 10))]
                for _ in range(5)]
        hyps = [[vocab[i] for i in rng.integers(0, 8, size=rng.integers(4, 10))]
                for _ in range(5)]
        assert abs(M.corpus_bleu(hyps, refs) - _oracle_corpus_bleu(hyps, refs)) <= 1e-9


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped(hyp, ref, n):
    hyp_counts, ref_counts = _ngram_counts(hyp, n), _ngram_counts(ref, n)
    return (sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()),
            max(len(hyp) - n + 1, 0))


def _per_order_sentence_bleu(hyp, ref):
    """Reference: per-order recount with the scorer's arithmetic."""
    if not hyp:
        return 0.0
    log_p = []
    for n in range(1, 5):
        m, c = _clipped(hyp, ref, n)
        if n == 1:
            if m == 0:
                return 0.0
            log_p.append(math.log(m / c))
        else:
            log_p.append(math.log((m + 1.0) / (c + 1.0)))
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return 100.0 * bp * math.exp(sum(log_p) / 4)


def _per_order_corpus_bleu(hyps, refs):
    """Reference: per-order recount summed over the corpus."""
    matches, totals = [0] * 4, [0] * 4
    for hyp, ref in zip(hyps, refs):
        for n in range(1, 5):
            m, c = _clipped(hyp, ref, n)
            matches[n - 1] += m
            totals[n - 1] += c
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0 or any(m == 0 for m in matches):
        return 0.0
    log_prec = sum(math.log(m / c) for m, c in zip(matches, totals)) / 4
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_prec)


def test_bleu_scores_equal_per_order_recount():
    rng = np.random.default_rng(9)
    for case in range(500):
        vocab = [f"w{i}" for i in range(2 + case % 5)]
        refs = [[vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 10))]
                for _ in range(4)]
        hyps = [[vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 10))]
                for _ in range(4)]
        assert M.corpus_bleu(hyps, refs) == _per_order_corpus_bleu(hyps, refs)
        for hyp, ref in zip(hyps, refs):
            assert smoothed_sentence_bleu(hyp, ref) == _per_order_sentence_bleu(hyp, ref)


def _split(rows, hyps) -> list:
    """The rows of ``_prefix_rows`` as one list per hypothesis."""
    ends = np.cumsum([len(h) for h in hyps])
    return [part.tolist() for part in np.split(rows, ends[:-1])] if hyps else []


def test_count_table_and_prefix_rows_equal_recount():
    rng = np.random.default_rng(12)
    for case in range(600):
        vocab = [f"w{i}" for i in range(1 + case % 8)]  # few types: n-grams repeat, clipping binds
        n = 1 if case % 10 == 0 else int(rng.integers(2, 7))
        refs = [[vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 9))]
                for _ in range(n)]
        hyps = [[vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 14))]
                for _ in range(n)]
        refs[0] = refs[0][:1] if case % 3 == 0 else refs[0]
        hyps[-1] = [] if case % 4 == 0 else hyps[-1]
        table, rows = M._count_table(hyps, refs), M._prefix_rows(hyps, refs)
        assert table.dtype == rows.dtype == np.int64
        assert table.tolist() == [count_row(h, r) for h, r in zip(hyps, refs)]
        assert _split(rows, hyps) == [[count_row(h[:k], r) for k in range(1, len(h) + 1)]
                                      for h, r in zip(hyps, refs)]
    assert M._count_table([], []).shape == (0, 2 * M.MAX_ORDER + 2)
    assert M._prefix_rows([], []).shape == (0, 2 * M.MAX_ORDER + 2)


def test_count_table_of_a_vocabulary_past_the_fourth_root_of_int64():
    # A key packing four token ids in base 70,001 passes 2 ** 64 and wraps; the first
    # hypothesis makes every token's id its value, so the 4-grams (0, 0, 0, 0) and the
    # base-70,001 digits of 2 ** 64 would then share one key and count a false match.
    size = 70_001
    wrapped = [2 ** 64 // size ** k % size for k in (3, 2, 1, 0)]
    types = np.random.default_rng(13).permutation(size).tolist()
    refs = [[0, 1, 2], wrapped] + [types[i:i + 50] for i in range(0, size, 50)]
    hyps = [list(range(size)), [0, 0, 0, 0]] + [r[10:40] + r[:20] + types[::-7][:5]
                                                 for r in refs[2:]]
    table = M._count_table(hyps, refs)
    assert table.tolist() == [count_row(h, r) for h, r in zip(hyps, refs)]
    assert _split(M._prefix_rows(hyps, refs), hyps) == [prefix_count_rows(h, r)
                                                        for h, r in zip(hyps, refs)]
    assert table[1, :M.MAX_ORDER].tolist() == [0, 0, 0, 0]
    assert table[2:, M.MAX_ORDER - 1].sum() > 0


def test_corpus_bleu_empty_reference_raises():
    with pytest.raises(ContractError, match="empty reference"):
        M.corpus_bleu([["a"]], [[]])


def test_corpus_bleu_of_no_sentences_is_zero():
    assert M.corpus_bleu([], []) == 0.0


def test_corpus_bleu_count_mismatch():
    with pytest.raises(DataError):
        M.corpus_bleu([["a"]], [["a"], ["b"]])


# ---------------------------------------------------------------------------
# bootstrap significance
# ---------------------------------------------------------------------------

def _toy_systems(rng, n=40):
    vocab = [f"w{i}" for i in range(12)]
    refs = [[vocab[i] for i in rng.integers(0, 12, size=6)] for _ in range(n)]
    good = [r[:5] + [vocab[rng.integers(0, 12)]] for r in refs]
    bad = [r[:2] + [vocab[rng.integers(0, 12)] for _ in range(4)] for r in refs]
    return refs, good, bad


def test_bootstrap_identical_systems_not_significant():
    rng = np.random.default_rng(5)
    refs, good, _ = _toy_systems(rng)
    p = M.bootstrap_significance(good, good, refs, n_resamples=200,
                                 rng=np.random.default_rng(0))
    assert 0.5 <= p <= 1.0
    assert p > 0.05


def test_bootstrap_dominant_system_significant():
    rng = np.random.default_rng(6)
    refs, good, bad = _toy_systems(rng)
    p = M.bootstrap_significance(bad, good, refs, n_resamples=300,
                                 rng=np.random.default_rng(0))
    assert p <= 0.05


def test_bootstrap_fixed_seed_is_deterministic():
    rng = np.random.default_rng(7)
    refs, good, bad = _toy_systems(rng)
    p1 = M.bootstrap_significance(bad, good, refs, n_resamples=150,
                                  rng=np.random.default_rng(42))
    p2 = M.bootstrap_significance(bad, good, refs, n_resamples=150,
                                  rng=np.random.default_rng(42))
    assert p1 == p2


def test_bootstrap_misaligned_inputs():
    with pytest.raises(DataError):
        M.bootstrap_significance([["a"]], [["a"], ["b"]], [["a"], ["b"]])


def test_bootstrap_no_sentences_raises():
    with pytest.raises(DataError):
        M.bootstrap_significance([], [], [])


class _NoDraws:
    def integers(self, *args, **kwargs):
        raise AssertionError("resampled before checking the references")


def test_bootstrap_empty_reference_raises_before_resampling():
    with pytest.raises(ContractError):
        M.bootstrap_significance([["a"], ["b"]], [["a"], ["b"]], [["a"], []],
                                 rng=_NoDraws())


def _bootstrap_by_recount(hyps_a, hyps_b, refs, n_resamples, rng):
    """Reference: corpus BLEU of both systems on every resample."""
    n, wins = len(refs), 0
    for _ in range(n_resamples):
        idx = rng.integers(0, n, size=n)
        score_a = M.corpus_bleu([hyps_a[i] for i in idx], [refs[i] for i in idx])
        score_b = M.corpus_bleu([hyps_b[i] for i in idx], [refs[i] for i in idx])
        wins += score_a >= score_b
    return wins / n_resamples


def test_bootstrap_equals_corpus_bleu_on_every_resample():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        refs, good, bad = _toy_systems(rng, n=12)
        # two random mixtures of the same systems are close, so p is not 0 or 1
        mix_a, mix_b = ([g if rng.random() < 0.5 else b for g, b in zip(good, bad)]
                        for _ in range(2))
        for a, b in ((mix_a, mix_b), (mix_b, mix_a), (bad, good)):
            p = M.bootstrap_significance(a, b, refs, n_resamples=100,
                                         rng=np.random.default_rng(seed))
            assert p == _bootstrap_by_recount(a, b, refs, 100, np.random.default_rng(seed))
        assert 0.0 < M.bootstrap_significance(mix_a, mix_b, refs, n_resamples=100,
                                              rng=np.random.default_rng(seed)) < 1.0


@pytest.mark.parametrize("n", [1, 13, 200])
def test_bootstrap_equals_recount_across_corpus_sizes(n):
    rng = np.random.default_rng(n)
    refs, good, bad = _toy_systems(rng, n=n)
    mix_a, mix_b = ([g if rng.random() < 0.5 else b for g, b in zip(good, bad)]
                    for _ in range(2))
    p = M.bootstrap_significance(mix_a, mix_b, refs, n_resamples=100,
                                 rng=np.random.default_rng(3))
    assert p == _bootstrap_by_recount(mix_a, mix_b, refs, 100, np.random.default_rng(3))


class _RecordingRng:
    def __init__(self, seed):
        self.calls, self._rng = [], np.random.default_rng(seed)

    def integers(self, low, high, size):
        self.calls.append((low, high, size))
        return self._rng.integers(low, high, size=size)


def test_bootstrap_draws_every_resample_in_one_call():
    refs, good, bad = _toy_systems(np.random.default_rng(8), n=13)
    rng = _RecordingRng(0)
    p = M.bootstrap_significance(bad, good, refs, n_resamples=250, rng=rng)
    assert rng.calls == [(0, 13, (250, 13))]
    assert p == _bootstrap_by_recount(bad, good, refs, 250, np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 13, 200])
def test_bootstrap_identical_systems_give_exactly_one(n):
    refs, good, bad = _toy_systems(np.random.default_rng(n), n=n)
    for hyps in (good, bad, [[] for _ in refs]):
        p = M.bootstrap_significance(hyps, hyps, refs, n_resamples=100)
        assert p == 1.0 and type(p) is float


def test_bleu_rows_match_the_scalar_scorer():
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(3000):
        hyp_len = int(rng.integers(0, 60))
        totals = [max(hyp_len - k, 0) for k in range(4)]
        matches = [int(rng.integers(0, t + 1)) for t in totals]
        if rng.random() < 0.2:  # a zero match count in one order
            matches[int(rng.integers(0, 4))] = 0
        rows.append(matches + totals + [hyp_len, int(rng.integers(1, 60))])
    rows.append([0] * 8 + [0, 5])  # empty hypothesis
    rows.append([4, 3, 2, 1, 4, 3, 2, 1, 4, 4])  # exact match
    got = M._bleu_rows(np.array(rows, dtype=np.int64))
    want = np.array([M._bleu(row, smooth=False) for row in rows])
    assert np.array_equal(got == 0.0, want == 0.0)
    assert (want == 0.0).sum() > 500 and (want > 0.0).sum() > 500
    assert np.all(np.abs(got - want) <= 1e-12 * want)


# ---------------------------------------------------------------------------
# analysis statistics
# ---------------------------------------------------------------------------

def test_attention_norm_constant_is_zero():
    assert M.attention_norm_profile([[0.25, 0.75]] * 5) == 0.0


def test_attention_norm_alternating_one_hot():
    seq = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    assert abs(M.attention_norm_profile(seq) - math.sqrt(2)) <= 1e-12


def test_attention_norm_uniform_to_one_hot():
    seq = [[0.25] * 4, [1.0, 0.0, 0.0, 0.0]]
    assert abs(M.attention_norm_profile(seq) - math.sqrt(0.75)) <= 1e-12
    assert abs(M.attention_norm_profile(seq) - 0.8660) <= 1e-4


def test_attention_norm_needs_two_steps():
    with pytest.raises(ContractError):
        M.attention_norm_profile([[1.0, 0.0]])


def test_lag_histogram_counts_and_means():
    bins = M.lag_histogram([1, 1, 1], [0, 2, 4])
    assert bins == [(0, 2, 3, 1.0), (2, 4, 0, None)]


def test_lag_histogram_bimodal_regions():
    values = [-1.25, -0.25, 3.0, 3.1]
    bins = M.lag_histogram(values, [-2, -1, 0, 1, 2, 3, 4])
    counts = [b[2] for b in bins]
    assert counts == [1, 1, 0, 0, 0, 2]
    occupied = [i for i, c in enumerate(counts) if c]
    assert len(occupied) >= 2 and occupied[0] <= 1 and occupied[-1] == 5


def test_lag_histogram_boundary_goes_right():
    bins = M.lag_histogram([2.0], [0, 2, 4])
    assert bins[0][2] == 0 and bins[1][2] == 1


def test_lag_histogram_validates_edges():
    with pytest.raises(ContractError):
        M.lag_histogram([1.0], [0])
    with pytest.raises(ContractError):
        M.lag_histogram([1.0], [0, 0, 1])


def test_reward_config_validation():
    with pytest.raises(ConfigError):
        M.RewardConfig(c_star=0)
    with pytest.raises(ConfigError):
        M.RewardConfig(d_star=0.0)


@pytest.mark.parametrize("field, value", [("c_star", 0), ("c_star", -1), ("d_star", 0.0),
                                          ("d_star", 1.5), ("d_star", -0.2)])
def test_reward_config_error_names_the_field(field, value):
    with pytest.raises(ConfigError, match=rf"RewardConfig.{field} must .*, got {value}"):
        M.RewardConfig(**{field: value})
    M.RewardConfig(c_star=1, d_star=1.0)


def test_bleu_avp_selection_ordering_scale_invariant():
    evals = [(50.0, 0.7), (52.0, 0.8), (40.0, 0.5)]
    ratios_100 = [b / a for b, a in evals]
    ratios_unit = [(b / 100.0) / a for b, a in evals]
    assert np.argmax(ratios_100) == np.argmax(ratios_unit)
