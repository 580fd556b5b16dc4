"""Reference quality rewards, recounted from scratch for parity tests, and the rewards
``metrics.step_rewards`` gives a transcript."""

from simtlab.metrics import PrefixBleu, step_rewards


def transcript_rewards(t, ref, cfg) -> list:
    """``metrics.step_rewards`` of transcript ``t`` against reference ``ref``."""
    return step_rewards(t.actions, t.hyp, t.delays, len(t.src), ref, cfg)


def smoothed_sentence_bleu(hyp, ref) -> float:
    """Sentence BLEU with add-one smoothing on orders above 1.

    The unigram precision is left unsmoothed so an empty or fully wrong
    hypothesis scores exactly 0 and an exact match scores exactly 100.
    """
    scorer = PrefixBleu(ref)
    for token in hyp:
        scorer.append(token)
    return scorer.score


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
