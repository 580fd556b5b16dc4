"""Reference quality rewards, recounted from scratch for parity tests."""

from simtlab.metrics import smoothed_sentence_bleu


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
