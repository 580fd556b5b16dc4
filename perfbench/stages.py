"""Set-up and the three pipeline stages, driven through simtlab's public API.

The stages share one closed loop from one caller: a training step, an episode
batch or a test sentence starts when the previous operation has ended (see
``run_stages``). Every operation is counted as attempted, and as failed when
it raises or yields a non-finite loss, reward, log-prob or gradient norm.
Outputs that break an invariant are recorded as problems and make the run
incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass, replace
from statistics import median
from time import perf_counter

import numpy as np

from simtlab import autodiff as ad
from simtlab.agent import (AgentConfig, AgentGreedyPolicy, AgentNetwork, BaselineNetwork,
                           RLTrainConfig, collect_trajectories, reinforce_update)
from simtlab.checkpoint import file_sha256
from simtlab.data import SPLITS, load_split, make_synthetic_dataset
from simtlab.environment import (EnvConfig, EnvModel, EnvTrainConfig, output_cap,
                                 teacher_forced_loss, train_consecutive, validation_bleu)
from simtlab.features import load_features
from simtlab.metrics import (average_lagging, average_proportion, bootstrap_significance,
                             consecutive_wait_trace, corpus_bleu, delays_from_actions)
from simtlab.optim import AdamState, adam_step
from simtlab.policies import ConsecutivePolicy, Policy, WaitKPolicy, simulate
from simtlab.vocab import EOS, Vocabulary

from tracing import p90


def fingerprint(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def throughput(done) -> float:
    """Work per second over (work, seconds) pairs: total work over total time.

    The machine's speed drifts over seconds; the ratio of totals averages
    the drift, where a median of per-operation rates jumps between levels.
    """
    work, seconds = (sum(col) for col in zip(*done))
    return work / seconds


class Run:
    """Counters, metrics and behaviour record of one benchmark run."""

    def __init__(self, workload, seed: int, tracer, trace: bool, workdir):
        self.workload = workload
        self.sizes = workload.sizes
        self.seed = seed
        self.tracer = tracer
        self.trace = trace
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.end_to_end = {}
        self.per_layer = {}
        self.behaviour = {}

    def rng(self, stream: int):
        """An independent generator per use, derived from the workload seed."""
        return np.random.default_rng([self.seed, stream])

    def operation(self, fn) -> bool:
        """Run one operation; it fails when it raises or returns False."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.failed += not ok
        return ok

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def layer_times(self, base: str, unit: str, scale: float, seconds) -> None:
        """Median and p90 of warm call durations as per-layer metrics."""
        if not seconds:
            self.problems.append(f"no timings recorded for {base}")
            return
        self.per_layer[f"{base}.{unit}"] = (median(seconds) * scale, unit)
        self.per_layer[f"{base}.p90_{unit}"] = (p90(seconds) * scale, unit)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    pre_model: EnvModel
    pre_opt: AdamState
    pre_pairs: list           # (src ids + EOS, tgt ids) of the pretrain corpus
    env: EnvModel
    env_history: list
    env_sha256: str
    splits: dict              # split -> [(src tokens, tgt tokens)]
    features: dict            # split -> [FeatureSet] or None


def build_setup(run: Run, index: int) -> Setup:
    """Synthetic data, feature files, environment pretraining, checkpoint round trip."""
    w, sz, span = run.workload, run.sizes, run.tracer.span
    root = run.workdir / f"setup{index}"

    with span("data.make_synthetic_dataset", setup=index, role="pretrain"):
        make_synthetic_dataset(sz.pretrain_task, root / "pretrain", run.seed)
    with span("data.load_split", setup=index):
        pairs = load_split(root / "pretrain", "train")
    with span("vocab.from_corpus", setup=index):
        src_vocab = Vocabulary.from_corpus(s for s, _ in pairs)
        tgt_vocab = Vocabulary.from_corpus(t for _, t in pairs)
    with span("vocab.encode", setup=index):
        pre_pairs = [(src_vocab.encode(s) + [EOS], tgt_vocab.encode(t)) for s, t in pairs]
    pre_model = EnvModel(src_vocab, tgt_vocab,
                         EnvConfig(emb_dim=sz.pretrain_emb, hid_dim=sz.pretrain_hid), run.rng(1))
    pre_opt = AdamState(pre_model.named_tensors(), lr=EnvTrainConfig().lr)

    env_dir = root / "env"
    with span("data.make_synthetic_dataset", setup=index, role="env"):
        make_synthetic_dataset(w.env_task, env_dir, run.seed)
    splits, features = {}, {}
    for split in SPLITS:
        with span("data.load_split", setup=index, split=split):
            splits[split] = load_split(env_dir, split)
        features[split] = None
        if w.env_task.task == "ambiguous":
            with span("features.load_features", setup=index, split=split):
                features[split] = load_features(env_dir / f"{split}.feat")
    with span("environment.train_consecutive", setup=index):
        env, history = train_consecutive(splits["train"], splits["valid"],
                                         replace(w.env_train, seed=run.seed),
                                         features["train"], features["valid"])
    prefix = root / "env_model"
    with span("checkpoint.save", setup=index):
        env.save(prefix)
    with span("checkpoint.load", setup=index):
        env = EnvModel.load(prefix)
    return Setup(pre_model, pre_opt, pre_pairs, env, history,
                 file_sha256(prefix.with_suffix(".ckpt")), splits, features)


def setup(run: Run) -> Setup:
    """Set up ``SETUP_REPEATS`` times; report the median time, keep the last."""
    times, shas = [], []
    for index in range(SETUP_REPEATS):
        t0 = perf_counter()
        built = build_setup(run, index)
        times.append(perf_counter() - t0)
        shas.append(built.env_sha256)
    run.check(len(set(shas)) == 1, "set-up is not deterministic: environment checkpoints differ")
    run.end_to_end["setup_s"] = (median(times), "s")
    if run.trace:
        durations = run.tracer.durations
        run.per_layer["data.make_synthetic_dataset.s"] = (
            median(durations("data.make_synthetic_dataset", role="env")), "s")
        run.per_layer["environment.train_consecutive.s"] = (
            median(durations("environment.train_consecutive")), "s")
        run.per_layer["checkpoint.save.ms"] = (median(durations("checkpoint.save")) * 1e3, "ms")
        run.per_layer["checkpoint.load.ms"] = (median(durations("checkpoint.load")) * 1e3, "ms")
    best = max(h["val_bleu"] for h in built.env_history)
    run.behaviour["setup"] = {"env_ckpt_sha256": built.env_sha256, "env_val_bleu": best,
                              "env_epochs": len(built.env_history)}
    return built


def _batches(pairs, size: int, rng):
    """Full batches of a fresh permutation per epoch, forever."""
    while True:
        perm = rng.permutation(len(pairs))
        for start in range(0, len(perm) - size + 1, size):
            idx = perm[start:start + size]
            yield [pairs[i][0] for i in idx], [pairs[i][1] for i in idx]


# ---------------------------------------------------------------------------
# Stages and the closed loop that interleaves them
# ---------------------------------------------------------------------------

class Stage:
    """One pipeline stage as a sequence of operations.

    ``step(i)`` makes operation ``i`` and returns False when it failed;
    ``finish()`` turns what the operations recorded into metrics.
    ``op_seconds`` keeps each operation's own time, split by whether spans
    were on, for the tracing overhead. ``fixed(i)`` tells whether operation
    ``i`` is part of the fixed work every run makes, over which the layers'
    self times are summed.
    """

    minimum = 1

    def __init__(self, run: Run, built: Setup):
        self.run = run
        self.built = built
        self.span = run.tracer.span
        self.op_seconds = {True: [], False: []}

    def timed(self, seconds: float) -> None:
        self.op_seconds[self.run.tracer.enabled].append(seconds)

    def fixed(self, i: int) -> bool:
        return i < self.minimum


def run_stages(run: Run, built: Setup, seconds: float) -> None:
    """Interleave the three stages in one closed loop for ``seconds``.

    The next operation goes to the stage furthest below its share of the
    time spent so far: the workload's own stage gets ``PRIMARY_SHARE``, the
    other two split the rest. Every stage makes at least its minimum count,
    the workload's own stage two more, past the deadline if need be.

    A traced run records spans on every operation, except that the
    workload's own stage leaves them off on every other operation after its
    minimum count. The difference of the medians of its operation times with
    and without spans is the tracing overhead.
    """
    stages = {name: cls(run, built) for name, cls in STAGES.items()}
    primary = run.workload.primary
    share = {name: PRIMARY_SHARE if name == primary else (1 - PRIMARY_SHARE) / (len(stages) - 1)
             for name in stages}
    need = {name: stage.minimum + 2 * (name == primary) for name, stage in stages.items()}
    spent = dict.fromkeys(stages, 0.0)
    done = dict.fromkeys(stages, 0)
    deadline = perf_counter() + seconds
    while True:
        if perf_counter() < deadline:
            candidates = list(stages)
        else:
            candidates = [n for n in stages if done[n] < need[n]]
            if not candidates:
                break
        name = min(candidates, key=lambda n: spent[n] / share[n])
        extra = done[name] - stages[name].minimum
        run.tracer.enabled = run.trace and not (name == primary and extra >= 0 and extra % 2 == 0)
        run.tracer.fixed_work = stages[name].fixed(done[name])
        t0 = perf_counter()
        run.operation(lambda: stages[name].step(done[name]))
        spent[name] += perf_counter() - t0
        done[name] += 1
    run.tracer.enabled, run.tracer.fixed_work = run.trace, True
    for stage in stages.values():
        stage.finish()
    if run.trace:
        own = stages[primary].op_seconds
        run.per_layer["trace.overhead_ms"] = (
            (median(own[True]) - median(own[False])) * 1e3, "ms")


class PretrainStage(Stage):
    """Teacher-forced training at the paper's dimensions; operation = one step."""

    def __init__(self, run, built):
        super().__init__(run, built)
        sz = run.sizes
        self.minimum = sz.pretrain_min_steps + 1
        self.params = [t for _, t in built.pre_model.named_tensors()]
        self.batches = _batches(built.pre_pairs, sz.pretrain_batch, run.rng(2))
        self.work, self.records, self.first_losses = [], [], []
        self.cold = None

    def fixed(self, i):
        # The cold first step is reported apart, as pretrain.cold_step_s.
        return 0 < i < self.minimum

    def step(self, i):
        model, opt, span = self.built.pre_model, self.built.pre_opt, self.span
        batch = next(self.batches)
        tape = ad.Tape()
        with span("pretrain.step", step=i, cold=i == 0):
            t0 = perf_counter()
            with span("environment.teacher_forced_loss", step=i, cold=i == 0):
                loss = teacher_forced_loss(model, batch, tape)
            with span("autodiff.backward", step=i, cold=i == 0):
                ad.backward(tape, loss)
            t1 = perf_counter()
            grad_norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                      for p in self.params if p.grad is not None))
            t2 = perf_counter()
            with span("optim.adam_step", step=i, cold=i == 0):
                adam_step(opt)
            ad.zero_grads(self.params)
            seconds = (t1 - t0) + (perf_counter() - t2)
        value = float(loss.data)
        self.records.append(len(tape))
        if i < self.minimum:
            self.first_losses.append(value)
        if i == 0:
            self.cold = seconds
        else:
            self.timed(seconds)
            self.work.append((sum(len(t) + 1 for t in batch[1]), seconds))
        return _finite(value, grad_norm)

    def finish(self):
        run = self.run
        run.behaviour["pretrain"] = {"fingerprint": fingerprint(self.first_losses),
                                     "first_losses": self.first_losses,
                                     "steps": len(self.records)}
        run.end_to_end["pretrain_tokens_per_s"] = (throughput(self.work), "tokens/s")
        # The warm steps every run makes, so the loss depends on the seed and
        # the arithmetic only, not on how many steps fit in the window.
        run.end_to_end["pretrain_loss"] = (float(np.mean(self.first_losses[1:])), "nats/token")
        if run.trace:
            for name in ("environment.teacher_forced_loss", "autodiff.backward",
                         "optim.adam_step"):
                run.layer_times(name, "ms", 1e3, run.tracer.durations(name, cold=False))
            run.per_layer["autodiff.tape_records"] = (median(self.records), "count")
            run.per_layer["pretrain.cold_step_s"] = (self.cold, "s")


def agent_config(env: EnvModel, variant: str) -> AgentConfig:
    # hidden_dim must equal the environment's hid_dim: the collector's zero
    # state is sized by the environment (ROADMAP 2a).
    return AgentConfig(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim,
                       hidden_dim=env.cfg.hid_dim, key_dim=env.cfg.emb_dim,
                       use_att=variant == "att", feature_rows=env.cfg.feature_rows,
                       feature_dim=env.cfg.feature_dim)


class RLStage(Stage):
    """REINFORCE; operation = collect one episode batch, then update on it."""

    def __init__(self, run, built):
        super().__init__(run, built)
        self.minimum = run.sizes.rl_min_iterations
        acfg = agent_config(built.env, run.workload.agent_variant)
        rng = run.rng(3)
        self.agent, self.baseline = AgentNetwork(acfg, rng), BaselineNetwork(acfg, rng)
        self.cfg = RLTrainConfig(seed=run.seed)
        self.agent_opt = AdamState(self.agent.named_tensors(), lr=self.cfg.lr)
        self.baseline_opt = AdamState(self.baseline.named_tensors(), lr=self.cfg.lr)
        self.pair_rng = run.rng(4)
        self.n_episodes = self.cfg.batch_size * self.cfg.trajectories_per_pair
        self.work, self.counters, self.first, self.endings = [], [], [], []
        self.final = None

    def step(self, it):
        cfg, span, env = self.cfg, self.span, self.built.env
        train, feats = self.built.splits["train"], self.built.features["train"]
        chosen = self.pair_rng.choice(len(train), size=cfg.batch_size, replace=False)
        episodes = [(train[j][0], train[j][1], feats[j] if feats else None)
                    for j in chosen for _ in range(cfg.trajectories_per_pair)]
        with span("rl.iteration", batch=it):
            t0 = perf_counter()
            with span("agent.collect_trajectories", batch=it):
                batch = collect_trajectories(self.agent, self.baseline, env, episodes, cfg,
                                             self.run.seed, start_index=it * self.n_episodes,
                                             record_transcripts=True)
            with span("agent.reinforce_update", batch=it):
                stats = reinforce_update(batch, self.agent, self.baseline, cfg,
                                         self.agent_opt, self.baseline_opt)
            seconds = perf_counter() - t0
        self.timed(seconds)
        self.work.append((self.n_episodes, seconds))
        entries = batch.entries
        lengths = [len(e) for e in entries]
        self.counters.append((sum(lengths), sum(int(e.forced.sum()) for e in entries),
                              sum(lengths) / (len(entries) * max(lengths)),
                              sum(len(e.transcript.delays) for e in entries)))
        for e in entries:
            e.transcript.validate()
        self.endings.extend((e.transcript.ended_with_eos,
                             len(e.transcript.delays) / len(e.transcript.src)) for e in entries)
        if it < self.minimum:
            self.first.append([[e.transcript.actions, e.transcript.hyp] for e in entries])
        self.final = stats
        return _finite(*[e.rewards for e in entries], *[e.log_probs for e in entries],
                       *stats.values())

    def finish(self):
        run = self.run
        eos, ratio = (float(np.mean(col)) for col in zip(*self.endings))
        run.behaviour["rl"] = {"fingerprint": fingerprint(self.first), "updates": len(self.work),
                               "eos_share": eos, "output_to_source_length": ratio,
                               "final_update": self.final}
        run.end_to_end["rl_episodes_per_s"] = (throughput(self.work), "episodes/s")
        if run.trace:
            for name in ("agent.collect_trajectories", "agent.reinforce_update"):
                run.layer_times(name, "ms", 1e3, run.tracer.durations(name))
            decisions, forced, live, rewards = (np.array(c, dtype=float)
                                                for c in zip(*self.counters))
            run.per_layer["agent.decisions_per_batch"] = (float(decisions.mean()), "count")
            run.per_layer["agent.forced_share"] = (float(forced.sum() / decisions.sum()), "ratio")
            run.per_layer["agent.live_lane_ratio"] = (float(live.mean()), "ratio")
            run.per_layer["agent.reward_calls_per_batch"] = (float(rewards.mean()), "count")


class TimedPolicy(Policy):
    """Delegates to a real policy and wraps each ``decide`` in a span."""

    def __init__(self, inner: Policy, tracer):
        self.inner = inner
        self.tracer = tracer
        self.sentence = None

    def start_episode(self, src_tokens, features=None) -> None:
        self.inner.start_episode(src_tokens, features)

    def decide(self, ctx) -> str:
        with self.tracer.span("agent.greedy_decide", sentence=self.sentence):
            return self.inner.decide(ctx)


def stratified(pairs, features, min_len: int, max_len: int, per_length: int):
    """The first ``per_length`` test sentences of each source length, in order.

    Every seed then decodes the same mix of lengths, so the work of a pass
    does not depend on the seed.
    """
    out = []
    for length in range(min_len, max_len + 1):
        picked = [i for i, (src, _) in enumerate(pairs) if len(src) == length][:per_length]
        out.extend((pairs[i][0], pairs[i][1], features[i] if features else None)
                   for i in picked)
    return out


def _transcript_ok(t, src) -> bool:
    t.validate()
    return (delays_from_actions(t.actions, t.ended_with_eos) == t.delays
            and (t.ended_with_eos or len(t.hyp) >= output_cap(len(src))))


class EvalStage(Stage):
    """Simultaneous decoding and scoring of the test sentences.

    An operation decodes one sentence under all five policies, or scores the
    last complete pass. A pass is scored when scoring has so far taken no
    longer than decoding, so the stage's time splits about evenly between
    the two.
    """

    def __init__(self, run, built):
        super().__init__(run, built)
        w = run.workload
        self.sentences = stratified(built.splits["test"], built.features["test"],
                                    w.env_task.min_len, w.env_task.max_len,
                                    run.sizes.eval_per_length)
        self.minimum = len(self.sentences) + 1
        # The agent starts from zero weights, so it reads the whole source on
        # every seed while each decision still runs the full greedy path. With
        # random weights its READ/WRITE mix flips between seeds from always
        # READ to always WRITE, and the decoding and bootstrap work with it.
        agent = AgentNetwork(replace(agent_config(built.env, w.agent_variant), init_scale=0.0),
                             run.rng(5))
        self.greedy = TimedPolicy(AgentGreedyPolicy(agent, built.env), run.tracer)
        self.policies = [("wait1", WaitKPolicy(1)), ("wait3", WaitKPolicy(3)),
                         ("wait5", WaitKPolicy(5)), ("consecutive", ConsecutivePolicy()),
                         ("agent", self.greedy)]
        self.first = {name: [] for name, _ in self.policies}
        self.refs = [list(ref) for _, ref, _ in self.sentences]
        self.decoded, self.unscored = 0, False
        self.decode_seconds, self.pass_seconds, self.work, self.score_seconds = 0.0, 0.0, [], []
        self.scores = None

    def step(self, op):
        if self.unscored and sum(self.score_seconds) <= self.decode_seconds:
            self.unscored = False
            return self.score()
        i = self.decoded % len(self.sentences)
        first_pass = self.decoded < len(self.sentences)
        self.decoded += 1
        src, ref, feat = self.sentences[i]
        self.greedy.sentence = i
        outs = {}
        with self.span("eval.sentence", sentence=i):
            t0 = perf_counter()
            for name, policy in self.policies:
                with self.span("policies.simulate", policy=name, sentence=i):
                    outs[name] = simulate(policy, self.built.env, src, feat)
            seconds = perf_counter() - t0
        self.timed(seconds)
        self.decode_seconds += seconds
        self.pass_seconds += seconds
        if i == len(self.sentences) - 1:
            self.work.append((len(self.sentences), self.pass_seconds))
            self.pass_seconds = 0.0
            self.unscored = True
        for name, t in outs.items():
            self.run.check(_transcript_ok(t, src), f"invalid {name} transcript")
            if first_pass:
                self.first[name].append(t)
            else:
                kept = self.first[name][i]
                self.run.check(t.actions == kept.actions and t.hyp == kept.hyp,
                               f"{name} decode of sentence {i} changed between passes")
        return True

    def score(self):
        """BLEU, AVP, AL and max CW per policy, then the paired bootstrap."""
        span = self.span
        t0 = perf_counter()
        scores, hyps = {}, {}
        for name, _ in self.policies:
            hyps[name] = [t.content_hyp for t in self.first[name]]
            with span("metrics.corpus_bleu", policy=name):
                bleu = corpus_bleu(hyps[name], self.refs)
            with span("metrics.latency", policy=name):
                lat = [(average_proportion(t.delays, len(t.src), len(t.delays)),
                        average_lagging(t.delays, len(t.src), len(t.delays)),
                        max(consecutive_wait_trace(t.actions)))
                       for t in self.first[name] if t.delays]
            avp, al, cw = (float(np.mean(col)) for col in zip(*lat)) if lat else (0.0,) * 3
            scores[name] = {"bleu": bleu, "avp": avp, "al": al, "max_cw": cw}
        best = max(("wait1", "wait3", "wait5"), key=lambda n: scores[n]["bleu"])
        with span("metrics.bootstrap_significance"):
            p_value = bootstrap_significance(hyps[best], hyps["agent"], self.refs,
                                             self.run.sizes.bootstrap_resamples,
                                             rng=self.run.rng(6))
        seconds = perf_counter() - t0
        self.score_seconds.append(seconds)
        scores["best_wait_k"] = best
        scores["bootstrap_p_agent_vs_best_wait_k"] = p_value
        self.run.check(self.scores in (None, scores), "scores changed between passes")
        self.scores = scores
        return all(0.0 <= scores[n]["bleu"] <= 100.0 for n, _ in self.policies)

    def finish(self):
        run, built = self.run, self.built
        with self.span("environment.validation_bleu"):
            test_bleu = validation_bleu(built.env, built.splits["test"], built.features["test"])
        run.behaviour["eval"] = {
            "fingerprint": fingerprint({n: [[t.actions, t.hyp] for t in ts]
                                        for n, ts in self.first.items()}),
            "sentences": len(self.sentences), "passes": len(self.work),
            "scores": self.scores, "consecutive_test_bleu": test_bleu}
        run.end_to_end["eval_sents_per_s"] = (throughput(self.work), "sentences/s")
        run.end_to_end["eval_score_s"] = (float(np.mean(self.score_seconds)), "s")
        run.end_to_end["eval_bleu"] = (test_bleu, "BLEU")
        if run.trace:
            for name, _ in self.policies:
                run.layer_times(f"policies.simulate.{name}", "ms", 1e3,
                                run.tracer.durations("policies.simulate", policy=name))
            run.layer_times("agent.greedy_decide", "us", 1e6,
                            run.tracer.durations("agent.greedy_decide"))
            actions = [len(t.actions) for ts in self.first.values() for t in ts]
            run.per_layer["policies.actions_per_sentence"] = (float(np.mean(actions)), "count")
            run.layer_times("metrics.corpus_bleu", "ms", 1e3,
                            run.tracer.durations("metrics.corpus_bleu"))
            run.layer_times("metrics.bootstrap_significance", "s", 1.0,
                            run.tracer.durations("metrics.bootstrap_significance"))


PRIMARY_SHARE = 0.5
SETUP_REPEATS = 2
STAGES = {"pretrain": PretrainStage, "rl": RLStage, "eval": EvalStage}
