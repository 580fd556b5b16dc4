"""Workload definitions of the simtlab benchmark.

Every workload runs the paper's whole pipeline once: set-up (synthetic data,
feature files, environment pretraining, checkpoint round trip), then the
pretrain, REINFORCE and simultaneous-evaluation stages, interleaved in one
timed closed loop. The workload picks the small environment the later stages
run over, the agent variant, and the stage that gets half of the loop's time;
the other two get a quarter each, so that every end-to-end metric exists on
every workload. README.md says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from simtlab.data import TaskSpec
from simtlab.environment import EnvTrainConfig


@dataclass(frozen=True)
class Sizes:
    """Sizes shared by all workloads; ``tiny()`` shrinks them for the self-check."""

    # pretrain stage: teacher-forced training at the paper's dimensions
    pretrain_emb: int = 200
    pretrain_hid: int = 320
    pretrain_batch: int = 64
    pretrain_task: TaskSpec = field(default_factory=lambda: TaskSpec(task="copy"))
    pretrain_min_steps: int = 10       # warm steps after the cold one; pretrain_loss averages them
    # REINFORCE stage
    rl_min_iterations: int = 4
    # evaluation stage
    eval_per_length: int = 2           # test sentences per source length
    bootstrap_resamples: int = 1000
    # micro-timings (traced runs only)
    micro_repeats: int = 30


@dataclass(frozen=True)
class Workload:
    primary: str               # "rl" or "eval": the stage with half of the time
    env_task: TaskSpec         # task of the small environment built in set-up
    env_train: EnvTrainConfig
    agent_variant: str         # "none" or "att"
    sizes: Sizes = field(default_factory=Sizes)


# The environments train for a fixed number of epochs, so set-up does the
# same work for every seed; the best-validation snapshot is kept.
TEXT_ENV_TASK = TaskSpec(task="copy", min_len=3, max_len=16, n_train=400,
                         n_valid=20, n_test=200)
TEXT_ENV_TRAIN = EnvTrainConfig(batch_size=32, lr=0.01, max_epochs=24, patience=24,
                                emb_dim=48, hid_dim=64)
VISUAL_ENV_TASK = TaskSpec(task="ambiguous", min_len=3, max_len=14, n_train=400,
                           n_valid=20, n_test=200)
VISUAL_ENV_TRAIN = EnvTrainConfig(batch_size=64, lr=0.01, max_epochs=16, patience=16,
                                  emb_dim=64, hid_dim=96)

WORKLOADS = {
    "rl_visual": Workload("rl", VISUAL_ENV_TASK, VISUAL_ENV_TRAIN, "att"),
    "simul_eval": Workload("eval", TEXT_ENV_TASK, TEXT_ENV_TRAIN, "none"),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at sizes that run in a few seconds."""
    sizes = replace(workload.sizes, pretrain_emb=16, pretrain_hid=24,
                    pretrain_batch=8,
                    pretrain_task=replace(workload.sizes.pretrain_task, n_train=40,
                                          n_valid=4, n_test=4),
                    pretrain_min_steps=2, rl_min_iterations=2,
                    eval_per_length=1, bootstrap_resamples=100, micro_repeats=3)
    task = replace(workload.env_task, n_train=24, n_valid=4, n_test=40)
    train = replace(workload.env_train, max_epochs=1, emb_dim=16, hid_dim=24)
    return replace(workload, env_task=task, env_train=train, sizes=sizes)
