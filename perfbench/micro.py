"""Micro-timings of the hot paths ROADMAP names, cold (first call) and warm.

They call public simtlab functions at the workloads' shapes: the GRU cell at
B=64 with a tape (pretraining) and 1-D without one (simulation), batched
attention and the output projection plus cross-entropy at pretraining shapes,
the per-commit BLEU reward trace at 10, 20 and 30 tokens, one simulator step,
and loading a concept feature file. A backward time replays the tape of the
forward call, with the output gradient seeded by hand where the output is
not a scalar loss.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from simtlab import autodiff as ad
from simtlab.autodiff import GRUParams, Tensor
from simtlab.environment import encode_next, encode_sequence, propose_next
from simtlab.features import CONCEPT_DIM, CONCEPT_ROWS, CONCEPTS, FeatureSet
from simtlab.features import load_features, write_features
from simtlab.metrics import quality_reward_trace
from simtlab.vocab import RESERVED


def _case(run, base: str, unit: str, scale: float, phases) -> None:
    """Call every phase ``micro_repeats + 1`` times; the first call is the cold one.

    ``phases`` maps a phase name to a callable taking a dict that carries
    state from one phase of a call to the next.
    """
    seconds = {phase: [] for phase in phases}
    for call in range(run.sizes.micro_repeats + 1):
        state = {}
        for phase, fn in phases.items():
            with run.tracer.span(base, phase=phase, call=call, fixed=False):
                t0 = perf_counter()
                fn(state)
                seconds[phase].append(perf_counter() - t0)
    for phase, values in seconds.items():
        prefix = f"{base}.{phase}_" if phase else f"{base}."
        run.per_layer[f"{prefix}{unit}"] = (median(values[1:]) * scale, unit)
        run.per_layer[f"{prefix}cold_{unit}"] = (values[0] * scale, unit)


def _backward_from(tape, out, grad) -> None:
    out.grad = grad
    ad.backward(tape, Tensor(0.0))


def shared_paths(run) -> None:
    """Cases that need no environment; run first, while the process is cold."""
    sz, rng = run.sizes, run.rng(7)
    batch, emb, hid = sz.pretrain_batch, sz.pretrain_emb, sz.pretrain_hid

    gru = GRUParams.create(emb, hid, rng)
    x = Tensor(rng.standard_normal((batch, emb)), requires_grad=True)
    h = Tensor(rng.standard_normal((batch, hid)), requires_grad=True)
    g = rng.standard_normal((batch, hid))

    def gru_fwd(st):
        st["tape"] = ad.Tape()
        st["out"] = ad.gru_cell(st["tape"], x, h, gru)

    def gru_bwd(st):
        _backward_from(st["tape"], st["out"], g)
        ad.zero_grads(gru.tensors() + [x, h])

    _case(run, "autodiff.gru_cell.b64", "ms", 1e3, {"fwd": gru_fwd, "bwd": gru_bwd})

    width = sz.pretrain_task.max_len + 1
    keys = Tensor(rng.standard_normal((batch, width, hid)), requires_grad=True)
    query = Tensor(rng.standard_normal((batch, hid)), requires_grad=True)
    mask = np.arange(width)[None, :] < rng.integers(1, width + 1, size=batch)[:, None]
    g_ctx = rng.standard_normal((batch, hid))

    def att_fwd(st):
        st["tape"] = ad.Tape()
        st["out"], _ = ad.batched_attention(st["tape"], keys, keys, query, mask)

    def att_bwd(st):
        _backward_from(st["tape"], st["out"], g_ctx)
        ad.zero_grads([keys, query])

    _case(run, "autodiff.batched_attention", "ms", 1e3, {"fwd": att_fwd, "bwd": att_bwd})

    vocab = sz.pretrain_task.vocab_size + len(RESERVED)
    feat = Tensor(rng.standard_normal((batch, emb + 2 * hid)), requires_grad=True)
    w_out = ad.uniform_tensor((emb + 2 * hid, vocab), rng)
    b_out = Tensor(np.zeros(vocab), requires_grad=True)
    targets = rng.integers(0, vocab, size=batch)
    valid = np.ones(batch, dtype=bool)

    def ce_fwd(st):
        st["tape"] = tape = ad.Tape()
        logits = ad.add_bias(tape, ad.matmul(tape, feat, w_out), b_out)
        st["loss"] = ad.softmax_cross_entropy_rows(tape, logits, targets, valid)

    def ce_bwd(st):
        ad.backward(st["tape"], st["loss"])
        ad.zero_grads([feat, w_out, b_out])

    _case(run, "autodiff.output_ce", "ms", 1e3, {"fwd": ce_fwd, "bwd": ce_bwd})

    for length in (10, 20, 30):
        ref = [f"w{i:02d}" for i in rng.integers(0, 50, size=length)]
        hyp = [t if k % 4 else "w99" for k, t in enumerate(ref)]
        prefixes = [hyp[:k] for k in range(1, length + 1)]
        _case(run, f"metrics.quality_reward_trace.t{length}", "us", 1e6,
              {"": lambda st, p=prefixes, r=ref: quality_reward_trace(p, r)})

    path = run.workdir / "micro.feat"
    write_features(path, [FeatureSet(CONCEPTS, rng.standard_normal((CONCEPT_ROWS, CONCEPT_DIM)))
                          for _ in range(16)])
    _case(run, "features.load_features", "ms", 1e3, {"": lambda st: load_features(path)})


def environment_paths(run, env, src_ids, features) -> None:
    """Cases on the set-up environment: 1-D GRU cell and one simulator step."""
    rng = run.rng(8)
    x = Tensor(rng.standard_normal(env.cfg.emb_dim))
    h = Tensor(rng.standard_normal(env.cfg.hid_dim))
    _case(run, "autodiff.gru_cell.1d", "us", 1e6,
          {"fwd": lambda st: ad.gru_cell(None, x, h, env.enc1)})

    half = len(src_ids) // 2
    enc = encode_sequence(env, src_ids[:half])
    dec = env.initial_decoder_state()
    projected = env.project_features(features) if env.multimodal else None

    def sim_step(st):
        propose_next(dec, enc, env, projected)
        encode_next(enc, src_ids[half], env)

    _case(run, "environment.sim_step", "us", 1e6, {"": sim_step})
