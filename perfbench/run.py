"""Run one workload of the simtlab benchmark and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload simul_eval --seed 1 --seconds 25 --trace 0

The package is imported from ./src. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it carry the run header and the behaviour
record. A traced run also writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def limit_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    n = _cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= n:
            os.environ[var] = str(n)


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_rev():
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def header(args) -> dict:
    import numpy as np
    files = sorted((SRC / "simtlab").rglob("*.py"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
        "git_rev": git_rev(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "nproc": _cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed window the three stages share")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every stage at toy sizes, for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "simtlab" / "__init__.py").is_file():
        print(f"run.py: no simtlab package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import simtlab
    if not Path(simtlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"run.py: simtlab was imported from {simtlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import micro
    from stages import Run, fingerprint, run_stages, setup
    from tracing import LAYERS, Tracer
    from workloads import WORKLOADS, tiny

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = tiny(workload)

    print(json.dumps({"header": header(args)}), flush=True)
    trace = bool(args.trace)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(workload, args.seed, Tracer(trace), trace, workdir)
    try:
        if trace:
            micro.shared_paths(run)
        built = setup(run)
        if trace:
            src = built.splits["test"][0][0]
            feats = built.features["test"]
            micro.environment_paths(run, built.env, built.env.src_vocab.encode(src),
                                    feats[0] if feats else None)
        run_stages(run, built, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
    behaviour = dict(run.behaviour)
    behaviour["fingerprint"] = fingerprint(
        [behaviour[k]["fingerprint"] for k in ("pretrain", "rl", "eval")])
    print(json.dumps({"behaviour": behaviour}), flush=True)

    if trace:
        self_times = run.tracer.self_times()
        for layer in LAYERS:
            run.per_layer[f"{layer}.self_s"] = (self_times[layer], "s")
        run.per_layer["trace.spans"] = (len(run.tracer.spans), "count")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans)
        print(json.dumps({"spans": str(spans.relative_to(ROOT))}), flush=True)
    for problem in run.problems:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    metrics = run.per_layer if trace else run.end_to_end
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
