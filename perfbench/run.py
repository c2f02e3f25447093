"""radioscope benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload open-h0 --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the median)
and runs ops back to back in three batches between the set-ups, as many ops
as take ``--seconds`` at nominal speed; it prints the end-to-end metrics.
``--trace 1`` runs three passes of a fixed op list, one untraced and two
traced, and prints the per-layer metrics of the first traced pass;
the counts of both traced passes must agree exactly, and all three passes
must produce the same outputs.  ``--smoke`` shrinks every size so that a
workload runs in seconds.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER, NullTracer, Tracer, count_metrics, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# name -> unit of every end-to-end metric; BENCHMARK.json lists the same set.
# Op time is gated as the op rate over the whole run, a mean: the host is
# shared, and its load slows stretches of a run by a fifth or more, which
# moves the median op (printed, but not gated) between runs of the same
# code more than the mean over all ops.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpResult:
    index: int
    wall_s: float
    error: str | None = None  # exception class, or "invariant"
    records: list = field(default_factory=list)
    violations: list = field(default_factory=list)


def run_op(workload, i: int, tracer) -> OpResult:
    """Time one op, then check its outputs; a raising op is a failed op."""
    tracer.op = f"op{i}"
    t0 = perf_counter()
    try:
        out = workload.op(i)
    except Exception as exc:  # the run continues; the class is recorded
        wall = perf_counter() - t0
        workload.release()
        name = type(exc).__name__
        print(f"op {i} failed: {name}: {exc}", file=sys.stderr)
        return OpResult(i, wall, name, [(workload.scheme(i), name)])
    wall = perf_counter() - t0
    try:
        records, violations = workload.check(out)
    finally:
        workload.release()
    return OpResult(i, wall, "invariant" if violations else None, records,
                    violations)


def digest(ops: list[OpResult]) -> str:
    """sha256 over each op's (scheme, n_scored, score, log10_p), floats exact."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.index, op.records]).encode())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                                  capture_output=True, text=True,
                                  timeout=60).stdout.strip()
        try:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def set_up(name, sizes, seed, tracer):
    """A workload after set-up and its warm-up ops."""
    import workloads

    workload = workloads.make(name, sizes, seed, tracer)
    workload.setup()
    warm = [run_op(workload, i, tracer) for i in range(workload.warmup)]
    return workload, warm


def timed_run(name, sizes, seed, seconds) -> dict:
    """Untraced: ``SETUP_REPEATS`` set-ups, with about ``seconds`` of ops.

    The first set-up's workload runs every op; the later set-ups are timed
    and dropped.  They sit between batches of ops, so that both metrics
    sample the whole run rather than one stretch of it.  The op count is
    fixed by ``seconds`` (``Workload.ops_for``), not by the clock, so two
    runs of a seed make the same ops with the same outcomes.
    """
    tracer = NullTracer()
    setup_s = []

    def timed_setup():
        gc.collect()
        t0 = perf_counter()
        built = set_up(name, sizes, seed, tracer)
        setup_s.append(perf_counter() - t0)
        return built

    workload, warm = timed_setup()
    n_ops = workload.ops_for(seconds)
    ops: list[OpResult] = []
    rss = None
    for batch in range(SETUP_REPEATS):
        if batch:
            timed_setup()
        # memory is read within the first batch, before a dropped set-up
        # can add to the peak
        end = max(workload.rss_ops, n_ops * (batch + 1) // SETUP_REPEATS)
        for j in range(len(ops), min(end, n_ops)):
            ops.append(run_op(workload, workload.warmup + j, tracer))
            if len(ops) == workload.rss_ops:
                rss = peak_rss_mb()
    walls = [op.wall_s for op in ops]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(ops) / sum(walls),
        "peak_rss_mb": rss,
    }
    detail = {
        "setup_s_each": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_p50_samples": len(walls),
        "op_wall_s": walls,
        "peak_rss_after_ops": workload.rss_ops,
        "warmup": summarize(warm),
    }
    return {"metrics": metrics, "ops": ops, "all_ops": warm + ops,
            "detail": detail, "checks": []}


def traced_run(name, sizes, seed) -> dict:
    """Untraced pass, traced pass, traced pass over the same fixed op list."""
    passes = []
    for traced in (False, True, True):
        gc.collect()
        tracer = Tracer() if traced else NullTracer()
        with instrument(tracer) if traced else contextlib.nullcontext():
            workload, warm = set_up(name, sizes, seed, tracer)
            ops = [run_op(workload, workload.warmup + j, tracer)
                   for j in range(workload.trace_ops)]
        passes.append((tracer, warm + ops, ops, workload.cache_entries()))
        workload = None
    (_, all_a, ops_a, _), (tracer_b, all_b, ops_b, entries_b), \
        (tracer_c, all_c, _, entries_c) = passes
    overhead = (sum(op.wall_s for op in ops_b)
                / sum(op.wall_s for op in ops_a)) - 1.0
    metrics = layer_metrics(tracer_b, entries_b, overhead)
    counts_b = count_metrics(metrics)
    counts_c = count_metrics(layer_metrics(tracer_c, entries_c, overhead))
    checks = []
    if counts_b != counts_c:
        diff = {k: (counts_b[k], counts_c[k]) for k in counts_b
                if counts_b[k] != counts_c[k]}
        checks.append(f"counts differ between traced passes: {diff}")
    digests = [digest(all_a), digest(all_b), digest(all_c)]
    if len(set(digests)) != 1:
        checks.append(f"outputs differ between passes: {digests}")
    import workloads

    workloads.OUT.mkdir(parents=True, exist_ok=True)
    spans_path = workloads.OUT / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer_b.write(spans_path)
    detail = {
        "trace_ops": len(ops_b),
        "spans": len(tracer_b.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "op_wall_s_untraced": [op.wall_s for op in ops_a],
        "op_wall_s_traced": [op.wall_s for op in ops_b],
        "warmup": summarize(all_b[:len(all_b) - len(ops_b)]),
        "filter_windows_checked": tracer_b.counts["dedup.filter.checked"],
    }
    return {"metrics": metrics, "ops": ops_b, "all_ops": all_b,
            "detail": detail, "checks": checks}


def summarize(ops: list[OpResult]) -> dict:
    failures: dict = {}
    for op in ops:
        if op.error:
            failures[op.error] = failures.get(op.error, 0) + 1
    return {"attempted": len(ops), "failed": sum(failures.values()),
            "failures": failures,
            "violations": [v for op in ops for v in op.violations]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("open-h0", "closed-h0", "cli-1m"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "radioscope" / "__init__.py").is_file():
        print(f"error: no radioscope sources under {src}", file=sys.stderr)
        return 2
    # one thread: keep numpy's native libraries from starting their own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import radioscope

    if Path(radioscope.__file__).resolve().parent != (src / "radioscope").resolve():
        print(f"error: imported radioscope from {radioscope.__file__}",
              file=sys.stderr)
        return 2
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    env = environment(args.seed)
    if args.trace:
        result = traced_run(args.workload, sizes, args.seed)
        units = PER_LAYER
    else:
        result = timed_run(args.workload, sizes, args.seed, args.seconds)
        units = END_TO_END
    env["loadavg_end"] = os.getloadavg()

    ops, all_ops = result["ops"], result["all_ops"]
    summary = summarize(ops)
    correct = not summarize(all_ops)["violations"] and not result["checks"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        **summary,
        "failed_frac": summary["failed"] / len(ops),
        "waiting_s": "0 by construction: one thread, closed loop, no queue",
        "digest": digest(all_ops),
        "digest_ops": len(all_ops),
        "checks": result["checks"],
        **result["detail"],
    }
    print("detail " + json.dumps(report, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:34s} {result['metrics'][name]:.6g} {unit}")
    if not args.trace:
        print(f"{'op_p50_s':34s} {report['op_p50_s']:.6g} s "
              f"({report['op_p50_samples']} ops; not gated)")
    print(f"{'failed_frac':34s} {report['failed_frac']:.6g} "
          f"({summary['failed']} of {summary['attempted']}: {summary['failures']})")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
