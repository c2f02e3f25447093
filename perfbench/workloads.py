"""The benchmark's workloads, each built from the seed argument only.

``open-h0`` and ``closed-h0`` are the two halves of the H0 calibration
criterion (independent-key detection runs against a clean student, with
caches shared across runs).  ``cli-1m`` is the README quick start at the
1M-token radioactivity criterion's scale, driven through ``cli.main``.

A workload object is set up once per pass; ``op(i)`` runs op ``i`` and
returns what ``check`` needs; ``release`` frees what the op left behind.
``ops_for(seconds)`` is how many ops a timed run makes: a fixed number for
the given run length, so that the ops, their outputs and their failures
depend on the seed alone and not on how fast the machine ran.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from radioscope import cli, models, pipelines
from radioscope.models import SamplingConfig
from radioscope.pipelines import derive_run_key
from radioscope.schemes import AK, KGW, WatermarkConfig

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


@dataclass(frozen=True)
class Sizes:
    vocab: int
    teacher_tokens: int
    student_docs: int
    student_len: int
    open_docs: int
    open_len: int
    closed_docs: int
    closed_len: int
    cli_train_docs: int
    cli_train_len: int
    cli_probe_docs: int
    cli_probe_len: int
    cli_prompts: int
    cli_teacher_tokens: int | None  # None: the CLI's own teacher size
    min_scored: int  # H0 runs score at least this many tuples
    max_log10_p: float  # the radioactive student is detected at least this strongly


# the sizes of the H0 criterion (110 x 400 open, 90 x 280 closed, a 300 x 400
# clean student) and of the 1M-token criterion (2000 x 500 training tokens)
FULL = Sizes(vocab=128, teacher_tokens=400_000, student_docs=300,
             student_len=400, open_docs=110, open_len=400, closed_docs=90,
             closed_len=280, cli_train_docs=2000, cli_train_len=500,
             cli_probe_docs=100, cli_probe_len=400, cli_prompts=90,
             cli_teacher_tokens=None, min_scored=10_000, max_log10_p=-10.0)
# a few short documents and a small CLI teacher, so that every workload
# runs in seconds
SMOKE = Sizes(vocab=32, teacher_tokens=20_000, student_docs=20,
              student_len=100, open_docs=6, open_len=100, closed_docs=6,
              closed_len=60, cli_train_docs=60, cli_train_len=100,
              cli_probe_docs=8, cli_probe_len=100, cli_prompts=8,
              cli_teacher_tokens=20_000, min_scored=1, max_log10_p=-1.0)

_STUDENT, _OP, _CLI = 1, 2, 3


def derive(seed: int, *path: int) -> int:
    """Independent 32-bit seed for one purpose, from the run's seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Workload:
    warmup: int
    rss_ops: int
    nominal_op_s: float

    def ops_for(self, seconds: float) -> int:
        """Ops in a timed run: about ``seconds`` of them at nominal speed."""
        return max(self.rss_ops, round(seconds / self.nominal_op_s))


class H0Workload(Workload):
    """Detection runs with fresh keys against a clean order-3 student."""

    warmup = 2

    def __init__(self, mode: str, sizes: Sizes, seed: int):
        self.mode = mode
        self.sizes = sizes
        self.seed = seed
        # ops in a traced pass, and ops before peak memory is read; both
        # fixed, so counts repeat and memory is read after the same work
        self.trace_ops = 3 if mode == "open" else 6
        self.rss_ops = 4 if mode == "open" else 8
        # an op's wall time at full size on the reference machine (2-vCPU
        # Xeon); a timed run's op count is derived from it
        self.nominal_op_s = 1.2 if mode == "open" else 0.42

    def setup(self) -> None:
        s = self.sizes
        self.teacher = models.make_teacher(s.vocab, seed=7,
                                           source_tokens=s.teacher_tokens)
        self.student, _, _ = pipelines.contaminated_student(
            self.teacher, None, 0.0, n_docs=s.student_docs,
            doc_len=s.student_len, order=3,
            sampling=SamplingConfig(seed=derive(self.seed, _STUDENT)))
        self.caches = {"greedy": {}, "teacher": {}, "suspect": {}}

    def scheme(self, i: int) -> str:
        # closed ops alternate KGW and AK keys
        return AK if self.mode == "closed" and i % 2 else KGW

    def op(self, i: int):
        s = self.sizes
        key = derive_run_key(self.seed, i)
        scheme = self.scheme(i)
        cfg = (WatermarkConfig(KGW, key, s.vocab, k=2, gamma=0.25, delta=3.0)
               if scheme == KGW else WatermarkConfig(AK, key, s.vocab, k=2))
        n_docs, doc_len = ((s.open_docs, s.open_len) if self.mode == "open"
                           else (s.closed_docs, s.closed_len))
        return pipelines.run_detection(
            self.student, self.teacher, cfg, self.mode, n_docs=n_docs,
            doc_len=doc_len, sampling=SamplingConfig(seed=derive(self.seed, _OP, i)),
            greedy_cache=self.caches["greedy"],
            teacher_tables=self.caches["teacher"],
            suspect_tables=self.caches["suspect"])

    def check(self, report) -> tuple[list, list]:
        records = [(report.scheme, report.n_scored, report.score, report.log10_p)]
        bad = []
        if report.n_scored < self.sizes.min_scored:
            bad.append(f"n_scored {report.n_scored} < {self.sizes.min_scored}")
        if not 0.0 <= report.p_value <= 1.0:
            bad.append(f"p {report.p_value} outside [0, 1]")
        if not math.isfinite(report.log10_p):
            bad.append(f"log10_p {report.log10_p} not finite")
        return records, bad

    def release(self) -> None:
        pass

    def cache_entries(self) -> int:
        return sum(len(c) for c in self.caches.values())


class CliWorkload(Workload):
    """generate, train, probe, detect open, filter, prompts, detect closed.

    Every op runs in a fresh directory under ``perfbench/out`` with the key
    in ``RADIOSCOPE_KEY``; no cache survives between ops.
    """

    warmup = 0
    trace_ops = 1
    rss_ops = 1
    nominal_op_s = 25.0

    def __init__(self, sizes: Sizes, seed: int, tracer):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.work: Path | None = None

    def setup(self) -> None:
        # what every command pays before its work: a fresh interpreter
        # importing the CLI (the ops call cli.main in this process).  The
        # output is captured because then the exit is seen when the pipes
        # close; a bare wait with a timeout polls every 50 ms, which would
        # round this 0.3 s set-up to 50 ms steps.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-c", "import radioscope.cli"],
                       env=env, cwd=ROOT, check=True, timeout=120,
                       capture_output=True)
        OUT.mkdir(parents=True, exist_ok=True)

    def scheme(self, i: int) -> str:
        return KGW

    def _steps(self, i: int, work: Path) -> list:
        s = self.sizes
        seeds = [str(derive(self.seed, _CLI, i, j)) for j in range(4)]
        vocab = ["--vocab-size", str(s.vocab)]
        corpus, student = str(work / "wm.jsonl"), str(work / "student.bin")
        probe, prompts = str(work / "probe" / "probe.jsonl"), str(work / "prompts" / "prompts.jsonl")
        (work / "closed.cfg").write_text("max_tokens = 280\n")
        return [
            ("generate", ["generate", "--docs", str(s.cli_train_docs), "--doc-len",
                          str(s.cli_train_len), "--seed", seeds[0], *vocab,
                          "--out", corpus]),
            ("train", ["train", "--corpus", corpus, "--order", "3", *vocab,
                       "--out", student]),
            ("generate", ["generate", "--docs", str(s.cli_probe_docs), "--doc-len",
                          str(s.cli_probe_len), "--seed", seeds[1], *vocab,
                          "--out", probe]),
            ("detect", ["detect", "--mode", "open", "--model", student,
                        "--corpus", probe, *vocab, "--out", str(work / "open")]),
            ("filter", ["filter", "--corpus", corpus, "--k", "2",
                        "--out", str(work / "phi" / "phi.bin")]),
            ("generate", ["generate", "--no-watermark", "--docs", str(s.cli_prompts),
                          "--doc-len", "13", "--seed", seeds[2], *vocab,
                          "--out", prompts]),
            ("detect", ["detect", "--mode", "closed", "--config",
                        str(work / "closed.cfg"), "--filter",
                        str(work / "phi" / "phi.bin"), "--model", student,
                        "--corpus", prompts, "--seed", seeds[3], *vocab,
                        "--out", str(work / "closed")]),
        ]

    def op(self, i: int):
        self.work = work = Path(tempfile.mkdtemp(prefix=f"cli-{i}-", dir=OUT))
        key = derive_run_key(self.seed, i)
        raw = hex(key.s)
        os.environ["RADIOSCOPE_KEY"] = raw
        try:
            with self._teacher_size():
                for name, argv in self._steps(i, work):
                    log = io.StringIO()
                    with self.tracer.region(f"cli.{name}"), \
                            contextlib.redirect_stdout(log), \
                            contextlib.redirect_stderr(log):
                        code = cli.main(argv)
                    if code != 0:
                        raise CommandFailed(f"{argv[0]} exited {code}: "
                                            f"{log.getvalue().strip()[-300:]}")
        finally:
            del os.environ["RADIOSCOPE_KEY"]
        return raw, str(key.s)

    @contextlib.contextmanager
    def _teacher_size(self):
        """In smoke mode, the CLI builds its teacher from fewer tokens."""
        tokens = self.sizes.cli_teacher_tokens
        if tokens is None:
            yield
            return
        build = cli.make_teacher  # the tracer's wrapper in a traced pass
        cli.make_teacher = functools.partial(build, source_tokens=tokens)
        try:
            yield
        finally:
            cli.make_teacher = build

    def check(self, keys) -> tuple[list, list]:
        records, bad = [], []
        for mode in ("open", "closed"):
            run = json.loads((self.work / mode / "report.json").read_text())["runs"][0]
            records.append((run["scheme"], run["n_scored"], run["score"], run["log10_p"]))
            if not run["log10_p"] <= self.sizes.max_log10_p:
                bad.append(f"{mode} log10_p {run['log10_p']} > {self.sizes.max_log10_p}")
        for path in sorted(self.work.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                if any(k.encode() in data for k in keys):
                    bad.append(f"raw key in {path.relative_to(self.work)}")
        return records, bad

    def release(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    def cache_entries(self) -> int:
        return 0  # every table is built inside an op and dropped with it


class CommandFailed(RuntimeError):
    """A CLI command of the flow exited with a nonzero code."""


def make(name: str, sizes: Sizes, seed: int, tracer):
    if name == "cli-1m":
        return CliWorkload(sizes, seed, tracer)
    return H0Workload(name.split("-")[0], sizes, seed)
