"""Spans and counters around calls into radioscope's modules.

The benchmark installs these wrappers itself, at the names through which
one module calls into another, so the library is measured without being
edited.  A span records its name, the op it belongs to, the span that
caused it, its start and end, the exception class it ended with, and the
work it did (tokens, tuples, bytes).  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
from collections import Counter
from time import perf_counter

# name -> unit of every per-layer metric; BENCHMARK.json lists the same set
PER_LAYER = {
    "models.generate_corpus.busy_s": "s",
    "models.generate_corpus.tokens": "count",
    "models.complete.busy_s": "s",
    "models.next_greedy.calls": "count",
    "models.next_greedy.busy_s": "s",
    "models.greedy_cache.hit_ratio": "ratio",
    "models.train_ngram.busy_s": "s",
    "models.train_ngram.tokens": "count",
    "models.make_teacher.busy_s": "s",
    "models.save_model.busy_s": "s",
    "models.load_model.busy_s": "s",
    "models.checkpoint.bytes": "bytes",
    "models.corpus_io.busy_s": "s",
    "models.corpus_io.bytes": "bytes",
    "models.cache.entries": "count",
    "schemes.greenlist.calls": "count",
    "schemes.greenlist.busy_s": "s",
    "schemes.score_batch.busy_s": "s",
    "schemes.score_batch.tuples": "count",
    "hashing.window_hash.calls": "count",
    "hashing.green_mask_batch.busy_s": "s",
    "dedup.canonical_dedup.busy_s": "s",
    "dedup.candidates": "count",
    "dedup.admitted": "count",
    "dedup.admit_ratio": "ratio",
    "dedup.build_filter.busy_s": "s",
    "dedup.filter.hit_rate": "ratio",
    "stats.pvalue.busy_s": "s",
    "stats.pvalue.errors": "count",
    "pipelines.detect_open.self_s": "s",
    "pipelines.detect_closed.self_s": "s",
    "cli.generate.wall_s": "s",
    "cli.train.wall_s": "s",
    "cli.filter.wall_s": "s",
    "cli.detect.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# fields of a span record; records are tuples so that the garbage
# collector stops tracking them, which keeps long traces cheap
INDEX, NAME, OP, PARENT, START, END, ERROR, WORK = range(8)


class Tracer:
    """In-memory spans and counters for one pass of a workload."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.op = "setup"
        self._done: list[tuple] = []  # finished spans, in closing order
        self._open: list[tuple] = []  # (index, name) of the spans still open
        self._next = 0

    @property
    def spans(self) -> list[tuple]:
        """Finished spans in opening order, so ``spans[i][INDEX] == i``."""
        if len(self._done) != self._next:
            raise RuntimeError("spans are still open")
        self._done.sort()
        return self._done

    def _enter(self, name: str) -> tuple:
        index = self._next
        self._next = index + 1
        parent = self._open[-1][0] if self._open else -1
        self._open.append((index, name))
        return index, parent

    def _exit(self, index, name, parent, start, end, error, work=None) -> None:
        self._open.pop()
        self._done.append((index, name, self.op, parent, start, end, error, work))

    @contextlib.contextmanager
    def region(self, name: str):
        """Span around a block of the benchmark's own code."""
        index, parent = self._enter(name)
        start = perf_counter()
        try:
            yield
        except BaseException as exc:
            self._exit(index, name, parent, start, perf_counter(),
                       type(exc).__name__)
            raise
        self._exit(index, name, parent, start, perf_counter(), None)

    def span(self, name: str, fn, work=None, only_under: str | None = None):
        """``fn`` wrapped in a span; ``work(args, kwargs, result)`` sizes it.

        With ``only_under``, a span is recorded only when the innermost
        open span has that name; other calls pass straight through.
        """
        open_ = self._open

        def wrapper(*args, **kwargs):
            if only_under is not None and (not open_ or open_[-1][1] != only_under):
                return fn(*args, **kwargs)
            index, parent = self._enter(name)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(index, name, parent, start, perf_counter(),
                           type(exc).__name__)
                raise
            end = perf_counter()
            self._exit(index, name, parent, start, end, None,
                       None if work is None else work(args, kwargs, out))
            return out

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` with a call counter only, for calls too cheap to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, times relative to the first."""
        spans = self.spans
        t0 = spans[0][START] if spans else 0.0
        with gzip.open(path, "wt") as f:
            for index, name, op, parent, start, end, error, work in spans:
                f.write(json.dumps({
                    "index": index, "name": name, "op": op, "parent": parent,
                    "start": start - t0, "end": end - t0,
                    "error": error, "work": work}) + "\n")


class NullTracer:
    """Stands in for a tracer in untraced passes."""

    op = "setup"

    @staticmethod
    def region(name: str):
        return contextlib.nullcontext()


def _tokens_out(args, kwargs, docs):
    return {"tokens": sum(len(d["tokens"]) for d in docs)}


def _tokens_in(args, kwargs, model):
    corpus = args[0] if args else kwargs["corpus"]
    return {"tokens": sum(len(doc) for doc in corpus)}


def _file_bytes(arg_index):
    def work(args, kwargs, out):
        path = args[arg_index] if len(args) > arg_index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return work


def _tuples(args, kwargs, out):
    return {"tuples": len(out)}


def _dedup(args, kwargs, admitted):
    return {"candidates": len(args[0]), "admitted": len(admitted)}


class _Patches:
    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    from radioscope import cli, dedup, models, pipelines, schemes, stats

    patches = _Patches()

    def span(owner, attr, name, work=None, only_under=None):
        patches.set(owner, attr,
                    tracer.span(name, vars(owner)[attr], work, only_under))

    try:
        # the benchmark builds the H0 teacher through models.make_teacher;
        # teacher training inside make_teacher is not a train_ngram span
        span(models, "make_teacher", "models.make_teacher")
        span(cli, "make_teacher", "models.make_teacher")
        for owner in (pipelines, cli):
            span(owner, "generate_corpus", "models.generate_corpus", _tokens_out)
            span(owner, "train_ngram", "models.train_ngram", _tokens_in)
        span(cli, "save_corpus", "models.corpus_io", _file_bytes(1))
        span(cli, "load_corpus", "models.corpus_io", _file_bytes(0))
        span(cli, "save_model", "models.save_model", _file_bytes(1))
        span(cli, "load_model", "models.load_model", _file_bytes(0))
        span(models.NGramModel, "next_greedy", "models.next_greedy")
        # completions are sampled through TextSampler.generate; so is every
        # corpus, which generate_corpus already covers
        span(models.TextSampler, "generate", "models.complete",
             only_under="pipelines.detect_closed")
        # GreenlistCache derives each greenlist with one derive_permutation
        span(schemes, "derive_permutation", "schemes.greenlist")
        span(schemes, "green_mask_batch", "hashing.green_mask_batch")
        span(pipelines, "score_batch", "schemes.score_batch", _tuples)
        span(pipelines, "canonical_dedup", "dedup.canonical_dedup", _dedup)
        span(cli, "build_filter", "dedup.build_filter")
        # pipelines reaches the tails as stats.<name>, so patch them there
        span(stats, "log_gamma_pvalue", "stats.pvalue")
        span(stats, "log_binomial_pvalue", "stats.pvalue")
        span(pipelines, "detect_open", "pipelines.detect_open")
        span(pipelines, "detect_closed", "pipelines.detect_closed")
        for owner in (schemes, dedup):
            patches.set(owner, "window_hash", tracer.counted(
                "hashing.window_hash.calls", vars(owner)["window_hash"]))
        contains = vars(dedup.FilterSet)["__contains__"]
        counts = tracer.counts

        def filter_contains(phi, window):
            hit = contains(phi, window)
            counts["dedup.filter.checked"] += 1
            counts["dedup.filter.hits"] += hit
            return hit

        patches.set(dedup.FilterSet, "__contains__", filter_contains)
        yield tracer
    finally:
        patches.restore()


def layer_metrics(tracer: Tracer, cache_entries: int,
                  overhead_frac: float) -> dict:
    """Per-layer metrics of one traced pass, keyed as in PER_LAYER."""
    spans = tracer.spans
    busy: Counter = Counter()
    calls: Counter = Counter()
    work: Counter = Counter()
    errors: Counter = Counter()
    child_s: Counter = Counter()
    under_open: Counter = Counter()
    for rec in spans:
        name, dur = rec[NAME], rec[END] - rec[START]
        busy[name] += dur
        calls[name] += 1
        if rec[ERROR] is not None:
            errors[name] += 1
        for unit, amount in (rec[WORK] or {}).items():
            work[name, unit] += amount
        if rec[PARENT] >= 0:
            child_s[rec[PARENT]] += dur
            if spans[rec[PARENT]][NAME] == "pipelines.detect_open":
                under_open[name] += 1
                if name == "dedup.canonical_dedup":
                    under_open["positions"] += rec[WORK]["candidates"]

    def self_s(name):
        return sum(rec[END] - rec[START] - child_s[i]
                   for i, rec in enumerate(spans) if rec[NAME] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    out = {
        "models.generate_corpus.tokens": work["models.generate_corpus", "tokens"],
        "models.next_greedy.calls": calls["models.next_greedy"],
        "models.greedy_cache.hit_ratio": ratio(
            under_open["positions"] - under_open["models.next_greedy"],
            under_open["positions"]),
        "models.train_ngram.tokens": work["models.train_ngram", "tokens"],
        "models.checkpoint.bytes": (work["models.save_model", "bytes"]
                                    + work["models.load_model", "bytes"]),
        "models.corpus_io.bytes": work["models.corpus_io", "bytes"],
        "models.cache.entries": cache_entries,
        "schemes.greenlist.calls": calls["schemes.greenlist"],
        "schemes.score_batch.tuples": work["schemes.score_batch", "tuples"],
        "hashing.window_hash.calls": counts["hashing.window_hash.calls"],
        "dedup.candidates": work["dedup.canonical_dedup", "candidates"],
        "dedup.admitted": work["dedup.canonical_dedup", "admitted"],
        "dedup.admit_ratio": ratio(work["dedup.canonical_dedup", "admitted"],
                                   work["dedup.canonical_dedup", "candidates"]),
        "dedup.filter.hit_rate": ratio(counts["dedup.filter.hits"],
                                       counts["dedup.filter.checked"]),
        "stats.pvalue.errors": errors["stats.pvalue"],
        "pipelines.detect_open.self_s": self_s("pipelines.detect_open"),
        "pipelines.detect_closed.self_s": self_s("pipelines.detect_closed"),
        "trace.overhead_frac": overhead_frac,
    }
    for metric in PER_LAYER:
        layer, _, suffix = metric.rpartition(".")
        if metric not in out and suffix in ("busy_s", "wall_s"):
            out[metric] = busy[layer]
    return out


def count_metrics(metrics: dict) -> dict:
    """The metrics that must repeat exactly for a given seed."""
    return {name: value for name, value in metrics.items()
            if PER_LAYER[name] != "s" and name != "trace.overhead_frac"}
