"""End-to-end radioactivity detection pipelines.

Closed mode prompts the suspect and scores the resulting text; open mode
forwards watermarked text through the suspect and scores its greedy
next-token predictions.  Both run every candidate tuple through the
de-duplication tape before scoring, then convert the cumulative score
into an exact p-value.
"""

from __future__ import annotations

import csv
import warnings
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import stats
from .dedup import CLOSED, OPEN, Candidate, FilterSet, Tape, canonical_dedup
from .hashing import ConfigError, SecretKey, stream_value
from .models import (
    MixSpec,
    NGramModel,
    SamplingConfig,
    TextSampler,
    generate_corpus,
    make_teacher,
    mix_dataset,
    train_ngram,
)
from .remote import CapabilityError, RemoteModel
from .schemes import AK, KGW, WatermarkConfig, score_batch

_LN10 = float(np.log(10.0))


@dataclass
class DetectionReport:
    """Everything a detection run produces, plus enough to recompute it."""

    scheme: str
    mode: str
    supervision: str
    n_scored: int
    score: float
    p_value: float
    log10_p: float
    inconclusive: bool = False
    dedup_applied: bool = True
    filter_stats: tuple | None = None  # (|phi|, hit rate)
    dedup_stats: tuple = (0, 0)  # (candidates, admitted)
    meta: dict = field(default_factory=dict)


class DetectionInterrupted(RuntimeError):
    """Remote failure mid-run; carries the partial report."""

    def __init__(self, message: str, partial: DetectionReport):
        super().__init__(message)
        self.partial = partial


def pvalue_for(score: float, n: int, cfg: WatermarkConfig) -> tuple[float, float]:
    """(p, log10 p) for a cumulative score under the config's scheme."""
    if n == 0:
        return 1.0, 0.0
    if cfg.scheme == AK:
        lp = stats.log_gamma_pvalue(score, n)
    else:
        lp = stats.log_binomial_pvalue(int(round(score)), n, cfg.gamma)
    p = float(np.exp(lp)) if lp > -745.0 else 0.0
    return p, lp / _LN10


def _check_vocab(tokens, vocab_size: int, what: str) -> None:
    """Refuse a token outside ``[0, vocab_size)``, naming ``what`` and the position."""
    for pos, tok in enumerate(tokens):
        if not 0 <= tok < vocab_size:
            raise ConfigError(f"{what}: token {tok} at position {pos} is "
                              f"outside the vocabulary [0, {vocab_size})")


def _score_candidates(admitted: list[Candidate], cfg: WatermarkConfig) -> float:
    if not admitted:
        return 0.0
    seeds = np.array([cfg.seed(c.window) for c in admitted], dtype=np.uint64)
    tokens = np.array([c.token for c in admitted], dtype=np.intp)
    return float(score_batch(seeds, tokens, cfg).sum())


def _finish_report(admitted, n_candidates, cfg, mode, supervision,
                   dedup, phi_stats, meta) -> DetectionReport:
    score = _score_candidates(admitted, cfg)
    n = len(admitted)
    p, log10_p = pvalue_for(score, n, cfg)
    return DetectionReport(
        scheme=cfg.scheme,
        mode=mode,
        supervision=supervision,
        n_scored=n,
        score=score,
        p_value=p,
        log10_p=log10_p,
        inconclusive=(n == 0),
        dedup_applied=dedup,
        filter_stats=phi_stats,
        dedup_stats=(n_candidates, n),
        meta=meta,
    )


def detect_closed(suspect, prompts, key_cfg: WatermarkConfig,
                  phi: FilterSet | None = None, budget: int = 1_000_000,
                  sampling: SamplingConfig | None = None, dedup: bool = True,
                  supervision: str = "supervised",
                  completions: list | None = None,
                  tables: dict | None = None) -> DetectionReport:
    """Prompt the suspect, score the resulting text with the watermark key.

    With de-duplication, a tuple is scored only if its window is not a
    k-gram of the prompt and its (k+1)-tuple has not been scored before;
    this silently excludes all prompt-internal tuples.  With
    ``dedup=False`` every tuple in prompt+completion is scored, which is
    statistically invalid (a loud warning is emitted) and exists to
    demonstrate the false-alarm collapse.
    """
    if not prompts:
        raise ValueError("prompts must be nonempty")
    sampling = sampling or SamplingConfig()
    if not dedup:
        warnings.warn(
            "de-duplication disabled: p-values are NOT valid and will "
            "collapse on watermarked prompts",
            stacklevel=2,
        )
    k, v = key_cfg.k, key_cfg.vocab_size
    prompts = [list(prompt) for prompt in prompts]
    for doc_id, prompt in enumerate(prompts):
        _check_vocab(prompt, v, f"prompt {doc_id}")
    if completions is None:
        completions = _complete(suspect, prompts, sampling, key_cfg, tables)
    candidates = []
    phi_checked = phi_hits = 0
    for doc_id, (prompt, completion) in enumerate(zip(prompts, completions)):
        _check_vocab(completion, v, f"completion {doc_id}")
        stream = prompt + list(completion)
        prompt_kgrams = {tuple(prompt[i : i + k]) for i in range(len(prompt) - k + 1)}
        for pos in range(k, len(stream)):
            window = tuple(stream[pos - k : pos])
            if phi is not None:
                phi_checked += 1
                if window not in phi:
                    continue
                phi_hits += 1
            blocked = dedup and window in prompt_kgrams
            candidates.append(Candidate(doc_id, pos, window, stream[pos], blocked))
    if dedup:
        tape = Tape(mode=CLOSED)
        admitted = canonical_dedup(candidates, tape, key_cfg.key)
    else:
        admitted = sorted(candidates, key=lambda c: (c.doc_id, c.pos))
    admitted = admitted[:budget]
    phi_stats = (len(phi), phi_hits / max(phi_checked, 1)) if phi is not None else None
    return _finish_report(admitted, len(candidates), key_cfg, CLOSED,
                          supervision, dedup, phi_stats,
                          {"budget": budget})


def _complete(suspect, prompts, sampling: SamplingConfig, key_cfg,
              tables: dict | None = None) -> list[list[int]]:
    if isinstance(suspect, RemoteModel):
        try:
            return suspect.complete_many(prompts, sampling.max_tokens)
        except Exception as exc:
            partial = DetectionReport(key_cfg.scheme, CLOSED, "unknown", 0, 0.0,
                                      1.0, 0.0, inconclusive=True,
                                      meta={"error": str(exc)})
            raise DetectionInterrupted(str(exc), partial) from exc
    sampler = TextSampler(suspect, sampling, tables=tables)
    rng = np.random.default_rng(sampling.seed)
    return [sampler.generate(p, sampling.max_tokens, rng) for p in prompts]


def detect_open(suspect, wm_texts, key_cfg: WatermarkConfig,
                budget: int = 1_000_000, span: int | None = None,
                supervision: str = "supervised", dedup: bool = True,
                greedy_cache: dict | None = None) -> DetectionReport:
    """Reading mode: forward watermarked text, score greedy predictions.

    For every position with a full k-window, the suspect's most likely
    next token is scored against the input-derived window.  A window that
    already occurred earlier in the attention span is skipped.  Documents
    may carry a ``prompt_len`` field marking a leading region that is
    never scored but still counts as earlier context.
    """
    if not hasattr(suspect, "next_greedy"):
        raise CapabilityError(
            "suspect does not expose next-token distributions; use detect_closed"
        )
    k = key_cfg.k
    # the suspect's prediction depends only on its own context length, so
    # greedy readouts are memoized per effective context; pass the cache in
    # to share it across runs against the same suspect
    order = getattr(suspect, "order", None)
    if greedy_cache is None:
        greedy_cache = {}
    candidates = []
    for doc_id, doc in enumerate(wm_texts):
        is_dict = isinstance(doc, dict)
        tokens = list(doc["tokens"] if is_dict else doc)
        prompt_len = int(doc.get("prompt_len", 0)) if is_dict else 0
        _check_vocab(tokens, key_cfg.vocab_size, f"document {doc_id}")
        first_start: dict = {}
        for start in range(len(tokens) - k + 1):
            window = tuple(tokens[start : start + k])
            first_start.setdefault(window, start)
        prompt_kgrams = {tuple(tokens[i : i + k])
                         for i in range(prompt_len - k + 1)}
        for pos in range(max(k, prompt_len), len(tokens)):
            window = tuple(tokens[pos - k : pos])
            earlier = first_start[window] < pos - k
            if earlier and span is not None and first_start[window] < pos - k - span:
                earlier = False  # outside the attention span
            blocked = dedup and (earlier or window in prompt_kgrams)
            if order is not None:
                ctx = tuple(tokens[max(0, pos - order) : pos])
                predicted = greedy_cache.get(ctx)
                if predicted is None:
                    predicted = suspect.next_greedy(ctx)
                    greedy_cache[ctx] = predicted
            else:
                predicted = suspect.next_greedy(tokens[:pos])
            candidates.append(Candidate(doc_id, pos, window, predicted, blocked))
    if dedup:
        tape = Tape(mode=OPEN)
        admitted = canonical_dedup(candidates, tape, key_cfg.key)
    else:
        admitted = sorted(candidates, key=lambda c: (c.doc_id, c.pos))
    admitted = admitted[:budget]
    return _finish_report(admitted, len(candidates), key_cfg, OPEN,
                          supervision, dedup, None, {"budget": budget})


def mia_detect(suspect: NGramModel, candidate_set, fresh_set):
    """Calibrated-loss membership inference baseline (no watermark needed).

    Per-document loss is the model's total log-loss divided by the zlib
    compressed length of the document's text payload; the two samples are
    compared with a two-sample K-S test.
    """
    def calibrated(docs):
        values, skipped = [], 0
        for doc in docs:
            text = doc.get("text")
            if not text:
                skipped += 1
                continue
            denom = len(zlib.compress(text.encode()))
            values.append(suspect.log_loss(doc["tokens"]) / denom)
        return values, skipped

    cand, cand_skipped = calibrated(candidate_set)
    fresh, fresh_skipped = calibrated(fresh_set)
    if not cand or not fresh:
        raise ValueError("both document sets need at least one text payload")
    d, p = stats.ks_two_sample(cand, fresh)
    report = {
        "d": d,
        "p": p,
        "n_candidate": len(cand),
        "n_fresh": len(fresh),
        "skipped": cand_skipped + fresh_skipped,
    }
    return d, p, report


def combine_distributions(reports: list[DetectionReport]):
    """Fisher-combined p-value across per-distribution detection reports."""
    if not reports:
        raise ValueError("need at least one report")
    corpora = [r.meta.get("corpus_id") for r in reports if r.meta.get("corpus_id")]
    if len(corpora) != len(set(corpora)):
        warnings.warn("reports share a corpus; Fisher independence is violated",
                      stacklevel=2)
    # work from log10_p so underflowed p-values keep their mass
    x = -2.0 * sum(r.log10_p * _LN10 for r in reports)
    lp = stats.log_gamma_pvalue(x / 2.0, len(reports))
    p = float(np.exp(lp)) if lp > -745.0 else 0.0
    return p, lp / _LN10


# ---------------------------------------------------------------------------
# experiment building blocks (shared by run_scenario and direct callers)

def derive_run_key(master_seed: int, run_index: int) -> SecretKey:
    """Independent per-run secret key from a master seed."""
    return SecretKey(stream_value(master_seed, run_index) or 1)


def contaminated_student(teacher: NGramModel, wm_cfg: WatermarkConfig | None,
                         rho: float, *, n_docs: int, doc_len: int, order: int,
                         smoothing_lambda: float = 0.01,
                         sampling: SamplingConfig, d: float = 1.0):
    """Train a student on a rho-mix of watermarked and clean teacher text.

    Returns ``(student, train_docs, supervised_docs)`` where
    ``supervised_docs`` is the detector-visible watermarked corpus diluted
    to supervision degree ``d``.
    """
    n_wm = round(rho * n_docs)
    wm_docs: list[dict] = []
    if n_wm > 0:
        n_total = round(n_wm / d) if d > 0 else n_wm
        wm_docs = generate_corpus(teacher, n_total, doc_len,
                                  replace(sampling, seed=sampling.seed + 1),
                                  wm=wm_cfg)
    clean_docs = generate_corpus(teacher, n_docs, doc_len,
                                 replace(sampling, seed=sampling.seed + 2))
    train_docs, supervised = mix_dataset(wm_docs, clean_docs, MixSpec(rho, d))
    student = train_ngram([doc["tokens"] for doc in train_docs], order,
                          smoothing_lambda, teacher.vocab_size)
    return student, train_docs, supervised


def run_detection(student: NGramModel, teacher: NGramModel,
                  wm_cfg: WatermarkConfig, mode: str, *, n_docs: int,
                  doc_len: int, sampling: SamplingConfig, budget: int = 1_000_000,
                  phi: FilterSet | None = None, prompt_len: int = 10,
                  dedup: bool = True,
                  greedy_cache: dict | None = None,
                  teacher_tables: dict | None = None,
                  suspect_tables: dict | None = None) -> DetectionReport:
    """One detection run against a student, in either access mode.

    Open mode forwards fresh watermarked teacher text through the student;
    closed mode prompts the student with fresh clean teacher prefixes.
    The cache arguments let repeated runs against the same models share
    decode tables and greedy readouts.
    """
    if mode == OPEN:
        docs = generate_corpus(teacher, n_docs, doc_len,
                               replace(sampling, seed=sampling.seed + 3),
                               wm=wm_cfg, tables=teacher_tables)
        return detect_open(student, docs, wm_cfg, budget=budget, dedup=dedup,
                           greedy_cache=greedy_cache)
    prompt_docs = generate_corpus(teacher, n_docs, prompt_len + 3,
                                  replace(sampling, seed=sampling.seed + 4),
                                  tables=teacher_tables)
    prompts = [doc["tokens"] for doc in prompt_docs]
    return detect_closed(student, prompts, wm_cfg, phi=phi, budget=budget,
                         sampling=replace(sampling, max_tokens=doc_len),
                         dedup=dedup, tables=suspect_tables)


# ---------------------------------------------------------------------------
# scenario files

_SCENARIOS = ("rho_sweep", "d_sweep", "k_sweep", "purification")

_SCENARIO_DEFAULTS: dict = {
    "scheme": KGW,
    "k": 2,
    "gamma": 0.25,
    "delta": 3.0,
    "temperature": None,
    "message": None,
    "vocab_size": 128,
    "teacher_order": 2,
    "teacher_seed": 7,
    "student_order": 3,
    "smoothing_lambda": 0.01,
    "n_docs": 200,
    "doc_len": 200,
    "detect_docs": 40,
    "detect_len": 200,
    "prompt_len": 10,
    "repetitions": 3,
    "seed": 0,
    "budget": 1_000_000,
    "modes": ["open"],
    "rho": [0.0, 0.5, 1.0],
    "rho_value": 1.0,
    "d_values": [1.0, 0.1, 0.01],
    "k_values": [1, 2, 4],
    "nucleus_p": 0.95,
    "sampling_temperature": 0.8,
}

_INT_KEYS = {"k", "vocab_size", "teacher_order", "teacher_seed", "student_order",
             "n_docs", "doc_len", "detect_docs", "detect_len", "prompt_len",
             "repetitions", "seed", "budget"}
_FLOAT_KEYS = {"gamma", "delta", "temperature", "smoothing_lambda", "rho_value",
               "nucleus_p", "sampling_temperature"}
_LIST_KEYS = {"modes", "rho", "d_values", "k_values"}


def parse_scenario(path) -> dict:
    """Parse a plain ``key = value`` scenario file with line-level errors."""
    spec = dict(_SCENARIO_DEFAULTS)
    seen_scenario = False
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                if key == "scenario":
                    if value not in _SCENARIOS:
                        raise ValueError(f"unknown scenario {value!r}")
                    spec[key] = value
                    seen_scenario = True
                elif key in ("scheme", "message"):
                    spec[key] = value
                elif key in _INT_KEYS:
                    spec[key] = int(value)
                elif key in _FLOAT_KEYS:
                    spec[key] = float(value)
                elif key in _LIST_KEYS:
                    items = [v.strip() for v in value.split(",") if v.strip()]
                    if key == "modes":
                        bad = set(items) - {OPEN, CLOSED}
                        if bad:
                            raise ValueError(f"unknown mode(s) {sorted(bad)}")
                        spec[key] = items
                    elif key == "k_values":
                        spec[key] = [int(v) for v in items]
                    else:
                        spec[key] = [float(v) for v in items]
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not seen_scenario:
        raise ValueError(f"{path}: missing required key 'scenario'")
    return spec


def _scenario_wm(spec: dict, key: SecretKey, k: int | None = None) -> WatermarkConfig:
    return WatermarkConfig(
        scheme=spec["scheme"],
        key=key,
        vocab_size=spec["vocab_size"],
        k=k if k is not None else spec["k"],
        gamma=spec["gamma"],
        delta=spec["delta"],
        temperature=spec["temperature"],
        message=spec["message"],
    )


def _attach_text(docs: list[dict]) -> list[dict]:
    # MIA calibration needs a text payload; token serialization stands in
    return [{**doc, "text": " ".join(map(str, doc["tokens"]))} for doc in docs]


def run_scenario(spec_path, out_dir=None) -> Path:
    """Run a scenario end to end; writes results.csv and summary.svg."""
    spec = parse_scenario(spec_path)
    out = Path(out_dir) if out_dir is not None else Path(str(spec_path) + ".out")
    out.mkdir(parents=True, exist_ok=True)
    teacher = make_teacher(vocab_size=spec["vocab_size"],
                           seed=spec["teacher_seed"],
                           order=spec["teacher_order"])
    sampling = SamplingConfig(temperature=spec["sampling_temperature"],
                              nucleus_p=spec["nucleus_p"])
    rows: list[dict] = []
    name = spec["scenario"]
    if name == "rho_sweep":
        _run_value_sweep(spec, teacher, sampling, rows, "rho", spec["rho"])
    elif name == "k_sweep":
        _run_value_sweep(spec, teacher, sampling, rows, "k", spec["k_values"])
    elif name == "purification":
        _run_purification(spec, teacher, sampling, rows)
    else:
        _run_mia_sweep(spec, teacher, sampling, rows)
    write_results_csv(rows, out / "results.csv")
    series = _summarize(rows)
    xlabel = {"rho_sweep": "rho", "k_sweep": "k", "d_sweep": "d",
              "purification": "phase"}[name]
    svg_summary(series, out / "summary.svg", xlabel=xlabel,
                ylabel="log10 p", title=name)
    return out


def _run_value_sweep(spec, teacher, sampling, rows, sweep, values):
    run = 0
    for value in values:
        for rep in range(spec["repetitions"]):
            key = derive_run_key(spec["seed"], run)
            base = replace(sampling, seed=spec["seed"] + 101 * run)
            run += 1
            if sweep == "rho":
                wm = _scenario_wm(spec, key)
                rho = value
            else:
                wm = _scenario_wm(spec, key, k=int(value))
                rho = spec["rho_value"]
            student, _, _ = contaminated_student(
                teacher, wm, rho, n_docs=spec["n_docs"],
                doc_len=spec["doc_len"], order=spec["student_order"],
                smoothing_lambda=spec["smoothing_lambda"], sampling=base)
            for mode in spec["modes"]:
                report = run_detection(
                    student, teacher, wm, mode, n_docs=spec["detect_docs"],
                    doc_len=spec["detect_len"], sampling=base,
                    budget=spec["budget"], prompt_len=spec["prompt_len"])
                rows.append(_row(spec, sweep, value, rep, mode, report, key))


def _run_purification(spec, teacher, sampling, rows):
    for rep in range(spec["repetitions"]):
        key = derive_run_key(spec["seed"], rep)
        base = replace(sampling, seed=spec["seed"] + 101 * rep)
        wm = _scenario_wm(spec, key)
        student, train_docs, _ = contaminated_student(
            teacher, wm, spec["rho_value"], n_docs=spec["n_docs"],
            doc_len=spec["doc_len"], order=spec["student_order"],
            smoothing_lambda=spec["smoothing_lambda"], sampling=base)
        mode = spec["modes"][0]
        detect = dict(n_docs=spec["detect_docs"], doc_len=spec["detect_len"],
                      sampling=base, budget=spec["budget"],
                      prompt_len=spec["prompt_len"])
        pre = run_detection(student, teacher, wm, mode, **detect)
        rows.append(_row(spec, "phase", 0, rep, mode, pre, key, phase="pre"))
        clean = generate_corpus(teacher, len(train_docs), spec["doc_len"],
                                replace(base, seed=base.seed + 9))
        student.update([doc["tokens"] for doc in clean])
        post = run_detection(student, teacher, wm, mode, **detect)
        rows.append(_row(spec, "phase", 1, rep, mode, post, key, phase="post"))


def _run_mia_sweep(spec, teacher, sampling, rows):
    run = 0
    for d in spec["d_values"]:
        for rep in range(spec["repetitions"]):
            key = derive_run_key(spec["seed"], run)
            base = replace(sampling, seed=spec["seed"] + 101 * run)
            run += 1
            wm = _scenario_wm(spec, key)
            student, _, supervised = contaminated_student(
                teacher, wm, spec["rho_value"], n_docs=spec["n_docs"],
                doc_len=spec["doc_len"], order=spec["student_order"],
                smoothing_lambda=spec["smoothing_lambda"], sampling=base, d=d)
            fresh = generate_corpus(teacher, len(supervised), spec["doc_len"],
                                    replace(base, seed=base.seed + 5), wm=wm)
            stat, p, _ = mia_detect(student, _attach_text(supervised),
                                    _attach_text(fresh))
            fake = DetectionReport("mia", CLOSED, "supervised",
                                   len(supervised), stat, p,
                                   float(np.log10(max(p, 1e-300))))
            rows.append(_row(spec, "d", d, rep, CLOSED, fake, key))


def _row(spec, sweep, value, rep, mode, report: DetectionReport,
         key: SecretKey, phase: str = "") -> dict:
    return {
        "scenario": spec["scenario"],
        "scheme": spec["scheme"],
        "sweep": sweep,
        "value": value,
        "rep": rep,
        "mode": mode,
        "phase": phase,
        "n_scored": report.n_scored,
        "score": report.score,
        "log10_p": report.log10_p,
        "key_fingerprint": key.fingerprint(),
    }


_CSV_FIELDS = ["scenario", "scheme", "sweep", "value", "rep", "mode", "phase",
               "n_scored", "score", "log10_p", "key_fingerprint"]


def write_results_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _summarize(rows: list[dict]) -> dict:
    """Per (mode, swept value) mean and standard deviation of log10 p."""
    groups: dict = {}
    for row in rows:
        label = row["mode"]
        x = row["phase"] or row["value"]
        groups.setdefault(label, {}).setdefault(x, []).append(row["log10_p"])
    series = {}
    for label, by_x in groups.items():
        pts = []
        for x, vals in by_x.items():
            arr = np.asarray(vals, dtype=np.float64)
            pts.append((str(x), float(arr.mean()),
                        float(arr.std(ddof=1)) if len(arr) > 1 else 0.0))
        series[label] = pts
    return series


# ---------------------------------------------------------------------------
# dependency-free SVG summary plot

_SVG_COLORS = ["#1f6fb4", "#d35400", "#1e8449", "#7d3c98"]


def svg_summary(series: dict, path, xlabel: str = "", ylabel: str = "log10 p",
                title: str = "") -> None:
    """Line plot with error bars, one polyline per series, categorical x."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    xs: list[str] = []
    for pts in series.values():
        for x, _, _ in pts:
            if x not in xs:
                xs.append(x)
    ys = [m + s for pts in series.values() for _, m, s in pts]
    ys += [m - s for pts in series.values() for _, m, s in pts]
    lo, hi = (min(ys), max(ys)) if ys else (-1.0, 0.0)
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def px(i: int) -> float:
        if len(xs) == 1:
            return left + plot_w / 2
        return left + plot_w * i / (len(xs) - 1)

    def py(y: float) -> float:
        return top + plot_h * (hi - y) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="22" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for i, x in enumerate(xs):
        parts.append(
            f'<text x="{px(i)}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{x}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = lo + frac * (hi - lo)
        parts.append(
            f'<line x1="{left - 4}" y1="{py(y):.1f}" x2="{left}" '
            f'y2="{py(y):.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 8}" y="{py(y) + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{y:.2f}</text>')
    parts.append(
        f'<text x="{left + plot_w / 2}" y="{height - 8}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{top + plot_h / 2}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 16 {top + plot_h / 2})">{ylabel}</text>')
    for si, (label, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[si % len(_SVG_COLORS)]
        coords = []
        for x, mean, std in pts:
            i = xs.index(x)
            cx, cy = px(i), py(mean)
            coords.append(f"{cx:.1f},{cy:.1f}")
            parts.append(
                f'<line x1="{cx:.1f}" y1="{py(mean - std):.1f}" x2="{cx:.1f}" '
                f'y2="{py(mean + std):.1f}" stroke="{color}"/>')
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 14 + 16 * si
        parts.append(
            f'<line x1="{left + plot_w - 90}" y1="{ly}" '
            f'x2="{left + plot_w - 70}" y2="{ly}" stroke="{color}" '
            'stroke-width="1.5"/>')
        parts.append(
            f'<text x="{left + plot_w - 64}" y="{ly + 4}" font-size="11" '
            f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
