"""End-to-end radioactivity detection pipelines.

Closed mode prompts the suspect and scores the resulting text; open mode
forwards watermarked text through the suspect and scores its greedy
next-token predictions.  Both collect one candidate table, de-duplicate
it with :func:`~radioscope.dedup.canonical_dedup`, score the admitted
rows and convert the cumulative score into an exact p-value.
"""

from __future__ import annotations

import csv
import warnings
import zlib
from dataclasses import dataclass, field, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import stats
from .dedup import CLOSED, OPEN, FilterSet, canonical_dedup, candidate_table
from .hashing import HASH_MOD, ConfigError, SecretKey, stream_value
from .models import (
    MixSpec,
    NGramModel,
    SamplingConfig,
    TextSampler,
    _check_key_vocab,
    _token_ids,
    generate_corpus,
    make_teacher,
    mix_dataset,
    train_ngram,
)
from .remote import CapabilityError, RemoteModel
from .schemes import KGW, WatermarkConfig, detector, score_batch

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
    log_tail = detector(cfg)[1]
    if n == 0:
        return 1.0, 0.0
    lp = log_tail(score, n, cfg)
    p = float(np.exp(lp)) if lp > -745.0 else 0.0
    return p, lp / _LN10


def _check_vocab(tokens, vocab_size: int, what: str) -> None:
    """Refuse a token that is not an integer in ``[0, vocab_size)``, naming
    ``what`` and the position."""
    try:
        _token_ids([tokens], vocab_size, name=f"{what}: token")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _joined_ids(docs, vocab_size: int):
    """The tokens of ``docs`` joined as int64, checked in one pass, or None
    when a token is not an integer in ``[0, vocab_size)``: the caller then
    checks each document with :func:`_check_vocab`, whose error names it."""
    try:
        return _token_ids(docs, vocab_size)
    except ValueError:
        return None


def _check_run(cfg: WatermarkConfig, budget: int) -> None:
    """Refuse a scheme without a radioactivity test and a negative budget."""
    detector(cfg)
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")


def _finish_report(cands, dedup, budget, cfg, mode, supervision,
                   phi_stats) -> DetectionReport:
    admitted = (canonical_dedup(cands) if dedup else cands)[:budget]
    score = float(score_batch(admitted["seed"], admitted["token"], cfg).sum())
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
        dedup_stats=(len(cands), n),
        meta={"budget": budget},
    )


def detect_closed(suspect, prompts, key_cfg: WatermarkConfig,
                  phi: FilterSet | None = None, budget: int = 1_000_000,
                  sampling: SamplingConfig | None = None, dedup: bool = True,
                  supervision: str = "supervised",
                  completions: list | None = None) -> DetectionReport:
    """Prompt the suspect, score the resulting text with the watermark key.

    With de-duplication, a tuple is scored only if its window is not a
    k-gram of the prompt and its (window seed, token) pair has not been
    scored before; this silently excludes all prompt-internal tuples.  With
    ``dedup=False`` every tuple in prompt+completion is scored, which is
    statistically invalid (a loud warning is emitted) and exists to
    demonstrate the false-alarm collapse.
    """
    _check_run(key_cfg, budget)
    if isinstance(suspect, NGramModel):  # refused before any completion is sampled
        _check_key_vocab(key_cfg, suspect)
    if not prompts:
        raise ValueError("prompts must be nonempty")
    if phi is not None and phi.k != key_cfg.k:
        raise ConfigError(f"the filter holds {phi.k}-grams, but the key's window "
                          f"is k={key_cfg.k}")
    sampling = sampling or SamplingConfig()
    if not dedup:
        warnings.warn(
            "de-duplication disabled: p-values are NOT valid and will "
            "collapse on watermarked prompts",
            stacklevel=2,
        )
    k, v = key_cfg.k, key_cfg.vocab_size
    prompts = [list(prompt) for prompt in prompts]
    if _joined_ids(prompts, v) is None:
        for doc_id, prompt in enumerate(prompts):
            _check_vocab(prompt, v, f"prompt {doc_id}")
    if completions is None:
        completions = _complete(suspect, prompts, sampling, key_cfg)
    pairs = list(zip(prompts, completions))
    # each document is its prompt followed by its completion
    tokens = _joined_ids([part for pair in pairs for part in pair], v)
    if tokens is None:
        for doc_id, (_, completion) in enumerate(pairs):
            _check_vocab(completion, v, f"completion {doc_id}")
    prompt_lens = [len(prompt) for prompt, _ in pairs]
    lens = [len(prompt) + len(completion) for prompt, completion in pairs]
    cands = candidate_table(tokens, lens, prompt_lens, k, key_cfg.key, open_mode=False)
    phi_stats = None
    if phi is not None:
        offsets = np.cumsum(lens, dtype=np.int64) - lens
        starts = offsets[cands["doc"]] + cands["pos"] - k
        hits = phi.hits(tokens[starts[:, None] + np.arange(k)])
        phi_stats = (len(phi), int(hits.sum()) / max(len(hits), 1))
        cands = cands[hits]
    return _finish_report(cands, dedup, budget, key_cfg, CLOSED, supervision,
                          phi_stats)


def _complete(suspect, prompts, sampling: SamplingConfig, key_cfg) -> list[list[int]]:
    if isinstance(suspect, RemoteModel):
        try:
            return suspect.complete_many(prompts, sampling.max_tokens)
        except Exception as exc:
            partial = DetectionReport(key_cfg.scheme, CLOSED, "unknown", 0, 0.0,
                                      1.0, 0.0, inconclusive=True,
                                      meta={"error": str(exc)})
            raise DetectionInterrupted(str(exc), partial) from exc
    sampler = TextSampler(suspect, sampling)
    uniforms = np.random.default_rng(sampling.seed).random((len(prompts), sampling.max_tokens))
    return sampler.generate(prompts, sampling.max_tokens, uniforms).tolist()


def detect_open(suspect, wm_texts, key_cfg: WatermarkConfig,
                budget: int = 1_000_000, supervision: str = "supervised",
                dedup: bool = True) -> DetectionReport:
    """Reading mode: forward watermarked text, score greedy predictions.

    For every position with a full k-window, the suspect's most likely
    next token, read out for all positions at once, is scored against the
    input-derived window.  A window that already occurred earlier in the
    document is skipped.  Documents may carry a ``prompt_len`` field, a
    non-negative integer marking a leading region that is never scored but
    still counts as earlier context.
    """
    _check_run(key_cfg, budget)
    if not isinstance(suspect, NGramModel):
        raise CapabilityError("open mode reads greedy predictions, which only an "
                              "NGramModel suspect gives; use detect_closed")
    _check_key_vocab(key_cfg, suspect)
    wm_texts = list(wm_texts)
    texts = [list(doc["tokens"] if isinstance(doc, dict) else doc) for doc in wm_texts]
    tokens = _joined_ids(texts, key_cfg.vocab_size)
    prompt_lens = []
    for doc_id, (doc, text) in enumerate(zip(wm_texts, texts)):
        if tokens is None:
            _check_vocab(text, key_cfg.vocab_size, f"document {doc_id}")
        n = doc.get("prompt_len", 0) if isinstance(doc, dict) else 0
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ConfigError(f"document {doc_id}: prompt_len {n!r} is not a "
                              "non-negative integer")
        prompt_lens.append(min(n, len(text)))  # a prompt past the end blocks no more
    cands = candidate_table(tokens, [len(text) for text in texts], prompt_lens,
                            key_cfg.k, key_cfg.key, open_mode=True)
    cands = cands[cands["pos"] >= np.asarray(prompt_lens, dtype=np.int64)[cands["doc"]]]
    cands["token"] = suspect.greedy_at(texts, cands["doc"], cands["pos"])
    return _finish_report(cands, dedup, budget, key_cfg, OPEN, supervision, None)


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
    lp = stats.log_fisher_combine_logs([r.log10_p * _LN10 for r in reports])
    p = float(np.exp(lp)) if lp > -745.0 else 0.0
    return p, lp / _LN10


# ---------------------------------------------------------------------------
# experiment building blocks (shared by run_scenario and direct callers)

def derive_run_key(master_seed: int, run_index: int) -> SecretKey:
    """Independent per-run secret key from a master seed."""
    return SecretKey(stream_value(master_seed, run_index) % HASH_MOD or 1)


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
                                  replace(sampling, seed=sampling.seed + 1), wm=wm_cfg)
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
    ``greedy_cache``, ``teacher_tables`` and ``suspect_tables`` are ignored:
    the open readout keeps no memo, and each model keeps its own decode rows.
    """
    if mode == OPEN:
        docs = generate_corpus(teacher, n_docs, doc_len,
                               replace(sampling, seed=sampling.seed + 3), wm=wm_cfg)
        return detect_open(student, docs, wm_cfg, budget=budget, dedup=dedup)
    prompt_docs = generate_corpus(teacher, n_docs, prompt_len + 3,
                                  replace(sampling, seed=sampling.seed + 4))
    prompts = [doc["tokens"] for doc in prompt_docs]
    return detect_closed(student, prompts, wm_cfg, phi=phi, budget=budget,
                         sampling=replace(sampling, max_tokens=doc_len), dedup=dedup)


# ---------------------------------------------------------------------------
# scenario files

# scenario type -> (its CSV sweep label, the spec list it runs over)
_SWEEPS = {
    "rho_sweep": ("rho", "rho"),
    "d_sweep": ("d", "d_values"),
    "k_sweep": ("k", "k_values"),
    "purification": ("phase", None),
}

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


def read_key_values(path):
    """Yield ``(lineno, key, value)`` for each ``key = value`` line of a file.

    ``#`` starts a comment and blank lines are skipped; any other line
    without ``=`` is a ``ValueError`` naming the file and line.
    """
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            yield lineno, key.strip(), value.strip()


def parse_scenario(path) -> dict:
    """Parse a plain ``key = value`` scenario file with line-level errors."""
    spec = dict(_SCENARIO_DEFAULTS)
    seen_scenario = False
    lines = {}
    for lineno, key, value in read_key_values(path):
        lines[key] = lineno
        try:
            if key == "scenario":
                if value not in _SWEEPS:
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
                if not items:
                    raise ValueError(f"{key} must hold at least one value")
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
    # generate_corpus starts every document with a 3-token prompt: the
    # training corpora are doc_len long, open detection's documents
    # detect_len, and closed detection's prompts prompt_len + 3
    floors = {"doc_len": 3}
    if OPEN in spec["modes"]:
        floors["detect_len"] = 3
    if CLOSED in spec["modes"]:
        floors["prompt_len"] = 0
    rules = [(key, spec[key] >= floor, f"be >= {floor} (generated documents "
              "start with a 3-token prompt)") for key, floor in floors.items()]
    rules += [
        ("n_docs", spec["n_docs"] >= 1, "be >= 1"),
        ("repetitions", spec["repetitions"] >= 1, "be >= 1"),
        ("rho", all(0 <= r <= 1 for r in spec["rho"]), "lie in [0, 1]"),
        ("rho_value", 0 <= spec["rho_value"] <= 1, "lie in [0, 1]"),
        ("d_values", all(0 < d <= 1 for d in spec["d_values"]), "lie in (0, 1]"),
        ("k_values", all(k >= 1 for k in spec["k_values"]), "be >= 1"),
    ]
    if spec["scenario"] != "d_sweep":  # every other type detects on detect_docs
        rules.append(("detect_docs", spec["detect_docs"] >= 1, "be >= 1"))
    else:  # d_sweep's MIA needs watermarked training documents
        rules += [
            ("rho_value", spec["rho_value"] > 0, "be > 0 for d_sweep"),
            ("rho_value", round(spec["rho_value"] * spec["n_docs"]) >= 1,
             "leave round(rho_value * n_docs) >= 1 watermarked documents "
             f"for d_sweep at n_docs = {spec['n_docs']}"),
        ]
    for key, ok, rule in rules:
        if not ok:  # the defaults pass, so the file set it
            raise ValueError(f"{path}:{lines[key]}: {key} must {rule}, got {spec[key]}")
    return spec


def _attach_text(docs: list[dict]) -> list[dict]:
    # MIA calibration needs a text payload; token serialization stands in
    return [{**doc, "text": " ".join(map(str, doc["tokens"]))} for doc in docs]


def run_scenario(spec_path, out_dir=None) -> Path:
    """Run a scenario end to end; writes results.csv and summary.svg.

    Each run, one per swept value and repetition, gets its own key,
    sampling seed, watermark config and contaminated student.  Only the
    measurement differs by type: rho and k sweeps detect in each mode,
    ``d_sweep`` runs MIA on the watermarked documents the detector holds,
    and purification detects in each mode before and after clean
    retraining.
    """
    spec = parse_scenario(spec_path)
    out = Path(out_dir) if out_dir is not None else Path(str(spec_path) + ".out")
    out.mkdir(parents=True, exist_ok=True)
    teacher = make_teacher(vocab_size=spec["vocab_size"],
                           seed=spec["teacher_seed"],
                           order=spec["teacher_order"])
    sampling = SamplingConfig(temperature=spec["sampling_temperature"],
                              nucleus_p=spec["nucleus_p"])
    name = spec["scenario"]
    sweep, values = _SWEEPS[name]
    wm_fields = {f.name: spec[f.name] for f in fields(WatermarkConfig) if f.name in spec}
    detect = dict(n_docs=spec["detect_docs"], doc_len=spec["detect_len"],
                  budget=spec["budget"], prompt_len=spec["prompt_len"])
    rows: list[dict] = []
    runs = product(spec[values] if values else [None], range(spec["repetitions"]))
    for run, (value, rep) in enumerate(runs):
        key = derive_run_key(spec["seed"], run)
        base = replace(sampling, seed=spec["seed"] + 101 * run)
        wm = WatermarkConfig(**{**wm_fields, "key": key,
                                "k": value if sweep == "k" else spec["k"]})
        student, train_docs, supervised = contaminated_student(
            teacher, wm, value if sweep == "rho" else spec["rho_value"],
            n_docs=spec["n_docs"], doc_len=spec["doc_len"],
            order=spec["student_order"], smoothing_lambda=spec["smoothing_lambda"],
            sampling=base, d=value if sweep == "d" else 1.0)
        row = dict(scenario=name, scheme=spec["scheme"], sweep=sweep, rep=rep,
                   key_fingerprint=key.fingerprint())
        if sweep == "d":  # MIA on the watermarked documents the detector holds
            fresh = generate_corpus(teacher, len(supervised), spec["doc_len"],
                                    replace(base, seed=base.seed + 5), wm=wm)
            stat, p, _ = mia_detect(student, _attach_text(supervised),
                                    _attach_text(fresh))
            rows.append({**row, "value": value, "mode": CLOSED, "phase": "",
                         "n_scored": len(supervised), "score": stat,
                         "log10_p": float(np.log10(max(p, 1e-300)))})
            continue
        phases = [(0, "pre"), (1, "post")] if sweep == "phase" else [(value, "")]
        for x, phase in phases:
            if phase == "post":
                clean = generate_corpus(teacher, len(train_docs), spec["doc_len"],
                                        replace(base, seed=base.seed + 9))
                student.update([doc["tokens"] for doc in clean])
            for mode in spec["modes"]:
                r = run_detection(student, teacher, wm, mode, sampling=base, **detect)
                rows.append({**row, "value": x, "mode": mode, "phase": phase,
                             "n_scored": r.n_scored, "score": r.score,
                             "log10_p": r.log10_p})
    write_results_csv(rows, out / "results.csv")
    svg_summary(_summarize(rows), out / "summary.svg", xlabel=sweep,
                ylabel="log10 p", title=name)
    return out


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
