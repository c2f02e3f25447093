"""End-to-end radioactivity detection pipelines.

Closed mode prompts the suspect and scores the resulting text; open mode
forwards watermarked text through the suspect and scores its greedy
next-token predictions.  Both make a readout that needs no key
(:func:`~radioscope.dedup.candidate_table`) and admit its rows once with
:func:`~radioscope.dedup.canonical_dedup`, which needs none either.  One
scorer, :func:`_finish_report`, seeds the admitted rows under the key,
scores them and converts the cumulative score into an exact p-value.
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
from .hashing import (ConfigError, SecretKey, at_least, check_rules, check_value,
                      derive_run_key, token_ids, window_hashes)
from .models import (
    PROMPT_TOKENS,
    NGramModel,
    SamplingConfig,
    TextSampler,
    _check_key_vocab,
    generate_corpus,
    make_teacher,
    train_ngram,
)
from .remote import CapabilityError, RemoteModel
from .schemes import AK, KGW, MPAC, WatermarkConfig, detector, mpac_vote, score_batch

_LN10 = float(np.log(10.0))


@dataclass
class DetectionReport:
    """Everything a detection run produces, plus enough to recompute it."""

    scheme: str
    mode: str
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


#: The rule of detection's ``budget`` (see :func:`~radioscope.hashing.check_value`)
DETECTION_RULES = {"budget": at_least(0)}

#: The rules of :func:`contaminated_student`'s watermarked fraction ``rho``
#: of the training set and its supervision degree ``d``
MIX_RULES = {
    "rho": lambda v, o: 0 <= v <= 1 or "lie in [0, 1]",
    "d": lambda v, o: 0 <= v <= 1 or "lie in [0, 1]",
}


def _check_run(cfg: WatermarkConfig, budget: int) -> None:
    """Refuse a scheme without a radioactivity test and a budget its rule refuses."""
    detector(cfg)
    check_rules(DETECTION_RULES, {"budget": budget})


def _seeds(windows, key: SecretKey) -> np.ndarray:
    """The seed of each of a run's distinct windows under ``key``;
    ConfigError, naming no key, if two windows get one seed.

    Rows are admitted by (window, token) and scored by (seed, token).  With
    seeds one-to-one on the windows, ``(w, t) -> (seed(w), t)`` is one-to-one
    on the rows' pairs, so two rows share a (window, token) pair exactly
    when they share a (seed, token) pair: the first row of each pair is the
    same row, and every run not refused here admits and scores the rows
    that admission by (seed, token) would, to the same bytes.
    """
    seeds = window_hashes(windows, key)
    if (np.diff(np.sort(seeds)) == 0).any():
        raise ConfigError("the key hashes two windows of this text to one seed, so "
                          "their tuples would repeat one score; choose another key")
    return seeds


def _finish_report(rows, n_candidates, windows, dedup, budget, cfg, mode, phi_stats):
    """Score a readout's admitted rows (all rows without ``dedup``), of
    ``n_candidates`` candidates over the run's distinct ``windows``."""
    if not dedup:
        warnings.warn("de-duplication disabled: p-values are NOT valid and will "
                      "collapse on watermarked text", stacklevel=3)
    rows = rows[:budget]
    score = float(score_batch(_seeds(windows, cfg.key)[rows["window"]], rows["token"], cfg).sum())
    n = len(rows)
    p, log10_p = pvalue_for(score, n, cfg)
    return DetectionReport(
        scheme=cfg.scheme,
        mode=mode,
        n_scored=n,
        score=score,
        p_value=p,
        log10_p=log10_p,
        inconclusive=(n == 0),
        dedup_applied=dedup,
        filter_stats=phi_stats,
        dedup_stats=(n_candidates, n),
        meta={"budget": budget},
    )


def detect_closed(suspect, prompts, key_cfg: WatermarkConfig,
                  phi: FilterSet | None = None, budget: int = 1_000_000,
                  sampling: SamplingConfig | None = None, dedup: bool = True,
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
    k, v = key_cfg.k, key_cfg.vocab_size
    prompts = [list(prompt) for prompt in prompts]
    token_ids(prompts, v, "prompt {}".format)
    if completions is None:
        completions = _complete(suspect, prompts, sampling, key_cfg)
    pairs = list(zip(prompts, completions))
    # each document is its prompt followed by its completion
    tokens = token_ids([part for pair in pairs for part in pair], v,
                       lambda i: f"{('prompt', 'completion')[i % 2]} {i // 2}")
    prompt_lens = [len(prompt) for prompt, _ in pairs]
    lens = [len(prompt) + len(completion) for prompt, completion in pairs]
    cands, windows = candidate_table(tokens, lens, prompt_lens, k, open_mode=False)
    phi_stats = None
    if phi is not None:
        hits = phi.hits(windows)[cands["window"]]
        phi_stats = (len(phi), int(hits.sum()) / max(len(hits), 1))
        cands = cands.compress(hits)
    rows = canonical_dedup(cands) if dedup else cands
    return _finish_report(rows, len(cands), windows, dedup, budget, key_cfg, CLOSED, phi_stats)


def _complete(suspect, prompts, sampling: SamplingConfig, key_cfg) -> list[list[int]]:
    if isinstance(suspect, RemoteModel):
        try:
            return suspect.complete_many(prompts, sampling.max_tokens)
        except Exception as exc:
            partial = DetectionReport(key_cfg.scheme, CLOSED, 0, 0.0, 1.0, 0.0,
                                      inconclusive=True,
                                      meta={"error": str(exc)})
            raise DetectionInterrupted(str(exc), partial) from exc
    sampler = TextSampler(suspect, sampling)
    uniforms = np.random.default_rng(sampling.seed).random((len(prompts), sampling.max_tokens))
    return sampler.generate(prompts, sampling.max_tokens, uniforms).tolist()


def detect_open(suspect, wm_texts, key_cfg: WatermarkConfig,
                budget: int = 1_000_000, dedup: bool = True) -> DetectionReport:
    """Reading mode: forward watermarked text, score greedy predictions.

    For every position with a full k-window, the suspect's most likely
    next token, read out for all positions at once, is scored against the
    input-derived window.  A window that already occurred earlier in the
    document is skipped.  Documents may carry a ``prompt_len`` field, a
    non-negative integer marking a leading region that is never scored but
    still counts as earlier context.  ``dedup=False`` scores repeated
    (window, token) pairs too, which makes the p-value invalid; it warns,
    as in :func:`detect_closed`.
    """
    _check_run(key_cfg, budget)
    if not isinstance(suspect, NGramModel):
        raise CapabilityError("open mode reads greedy predictions, which only an "
                              "NGramModel suspect gives; use detect_closed")
    _check_key_vocab(key_cfg, suspect)
    tokens, lens, cands, windows = _read_open(wm_texts, key_cfg)
    cands["token"] = suspect.greedy_at(tokens, lens, cands["doc"], cands["pos"])
    rows = canonical_dedup(cands) if dedup else cands
    return _finish_report(rows, len(cands), windows, dedup, budget, key_cfg, OPEN, None)


def _read_open(docs, cfg: WatermarkConfig):
    """Joined tokens, lengths, and ``candidate_table`` rows past each prompt
    with the run's distinct windows, of documents given as token lists, or
    dicts with ``tokens`` and an optional ``prompt_len``; a bad token is
    refused as ``document d``."""
    docs = list(docs)
    texts = [list(doc["tokens"] if isinstance(doc, dict) else doc) for doc in docs]
    tokens = token_ids(texts, cfg.vocab_size)
    prompt_lens = []
    for doc_id, (doc, text) in enumerate(zip(docs, texts)):
        n = doc.get("prompt_len", 0) if isinstance(doc, dict) else 0
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ConfigError(f"document {doc_id}: prompt_len {n!r} is not a "
                              "non-negative integer")
        prompt_lens.append(min(n, len(text)))  # a prompt past the end blocks no more
    lens = [len(text) for text in texts]
    cands, windows = candidate_table(tokens, lens, prompt_lens, cfg.k, open_mode=True)
    return tokens, lens, cands.compress(
        cands["pos"] >= np.asarray(prompt_lens, dtype=np.int64)[cands["doc"]]), windows


def mpac_extract(docs, cfg: WatermarkConfig, reference: str | None = None):
    """Majority-vote message extraction from documents, read and admitted
    as :func:`detect_open` reads and admits them; each admitted row votes
    with its own next token.  Returns ``(digits, bit_accuracy)``: a digit is
    ``None`` where no row voted, and the accuracy is the share of decided
    bits equal to ``reference`` (default: the embedded message), or ``None``.
    A reference is as many bits, each 0 or 1, as the message."""
    if cfg.scheme != MPAC:
        raise ConfigError("mpac_extract needs an MPAC config")
    check_value("reference", reference, lambda v, message: v is None or (
        isinstance(v, str) and len(v) == len(message) and set(v) <= {"0", "1"})
        or f"be {len(message)} bits, each 0 or 1, as the message is", cfg.message)
    _, _, cands, windows = _read_open(docs, cfg)
    rows = canonical_dedup(cands)
    return mpac_vote(_seeds(windows, cfg.key)[rows["window"]], rows["token"], cfg, reference)


def mia_detect(suspect: NGramModel, candidate_set, fresh_set):
    """Calibrated-loss membership inference baseline (no watermark needed).

    Per-document loss is the model's total log-loss divided by the zlib
    compressed length of the document's tokens, written as decimal ids
    joined by spaces; a ``text`` field is not read.  The two samples are
    compared with a two-sample K-S test.  A bad token is refused as
    ``candidate d`` or ``fresh d``, d counting the set's documents.
    """
    def calibrated(docs, name):
        tokens = [doc["tokens"] for doc in docs]
        token_ids(tokens, suspect.vocab_size, name)
        return [suspect.log_loss(t) / len(zlib.compress(" ".join(map(str, t)).encode()))
                for t in tokens]

    cand = calibrated(candidate_set, "candidate {}".format)
    fresh = calibrated(fresh_set, "fresh {}".format)
    if not cand or not fresh:
        raise ValueError("both document sets need at least one document")
    d, p = stats.ks_two_sample(cand, fresh)
    report = {"d": d, "p": p, "n_candidate": len(cand), "n_fresh": len(fresh)}
    return d, p, report


# ---------------------------------------------------------------------------
# experiment building blocks (shared by run_scenario and direct callers)

def contaminated_student(teacher: NGramModel, wm_cfg: WatermarkConfig | None,
                         rho: float, *, n_docs: int, doc_len: int, order: int,
                         smoothing_lambda: float = 0.01,
                         sampling: SamplingConfig, d: float = 1.0):
    """Train a student on a rho-mix of watermarked and clean teacher text.

    Returns ``(student, train_docs, supervised_docs)``.  The training set is
    ``n_wm = round(rho * n_docs)`` watermarked documents and ``n_docs - n_wm``
    clean ones; ``supervised_docs``, the watermarked corpus the detector
    holds (D~A), is the first ``round(n_wm / d)`` watermarked documents: the
    trained ones and fresh decoys, empty at d = 0.  Each corpus's first
    documents do not depend on how many follow, so only those used are
    generated.
    """
    check_rules(MIX_RULES, {"rho": rho, "d": d})
    n_wm = round(rho * n_docs)
    n_supervised = round(n_wm / d) if d > 0 else 0
    wm_docs, clean_docs = [], []
    if n_wm > 0:
        wm_docs = generate_corpus(teacher, max(n_wm, n_supervised), doc_len,
                                  replace(sampling, seed=sampling.seed + 1), wm=wm_cfg)
    if n_wm < n_docs:
        clean_docs = generate_corpus(teacher, n_docs - n_wm, doc_len,
                                     replace(sampling, seed=sampling.seed + 2))
    train_docs = wm_docs[:n_wm] + clean_docs
    student = train_ngram([doc["tokens"] for doc in train_docs], order,
                          smoothing_lambda, teacher.vocab_size)
    return student, train_docs, wm_docs[:n_supervised]


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
    prompt_docs = generate_corpus(teacher, n_docs, prompt_len + PROMPT_TOKENS,
                                  replace(sampling, seed=sampling.seed + 4))
    prompts = [doc["tokens"] for doc in prompt_docs]
    return detect_closed(student, prompts, wm_cfg, phi=phi, budget=budget,
                         sampling=replace(sampling, max_tokens=doc_len), dedup=dedup)


# ---------------------------------------------------------------------------
# scenario files

# scenario type -> (its CSV sweep label, the spec list it runs over, the spec
# key each listed value replaces in its runs; d is no spec key)
_SWEEPS = {
    "rho_sweep": ("rho", "rho", "rho_value"),
    "d_sweep": ("d", "d_values", None),
    "k_sweep": ("k", "k_values", "k"),
    "purification": ("phase", None, None),
}
# generate_corpus starts every document with a prompt: training documents are doc_len
# long, open detection's detect_len and closed detection's prompt_len + PROMPT_TOKENS
_PROMPTED = f" (generated documents start with a {PROMPT_TOKENS}-token prompt)"


def _detect_len(v, spec):
    if OPEN in spec["modes"]:
        return v >= PROMPT_TOKENS or f"be >= {PROMPT_TOKENS}{_PROMPTED}"
    # closed mode's completions are detect_len long; d_sweep detects on none
    return spec["scenario"] == "d_sweep" or v >= 0 or "be >= 0"


def _rho_value(v, spec):
    within = MIX_RULES["rho"](v, spec)
    if within is not True or spec["scenario"] != "d_sweep":
        return within
    # d_sweep's MIA needs watermarked training documents
    if v == 0:
        return "be > 0 for d_sweep"
    return round(v * spec["n_docs"]) >= 1 or (
        "leave round(rho_value * n_docs) >= 1 watermarked documents "
        f"for d_sweep at n_docs = {spec['n_docs']}")


#: Every scenario key -> (default, reader, rule).  A key whose default is a
#: list takes comma-separated values, each read and checked on its own.  A
#: key the library reads takes the library's rule; the rules written here
#: are those of scenario-only keys and those that read one.  The rules run
#: once the file is read, in this order, so a rule may read other keys.
_SCENARIO_KEYS = {
    "scenario": (None, str, lambda v, spec: v in _SWEEPS
                 or f"be one of {', '.join(_SWEEPS)}"),
    "scheme": (KGW, str, lambda v, spec: v in (KGW, AK)
               or v == MPAC and spec["scenario"] == "d_sweep"
               or "be kgw or ak (mpac has no radioactivity test: d_sweep only)"),
    "k": (2, int, WatermarkConfig.rules["k"]),
    "gamma": (0.25, float, WatermarkConfig.rules["gamma"]),
    "delta": (3.0, float, WatermarkConfig.rules["delta"]),
    "temperature": (None, float, WatermarkConfig.rules["temperature"]),
    "message": (None, str, WatermarkConfig.rules["message"]),
    "vocab_size": (128, int, WatermarkConfig.rules["vocab_size"]),
    "teacher_order": (2, int, NGramModel.rules["order"]),
    "teacher_seed": (7, int, at_least(0)),
    "student_order": (3, int, NGramModel.rules["order"]),
    "smoothing_lambda": (0.01, float, NGramModel.rules["smoothing_lambda"]),
    "n_docs": (200, int, at_least(1)),
    "doc_len": (200, int, at_least(PROMPT_TOKENS, _PROMPTED)),
    "detect_docs": (40, int, lambda v, spec: spec["scenario"] == "d_sweep" or v >= 1
                    or "be >= 1"),
    "detect_len": (200, int, _detect_len),
    "prompt_len": (10, int, lambda v, spec: CLOSED not in spec["modes"] or v >= 0
                   or f"be >= 0{_PROMPTED}"),
    "repetitions": (3, int, at_least(1)),
    "budget": (1_000_000, int, DETECTION_RULES["budget"]),
    "modes": ([OPEN], str, lambda v, spec: v in (OPEN, CLOSED) or "be open or closed"),
    "rho": ([0.0, 0.5, 1.0], float, MIX_RULES["rho"]),
    "rho_value": (1.0, float, _rho_value),
    "d_values": ([1.0, 0.1, 0.01], float, lambda v, spec: 0 < v <= 1 or "lie in (0, 1]"),
    "k_values": ([1, 2, 4], int, WatermarkConfig.rules["k"]),
    "nucleus_p": (0.95, float, SamplingConfig.rules["nucleus_p"]),
    "sampling_temperature": (0.8, float, SamplingConfig.rules["temperature"]),
    "seed": (0, int, SamplingConfig.rules["seed"]),
}


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
    """Parse a plain ``key = value`` scenario file: each value is read and
    checked by its key's entry in ``_SCENARIO_KEYS``, with line-level errors."""
    spec = {key: default for key, (default, _, _) in _SCENARIO_KEYS.items()}
    lines = {}
    for lineno, key, value in read_key_values(path):
        try:
            if key not in _SCENARIO_KEYS:
                raise ValueError(f"unknown key {key!r}")
            default, read, _ = _SCENARIO_KEYS[key]
            if isinstance(default, list):
                spec[key] = [read(v.strip()) for v in value.split(",") if v.strip()]
                if not spec[key]:
                    raise ValueError(f"{key} must hold at least one value")
            else:
                spec[key] = read(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        lines[key] = lineno
    if "scenario" not in lines:
        raise ValueError(f"{path}: missing required key 'scenario'")
    for key, (_, _, rule) in _SCENARIO_KEYS.items():
        at = f":{lines[key]}" if key in lines else ""  # a default the file left has no line
        check_value(f"{path}{at}: {key}", spec[key], rule, spec)
    return spec


def run_scenario(spec_path, out_dir=None) -> Path:
    """Run a scenario end to end; writes results.csv and summary.svg.

    Each run, one per swept value and repetition, is the spec with its
    swept value in place of the key ``_SWEEPS`` names, and gets its own
    key, sampling seed, watermark config and contaminated student.  Only the
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
    sweep, values, swept = _SWEEPS[name]
    detect = dict(n_docs=spec["detect_docs"], doc_len=spec["detect_len"],
                  budget=spec["budget"], prompt_len=spec["prompt_len"])
    rows: list[dict] = []
    runs = product(spec[values] if values else [None], range(spec["repetitions"]))
    for run, (value, rep) in enumerate(runs):
        setting = {**spec, swept: value} if swept else spec
        key = derive_run_key(spec["seed"], run)
        base = replace(sampling, seed=spec["seed"] + 101 * run)
        wm = WatermarkConfig(key=key, **{f.name: setting[f.name]
                                         for f in fields(WatermarkConfig) if f.name != "key"})
        student, train_docs, supervised = contaminated_student(
            teacher, wm, setting["rho_value"],
            n_docs=spec["n_docs"], doc_len=spec["doc_len"],
            order=spec["student_order"], smoothing_lambda=spec["smoothing_lambda"],
            sampling=base, d=value if sweep == "d" else 1.0)
        row = dict(scenario=name, scheme=spec["scheme"], sweep=sweep, rep=rep,
                   key_fingerprint=key.fingerprint())
        if sweep == "d":  # MIA on the watermarked documents the detector holds
            fresh = generate_corpus(teacher, len(supervised), spec["doc_len"],
                                    replace(base, seed=base.seed + 5), wm=wm)
            stat, p, _ = mia_detect(student, supervised, fresh)
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
