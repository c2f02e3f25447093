"""Reference de-duplication the candidate table is tested against.

``Candidate``, ``Tape`` and ``canonical_dedup`` are the per-tuple dedup
that ``radioscope.dedup`` used before its candidate table, with the
``extend_hash`` fingerprint they relied on; ``loop_detect_closed`` and
``loop_detect_open`` are the per-position candidate loops of both
detectors, with the scoring and tail dispatch they ended in.
``set_filter_kgrams`` is the filter build that collected k-grams in a
set of tuples.  They are kept verbatim so that property tests can
require identical reports and fingerprints, except that
``loop_detect_open`` reads the suspect's greedy tokens from a
``DictNGramModel`` twin (see ``ngram_oracle``), never from the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from radioscope import stats
from radioscope.dedup import CLOSED, FILTER_KEY, OPEN
from radioscope.hashing import HASH_MOD, SecretKey, window_hash, window_hashes
from radioscope.pipelines import DetectionReport
from radioscope.schemes import AK, score_batch
from ngram_oracle import check_twin

_LN10 = float(np.log(10.0))


def extend_hash(h: int, token: int, key: SecretKey) -> int:
    """One extra recurrence step; used as a (k+1)-tuple fingerprint."""
    return (h * key.s + int(token)) % HASH_MOD


@dataclass
class Tape:
    """De-duplication memory for one detection run."""

    mode: str = CLOSED
    granularity: str = "k1"  # "k1": distinct (k+1)-tuples; "k": distinct windows
    seen: set = field(default_factory=set)

    def fingerprint(self, window, token, key: SecretKey) -> int:
        h = window_hash(window, key)
        if self.granularity == "k":
            return h
        return extend_hash(h, token, key)


@dataclass(frozen=True)
class Candidate:
    """One scorable tuple with its provenance and eligibility context."""

    doc_id: int
    pos: int
    window: tuple
    token: int
    context_blocked: bool = False  # window occurs in prompt / earlier span


def set_filter_kgrams(corpus, k: int) -> np.ndarray:
    """Sorted distinct fingerprints of all k-grams within documents."""
    windows = set()
    for tokens in corpus:
        windows.update(zip(*(tokens[i:] for i in range(k))))
    grams = np.array(list(windows) or np.zeros((0, k), dtype=np.int64))
    return np.unique(window_hashes(grams, FILTER_KEY))


class InputIntegrityError(ValueError):
    """Duplicate ordering keys in a candidate stream."""


def canonical_dedup(candidates, tape: Tape, key: SecretKey) -> list[Candidate]:
    """Two-phase de-duplication with a deterministic admission order.

    Candidates may be collected in any order (e.g. from parallel shards);
    admission happens in (doc_id, pos) order, so the eligible set does not
    depend on how the collection was parallelized.
    """
    ordered = sorted(candidates, key=lambda c: (c.doc_id, c.pos))
    for a, b in zip(ordered, ordered[1:]):
        if (a.doc_id, a.pos) == (b.doc_id, b.pos):
            raise InputIntegrityError(f"duplicate ordering key {(a.doc_id, a.pos)}")
    admitted = []
    for cand in ordered:
        if cand.context_blocked:
            continue
        fp = tape.fingerprint(cand.window, cand.token, key)
        if fp in tape.seen:
            continue
        tape.seen.add(fp)
        admitted.append(cand)
    return admitted


def pvalue_for(score: float, n: int, cfg) -> tuple[float, float]:
    """(p, log10 p) for a cumulative score under the config's scheme."""
    if n == 0:
        return 1.0, 0.0
    if cfg.scheme == AK:
        lp = stats.log_gamma_pvalue(score, n)
    else:
        lp = stats.log_binomial_pvalue(int(round(score)), n, cfg.gamma)
    p = float(np.exp(lp)) if lp > -745.0 else 0.0
    return p, lp / _LN10


def _score_candidates(admitted: list[Candidate], cfg) -> float:
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


def loop_detect_closed(prompts, completions, key_cfg, phi=None,
                       budget: int = 1_000_000, dedup: bool = True,
                       supervision: str = "supervised") -> DetectionReport:
    """Closed-mode scoring of given completions, one ``Candidate`` per position."""
    k = key_cfg.k
    prompts = [list(prompt) for prompt in prompts]
    candidates = []
    phi_checked = phi_hits = 0
    for doc_id, (prompt, completion) in enumerate(zip(prompts, completions)):
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


def loop_detect_open(twin, wm_texts, key_cfg, budget: int = 1_000_000,
                     span: int | None = None, supervision: str = "supervised",
                     dedup: bool = True) -> DetectionReport:
    """Open-mode scoring of the suspect that ``twin`` copies, one
    ``Candidate`` per position."""
    check_twin(twin)
    k = key_cfg.k
    candidates = []
    for doc_id, doc in enumerate(wm_texts):
        is_dict = isinstance(doc, dict)
        tokens = list(doc["tokens"] if is_dict else doc)
        prompt_len = int(doc.get("prompt_len", 0)) if is_dict else 0
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
            predicted = twin.next_greedy(tokens[:pos])
            candidates.append(Candidate(doc_id, pos, window, predicted, blocked))
    if dedup:
        tape = Tape(mode=OPEN)
        admitted = canonical_dedup(candidates, tape, key_cfg.key)
    else:
        admitted = sorted(candidates, key=lambda c: (c.doc_id, c.pos))
    admitted = admitted[:budget]
    return _finish_report(admitted, len(candidates), key_cfg, OPEN,
                          supervision, dedup, None, {"budget": budget})
