"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) so a full run gives a one-line verdict per criterion.  Oracles are
computed independently of the library: exact rational arithmetic for the
binomial tail, the closed-form Erlang sum for the gamma tail, and scipy
only as a cross-check oracle.  Each criterion's detail, wall times
stripped, must equal its pin in ``data/verdicts.json``: a change that moves
one on purpose updates the pin.
"""

import json
import math
import re
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from radioscope import (
    SamplingConfig,
    SecretKey,
    WatermarkConfig,
    build_filter,
    derive_run_key,
    detect_closed,
    generate_corpus,
    ks_two_sample,
    log_binomial_pvalue,
    log_gamma_pvalue,
    mia_detect,
    mpac_extract,
    train_ngram,
)
from radioscope.pipelines import _attach_text, contaminated_student, run_detection
from radioscope.schemes import aaronson_pick
from radioscope.stats import log_fisher_combine_logs


#: Each criterion's detail as printed, without its wall time
PINNED = json.loads((Path(__file__).parent / "data" / "verdicts.json").read_text())


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    import conftest

    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    conftest.acceptance_lines.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
    detail = re.sub(r", \d+s$", "", detail)  # a wall time such as c01's ", 14s"
    assert detail == PINNED[str(num)], (f"criterion {num}'s detail moved:\n"
                                        f"  pinned: {PINNED[str(num)]}\n  now:    {detail}")


def kgw(key, vocab=128, k=2):
    return WatermarkConfig("kgw", key, vocab, k=k, gamma=0.25, delta=3.0)


@pytest.fixture(scope="module")
def h0_student(teacher128):
    student, _, _ = contaminated_student(
        teacher128, None, 0.0, n_docs=300, doc_len=400, order=3,
        sampling=SamplingConfig(seed=50))
    return student


@pytest.fixture(scope="module")
def radioactive(teacher128):
    """rho=1 student on a 10^6-token watermarked corpus, plus its pre-purification
    open-mode detection report (shared by the radioactivity and purification
    criteria)."""
    cfg = kgw(SecretKey(0x5151AB))
    t0 = time.time()
    student, train_docs, _ = contaminated_student(
        teacher128, cfg, 1.0, n_docs=2000, doc_len=500, order=3,
        sampling=SamplingConfig(seed=60))
    n_train_tokens = sum(len(d["tokens"]) for d in train_docs)
    report = run_detection(student, teacher128, cfg, "open", n_docs=100,
                           doc_len=400, sampling=SamplingConfig(seed=61))
    return {
        "cfg": cfg,
        "student": student,
        "n_train_tokens": n_train_tokens,
        "pre": report,
        "elapsed": time.time() - t0,
    }


def test_c01_h0_calibration(teacher128, h0_student):
    t0 = time.time()
    results = {}
    for mode, n_docs, doc_len in [("open", 110, 400), ("closed", 90, 280)]:
        ps = []
        for i in range(100):
            key = derive_run_key(1000 if mode == "open" else 2000, i)
            report = run_detection(
                h0_student, teacher128, kgw(key), mode, n_docs=n_docs,
                doc_len=doc_len, sampling=SamplingConfig(seed=3000 + 17 * i))
            assert report.n_scored >= 10_000, (mode, i, report.n_scored)
            ps.append(report.p_value)
        ks_p = scipy.stats.kstest(ps, "uniform").pvalue
        results[mode] = (float(np.mean(ps)), ks_p)
    elapsed = time.time() - t0
    ok = elapsed <= 900 and all(
        0.40 <= mean <= 0.60 and ks_p > 0.01
        for mean, ks_p in results.values())
    verdict(1, "H0 p-values uniform, 200 runs, both modes", ok,
            f"open mean={results['open'][0]:.3f} ks_p={results['open'][1]:.3f}, "
            f"closed mean={results['closed'][0]:.3f} "
            f"ks_p={results['closed'][1]:.3f}, {elapsed:.0f}s")


def test_ak_h0_calibration(teacher128, h0_student):
    """c01 with AK keys: exact gamma-tail p-values are uniform under H0."""
    t0 = time.time()
    results = {}
    for mode, n_docs, doc_len in [("open", 110, 400), ("closed", 90, 280)]:
        ps, scored = [], []
        for i in range(100):
            key = derive_run_key(1500 if mode == "open" else 2500, i)
            report = run_detection(
                h0_student, teacher128, WatermarkConfig("ak", key, 128, k=2), mode,
                n_docs=n_docs, doc_len=doc_len,
                sampling=SamplingConfig(seed=3500 + 17 * i))
            ps.append(report.p_value)
            scored.append(report.n_scored)
        results[mode] = (float(np.mean(ps)), scipy.stats.kstest(ps, "uniform").pvalue,
                         min(scored))
    elapsed = time.time() - t0
    # unlike c01 there is no floor on n_scored: AK text from an order-2
    # teacher at k = 2 is a deterministic walk of its windows, so an open run
    # admits only the distinct tuples of its cycles (at least 647 a run here)
    detail = ", ".join(f"{mode} mean={mean:.3f} ks_p={ks_p:.3f} min n_scored={n}"
                       for mode, (mean, ks_p, n) in results.items()) + f", {elapsed:.0f}s"
    print(detail)
    assert elapsed <= 900 and all(0.40 <= mean <= 0.60 and ks_p > 0.01
                                  for mean, ks_p, _ in results.values()), detail


def test_c02_dedup_necessity(teacher128, h0_student):
    ps = []
    for i in range(20):
        key = derive_run_key(4000, i)
        cfg = kgw(key)
        prompts = [d["tokens"] for d in
                   generate_corpus(teacher128, 15, 200,
                                   SamplingConfig(seed=5000 + i), wm=cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = detect_closed(
                h0_student, prompts, cfg, dedup=False,
                sampling=SamplingConfig(seed=5100 + i, max_tokens=50))
        ps.append(report.p_value)
    mean_p = float(np.mean(ps))
    verdict(2, "no de-duplication collapses H0 p-values", mean_p < 1e-3,
            f"mean p={mean_p:.2e} over 20 keys")


def test_c03_radioactivity_exists(radioactive):
    report = radioactive["pre"]
    ok = (radioactive["n_train_tokens"] >= 10**6
          and report.n_scored >= 10**4
          and report.log10_p <= -10
          and radioactive["elapsed"] <= 300)
    verdict(3, "rho=1 student is radioactive (open mode)", ok,
            f"train={radioactive['n_train_tokens']} tokens, "
            f"n_scored={report.n_scored}, log10_p={report.log10_p:.1f}, "
            f"{radioactive['elapsed']:.0f}s")


def test_c04_rho_monotonicity(teacher128):
    rhos = [0.0, 0.1, 0.5, 1.0]
    means = {"open": [], "closed": []}
    rho0 = []
    for rho in rhos:
        logs = {"open": [], "closed": []}
        for seed in range(5):
            run_index = 500 + seed if rho == 0.0 else round(rho * 10) * 10 + seed
            key = derive_run_key(6000, run_index)
            cfg = kgw(key)
            student, _, _ = contaminated_student(
                teacher128, cfg if rho > 0 else None, rho, n_docs=150,
                doc_len=300, order=3,
                sampling=SamplingConfig(seed=6100 + seed))
            for mode in ("open", "closed"):
                report = run_detection(
                    student, teacher128, cfg, mode, n_docs=15, doc_len=300,
                    sampling=SamplingConfig(seed=6200 + seed))
                logs[mode].append(report.log10_p)
                if rho == 0.0:
                    rho0.append(report.log10_p)
        for mode in ("open", "closed"):
            means[mode].append(float(np.mean(logs[mode])))
    monotone = all(
        means[mode][i + 1] <= means[mode][i]
        for mode in ("open", "closed") for i in range(len(rhos) - 1))
    anchor = math.log10(0.5)
    rho0_mean = float(np.mean(rho0))
    in_band = anchor - 1.5 <= rho0_mean <= anchor
    verdict(4, "mean log10 p non-increasing in rho, both modes",
            monotone and in_band,
            f"open={[round(m, 1) for m in means['open']]}, "
            f"closed={[round(m, 1) for m in means['closed']]}, "
            f"rho0 mean={rho0_mean:.2f}")


def test_c05_k_trend(teacher128):
    means = []
    for k in (1, 2, 4):
        logs = []
        for seed in range(5):
            key = derive_run_key(7000, 10 * k + seed)
            cfg = kgw(key, k=k)
            student, _, _ = contaminated_student(
                teacher128, cfg, 1.0, n_docs=150, doc_len=300, order=k + 1,
                sampling=SamplingConfig(seed=7100 + seed))
            # score the same number of tuples for every k: single-token
            # windows repeat quickly, so an uncapped run would compare
            # evidence of very different sizes
            report = run_detection(
                student, teacher128, cfg, "open", n_docs=20, doc_len=300,
                sampling=SamplingConfig(seed=7200 + seed), budget=400)
            assert report.n_scored == 400, (k, seed, report.n_scored)
            logs.append(report.log10_p)
        means.append(float(np.mean(logs)))
    ok = means[0] <= means[1] <= means[2]
    verdict(5, "lower window size k gives stronger radioactivity", ok,
            f"mean log10 p for k=1,2,4: {[round(m, 1) for m in means]}")


def test_c06_filter_benefit(teacher128):
    key = SecretKey(0x60F11)
    cfg = kgw(key)
    student, _, supervised = contaminated_student(
        teacher128, cfg, 0.1, n_docs=200, doc_len=300, order=3,
        sampling=SamplingConfig(seed=8000))
    phi = build_filter([d["tokens"] for d in supervised], cfg.k)
    with_phi, without = [], []
    for run in range(10):
        common = dict(n_docs=30, doc_len=250,
                      sampling=SamplingConfig(seed=8100 + run))
        with_phi.append(run_detection(student, teacher128, cfg, "closed",
                                      phi=phi, **common).log10_p)
        without.append(run_detection(student, teacher128, cfg, "closed",
                                     **common).log10_p)
    m_phi, m_raw = float(np.mean(with_phi)), float(np.mean(without))
    verdict(6, "k-gram filter does not hurt closed-mode detection",
            m_phi <= m_raw, f"filtered={m_phi:.2f} unfiltered={m_raw:.2f}")


def test_c07_exact_statistics():
    ok = True
    details = []
    # binomial tail vs exact rational exhaustive summation
    for n, g in [(1, Fraction(1, 4)), (5, Fraction(1, 4)),
                 (37, Fraction(1, 10)), (200, Fraction(1, 2)),
                 (1000, Fraction(1, 4))]:
        for s in {0, 1, n // 4, n // 2, (3 * n) // 4, n}:
            exact = Fraction(0)
            for i in range(s, n + 1):
                exact += math.comb(n, i) * g**i * (1 - g) ** (n - i)
            got = math.exp(log_binomial_pvalue(s, n, float(g)))
            if not math.isclose(got, float(exact), rel_tol=1e-10):
                ok = False
                details.append(f"binom({s},{n})")
    # gamma tail vs the closed-form Erlang sum exp(-s) * sum s^i/i!
    for n in (1, 2, 7, 25, 50):
        for s in (0.5, float(n), 2.5 * n):
            exact = math.exp(-s) * math.fsum(s**i / math.factorial(i)
                                             for i in range(n))
            got = math.exp(log_gamma_pvalue(s, n))
            if not math.isclose(got, exact, rel_tol=1e-10):
                ok = False
                details.append(f"gamma({s},{n})")
    if abs(math.exp(log_fisher_combine_logs([math.log(0.1)] * 2)) - 0.0560517) > 1e-6:
        ok = False
        details.append("fisher")
    d, _ = ks_two_sample([1, 3], [2, 4])
    if d != 0.5:
        ok = False
        details.append("ks")
    verdict(7, "exact tail statistics match independent oracles", ok,
            "all identities hold" if ok else "; ".join(details))


def test_c08_ak_distribution_preserved():
    vocab = 8
    base = np.array([0.30, 0.22, 0.15, 0.12, 0.09, 0.06, 0.04, 0.02])
    seeds = np.array([WatermarkConfig("ak", SecretKey(i + 1), vocab, k=2).seed((3, 5))
                      for i in range(10_000)], dtype=np.uint64)
    picked = aaronson_pick(seeds, np.tile(base, (len(seeds), 1)),
                           np.tile(np.arange(vocab), (len(seeds), 1)))
    counts = np.bincount(picked, minlength=vocab)
    tv = 0.5 * np.abs(counts / counts.sum() - base).sum()
    verdict(8, "deterministic sampling preserves the base distribution",
            tv <= 0.02, f"total variation {tv:.4f} over 10^4 keys")


def test_c09_mia_baseline(teacher128):
    train = _attach_text(generate_corpus(teacher128, 200, 150,
                                         SamplingConfig(seed=9000)))
    student = train_ngram([d["tokens"] for d in train], order=5,
                          smoothing_lambda=0.01, vocab_size=128)
    fresh = _attach_text(generate_corpus(teacher128, 200, 150,
                                         SamplingConfig(seed=9001)))
    _, p_full, _ = mia_detect(student, train, fresh)
    diluted_ps = []
    for seed in range(10):
        decoys = _attach_text(generate_corpus(teacher128, 198, 150,
                                              SamplingConfig(seed=9100 + seed)))
        ref = _attach_text(generate_corpus(teacher128, 200, 150,
                                           SamplingConfig(seed=9200 + seed)))
        candidate = train[2 * seed : 2 * seed + 2] + decoys
        _, p, _ = mia_detect(student, candidate, ref)
        diluted_ps.append(p)
    mean_diluted = float(np.mean(diluted_ps))
    ok = p_full < 1e-3 and mean_diluted > 0.05
    verdict(9, "loss-based membership inference degrades under dilution", ok,
            f"full supervision p={p_full:.2e}, "
            f"100x diluted mean p={mean_diluted:.3f}")


def test_c10_multibit_message(teacher128):
    message = "10110010"
    key = SecretKey(0xA11CE)
    cfg = WatermarkConfig("mpac", key, 128, k=2, delta=12.0, message=message)
    sampling = SamplingConfig(seed=10_000, nucleus_p=1.0)

    def stream(docs):
        for doc in docs:
            toks = doc["tokens"]
            for i in range(cfg.k, len(toks)):
                yield tuple(toks[i - cfg.k : i]), toks[i]

    wm_docs = generate_corpus(teacher128, 10, 250, sampling, wm=cfg)
    n_tokens = sum(len(d["tokens"]) - cfg.k for d in wm_docs)
    assert n_tokens >= 2000
    _, wm_acc = mpac_extract(stream(wm_docs), cfg)

    clean_accs = []
    for seed in range(20):
        clean = generate_corpus(teacher128, 2, 250,
                                SamplingConfig(seed=10_100 + seed))
        _, acc = mpac_extract(stream(clean), cfg)
        clean_accs.append(acc)
    clean_mean = float(np.mean(clean_accs))
    ok = wm_acc == 1.0 and 0.35 <= clean_mean <= 0.65
    verdict(10, "8-bit message extracts perfectly; clean text is chance", ok,
            f"watermarked accuracy={wm_acc}, clean mean={clean_mean:.3f}")


def test_c11_purification_trend(teacher128, radioactive):
    student = radioactive["student"]
    cfg = radioactive["cfg"]
    pre = radioactive["pre"]
    clean = generate_corpus(teacher128, 2000, 500, SamplingConfig(seed=11_000))
    student.update([d["tokens"] for d in clean])
    post = run_detection(student, teacher128, cfg, "open", n_docs=100,
                         doc_len=400, sampling=SamplingConfig(seed=61))
    ok = post.log10_p > pre.log10_p and post.log10_p < -3
    verdict(11, "clean retraining weakens but does not erase the trace", ok,
            f"log10 p {pre.log10_p:.1f} -> {post.log10_p:.1f}")
