"""Detection is a readout that needs no key and one scorer that applies it.

Under H0 the readout of a clean student is scored under many fresh keys:
the reports equal those of fresh runs with those keys, and the share of
p-values at or below alpha stays inside a binomial band fixed here.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from radioscope import (SamplingConfig, WatermarkConfig, build_filter, contaminated_student,
                        derive_run_key, detect_closed, detect_open, generate_corpus)
from radioscope import pipelines
from test_candidate_table import assert_same_report

#: Master seeds of the watermarked text's key and of the scoring keys.
TEXT_SEED, SCORE_SEED = 4100, 4200

#: Keys scored on each readout, and the two-sided band, of probability
#: 0.999 under Binomial(N_KEYS, alpha), that the count of p <= alpha must
#: lie in.  Fixed before any run.
N_KEYS = 300
BANDS = {alpha: tuple(int(b) for b in scipy.stats.binom.interval(0.999, N_KEYS, alpha))
         for alpha in (0.1, 0.01)}


def cfg(scheme, key):
    return WatermarkConfig(scheme, key, 128, k=2)


def readout(detect, *args, **kwargs):
    """The arguments a detection run hands its scorer: the readout, its
    filter stats and the run's own config."""
    seen = []
    real = pipelines._finish_report
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipelines, "_finish_report", lambda *a: seen.append(a) or real(*a))
        detect(*args, **kwargs)
    return seen[0]


def rescore(args, key_cfg):
    """The report of the readout in ``args`` under ``key_cfg``."""
    cands, windows, dedup, budget, _, mode, phi_stats = args
    return pipelines._finish_report(cands, windows, dedup, budget, key_cfg, mode, phi_stats)


@pytest.fixture(scope="module")
def h0(teacher128):
    """A clean order-3 student, 40 watermarked 200-token documents to read
    out, and 40 clean 13-token prompts with a filter of the student's
    training text."""
    sampling = SamplingConfig(seed=41)
    student, train_docs, _ = contaminated_student(
        teacher128, None, 0.0, n_docs=100, doc_len=300, order=3, sampling=sampling)
    docs = generate_corpus(teacher128, 40, 200, replace(sampling, seed=42),
                           wm=cfg("kgw", derive_run_key(TEXT_SEED, 0)))
    prompts = [doc["tokens"] for doc in generate_corpus(teacher128, 40, 13,
                                                        replace(sampling, seed=43))]
    phi = build_filter([doc["tokens"] for doc in train_docs], 2)
    return {
        "open": (detect_open, (student, docs), {}),
        "closed": (detect_closed, (student, prompts),
                   {"phi": phi, "sampling": replace(sampling, seed=44, max_tokens=200)}),
    }


@pytest.mark.parametrize("scheme", ["kgw", "ak"])
@pytest.mark.parametrize("mode", ["open", "closed"])
def test_a_shared_readout_scores_as_fresh_runs(h0, mode, scheme):
    """One readout scored under several keys in turn gives, key by key,
    the report of a fresh run: the scorer leaves its readout as it found it."""
    detect, args, kwargs = h0[mode]
    shared = readout(detect, *args, cfg(scheme, derive_run_key(SCORE_SEED, 0)), **kwargs)
    table = shared[0].copy()
    for i in range(1, 5):
        key_cfg = cfg(scheme, derive_run_key(SCORE_SEED, i))
        assert_same_report(rescore(shared, key_cfg), detect(*args, key_cfg, **kwargs))
    assert np.array_equal(shared[0], table)


@pytest.fixture(scope="module")
def readouts(h0):
    """One readout per mode, made once and scored under every key."""
    return {mode: readout(detect, *args, cfg("kgw", derive_run_key(TEXT_SEED, 1)), **kwargs)
            for mode, (detect, args, kwargs) in h0.items()}


@pytest.mark.parametrize("scheme", ["kgw", "ak"])
@pytest.mark.parametrize("mode", ["open", "closed"])
def test_false_positive_rate_over_fresh_keys(readouts, mode, scheme):
    """The count of fresh keys with p <= alpha lies inside each band."""
    t0 = time.perf_counter()
    ps = np.array([rescore(readouts[mode], cfg(scheme, derive_run_key(SCORE_SEED, i))).p_value
                   for i in range(N_KEYS)])
    elapsed = time.perf_counter() - t0
    counts = {alpha: int((ps <= alpha).sum()) for alpha in BANDS}
    print(f"{mode} {scheme}: {N_KEYS} keys in {elapsed:.2f} s, mean p {ps.mean():.3f}, "
          f"p <= alpha: {counts}")
    for alpha, (lo, hi) in BANDS.items():
        assert lo <= counts[alpha] <= hi, (alpha, counts[alpha], (lo, hi))
