"""Detection over one candidate table against the per-position loops it replaced."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radioscope import SecretKey, WatermarkConfig, build_filter, dedup, train_ngram
from radioscope.dedup import FILTER_KEY
from radioscope.pipelines import derive_run_key, detect_closed, detect_open
from dedup_oracle import loop_detect_closed, loop_detect_open
from ngram_oracle import train_dict_ngram
import store_contract as contract

FIELDS = ("n_scored", "score", "p_value", "log10_p", "dedup_stats", "filter_stats")


def assert_same_report(got, want):
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@st.composite
def runs(draw):
    v = draw(st.integers(2, 40))
    k = draw(st.integers(1, 3))
    # keys come from the splitmix stream: random 64-bit multipliers, never
    # the weak keys under which the loop's (k+1)-tuple fingerprints collide
    key = derive_run_key(draw(st.integers(0, 2**32 - 1)), 0)
    if draw(st.booleans()):
        cfg = WatermarkConfig("kgw", key, v, k=k,
                              gamma=draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])))
    else:
        cfg = WatermarkConfig("ak", key, v, k=k)
    tokens = st.lists(st.integers(0, v - 1), max_size=25)
    return {
        "cfg": cfg,
        "docs": draw(st.lists(tokens, max_size=6)),
        "prompt_lens": draw(st.lists(st.integers(0, k + 3), min_size=6, max_size=6)),
        "budget": draw(st.one_of(st.just(1_000_000), st.integers(0, 30))),
        "dedup": draw(st.booleans()),
        "corpus": draw(st.lists(tokens, max_size=4)),
    }


@settings(max_examples=300, deadline=None)
@given(runs(), st.booleans())
def test_open_mode_equals_the_loop(s, as_dicts):
    cfg, v = s["cfg"], s["cfg"].vocab_size
    corpus = s["corpus"] or [[0]]
    suspect = train_ngram(corpus, cfg.k + 1, 0.01, v)
    docs = s["docs"]
    if as_dicts:
        docs = [{"tokens": d, "prompt_len": p} for d, p in zip(docs, s["prompt_lens"])]
    kwargs = dict(budget=s["budget"], dedup=s["dedup"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dedup=False warns
        got = detect_open(suspect, docs, cfg, **kwargs)
    want = loop_detect_open(train_dict_ngram(corpus, cfg.k + 1, 0.01, v), docs, cfg, **kwargs)
    assert_same_report(got, want)


@settings(max_examples=300, deadline=None)
@given(runs(), st.booleans())
def test_closed_mode_equals_the_loop(s, use_filter):
    cfg = s["cfg"]
    docs = s["docs"] or [[]]
    # split each document into a prompt and the completion that follows it
    prompts = [d[:p] for d, p in zip(docs, s["prompt_lens"])]
    completions = [d[p:] for d, p in zip(docs, s["prompt_lens"])]
    phi = build_filter(s["corpus"], cfg.k) if use_filter else None
    kwargs = dict(phi=phi, budget=s["budget"], dedup=s["dedup"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dedup=False warns
        got = detect_closed(None, prompts, cfg, completions=completions, **kwargs)
    want = loop_detect_closed(prompts, completions, cfg, **kwargs)
    assert_same_report(got, want)


def test_loop_and_table_agree_on_a_teacher_corpus(teacher64):
    """A larger run: 20 random 200-token documents, both modes, both schemes."""
    rng = np.random.default_rng(4)
    docs = [rng.integers(0, 64, size=200).tolist() for _ in range(20)]
    twin = contract.twin(teacher64)
    for scheme in ("kgw", "ak"):
        cfg = WatermarkConfig(scheme, SecretKey(0xC0FFEE), 64, k=2)
        assert_same_report(detect_open(teacher64, docs, cfg),
                           loop_detect_open(twin, docs, cfg))
        prompts, completions = [d[:10] for d in docs], [d[10:] for d in docs]
        assert_same_report(detect_closed(None, prompts, cfg, completions=completions),
                           loop_detect_closed(prompts, completions, cfg))


def test_weak_key_tuples_with_distinct_seeds_are_both_scored():
    """Under SecretKey(1), k = 1, ((1,), 3) and ((2,), 2) have seeds 1 and 2.

    The loop's (k+1)-tuple fingerprint h * s + token maps both to 4 and
    scored only the first; the table keys repeats on (seed, token).
    """
    cfg = WatermarkConfig("kgw", SecretKey(1), 8, k=1)
    # stream 0 | 1 3 2 2: tuples ((0,), 1) [prompt], ((1,), 3), ((3,), 2), ((2,), 2)
    report = detect_closed(None, [[0]], cfg, completions=[[1, 3, 2, 2]])
    assert report.dedup_stats == (4, 3)
    assert report.n_scored == 3
    assert loop_detect_closed([[0]], [[1, 3, 2, 2]], cfg).n_scored == 2


def test_filter_hashes_each_candidate_window(monkeypatch):
    """Seven candidate rows over three distinct windows hash three windows,
    once each: the filter tests the run's distinct windows, and each row
    reads its window's answer."""
    cfg = WatermarkConfig("kgw", SecretKey(0xC0FFEE), 8, k=2)
    phi = build_filter([[1, 2, 3]], 2)  # holds (1, 2) and (2, 3)
    calls = []
    hashes = dedup.window_hashes

    def spy(windows, key):
        if key == FILTER_KEY:
            calls.extend(map(tuple, windows.tolist()))
        return hashes(windows, key)

    monkeypatch.setattr(dedup, "window_hashes", spy)
    report = detect_closed(None, [[1, 2]], cfg, phi=phi, completions=[[3, 1, 2, 3, 1, 2, 3]])
    assert calls == [(1, 2), (2, 3), (3, 1)]
    assert report.filter_stats == (2, 5 / 7)
