"""The decode-row sampler against the per-token loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radioscope import (SamplingConfig, SecretKey, WatermarkConfig, generate_corpus, models,
                        train_ngram)
from radioscope.models import NucleusRows, _WatermarkRows
from radioscope.pipelines import _complete
from sampler_oracle import LoopTextSampler, loop_complete, loop_generate_corpus

SCHEMES = (None, "kgw", "ak", "ak-temp", "mpac")


def _wm(scheme, v, k, key):
    if scheme is None:
        return None
    if scheme == "mpac":
        return WatermarkConfig("mpac", SecretKey(key), v, k=k, delta=2.0, message="0110")
    if scheme.startswith("ak"):
        return WatermarkConfig("ak", SecretKey(key), v, k=k,
                               temperature=0.5 if scheme == "ak-temp" else None)
    return WatermarkConfig("kgw", SecretKey(key), v, k=k, gamma=0.25, delta=2.5)


@st.composite
def setups(draw):
    v = draw(st.integers(2, 64))
    order = draw(st.integers(1, 3))
    doc = st.lists(st.integers(0, v - 1), max_size=40)
    corpus = draw(st.lists(doc, min_size=1, max_size=8))
    model = train_ngram(corpus, order, draw(st.sampled_from([0.0, 0.05])), v)
    return {
        "model": model,
        "scheme": draw(st.sampled_from(SCHEMES)),
        "k": draw(st.integers(1, 3)),
        "prompt_len": draw(st.integers(0, 4)),
        # 1.0 keeps every token, 0.05 forces single-token rows
        "nucleus_p": draw(st.sampled_from([1.0, 0.05, 0.95])),
        "n_docs": draw(st.integers(0, 7)),
        "doc_len": draw(st.integers(0, 30)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "prompts": draw(st.lists(st.lists(st.integers(0, v - 1), max_size=5),
                                 min_size=1, max_size=5)),
        "max_tokens": draw(st.integers(0, 20)),
    }


@settings(max_examples=150, deadline=None)
@given(setups())
def test_corpora_and_completions_equal_the_loop(s):
    model, v = s["model"], s["model"].vocab_size
    tables: dict = {}  # one dict across both keys and both temperatures
    for temperature in (0.8, 1.3):
        sampling = SamplingConfig(temperature=temperature, nucleus_p=s["nucleus_p"],
                                  seed=s["seed"], max_tokens=s["max_tokens"])
        for key in (0xBEEF, 0x5EED):
            wm = _wm(s["scheme"], v, s["k"], key)
            args = (model, s["n_docs"], s["doc_len"], sampling, wm, s["prompt_len"])
            assert generate_corpus(*args, tables=tables) == loop_generate_corpus(*args)
        assert (_complete(model, s["prompts"], sampling, None, tables)
                == loop_complete(model, s["prompts"], sampling))


def _code(context, v):
    code = 0
    for tok in context:
        code = code * (v + 1) + tok + 1
    return code


@settings(max_examples=100, deadline=None)
@given(setups(), st.integers(0, 2**32 - 1))
def test_rows_equal_the_loop_tables_bit_for_bit(s, seed):
    """Rows built in batches and one at a time hold exactly the loop's tables."""
    model, v = s["model"], s["model"].vocab_size
    wm = _wm(s["scheme"], v, s["k"], 0xBEEF)
    sampling = SamplingConfig(nucleus_p=s["nucleus_p"])
    oracle = LoopTextSampler(model, sampling, wm)
    depth = max(model.order, s["k"])
    rng = np.random.default_rng(seed)
    contexts = list(dict.fromkeys(
        tuple(rng.integers(0, v, size=rng.integers(0, depth + 1)).tolist())
        for _ in range(60)))
    temperature = oracle.temperature
    batch = NucleusRows(model, temperature, sampling.nucleus_p)
    single = NucleusRows(model, temperature, sampling.nucleus_p)
    ctx_rows = batch.rows([_code(c[-model.order:], v) for c in contexts])
    for context, row in zip(contexts, ctx_rows.tolist()):
        idx, log_kept, cum = oracle._table(context)
        k = len(idx)
        one = single.row(_code(context[-model.order:], v))
        for rows, r in ((batch, row), (single, one)):
            assert rows.take("keep", np.array([r]))[0] == k
            got_idx, got_log, got_cum = (rows.take(f, np.array([r]))[0]
                                         for f in ("idx", "log_kept", "cum"))
            assert np.array_equal(got_idx[:k], idx)
            assert np.array_equal(got_log[:k], log_kept)
            assert np.array_equal(got_cum[:k], cum)
            assert (got_log[k:] == -np.inf).all() and (got_cum[k:] == cum[-1]).all()
    if wm is None:
        return
    marked = _WatermarkRows(batch, wm)
    windowed = [c for c in contexts if len(c) >= wm.k]
    rows = marked.rows([_code(c, v) for c in windowed])
    for context, r in zip(windowed, rows.tolist()):
        idx, log_kept, _ = oracle._table(context)
        entry = oracle._wm_entry(idx, log_kept, tuple(context[-wm.k:]))
        if wm.scheme == "ak":
            assert marked.take("tok", np.array([r]))[0] == entry
        else:
            bcum = marked.take("bcum", np.array([r]))[0]
            assert np.array_equal(bcum[: len(entry)], entry)
            assert (bcum[len(entry):] == entry[-1]).all()


def test_teacher_rows_equal_the_loop_tables(teacher64):
    """Every order-2 context of the 64-token teacher, built in batches."""
    sampling = SamplingConfig()
    oracle = LoopTextSampler(teacher64, sampling)
    contexts = [(a, b) for a in range(64) for b in range(64)]
    rows = NucleusRows(teacher64, sampling.temperature, sampling.nucleus_p)
    got = rows.rows([_code(c, 64) for c in contexts])
    cum = rows.take("cum", got)
    log_kept = rows.take("log_kept", got)
    for i, context in enumerate(contexts):
        _, want_log, want_cum = oracle._table(context)
        assert np.array_equal(cum[i, : len(want_cum)], want_cum)
        assert np.array_equal(log_kept[i, : len(want_log)], want_log)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_teacher_corpus_equals_the_loop(teacher64, scheme):
    sampling = SamplingConfig(seed=41)
    wm = _wm(scheme, 64, 2, 0xC0FFEE)
    tables: dict = {}
    first = generate_corpus(teacher64, 30, 120, sampling, wm, tables=tables)
    assert first == loop_generate_corpus(teacher64, 30, 120, sampling, wm)
    assert generate_corpus(teacher64, 30, 120, sampling, wm, tables=tables) == first


def test_out_of_vocabulary_prompt_refused(teacher64):
    with pytest.raises(ValueError, match="out of vocabulary"):
        _complete(teacher64, [[3, 64]], SamplingConfig(max_tokens=4), None)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rows_spread_over_many_blocks(teacher64, scheme, monkeypatch):
    monkeypatch.setattr(models, "_BLOCK_BYTES", 8 * 64 * 16)  # 16 rows a block
    sampling = SamplingConfig(seed=43, max_tokens=60)
    wm = _wm(scheme, 64, 2, 0xFACE)
    tables: dict = {}
    assert (generate_corpus(teacher64, 25, 90, sampling, wm, tables=tables)
            == loop_generate_corpus(teacher64, 25, 90, sampling, wm))
    assert max(len(rows.blocks["cum"]) for rows in tables.values()) > 3
    prompts = [[i, i + 1, i + 2] for i in range(20)]
    assert (_complete(teacher64, prompts, sampling, None, tables)
            == loop_complete(teacher64, prompts, sampling))


def test_state_codes_wider_than_int64():
    v, k = 1 << 13, 5  # (V + 1) ** 5 > 2 ** 63
    rng = np.random.default_rng(5)
    model = train_ngram(rng.integers(0, 40, size=(6, 50)).tolist(), 1, 0.0, v)
    sampling = SamplingConfig(seed=44, nucleus_p=0.5)
    wm = _wm("kgw", v, k, 0xABBA)
    got = generate_corpus(model, 4, 12, sampling, wm, prompt_len=5)
    assert got == loop_generate_corpus(model, 4, 12, sampling, wm, prompt_len=5)
