"""The decode-row sampler against the per-token loop it replaced."""

import gc
import itertools
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radioscope import (SamplingConfig, SecretKey, TextSampler, WatermarkConfig, generate,
                        generate_corpus, make_teacher, models, train_ngram)
from radioscope.hashing import ConfigError, token_ids, window_hash
from radioscope.models import NucleusRows, _WatermarkRows, _kept_sums
from radioscope.pipelines import _complete
from sampler_oracle import LoopTextSampler, loop_complete, loop_generate_corpus, loop_state_code
import store_contract as contract

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
    prompt_len = draw(st.integers(0, 4))
    return {
        "model": model,
        "scheme": draw(st.sampled_from(SCHEMES)),
        "k": draw(st.integers(1, 3)),
        "prompt_len": prompt_len,
        # 1.0 keeps every token, 0.05 forces single-token rows
        "nucleus_p": draw(st.sampled_from([1.0, 0.05, 0.95])),
        "n_docs": draw(st.integers(0, 7)),
        # generate_corpus refuses documents shorter than their prompt
        "doc_len": draw(st.integers(prompt_len, 30)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "prompts": draw(st.lists(st.lists(st.integers(0, v - 1), max_size=5),
                                 min_size=1, max_size=5)),
        "max_tokens": draw(st.integers(0, 20)),
    }


def _assert_corpora_and_completions_equal_the_loop(s, gathered) -> None:
    """Corpora and completions of setup ``s`` equal the loop's, with the
    model's context table gathering levels 0 .. ``gathered`` (None: all)."""
    model, v = s["model"], s["model"].vocab_size
    with contract.gathering(model, gathered):
        # the model's stores serve both keys and both temperatures
        for temperature in (0.8, 1.3):
            sampling = SamplingConfig(temperature=temperature, nucleus_p=s["nucleus_p"],
                                      seed=s["seed"], max_tokens=s["max_tokens"])
            for key in (0xBEEF, 0x5EED):
                wm = _wm(s["scheme"], v, s["k"], key)
                args = (model, s["n_docs"], s["doc_len"], sampling, wm, s["prompt_len"])
                assert generate_corpus(*args) == loop_generate_corpus(*args)
            assert (_complete(model, s["prompts"], sampling, None)
                    == loop_complete(model, s["prompts"], sampling))
        model.next_greedy([])  # makes the table if no step did
    contract.assert_gathers(model, model.order if gathered is None else gathered)


@settings(max_examples=150, deadline=None)
@given(setups())
def test_corpora_and_completions_equal_the_loop(s):
    _assert_corpora_and_completions_equal_the_loop(s, None)


@settings(max_examples=80, deadline=None)
@given(setups(), st.data())
def test_searched_upper_levels_equal_the_loop(s, data):
    """With room for the state-to-context table of only the lowest levels,
    the levels above it are searched, and corpora and completions still
    equal the loop's."""
    gathered = data.draw(st.integers(0, s["model"].order - 1))
    _assert_corpora_and_completions_equal_the_loop(s, gathered)


def test_prompts_do_not_depend_on_the_nucleus():
    """Each body step draws one uniform, so a document's prompt is drawn at
    the same place in the stream whatever paths the documents before it took."""
    rng = np.random.default_rng(7)
    student = train_ngram(rng.integers(0, 16, size=(4, 30)).tolist(), 3, 0.0, 16)
    prompts = [[doc["tokens"][:3] for doc in generate_corpus(
        student, 20, 40, SamplingConfig(seed=8, nucleus_p=p))] for p in (0.05, 1.0)]
    assert prompts[0] == prompts[1]


def _codes(contexts, v: int) -> np.ndarray:
    """State codes of ``contexts``: base-(V+1) digits ``token + 1``, newest last."""
    return np.array([sum((int(tok) + 1) * (v + 1) ** j for j, tok in enumerate(reversed(c)))
                     for c in contexts])


def _rows_as_the_loop(store, model, oracle, contexts) -> tuple:
    """Build the rows of ``contexts`` in ``store``, checking that they keep the
    loop's ids and probabilities bit for bit, 0 past ``keep``; return their
    ids and the loop's V-wide cumulative sums, zero-padded ids and counts."""
    n, v = len(contexts), model.vocab_size
    log_q, cum = np.full((n, v), -np.inf), np.zeros((n, v))
    idx, keep = np.zeros((n, v), np.intp), np.zeros(n, np.intp)
    for i, context in enumerate(contexts):
        t_idx, t_log, t_cum = oracle._table(context)
        keep[i] = k = len(t_idx)
        idx[i, :k], log_q[i, :k], cum[i, :k], cum[i, k:] = t_idx, t_log, t_cum, t_cum[-1]
    ids = contract.rows_of(store, model, _codes(contexts, v))
    q, got_idx, got_keep = contract.padded(store, ids)
    assert np.array_equal(got_keep, keep) and np.array_equal(got_idx, idx)
    with np.errstate(divide="ignore"):
        assert np.array_equal(np.log(q), log_q)
    assert np.array_equal(q.cumsum(axis=1), cum)
    return ids, (cum, idx, keep)


def _assert_draws_equal_the_loop(store, ids, loop) -> np.ndarray:
    """Draws of rows ``ids`` at 0, the total, each cumulative sum of the
    loop's rows and just below it equal the loop's zero-padded picks;
    returns the positions the draws took."""
    cum, idx, keep = loop
    at, taken = np.arange(len(ids)), []
    points = [np.zeros(len(ids)), cum[:, -1]]
    points += [x for j in range(cum.shape[1]) for x in (cum[:, j], np.nextafter(cum[:, j], 0))]
    for u in points:
        pos = np.minimum((cum <= u[:, None]).sum(axis=1), keep - 1)
        assert np.array_equal(store.sample(ids, u), idx[at, pos])
        taken.append(pos)
    return np.array(taken)


@settings(max_examples=100, deadline=None)
@given(setups(), st.integers(0, 2**32 - 1))
def test_rows_equal_the_loop_tables_bit_for_bit(s, seed):
    """Rows built many at a time and one at a time (a batch of one) hold
    exactly the loop's tables."""
    model, v = s["model"], s["model"].vocab_size
    wm = _wm(s["scheme"], v, s["k"], 0xBEEF)
    sampling = SamplingConfig(nucleus_p=s["nucleus_p"])
    oracle = LoopTextSampler(model, sampling, wm)
    rng = np.random.default_rng(seed)
    contexts = list(dict.fromkeys(  # up to the state's depth
        tuple(rng.integers(0, v, size=rng.integers(0, max(model.order, s["k"]) + 1)).tolist())
        for _ in range(60)))
    batch = NucleusRows(model, oracle.temperature, sampling.nucleus_p)
    _rows_as_the_loop(batch, model, oracle, contexts)
    single = NucleusRows(model, oracle.temperature, sampling.nucleus_p)
    for context in contexts:
        _rows_as_the_loop(single, model, oracle, [context])
    if wm is None:
        return
    windowed = [c for c in contexts if len(c) >= wm.k]
    marked = _WatermarkRows(model, batch, wm, len(windowed))
    rows = contract.watermark_row(marked, marked.rows(_codes(windowed, v)))
    for i, context in enumerate(windowed):
        idx, log_kept, _ = oracle._table(context)
        entry = oracle._wm_entry(idx, log_kept, tuple(context[-wm.k:]))
        if wm.scheme == "ak":
            assert rows["tok"][i] == entry
        else:
            bcum = rows["bcum"][i]
            assert np.array_equal(bcum[: len(entry)], entry)
            assert (bcum[len(entry):] == entry[-1]).all()


def test_teacher_rows_equal_the_loop_tables(teacher64):
    """Every order-2 context of the 64-token teacher, built in one batch."""
    sampling = SamplingConfig()
    oracle = LoopTextSampler(teacher64, sampling)
    contexts = list(itertools.product(range(64), repeat=2))
    store = NucleusRows(teacher64, oracle.temperature, sampling.nucleus_p)
    _rows_as_the_loop(store, teacher64, oracle, contexts)


def test_rows_keeping_more_than_128_ids_equal_the_loop():
    """At V = 256 a smoothed model's rows keep more than 128 ids, where
    numpy's pairwise sum splits a kept prefix in two: stored rows, an AK
    corpus and completions still equal the loop's bit for bit."""
    rng = np.random.default_rng(5)
    docs = rng.integers(0, 256, size=(6, 80)).tolist()
    model = train_ngram(docs, 2, 0.05, 256)
    sampling = SamplingConfig(seed=9, max_tokens=40)
    oracle = LoopTextSampler(model, sampling)
    contexts = [()] + [tuple(doc[i : i + n]) for doc in docs[:2] for i in range(0, 60, 3)
                       for n in (1, 2)]
    store = NucleusRows(model, oracle.temperature, sampling.nucleus_p)
    _, (_, _, keep) = _rows_as_the_loop(store, model, oracle, contexts)
    assert ((keep > 128) & (keep < 256)).any()  # a split prefix, not a whole row
    wm = _wm("ak", 256, 2, 0xBEEF)
    assert (generate_corpus(model, 6, 60, sampling, wm)
            == loop_generate_corpus(model, 6, 60, sampling, wm))
    prompts = [doc[:5] for doc in docs]
    assert _complete(model, prompts, sampling, None) == loop_complete(model, prompts, sampling)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1100), st.lists(st.floats(0, 1), max_size=6), st.integers(0, 2**32 - 1))
@example(7, [], 0)  # no rows
def test_kept_sums_equal_the_prefix_sums(v, cuts, seed):
    """Each row's kept sum is ``np.add.reduce`` of its kept prefix alone,
    bit for bit, over rows whose entries span many magnitudes, for every
    kept count from 1 to V."""
    keep = np.array([1 + round(cut * (v - 1)) for cut in cuts], np.min_scalar_type(v))
    rng = np.random.default_rng(seed)
    rows = rng.random((len(keep), v)) * 10.0 ** rng.integers(-8, 8, size=(len(keep), v))
    want = np.array([np.add.reduce(row[:k]) for row, k in zip(rows, keep)])
    assert np.array_equal(_kept_sums(rows, keep), want.reshape(len(keep)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_teacher_corpus_equals_the_loop(teacher64, scheme):
    sampling = SamplingConfig(seed=41)
    wm = _wm(scheme, 64, 2, 0xC0FFEE)
    first = generate_corpus(teacher64, 30, 120, sampling, wm)
    assert first == loop_generate_corpus(teacher64, 30, 120, sampling, wm)
    assert generate_corpus(teacher64, 30, 120, sampling, wm) == first  # rows reused


def test_out_of_vocabulary_prompt_refused(teacher64):
    with pytest.raises(ConfigError, match="^prompt 0: token 64 at position 1 out of vocabulary$"):
        _complete(teacher64, [[3, 64]], SamplingConfig(max_tokens=4), None)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stores_filled_to_their_bound_keep_their_rows(fresh_teacher64, scheme):
    """A store grows past its reservation as rows are built, keeps them when
    it grows, and stops at its bound; reaching rows already built adds none."""
    teacher = fresh_teacher64
    sampling = SamplingConfig(seed=43, max_tokens=60)
    wm = _wm(scheme, 64, 2, 0xFACE)
    with contract.reserving(10_000):  # under 20 rows of V = 64
        assert (generate_corpus(teacher, 25, 90, sampling, wm)
                == loop_generate_corpus(teacher, 25, 90, sampling, wm))
        prompts = [[i, i + 1, i + 2] for i in range(20)]
        assert (_complete(teacher, prompts, sampling, None)
                == loop_complete(teacher, prompts, sampling))
        temperature = 0.5 if scheme == "ak-temp" else sampling.temperature  # as _wm sets it
        nucleus = contract.stores(teacher)[(temperature, sampling.nucleus_p)]
        assert 0 < nucleus.n < nucleus.bound / 2  # below half: not completed
        contract.assert_bound(nucleus, teacher)
        ids = np.random.default_rng(3).permutation(nucleus.bound)
        for part in np.array_split(ids, 4):
            assert np.array_equal(contract.ready(nucleus, teacher, part), part)
        contract.assert_layout(nucleus, grown=True)
        assert nucleus.n == nucleus.bound
        if wm is None:
            return
        # every order-2 state of the 64-token teacher holds a full window
        codes = _codes(itertools.product(range(64), repeat=2), 64)
        marked = _WatermarkRows(teacher, nucleus, wm, len(codes))
        rows = np.concatenate([contract.fill(marked, part)
                               for part in np.array_split(codes[::-1], 5)])
        assert marked.n == marked.bound == len(codes)
        assert np.array_equal(marked.rows(codes[::7]), rows[::-1][::7])
        assert marked.n == len(codes)


def test_store_memory_follows_the_rows_built():
    """Stores with bounds far beyond memory, a V = 4096 model's nucleus
    rows and a V = 1024 watermark store bounded by its million windowed
    states, allocate their reservation, not their bound."""
    rng = np.random.default_rng(12)
    model = train_ngram(rng.integers(0, 4096, size=(40, 500)).tolist(), 2, 0.05, 4096)
    nucleus = NucleusRows(model, 0.8, 0.95)
    assert nucleus.bound > 20_000  # over 700 MB of V-wide rows
    contract.ready(nucleus, model, rng.permutation(nucleus.bound)[:300])
    assert nucleus.n == 300
    small = train_ngram(rng.integers(0, 1024, size=(20, 200)).tolist(), 1, 0.05, 1024)
    wm = _wm("kgw", 1024, 2, 0xD1CE)
    marked = _WatermarkRows(small, NucleusRows(small, 0.8, 0.95), wm, 10**9)
    assert marked.bound == 1025**2 - 1025  # 8.6 GB of rows
    codes = np.unique(_codes(rng.integers(0, 1024, size=(500, 2)), 1024))
    for part in np.array_split(codes, 3):
        contract.fill(marked, part, grown=False)
    assert marked.n == len(codes)
    contract.assert_layout(nucleus, grown=False)


def test_picks_read_past_keep_equal_zero_padded_picks(teacher64):
    """A walk reads rows that run on past ``keep``, where the head and a
    V-wide read repeat the last stored entry; its picks equal those from
    rows padded with zeros, at u = 0, at each cumulative sum, just below
    it, and at the row total."""
    rows = NucleusRows(teacher64, 0.8, 0.95)
    ids = rows.ready(teacher64, np.random.default_rng(6).permutation(rows.bound))
    contract.assert_reads_run_past_keep(rows, ids)
    q, idx, keep = rows.kept(ids)
    # past keep the sums repeat the row total: the last column is the total
    _assert_draws_equal_the_loop(rows, ids, (q.cumsum(axis=1), idx, keep.astype(np.intp)))


# (smoothing lambda, temperature, nucleus p): lambda 0 floors unseen values
# at 1e-300, lambda 50 flattens every row, and p = 1 or temperature 3 keep
# long rows with long runs of equal values
EDGE_SAMPLING = [(0.05, 0.8, 0.95), (0.05, 0.8, 1.0), (0.05, 3.0, 0.95),
                 (0.0, 0.8, 0.95), (0.0, 3.0, 1.0), (50.0, 0.8, 0.95)]


@pytest.mark.parametrize("lam, temperature, nucleus_p", EDGE_SAMPLING)
def test_stored_rows_equal_the_loop_tables_and_draws(lam, temperature, nucleus_p):
    """Every order-2 row of a V = 64 teacher stores its head, or up to its
    last kept value, reads back as the loop's table, and draws the loop's
    zero-padded picks, also where a draw passes the head and lands in the
    run of equal entries past the stored ones."""
    model = make_teacher(vocab_size=64, seed=7, source_tokens=120_000, smoothing_lambda=lam)
    sampling = SamplingConfig(temperature=temperature, nucleus_p=nucleus_p, seed=5)
    contexts = [(a, b) for a in range(64) for b in range(64)]
    store = NucleusRows(model, temperature, nucleus_p)
    ids, loop = _rows_as_the_loop(store, model, LoopTextSampler(model, sampling), contexts)
    stored = contract.stored_counts(store, ids)
    taken = _assert_draws_equal_the_loop(store, ids, loop)
    # past the head and into the run of equal values, short of the clip
    assert ((taken >= np.maximum(stored, contract.HEAD)) & (taken < loop[-1] - 1)).any()
    assert (generate_corpus(model, 12, 60, sampling)
            == loop_generate_corpus(model, 12, 60, sampling))


def test_a_nucleus_cut_among_tied_values():
    """A row whose nucleus cut falls inside a run of tied observed values
    keeps part of the run, stores the one value above the run and one of
    the run, and reads and draws as the loop's table."""
    # after token 1: token 0 five times, tokens 2..41 twice each
    doc = [1, 0] * 5 + [tok for t in range(2, 42) for tok in (1, t)] * 2
    model = train_ngram([doc], 1, 0.0, 64)
    sampling = SamplingConfig(temperature=1.0, nucleus_p=0.7, seed=9, max_tokens=30)
    store = NucleusRows(model, 1.0, 0.7)
    ids, loop = _rows_as_the_loop(store, model, LoopTextSampler(model, sampling), [(1,)])
    (keep,) = loop[-1]
    assert 2 < keep < 41  # tied values on both sides of the cut
    assert keep > contract.HEAD and contract.stored_counts(store, ids)[0] == 2
    taken = _assert_draws_equal_the_loop(store, ids, loop)
    assert ((taken > contract.HEAD) & (taken < keep - 1)).any()
    prompts = [[1]] * 20
    assert _complete(model, prompts, sampling, None) == loop_complete(model, prompts, sampling)


def test_a_completed_store_holds_the_stored_entries(teacher128):
    """A completed store's ``q`` holds exactly the stored entries of its
    rows, each row's first m + 1, where m counts its kept values above
    its last, and its rows read as the loop's tables; for the default
    V = 128 teacher that is at most 2.4 MB, against 12.1 MB for every
    kept entry."""
    contexts = [()] + [(b,) for b in range(128)]
    contexts += [(a, b) for a in range(128) for b in range(128)]  # every trained context
    store = NucleusRows(teacher128, 0.8, 0.95)
    _rows_as_the_loop(store, teacher128, LoopTextSampler(teacher128, SamplingConfig()), contexts)
    assert store.n == store.bound
    contract.assert_layout(store)
    every = np.arange(store.bound)
    stored, keep = contract.stored_counts(store, every), store.kept(every)[2]
    assert store.nbytes == 8 * stored.sum() + keep.sum()  # 1-byte ids at V = 128
    assert 8 * stored.sum() <= 2.4e6


def test_a_completed_suspect_store_writes_m_plus_one_probabilities_a_row(teacher128):
    """The closed-mode benchmark's suspect, an order-3 student on 300 x 400
    clean tokens of the default V = 128 teacher, completes a store that
    writes m + 1 probabilities a row, m counting its kept values above its
    last, and under 6 MiB of ids and probabilities in all (10.7 MiB when
    each row wrote at least its first 16 probabilities)."""
    docs = generate_corpus(teacher128, 300, 400, SamplingConfig(seed=3))
    student = train_ngram([doc["tokens"] for doc in docs], 3, 0.01, 128)
    store = NucleusRows(student, 0.8, 0.95)
    every = np.arange(store.bound)
    store.ready(student, every)
    assert store.n == store.bound > 50_000
    # a few thousand rows at a time: V-wide rows of them all take 55 MB
    assert store.qsize == sum(contract.stored_counts(store, part).sum()
                              for part in np.array_split(every, 16))
    assert store.nbytes < 6 << 20


def _uniforms_at(x: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Uniforms u with ``u * total == x`` where some double gives that
    product, else within a few ulps of it."""
    u = x / total
    for _ in range(3):
        y = u * total
        u = np.where(y > x, np.nextafter(u, 0), np.where(y < x, np.nextafter(u, 1), u))
    return u


@pytest.mark.parametrize("scheme", ["kgw", "mpac"])
@pytest.mark.parametrize("v", [64, 8])
def test_watermark_draws_at_the_head_boundary_equal_full_row_draws(teacher64, scheme, v):
    """A KGW or MPAC draw counts its row's first cumulative sums, the head,
    and reads the whole row only where the last of them is at or below
    u times the row total.  At u * total = 0, at each sum, just below it
    and at the total it takes the whole row's count, clipped to keep - 1,
    in rows that keep fewer entries than the head and more, and in the
    V = 8 model's rows, which are narrower than the head."""
    model = teacher64 if v == 64 else make_teacher(vocab_size=8, seed=7, source_tokens=20_000)
    nucleus = NucleusRows(model, 0.8, 0.95)
    marked = _WatermarkRows(model, nucleus, _wm(scheme, v, 2, 0xBEEF), v * v)
    rows = marked.rows(_codes(itertools.product(range(v), repeat=2), v))
    fields = contract.watermark_row(marked, rows)
    bcum = fields["bcum"]
    _, idx, keep = nucleus.kept(fields["base"])
    keep = keep.astype(np.intp)
    total, at = bcum[:, -1], np.arange(len(rows))
    head = contract.HEAD
    edges = (head - 1, head) if v > head else (v - 1,)
    # rows that keep fewer entries than the head, and more
    kinds = (keep < head, keep > head) if v > head else (keep < head,)
    assert all(kind.any() for kind in kinds)
    points = [(None, np.zeros(len(rows))), (None, total)]
    points += [(j, x) for j in range(v) for x in (bcum[:, j], np.nextafter(bcum[:, j], 0))]
    for j, x in points:
        u = _uniforms_at(x, total)
        y = u * total  # the draw's point, as the store computes it
        want = idx[at, np.minimum((bcum <= y[:, None]).sum(axis=1), keep - 1)]
        assert np.array_equal(marked.sample(rows, u), want)
        if j in edges:  # the draws hit the boundary itself
            hit = y == x
            assert hit.mean() > 0.9 and all(hit[kind].any() for kind in kinds)


@pytest.mark.parametrize("scheme", ["kgw", "ak", "mpac"])
def test_states_windowed_on_different_steps_equal_the_loop(teacher64, scheme):
    """Prompts of 0 to 5 tokens give their states a full k = 3 window on
    steps 3 to 0, so the walk splits states into plain and windowed until
    the last has its window, then reads watermark rows alone; each
    document equals the loop's, fed the same uniforms."""
    steps = 30
    wm = _wm(scheme, 64, 3, 0xFACE)
    sampling = SamplingConfig(seed=5)
    rng = np.random.default_rng(5)
    prompts = [rng.integers(64, size=n).tolist() for n in [0, 1, 2, 3, 4, 5] * 4]
    uniforms = rng.random((len(prompts), steps))
    got = TextSampler(teacher64, sampling, wm).generate(prompts, steps, uniforms)
    loop = LoopTextSampler(teacher64, sampling, wm)
    for prompt, doc, u in zip(prompts, got.tolist(), uniforms):
        assert doc == loop.generate(prompt, steps, SimpleNamespace(random=iter(u).__next__))


def test_a_state_reached_by_many_documents_is_built_once(teacher64, monkeypatch):
    """A step that first reaches one state from many documents builds its
    row once, and leaves every state code of the dense store mapped to no
    row or to a row built: no placeholder of the step is left behind."""
    built = contract.count_watermark_builds(monkeypatch)
    wm = _wm("kgw", 64, 2, 0xD0C)
    marked = _WatermarkRows(teacher64, NucleusRows(teacher64, 0.8, 0.95), wm, 1000)
    codes = _codes([(1, 2)] * 20 + [(3, 4), (1, 2), (5, 6), (3, 4)], 64)
    rows = contract.fill(marked, codes)
    assert sorted(built[marked][0].tolist()) == sorted(set(codes.tolist()))
    assert np.array_equal(rows[:, None] == rows, codes[:, None] == codes)
    contract.assert_row_index(marked)
    # one step of many documents from two prompts reaches two states
    prompts = [[7, 8, 9]] * 40 + [[10, 11, 12]] * 10
    uniforms = np.random.default_rng(3).random((len(prompts), 20))
    TextSampler(teacher64, SamplingConfig(seed=3), wm).generate(prompts, 20, uniforms)
    ((walked, batches),) = [(m, b) for m, b in built.items() if m is not marked]
    assert len(batches[0]) == 2
    every = np.concatenate(batches)
    assert len(np.unique(every)) == len(every) == walked.n
    contract.assert_row_index(walked)


@pytest.mark.parametrize("scheme", ["kgw", "ak", "mpac"])
def test_no_warning_escapes_rows_that_keep_zeros(scheme):
    """A model with lambda = 0 keeps zero probabilities when nucleus p is 1,
    whose log each build takes under its own np.errstate: no warning
    escapes a watermarked corpus, a completion or a direct row build."""
    v = 16
    corpus = np.random.default_rng(1).integers(0, v, size=(6, 40)).tolist()
    model = train_ngram(corpus, 2, 0.0, v)
    sampling = SamplingConfig(seed=2, nucleus_p=1.0, max_tokens=20)
    wm = _wm(scheme, v, 2, 0xABC)
    nucleus = NucleusRows(model, sampling.temperature, sampling.nucleus_p)
    marked = _WatermarkRows(model, nucleus, wm, v * v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_corpus(model, 10, 30, sampling, wm)
        _complete(model, [[1, 2, 3], [4]], sampling, None)
        rows = marked.rows(_codes(itertools.product(range(v), repeat=2), v))
    q, _, keep = contract.padded(nucleus, contract.watermark_row(marked, rows)["base"])
    assert ((q == 0) & (np.arange(v) < keep[:, None])).any()  # kept zeros


def test_a_half_built_store_builds_every_row_once(teacher64, monkeypatch):
    """The row that brings a store to half its bound builds all the rest,
    each once; later lookups build nothing, and completed rows equal rows
    built one batch at a time."""
    _, built = contract.count_builds(monkeypatch)
    store = NucleusRows(teacher64, 0.8, 0.95)
    ids = np.random.default_rng(7).permutation(store.bound)
    half = (store.bound + 1) // 2
    store.ready(teacher64, ids[: half - 1])
    assert store.n == half - 1
    store.ready(teacher64, ids[half - 1 : half])
    assert store.n == store.bound
    assert np.array_equal(np.sort(np.concatenate(built[store])), np.arange(store.bound))
    calls = len(built[store])
    store.ready(teacher64, ids)
    contract.rows_of(store, teacher64, _codes(itertools.product(range(64), repeat=2), 64))
    assert len(built[store]) == calls
    for part in np.array_split(ids, 3):  # each part under half: built lazily
        lazy = NucleusRows(teacher64, 0.8, 0.95)
        lazy.ready(teacher64, part)
        assert lazy.n == len(part)
        for got, want in zip(contract.padded(store, part), contract.padded(lazy, part)):
            assert np.array_equal(got, want)


def test_an_untrained_model_has_one_row():
    model = models.NGramModel(2, 8)
    store = NucleusRows(model, 0.8, 0.95)
    assert store.bound == 1
    ids = contract.rows_of(store, model, _codes([(), (3,), (1, 2)], 8))
    assert ids.tolist() == [0, 0, 0] and store.n == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 2**64 - 2]) | st.integers(1, 2**64 - 2),
       st.integers(1, 5), st.integers(1, 3), st.data())
def test_digit_table_seeds_equal_window_hash(key, k, order, data):
    """A state's seed, hashed from its decoded window or read from a dense
    store's seed table, is the scalar hash of its window, also where the
    sum is the other form of 0."""
    depth = max(order, k)
    # small vocabularies give dense stores with at most 2**16 state codes
    v = data.draw(st.integers(2, 300) | st.integers(2, max(2, int(2 ** (16 / depth)) - 1)))
    windows = data.draw(st.lists(st.lists(st.integers(0, v - 1), min_size=depth,
                                          max_size=depth + 2), max_size=20))
    windows += [[1] * depth, [v - 1] * depth]  # key 2**64 - 2, even k: (1, 1, ...) sums to 0
    wm = WatermarkConfig("kgw", SecretKey(key), v, k=k)
    model = models.NGramModel(order, v)
    nucleus = NucleusRows(model, 0.8, 0.95)
    want = [window_hash(w[-k:], SecretKey(key)) for w in windows]
    with contract.reserving_dense_tables(model, wm, -1):
        marked = _WatermarkRows(model, nucleus, wm, 1)
    assert not contract.is_dense(marked)
    assert contract.window_seeds(marked, _codes(windows, v)).tolist() == want
    if (v + 1) ** depth <= 1 << 16:
        dense = _WatermarkRows(model, nucleus, wm, 1)
        assert contract.is_dense(dense)
        codes = _codes([w[-depth:] for w in windows], v)
        assert contract.window_seeds(dense, codes).tolist() == want


@pytest.mark.parametrize("key", [1, 2**64 - 2, 0x9E3779B97F4A7C15])
@pytest.mark.parametrize("v,order,k", [(2, 1, 1), (5, 3, 2), (12, 2, 3), (3, 1, 4), (9, 3, 3)])
def test_every_state_seed_is_the_hash_of_its_window(key, v, order, k):
    """On the dense and on the dict path, each full-window state code's
    seed is ``window_hashes`` of its last k tokens."""
    wm = WatermarkConfig("kgw", SecretKey(key), v, k=k)
    model = models.NGramModel(order, v)
    nucleus = NucleusRows(model, 0.8, 0.95)
    dense = _WatermarkRows(model, nucleus, wm, 1)
    assert contract.is_dense(dense)
    contract.assert_state_seeds(dense)
    with contract.reserving_dense_tables(model, wm, -1):
        sparse = _WatermarkRows(model, nucleus, wm, 1)
    assert not contract.is_dense(sparse)
    contract.assert_state_seeds(sparse)


@st.composite
def dense_setups(draw):
    """A model, a scheme and corpus sizes, from no steps to enough to reach
    every windowed state of the vocabulary, whose watermark store is dense."""
    order, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    depth = max(order, k)
    v = draw(st.integers(2, 64 if depth <= 2 else 12))
    doc = st.lists(st.integers(0, v - 1), max_size=40)
    model = train_ngram(draw(st.lists(doc, min_size=1, max_size=8)), order,
                        draw(st.sampled_from([0.0, 0.05])), v)
    radix = v + 1
    states = radix**depth - radix ** (k - 1)
    n_docs = draw(st.integers(4, 16))
    prompt_len = draw(st.integers(0, 4))
    doc_len = prompt_len + draw(st.integers(0, -(-states // n_docs) + 3))
    sampling = SamplingConfig(nucleus_p=draw(st.sampled_from([1.0, 0.05, 0.95])),
                              seed=draw(st.integers(0, 2**32 - 1)))
    wm = _wm(draw(st.sampled_from(SCHEMES[1:])), v, k, draw(st.integers(1, 2**64 - 2)))
    return model, (n_docs, doc_len, sampling, wm, prompt_len)


@settings(max_examples=60, deadline=None)
@given(dense_setups())
def test_dense_and_dict_stores_give_the_same_corpus(setup):
    """Forcing the dict path with a reservation just below the dense tables
    changes no token, for every scheme, window and order."""
    model, args = setup
    made = []  # the watermark stores, one per corpus
    with mock.patch.object(models, "_WatermarkRows",
                           lambda *a: made.append(_WatermarkRows(*a)) or made[-1]):
        dense = generate_corpus(model, *args)
        with contract.reserving_dense_tables(model, args[3], -1):
            sparse = generate_corpus(model, *args)
    assert [contract.is_dense(store) for store in made] == [True, False]
    assert dense == sparse


def test_dense_tables_stay_within_the_reservation():
    """A dense store's tables fit the reservation; a vocabulary whose
    state codes need more takes the dict path without allocating them."""
    rng = np.random.default_rng(14)
    model = train_ngram(rng.integers(0, 128, size=(20, 200)).tolist(), 1, 0.05, 128)
    nucleus = NucleusRows(model, 0.8, 0.95)
    wm = _wm("kgw", 128, 2, 0xD1CE)
    states = 129**2 - 129
    assert contract.is_dense(_WatermarkRows(model, nucleus, wm, states))
    assert contract.is_dense(_WatermarkRows(model, nucleus, wm, 1))  # however few states reached
    with contract.reserving_dense_tables(model, wm, 0):
        assert contract.is_dense(_WatermarkRows(model, nucleus, wm, states))
    with contract.reserving_dense_tables(model, wm, -1):
        assert not contract.is_dense(_WatermarkRows(model, nucleus, wm, states))
    # V = 2100 at depth 2: 4.4 million state codes, 71 MB of tables
    big = train_ngram(rng.integers(0, 2100, size=(20, 200)).tolist(), 1, 0.05, 2100)
    nucleus = NucleusRows(big, 0.8, 0.95)
    wm = _wm("kgw", 2100, 2, 0xD1CE)
    # the row reservation and the digit tables, not 71 MB more
    marked = contract.within(lambda: _WatermarkRows(big, nucleus, wm, 2101**2 - 2101))
    assert not contract.is_dense(marked)
    codes = np.unique(_codes(rng.integers(0, 2100, size=(50, 2)), 2100))
    assert np.array_equal(contract.watermark_row(marked, marked.rows(codes))["base"],
                          contract.rows_of(nucleus, big, codes))


def test_state_codes_wider_than_int64():
    v, k = 1 << 13, 5  # (V + 1) ** 5 > 2 ** 63
    rng = np.random.default_rng(5)
    model = train_ngram(rng.integers(0, 40, size=(6, 50)).tolist(), 1, 0.0, v)
    sampling = SamplingConfig(seed=44, nucleus_p=0.5)
    wm = _wm("kgw", v, k, 0xABBA)
    got = generate_corpus(model, 4, 12, sampling, wm, prompt_len=5)
    assert got == loop_generate_corpus(model, 4, 12, sampling, wm, prompt_len=5)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.sampled_from([2, 7, 64, 1 << 20]), st.data())
def test_prompt_codes_are_the_per_prompt_rule(order, extra, v, data):
    """The model's coder at the sampler's depth codes each prompt as the
    per-prompt rule did: empty prompts, prompts shorter than the depth and
    longer, also where codes outgrow int64 (V = 2**20 from depth 4)."""
    depth = order + extra
    model = models.NGramModel(1 if v > 64 else order, v)
    prompts = data.draw(st.lists(st.lists(st.integers(0, v - 1), max_size=2 * depth + 1),
                                 max_size=8))
    prompts += [[], [v - 1] * (depth - 1), [0] * depth, list(range(min(v, depth + 2)))]
    lens = np.array([len(p) for p in prompts])
    tokens = token_ids(prompts, v)
    got = model._locate(tokens, lens, np.arange(len(prompts)), lens, depth)
    assert got.tolist() == [loop_state_code(p, depth, v + 1) for p in prompts]


@st.composite
def models_and_contexts(draw):
    v = draw(st.integers(2, 64))
    order = draw(st.integers(1, 3))
    lam = draw(st.sampled_from([0.0, 0.05]))
    # an empty corpus list leaves the model untrained
    corpus = draw(st.lists(st.lists(st.integers(0, v - 1), max_size=40), max_size=6))
    model = models.NGramModel(order, v, lam)
    if corpus:
        model.update(corpus)
    contexts = draw(st.lists(st.lists(st.integers(0, v - 1), max_size=order + 1),
                             min_size=1, max_size=30))
    return model, [[]] + contexts  # the empty context always


@settings(max_examples=100, deadline=None)
@given(models_and_contexts())
def test_context_table_equals_the_search(mc):
    """The model's context table gives, for every state code of ``order``
    digits, missing tokens in the middle too, the context a search of
    every level finds, untrained models too."""
    model, contexts = mc
    v, order = model.vocab_size, model.order
    codes = np.arange((v + 1) ** order)
    got = contract.context_ids(model, codes)
    contract.assert_gathers(model, order)
    assert np.array_equal(contract.context_table(model), got)  # the whole table
    assert np.array_equal(got, contract.searched_ids(model, codes))
    some = _codes([c[-order:] for c in contexts], v)
    assert ([model._find(c) for c in contexts] == contract.context_ids(model, some).tolist()
            == contract.searched_ids(model, some).tolist())


@settings(max_examples=150, deadline=None)
@given(models_and_contexts())
def test_batched_rows_equal_next_distribution_bit_for_bit(mc):
    model, contexts = mc
    v = model.vocab_size
    store = NucleusRows(model, 0.8, 0.95)
    ids = contract.rows_of(store, model, _codes([c[-model.order:] for c in contexts], v))
    got = contract.distributions(model, ids)
    want = np.array([model.next_distribution(c) for c in contexts])
    assert got.tobytes() == want.tobytes()
    if store.bound == 1:  # never trained: every context is the uniform row
        assert (got == 1.0 / v).all()


def test_states_that_back_off_to_one_context_share_one_row():
    model = train_ngram([[1, 2, 3]], 2, 0.05, 8)  # trained contexts (), (1,), (2,), (1, 2)
    rows = NucleusRows(model, 0.8, 0.95)
    assert rows.bound == 5
    # (5, 2), (7, 2) and (2,) all back off to (2,)
    got = contract.rows_of(rows, model, _codes([(5, 2), (7, 2), (2,)], 8))
    assert len(set(got.tolist())) == 1 and rows.n == 1
    got = contract.rows_of(rows, model, _codes([(1, 2), (6, 6), (4,), ()], 8))
    assert len(set(got.tolist())) == 2  # (1, 2) and ()
    assert rows.n == rows.bound  # three of five rows built: the rest are too


def test_store_stays_within_the_model_contexts():
    rng = np.random.default_rng(9)
    model = train_ngram(rng.integers(0, 16, size=(5, 30)).tolist(), 3, 0.05, 16)
    for seed in range(12):
        prompts = rng.integers(0, 16, size=(30, 3)).tolist()
        _complete(model, prompts, SamplingConfig(seed=seed, max_tokens=40), None)
    (store,) = contract.stores(model).values()
    contract.assert_bound(store, model)
    assert store.n <= store.bound


def test_tables_follow_further_training():
    """``update`` drops the model's stores, so rows built before it are not
    read after it: a sampler made before samples as a model trained on
    both corpora at once."""
    rng = np.random.default_rng(10)
    first, more = (rng.integers(0, 16, size=(n, 30)).tolist() for n in (4, 6))
    model = train_ngram(first, 2, 0.05, 16)
    sampling = SamplingConfig(seed=12, max_tokens=37)
    sampler = TextSampler(model, sampling)
    generate_corpus(model, 10, 40, sampling)
    (before,) = contract.stores(model).values()
    model.update(more)
    assert contract.stores(model) == {}
    at_once = train_ngram(first + more, 2, 0.05, 16)
    assert generate_corpus(model, 10, 40, sampling) == generate_corpus(at_once, 10, 40, sampling)
    prompts, uniforms = [[1, 2]] * 10, np.random.default_rng(12).random((10, 37))
    assert np.array_equal(sampler.generate(prompts, 37, uniforms),
                          TextSampler(at_once, sampling).generate(prompts, 37, uniforms))
    (after,) = contract.stores(model).values()
    assert after is not before and after.bound > before.bound


def test_one_context_table_per_training(monkeypatch):
    """Sampling at two temperatures, then the greedy readout, make one
    context table between them; ``update`` drops it with the stores, and
    the next lookup makes the table of the new counts."""
    rng = np.random.default_rng(22)
    model = train_ngram(rng.integers(0, 16, size=(4, 30)).tolist(), 3, 0.05, 16)
    tiles = []
    tile = np.tile
    monkeypatch.setattr(np, "tile", lambda *args: tiles.append(1) or tile(*args))
    assert contract.context_table(model) is None
    for temperature in (0.8, 1.3):
        generate_corpus(model, 5, 30, SamplingConfig(seed=23, temperature=temperature))
    table = contract.context_table(model)
    docs = rng.integers(0, 16, size=(3, 20))
    model.greedy_at(docs.ravel(), [20] * 3, np.arange(63) // 21, np.arange(63) % 21)
    assert len(contract.stores(model)) == 2 and contract.context_table(model) is table
    assert len(tiles) == model.order  # a table tiles once per level above 0
    model.update(docs.tolist())
    assert contract.stores(model) == {} and contract.context_table(model) is None
    model.next_greedy([1, 2, 3])
    assert contract.context_table(model) is not table
    contract.assert_gathers(model, model.order)
    assert np.array_equal(contract.context_ids(model, np.arange(17**3)),
                          contract.searched_ids(model, np.arange(17**3)))


def test_tables_follow_their_model():
    """Two models of one vocabulary each sample through their own rows."""
    rng = np.random.default_rng(11)
    first, second = (train_ngram(rng.integers(0, 16, size=(4, 30)).tolist(), 2, 0.05, 16)
                     for _ in range(2))
    sampling = SamplingConfig(seed=13)
    generate_corpus(first, 10, 40, sampling)
    assert (generate_corpus(second, 10, 40, sampling)
            == loop_generate_corpus(second, 10, 40, sampling))
    assert contract.stores(first)[(0.8, 0.95)] is not contract.stores(second)[(0.8, 0.95)]


def test_generate_calls_share_one_store(monkeypatch):
    """Two one-shot ``generate`` calls on a model make one nucleus store,
    and the second builds no row."""
    model = train_ngram(np.random.default_rng(17).integers(0, 16, size=(4, 30)).tolist(),
                        2, 0.05, 16)
    made, built = contract.count_builds(monkeypatch)
    sampling = SamplingConfig(seed=18, max_tokens=25)
    first = generate(model, [3, 4], sampling)
    calls = sum(map(len, built.values()))
    assert generate(model, [3, 4], sampling) == first
    assert [store for _, store in made] == list(contract.stores(model).values())
    assert len(made) == 1 and sum(map(len, built.values())) == calls


def test_a_dropped_model_frees_its_stores():
    """A store holds no reference to its model, so dropping the model frees
    its stores without a garbage collection pass."""
    model = train_ngram(np.random.default_rng(19).integers(0, 16, size=(4, 30)).tolist(),
                        2, 0.05, 16)
    wm = _wm("kgw", 16, 2, 0xF00D)
    gc.disable()
    try:
        generate(model, [1, 2], SamplingConfig(seed=20, max_tokens=10), wm)
        generate_corpus(model, 3, 20, SamplingConfig(seed=21, temperature=1.1))
        stores = [weakref.ref(store) for store in contract.stores(model).values()]
        assert len(stores) == 2
        del model
        assert [store() for store in stores] == [None, None]
    finally:
        gc.enable()


def test_an_over_budget_level_allocates_no_table():
    """A V = 10,000, order-2 model's top level would take 200 MB of table:
    it is searched, the first lookup allocates the lower levels' table
    only, and a store its row reservation only."""
    rng = np.random.default_rng(15)
    docs = rng.integers(0, 10_000, size=(20, 200))
    model = train_ngram(docs.tolist(), 2, 0.05, 10_000)
    # trained order-2 contexts, each followed by a token, and untrained ones
    contexts = [tuple(docs[0, i : i + 2].tolist()) for i in range(20)] + [(7, 7), (5,), ()]
    codes = _codes(contexts, 10_000)
    ids = contract.within(lambda: contract.context_ids(model, codes), 1 << 20)
    store = contract.within(lambda: NucleusRows(model, 0.8, 0.95))
    contract.assert_gathers(model, 1)
    assert np.array_equal(ids, contract.searched_ids(model, codes))
    assert ids.tolist() == [model._find(c) for c in contexts]
    assert contract.rows_of(store, model, codes).tolist() == ids.tolist()


def test_completions_search_no_level_when_the_table_fits():
    """A V = 128, order-3 suspect's completions find every context by one
    gather: no level is searched; its store has a row per context."""
    rng = np.random.default_rng(16)
    model = train_ngram(rng.integers(0, 128, size=(30, 200)).tolist(), 3, 0.05, 128)
    prompts = rng.integers(0, 128, size=(20, 5)).tolist()
    sampling = SamplingConfig(seed=17, max_tokens=30)
    want = loop_complete(model, prompts, sampling)
    contract.assert_gathers(model, model.order)  # the loop's lookups made the table
    with contract.no_search(model):
        assert _complete(model, prompts, sampling, None) == want
    (store,) = contract.stores(model).values()
    contract.assert_bound(store, model)
