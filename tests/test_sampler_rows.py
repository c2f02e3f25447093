"""The decode-row sampler against the per-token loop it replaced."""

import gc
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radioscope import (SamplingConfig, SecretKey, TextSampler, WatermarkConfig, generate,
                        generate_corpus, make_teacher, models, train_ngram)
from radioscope.hashing import window_hash
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


@settings(max_examples=150, deadline=None)
@given(setups())
def test_corpora_and_completions_equal_the_loop(s):
    model, v = s["model"], s["model"].vocab_size
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


def test_prompts_do_not_depend_on_the_nucleus():
    """Each body step draws one uniform, so a document's prompt is drawn at
    the same place in the stream whatever paths the documents before it took."""
    rng = np.random.default_rng(7)
    student = train_ngram(rng.integers(0, 16, size=(4, 30)).tolist(), 3, 0.0, 16)
    prompts = [[doc["tokens"][:3] for doc in generate_corpus(
        student, 20, 40, SamplingConfig(seed=8, nucleus_p=p))] for p in (0.05, 1.0)]
    assert prompts[0] == prompts[1]


def _code(context, v):
    code = 0
    for tok in context:
        code = code * (v + 1) + tok + 1
    return code


def _ids(store, model, codes):
    """Context id of each state code, its row built in ``store``."""
    return store.ready(model, model._context_ids(codes))


@settings(max_examples=100, deadline=None)
@given(setups(), st.integers(0, 2**32 - 1))
def test_rows_equal_the_loop_tables_bit_for_bit(s, seed):
    """Rows built many at a time and one at a time (a batch of one) hold
    exactly the loop's tables."""
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
    ctx_ids = _ids(batch, model, np.array([_code(c, v) for c in contexts]))
    for context, row in zip(contexts, ctx_ids.tolist()):
        idx, log_kept, cum = oracle._table(context)
        k = len(idx)
        (one,) = _ids(single, model, np.array([_code(context, v)])).tolist()
        for rows, r in ((batch, row), (single, one)):
            got_q, got_idx, keep = rows.kept(np.array([r]))  # 2-d, as rows are read
            assert keep[0] == k
            got_cum = got_q.cumsum(axis=1)[0]
            with np.errstate(divide="ignore"):
                got_log = np.log(got_q[0])
            assert np.array_equal(got_idx[0, :k], idx)
            assert np.array_equal(got_log[:k], log_kept)
            assert np.array_equal(got_cum[:k], cum)
            assert (got_log[k:] == -np.inf).all() and (got_cum[k:] == cum[-1]).all()
    if wm is None:
        return
    windowed = [c for c in contexts if len(c) >= wm.k]
    marked = _WatermarkRows(model, batch, wm, len(windowed))
    rows = marked.rows(np.array([_code(c, v) for c in windowed]))
    for context, r in zip(windowed, rows.tolist()):
        idx, log_kept, _ = oracle._table(context)
        entry = oracle._wm_entry(idx, log_kept, tuple(context[-wm.k:]))
        if wm.scheme == "ak":
            assert marked.fields["tok"][r] == entry
        else:
            bcum = marked.fields["bcum"][r]
            assert np.array_equal(bcum[: len(entry)], entry)
            assert (bcum[len(entry):] == entry[-1]).all()


def test_teacher_rows_equal_the_loop_tables(teacher64):
    """Every order-2 context of the 64-token teacher, built in batches."""
    sampling = SamplingConfig()
    oracle = LoopTextSampler(teacher64, sampling)
    contexts = [(a, b) for a in range(64) for b in range(64)]
    rows = NucleusRows(teacher64, sampling.temperature, sampling.nucleus_p)
    q, _, _ = rows.kept(_ids(rows, teacher64, np.array([_code(c, 64) for c in contexts])))
    cum = q.cumsum(axis=1)
    with np.errstate(divide="ignore"):
        log_kept = np.log(q)
    for i, context in enumerate(contexts):
        _, want_log, want_cum = oracle._table(context)
        assert np.array_equal(cum[i, : len(want_cum)], want_cum)
        assert np.array_equal(log_kept[i, : len(want_log)], want_log)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_teacher_corpus_equals_the_loop(teacher64, scheme):
    sampling = SamplingConfig(seed=41)
    wm = _wm(scheme, 64, 2, 0xC0FFEE)
    first = generate_corpus(teacher64, 30, 120, sampling, wm)
    assert first == loop_generate_corpus(teacher64, 30, 120, sampling, wm)
    assert generate_corpus(teacher64, 30, 120, sampling, wm) == first  # rows reused


def test_out_of_vocabulary_prompt_refused(teacher64):
    with pytest.raises(ValueError, match="out of vocabulary"):
        _complete(teacher64, [[3, 64]], SamplingConfig(max_tokens=4), None)


def _size(store) -> int:
    """Rows the watermark store's fields have room for, the same for every field."""
    (size,) = {len(field) for field in store.fields.values()}
    return size


def _row_bytes(store) -> int:
    return sum(field.itemsize * int(np.prod(field.shape[1:])) for field in store.fields.values())


def _fill(store, rows: np.ndarray) -> np.ndarray:
    """``store.rows(rows)`` of a watermark store, checking that the rows
    already built keep their values and that the store holds its
    reservation or at most twice the rows it built."""
    before = {name: field[: store.n].copy() for name, field in store.fields.items()}
    got = store.rows(rows)
    for name, built in before.items():
        assert np.array_equal(store.fields[name][: len(built)], built)
    reserved = models._RESERVE_BYTES // _row_bytes(store)
    assert 0 < store.n <= _size(store) <= min(store.bound, max(reserved, 2 * store.n))
    return got


def _built(store) -> np.ndarray:
    return np.flatnonzero(store.keep)


def _rows(store, ids: np.ndarray) -> tuple:
    """The kept entries of rows ``ids`` as V-wide rows padded with zeros."""
    q, idx, keep = store.kept(ids)
    return q, np.where(np.arange(store.vocab_size) < keep[:, None], idx, 0), keep


def _ready(store, model, ids: np.ndarray) -> np.ndarray:
    """``store.ready(model, ids)`` of a nucleus store, checking that the rows
    already built keep their values and that each flat array holds its
    reservation or at most twice the entries written, with the entries
    the last row's window reads: ``_HEAD`` probabilities, ``V`` ids."""
    done = _built(store)
    before = _rows(store, done)
    got = store.ready(model, ids)
    for old, now in zip(before, _rows(store, done)):
        assert np.array_equal(old, now)
    v = store.vocab_size
    head = min(models._HEAD, v)
    reserved = models._RESERVE_BYTES // (store.q.itemsize + store.idx.itemsize)
    assert store.n == len(_built(store)) and store.size == int(store.keep.sum())
    assert store.qsize == int(store.stored.sum()) <= store.size
    assert store.nbytes == store.qsize * store.q.itemsize + store.size * store.idx.itemsize
    assert store.qsize + head <= len(store.q)
    assert len(store.q) <= min(store.bound * v + head, max(reserved, 2 * (store.qsize + head)))
    assert store.size + v <= len(store.idx)
    assert len(store.idx) <= min((store.bound + 1) * v, max(reserved, 2 * (store.size + v)))
    return got


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stores_filled_to_their_bound_keep_their_rows(fresh_teacher64, scheme, monkeypatch):
    """A store grows past its reservation as rows are built, keeps them when
    it grows, and stops at its bound; reaching rows already built adds none."""
    teacher = fresh_teacher64
    monkeypatch.setattr(models, "_RESERVE_BYTES", 10_000)  # under 20 rows of V = 64
    sampling = SamplingConfig(seed=43, max_tokens=60)
    wm = _wm(scheme, 64, 2, 0xFACE)
    assert (generate_corpus(teacher, 25, 90, sampling, wm)
            == loop_generate_corpus(teacher, 25, 90, sampling, wm))
    prompts = [[i, i + 1, i + 2] for i in range(20)]
    assert (_complete(teacher, prompts, sampling, None)
            == loop_complete(teacher, prompts, sampling))
    temperature = 0.5 if scheme == "ak-temp" else sampling.temperature  # as _wm sets it
    nucleus = teacher._stores[(temperature, sampling.nucleus_p)]
    bound = nucleus.bound
    assert 0 < nucleus.n < bound / 2  # below half: not completed
    assert bound == sum(len(ctx) - 1 for ctx in teacher._ctx) + 1
    ids = np.random.default_rng(3).permutation(bound)
    for part in np.array_split(ids, 4):
        assert np.array_equal(_ready(nucleus, teacher, part), part)
    assert nucleus.n == bound and (nucleus.keep > 0).all()
    reserved = models._RESERVE_BYTES // (nucleus.q.itemsize + nucleus.idx.itemsize)
    assert len(nucleus.q) > reserved and len(nucleus.idx) > reserved
    # rows lie back to back, in one build order in both arrays: the id
    # starts and kept counts tile the ids, the probability starts and
    # stored counts the probabilities
    order = nucleus.istart.argsort()
    assert np.array_equal(nucleus.qstart.argsort(), order)
    for start, count, written in ((nucleus.istart, nucleus.keep, nucleus.size),
                                  (nucleus.qstart, nucleus.stored, nucleus.qsize)):
        ends = np.cumsum(count[order].astype(np.intp))
        assert np.array_equal(start[order], ends - count[order])
        assert ends[-1] == written
    if wm is None:
        return
    # every order-2 state of the 64-token teacher holds a full window
    codes = np.array([_code((a, b), 64) for a in range(64) for b in range(64)])
    marked = _WatermarkRows(teacher, nucleus, wm, len(codes))
    rows = np.concatenate([_fill(marked, part) for part in np.array_split(codes[::-1], 5)])
    assert marked.n == _size(marked) == len(codes)
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
    _ready(nucleus, model, rng.permutation(nucleus.bound)[:300])
    assert nucleus.n == 300
    small = train_ngram(rng.integers(0, 1024, size=(20, 200)).tolist(), 1, 0.05, 1024)
    wm = _wm("kgw", 1024, 2, 0xD1CE)
    marked = _WatermarkRows(small, NucleusRows(small, 0.8, 0.95), wm, 10**9)
    assert marked.bound == 1025**2 - 1025  # 8.6 GB of rows
    codes = np.unique([_code(pair, 1024) for pair in rng.integers(0, 1024, size=(500, 2))])
    for part in np.array_split(codes, 3):
        _fill(marked, part)
    assert marked.n == len(codes)
    assert nucleus.q.nbytes + nucleus.idx.nbytes <= models._RESERVE_BYTES
    assert 0 < nucleus.nbytes <= nucleus.q.nbytes + nucleus.idx.nbytes
    assert sum(field.nbytes for field in marked.fields.values()) <= models._RESERVE_BYTES


def test_picks_read_past_keep_equal_zero_padded_picks(teacher64):
    """A walk reads rows that run on past ``keep``: the head into later
    rows' entries, a V-wide read into the last stored entry repeated; its
    picks equal those from rows padded with zeros, at u = 0, at each
    cumulative sum, just below it, and at the row total."""
    rows = NucleusRows(teacher64, 0.8, 0.95)
    ids = rows.ready(teacher64, np.random.default_rng(6).permutation(rows.bound))
    q, idx, keep = rows.kept(ids)
    inside = np.arange(64) < keep[:, None]
    head = rows._q_head[rows.qstart[ids]]
    assert (head[~inside[:, : models._HEAD]] > 0).any()  # later rows' entries
    assert (rows._q_wide(ids)[~inside] > 0).any()  # the tail value repeated
    cum = q.cumsum(axis=1)  # past keep it repeats the row total
    at = np.arange(len(ids))
    kept = keep.astype(np.intp)
    for j in range(64):
        for u in (np.zeros(len(ids)), cum[:, j], np.nextafter(cum[:, j], 0)):
            want = idx[at, np.minimum((cum <= u[:, None]).sum(axis=1), kept - 1)]
            assert np.array_equal(rows.sample(ids, u), want)
    total = cum[at, kept - 1]
    assert np.array_equal(rows.sample(ids, total), idx[at, kept - 1])
    below = np.nextafter(total, 0)
    want = idx[at, np.minimum((cum <= below[:, None]).sum(axis=1), kept - 1)]
    assert np.array_equal(rows.sample(ids, below), want)


def _loop_rows(oracle, contexts, v: int) -> tuple:
    """The loop's tables of ``contexts`` as V-wide rows: cumulative sums,
    which past ``keep`` repeat the total, ids padded with zeros, kept counts."""
    cum, idx = np.zeros((len(contexts), v)), np.zeros((len(contexts), v), np.intp)
    keep = np.zeros(len(contexts), np.intp)
    for i, context in enumerate(contexts):
        t_idx, _, t_cum = oracle._table(context)
        keep[i] = k = len(t_idx)
        idx[i, :k], cum[i, :k], cum[i, k:] = t_idx, t_cum, t_cum[-1]
    return cum, idx, keep


def _stored(q: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Entries a row stores: its head, or more to reach its last kept value."""
    above = (q > q[np.arange(len(q)), keep - 1][:, None]).sum(axis=1)
    return np.maximum(np.minimum(keep, models._HEAD), above + 1)


def _assert_draws_equal_the_loop(store, ids, cum, idx, keep) -> np.ndarray:
    """Draws of rows ``ids`` at 0, the total, each cumulative sum of the
    loop's rows and just below it equal the loop's zero-padded picks;
    returns the positions the draws took."""
    at, taken = np.arange(len(ids)), []
    points = [np.zeros(len(ids)), cum[:, -1]]
    points += [x for j in range(cum.shape[1]) for x in (cum[:, j], np.nextafter(cum[:, j], 0))]
    for u in points:
        pos = np.minimum((cum <= u[:, None]).sum(axis=1), keep - 1)
        assert np.array_equal(store.sample(ids, u), idx[at, pos])
        taken.append(pos)
    return np.array(taken)


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
    cum, idx, keep = _loop_rows(LoopTextSampler(model, sampling), contexts, 64)
    store = NucleusRows(model, temperature, nucleus_p)
    ids = _ids(store, model, np.array([_code(c, 64) for c in contexts]))
    q, got_idx, got_keep = store.kept(ids)
    assert np.array_equal(got_keep, keep)
    assert np.array_equal(q.cumsum(axis=1), cum)
    assert np.array_equal(np.where(np.arange(64) < keep[:, None], got_idx, 0), idx)
    stored = store.stored[ids].astype(np.intp)
    assert np.array_equal(stored, _stored(q, keep))
    taken = _assert_draws_equal_the_loop(store, ids, cum, idx, keep)
    # past the head and into the run of equal values, short of the clip
    assert ((taken >= np.maximum(stored, models._HEAD)) & (taken < keep - 1)).any()
    assert (generate_corpus(model, 12, 60, sampling)
            == loop_generate_corpus(model, 12, 60, sampling))


def test_a_nucleus_cut_among_tied_values():
    """A row whose nucleus cut falls inside a run of tied observed values
    keeps part of the run, stores its head only, and reads and draws as
    the loop's table."""
    # after token 1: token 0 five times, tokens 2..41 twice each
    doc = [1, 0] * 5 + [tok for t in range(2, 42) for tok in (1, t)] * 2
    model = train_ngram([doc], 1, 0.0, 64)
    sampling = SamplingConfig(temperature=1.0, nucleus_p=0.7, seed=9, max_tokens=30)
    cum, idx, keep = _loop_rows(LoopTextSampler(model, sampling), [(1,)], 64)
    assert 2 < keep[0] < 41  # tied values on both sides of the cut
    store = NucleusRows(model, 1.0, 0.7)
    ids = _ids(store, model, np.array([_code((1,), 64)]))
    q, got_idx, got_keep = store.kept(ids)
    assert got_keep[0] == keep[0] > models._HEAD == store.stored[ids[0]]
    assert np.array_equal(q.cumsum(axis=1), cum) and (q[0, keep[0]:] == 0).all()
    assert np.array_equal(got_idx[0, : keep[0]], idx[0, : keep[0]])
    taken = _assert_draws_equal_the_loop(store, ids, cum, idx, keep)
    assert ((taken > models._HEAD) & (taken < keep[0] - 1)).any()
    prompts = [[1]] * 20
    assert _complete(model, prompts, sampling, None) == loop_complete(model, prompts, sampling)


def test_a_completed_store_holds_the_stored_entries(teacher128):
    """A completed store's ``q`` holds exactly the stored entries of its
    rows, each row's first max(min(keep, _HEAD), m + 1), where m counts
    its kept values above its last; for the default V = 128 teacher that
    is at most 2.4 MB, against 12.1 MB for every kept entry."""
    store = NucleusRows(teacher128, 0.8, 0.95)
    ids = store.ready(teacher128, np.arange(store.bound))
    assert store.n == store.bound
    q, _, keep, _ = store._build(teacher128, ids)  # V-wide rows, built afresh
    stored = _stored(q, keep)
    assert np.array_equal(store.stored, stored) and np.array_equal(store.keep, keep)
    assert store.qsize == stored.sum() and store.size == keep.sum()
    assert store.nbytes == 8 * stored.sum() + keep.sum()  # 1-byte ids at V = 128
    assert 8 * store.qsize <= 2.4e6
    got, _, _ = store.kept(ids)
    assert np.array_equal(got, np.where(np.arange(128) < keep[:, None], q, 0.0))


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
    """A KGW or MPAC draw counts the first ``_HEAD`` cumulative sums of its
    row and reads the whole row only where the last of them is at or below
    u times the row total.  At u * total = 0, at each sum, just below it
    and at the total it takes the whole row's count, clipped to keep - 1,
    in rows that keep fewer entries than the head and more, and in the
    V = 8 model's rows, which are narrower than the head."""
    model = teacher64 if v == 64 else make_teacher(vocab_size=8, seed=7, source_tokens=20_000)
    nucleus = NucleusRows(model, 0.8, 0.95)
    marked = _WatermarkRows(model, nucleus, _wm(scheme, v, 2, 0xBEEF), v * v)
    rows = marked.rows(np.array([_code((a, b), v) for a in range(v) for b in range(v)]))
    bcum = marked.fields["bcum"][rows]
    base = marked.fields["base"][rows]
    keep = nucleus.keep[base].astype(np.intp)
    idx = nucleus._idx_rows[nucleus.istart[base]]
    total, at = bcum[:, -1], np.arange(len(rows))
    head = models._HEAD
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


def test_a_half_built_store_builds_every_row_once(teacher64):
    """The row that brings a store to half its bound builds all the rest,
    each once; later lookups build nothing, and completed rows equal rows
    built one batch at a time."""
    store = NucleusRows(teacher64, 0.8, 0.95)
    built = []
    build = store._build

    def counted(model, ids):
        built.append(ids.copy())
        return build(model, ids)

    store._build = counted
    ids = np.random.default_rng(7).permutation(store.bound)
    half = (store.bound + 1) // 2
    store.ready(teacher64, ids[: half - 1])
    assert store.n == half - 1
    store.ready(teacher64, ids[half - 1 : half])
    assert store.n == store.bound
    assert np.array_equal(np.sort(np.concatenate(built)), np.arange(store.bound))
    calls = len(built)
    store.ready(teacher64, ids)
    _ids(store, teacher64, np.array([_code((a, b), 64) for a in range(64) for b in range(64)]))
    assert len(built) == calls
    for part in np.array_split(ids, 3):  # each part under half: built lazily
        lazy = NucleusRows(teacher64, 0.8, 0.95)
        lazy.ready(teacher64, part)
        assert lazy.n == len(part)
        for got, want in zip(_rows(store, part), _rows(lazy, part)):
            assert np.array_equal(got, want)


def test_an_untrained_model_has_one_row():
    model = models.NGramModel(2, 8)
    store = NucleusRows(model, 0.8, 0.95)
    assert store.bound == 1
    ids = _ids(store, model, np.array([0, _code((3,), 8), _code((1, 2), 8)]))
    assert ids.tolist() == [0, 0, 0] and store.n == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 2**64 - 2]) | st.integers(1, 2**64 - 2),
       st.integers(1, 5), st.integers(1, 3), st.data())
def test_digit_table_seeds_equal_window_hash(key, k, order, data):
    """A state's seed, summed from its digits' table entries or read from
    a dense store's seed table, is the hash of its window, also where the
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
    with mock.patch.object(models, "_RESERVE_BYTES", 0):  # no room for dense tables
        marked = _WatermarkRows(model, nucleus, wm, 1)
    assert not marked.dense
    assert marked._seeds(np.array([_code(w, v) for w in windows], np.int64)).tolist() == want
    if (v + 1) ** depth <= 1 << 16:
        dense = _WatermarkRows(model, nucleus, wm, 1)
        assert dense.dense
        codes = np.array([_code(w[-depth:], v) for w in windows], np.int64)
        assert dense._seed_of[codes].tolist() == want


class _Recorded(_WatermarkRows):
    """A watermark store that records itself, to tell which path a call took."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


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
    return model, (n_docs, doc_len, sampling, wm, prompt_len), 16 * radix**depth


@settings(max_examples=60, deadline=None)
@given(dense_setups())
def test_dense_and_dict_stores_give_the_same_corpus(setup):
    """Forcing the dict path with a reservation just below the dense tables
    changes no token, for every scheme, window and order."""
    model, args, table_bytes = setup
    _Recorded.made.clear()
    with mock.patch.object(models, "_WatermarkRows", _Recorded):
        dense = generate_corpus(model, *args)
        with mock.patch.object(models, "_RESERVE_BYTES", table_bytes - 1):
            sparse = generate_corpus(model, *args)
    assert [store.dense for store in _Recorded.made] == [True, False]
    assert dense == sparse


def test_dense_tables_stay_within_the_reservation(monkeypatch):
    """A dense store's tables fit ``_RESERVE_BYTES``; a vocabulary whose
    state codes need more takes the dict path without allocating them."""
    rng = np.random.default_rng(14)
    model = train_ngram(rng.integers(0, 128, size=(20, 200)).tolist(), 1, 0.05, 128)
    nucleus = NucleusRows(model, 0.8, 0.95)
    wm = _wm("kgw", 128, 2, 0xD1CE)
    states = 129**2 - 129
    marked = _WatermarkRows(model, nucleus, wm, states)
    assert marked.dense and marked.index is None
    tables = (marked._row_of, marked._seed_of)
    assert [len(t) for t in tables] == [129**2] * 2
    assert sum(t.nbytes for t in tables) <= models._RESERVE_BYTES
    assert _WatermarkRows(model, nucleus, wm, 1).dense  # however few states a call reaches
    monkeypatch.setattr(models, "_RESERVE_BYTES", 16 * 129**2)
    assert _WatermarkRows(model, nucleus, wm, states).dense
    monkeypatch.setattr(models, "_RESERVE_BYTES", 16 * 129**2 - 1)
    assert not _WatermarkRows(model, nucleus, wm, states).dense
    monkeypatch.undo()
    # V = 2100 at depth 2: 4.4 million state codes, 71 MB of tables
    big = train_ngram(rng.integers(0, 2100, size=(20, 200)).tolist(), 1, 0.05, 2100)
    nucleus = NucleusRows(big, 0.8, 0.95)
    wm = _wm("kgw", 2100, 2, 0xD1CE)
    tracemalloc.start()
    try:
        marked = _WatermarkRows(big, nucleus, wm, 2101**2 - 2101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not marked.dense and marked.index == {}
    # the row reservation and the digit tables, not 71 MB more
    assert peak <= models._RESERVE_BYTES + (1 << 20)
    codes = np.unique([_code(pair, 2100) for pair in rng.integers(0, 2100, size=(50, 2))])
    assert np.array_equal(marked.fields["base"][marked.rows(codes)],
                          _ids(nucleus, big, codes))


def test_state_codes_wider_than_int64():
    v, k = 1 << 13, 5  # (V + 1) ** 5 > 2 ** 63
    rng = np.random.default_rng(5)
    model = train_ngram(rng.integers(0, 40, size=(6, 50)).tolist(), 1, 0.0, v)
    sampling = SamplingConfig(seed=44, nucleus_p=0.5)
    wm = _wm("kgw", v, k, 0xABBA)
    got = generate_corpus(model, 4, 12, sampling, wm, prompt_len=5)
    assert got == loop_generate_corpus(model, 4, 12, sampling, wm, prompt_len=5)


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


def _searched_ids(model, codes: np.ndarray) -> np.ndarray:
    """The context id of each state code by a search of every level: the
    longest trained context among the state's tokens after its newest
    missing one (a 0 digit)."""
    v, radix = model.vocab_size, model.vocab_size + 1
    ids = np.full(len(codes), model._first[-1])
    # shortest first, so that a longer context found overwrites a shorter one
    whole, code = np.ones(len(codes), bool), np.zeros(len(codes), np.int64)
    for length in range(model.order + 1):
        if length:
            digit = codes // radix ** (length - 1) % radix
            whole &= digit > 0
            code = code + (digit - 1) * v ** (length - 1)
        ctx = model._ctx[length][:-1]  # less the sentinel
        at = np.minimum(np.searchsorted(ctx, code), max(len(ctx) - 1, 0))
        hit = whole & (ctx[at] == code) if len(ctx) else np.zeros(len(codes), bool)
        ids[hit] = model._first[length] + at[hit]
    return ids


@settings(max_examples=100, deadline=None)
@given(models_and_contexts())
def test_context_table_equals_the_search(mc):
    """The model's context table gives, for every state code of ``order``
    digits, missing tokens in the middle too, the context a search of
    every level finds, untrained models too."""
    model, contexts = mc
    v, order = model.vocab_size, model.order
    codes = np.arange((v + 1) ** order)
    got = model._context_ids(codes)
    assert model._gathered == order
    assert model._context_of.dtype == np.min_scalar_type(model._first[-1])
    assert np.array_equal(model._context_of, got)  # the whole table
    assert np.array_equal(got, _searched_ids(model, codes))
    some = np.array([_code(c[-order:], v) for c in contexts])
    assert ([model._find(c) for c in contexts] == model._context_of[some].tolist()
            == _searched_ids(model, some).tolist())


@settings(max_examples=150, deadline=None)
@given(models_and_contexts())
def test_batched_rows_equal_next_distribution_bit_for_bit(mc):
    model, contexts = mc
    v = model.vocab_size
    store = NucleusRows(model, 0.8, 0.95)
    codes = np.array([_code(c[-model.order:], v) for c in contexts])
    got = model._distributions(_ids(store, model, codes))
    want = np.array([model.next_distribution(c) for c in contexts])
    assert got.tobytes() == want.tobytes()
    if len(model._keys[0]) == 0:  # never trained: every context is the uniform row
        assert (got == 1.0 / v).all()


def test_states_that_back_off_to_one_context_share_one_row():
    model = train_ngram([[1, 2, 3]], 2, 0.05, 8)  # trained contexts (), (1,), (2,), (1, 2)
    rows = NucleusRows(model, 0.8, 0.95)
    assert rows.bound == 5
    # (5, 2), (7, 2) and (2,) all back off to (2,)
    got = _ids(rows, model, np.array([_code(c, 8) for c in ((5, 2), (7, 2), (2,))]))
    assert len(set(got.tolist())) == 1 and rows.n == 1
    got = _ids(rows, model, np.array([_code(c, 8) for c in ((1, 2), (6, 6), (4,), ())]))
    assert len(set(got.tolist())) == 2  # (1, 2) and ()
    assert rows.n == rows.bound  # three of five rows built: the rest are too


def test_store_stays_within_the_model_contexts():
    rng = np.random.default_rng(9)
    model = train_ngram(rng.integers(0, 16, size=(5, 30)).tolist(), 3, 0.05, 16)
    for seed in range(12):
        prompts = rng.integers(0, 16, size=(30, 3)).tolist()
        _complete(model, prompts, SamplingConfig(seed=seed, max_tokens=40), None)
    (store,) = model._stores.values()
    contexts = sum(len(ctx) - 1 for ctx in model._ctx)  # less each level's sentinel
    assert store.n <= contexts + 1


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
    (before,) = model._stores.values()
    model.update(more)
    assert model._stores == {}
    at_once = train_ngram(first + more, 2, 0.05, 16)
    assert generate_corpus(model, 10, 40, sampling) == generate_corpus(at_once, 10, 40, sampling)
    prompts, uniforms = [[1, 2]] * 10, np.random.default_rng(12).random((10, 37))
    assert np.array_equal(sampler.generate(prompts, 37, uniforms),
                          TextSampler(at_once, sampling).generate(prompts, 37, uniforms))
    (after,) = model._stores.values()
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
    assert model._context_of is None
    for temperature in (0.8, 1.3):
        generate_corpus(model, 5, 30, SamplingConfig(seed=23, temperature=temperature))
    table = model._context_of
    docs = rng.integers(0, 16, size=(3, 20))
    model.greedy_at(docs.ravel(), [20] * 3, np.arange(63) // 21, np.arange(63) % 21)
    assert len(model._stores) == 2 and model._context_of is table
    assert len(tiles) == model.order  # a table tiles once per level above 0
    model.update(docs.tolist())
    assert model._stores == {} and model._context_of is None
    model.next_greedy([1, 2, 3])
    assert model._context_of is not table and len(model._context_of) == len(table)
    assert np.array_equal(model._context_ids(np.arange(17**3)),
                          _searched_ids(model, np.arange(17**3)))


def test_tables_follow_their_model():
    """Two models of one vocabulary each sample through their own rows."""
    rng = np.random.default_rng(11)
    first, second = (train_ngram(rng.integers(0, 16, size=(4, 30)).tolist(), 2, 0.05, 16)
                     for _ in range(2))
    sampling = SamplingConfig(seed=13)
    generate_corpus(first, 10, 40, sampling)
    assert (generate_corpus(second, 10, 40, sampling)
            == loop_generate_corpus(second, 10, 40, sampling))
    assert first._stores[(0.8, 0.95)] is not second._stores[(0.8, 0.95)]


def test_generate_calls_share_one_store(monkeypatch):
    """Two one-shot ``generate`` calls on a model make one nucleus store,
    and the second builds no row."""
    model = train_ngram(np.random.default_rng(17).integers(0, 16, size=(4, 30)).tolist(),
                        2, 0.05, 16)
    made, built = [], []
    init, build = NucleusRows.__init__, NucleusRows._build

    def counted_init(store, *args):
        made.append(store)
        init(store, *args)

    def counted_build(store, model, ids):
        built.append(ids)
        return build(store, model, ids)

    monkeypatch.setattr(NucleusRows, "__init__", counted_init)
    monkeypatch.setattr(NucleusRows, "_build", counted_build)
    sampling = SamplingConfig(seed=18, max_tokens=25)
    first = generate(model, [3, 4], sampling)
    calls = len(built)
    assert generate(model, [3, 4], sampling) == first
    assert len(made) == 1 and list(model._stores.values()) == made
    assert len(built) == calls


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
        stores = [weakref.ref(store) for store in model._stores.values()]
        assert len(stores) == 2
        del model
        assert [store() for store in stores] == [None, None]
    finally:
        gc.enable()


@settings(max_examples=80, deadline=None)
@given(setups(), st.data())
def test_searched_upper_levels_equal_the_loop(s, data):
    """With room for the state-to-context table of only the lowest levels,
    the levels above it are searched, and corpora and completions still
    equal the loop's."""
    model, v = s["model"], s["model"].vocab_size
    gathered = data.draw(st.integers(0, model.order - 1))
    itemsize = np.min_scalar_type(int(model._first[-1]) + 1).itemsize
    sampling = SamplingConfig(nucleus_p=s["nucleus_p"], seed=s["seed"],
                              max_tokens=s["max_tokens"])
    wm = _wm(s["scheme"], v, s["k"], 0xBEEF)
    args = (model, s["n_docs"], s["doc_len"], sampling, wm, s["prompt_len"])
    with mock.patch.object(models, "_RESERVE_BYTES", (v + 1) ** gathered * itemsize):
        assert generate_corpus(*args) == loop_generate_corpus(*args)
        assert (_complete(model, s["prompts"], sampling, None)
                == loop_complete(model, s["prompts"], sampling))
        model._context_ids(np.zeros(1, np.int64))  # makes the table if no step did
    assert model._gathered == gathered


def test_an_over_budget_level_allocates_no_table():
    """A V = 10,000, order-2 model's top level would take 200 MB of table:
    it is searched, the first lookup allocates the lower levels' table
    only, and a store its row reservation only."""
    rng = np.random.default_rng(15)
    model = train_ngram(rng.integers(0, 10_000, size=(20, 200)).tolist(), 2, 0.05, 10_000)
    trained = model._keys[2][:20] // 10_000  # codes of some trained order-2 contexts
    contexts = [divmod(int(c), 10_000) for c in trained] + [(7, 7), (5,), ()]
    codes = np.array([_code(c, 10_000) for c in contexts])
    tracemalloc.start()
    try:
        ids = model._context_ids(codes)
        _, table_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        store = NucleusRows(model, 0.8, 0.95)
        _, store_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model._gathered == 1 and len(model._context_of) == 10_001
    assert table_peak <= 1 << 20
    assert store_peak <= models._RESERVE_BYTES + (1 << 20)
    assert np.array_equal(ids, _searched_ids(model, codes))
    assert ids.tolist() == [model._find(c) for c in contexts]
    assert _ids(store, model, codes).tolist() == ids.tolist()


class _Unsearched(list):
    """A model's levels of contexts that refuse to be read."""

    def __getitem__(self, length):
        raise AssertionError("a level was searched")


def test_completions_search_no_level_when_the_table_fits():
    """A V = 128, order-3 suspect's completions find every context by one
    gather: no level is searched."""
    rng = np.random.default_rng(16)
    model = train_ngram(rng.integers(0, 128, size=(30, 200)).tolist(), 3, 0.05, 128)
    prompts = rng.integers(0, 128, size=(20, 5)).tolist()
    sampling = SamplingConfig(seed=17, max_tokens=30)
    want = loop_complete(model, prompts, sampling)
    assert model._gathered == model.order  # the loop's lookups made the table
    model._ctx = _Unsearched(model._ctx)
    assert _complete(model, prompts, sampling, None) == want
