"""The sampler's storage contract: the only test code that reads the private
storage of ``NucleusRows``, ``_WatermarkRows`` and the model's counts and
context table.  It states each storage invariant once and gives the hooks
tests need (forcing the dict store or searched levels, counting row builds,
reading watermark rows, searching every level, copying a model into the
loop oracles' twin).  Every other test compares behaviour, so a change of
layout edits this module, not the tests."""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np

from ngram_oracle import DictNGramModel
from radioscope import models
from radioscope.hashing import window_hashes

#: Cumulative sums a draw counts before it reads a whole row.
HEAD = models._HEAD


def rows_of(store, model, codes: np.ndarray) -> np.ndarray:
    """Context id of each state code, its row built in the nucleus ``store``."""
    return store.ready(model, model._context_ids(codes))


def context_ids(model, codes: np.ndarray) -> np.ndarray:
    """The model's context id of each state code, by its one lookup."""
    return model._context_ids(codes)


def distributions(model, ids: np.ndarray) -> np.ndarray:
    """The model's next-token distribution of each context id, one row each."""
    return model._distributions(ids)


def distributions_at(model, tokens: np.ndarray, lens, doc: np.ndarray,
                     pos: np.ndarray) -> np.ndarray:
    """The model's next-token distribution after document ``d``'s first
    ``p`` tokens for each (d, p) of ``zip(doc, pos)``, by the lookup
    :meth:`~radioscope.models.NGramModel.greedy_at` makes."""
    return model._distributions(model._context_ids(model._locate(tokens, lens, doc, pos)))


def greedy(model, ids: np.ndarray) -> np.ndarray:
    """The model's greedy next token of each context id."""
    return model._greedy[ids]


def twin(model) -> DictNGramModel:
    """A ``DictNGramModel`` holding the model's counts, read from its sorted
    (context, token) codes level by level: no lookup of the model runs, so
    the loop oracles fed this twin share none with the code they check."""
    v = model.vocab_size
    copy = DictNGramModel(model.order, v, model.smoothing_lambda)
    for length, (keys, counts) in enumerate(zip(model._keys, model._counts)):
        level = copy.counts[length]
        for code, count in zip(keys.tolist(), counts.tolist()):
            # base V, last token least significant: the oldest token first
            context = tuple(code // v ** (length - j) % v for j in range(length))
            level.setdefault(context, {})[code % v] = count
    return copy


def context_table(model):
    """The model's table from state code to context id, None until a lookup."""
    return model._context_of


def stores(model) -> dict:
    """The model's nucleus stores by (temperature, nucleus p)."""
    return model._stores


def padded(store, ids: np.ndarray) -> tuple:
    """Nucleus rows ``ids`` as V-wide rows of kept entries padded with zeros."""
    q, idx, keep = store.kept(ids)
    return q, np.where(np.arange(store.vocab_size) < keep[:, None], idx, 0), keep


def assert_layout(store, grown: bool | None = None) -> None:
    """A nucleus store's built rows tile both flat arrays in one build order:
    id starts and kept counts the ids written, the places of the last
    stored probabilities and stored counts the probabilities.  Each array
    holds its reservation or at most twice the entries written, plus the
    V ids the last row's window reads, and at most every row at full
    width; more than the reservation if ``grown``, no more if False."""
    built = np.flatnonzero(store.keep)
    v = store.vocab_size
    reserved = models._RESERVE_BYTES // (store.q.itemsize + store.idx.itemsize)
    assert store.n == len(built) and store.size == int(store.keep.sum())
    assert store.qsize == int(store.stored.sum()) <= store.size
    assert store.nbytes == store.qsize * store.q.itemsize + store.size * store.idx.itemsize
    order = store.istart[built].argsort()
    assert np.array_equal(store.qlast[built].argsort(), order)
    qstart = store.qlast.astype(np.intp) + 1 - store.stored
    for start, count, array, written, pad, full in (
            (store.istart, store.keep, store.idx, store.size, v, (store.bound + 1) * v),
            (qstart, store.stored, store.q, store.qsize, 0, store.bound * v)):
        count = count[built][order].astype(np.intp)
        assert np.array_equal(start[built][order], np.cumsum(count) - count)
        assert count.sum() == written
        assert written + pad <= len(array) <= min(full, max(reserved, 2 * (written + pad)))
        assert grown is None or (len(array) > reserved) == grown


def ready(store, model, ids: np.ndarray) -> np.ndarray:
    """``store.ready(model, ids)``, checking that rows already built keep
    their values, and the layout after it."""
    done = np.flatnonzero(store.keep)
    before = padded(store, done)
    got = store.ready(model, ids)
    for old, now in zip(before, padded(store, done)):
        assert np.array_equal(old, now)
    assert_layout(store)
    return got


def fill(marked, codes: np.ndarray, grown: bool | None = None) -> np.ndarray:
    """``marked.rows(codes)`` of a watermark store, checking that rows built
    keep their values and that ``base`` and ``part`` have room for the
    reservation or at most twice the rows built, at most the bound,
    ``grown`` as above."""
    before = [field[: marked.n].copy() for field in (marked.base, marked.part)]
    got = marked.rows(codes)
    for built, field in zip(before, (marked.base, marked.part)):
        assert np.array_equal(field[: len(built)], built)
    (size,) = {len(marked.base), len(marked.part)}
    part = marked.part.itemsize * (1 if marked.wm.scheme == models.AK else marked.vocab_size)
    reserved = models._RESERVE_BYTES // (marked.base.itemsize + part)
    assert 0 < marked.n <= size <= min(marked.bound, max(reserved, 2 * marked.n))
    assert grown is None or (size > reserved) == grown
    return got


def within(make, limit: int | None = None):
    """``make()``, checking that its traced allocations peak within
    ``limit``, by default ``_RESERVE_BYTES`` and 1 MiB: a reservation."""
    tracemalloc.start()
    try:
        made = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (models._RESERVE_BYTES + (1 << 20) if limit is None else limit)
    return made


def stored_counts(store, ids: np.ndarray) -> np.ndarray:
    """Probabilities each nucleus row ``ids`` stores, checked against the
    rule ``m + 1``, m counting its kept values above its last: those
    values, then the last, which the rest equal."""
    q, _, keep = store.kept(ids)
    above = (q > q[np.arange(len(q)), keep - 1][:, None]).sum(axis=1)
    count = store.stored[ids].astype(np.intp)
    assert np.array_equal(count, above + 1)
    return count


def assert_reads_run_past_keep(store, ids: np.ndarray) -> None:
    """Some of rows ``ids`` are read past ``keep``, where a head and a
    V-wide read both repeat the row's last stored entry, which is
    positive."""
    last, stored = store.qlast[ids], store.stored[ids]
    wide = store._q_rows(last, stored)
    assert np.array_equal(store._q_rows(last, stored, HEAD), wide[:, :HEAD])
    outside = np.arange(store.vocab_size) >= store.keep[ids][:, None]
    repeated = np.broadcast_to(store.q[last][:, None], wide.shape)
    assert outside.any() and np.array_equal(wide[outside], repeated[outside])
    assert (wide[outside] > 0).all()


def assert_bound(store, model) -> None:
    """A nucleus store has room for a row per trained context, plus one."""
    assert store.bound == sum(len(ctx) - 1 for ctx in model._ctx) + 1


def is_dense(marked) -> bool:
    """Whether a watermark store is dense: its tables, a row id per state
    code and a seed per window, then fit ``_RESERVE_BYTES``; otherwise its
    dict indexes each row built and it made no tables."""
    if not marked.dense:
        assert not hasattr(marked, "_row_of") and len(marked.index) == marked.n
        return False
    radix = marked.vocab_size + 1
    n_codes = radix ** max(marked.model.order, marked.wm.k)
    tables = (marked._row_of, marked._seed_of)
    assert marked.index is None and [len(t) for t in tables] == [n_codes, radix**marked.wm.k]
    assert sum(t.nbytes for t in tables) <= models._RESERVE_BYTES
    assert (marked._row_of >= 0).sum() == marked.n
    return True


def window_seeds(marked, codes: np.ndarray) -> np.ndarray:
    """Each state code's window seed, from the dense table by the code's
    k newest digits, or hashed."""
    if not marked.dense:
        return marked._seeds(codes)
    return marked._seed_of[codes % (marked.vocab_size + 1) ** marked.wm.k]


def assert_state_seeds(marked) -> None:
    """Every state code with a full window, read from the dense table or
    hashed by the dict path, has the seed ``window_hashes`` gives its last
    k tokens.  A state's code has no 0 digit below its highest nonzero
    one (no token is missing after the first)."""
    radix, k = marked.vocab_size + 1, marked.wm.k
    depth = max(marked.model.order, k)
    codes = np.arange(radix ** (k - 1), radix**depth)
    held = np.stack([codes // radix**j % radix > 0 for j in range(depth)], axis=1)
    codes = codes[held.cumprod(axis=1).sum(axis=1) == held.sum(axis=1)]
    windows = np.stack([codes // radix**j % radix - 1 for j in range(k - 1, -1, -1)], axis=1)
    assert (windows >= 0).all()
    assert np.array_equal(window_seeds(marked, codes), window_hashes(windows, marked.wm.key))


def watermark_row(marked, rows: np.ndarray) -> dict:
    """Watermark rows ``rows``: ``base`` and ``tok`` (AK) or ``bcum``."""
    return {"base": marked.base[rows],
            "tok" if marked.wm.scheme == models.AK else "bcum": marked.part[rows]}


def searched_ids(model, codes: np.ndarray) -> np.ndarray:
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


def assert_gathers(model, levels: int) -> None:
    """The model's context table gathers levels 0 .. ``levels``: an id per
    code of that many digits, in the narrowest dtype that holds every id."""
    assert model._gathered == levels
    assert model._context_of.dtype == np.min_scalar_type(model._first[-1])
    assert len(model._context_of) == (model.vocab_size + 1) ** levels


def reserving(nbytes: int):
    """A patch of the bytes a store or context table may reserve."""
    return mock.patch.object(models, "_RESERVE_BYTES", nbytes)


def gathering(model, levels):
    """A reservation under which the context table gathers levels 0 ..
    ``levels`` and the levels above are searched; None gathers every level."""
    if levels is None:
        return contextlib.nullcontext()
    itemsize = np.min_scalar_type(model._first[-1]).itemsize  # as the model makes it
    return reserving((model.vocab_size + 1) ** levels * itemsize)


def reserving_dense_tables(model, wm, spare: int):
    """A reservation of a watermark store's dense tables plus ``spare`` (-1
    forces the dict store); the context table still gathers every level."""
    radix = model.vocab_size + 1
    return reserving(8 * (radix ** max(model.order, wm.k) + radix**wm.k) + spare)


def no_search(model):
    """A patch under which reading any level of the model's contexts fails."""
    return mock.patch.object(model, "_ctx", None)


def count_builds(monkeypatch) -> tuple[list, dict]:
    """Record each nucleus store made, with its model, and each batch of row
    ids built, by store.  Recording keeps them alive, so no id is reused."""
    made, built = [], {}
    init, build = models.NucleusRows.__init__, models.NucleusRows._build

    def counted_init(store, model, *args):
        made.append((model, store))
        init(store, model, *args)

    def counted_build(store, model, ids):
        built.setdefault(store, []).append(ids.copy())
        return build(store, model, ids)

    monkeypatch.setattr(models.NucleusRows, "__init__", counted_init)
    monkeypatch.setattr(models.NucleusRows, "_build", counted_build)
    return made, built


def count_watermark_builds(monkeypatch) -> dict:
    """Record each batch of state codes a watermark store builds, by store."""
    built = {}
    build = models._WatermarkRows._build

    def counted_build(marked, codes):
        built.setdefault(marked, []).append(codes.copy())
        return build(marked, codes)

    monkeypatch.setattr(models._WatermarkRows, "_build", counted_build)
    return built


def assert_row_index(marked) -> None:
    """A dense watermark store maps each state code to no row (-1) or to
    a row built, and each row built to one code."""
    assert is_dense(marked)
    row_of = marked._row_of
    assert ((row_of == -1) | ((row_of >= 0) & (row_of < marked.n))).all()
    assert np.array_equal(np.sort(row_of[row_of >= 0]), np.arange(marked.n))
