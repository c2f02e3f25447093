"""The array-backed n-gram model and source against their loop oracles."""

import itertools
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngram_oracle import DictNGramModel, loop_zipf_markov_corpus
from radioscope import (
    ConfigError,
    NGramModel,
    load_model,
    save_model,
    train_ngram,
    zipf_markov_corpus,
)
from radioscope import dedup, models
from radioscope.dedup import FILTER_KEY, build_filter
from radioscope.hashing import window_hash, window_hashes
import store_contract as contract


@st.composite
def training_runs(draw):
    v = draw(st.integers(2, 64))
    order = draw(st.integers(1, 4))
    doc = st.lists(st.integers(0, v - 1), max_size=30)
    first = draw(st.lists(doc, min_size=1, max_size=6))
    second = draw(st.lists(doc, min_size=1, max_size=4))
    lam = draw(st.sampled_from([0.0, 0.01, 0.5]))
    # unseen contexts may hold negative and out-of-vocabulary tokens
    unseen = draw(st.lists(st.lists(st.integers(-2, v + 1), max_size=order + 1),
                           max_size=20))
    # trained contexts of ``order`` tokens (each followed by a token) with a
    # middle token missing (-1) or out of vocabulary (V): a few drawn, and
    # all those where that token was V - 1 after a lower one, which is then
    # raised by one, so that a code letting the missing digit borrow from
    # the older digits would read the trained context
    holes = [(doc[i : i + order], j) for doc in first for i in range(len(doc) - order)
             for j in range(1, order - 1)]
    borrows = [(ctx, j) for ctx, j in holes if ctx[j] == v - 1 and ctx[j - 1] < v - 1]
    for ctx, j in (draw(st.lists(st.sampled_from(holes), max_size=3)) if holes else []) + borrows:
        holed = list(ctx)
        if (ctx, j) in borrows:
            holed[j - 1] += 1
        holed[j] = draw(st.sampled_from([-1, v]))
        unseen.append(holed)
    # the levels the context table gathers; those above it are searched
    gathered = draw(st.none() | st.integers(0, order - 1))
    return v, order, lam, first, second, unseen, gathered


#: A run whose trained context (0, 3, 1) and its suffix (1,) continue
#: differently: greedy 2 after the context, 0 after the suffix.  With its
#: middle token missing and the token before it raised by one, (1, -1, 1)
#: backs off to (1,); a search that let the missing digit borrow from the
#: older ones would read (0, 3, 1).  Every level is searched.
HOLED_RUN = (4, 3, 0.01, [[0, 3, 1, 2, 1, 0, 1, 0]], [[2]], [[1, -1, 1]], 0)


def _contexts(v, order, docs, unseen):
    """Every in-vocabulary context of length 0..order+1 when few, else the
    observed ones, and then the unseen ones."""
    if v ** (order + 1) <= 2000:
        known = [ctx for length in range(order + 2)
                 for ctx in itertools.product(range(v), repeat=length)]
    else:
        known = sorted({tuple(doc[max(0, i - length) : i]) for doc in docs
                        for i in range(len(doc) + 1) for length in range(order + 2)})
    return known + [tuple(ctx) for ctx in unseen]


def _greedy_at(model, docs, doc, pos):
    """``model.greedy_at`` of a list of documents, joined as int64."""
    tokens = np.fromiter(itertools.chain(*docs), np.int64)
    return model.greedy_at(tokens, [len(d) for d in docs], doc, pos)


def _assert_same(model, oracle, contexts, docs, gathered=None):
    with contract.gathering(model, gathered):
        _compare(model, oracle, contexts, docs)
    contract.assert_gathers(model, model.order if gathered is None else gathered)


def _compare(model, oracle, contexts, docs):
    for ctx in contexts:
        if all(0 <= tok < model.vocab_size for tok in ctx):
            assert model.next_greedy(ctx) == oracle.next_greedy(ctx), ctx
        else:  # a lookup of one context refuses an out-of-vocabulary token
            with pytest.raises(ConfigError, match="^context: token"):
                model.next_greedy(ctx)
    # every context at once, as the whole-corpus readout sees them, where
    # an out-of-vocabulary token is a missing one
    tokens = np.fromiter(itertools.chain(*contexts), np.int64)
    lens = [len(ctx) for ctx in contexts]
    at = (np.arange(len(contexts)), np.array(lens, dtype=np.intp))
    assert (model.greedy_at(tokens, lens, *at).tolist()
            == [oracle.next_greedy(ctx) for ctx in contexts])
    assert np.array_equal(contract.distributions_at(model, tokens, lens, *at),
                          [oracle.next_distribution(ctx) for ctx in contexts])
    for doc in docs:
        assert model.log_loss(doc) == oracle.log_loss(doc)


class TestAgainstDictModel:
    @settings(max_examples=150, deadline=None)
    @given(training_runs())
    @example(HOLED_RUN)
    def test_distributions_greedy_and_loss_identical(self, run):
        v, order, lam, first, second, unseen, gathered = run
        model = NGramModel(order, v, lam)
        oracle = DictNGramModel(order, v, lam)
        for batch, docs in ((first, first), (second, first + second)):
            model.update(batch)
            oracle.update(batch)
            _assert_same(model, oracle, _contexts(v, order, docs, unseen), docs, gathered)

    def test_out_of_vocabulary_context_backs_off(self):
        # (1, -3) and (2, 4) would encode as the trained contexts (0, 1)
        # and (3, 0) if out-of-vocabulary tokens were not cut off, and
        # (2, -1, 1) as (1, 3, 1) if a missing digit let the base-4 code
        # of the tokens before it go positive again
        docs = [[0, 1, 2, 3, 0, 1, 3, 0, 2, 0, 1, 3, 1, 2]]
        oracle = DictNGramModel(3, 4)
        oracle.update(docs)
        contexts = [(9, 2), (-1, 1), (4,), (2, 4), (1, -3), (2, -1, 1), (2, 5, 1), (3, -2, 0, 2)]
        for gathered in (None, 0, 1, 2):
            model = NGramModel(3, 4)
            model.update(docs)
            _assert_same(model, oracle, contexts, [], gathered)

    def test_context_codes_wider_than_int64(self):
        """An order-30 model at V = 4 codes contexts as 5**30 > 2**63: its
        lookups take Python ints, gather 10 levels and search the rest."""
        rng = np.random.default_rng(3)
        docs = rng.integers(0, 4, size=(5, 80)).tolist()
        model, oracle = NGramModel(30, 4), DictNGramModel(30, 4)
        model.update(docs)
        oracle.update(docs)
        contexts = [tuple(doc[:n]) for doc in docs for n in (0, 5, 31, 60)]
        contexts += [tuple(rng.integers(-1, 5, size=32).tolist()) for _ in range(20)]
        _compare(model, oracle, contexts, docs)
        contract.assert_gathers(model, 10)

    def test_chunks_merge_into_the_same_counts(self, monkeypatch):
        monkeypatch.setattr(models, "_CHUNK_TOKENS", 97)
        docs = zipf_markov_corpus(16, 40, 500, seed=4).tolist() + [[], [3], [5, 6]]
        model = train_ngram(docs, order=3, vocab_size=16)
        oracle = DictNGramModel(3, 16, 0.01)
        oracle.update(docs)
        rng = np.random.default_rng(0)
        contexts = [tuple(ctx) for ctx in rng.integers(0, 16, size=(3000, 3))]
        _assert_same(model, oracle, contexts, docs[:2])


def _oracle_tables(oracle):
    """The oracle's counts as the model's sorted tables: per context length
    L, the (L+1)-gram codes (base V, last token least significant) and
    their counts."""
    v, tables = oracle.vocab_size, []
    for level in oracle.counts:
        grams = sorted((sum(t * v**i for i, t in enumerate(reversed(ctx + (tok,)))), n)
                       for ctx, bucket in level.items() for tok, n in bucket.items())
        tables.append([np.array([g[j] for g in grams], np.int64) for j in (0, 1)])
    return tables


def _merged_in_chunks(model, oracle, batches, chunk, monkeypatch):
    """Train both on ``batches``, one update each, in chunks of ``chunk``
    tokens, and require the model's tables to equal the oracle's."""
    monkeypatch.setattr(models, "_CHUNK_TOKENS", chunk)
    for batch in batches:
        model.update(batch)
        oracle.update(batch)
    for (keys, counts), (want_keys, want_counts) in zip(contract.tables(model),
                                                        _oracle_tables(oracle)):
        assert np.array_equal(keys, want_keys) and np.array_equal(counts, want_counts)


class TestMerge:
    """Counts merged chunk by chunk into the sorted tables (``_add``)."""

    DOCS = [[0, 1, 2, 3, 0, 1, 2], [3, 2, 1], [1, 1, 1, 1]]

    @pytest.mark.parametrize("case", ["empty table", "only hits", "only misses", "both"])
    def test_tables_equal_the_dict_model(self, monkeypatch, case):
        model, oracle = NGramModel(3, 8), DictNGramModel(3, 8)
        docs = self.DOCS
        batches = {
            # a short document fills level 0 only: the longer contexts'
            # tables stay empty until the second update
            "empty table": [[[5]], docs],
            # the same documents again: every code is already counted
            "only hits": [docs, docs, docs[:1]],
            # tokens 4..7 make every code of the second update new
            "only misses": [docs, [[t + 4 for t in doc] for doc in docs]],
            "both": [docs, [[0, 1, 2, 7, 6, 1, 2, 3]]],
        }[case]
        for chunk in (1, 3, 1 << 18):
            _merged_in_chunks(model, oracle, batches, chunk, monkeypatch)

    @pytest.mark.parametrize("more", [DOCS, [[7, 6, 5, 0, 1, 2, 3]]], ids=["hits", "misses"])
    def test_update_of_a_loaded_model(self, tmp_path, monkeypatch, more):
        """A loaded model holds no level tables beside the flat counts its
        lookups read: an update merges into tables rebuilt from them, and
        the model answers as one trained on both batches."""
        save_model(train_ngram(self.DOCS, order=3, vocab_size=8), tmp_path / "m.bin")
        model = load_model(tmp_path / "m.bin")
        contract.assert_holds_only_the_index(model)
        flat, before = model._cnt, model._cnt.copy()
        oracle = DictNGramModel(3, 8)
        oracle.update(self.DOCS)
        _merged_in_chunks(model, oracle, [more], 2, monkeypatch)
        assert np.array_equal(flat, before)
        contract.assert_holds_only_the_index(model)
        _assert_same(model, oracle, _contexts(8, 3, self.DOCS + more, []), more)

    @pytest.mark.parametrize("chunk", [97, 1 << 18])
    def test_a_token_array_trains_as_its_lists(self, monkeypatch, chunk):
        monkeypatch.setattr(models, "_CHUNK_TOKENS", chunk)
        docs = zipf_markov_corpus(16, 40, 500, seed=4)
        got, want = (train_ngram(form, order=3, vocab_size=16) for form in (docs, docs.tolist()))
        for a, b in zip(contract.tables(got), contract.tables(want)):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_training_peak_memory(self):
        """Traced peak of order-3 training on 2000 x 500 tokens at V = 128
        (33 MB; the merge by a stable argsort of the table and the chunk
        peaked at 65 MB): the temporaries scale with the model plus one
        chunk."""
        docs = zipf_markov_corpus(128, 2000, 500, seed=3)
        tracemalloc.start()
        try:
            train_ngram(docs, order=3, vocab_size=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, f"{peak / 1e6:.1f} MB"

    def test_model_and_load_memory(self, tmp_path):
        """The order-3 model of 2000 x 500 tokens at V = 128 keeps its counts
        once, in narrow arrays: it holds 8.2 MB of traced memory (26.7 MB
        with int64 level tables beside its index), and loading its
        checkpoint peaks at 22.9 MB (39.7 MB while the loader made int64
        copies of every level)."""
        docs = zipf_markov_corpus(128, 2000, 500, seed=3)
        tracemalloc.start()
        try:
            model = train_ngram(docs, order=3, vocab_size=128)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        contract.assert_holds_only_the_index(model)
        save_model(model, tmp_path / "m.bin")
        del model
        tracemalloc.start()
        try:
            contract.assert_holds_only_the_index(load_model(tmp_path / "m.bin"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 9e6, f"{held / 1e6:.2f} MB"
        assert peak <= 30e6, f"{peak / 1e6:.2f} MB"


class TestWholeCorpus:
    @settings(max_examples=150, deadline=None)
    @given(training_runs(), st.booleans())
    @example(HOLED_RUN, False)
    def test_readout_and_loss_equal_the_dict_model(self, run, only_empty):
        v, order, lam, first, second, short, gathered = run
        if only_empty:  # a model that has seen no token at all
            first = [[] for _ in first]
        model, oracle = NGramModel(order, v, lam), DictNGramModel(order, v, lam)
        # ``short`` documents are at most order + 1 tokens long
        docs = first + second + short
        pairs = [(d, p) for d, tokens in enumerate(docs) for p in range(len(tokens) + 1)]
        doc, pos = np.array(pairs, dtype=np.intp).T
        for batch in (first, second):
            model.update(batch)
            oracle.update(batch)
            with contract.gathering(model, gathered):
                got = _greedy_at(model, docs, doc, pos)
                assert got.tolist() == [oracle.next_greedy(docs[d][:p]) for d, p in pairs]
                for tokens in docs:
                    if all(0 <= t < v for t in tokens):  # log_loss refuses the others
                        assert model.log_loss(tokens) == oracle.log_loss(tokens)
            contract.assert_gathers(model, order if gathered is None else gathered)

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_log_loss_refuses_out_of_vocabulary_token(self, bad):
        model = train_ngram([[1, 2, 3, 4]], order=2, vocab_size=8)
        with pytest.raises(ConfigError,
                           match=f"^document 0: token {bad} at position 2 out of vocabulary$"):
            model.log_loss([1, 2, bad, 3])

    def test_distributions_belong_to_the_caller(self):
        model = train_ngram([[1, 2, 3, 1, 2, 4]], order=2, vocab_size=8)
        at = (np.array([1, 2], np.int64), [2], np.zeros(1, np.intp), np.array([2]))
        first = contract.distributions_at(model, *at)
        want = first.copy()
        first[:] = 0.0
        assert np.array_equal(contract.distributions_at(model, *at), want)


class TestSource:
    @pytest.mark.parametrize("vocab,n_docs,doc_len,seed,zipf_a", [
        (2, 3, 50, 0, 1.15),
        (32, 5, 100, 3, 1.15),
        (64, 4, 1, 9, 1.15),
        (128, 3, 1000, 7, 1.15),
        (100, 6, 200, 12, 0.7),
        (50, 2, 300, 5, 2.5),
        (300, 3, 500, 4, 1.15),
        (1, 3, 20, 2, 1.15),
        (16, 0, 10, 1, 1.15),
    ])
    def test_matches_per_token_loop(self, vocab, n_docs, doc_len, seed, zipf_a):
        docs = zipf_markov_corpus(vocab, n_docs, doc_len, seed, zipf_a)
        assert docs.shape == (n_docs, doc_len)
        assert docs.dtype == (np.uint16 if vocab > 256 else np.uint8)
        assert docs.tolist() == loop_zipf_markov_corpus(vocab, n_docs, doc_len, seed, zipf_a)

    def test_traced_memory(self):
        """The source holds about a byte a token (a list per document took
        9.2), and a teacher trained on it peaks near its model.
        Each runs once untraced, so that what numpy allocates on its first
        use is not counted."""
        zipf_markov_corpus(128, 2, 10, 7)
        models.make_teacher(16, source_tokens=2000)
        tracemalloc.start()
        try:
            zipf_markov_corpus(128, 400, 1000, 7)
            source = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            models.make_teacher(128)
            teacher = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert source <= 3 * 400 * 1000, f"{source / 1e6:.2f} MB"
        assert teacher <= 13e6, f"{teacher / 1e6:.2f} MB"


class TestWideDtypes:
    """Models whose codes or counts need 64 bits answer as their dict twin,
    loaded and trained further too: the index's offsets, row totals and
    greedy keys are formed as signed 64-bit numbers, whatever the narrow
    dtypes they are read from."""

    def _round_trip(self, model, oracle, path, contexts, docs, more):
        _compare(model, oracle, contexts, docs)
        save_model(model, path)
        loaded = load_model(path)
        _compare(loaded, oracle, contexts, docs)
        save_model(loaded, path.with_suffix(".again"))
        assert path.with_suffix(".again").read_bytes() == path.read_bytes()
        loaded.update(more)
        oracle.update(more)
        _compare(loaded, oracle, contexts, docs + more)
        return loaded

    def test_level_codes_of_the_widest_vocabulary(self, tmp_path):
        """At V = 2**15 the codes of levels 2 and 3 are stored as uint64, a
        greedy key count * V + V - 1 - token outgrows the counts' uint8,
        and the update lifts a count past 255."""
        v = 2**15
        rng = np.random.default_rng(2)
        docs = (v - 1 - rng.integers(0, 6, size=(20, 40))).tolist() + [[0, v - 1, 1, v - 2]]
        more = [[v - 1] * 300, [0, 1, 0, 1, v - 3]]
        model, oracle = train_ngram(docs, 3, 0.01, v), DictNGramModel(3, v, 0.01)
        oracle.update(docs)
        known = _contexts(v, 3, docs + more, [])
        # every 25th of them: each compares a V-wide distribution
        contexts = known[::25] + [(v - 1,) * 3, (0, v - 1, 1), (5, 6, 7)]
        # two short documents: the twin keeps a V-wide row per context read
        self._round_trip(model, oracle, tmp_path / "m.bin", contexts, [docs[0], docs[-1]], more)
        with open(tmp_path / "m.bin", "rb") as f:
            f.read(4)
            with np.load(f, allow_pickle=False) as z:
                assert [z[f"keys{n}"].dtype for n in range(4)] == [
                    np.uint16, np.uint32, np.uint64, np.uint64]

    def test_counts_stored_as_uint64(self, tmp_path):
        """Counts c and c + 1 with c = 5 * 2**57: their greedy keys differ
        below float64's resolution, so a key promoted to float would tie
        and read token 2, and their row total needs 63 bits."""
        c = 5 * 2**57
        model = train_ngram([[1, 2], [1, 3]], order=1, vocab_size=8)
        save_model(model, tmp_path / "m.bin")
        with open(tmp_path / "m.bin", "rb") as f:
            f.read(4)
            with np.load(f, allow_pickle=False) as z:
                fields = {name: z[name] for name in z.files}
        with open(tmp_path / "wide.bin", "wb") as f:
            f.write(b"RSM2")
            np.savez(f, **fields | {"counts1": np.array([c, c + 1], np.uint64)})
        oracle = DictNGramModel(1, 8)
        oracle.update([[1, 2], [1, 3]])
        oracle.counts[1][(1,)] = {2: c, 3: c + 1}
        loaded = load_model(tmp_path / "wide.bin")
        assert loaded.next_greedy([1]) == 3
        contexts = _contexts(8, 1, [], [])
        docs = [[1, 2, 1, 3], [0, 1, 2]]
        # one more (1, 2) ties the counts: the lower token wins
        again = self._round_trip(loaded, oracle, tmp_path / "again.bin", contexts, docs,
                                 [[1, 2]])
        assert again.next_greedy([1]) == 2


class TestKeyWidth:
    def test_widest_accepted_model_counts_exactly(self):
        v = 2**15
        model = NGramModel(3, v)
        model.update([[v - 1] * 6, [v - 2, v - 1, v - 1, v - 2]])
        assert model.next_greedy([v - 1] * 3) == v - 1
        assert model.next_greedy([v - 2, v - 1, v - 1]) == v - 2

    def test_one_bit_too_many_refused(self):
        with pytest.raises(ConfigError, match=r"<= 63 at vocab_size = 65536, got 3$"):
            NGramModel(3, 2**16)

    @pytest.mark.parametrize("bad", [-1, 16])
    def test_out_of_vocabulary_token_named(self, bad):
        model = NGramModel(2, 16)
        with pytest.raises(ConfigError,
                           match=f"^document 1: token {bad} at position 1 out of vocabulary$"):
            model.update([[1, 2, 3], [4, bad, 5]])


class TestCheckpoint:
    def test_roundtrip_keeps_every_level(self, tmp_path):
        docs = zipf_markov_corpus(32, 20, 200, seed=1)
        model = train_ngram(docs, order=3, smoothing_lambda=0.2, vocab_size=32)
        save_model(model, tmp_path / "m.bin")
        assert (tmp_path / "m.bin").read_bytes()[:4] == b"RSM2"
        loaded = load_model(tmp_path / "m.bin")
        oracle = DictNGramModel(3, 32, 0.2)
        oracle.update(docs)
        rng = np.random.default_rng(5)
        contexts = [tuple(ctx) for ctx in rng.integers(0, 32, size=(500, 3))]
        _assert_same(loaded, oracle, contexts + [(), (3,), (3, 4)], docs[:2])

    def test_rsm1_refused_in_one_line(self, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(b"RSM1" + struct.pack("<BdI", 2, 0.01, 16))
        with pytest.raises(ValueError, match="re-run `radioscope train`") as info:
            load_model(path)
        assert "\n" not in str(info.value)

    def test_truncated_archive_is_value_error(self, tmp_path):
        model = train_ngram([[1, 2, 3, 4]], order=2, vocab_size=8)
        save_model(model, tmp_path / "m.bin")
        data = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt model checkpoint"):
            load_model(tmp_path / "cut.bin")

    @pytest.mark.parametrize("arrays", [
        {"keys1": np.array([19, 10, 28, 37], np.uint8)},  # not sorted
        {"keys1": np.array([10, 19], np.uint8)},  # fewer keys than counts
        {"keys0": np.array(3, np.uint8), "counts0": np.array(5, np.uint8)},
        {"counts1": np.array([1, 0, 1, 1], np.uint8)},  # a zero count
        {"keys2": np.array([83, 156, 8**3], np.uint16)},  # beyond the code range
        {"keys1": np.array([10, 19, 28, 37])},  # signed
        {"keys1": np.array([10.0, 19.0, 28.0, 37.0])},  # not integers
    ])
    def test_malformed_level_is_value_error(self, tmp_path, arrays):
        model = train_ngram([[1, 2, 3, 4, 5]], order=2, vocab_size=8)
        save_model(model, tmp_path / "m.bin")
        with open(tmp_path / "m.bin", "rb") as f:
            assert f.read(4) == b"RSM2"
            with np.load(f, allow_pickle=False) as z:
                fields = {name: z[name] for name in z.files} | arrays
        with open(tmp_path / "bad.bin", "wb") as f:
            f.write(b"RSM2")
            np.savez(f, **fields)
        with pytest.raises(ValueError, match="corrupt model checkpoint"):
            load_model(tmp_path / "bad.bin")

    @pytest.mark.parametrize("count", [2**60, 2**61, 2**63 + 1, 2**64 - 1])
    def test_count_beyond_int64_keys_is_refused(self, tmp_path, count):
        """A count c with c * V + V - 1 >= 2**63 would wrap the greedy key
        (2**61: the greedy token after 1 read 2, not 3) or load negative
        (2**63 + 1); the largest count below the bound loads exactly."""
        model = train_ngram([[1, 2], [1, 3]], order=1, vocab_size=8)
        save_model(model, tmp_path / "m.bin")
        with open(tmp_path / "m.bin", "rb") as f:
            f.read(4)
            with np.load(f, allow_pickle=False) as z:
                fields = {name: z[name] for name in z.files}
        assert fields["keys1"].tolist() == [8 + 2, 8 + 3]  # (1 -> 2), (1 -> 3)
        for c, name in [((2**63 - 8) // 8, "top.bin"), (count, "bad.bin")]:
            with open(tmp_path / name, "wb") as f:
                f.write(b"RSM2")
                np.savez(f, **fields | {"counts1": np.array([1, c], np.uint64)})
        top = load_model(tmp_path / "top.bin")
        assert top.next_greedy([1]) == 3
        bad = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match=f"^corrupt model checkpoint {re.escape(str(bad))}: "
                                             "level 1$"):
            load_model(bad)


class TestFilter:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_same_fingerprints_as_every_position(self, k, monkeypatch):
        rng = np.random.default_rng(k)
        corpus = [rng.integers(0, 6, size=rng.integers(0, 40)).tolist()
                  for _ in range(30)]
        brute = {window_hash(doc[i : i + k], FILTER_KEY)
                 for doc in corpus for i in range(len(doc) - k + 1)}
        calls = []
        monkeypatch.setattr(dedup, "window_hashes", lambda w, key: calls.extend(
            map(tuple, w.tolist())) or window_hashes(w, key))
        phi = build_filter(corpus, k)
        assert set(phi.kgrams.tolist()) == brute
        assert len(calls) == len(set(calls)) == len(brute)
