"""The array-backed n-gram model and source against their loop oracles."""

import itertools
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
        docs = zipf_markov_corpus(16, 40, 500, seed=4) + [[], [3], [5, 6]]
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
    for (keys, counts), (want_keys, want_counts) in zip(
            zip(model._keys, model._counts), _oracle_tables(oracle)):
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
        """A loaded model's counts are views of its flat counts, which its
        lookups read: an update merges into new arrays, and the model
        answers as one trained on both batches."""
        save_model(train_ngram(self.DOCS, order=3, vocab_size=8), tmp_path / "m.bin")
        model = load_model(tmp_path / "m.bin")
        assert all(level.base is model._cnt for level in model._counts)
        flat, before = model._cnt, model._cnt.copy()
        oracle = DictNGramModel(3, 8)
        oracle.update(self.DOCS)
        _merged_in_chunks(model, oracle, [more], 2, monkeypatch)
        assert np.array_equal(flat, before)
        _assert_same(model, oracle, _contexts(8, 3, self.DOCS + more, []), more)

    def test_training_peak_memory(self):
        """Traced peak of order-3 training on 2000 x 500 tokens at V = 128
        (39 MB; the merge by a stable argsort of the table and the chunk
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
    ])
    def test_matches_per_token_loop(self, vocab, n_docs, doc_len, seed, zipf_a):
        assert (zipf_markov_corpus(vocab, n_docs, doc_len, seed, zipf_a)
                == loop_zipf_markov_corpus(vocab, n_docs, doc_len, seed, zipf_a))


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
