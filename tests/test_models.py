import numpy as np
import pytest

from radioscope import (
    NGramModel,
    SamplingConfig,
    SecretKey,
    TextSampler,
    WatermarkConfig,
    generate_corpus,
    load_corpus,
    load_model,
    save_corpus,
    save_model,
    train_ngram,
    zipf_markov_corpus,
)
from radioscope.schemes import ak_score_batch, score_batch
import store_contract as contract

KEY = SecretKey(0xBEE)


def distributions(model, contexts) -> np.ndarray:
    """The model's smoothed next-token probabilities after each context."""
    lens = np.array([len(c) for c in contexts])
    tokens = np.array([tok for c in contexts for tok in c], np.int64)
    return contract.distributions_at(model, tokens, lens, np.arange(len(lens)), lens)


def sample(model, prompt, steps: int, seed: int, wm=None, **knobs) -> list[int]:
    """``steps`` tokens after ``prompt`` from ``TextSampler.generate``, fed
    the uniforms of ``seed``."""
    uniforms = np.random.default_rng(seed).random((1, steps))
    sampler = TextSampler(model, SamplingConfig(**knobs), wm)
    return sampler.generate([prompt], steps, uniforms)[0].tolist()


class TestNGramModel:
    def test_memorization_greedy(self):
        seq = [3, 1, 4, 1, 5, 9, 2, 6]
        model = train_ngram([seq] * 1000, order=3, smoothing_lambda=0.01,
                            vocab_size=16)
        out = [3, 1, 4]
        for _ in range(5):
            out.append(model.next_greedy(out))
        assert out == seq

    def test_large_lambda_approaches_uniform(self):
        model = train_ngram([[1, 2, 3]] * 5, order=2,
                            smoothing_lambda=1e9, vocab_size=8)
        (dist,) = distributions(model, [(1, 2)])
        assert np.allclose(dist, 1 / 8, atol=1e-6)

    def test_smoothed_distribution_formula(self):
        corpus = [[4, 5, 6]] * 10  # context (4,5) -> 6, ten times
        model = train_ngram(corpus, order=2, smoothing_lambda=0.01,
                            vocab_size=16)
        (dist,) = distributions(model, [(4, 5)])
        assert dist[6] == pytest.approx(10.01 / 10.16, rel=1e-9)
        # log_loss reads these rows: 4 after (), 5 after (4,), 6 after (4, 5)
        first = distributions(model, [(), (4,)])[[0, 1], [4, 5]]
        assert model.log_loss([4, 5, 6]) == pytest.approx(
            -np.log(first).sum() - np.log(10.01 / 10.16), rel=1e-12)

    def test_unseen_context_uniform(self):
        model = NGramModel(order=2, vocab_size=8, smoothing_lambda=0.5)
        (dist,) = distributions(model, [(3, 3)])
        assert np.allclose(dist, 1 / 8)

    def test_distributions_normalized(self):
        rng = np.random.default_rng(1)
        corpus = [rng.integers(0, 16, size=100).tolist() for _ in range(20)]
        model = train_ngram(corpus, order=2, smoothing_lambda=0.01,
                            vocab_size=16)
        contexts = rng.integers(0, 16, size=(1000, 2)).tolist()
        assert np.allclose(distributions(model, contexts).sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_all_probabilities_positive_with_lambda(self):
        model = train_ngram([[1, 1, 1]] * 3, order=1, smoothing_lambda=0.1,
                            vocab_size=4)
        assert (distributions(model, [(1,)]) > 0).all()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([], order=2)

    def test_log_loss_improves_with_training(self):
        rng = np.random.default_rng(3)
        docs = zipf_markov_corpus(32, 12, 1000, seed=5)
        held_out = docs[-2:]
        trained = train_ngram(docs[:-2], order=2, smoothing_lambda=0.05,
                              vocab_size=32)
        untrained = NGramModel(order=2, vocab_size=32, smoothing_lambda=0.05)
        for doc in held_out:
            assert trained.log_loss(doc) < untrained.log_loss(doc)

    def test_incremental_update(self):
        model = train_ngram([[1, 2, 3]], order=2, vocab_size=8)
        before = distributions(model, [(1, 2)])[0, 3]
        model.update([[1, 2, 4]] * 50)
        after = distributions(model, [(1, 2)])[0, 3]
        assert after < before


class TestGeneration:
    def test_seeded_generation_reproducible(self, teacher64):
        assert sample(teacher64, [1, 2], 50, 9) == sample(teacher64, [1, 2], 50, 9)

    def test_near_zero_temperature_greedy(self, teacher64):
        a = sample(teacher64, [5, 6], 20, 0, temperature=1e-9)
        b = sample(teacher64, [5, 6], 20, 123, temperature=1e-9)
        assert a == b  # effectively greedy: the uniforms do not matter

    def test_kgw_green_fraction_embedded(self, teacher64):
        wm = WatermarkConfig("kgw", KEY, 64, k=2, gamma=0.25, delta=3.0)
        tokens = [1, 2] + sample(teacher64, [1, 2], 500, 4, wm)
        seeds = np.array([wm.seed(tuple(tokens[i - 2 : i]))
                          for i in range(2, len(tokens))], dtype=np.uint64)
        hits = score_batch(seeds, np.array(tokens[2:]), wm).sum()
        assert hits / 500 > 0.25

    def test_ak_scores_above_null_mean(self, teacher64):
        wm = WatermarkConfig("ak", KEY, 64, k=2, temperature=0.7)
        tokens = [1, 2] + sample(teacher64, [1, 2], 500, 5, wm)
        seeds = np.array([wm.seed(tuple(tokens[i - 2 : i]))
                          for i in range(2, len(tokens))], dtype=np.uint64)
        scores = ak_score_batch(seeds, np.array(tokens[2:]), wm)
        assert scores.mean() > 1.0

    def test_corpus_docs_have_requested_length(self, teacher64):
        docs = generate_corpus(teacher64, 5, 80, SamplingConfig(seed=6))
        assert all(len(d["tokens"]) == 80 for d in docs)
        assert all(d["wm"] is False for d in docs)

    def test_shared_tables_do_not_change_output(self, teacher64, fresh_teacher64):
        """Corpora that reuse a model's decode rows equal those of the same
        model with none built yet."""
        s = SamplingConfig(seed=12)
        solo = generate_corpus(fresh_teacher64, 4, 60, s)
        a = generate_corpus(teacher64, 4, 60, s)
        b = generate_corpus(teacher64, 4, 60, s)
        assert solo == a == b

    @pytest.mark.parametrize("wm", [None, WatermarkConfig("kgw", KEY, 64, k=2),
                                    WatermarkConfig("ak", KEY, 64, k=3)],
                             ids=["plain", "kgw", "ak"])
    def test_first_documents_do_not_depend_on_how_many_follow(self, teacher64, wm):
        """What lets ``contaminated_student`` generate only the documents it uses."""
        s = SamplingConfig(seed=13)
        assert generate_corpus(teacher64, 3, 50, s, wm) == generate_corpus(
            teacher64, 7, 50, s, wm)[:3]


class TestPersistence:
    def test_corpus_roundtrip(self, tmp_path):
        docs = [{"tokens": [1, 2, 3], "wm": True},
                {"tokens": [4, 5], "wm": False, "text": "4 5"}]
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_corpus_byte_identical(self, tmp_path, teacher64):
        s = SamplingConfig(seed=31)
        save_corpus(generate_corpus(teacher64, 3, 40, s), tmp_path / "a.jsonl")
        save_corpus(generate_corpus(teacher64, 3, 40, s), tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_model_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        corpus = [rng.integers(0, 16, size=60).tolist() for _ in range(5)]
        model = train_ngram(corpus, order=2, smoothing_lambda=0.07,
                            vocab_size=16)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.order == 2
        assert loaded.smoothing_lambda == 0.07
        assert loaded.vocab_size == 16
        contexts = rng.integers(0, 16, size=(50, 2)).tolist()
        assert np.array_equal(distributions(model, contexts), distributions(loaded, contexts))
        doc = corpus[0]
        assert loaded.log_loss(doc) == model.log_loss(doc)

    def test_model_bad_magic(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(ValueError):
            load_model(tmp_path / "bad.bin")


class TestSource:
    def test_zipf_corpus_deterministic(self):
        a = zipf_markov_corpus(32, 3, 100, seed=11)
        assert np.array_equal(zipf_markov_corpus(32, 3, 100, seed=11), a)
        assert not np.array_equal(zipf_markov_corpus(32, 3, 100, seed=12), a)
