"""Reference implementations the array-backed code is tested against.

``DictNGramModel`` is the dict-of-dicts n-gram model and
``loop_zipf_markov_corpus`` the per-token source loop that
``radioscope.models`` used before its array form; both are kept verbatim
so that property tests can require identical outputs.  The loop oracles
look contexts up in a ``DictNGramModel``, which shares no code with
``radioscope.models.NGramModel``.
"""

from __future__ import annotations

import numpy as np


class DictNGramModel:
    """Add-lambda n-gram model with stupid backoff, one dict per context."""

    def __init__(self, order: int, vocab_size: int, smoothing_lambda: float = 0.01):
        self.order = order
        self.vocab_size = vocab_size
        self.smoothing_lambda = smoothing_lambda
        # counts[L][context_tuple] -> {token: count}
        self.counts: list[dict] = [dict() for _ in range(order + 1)]
        self._dist_cache: dict = {}

    def update(self, corpus) -> None:
        n_docs = 0
        for tokens in corpus:
            n_docs += 1
            toks = list(tokens)
            for i, tok in enumerate(toks):
                if tok < 0 or tok >= self.vocab_size:
                    raise ValueError(f"token id {tok} out of vocabulary")
                for length in range(min(i, self.order) + 1):
                    ctx = tuple(toks[i - length : i])
                    bucket = self.counts[length].setdefault(ctx, {})
                    bucket[tok] = bucket.get(tok, 0) + 1
        if n_docs == 0:
            raise ValueError("empty corpus")
        self._dist_cache.clear()

    def _lookup(self, context):
        ctx = tuple(context[-self.order :]) if self.order else ()
        for length in range(len(ctx), -1, -1):
            bucket = self.counts[length].get(ctx[len(ctx) - length :])
            if bucket:
                return bucket
        return None

    def next_distribution(self, context) -> np.ndarray:
        bucket = self._lookup(context)
        lam = self.smoothing_lambda
        v = self.vocab_size
        if bucket is None:
            return np.full(v, 1.0 / v)
        key = id(bucket)
        cached = self._dist_cache.get(key)
        if cached is None:
            p = np.full(v, lam, dtype=np.float64)
            idx = np.fromiter(bucket.keys(), dtype=np.intp, count=len(bucket))
            cnt = np.fromiter(bucket.values(), dtype=np.float64, count=len(bucket))
            p[idx] += cnt
            p /= cnt.sum() + lam * v
            self._dist_cache[key] = p
            cached = p
        return cached

    def next_greedy(self, context) -> int:
        bucket = self._lookup(context)
        if bucket is None:
            return 0
        best_tok, best_cnt = None, -1
        for tok, cnt in bucket.items():
            if cnt > best_cnt or (cnt == best_cnt and tok < best_tok):
                best_tok, best_cnt = tok, cnt
        return best_tok

    def log_loss(self, tokens) -> float:
        toks = list(tokens)
        total = 0.0
        for i, tok in enumerate(toks):
            p = self.next_distribution(toks[max(0, i - self.order) : i])
            total -= float(np.log(max(p[tok], 1e-300)))
        return total


def check_twin(twin) -> None:
    """Refuse anything but a ``DictNGramModel``, so that a loop oracle
    shares no lookup with the model it checks."""
    if not isinstance(twin, DictNGramModel):
        raise TypeError(f"the loop oracles take a DictNGramModel twin, not {type(twin).__name__}")


def train_dict_ngram(corpus, order: int, smoothing_lambda: float = 0.01,
                     vocab_size: int = 256) -> DictNGramModel:
    """``train_ngram`` of the dict model: the twin of a model trained on ``corpus``."""
    model = DictNGramModel(order, vocab_size, smoothing_lambda)
    model.update(corpus)
    return model


def loop_zipf_markov_corpus(vocab_size: int, n_docs: int, doc_len: int,
                            seed: int, zipf_a: float = 1.15) -> list[list[int]]:
    """Markov chain with Zipf transitions, one ``searchsorted`` per token."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    profile = 1.0 / ranks**zipf_a
    profile /= profile.sum()
    cum = np.empty((vocab_size, vocab_size))
    succ = np.empty((vocab_size, vocab_size), dtype=np.intp)
    for v in range(vocab_size):
        perm = rng.permutation(vocab_size)
        succ[v] = perm
        cum[v] = np.cumsum(profile)
    docs = []
    for _ in range(n_docs):
        tok = int(rng.integers(vocab_size))
        doc = [tok]
        u = rng.random(doc_len - 1)
        for i in range(doc_len - 1):
            j = int(np.searchsorted(cum[tok], u[i]))
            tok = int(succ[tok][min(j, vocab_size - 1)])
            doc.append(tok)
        docs.append(doc)
    return docs
