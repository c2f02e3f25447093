"""Toy language models: a count-based n-gram teacher/student pair.

The teacher is an add-lambda n-gram model trained on a fixed-seed
Zipf-Markov synthetic source; it generates (optionally watermarked)
corpora.  The student is the same model class trained on a mixture of
watermarked and clean documents, standing in for a fine-tuned suspect.
Backoff is "stupid": the longest context with observed counts wins, down
to the unigram level.

Storage is KenLM's sorted-array layout.  For each context length L = 0..n
the model keeps the sorted unique int64 codes of the observed (L+1)-grams
(base V, last token least significant, so a code is context * V + token)
with their counts.  Derived from them are the sorted unique context codes,
each context's CSR row offsets into the token-id and count arrays, and
each context's greedy token.  Lookups binary-search one level at a time,
longest context first.

A checkpoint is the magic ``RSM2`` followed by one ``np.savez`` archive
holding ``order``, ``vocab_size``, ``smoothing_lambda`` and, per level L,
``keys{L}`` and ``counts{L}``, each in the narrowest unsigned dtype that
holds it.  It is read with ``allow_pickle=False``.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .hashing import ConfigError
from .schemes import AK, KGW, MPAC, GreenlistCache, WatermarkConfig, mpac_embed_bias


@dataclass(frozen=True)
class SamplingConfig:
    """Decoding knobs; defaults mirror the generation setup used throughout."""

    temperature: float = 0.8
    nucleus_p: float = 0.95
    max_tokens: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if not 0.0 < self.nucleus_p <= 1.0:
            raise ValueError("nucleus_p must be in (0, 1]")


@dataclass(frozen=True)
class MixSpec:
    """Watermarked fraction rho of the training set, supervision degree d."""

    rho: float
    d: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError("d must be in [0, 1]")


#: Tokens per ``np.unique`` pass in :meth:`NGramModel.update`.  Chunks bound
#: the temporaries: order-3 training on 1M tokens peaks at 60 MB (traced
#: allocations) in chunks of this size and at 74 MB in a single pass.
_CHUNK_TOKENS = 1 << 18


class NGramModel:
    """Add-lambda n-gram model with stupid backoff.

    ``order`` is the context length: an order-n model conditions on up to n
    previous tokens.  Counts are kept for every context length from 0 to
    ``order`` so that unseen long contexts back off gracefully.  A
    (context, token) code is an int64, so
    ``(order + 1) * ceil(log2(vocab_size))`` may not exceed 63.
    """

    def __init__(self, order: int, vocab_size: int, smoothing_lambda: float = 0.01):
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing_lambda < 0:
            raise ValueError("smoothing lambda must be >= 0")
        if (order + 1) * (vocab_size - 1).bit_length() > 63:
            raise ConfigError(f"order {order} with vocab_size {vocab_size} needs "
                              "(context, token) codes wider than 63 bits")
        self.order = order
        self.vocab_size = vocab_size
        self.smoothing_lambda = smoothing_lambda
        # per context length L: sorted unique (L+1)-gram codes, their counts
        self._keys = [np.empty(0, np.int64)] * (order + 1)
        self._counts = list(self._keys)
        self._index()

    def _index(self) -> None:
        """Context codes, CSR row offsets, token ids and greedy tokens per level."""
        v = self.vocab_size
        self._ctx, self._off, self._tok, self._greedy = [], [], [], []
        for keys, counts in zip(self._keys, self._counts):
            starts = np.flatnonzero(np.diff(keys // v, prepend=-1))
            # a sentinel above every code keeps each search result in range
            self._ctx.append(np.append(keys[starts] // v, np.iinfo(np.int64).max))
            self._off.append(np.append(starts, len(keys)))
            self._tok.append((keys % v).astype(np.intp))
            # the row maximum of count * V + (V - 1 - token) is the highest
            # count with the lowest token (exact while counts stay < 2**32)
            best = np.maximum.reduceat(counts * v + (v - 1 - self._tok[-1]), starts)
            self._greedy.append((v - 1 - best % v).tolist())
        self._dist_cache: dict = {}

    def update(self, corpus) -> None:
        """Accumulate counts from an iterable of token-id documents.

        Each chunk of ``_CHUNK_TOKENS`` tokens is merged into the stored
        counts, so a second call continues training.
        """
        docs = list(corpus)
        if not docs:
            raise ValueError("empty corpus")
        order, v = self.order, self.vocab_size
        lens = np.fromiter(map(len, docs), np.int64, len(docs))
        n = int(lens.sum())
        # ``order`` zeros in front give every token that many predecessors
        flat = np.zeros(order + n, np.int64)
        flat[order:] = np.fromiter(chain.from_iterable(docs), np.int64, n)
        bad = (flat[order:] < 0) | (flat[order:] >= v)
        if bad.any():
            raise ValueError(f"token id {flat[order + bad.argmax()]} out of vocabulary")
        # predecessors of each token within its own document, capped at order
        depth = np.full(n, order, np.int32)
        for j in range(order):
            depth[(np.cumsum(lens) - lens)[lens > j] + j] = j
        for lo in range(0, n, _CHUNK_TOKENS):
            hi = min(lo + _CHUNK_TOKENS, n)
            code = np.zeros(hi - lo, np.int64)
            for length in range(order + 1):
                code += flat[order + lo - length : order + hi - length] * v**length
                self._add(length, code[depth[lo:hi] >= length])
        del flat, depth
        self._index()

    def _add(self, length: int, codes: np.ndarray) -> None:
        """Count ``codes`` into the sorted table of context length ``length``."""
        new, cnt = np.unique(codes, return_counts=True)
        keys = np.concatenate([self._keys[length], new])
        order = keys.argsort(kind="stable")  # merges the two sorted runs
        keys = keys[order]
        counts = np.concatenate([self._counts[length], cnt])[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        self._keys[length] = keys[first]
        self._counts[length] = np.add.reduceat(counts, first)

    def _find(self, context):
        """(length, row) of the longest trained suffix of ``context``, or None."""
        v = self.vocab_size
        code = length = 0  # code of the last ``length`` in-vocabulary tokens
        for tok in context[-self.order :]:
            if 0 <= tok < v:
                code, length = code * v + tok, length + 1
            else:  # no trained context holds this token
                code = length = 0
        while True:
            ctx = self._ctx[length]
            row = int(ctx.searchsorted(code))
            if ctx.item(row) == code:
                return length, row
            if not length:
                return None
            length -= 1
            code %= v**length

    def next_distribution(self, context) -> np.ndarray:
        """Smoothed next-token probabilities given the trailing context."""
        found = self._find(context)
        v = self.vocab_size
        if found is None:
            return np.full(v, 1.0 / v)
        p = self._dist_cache.get(found)
        if p is None:
            length, row = found
            lo, hi = self._off[length].item(row), self._off[length].item(row + 1)
            cnt = self._counts[length][lo:hi]
            lam = self.smoothing_lambda
            p = np.full(v, lam, dtype=np.float64)
            p[self._tok[length][lo:hi]] += cnt
            # an exact integer total, like ndarray.sum but faster on short rows
            p /= sum(cnt.tolist()) + lam * v
            self._dist_cache[found] = p
        return p

    def next_greedy(self, context) -> int:
        """Most likely next token (ties toward the lowest id)."""
        found = self._find(context)
        return 0 if found is None else self._greedy[found[0]][found[1]]

    def log_loss(self, tokens) -> float:
        """Total negative log-probability of a document."""
        toks = list(tokens)
        total = 0.0
        for i, tok in enumerate(toks):
            p = self.next_distribution(toks[max(0, i - self.order) : i])
            total -= float(np.log(max(p[tok], 1e-300)))
        return total

    def perplexity(self, tokens) -> float:
        toks = list(tokens)
        if not toks:
            raise ValueError("empty document")
        return float(np.exp(self.log_loss(toks) / len(toks)))


def train_ngram(corpus, order: int, smoothing_lambda: float = 0.01,
                vocab_size: int = 256) -> NGramModel:
    """Train a fresh model; call ``model.update`` again for continued training."""
    model = NGramModel(order, vocab_size, smoothing_lambda)
    model.update(corpus)
    return model


class TextSampler:
    """Autoregressive sampler with per-context memoized decoding tables.

    The temperature-shaped, nucleus-sorted distribution of a context never
    changes for a fixed model, so it is computed once per context and
    reused across documents.
    """

    def __init__(self, model: NGramModel, sampling: SamplingConfig,
                 wm: WatermarkConfig | None = None,
                 tables: dict | None = None):
        self.model = model
        self.sampling = sampling
        self.wm = wm
        # base tables may be shared across samplers for the same
        # (model, temperature, nucleus_p); the caller guarantees that
        self._tables: dict = {} if tables is None else tables
        # biased decode tables are deterministic per (context, window)
        self._wm_tables: dict = {}
        self._green = GreenlistCache(wm) if wm is not None and wm.scheme == KGW else None
        if wm is not None and wm.scheme == AK and wm.temperature is not None:
            # AK strength knob: temperature applied to logits before softmax
            self.temperature = wm.temperature
        else:
            self.temperature = sampling.temperature
        if tables is not None and self.temperature != sampling.temperature:
            # shared tables were built for a different effective temperature
            self._tables = {}

    def _table(self, context):
        ctx = tuple(context[-self.model.order :])
        entry = self._tables.get(ctx)
        if entry is None:
            p = self.model.next_distribution(ctx)
            logits = np.log(np.maximum(p, 1e-300)) / self.temperature
            logits -= logits.max()
            q = np.exp(logits)
            q /= q.sum()
            order_desc = np.argsort(-q, kind="stable")
            q_desc = q[order_desc]
            cum = np.cumsum(q_desc)
            keep = int(np.searchsorted(cum, self.sampling.nucleus_p) + 1)
            keep = min(keep, len(q_desc))
            idx = order_desc[:keep]
            kept = q_desc[:keep]
            kept = kept / kept.sum()
            entry = (idx, np.log(kept), np.cumsum(kept))
            self._tables[ctx] = entry
        return entry

    def next_token(self, context, rng: np.random.Generator) -> int:
        idx, log_kept, cum = self._table(context)
        wm = self.wm
        window = None
        if wm is not None and len(context) >= wm.k:
            window = tuple(context[-wm.k :])
        if wm is None or window is None:
            if len(idx) == 1:
                return int(idx[0])
            j = int(np.searchsorted(cum, rng.random(), side="right"))
            return int(idx[min(j, len(idx) - 1)])
        ctx = tuple(context[-self.model.order :])
        cache_key = (ctx, window)
        entry = self._wm_tables.get(cache_key)
        if entry is None:
            entry = self._wm_entry(idx, log_kept, window)
            self._wm_tables[cache_key] = entry
        if wm.scheme == AK:  # deterministic choice cached directly
            return entry
        bcum = entry
        u = rng.random() * bcum[-1]
        j = int(np.searchsorted(bcum, u, side="right"))
        return int(idx[min(j, len(idx) - 1)])

    def _wm_entry(self, idx, log_kept, window):
        wm = self.wm
        if wm.scheme == KGW:
            seed = wm.seed(window)
            biased = log_kept + wm.delta * self._green.mask(seed)[idx]
            return np.cumsum(np.exp(biased - biased.max()))
        if wm.scheme == MPAC:
            full = np.full(self.model.vocab_size, -np.inf)
            full[idx] = log_kept
            biased = mpac_embed_bias(np.where(np.isfinite(full), full, -1e30),
                                     window, wm)
            biased[~np.isfinite(full)] = -np.inf
            sub = biased[idx]
            return np.cumsum(np.exp(sub - sub.max()))
        # AK: argmax of R ** (1/p) over the kept set
        from .hashing import rvalue_batch

        seed = wm.seed(window)
        r = rvalue_batch(np.full(len(idx), seed, dtype=np.uint64), idx)
        p = np.exp(log_kept - log_kept.max())
        p /= p.sum()
        cost = -np.log(np.maximum(r, 1e-300)) / p
        return int(idx[np.argmin(cost)])

    def generate(self, prompt, max_tokens: int, rng: np.random.Generator) -> list[int]:
        """Continuation of ``prompt`` (prompt tokens not included)."""
        context = list(prompt)
        out = []
        for _ in range(max_tokens):
            tok = self.next_token(context, rng)
            context.append(tok)
            out.append(tok)
        return out


def generate(model: NGramModel, prompt, sampling: SamplingConfig,
             wm: WatermarkConfig | None = None) -> list[int]:
    """One-shot generation; reuse a :class:`TextSampler` for whole corpora."""
    if sampling.max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    sampler = TextSampler(model, sampling, wm)
    rng = np.random.default_rng(sampling.seed)
    return sampler.generate(prompt, sampling.max_tokens, rng)


def zipf_markov_corpus(vocab_size: int, n_docs: int, doc_len: int, seed: int,
                       zipf_a: float = 1.15) -> list[list[int]]:
    """Fixed-seed synthetic source: a Markov chain with Zipf transitions.

    Each token's successor distribution is a Zipf profile over a
    token-specific permutation of the vocabulary, which keeps the entropy
    of the source controllable via ``zipf_a``.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    profile = 1.0 / ranks**zipf_a
    profile /= profile.sum()
    # every token shares the rank profile; only the permutation differs
    cum = np.cumsum(profile)
    succ = [rng.permutation(vocab_size).tolist() for _ in range(vocab_size)]
    docs = []
    for _ in range(n_docs):
        tok = int(rng.integers(vocab_size))
        doc = [tok]
        u = rng.random(doc_len - 1)
        for j in np.minimum(cum.searchsorted(u), vocab_size - 1).tolist():
            tok = succ[tok][j]
            doc.append(tok)
        docs.append(doc)
    return docs


def make_teacher(vocab_size: int = 256, seed: int = 7, order: int = 2,
                 smoothing_lambda: float = 0.05, source_tokens: int = 400_000,
                 zipf_a: float = 1.15) -> NGramModel:
    """Teacher model trained on the synthetic source."""
    doc_len = 1000
    n_docs = max(1, source_tokens // doc_len)
    corpus = zipf_markov_corpus(vocab_size, n_docs, doc_len, seed, zipf_a)
    return train_ngram(corpus, order, smoothing_lambda, vocab_size)


def generate_corpus(model: NGramModel, n_docs: int, doc_len: int,
                    sampling: SamplingConfig, wm: WatermarkConfig | None = None,
                    prompt_len: int = 3, wm_flag: bool | None = None,
                    tables: dict | None = None) -> list[dict]:
    """Documents sampled from the model, each a dict with ``tokens``/``wm``.

    Every document starts from a short random prompt (included in the
    document) so that full watermark windows exist from early positions.
    """
    sampler = TextSampler(model, sampling, wm, tables=tables)
    rng = np.random.default_rng(sampling.seed)
    flag = (wm is not None) if wm_flag is None else wm_flag
    docs = []
    for _ in range(n_docs):
        prompt = [int(t) for t in rng.integers(model.vocab_size, size=prompt_len)]
        body = sampler.generate(prompt, doc_len - prompt_len, rng)
        docs.append({"tokens": prompt + body, "wm": flag})
    return docs


def mix_dataset(wm_corpus: list[dict], clean_corpus: list[dict],
                spec: MixSpec) -> tuple[list[dict], list[dict]]:
    """Training mixture D and the supervised detection corpus D~A.

    D takes ``round(rho * |D|)`` watermarked documents and fills the rest
    with clean ones; D~A contains those watermarked training documents
    diluted to degree d with fresh watermarked decoys.
    """
    total = len(clean_corpus)
    n_wm = round(spec.rho * total)
    if n_wm > len(wm_corpus):
        raise ValueError("not enough watermarked documents for requested rho")
    d_train = wm_corpus[:n_wm] + clean_corpus[: total - n_wm]
    if spec.d > 0 and n_wm > 0:
        target = round(n_wm / spec.d)
        n_decoys = target - n_wm
        if n_wm + n_decoys > len(wm_corpus):
            raise ValueError("not enough watermarked documents for requested d")
        supervised = wm_corpus[: n_wm + n_decoys]
    else:
        supervised = []
    return d_train, supervised


# ---------------------------------------------------------------------------
# corpus and checkpoint files

def save_corpus(docs: list[dict], path) -> None:
    """JSONL, one document per line: tokens, optional text / wm tag."""
    with open(path, "w") as f:
        for doc in docs:
            f.write(json.dumps(doc, separators=(",", ":")) + "\n")


def load_corpus(path) -> list[dict]:
    docs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                docs.append(json.loads(line))
    return docs


_MODEL_MAGIC = b"RSM2"


def save_model(model: NGramModel, path) -> None:
    """Checkpoint: the magic ``RSM2``, then one ``np.savez`` archive."""
    levels = {}
    for length in range(model.order + 1):
        for name, values in (("keys", model._keys), ("counts", model._counts)):
            # the narrowest unsigned dtype that holds the level's values
            narrow = np.min_scalar_type(int(values[length].max(initial=0)))
            levels[f"{name}{length}"] = values[length].astype(narrow)
    with open(path, "wb") as f:
        f.write(_MODEL_MAGIC)
        np.savez(f, order=model.order, vocab_size=model.vocab_size,
                 smoothing_lambda=model.smoothing_lambda, **levels)


def load_model(path) -> NGramModel:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MODEL_MAGIC:  # RSM1, the per-record format, is no longer read
            raise ValueError(f"{path} is not an RSM2 model checkpoint (magic "
                             f"{magic!r}); re-run `radioscope train` to write one")
        try:
            with np.load(f, allow_pickle=False) as z:
                model = NGramModel(int(z["order"]), int(z["vocab_size"]),
                                   float(z["smoothing_lambda"]))
                levels = [(z[f"keys{n}"], z[f"counts{n}"])
                          for n in range(model.order + 1)]
        except (zipfile.BadZipFile, KeyError) as exc:
            raise ValueError(f"corrupt model checkpoint {path}: {exc}") from exc
    for n, (keys, counts) in enumerate(levels):
        if not (keys.dtype.kind == counts.dtype.kind == "u" and keys.ndim == 1
                and keys.shape == counts.shape and (counts > 0).all()
                and (keys[1:] > keys[:-1]).all()
                and (keys < model.vocab_size ** (n + 1)).all()):
            raise ValueError(f"corrupt model checkpoint {path}: level {n}")
        model._keys[n], model._counts[n] = keys.astype(np.int64), counts.astype(np.int64)
    model._index()
    return model
