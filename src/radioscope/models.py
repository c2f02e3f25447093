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

Generation samples through decode rows, each built once per state.  A
state is the last ``max(order, k)`` tokens (``order`` without a
watermark), coded as base-(V+1) digits ``token + 1``.  A context's nucleus
row holds its kept token ids by descending probability, their
log-probabilities and cumulative sums, padded to V; a watermarked state's
row holds its context's nucleus row and the scheme's part: the
cumulative biased probabilities (KGW, MPAC) or the chosen token (AK).
The rows of all the states first reached at a step are built together
with 2-d array operations (a lone row, as per-document walks reach them,
with the same 1-d arithmetic), and rows live in blocks that never move.

With a watermark and prompts of at least k tokens, every body step draws
exactly one uniform (KGW, MPAC) or none (AK).  ``generate_corpus`` then
draws each document's prompt and uniforms in document order up front and
advances all documents one position per step.  Otherwise a single-token
nucleus row draws no uniform, so where a document's uniforms start
depends on the previous document's path, and documents are walked one at
a time over the same rows.  Either way the RNG is consumed as by a
per-token loop, and corpora and completions are byte-identical to it.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .hashing import ConfigError, rvalue_batch
from .schemes import AK, KGW, MPAC, WatermarkConfig, kgw_green_masks, mpac_embed_bias


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


#: Elements of one (rows, V) temporary while decode rows are built: the
#: states first reached at a step are built in batches of at most this
#: many elements (2048 rows at V = 128).
_BATCH_ELEMS = 1 << 18

#: Bytes of float64 rows in one storage block of a row store.
_BLOCK_BYTES = 1 << 24


def _decode(code: int, radix: int) -> tuple:
    """Tokens of a state code, oldest first; a zero digit marks no token."""
    toks = []
    while code:
        code, digit = divmod(code, radix)
        toks.append(digit - 1)
    return tuple(reversed(toks))


class _RowStore:
    """Decode rows keyed by state code, appended in batches as states are reached.

    ``index`` maps a code to its row.  Each field (name -> row shape,
    dtype) is kept in blocks of ``2**bits`` rows, ``_BLOCK_BYTES`` of float64
    rows: a block is allocated when the one before it is full and never
    moves, so a growing store copies nothing and states never reached
    take no memory.  ``_build`` returns the fields of a batch of new rows.
    """

    def __init__(self, vocab_size: int, fields: dict):
        self.vocab_size = vocab_size
        self.bits = max(0, (_BLOCK_BYTES // 8 // vocab_size).bit_length() - 1)
        self.fields = fields
        self.blocks: dict = {name: [] for name in fields}
        self.index: dict = {}
        self.n = 0

    def rows(self, codes: list) -> np.ndarray:
        """Row of each code, building the rows of the codes first reached."""
        get = self.index.get
        rows = np.array([get(c, -1) for c in codes], dtype=np.intp)
        missing = np.flatnonzero(rows < 0).tolist()
        if missing:
            new = list(dict.fromkeys(codes[i] for i in missing))
            batch = max(1, _BATCH_ELEMS // self.vocab_size)
            for lo in range(0, len(new), batch):
                self._append(new[lo : lo + batch])
            rows[missing] = [get(codes[i]) for i in missing]
        return rows

    def row(self, code) -> int:
        """Row of one code, built alone when first reached."""
        r = self.index.get(code)
        if r is None:
            r = self.n
            self._append([code])
        return r

    def take(self, name: str, rows: np.ndarray,
             cols: np.ndarray | None = None) -> np.ndarray:
        """Field ``name`` of each of ``rows``, or its entry at ``cols`` in each."""
        blocks = self.blocks[name]
        if len(blocks) == 1:
            return blocks[0][rows] if cols is None else blocks[0][rows, cols]
        shape, dtype = self.fields[name]
        high, low = rows >> self.bits, rows & ((1 << self.bits) - 1)
        out = np.empty(rows.shape + (shape if cols is None else ()), dtype)
        for b, block in enumerate(blocks):
            sel = np.flatnonzero(high == b)
            if len(sel):
                out[sel] = block[low[sel]] if cols is None else block[low[sel], cols[sel]]
        return out

    def _append(self, codes: list) -> None:
        n, m, bits = self.n, len(codes), self.bits
        for name, values in self._build(codes).items():
            blocks = self.blocks[name]
            shape, dtype = self.fields[name]
            start = n
            while start < n + m:
                b = start >> bits
                if b == len(blocks):
                    blocks.append(np.empty((1 << bits,) + shape, dtype))
                stop = min(n + m, (b + 1) << bits)
                first = b << bits
                blocks[b][start - first : stop - first] = values[start - n : stop - n]
                start = stop
        self.index.update(zip(codes, range(n, n + m)))
        self.n = n + m

    def _build(self, codes: list) -> dict:
        raise NotImplementedError


class NucleusRows(_RowStore):
    """Nucleus rows of the contexts reached so far, for one temperature and p.

    A context is coded by its last ``order`` tokens.  Its row holds the
    kept token ids by descending probability (``idx``), their
    renormalized log-probabilities (``log_kept``) and cumulative
    probabilities (``cum``), and how many are kept (``keep``).  Rows are
    ``V`` wide: past ``keep`` the ids are 0, the logs ``-inf`` and the
    sums repeat the total.
    """

    def __init__(self, model: NGramModel, temperature: float, nucleus_p: float):
        v = model.vocab_size
        super().__init__(v, {"idx": ((v,), np.min_scalar_type(v - 1)),
                             "log_kept": ((v,), np.float64), "cum": ((v,), np.float64),
                             "keep": ((), np.min_scalar_type(v))})
        self.model = model
        self.temperature = temperature
        self.nucleus_p = nucleus_p

    def _build(self, codes: list) -> dict:
        if len(codes) == 1:
            return self._build_one(codes[0])
        radix, v = self.vocab_size + 1, self.vocab_size
        q = np.array([self.model.next_distribution(_decode(c, radix)) for c in codes])
        np.maximum(q, 1e-300, out=q)
        np.log(q, out=q)
        q /= self.temperature
        q -= np.maximum.reduce(q, axis=1, keepdims=True)
        np.exp(q, out=q)
        q /= np.add.reduce(q, axis=1, keepdims=True)
        order = (-q).argsort(axis=1, kind="stable")
        q = q[np.arange(len(q))[:, None], order]
        keep = np.add.reduce(q.cumsum(axis=1) < self.nucleus_p, axis=1) + 1
        np.minimum(keep, v, out=keep)
        # each kept prefix is renormalized by its own sum: a pairwise sum
        # over a zero-padded row would round differently
        for row, k in zip(q, keep.tolist()):
            row[:k] /= np.add.reduce(row[:k])
            row[k:] = 0.0
        with np.errstate(divide="ignore"):
            log_kept = np.log(q)
        return {"idx": order, "log_kept": log_kept, "cum": q.cumsum(axis=1), "keep": keep}

    def _build_one(self, code: int) -> dict:
        """One row by 1-d operations: the batch arithmetic, faster for a
        single row, which is how per-document walks reach their states."""
        p = self.model.next_distribution(_decode(code, self.vocab_size + 1))
        q = np.log(np.maximum(p, 1e-300))
        q /= self.temperature
        q -= q.max()
        np.exp(q, out=q)
        q /= q.sum()
        order = np.argsort(-q, kind="stable")
        q = q[order]
        keep = min(int(q.cumsum().searchsorted(self.nucleus_p)) + 1, self.vocab_size)
        q[:keep] /= q[:keep].sum()
        q[keep:] = 0.0
        with np.errstate(divide="ignore"):
            log_kept = np.log(q)
        return {"idx": order[None], "log_kept": log_kept[None], "cum": q.cumsum()[None],
                "keep": (keep,)}


class _WatermarkRows(_RowStore):
    """Decode rows of the states that hold a full watermark window.

    A state is coded by its last ``max(order, k)`` tokens.  Its row holds
    the row of its context in the nucleus store (``base``) and either the
    token the scheme picks (AK, ``tok``) or the cumulative biased
    probabilities over the kept ids (KGW and MPAC, ``bcum``, which past
    ``keep`` repeats the total).
    """

    def __init__(self, nucleus: NucleusRows, wm: WatermarkConfig):
        v = nucleus.vocab_size
        picked = (("tok", ((), nucleus.fields["idx"][1])) if wm.scheme == AK
                  else ("bcum", ((v,), np.float64)))
        super().__init__(v, dict([("base", ((), np.intp)), picked]))
        self.nucleus = nucleus
        self.wm = wm

    def _build(self, codes: list) -> dict:
        wm, nucleus, radix = self.wm, self.nucleus, self.vocab_size + 1
        ctx_mod, win_mod = radix**nucleus.model.order, radix**wm.k
        base = nucleus.rows([c % ctx_mod for c in codes])
        windows = [_decode(c % win_mod, radix) for c in codes]
        idx, log_kept = nucleus.take("idx", base), nucleus.take("log_kept", base)
        keep = nucleus.take("keep", base).tolist()
        if wm.scheme == KGW:
            green = kgw_green_masks(np.array([wm.seed(w) for w in windows],
                                             dtype=np.uint64), wm)
            biased = log_kept + wm.delta * np.take_along_axis(
                green, idx.astype(np.intp), axis=1)
            biased -= np.maximum.reduce(biased, axis=1, keepdims=True)
            return {"base": base, "bcum": np.exp(biased, out=biased).cumsum(axis=1)}
        if wm.scheme == MPAC:
            bcum = np.empty_like(log_kept)
            for row, ids, lk, k, window in zip(bcum, idx, log_kept, keep, windows):
                ids = ids[:k].astype(np.intp)
                full = np.full(self.vocab_size, -np.inf)
                full[ids] = lk[:k]
                biased = mpac_embed_bias(np.where(np.isfinite(full), full, -1e30),
                                         window, wm)
                biased[~np.isfinite(full)] = -np.inf
                sub = biased[ids]
                row[:k] = np.cumsum(np.exp(sub - sub.max()))
                row[k:] = row[k - 1]
            return {"base": base, "bcum": bcum}
        # AK: the argmax of R ** (1/p) over the kept ids
        tok = np.empty(len(codes), idx.dtype)
        for i, (ids, lk, k, window) in enumerate(zip(idx, log_kept, keep, windows)):
            ids, lk = ids[:k], lk[:k]
            r = rvalue_batch(np.full(k, wm.seed(window), dtype=np.uint64), ids)
            p = np.exp(lk - lk.max())
            p /= p.sum()
            cost = -np.log(np.maximum(r, 1e-300)) / p
            tok[i] = ids[np.argmin(cost)]
        return {"base": base, "tok": tok}


class TextSampler:
    """Autoregressive sampler over decode rows built once per state.

    A state is the last ``max(order, k)`` tokens (``order`` without a
    watermark), coded as base-(V+1) digits ``token + 1``, newest least
    significant, so a shorter context has leading zeros.  Nucleus rows
    live in ``tables``, keyed by (temperature, nucleus_p), and may be
    shared by samplers of the same model; watermark rows belong to the
    sampler.
    """

    def __init__(self, model: NGramModel, sampling: SamplingConfig,
                 wm: WatermarkConfig | None = None,
                 tables: dict | None = None):
        self.model = model
        self.sampling = sampling
        self.wm = wm
        if wm is not None and wm.scheme == AK and wm.temperature is not None:
            # AK strength knob: temperature applied to logits before softmax
            self.temperature = wm.temperature
        else:
            self.temperature = sampling.temperature
        tables = {} if tables is None else tables
        key = (self.temperature, sampling.nucleus_p)
        if key not in tables:
            tables[key] = NucleusRows(model, *key)
        self._nucleus = tables[key]
        self._marked = None if wm is None else _WatermarkRows(self._nucleus, wm)
        self._radix = radix = model.vocab_size + 1
        self._depth = depth = model.order if wm is None else max(model.order, wm.k)
        # codes below this lack a full window; % _tail drops the oldest token
        self._windowed = None if wm is None else radix ** (wm.k - 1)
        self._tail = radix ** (depth - 1)
        self._code_dtype = np.int64 if radix**depth <= np.iinfo(np.int64).max else object

    def _encode(self, prompt) -> int:
        code = 0
        for tok in list(prompt)[-self._depth :]:
            if not 0 <= tok < self.model.vocab_size:
                raise ValueError(f"token id {tok} out of vocabulary")
            code = code * self._radix + int(tok) + 1
        return code

    def generate(self, prompt, max_tokens: int, rng: np.random.Generator) -> list[int]:
        """Continuation of ``prompt`` (prompt tokens not included)."""
        nucleus, marked, radix = self._nucleus, self._marked, self._radix
        bits, low = nucleus.bits, (1 << nucleus.bits) - 1  # the same in both stores
        idx, cum, keeps = (nucleus.blocks[f] for f in ("idx", "cum", "keep"))
        if marked is not None:
            base = marked.blocks["base"]
            picked = marked.blocks["tok" if self.wm.scheme == AK else "bcum"]
            ak = self.wm.scheme == AK
        ctx_mod, windowed = radix**self.model.order, self._windowed
        code = self._encode(prompt)
        out = []
        for _ in range(max_tokens):
            if marked is not None and code >= windowed:
                r = marked.row(code)
                row = picked[r >> bits][r & low]
                if ak:
                    tok = int(row)
                else:
                    b = int(base[r >> bits][r & low])
                    j = int(row.searchsorted(rng.random() * row.item(-1), "right"))
                    j = min(j, keeps[b >> bits][b & low] - 1)
                    tok = int(idx[b >> bits][b & low, j])
            else:
                r = nucleus.row(code % ctx_mod)
                keep = int(keeps[r >> bits][r & low])
                if keep == 1:  # a single kept token draws no uniform
                    tok = int(idx[r >> bits][r & low, 0])
                else:
                    j = int(cum[r >> bits][r & low].searchsorted(rng.random(), "right"))
                    tok = int(idx[r >> bits][r & low, min(j, keep - 1)])
            out.append(tok)
            code = code % self._tail * radix + tok + 1
        return out

    def generate_lockstep(self, prompts: np.ndarray, steps: int,
                          uniforms: np.ndarray | None) -> np.ndarray:
        """``steps`` tokens after each prompt row, every document at once.

        Needs a watermark and prompts of at least ``k`` tokens, so that each
        step draws one uniform per document (KGW, MPAC: ``uniforms[:, t]``)
        or none (AK).  Step t gathers each document's row, scales its
        uniform by the row total and counts the cumulative sums at or below
        it, which is ``searchsorted(side="right")`` row by row.
        """
        nucleus, marked, radix = self._nucleus, self._marked, self._radix
        dtype = self._code_dtype
        codes = np.zeros(len(prompts), dtype)
        for col in prompts.T[-self._depth :]:
            codes = codes * radix + col.astype(dtype) + 1
        out = np.empty((len(prompts), steps), nucleus.fields["idx"][1])
        for t in range(steps):
            rows = marked.rows(codes.tolist())
            if self.wm.scheme == AK:
                tok = marked.take("tok", rows)
            else:
                base, bcum = marked.take("base", rows), marked.take("bcum", rows)
                u = uniforms[:, t] * bcum[:, -1]
                j = (bcum <= u[:, None]).sum(axis=1)
                j = np.minimum(j, nucleus.take("keep", base) - 1)
                tok = nucleus.take("idx", base, j)
            out[:, t] = tok
            codes = codes % self._tail * radix + tok.astype(dtype) + 1
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
    The RNG is drawn in document order: the prompt, then the body's
    uniforms.
    """
    sampler = TextSampler(model, sampling, wm, tables=tables)
    rng = np.random.default_rng(sampling.seed)
    flag = (wm is not None) if wm_flag is None else wm_flag
    steps = max(doc_len - prompt_len, 0)
    if wm is None or prompt_len < wm.k:
        # a single-token nucleus row draws no uniform, so where one can be
        # reached a document's uniforms start where the previous path ended
        docs = []
        for _ in range(n_docs):
            prompt = rng.integers(model.vocab_size, size=prompt_len).tolist()
            docs.append({"tokens": prompt + sampler.generate(prompt, steps, rng),
                         "wm": flag})
        return docs
    # every body step draws one uniform (KGW, MPAC) or none (AK)
    prompts = np.empty((n_docs, prompt_len), np.int64)
    uniforms = None if wm.scheme == AK else np.empty((n_docs, steps))
    for d in range(n_docs):
        prompts[d] = rng.integers(model.vocab_size, size=prompt_len)
        if uniforms is not None:
            uniforms[d] = rng.random(steps)
    bodies = sampler.generate_lockstep(prompts, steps, uniforms)
    return [{"tokens": prompt + body, "wm": flag}
            for prompt, body in zip(prompts.tolist(), bodies.tolist())]


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
