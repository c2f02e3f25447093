"""Reference sampler the decode-row walks are tested against.

``LoopTextSampler`` is the per-token sampler that ``radioscope.models``
used before its decode-row store, with the per-seed greenlist cache it
relied on, and ``loop_generate_corpus`` / ``loop_complete`` are the
corpus and completion loops built on it.  They are kept verbatim so that
property tests can require identical outputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from radioscope.hashing import derive_permutation, rvalue_batch
from radioscope.schemes import AK, KGW, MPAC, WatermarkConfig, mpac_embed_bias


class GreenlistCache:
    """Per-key cache of greenlist index arrays and membership masks."""

    def __init__(self, cfg: WatermarkConfig, maxsize: int = 1 << 17):
        self.cfg = cfg
        v = cfg.vocab_size
        g = int(cfg.gamma * v)

        @lru_cache(maxsize=maxsize)
        def lookup(seed: int):
            perm = derive_permutation(seed, v)
            ids = perm[:g]
            mask = np.zeros(v, dtype=bool)
            mask[ids] = True
            return ids, mask

        self._lookup = lookup

    def greenlist(self, seed: int) -> np.ndarray:
        return self._lookup(seed)[0]

    def mask(self, seed: int) -> np.ndarray:
        return self._lookup(seed)[1]


class LoopTextSampler:
    """Autoregressive sampler with per-context memoized decoding tables."""

    def __init__(self, model, sampling, wm: WatermarkConfig | None = None,
                 tables: dict | None = None):
        self.model = model
        self.sampling = sampling
        self.wm = wm
        self._tables: dict = {} if tables is None else tables
        self._wm_tables: dict = {}
        self._green = GreenlistCache(wm) if wm is not None and wm.scheme == KGW else None
        if wm is not None and wm.scheme == AK and wm.temperature is not None:
            self.temperature = wm.temperature
        else:
            self.temperature = sampling.temperature
        if tables is not None and self.temperature != sampling.temperature:
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
        if wm.scheme == AK:
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
        seed = wm.seed(window)
        r = rvalue_batch(np.full(len(idx), seed, dtype=np.uint64), idx)
        p = np.exp(log_kept - log_kept.max())
        p /= p.sum()
        cost = -np.log(np.maximum(r, 1e-300)) / p
        return int(idx[np.argmin(cost)])

    def generate(self, prompt, max_tokens: int, rng: np.random.Generator) -> list[int]:
        context = list(prompt)
        out = []
        for _ in range(max_tokens):
            tok = self.next_token(context, rng)
            context.append(tok)
            out.append(tok)
        return out


def loop_generate_corpus(model, n_docs: int, doc_len: int, sampling,
                         wm: WatermarkConfig | None = None, prompt_len: int = 3,
                         wm_flag: bool | None = None,
                         tables: dict | None = None) -> list[dict]:
    """``generate_corpus`` as a per-document, per-token loop."""
    sampler = LoopTextSampler(model, sampling, wm, tables=tables)
    rng = np.random.default_rng(sampling.seed)
    flag = (wm is not None) if wm_flag is None else wm_flag
    docs = []
    for _ in range(n_docs):
        prompt = [int(t) for t in rng.integers(model.vocab_size, size=prompt_len)]
        body = sampler.generate(prompt, doc_len - prompt_len, rng)
        docs.append({"tokens": prompt + body, "wm": flag})
    return docs


def loop_complete(model, prompts, sampling,
                  tables: dict | None = None) -> list[list[int]]:
    """The closed-mode completions of a local suspect, one prompt at a time."""
    sampler = LoopTextSampler(model, sampling, tables=tables)
    rng = np.random.default_rng(sampling.seed)
    return [sampler.generate(p, sampling.max_tokens, rng) for p in prompts]
