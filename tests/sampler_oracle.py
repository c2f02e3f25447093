"""Reference sampler the decode-row walks are tested against.

``LoopTextSampler`` is the per-token sampler that ``radioscope.models``
used before its decode-row store, with the per-seed greenlist cache it
relied on, and ``loop_generate_corpus`` / ``loop_complete`` are the
corpus and completion loops built on it.  ``loop_state_code`` is the
per-prompt rule the decode-row walk first coded its prompts by.  They are kept verbatim, except
that every step draws one uniform before anything else, so that property
tests can require identical outputs, and that the log of a kept 0 and the
division by it run under ``np.errstate``, as the library's do.

The loops look contexts up in a ``DictNGramModel`` twin of the model under
test, never in the model itself, so a defect in the model's lookup cannot
sit on both sides of a comparison.  A twin is trained on the test's own
corpus, or read from the model's counts by ``store_contract.twin``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from radioscope.hashing import derive_permutation, rvalue_batch
from radioscope.schemes import AK, KGW, MPAC, WatermarkConfig, bias_logits
from ngram_oracle import DictNGramModel, check_twin


def loop_state_code(prompt, depth: int, radix: int) -> int:
    """The state code of a prompt: its last ``depth`` tokens as base-``radix``
    digits ``token + 1``, newest least significant."""
    code = 0
    for tok in list(prompt)[-depth:]:
        code = code * radix + int(tok) + 1
    return code


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

    def __init__(self, twin: DictNGramModel, sampling, wm: WatermarkConfig | None = None):
        check_twin(twin)
        self.twin = twin
        self.sampling = sampling
        self.wm = wm
        self._tables: dict = {}
        self._wm_tables: dict = {}
        self._green = GreenlistCache(wm) if wm is not None and wm.scheme == KGW else None
        if wm is not None and wm.scheme == AK and wm.temperature is not None:
            self.temperature = wm.temperature
        else:
            self.temperature = sampling.temperature

    def _table(self, context):
        ctx = tuple(context[-self.twin.order :])
        entry = self._tables.get(ctx)
        if entry is None:
            p = self.twin.next_distribution(ctx)
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
            with np.errstate(divide="ignore"):  # a kept 0 has log -inf
                entry = (idx, np.log(kept), np.cumsum(kept))
            self._tables[ctx] = entry
        return entry

    def next_token(self, context, rng: np.random.Generator) -> int:
        u = rng.random()  # every step draws one uniform, used or not
        idx, log_kept, cum = self._table(context)
        wm = self.wm
        window = None
        if wm is not None and len(context) >= wm.k:
            window = tuple(context[-wm.k :])
        if wm is None or window is None:
            if len(idx) == 1:
                return int(idx[0])
            j = int(np.searchsorted(cum, u, side="right"))
            return int(idx[min(j, len(idx) - 1)])
        ctx = tuple(context[-self.twin.order :])
        cache_key = (ctx, window)
        entry = self._wm_tables.get(cache_key)
        if entry is None:
            entry = self._wm_entry(idx, log_kept, window)
            self._wm_tables[cache_key] = entry
        if wm.scheme == AK:
            return entry
        bcum = entry
        j = int(np.searchsorted(bcum, u * bcum[-1], side="right"))
        return int(idx[min(j, len(idx) - 1)])

    def _wm_entry(self, idx, log_kept, window):
        wm = self.wm
        if wm.scheme == KGW:
            seed = wm.seed(window)
            biased = log_kept + wm.delta * self._green.mask(seed)[idx]
            return np.cumsum(np.exp(biased - biased.max()))
        if wm.scheme == MPAC:
            full = np.full(self.twin.vocab_size, -np.inf)
            full[idx] = log_kept
            seeds = np.array([wm.seed(window)], dtype=np.uint64)
            biased = bias_logits(seeds, np.where(np.isfinite(full), full, -1e30)[None],
                                 np.arange(wm.vocab_size)[None], wm)[0]
            biased[~np.isfinite(full)] = -np.inf
            sub = biased[idx]
            return np.cumsum(np.exp(sub - sub.max()))
        seed = wm.seed(window)
        r = rvalue_batch(np.full(len(idx), seed, dtype=np.uint64), idx)
        p = np.exp(log_kept - log_kept.max())
        p /= p.sum()
        with np.errstate(divide="ignore"):  # a kept 0 costs inf
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


def loop_generate_corpus(twin: DictNGramModel, n_docs: int, doc_len: int, sampling,
                         wm: WatermarkConfig | None = None,
                         prompt_len: int = 3) -> list[dict]:
    """``generate_corpus`` of the model ``twin`` copies, as a per-document,
    per-token loop."""
    sampler = LoopTextSampler(twin, sampling, wm)
    rng = np.random.default_rng(sampling.seed)
    docs = []
    for _ in range(n_docs):
        prompt = [int(t) for t in rng.integers(twin.vocab_size, size=prompt_len)]
        body = sampler.generate(prompt, doc_len - prompt_len, rng)
        docs.append({"tokens": prompt + body, "wm": wm is not None})
    return docs


def loop_complete(twin: DictNGramModel, prompts, sampling) -> list[list[int]]:
    """The closed-mode completions of a local suspect that ``twin`` copies,
    one prompt at a time."""
    sampler = LoopTextSampler(twin, sampling)
    rng = np.random.default_rng(sampling.seed)
    return [sampler.generate(p, sampling.max_tokens, rng) for p in prompts]
