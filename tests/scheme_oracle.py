"""Scalar references the batched scheme functions are tested against.

``derive_greenlist``, ``derive_rvector``, ``mpac_position`` and
``mpac_partition`` are the per-seed definitions ``radioscope`` used before
its scheme layer worked on arrays of seeds.  They are kept verbatim,
except that the radix is the module constant ``MPAC_RADIX`` and seeds come
from the scalar ``window_hash``.  ``loop_mpac_extract`` is ``mpac_extract``
as a vote loop over each document's positions.
"""

from __future__ import annotations

import numpy as np

from radioscope.hashing import (
    _TWO64,
    ConfigError,
    derive_permutation,
    stream_block,
    stream_value,
    window_hash,
)
from radioscope.schemes import _MPAC_PARTITION_OFFSET, MPAC, MPAC_RADIX, WatermarkConfig


def derive_greenlist(seed: int, gamma: float, vocab_size: int) -> np.ndarray:
    """First ``floor(gamma * vocab_size)`` tokens of the seed permutation."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must be in [0, 1], got {gamma}")
    g = int(gamma * vocab_size)
    if g == 0:
        return np.empty(0, dtype=np.intp)
    return derive_permutation(seed, vocab_size)[:g]


def derive_rvector(seed: int, vocab_size: int) -> np.ndarray:
    """Length-``vocab_size`` vector of uniform values in [0, 1)."""
    if vocab_size < 1:
        raise ConfigError("vocab_size must be >= 1")
    keys = stream_block(np.array([seed], dtype=np.uint64), 0, vocab_size)[0]
    return keys.astype(np.float64) / _TWO64


def mpac_position(seed: int, cfg: WatermarkConfig) -> int:
    """Message position selected by the seed (rejection-sampled 32-bit draws)."""
    b = cfg.n_positions
    limit = (2**32 // b) * b
    for j in range(_MPAC_PARTITION_OFFSET):
        draw = stream_value(seed, j) >> 32
        if draw < limit:
            return draw % b
    # probability ~ (b / 2**32) ** 8; fall back to the last draw unrejected
    return draw % b


def mpac_partition(seed: int, cfg: WatermarkConfig) -> list[np.ndarray]:
    """Partition of the vocabulary into ``radix`` near-equal disjoint sets."""
    v = cfg.vocab_size
    r = MPAC_RADIX
    keys_seed = np.array([seed], dtype=np.uint64)

    keys = stream_block(keys_seed, _MPAC_PARTITION_OFFSET, v)[0]
    perm = np.argsort(keys, kind="stable")
    base, extra = divmod(v, r)
    sets = []
    pos = 0
    for i in range(r):
        size = base + (1 if i < extra else 0)
        sets.append(perm[pos : pos + size])
        pos += size
    return sets


def loop_mpac_extract(docs, cfg: WatermarkConfig, reference: str | None = None):
    """``mpac_extract`` as a loop over each document's positions: a window
    that lies inside the document's prompt or occurred at an earlier start
    casts no vote, and each distinct (seed, token) pair votes once."""
    if cfg.scheme != MPAC:
        raise ConfigError("mpac_extract needs an MPAC config")
    k, b = cfg.k, cfg.n_positions
    votes = np.zeros((b, MPAC_RADIX), dtype=np.int64)
    seen = set()
    for doc in docs:
        tokens = list(doc["tokens"] if isinstance(doc, dict) else doc)
        prompt_len = doc.get("prompt_len", 0) if isinstance(doc, dict) else 0
        earlier = set()
        for pos in range(k, len(tokens)):
            window, token = tuple(tokens[pos - k : pos]), tokens[pos]
            blocked = pos <= prompt_len or window in earlier
            earlier.add(window)
            seed = window_hash(window, cfg.key)
            if blocked or (seed, token) in seen:
                continue
            seen.add((seed, token))
            slot = mpac_position(seed, cfg)
            for digit, members in enumerate(mpac_partition(seed, cfg)):
                if token in members:
                    votes[slot, digit] += 1
                    break
    digits: list[int | None] = []
    for i in range(b):
        if votes[i].sum() == 0:
            digits.append(None)
        else:
            digits.append(int(np.argmax(votes[i])))  # ties: lowest digit wins
    ref_bits = reference if reference is not None else cfg.message
    ref_digits = [int(ref_bits[2 * i]) * 2 + int(ref_bits[2 * i + 1]) for i in range(b)]
    total = correct = 0
    for got, want in zip(digits, ref_digits):
        if got is None:
            continue
        for shift in (1, 0):
            total += 1
            if (got >> shift) & 1 == (want >> shift) & 1:
                correct += 1
    accuracy = correct / total if total else None
    return digits, accuracy
