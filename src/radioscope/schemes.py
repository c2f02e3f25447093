"""Watermark embedding and per-token scoring for the three schemes.

KGW: a seed-determined greenlist (fraction gamma of the vocabulary) gets a
logit bonus delta; scoring counts greenlist hits.  AK: the next token is
the argmax of R_v**(1/p_v) over a seed-determined uniform vector R;
scoring accumulates -ln(1 - R_token).  MPAC: a multi-bit variant of KGW
where the seed selects a message position and a vocabulary partition, and
the bias goes to the set encoding the message digit at that position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hashing import (
    ConfigError,
    SecretKey,
    derive_permutation,
    green_mask_batch,
    rvalue_batch,
    stream_value,
    window_hash,
)

KGW = "kgw"
AK = "ak"
MPAC = "mpac"

#: Largest double strictly below 1; caps R before -ln(1-R).
_R_CAP = 1.0 - 2.0**-53

# stream positions 0..7 are reserved for MPAC position selection,
# the vocabulary partition keys start at 8
_MPAC_PARTITION_OFFSET = 8


@dataclass(frozen=True)
class WatermarkConfig:
    """Scheme choice plus every knob needed to embed and to score."""

    scheme: str
    key: SecretKey
    vocab_size: int
    k: int = 2
    gamma: float = 0.25
    delta: float = 3.0
    temperature: float | None = None
    message: str | None = None
    radix: int = 4

    def __post_init__(self):
        if self.scheme not in (KGW, AK, MPAC):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.k < 1:
            raise ConfigError("window size k must be >= 1")
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if self.scheme in (KGW, MPAC):
            if self.delta < 0:
                raise ConfigError("delta must be >= 0")
        if self.scheme == KGW and not 0.0 < self.gamma < 1.0:
            raise ConfigError("KGW needs 0 < gamma < 1")
        if self.scheme == MPAC:
            if self.message is None:
                raise ConfigError("MPAC needs a message")
            if len(self.message) % 2 != 0 or not self.message:
                raise ConfigError("MPAC message length must be even and > 0")
            if set(self.message) - {"0", "1"}:
                raise ConfigError("MPAC message must be a bit string")
            if self.radix != 4:
                raise ConfigError("only radix 4 is supported")

    @property
    def n_positions(self) -> int:
        """Number of r-ary message positions (b = n/2 at radix 4)."""
        return len(self.message) // 2

    def digits(self) -> list[int]:
        """Message as r-ary digits, two bits per digit, MSB first."""
        bits = self.message
        return [int(bits[2 * i]) * 2 + int(bits[2 * i + 1]) for i in range(len(bits) // 2)]

    def seed(self, window) -> int:
        if len(window) != self.k:
            raise ConfigError(f"window length {len(window)} != k={self.k}")
        return window_hash(window, self.key)


def kgw_green_masks(seeds: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Greenlist membership of every token under each seed, ``(len(seeds), V)``.

    The green tokens of a seed are the first ``floor(gamma * V)`` of its
    permutation, as in :func:`~radioscope.hashing.derive_greenlist`; all
    permutations of the batch come from one stream block.
    """
    v = cfg.vocab_size
    perm = derive_permutation(np.asarray(seeds, dtype=np.uint64), v)
    masks = np.zeros((len(perm), v), dtype=bool)
    np.put_along_axis(masks, perm[:, : int(cfg.gamma * v)], True, axis=1)
    return masks


def kgw_bias_logits(logits: np.ndarray, window, cfg: WatermarkConfig) -> np.ndarray:
    """Return a copy of ``logits`` with the window's greenlist raised by delta."""
    if cfg.scheme != KGW:
        raise ConfigError("kgw_bias_logits needs a KGW config")
    if len(logits) != cfg.vocab_size:
        raise ConfigError("logits length != vocab_size")
    out = np.array(logits, dtype=np.float64)
    if cfg.delta == 0.0:
        return out
    from .hashing import derive_greenlist

    out[derive_greenlist(cfg.seed(window), cfg.gamma, cfg.vocab_size)] += cfg.delta
    return out


def kgw_score(token: int, window, cfg: WatermarkConfig) -> int:
    """1 iff ``token`` is in the greenlist of ``window``."""
    seed = cfg.seed(window)
    mask = green_mask_batch(
        np.array([seed], dtype=np.uint64),
        np.array([token]),
        cfg.gamma,
        cfg.vocab_size,
    )
    return int(mask[0])


def kgw_score_batch(seeds: np.ndarray, tokens: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Vectorized greenlist membership; 0/1 per (seed, token)."""
    return green_mask_batch(seeds, tokens, cfg.gamma, cfg.vocab_size).astype(np.float64)


def aaronson_sample(p: np.ndarray, window, cfg: WatermarkConfig) -> int:
    """Deterministic AK choice: argmax over v of R_v ** (1 / p_v).

    Tokens with zero probability are never selected; ties break toward the
    lowest token id.
    """
    p = np.asarray(p, dtype=np.float64)
    if len(p) != cfg.vocab_size:
        raise ConfigError("probability vector length != vocab_size")
    if abs(p.sum() - 1.0) > 1e-9 or (p < 0).any():
        raise ConfigError("p must be a probability distribution")
    if not (p > 0).any():
        raise ConfigError("all-zero probability vector")
    from .hashing import derive_rvector

    r = derive_rvector(cfg.seed(window), cfg.vocab_size)
    # argmax R**(1/p) == argmin (-ln R) / p, restricted to p > 0
    with np.errstate(divide="ignore"):
        cost = np.where(p > 0.0, -np.log(np.maximum(r, 1e-300)) / p, np.inf)
    return int(np.argmin(cost))


def aaronson_score(token: int, window, cfg: WatermarkConfig) -> float:
    """Score increment -ln(1 - R_token), capped away from infinity."""
    r = stream_value(cfg.seed(window), token) / 2.0**64
    return -math.log1p(-min(r, _R_CAP))


def ak_score_batch(seeds: np.ndarray, tokens: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Vectorized AK increments for (seed, token) pairs."""
    r = np.minimum(rvalue_batch(seeds, tokens), _R_CAP)
    return -np.log1p(-r)


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
    r = cfg.radix
    keys_seed = np.array([seed], dtype=np.uint64)
    from .hashing import stream_block

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


def mpac_embed_bias(logits: np.ndarray, window, cfg: WatermarkConfig) -> np.ndarray:
    """Raise the logits of the set encoding the selected message digit."""
    if cfg.scheme != MPAC:
        raise ConfigError("mpac_embed_bias needs an MPAC config")
    if len(logits) != cfg.vocab_size:
        raise ConfigError("logits length != vocab_size")
    out = np.array(logits, dtype=np.float64)
    if cfg.delta == 0.0:
        return out
    seed = cfg.seed(window)
    digit = cfg.digits()[mpac_position(seed, cfg)]
    out[mpac_partition(seed, cfg)[digit]] += cfg.delta
    return out


def mpac_extract(stream, cfg: WatermarkConfig, reference: str | None = None):
    """Majority-vote message extraction from (window, token) pairs.

    ``stream`` yields (window, token) tuples; duplicated (k+1)-tuples are
    counted once.  Returns ``(digits, bit_accuracy)`` where ``digits`` is a
    list with ``None`` for positions that received no vote, and
    ``bit_accuracy`` compares decided positions against ``reference``
    (default: the embedded message), or ``None`` when nothing was decided.
    """
    if cfg.scheme != MPAC:
        raise ConfigError("mpac_extract needs an MPAC config")
    b = cfg.n_positions
    votes = np.zeros((b, cfg.radix), dtype=np.int64)
    seen = set()
    for window, token in stream:
        seed = cfg.seed(window)
        fp = (seed, token)
        if fp in seen:
            continue
        seen.add(fp)
        pos = mpac_position(seed, cfg)
        for digit, members in enumerate(mpac_partition(seed, cfg)):
            if token in members:
                votes[pos, digit] += 1
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


def score_batch(seeds: np.ndarray, tokens: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Per-tuple score increments for the config's scheme."""
    if cfg.scheme == AK:
        return ak_score_batch(seeds, tokens, cfg)
    return kgw_score_batch(seeds, tokens, cfg)
