"""Keyed hashing of watermark windows and derivation of pseudo-random objects.

Every random decision made at watermark time (greenlists, R-vectors,
multi-bit partitions) is a deterministic function of a 64-bit window seed.
The seed comes from a keyed linear recurrence over the window's token ids;
the expansion into uniform 64-bit values uses the splitmix64 output
function applied to a counter stream, which gives random access to any
stream position and vectorizes cleanly across seeds.

All scalar entry points operate on plain Python ints; the ``*_batch``
helpers operate on numpy uint64 arrays and are bit-compatible with the
scalar definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
#: Modulus of the window-hash recurrence (2**64 - 1, not 2**64).
HASH_MOD = 0xFFFFFFFFFFFFFFFF

# splitmix64 constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_TWO64 = float(2**64)


class ConfigError(ValueError):
    """Invalid watermark configuration (key, window, or parameter)."""


@dataclass(frozen=True)
class SecretKey:
    """Multiplier of the window-hash recurrence.

    ``s = 0`` would collapse the recurrence to token-only mixing, so it is
    rejected at construction.
    """

    s: int

    def __post_init__(self):
        if not 1 <= self.s <= MASK64:
            raise ConfigError(f"secret key must be in [1, 2**64-1], got {self.s}")

    def fingerprint(self) -> str:
        """Truncated digest safe for logs and manifests; never the raw key."""
        import hashlib

        return hashlib.sha256(self.s.to_bytes(8, "little")).hexdigest()[:12]

    def __repr__(self) -> str:  # keep raw keys out of tracebacks and logs
        return f"SecretKey(fingerprint={self.fingerprint()})"


def window_hash(window, key: SecretKey) -> int:
    """Hash a window of token ids into a 64-bit seed.

    Evaluates ``h <- (h * s + x) mod (2**64 - 1)`` over the window, with
    ``h`` starting at 0.  Returns a value in ``[0, 2**64 - 1)``.
    """
    if len(window) == 0:
        raise ConfigError("window must contain at least one token")
    h = 0
    s = key.s
    for x in window:
        h = (h * s + int(x)) % HASH_MOD
    return h


def extend_hash(h: int, token: int, key: SecretKey) -> int:
    """One extra recurrence step; used as a (k+1)-tuple fingerprint."""
    return (h * key.s + int(token)) % HASH_MOD


def stream_value(seed: int, index: int) -> int:
    """The ``index``-th 64-bit value of the splitmix64 stream for ``seed``."""
    z = (seed + (index + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def stream_block(seeds: np.ndarray, start: int, count: int) -> np.ndarray:
    """Stream values ``start .. start+count-1`` for each seed.

    Returns a ``(len(seeds), count)`` uint64 array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix(seeds[:, None] + idx[None, :] * _U_GOLDEN)


def stream_at(seeds: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-seed stream value at a per-seed index (both 1-d arrays)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    idx = np.asarray(indices, dtype=np.uint64) + np.uint64(1)
    return _mix(seeds + idx * _U_GOLDEN)


def derive_permutation(seed, vocab_size: int) -> np.ndarray:
    """Seed-determined permutation of ``0..vocab_size-1``.

    Tokens are ordered by their stream key (ties, which have probability
    ~2**-64, broken by token id).  Stable across platforms.  A 1-d array
    of seeds gives one permutation per row.
    """
    if vocab_size < 1:
        raise ConfigError("vocab_size must be >= 1")
    seeds = np.asarray(seed, dtype=np.uint64)
    keys = stream_block(seeds.reshape(-1), 0, vocab_size)
    perm = np.argsort(keys, axis=1, kind="stable")
    return perm if seeds.ndim else perm[0]


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


def green_mask_batch(
    seeds: np.ndarray,
    tokens: np.ndarray,
    gamma: float,
    vocab_size: int,
    chunk: int = 4096,
) -> np.ndarray:
    """Whether ``tokens[i]`` is in the greenlist of ``seeds[i]``, vectorized.

    Membership is rank-based: token is green iff its stream key ranks among
    the ``floor(gamma * V)`` smallest, matching :func:`derive_greenlist`.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    tokens = np.asarray(tokens, dtype=np.intp)
    g = int(gamma * vocab_size)
    n = len(seeds)
    if g == 0:
        return np.zeros(n, dtype=bool)
    if g == vocab_size:
        return np.ones(n, dtype=bool)
    out = np.empty(n, dtype=bool)
    vocab_idx = np.arange(vocab_size)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        keys = stream_block(seeds[lo:hi], 0, vocab_size)
        tok = tokens[lo:hi]
        kt = keys[np.arange(hi - lo), tok][:, None]
        rank = (keys < kt).sum(axis=1)
        rank += ((keys == kt) & (vocab_idx[None, :] < tok[:, None])).sum(axis=1)
        out[lo:hi] = rank < g
    return out


def rvalue_batch(seeds: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """R-vector entry at each (seed, token), without building full vectors."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    tokens = np.asarray(tokens, dtype=np.uint64)
    return stream_at(seeds, tokens).astype(np.float64) / _TWO64
