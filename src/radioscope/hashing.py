"""Keyed hashing of watermark windows and derivation of pseudo-random objects.

Every random decision made at watermark time (greenlists, R-vectors,
multi-bit partitions) is a deterministic function of a 64-bit window seed.
The seed comes from a keyed linear recurrence over the window's token ids;
the expansion into uniform 64-bit values uses the splitmix64 output
function applied to a counter stream, which gives random access to any
stream position and vectorizes cleanly across seeds.

The library runs the array functions: :func:`window_hashes` hashes a batch
of windows, :func:`window_table` every window over a set of tokens,
:func:`stream_block` and :func:`rvalue_batch` expand seeds, and
:func:`rank_below` ranks each row of stream keys, which defines greenlists
and MPAC partitions.  :func:`stream_value` is one value of the stream on
plain Python ints; :func:`derive_run_key` runs it, and tests pin the
array expansion to it.

Two reference forms stay here although the pipeline does not run them:
:func:`window_hash`, the scalar recurrence on plain Python ints, and
:func:`derive_permutation`, the greenlist as a full permutation.  Tests
pin :func:`window_hashes` and :func:`green_mask_batch` to them, the loop
oracles under ``tests/`` import them, and the benchmark's layer timers
patch them by name until those timers move into the library.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
MASK32 = 0xFFFFFFFF
#: Modulus of the window-hash recurrence (2**64 - 1, not 2**64).
HASH_MOD = 0xFFFFFFFFFFFFFFFF

# splitmix64 constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_TWO64 = float(2**64)

#: Elements of one ``(rows, V)`` or ``(rows, k)`` temporary: batched code
#: builds its rows this many elements at a time (512 rows at V = 128), so
#: the temporaries add little to peak memory.
TEMP_ELEMS = 1 << 16


class ConfigError(ValueError):
    """Invalid watermark configuration (key, window, parameter or token)."""


def at_least(floor, why: str = ""):
    """The rule of a value that must be ``>= floor``; ``why`` follows the bound."""
    return lambda v, others: v >= floor or f"be >= {floor}{why}"


def check_value(name: str, value, rule, others) -> None:
    """Raise ``ConfigError("<name> must <what>, got <value>")`` unless
    ``rule(value, others)`` is True.  A rule gives True for a value it
    accepts, else what the value must do ("be >= 1"); ``others`` maps the
    other fields of the same object, or keys of the same file, to their
    values.  A list is checked item by item and shown whole."""
    for item in value if isinstance(value, list) else [value]:
        if (must := rule(item, others)) is not True:
            raise ConfigError(f"{name} must {must}, got {value}")


def check_rules(rules: dict, values) -> None:
    """:func:`check_value` for each value of ``values`` that ``rules`` names, in table order."""
    for name, rule in rules.items():
        check_value(name, values[name], rule, values)


def token_ids(docs, vocab_size: int, name="document {}".format, lead: int = 0,
              dtype=np.int64) -> np.ndarray:
    """The tokens of ``docs``, joined, after ``lead`` zeros, as ``dtype``,
    which must hold every id below ``vocab_size``.

    ``docs`` is a list of token lists or a 2-D integer array, one document
    a row, which is copied straight into the result.  ``struct`` packs only
    integers that fit in int64, which is as fast as ``np.fromiter`` and,
    unlike it, refuses 2.5 or "2" (but not a bool).  A token that is not an
    integer id below ``vocab_size`` is refused with a ``ConfigError`` naming
    its document d as ``name(d)`` and its position; an array that holds one
    is read as its lists, so it is refused in the same words.
    """
    if isinstance(docs, np.ndarray) and docs.ndim == 2:
        if docs.dtype.kind in "iu" and (
                not docs.size or 0 <= docs.min() and docs.max() < vocab_size):
            ids = np.zeros(lead + docs.size, dtype)
            ids[lead:] = docs.ravel()
            return ids
        docs = docs.tolist()
    lens = [len(doc) for doc in docs]
    ends = np.cumsum(lens, dtype=np.int64)
    ids = np.zeros(lead + sum(lens), np.int64)
    try:  # packed in place: no copy of the tokens besides the array
        for doc, end in zip(docs, ends.tolist()):
            struct.pack_into(f"{len(doc)}q", ids, 8 * (lead + end - len(doc)), *doc)
    except (struct.error, TypeError):  # a token that is not an int64: the scan names it
        ids = None
    if (ids is None or ids.min(initial=0) < 0 or ids.max(initial=0) >= vocab_size
            or _holds_bool(docs, ids[lead:], ends)):
        for d, doc in enumerate(docs):
            for pos, tok in enumerate(doc):
                if type(tok) is bool or not isinstance(tok, (int, np.integer)):
                    raise ConfigError(f"{name(d)}: token {tok!r} at position {pos} "
                                      "is not an integer")
                if not 0 <= tok < vocab_size:
                    raise ConfigError(f"{name(d)}: token {tok} at position {pos} "
                                      "out of vocabulary")
    return ids.astype(dtype, copy=False)


def _holds_bool(docs, ids: np.ndarray, ends: np.ndarray) -> bool:
    """Whether a token of ``docs``, packed as ``ids`` with each document's
    end in ``ends``, is a bool.  A bool packs as 0 or 1, so only the tokens
    packed as those are read, each found in its document by the ends."""
    at = np.flatnonzero(ids <= 1)
    doc = ends.searchsorted(at, side="right")
    pos = at - np.append(0, ends)[doc]
    return any(type(docs[d][p]) is bool for d, p in zip(doc.tolist(), pos.tolist()))


@dataclass(frozen=True)
class SecretKey:
    """Multiplier of the window-hash recurrence.

    ``s = 0`` and ``s = 2**64 - 1`` (0 modulo ``HASH_MOD``) would hash every
    window to its last token, so both are rejected at construction.  Some
    accepted keys are still weak: ``s = 1`` hashes a window to the sum of
    its tokens, ignoring their order, ``s = 2**64 - 2`` (-1 modulo
    ``HASH_MOD``) to their alternating sum, and ``s = 2`` merges (a, b)
    with (a + 1, b - 2).  Detection refuses a key that hashes two windows
    of its text to one seed; generation still takes it.  No key moves the
    seed of a window whose first k - 1 tokens are 0: the recurrence starts
    at ``h = 0``, so (0, ..., 0, b) hashes to b under every key, and across
    many keys on one text such rows shift the mean z-score under H0.
    """

    s: int

    def __post_init__(self):
        if not 1 <= self.s < HASH_MOD:
            # the value is left out: it would carry a mistyped key into logs
            raise ConfigError("secret key must be in [1, 2**64-2]")

    def fingerprint(self) -> str:
        """Truncated digest safe for logs and manifests; never the raw key."""
        import hashlib

        return hashlib.sha256(self.s.to_bytes(8, "little")).hexdigest()[:12]

    def __repr__(self) -> str:  # keep raw keys out of tracebacks and logs
        return f"SecretKey(fingerprint={self.fingerprint()})"


def derive_run_key(master_seed: int, run_index: int) -> SecretKey:
    """Independent per-run secret key from a master seed."""
    return SecretKey(stream_value(master_seed, run_index) % HASH_MOD or 1)


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


def _add_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` modulo ``2**64 - 1``: the carry out of bit 63 is added back."""
    s = a + b
    s += s < a
    return s


def _mul_mod(h: np.ndarray, s: int) -> np.ndarray:
    """``h * s`` modulo ``2**64 - 1``: in 32-bit limbs, ``h1 s1 + h0 s0`` plus the
    cross products times ``2**32``, which rotates them by 32 bits (``2**64 = 1``)."""
    s0, s1 = np.uint64(s & MASK32), np.uint64(s >> 32)
    low, half = np.uint64(MASK32), np.uint64(32)
    h0, h1 = h & low, h >> half
    a, b = h1 * s0, h0 * s1
    cross = _add_mod((a << half) | (a >> half), (b << half) | (b >> half))
    return _add_mod(_add_mod(h1 * s1, h0 * s0), cross)


def window_hashes(windows, key: SecretKey) -> np.ndarray:
    """:func:`window_hash` of each row of an ``(n, k)`` array of token ids.

    The hash is linear: a window's seed is the sum, modulo ``2**64 - 1``, of
    its tokens' seeds, each followed by the j zeros after it in the window.
    When ``k * (largest token + 1)`` entries fit ``TEMP_ELEMS``, table j
    maps token x to that seed, ``x * s**j``, and a window sums one entry
    per table; wider tokens run the recurrence.  A sum of ``2**64 - 1``, the
    other form of 0, is mapped to 0: both give :func:`window_hash`'s seeds.
    Table 0 does not depend on the key, so a window whose other tokens are
    all 0 hashes to its last token under every key.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] == 0:
        raise ConfigError("windows must be an (n, k) array with k >= 1")
    if windows.dtype.kind not in "iu" or (windows.size and windows.min() < 0):
        raise ConfigError("window token ids must be non-negative integers")
    n, k = windows.shape
    top = int(windows.max(initial=0)) + 1
    if k * top <= TEMP_ELEMS:
        table = np.arange(top, dtype=np.uint64)  # table 0: no zeros after x
        h = table[windows[:, k - 1]]
        for j in range(k - 2, -1, -1):
            table = _mul_mod(table, key.s)
            h = _add_mod(h, table[windows[:, j]])
    else:
        h = np.zeros(n, dtype=np.uint64)
        for x in windows.astype(np.uint64).T:
            h = _add_mod(_mul_mod(h, key.s), x)
    h[h == np.uint64(HASH_MOD)] = 0  # the other form of 0
    return h


def window_table(tokens, k: int, key: SecretKey) -> np.ndarray:
    """:func:`window_hash` of every k-window whose entries are drawn from
    ``tokens``, in lexicographic order, the first position most
    significant: ``len(tokens) ** k`` seeds.  The recurrence runs over all
    prefixes at once, each step one outer sum of the prefixes' seeds times
    ``s`` and the tokens; a seed of ``2**64 - 1`` is mapped to 0, as in
    :func:`window_hashes`."""
    if k < 1:
        raise ConfigError("window must contain at least one token")
    tokens = np.array(tokens, dtype=np.uint64)
    h = tokens
    for _ in range(k - 1):
        h = _add_mod(_mul_mod(h, key.s)[:, None], tokens).ravel()
    h[h == np.uint64(HASH_MOD)] = 0  # the other form of 0
    return h


def stream_value(seed: int, index: int) -> int:
    """The ``index``-th 64-bit value of the splitmix64 stream for ``seed``."""
    z = (seed + (index + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output function of each value, computed in place in ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


@lru_cache(maxsize=64)
def _golden_row(start: int, count: int) -> np.ndarray:
    """``(start+1 .. start+count) * GOLDEN`` modulo ``2**64``, read-only."""
    row = np.arange(start + 1, start + count + 1, dtype=np.uint64) * _U_GOLDEN
    row.flags.writeable = False
    return row


def stream_block(seeds: np.ndarray, start: int, count: int) -> np.ndarray:
    """Stream values ``start .. start+count-1`` for each seed.

    Returns a ``(len(seeds), count)`` uint64 array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _mix(seeds[:, None] + _golden_row(start, count))


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


def rank_below(keys: np.ndarray, g: int) -> np.ndarray:
    """Whether each column of each row ranks below ``g`` by (key, column).

    This is the first ``g`` columns of a stable argsort of the row, found
    from the row's ``g``-th smallest key with one ``np.partition``.  Keys
    equal to that threshold are ranked by column: the lowest of them fill
    the places left below ``g``.
    """
    n, v = keys.shape
    if g <= 0 or g >= v:
        return np.full((n, v), g > 0)
    threshold = np.partition(keys, g - 1, axis=1)[:, g - 1 : g]
    mask = keys <= threshold
    # each row has at least g keys at or below its threshold; more is a tie
    if np.count_nonzero(mask) > n * g:
        tied = np.flatnonzero(mask.sum(axis=1) > g)
        below = keys[tied] < threshold[tied]
        at = keys[tied] == threshold[tied]
        room = g - below.sum(axis=1, keepdims=True)
        mask[tied] = below | (at & (at.cumsum(axis=1) <= room))
    return mask


def green_mask_batch(seeds: np.ndarray, gamma: float, vocab_size: int) -> np.ndarray:
    """Greenlist membership of every token under each seed, ``(len(seeds), V)``.

    A token is green iff it ranks below ``floor(gamma * V)`` by (stream
    key, token id): the greenlist is the first ``floor(gamma * V)`` tokens
    of :func:`derive_permutation`.
    """
    keys = stream_block(seeds, 0, vocab_size)
    return rank_below(keys, int(gamma * vocab_size))


def rvalue_batch(seeds: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """R-vector entry at each (seed, token): the token's stream value over
    ``2**64``, without building full vectors (the arrays broadcast)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    idx = np.asarray(tokens, dtype=np.uint64) + np.uint64(1)
    return _mix(seeds + idx * _U_GOLDEN).astype(np.float64) / _TWO64
