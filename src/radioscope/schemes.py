"""Watermark embedding and per-token scoring for the three schemes.

KGW: a seed-determined greenlist (fraction gamma of the vocabulary) gets a
logit bonus delta; scoring counts greenlist hits.  AK: the next token is
the argmax of R_v**(1/p_v) over a seed-determined uniform vector R;
scoring accumulates -ln(1 - R_token).  MPAC: a multi-bit variant of KGW
where the seed selects a message position and a vocabulary partition, and
the bias goes to the set encoding the message digit at that position.

Embedding and scoring work on arrays of window seeds (see
:func:`~radioscope.hashing.window_hashes`): KGW and MPAC raise logits
under a ``(seeds, V)`` mask (:func:`bias_logits`), and AK picks by a
masked argmin (:func:`aaronson_pick`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stats
from .hashing import (
    TEMP_ELEMS,
    ConfigError,
    SecretKey,
    at_least,
    check_rules,
    green_mask_batch,
    rank_below,
    rvalue_batch,
    stream_block,
    window_hashes,
)

# perfbench/spans.py patches these names here; nothing in this module calls them
from .hashing import derive_permutation, window_hash  # noqa: F401

KGW = "kgw"
AK = "ak"
MPAC = "mpac"

#: Largest double strictly below 1; caps R before -ln(1-R).
_R_CAP = 1.0 - 2.0**-53

#: Radix of MPAC message digits (two bits each): the vocabulary is cut into this many sets.
MPAC_RADIX = 4

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

    #: Each field's rule (see :func:`~radioscope.hashing.check_value`); the key checks itself.
    rules = {
        "scheme": lambda v, o: v in (KGW, AK, MPAC) or "be kgw, ak or mpac",
        "vocab_size": at_least(1),
        "k": lambda v, o: "be >= 1" if v < 1
        else v <= 255 or "be <= 255 (a filter file keeps k in one byte)",
        "gamma": lambda v, o: o["scheme"] != KGW or 0 < v < 1 or "lie in (0, 1) for kgw",
        "delta": lambda v, o: o["scheme"] == AK or v >= 0 or "be >= 0 for kgw and mpac",
        "temperature": lambda v, o: v is None or v > 0 or "be > 0",  # AK's
        "message": lambda v, o: o["scheme"] != MPAC or bool(v) and len(v) % 2 == 0
        and set(v) <= {"0", "1"} or "be an even number of bits for mpac",
    }

    def __post_init__(self):
        check_rules(self.rules, vars(self))

    @property
    def n_positions(self) -> int:
        """Number of r-ary message positions (b = n/2 at radix 4)."""
        return len(self.message) // 2

    def digits(self) -> list[int]:
        """Message as r-ary digits, two bits per digit, MSB first."""
        bits = self.message
        return [int(bits[2 * i]) * 2 + int(bits[2 * i + 1]) for i in range(len(bits) // 2)]

    def seed(self, window) -> int:
        """Seed of one window: a one-row call of :func:`~radioscope.hashing.window_hashes`."""
        if len(window) != self.k:
            raise ConfigError(f"window length {len(window)} != k={self.k}")
        return int(window_hashes([window], self.key)[0])


def _at_tokens(rows_of, seeds, tokens, vocab_size: int) -> np.ndarray:
    """``rows_of(seeds)[i, tokens[i]]`` for each i.  Each distinct seed's
    row is built once, in chunks of seeds that keep the ``(rows, V)``
    temporaries below ``TEMP_ELEMS``, and read by the tuples of that seed."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    tokens = np.asarray(tokens, dtype=np.intp)
    # tuples grouped by seed; each value is put back at its own tuple, so
    # the order within a group does not matter and no stable sort is needed
    by_seed = np.argsort(seeds)
    grouped = seeds[by_seed]
    head = np.ones(len(seeds), bool)
    head[1:] = grouped[1:] != grouped[:-1]
    distinct, starts = grouped[head], np.append(np.flatnonzero(head), len(seeds))
    label = np.cumsum(head) - 1  # distinct seed of each grouped tuple
    step = max(1, TEMP_ELEMS // vocab_size)
    parts = []
    for lo in range(0, len(distinct), step):
        a, b = starts[lo], starts[min(lo + step, len(distinct))]
        parts.append(rows_of(distinct[lo : lo + step])[label[a:b] - lo, tokens[by_seed[a:b]]])
    values = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int8)
    out = np.empty_like(values)
    out[by_seed] = values
    return out


def mpac_positions(seeds: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Message position each seed selects.

    The position is the first of the seed's 32-bit draws at stream slots
    0..7 that rejection sampling accepts, modulo b; when all eight are
    rejected (probability about ``(b / 2**32) ** 8``) it is the last draw.
    """
    b = cfg.n_positions
    draws = stream_block(seeds, 0, _MPAC_PARTITION_OFFSET) >> np.uint64(32)
    accepted = draws < np.uint64((2**32 // b) * b)
    accepted[:, -1] = True  # the last draw stands when all are rejected
    return (draws[np.arange(len(draws)), accepted.argmax(axis=1)] % np.uint64(b)).astype(np.intp)


def mpac_partitions(seeds: np.ndarray, vocab_size: int) -> np.ndarray:
    """Partition set of every token under each seed, ``(len(seeds), V)``.

    Tokens are ranked by their stream keys from slot 8 on (ties by id), and
    the ranks are cut into ``MPAC_RADIX`` near-equal runs, the longer ones
    first.
    """
    keys = stream_block(seeds, _MPAC_PARTITION_OFFSET, vocab_size)
    base, extra = divmod(vocab_size, MPAC_RADIX)
    sets = np.zeros(keys.shape, dtype=np.int8)
    for d in range(1, MPAC_RADIX):
        sets += ~rank_below(keys, d * base + min(d, extra))
    return sets


def bias_logits(seeds: np.ndarray, logits: np.ndarray, ids: np.ndarray,
                cfg: WatermarkConfig) -> np.ndarray:
    """``logits[i, j]`` plus delta where token ``ids[i, j]`` is raised under
    ``seeds[i]``: where it is in the greenlist (KGW) or in the partition set
    of the selected message digit (MPAC)."""
    if cfg.scheme == KGW:
        raised = green_mask_batch(seeds, cfg.gamma, cfg.vocab_size)
    elif cfg.scheme == MPAC:
        digits = np.array(cfg.digits())[mpac_positions(seeds, cfg)]
        raised = mpac_partitions(seeds, cfg.vocab_size) == digits[:, None]
    else:
        raise ConfigError(f"scheme {cfg.scheme!r} biases no logits")
    # one flat gather: row i's flags start at i * V
    rows = np.arange(0, raised.size, raised.shape[1])[:, None]
    return logits + cfg.delta * raised.reshape(-1).take(ids + rows)


def aaronson_pick(seeds: np.ndarray, p: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Column of each row's AK choice among tokens ``ids`` with probabilities ``p``.

    The choice is the argmax of ``R ** (1/p)``, i.e. the argmin of
    ``-ln R / p`` over the columns with ``p > 0``; ties go to the lowest
    column.
    """
    r = rvalue_batch(np.asarray(seeds, dtype=np.uint64)[:, None], ids)
    with np.errstate(divide="ignore"):
        cost = np.where(p > 0.0, -np.log(np.maximum(r, 1e-300)) / p, np.inf)
    return np.argmin(cost, axis=1)


def kgw_score_batch(seeds: np.ndarray, tokens: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Greenlist membership of each (seed, token) pair, 0/1."""
    return _at_tokens(lambda chunk: green_mask_batch(chunk, cfg.gamma, cfg.vocab_size),
                      seeds, tokens, cfg.vocab_size).astype(np.float64)


def ak_score_batch(seeds: np.ndarray, tokens: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Vectorized AK increments for (seed, token) pairs."""
    r = np.minimum(rvalue_batch(seeds, tokens), _R_CAP)
    return -np.log1p(-r)


def mpac_vote(seeds: np.ndarray, tokens: np.ndarray, cfg: WatermarkConfig,
              reference: str | None = None):
    """:func:`~radioscope.pipelines.mpac_extract`'s vote: each (seed, token) row
    votes at its seed's message position for its token's partition set."""
    b, v = cfg.n_positions, cfg.vocab_size
    votes = np.zeros((b, MPAC_RADIX), dtype=np.int64)
    digit = _at_tokens(lambda chunk: mpac_partitions(chunk, v), seeds, tokens, v)
    np.add.at(votes, (mpac_positions(seeds, cfg), digit), 1)
    decided, got = votes.any(axis=1), votes.argmax(axis=1)  # ties: lowest digit wins
    digits = [int(d) if ok else None for d, ok in zip(got, decided)]
    ref = np.array(list(reference if reference is not None else cfg.message), dtype=int)
    correct = (np.column_stack((got >> 1, got & 1)).ravel() == ref[: 2 * b])[decided.repeat(2)]
    return digits, (float(correct.mean()) if len(correct) else None)


def _kgw_log_tail(score: float, n: int, cfg: WatermarkConfig) -> float:
    return stats.log_binomial_pvalue(int(round(score)), n, cfg.gamma)


def _ak_log_tail(score: float, n: int, cfg: WatermarkConfig) -> float:
    return stats.log_gamma_pvalue(score, n)


#: Schemes with a radioactivity test: per-tuple score increments and the
#: natural-log p-value of a total score over n i.i.d. increments under H0.
DETECTORS = {
    KGW: (kgw_score_batch, _kgw_log_tail),
    AK: (ak_score_batch, _ak_log_tail),
}


def detector(cfg: WatermarkConfig) -> tuple:
    """``(score_fn, log_tail)`` of the config's scheme; ConfigError if it has none."""
    if cfg.scheme not in DETECTORS:
        raise ConfigError(f"scheme {cfg.scheme!r} has no radioactivity test; "
                          f"detection supports {', '.join(DETECTORS)}")
    return DETECTORS[cfg.scheme]


def score_batch(seeds: np.ndarray, tokens: np.ndarray, cfg: WatermarkConfig) -> np.ndarray:
    """Per-tuple score increments for the config's scheme."""
    return detector(cfg)[0](seeds, tokens, cfg)
