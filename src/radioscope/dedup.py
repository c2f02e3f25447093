"""Eligibility rules that keep the radioactivity test honest.

Two rules make the scored increments i.i.d. under the null.  A tuple is
skipped whenever its exact window already occurs in the scoring context
(the prompt in closed mode; the prompt or any earlier start of the same
document in open mode).  Of the remaining tuples, only the first of each
distinct (window seed, token) pair is scored: two tuples with the same
seed and token would repeat the same score increment.  Detection builds
one candidate table (``CANDIDATE`` rows) with :func:`candidate_table`,
which marks the blocked rows, and :func:`canonical_dedup` drops them and
the repeats.  The filter restricts closed-mode scoring to windows likely
present in the suspect's training data.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .hashing import ConfigError, SecretKey, window_hashes
from .models import _token_ids

# perfbench/spans.py patches this name here; nothing in this module calls it
from .hashing import window_hash  # noqa: F401

#: Fixed public key for filter fingerprints (key-independent k-gram identity).
FILTER_KEY = SecretKey(0x100000001B3)

#: Window elements hashed at once by :func:`build_filter`.
_SLICE_ELEMS = 1 << 16

CLOSED = "closed"
OPEN = "open"

#: One row per scorable position: its document and position, the seed of
#: the window before it, the token scored against that window, and whether
#: the window already sits in the scoring context.
CANDIDATE = np.dtype([("doc", np.int64), ("pos", np.int64), ("seed", np.uint64),
                      ("token", np.int64), ("blocked", np.bool_)])


class InputIntegrityError(ValueError):
    """Duplicate ordering keys in a candidate table."""


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row of a 2-d integer array, in sorted
    row order, and each row's label: the place of its row in that order.
    The rows are sorted by a stable ``np.lexsort``, first column first."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    label = np.empty(len(a), np.intp)
    label[order] = np.cumsum(new) - 1
    return order[new], label


@dataclass
class FilterSet:
    """k-gram fingerprints restricting closed-model scoring: ``kgrams`` holds
    the sorted distinct ``FILTER_KEY`` hashes as a uint64 array."""

    kgrams: np.ndarray
    k: int
    source: str = ""

    def hits(self, windows: np.ndarray) -> np.ndarray:
        """Whether each row of an ``(n, k)`` window array is in the filter;
        each distinct window is hashed once."""
        first, label = _unique_rows(windows)
        return np.isin(window_hashes(windows[first], FILTER_KEY), self.kgrams)[label]

    def __contains__(self, window) -> bool:
        return bool(self.hits(np.asarray([window], dtype=np.int64))[0])

    def __len__(self) -> int:
        return len(self.kgrams)


def build_filter(corpus, k: int, source: str = "") -> FilterSet:
    """All distinct k-grams across documents; windows never span documents.
    Token ids must be non-negative 64-bit integers (ConfigError otherwise)."""
    if not 1 <= k <= 255:  # the file keeps k in one byte
        raise ValueError(f"filter window k must be in 1..255, got {k}")
    docs = list(corpus)
    try:
        flat = _token_ids(docs, 2**63)  # every non-negative int64 is below 2**63
    except ValueError as exc:
        raise ConfigError("window token ids must be non-negative integers "
                          f"that fit in int64 ({exc})") from None
    ends = np.cumsum([len(doc) for doc in docs], dtype=np.int64)
    starts = max(len(flat) - k + 1, 0)  # windows of the joined tokens
    # those that start fewer than k tokens before a document's end span two
    spans = (ends[:, None] - np.arange(1, k)).ravel()
    spans = spans[(spans >= 0) & (spans < starts)]
    lo = int(flat.min(initial=0))
    radix = int(flat.max(initial=0)) - lo + 1
    if radix**k <= np.iinfo(np.int64).max:
        # a window as a base-radix number, -1 where it spans documents:
        # the distinct numbers, sorted, are the distinct windows, and each
        # distinct k-gram is hashed once, however often it occurs
        code = flat[:starts] - lo
        for j in range(1, k):
            code *= radix
            code += flat[j : j + starts]
            code -= lo
        code[spans] = -1
        code.sort()
        new = code >= 0
        new[1:] &= code[1:] != code[:-1]
        at = code[new]
        place = radix ** np.arange(k - 1, -1, -1)

        def windows(part):
            return part[:, None] // place % radix + lo
    else:
        # no int64 number per window: every window that stays inside its
        # document is hashed, and repeated hashes are dropped below
        at = np.delete(np.arange(starts), spans)

        def windows(part):
            return flat[part[:, None] + np.arange(k)]
    step = _SLICE_ELEMS // k + 1  # a slice at a time keeps the temporaries small
    fps = np.sort(np.concatenate([np.zeros(0, np.uint64)] + [
        window_hashes(windows(at[i : i + step]), FILTER_KEY) for i in range(0, len(at), step)]))
    # distinct by comparing neighbours: a plain np.unique, which hashes its
    # input in NumPy 2.4, took 1.0 s on a million random uint64 where this
    # takes 0.02 s
    new = np.ones(len(fps), bool)
    new[1:] = fps[1:] != fps[:-1]
    return FilterSet(kgrams=fps[new], k=k, source=source)


_FILTER_MAGIC = b"RSF1"
_FILTER_HEADER = struct.Struct("<4sBQ")


def save_filter(phi: FilterSet, path) -> None:
    """Filter file: magic, k (1 byte), count (8 LE), sorted u64 fingerprints."""
    fps = np.sort(np.asarray(phi.kgrams, dtype=np.uint64)).astype("<u8")
    with open(path, "wb") as f:
        f.write(_FILTER_HEADER.pack(_FILTER_MAGIC, phi.k, len(fps)))
        f.write(fps.tobytes())


def load_filter(path) -> FilterSet:
    """Read a filter file; ValueError naming ``path`` if it is not one, found
    from the header and the file's length before any fingerprint is read."""
    with open(path, "rb") as f:
        head = f.read(_FILTER_HEADER.size)
        if len(head) < _FILTER_HEADER.size or head[:4] != _FILTER_MAGIC:
            raise ValueError(f"{path}: not a filter file (bad magic or short "
                             f"header {head[:4]!r})")
        _, k, count = _FILTER_HEADER.unpack(head)
        size = _FILTER_HEADER.size + 8 * count
        if k == 0 or os.fstat(f.fileno()).st_size != size:
            raise ValueError(f"{path}: corrupt filter file (k = {k}; {count} "
                             f"fingerprints need {size} bytes)")
        fps = np.frombuffer(f.read(8 * count), dtype="<u8").astype(np.uint64)
    return FilterSet(kgrams=fps, k=k, source=str(path))


def canonical_dedup(cands: np.ndarray) -> np.ndarray:
    """Admitted rows of a ``CANDIDATE`` table, in (doc, pos) order.

    Rows may come in any order (e.g. from parallel shards); admission
    happens in (doc, pos) order, so the admitted set does not depend on
    how the collection was split.  Blocked rows are dropped, and of the
    rest the first row of each distinct (seed, token) pair is admitted.
    """
    ordered = cands[np.lexsort((cands["pos"], cands["doc"]))]
    repeated = np.flatnonzero((ordered["doc"][1:] == ordered["doc"][:-1])
                              & (ordered["pos"][1:] == ordered["pos"][:-1]))
    if len(repeated):
        row = ordered[repeated[0]]
        raise InputIntegrityError(
            f"duplicate ordering key {(int(row['doc']), int(row['pos']))}")
    eligible = ordered[~ordered["blocked"]]
    # a stable sort keeps each (seed, token) run in (doc, pos) order
    by_pair = np.lexsort((eligible["token"], eligible["seed"]))
    seed, token = eligible["seed"][by_pair], eligible["token"][by_pair]
    first = np.ones(len(by_pair), bool)
    first[1:] = (seed[1:] != seed[:-1]) | (token[1:] != token[:-1])
    return eligible[np.sort(by_pair[first])]


def candidate_table(docs, context_lens, k: int, key: SecretKey,
                    open_mode: bool) -> np.ndarray:
    """One ``CANDIDATE`` row per position of each document after a full window.

    ``token`` is the document's own next token and ``seed`` is the window's
    hash under ``key``, computed once per distinct window of the run, for
    all of them at once.  A row is blocked when its
    window occurs within the first ``context_lens[d]`` tokens of document
    ``d`` and, in open mode, also when it occurs at any earlier start.
    """
    arrays = [np.asarray(doc, dtype=np.int64) for doc in docs]
    counts = np.array([max(len(a) - k, 0) for a in arrays], dtype=np.int64)
    cands = np.zeros(int(counts.sum()), dtype=CANDIDATE)
    if not len(cands):
        return cands
    grams = np.concatenate([np.lib.stride_tricks.sliding_window_view(a[:-1], k)
                            for a, n in zip(arrays, counts) if n])
    doc = np.repeat(np.arange(len(arrays)), counts)
    start = np.arange(len(doc)) - np.repeat(np.cumsum(counts) - counts, counts)
    first, window = _unique_rows(grams)
    seeds = window_hashes(grams[first], key)
    # starts ascend within a document, so the first index of each
    # (document, window) pair is the window's first start in that document
    _, first_in_doc, inverse = np.unique(doc * len(first) + window,
                                         return_index=True, return_inverse=True)
    limit = np.repeat(np.asarray(context_lens, dtype=np.int64) - k + 1, counts)
    if open_mode:
        limit = np.maximum(limit, start)
    cands["doc"], cands["pos"], cands["seed"] = doc, start + k, seeds[window]
    cands["token"] = np.concatenate([a[k:] for a in arrays])
    cands["blocked"] = start[first_in_doc][inverse] < limit
    return cands
