"""Eligibility rules that keep the radioactivity test honest.

Two rules make the scored increments i.i.d. under the null.  A tuple is
skipped whenever its exact window already occurs in the scoring context
(the prompt in closed mode; the prompt or any earlier start of the same
document in open mode).  Of the remaining tuples, only the first of each
distinct (window, token) pair is scored: a second would repeat the same
score increment under every key.  :func:`candidate_table` builds one
table of ``CANDIDATE`` rows and marks the blocked ones, and
:func:`canonical_dedup` drops them and the repeats; neither reads a key.
The filter restricts closed-mode scoring to windows likely present in
the suspect's training data.

Both functions sort one int64 key per row rather than structured fields.
:func:`_row_ids` gives each row of a few integer columns (a window's
tokens; a (window, token) pair) one int64 id that is equal for equal rows
and ascends as the rows do.  Its ids stay below ``2**63 / n`` for ``n``
rows, so ``id * n + row`` is a distinct int64 per row and one unstable
``np.sort`` of it orders the rows by id and, within an id, by row.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .hashing import TEMP_ELEMS, SecretKey, check_value, token_ids, window_hashes
from .schemes import WatermarkConfig

# perfbench/spans.py patches this name here; nothing in this module calls it
from .hashing import window_hash  # noqa: F401

#: Fixed public key for filter fingerprints (key-independent k-gram identity).
FILTER_KEY = SecretKey(0x100000001B3)

CLOSED = "closed"
OPEN = "open"

#: One row per scorable position: its document and position, the token
#: scored against the window before it, whether that window already sits in
#: the scoring context, and the window's row among the run's distinct
#: windows.  Aligned (32 bytes a row, ``window`` in ``blocked``'s padding),
#: so each field is read through an aligned view.  Rows are copied whole, by
#: ``take`` or ``compress``: indexing goes field by field (0.95 ms against
#: 0.10 ms for ``take`` of 90 % of a 26,190-row table of 40-byte rows).
CANDIDATE = np.dtype([("doc", np.int64), ("pos", np.int64), ("token", np.int64),
                      ("blocked", np.bool_), ("window", np.int32)], align=True)


_I64_MAX = np.iinfo(np.int64).max


def _ranks(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense rank of each value of a 1-d integer array, and the number of
    distinct values."""
    order = np.argsort(x)
    ordered = x[order]
    new = np.ones(len(x), bool)
    new[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty(len(x), np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks, int(np.count_nonzero(new))


def _row_ids(columns) -> np.ndarray:
    """One int64 id per row of equally long integer columns: equal rows
    get equal ids, and ids ascend as the rows do, first column first.

    Each column is a digit of radix ``max - min + 1`` of a base-radix code.
    Where the code could pass ``2**63 - 1``, the code so far is replaced by
    its dense rank and, if the column's radix exceeds the row count ``n``,
    the column by its dense rank too.  Ranks are below ``n``, so the code
    stays below ``n * n``; one last rank where needed keeps every id below
    ``2**63 / n``, so ``id * n + row`` never overflows int64 for ``n`` up
    to 3.0e9 rows (whose ids alone would take 24 GB).
    """
    n = len(columns[0])
    ids, bound = np.zeros(n, np.int64), 1
    if not n:
        return ids
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if bound * span > _I64_MAX and span > n:
            col, span = _ranks(col)
        else:
            col = (col - col.dtype.type(lo)).astype(np.int64)
        if bound * span > _I64_MAX:
            ids, bound = _ranks(ids)
        ids = ids * span + col
        bound *= span
    if bound * n > _I64_MAX:
        ids, _ = _ranks(ids)
    return ids


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows in (id, row) order, and whether each starts a run of equal ids,
    from one sort of the distinct keys ``id * n + row``."""
    n = len(ids)
    keys = np.sort(ids * n + np.arange(n))
    order = keys % n
    ordered = ids[order]
    head = np.ones(n, bool)
    head[1:] = ordered[1:] != ordered[:-1]
    return order, head


@dataclass
class FilterSet:
    """k-gram fingerprints restricting closed-model scoring: ``kgrams`` holds
    the sorted distinct ``FILTER_KEY`` hashes as a uint64 array."""

    kgrams: np.ndarray
    k: int

    def hits(self, windows: np.ndarray) -> np.ndarray:
        """Whether each row of an ``(n, k)`` window array is in the filter."""
        return np.isin(window_hashes(windows, FILTER_KEY), self.kgrams)

    def __contains__(self, window) -> bool:
        return bool(self.hits(np.asarray([window], dtype=np.int64))[0])

    def __len__(self) -> int:
        return len(self.kgrams)


def build_filter(corpus, k: int) -> FilterSet:
    """All distinct k-grams across documents; windows never span documents.
    ``k`` follows the key's rule, and token ids must be non-negative 64-bit
    integers (ConfigError otherwise)."""
    check_value("k", k, WatermarkConfig.rules["k"], {})
    docs = list(corpus)
    flat = token_ids(docs, 2**63)  # every non-negative int64 is below 2**63
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
    step = TEMP_ELEMS // k + 1  # a slice at a time keeps the temporaries small
    fps = np.sort(np.concatenate([np.zeros(0, np.uint64)] + [
        window_hashes(windows(at[i : i + step]), FILTER_KEY) for i in range(0, len(at), step)]))
    # distinct by comparing neighbours: a plain np.unique, which hashes its
    # input in NumPy 2.4, took 1.0 s on a million random uint64 where this
    # takes 0.02 s
    new = np.ones(len(fps), bool)
    new[1:] = fps[1:] != fps[:-1]
    return FilterSet(kgrams=fps[new], k=k)


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
    return FilterSet(kgrams=fps, k=k)


def canonical_dedup(cands: np.ndarray) -> np.ndarray:
    """Admitted rows of a ``CANDIDATE`` table, in the (doc, pos) order in
    which :func:`candidate_table` builds it.

    Blocked rows are dropped, and of the rest the first row of each
    distinct (window, token) pair is admitted.  The pairs are found by one
    sort of ``pair_id * m + row`` over the ``m`` eligible rows, where
    ``pair_id`` is the (window, token) pair's :func:`_row_ids` id; window
    ids are below ``2**31``, so no key can overflow.
    """
    eligible = np.flatnonzero(~cands["blocked"])
    order, head = _runs(_row_ids([cands["window"][eligible], cands["token"][eligible]]))
    return cands.take(eligible[np.sort(order[head])])


def candidate_table(tokens, lens, context_lens, k: int,
                    open_mode: bool) -> tuple[np.ndarray, np.ndarray]:
    """One ``CANDIDATE`` row per position of each document after a full
    window, in (doc, pos) order, and the run's ``(m, k)`` distinct windows.

    ``tokens`` are the documents joined into one int64 array and ``lens``
    their lengths.  ``token`` is the document's own next token and
    ``window`` the row of its window among the distinct ones.  A row is
    blocked when its window occurs within the first ``context_lens[d]``
    tokens of document ``d`` and, in open mode, at any earlier start.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    counts = np.maximum(lens - k, 0)
    n = int(counts.sum())
    cands = np.zeros(n, dtype=CANDIDATE)
    if not n:
        return cands, np.zeros((0, k), np.int64)
    doc = np.repeat(np.arange(len(lens)), counts)
    start = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    at = start + np.repeat(np.cumsum(lens) - lens, counts)  # in the joined tokens
    order, head = _runs(_row_ids([tokens[at + j] for j in range(k)]))
    # rows ascend by document and then by start, so in (window, row) order
    # the first row of each document in the window's run is the window's
    # first start there
    in_doc = doc[order]
    pair_head = head.copy()
    pair_head[1:] |= in_doc[1:] != in_doc[:-1]
    first_start = start[order[pair_head]][np.cumsum(pair_head) - 1]
    limit = np.repeat(np.asarray(context_lens, dtype=np.int64) - k + 1, counts)
    if open_mode:
        limit = np.maximum(limit, start)
    cands["doc"], cands["pos"], cands["token"] = doc, start + k, tokens[at + k]
    cands["window"][order] = np.cumsum(head) - 1
    cands["blocked"][order] = first_start < limit[order]
    return cands, tokens[at[order[head], None] + np.arange(k)]
