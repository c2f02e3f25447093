"""Eligibility rules that keep the radioactivity test honest.

Two rules make the scored increments i.i.d. under the null: each
(k+1)-tuple is scored at most once, and a tuple is skipped whenever its
window already occurs in the scoring context (the prompt in closed mode,
the earlier attention span in open mode).  The tape records what has been
admitted; the filter restricts closed-mode scoring to windows likely
present in the suspect's training data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .hashing import SecretKey, extend_hash, window_hash

#: Fixed public key for filter fingerprints (key-independent k-gram identity).
FILTER_KEY = SecretKey(0x100000001B3)

#: Default open-mode attention span for remote suspects, in tokens.
DEFAULT_SPAN = 2048

CLOSED = "closed"
OPEN = "open"


class InputIntegrityError(ValueError):
    """Duplicate ordering keys in a candidate stream."""


@dataclass
class Tape:
    """De-duplication memory for one detection run."""

    mode: str = CLOSED
    granularity: str = "k1"  # "k1": distinct (k+1)-tuples; "k": distinct windows
    seen: set = field(default_factory=set)

    def fingerprint(self, window, token, key: SecretKey) -> int:
        h = window_hash(window, key)
        if self.granularity == "k":
            return h
        return extend_hash(h, token, key)


def _window_occurs(window, tokens) -> bool:
    k = len(window)
    w = tuple(window)
    return any(tuple(tokens[i : i + k]) == w for i in range(len(tokens) - k + 1))


def tape_admit(window, token, local_context, tape: Tape, key: SecretKey) -> bool:
    """Admit a (window, token) tuple, recording it on success.

    ``local_context`` is the prompt (closed mode) or the tokens preceding
    the current position within the attention span (open mode); the tuple
    is rejected if the window occurs anywhere in it.
    """
    fp = tape.fingerprint(window, token, key)
    if fp in tape.seen:
        return False
    if _window_occurs(window, local_context):
        return False
    tape.seen.add(fp)
    return True


@dataclass
class FilterSet:
    """Set of k-gram fingerprints restricting closed-model scoring."""

    kgrams: set
    k: int
    source: str = ""

    def __contains__(self, window) -> bool:
        return window_hash(window, FILTER_KEY) in self.kgrams

    def __len__(self) -> int:
        return len(self.kgrams)


def build_filter(corpus, k: int, source: str = "") -> FilterSet:
    """All distinct k-grams across documents; windows never span documents."""
    if k < 1:
        raise ValueError("k must be >= 1")
    windows = set()
    for tokens in corpus:
        windows.update(zip(*(tokens[i:] for i in range(k))))
    # each distinct k-gram is hashed once, however often it occurs
    return FilterSet(kgrams={window_hash(w, FILTER_KEY) for w in windows},
                     k=k, source=source)


_FILTER_MAGIC = b"RSF1"


def save_filter(phi: FilterSet, path) -> None:
    """Filter file: magic, k (1 byte), count (8 LE), sorted u64 fingerprints."""
    fps = sorted(phi.kgrams)
    with open(path, "wb") as f:
        f.write(_FILTER_MAGIC)
        f.write(struct.pack("<B", phi.k))
        f.write(struct.pack("<Q", len(fps)))
        f.write(struct.pack(f"<{len(fps)}Q", *fps))


def load_filter(path) -> FilterSet:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _FILTER_MAGIC:
            raise ValueError(f"not a filter file: bad magic {magic!r}")
        (k,) = struct.unpack("<B", f.read(1))
        (count,) = struct.unpack("<Q", f.read(8))
        fps = struct.unpack(f"<{count}Q", f.read(8 * count))
    return FilterSet(kgrams=set(fps), k=k, source=str(path))


@dataclass(frozen=True)
class Candidate:
    """One scorable tuple with its provenance and eligibility context."""

    doc_id: int
    pos: int
    window: tuple
    token: int
    context_blocked: bool = False  # window occurs in prompt / earlier span


def canonical_dedup(candidates, tape: Tape, key: SecretKey) -> list[Candidate]:
    """Two-phase de-duplication with a deterministic admission order.

    Candidates may be collected in any order (e.g. from parallel shards);
    admission happens in (doc_id, pos) order, so the eligible set does not
    depend on how the collection was parallelized.
    """
    ordered = sorted(candidates, key=lambda c: (c.doc_id, c.pos))
    for a, b in zip(ordered, ordered[1:]):
        if (a.doc_id, a.pos) == (b.doc_id, b.pos):
            raise InputIntegrityError(f"duplicate ordering key {(a.doc_id, a.pos)}")
    admitted = []
    for cand in ordered:
        if cand.context_blocked:
            continue
        fp = tape.fingerprint(cand.window, cand.token, key)
        if fp in tape.seen:
            continue
        tape.seen.add(fp)
        admitted.append(cand)
    return admitted
