"""Toy language models: a count-based n-gram teacher/student pair.

The teacher is an add-lambda n-gram model trained on a fixed-seed
Zipf-Markov synthetic source; it generates (optionally watermarked)
corpora.  The student is the same model class trained on a mixture of
watermarked and clean documents, standing in for a fine-tuned suspect.
Backoff is "stupid": the longest context with observed counts wins, down
to the unigram level.

Storage is KenLM's sorted-array layout.  Training counts, for each
context length L = 0..n, the sorted unique int64 codes of the observed
(L+1)-grams (base V, last token least significant, so a code is context
* V + token).  The model keeps each count once, in what its lookups read:
each level's sorted unique context codes and, indexed by one context id
over all levels, each context's CSR row offsets into one token-id and
one count array, row total and greedy token.  Counts, offsets and totals
are in the narrowest unsigned dtype that holds their largest value,
token ids and greedy tokens in the one that holds V - 1.  Continued
training and the checkpoint rebuild the level tables from them (an
order-3 model of 1M tokens at V = 128 holds 8.2 MB).  Every lookup, for
one context or every position of a corpus at once, codes a context as
base-(V+1) digits ``token + 1``, 0 where a token is missing, and gathers
its context id from one table of the model
(:meth:`NGramModel._context_ids`), made at the first lookup after
training in the narrowest dtype that holds an id: 4.3 MB in about 3 ms
for an order-3 model at V = 128.  Levels whose table would exceed
``_RESERVE_BYTES`` are binary-searched.  What is read of the context
found is read by its id.

A checkpoint is the magic ``RSM2`` followed by one ``np.savez`` archive
holding ``order``, ``vocab_size``, ``smoothing_lambda`` and, per level L,
``keys{L}`` and ``counts{L}``, each in the narrowest unsigned dtype that
holds it.  It is read with ``allow_pickle=False``, and its narrow arrays
are indexed one level at a time.

Generation samples through decode rows.  A state is the last
``max(order, k)`` tokens (``order`` without a watermark), coded as
base-(V+1) digits ``token + 1`` by the lookups' coder
(:meth:`NGramModel._locate`), which codes every prompt at once.  Nucleus
rows are built once per trained context, so a store never holds more
rows than the model has contexts.
The model keeps a store per temperature and nucleus p until it is
trained further, and no store refers to its model.  A step finds every
state's context with one lookup of the model.  A nucleus row is the kept
token ids by descending probability and their renormalized
probabilities, built from the context's counts without a per-row model
call.  Rows lie back to back in two flat arrays, in build order: ``idx``
holds every kept id, and ``q`` a row's kept values above its last kept
one, then that one, which every later kept entry equals bit for bit.  At
V = 128 about 90 % of the teacher's kept entries and 97 % of the
closed-h0 suspect's are such copies of the smoothed tail value.  A
context id finds its row by ``istart``, ``keep``, ``qlast`` (the place
of its last stored probability) and ``stored``.  Every read of ``q``, a
draw's head of ``_HEAD`` entries or a V-wide row, is one gather that
repeats the last stored entry, so past ``keep`` a row reads its last
value.  That is a probability, never negative, so the cumulative sums
past ``keep`` never fall below the row total: the count of sums at or
below a uniform, clipped to ``keep - 1``, is the one zero padding would
give.  Because the sums never fall, a draw first counts over the head,
and reads the V-wide row only when the head's last sum is still at or
below the uniform; ``np.add.accumulate`` adds in order, so the head's
sums are the row's first sums bit for bit.  Nucleus rows keep most of
their mass in their first entries, so few draws read past the head.
Once a store has built half its rows it builds all the others in one
pass, so at most twice the work and memory of the rows reached, and its
lookups never build again.

A watermarked state's row, built once per state, holds its context id
and the scheme's part: the cumulative biased probabilities (KGW, MPAC)
or the chosen token (AK), made from the nucleus rows with zeros past
``keep``.  A state's window seed is
:func:`~radioscope.hashing.window_hashes` of its last k tokens, and the
windows are embedded by the batched functions of
:mod:`radioscope.schemes`.  The rows first reached at a step are built
together, into two arrays in build order (see :class:`_WatermarkRows`).
When a row id for every state code and a seed for every k-window fit
``_RESERVE_BYTES``, 8 bytes each (V up to 2,047 at depth 2 and k = 2,
201 at depth 3 and k = 2, 160 at depth 3 and k = 3), the store is dense:
a step's rows are one gather, and its new states are found by one
``flatnonzero`` and deduplicated in the row-id table, where each
occurrence writes a placeholder below -1 and those that survive build
the rows.  The seed table is :func:`~radioscope.hashing.window_table` of
the digits, made in about 0.1 ms at V = 128 and k = 2, 13 ms at k = 3.
Above those vocabularies, rows are found through a dict.

Every body step of every document draws exactly one uniform, used or
not: AK rows and single-token nucleus rows ignore theirs.  Each document
draws its prompt, then its uniforms, in document order, so one document's
draws never depend on another's path, and one walk advances all
documents one position per step.  A state never loses its window, so
once all have one the walk stops splitting states into two groups.
"""

from __future__ import annotations

import json
import mmap
import zipfile
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .hashing import (TEMP_ELEMS, ConfigError, at_least, check_rules, token_ids, window_hashes,
                      window_table)
from .schemes import AK, WatermarkConfig, aaronson_pick, bias_logits


@dataclass(frozen=True)
class SamplingConfig:
    """Decoding knobs; defaults mirror the generation setup used throughout."""

    temperature: float = 0.8
    nucleus_p: float = 0.95
    max_tokens: int = 256
    seed: int = 0

    #: Each field's rule (see :func:`~radioscope.hashing.check_value`)
    rules = {
        "temperature": lambda v, o: v > 0 or "be > 0",
        "nucleus_p": lambda v, o: 0 < v <= 1 or "lie in (0, 1]",
        "max_tokens": at_least(0),
        "seed": at_least(0),
    }

    def __post_init__(self):
        check_rules(self.rules, vars(self))


#: Tokens per ``np.unique`` pass in :meth:`NGramModel.update`.  Chunks bound
#: the temporaries: order-3 training on the 2000 x 500 token array of
#: :func:`zipf_markov_corpus` at V = 128, or on its lists, peaks at 33 MB
#: (traced allocations; the model then holds 8.2 MB) in chunks of this
#: size and at 63 MB in a single pass.
_CHUNK_TOKENS = 1 << 18


def _order(v, others):
    if v < 1:
        return "be >= 1"
    bits = (others["vocab_size"] - 1).bit_length()
    return (v + 1) * bits <= 63 or (
        f"keep (order + 1) * bits(vocab_size - 1) <= 63 at vocab_size = {others['vocab_size']}")


class NGramModel:
    """Add-lambda n-gram model with stupid backoff.

    ``order`` is the context length: an order-n model conditions on up to n
    previous tokens.  Counts are kept for every context length from 0 to
    ``order``, so that unseen long contexts back off gracefully, each
    count once, in the narrow arrays the lookups read (:meth:`_index`).
    A (context, token) code is an int64, so
    ``(order + 1) * ceil(log2(vocab_size))`` may not exceed 63.  Every
    context is found through one table, made at the first lookup
    (:meth:`_context_ids`); training drops it with the nucleus stores.
    """

    #: Rules of ``order`` and ``smoothing_lambda`` (see :func:`~radioscope.hashing.check_value`)
    rules = {"order": _order, "smoothing_lambda": at_least(0)}

    def __init__(self, order: int, vocab_size: int, smoothing_lambda: float = 0.01):
        check_rules(self.rules, {"order": order, "vocab_size": vocab_size,
                                 "smoothing_lambda": smoothing_lambda})
        self.order = order
        self.vocab_size = vocab_size
        self.smoothing_lambda = smoothing_lambda
        empty = np.empty(0, np.int64)
        self._index([empty] * (order + 1), [empty] * (order + 1))

    def _index(self, keys: list, counts: list) -> None:
        """Index the tables of each context length L: ``keys[L]``, its
        sorted unique (L+1)-gram codes, and ``counts[L]``, their counts, of
        any integer dtype.  The index is all the model keeps of its counts
        (:meth:`_tables` rebuilds the tables): each level's sorted context
        codes and first context id, and by context id the CSR offsets into
        the token ids and counts, row totals and greedy tokens.  Counts,
        offsets and totals take the narrowest unsigned dtype that holds
        their largest value, token ids and greedy tokens the one that holds
        V - 1.  It takes the tables over, one level at a time: it reads the
        codes as int64 (in place if they are int64), forms totals and
        greedy keys in int64 and drops the level from both lists."""
        v = self.vocab_size
        # nucleus stores (see _nucleus) and context table (see _context_ids)
        # of earlier counts are dropped
        self._stores, self._context_of = {}, None
        lens = [len(level) for level in keys]
        n, top = sum(lens), max(int(level.max(initial=0)) for level in counts)
        self._cnt = np.empty(n, np.min_scalar_type(top))
        self._tok = np.empty(n, np.min_scalar_type(v - 1))
        self._ctx, starts, totals, greedy = [], [], [], []
        for length, end in enumerate(np.cumsum(lens)):
            rows = slice(end - lens[length], end)
            tok, cnt = self._tok[rows], self._cnt[rows]
            cnt[:] = counts[length]
            ctx = keys[length].astype(np.int64, copy=False)
            keys[length] = counts[length] = None
            np.remainder(ctx, v, out=tok, casting="unsafe")
            ctx //= v
            first = np.flatnonzero(np.diff(ctx, prepend=-1))
            # a sentinel above every code keeps each search result in range
            self._ctx.append(np.append(ctx[first], np.iinfo(np.int64).max))
            starts.append(first + rows.start)
            del ctx
            # row totals, and the row maximum of count * V + (V - 1 - token),
            # the highest count with the lowest token, in int64 (exact while
            # count * V + V - 1 < 2**63, which load_model checks)
            best = cnt.astype(np.int64)
            totals.append(np.add.reduceat(best, first))
            best *= v
            best += v - 1
            best -= tok
            greedy.append(v - 1 - np.maximum.reduceat(best, first) % v)
            del best
        # context id = the level's first id + its row; one more id past the
        # last level stands for the uniform row of an untrained model
        self._first = np.cumsum([0] + [len(level) for level in starts])
        # the uniform row is empty, with a total that divides harmlessly
        self._off = np.concatenate(starts + [[n] * 2]).astype(np.min_scalar_type(n))
        total = np.concatenate(totals + [[1]])
        self._total = total.astype(np.min_scalar_type(total.max()))
        self._greedy = np.concatenate(greedy + [[0]], dtype=self._tok.dtype, casting="unsafe")

    def _tables(self):
        """The tables :meth:`_index` was given, rebuilt from the index as
        int64 one level at a time: for each context length L, the sorted
        unique (L+1)-gram codes (base V, last token least significant, so
        context * V + token) and their counts."""
        v = self.vocab_size
        for length, ctx in enumerate(self._ctx):
            off = self._off[self._first[length] : self._first[length + 1] + 1].astype(np.int64)
            rows = slice(off[0], off[-1])
            keys = np.repeat(ctx[:-1], np.diff(off))
            keys *= v
            keys += self._tok[rows]
            yield keys, self._cnt[rows].astype(np.int64)

    def update(self, corpus) -> None:
        """Accumulate counts from an iterable of token-id documents, or
        from a 2-D integer array of them, one document a row.

        Each chunk of ``_CHUNK_TOKENS`` tokens is merged into the stored
        counts, so a second call continues training.
        """
        docs = corpus if isinstance(corpus, np.ndarray) and corpus.ndim == 2 else list(corpus)
        if not len(docs):
            raise ValueError("empty corpus")
        order, v = self.order, self.vocab_size
        lens = np.fromiter(map(len, docs), np.int64, len(docs))
        n = int(lens.sum())
        # ``order`` zeros in front give every token that many predecessors;
        # kept in the narrowest dtype that holds a token
        flat = token_ids(docs, v, lead=order, dtype=np.min_scalar_type(v - 1))
        # predecessors of each token within its own document, capped at
        # order, in the narrowest dtype that holds order
        depth = np.full(n, order, np.min_scalar_type(order))
        for j in range(order):
            depth[(np.cumsum(lens) - lens)[lens > j] + j] = j
        keys, counts = map(list, zip(*self._tables()))
        for lo in range(0, n, _CHUNK_TOKENS):
            hi = min(lo + _CHUNK_TOKENS, n)
            code = np.zeros(hi - lo, np.int64)
            for length in range(order + 1):
                code += flat[order + lo - length : order + hi - length] * np.int64(v**length)
                _add(keys, counts, length, code[depth[lo:hi] >= length])
        del flat, depth
        self._index(keys, counts)

    def _locate(self, tokens: np.ndarray, lens, doc: np.ndarray, pos: np.ndarray,
                depth: int | None = None):
        """Code (see :meth:`_context_ids`) of the last ``depth`` (by default
        ``order``) of document ``d``'s first ``p`` tokens, for each (d, p) of
        ``zip(doc, pos)``, where ``tokens`` are the documents joined as int64
        and ``lens`` their lengths: digit 0 where a token is missing or out
        of vocabulary.  The sampler codes its states, ``max(order, k)``
        tokens deep, the same way."""
        v, radix = self.vocab_size, self.vocab_size + 1
        depth = self.order if depth is None else depth
        dtype = np.int64 if radix**depth <= np.iinfo(np.int64).max else object
        # ``depth`` zeros in front keep every look-back index in range
        flat = np.concatenate([np.zeros(depth, np.int64), tokens])
        at = np.cumsum(np.append(depth, np.asarray(lens, np.int64)))[doc] + pos
        codes = np.zeros(len(pos), dtype)
        for back in range(1, depth + 1):
            digit = flat[at - back] + 1
            digit[(pos < back) | (digit <= 0) | (digit > v)] = 0
            codes += digit.astype(dtype, copy=False) * radix ** (back - 1)
        return codes

    def _context_ids(self, codes: np.ndarray) -> np.ndarray:
        """Id of the trained context each code backs off to.  A code holds
        a context's tokens as base-(V+1) digits ``token + 1``, newest least
        significant, and only its digits before the newest 0 (a missing
        token) count.  The first lookup after :meth:`_index` makes the
        table from the code of the last ``gathered`` tokens to the context
        id, level by level: one level fewer repeated under each leading
        digit, the level's contexts written over it.  A level whose table
        would exceed ``_RESERVE_BYTES`` is not gathered, and the levels
        from it up are searched, longest first."""
        v, radix, order = self.vocab_size, self.vocab_size + 1, self.order
        if self._context_of is None:
            table = np.full(1, self._first[-1], np.min_scalar_type(self._first[-1]))
            for length in range(order + 1):
                if length:
                    if radix**length * table.itemsize > _RESERVE_BYTES:
                        break
                    table = np.tile(table, radix)
                ctx = self._ctx[length][:-1]
                digits = np.zeros_like(ctx)
                for j in range(length):
                    digits += (ctx // v**j % v + 1) * radix**j
                table[digits] = self._first[length] + np.arange(len(ctx))
                self._gathered = length
            self._context_of = table
        ids = self._context_of[(codes % radix**self._gathered).astype(np.intp, copy=False)]
        if self._gathered < order:
            # levels[L]: base-V code of the last L tokens, -1 from the newest 0 digit on
            levels = [np.zeros(len(codes), np.int64)]
            for back in range(1, order + 1):
                digit = np.asarray(codes // radix ** (back - 1) % radix, np.int64)
                levels.append(np.where((levels[-1] >= 0) & (digit > 0),
                                       levels[-1] + (digit - 1) * v ** (back - 1), -1))
            left = np.arange(len(codes))  # codes without a searched context so far
            for length in range(order, self._gathered, -1):
                ctx, code = self._ctx[length], levels[length][left]
                found = ctx.searchsorted(code)
                hit = ctx[found] == code
                ids[left[hit]] = self._first[length] + found[hit]
                left = left[~hit]
        return ids

    def _distributions(self, ids: np.ndarray) -> np.ndarray:
        """The smoothed next-token probabilities of each context id, one row
        each: the context's counts scattered over lambda, divided by
        total + lambda * V; the uniform row where no context is trained."""
        v, lam = self.vocab_size, self.smoothing_lambda
        # signed, as the row starts below go negative
        lo, hi = (self._off[at].astype(np.intp) for at in (ids, ids + 1))
        width = hi - lo
        # the index of every count of the rows, row after row
        at = np.repeat(lo - (np.cumsum(width) - width), width) + np.arange(width.sum())
        p = np.full((len(ids), v), lam)
        p[np.repeat(np.arange(len(ids)), width), self._tok[at]] += self._cnt[at]
        p /= (self._total[ids] + lam * v)[:, None]
        p[ids == self._first[-1]] = 1.0 / v  # no context is trained
        return p

    def _nucleus(self, temperature: float, nucleus_p: float) -> NucleusRows:
        """The model's nucleus store for these knobs, kept until :meth:`_index`."""
        key = (temperature, nucleus_p)
        if key not in self._stores:
            self._stores[key] = NucleusRows(self, *key)
        return self._stores[key]

    def next_greedy(self, context) -> int:
        """Most likely next token after the longest trained suffix of
        ``context`` (ties toward the lowest id), whose tokens
        :func:`~radioscope.hashing.token_ids` checks as ``context``."""
        tokens = token_ids([context], self.vocab_size, "context".format)[-self.order :]
        n = len(tokens)
        codes = self._locate(tokens, [n], np.zeros(1, np.intp), np.array([n]))
        return self._greedy.item(self._context_ids(codes)[0])

    def greedy_at(self, tokens: np.ndarray, lens, doc: np.ndarray,
                  pos: np.ndarray) -> np.ndarray:
        """:meth:`next_greedy` of document ``d``'s first ``p`` tokens for each
        (d, p) of ``zip(doc, pos)``, where ``tokens`` are the documents
        joined as int64 and ``lens`` their lengths."""
        return self._greedy[self._context_ids(self._locate(tokens, lens, doc, pos))]

    def log_loss(self, tokens) -> float:
        """Total negative log-probability of a document."""
        toks = token_ids([list(tokens)], self.vocab_size)
        n = len(toks)
        ids = self._context_ids(self._locate(toks, [n], np.zeros(n, np.intp), np.arange(n)))
        p = self._distributions(ids)[np.arange(n), toks]
        # summed in token order, as a per-token loop would
        return -float(np.log(np.maximum(p, 1e-300)).cumsum()[-1]) if n else 0.0


def train_ngram(corpus, order: int, smoothing_lambda: float = 0.01,
                vocab_size: int = 256) -> NGramModel:
    """Train a fresh model on token lists or a 2-D token array (see
    :meth:`NGramModel.update`); call ``model.update`` again for continued
    training."""
    model = NGramModel(order, vocab_size, smoothing_lambda)
    model.update(corpus)
    return model


def _add(keys: list, counts: list, length: int, codes: np.ndarray) -> None:
    """Count ``codes`` into the int64 tables of context length ``length``,
    ``keys[length]`` and ``counts[length]``.  A code the table holds adds
    to its count; the others are written between the table's codes, into
    one new array per field, so no temporary outgrows the table."""
    new, cnt = np.unique(codes, return_counts=True)
    at = keys[length].searchsorted(new)
    miss = at == len(keys[length])
    miss[~miss] = keys[length][at[~miss]] != new[~miss]
    if miss.any():
        at += np.cumsum(miss) - miss  # each code's place among the merged ones
        old = np.ones(len(keys[length]) + np.count_nonzero(miss), bool)
        old[at[miss]] = False
        for table, fill in ((keys, new[miss]), (counts, 0)):
            merged = np.empty(len(old), np.int64)
            merged[old], merged[at[miss]] = table[length], fill
            table[length] = merged
    counts[length][at] += cnt


def _kept_sums(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum of the first ``keep[i]`` entries of each C-contiguous row ``i``,
    bit for bit ``np.add.reduce(rows[i, :keep[i]])``: the masked reduction
    hands each row's kept prefix, one contiguous run, to the pairwise loop
    that sums that prefix alone."""
    return np.add.reduce(rows, axis=1, where=np.arange(rows.shape[1]) < keep[:, None])


#: Bytes of rows a store reserves when it is made, or fewer at its bound; a
#: nucleus store reserves as many entries in each flat array as fit at one
#: probability and one id each.  The system backs only the pages rows are
#: written to (see :func:`_zeros`), and a store this small never copies:
#: the benchmark's largest, the closed-h0 suspect's nucleus rows (53,769
#: contexts, 4.7 million kept ids and 0.15 million stored probabilities,
#: 5.9 MB), fits.
_RESERVE_BYTES = 64 << 20

#: Cumulative sums a draw counts before it reads a whole row.  A draw
#: reads past them in about 1 of 20 closed-h0 completion steps and 1 of 6
#: KGW walk steps at V = 128.
_HEAD = 16


def _zeros(shape, dtype) -> np.ndarray:
    """``np.zeros(shape, dtype)`` in a private anonymous map of its own,
    whose pages the system backs only once written, and which goes back to
    the system when the array is dropped; an empty array is a plain one.

    It is for the one-shot arrays larger than malloc's mmap threshold: the
    decode-row stores and a corpus's uniforms.  ``np.zeros`` takes blocks
    below that threshold from the heap, and the threshold rises to the size
    of each mapped block freed, so later blocks of that size stay in the
    heap, which keeps what it grew.  Per-chunk temporaries, such as
    training's merged tables and code chunks, stay on the heap: a fresh
    map pays a page fault per page on every reuse."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    if not size:
        return np.zeros(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, size, access=mmap.ACCESS_COPY), dtype).reshape(shape)


class NucleusRows:
    """Nucleus rows of the trained contexts reached so far, for one model,
    temperature and p.

    A row is keyed by the id of the trained context a state backs off to
    (see :meth:`NGramModel._index`), so the store never holds more rows
    than the model has contexts, plus one (``bound``).  A row is its kept
    token ids by descending probability and their renormalized
    probabilities.  Rows lie back to back in the flat arrays ``idx`` and
    ``q``, in build order.  Context id ``c``'s ids start at ``istart[c]``
    and its ``keep[c]`` kept ones are all stored (0 while it is not
    built).  It stores ``stored[c]`` probabilities, ``m + 1``, where ``m``
    counts its kept values above its last: those values, then the last,
    at ``q[qlast[c]]``, which each later kept entry equals.  ``idx`` is
    read through a sliding window of width V, so gathering V-wide rows is
    one index; past ``keep`` such a row holds later rows' ids.  ``q`` is
    read by one gather that repeats the last stored entry, ``_HEAD``
    entries wide for a draw's head, which is all most draws need
    (:meth:`draw`), or V wide (:meth:`_q_rows`).  ``nbytes`` counts the
    entries written to both arrays.  Once half the rows are built, the
    rest are built at once.  The model keeps the store
    (:meth:`NGramModel._nucleus`), so the store holds no reference back:
    the calls that build rows get it.  A state finds its row's id through
    the model (:meth:`NGramModel._context_ids`), which :meth:`ready`
    builds.
    """

    def __init__(self, model: NGramModel, temperature: float, nucleus_p: float):
        v = self.vocab_size = model.vocab_size
        self.temperature = temperature
        self.nucleus_p = nucleus_p
        self.bound = bound = int(model._first[-1]) + 1
        # offsets into the flat arrays, 4 bytes each where every one fits
        offset = np.uint32 if (bound + 1) * v <= np.iinfo(np.uint32).max else np.intp
        self.istart, self.qlast = np.zeros(bound, offset), np.zeros(bound, offset)
        self.keep = np.zeros(bound, np.min_scalar_type(v))
        self.stored = np.zeros_like(self.keep)
        # row s is max(s - 1 - j, 0) for each j < V: how far entry j of a
        # row that stores s probabilities lies before its last stored one
        back = np.concatenate([np.arange(v - 1, 0, -1), np.zeros(v + 1, np.intp)])
        self._back = np.lib.stride_tricks.sliding_window_view(back, v)[::-1]
        self._columns = np.arange(v)
        self.n = self.size = self.qsize = 0  # rows built, ids and probabilities written
        self.q, self.idx = np.zeros(0), np.zeros(0, np.min_scalar_type(v - 1))
        reserve = max(v, _RESERVE_BYTES // (self.q.itemsize + self.idx.itemsize))
        self._fit(reserve, reserve)

    def _fit(self, q_entries: int, idx_entries: int) -> None:
        """Room for ``q_entries`` probabilities and ``idx_entries`` token
        ids.  A short array doubles, or grows to the entries asked if that
        is more, up to every row at full width, plus the V ids the last
        row's window reads; it is zero past the entries written."""
        if q_entries <= len(self.q) and idx_entries <= len(self.idx):
            return
        v = self.vocab_size
        for name, entries, written, pad in (("q", q_entries, self.qsize, 0),
                                            ("idx", idx_entries, self.size, v)):
            old = getattr(self, name)
            if entries > len(old):
                grown = _zeros(min(self.bound * v + pad, max(entries, 2 * len(old))),
                               old.dtype)
                grown[:written] = old[:written]
                setattr(self, name, grown)
        self._idx_rows = np.lib.stride_tricks.sliding_window_view(self.idx, v)

    def ready(self, model: NGramModel, ids: np.ndarray) -> np.ndarray:
        """``ids``, with the rows of the ids first reached built; once half
        the store's rows are built, the rest are built too."""
        if self.n < self.bound:
            new = ids[self.keep[ids] == 0]
            if len(new):
                self._extend(model, np.unique(new))
                if 2 * self.n >= self.bound:
                    self._extend(model, np.flatnonzero(self.keep == 0))
        return ids

    def _extend(self, model: NGramModel, ids: np.ndarray) -> None:
        """Build the rows of ``ids`` and append their stored probabilities
        and kept ids."""
        v = self.vocab_size
        batch = max(1, TEMP_ELEMS // v)
        for lo in range(0, len(ids), batch):
            part = ids[lo : lo + batch]
            q, order, keep, stored = self._build(model, part)
            end, qend = self.size + int(keep.sum()), self.qsize + int(stored.sum())
            self._fit(qend, end + v)
            self.q[self.qsize : qend] = q[self._columns < stored[:, None]]
            self.idx[self.size : end] = order[self._columns < keep[:, None]]
            self.istart[part] = self.size + np.cumsum(keep) - keep
            self.qlast[part] = self.qsize + np.cumsum(stored) - 1
            self.keep[part], self.stored[part] = keep, stored
            self.size, self.qsize, self.n = end, qend, self.n + len(part)

    def _build(self, model: NGramModel, ids: np.ndarray) -> tuple:
        """Probabilities by descending size, token ids, kept count and
        stored count of each context id's row; entries past the kept ones
        are not part of it, and those from the stored count on equal the
        last stored one."""
        v = self.vocab_size
        q = model._distributions(ids)
        np.maximum(q, 1e-300, out=q)
        np.log(q, out=q)
        q /= self.temperature
        q -= np.maximum.reduce(q, axis=1, keepdims=True)
        np.exp(q, out=q)
        q /= np.add.reduce(q, axis=1, keepdims=True)
        order = (-q).argsort(axis=1, kind="stable")
        q = q[np.arange(len(q))[:, None], order]
        keep = np.add.reduce(q.cumsum(axis=1) < self.nucleus_p, axis=1) + 1
        np.minimum(keep, v, out=keep)
        q /= _kept_sums(q, keep)[:, None]
        # the row descends, so its first entry at or below its last kept one
        # follows every entry above it
        above = (q <= q[np.arange(len(q)), keep - 1][:, None]).argmax(axis=1)
        return q, order, keep, above + 1

    def _q_rows(self, last: np.ndarray, stored: np.ndarray, width: int | None = None):
        """The first ``width`` (by default V) probabilities of the rows whose
        last stored entry is ``q[last]`` and that store ``stored``: each
        stored entry, then the last one repeated, which up to ``keep`` is
        the row's own value."""
        return self.q.take(last[:, None] - self._back[stored, :width])

    def kept(self, ids: np.ndarray) -> tuple:
        """V-wide rows of ``ids``: the probabilities, 0 past the kept ones,
        the token ids, which past them are other rows', and the kept counts."""
        keep = self.keep[ids]
        q = self._q_rows(self.qlast[ids], self.stored[ids])
        q *= self._columns < keep[:, None]  # finite, so exactly 0 past keep
        return q, self._idx_rows[self.istart[ids]], keep

    @property
    def nbytes(self) -> int:
        """Bytes of the probabilities and token ids written to ``q`` and ``idx``."""
        return self.qsize * self.q.itemsize + self.size * self.idx.itemsize

    def sample(self, ids: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Kept id of each row ``ids`` at uniform ``u``."""
        last, stored = self.qlast[ids], self.stored[ids]
        return self.draw(ids, self._q_rows(last, stored, _HEAD).cumsum(axis=1), u,
                         lambda past: self._q_rows(last[past], stored[past]).cumsum(axis=1))

    def draw(self, ids: np.ndarray, head: np.ndarray, u: np.ndarray, full) -> np.ndarray:
        """Kept id of each row ``ids`` at the count of its cumulative sums
        at or below ``u``, clipped to its kept ids.  ``head`` holds each
        row's first sums and ``full(sel)`` the V-wide sums of rows ``sel``,
        which may run on past the kept entries so long as they do not fall.
        So no sum after a head's last is at or below ``u`` when that one is
        above it, and only the other rows are read in full.  Within a head
        the count is the place of the first sum above ``u``; a head with
        none is a row read in full."""
        j = (head <= u[:, None]).argmin(axis=1)
        past = np.flatnonzero(head[:, -1] <= u)
        if len(past):
            j[past] = (full(past) <= u[past, None]).sum(axis=1)
        return self.idx[self.istart[ids] + np.minimum(j, self.keep[ids] - 1)]


class _WatermarkRows:
    """Decode rows of the states that hold a full watermark window.

    A state is coded by its last ``max(order, k)`` tokens.  Its row holds
    the id of its context in the nucleus store (``base``) and the scheme's
    ``part``: the token it picks (AK) or the cumulative biased
    probabilities over the kept ids (KGW and MPAC, which past ``keep``
    repeats the total).  Each is one array, filled in build order, so
    reading rows is one index.  A call reaches at most ``reach`` states,
    and only states with a full window have rows, so ``bound``, the most
    rows the store can hold, is the fewer of ``reach`` and the windowed
    state codes.  The store reserves ``_RESERVE_BYTES`` of rows, or
    ``bound`` rows if fewer, in maps of their own (:func:`_zeros`), and
    doubles, up to ``bound``, when a batch does not fit.

    When a row id for every state code and a window seed for every
    k-window, ``8 * ((V + 1) ** depth + (V + 1) ** k)`` bytes, fit
    ``_RESERVE_BYTES``, the store is dense: it makes those two tables with
    the store, the row ids indexed by state code and the seeds by its k
    newest digits.  Otherwise rows are found through a dict, and each
    build hashes its windows.
    """

    def __init__(self, model: NGramModel, nucleus: NucleusRows, wm: WatermarkConfig,
                 reach: int):
        v = self.vocab_size = nucleus.vocab_size
        self.model, self.nucleus, self.wm = model, nucleus, wm
        radix, k = v + 1, wm.k
        n_codes = radix ** max(model.order, k)
        # codes below radix**(k - 1) lack a full window
        self.bound = bound = min(reach, n_codes - radix ** (k - 1))
        self.n = 0
        shape, dtype = ((), nucleus.idx.dtype) if wm.scheme == AK else ((v,), np.float64)
        # a row is its base, an intp, and its part
        size = min(bound, _RESERVE_BYTES // (np.intp(0).nbytes + np.empty(shape, dtype).nbytes))
        self.base, self.part = _zeros(size, np.intp), _zeros((size,) + shape, dtype)
        # a row id per state code and a seed per window, 8 bytes each
        self.dense = 8 * (n_codes + radix**k) <= _RESERVE_BYTES
        self.index = None if self.dense else {}
        if self.dense:
            self._row_of = np.full(n_codes, -1, np.intp)
            # digit d is token d - 1; a missing token (digit 0) reads as 0
            self._seed_of = window_table(np.maximum(np.arange(radix) - 1, 0), k, wm.key)

    def rows(self, codes: np.ndarray) -> np.ndarray:
        """Row of each state code, building the rows of the codes first reached."""
        if not self.dense:
            return self._dict_rows(codes)
        rows = self._row_of[codes]
        missing = np.flatnonzero(rows < 0)
        if len(missing):
            # a placeholder below -1 per occurrence; one survives per code
            reached = codes[missing]
            mark = np.arange(-2, -2 - len(reached), -1)
            self._row_of[reached] = mark
            new = reached[self._row_of[reached] == mark]
            self._row_of[new] = np.arange(self._extend(new), self.n)
            rows[missing] = self._row_of[reached]
        return rows

    def _dict_rows(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`rows` of a store that is not dense, through its dict."""
        keys = codes.tolist()
        get = self.index.get
        rows = np.fromiter(map(get, keys, repeat(-1)), np.intp, len(keys))
        missing = np.flatnonzero(rows < 0).tolist()
        if missing:
            new = list(dict.fromkeys([keys[i] for i in missing]))
            start = self._extend(np.array(new, codes.dtype))
            self.index.update(zip(new, range(start, self.n)))
            rows[missing] = [get(keys[i]) for i in missing]
        return rows

    def _extend(self, codes: np.ndarray) -> int:
        """Build and store the rows of ``codes``, in order; return the first new row."""
        start, end = self.n, self.n + len(codes)
        if end > len(self.base):
            size = min(self.bound, max(end, 2 * len(self.base)))
            grown = [_zeros((size,) + old.shape[1:], old.dtype) for old in (self.base, self.part)]
            grown[0][:start], grown[1][:start] = self.base[:start], self.part[:start]
            self.base, self.part = grown
        batch = max(1, TEMP_ELEMS // self.vocab_size)
        for lo in range(0, len(codes), batch):
            some = codes[lo : lo + batch]
            rows = slice(self.n, self.n + len(some))
            self.base[rows], self.part[rows] = self._build(some)
            self.n += len(some)
        return start

    def sample(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Token of each row at uniform ``u``: the AK pick, or the kept id at
        ``u`` times the row total, drawn head first like a nucleus row."""
        if self.wm.scheme == AK:
            return self.part[rows]
        bcum = self.part
        return self.nucleus.draw(self.base[rows], bcum[:, :_HEAD][rows],
                                 u * bcum[:, -1][rows], lambda past: bcum[rows[past]])

    def _seeds(self, codes: np.ndarray) -> np.ndarray:
        """Window seed of each state code: the hash of its k newest digits
        less 1, a missing token (digit 0, which no state holds) read as 0."""
        radix, k = self.vocab_size + 1, self.wm.k
        windows = np.empty((len(codes), k), np.int64)
        for j in range(k):
            windows[:, k - 1 - j] = codes // radix**j % radix
        windows -= 1
        return window_hashes(np.maximum(windows, 0, out=windows), self.wm.key)

    def _build(self, codes: np.ndarray) -> tuple:
        """The base and the part of each state code's row."""
        wm, nucleus = self.wm, self.nucleus
        base = nucleus.ready(self.model, self.model._context_ids(codes))
        # a dense store's seed reads the code's k newest digits
        seeds = self._seed_of[codes % len(self._seed_of)] if self.dense else self._seeds(codes)
        q, idx, keep = nucleus.kept(base)
        with np.errstate(divide="ignore"):
            log_q = np.log(q, out=q)
        if wm.scheme == AK:
            p = np.exp(log_q - np.maximum.reduce(log_q, axis=1, keepdims=True))
            p /= _kept_sums(p, keep)[:, None]
            pick = aaronson_pick(seeds, p, idx)
            return base, idx[np.arange(len(idx)), pick]
        biased = bias_logits(seeds, log_q, idx, wm)
        biased -= np.maximum.reduce(biased, axis=1, keepdims=True)
        return base, np.exp(biased, out=biased).cumsum(axis=1)


def _check_key_vocab(wm: WatermarkConfig | None, model: NGramModel) -> None:
    """Refuse a key of fewer tokens than the model: it could not mark or score the rest."""
    if wm is not None and wm.vocab_size < model.vocab_size:
        raise ConfigError(f"the key's vocabulary ({wm.vocab_size} tokens) is smaller "
                          f"than the model's ({model.vocab_size} tokens)")


class TextSampler:
    """Autoregressive sampler over decode rows.

    A state is the last ``max(order, k)`` tokens (``order`` without a
    watermark), coded as base-(V+1) digits ``token + 1``, newest least
    significant, so a shorter context has leading zeros.  Nucleus rows are
    built once per trained context, in the model's store for (temperature,
    nucleus_p).  Watermark rows are built once per state and belong to one
    :meth:`generate` call.  A key of fewer tokens than the model is refused.
    """

    def __init__(self, model: NGramModel, sampling: SamplingConfig,
                 wm: WatermarkConfig | None = None):
        self.model = model
        self.sampling = sampling
        self.wm = wm
        _check_key_vocab(wm, model)
        if wm is not None and wm.scheme == AK and wm.temperature is not None:
            # AK strength knob: temperature applied to logits before softmax
            self.temperature = wm.temperature
        else:
            self.temperature = sampling.temperature
        self._radix = radix = model.vocab_size + 1
        self._depth = depth = model.order if wm is None else max(model.order, wm.k)
        # codes below this lack a full window; % _tail drops the oldest token
        self._windowed = None if wm is None else radix ** (wm.k - 1)
        self._tail = radix ** (depth - 1)

    def generate(self, prompts, steps: int, uniforms: np.ndarray) -> np.ndarray:
        """``steps`` tokens after each prompt, every document at once.

        Prompts may differ in length.  ``uniforms[d, t]`` is document d's
        draw at step t.  A state with a full window reads its watermark
        row: AK takes the row's token, KGW and MPAC scale the uniform by
        the row total.  Every other state reads its context's nucleus row.
        The token is the kept id at the count of cumulative sums at or
        below the uniform, which is ``searchsorted(side="right")`` row by
        row, clipped to the kept ids.  The count is taken over the first
        ``_HEAD`` sums of each row, and over the whole row only where the
        last of those is at or below the uniform: the sums never fall, so
        the count is the whole row's either way.
        """
        model, radix = self.model, self._radix
        nucleus = model._nucleus(self.temperature, self.sampling.nucleus_p)
        prompts = list(prompts)
        lens = np.array([len(p) for p in prompts], np.int64)
        tokens = token_ids(prompts, model.vocab_size, "prompt {}".format)
        codes = model._locate(tokens, lens, np.arange(len(lens)), lens, self._depth)
        # the call reaches at most one state per step of each document
        marked = (None if self.wm is None
                  else _WatermarkRows(model, nucleus, self.wm, len(codes) * steps))
        out = np.empty((len(codes), steps), nucleus.idx.dtype)
        whole = False  # every state has its window
        for t in range(steps):
            u = uniforms[:, t]
            if marked is None:
                out[:, t] = nucleus.sample(nucleus.ready(model, model._context_ids(codes)), u)
            else:
                if not whole:
                    windowed = codes >= self._windowed
                    whole = bool(windowed.all())
                if whole:
                    out[:, t] = marked.sample(marked.rows(codes), u)
                else:
                    plain, wide = np.flatnonzero(~windowed), np.flatnonzero(windowed)
                    ids = nucleus.ready(model, model._context_ids(codes[plain]))
                    out[plain, t] = nucleus.sample(ids, u[plain])
                    out[wide, t] = marked.sample(marked.rows(codes[wide]), u[wide])
            codes %= self._tail
            codes *= radix
            codes += out[:, t].astype(codes.dtype) + 1
        return out


def zipf_markov_corpus(vocab_size: int, n_docs: int, doc_len: int, seed: int,
                       zipf_a: float = 1.15) -> np.ndarray:
    """Fixed-seed synthetic source: a Markov chain with Zipf transitions.

    Each token's successor distribution is a Zipf profile over a
    token-specific permutation of the vocabulary, which keeps the entropy
    of the source controllable via ``zipf_a``.  Returns an ``(n_docs,
    doc_len)`` array, one document a row, in the narrowest unsigned dtype
    that holds ``vocab_size - 1``.  The draws are those of a per-token
    loop, in its order: the V successor permutations, then per document
    its first token and its ``doc_len - 1`` uniforms.  Each uniform is
    stored as its successor rank in the token's row, and all documents
    then walk one position per step.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    profile = 1.0 / ranks**zipf_a
    profile /= profile.sum()
    # every token shares the rank profile; only the permutation differs
    cum = np.cumsum(profile)
    dtype = np.min_scalar_type(vocab_size - 1)
    succ = np.empty((vocab_size, vocab_size), dtype)
    for row in succ:
        row[:] = rng.permutation(vocab_size)
    docs = np.empty((n_docs, doc_len), dtype)
    for doc in docs:
        first = rng.integers(vocab_size)
        u = rng.random(doc_len - 1)
        doc[0] = first
        doc[1:] = np.minimum(cum.searchsorted(u), vocab_size - 1)
    for t in range(1, doc_len):
        docs[:, t] = succ[docs[:, t - 1], docs[:, t]]
    return docs


def make_teacher(vocab_size: int = 256, seed: int = 7, order: int = 2,
                 smoothing_lambda: float = 0.05, source_tokens: int = 400_000,
                 zipf_a: float = 1.15) -> NGramModel:
    """Teacher model trained on the synthetic source."""
    doc_len = 1000
    n_docs = max(1, source_tokens // doc_len)
    corpus = zipf_markov_corpus(vocab_size, n_docs, doc_len, seed, zipf_a)
    return train_ngram(corpus, order, smoothing_lambda, vocab_size)


#: Tokens of the random prompt that starts each :func:`generate_corpus` document.
PROMPT_TOKENS = 3

#: :func:`generate_corpus`'s rules: a document holds its prompt
CORPUS_RULES = {
    "n_docs": at_least(0),
    "doc_len": lambda v, o: v >= o["prompt_len"] or (
        f"be >= {o['prompt_len']} (generated documents start with a "
        f"{o['prompt_len']}-token prompt)"),
}


def generate_corpus(model: NGramModel, n_docs: int, doc_len: int,
                    sampling: SamplingConfig, wm: WatermarkConfig | None = None,
                    prompt_len: int = PROMPT_TOKENS) -> list[dict]:
    """Documents sampled from the model, each a dict with ``tokens``/``wm``.

    Every document starts from a short random prompt (included in the
    document) so that full watermark windows exist from early positions.
    The RNG is drawn in document order: the prompt, then one uniform per
    body step.
    """
    check_rules(CORPUS_RULES, {"n_docs": n_docs, "doc_len": doc_len, "prompt_len": prompt_len})
    sampler = TextSampler(model, sampling, wm)
    rng = np.random.default_rng(sampling.seed)
    steps = doc_len - prompt_len
    prompts = np.empty((n_docs, prompt_len), np.int64)
    uniforms = _zeros((n_docs, steps), np.float64)
    for d in range(n_docs):
        prompts[d] = rng.integers(model.vocab_size, size=prompt_len)
        uniforms[d] = rng.random(steps)
    bodies = sampler.generate(prompts, steps, uniforms)
    return [{"tokens": prompt + body, "wm": wm is not None}
            for prompt, body in zip(prompts.tolist(), bodies.tolist())]


# ---------------------------------------------------------------------------
# corpus and checkpoint files

def save_corpus(docs: list[dict], path) -> None:
    """JSONL, one document per line: its tokens, wm tag and any other fields."""
    with open(path, "w") as f:
        for doc in docs:
            f.write(json.dumps(doc, separators=(",", ":")) + "\n")


def load_corpus(path) -> list[dict]:
    """The documents of a JSONL corpus; a line that is not a JSON object
    with a ``tokens`` list is refused by path and line number."""
    docs = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {number}: not JSON ({exc})") from exc
            if not isinstance(doc, dict) or not isinstance(doc.get("tokens"), list):
                raise ValueError(f"{path} line {number}: no \"tokens\" list")
            docs.append(doc)
    return docs


_MODEL_MAGIC = b"RSM2"


def save_model(model: NGramModel, path) -> None:
    """Checkpoint: the magic ``RSM2``, then one ``np.savez`` archive."""
    # each level's values in the narrowest unsigned dtype that holds them
    levels = {f"{name}{length}": values.astype(np.min_scalar_type(int(values.max(initial=0))))
              for length, tables in enumerate(model._tables())
              for name, values in zip(("keys", "counts"), tables)}
    with open(path, "wb") as f:
        f.write(_MODEL_MAGIC)
        np.savez(f, order=model.order, vocab_size=model.vocab_size,
                 smoothing_lambda=model.smoothing_lambda, **levels)


def load_model(path) -> NGramModel:
    """The model a :func:`save_model` checkpoint holds.

    A ``ValueError`` refuses a file that does not start with ``RSM2`` (an
    RSM1 checkpoint too), a damaged archive or one that lacks a field, and
    a level unless its keys and counts are unsigned arrays of one length,
    the keys strictly increasing and below ``V ** (level + 1)`` and the
    counts positive, each with ``count * V + V - 1 < 2**63``: then greedy
    keys and row totals, which sum at most V counts, fit in int64.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MODEL_MAGIC:  # RSM1, the per-record format, is no longer read
            raise ValueError(f"{path} is not an RSM2 model checkpoint (magic "
                             f"{magic!r}); re-run `radioscope train` to write one")
        try:
            with np.load(f, allow_pickle=False) as z:
                model = NGramModel(int(z["order"]), int(z["vocab_size"]),
                                   float(z["smoothing_lambda"]))
                keys, counts = ([z[f"{name}{n}"] for n in range(model.order + 1)]
                                for name in ("keys", "counts"))
        except (zipfile.BadZipFile, KeyError) as exc:
            raise ValueError(f"corrupt model checkpoint {path}: {exc}") from exc
    v = model.vocab_size
    for n, (level, count) in enumerate(zip(keys, counts)):
        if not (level.dtype.kind == count.dtype.kind == "u" and level.ndim == 1
                and level.shape == count.shape and (count > 0).all()
                and int(count.max(initial=0)) * v + v - 1 < 2**63
                and (level[1:] > level[:-1]).all()
                and (level < v ** (n + 1)).all()):
            raise ValueError(f"corrupt model checkpoint {path}: level {n}")
    del level, count  # _index drops each level once read
    model._index(keys, counts)
    return model
