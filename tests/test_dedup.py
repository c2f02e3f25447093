import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dedup_oracle
from radioscope import (
    CANDIDATE,
    FilterSet,
    SecretKey,
    WatermarkConfig,
    build_filter,
    canonical_dedup,
    load_filter,
    save_filter,
)
from radioscope.dedup import _row_ids, candidate_table
from radioscope.hashing import ConfigError, window_hash
from radioscope.pipelines import _admit, derive_run_key

KEY = SecretKey(0xFACE)
CFG = WatermarkConfig("kgw", KEY, 16, k=2)


def table(rows):
    """A candidate table from (doc, pos, seed, token, blocked) tuples, all
    of window 0."""
    return np.array([(*row, 0) for row in rows], dtype=CANDIDATE)


def seed(window):
    return CFG.seed(window)


def pairs(cands):
    return {(int(c["seed"]), int(c["token"])) for c in cands}


def docs_readout(docs, context_lens, k, open_mode):
    """:func:`candidate_table` of a list of documents."""
    tokens = np.array([t for doc in docs for t in doc], dtype=np.int64)
    return candidate_table(tokens, [len(doc) for doc in docs], context_lens, k, open_mode)


def docs_table(docs, context_lens, k, key, open_mode):
    """The rows of :func:`docs_readout`, each with its window's seed under ``key``."""
    return _admit(*docs_readout(docs, context_lens, k, open_mode), key, dedup=False)


class TestTapeAdmit:
    """Admission of single tuples: repeats, context blocking, new tokens."""

    def test_second_presentation_rejected(self):
        cands = table([(0, 2, seed((1, 2)), 3, False), (0, 7, seed((1, 2)), 3, False)])
        assert canonical_dedup(cands)["pos"].tolist() == [2]

    def test_window_in_prompt_rejected(self):
        # stream 9 5 6 2 | 5 6 7: the window (5, 6) before 7 is a prompt k-gram
        cands = docs_table([[9, 5, 6, 2, 5, 6, 7]], [4], CFG.k, CFG.key,
                           open_mode=False)
        blocked = dict(zip(cands["pos"].tolist(), cands["blocked"].tolist()))
        assert blocked == {2: True, 3: True, 4: True, 5: False, 6: True}
        assert canonical_dedup(cands)["pos"].tolist() == [5]

    def test_first_occurrence_admitted(self):
        cands = docs_table([[1, 2, 3, 5, 6, 7, 5, 6, 8]], [0], CFG.k, CFG.key,
                           open_mode=True)
        blocked = dict(zip(cands["pos"].tolist(), cands["blocked"].tolist()))
        assert blocked[5] is False  # (5, 6) first seen
        assert blocked[8] is True  # (5, 6) again, at a later start

    def test_same_window_different_token_admitted_by_default(self):
        cands = table([(0, 2, seed((1, 2)), 3, False), (0, 7, seed((1, 2)), 4, False)])
        assert canonical_dedup(cands)["pos"].tolist() == [2, 7]


class TestFilter:
    def test_empty_corpus(self):
        assert len(build_filter([], 2)) == 0

    def test_enumeration(self):
        phi = build_filter([[10, 11, 12]], 2)
        assert len(phi) == 2
        assert (10, 11) in phi
        assert (11, 12) in phi
        assert (12, 10) not in phi

    def test_windows_do_not_span_documents(self):
        phi = build_filter([[1, 2], [3, 4]], 2)
        assert (2, 3) not in phi
        assert len(phi) == 2

    def test_counts_match_bruteforce(self):
        rng = np.random.default_rng(6)
        corpus = [rng.integers(0, 16, size=50).tolist() for _ in range(20)]
        phi = build_filter(corpus, 2)
        brute = {tuple(doc[i : i + 2])
                 for doc in corpus for i in range(len(doc) - 1)}
        assert len(phi) == len(brute)
        for w in brute:
            assert w in phi
        assert len(phi) <= 16 * 16

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            build_filter([[1, 2]], 0)

    def test_roundtrip(self, tmp_path):
        phi = build_filter([[1, 2, 3, 4, 5]], 3)
        path = tmp_path / "phi.bin"
        save_filter(phi, path)
        loaded = load_filter(path)
        assert loaded.k == 3
        assert np.array_equal(loaded.kgrams, phi.kgrams)

    def test_file_bit_exact(self, tmp_path):
        phi = build_filter([[9, 8, 7, 6]], 2)
        save_filter(phi, tmp_path / "a.bin")
        save_filter(phi, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        header = (tmp_path / "a.bin").read_bytes()[:4]
        assert header == b"RSF1"

    def test_bad_magic(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_filter(tmp_path / "junk.bin")

    @pytest.mark.parametrize("k", [0, 256, 300])
    def test_k_must_fit_the_file_byte(self, k):
        must = "be >= 1" if k < 1 else r"be <= 255 \(a filter file keeps k in one byte\)"
        with pytest.raises(ConfigError, match=f"^k must {must}, got {k}$"):
            build_filter([list(range(400))], k)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_fingerprints_equal_the_set_of_tuples(self, k, data):
        """Joined-array windows give the fingerprints of the k-gram set,
        with token ids that pack into one int64 per window and ids that do not."""
        top = data.draw(st.sampled_from([1, 3, 300, 2**40, 2**63 - 1]))
        tokens = st.integers(0, top) | st.sampled_from([0, top])
        corpus = data.draw(st.lists(st.lists(tokens, max_size=12), max_size=8))
        got = build_filter(corpus, k)
        assert got.kgrams.tolist() == dedup_oracle.set_filter_kgrams(corpus, k).tolist()

    def test_k_255_round_trips(self, tmp_path):
        save_filter(build_filter([list(range(300))], 255), tmp_path / "phi.bin")
        loaded = load_filter(tmp_path / "phi.bin")
        assert (loaded.k, len(loaded)) == (255, 46)

    @pytest.mark.parametrize("cut", [3, 10, 13 + 8 * 2 - 1, 13 + 8 * 2 + 1])
    def test_truncated_or_padded_file_refused(self, tmp_path, cut):
        path = tmp_path / "phi.bin"
        save_filter(build_filter([[1, 2, 3, 4]], 3), path)
        data = path.read_bytes()
        path.write_bytes((data + b"\x00")[:cut])
        with pytest.raises(ValueError, match="phi.bin"):
            load_filter(path)

    @pytest.mark.parametrize("k,count", [(2, 2**40), (0, 1)])
    def test_header_against_the_file_length(self, tmp_path, k, count):
        path = tmp_path / "phi.bin"
        path.write_bytes(b"RSF1" + struct.pack("<BQ", k, count) + b"\x00" * 8)
        with pytest.raises(ValueError, match="phi.bin: corrupt filter file"):
            load_filter(path)


def make_candidates(corpus, k=2):
    cfg = WatermarkConfig("kgw", KEY, 16, k=k)
    return docs_table(corpus, [0] * len(corpus), cfg.k, cfg.key, open_mode=False)


class TestCanonicalDedup:
    def test_all_distinct_all_admitted(self):
        cands = table([(0, i + 2, seed((i, i + 1)), i + 2, False) for i in range(10)])
        admitted = canonical_dedup(cands)
        assert len(admitted) == 10

    def test_document_order_invariance_of_tuple_set(self):
        rng = np.random.default_rng(8)
        corpus = [rng.integers(0, 8, size=30).tolist() for _ in range(4)]
        forward = canonical_dedup(make_candidates(corpus))
        backward = canonical_dedup(make_candidates(corpus[::-1]))
        assert pairs(forward) == pairs(backward)

    def test_context_blocked_never_admitted(self):
        cands = table([(0, 2, seed((1, 2)), 3, True), (0, 3, seed((2, 3)), 4, False)])
        admitted = canonical_dedup(cands)
        assert admitted["pos"].tolist() == [3]

    def test_blocked_row_does_not_shadow_a_later_repeat(self):
        cands = table([(0, 2, seed((1, 2)), 3, True), (1, 2, seed((1, 2)), 3, False)])
        assert canonical_dedup(cands)["doc"].tolist() == [1]

    def test_score_sum_invariant_under_doc_permutation(self):
        # same documents, shuffled order: same set, same cumulative score
        rng = np.random.default_rng(9)
        corpus = [rng.integers(0, 8, size=25).tolist() for _ in range(5)]
        a = canonical_dedup(make_candidates(corpus))
        b = canonical_dedup(make_candidates([corpus[i] for i in [3, 1, 4, 0, 2]]))
        assert pairs(a) == pairs(b)

    def test_empty_table(self):
        assert len(canonical_dedup(table([]))) == 0


class TestFilterSet:
    def test_membership_is_fingerprint_based(self):
        phi = FilterSet(kgrams=np.zeros(0, dtype=np.uint64), k=2)
        assert (1, 2) not in phi
        phi2 = build_filter([[1, 2]], 2)
        assert (1, 2) in phi2


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_filter_hits_equal_window_set_membership(k, data):
    """``FilterSet.hits`` is membership of each window's tuple among the
    corpus's k-grams, for repeated windows and ids up to ``2**63 - 1``."""
    value = st.integers(0, 3) | st.integers(0, 2**63 - 1)
    docs = data.draw(st.lists(st.lists(value, max_size=12), max_size=5))
    grams = {tuple(doc[i : i + k]) for doc in docs for i in range(len(doc) - k + 1)}
    pool = [*grams, *map(tuple, data.draw(st.lists(st.lists(value, min_size=k, max_size=k),
                                                    max_size=6)))]
    windows = data.draw(st.lists(st.sampled_from(pool), max_size=40)) if pool else []
    hits = build_filter(docs, k).hits(np.array(windows, np.int64).reshape(-1, k))
    assert hits.tolist() == [window in grams for window in windows]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_ids_order_rows_and_keep_the_key_in_int64(data):
    """Over full-range int64 and uint64 columns: equal ids for equal rows,
    ids ascending as the rows do, and ``id * n + row`` below ``2**63``."""
    n = data.draw(st.integers(1, 40))
    columns = []
    for _ in range(data.draw(st.integers(1, 5))):
        lo, hi, dtype = data.draw(st.sampled_from(
            [(-(2**63), 2**63 - 1, np.int64), (0, 2**64 - 1, np.uint64), (0, 2**16, np.int64)]))
        values = st.integers(lo, hi) | st.sampled_from([lo, hi])
        columns.append(np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype))
    ids = _row_ids(columns)
    assert ids.dtype == np.int64 and ids.min() >= 0
    assert int(ids.max()) * n + n - 1 < 2**63
    rows = list(zip(*(c.tolist() for c in columns)))
    assert sorted(range(n), key=lambda i: (rows[i], i)) == sorted(range(n), key=lambda i: (ids[i], i))
    assert len(set(rows)) == len(set(ids.tolist()))


def loop_candidates(docs, context_lens, k, open_mode):
    """One oracle ``Candidate`` per position after a full window: blocked
    when its window lies within the document's first ``context_lens[d]``
    tokens or, in open mode, starts earlier in the document too."""
    out = []
    for d, (doc, n) in enumerate(zip(docs, context_lens)):
        context = {tuple(doc[i : i + k]) for i in range(n - k + 1)}
        earlier = set()
        for pos in range(k, len(doc)):
            window = tuple(doc[pos - k : pos])
            blocked = window in context or (open_mode and window in earlier)
            earlier.add(window)
            out.append(dedup_oracle.Candidate(d, pos, window, doc[pos], blocked))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_wide_window_codes_equal_the_oracle(data):
    """Vocabularies up to 2**16 and windows up to 5 tokens, where a window's
    base-V code needs up to 80 bits and the ids fall back to ranks: the
    table and the admitted rows equal the per-position oracle's, and each
    row's window is its own among the run's distinct windows."""
    v = data.draw(st.integers(2, 2**16) | st.just(2**16))
    k = data.draw(st.integers(1, 5))
    # splitmix keys: the oracle's (k+1)-tuple fingerprints do not collide
    key = derive_run_key(data.draw(st.integers(0, 2**32 - 1)), 0)
    near_top = st.integers(max(0, v - 3), v - 1) | st.just(0)
    docs = data.draw(st.lists(st.lists(near_top, max_size=14), max_size=6))
    # windows of all zeros and of all V - 1 give every column the radix V
    docs.append([0] * k + [v - 1] * k + [0])
    context_lens = data.draw(st.lists(st.integers(0, 8), min_size=len(docs),
                                      max_size=len(docs)))
    open_mode = data.draw(st.booleans())
    rows, windows = docs_readout(docs, context_lens, k, open_mode)
    cands = _admit(rows, windows, key, dedup=False)
    want = loop_candidates(docs, context_lens, k, open_mode)
    assert len(set(map(tuple, windows.tolist()))) == len(windows)
    assert [tuple(w) for w in windows[rows["window"]].tolist()] == [c.window for c in want]
    assert [(int(c["doc"]), int(c["pos"]), int(c["seed"]), int(c["token"]),
             bool(c["blocked"])) for c in cands] == [
        (c.doc_id, c.pos, window_hash(c.window, key), c.token, c.context_blocked)
        for c in want]
    admitted = canonical_dedup(cands)
    oracle = dedup_oracle.canonical_dedup(want, dedup_oracle.Tape(), key)
    assert list(zip(admitted["doc"].tolist(), admitted["pos"].tolist())) == [
        (c.doc_id, c.pos) for c in oracle]


@pytest.mark.parametrize("open_mode", [False, True])
def test_weak_key_admission_is_keyed_on_the_seed(open_mode):
    """``SecretKey(1)`` hashes a window to the sum of its tokens, so (1, 2)
    and (2, 1) share a seed, and so do many windows of a small vocabulary:
    of the tuples with one (seed, token) pair only the first is admitted,
    whatever their windows."""
    key, k = SecretKey(1), 2
    rng = np.random.default_rng(5)
    # (1, 2) -> 5 at pos 2 and (2, 1) -> 5 at pos 5: one pair
    docs = [[1, 2, 5, 2, 1, 5]] + [rng.integers(0, 6, size=30).tolist() for _ in range(5)]
    context_lens = [0, 4, 0, 3, 0, 6]
    want, seen = [], set()
    for d, doc in enumerate(docs):  # per-row reference, in (doc, pos) order
        context = {tuple(doc[i : i + k]) for i in range(context_lens[d] - k + 1)}
        for pos in range(k, len(doc)):
            window = tuple(doc[pos - k : pos])
            earlier = any(tuple(doc[i : i + k]) == window for i in range(pos - k))
            pair = (window_hash(window, key), doc[pos])
            if window in context or (open_mode and earlier) or pair in seen:
                continue
            seen.add(pair)
            want.append((d, pos))
    cands = docs_table(docs, context_lens, k, key, open_mode)
    got = canonical_dedup(cands)
    assert list(zip(got["doc"].tolist(), got["pos"].tolist())) == want
    assert (0, 2) in want and (0, 5) not in want
