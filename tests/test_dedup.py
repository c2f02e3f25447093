import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radioscope import (
    CANDIDATE,
    FilterSet,
    InputIntegrityError,
    SecretKey,
    WatermarkConfig,
    build_filter,
    canonical_dedup,
    load_filter,
    save_filter,
)
from radioscope.dedup import _unique_rows, candidate_table
from dedup_oracle import set_filter_kgrams

KEY = SecretKey(0xFACE)
CFG = WatermarkConfig("kgw", KEY, 16, k=2)


def table(rows):
    """A candidate table from (doc, pos, seed, token, blocked) tuples."""
    return np.array(rows, dtype=CANDIDATE)


def seed(window):
    return CFG.seed(window)


def pairs(cands):
    return {(int(c["seed"]), int(c["token"])) for c in cands}


class TestTapeAdmit:
    """Admission of single tuples: repeats, context blocking, new tokens."""

    def test_second_presentation_rejected(self):
        cands = table([(0, 2, seed((1, 2)), 3, False), (0, 7, seed((1, 2)), 3, False)])
        assert canonical_dedup(cands)["pos"].tolist() == [2]

    def test_window_in_prompt_rejected(self):
        # stream 9 5 6 2 | 5 6 7: the window (5, 6) before 7 is a prompt k-gram
        cands = candidate_table([[9, 5, 6, 2, 5, 6, 7]], [4], CFG.k, CFG.key,
                                open_mode=False)
        blocked = dict(zip(cands["pos"].tolist(), cands["blocked"].tolist()))
        assert blocked == {2: True, 3: True, 4: True, 5: False, 6: True}
        assert canonical_dedup(cands)["pos"].tolist() == [5]

    def test_first_occurrence_admitted(self):
        cands = candidate_table([[1, 2, 3, 5, 6, 7, 5, 6, 8]], [0], CFG.k, CFG.key,
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
        with pytest.raises(ValueError, match=f"k must be in 1..255, got {k}"):
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
        assert got.kgrams.tolist() == set_filter_kgrams(corpus, k).tolist()

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
    return candidate_table(corpus, [0] * len(corpus), cfg.k, cfg.key,
                           open_mode=False)


class TestCanonicalDedup:
    def test_all_distinct_all_admitted(self):
        cands = table([(0, i + 2, seed((i, i + 1)), i + 2, False) for i in range(10)])
        admitted = canonical_dedup(cands)
        assert len(admitted) == 10

    def test_duplicate_keys_rejected(self):
        cands = table([(0, 2, seed((1, 2)), 3, False), (0, 2, seed((4, 5)), 6, False)])
        with pytest.raises(InputIntegrityError, match=r"\(0, 2\)"):
            canonical_dedup(cands)

    def test_sharding_invariance(self):
        rng = np.random.default_rng(7)
        corpus = [rng.integers(0, 8, size=40).tolist() for _ in range(6)]
        cands = make_candidates(corpus)
        single = canonical_dedup(cands)
        shards = [cands[i::8] for i in range(8)]
        sharded = canonical_dedup(np.concatenate(shards))
        assert np.array_equal(single, sharded)
        assert np.all(np.diff(sharded["doc"] * 1000 + sharded["pos"]) > 0)

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
def test_unique_rows_equal_np_unique(k, data):
    """First index and label of each distinct row, as ``np.unique`` on rows
    gives them, for empty input and one column too."""
    value = st.integers(0, 3) | st.integers(0, 2**63 - 1)
    rows = data.draw(st.lists(st.lists(value, min_size=k, max_size=k), max_size=60))
    a = np.array(rows, np.int64).reshape(-1, k)
    first, label = _unique_rows(a)
    _, want_first, want_label = np.unique(a, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(first, want_first)
    assert np.array_equal(label, want_label.ravel())
