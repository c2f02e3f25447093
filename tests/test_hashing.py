import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radioscope import ConfigError, SecretKey, derive_run_key, hashing, window_hash
from radioscope.dedup import FILTER_KEY
from radioscope.hashing import (
    HASH_MOD,
    TEMP_ELEMS,
    derive_permutation,
    green_mask_batch,
    rank_below,
    rvalue_batch,
    stream_value,
    window_hashes,
    window_table,
)
from scheme_oracle import derive_greenlist, derive_rvector

GOLDEN = __file__.rsplit("/", 1)[0] + "/data/golden_hashes.txt"


def load_golden():
    cases = []
    with open(GOLDEN) as f:
        for line in f:
            parts = line.strip().split(",")
            s, k = int(parts[0]), int(parts[1])
            window = [int(t) for t in parts[2 : 2 + k]]
            expected = int(parts[2 + k])
            cases.append((s, window, expected))
    return cases


class TestWindowHash:
    def test_zero_window_hashes_to_zero(self):
        for s in (1, 2, 981273, 2**64 - 2):
            assert window_hash([0, 0, 0, 0], SecretKey(s)) == 0

    def test_two_step_recurrence(self):
        assert window_hash((1, 1), SecretKey(2)) == 3

    def test_single_step(self):
        assert window_hash((7,), SecretKey(5)) == 7

    @pytest.mark.parametrize("s,window,expected", load_golden())
    def test_golden_vectors(self, s, window, expected):
        assert window_hash(window, SecretKey(s)) == expected

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            window_hash([], SecretKey(3))

    @given(st.integers(1, 2**64 - 2),
           st.lists(st.integers(0, 2**20), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_range_and_determinism(self, s, window):
        key = SecretKey(s)
        h = window_hash(window, key)
        assert 0 <= h < HASH_MOD
        assert window_hash(window, key) == h


#: Keys with a special shape: the identity, small ones, -1 and -2**32
#: modulo ``HASH_MOD``, and the filter key.
SPECIAL_KEYS = [1, 2, 3, 2**64 - 2, 2**64 - 2**32, FILTER_KEY.s]


class TestWindowHashes:
    """The array hash is bit for bit the scalar recurrence."""

    def test_golden_vectors_as_one_array(self):
        groups = {}
        for s, window, expected in load_golden():
            groups.setdefault((s, len(window)), []).append((window, expected))
        for (s, _), rows in groups.items():
            got = window_hashes(np.array([w for w, _ in rows]), SecretKey(s))
            assert got.tolist() == [expected for _, expected in rows]

    @given(st.sampled_from(SPECIAL_KEYS) | st.integers(1, 2**64 - 2),
           st.integers(1, 5).flatmap(lambda k: st.lists(
               st.lists(st.sampled_from([0, 1, 255, 2**32 - 1, 2**63])
                        | st.integers(0, 2**20), min_size=k, max_size=k),
               min_size=1, max_size=20)))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_window_hash(self, s, windows):
        key = SecretKey(s)
        got = window_hashes(np.array(windows, dtype=np.uint64), key)
        assert got.dtype == np.uint64
        assert got.tolist() == [window_hash(w, key) for w in windows]

    @pytest.mark.parametrize("s", SPECIAL_KEYS)
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_all_zero_and_all_255_windows(self, s, k):
        """Also with a repeated token too wide for the tables: under s = -1
        and an even k, both paths sum to the other form of 0."""
        key = SecretKey(s)
        for wide in (255, TEMP_ELEMS // k):
            windows = [[0] * k, [wide] * k]
            assert window_hashes(np.array(windows), key).tolist() == [
                window_hash(w, key) for w in windows]

    @given(st.sampled_from([1, 2**64 - 2]) | st.integers(1, 2**64 - 2), st.integers(1, 8),
           st.booleans(), st.sampled_from([1, 2, 50]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tables_and_recurrence_equal_window_hash(self, s, k, fits, n, data):
        """Tokens whose k tables fit ``TEMP_ELEMS`` are summed from the
        tables, wider ones run the recurrence: both are the scalar hash, for
        one window and many."""
        top = TEMP_ELEMS // k + (0 if fits else 1)  # largest token + 1
        assert (k * top <= TEMP_ELEMS) == fits
        windows = data.draw(st.lists(st.lists(st.integers(0, top - 1), min_size=k, max_size=k),
                                     min_size=n, max_size=n))
        windows[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, k - 1))] = top - 1
        key = SecretKey(s)
        got = window_hashes(np.array(windows), key)
        assert got.tolist() == [window_hash(w, key) for w in windows]

    @pytest.mark.parametrize("bad", [np.zeros(3, np.int64), np.zeros((2, 0), np.int64),
                                     np.array([[1, -1]]), np.array([[1.5, 2.0]])])
    def test_needs_an_n_by_k_array_of_token_ids(self, bad):
        with pytest.raises(ConfigError):
            window_hashes(bad, SecretKey(3))


class TestWindowTable:
    """Every k-window over a token list, first position most significant,
    is ``window_hashes`` of that window."""

    # the sampler's digits: digit d is token d - 1 and digit 0 reads as 0,
    # so token 0 repeats; under s = 2**64 - 2 and an even k, (1, 1, ...)
    # sums to the other form of 0
    @example(s=2**64 - 2, k=2, tokens=[0, 0, 1, 2, 3])
    @example(s=2**64 - 2, k=4, tokens=[0, 0, 1, 2, 3])
    @example(s=1, k=3, tokens=[0, 0, 1, 2, 3])
    @given(st.sampled_from([1, 2**64 - 2]) | st.integers(1, 2**64 - 2), st.integers(1, 4),
           st.integers(1, 5).map(lambda n: [0, *range(n)])
           | st.lists(st.sampled_from([0, 1, 255, 2**32 - 1, 2**63]) | st.integers(0, 2**20),
                      min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_equal_to_window_hashes_of_the_product(self, s, k, tokens):
        key = SecretKey(s)
        windows = np.array(list(itertools.product(tokens, repeat=k)), np.uint64)
        got = window_table(tokens, k, key)
        assert got.dtype == np.uint64
        assert got.tolist() == window_hashes(windows, key).tolist()

    def test_needs_a_window_of_at_least_one_token(self):
        with pytest.raises(ConfigError, match="at least one token"):
            window_table([1, 2], 0, SecretKey(3))


def test_only_hashing_holds_the_hash_arithmetic():
    """Window seeds have one owner: no other module of the package imports
    or reads the hash's modulus or its modular sum and product, so every
    seed is made by ``window_hash`` or ``window_hashes``."""
    owned = {"HASH_MOD", "_add_mod", "_mul_mod"}
    package = Path(hashing.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "hashing.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        used = {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                for alias in node.names}
        used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        used |= {node.id for node in nodes if isinstance(node, ast.Name)}
        assert not used & owned, path.name


class TestRankBelow:
    """The greenlist rule: rank by (key, column) below g."""

    def test_ties_at_the_threshold_go_to_the_lowest_columns(self):
        keys = np.array([[5, 3, 3, 9, 3, 1],  # 1 below the threshold 3, three at it
                         [7, 7, 7, 7, 7, 7],
                         [2, 8, 2, 8, 2, 8]], dtype=np.uint64)
        got = [np.flatnonzero(row).tolist() for row in rank_below(keys, 3)]
        assert got == [[1, 2, 5], [0, 1, 2], [0, 2, 4]]

    @given(st.integers(1, 12).flatmap(lambda v: st.tuples(
        st.lists(st.lists(st.integers(0, 3), min_size=v, max_size=v), min_size=1, max_size=8),
        st.integers(-1, v + 1))))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_stable_argsort_prefix(self, case):
        rows, g = case
        keys = np.array(rows, dtype=np.uint64)
        want = np.zeros(keys.shape, dtype=bool)
        perm = np.argsort(keys, axis=1, kind="stable")
        np.put_along_axis(want, perm[:, : max(g, 0)], True, axis=1)
        assert np.array_equal(rank_below(keys, g), want)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
           st.floats(0.0, 1.0), st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_green_masks_are_the_oracle_greenlists(self, seeds, gamma, v):
        masks = green_mask_batch(np.array(seeds, dtype=np.uint64), gamma, v)
        for seed, mask in zip(seeds, masks):
            assert np.flatnonzero(mask).tolist() == sorted(
                derive_greenlist(seed, gamma, v).tolist())


class TestSecretKey:
    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            SecretKey(0)

    def test_too_large_rejected(self):
        with pytest.raises(ConfigError):
            SecretKey(2**64)

    @pytest.mark.parametrize("s", [2**64, HASH_MOD, 0xDEADBEEFCAFE << 40])
    def test_refusal_names_the_rule_not_the_key(self, s):
        """A mistyped key would otherwise reach tracebacks and logs."""
        with pytest.raises(ConfigError) as exc:
            SecretKey(s)
        assert str(exc.value) == "secret key must be in [1, 2**64-2]"
        for shown in (str(s), hex(s), hex(s).upper()[2:]):
            assert shown not in str(exc.value)

    def test_zero_modulo_hash_mod_rejected(self):
        # s = 2**64 - 1 would hash every window to its last token
        with pytest.raises(ConfigError):
            SecretKey(HASH_MOD)

    def test_run_keys_are_valid(self, monkeypatch):
        monkeypatch.setattr(hashing, "stream_value", lambda seed, index: HASH_MOD)
        assert derive_run_key(1, 2).s == 1

    def test_repr_hides_raw_key(self):
        key = SecretKey(123456789)
        assert "123456789" not in repr(key)

    def test_fingerprint_stable_and_short(self):
        key = SecretKey(42)
        assert key.fingerprint() == SecretKey(42).fingerprint()
        assert len(key.fingerprint()) == 12
        assert "42" != key.fingerprint()


class TestGreenlist:
    def test_gamma_one_is_permutation(self):
        rng = np.random.default_rng(5)
        for seed in rng.integers(0, 2**63, size=100):
            ids = derive_greenlist(int(seed), 1.0, 8)
            assert sorted(ids.tolist()) == list(range(8))

    def test_gamma_zero_empty(self):
        assert len(derive_greenlist(991, 0.0, 8)) == 0

    def test_size_is_floor_gamma_v(self):
        assert len(derive_greenlist(7, 0.25, 8)) == 2
        assert len(derive_greenlist(7, 0.3, 10)) == 3
        assert len(derive_greenlist(7, 0.29, 10)) == 2

    def test_deterministic_across_calls(self):
        a = derive_greenlist(31337, 0.25, 256)
        b = derive_greenlist(31337, 0.25, 256)
        assert np.array_equal(a, b)

    def test_avalanche(self):
        # changing one window token should change the greenlist almost always
        rng = np.random.default_rng(17)
        key = SecretKey(0xABCDEF)
        changed = 0
        trials = 1000
        for _ in range(trials):
            w1 = [int(t) for t in rng.integers(0, 256, size=2)]
            w2 = list(w1)
            w2[int(rng.integers(2))] = int(rng.integers(0, 256))
            if w1 == w2:
                changed += 1
                continue
            g1 = derive_greenlist(window_hash(w1, key), 0.25, 256)
            g2 = derive_greenlist(window_hash(w2, key), 0.25, 256)
            if set(g1.tolist()) != set(g2.tolist()):
                changed += 1
        assert changed >= 0.9 * trials

    def test_permutation_consistent_with_greenlist(self):
        perm = derive_permutation(555, 16)
        assert np.array_equal(derive_greenlist(555, 0.5, 16), perm[:8])


class TestRVector:
    def test_range(self):
        r = derive_rvector(123, 64)
        assert len(r) == 64
        assert ((r >= 0.0) & (r < 1.0)).all()

    def test_deterministic(self):
        assert np.array_equal(derive_rvector(9, 32), derive_rvector(9, 32))

    def test_mean_near_half_over_seeds(self):
        seeds = np.random.default_rng(3).integers(0, 2**63, size=10_000)
        total = np.zeros(4)
        for seed in seeds:
            total += derive_rvector(int(seed), 4)
        mean = total / len(seeds)
        assert np.all(np.abs(mean - 0.5) <= 0.02)


class TestBatchScalarAgreement:
    def test_green_mask_matches_greenlist(self):
        rng = np.random.default_rng(21)
        seeds = rng.integers(0, 2**63, size=300).astype(np.uint64)
        masks = green_mask_batch(seeds, 0.25, 64)
        for seed, mask in zip(seeds, masks):
            assert np.flatnonzero(mask).tolist() == sorted(
                derive_greenlist(int(seed), 0.25, 64).tolist())

    def test_rvalue_matches_rvector(self):
        rng = np.random.default_rng(22)
        seeds = rng.integers(0, 2**63, size=200).astype(np.uint64)
        tokens = rng.integers(0, 32, size=200)
        vals = rvalue_batch(seeds, tokens)
        for seed, tok, v in zip(seeds, tokens, vals):
            assert v == derive_rvector(int(seed), 32)[int(tok)]

    def test_stream_value_matches_block(self):
        from radioscope.hashing import stream_block

        seeds = np.array([5, 900719925474], dtype=np.uint64)
        block = stream_block(seeds, 3, 4)
        for i, seed in enumerate(seeds):
            for j in range(4):
                assert int(block[i, j]) == stream_value(int(seed), 3 + j)
