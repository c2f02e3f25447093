import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radioscope import (
    ConfigError,
    SamplingConfig,
    SecretKey,
    TextSampler,
    WatermarkConfig,
    mpac_extract,
    score_batch,
)
from radioscope import schemes
from radioscope.hashing import green_mask_batch, window_hashes
from radioscope.schemes import (
    aaronson_pick,
    ak_score_batch,
    bias_logits,
    kgw_score_batch,
    mpac_partitions,
    mpac_positions,
)
from scheme_oracle import (
    derive_greenlist,
    derive_rvector,
    loop_mpac_extract,
    mpac_partition,
    mpac_position,
)

KEY = SecretKey(0x5EED)


def cfg(scheme="kgw", vocab=64, **kw):
    return WatermarkConfig(scheme, KEY, vocab, **kw)


def seeds_of(c, windows):
    """The seed of each window, one :meth:`WatermarkConfig.seed` call each."""
    return np.array([c.seed(tuple(w)) for w in windows], dtype=np.uint64)


class TestConfigValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            cfg("foo")

    def test_bad_gamma(self):
        with pytest.raises(ConfigError):
            cfg(gamma=0.0)
        with pytest.raises(ConfigError):
            cfg(gamma=1.0)

    def test_negative_delta(self):
        with pytest.raises(ConfigError):
            cfg(delta=-1.0)

    @pytest.mark.parametrize("scheme", ["kgw", "ak", "mpac"])
    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_temperature_must_be_positive(self, scheme, temperature):
        with pytest.raises(ConfigError, match=f"temperature must be > 0, got {temperature}"):
            cfg(scheme, message="01", temperature=temperature)

    def test_mpac_needs_message(self):
        with pytest.raises(ConfigError):
            cfg("mpac")
        with pytest.raises(ConfigError):
            cfg("mpac", message="101")  # odd length
        with pytest.raises(ConfigError):
            cfg("mpac", message="10a1")

    def test_window_length_checked(self):
        c = cfg(k=2)
        with pytest.raises(ConfigError):
            c.seed((1, 2, 3))

    def test_mpac_digits(self):
        c = cfg("mpac", message="01101100")
        assert c.n_positions == 4
        assert c.digits() == [1, 2, 3, 0]


class TestKGW:
    def test_zero_delta_identity(self):
        c = cfg(delta=0.0)
        logits = np.arange(64, dtype=float)
        out = bias_logits(seeds_of(c, [(1, 2)]), logits[None], np.arange(64)[None], c)
        assert np.array_equal(out[0], logits)

    def test_bias_raises_exactly_greenlist(self):
        c = cfg(delta=3.0, gamma=0.25)
        out = bias_logits(seeds_of(c, [(5, 9)]), np.zeros((1, 64)), np.arange(64)[None], c)[0]
        raised = np.nonzero(out == 3.0)[0]
        green = derive_greenlist(c.seed((5, 9)), 0.25, 64)
        assert sorted(raised.tolist()) == sorted(green.tolist())
        assert (out[np.setdiff1d(np.arange(64), green)] == 0.0).all()

    def test_score_is_membership(self):
        c = cfg(gamma=0.25)
        green = set(derive_greenlist(c.seed((3, 4)), 0.25, 64).tolist())
        got = kgw_score_batch(seeds_of(c, [(3, 4)] * 64), np.arange(64), c)
        assert got.tolist() == [1.0 if tok in green else 0.0 for tok in range(64)]

    def test_empirical_green_rate(self):
        c = cfg(gamma=0.25, vocab=256)
        rng = np.random.default_rng(4)
        seeds = seeds_of(c, rng.integers(0, 256, size=(100_000, 2)))
        tokens = rng.integers(0, 256, size=100_000)
        rate = kgw_score_batch(seeds, tokens, c).mean()
        assert abs(rate - 0.25) <= 0.01

    def test_generated_text_scores_above_gamma(self, teacher64):
        c = cfg(delta=3.0, gamma=0.25, k=2)
        sampler = TextSampler(teacher64, SamplingConfig(seed=2), c)
        uniforms = np.random.default_rng(2).random((1, 500))
        tokens = sampler.generate([[1, 2]], 500, uniforms)[0].tolist()
        stream = [1, 2] + tokens
        seeds = seeds_of(c, [stream[i - 2 : i] for i in range(2, len(stream))])
        assert score_batch(seeds, np.array(tokens), c).sum() / 500 > 0.25


class TestAK:
    def test_one_hot_selects_that_token(self):
        c = cfg("ak", vocab=8)
        p = np.zeros(8)
        p[5] = 1.0
        picked = aaronson_pick(seeds_of(c, [(0, 1), (3, 3), (7, 2)]), np.tile(p, (3, 1)),
                               np.tile(np.arange(8), (3, 1)))
        assert picked.tolist() == [5, 5, 5]

    def test_uniform_p_is_argmax_r(self):
        c = cfg("ak", vocab=8)
        p = np.full(8, 1 / 8)
        r = derive_rvector(c.seed((2, 6)), 8)
        picked = aaronson_pick(seeds_of(c, [(2, 6)]), p[None], np.arange(8)[None])
        assert picked[0] == int(np.argmax(r))

    def test_never_selects_zero_probability(self):
        c = cfg("ak", vocab=8)
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(8), size=200)
        dead = rng.integers(0, 8, size=200)
        p[np.arange(200), dead] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        seeds = seeds_of(c, rng.integers(0, 8, size=(200, 2)))
        picked = aaronson_pick(seeds, p, np.tile(np.arange(8), (200, 1)))
        assert (picked != dead).all()

    def test_distribution_preserved(self):
        # selection frequency over random keys matches the base distribution
        p = np.array([0.3, 0.05, 0.2, 0.1, 0.05, 0.15, 0.1, 0.05])
        rng = np.random.default_rng(14)
        n = 10_000
        seeds = np.array([WatermarkConfig("ak", SecretKey(int(s)), 8).seed((1, 2))
                          for s in rng.integers(1, 2**63, size=n)], dtype=np.uint64)
        picked = aaronson_pick(seeds, np.tile(p, (n, 1)), np.tile(np.arange(8), (n, 1)))
        counts = np.bincount(picked, minlength=8)
        tv = 0.5 * np.abs(counts / n - p).sum()
        assert tv <= 0.02

    def test_score_closed_form(self):
        c = cfg("ak", vocab=32)
        r = derive_rvector(c.seed((4, 4)), 32)
        got = ak_score_batch(seeds_of(c, [(4, 4)] * 32), np.arange(32), c)
        assert got == pytest.approx(-np.log1p(-r), rel=1e-12)

    def test_score_mean_near_one(self):
        rng = np.random.default_rng(15)
        seeds = rng.integers(0, 2**63, size=100_000).astype(np.uint64)
        tokens = rng.integers(0, 64, size=100_000)
        scores = ak_score_batch(seeds, tokens, cfg("ak"))
        assert (scores >= 0).all()
        assert abs(scores.mean() - 1.0) <= 0.02

    def test_batch_matches_scalar(self):
        """Scores of all windows at once equal one-row calls, one per window."""
        c = cfg("ak", vocab=16)
        rng = np.random.default_rng(16)
        windows = rng.integers(0, 16, size=(50, 2))
        tokens = rng.integers(0, 16, size=50)
        batch = ak_score_batch(window_hashes(windows, c.key), tokens, c)
        for w, t, b in zip(windows, tokens, batch):
            assert b == pytest.approx(ak_score_batch(seeds_of(c, [w]), np.array([t]), c)[0])


class TestMPAC:
    MSG = "01101100"

    def test_partition_contract(self):
        c = cfg("mpac", vocab=8, message=self.MSG)
        for seed in (0, 1, 999, 2**40):
            sets = mpac_partition(seed, c)
            sizes = sorted(len(s) for s in sets)
            assert sizes == [2, 2, 2, 2]
            union = np.concatenate(sets)
            assert sorted(union.tolist()) == list(range(8))

    def test_partition_uneven_vocab(self):
        c = cfg("mpac", vocab=10, message=self.MSG)
        sets = mpac_partition(3, c)
        assert sorted(len(s) for s in sets) == [2, 2, 3, 3]
        assert sorted(np.concatenate(sets).tolist()) == list(range(10))

    def test_position_uniform(self):
        c = cfg("mpac", vocab=64, message=self.MSG)
        rng = np.random.default_rng(18)
        counts = np.zeros(c.n_positions)
        n = 10_000
        for w in rng.integers(0, 64, size=(n, 2)):
            counts[mpac_position(c.seed(tuple(w)), c)] += 1
        assert np.all(np.abs(counts / n - 0.25) <= 0.02)

    def test_zero_delta_identity(self):
        c = cfg("mpac", vocab=16, message=self.MSG, delta=0.0)
        logits = np.arange(16, dtype=float)
        out = bias_logits(seeds_of(c, [(3, 1)]), logits[None], np.arange(16)[None], c)
        assert np.array_equal(out[0], logits)

    def test_bias_targets_message_set(self):
        c = cfg("mpac", vocab=16, message=self.MSG, delta=5.0)
        out = bias_logits(seeds_of(c, [(2, 9)]), np.zeros((1, 16)), np.arange(16)[None], c)[0]
        seed = c.seed((2, 9))
        digit = c.digits()[mpac_position(seed, c)]
        expected = set(mpac_partition(seed, c)[digit].tolist())
        assert set(np.nonzero(out == 5.0)[0].tolist()) == expected

    def test_majority_vote_and_ties(self):
        c = cfg("mpac", vocab=16, message="00" * 4, delta=5.0)
        # one document per window voting at position 0, so none blocks another
        windows = [w for w in np.ndindex(16, 16) if mpac_position(c.seed(w), c) == 0]

        def docs(*digits):
            return [[*w, int(mpac_partition(c.seed(w), c)[d][0])]
                    for w, d in zip(windows, digits)]

        assert mpac_extract(docs(2, 1, 2, 1, 2), c)[0][0] == 2
        assert mpac_extract(docs(3, 1), c)[0][0] == 1  # a tie goes to the lowest digit

    def test_empty_stream_undecided(self):
        c = cfg("mpac", vocab=16, message=self.MSG)
        digits, accuracy = mpac_extract([], c)
        assert digits == [None] * 4
        assert accuracy is None

    def test_duplicate_tuples_counted_once(self):
        c = cfg("mpac", vocab=16, message=self.MSG, delta=5.0)
        slot = mpac_position(c.seed((1, 2)), c)
        w1, w2 = [w for w in np.ndindex(16, 16)
                  if w != (1, 2) and mpac_position(c.seed(w), c) == slot][:2]

        def doc(w, digit):
            return [*w, int(mpac_partition(c.seed(w), c)[digit][0])]

        # one (seed, token) pair in three documents, where no window blocks
        # it, is one vote for digit 0 against two for digit 1
        digits, _ = mpac_extract([doc((1, 2), 0)] * 3 + [doc(w1, 1), doc(w2, 1)], c)
        assert digits[slot] == 1


@given(st.integers(1, 2**63), st.integers(0, 63),
       st.tuples(st.integers(0, 63), st.integers(0, 63)))
@settings(max_examples=100, deadline=None)
def test_scores_deterministic(s, token, window):
    for scheme in ("kgw", "ak"):
        first, again = (WatermarkConfig(scheme, SecretKey(s), 64) for _ in range(2))
        assert (score_batch(seeds_of(first, [window]), np.array([token]), first)
                == score_batch(seeds_of(again, [window]), np.array([token]), again))


SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12)
MESSAGES = st.integers(1, 6).flatmap(
    lambda b: st.text("01", min_size=2 * b, max_size=2 * b))


class TestBatchAgainstOracle:
    """The batched embed and score functions equal the scalar references."""

    @given(SEEDS, MESSAGES)
    @settings(max_examples=100, deadline=None)
    def test_positions(self, seeds, message):
        c = cfg("mpac", message=message)
        got = mpac_positions(np.array(seeds, dtype=np.uint64), c)
        assert got.tolist() == [mpac_position(seed, c) for seed in seeds]

    def test_position_when_every_draw_is_rejected(self, monkeypatch):
        # b = 6 rejects the 32-bit draws 2**32 - 4 .. 2**32 - 1, which are
        # 0, 1, 2, 3 modulo 6; the last of the eight draws stands
        import scheme_oracle

        def draw(j):
            return (2**32 - 4 + j % 4) << 32

        monkeypatch.setattr(scheme_oracle, "stream_value", lambda seed, j: draw(j))
        monkeypatch.setattr(schemes, "stream_block", lambda seeds, start, count: np.array(
            [[draw(j) for j in range(start, start + count)]] * len(seeds), dtype=np.uint64))
        c = cfg("mpac", message="01" * 6)
        assert mpac_position(5, c) == 3
        assert mpac_positions(np.array([5, 6], dtype=np.uint64), c).tolist() == [3, 3]

    @given(SEEDS, st.integers(1, 200))
    @settings(max_examples=100, deadline=None)
    def test_partitions(self, seeds, v):
        c = cfg("mpac", vocab=v, message="01")
        got = mpac_partitions(np.array(seeds, dtype=np.uint64), v)
        for seed, row in zip(seeds, got):
            for digit, members in enumerate(mpac_partition(seed, c)):
                assert (row[members] == digit).all()

    @given(SEEDS, st.sampled_from(["kgw", "mpac"]), st.integers(2, 100),
           st.floats(0.0, 8.0), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bias_logits(self, seeds, scheme, v, delta, data):
        c = cfg(scheme, vocab=v, delta=delta, message="0110" if scheme == "mpac" else None)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        width = data.draw(st.integers(1, v))
        ids = np.array([rng.permutation(v)[:width] for _ in seeds])
        logits = np.log(rng.random((len(seeds), width)))
        got = bias_logits(np.array(seeds, dtype=np.uint64), logits, ids, c)
        for seed, row, lg, out in zip(seeds, ids, logits, got):
            if scheme == "kgw":
                raised = derive_greenlist(seed, c.gamma, v)
            else:
                raised = mpac_partition(seed, c)[c.digits()[mpac_position(seed, c)]]
            want = np.where(np.isin(row, raised), lg + delta, lg)
            assert np.array_equal(out, want)

    @given(SEEDS, st.integers(1, 64), st.data())
    @settings(max_examples=100, deadline=None)
    def test_aaronson_pick(self, seeds, v, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        width = data.draw(st.integers(1, v))
        ids = np.array([rng.permutation(v)[:width] for _ in seeds])
        p = rng.dirichlet(np.ones(width), size=len(seeds))
        p[:, data.draw(st.integers(0, width - 1))] = 0.0  # never picked
        p[:, 0] = np.maximum(p[:, 0], 0.1)
        got = aaronson_pick(np.array(seeds, dtype=np.uint64), p, ids)
        for seed, row, pr, col in zip(seeds, ids, p, got):
            r = derive_rvector(seed, v)[row]
            cost = [-np.log(max(x, 1e-300)) / q if q > 0 else np.inf for x, q in zip(r, pr)]
            assert col == int(np.argmin(cost))

    @given(st.lists(st.tuples(st.lists(st.integers(0, 3) | st.integers(0, 15), max_size=40),
                              st.none() | st.integers(0, 45)), max_size=6),
           st.integers(1, 3), st.sampled_from([None, "0000", "1111", "0110"]))
    @settings(max_examples=100, deadline=None)
    def test_extract_casts_the_loop_votes(self, drawn, k, reference):
        """Documents whose tokens are often below 4, so that windows recur,
        some with a ``prompt_len`` that may pass their end."""
        c = cfg("mpac", vocab=16, k=k, message="0110", delta=5.0)
        docs = [tokens if n is None else {"tokens": tokens, "prompt_len": n}
                for tokens, n in drawn]
        assert mpac_extract(docs, c, reference) == loop_mpac_extract(docs, c, reference)

    @pytest.mark.parametrize("elems", [1, 64, 1 << 19])
    def test_scores_over_chunk_boundaries(self, monkeypatch, elems):
        monkeypatch.setattr(schemes, "TEMP_ELEMS", elems)
        c = cfg(gamma=0.25, vocab=64)
        rng = np.random.default_rng(23)
        seeds = rng.integers(0, 2**63, size=300).astype(np.uint64)
        tokens = rng.integers(0, 64, size=300)
        want = [float(t in derive_greenlist(int(s), 0.25, 64)) for s, t in zip(seeds, tokens)]
        assert kgw_score_batch(seeds, tokens, c).tolist() == want
        assert kgw_score_batch(seeds[:0], tokens[:0], c).tolist() == []

    @pytest.mark.parametrize("elems", [1, 100, 1 << 16])
    @pytest.mark.parametrize("scheme", ["kgw", "mpac"])
    def test_repeated_seeds_score_as_one_call_per_tuple(self, monkeypatch, elems, scheme):
        """Each distinct seed's row is built once and read by all its tuples."""
        monkeypatch.setattr(schemes, "TEMP_ELEMS", elems)
        rng = np.random.default_rng(25)
        pool = rng.integers(0, 2**64, size=40, dtype=np.uint64)
        seeds, tokens = pool[rng.integers(0, 40, size=500)], rng.integers(0, 64, size=500)
        if scheme == "kgw":
            def rows_of(chunk):
                return green_mask_batch(chunk, 0.25, 64)
        else:
            def rows_of(chunk):
                return mpac_partitions(chunk, 64)
        got = schemes._at_tokens(rows_of, seeds, tokens, 64)
        want = np.array([rows_of(seeds[i : i + 1])[0, t] for i, t in enumerate(tokens)])
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_ak_scores_are_the_oracle_rvector(self):
        c = cfg("ak", vocab=32)
        rng = np.random.default_rng(24)
        seeds = rng.integers(0, 2**63, size=100).astype(np.uint64)
        tokens = rng.integers(0, 32, size=100)
        want = [-np.log1p(-derive_rvector(int(s), 32)[t]) for s, t in zip(seeds, tokens)]
        assert np.array_equal(ak_score_batch(seeds, tokens, c), want)
