import copy
import json
import re
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import numpy as np
import pytest

from radioscope import (
    CapabilityError,
    ConfigError,
    DetectionInterrupted,
    NGramModel,
    RemoteModel,
    SamplingConfig,
    SecretKey,
    WatermarkConfig,
    build_filter,
    canonical_dedup,
    contaminated_student,
    derive_run_key,
    detect_closed,
    detect_open,
    generate_corpus,
    mia_detect,
    mpac_extract,
    parse_scenario,
    run_detection,
    run_scenario,
    train_ngram,
)
from radioscope import pipelines
from radioscope.dedup import candidate_table
from radioscope.pipelines import _SCENARIO_KEYS, pvalue_for
from radioscope.schemes import mpac_partitions
import store_contract as contract
from test_cli_errors import serving

KEY = SecretKey(0xFEED)


def wm_cfg(vocab=64, **kw):
    return WatermarkConfig("kgw", KEY, vocab, k=2, gamma=0.25, delta=3.0, **kw)


@pytest.fixture(scope="module")
def contaminated(teacher64):
    cfg = wm_cfg()
    student, train_docs, supervised = contaminated_student(
        teacher64, cfg, 1.0, n_docs=60, doc_len=300, order=3,
        sampling=SamplingConfig(seed=21))
    return cfg, student, train_docs, supervised


def _each_row_built_once(built: dict) -> bool:
    return all(len(np.unique(rows)) == len(rows)
               for rows in map(np.concatenate, built.values()))


def test_contaminated_student_builds_each_teacher_row_once(fresh_teacher64, monkeypatch):
    """Its watermarked and clean corpora read one store of teacher rows."""
    made, built = contract.count_builds(monkeypatch)
    contaminated_student(fresh_teacher64, wm_cfg(), 0.5, n_docs=40, doc_len=200, order=2,
                         sampling=SamplingConfig(seed=25))
    assert [model for model, _ in made] == [fresh_teacher64]
    assert len(built) == 1 and _each_row_built_once(built)


class TestContaminatedStudent:
    """The mix, with ``generate_corpus`` stubbed: each call is recorded as
    ``(n_docs, seed)`` and returns documents tagged by corpus and index."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def stub(model, n_docs, doc_len, sampling, wm=None):
            calls.append((n_docs, sampling.seed))
            return [{"tokens": [1, 2, 3], "wm": wm is not None, "i": i} for i in range(n_docs)]

        monkeypatch.setattr(pipelines, "generate_corpus", stub)
        return calls

    def mix(self, rho, d=1.0, n_docs=10):
        return contaminated_student(NGramModel(2, 16), wm_cfg(16), rho, n_docs=n_docs,
                                    doc_len=3, order=2, sampling=SamplingConfig(seed=30), d=d)

    def test_rho_zero_all_clean_without_a_watermarked_call(self, calls):
        _, train, supervised = self.mix(0.0)
        assert not any(doc["wm"] for doc in train) and len(train) == 10
        assert supervised == []
        assert calls == [(10, 32)]

    def test_rho_one_full_supervision_without_a_clean_call(self, calls):
        _, train, supervised = self.mix(1.0, 1.0)
        assert supervised == train
        assert all(doc["wm"] for doc in train) and len(train) == 10
        assert calls == [(10, 31)]

    def test_rounding_rule(self, calls):
        _, train, _ = self.mix(0.05, n_docs=1000)
        assert sum(doc["wm"] for doc in train) == 50
        assert len(train) == 1000
        assert calls == [(50, 31), (950, 32)]

    def test_dilution_adds_decoys(self, calls):
        _, train, supervised = self.mix(0.1, 0.1, n_docs=100)
        assert sum(doc["wm"] for doc in train) == 10
        assert len(supervised) == 100  # 10 real training docs + 90 decoys
        assert supervised[:10] == train[:10]
        assert calls == [(100, 31), (90, 32)]

    def test_no_supervision_holds_nothing(self, calls):
        _, train, supervised = self.mix(0.5, 0.0)
        assert sum(doc["wm"] for doc in train) == 5
        assert supervised == []
        assert calls == [(5, 31), (5, 32)]

    @pytest.mark.parametrize("rho,d,name", [(1.5, 1.0, "rho"), (-0.5, 1.0, "rho"),
                                             (0.5, -0.1, "d"), (0.5, 1.5, "d")])
    def test_bad_mix_refused_before_any_call(self, calls, rho, d, name):
        with pytest.raises(ConfigError, match=f"^{name} must lie in \\[0, 1\\]"):
            self.mix(rho, d)
        assert calls == []


@pytest.fixture(scope="module")
def clean_student(teacher64):
    student, _, _ = contaminated_student(
        teacher64, None, 0.0, n_docs=60, doc_len=300, order=3,
        sampling=SamplingConfig(seed=22))
    return student


class TestDetectOpen:
    def test_contaminated_student_detected(self, teacher64, contaminated):
        cfg, student, _, _ = contaminated
        report = run_detection(student, teacher64, cfg, "open", n_docs=15,
                               doc_len=300, sampling=SamplingConfig(seed=23))
        assert report.log10_p < -10
        assert report.n_scored > 1000

    def test_pvalue_recomputable(self, teacher64, contaminated):
        cfg, student, _, _ = contaminated
        report = run_detection(student, teacher64, cfg, "open", n_docs=5,
                               doc_len=200, sampling=SamplingConfig(seed=24))
        p, log10_p = pvalue_for(report.score, report.n_scored, cfg)
        assert report.p_value == p
        assert report.log10_p == log10_p

    def test_clean_student_not_flagged(self, teacher64, clean_student):
        report = run_detection(clean_student, teacher64, wm_cfg(), "open",
                               n_docs=15, doc_len=300,
                               sampling=SamplingConfig(seed=25))
        assert report.p_value > 1e-3

    def test_all_windows_repeated_from_prefix_scores_nothing(self, clean_student):
        cfg = wm_cfg()
        # prefix contains every window of the scored tail
        doc = {"tokens": [1, 2, 1, 2, 1, 2, 1], "prompt_len": 3}
        report = detect_open(clean_student, [doc], cfg)
        assert report.n_scored == 0
        assert report.p_value == 1.0
        assert report.inconclusive

    def test_without_logits_capability_error(self):
        remote = RemoteModel("http://127.0.0.1:9/")
        with pytest.raises(CapabilityError):
            detect_open(remote, [[1, 2, 3]], wm_cfg())

    def test_no_dedup_warns(self, clean_student):
        doc = [1, 2, 3, 1, 2, 3, 1, 2, 3]
        with pytest.warns(UserWarning, match="NOT valid"):
            report = detect_open(clean_student, [doc], wm_cfg(), dedup=False)
        assert not report.dedup_applied
        assert report.n_scored > detect_open(clean_student, [doc], wm_cfg()).n_scored

    def test_budget_truncates(self, teacher64, contaminated):
        cfg, student, _, _ = contaminated
        docs = generate_corpus(teacher64, 5, 150, SamplingConfig(seed=27),
                               wm=cfg)
        small = detect_open(student, docs, cfg, budget=50)
        assert small.n_scored == 50


def spy(monkeypatch, name: str) -> list:
    """Each call of ``pipelines.<name>``, as its arguments and a copy of
    its result, so a caller that writes into the result leaves no trace."""
    calls = []
    real = getattr(pipelines, name)

    def recorded(*args):
        out = real(*args)
        calls.append((args, copy.deepcopy(out)))
        return out

    monkeypatch.setattr(pipelines, name, recorded)
    return calls


class TestMpacExtract:
    """Extraction reads documents through open detection's reader, and the
    rows ``canonical_dedup`` admits under the key vote."""

    def test_a_recurring_window_casts_no_second_vote(self, monkeypatch):
        cfg = WatermarkConfig("mpac", KEY, 16, k=2, message="01")
        seed = cfg.seed((1, 2))
        sets = mpac_partitions(np.array([seed], np.uint64), 16)[0]
        a, b = (int(np.flatnonzero(sets == digit)[0]) for digit in (0, 1))
        voted = spy(monkeypatch, "mpac_vote")
        # (1, 2) recurs, the second time before a token of another digit's set
        assert mpac_extract([[1, 2, a, 1, 2, b]], cfg) == mpac_extract([[1, 2, a, 1, 2]], cfg)
        (seeds, tokens, _, _), _ = voted[0]
        pairs = set(zip(seeds.tolist(), tokens.tolist()))
        assert (seed, a) in pairs and (seed, b) not in pairs

    def test_c10_votes_with_the_rows_detection_admits(self, teacher128, monkeypatch):
        """c10's watermarked corpus: extraction votes with exactly the rows
        ``canonical_dedup`` admits from the open readout, each with its
        window's seed under the key; detection reads the same readout
        through the same reader."""
        cfg = WatermarkConfig("mpac", SecretKey(0xA11CE), 128, k=2, delta=12.0,
                              message="10110010")
        docs = generate_corpus(teacher128, 10, 250,
                               SamplingConfig(seed=10_000, nucleus_p=1.0), wm=cfg)
        read, voted = spy(monkeypatch, "_read_open"), spy(monkeypatch, "mpac_vote")
        mpac_extract(docs, cfg)
        detect_open(teacher128, docs, WatermarkConfig("kgw", cfg.key, 128, k=2))
        tokens = np.concatenate([doc["tokens"] for doc in docs])
        table, windows = candidate_table(tokens, [250] * 10, [0] * 10, 2, open_mode=True)
        (_, (_, _, extracted, extracted_windows)), (_, (_, _, detected, detected_windows)) = read
        assert np.array_equal(extracted, table)
        assert np.array_equal(extracted_windows, windows)
        assert np.array_equal(detected_windows, windows)
        # detection then replaces each row's token with the suspect's greedy one
        for name in ("doc", "pos", "blocked", "window"):
            assert np.array_equal(detected[name], table[name])
        admitted = canonical_dedup(table)
        assert (len(table), len(admitted)) == (2480, 2147)
        (seeds, voted_tokens, _, _), _ = voted[0]
        assert seeds.tolist() == [cfg.seed(w) for w in windows[admitted["window"]].tolist()]
        assert np.array_equal(voted_tokens, admitted["token"])

    @pytest.mark.parametrize("reference", ["1", "011", "0120"])
    def test_a_reference_is_a_bit_per_message_bit(self, reference):
        """Unless refused, "1" would be broadcast over the message's bits,
        "011" fail in numpy's broadcast, and "0120" be scored."""
        cfg = WatermarkConfig("mpac", SecretKey(5), 16, message="0110")
        error = (f"reference must be 4 bits, each 0 or 1, as the message is, "
                 f"got {reference}")
        with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
            mpac_extract([list(range(1, 11))], cfg, reference)
        assert mpac_extract([list(range(1, 11))], cfg, "0110")[1] == 0.25


class TestWeakKeys:
    """A key under which two windows of the text share a seed is refused
    by every door that scores text; the refusal names no key."""

    @pytest.fixture(scope="class")
    def text(self, teacher128):
        docs = generate_corpus(teacher128, 6, 120, SamplingConfig(seed=19))
        return [doc["tokens"] for doc in docs]

    DOORS = {
        "open": lambda teacher, text, key: detect_open(
            teacher, text, WatermarkConfig("kgw", key, 128, k=2)),
        "closed": lambda teacher, text, key: detect_closed(
            teacher, [doc[:20] for doc in text], WatermarkConfig("ak", key, 128, k=2),
            sampling=SamplingConfig(seed=20, max_tokens=60)),
        "mpac": lambda teacher, text, key: mpac_extract(
            text, WatermarkConfig("mpac", key, 128, k=2, message="0110")),
    }

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("s", [1, 2, 2**64 - 2])
    def test_a_key_that_merges_windows_is_refused(self, teacher128, text, door, s):
        """1 hashes a window to the sum of its tokens, 2**64 - 2 to their
        alternating sum, and 2 merges (a, b) with (a + 1, b - 2)."""
        with pytest.raises(ConfigError, match="^the key hashes two windows") as refused:
            self.DOORS[door](teacher128, text, SecretKey(s))
        assert not re.search(r"\d", str(refused.value))

    @pytest.mark.parametrize("door", DOORS)
    def test_derived_keys_and_the_readme_key_are_accepted(self, teacher128, text, door):
        for key in [SecretKey(0xDEADBEEFCAFE), *(derive_run_key(42, i) for i in range(3))]:
            self.DOORS[door](teacher128, text, key)


class TestDetectClosed:
    def test_watermarked_teacher_flags_itself(self, teacher64):
        cfg = wm_cfg()
        # generate watermarked text, score it directly via empty-model path
        docs = generate_corpus(teacher64, 10, 300, SamplingConfig(seed=30),
                               wm=cfg)
        completions = [d["tokens"][3:] for d in docs]
        prompts = [d["tokens"][:3] for d in docs]
        report = detect_closed(teacher64, prompts, cfg, completions=completions)
        assert report.n_scored >= 1000
        assert report.log10_p < -6

    def test_prompt_windows_excluded(self, clean_student):
        cfg = wm_cfg()
        prompts = [[1, 2, 3, 4]]
        completions = [[1, 2, 9, 9]]
        report = detect_closed(clean_student, prompts, cfg,
                               completions=completions)
        admitted_windows = report.dedup_stats
        # (1,2) occurs in the prompt so (2,?) after seeing 1,2 in completion
        # region is eligible, but the (1,2)->9 tuple window (1,2) is blocked
        assert report.n_scored < admitted_windows[0]

    def test_empty_prompts_rejected(self, clean_student):
        with pytest.raises(ValueError):
            detect_closed(clean_student, [], wm_cfg())

    def test_no_dedup_warns_and_collapses(self, teacher64, clean_student):
        cfg = wm_cfg()
        wm_prompts = [d["tokens"] for d in
                      generate_corpus(teacher64, 15, 200,
                                      SamplingConfig(seed=31), wm=cfg)]
        with pytest.warns(UserWarning, match="NOT valid"):
            report = detect_closed(clean_student, wm_prompts, cfg, dedup=False,
                                   sampling=SamplingConfig(seed=32,
                                                           max_tokens=50))
        assert report.p_value < 1e-3  # spurious: the student is clean
        assert not report.dedup_applied

    def test_filter_reduces_and_reports(self, teacher64, contaminated):
        cfg, student, train_docs, supervised = contaminated
        phi = build_filter([d["tokens"] for d in supervised], cfg.k)
        sampling = SamplingConfig(seed=33, max_tokens=150)
        prompts = [d["tokens"][:8] for d in
                   generate_corpus(teacher64, 10, 20, SamplingConfig(seed=34))]
        unfiltered = detect_closed(student, prompts, cfg, sampling=sampling)
        filtered = detect_closed(student, prompts, cfg, phi=phi,
                                 sampling=sampling)
        assert filtered.n_scored <= unfiltered.n_scored
        size, hit_rate = filtered.filter_stats
        assert size == len(phi)
        assert 0.0 <= hit_rate <= 1.0

    def test_inconclusive_when_nothing_eligible(self, clean_student):
        cfg = wm_cfg()
        # completion repeats the prompt verbatim: every window blocked
        report = detect_closed(clean_student, [[1, 1, 1]], cfg,
                               completions=[[1, 1, 1, 1, 1, 1]])
        assert report.n_scored == 0
        assert report.inconclusive
        assert report.p_value == 1.0


class TestRemoteClosed:
    def test_remote_failure_carries_partial_report(self):
        class FailingHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_response(500)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        with serving(FailingHandler) as url:
            remote = RemoteModel(url, max_retries=1, backoff=0.01)
            with pytest.raises(DetectionInterrupted) as excinfo:
                detect_closed(remote, [[1, 2, 3]], wm_cfg(),
                              sampling=SamplingConfig(max_tokens=5))
        assert excinfo.value.partial.inconclusive

    def test_remote_happy_path(self):
        class EchoHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.dumps({"token": 7}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        with serving(EchoHandler) as url:
            report = detect_closed(RemoteModel(url), [[1, 2, 3]], wm_cfg(),
                                   sampling=SamplingConfig(max_tokens=10))
        assert report.n_scored > 0


class TestMIA:
    def make_docs(self, teacher, n, seed):
        return generate_corpus(teacher, n, 120, SamplingConfig(seed=seed))

    def test_identical_sets_not_flagged(self, teacher64, clean_student):
        docs = self.make_docs(teacher64, 30, 40)
        d, p, report = mia_detect(clean_student, docs, docs)
        assert d == 0.0
        assert p == pytest.approx(1.0)

    def test_memorizing_student_flagged(self, teacher64):
        train = self.make_docs(teacher64, 60, 41)
        fresh = self.make_docs(teacher64, 60, 42)
        student = train_ngram([d["tokens"] for d in train], order=5,
                              smoothing_lambda=0.01, vocab_size=64)
        _, p, _ = mia_detect(student, train, fresh)
        assert p < 1e-3

    def test_text_field_is_not_read(self, teacher64, clean_student):
        """Calibration reads the tokens: documents with and without a
        ``text`` field, or with another one, give the same report."""
        docs = self.make_docs(teacher64, 10, 43)
        fresh = self.make_docs(teacher64, 10, 44)
        serialized = [{**d, "text": " ".join(map(str, d["tokens"]))} for d in docs]
        other = [{**d, "text": "unrelated"} for d in docs]
        reports = [mia_detect(clean_student, c, fresh)[2] for c in (docs, serialized, other)]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["n_candidate"] == 10 and set(reports[0]) == {
            "d", "p", "n_candidate", "n_fresh"}

    def test_empty_set_rejected(self, clean_student):
        with pytest.raises(ValueError, match="at least one document"):
            mia_detect(clean_student, [], [{"tokens": [3, 4]}])
        with pytest.raises(ValueError, match="at least one document"):
            mia_detect(clean_student, [{"tokens": [3, 4]}], [])


class TestScenario:
    def write(self, tmp_path, text):
        path = tmp_path / "s.scn"
        path.write_text(text)
        return path

    def test_missing_scenario_key(self, tmp_path):
        with pytest.raises(ValueError, match="scenario"):
            parse_scenario(self.write(tmp_path, "k = 2\n"))

    def test_line_level_error(self, tmp_path):
        path = self.write(tmp_path, "scenario = rho_sweep\nk : 2\n")
        with pytest.raises(ValueError, match=r":2:"):
            parse_scenario(path)

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "scenario = rho_sweep\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_scenario(path)

    def test_unknown_mode(self, tmp_path):
        path = self.write(tmp_path, "scenario = rho_sweep\nmodes = sideways\n")
        with pytest.raises(ValueError, match="sideways"):
            parse_scenario(path)

    def test_defaults_and_lists(self, tmp_path):
        path = self.write(tmp_path,
                          "scenario = k_sweep\nk_values = 1, 2\n# comment\n")
        spec = parse_scenario(path)
        assert spec["k_values"] == [1, 2]
        assert spec["gamma"] == 0.25

    def test_readme_lists_every_key_with_its_default(self):
        """README "Scenarios" holds one row per key of the table, in its
        order, with the default as a file would write it."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Scenarios\n", 1)[1].split("\n## ", 1)[0]
        table = section.split("| Key | Default | Rule |\n|---|---|---|\n", 1)[1]
        rows = [re.match(r"\| `(\w+)` \| ([^|]+?) \|", line).groups()
                for line in table.split("\n\n", 1)[0].splitlines()]

        def written(default):
            if default is None:
                return "unset"
            return f"`{', '.join(map(str, default)) if isinstance(default, list) else default}`"

        assert rows == [(key, written(default)) for key, (default, _, _) in _SCENARIO_KEYS.items()]

    def test_rho_sweep_end_to_end(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "scenario = rho_sweep",
            "rho = 0, 1.0",
            "repetitions = 2",
            "n_docs = 30",
            "doc_len = 120",
            "detect_docs = 8",
            "detect_len = 120",
            "vocab_size = 32",
            "modes = open",
        ]) + "\n")
        out = run_scenario(path, tmp_path / "out")
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # header + 2 values x 2 reps
        assert (out / "summary.svg").read_text().startswith("<svg")
        # contaminated rows must dominate the clean ones
        import csv

        with open(out / "results.csv") as f:
            data = list(csv.DictReader(f))
        lo = [float(r["log10_p"]) for r in data if r["value"] == "0.0"]
        hi = [float(r["log10_p"]) for r in data if r["value"] == "1.0"]
        assert max(hi) < min(lo)

    def test_purification_weakens_signal(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "scenario = purification",
            "repetitions = 1",
            "n_docs = 40",
            "doc_len = 150",
            "detect_docs = 10",
            "detect_len = 150",
            "vocab_size = 32",
            "modes = open",
        ]) + "\n")
        out = run_scenario(path, tmp_path / "out")
        import csv

        with open(out / "results.csv") as f:
            data = {r["phase"]: float(r["log10_p"]) for r in csv.DictReader(f)}
        assert data["post"] > data["pre"]

    def test_purification_runs_every_mode(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "scenario = purification",
            "repetitions = 1",
            "n_docs = 40",
            "doc_len = 120",
            "detect_docs = 8",
            "detect_len = 120",
            "vocab_size = 32",
            "modes = open, closed",
        ]) + "\n")
        out = run_scenario(path, tmp_path / "out")
        import csv

        with open(out / "results.csv") as f:
            rows = [(r["mode"], r["phase"], r["value"]) for r in csv.DictReader(f)]
        assert rows == [("open", "pre", "0"), ("closed", "pre", "0"),
                        ("open", "post", "1"), ("closed", "post", "1")]

    def test_shipped_demo_runs_quickly(self, tmp_path):
        import time
        from pathlib import Path

        spec = Path(__file__).parents[1] / "docs" / "examples" / "demo.scn"
        t0 = time.time()
        out = run_scenario(spec, tmp_path / "demo")
        assert (out / "results.csv").exists()
        assert (out / "summary.svg").exists()
        assert time.time() - t0 < 600

    def test_shipped_demo_builds_each_row_once(self, tmp_path, monkeypatch):
        """One nucleus store per model, the teacher's across every run, and
        no row built twice in a store."""
        from pathlib import Path

        made, built = contract.count_builds(monkeypatch)
        run_scenario(Path(__file__).parents[1] / "docs" / "examples" / "demo.scn", tmp_path)
        # the teacher and two students at each of four rho values
        assert len(made) == 9
        assert len({id(model) for model, _ in made}) == len(made)
        assert _each_row_built_once(built)

    def test_run_keys_are_independent(self):
        keys = {derive_run_key(5, i).s for i in range(50)}
        assert len(keys) == 50
