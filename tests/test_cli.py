import json
import os

import pytest

from radioscope import load_corpus
from radioscope.cli import EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_OK, main

KEY_HEX = "0xDEADBEEFCAFE"
RAW_KEY_DEC = str(int(KEY_HEX, 0))


def run(*argv):
    return main(list(argv))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    return tmp_path


def gen(workdir, name="c.jsonl", *extra, key=KEY_HEX, docs=20, doc_len=120,
        vocab=64):
    out = workdir / name
    code = run("generate", "--key", key, "--docs", str(docs),
               "--doc-len", str(doc_len), "--vocab-size", str(vocab),
               "--seed", "3", "--out", str(out), *extra)
    assert code == EXIT_OK
    return out


class TestGenerate:
    def test_same_seed_byte_identical(self, workdir):
        a = gen(workdir, "a.jsonl")
        b = gen(workdir / "sub", "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_zero_docs_empty_corpus(self, workdir):
        out = gen(workdir, docs=0)
        assert load_corpus(out) == []

    def test_delta_with_ak_rejected(self, workdir, capsys):
        code = run("generate", "--key", KEY_HEX, "--scheme", "ak",
                   "--delta", "2.0", "--out", str(workdir / "x.jsonl"))
        assert code == EXIT_ERROR
        assert "--temp" in capsys.readouterr().err

    @pytest.mark.parametrize("temp", ["0", "-1"])
    def test_ak_temperature_must_be_positive(self, workdir, capsys, temp):
        # AK divided its logits by it: every token after the prompt was 0
        code = run("generate", "--key", KEY_HEX, "--scheme", "ak", "--temp", temp,
                   "--docs", "3", "--doc-len", "20", "--vocab-size", "16",
                   "--out", str(workdir / "x.jsonl"))
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --temp must be > 0, got {float(temp)}\n"

    def test_no_watermark_needs_no_key(self, workdir):
        out = workdir / "clean.jsonl"
        assert run("generate", "--no-watermark", "--docs", "3",
                   "--doc-len", "30", "--vocab-size", "32",
                   "--out", str(out)) == EXIT_OK
        assert all(d["wm"] is False for d in load_corpus(out))

    def test_missing_key_is_error(self, workdir, capsys):
        code = run("generate", "--docs", "1", "--out", str(workdir / "x.jsonl"))
        assert code == EXIT_ERROR
        assert "key" in capsys.readouterr().err

    def test_env_key(self, workdir, monkeypatch):
        monkeypatch.setenv("RADIOSCOPE_KEY", KEY_HEX)
        out = workdir / "env.jsonl"
        assert run("generate", "--docs", "2", "--doc-len", "30",
                   "--vocab-size", "32", "--out", str(out)) == EXIT_OK

    def test_manifest_written_once_with_fingerprint(self, workdir):
        gen(workdir)
        manifests = list(workdir.rglob("manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert len(manifest["key_fingerprint"]) == 12
        assert manifest["corpus_hashes"]


class TestTrain:
    def test_train_and_warning_on_short_order(self, workdir):
        corpus = gen(workdir)
        model = workdir / "m.bin"
        with pytest.warns(UserWarning, match="cannot"):
            assert run("train", "--corpus", str(corpus), "--order", "1",
                       "--k", "2", "--vocab-size", "64",
                       "--out", str(model)) == EXIT_OK
        assert model.exists()

    def test_missing_corpus_path(self, workdir, capsys):
        code = run("train", "--corpus", str(workdir / "nope.jsonl"),
                   "--out", str(workdir / "m.bin"))
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestDetect:
    def make_student(self, workdir):
        corpus = gen(workdir, docs=40, doc_len=200)
        model = workdir / "student.bin"
        assert run("train", "--corpus", str(corpus), "--order", "3",
                   "--vocab-size", "64", "--out", str(model)) == EXIT_OK
        return corpus, model

    def test_open_detects_contamination(self, workdir):
        corpus, model = self.make_student(workdir)
        out = workdir / "det"
        assert run("detect", "--mode", "open", "--model", str(model),
                   "--corpus", str(corpus), "--key", KEY_HEX,
                   "--vocab-size", "64", "--out", str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert sorted(report) == ["key_fingerprint", "runs"]
        (only,) = report["runs"]
        assert only["log10_p"] < -10
        assert only["n_scored"] > 0

    def test_inconclusive_exit_code(self, workdir):
        _, model = self.make_student(workdir)
        # documents of exactly k tokens: no scoreable position
        short = workdir / "short.jsonl"
        short.write_text('{"tokens": [1, 2], "wm": true}\n')
        out = workdir / "inc"
        assert run("detect", "--mode", "open", "--model", str(model),
                   "--corpus", str(short), "--key", KEY_HEX,
                   "--vocab-size", "64", "--out", str(out)) == EXIT_INCONCLUSIVE

    @pytest.mark.parametrize("mode", ["open", "closed"])
    def test_no_dedup_warns_on_stderr(self, workdir, capsys, mode):
        corpus, model = self.make_student(workdir)
        out = workdir / "nd"
        with pytest.warns(UserWarning, match="NOT valid"):
            assert run("detect", "--mode", mode, "--model", str(model),
                       "--corpus", str(corpus), "--key", KEY_HEX,
                       "--vocab-size", "64", "--no-dedup", "--budget", "500",
                       "--out", str(out)) == EXIT_OK
        assert "INVALID" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert not report["runs"][0]["dedup_applied"]

    def test_needs_model_or_endpoint(self, workdir, capsys):
        code = run("detect", "--mode", "open", "--corpus", "x.jsonl",
                   "--key", KEY_HEX, "--out", str(workdir / "o"))
        assert code == EXIT_ERROR
        assert "--model or --endpoint" in capsys.readouterr().err

    def test_raw_key_absent_from_all_outputs(self, workdir):
        corpus, model = self.make_student(workdir)
        out = workdir / "safe"
        assert run("detect", "--mode", "open", "--model", str(model),
                   "--corpus", str(corpus), "--key", KEY_HEX,
                   "--vocab-size", "64", "--out", str(out)) == EXIT_OK
        for path in out.iterdir():
            text = path.read_text()
            assert KEY_HEX not in text
            assert KEY_HEX.lower() not in text.lower()
            assert RAW_KEY_DEC not in text
        manifest = json.loads((out / "manifest.json").read_text())
        assert "<redacted>" in manifest["command"]

    def test_closed_mode_with_filter(self, workdir):
        corpus, model = self.make_student(workdir)
        phi = workdir / "phi.bin"
        assert run("filter", "--corpus", str(corpus), "--k", "2",
                   "--out", str(phi)) == EXIT_OK
        out = workdir / "fc"
        assert run("detect", "--mode", "closed", "--model", str(model),
                   "--corpus", str(corpus), "--key", KEY_HEX,
                   "--vocab-size", "64", "--filter", str(phi),
                   "--budget", "2000", "--out", str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["runs"][0]["filter_stats"] is not None


class TestConfigFile:
    def test_config_supplies_values_flags_win(self, workdir):
        cfg = workdir / "run.cfg"
        cfg.write_text("key = {}\ndocs = 5\ndoc-len = 40\nvocab_size = 32\n"
                       "# a comment\n".format(KEY_HEX))
        out = workdir / "fromcfg.jsonl"
        assert run("generate", "--config", str(cfg), "--seed", "1",
                   "--out", str(out)) == EXIT_OK
        assert len(load_corpus(out)) == 5

        out2 = workdir / "flagwins.jsonl"
        assert run("generate", "--config", str(cfg), "--seed", "1",
                   "--docs", "2", "--out", str(out2)) == EXIT_OK
        assert len(load_corpus(out2)) == 2

    def test_malformed_config(self, workdir, capsys):
        cfg = workdir / "bad.cfg"
        cfg.write_text("docs 5\n")
        code = run("generate", "--config", str(cfg), "--key", KEY_HEX,
                   "--out", str(workdir / "x.jsonl"))
        assert code == EXIT_ERROR
        assert ":1:" in capsys.readouterr().err

    def config_run(self, workdir, text, *flags):
        cfg = workdir / "run.cfg"
        cfg.write_text(text)
        out = workdir / "cfg" / "c.jsonl"
        return cfg, out, run("generate", "--config", str(cfg), "--key", KEY_HEX,
                             "--docs", "2", "--doc-len", "20", "--vocab-size", "16",
                             "--out", str(out), *flags)

    def test_unknown_key_refused_at_its_line(self, workdir, capsys):
        cfg, _, code = self.config_run(workdir, "seed = 1\ngama = 0.9\n")
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown key 'gama'\n"

    def test_reps_is_an_unknown_key(self, workdir, capsys):
        """``detect`` runs one detection over the whole corpus; the key that
        split it into runs is gone."""
        cfg, _, code = self.config_run(workdir, "reps = 2\n")
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'reps'\n"

    def test_unreadable_value_named_with_its_line_and_key(self, workdir, capsys):
        cfg, _, code = self.config_run(workdir, "# seed\n\nseed = abc\n")
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: seed: invalid literal for int() with base 10: 'abc'\n")

    def test_key_read_by_another_command_accepted(self, workdir):
        """One file can serve every command: ``order`` and ``budget`` are
        read by train and detect, and generate leaves them."""
        _, out, code = self.config_run(workdir, "order = 2\nbudget = 50\n")
        assert code == EXIT_OK
        assert len(load_corpus(out)) == 2

    def test_config_hash_is_of_the_strings_as_read(self, workdir):
        # the hash this config had before values were read at load time
        _, out, code = self.config_run(
            workdir, "key = 0xDEADBEEFCAFE\ndocs = 3\ndoc-len = 20  # dashed\n"
            "vocab_size = 16\norder = 2\nbudget = 50\n")
        assert code == EXIT_OK
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["config_hash"] == (
            "294a2e48a47fa74270c82523363476e194aac2f399f8c8d36d774228fcd391e9")


class TestScenarioAndMIA:
    def test_scenario_command(self, workdir):
        spec = workdir / "s.scn"
        spec.write_text("\n".join([
            "scenario = rho_sweep",
            "rho = 0, 1.0",
            "repetitions = 1",
            "n_docs = 20",
            "doc_len = 100",
            "detect_docs = 5",
            "detect_len = 100",
            "vocab_size = 32",
            "modes = open",
        ]) + "\n")
        out = workdir / "scn"
        assert run("scenario", "--spec", str(spec),
                   "--out", str(out)) == EXIT_OK
        assert (out / "results.csv").exists()
        assert (out / "summary.svg").exists()
        assert (out / "manifest.json").exists()

    def test_scenario_bad_spec_exit_1(self, workdir, capsys):
        spec = workdir / "bad.scn"
        spec.write_text("scenario = nope\n")
        assert run("scenario", "--spec", str(spec),
                   "--out", str(workdir / "o")) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_mia_command(self, workdir):
        corpus = gen(workdir, docs=30, doc_len=100)
        # attach text fields so losses can be calibrated
        docs = load_corpus(corpus)
        for d in docs:
            d["text"] = " ".join(map(str, d["tokens"]))
        with_text = workdir / "wt.jsonl"
        with_text.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        model = workdir / "m.bin"
        assert run("train", "--corpus", str(corpus), "--order", "3",
                   "--vocab-size", "64", "--out", str(model)) == EXIT_OK
        out = workdir / "mia"
        assert run("mia", "--model", str(model), "--candidate", str(with_text),
                   "--fresh", str(with_text), "--out", str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["d"] == 0.0


def test_importing_the_cli_leaves_requests_unimported():
    """Only a remote suspect needs ``requests``; every other command runs
    without importing it."""
    import subprocess
    import sys
    from pathlib import Path

    import radioscope

    src = str(Path(radioscope.__file__).parents[1])
    code = "import sys, radioscope.cli; print('requests' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert done.stdout == "False\n"
