"""Tokens are checked against the vocabulary at the detection boundary and
in the model, ``--threads`` is validated where it applies, detection
refuses a scheme without a test, a negative budget, fewer than one
repetition and an empty corpus, corpus files are refused line by line,
``generate`` and ``generate_corpus`` refuse a negative document count
and documents shorter than their prompt, scenario files refuse such
lengths and out-of-range values by key and line, open detection refuses
a ``prompt_len`` that is not a non-negative integer, the filter refuses
token ids that are not int64 integers or are negative, sampling refuses
a negative ``max_tokens``, and sampling and both detection modes refuse
a key whose vocabulary is smaller than the model's."""

import json
import re

import numpy as np
import pytest

from radioscope import (ConfigError, SamplingConfig, WatermarkConfig, build_filter,
                        generate, generate_corpus, save_model, train_ngram)
from radioscope.cli import EXIT_ERROR, _build_parser, main
from radioscope.pipelines import detect_closed, detect_open, parse_scenario, pvalue_for
from radioscope.schemes import score_batch

KEY_HEX = "0xDEADBEEFCAFE"


@pytest.fixture(scope="module")
def small_model():
    docs = [[(7 * i + j) % 64 for j in range(40)] for i in range(20)]
    return train_ngram(docs, 2, 0.01, 64)


def test_open_mode_refuses_negative_token(small_model, kgw_cfg):
    docs = [[1, 2, 3, 4], [5, 6, -1, 7]]
    with pytest.raises(ConfigError, match=r"document 1: token -1 at position 2"):
        detect_open(small_model, docs, kgw_cfg)


def test_closed_mode_refuses_token_equal_to_vocab_size(small_model, key):
    cfg = WatermarkConfig("kgw", key, 64, k=2)
    with pytest.raises(ConfigError, match=r"prompt 0: token 64 at position 1"):
        detect_closed(small_model, [[3, 64, 5]], cfg,
                      sampling=SamplingConfig(max_tokens=5))
    with pytest.raises(ConfigError, match=r"completion 1: token 99 at position 0"):
        detect_closed(small_model, [[3, 4], [5, 6]], cfg,
                      completions=[[1, 2], [99]])


@pytest.mark.parametrize("bad", [2**63, 99999999999999999999999, -(2**70)])
def test_tokens_beyond_int64_are_named(small_model, kgw_cfg, key, bad):
    """The array check falls back to a scan for tokens no int64 array holds."""
    docs = [[1, 2, 3, 4], [5, 6, bad, 7]]
    with pytest.raises(ConfigError, match=rf"document 1: token {bad} at position 2"):
        detect_open(small_model, docs, kgw_cfg)
    with pytest.raises(ConfigError, match=rf"completion 0: token {bad} at position 2"):
        detect_closed(small_model, [[3, 4]], WatermarkConfig("kgw", key, 64, k=2),
                      completions=[[1, 2, bad]])


@pytest.mark.parametrize("bad", [1.5, "3", 2.0, None])
def test_tokens_that_are_not_integers_are_named(small_model, kgw_cfg, key, bad):
    docs = [[1, 2, 3, 4], [5, 6, bad, 7]]
    with pytest.raises(ConfigError, match=rf"document 1: token {bad!r} at position 2 "
                                          "is not an integer"):
        detect_open(small_model, docs, kgw_cfg)
    with pytest.raises(ConfigError, match=rf"prompt 0: token {bad!r} at position 1"):
        detect_closed(small_model, [[3, bad]], kgw_cfg, completions=[[1, 2]])
    with pytest.raises(ConfigError, match=rf"completion 0: token {bad!r} at position 2"):
        detect_closed(small_model, [[3, 4]], kgw_cfg, completions=[[1, 2, bad]])


@pytest.mark.parametrize("bad", [-1, 1.5, "3", 2**64])
def test_filter_refuses_ids_that_are_not_non_negative_integers(bad):
    with pytest.raises(ValueError, match="token ids must be non-negative integers"):
        build_filter([[1, 2, 3], [4, bad, 5]], 2)


@pytest.mark.parametrize("bad", [2.0, "7", None])
def test_filter_refuses_a_token_that_is_not_an_integer(bad):
    with pytest.raises(ConfigError, match="token ids must be non-negative integers"):
        build_filter([[1, 2, 3], [4, bad, 5]], 2)


def test_filter_refuses_a_negative_token():
    with pytest.raises(ConfigError, match="token ids must be non-negative integers"):
        build_filter([[1, 2, 3], [4, -1, 5]], 2)


@pytest.mark.parametrize("bad", [2**63, 2**64 - 1, 2**70])
def test_filter_refuses_a_token_beyond_int64(bad):
    with pytest.raises(ConfigError, match="token ids must be non-negative integers"):
        build_filter([[1, 2, 3], [4, bad, 5]], 2)


def test_closed_mode_refuses_a_filter_of_another_window_size(small_model, kgw_cfg):
    phi = build_filter([[1, 2, 3, 4, 5]], 3)
    with pytest.raises(ConfigError, match="3-grams, but the key's window is k=2"):
        detect_closed(small_model, [[1, 2, 3]], kgw_cfg, phi=phi, completions=[[4, 5]])


def test_cli_token_that_is_not_an_integer_is_one_error_line(
        tmp_path, small_model, capsys, monkeypatch):
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    model = tmp_path / "m.bin"
    save_model(small_model, model)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"tokens": [1, 2, "3", 4]}\n')
    code = main(["detect", "--mode", "open", "--model", str(model),
                 "--corpus", str(corpus), "--key", KEY_HEX, "--vocab-size", "64",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "token '3' at position 2 is not an integer" in err


def test_cli_closed_detect_out_of_vocabulary_is_one_error_line(
        tmp_path, small_model, capsys, monkeypatch):
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    model = tmp_path / "m.bin"
    save_model(small_model, model)
    corpus = tmp_path / "p.jsonl"
    corpus.write_text('{"tokens": [1, 2, 999, 3], "wm": false}\n')
    code = main(["detect", "--mode", "closed", "--model", str(model),
                 "--corpus", str(corpus), "--key", KEY_HEX, "--vocab-size", "64",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "token 999 at position 2" in err


def test_cli_mia_out_of_vocabulary_is_one_error_line(tmp_path, capsys):
    model = tmp_path / "m.bin"
    save_model(train_ngram([[1, 2, 3, 4, 5]], 2, 0.01, 8), model)
    candidate, fresh = tmp_path / "cand.jsonl", tmp_path / "fresh.jsonl"
    candidate.write_text('{"tokens": [1, 2, 999, 3], "text": "a b c d"}\n')
    fresh.write_text('{"tokens": [4, 5, 6], "text": "e f g"}\n')
    code = main(["mia", "--model", str(model), "--candidate", str(candidate),
                 "--fresh", str(fresh), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "token id 999 at position 2" in err


#: A token id no int64 holds.
HUGE = 99999999999999999999999


def test_cli_train_token_beyond_int64_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(f'{{"tokens": [1, 2, {HUGE}, 3]}}\n')
    code = main(["train", "--corpus", str(corpus), "--vocab-size", "8",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert f"token id {HUGE} out of vocabulary" in err


def test_cli_mia_token_beyond_int64_is_one_error_line(tmp_path, capsys):
    model = tmp_path / "m.bin"
    save_model(train_ngram([[1, 2, 3, 4, 5]], 2, 0.01, 8), model)
    candidate, fresh = tmp_path / "cand.jsonl", tmp_path / "fresh.jsonl"
    candidate.write_text(f'{{"tokens": [1, {HUGE}, 3], "text": "a b c"}}\n')
    fresh.write_text('{"tokens": [4, 5, 6], "text": "e f g"}\n')
    code = main(["mia", "--model", str(model), "--candidate", str(candidate),
                 "--fresh", str(fresh), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert f"token id {HUGE} at position 1" in err


@pytest.mark.parametrize("value", ["0", "65", "-3", "many"])
def test_threads_out_of_range_is_an_argparse_error(value):
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(["detect", "--mode", "closed", "--corpus", "c",
                                    "--out", "o", "--threads", value])
    assert exc.value.code == 2


def test_threads_accepted_on_detect_only():
    args = _build_parser().parse_args(["detect", "--mode", "closed", "--corpus", "c",
                                       "--out", "o", "--threads", "64"])
    assert args.threads == 64
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["generate", "--out", "o", "--threads", "2"])


@pytest.fixture
def cli_files(tmp_path, small_model, monkeypatch):
    """A saved model and a two-document corpus for ``detect``."""
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    model = tmp_path / "m.bin"
    save_model(small_model, model)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"tokens": [1, 2, 3, 4, 5, 6, 7, 8]}\n'
                      '{"tokens": [9, 8, 7, 6, 5, 4, 3, 2]}\n')
    return tmp_path, model, corpus


def detect_cli(cli_files, *extra, mode="open", corpus=None):
    tmp_path, model, default_corpus = cli_files
    return main(["detect", "--mode", mode, "--model", str(model),
                 "--corpus", str(corpus or default_corpus), "--key", KEY_HEX,
                 "--vocab-size", "64", "--out", str(tmp_path / "out"), *extra])


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_detection_refuses_a_scheme_without_a_test(small_model, key, mode):
    cfg = WatermarkConfig("mpac", key, 64, k=2, message="01")
    with pytest.raises(ConfigError, match="mpac"):
        if mode == "open":
            detect_open(small_model, [[1, 2, 3, 4]], cfg)
        else:
            detect_closed(small_model, [[1, 2]], cfg, completions=[[3, 4]])
    with pytest.raises(ConfigError, match="mpac"):
        pvalue_for(0.0, 0, cfg)
    with pytest.raises(ConfigError, match="mpac"):
        score_batch(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int64), cfg)


def test_cli_mpac_detect_is_one_error_line(cli_files, capsys):
    config = cli_files[0] / "mpac.cfg"
    config.write_text("scheme = mpac\nmessage = 01\n")
    assert detect_cli(cli_files, "--config", str(config)) == EXIT_ERROR
    assert "no radioactivity test" in one_error_line(capsys)


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_negative_budget_refused(small_model, kgw_cfg, mode):
    with pytest.raises(ConfigError, match="budget must be >= 0, got -5"):
        if mode == "open":
            detect_open(small_model, [[1, 2, 3, 4]], kgw_cfg, budget=-5)
        else:
            detect_closed(small_model, [[1, 2]], kgw_cfg, budget=-5,
                          completions=[[3, 4]])


def test_cli_negative_budget_is_one_error_line(cli_files, capsys):
    assert detect_cli(cli_files, "--budget", "-5") == EXIT_ERROR
    assert "budget must be >= 0" in one_error_line(capsys)


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_cli_reps_below_one_is_one_error_line(cli_files, capsys, reps):
    assert detect_cli(cli_files, "--reps", reps) == EXIT_ERROR
    assert f"reps must be >= 1, got {reps}" in one_error_line(capsys)
    config = cli_files[0] / "detect.cfg"
    config.write_text(f"reps = {reps}\n")
    assert detect_cli(cli_files, "--config", str(config)) == EXIT_ERROR
    assert f"reps must be >= 1, got {reps}" in one_error_line(capsys)


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_cli_empty_corpus_is_one_error_line(cli_files, capsys, mode):
    empty = cli_files[0] / "empty.jsonl"
    empty.write_text("")
    assert detect_cli(cli_files, mode=mode, corpus=empty) == EXIT_ERROR
    assert "no documents" in one_error_line(capsys)


@pytest.mark.parametrize("prompt_len", ["null", '"x"', "2.7", "-5", "true"])
def test_cli_prompt_len_that_is_not_a_non_negative_integer_is_one_error_line(
        cli_files, capsys, prompt_len):
    corpus = cli_files[0] / "prompted.jsonl"
    corpus.write_text('{"tokens": [1, 2, 3, 4], "prompt_len": 2}\n'
                      f'{{"tokens": [5, 6, 7, 8], "prompt_len": {prompt_len}}}\n')
    assert detect_cli(cli_files, corpus=corpus) == EXIT_ERROR
    assert f"document 1: prompt_len {json.loads(prompt_len)!r} is not a non-negative " \
        "integer" in one_error_line(capsys)


def test_prompt_len_past_the_document_scores_nothing(small_model, kgw_cfg):
    doc = [1, 2, 3, 4, 5, 6]
    for prompt_len in (len(doc), 2**70):
        report = detect_open(small_model, [{"tokens": doc, "prompt_len": prompt_len}], kgw_cfg)
        assert report.n_scored == 0 and report.dedup_stats == (0, 0)


@pytest.mark.parametrize("bad", [2.5, "2", 2.0, None, [2]])
def test_model_refuses_token_ids_that_are_not_integers(bad):
    with pytest.raises(ValueError, match=rf"token id {re.escape(repr(bad))} is not an integer"):
        train_ngram([[1, 2, 3], [1, bad, 3, 1, 2, 3]], 2, 0.01, 8)
    model = train_ngram([[1, 2, 3, 1, 2, 3]], 2, 0.01, 8)
    with pytest.raises(ValueError, match=rf"token id {re.escape(repr(bad))} at position 1 "
                                         "is not an integer"):
        model.log_loss([1, bad, 3])
    with pytest.raises(ValueError, match=rf"token id {re.escape(repr(bad))} is not an integer"):
        generate(model, [1, bad, 3], SamplingConfig(max_tokens=4))


def test_model_accepts_integer_ids_of_any_numpy_dtype():
    docs = [[1, 2, 3, 1, 2, 3], [2, 3, 1]]
    want = train_ngram(docs, 2, 0.01, 8)
    for dtype in (np.uint8, np.int32, np.uint64):
        got = train_ngram([np.array(d, dtype) for d in docs], 2, 0.01, 8)
        assert all(np.array_equal(a, b) for a, b in zip(got._keys + got._counts,
                                                         want._keys + want._counts))
        assert got.log_loss(np.array([1, 2, 3], dtype)) == want.log_loss([1, 2, 3])


@pytest.mark.parametrize("command", ["train", "mia"])
def test_cli_token_id_that_is_not_an_integer_is_one_error_line(tmp_path, capsys, command):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"tokens": [1, 2, 3, 4], "text": "a b c d"}\n'
                      '{"tokens": [1, 2.5, 3], "text": "a b c"}\n')
    if command == "train":
        argv = ["train", "--corpus", str(corpus), "--vocab-size", "8"]
    else:
        model = tmp_path / "m.bin"
        save_model(train_ngram([[1, 2, 3, 4, 5]], 2, 0.01, 8), model)
        argv = ["mia", "--model", str(model), "--candidate", str(corpus),
                "--fresh", str(corpus)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert "token id 2.5" in one_error_line(capsys)


@pytest.mark.parametrize("line", ['{"wm": true}', '{"tokens": 7}', "[1, 2, 3]", "not json"],
                         ids=["no-tokens", "tokens-not-a-list", "not-an-object", "not-json"])
@pytest.mark.parametrize("command", ["train", "detect"])
def test_cli_corpus_line_without_tokens_is_one_error_line(cli_files, capsys, line, command):
    corpus = cli_files[0] / "bad.jsonl"
    corpus.write_text('{"tokens": [1, 2, 3, 4]}\n\n' + line + "\n")
    if command == "train":
        code = main(["train", "--corpus", str(corpus), "--out", str(cli_files[0] / "s.bin")])
    else:
        code = detect_cli(cli_files, corpus=corpus)
    assert code == EXIT_ERROR
    assert f"{corpus} line 3: " in one_error_line(capsys)


@pytest.mark.parametrize("flags,config,named", [
    (["--docs", "-1"], "", "--docs must be >= 0, got -1"),
    ([], "docs = -2\n", "--docs must be >= 0, got -2"),
    (["--doc-len", "0"], "", "--doc-len must be >= 3"),
    (["--doc-len", "2"], "", "--doc-len must be >= 3"),
    ([], "doc-len = 1\n", "--doc-len must be >= 3"),
], ids=["docs-1", "docs-2-config", "doc-len0", "doc-len2", "doc-len1-config"])
def test_cli_generate_sizes_that_hold_no_document_are_one_error_line(
        tmp_path, capsys, flags, config, named):
    out = tmp_path / "c.jsonl"
    if config:
        (tmp_path / "gen.cfg").write_text(config)
        flags = flags + ["--config", str(tmp_path / "gen.cfg")]
    assert main(["generate", "--no-watermark", "--out", str(out), *flags]) == EXIT_ERROR
    assert named in one_error_line(capsys)
    assert not out.exists()


def test_generate_corpus_refuses_a_negative_document_count(small_model):
    with pytest.raises(ValueError, match="n_docs must be >= 0, got -1"):
        generate_corpus(small_model, -1, 10, SamplingConfig())


def test_generate_corpus_refuses_documents_shorter_than_their_prompt(small_model):
    with pytest.raises(ValueError, match="doc_len 2 is shorter than prompt_len 3"):
        generate_corpus(small_model, 2, 2, SamplingConfig())
    with pytest.raises(ValueError, match="doc_len 4 is shorter than prompt_len 5"):
        generate_corpus(small_model, 1, 4, SamplingConfig(), prompt_len=5)
    assert [len(doc["tokens"]) for doc in generate_corpus(small_model, 2, 3, SamplingConfig())] \
        == [3, 3]


@pytest.mark.parametrize("lines", [
    ["doc_len = 2"],
    ["detect_len = 2"],
    ["modes = open, closed", "detect_len = 2"],
    ["modes = closed", "prompt_len = -1"],
])
def test_scenario_refuses_documents_shorter_than_their_prompt(tmp_path, lines):
    path = tmp_path / "short.scn"
    path.write_text("\n".join(["scenario = rho_sweep", *lines]) + "\n")
    key, _, value = lines[-1].partition(" = ")
    with pytest.raises(ValueError, match=rf"short\.scn:{len(lines) + 1}: {key} must be "
                                         rf">= \d \(.*3-token prompt\), got {value}$"):
        parse_scenario(path)


@pytest.mark.parametrize("lines,error", [
    (["scenario = purification", "modes ="], "modes must hold at least one value"),
    (["scenario = rho_sweep", "rho ="], "rho must hold at least one value"),
    (["scenario = rho_sweep", "repetitions = 0"], "repetitions must be >= 1, got 0"),
    (["scenario = rho_sweep", "rho = 0.5, 1.5"], "rho must lie in [0, 1], got [0.5, 1.5]"),
    (["scenario = k_sweep", "rho_value = -0.5"], "rho_value must lie in [0, 1], got -0.5"),
    (["scenario = d_sweep", "d_values = 1, 0"], "d_values must lie in (0, 1], got [1.0, 0.0]"),
    (["scenario = d_sweep", "rho_value = 0"], "rho_value must be > 0 for d_sweep, got 0.0"),
    (["scenario = k_sweep", "k_values = 2, 0"], "k_values must be >= 1, got [2, 0]"),
    (["scenario = purification", "n_docs = 0"], "n_docs must be >= 1, got 0"),
    (["scenario = rho_sweep", "detect_docs = 0"], "detect_docs must be >= 1, got 0"),
    (["scenario = k_sweep", "detect_docs = -2"], "detect_docs must be >= 1, got -2"),
    (["scenario = purification", "detect_docs = 0"], "detect_docs must be >= 1, got 0"),
    (["scenario = d_sweep", "n_docs = 40", "rho_value = 0.01"],
     "rho_value must leave round(rho_value * n_docs) >= 1 watermarked documents "
     "for d_sweep at n_docs = 40, got 0.01"),
], ids=["no_modes", "no_rho", "no_repetition", "rho", "rho_value", "d_values",
        "d_sweep_rho_value", "k_values", "no_docs", "rho_sweep_no_detect_docs",
        "k_sweep_detect_docs", "purification_no_detect_docs",
        "d_sweep_no_watermarked_document"])
def test_scenario_refuses_values_out_of_range(tmp_path, lines, error):
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{len(lines)}: {error}')}$"):
        parse_scenario(path)


def test_d_sweep_ignores_detect_docs(tmp_path):
    """d_sweep runs MIA on its training documents and detects on none."""
    path = tmp_path / "d.scn"
    path.write_text("scenario = d_sweep\ndetect_docs = 0\n")
    assert parse_scenario(path)["detect_docs"] == 0


def test_scenario_accepts_the_shortest_documents(tmp_path):
    path = tmp_path / "short.scn"
    path.write_text("scenario = rho_sweep\ndoc_len = 3\ndetect_len = 3\nprompt_len = 0\n")
    assert parse_scenario(path)["doc_len"] == 3
    # closed detection completes prompts, so its detect_len needs no prompt
    path.write_text("scenario = rho_sweep\nmodes = closed\ndetect_len = 1\n")
    assert parse_scenario(path)["detect_len"] == 1


SMALLER_KEY = "the key's vocabulary (32 tokens) is smaller than the model's (64 tokens)"


@pytest.mark.parametrize("scheme", ["kgw", "ak"])
def test_sampling_refuses_a_key_of_a_smaller_vocabulary(small_model, key, scheme):
    """AK would otherwise write tokens past the key's vocabulary, KGW fail
    with an index error."""
    wm = WatermarkConfig(scheme, key, 32, k=2)
    with pytest.raises(ConfigError, match=re.escape(SMALLER_KEY)):
        generate_corpus(small_model, 4, 30, SamplingConfig(seed=3), wm=wm)
    with pytest.raises(ConfigError, match=re.escape(SMALLER_KEY)):
        generate(small_model, [1, 2], SamplingConfig(seed=3, max_tokens=10), wm)


def test_open_mode_refuses_a_key_of_a_smaller_vocabulary(small_model, key):
    cfg = WatermarkConfig("kgw", key, 32, k=2, gamma=0.25, delta=3.0)
    with pytest.raises(ConfigError, match=re.escape(SMALLER_KEY)):
        detect_open(small_model, [[29, 30, 31, 30, 31]], cfg)


def test_closed_mode_refuses_a_key_of_a_smaller_vocabulary_before_sampling(key):
    """The refusal names both sizes; sampling first would fail on the
    first completion token past the key's vocabulary instead."""
    model = train_ngram([[(7 * i + j) % 64 for j in range(40)] for i in range(20)], 2, 0.01, 64)
    cfg = WatermarkConfig("kgw", key, 32, k=2, gamma=0.25, delta=3.0)
    with pytest.raises(ConfigError, match=re.escape(SMALLER_KEY)):
        detect_closed(model, [[28, 29, 30, 31]], cfg, sampling=SamplingConfig(max_tokens=20))
    assert not model._stores  # no nucleus store: nothing was sampled


def test_cli_key_of_a_smaller_vocabulary_is_one_error_line(cli_files, capsys):
    # the model predicts 32 after 31, past the key's vocabulary
    corpus = cli_files[0] / "high.jsonl"
    corpus.write_text('{"tokens": [28, 29, 30, 31, 30, 31]}\n')
    for mode in ("open", "closed"):
        assert detect_cli(cli_files, "--vocab-size", "32", mode=mode,
                          corpus=corpus) == EXIT_ERROR
        assert SMALLER_KEY in one_error_line(capsys)


def test_negative_max_tokens_refused(small_model, kgw_cfg, cli_files, capsys):
    """``max_tokens = 0`` stays allowed: closed detection then scores no
    completion token."""
    with pytest.raises(ValueError, match=r"^max_tokens must be >= 0, got -1$"):
        SamplingConfig(max_tokens=-1)
    report = detect_closed(small_model, [[1, 2, 3]], kgw_cfg,
                           sampling=SamplingConfig(max_tokens=0))
    assert report.n_scored == 0
    config = cli_files[0] / "closed.cfg"
    config.write_text("max_tokens = -1\n")
    assert detect_cli(cli_files, "--config", str(config), mode="closed") == EXIT_ERROR
    assert "max_tokens must be >= 0, got -1" in one_error_line(capsys)


@pytest.mark.parametrize("scheme", ["kgw", "ak"])
def test_a_key_of_a_larger_vocabulary_is_accepted(small_model, key, scheme):
    """A larger key vocabulary still gives exact H0 green rates: the key's
    lists are drawn over all its tokens, whichever the model can write."""
    wm = WatermarkConfig(scheme, key, 128, k=2)
    docs = generate_corpus(small_model, 4, 30, SamplingConfig(seed=3), wm=wm)
    assert max(max(doc["tokens"]) for doc in docs) < 64
    assert detect_open(small_model, docs, wm).n_scored > 0
