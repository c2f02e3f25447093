"""Tokens are checked against the vocabulary at every door, library and
CLI, and a bad one is named by its document and its position in it,
``--threads`` is validated and refused without
``--endpoint``, open mode refuses ``--filter``, detection
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

from radioscope import (ConfigError, MixSpec, NGramModel, SamplingConfig, TextSampler,
                        WatermarkConfig, build_filter, generate_corpus, mia_detect, mpac_extract,
                        save_model, train_ngram)
from radioscope.cli import EXIT_ERROR, EXIT_OK, _build_parser, main
from radioscope.pipelines import detect_closed, detect_open, parse_scenario, pvalue_for
from radioscope.schemes import score_batch
import store_contract as contract

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


def two_docs(bad) -> list:
    """Two documents, ``bad`` at position 2 of the second."""
    return [[1, 2, 3, 4], [5, 6, bad, 7]]


def with_text(docs) -> list:
    return [{"tokens": doc, "text": f"document {d}"} for d, doc in enumerate(docs)]


#: Every door a token list enters by -> the name of the document that holds
#: the bad token, the id just outside the door's range, and the door: a call
#: of (model, key, bad), or the argv of a command, in which ``{corpus}``
#: holds ``two_docs(bad)``, ``{fresh}`` ``two_docs(7)`` and ``{model}`` the
#: model (V = 64).
TOKEN_DOORS = {
    "train_ngram": ("document 1", 64,
                    lambda model, key, bad: train_ngram(two_docs(bad), 2, 0.01, 64)),
    "NGramModel.update": ("document 1", 64, lambda model, key, bad: NGramModel(
        2, 64).update(two_docs(bad))),
    "log_loss": ("document 0", 64, lambda model, key, bad: model.log_loss([5, 6, bad, 7])),
    "next_greedy": ("context", 64, lambda model, key, bad: model.next_greedy([5, 6, bad, 7])),
    "TextSampler.generate": ("prompt 0", 64, lambda model, key, bad: TextSampler(
        model, SamplingConfig()).generate([[5, 6, bad, 7]], 4, np.zeros((1, 4)))),
    "detect_open": ("document 1", 64, lambda model, key, bad: detect_open(
        model, two_docs(bad), WatermarkConfig("kgw", key, 64))),
    "detect_closed_prompt": ("prompt 1", 64, lambda model, key, bad: detect_closed(
        model, two_docs(bad), WatermarkConfig("kgw", key, 64), completions=[[1, 2], [3, 4]])),
    "detect_closed_completion": ("completion 1", 64, lambda model, key, bad: detect_closed(
        model, [[1, 2], [3, 4]], WatermarkConfig("kgw", key, 64), completions=two_docs(bad))),
    "build_filter": ("document 1", -1, lambda model, key, bad: build_filter(two_docs(bad), 2)),
    "mia_detect_candidate": ("candidate 1", 64, lambda model, key, bad: mia_detect(
        model, with_text(two_docs(bad)), with_text(two_docs(7)))),
    "mia_detect_fresh": ("fresh 1", 64, lambda model, key, bad: mia_detect(
        model, with_text(two_docs(7)), with_text(two_docs(bad)))),
    "mpac_extract": ("document 1", 64, lambda model, key, bad: mpac_extract(
        two_docs(bad), WatermarkConfig("mpac", key, 64, message="01"))),
    "cli_train": ("document 1", 64, ["train", "--corpus", "{corpus}", "--vocab-size", "64"]),
    "cli_detect_open": ("document 1", 64, ["detect", "--mode", "open", "--model", "{model}",
                                           "--corpus", "{corpus}", "--key", KEY_HEX,
                                           "--vocab-size", "64"]),
    "cli_detect_closed": ("prompt 1", 64, ["detect", "--mode", "closed", "--model", "{model}",
                                           "--corpus", "{corpus}", "--key", KEY_HEX,
                                           "--vocab-size", "64"]),
    "cli_filter": ("document 1", -1, ["filter", "--corpus", "{corpus}"]),
    "cli_mia": ("candidate 1", 64, ["mia", "--model", "{model}", "--candidate", "{corpus}",
                                    "--fresh", "{fresh}"]),
}


@pytest.mark.parametrize("bad", ["outside", 2.5, 2**70, True])
@pytest.mark.parametrize("name,outside,door", TOKEN_DOORS.values(), ids=list(TOKEN_DOORS))
def test_every_door_names_a_bad_token_by_its_document_and_position(
        tmp_path, small_model, key, capsys, monkeypatch, name, outside, door, bad):
    """An id past the door's range, a float, an integer no int64 holds and
    a bool (JSON ``true``), at position 2: the library raises one
    ConfigError, and the CLI prints it as one error line and exits 1."""
    bad = outside if bad == "outside" else bad
    problem = "is not an integer" if isinstance(bad, (float, bool)) else "out of vocabulary"
    refusal = f"{name}: token {bad} at position 2 {problem}"
    if callable(door):
        with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
            door(small_model, key, bad)
        return
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    files = {"model": tmp_path / "m.bin", "corpus": tmp_path / "c.jsonl",
             "fresh": tmp_path / "fresh.jsonl"}
    save_model(small_model, files["model"])
    for path, docs in ((files["corpus"], two_docs(bad)), (files["fresh"], two_docs(7))):
        path.write_text("".join(json.dumps(doc) + "\n" for doc in with_text(docs)))
    argv = [arg.format(**files) for arg in door]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_ERROR
    assert one_error_line(capsys) == f"error: {refusal}\n"


def refused_in_filter(bad) -> str:
    """The refusal of ``bad`` at position 1 of the filter's document 1."""
    problem = "is not an integer" if not isinstance(bad, int) else "out of vocabulary"
    return f"^document 1: token {re.escape(repr(bad))} at position 1 {problem}$"


@pytest.mark.parametrize("bad", [-1, 1.5, "3", 2**64])
def test_filter_refuses_ids_that_are_not_non_negative_integers(bad):
    with pytest.raises(ConfigError, match=refused_in_filter(bad)):
        build_filter([[1, 2, 3], [4, bad, 5]], 2)


@pytest.mark.parametrize("bad", [2.0, "7", None])
def test_filter_refuses_a_token_that_is_not_an_integer(bad):
    with pytest.raises(ConfigError, match=refused_in_filter(bad)):
        build_filter([[1, 2, 3], [4, bad, 5]], 2)


def test_filter_refuses_a_negative_token():
    with pytest.raises(ConfigError, match=refused_in_filter(-1)):
        build_filter([[1, 2, 3], [4, -1, 5]], 2)


@pytest.mark.parametrize("bad", [2**63, 2**64 - 1, 2**70])
def test_filter_refuses_a_token_beyond_int64(bad):
    with pytest.raises(ConfigError, match=refused_in_filter(bad)):
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
    assert "candidate 0: token 999 at position 2 out of vocabulary" in err


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
    assert f"document 0: token {HUGE} at position 2 out of vocabulary" in err


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
    assert f"candidate 0: token {HUGE} at position 1" in err


@pytest.mark.parametrize("value", ["0", "65", "-3", "many"])
def test_threads_out_of_range_is_an_argparse_error(value, capsys):
    """argparse refuses it in one error line with exit code 1, not 2,
    which means inconclusive."""
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--mode", "closed", "--corpus", "c", "--out", "o", "--threads", value])
    assert exc.value.code == EXIT_ERROR
    assert one_error_line(capsys).startswith("error: argument --threads: ")


@pytest.mark.parametrize("argv,refusal", [
    (["generate", "--docs", "abc", "--out", "o"], "argument --docs: invalid int value: 'abc'"),
    (["train", "--corpus", "c"], "the following arguments are required: --out"),
    (["filter", "--corpus", "c", "--out", "o", "--nope"], "unrecognized arguments: --nope"),
])
def test_a_refused_command_line_is_one_error_line(argv, refusal, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert one_error_line(capsys) == f"error: {refusal}\n"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


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


def test_cli_open_mode_refuses_a_filter(cli_files, capsys):
    """Open mode scores no filter, so one is refused before anything is loaded."""
    tmp_path, _, corpus = cli_files
    phi = tmp_path / "phi.bin"
    assert main(["filter", "--corpus", str(corpus), "--out", str(phi)]) == EXIT_OK
    capsys.readouterr()
    assert detect_cli(cli_files, "--filter", str(phi)) == EXIT_ERROR
    assert "--filter applies to closed mode only" in one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_cli_open_mode_refuses_a_seed_flag(cli_files, capsys):
    """Open mode samples nothing, so ``--seed`` is refused; a ``seed`` in a
    config file that other commands share stays accepted."""
    assert detect_cli(cli_files, "--seed", "3") == EXIT_ERROR
    assert "--seed applies to closed mode only" in one_error_line(capsys)
    assert not (cli_files[0] / "out").exists()
    config = cli_files[0] / "shared.cfg"
    config.write_text("seed = 3\n")
    assert detect_cli(cli_files, "--config", str(config)) == EXIT_OK


def test_cli_train_order_below_one_is_one_error_line(cli_files, capsys):
    """The order is refused as it is read, before the student-order warning."""
    tmp_path, _, corpus = cli_files
    assert main(["train", "--corpus", str(corpus), "--order", "0",
                 "--out", str(tmp_path / "s.bin")]) == EXIT_ERROR
    assert one_error_line(capsys) == "error: --order must be >= 1, got 0\n"


def test_cli_threads_without_an_endpoint_is_one_error_line(cli_files, capsys):
    assert detect_cli(cli_files, "--threads", "4", mode="closed") == EXIT_ERROR
    assert "it needs --endpoint" in one_error_line(capsys)
    assert not (cli_files[0] / "out").exists()


def test_cli_credentials_without_an_endpoint_is_one_error_line(cli_files, capsys):
    assert detect_cli(cli_files, "--credentials", "X", mode="closed") == EXIT_ERROR
    assert one_error_line(capsys) == ("error: --credentials is the bearer token for "
                                      "--endpoint; it needs --endpoint\n")
    assert not (cli_files[0] / "out").exists()


@pytest.mark.parametrize("suspects", [["--model", "{tmp}/nonexistent.bin", "--endpoint",
                                       "http://127.0.0.1:9/"], []], ids=["both", "neither"])
def test_cli_detect_takes_one_suspect(cli_files, capsys, suspects):
    """A checkpoint beside an endpoint is refused before either is read."""
    tmp_path, _, corpus = cli_files
    argv = ["detect", "--mode", "closed", "--corpus", str(corpus), "--key", KEY_HEX,
            "--out", str(tmp_path / "out"), *[arg.format(tmp=tmp_path) for arg in suspects]]
    assert main(argv) == EXIT_ERROR
    assert one_error_line(capsys) == "error: detect takes one suspect: --model or --endpoint\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,named", [
    (["--scheme", "ak"], "--scheme"), (["--k", "3"], "--k"), (["--gamma", "0.5"], "--gamma"),
    (["--delta", "2"], "--delta"), (["--temp", "1.5"], "--temp"),
    (["--message", "0110"], "--message"),
    (["--gamma", "5", "--delta", "-3", "--k", "0", "--message", "xyz"], "--k"),
], ids=["scheme", "k", "gamma", "delta", "temp", "message", "refused_values"])
def test_cli_watermark_flags_without_a_watermark_are_one_error_line(tmp_path, capsys, flags,
                                                                    named):
    """A run without a watermark reads none of the watermark's flags, so each
    is refused; the same keys in a shared ``--config`` file stay accepted."""
    out = tmp_path / "c.jsonl"
    argv = ["generate", "--no-watermark", "--docs", "2", "--doc-len", "10", "--out", str(out)]
    assert main(argv + flags) == EXIT_ERROR
    assert one_error_line(capsys) == f"error: {named} does not apply with --no-watermark\n"
    assert not out.exists()
    config = tmp_path / "shared.cfg"
    config.write_text("scheme = ak\nk = 3\ngamma = 0.5\ndelta = 2\ntemp = 1.5\nmessage = 0110\n")
    assert main(argv + ["--config", str(config)]) == EXIT_OK


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
    refused = f"token {re.escape(repr(bad))} at position 1 is not an integer$"
    with pytest.raises(ConfigError, match=f"^document 1: {refused}"):
        train_ngram([[1, 2, 3], [1, bad, 3, 1, 2, 3]], 2, 0.01, 8)
    model = train_ngram([[1, 2, 3, 1, 2, 3]], 2, 0.01, 8)
    with pytest.raises(ConfigError, match=f"^document 0: {refused}"):
        model.log_loss([1, bad, 3])
    with pytest.raises(ConfigError, match=f"^prompt 0: {refused}"):
        TextSampler(model, SamplingConfig()).generate([[1, bad, 3]], 4, np.zeros((1, 4)))


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
    name = {"train": "document", "mia": "candidate"}[command]
    assert f"{name} 1: token 2.5 at position 1 is not an integer" in one_error_line(capsys)


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
    ([], "docs = -2\n", "gen.cfg:1: docs must be >= 0, got -2"),
    (["--doc-len", "0"], "", "--doc-len must be >= 3"),
    (["--doc-len", "2"], "", "--doc-len must be >= 3"),
    ([], "doc-len = 1\n", "gen.cfg:1: doc_len must be >= 3"),
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
    with pytest.raises(ConfigError, match=r"^doc_len must be >= 3 \(generated documents start "
                                          r"with a 3-token prompt\), got 2$"):
        generate_corpus(small_model, 2, 2, SamplingConfig())
    with pytest.raises(ConfigError, match=r"^doc_len must be >= 5 \(.* 5-token prompt\), got 4$"):
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


NO_MPAC = "be kgw or ak (mpac has no radioactivity test: d_sweep only)"
WIDE_CODES = "keep (order + 1) * bits(vocab_size - 1) <= 63"
PROMPTED = "(generated documents start with a 3-token prompt)"


#: id -> (the lines of a scenario file, the refusal after its file and line)
SCENARIO_REFUSALS = {
    "no_modes": (["scenario = purification", "modes ="], "modes must hold at least one value"),
    "no_rho": (["scenario = rho_sweep", "rho ="], "rho must hold at least one value"),
    "no_repetition": (["scenario = rho_sweep", "repetitions = 0"],
                      "repetitions must be >= 1, got 0"),
    "rho": (["scenario = rho_sweep", "rho = 0.5, 1.5"], "rho must lie in [0, 1], got [0.5, 1.5]"),
    "rho_value": (["scenario = k_sweep", "rho_value = -0.5"],
                  "rho_value must lie in [0, 1], got -0.5"),
    "d_values": (["scenario = d_sweep", "d_values = 1, 0"],
                 "d_values must lie in (0, 1], got [1.0, 0.0]"),
    "d_sweep_rho_value": (["scenario = d_sweep", "rho_value = 0"],
                          "rho_value must be > 0 for d_sweep, got 0.0"),
    "k_values": (["scenario = k_sweep", "k_values = 2, 0"], "k_values must be >= 1, got [2, 0]"),
    "no_docs": (["scenario = purification", "n_docs = 0"], "n_docs must be >= 1, got 0"),
    "rho_sweep_no_detect_docs": (["scenario = rho_sweep", "detect_docs = 0"],
                                 "detect_docs must be >= 1, got 0"),
    "k_sweep_detect_docs": (["scenario = k_sweep", "detect_docs = -2"],
                            "detect_docs must be >= 1, got -2"),
    "purification_no_detect_docs": (["scenario = purification", "detect_docs = 0"],
                                    "detect_docs must be >= 1, got 0"),
    "d_sweep_no_watermarked_document": (
        ["scenario = d_sweep", "n_docs = 40", "rho_value = 0.01"],
        "rho_value must leave round(rho_value * n_docs) >= 1 watermarked documents "
        "for d_sweep at n_docs = 40, got 0.01"),
    # each of these used to parse, and the run failed after the teacher was built
    "unknown_scheme": (["scenario = rho_sweep", "scheme = kgx"],
                       f"scheme must {NO_MPAC}, got kgx"),
    "mpac_detecting": (["scenario = k_sweep", "scheme = mpac"],
                       f"scheme must {NO_MPAC}, got mpac"),
    "kgw_gamma": (["scenario = rho_sweep", "gamma = 1.5"],
                  "gamma must lie in (0, 1) for kgw, got 1.5"),
    "kgw_delta": (["scenario = rho_sweep", "delta = -1"],
                  "delta must be >= 0 for kgw and mpac, got -1.0"),
    "k": (["scenario = rho_sweep", "k = 0"], "k must be >= 1, got 0"),
    "k_one_byte": (["scenario = rho_sweep", "k = 300"],
                   "k must be <= 255 (a filter file keeps k in one byte), got 300"),
    "vocab_size": (["scenario = rho_sweep", "vocab_size = 0"], "vocab_size must be >= 1, got 0"),
    "teacher_order": (["scenario = rho_sweep", "teacher_order = 0"],
                      "teacher_order must be >= 1, got 0"),
    "student_order": (["scenario = rho_sweep", "student_order = 0"],
                      "student_order must be >= 1, got 0"),
    "teacher_seed": (["scenario = rho_sweep", "teacher_seed = -1"],
                     "teacher_seed must be >= 0, got -1"),
    "smoothing_lambda": (["scenario = rho_sweep", "smoothing_lambda = -1"],
                         "smoothing_lambda must be >= 0, got -1.0"),
    "nucleus_p": (["scenario = rho_sweep", "nucleus_p = 0"],
                  "nucleus_p must lie in (0, 1], got 0.0"),
    "sampling_temperature": (["scenario = rho_sweep", "sampling_temperature = 0"],
                             "sampling_temperature must be > 0, got 0.0"),
    "budget": (["scenario = rho_sweep", "budget = -1"], "budget must be >= 0, got -1"),
    "mpac_message": (["scenario = d_sweep", "scheme = mpac", "message = 012"],
                     "message must be an even number of bits for mpac, got 012"),
    "closed_detect_len": (["scenario = purification", "modes = closed", "detect_len = -1"],
                          "detect_len must be >= 0, got -1"),
    # (order + 1) * bits(V - 1) > 63: train_ngram refused it after the teacher was built
    "wide_teacher_order": (["scenario = rho_sweep", "teacher_order = 9"],
                           f"teacher_order must {WIDE_CODES} at vocab_size = 128, got 9"),
    "wide_student_order": (["scenario = rho_sweep", "student_order = 9"],
                           f"student_order must {WIDE_CODES} at vocab_size = 128, got 9"),
    "wide_order_at_vocab_2": (["scenario = rho_sweep", "vocab_size = 2", "student_order = 63"],
                              f"student_order must {WIDE_CODES} at vocab_size = 2, got 63"),
    # AK divided its logits by the temperature: every token after the prompt was 0
    "ak_zero_temperature": (["scenario = rho_sweep", "scheme = ak", "temperature = 0"],
                            "temperature must be > 0, got 0.0"),
    "ak_negative_temperature": (["scenario = rho_sweep", "scheme = ak", "temperature = -1"],
                                "temperature must be > 0, got -1.0"),
    # the sampling seed's rule, whatever seed + j a run samples from
    "closed_negative_seed": (["scenario = rho_sweep", "modes = closed", "seed = -1"],
                             "seed must be >= 0, got -1"),
    "watermarked_negative_seed": (["scenario = k_sweep", "seed = -2"],
                                  "seed must be >= 0, got -2"),
    "clean_negative_seed": (["scenario = rho_sweep", "rho = 0.0, 0.5", "seed = -3"],
                            "seed must be >= 0, got -3"),
    "d_sweep_negative_seed": (["scenario = d_sweep", "modes = closed", "seed = -1"],
                              "seed must be >= 0, got -1"),
    "short_doc_len": (["scenario = rho_sweep", "doc_len = 2"],
                      f"doc_len must be >= 3 {PROMPTED}, got 2"),
}


@pytest.mark.parametrize("lines,error", SCENARIO_REFUSALS.values(),
                         ids=list(SCENARIO_REFUSALS))
def test_scenario_refuses_values_out_of_range(tmp_path, lines, error):
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{len(lines)}: {error}')}$"):
        parse_scenario(path)


#: One refused value per value rule, through every door it has.  Each row is
#: the text every door gives after its prefix; the library's name for the
#: value and a call that refuses it; the command, setting and value a CLI
#: flag and a ``--config`` line give, whether the command has the flag, and
#: any flags the value needs; and the row of SCENARIO_REFUSALS that refuses
#: it in a scenario file.
DOORS = {
    "scheme": ("must be kgw, ak or mpac, got kgx",
               ("scheme", lambda key, model: WatermarkConfig("kgx", key, 64)),
               ("detect", "scheme", "kgx", False), None),  # argparse refuses the flag
    "k": ("must be >= 1, got 0", ("k", lambda key, model: WatermarkConfig("kgw", key, 64, k=0)),
          ("generate", "k", "0", True), "k"),
    # every window is one a filter file can hold, so --k 300 is refused where it is read
    "k_one_byte": ("must be <= 255 (a filter file keeps k in one byte), got 300",
                   ("k", lambda key, model: WatermarkConfig("kgw", key, 64, k=300)),
                   ("filter", "k", "300", True), "k_one_byte"),
    "gamma": ("must lie in (0, 1) for kgw, got 1.5",
              ("gamma", lambda key, model: WatermarkConfig("kgw", key, 64, gamma=1.5)),
              ("generate", "gamma", "1.5", True), "kgw_gamma"),
    "delta": ("must be >= 0 for kgw and mpac, got -1.0",
              ("delta", lambda key, model: WatermarkConfig("kgw", key, 64, delta=-1.0)),
              ("generate", "delta", "-1", True), "kgw_delta"),
    "temperature": ("must be > 0, got 0.0",
                    ("temperature", lambda key, model: WatermarkConfig("ak", key, 64,
                                                                       temperature=0.0)),
                    ("generate", "temp", "0", True), "ak_zero_temperature"),
    "message": ("must be an even number of bits for mpac, got 012",
                ("message", lambda key, model: WatermarkConfig("mpac", key, 64, message="012")),
                ("generate", "message", "012", True, "--scheme", "mpac"), "mpac_message"),
    "vocab_size": ("must be >= 1, got 0",
                   ("vocab_size", lambda key, model: WatermarkConfig("kgw", key, 0)),
                   ("generate", "vocab_size", "0", True), "vocab_size"),
    "order": ("must be >= 1, got 0", ("order", lambda key, model: NGramModel(0, 64)),
              ("train", "order", "0", True), "student_order"),
    "wide_order": (f"must {WIDE_CODES} at vocab_size = 128, got 9",
                   ("order", lambda key, model: NGramModel(9, 128)),
                   ("train", "order", "9", True, "--vocab-size", "128"), "wide_student_order"),
    "teacher_order": ("must be >= 1, got 0", None,
                      ("generate", "teacher_order", "0", False), "teacher_order"),
    "smoothing_lambda": ("must be >= 0, got -1.0",
                         ("smoothing_lambda", lambda key, model: NGramModel(2, 64, -1.0)),
                         ("train", "smoothing_lambda", "-1", True), "smoothing_lambda"),
    "nucleus_p": ("must lie in (0, 1], got 0.0",
                  ("nucleus_p", lambda key, model: SamplingConfig(nucleus_p=0.0)),
                  ("generate", "nucleus_p", "0", True), "nucleus_p"),
    "sampling_temperature": ("must be > 0, got 0.0",
                             ("temperature", lambda key, model: SamplingConfig(temperature=0.0)),
                             ("generate", "sampling_temperature", "0", False),
                             "sampling_temperature"),
    "max_tokens": ("must be >= 0, got -1",
                   ("max_tokens", lambda key, model: SamplingConfig(max_tokens=-1)),
                   ("detect", "max_tokens", "-1", False), None),
    "rho": ("must lie in [0, 1], got -0.5", ("rho", lambda key, model: MixSpec(-0.5)), None,
            "rho_value"),
    "d": ("must lie in [0, 1], got 1.5", ("d", lambda key, model: MixSpec(0.5, d=1.5)),
          None, None),
    "n_docs": ("must be >= 0, got -1",
               ("n_docs", lambda key, model: generate_corpus(model, -1, 10, SamplingConfig())),
               ("generate", "docs", "-1", True), None),
    "doc_len": (f"must be >= 3 {PROMPTED}, got 2",
                ("doc_len", lambda key, model: generate_corpus(model, 1, 2, SamplingConfig())),
                ("generate", "doc_len", "2", True), "short_doc_len"),
    "budget": ("must be >= 0, got -1",
               ("budget", lambda key, model: detect_open(
                   model, [[1, 2, 3, 4]], WatermarkConfig("kgw", key, 64), budget=-1)),
               ("detect", "budget", "-1", True), "budget"),
    "teacher_seed": ("must be >= 0, got -1", None, ("generate", "teacher_seed", "-1", False),
                     "teacher_seed"),
    "seed": ("must be >= 0, got -1", ("seed", lambda key, model: SamplingConfig(seed=-1)),
             ("generate", "seed", "-1", True), "closed_negative_seed"),
}


def command_argv(cli_files, command, setting) -> list[str]:
    """A run of ``command`` that ends well, without ``setting``'s flag."""
    tmp_path, model, corpus = cli_files
    argv = {"generate": ["generate", "--key", KEY_HEX, "--docs", "2", "--doc-len", "10",
                         "--out", str(tmp_path / "gen" / "c.jsonl")],
            "train": ["train", "--corpus", str(corpus), "--out", str(tmp_path / "s.bin")],
            "detect": ["detect", "--mode", "open", "--model", str(model), "--corpus",
                       str(corpus), "--key", KEY_HEX, "--out", str(tmp_path / "out")],
            "filter": ["filter", "--corpus", str(corpus), "--out", str(tmp_path / "phi.bin")]
            }[command]
    argv += ["--vocab-size", "64"] if command != "filter" else []
    flag = "--" + setting.replace("_", "-")
    # drop the flag and the value after it, so that a config line can set it
    return [arg for i, arg in enumerate(argv) if flag not in argv[max(i - 1, 0) : i + 1]]


@pytest.mark.parametrize("text,library,cli,scenario", DOORS.values(), ids=list(DOORS))
def test_each_rule_reads_the_same_at_every_door(cli_files, small_model, key, capsys,
                                                text, library, cli, scenario):
    """The library names the value, a flag names itself, a config file its
    file, line and key, and a scenario file its file, line and key; the text
    after that is the rule's at each door."""
    tmp_path = cli_files[0]
    if library:
        name, call = library
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{name} {text}')}$"):
            call(key, small_model)
    if cli:
        command, setting, value, has_flag, *extra = cli
        plain = command_argv(cli_files, command, setting)
        argv = plain + extra
        flag = "--" + setting.replace("_", "-")
        if has_flag:
            assert main(argv + [flag, value]) == EXIT_ERROR
            assert one_error_line(capsys) == f"error: {flag} {text}\n"
        config = tmp_path / "door.cfg"
        config.write_text(f"{setting} = {value}\n")
        assert main(argv + ["--config", str(config)]) == EXIT_ERROR
        assert one_error_line(capsys) == f"error: {config}:1: {setting} {text}\n"
        assert main(plain) == EXIT_OK  # without the value the run ends well
        capsys.readouterr()
    if scenario:
        lines, _ = SCENARIO_REFUSALS[scenario]
        path = tmp_path / "door.scn"
        path.write_text("\n".join(lines) + "\n")
        error = f"{path}:{len(lines)}: {lines[-1].partition(' = ')[0]} {text}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            parse_scenario(path)


def test_scenario_refuses_mpac_without_a_message(tmp_path):
    """The default the rule refuses has no line: the error names the file."""
    path = tmp_path / "bad.scn"
    path.write_text("scenario = d_sweep\nscheme = mpac\n")
    error = f"{path}: message must be an even number of bits for mpac, got None"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        parse_scenario(path)


@pytest.mark.parametrize("lines", [
    ["scenario = d_sweep", "scheme = mpac", "message = 0110"],
    ["scenario = rho_sweep", "scheme = ak", "temperature = 0.5", "gamma = 1.5", "delta = -1"],
    ["scenario = d_sweep", "modes = closed", "detect_len = -1"],
    ["scenario = rho_sweep", "teacher_order = 8", "student_order = 8"],  # 63 bits at V = 128
], ids=["mpac_d_sweep", "ak_ignores_kgw_knobs", "d_sweep_detect_len", "widest_orders"])
def test_scenario_accepts_values_that_run(tmp_path, lines):
    """Values a run never reads, or reads without failing, stay accepted."""
    path = tmp_path / "ok.scn"
    path.write_text("\n".join(lines) + "\n")
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
        TextSampler(small_model, SamplingConfig(seed=3), wm)


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
    assert not contract.stores(model)  # no nucleus store: nothing was sampled


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
