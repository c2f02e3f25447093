"""Tokens are checked against the vocabulary at the detection boundary,
and ``--threads`` is validated where it applies."""

import pytest

from radioscope import (ConfigError, SamplingConfig, WatermarkConfig, save_model,
                        train_ngram)
from radioscope.cli import EXIT_ERROR, _build_parser, main
from radioscope.pipelines import detect_closed, detect_open

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
