"""Library errors reach the CLI user as one line on stderr and exit 1, and
the secret key and endpoint credentials reach no file or stream, however
they are given."""

import contextlib
import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from radioscope.cli import EXIT_ERROR, main

KEY_HEX = "0xDEADBEEFCAFE"


class RejectingHandler(BaseHTTPRequestHandler):
    """Suspect endpoint that refuses every credential."""

    def do_POST(self):
        self.send_response(401)
        self.end_headers()

    def log_message(self, *args):
        pass


class AnsweringHandler(BaseHTTPRequestHandler):
    """Suspect endpoint that answers every request with ``body``, token 1."""

    body = b'{"token": 1}'

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = self.body
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(handler):
    """A loopback endpoint served by ``handler`` for the duration of the block."""
    httpd = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_port}/"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def endpoint():
    with serving(RejectingHandler) as url:
        yield url


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    path = tmp_path / "c.jsonl"
    path.write_text('{"tokens": [1, 2, 3, 4, 5], "wm": true}\n'
                    '{"tokens": [5, 4, 3, 2, 1], "wm": true}\n')
    return path


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err


def test_open_mode_on_endpoint_is_capability_error(tmp_path, corpus, capsys):
    # the endpoint is never contacted: open mode needs next-token access
    code = main(["detect", "--mode", "open", "--endpoint", "http://127.0.0.1:9/",
                 "--corpus", str(corpus), "--key", KEY_HEX, "--vocab-size", "8",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert "detect_closed" in _one_error_line(capsys)


def test_seed_with_endpoint_is_refused_before_any_request(tmp_path, corpus, capsys):
    """An endpoint samples its own completions, so ``--seed`` is refused
    there; a shared config file's ``seed`` stays accepted."""
    requests = []
    handler = type("Counting", (AnsweringHandler,), {
        "do_POST": lambda self: requests.append(1) or AnsweringHandler.do_POST(self)})
    shared = tmp_path / "shared.cfg"
    shared.write_text("seed = 5\nmax_tokens = 3\n")
    argv = ["detect", "--mode", "closed", "--corpus", str(corpus), "--key", KEY_HEX,
            "--vocab-size", "8", "--config", str(shared), "--out", str(tmp_path / "out")]
    with serving(handler) as url:
        assert main([*argv, "--endpoint", url, "--seed", "5"]) == EXIT_ERROR
        assert "--seed" in _one_error_line(capsys)
        assert requests == []
        assert main([*argv, "--endpoint", url]) == 0
    assert requests


def test_interrupted_run_writes_partial_report(tmp_path, corpus, endpoint, capsys):
    out = tmp_path / "out"
    code = main(["detect", "--mode", "closed", "--endpoint", endpoint,
                 "--corpus", str(corpus), "--key", KEY_HEX, "--vocab-size", "8",
                 "--threads", "2", "--out", str(out)])
    assert code == EXIT_ERROR
    assert "authentication failed" in _one_error_line(capsys)
    report = json.loads((out / "report.json").read_text())
    assert report["vocab_size"] == 8
    (run,) = report["runs"]
    assert run["inconclusive"] and run["n_scored"] == 0
    assert "authentication failed" in run["meta"]["error"]


def test_rsm1_checkpoint_refused(tmp_path, corpus, capsys):
    old = tmp_path / "old.bin"
    old.write_bytes(b"RSM1" + struct.pack("<BdI", 2, 0.01, 8))
    code = main(["detect", "--mode", "open", "--model", str(old),
                 "--corpus", str(corpus), "--key", KEY_HEX, "--vocab-size", "8",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert "re-run `radioscope train`" in _one_error_line(capsys)


def test_filter_k_beyond_one_byte_is_one_error_line(tmp_path, corpus, capsys):
    """The filter file's one-byte bound is part of the key's ``k`` rule, so
    the refusal names the flag that gave the value."""
    code = main(["filter", "--corpus", str(corpus), "--k", "300",
                 "--out", str(tmp_path / "phi.bin")])
    assert code == EXIT_ERROR
    assert _one_error_line(capsys) == ("error: --k must be <= 255 (a filter file keeps k in "
                                       "one byte), got 300\n")


@pytest.fixture
def model(tmp_path):
    from radioscope import save_model, train_ngram

    path = tmp_path / "m.bin"
    save_model(train_ngram([[1, 2, 3, 4, 5, 6, 7]], 2, 0.01, 8), path)
    return path


def detect_with_filter(tmp_path, model, corpus, phi):
    return main(["detect", "--mode", "closed", "--model", str(model),
                 "--corpus", str(corpus), "--key", KEY_HEX, "--vocab-size", "8",
                 "--filter", str(phi), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("header", [b"RSF1\x02", struct.pack("<4sBQ", b"RSF1", 2, 2**40),
                                    struct.pack("<4sBQ", b"RSF1", 0, 0)])
def test_corrupt_filter_is_one_error_line(tmp_path, corpus, model, capsys, header):
    phi = tmp_path / "phi.bin"
    phi.write_bytes(header)
    assert detect_with_filter(tmp_path, model, corpus, phi) == EXIT_ERROR
    assert "phi.bin" in _one_error_line(capsys)


def test_filter_of_another_window_size_is_one_error_line(tmp_path, corpus, model, capsys):
    phi = tmp_path / "phi.bin"
    assert main(["filter", "--corpus", str(corpus), "--k", "3", "--out", str(phi)]) == 0
    capsys.readouterr()
    assert detect_with_filter(tmp_path, model, corpus, phi) == EXIT_ERROR
    assert "3-grams, but the key's window is k=2" in _one_error_line(capsys)


SECRET_KEY = 0xDEADBEEF
TOKEN = "TOPSECRET-TOKEN"


def assert_secrets_absent(out_dir, capsys):
    """Neither the key, as given, in decimal or in hex of either case, nor
    the credentials appear in a file written or on stdout or stderr; the
    streams are returned."""
    captured = capsys.readouterr()
    texts = [captured.out, captured.err] + [p.read_text() for p in out_dir.rglob("*")
                                            if p.is_file()]
    for text in texts:
        for secret in (hex(SECRET_KEY), str(SECRET_KEY), TOKEN):
            assert secret.lower() not in text.lower(), text
    return captured


@pytest.mark.parametrize("given", [["--key", hex(SECRET_KEY)], [f"--key={SECRET_KEY}"],
                                   ["--ke", hex(SECRET_KEY)], [f"--ke={hex(SECRET_KEY)}"]],
                         ids=["flag", "flag=", "prefix", "prefix="])
def test_manifest_redacts_the_key_however_spelled(tmp_path, corpus, capsys, given):
    """argparse takes any unambiguous prefix of a flag, so the manifest
    redacts by the flag argparse matched, not by its spelling."""
    out = tmp_path / "a"
    assert main(["generate", *given, "--docs", "2", "--doc-len", "10", "--vocab-size", "16",
                 "--out", str(out / "c.jsonl")]) == 0
    assert_secrets_absent(out, capsys)
    assert "<redacted>" in " ".join(json.loads((out / "manifest.json").read_text())["command"])


@pytest.mark.parametrize("given", [["--credentials", TOKEN], [f"--credentials={TOKEN}"],
                                   ["--cred", TOKEN], [f"--cr={TOKEN}"]],
                         ids=["flag", "flag=", "prefix", "prefix="])
def test_manifest_redacts_the_credentials_however_spelled(tmp_path, corpus, capsys, given):
    out = tmp_path / "out"
    max_tokens = tmp_path / "short.cfg"
    max_tokens.write_text("max_tokens = 3\n")
    with serving(AnsweringHandler) as url:
        assert main(["detect", "--mode", "closed", "--endpoint", url, *given,
                     "--corpus", str(corpus), "--key", hex(SECRET_KEY), "--vocab-size", "8",
                     "--config", str(max_tokens), "--out", str(out)]) == 0
    assert_secrets_absent(out, capsys)
    command = json.loads((out / "manifest.json").read_text())["command"]
    assert "<redacted>" in " ".join(command)


@pytest.mark.parametrize("bad", ["0xDEADBEEG", "-12345", str(2**64)])
@pytest.mark.parametrize("source", ["config", "flag", "env"])
def test_a_bad_key_is_named_by_its_source_not_its_value(tmp_path, corpus, capsys, monkeypatch,
                                                        source, bad):
    """A config file's key is read at its line, as every other setting is,
    so a command that needs no key refuses it too."""
    config = tmp_path / "k.cfg"
    config.write_text(f"key = {bad}\n")
    given = {"config": ["--config", str(config)], "flag": ["--key", bad], "env": []}[source]
    if source == "env":
        monkeypatch.setenv("RADIOSCOPE_KEY", bad)
    named = {"config": f"{config}:1: key: ", "flag": "--key: ", "env": "RADIOSCOPE_KEY: "}[source]
    out = tmp_path / "c.jsonl"
    assert main(["generate", *given, "--docs", "2", "--doc-len", "10",
                 "--out", str(out)]) == EXIT_ERROR
    err = _one_error_line(capsys)
    assert err == f"error: {named}must be an integer in [1, 2**64-2], decimal or 0x hex\n"
    assert bad not in err.replace(str(config), "")
    if source == "config":
        assert main(["train", "--corpus", str(corpus), *given,
                     "--out", str(tmp_path / "s.bin")]) == EXIT_ERROR
        assert _one_error_line(capsys) == err


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_a_key_that_merges_windows_is_one_error_line(tmp_path, capsys, mode):
    """``--key 1`` hashes a window to the sum of its tokens, so (3, 4) and
    (4, 3) of the text share a seed: detection refuses the key in one line
    that holds no digit of it, and writes no report."""
    from radioscope import save_model, train_ngram

    model, corpus, out = tmp_path / "m.bin", tmp_path / "c.jsonl", tmp_path / "out"
    save_model(train_ngram([list(range(128))], 3, 0.01, 128), model)
    corpus.write_text('{"tokens": [1, 2, 3, 4, 3, 2, 1]}\n')
    assert main(["detect", "--mode", mode, "--model", str(model), "--corpus", str(corpus),
                 "--key", "1", "--vocab-size", "128", "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: the key hashes two windows of this text to one seed")
    assert not any(ch.isdigit() for ch in captured.out + captured.err)
    assert not (out / "report.json").exists()


def test_an_interrupted_run_writes_no_credentials(tmp_path, corpus, endpoint, capsys):
    """The partial report and the error line of a refused endpoint carry
    neither the credentials nor the key."""
    out = tmp_path / "out"
    assert main(["detect", "--mode", "closed", "--endpoint", endpoint, "--cred", TOKEN,
                 "--corpus", str(corpus), "--key", hex(SECRET_KEY), "--vocab-size", "8",
                 "--out", str(out)]) == EXIT_ERROR
    assert (out / "report.json").exists()
    assert_secrets_absent(out, capsys)


@pytest.mark.parametrize("answer,token", [("2.7", 2.7), ('"7"', "7"), ("true", True)])
def test_an_endpoint_token_that_is_not_an_integer_is_one_error_line(tmp_path, corpus, capsys,
                                                                    answer, token):
    """The endpoint's answer is refused, not coerced, and the error line
    and the partial report carry neither the credentials nor the key."""
    handler = type("Answering", (AnsweringHandler,), {"body": b'{"token": %s}' % answer.encode()})
    out = tmp_path / "out"
    with serving(handler) as url:
        assert main(["detect", "--mode", "closed", "--endpoint", url, "--cred", TOKEN,
                     "--corpus", str(corpus), "--key", hex(SECRET_KEY), "--vocab-size", "8",
                     "--out", str(out)]) == EXIT_ERROR
    assert (out / "report.json").exists()
    err = assert_secrets_absent(out, capsys).err
    assert err == f"error: malformed response: token {token!r} is not an integer\n"


#: Every way a command takes the secret key: the flag, the flag with ``=``,
#: a prefix argparse takes for it, a ``--config`` line and the environment
KEY_SOURCES = {"flag": ["--key", hex(SECRET_KEY)], "flag=": [f"--key={SECRET_KEY}"],
               "prefix": ["--ke", hex(SECRET_KEY).upper()], "config": [], "env": []}

#: Every command that writes something, as run on the inputs below: ``{in}``
#: is the inputs' directory, ``{out}`` the run's own, and ``{url}`` a
#: loopback endpoint that answers every request.
SECRECY_RUNS = {
    "generate": ["generate", "--docs", "2", "--doc-len", "10", "--vocab-size", "16",
                 "--out", "{out}/c.jsonl"],
    "train": ["train", "--corpus", "{in}/c.jsonl", "--vocab-size", "16", "--out", "{out}/m.bin"],
    "detect_open": ["detect", "--mode", "open", "--model", "{in}/m.bin", "--corpus",
                    "{in}/c.jsonl", "--vocab-size", "16", "--out", "{out}"],
    "detect_closed": ["detect", "--mode", "closed", "--model", "{in}/m.bin", "--corpus",
                      "{in}/c.jsonl", "--vocab-size", "16", "--out", "{out}"],
    "detect_endpoint": ["detect", "--mode", "closed", "--endpoint", "{url}", "--credentials",
                        TOKEN, "--corpus", "{in}/c.jsonl", "--vocab-size", "16",
                        "--out", "{out}"],
    "filter": ["filter", "--corpus", "{in}/c.jsonl", "--out", "{out}/phi.bin"],
    "mia": ["mia", "--model", "{in}/m.bin", "--candidate", "{in}/c.jsonl", "--fresh",
            "{in}/c.jsonl", "--out", "{out}"],
    "scenario": ["scenario", "--spec", "{in}/s.scn", "--out", "{out}"],
}


@pytest.fixture(scope="module")
def secrecy_inputs(tmp_path_factory):
    """A V = 16 corpus with text, a model trained on it and a small scenario."""
    from radioscope import save_model, train_ngram

    inputs = tmp_path_factory.mktemp("inputs")
    docs = [[(5 * d + 3 * i) % 16 for i in range(12)] for d in range(3)]
    (inputs / "c.jsonl").write_text("".join(
        json.dumps({"tokens": doc, "text": f"document {d}"}) + "\n" for d, doc in enumerate(docs)))
    save_model(train_ngram(docs, 2, 0.01, 16), inputs / "m.bin")
    (inputs / "s.scn").write_text("scenario = rho_sweep\nvocab_size = 16\nrho = 0.5\n"
                                  "repetitions = 1\nn_docs = 4\ndoc_len = 10\ndetect_docs = 2\n"
                                  "detect_len = 10\n")
    return inputs


@pytest.fixture(scope="module")
def answering_url():
    with serving(AnsweringHandler) as url:
        yield url


#: The commands that read no key: each refuses ``--key``, however spelled,
#: and leaves a key in a shared config file or the environment unread
KEYLESS = ("train", "filter", "mia", "scenario")


@pytest.mark.parametrize("source", KEY_SOURCES)
@pytest.mark.parametrize("command", SECRECY_RUNS)
def test_no_command_writes_the_key_or_the_credentials(tmp_path, secrecy_inputs, answering_url,
                                                      capsys, monkeypatch, command, source):
    """Whichever command runs and however the key is given, neither the key
    (as given, in decimal, in hex of either case) nor the endpoint's
    credentials reach a file the run writes, stdout or stderr.  A command
    that reads no key refuses the flag in one line that names ``--key`` and
    writes nothing."""
    monkeypatch.delenv("RADIOSCOPE_KEY", raising=False)
    if source == "env":
        monkeypatch.setenv("RADIOSCOPE_KEY", hex(SECRET_KEY))
    # the config file, read by every command, keeps closed completions short
    config = tmp_path / "run.cfg"
    config.write_text("max_tokens = 3\n" + (f"key = {SECRET_KEY}\n" if source == "config" else ""))
    out = tmp_path / "out"
    argv = [arg.format(**{"in": secrecy_inputs, "out": out, "url": answering_url})
            for arg in SECRECY_RUNS[command]]
    refused = command in KEYLESS and source.startswith(("flag", "prefix"))
    assert main(argv + KEY_SOURCES[source] + ["--config", str(config)]) == (
        EXIT_ERROR if refused else 0)
    captured = capsys.readouterr()
    written = [p.read_bytes() for p in out.rglob("*") if p.is_file()]
    if refused:
        assert captured.err == f"error: --key does not apply to {command}, which reads no key\n"
        assert not out.exists()
    else:
        assert written
    for text in [captured.out.encode(), captured.err.encode()] + written:
        for secret in (hex(SECRET_KEY)[2:], str(SECRET_KEY), TOKEN):
            assert secret.lower().encode() not in text.lower()
