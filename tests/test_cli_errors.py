"""Library errors reach the CLI user as one line on stderr and exit 1."""

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


@pytest.fixture
def endpoint():
    httpd = HTTPServer(("127.0.0.1", 0), RejectingHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}/"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


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


def test_interrupted_run_writes_partial_report(tmp_path, corpus, endpoint, capsys):
    out = tmp_path / "out"
    code = main(["detect", "--mode", "closed", "--endpoint", endpoint,
                 "--corpus", str(corpus), "--key", KEY_HEX, "--vocab-size", "8",
                 "--threads", "2", "--out", str(out)])
    assert code == EXIT_ERROR
    assert "authentication failed" in _one_error_line(capsys)
    report = json.loads((out / "report.json").read_text())
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
    code = main(["filter", "--corpus", str(corpus), "--k", "300",
                 "--out", str(tmp_path / "phi.bin")])
    assert code == EXIT_ERROR
    assert "k must be in 1..255, got 300" in _one_error_line(capsys)


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
