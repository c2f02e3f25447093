import json
import re
from http.server import BaseHTTPRequestHandler

import pytest

from radioscope import (
    AuthError,
    ProtocolError,
    RemoteModel,
    TransportError,
)
from test_cli_errors import serving


class StubHandler(BaseHTTPRequestHandler):
    """Scriptable suspect endpoint; behavior set per-server via attributes."""

    behavior = "echo"
    fail_remaining = 0
    fixed_token = 42
    answer = "42"

    def do_POST(self):
        cls = type(self)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        if cls.behavior == "auth":
            self.send_response(401)
            self.end_headers()
            return
        if cls.behavior == "garbage":
            self._reply(200, b"not json at all")
            return
        if cls.behavior == "always500":
            self._reply(500, b"{}")
            return
        if cls.fail_remaining > 0:
            cls.fail_remaining -= 1
            self._reply(503, b"{}")
            return
        payload = {"token": cls.fixed_token}
        if cls.behavior == "answer":  # the raw JSON of the token
            self._reply(200, b'{"token": ' + cls.answer.encode() + b"}")
            return
        if cls.behavior == "sum":
            payload["token"] = sum(body["context"]) % 97
        self._reply(200, json.dumps(payload).encode())

    def _reply(self, status, body):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    class Handler(StubHandler):
        pass

    with serving(Handler) as url:
        yield Handler, url


class TestRemoteModel:
    def test_echo_fixed_token(self, server):
        handler, url = server
        handler.fixed_token = 42
        model = RemoteModel(url)
        assert model.next_token([1, 2, 3]) == 42

    def test_retries_through_transient_failures(self, server):
        handler, url = server
        handler.fail_remaining = 3
        model = RemoteModel(url, max_retries=5, backoff=0.01)
        assert model.next_token([0]) == handler.fixed_token

    def test_gives_up_after_max_retries(self, server):
        handler, url = server
        handler.behavior = "always500"
        model = RemoteModel(url, max_retries=2, backoff=0.01)
        with pytest.raises(TransportError):
            model.next_token([0])

    def test_auth_failure_not_retried(self, server):
        handler, url = server
        handler.behavior = "auth"
        model = RemoteModel(url, credentials="sekrit", max_retries=5)
        with pytest.raises(AuthError):
            model.next_token([0])

    def test_malformed_response(self, server):
        handler, url = server
        handler.behavior = "garbage"
        model = RemoteModel(url)
        with pytest.raises(ProtocolError):
            model.next_token([0])

    @pytest.mark.parametrize("answer,token", [("2.7", 2.7), ('"7"', "7"), ("true", True),
                                              ("null", None), ("[7]", [7])])
    def test_a_token_that_is_not_an_integer_is_refused(self, server, answer, token):
        handler, url = server
        handler.behavior, handler.answer = "answer", answer
        model = RemoteModel(url)
        with pytest.raises(ProtocolError, match=rf"^malformed response: token "
                                                rf"{re.escape(repr(token))} is not an integer$"):
            model.complete([1, 2], 3)

    def test_unreachable_endpoint(self):
        model = RemoteModel("http://127.0.0.1:9/", max_retries=2, backoff=0.01)
        with pytest.raises(TransportError):
            model.next_token([0])

    def test_complete_extends_context(self, server):
        handler, url = server
        handler.behavior = "sum"
        model = RemoteModel(url)
        out = model.complete([1, 2], 3)
        assert len(out) == 3
        # each step feeds the grown context back in
        assert out[0] == 3
        assert out[1] == (1 + 2 + out[0]) % 97

    def test_complete_many_preserves_order(self, server):
        handler, url = server
        handler.behavior = "sum"
        model = RemoteModel(url, max_in_flight=4)
        contexts = [[i] for i in range(10)]
        results = model.complete_many(contexts, 2)
        expected = [model.complete([i], 2) for i in range(10)]
        assert results == expected
