"""HTTP client for a remote suspect model.

Wire protocol is deliberately minimal: POST a JSON body
``{"context": [ids], "n": 1}`` and receive ``{"token": id}`` with an
optional ``"logits"`` array.  Providers that omit logits are treated as
closed-model-only.  Adapters to real inference APIs belong outside the
core.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported where it is used: only a remote suspect needs it
    import requests


class RemoteError(RuntimeError):
    """Base class for remote suspect failures."""


class TransportError(RemoteError):
    """Network-level failure after exhausting retries."""


class AuthError(RemoteError):
    """Credentials rejected by the provider."""


class ProtocolError(RemoteError):
    """Response did not match the wire format."""


class CapabilityError(RemoteError):
    """Operation needs logits the provider does not expose."""


class RemoteModel:
    """Suspect model behind an HTTP endpoint.

    Transient transport failures are retried with exponential backoff (up
    to ``max_retries`` attempts); auth and protocol failures are reported
    distinctly and never retried.
    """

    def __init__(self, endpoint: str, credentials: str | None = None,
                 max_retries: int = 5, backoff: float = 0.1,
                 timeout: float = 10.0, max_in_flight: int = 8,
                 session: requests.Session | None = None):
        import requests  # not at module level: it adds 14 MB to every process
        self.endpoint = endpoint
        self.credentials = credentials
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self._session = session or requests.Session()
        #: None until the first response reveals whether logits are exposed.
        self.provides_logits: bool | None = None

    def _headers(self) -> dict:
        if self.credentials:
            return {"Authorization": f"Bearer {self.credentials}"}
        return {}

    def next_token(self, context) -> tuple[int, list[float] | None]:
        """One completion step: (token, logits or None)."""
        import requests
        body = {"context": [int(t) for t in context], "n": 1}
        last_exc = None
        for attempt in range(self.max_retries):
            try:
                resp = self._session.post(self.endpoint, json=body,
                                          headers=self._headers(),
                                          timeout=self.timeout)
            except requests.RequestException as exc:
                last_exc = exc
                time.sleep(self.backoff * 2**attempt)
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"authentication failed ({resp.status_code})")
            if resp.status_code >= 500:
                last_exc = RuntimeError(f"server error {resp.status_code}")
                time.sleep(self.backoff * 2**attempt)
                continue
            if resp.status_code != 200:
                raise ProtocolError(f"unexpected status {resp.status_code}")
            try:
                payload = resp.json()
                token = payload["token"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ProtocolError(f"malformed response: {exc}") from exc
            if type(token) is not int:  # neither coerced nor a bool
                raise ProtocolError(f"malformed response: token {token!r} is not an integer")
            logits = payload.get("logits")
            self.provides_logits = logits is not None
            return token, logits
        raise TransportError(f"giving up after {self.max_retries} attempts: {last_exc}")

    def complete(self, context, max_tokens: int) -> list[int]:
        """Greedy multi-step completion via repeated single-token queries."""
        ctx = list(context)
        out = []
        for _ in range(max_tokens):
            token, _ = self.next_token(ctx)
            ctx.append(token)
            out.append(token)
        return out

    def complete_many(self, contexts, max_tokens: int) -> list[list[int]]:
        """Bounded-concurrency completions, aggregated by request index."""
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            futures = [pool.submit(self.complete, ctx, max_tokens) for ctx in contexts]
            return [f.result() for f in futures]
