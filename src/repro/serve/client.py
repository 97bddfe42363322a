"""A stdlib client for the serve daemon.

``http.client`` only — the same no-new-deps rule as the server.  Used
by ``repro submit`` / ``repro status --url``, the ``repro chaos
--serve`` drill, and the tests.  One :class:`ServeClient` per base URL;
each call opens its own connection (the server speaks ``Connection:
close``), so a client instance is safe to share across threads.

Resilience: idempotent GETs retry with seeded full-jitter backoff on
transport errors and on the daemon's backpressure answers (429/503
honour ``Retry-After``).  POSTs never retry — a submission is not
idempotent until the daemon has acked it.  :meth:`stream_events`
transparently resumes a broken progress stream on a fresh connection
from its ``since`` cursor, so a mid-stream connection reset costs a
reconnect, not a gap in the feed.

Streaming: ``http.client`` decodes the chunked framing transparently,
so each ``readline`` yields one complete NDJSON event.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from collections.abc import Iterator
from urllib.parse import urlsplit

#: transport-level failures worth retrying on idempotent verbs
_RETRYABLE_STATUS = (0, 429, 503)


class ServeError(RuntimeError):
    """The daemon answered with an error (or not at all)."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}" if status
                         else message)
        self.status = status
        self.message = message
        #: the server's Retry-After hint, when it sent one
        self.retry_after = retry_after


class ServeClient:
    """Synchronous JSON client for one ``repro serve`` base URL."""

    def __init__(self, url: str, timeout: float = 30.0,
                 retries: int = 2, retry_backoff: float = 0.2,
                 retry_seed: int = 0) -> None:
        try:
            parts = urlsplit(url if "//" in url else f"http://{url}")
            port = parts.port  # urlsplit defers the port check
        except ValueError as exc:
            raise ServeError(0, f"bad server URL {url!r}: {exc}") from exc
        if parts.scheme not in ("", "http"):
            raise ServeError(0, f"only http:// URLs, got {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = port or 8750
        self.timeout = timeout
        self.retries = max(0, retries)
        self.retry_backoff = retry_backoff
        self.retry_seed = retry_seed

    # ------------------------------------------------------------ plumbing

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _retry_delay(self, attempt: int, exc: ServeError) -> float:
        """Seconds to back off before retry ``attempt`` (1-based):
        the server's Retry-After when it sent one, else seeded full
        jitter over an exponential ceiling — deterministic, and
        decorrelated across clients via the seed."""
        if exc.retry_after is not None:
            return float(exc.retry_after)
        ceiling = self.retry_backoff * (2.0 ** (attempt - 1))
        rng = random.Random(f"{self.retry_seed}:{attempt}")
        return rng.uniform(0.0, ceiling)

    def _request(self, method: str, path: str,
                 doc: dict | None = None) -> dict:
        # only idempotent verbs may retry: a replayed POST could
        # double-submit a campaign the daemon already acked
        attempts = 1 + (self.retries if method == "GET" else 0)
        for attempt in range(1, attempts + 1):
            try:
                return self._request_once(method, path, doc)
            except ServeError as exc:
                if (attempt >= attempts
                        or exc.status not in _RETRYABLE_STATUS):
                    raise
                time.sleep(self._retry_delay(attempt, exc))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, method: str, path: str,
                      doc: dict | None = None) -> dict:
        conn = self._connect()
        try:
            body = None
            headers = {}
            if doc is not None:
                body = json.dumps(doc).encode()
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    0, f"cannot reach http://{self.host}:{self.port}"
                       f"{path}: {exc} — is `repro serve` running "
                       "there?") from exc
            retry_after = self._retry_after_header(resp)
            return self._decode(resp.status, payload, retry_after)
        finally:
            conn.close()

    @staticmethod
    def _retry_after_header(
            resp: http.client.HTTPResponse) -> float | None:
        raw = resp.getheader("Retry-After")
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            return None

    @staticmethod
    def _decode(status: int, payload: bytes,
                retry_after: float | None = None) -> dict:
        try:
            doc = json.loads(payload or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServeError(status,
                             f"non-JSON response: {payload[:120]!r}") \
                from exc
        if status >= 400:
            message = doc.get("error", "") if isinstance(doc, dict) \
                else str(doc)
            raise ServeError(status, message or f"status {status}",
                             retry_after)
        if not isinstance(doc, dict):
            raise ServeError(status, f"expected a JSON object, "
                                     f"got {type(doc).__name__}")
        return doc

    # ------------------------------------------------------------ endpoints

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, doc: dict) -> dict:
        """POST a campaign submission; returns the accepted status doc
        (its ``id`` addresses every other endpoint)."""
        return self._request("POST", "/v1/campaigns", doc)

    def drain(self, timeout: float | None = None) -> dict:
        """Ask the daemon to stop admissions, finish in-flight work and
        snapshot its journal (``POST /v1/drain``)."""
        path = "/v1/drain"
        if timeout is not None:
            path += f"?timeout={timeout}"
        return self._request("POST", path)

    def campaigns(self) -> list[dict]:
        return list(self._request("GET", "/v1/campaigns")["campaigns"])

    def status(self, campaign_id: str) -> dict:
        return self._request("GET", f"/v1/campaigns/{campaign_id}")

    def result(self, campaign_id: str) -> dict[str, dict]:
        doc = self._request("GET", f"/v1/campaigns/{campaign_id}/result")
        records = doc["records"]
        assert isinstance(records, dict)
        return records

    def record(self, key: str) -> dict:
        doc = self._request("GET", f"/v1/records/{key}")
        record = doc["record"]
        assert isinstance(record, dict)
        return record

    def rlog(self, key: str) -> bytes:
        """The raw ``.rlog`` sidecar bytes for a content hash."""
        conn = self._connect()
        try:
            try:
                conn.request("GET", f"/v1/records/{key}/rlog")
                resp = conn.getresponse()
                payload = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(0, f"cannot fetch rlog: {exc}") from exc
            if resp.status >= 400:
                self._decode(resp.status, payload)  # raises
            return payload
        finally:
            conn.close()

    def stream_events(self, campaign_id: str, since: int = 0,
                      follow: bool = True) -> Iterator[dict]:
        """Yield progress events live until the campaign finishes
        (or the current feed is drained, with ``follow=False``).

        A dropped connection mid-feed does not end the iterator: the
        client reopens the stream from its ``since`` cursor (events
        carry monotone indices ``i``, so the resume point is exact) up
        to ``retries`` times per delivered event.  Only a stream that
        keeps dying without progressing raises :class:`ServeError`.
        """
        resets_left = self.retries
        while True:
            progressed = False
            try:
                for event in self._stream_once(campaign_id, since,
                                               follow):
                    progressed = True
                    index = event.get("i")
                    if isinstance(index, int):
                        since = index + 1
                    yield event
                return  # feed ended cleanly (terminal chunk seen)
            except ServeError as exc:
                if exc.status != 0:
                    raise  # the daemon answered; not a transport fault
                if progressed:
                    resets_left = self.retries  # reset the budget
                if resets_left <= 0 or not follow:
                    raise
                resets_left -= 1
                time.sleep(self._retry_delay(
                    self.retries - resets_left, exc))

    def _stream_once(self, campaign_id: str, since: int,
                     follow: bool) -> Iterator[dict]:
        conn = self._connect()
        try:
            flag = "1" if follow else "0"
            try:
                conn.request("GET", f"/v1/campaigns/{campaign_id}/events"
                                    f"?since={since}&follow={flag}")
                resp = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(0, f"cannot open event stream: {exc}") \
                    from exc
            if resp.status >= 400:
                self._decode(resp.status, resp.read())  # raises
            while True:
                try:
                    line = resp.readline()
                except (OSError, http.client.HTTPException) as exc:
                    # mid-stream reset (RST / truncated chunk): the
                    # outer loop resumes from the advanced cursor
                    raise ServeError(
                        0, f"event stream dropped: {exc}") from exc
                if not line:
                    # EOF without the server's end-of-stream sentinel:
                    # the connection died mid-feed (a reset that lands
                    # after the kernel buffer drains reads as a plain
                    # EOF, indistinguishable from a clean close)
                    raise ServeError(0, "event stream ended without "
                                        "the end-of-stream sentinel")
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if not isinstance(event, dict):
                    continue
                if event.get("eos"):
                    return  # the only clean way out
                yield event
        finally:
            conn.close()

    # ------------------------------------------------------------- helpers

    def wait(self, campaign_id: str, timeout: float = 300.0,
             poll: float = 0.2) -> dict:
        """Poll until the campaign reaches a terminal state; returns the
        final status doc.  Raises :class:`ServeError` on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.status(campaign_id)
            if doc.get("state") in ("done", "failed"):
                return doc
            if time.monotonic() >= deadline:
                raise ServeError(0, f"campaign {campaign_id} still "
                                    f"{doc.get('state')!r} after "
                                    f"{timeout:.0f}s")
            time.sleep(poll)
