"""The asyncio HTTP/JSON front end (stdlib only).

One ``asyncio.start_server`` accept loop; each connection carries one
request (``Connection: close``).  Handlers delegate to the
:class:`~repro.serve.daemon.ServeDaemon` — whose calls are all short
and lock-light — so the event loop never parks behind a simulation.
A submission runs on the loop's default executor instead: its journal
fsync would otherwise stall every open event stream.

Endpoints::

    GET  /healthz                      liveness
    GET  /v1/stats                     store + queue + metrics snapshot
    POST /v1/drain                     stop admissions, drain, snapshot
    POST /v1/campaigns                 submit a campaign document (202;
                                       429/503 + Retry-After when the
                                       queue is full, a breaker is
                                       open, or the daemon is draining)
    GET  /v1/campaigns                 all campaign statuses
    GET  /v1/campaigns/{id}            one campaign status
    GET  /v1/campaigns/{id}/result     {target_key: record} (finished)
    GET  /v1/campaigns/{id}/events     chunked NDJSON progress stream
                                       (?since=N resumes mid-feed,
                                        ?follow=0 returns and closes)
    GET  /v1/records/{key}             one content-addressed record
    GET  /v1/records/{key}/rlog        the .rlog sidecar, chunked raw

The events endpoint streams with chunked transfer encoding: each
scheduler decision (plan / job submit / job done / job failed / done)
is one NDJSON line, flushed as its own chunk, so a client watches a
campaign live.  Events are pushed, not polled: the stream sleeps on a
:meth:`~repro.serve.registry.TaskRegistry.watch` event that the runner
thread sets when it appends an event or ends the campaign, so a line
goes out as soon as it exists.  The stream ends when the campaign
reaches a terminal state and the feed is drained.

``GET /v1/campaigns`` encodes one status document at a time, so the
listing never holds every task's status dict at once.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time

from ..campaign.suites import SuiteError
from .daemon import ServeDaemon, UnknownKeyError
from .registry import CampaignTask
from .supervise import Busy
from .protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    chunk,
    error_response,
    event_line,
    json_response,
    last_chunk,
    parse_headers,
    parse_request_line,
    render_response,
    split_path,
    stream_head,
)

_log = logging.getLogger("repro.serve")

#: how long a client may take to deliver its request
READ_TIMEOUT_S = 10.0
#: raw-bytes chunk size for .rlog streaming
RLOG_CHUNK = 64 << 10


class HttpFrontend:
    """The accept loop plus routing, bound to one daemon."""

    def __init__(self, daemon: ServeDaemon, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.daemon = daemon
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        _log.info(f"repro serve listening on "
                  f"http://{self.host}:{self.port}")

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ----------------------------------------------------------- connection

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        t0 = time.perf_counter()
        status = 500
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                writer.write(error_response(408, "request read timed out"))
                status = 408
                return
            except ProtocolError as exc:
                writer.write(error_response(exc.status, exc.message))
                status = exc.status
                return
            if request is None:  # connection closed before a request
                return
            status = await self._route(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # pragma: no cover - defensive
            _log.exception("request handler crashed")
            try:
                writer.write(error_response(
                    500, f"{type(exc).__name__}: {exc}"))
            except Exception:
                pass
        finally:
            m = self.daemon.metrics
            m.counter("serve.http.requests").inc()
            m.counter(f"serve.http.status.{status // 100}xx").inc()
            m.histogram("serve.http.request_ms").observe(
                (time.perf_counter() - t0) * 1e3)
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self,
                            reader: asyncio.StreamReader) -> Request | None:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            return None
        method, path, query = parse_request_line(line)
        raw_headers: list[str] = []
        while True:
            header = (await reader.readline()).decode("latin-1")
            if header in ("\r\n", "\n", ""):
                break
            raw_headers.append(header.rstrip("\r\n"))
        headers = parse_headers(raw_headers)
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError as exc:
                raise ProtocolError(
                    400, f"bad Content-Length: {length!r}") from exc
            if n > MAX_BODY_BYTES:
                raise ProtocolError(413, f"body of {n} bytes exceeds "
                                         f"{MAX_BODY_BYTES}")
            body = await reader.readexactly(n)
        return Request(method=method, path=path, query=query,
                       headers=headers, body=body)

    # -------------------------------------------------------------- routing

    async def _route(self, request: Request,
                     writer: asyncio.StreamWriter) -> int:
        segments = split_path(request.path)
        try:
            if segments == ["healthz"]:
                return self._write(writer, 200, {"ok": True})
            if segments == ["v1", "stats"] and request.method == "GET":
                return self._write(writer, 200, self.daemon.stats())
            if segments == ["v1", "drain"]:
                if request.method != "POST":
                    writer.write(error_response(405, "POST only"))
                    return 405
                return await self._drain(request, writer)
            if segments == ["v1", "campaigns"]:
                if request.method == "POST":
                    # off the loop: the ack's journal fsync must not
                    # hold up other connections' event streams
                    doc = request.json()
                    loop = asyncio.get_running_loop()
                    task = await loop.run_in_executor(
                        None, self.daemon.submit, doc)
                    return self._write(writer, 202, task.status_doc())
                if request.method == "GET":
                    writer.write(self._listing())
                    return 200
                writer.write(error_response(405, "GET or POST"))
                return 405
            if (len(segments) in (3, 4)
                    and segments[:2] == ["v1", "campaigns"]):
                return await self._route_campaign(request, writer,
                                                  segments)
            if (len(segments) in (3, 4)
                    and segments[:2] == ["v1", "records"]):
                return await self._route_record(request, writer, segments)
        except ProtocolError as exc:
            writer.write(error_response(exc.status, exc.message))
            return exc.status
        except SuiteError as exc:
            writer.write(error_response(400, str(exc)))
            return 400
        except Busy as exc:
            # backpressure, not failure: 429 (queue full) or 503
            # (draining / circuit open), always with Retry-After
            writer.write(error_response(exc.status, str(exc),
                                        retry_after=exc.retry_after))
            return exc.status
        except UnknownKeyError as exc:
            writer.write(error_response(
                404, f"no record for key {exc.args[0]!r}"))
            return 404
        writer.write(error_response(404, f"no route for "
                                         f"{request.method} "
                                         f"{request.path}"))
        return 404

    async def _route_campaign(self, request: Request,
                              writer: asyncio.StreamWriter,
                              segments: list[str]) -> int:
        if request.method != "GET":
            writer.write(error_response(405, "GET only"))
            return 405
        task = self.daemon.registry.get(segments[2])
        if task is None:
            writer.write(error_response(
                404, f"no campaign {segments[2]!r}"))
            return 404
        if len(segments) == 3:
            return self._write(writer, 200, task.status_doc())
        if segments[3] == "result":
            if not task.finished:
                writer.write(error_response(
                    400, f"campaign {task.id} is {task.state}; "
                         "stream /events or poll status"))
                return 400
            if task.state == "failed":
                writer.write(error_response(
                    400, f"campaign {task.id} failed: {task.error}"))
                return 400
            return self._write(writer, 200,
                               {"id": task.id,
                                "records": self.daemon.result(task)})
        if segments[3] == "events":
            return await self._stream_events(request, writer, task)
        writer.write(error_response(404, f"no route for {request.path}"))
        return 404

    async def _route_record(self, request: Request,
                            writer: asyncio.StreamWriter,
                            segments: list[str]) -> int:
        if request.method != "GET":
            writer.write(error_response(405, "GET only"))
            return 405
        key = segments[2]
        if len(segments) == 3:
            return self._write(writer, 200,
                               {"key": key,
                                "record": self.daemon.record(key)})
        if segments[3] == "rlog":
            return await self._stream_rlog(writer, key)
        writer.write(error_response(404, f"no route for {request.path}"))
        return 404

    # ------------------------------------------------------------ lifecycle

    async def _drain(self, request: Request,
                     writer: asyncio.StreamWriter) -> int:
        """``POST /v1/drain``: stop admissions, wait for in-flight
        campaigns (``?timeout=S`` caps the wait), snapshot the journal,
        then report.  ``run_server`` notices ``daemon.drained`` and
        exits cleanly right after this response goes out."""
        timeout: float | None = None
        raw = request.query.get("timeout")
        if raw is not None:
            try:
                timeout = float(raw)
            except ValueError:
                writer.write(error_response(400,
                                            "timeout must be a number"))
                return 400
        loop = asyncio.get_running_loop()
        clean = await loop.run_in_executor(
            None, lambda: self.daemon.drain(timeout))
        return self._write(writer, 200, {
            "draining": True,
            "clean": clean,
            "queue_depth": self.daemon.queue_depth(),
        })

    # ------------------------------------------------------------ streaming

    async def _stream_events(self, request: Request,
                             writer: asyncio.StreamWriter,
                             task: CampaignTask) -> int:
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            writer.write(error_response(400, "since must be an integer"))
            return 400
        follow = request.query.get("follow", "1") not in ("0", "false")
        writer.write(stream_head())
        await writer.drain()
        registry = self.daemon.registry
        wake = registry.watch(task)  # before the first read: no lost wake
        try:
            while True:
                events, finished = registry.events_since(task, since, wake)
                for event in events:
                    writer.write(chunk(event_line(event)))
                if events:
                    since = events[-1]["i"] + 1
                    await writer.drain()
                    if self.daemon.stream_resets_remaining > 0:
                        # chaos drill: hard-reset the connection
                        # mid-feed (RST, no terminating chunk) — the
                        # client must resume from its `since` cursor
                        # on a fresh socket
                        self.daemon.stream_resets_remaining -= 1
                        transport = writer.transport
                        if transport is not None:
                            transport.abort()
                        return 200
                if finished or not follow:
                    break
                await wake.wait()
        finally:
            registry.unwatch(task, wake)
        # explicit end-of-stream sentinel: a feed that stops without it
        # was cut mid-flight (TCP semantics alone can't tell a clean
        # close from a reset once the kernel buffer is drained, so the
        # client keys its resume decision off this line)
        writer.write(chunk(event_line({"eos": True})))
        writer.write(last_chunk())
        return 200

    async def _stream_rlog(self, writer: asyncio.StreamWriter,
                           key: str) -> int:
        blob = self.daemon.rlog(key)  # raises UnknownKeyError → 404
        writer.write(stream_head(content_type="application/octet-stream"))
        for start in range(0, len(blob), RLOG_CHUNK):
            writer.write(chunk(blob[start:start + RLOG_CHUNK]))
            await writer.drain()
        writer.write(last_chunk())
        return 200

    # -------------------------------------------------------------- helpers

    def _listing(self) -> bytes:
        """``GET /v1/campaigns``, byte-identical to ``json_response(200,
        {"campaigns": [t.status_doc() ...]})`` but encoded one status
        document at a time."""
        docs = b", ".join(
            json.dumps(task.status_doc(), sort_keys=True).encode()
            for task in self.daemon.registry.list())
        return render_response(200, b'{"campaigns": [' + docs + b"]}\n")

    @staticmethod
    def _write(writer: asyncio.StreamWriter, status: int,
               doc: object) -> int:
        writer.write(json_response(status, doc))
        return status


class BackgroundServer:
    """The front end hosted on a dedicated event-loop thread.

    Lets synchronous code (tests, the chaos drill) run a live server
    next to blocking clients in one process::

        server = BackgroundServer(daemon)
        port = server.start()
        ... ServeClient(f"http://127.0.0.1:{port}") ...
        server.stop()
    """

    def __init__(self, daemon: ServeDaemon, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.frontend = HttpFrontend(daemon, host=host, port=port)
        self._loop = asyncio.new_event_loop()
        self._thread: threading.Thread | None = None

    def start(self, timeout: float = 10.0) -> int:
        """Start serving; returns the bound port."""
        ready = threading.Event()

        def body() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.frontend.start())
            ready.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=body, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not ready.wait(timeout):  # pragma: no cover - startup hang
            raise RuntimeError("server failed to start in time")
        return self.frontend.port

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.frontend.close(),
                                                  self._loop)
        try:
            future.result(timeout)
        except Exception:  # pragma: no cover - teardown is best-effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._thread = None


async def run_server(daemon: ServeDaemon, host: str = "127.0.0.1",
                     port: int = 8750, *,
                     install_signals: bool = False,
                     poll_s: float = 0.2) -> None:
    """Start the front end and serve until cancelled or drained.

    With ``install_signals=True`` a SIGTERM triggers the graceful
    path: admissions stop, in-flight campaigns drain up to the
    daemon's drain timeout, the journal is snapshotted, and the loop
    exits clean — same effect as ``POST /v1/drain``.  (SIGINT stays
    the CLI's KeyboardInterrupt, the abrupt-but-journaled path.)
    """
    frontend = HttpFrontend(daemon, host=host, port=port)
    await frontend.start()
    loop = asyncio.get_running_loop()

    def _on_sigterm() -> None:
        _log.info("SIGTERM: draining before shutdown")
        threading.Thread(target=daemon.drain, daemon=True,
                         name="repro-serve-drain").start()

    if install_signals:
        try:
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            install_signals = False
    try:
        while not daemon.drained:
            await asyncio.sleep(poll_s)
        # one extra beat so the /v1/drain response flushes before the
        # listener goes away
        await asyncio.sleep(poll_s)
        _log.info("drained; shutting down")
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        if install_signals:
            try:
                loop.remove_signal_handler(signal.SIGTERM)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await frontend.close()
