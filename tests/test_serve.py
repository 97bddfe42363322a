"""Tests for repro.serve — protocol, registry, daemon, live HTTP.

The protocol layer tests without sockets; the daemon tests without
HTTP; one live :class:`~repro.serve.server.BackgroundServer` per module
carries the end-to-end cases (submission round-trips, streaming, error
paths, and the byte-identity contract against the serial CLI path).
"""

from __future__ import annotations

import asyncio
import json
import queue
import signal
import socket
import sys
import threading
import time

import pytest

from repro.campaign.scheduler import CampaignRunner
from repro.campaign.spec import JobSpec
from repro.campaign.store import MemoryStore, ResultStore
from repro.campaign.suites import (
    MAX_RUNS,
    MAX_SCALE,
    MAX_SECONDS,
    MAX_SEED,
    MAX_THREADS,
    SuiteError,
    build_campaign,
    submission_kwargs,
)
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeDaemon,
    ServeError,
    TaskRecord,
    TaskRegistry,
)
from repro.serve.daemon import UnknownKeyError, build_task
from repro.serve.protocol import (
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
from repro.serve.registry import campaign_status_doc

#: a tiny submission that exercises the full campaign DAG quickly
TINY = {"suite": "overhead", "workloads": ["micro_low_abort"],
        "n_threads": 2, "scale": 0.25, "runs": 2, "drop": 0, "jobs": 1}

#: ``status_doc()`` of a queued, running, done, failed and recovered task
#: (``test_status_docs_are_pinned``), recorded before tasks became
#: journal records
PINNED_STATUS_DOCS = [
    ('{"by_kind": {"overhead": 1, "run": 4}, "events": 0, '
     '"id": "c-000001", "jobs": 5, "name": "overhead", '
     '"state": "queued", "submission": {"drop": 0, "jobs": 1, '
     '"n_threads": 2, "runs": 2, "scale": 0.25, "suite": "overhead", '
     '"workloads": ["micro_low_abort"]}, '
     '"submitted_at": 1700000000.25, "suite": "overhead", '
     '"target_keys": ["e56c4c0441f950c98715fc9e4c7582d0'
     '0bc15aadcfcad24f2d3d9637ffd18af8"], '
     '"targets": 1}'),
    ('{"by_kind": {"overhead": 1, "run": 4}, "deadline": 30.0, '
     '"events": 1, "id": "c-000002", "jobs": 5, "name": "overhead", '
     '"state": "running", "submission": {"deadline": 30.0, "drop": 0, '
     '"jobs": 1, "n_threads": 2, "runs": 2, "scale": 0.25, '
     '"suite": "overhead", "workloads": ["micro_low_abort"]}, '
     '"submitted_at": 1700000000.25, "suite": "overhead", '
     '"target_keys": ["e56c4c0441f950c98715fc9e4c7582d0'
     '0bc15aadcfcad24f2d3d9637ffd18af8"], '
     '"targets": 1}'),
    ('{"by_kind": {"overhead": 1, "run": 4}, "events": 0, '
     '"finished_at": 1700000000.25, "id": "c-000003", "jobs": 5, '
     '"name": "overhead", "state": "done", "submission": {"drop": 0, '
     '"jobs": 1, "n_threads": 2, "runs": 2, "scale": 0.25, '
     '"suite": "overhead", "workloads": ["micro_low_abort"]}, '
     '"submitted_at": 1700000000.25, "suite": "overhead", '
     '"summary": {"hits": 1, "jobs": 3}, '
     '"target_keys": ["e56c4c0441f950c98715fc9e4c7582d0'
     '0bc15aadcfcad24f2d3d9637ffd18af8"], '
     '"targets": 1}'),
    ('{"by_kind": {"overhead": 1, "run": 4}, '
     '"error": "boom: \\u00e9\\"quoted\\"", "events": 0, '
     '"finished_at": 1700000000.25, "id": "c-000004", "jobs": 5, '
     '"name": "overhead", "state": "failed", '
     '"submission": {"drop": 0, "jobs": 1, "n_threads": 2, "runs": 2, '
     '"scale": 0.25, "suite": "overhead", '
     '"workloads": ["micro_low_abort"]}, '
     '"submitted_at": 1700000000.25, "suite": "overhead", '
     '"target_keys": ["e56c4c0441f950c98715fc9e4c7582d0'
     '0bc15aadcfcad24f2d3d9637ffd18af8"], '
     '"targets": 1}'),
    ('{"by_kind": {"overhead": 1, "run": 4}, "events": 0, '
     '"id": "c-000042", "jobs": 5, "name": "overhead", '
     '"recovered": true, "state": "queued", "submission": {"drop": 0, '
     '"jobs": 1, "n_threads": 2, "runs": 2, "scale": 0.25, '
     '"suite": "overhead", "workloads": ["micro_low_abort"]}, '
     '"submitted_at": 12.5, "suite": "overhead", '
     '"target_keys": ["e56c4c0441f950c98715fc9e4c7582d0'
     '0bc15aadcfcad24f2d3d9637ffd18af8"], '
     '"targets": 1}'),
]


# ---------------------------------------------------------------------------
# protocol: pure parsing/rendering
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_line(self):
        method, path, query = parse_request_line(
            "GET /v1/campaigns/c-1/events?since=3&follow=0 HTTP/1.1")
        assert method == "GET"
        assert path == "/v1/campaigns/c-1/events"
        assert query == {"since": "3", "follow": "0"}

    def test_request_line_percent_decoding(self):
        _, path, query = parse_request_line(
            "GET /v1/rec%20ords?a=x%26y HTTP/1.1")
        assert path == "/v1/rec ords"
        assert query == {"a": "x&y"}

    @pytest.mark.parametrize("line", [
        "", "GET /x", "GET /x SMTP/1.0", "GET /x HTTP/1.1 extra",
    ])
    def test_request_line_malformed(self, line):
        with pytest.raises(ProtocolError) as err:
            parse_request_line(line)
        assert err.value.status == 400

    def test_headers_lowercased_last_wins(self):
        headers = parse_headers(["Content-Type: application/json",
                                 "X-Thing: a", "x-thing: b"])
        assert headers == {"content-type": "application/json",
                           "x-thing": "b"}

    def test_headers_malformed(self):
        with pytest.raises(ProtocolError):
            parse_headers(["no colon here"])

    def test_split_path(self):
        assert split_path("/v1/campaigns/c-1/") == \
            ["v1", "campaigns", "c-1"]
        assert split_path("/") == []

    def test_request_json_object(self):
        req = Request(method="POST", path="/x",
                      body=b'{"suite": "overhead"}')
        assert req.json() == {"suite": "overhead"}
        assert Request(method="GET", path="/x").json() == {}

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"text"', b"{nope"])
    def test_request_json_rejects_non_objects(self, body):
        with pytest.raises(ProtocolError) as err:
            Request(method="POST", path="/x", body=body).json()
        assert err.value.status == 400

    def test_render_response_framing(self):
        raw = render_response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 12" in head
        assert b"Connection: close" in head
        assert body == b'{"ok": true}'

    def test_json_response_sorted_and_terminated(self):
        raw = json_response(202, {"b": 1, "a": 2})
        body = raw.partition(b"\r\n\r\n")[2]
        assert body == b'{"a": 2, "b": 1}\n'

    def test_error_response_shape(self):
        body = error_response(404, "gone").partition(b"\r\n\r\n")[2]
        assert json.loads(body) == {"error": "gone", "status": 404}

    def test_chunked_framing(self):
        assert chunk(b"hello") == b"5\r\nhello\r\n"
        assert chunk(b"") == b""  # never emit an accidental terminator
        assert last_chunk() == b"0\r\n\r\n"
        head = stream_head()
        assert b"Transfer-Encoding: chunked" in head
        assert b"application/x-ndjson" in head

    def test_event_line(self):
        assert event_line({"type": "plan", "i": 0}) == \
            b'{"i": 0, "type": "plan"}\n'


# ---------------------------------------------------------------------------
# submission validation
# ---------------------------------------------------------------------------


class TestSubmissionKwargs:
    def test_valid_full_document(self):
        suite, kwargs = submission_kwargs(dict(TINY))
        assert suite == "overhead"
        assert kwargs == {"workloads": ["micro_low_abort"],
                          "n_threads": 2, "scale": 0.25,
                          "runs": 2, "drop": 0}
        # the kwargs build a real campaign
        campaign = build_campaign(suite, **kwargs)
        assert campaign.targets

    def test_runner_fields_pass_through(self):
        _, kwargs = submission_kwargs(
            {"suite": "figure8", "jobs": 4, "timeout": 30,
             "refresh": True})
        assert "jobs" not in kwargs  # runner's business, not content

    @pytest.mark.parametrize("doc,fragment", [
        ({"suite": "nope"}, "unknown suite"),
        ({"suite": 3}, "unknown suite"),
        ({"suite": "overhead", "bogus": 1}, "unknown submission field"),
        ({"suite": "overhead", "workloads": "micro"}, "list of strings"),
        ({"suite": "overhead", "n_threads": True}, "must be a number"),
        ({"suite": "overhead", "n_threads": 0}, "n_threads"),
        ({"suite": "overhead", "scale": -1}, "scale"),
        ({"suite": "overhead", "runs": 0}, "runs"),
        ({"suite": "overhead", "drop": -1}, "drop"),
        ({"suite": "overhead", "refresh": "false"}, "refresh"),
        ({"suite": "overhead", "refresh": 0}, "refresh"),
        ({"suite": "overhead", "jobs": 1.5}, "jobs"),
        ({"suite": "overhead", "timeout": 1e300}, "timeout"),
        ({"suite": "overhead", "timeout": float("inf")}, "timeout"),
        ({"suite": "overhead", "timeout": float("nan")}, "timeout"),
        ({"suite": "overhead", "timeout": MAX_SECONDS + 1}, "timeout"),
        ({"suite": "overhead", "deadline": float("inf")}, "deadline"),
        ({"suite": "overhead", "deadline": 1e12}, "deadline"),
        ({"suite": "overhead", "n_threads": 1e300}, "n_threads"),
        ({"suite": "overhead", "n_threads": MAX_THREADS + 1}, "n_threads"),
        ({"suite": "overhead", "n_threads": 2.5}, "whole number"),
        ({"suite": "overhead", "runs": 1e300}, "runs"),
        ({"suite": "overhead", "runs": MAX_RUNS + 1}, "runs"),
        ({"suite": "overhead", "drop": float("inf")}, "drop"),
        ({"suite": "overhead", "scale": float("inf")}, "scale"),
        ({"suite": "overhead", "scale": MAX_SCALE * 2}, "scale"),
        ({"suite": "overhead", "seed": float("nan")}, "seed"),
        ({"suite": "overhead", "seed": 10**400}, "seed"),
        ({"suite": "overhead", "seed": -(10**400)}, "seed"),
        ({"suite": "overhead", "seed": MAX_SEED + 1}, "seed"),
    ])
    def test_rejections(self, doc, fragment):
        with pytest.raises(SuiteError, match=fragment):
            submission_kwargs(doc)

    def test_ceilings_are_accepted(self):
        _, kwargs = submission_kwargs(
            {"suite": "overhead", "n_threads": MAX_THREADS,
             "scale": MAX_SCALE, "seed": MAX_SEED, "runs": MAX_RUNS,
             "drop": 3.0})
        assert kwargs == {"n_threads": MAX_THREADS, "scale": MAX_SCALE,
                          "seed": MAX_SEED, "runs": MAX_RUNS, "drop": 3}
        assert type(kwargs["drop"]) is int

    def test_longest_accepted_timeout_arms_a_timer(self):
        """The ceiling is one a worker's interval timer can arm."""
        submission_kwargs({**TINY, "timeout": MAX_SECONDS,
                           "deadline": MAX_SECONDS, "refresh": False})
        old = signal.setitimer(signal.ITIMER_REAL, MAX_SECONDS)
        signal.setitimer(signal.ITIMER_REAL, *old)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _tiny_campaign():
    suite, kwargs = submission_kwargs(dict(TINY))
    return build_campaign(suite, **kwargs)


class TestRegistry:
    def test_lifecycle_and_counts(self):
        reg = TaskRegistry()
        a = reg.add(build_task(dict(TINY)))
        b = reg.add(build_task(dict(TINY)))
        assert (a.id, b.id) == ("c-000001", "c-000002")
        assert reg.get(a.id) is a
        assert reg.get("c-999999") is None
        assert [t.id for t in reg.list()] == [a.id, b.id]
        assert reg.counts() == {"queued": 2}
        reg.transition(a, "running")
        reg.transition(a, "done", summary={"executed": 1})
        reg.transition(b, "failed", error="boom")
        assert reg.counts() == {"done": 1, "failed": 1}
        assert a.finished and a.summary == {"executed": 1}
        assert b.error == "boom" and b.finished_at is not None

    def test_event_feed_ordering_and_pagination(self):
        reg = TaskRegistry()
        task = reg.add(build_task(dict(TINY)))
        for n in range(5):
            reg.append_event(task, {"type": "job", "n": n})
        events, finished = reg.events_since(task, 0)
        assert [e["i"] for e in events] == [0, 1, 2, 3, 4]
        assert all(e["task"] == task.id for e in events)
        assert not finished
        events, _ = reg.events_since(task, 3)
        assert [e["n"] for e in events] == [3, 4]
        reg.transition(task, "done", summary={})
        events, finished = reg.events_since(task, 5)
        assert events == [] and finished

    def test_status_doc_shares_the_cli_schema(self):
        """GET /v1/campaigns/{id} and `repro campaign --status --json`
        build on one schema: campaign_status_doc."""
        campaign = _tiny_campaign()
        base = campaign_status_doc("overhead", campaign, "pending",
                                   dict(TINY))
        reg = TaskRegistry()
        task = reg.add(build_task(dict(TINY)))
        served = task.status_doc()
        for key in base:  # every shared key, same value modulo state
            assert key in served
            if key != "state":
                assert served[key] == base[key]
        assert served["target_keys"] == list(campaign.targets)
        assert {"id", "events", "submitted_at"} <= set(served)

    def test_status_docs_are_pinned(self, monkeypatch):
        """Queued, running, done, failed and recovered tasks serve the
        exact documents they did before tasks became journal records."""
        monkeypatch.setattr(time, "time", lambda: 1700000000.25)
        reg = TaskRegistry()
        queued = reg.add(build_task(dict(TINY)))
        running = reg.add(build_task({**TINY, "deadline": 30.0}))
        reg.transition(running, "running")
        reg.append_event(running, {"type": "plan"})
        done = reg.add(build_task(dict(TINY)))
        reg.transition(done, "done", summary={"jobs": 3, "hits": 1})
        failed = reg.add(build_task(dict(TINY)))
        reg.transition(failed, "failed", error="boom: é\"quoted\"")
        recovered = reg.add(build_task(dict(TINY), TaskRecord(
            id="c-000042", suite="overhead", doc=dict(TINY),
            submitted_at=12.5)))
        tasks = (queued, running, done, failed, recovered)
        assert [t.status_doc() for t in tasks] == [
            json.loads(doc) for doc in PINNED_STATUS_DOCS]


# ---------------------------------------------------------------------------
# daemon (no HTTP)
# ---------------------------------------------------------------------------


def _wait_finished(task, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not task.finished:
        assert time.monotonic() < deadline, \
            f"task {task.id} still {task.state}"
        time.sleep(0.02)


class TestDaemon:
    def test_submit_executes_and_results(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        try:
            task = daemon.submit(dict(TINY))
            _wait_finished(task)
            assert task.state == "done"
            assert task.summary and task.summary["jobs"] == \
                len(task.campaign.jobs)
            records = daemon.result(task)
            assert set(records) == set(task.campaign.targets)
            key = task.campaign.targets[0]
            assert daemon.record(key) == records[key]
            # the scheduler's event feed reached the registry
            types = {e["type"] for e in task.events}
            assert {"plan", "job", "done"} <= types
        finally:
            daemon.close()

    def test_submit_rejects_garbage_before_queuing(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        try:
            with pytest.raises(SuiteError):
                daemon.submit({"suite": "overhead", "jobs": "many"})
            with pytest.raises(SuiteError):
                daemon.submit({"suite": "overhead", "timeout": "soon"})
            with pytest.raises(SuiteError):
                daemon.submit({"suite": "nope"})
            assert daemon.registry.list() == []
        finally:
            daemon.close()

    def test_unknown_keys_raise(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        try:
            with pytest.raises(UnknownKeyError):
                daemon.record("feedfacefeedface")
            with pytest.raises(UnknownKeyError):
                daemon.rlog("feedfacefeedface")
        finally:
            daemon.close()

    def test_stats_shape(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        try:
            doc = daemon.stats()
            assert doc["store"]["backend"] == "memory"
            assert doc["queue_depth"] == 0
            assert isinstance(doc["campaigns"], dict)
            assert "serve.queue.depth" in doc["metrics"]
        finally:
            daemon.close()

    def test_stats_take_one_store_snapshot(self, tmp_path):
        """``/v1/stats`` exports the store's metrics from the snapshot
        it reports, instead of taking a second one."""
        store = ResultStore(tmp_path / "store")
        daemon = ServeDaemon(store=store, runners=1)
        calls = []
        real = store.stats
        store.stats = lambda: calls.append(1) or real()
        try:
            store.put("k1", {"v": 1})
            doc = daemon.stats()
            assert len(calls) == 1
            assert doc["store"]["records"] == 1
            assert doc["metrics"]["store.records"]["value"] == 1
        finally:
            daemon.close()

    def test_rlog_falls_back_to_the_record(self):
        store = MemoryStore()
        spec = JobSpec(kind="run", workload="micro_low_abort",
                       n_threads=2, scale=0.25, seed=0)
        store.put(spec.key, {"replay_log": "line1\nline2\n"})
        daemon = ServeDaemon(store=store, runners=1)
        try:
            assert daemon.rlog(spec.key) == b"line1\nline2\n"
        finally:
            daemon.close()


# ---------------------------------------------------------------------------
# live HTTP server
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One daemon + server + client for every live test (module scope —
    campaigns submitted by one test stay visible to later ones)."""
    root = tmp_path_factory.mktemp("serve-store")
    daemon = ServeDaemon(store=ResultStore(root),
                         runners=2)
    server = BackgroundServer(daemon)
    port = server.start()
    client = ServeClient(f"http://127.0.0.1:{port}")
    yield daemon, client, root
    server.stop()
    daemon.close()


@pytest.mark.slow
class TestLiveServer:
    def test_health_and_stats(self, live):
        _, client, _ = live
        assert client.health() == {"ok": True}
        stats = client.stats()
        assert stats["store"]["backend"] == "disk"
        assert "queue_depth" in stats

    def test_submit_roundtrip(self, live):
        daemon, client, _ = live
        accepted = client.submit(dict(TINY))
        assert accepted["state"] in ("queued", "running")
        assert accepted["suite"] == "overhead"
        final = client.wait(accepted["id"], timeout=120.0)
        assert final["state"] == "done"
        assert final["summary"]["jobs"] == final["jobs"]
        records = client.result(accepted["id"])
        assert set(records) == set(final["target_keys"])
        # the record endpoint serves the same bytes
        key = final["target_keys"][0]
        assert client.record(key) == records[key]

    def test_served_records_match_serial_runner(self, live, tmp_path):
        """The byte-identity contract: an HTTP-submitted campaign's
        records are canonically identical to a serial in-process run."""
        daemon, client, _ = live
        accepted = client.submit(dict(TINY))
        client.wait(accepted["id"], timeout=120.0)
        served = client.result(accepted["id"])

        store = ResultStore(tmp_path / "serial")
        runner = CampaignRunner(store=store, jobs=1)
        suite, kwargs = submission_kwargs(dict(TINY))
        campaign = build_campaign(suite, **kwargs)
        serial = runner.run(campaign)
        store.close()
        for key in campaign.targets:
            assert json.dumps(serial[key], sort_keys=True) == \
                json.dumps(served[key], sort_keys=True)

    def test_event_stream_completes_in_order(self, live):
        _, client, _ = live
        accepted = client.submit(dict(TINY))
        events = list(client.stream_events(accepted["id"]))
        assert events, "stream ended with no events"
        assert [e["i"] for e in events] == list(range(len(events)))
        assert events[0]["type"] == "plan"
        assert events[-1]["type"] == "done"
        # resume mid-feed: (since=N) yields exactly the tail
        tail = list(client.stream_events(accepted["id"], since=1,
                                         follow=False))
        assert [e["i"] for e in tail] == \
            [e["i"] for e in events[1:]]

    def test_concurrent_clients_share_the_store(self, live):
        daemon, client, _ = live
        finals: dict[int, dict] = {}

        def body(n: int) -> None:
            # distinct scales ⇒ distinct content hashes per client
            doc = dict(TINY, scale=0.25 + 0.05 * n)
            accepted = client.submit(doc)
            finals[n] = client.wait(accepted["id"], timeout=120.0)

        threads = [threading.Thread(target=body, args=(n,))
                   for n in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert set(finals) == {0, 1, 2}
        assert all(doc["state"] == "done" for doc in finals.values())
        # every campaign's targets landed in the one shared store
        for doc in finals.values():
            for key in doc["target_keys"]:
                assert daemon.store.fetch(key) is not None

    def test_error_paths(self, live):
        _, client, _ = live
        with pytest.raises(ServeError) as err:
            client.submit({"suite": "nope"})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.status("c-999999")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.record("feedfacefeedface")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("GET", "/nowhere")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("PUT", "/v1/campaigns")
        assert err.value.status == 405

    @pytest.mark.parametrize("field,value", [
        ("refresh", "false"), ("timeout", 1e300),
        ("timeout", float("inf")), ("deadline", 1e12),
    ])
    def test_runner_fields_out_of_range_are_400(self, live, field, value):
        daemon, client, _ = live
        before = len(daemon.registry.list())
        with pytest.raises(ServeError) as err:
            client.submit({**TINY, field: value})
        assert err.value.status == 400
        assert field in str(err.value)
        assert len(daemon.registry.list()) == before

    def test_result_of_unfinished_campaign_is_400(self, live):
        daemon, client, _ = live
        # a campaign that cannot have finished yet: submit and race
        accepted = client.submit(dict(TINY, seed=77))
        try:
            try:
                client.result(accepted["id"])
            except ServeError as err:
                assert err.status == 400
        finally:  # drain it so the module teardown isn't mid-run
            client.wait(accepted["id"], timeout=120.0)

    def test_rlog_streams_sidecar_bytes(self, live):
        daemon, client, root = live
        doc = {"suite": "figure8", "workloads": ["micro_low_abort"],
               "n_threads": 2, "scale": 0.25, "seed": 0, "jobs": 1}
        accepted = client.submit(doc)
        final = client.wait(accepted["id"], timeout=120.0)
        assert final["state"] == "done"
        key = final["target_keys"][0]
        blob = client.rlog(key)
        sidecar = root / ResultStore.REPLAY_DIR / f"{key}.rlog"
        assert sidecar.exists()
        assert blob == sidecar.read_bytes()
        with pytest.raises(ServeError) as err:
            client.rlog("feedfacefeedface")
        assert err.value.status == 404


# ---------------------------------------------------------------------------
# CLI status --json: the shared schema, round-tripped
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestCliStatusJson:
    def test_round_trips_with_the_daemon_schema(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["campaign", "overhead", "micro_low_abort",
                   "--status", "--json", "--threads", "2",
                   "--scale", "0.25", "--runs", "2", "--drop", "0",
                   "--cache-dir", str(tmp_path / "store")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)

        # same core schema as the daemon's status endpoint
        suite, kwargs = submission_kwargs(dict(TINY))
        campaign = build_campaign(suite, **kwargs)
        base = campaign_status_doc(suite, campaign, doc["state"],
                                   doc["submission"])
        for key in base:
            assert key in doc
        # and the content-addressed targets agree exactly — the CLI and
        # a daemon looking at the same submission name the same keys
        assert doc["target_keys"] == list(campaign.targets)
        assert doc["state"] == "pending"  # nothing cached yet
        assert doc["cache"]["pending"] == doc["jobs"]

    def test_status_json_sees_cached_state(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        args = ["campaign", "overhead", "micro_low_abort",
                "--threads", "2", "--scale", "0.25", "--runs", "2",
                "--drop", "0", "--cache-dir", store_dir, "--jobs", "1"]
        assert main(["-q", *args]) == 0
        capsys.readouterr()
        assert main([*args, "--status", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "cached"
        assert doc["cache"]["pending"] == 0
        assert doc["cache"]["hit_rate"] == 1.0


# ---------------------------------------------------------------------------
# resilience: stream resume + deadline propagation over HTTP
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestResilience:
    def test_stream_resume_absorbs_injected_resets(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        server = BackgroundServer(daemon)
        try:
            port = server.start()
            client = ServeClient(f"http://127.0.0.1:{port}",
                                 retries=3, retry_backoff=0.01)
            accepted = client.submit(dict(TINY))
            client.wait(accepted["id"])
            daemon.stream_resets_remaining = 2
            for _ in range(2):  # each full pass absorbs one reset
                events = list(client.stream_events(accepted["id"],
                                                   since=0))
                indices = [e["i"] for e in events if "i" in e]
                assert indices == list(range(len(indices)))
                assert indices, "resumed feed delivered nothing"
                assert events[-1]["type"] == "done"
            assert daemon.stream_resets_remaining == 0
        finally:
            server.stop()
            daemon.close()

    def test_stream_without_retry_budget_surfaces_the_reset(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        server = BackgroundServer(daemon)
        try:
            port = server.start()
            client = ServeClient(f"http://127.0.0.1:{port}", retries=0)
            accepted = client.submit(dict(TINY))
            client.wait(accepted["id"])
            daemon.stream_resets_remaining = 1
            with pytest.raises(ServeError) as err:
                list(client.stream_events(accepted["id"], since=0))
            assert err.value.status == 0  # transport-level drop
        finally:
            server.stop()
            daemon.close()

    def test_deadline_propagates_through_submission(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        server = BackgroundServer(daemon)
        try:
            port = server.start()
            client = ServeClient(f"http://127.0.0.1:{port}")
            accepted = client.submit({**TINY, "deadline": 1e-6})
            final = client.wait(accepted["id"])
            assert final["state"] == "failed"
            assert "deadline" in final["error"]
            assert final["deadline"] == pytest.approx(1e-6)
        finally:
            server.stop()
            daemon.close()

    def test_stats_carry_the_admission_block(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1,
                             max_queue=5)
        try:
            doc = daemon.stats()
            assert doc["admission"]["max_queue"] == 5
            assert doc["admission"]["queue_depth"] == 0
            assert doc["admission"]["draining"] is False
            assert "serve.queue.limit" in doc["metrics"]
            assert "serve.leases.active" in doc["metrics"]
        finally:
            daemon.close()


# ---------------------------------------------------------------------------
# pushed event streams and the campaign listing
# ---------------------------------------------------------------------------


def _watching(registry: TaskRegistry) -> int:
    """Streams still registered for wake-ups, over all tasks."""
    with registry._mu:
        return sum(len(w) for w in registry._watchers.values())


def _wait_until(cond, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, f"timed out: {what}"
        time.sleep(0.005)


class TestPushedStreams:
    @pytest.mark.parametrize("change", ["append_event", "mark_done",
                                        "mark_failed"])
    def test_watcher_is_woken_from_another_thread(self, change):
        reg = TaskRegistry()
        task = reg.add(build_task(dict(TINY)))
        act = {
            "append_event": lambda: reg.append_event(task, {"n": 0}),
            "mark_done": lambda: reg.transition(task, "done", summary={}),
            "mark_failed": lambda: reg.transition(task, "failed",
                                                  error="boom"),
        }[change]

        async def scenario() -> None:
            wake = reg.watch(task)
            try:
                events, finished = reg.events_since(task, 0, wake)
                assert events == [] and not finished
                assert not wake.is_set()
                runner = threading.Thread(target=act)
                runner.start()
                await asyncio.wait_for(wake.wait(), timeout=10)
                runner.join(10)
                events, finished = reg.events_since(task, 0, wake)
                assert not wake.is_set()  # cleared with the read
                assert (len(events), finished) == (
                    (1, False) if change == "append_event" else (0, True))
            finally:
                reg.unwatch(task, wake)

        asyncio.run(scenario())
        assert _watching(reg) == 0

    def test_follow_stream_is_pushed_and_ends_on_done(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        server = BackgroundServer(daemon)
        # registered directly: no runner executes it, this test does
        task = daemon.registry.add(build_task(dict(TINY)))
        try:
            port = server.start()
            client = ServeClient(f"http://127.0.0.1:{port}")
            received: queue.Queue = queue.Queue()

            def stream() -> None:
                for event in client.stream_events(task.id):
                    received.put(event)
                received.put(None)

            reader = threading.Thread(target=stream)
            reader.start()
            _wait_until(lambda: _watching(daemon.registry) == 1,
                        "stream registered")
            runner = threading.Thread(target=daemon.registry.append_event,
                                      args=(task, {"type": "plan"}))
            runner.start()
            runner.join(10)
            event = received.get(timeout=10)
            assert (event["type"], event["i"]) == ("plan", 0)
            assert received.empty()  # the stream is still open
            threading.Thread(target=daemon.registry.transition,
                             args=(task, "done"),
                             kwargs={"summary": {}}).start()
            assert received.get(timeout=10) is None  # ended
            reader.join(10)
            assert not reader.is_alive()
            _wait_until(lambda: _watching(daemon.registry) == 0,
                        "stream unregistered after a clean end")
        finally:
            server.stop()
            daemon.close()

    def test_no_watcher_outlives_its_stream(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        server = BackgroundServer(daemon)
        reg = daemon.registry
        try:
            port = server.start()
            client = ServeClient(f"http://127.0.0.1:{port}", retries=0)

            # follow=0 returns what is there and unregisters
            task = reg.add(build_task(dict(TINY)))
            reg.append_event(task, {"type": "plan"})
            assert len(list(client.stream_events(task.id,
                                                 follow=False))) == 1
            _wait_until(lambda: _watching(reg) == 0, "follow=0")

            # the chaos reset aborts the transport mid-feed
            daemon.stream_resets_remaining = 1
            with pytest.raises(ServeError):
                list(client.stream_events(task.id))
            _wait_until(lambda: _watching(reg) == 0, "aborted stream")

            # a client that hangs up while the stream waits
            sock = socket.create_connection(("127.0.0.1", port))
            sock.sendall(f"GET /v1/campaigns/{task.id}/events?since=1 "
                         "HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            assert sock.recv(4096).startswith(b"HTTP/1.1 200")
            _wait_until(lambda: _watching(reg) == 1, "raw stream waits")
            sock.close()
            reg.append_event(task, {"type": "job"})
            reg.transition(task, "done", summary={})
            _wait_until(lambda: _watching(reg) == 0, "disconnected client")
        finally:
            server.stop()
            daemon.close()

    def test_listing_bytes_match_one_json_document(self):
        daemon = ServeDaemon(store=MemoryStore(), runners=1)
        server = BackgroundServer(daemon)
        reg = daemon.registry
        queued = reg.add(build_task(dict(TINY)))
        running = reg.add(build_task({**TINY, "deadline": 30.0}))
        reg.transition(running, "running")
        reg.append_event(running, {"type": "plan"})
        done = reg.add(build_task(dict(TINY)))
        reg.transition(done, "done", summary={"jobs": 3, "hits": 1})
        failed = reg.add(build_task(dict(TINY)))
        reg.transition(failed, "failed", error="boom: é\"quoted\"")
        recovered = reg.add(build_task(dict(TINY), TaskRecord(
            id="c-000042", suite="overhead", doc=dict(TINY),
            submitted_at=12.5)))
        assert [t.state for t in (queued, running, done, failed,
                                  recovered)] == [
            "queued", "running", "done", "failed", "queued"]
        try:
            port = server.start()

            def listing() -> bytes:
                with socket.create_connection(("127.0.0.1", port)) as sock:
                    sock.sendall(b"GET /v1/campaigns HTTP/1.1\r\n"
                                 b"Host: x\r\n\r\n")
                    got = b""
                    while data := sock.recv(65536):
                        got += data
                return got

            def one_document() -> bytes:
                return json_response(200, {"campaigns": [
                    t.status_doc() for t in reg.list()]})

            assert listing() == one_document()
            for task in reg.list():
                reg.remove(task.id)
            assert listing() == one_document()
        finally:
            server.stop()
            daemon.close()

    def test_no_wake_is_lost_under_contention(self):
        """Runner threads append while a stream drains the feed: with
        the interpreter switching threads often, the stream still sees
        every event, in order, and ends — a lost wake would hang it."""
        reg = TaskRegistry()
        task = reg.add(build_task(dict(TINY)))
        writers, per_writer = 6, 200

        def write() -> None:
            for n in range(per_writer):
                reg.append_event(task, {"n": n})

        async def drain() -> list[int]:
            wake = reg.watch(task)
            seen: list[int] = []
            try:
                while True:
                    events, finished = reg.events_since(task, len(seen),
                                                        wake)
                    seen += [e["i"] for e in events]
                    if finished:
                        return seen
                    await asyncio.wait_for(wake.wait(), timeout=10)
            finally:
                reg.unwatch(task, wake)

        def finish(workers: list[threading.Thread]) -> None:
            for w in workers:
                w.join(30)
            reg.transition(task, "done", summary={})

        async def scenario() -> list[int]:
            workers = [threading.Thread(target=write)
                       for _ in range(writers)]
            for w in workers:
                w.start()
            closer = threading.Thread(target=finish, args=(workers,))
            closer.start()
            seen = await drain()
            closer.join(30)
            assert not closer.is_alive()
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            seen = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert seen == list(range(writers * per_writer))
        assert _watching(reg) == 0
