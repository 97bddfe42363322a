"""serve-open: ``repro serve`` under an open loop, then a closed loop.

The daemon runs as its own process with default settings
(``python -m repro serve --port P --cache-dir D``), on a fresh store.
This process is the only load generator:

* **open loop** — one sender submits at a fixed rate for the first
  :data:`OPEN_SHARE` of the window.  Each submission is timed from when
  it was due, so a stall delays every later one too; latency is the
  daemon's ``finished_at`` minus the due time.
* **closed loop** — :data:`CALLERS` callers each submit and then read
  the progress stream to its end, like ``repro submit --stream``.  This
  gives the throughput.

Submissions are single-program ``figure8`` campaigns at a small scale,
cycling through the figure8 programs with seeds drawn from ``--seed``;
every :data:`REPEAT_EVERY`-th repeats an earlier one, which the store
serves as a cache hit.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import stats
from tracing import span_event, write_chrome
from workloads import Outcome, log, write_layer_files, zero_layers

from repro.campaign.spec import canonical_json
from repro.campaign.suites import build_campaign, submission_kwargs
from repro.campaign.worker import execute_job
from repro.experiments.categorize import figure8_names
from repro.serve.client import ServeClient, ServeError

ROOT = Path(__file__).resolve().parent.parent
#: open-loop submissions per second; the daemon's p50 stays flat up to
#: about 80/s on a 2-core host, so this sits well below saturation
RATE = 50.0
#: share of the window given to the open loop, which needs the samples
#: (its p50 is the gated latency); the closed loop's rate is set by the
#: daemon's 50 ms stream re-poll and settles fast
OPEN_SHARE = 0.75
CALLERS = 2
REPEAT_EVERY = 4
#: every CHECK_EVERY-th finished campaign is re-executed in-process
CHECK_EVERY = 10
SCALE = 0.05
THREADS = 4
#: how long to wait for the daemon to answer /healthz
START_TIMEOUT_S = 30.0


class Submissions:
    """The seeded submission stream, shared by the sender threads."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._names = figure8_names()
        self._history: list[tuple[str, int]] = []
        self._count = 0
        self._mu = threading.Lock()

    def next(self) -> dict[str, Any]:
        with self._mu:
            self._count += 1
            if self._count % REPEAT_EVERY == 0 and self._history:
                name, seed = self._rng.choice(self._history)
            else:
                name = self._names[len(self._history) % len(self._names)]
                seed = self._rng.randrange(1 << 16)
                self._history.append((name, seed))
        return {"suite": "figure8", "workloads": [name],
                "n_threads": THREADS, "scale": SCALE, "seed": seed}


class Daemon:
    """One ``repro serve`` child process on a free port."""

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> ServeClient:
        # `repro serve --port 0` never prints the port it bound, so pick
        # a free one here
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        cache = self.work_dir / "cache"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.work_dir / "daemon.log", "ab") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port",
                 str(port), "--cache-dir", str(cache)],
                cwd=ROOT, env=env, stdout=sink, stderr=sink)
        self.url = f"http://127.0.0.1:{port}"
        client = ServeClient(self.url, timeout=30.0, retries=0)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                client.health()
                return client
            except ServeError:
                if self.proc.poll() is not None:
                    tail = (self.work_dir / "daemon.log").read_text()[-2000:]
                    raise RuntimeError(
                        f"repro serve exited with {self.proc.returncode}:\n"
                        f"{tail}") from None
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain and wait; terminate, then kill, if that fails."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            ServeClient(self.url, timeout=10.0, retries=0).drain(timeout=10)
            proc.wait(timeout=20)
        except (ServeError, subprocess.TimeoutExpired):
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


@dataclass
class Sent:
    """One submission and what became of it (times are ``time.time``)."""

    doc: dict[str, Any]
    due: float
    #: when the POST went out; later than ``due`` when the sender lags
    sent: float = 0.0
    acked: float = 0.0
    cid: str | None = None
    error: str | None = None
    finished_at: float | None = None
    state: str = ""
    #: closed loop only: when the client saw the end of the stream
    streamed: float | None = None


class ServeOpen:
    name = "serve-open"

    def __init__(self, seed: int, rate: float = RATE,
                 out_dir: Path | None = None) -> None:
        self.seed = seed
        self.rate = rate
        base = out_dir or ROOT / ".perfbench"
        self.daemon = Daemon(base / f"serve-{os.getpid()}")
        self.client: ServeClient | None = None
        self.subs = Submissions(seed)

    def setup(self) -> None:
        self.client = self.daemon.start()

    def close(self) -> None:
        self.daemon.stop()
        shutil.rmtree(self.daemon.work_dir, ignore_errors=True)

    # -- load --------------------------------------------------------------

    def open_loop(self, seconds: float) -> tuple[list[Sent], float]:
        """Submit at :attr:`rate` for ``seconds``; returns the
        submissions and the sender's worst lateness in seconds."""
        assert self.client is not None
        interval = 1.0 / self.rate
        start = time.time() + interval
        sent: list[Sent] = []
        late = 0.0
        for k in range(max(1, int(seconds * self.rate))):
            due = start + k * interval
            pause = due - time.time()
            if pause > 0:
                time.sleep(pause)
            item = Sent(self.subs.next(), due, sent=time.time())
            late = max(late, item.sent - due)
            try:
                item.cid = self.client.submit(item.doc)["id"]
            except ServeError as exc:
                item.error = str(exc)
            item.acked = time.time()
            sent.append(item)
        return sent, late

    def closed_loop(self, seconds: float) -> tuple[list[Sent], float]:
        """:data:`CALLERS` callers submit and stream to the end, back to
        back, for ``seconds``; returns the submissions and the time from
        start until the last one ended."""
        assert self.client is not None
        client = self.client
        sent: list[Sent] = []
        start = time.time()
        end = start + seconds

        def caller() -> None:
            while time.time() < end:
                now = time.time()
                item = Sent(self.subs.next(), now, sent=now)
                sent.append(item)
                try:
                    item.cid = client.submit(item.doc)["id"]
                    item.acked = time.time()
                    for _ in client.stream_events(item.cid):
                        pass
                    item.streamed = time.time()
                except ServeError as exc:
                    item.error = str(exc)

        threads = [threading.Thread(target=caller, name=f"caller-{i}")
                   for i in range(CALLERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        last = max((s.streamed or s.acked or s.due) for s in sent)
        return sent, last - start

    def settle(self, sent: list[Sent], timeout: float = 60.0) -> None:
        """Wait until every accepted submission is terminal; fill in
        state and ``finished_at``."""
        assert self.client is not None
        pending = {s.cid: s for s in sent if s.cid is not None}
        deadline = time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            for doc in self.client.campaigns():
                item = pending.get(doc["id"])
                if item is not None and doc["state"] in ("done", "failed"):
                    item.state = doc["state"]
                    item.finished_at = doc.get("finished_at")
                    del pending[doc["id"]]
            if pending:
                time.sleep(0.05)
        for item in pending.values():
            item.error = "not finished before the settle timeout"

    # -- measure -----------------------------------------------------------

    def measure(self, seconds: float, trace: bool, out_dir: Path,
                pinned: dict | None = None) -> Outcome:
        opened, late = self.open_loop(seconds * OPEN_SHARE)
        closed, closed_s = self.closed_loop(seconds * (1.0 - OPEN_SHARE))
        everything = opened + closed
        self.settle(everything)
        rss = self.daemon.peak_rss_mb()

        latencies = [
            (s.finished_at - s.due) if s.state == "done" else float("inf")
            for s in opened]
        done_closed = [s for s in closed
                       if s.state == "done" and s.streamed is not None]
        p50 = statistics.median(latencies)
        out = Outcome(attempted=len(everything))
        out.failed = sum(1 for s in everything if s.state != "done")
        out.e2e = {
            "work_per_s": len(done_closed) / closed_s,
            # a p50 past the window means most submissions failed; the
            # failures already mark the run incorrect
            "op_latency_ms": (seconds if math.isinf(p50) else p50) * 1e3,
            "peak_rss_mb": rss,
        }
        out.samples = {
            "work_per_s": f"{len(done_closed)} closed-loop campaigns, "
                         f"{CALLERS} callers",
            "op_latency_ms": f"{len(opened)} open-loop submissions at "
                         f"{self.rate:g}/s",
            "peak_rss_mb": "the daemon",
        }
        t = stats.tail(latencies)
        if t is not None:
            out.notes.append(f"tail: p{t[0]:g} open-loop latency "
                             f"{t[1] * 1e3:.1f} ms ({len(opened)} samples, "
                             f"{t[2]} beyond)")
        out.notes.append(f"open-loop sender ran at most {late * 1e3:.1f} ms "
                         f"late")
        errors = sorted({s.error for s in everything if s.error})
        if errors:
            out.notes.append(f"FAIL submissions failed: {errors[:3]}")
        failed, lines = self.check([s for s in everything
                                    if s.state == "done"])
        out.failed += failed
        out.notes.extend(lines)
        if trace:
            out.per_layer = self.layers(opened, done_closed, late, out_dir)
            table = {"ops": len(everything), "latency_ms": {
                "p50": p50 * 1e3,
                "tail": None if t is None else
                {"pct": t[0], "ms": t[1] * 1e3, "beyond": t[2]}}}
            write_layer_files(out_dir, self.name, self.seed, None, table,
                              out.per_layer)
        return out

    def check(self, done: list[Sent]) -> tuple[int, list[str]]:
        """Every CHECK_EVERY-th finished campaign's records, fetched over
        HTTP, must equal an in-process execution of the same specs."""
        assert self.client is not None
        bad = 0
        checked = done[::CHECK_EVERY]
        for item in checked:
            suite, kwargs = submission_kwargs(item.doc)
            campaign = build_campaign(suite, **kwargs)
            records = self.client.result(item.cid)
            for key in campaign.targets:
                want = execute_job(campaign.jobs[key].to_dict(), {})
                got = records.get(key)
                if got is None or canonical_json(got) != canonical_json(want):
                    bad += 1
                    log(f"serve-open: {item.cid} record {key[:12]} differs "
                        f"from in-process execution")
                    break
        if bad:
            return bad, [f"FAIL {bad} of {len(checked)} checked campaigns "
                         f"differ from in-process execution"]
        return 0, [f"serve: {len(checked)} campaigns identical to "
                   f"in-process execution"]

    def layers(self, opened: list[Sent], closed: list[Sent], late: float,
               out_dir: Path) -> dict[str, float]:
        """The per-layer split, from each campaign's job events and the
        daemon's /v1/stats, plus a Chrome trace with one span per
        open-loop submission.  Nothing is patched in the daemon, so the
        traced run costs it nothing."""
        assert self.client is not None
        layers = zero_layers()
        ack = job = total = 0.0
        cached = planned = 0
        spans = []
        t0 = opened[0].due if opened else 0.0
        for item in opened:
            if item.state != "done" or item.finished_at is None:
                continue
            job_s = 0.0
            for ev in self.client.stream_events(item.cid, follow=False):
                if ev.get("type") == "plan":
                    cached += ev["cached"]
                    planned += ev["cached"] + ev["to_run"]
                elif ev.get("state") == "done" and "ms" in ev:
                    job_s += ev["ms"] / 1e3
            ack += item.acked - item.sent
            job += job_s
            total += item.finished_at - item.due
            args = {"request_id": item.cid, "job_ms": job_s * 1e3}
            spans.append(span_event(
                item.doc["workloads"][0], "submission", (item.due - t0) * 1e6,
                (item.finished_at - item.due) * 1e6, args))
            spans.append(span_event(
                "ack", "serve", (item.sent - t0) * 1e6,
                (item.acked - item.sent) * 1e6, dict(args, parent="submission")))
        write_chrome(out_dir / f"{self.name}-seed{self.seed}.trace.json",
                     spans)
        if total:
            layers["serve.ack.pct"] = 100.0 * ack / total
            layers["serve.job.pct"] = 100.0 * job / total
            # includes any time the sender lagged behind the schedule
            layers["serve.wait.pct"] = 100.0 * (total - ack - job) / total
        spent = sum(s.streamed - s.due for s in closed)
        lag = sum(s.streamed - s.finished_at for s in closed
                  if s.finished_at is not None)
        if spent:
            layers["serve.stream_lag.pct"] = 100.0 * lag / spent
        journal = self.client.stats()["admission"].get("journal", {})
        campaigns = len(opened) + len(closed)
        if journal.get("fsyncs"):
            layers["serve.journal.fsyncs_per_campaign"] = (
                journal["fsyncs"] / campaigns)
            layers["serve.journal.appends_per_fsync"] = (
                journal["appended"] / journal["fsyncs"])
        if planned:
            layers["campaign.cache_hit_ratio"] = cached / planned
        layers["bench.generator_late.pct"] = 100.0 * late * self.rate
        return layers

