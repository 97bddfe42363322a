"""The service core behind the HTTP front end.

:class:`ServeDaemon` owns the shared pieces of profiling-as-a-service:

* **one result store** — a :class:`~repro.campaign.store.ResultStore`,
  one append-only record log shared by every request and runner
  thread.  Every submitted campaign reads and writes the same store,
  so concurrent clients deduplicate work exactly like serial CLI runs
  sharing a cache directory.
* **a crash-safe task journal** — every accepted submission and every
  state transition (``accepted → running(lease) → publishing →
  done | failed``) is appended to a
  :class:`~repro.serve.journal.TaskJournal` under the store root before
  the in-memory registry moves.  A daemon killed at any point and
  restarted replays the journal, restores pre-crash campaign ids (so
  ``status`` keeps resolving them), expires the dead epoch's leases,
  and re-runs unfinished campaigns through the content-addressed store:
  finished jobs come back as cache hits and republication is
  idempotent, so recovered results are byte-identical to a crash-free
  run.
* **admission control** — a :class:`~repro.serve.supervise.Supervisor`
  bounds the submission queue (HTTP 429 + Retry-After when full),
  trips a per-suite circuit breaker after repeated failures (503 until
  a half-open probe succeeds), and refuses work while draining.
* **a runner-thread pool** — each accepted submission becomes a
  :class:`~repro.serve.registry.CampaignTask` executed by its own
  :class:`~repro.campaign.scheduler.CampaignRunner` on one of
  ``runners`` threads; the runner's process pool (``jobs`` workers)
  does the simulating, and its retry/pool-rebuild machinery makes a
  ``kill -9``'d worker a retried job, not a failed campaign.
* **deadline propagation** — a submission's ``deadline`` (wall-clock
  budget in seconds) caps every layer below it: the daemon stamps a
  monotonic expiry, the scheduler trims each job's timeout to the
  remaining budget, and the worker's SIGALRM enforces it in-process.
* **validation** — submissions pass through
  :func:`repro.campaign.suites.submission_kwargs` (shared with the
  ``repro chaos --serve`` drill) inside :func:`build_task`, so a bad
  document is an HTTP 400 before anything runs.
* **observability** — request counters, queue-depth/lease/breaker
  gauges live in a ``repro.obs``
  :class:`~repro.obs.metrics.MetricsRegistry`; the store contributes
  its record, log-size, hit/miss and compaction counts via
  ``export_metrics``.

Determinism note (the paper's observation boundary): a job executes in
a worker process seeded entirely from its JobSpec, whether the spec
arrived over HTTP, from the CLI, or from journal recovery — so
service-side records and their ``.rlog`` sidecars are byte-identical
to serial ones, and the ``repro chaos --serve`` drill asserts exactly
that.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from ..campaign.scheduler import CampaignRunner, RetryPolicy
from ..campaign.store import MemoryStore, ResultStore
from ..campaign.suites import SuiteError, build_campaign, submission_kwargs
from ..obs.metrics import MetricsRegistry
from .journal import FINAL_STATES, JournalState, TaskJournal, TaskRecord
from .registry import CampaignTask, TaskRegistry
from .supervise import Supervisor

_log = logging.getLogger("repro.serve")

#: per-campaign worker-process ceiling (a submission may ask for fewer)
MAX_JOBS = max(1, (os.cpu_count() or 2))


class UnknownKeyError(KeyError):
    """No record (or sidecar) under the requested content hash."""


def _seconds(value: Any) -> float | None:
    # a validated timeout or deadline; zero or less means none
    return float(value) if value and value > 0 else None


def build_task(doc: dict, rec: TaskRecord | None = None) -> CampaignTask:
    """Validate a submission document and build its task.

    A new submission gets a fresh record; journal recovery passes the
    journaled one.  The campaign is deterministic from ``doc``, so a
    recovered task rebuilds the campaign its submission built.  An
    unfinished task is ``queued``; a recovered one has its deadline
    re-armed in full, since its original start of budget is lost with
    the crashed process's monotonic clock.  Raises
    :class:`~repro.campaign.suites.SuiteError` on a malformed document.
    """
    suite, kwargs = submission_kwargs(doc)
    recovered = rec is not None and not rec.finished
    if rec is None:
        rec = TaskRecord(id="", suite=suite, doc=doc,
                         submitted_at=time.time(),
                         deadline=_seconds(doc.get("deadline")))
    jobs = doc.get("jobs")
    task = CampaignTask(
        **vars(rec), campaign=build_campaign(suite, **kwargs),
        jobs=0 if jobs is None else max(1, min(jobs, MAX_JOBS)),
        timeout=_seconds(doc.get("timeout")),
        refresh=bool(doc.get("refresh")), recovered=recovered)
    if not task.finished:
        task.state = "queued"
        if task.deadline is not None:
            task.deadline_at = time.monotonic() + task.deadline
    return task


class ServeDaemon:
    """Validation, execution and store access for the serve endpoints."""

    def __init__(
        self,
        store_root: str | Path | None = None,
        *,
        store: ResultStore | MemoryStore | None = None,
        runners: int = 2,
        default_jobs: int = 1,
        retries: int = 2,
        max_queue: int = 64,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        drain_timeout: float = 30.0,
        journal_path: str | Path | None = None,
        journal_crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        if store is not None:
            self.store = store
        else:
            root = (store_root or os.environ.get("REPRO_CACHE_DIR")
                    or ".repro-cache")
            self.store = ResultStore(root)
        self.metrics = MetricsRegistry()
        self.default_jobs = max(1, default_jobs)
        self.retries = retries
        self.drain_timeout = drain_timeout
        # journal lives beside the store unless the store is in-memory
        # (then there is nothing durable to recover into anyway)
        if journal_path is None and self.store.root is not None:
            journal_path = Path(self.store.root) / TaskJournal.NAME
        self.journal = (TaskJournal(journal_path,
                                    crash_hook=journal_crash_hook)
                        if journal_path is not None else None)
        self.registry = TaskRegistry(self.journal)
        self.supervisor = Supervisor(
            self.journal, max_queue=max_queue,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown)
        #: chaos knob: the HTTP layer hard-resets this many event
        #: streams mid-flight (exercises client-side stream resume)
        self.stream_resets_remaining = 0
        self._runners = ThreadPoolExecutor(
            max_workers=max(1, runners),
            thread_name_prefix="repro-serve-runner")
        #: serializes the admission depth-check + registry.add pair
        self._admit_mu = threading.Lock()
        self._closed = False
        self._recover()

    # ------------------------------------------------------------ recovery

    def _recover(self) -> None:
        """Replay the journal into the registry and resume unfinished
        campaigns.  Finished tasks are restored terminal (``status``
        still resolves their ids); unfinished ones are re-queued under
        a bumped lease epoch."""
        state = self.supervisor.recover()
        for rec in state.records.values():
            try:
                task = self.registry.add(build_task(rec.doc, rec))
            except SuiteError as exc:  # journaled doc no longer valid
                _log.error(f"recovery dropped {rec.id}: {exc}")
                continue
            if task.finished:
                continue
            self.metrics.counter("serve.recovered").inc()
            self._runners.submit(self._execute, task)
        if state.unfinished:
            _log.info(
                f"journal recovery: {len(state.records)} task(s), "
                f"{len(state.unfinished)} resumed, "
                f"{state.stale_leases} stale lease(s) expired, "
                f"epoch now {self.supervisor.epoch}")

    # ---------------------------------------------------------- submission

    def queue_depth(self) -> int:
        return sum(n for state, n in self.registry.counts().items()
                   if state not in FINAL_STATES)

    def submit(self, doc: dict) -> CampaignTask:
        """Validate a submission document, build its campaign, journal
        the acceptance, queue it.

        Raises :class:`~repro.campaign.suites.SuiteError` on anything
        malformed (HTTP 400) or a :class:`~repro.serve.supervise.Busy`
        subtype when admission is refused (HTTP 429/503 + Retry-After)
        — either way nothing was queued.  Once this returns, the
        submission is durable: it survives any subsequent crash.
        """
        task = build_task(doc)
        # one lock around depth check + add, so N concurrent
        # submitters can't all read depth == max-1 and overshoot
        with self._admit_mu:
            self.supervisor.admit(task.suite, self.queue_depth())
            self.registry.add(task)
        try:
            self.registry.transition(task, "queued")  # the ack point
        except Exception:
            # journal append failed: never acked, so it must not stay
            # queued (a CrashPoint is BaseException — a simulated hard
            # kill leaves memory as-is, like the real thing)
            self.registry.remove(task.id)
            raise
        self.metrics.counter("serve.submissions").inc()
        self._runners.submit(self._execute, task)
        _log.info(f"accepted campaign {task.id}: suite={task.suite} "
                  f"jobs={task.jobs} ({len(task.campaign.jobs)} job specs)")
        return task

    # ----------------------------------------------------------- execution

    def _execute(self, task: CampaignTask) -> None:
        """Runner-thread body: one campaign end to end, every state
        transition journaled before the registry sees it."""
        if (task.deadline_at is not None
                and time.monotonic() >= task.deadline_at):
            self._settle(task, "failed",
                         error="deadline exceeded before start")
            return
        self.registry.transition(task, "running",
                                 epoch=self.supervisor.epoch,
                                 pid=os.getpid())
        runner = CampaignRunner(
            store=self.store,
            jobs=task.jobs or self.default_jobs,
            timeout=task.timeout,
            retry=RetryPolicy(max_attempts=self.retries + 1),
            refresh=task.refresh,
            deadline=task.deadline_at,
            on_event=lambda ev: self.registry.append_event(task, ev),
        )
        try:
            runner.run(task.campaign)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            self._settle(task, "failed", error=error)
            _log.error(f"campaign {task.id} failed: {error}")
            return
        # results are durable in the store's log; the journal just
        # hasn't said "done" yet — a crash in this window re-runs the
        # campaign as pure cache hits
        self.registry.transition(task, "publishing")
        summary = runner.summary()
        self._settle(task, "done", summary=summary)
        _log.info(f"campaign {task.id} done: {summary}")

    def _settle(self, task: CampaignTask, state: str,
                **changes: object) -> None:
        """Journal and apply a campaign's final state, count it, and
        report it to its suite's circuit breaker."""
        self.metrics.counter(f"serve.campaigns.{state}").inc()
        self.registry.transition(task, state, **changes)
        breaker = self.supervisor.breaker(task.suite)
        if state == "done":
            breaker.record_success()
        else:
            breaker.record_failure()

    # --------------------------------------------------------------- drain

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admissions, wait for in-flight campaigns, snapshot the
        journal.  Returns True when the queue fully drained in time."""
        clean = self.supervisor.drain(
            self.queue_depth, self._journal_state,
            timeout if timeout is not None else self.drain_timeout)
        _log.info("drain complete" if clean
                  else "drain timed out with work in flight")
        return clean

    @property
    def drained(self) -> bool:
        return self.supervisor.drained

    def _journal_state(self) -> JournalState:
        """The registry's tasks as the journal state a snapshot writes."""
        return JournalState(epoch=self.supervisor.epoch, records={
            task.id: task for task in self.registry.list()})

    # ------------------------------------------------------------- queries

    def result(self, task: CampaignTask) -> dict[str, dict]:
        """``{target_key: record}`` for a finished campaign."""
        records: dict[str, dict] = {}
        for key in task.campaign.targets or list(task.campaign.jobs):
            record = self.store.fetch(key)
            if record is None:
                raise UnknownKeyError(key)
            records[key] = record
        return records

    def record(self, key: str) -> dict:
        record = self.store.fetch(key)
        if record is None:
            raise UnknownKeyError(key)
        return record

    def rlog(self, key: str) -> bytes:
        """The content-addressed ``.rlog`` sidecar for ``key`` —
        straight from the sidecar file when the store has one, else
        rehydrated from the record itself (MemoryStore)."""
        root = self.store.root
        if root is not None:
            path = Path(root) / ResultStore.REPLAY_DIR / f"{key}.rlog"
            try:
                return path.read_bytes()
            except FileNotFoundError:
                pass
        record = self.store.fetch(key)
        if record is None or "replay_log" not in record:
            raise UnknownKeyError(key)
        text = record["replay_log"]
        return text.encode() if isinstance(text, str) else bytes(text)

    def stats(self) -> dict:
        """The ``/v1/stats`` document: store vitals, task queue shape,
        admission/breaker/lease state, and the metrics snapshot."""
        store_stats = self.store.stats()
        by_state = self.registry.counts()
        running = by_state.get("running", 0)
        publishing = by_state.get("publishing", 0)
        depth = self.queue_depth()
        admission = self.supervisor.stats(depth)
        self.metrics.gauge("serve.queue.depth").set(depth)
        self.metrics.gauge("serve.queue.limit").set(
            self.supervisor.max_queue)
        self.metrics.gauge("serve.campaigns.running").set(running)
        self.metrics.gauge("serve.leases.active").set(
            running + publishing)
        self.metrics.gauge("serve.recovered.tasks").set(
            self.supervisor.recovered_tasks)
        self.metrics.gauge("serve.breakers.open").set(
            sum(1 for s in admission["breakers"].values()
                if s != "closed"))
        self.metrics.gauge("serve.draining").set(
            int(self.supervisor.draining))
        if isinstance(self.store, ResultStore):
            self.store.export_metrics(self.metrics, store_stats)
        return {
            "store": store_stats,
            "campaigns": by_state,
            "queue_depth": depth,
            "admission": admission,
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._runners.shutdown(wait=True, cancel_futures=True)
        if self.journal is not None:
            # clean shutdown: compact the journal so the next start
            # replays one entry per task (idempotent — snapshotting an
            # unchanged registry rewrites the same bytes)
            self.journal.snapshot(self._journal_state())
            self.journal.close()
        self.store.close()
