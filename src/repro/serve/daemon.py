"""The service core behind the HTTP front end.

:class:`ServeDaemon` owns the shared pieces of profiling-as-a-service:

* **one result store** — an LSM :class:`~repro.campaign.store.
  ResultStore` opened with ``background=True`` (flushes and compactions
  run on the store's worker thread, never on a request path).  Every
  submitted campaign reads and writes the same store, so concurrent
  clients deduplicate work exactly like serial CLI runs sharing a cache
  directory.
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
  :func:`repro.campaign.suites.submission_kwargs`, the same validator
  the CLI uses, so a bad document is an HTTP 400 before anything runs.
* **observability** — request counters, queue-depth/lease/breaker
  gauges live in a ``repro.obs``
  :class:`~repro.obs.metrics.MetricsRegistry`; the store contributes
  its WAL/level/refcount vitals via ``export_metrics``.

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

from ..campaign.scheduler import CampaignRunner, RetryPolicy
from ..campaign.store import MemoryStore, ResultStore
from ..campaign.suites import SuiteError, build_campaign, submission_kwargs
from ..obs.metrics import MetricsRegistry
from .journal import JournalState, TaskJournal, TaskRecord
from .registry import CampaignTask, TaskRegistry
from .supervise import Supervisor

_log = logging.getLogger("repro.serve")

#: per-campaign worker-process ceiling (a submission may ask for fewer)
MAX_JOBS = max(1, (os.cpu_count() or 2))

#: registry states that occupy a queue slot
_PENDING_STATES = ("queued", "running", "publishing")


class UnknownKeyError(KeyError):
    """No record (or sidecar) under the requested content hash."""


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
            self.store = ResultStore(root, background=True)
        self.registry = TaskRegistry()
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
        #: serializes the admission depth-check + registry.create pair
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
        for task_id in state.order:
            rec = state.records[task_id]
            try:
                task = self._restore(rec)
            except SuiteError as exc:  # journaled doc no longer valid
                _log.error(f"recovery dropped {task_id}: {exc}")
                continue
            if task.finished:
                continue
            self.metrics.counter("serve.recovered").inc()
            self._runners.submit(self._execute, task)
        if state.unfinished:
            _log.info(
                f"journal recovery: {len(state.order)} task(s), "
                f"{len(state.unfinished)} resumed, "
                f"{state.stale_leases} stale lease(s) expired, "
                f"epoch now {self.supervisor.epoch}")

    def _restore(self, rec: TaskRecord) -> CampaignTask:
        """Rebuild one journaled task; campaign construction is
        deterministic from the submission document."""
        doc = dict(rec.doc)
        suite, kwargs = submission_kwargs(doc)
        campaign = build_campaign(suite, **kwargs)
        task = self.registry.create(
            suite, doc, campaign,
            self._coerce_jobs(doc.get("jobs")),
            self._coerce_timeout(doc.get("timeout")),
            bool(doc.get("refresh", False)),
            deadline=rec.deadline, task_id=rec.id,
            submitted_at=rec.submitted_at,
            recovered=not rec.finished)
        if rec.state == "done":
            task.state = "done"
            task.summary = rec.summary
            task.finished_at = rec.finished_at
        elif rec.state == "failed":
            task.state = "failed"
            task.error = rec.error
            task.finished_at = rec.finished_at
        elif rec.deadline is not None:
            # the original start-of-budget is unrecoverable across a
            # crash (monotonic clocks don't survive it): re-arm in full
            task.deadline_at = time.monotonic() + rec.deadline
        return task

    # ---------------------------------------------------------- submission

    def queue_depth(self) -> int:
        counts = self.registry.counts()
        return sum(counts.get(s, 0) for s in _PENDING_STATES)

    def submit(self, doc: dict) -> CampaignTask:
        """Validate a submission document, build its campaign, journal
        the acceptance, queue it.

        Raises :class:`~repro.campaign.suites.SuiteError` on anything
        malformed (HTTP 400) or a :class:`~repro.serve.supervise.Busy`
        subtype when admission is refused (HTTP 429/503 + Retry-After)
        — either way nothing was queued.  Once this returns, the
        submission is durable: it survives any subsequent crash.
        """
        suite, kwargs = submission_kwargs(doc)
        campaign = build_campaign(suite, **kwargs)
        jobs = self._coerce_jobs(doc.get("jobs"))
        timeout = self._coerce_timeout(doc.get("timeout"))
        refresh = bool(doc.get("refresh", False))
        deadline = self._coerce_deadline(doc.get("deadline"))
        # one lock around depth check + create, so N concurrent
        # submitters can't all read depth == max-1 and overshoot
        with self._admit_mu:
            self.supervisor.admit(suite, self.queue_depth())
            task = self.registry.create(suite, doc, campaign, jobs,
                                        timeout, refresh,
                                        deadline=deadline)
        if deadline is not None:
            task.deadline_at = time.monotonic() + deadline
        try:
            self.supervisor.accept(task, doc, deadline)  # the ack point
        except Exception:
            # journal append failed: never acked, so it must not stay
            # queued (a CrashPoint is BaseException — a simulated hard
            # kill leaves memory as-is, like the real thing)
            self.registry.remove(task.id)
            raise
        self.metrics.counter("serve.submissions").inc()
        self._runners.submit(self._execute, task)
        _log.info(f"accepted campaign {task.id}: suite={suite} "
                  f"jobs={jobs} ({len(campaign.jobs)} job specs)")
        return task

    @staticmethod
    def _coerce_jobs(value: object) -> int:
        if value is None:
            return 0  # daemon default, resolved in _execute
        if isinstance(value, bool) or not isinstance(value, int):
            raise SuiteError(f"jobs must be an integer, got {value!r}")
        return max(1, min(value, MAX_JOBS))

    @staticmethod
    def _coerce_timeout(value: object) -> float | None:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SuiteError(f"timeout must be a number, got {value!r}")
        return float(value) if value > 0 else None

    @staticmethod
    def _coerce_deadline(value: object) -> float | None:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SuiteError(
                f"deadline must be a number of seconds, got {value!r}")
        return float(value) if value > 0 else None

    # ----------------------------------------------------------- execution

    def _execute(self, task: CampaignTask) -> None:
        """Runner-thread body: one campaign end to end, every state
        transition journaled before the registry sees it."""
        if (task.deadline_at is not None
                and time.monotonic() >= task.deadline_at):
            self.metrics.counter("serve.campaigns.failed").inc()
            self.supervisor.fail(task, self.registry,
                                 "deadline exceeded before start")
            return
        self.supervisor.lease(task, self.registry)
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
            self.metrics.counter("serve.campaigns.failed").inc()
            self.supervisor.fail(task, self.registry,
                                 f"{type(exc).__name__}: {exc}")
            _log.error(f"campaign {task.id} failed: "
                       f"{type(exc).__name__}: {exc}")
            return
        # results are WAL-durable in the store; the journal just
        # hasn't said "done" yet — a crash in this window re-runs the
        # campaign as pure cache hits
        self.supervisor.publishing(task)
        self.metrics.counter("serve.campaigns.done").inc()
        self.supervisor.finish(task, self.registry, runner.summary())
        _log.info(f"campaign {task.id} done: {runner.summary()}")

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
        """The registry folded back into journal shape (for snapshot)."""
        state = JournalState(epoch=self.supervisor.epoch)
        for task in self.registry.list():
            rec = TaskRecord(
                id=task.id, suite=task.suite, doc=task.doc,
                state="accepted" if task.state == "queued"
                else task.state,
                epoch=self.supervisor.epoch, pid=os.getpid(),
                error=task.error, summary=task.summary,
                submitted_at=task.submitted_at,
                finished_at=task.finished_at,
                deadline=task.deadline)
            state.records[task.id] = rec
            state.order.append(task.id)
        return state

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
        depth = by_state.get("queued", 0) + running + publishing
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
            self.store.export_metrics(self.metrics)
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
