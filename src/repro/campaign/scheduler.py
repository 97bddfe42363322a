"""The dependency-aware campaign executor.

:class:`CampaignRunner` walks a :class:`Campaign` DAG and executes the
jobs whose records are not already in the store:

* **planning** — targets are traversed depth-first; a job whose record
  is cached (and ``refresh`` is off) is a cache *hit* and its subtree is
  pruned, so re-running a campaign is incremental: only the missing
  frontier executes.
* **execution** — ready jobs (all deps resolved) run on a
  ``concurrent.futures.ProcessPoolExecutor`` with ``jobs`` workers; at
  ``jobs=1`` the runner degrades gracefully to serial in-process
  execution (no pool, no pickling — the debugging-friendly path).
* **failure policy** — each job gets ``RetryPolicy.max_attempts``
  attempts with exponential backoff; a worker that times out (per-job
  ``timeout``, enforced by ``SIGALRM`` inside the worker), dies
  outright (``BrokenProcessPool`` — the pool is rebuilt), hits an
  ``OSError`` or an injected fault consumes an attempt.  Jobs are
  seeded and deterministic, so any other exception would only recur:
  it fails the job on its first attempt.  A failed job raises
  :class:`JobFailed` after in-flight siblings drain.

Scheduler decisions are observable: a ``repro.obs`` metrics registry
counts submissions, cache hits/misses, retries, timeouts, pool breaks
and failures, and an optional :class:`~repro.obs.trace.Tracer` records
per-job spans (wall-clock microseconds) for Chrome-trace export.  An
optional ``on_event`` callback receives every scheduling decision as a
JSON-serializable dict (``plan`` / ``job`` / ``done``) — the feed the
``repro serve`` daemon streams to HTTP clients.
"""

from __future__ import annotations

import logging
import multiprocessing
import random
import time
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..faults.inject import WorkerKilled
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .spec import Campaign, JobSpec
from .store import MemoryStore, ResultStore
from .worker import InjectedFault, JobTimeout, execute_job

_log = logging.getLogger("repro.campaign")

#: failures a second attempt can change; a seeded job that raises
#: anything else raises it again
RETRYABLE = (BrokenProcessPool, JobTimeout, OSError, InjectedFault,
             WorkerKilled)


class CampaignError(RuntimeError):
    """The campaign could not complete."""


class JobFailed(CampaignError):
    """One job exhausted its retry budget."""

    def __init__(self, key: str, label: str, attempts: int,
                 cause: BaseException) -> None:
        super().__init__(
            f"job {label} ({key[:12]}) failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.key = key
        self.attempts = attempts
        self.cause = cause


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded full jitter.

    Jitter spreads concurrent retries across ``[0, backoff *
    factor**(attempt-1)]`` so clients/jobs that failed together don't
    hammer the same resource in lockstep on the way back.  The draw is
    seeded from ``(seed, token, attempt)`` — fully deterministic, so
    fixed-seed campaign byte-identity tests keep pinning; ``token`` is
    the retrying job's key, giving each job its own sequence.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    factor: float = 2.0
    jitter: bool = True
    seed: int = 0

    def delay(self, attempt: int, token: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        ceiling = self.backoff * (self.factor ** (attempt - 1))
        if not self.jitter:
            return ceiling
        rng = random.Random(f"{self.seed}:{token}:{attempt}")
        return rng.uniform(0.0, ceiling)


@dataclass
class Plan:
    """What an incremental run will and won't do."""

    cached: list[str]
    to_run: list[str]

    @property
    def hit_rate(self) -> float:
        total = len(self.cached) + len(self.to_run)
        return len(self.cached) / total if total else 1.0


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available: workers inherit the parent's function
    registry, which keeps code addresses — and therefore profile
    symbols — identical between serial and pooled execution."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class CampaignRunner:
    """Execute campaigns against a result store."""

    def __init__(
        self,
        store: ResultStore | MemoryStore | None = None,
        jobs: int = 1,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        refresh: bool = False,
        tracer: Tracer | None = None,
        on_event: Callable[[dict], None] | None = None,
        deadline: float | None = None,
    ) -> None:
        self.store = store if store is not None else MemoryStore()
        self.jobs = max(1, jobs)
        self.timeout = timeout
        #: absolute ``time.monotonic()`` timestamp the whole campaign
        #: must finish by (the caller's propagated deadline); each
        #: job's timeout is trimmed to the remaining budget, so no
        #: worker runs past the caller's patience
        self.deadline = deadline
        self.retry = retry or RetryPolicy()
        self.refresh = refresh
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.on_event = on_event
        self._t0 = time.monotonic_ns()

    def _emit(self, event: dict) -> None:
        """Hand a progress event to the observer; a broken observer
        must never take the campaign down with it."""
        if self.on_event is None:
            return
        try:
            self.on_event(event)
        except Exception:  # pragma: no cover - observer bug, not ours
            _log.debug("on_event observer raised", exc_info=True)

    # ------------------------------------------------------------ planning

    def plan(self, campaign: Campaign) -> Plan:
        """Split the DAG into cached jobs and the frontier to execute.
        A cached job prunes its whole dependency subtree — unless a
        non-cached sibling still needs one of those deps."""
        campaign.topo_order()  # validate the graph up front
        cached: list[str] = []
        to_run: list[str] = []
        state: dict[str, str] = {}

        def visit(key: str) -> None:
            if key in state:
                return
            if not self.refresh and self.store.probe(key):
                state[key] = "cached"
                cached.append(key)
                return
            state[key] = "run"
            to_run.append(key)
            for dep in campaign.jobs[key].deps:
                visit(dep)

        for key in campaign.targets or list(campaign.jobs):
            visit(key)
        return Plan(cached=cached, to_run=to_run)

    def status(self, campaign: Campaign) -> dict:
        """Status pane data for ``--status`` (no execution)."""
        plan = self.plan(campaign)
        doc = campaign.describe()
        doc.update({
            "cached": len(plan.cached),
            "pending": len(plan.to_run),
            "hit_rate": plan.hit_rate,
            "store": self.store.stats(),
        })
        return doc

    # ----------------------------------------------------------- execution

    def run(self, campaign: Campaign) -> dict[str, dict]:
        """Execute the campaign; returns ``{target_key: record}``.

        Cached jobs are counted as hits and never re-executed; computed
        records are appended to the store as they land, so an
        interrupted campaign resumes from wherever it died."""
        plan = self.plan(campaign)
        c = self.metrics.counter
        c("campaign.jobs").inc(len(plan.cached) + len(plan.to_run))
        c("campaign.cache.hits").inc(len(plan.cached))
        c("campaign.cache.misses").inc(len(plan.to_run))
        _log.debug(
            f"campaign {campaign.name}: {len(campaign.jobs)} jobs, "
            f"{len(plan.cached)} cached, {len(plan.to_run)} to run "
            f"(jobs={self.jobs})"
        )
        self._emit({"type": "plan", "campaign": campaign.name,
                    "jobs": len(campaign.jobs),
                    "cached": len(plan.cached),
                    "to_run": len(plan.to_run)})
        if plan.to_run:
            run_set = set(plan.to_run)
            order = [k for k in campaign.topo_order() if k in run_set]
            if self.jobs == 1:
                self._run_serial(campaign, order)
            else:
                self._run_pool(campaign, order)
        results: dict[str, dict] = {}
        for key in campaign.targets or list(campaign.jobs):
            record = self.store.fetch(key)
            if record is None:  # pragma: no cover - defensive
                raise CampaignError(
                    f"campaign {campaign.name}: no record for target "
                    f"{key[:12]} after execution"
                )
            results[key] = record
        self._emit({"type": "done", "campaign": campaign.name,
                    "targets": len(results)})
        return results

    def summary(self) -> dict:
        """Headline numbers for the end-of-run status line."""
        snap = self.metrics.snapshot()

        def val(name: str) -> int:
            return snap.get(name, {}).get("value", 0)

        hits, misses = val("campaign.cache.hits"), val("campaign.cache.misses")
        total = hits + misses
        return {
            "jobs": total,
            "hits": hits,
            "executed": val("campaign.executed"),
            "retries": val("campaign.retries"),
            "hit_rate": hits / total if total else 1.0,
        }

    # ------------------------------------------------- deadline budgeting

    def _remaining(self) -> float | None:
        """Seconds left in the campaign budget; None = unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def _effective_timeout(self) -> float | None:
        """The per-job timeout after trimming to the remaining budget.
        Raises :class:`CampaignError` once the budget is spent — the
        campaign fails fast instead of starting work nobody waits for.
        """
        remaining = self._remaining()
        if remaining is None:
            return self.timeout
        if remaining <= 0:
            raise CampaignError("campaign deadline exceeded")
        if self.timeout is None:
            return remaining
        return min(self.timeout, remaining)

    # ----------------------------------------------------- serial fallback

    def _run_serial(self, campaign: Campaign, order: list[str]) -> None:
        for key in order:
            # serial jobs run in-process where SIGALRM is off-limits
            # (runner threads); the deadline is enforced coarsely,
            # between jobs
            self._effective_timeout()
            spec = campaign.jobs[key]
            attempt = 0
            while True:
                attempt += 1
                try:
                    self._trace_instant(key, "submit", attempt)
                    self._emit({"type": "job", "state": "submit",
                                "key": key, "attempt": attempt})
                    start = time.monotonic_ns()
                    record = execute_job(spec.to_dict(),
                                         self._dep_records(campaign, spec),
                                         timeout=None)
                    self._finish(key, record, start)
                    break
                except Exception as exc:
                    if not self._note_failure(key, spec, attempt, exc):
                        raise JobFailed(key, spec.label, attempt, exc) \
                            from exc

    # ------------------------------------------------------------ the pool

    def _run_pool(self, campaign: Campaign, order: list[str]) -> None:
        pending = set(order)
        unresolved = {
            key: {d for d in campaign.jobs[key].deps if d in pending}
            for key in order
        }
        attempts: dict[str, int] = {}
        inflight: dict[Future, str] = {}
        started: dict[Future, int] = {}
        executor = self._new_pool()
        self.metrics.gauge("campaign.workers").set(self.jobs)
        try:
            while pending or inflight:
                submitted = {inflight[f] for f in inflight}
                for key in [k for k in order
                            if k in pending and k not in submitted
                            and not unresolved[k]]:
                    attempt = attempts.get(key, 0) + 1
                    try:
                        fut = self._submit(executor, campaign, key, attempt)
                    except BrokenProcessPool:
                        # a worker died since the last wait(), so the pool
                        # refuses work.  Futures in flight are poisoned:
                        # wait() hands them to the rebuild branch below,
                        # which charges the attempt.  With none in flight
                        # there is nothing to charge; rebuild here.
                        if inflight:
                            break
                        executor = self._rebuild_pool(executor)
                        fut = self._submit(executor, campaign, key, attempt)
                    inflight[fut] = key
                    started[fut] = time.monotonic_ns()
                if not inflight:  # pragma: no cover - graph is validated
                    raise CampaignError(
                        f"campaign {campaign.name}: deadlock — "
                        f"{len(pending)} jobs pending, none ready"
                    )
                done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                for fut in done:
                    key = inflight.pop(fut, None)
                    if key is None:
                        # already drained by a pool-break cleanup below
                        continue
                    start = started.pop(fut)
                    spec = campaign.jobs[key]
                    try:
                        record = fut.result()
                    except BrokenProcessPool as exc:
                        # the worker died (segfault analogue); every
                        # other in-flight future is poisoned too —
                        # rebuild the pool and resubmit them all
                        executor = self._rebuild_pool(executor)
                        inflight.clear()
                        started.clear()
                        attempts[key] = attempts.get(key, 0) + 1
                        if not self._note_failure(key, spec,
                                                  attempts[key], exc):
                            raise JobFailed(key, spec.label,
                                            attempts[key], exc) from exc
                        break  # the rest of `done` is poisoned too
                    except Exception as exc:
                        attempts[key] = attempts.get(key, 0) + 1
                        if not self._note_failure(key, spec,
                                                  attempts[key], exc):
                            executor.shutdown(wait=False,
                                              cancel_futures=True)
                            raise JobFailed(key, spec.label,
                                            attempts[key], exc) from exc
                        continue
                    self._finish(key, record, start)
                    pending.discard(key)
                    for waiter in unresolved.values():
                        waiter.discard(key)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs,
                                   mp_context=_pool_context())

    def _rebuild_pool(self, executor: ProcessPoolExecutor) -> ProcessPoolExecutor:
        self.metrics.counter("campaign.pool.broken").inc()
        executor.shutdown(wait=False, cancel_futures=True)
        return self._new_pool()

    def _submit(self, executor: ProcessPoolExecutor, campaign: Campaign,
                key: str, attempt: int) -> Future:
        spec = campaign.jobs[key]
        # the worker enforces this with SIGALRM; trimming it to the
        # remaining campaign budget is what carries a client deadline
        # all the way down to the simulating process.  Submit before
        # announcing: a broken pool raises here and nothing was sent.
        fut = executor.submit(execute_job, spec.to_dict(),
                              self._dep_records(campaign, spec),
                              self._effective_timeout())
        self._trace_instant(key, "submit", attempt)
        self._emit({"type": "job", "state": "submit", "key": key,
                    "attempt": attempt})
        self.metrics.counter("campaign.submitted").inc()
        return fut

    # ------------------------------------------------------------- helpers

    def _dep_records(self, campaign: Campaign,
                     spec: JobSpec) -> dict[str, dict]:
        records: dict[str, dict] = {}
        for dep in spec.deps:
            record = self.store.fetch(dep)
            if record is None:  # pragma: no cover - ordering guarantees it
                raise CampaignError(f"dependency {dep[:12]} has no record")
            records[dep] = record
        return records

    def _finish(self, key: str, record: dict, started_ns: int) -> None:
        self.store.put(key, record)
        elapsed_ms = (time.monotonic_ns() - started_ns) / 1e6
        self.metrics.counter("campaign.executed").inc()
        self.metrics.histogram("campaign.job_ms").observe(elapsed_ms)
        self._emit({"type": "job", "state": "done", "key": key,
                    "ms": round(elapsed_ms, 3)})
        if self.tracer is not None:
            self.tracer.span(0, started_ns // 1000,
                             time.monotonic_ns() // 1000,
                             f"job:{key[:12]}", {"ms": round(elapsed_ms, 3)})

    def _note_failure(self, key: str, spec: JobSpec, attempt: int,
                      exc: BaseException) -> bool:
        """Record a failed attempt; True when a retry is still allowed
        (after sleeping out the backoff)."""
        if isinstance(exc, JobTimeout):
            self.metrics.counter("campaign.timeouts").inc()
        self._trace_instant(key, "failed", attempt)
        self._emit({"type": "job", "state": "failed", "key": key,
                    "attempt": attempt, "error": f"{type(exc).__name__}: "
                                                 f"{exc}"})
        if (attempt >= self.retry.max_attempts
                or not isinstance(exc, RETRYABLE)):
            self.metrics.counter("campaign.failures").inc()
            _log.error(f"campaign job {spec.label} failed permanently "
                       f"({attempt} attempts): {type(exc).__name__}: {exc}")
            return False
        self.metrics.counter("campaign.retries").inc()
        delay = self.retry.delay(attempt, token=key)
        remaining = self._remaining()
        if remaining is not None:
            if remaining <= 0:
                self.metrics.counter("campaign.failures").inc()
                return False  # no budget left to retry in
            delay = min(delay, remaining)
        _log.debug(f"campaign job {spec.label} attempt {attempt} failed "
                   f"({type(exc).__name__}: {exc}); retrying in {delay:.2f}s")
        if delay > 0:
            time.sleep(delay)
        return True

    def _trace_instant(self, key: str, what: str, attempt: int) -> None:
        if self.tracer is not None:
            self.tracer.instant(0, time.monotonic_ns() // 1000,
                                f"{what}:{key[:12]}", {"attempt": attempt})
