"""Campaign-task lifecycle tracking for the serve daemon.

A :class:`CampaignTask` is one accepted submission: the validated
document, the built :class:`~repro.campaign.spec.Campaign`, a state
machine (``queued → running → publishing → done | failed``), and an
ordered list of
progress events (each stamped with a monotonically increasing index
``i``) appended by the scheduler's ``on_event`` callback.  The
:class:`TaskRegistry` owns the id namespace and the lock; the streaming
endpoint reads ``events_since`` snapshots and never blocks a writer.

Streams are pushed, not polled: a stream :meth:`~TaskRegistry.watch`es
its task, and every new event or terminal state sets its
:class:`asyncio.Event` through ``loop.call_soon_threadsafe`` from the
runner thread.  ``events_since`` clears that event under the same lock
the writers hold, so an event landing between the read and the wait
still wakes the stream.

Nothing here knows about HTTP — the registry is shared state between
the asyncio front end and the runner threads, guarded by one mutex.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..campaign.spec import Campaign

#: terminal task states
FINAL_STATES = ("done", "failed")


def campaign_status_doc(suite: str, campaign: Campaign, state: str,
                        submission: dict) -> dict:
    """The shared campaign-status schema.

    Both ``GET /v1/campaigns/{id}`` and the local
    ``repro campaign --status --json`` build on this document, so a
    client parses one shape whether the campaign runs in a daemon or
    in-process: :meth:`Campaign.describe` (name / jobs / targets /
    by_kind) plus suite, state, the submission document, and the
    content-addressed target keys.
    """
    doc = campaign.describe()
    doc.update({
        "suite": suite,
        "state": state,
        "submission": submission,
        "target_keys": list(campaign.targets),
    })
    return doc


@dataclass
class CampaignTask:
    """One submitted campaign and everything the API reports about it."""

    id: str
    suite: str
    doc: dict
    campaign: Campaign
    jobs: int
    timeout: float | None
    refresh: bool
    state: str = "queued"
    error: str | None = None
    events: list[dict] = field(default_factory=list)
    summary: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    #: wall-clock budget in seconds (client deadline, propagated down)
    deadline: float | None = None
    #: monotonic timestamp the budget expires at (set on acceptance)
    deadline_at: float | None = None
    #: True when this task was rebuilt from the journal after a crash
    recovered: bool = False

    @property
    def finished(self) -> bool:
        return self.state in FINAL_STATES

    def status_doc(self) -> dict:
        """The JSON shape of ``GET /v1/campaigns/{id}`` — the shared
        :func:`campaign_status_doc` schema plus the daemon-side fields
        (id, event count, timestamps)."""
        doc = campaign_status_doc(self.suite, self.campaign, self.state,
                                  self.doc)
        doc.update({
            "id": self.id,
            "events": len(self.events),
            "submitted_at": self.submitted_at,
        })
        if self.error is not None:
            doc["error"] = self.error
        if self.summary is not None:
            doc["summary"] = self.summary
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        if self.deadline is not None:
            doc["deadline"] = self.deadline
        if self.recovered:
            doc["recovered"] = True
        return doc


class TaskRegistry:
    """Thread-safe task table + per-task ordered event feeds."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._tasks: dict[str, CampaignTask] = {}
        self._order: list[str] = []
        self._next_id = 1
        #: task id -> the streams watching it, each woken on its loop
        self._watchers: dict[
            str, list[tuple[asyncio.AbstractEventLoop, asyncio.Event]]] = {}

    def create(self, suite: str, doc: dict, campaign: Campaign,
               jobs: int, timeout: float | None, refresh: bool,
               deadline: float | None = None,
               task_id: str | None = None,
               submitted_at: float | None = None,
               recovered: bool = False) -> CampaignTask:
        """Allocate (or, with ``task_id``, restore) one task.

        Journal recovery passes the pre-crash id so ``status`` keeps
        resolving it; the id counter always advances past restored ids
        so fresh submissions never collide with replayed ones.
        """
        with self._mu:
            if task_id is None:
                task_id = f"c-{self._next_id:06d}"
                self._next_id += 1
            else:
                if task_id in self._tasks:
                    raise ValueError(f"duplicate task id {task_id!r}")
                tail = task_id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    self._next_id = max(self._next_id, int(tail) + 1)
            task = CampaignTask(id=task_id, suite=suite, doc=doc,
                                campaign=campaign, jobs=jobs,
                                timeout=timeout, refresh=refresh,
                                deadline=deadline, recovered=recovered)
            if submitted_at is not None:
                task.submitted_at = submitted_at
            self._tasks[task_id] = task
            self._order.append(task_id)
            return task

    def get(self, task_id: str) -> CampaignTask | None:
        with self._mu:
            return self._tasks.get(task_id)

    def remove(self, task_id: str) -> CampaignTask | None:
        """Forget a task that never got acked (its journal append
        failed) — otherwise it would occupy a queue slot forever."""
        with self._mu:
            task = self._tasks.pop(task_id, None)
            if task is not None:
                self._order.remove(task_id)
            return task

    def list(self) -> list[CampaignTask]:
        with self._mu:
            return [self._tasks[tid] for tid in self._order]

    def counts(self) -> dict[str, int]:
        """Tasks by state (the queue-depth gauge reads this)."""
        with self._mu:
            by_state: dict[str, int] = {}
            for task in self._tasks.values():
                by_state[task.state] = by_state.get(task.state, 0) + 1
            return by_state

    # ---------------------------------------------------------- lifecycle

    def mark_running(self, task: CampaignTask) -> None:
        with self._mu:
            task.state = "running"

    def mark_done(self, task: CampaignTask, summary: dict) -> None:
        with self._mu:
            task.state = "done"
            task.summary = summary
            task.finished_at = time.time()
            self._wake(task)

    def mark_failed(self, task: CampaignTask, error: str) -> None:
        with self._mu:
            task.state = "failed"
            task.error = error
            task.finished_at = time.time()
            self._wake(task)

    # ------------------------------------------------------------- events

    def append_event(self, task: CampaignTask, event: dict) -> None:
        """Stamp ``event`` with its index and append it to the feed.
        Called from runner threads via the scheduler's ``on_event``."""
        with self._mu:
            stamped = dict(event)
            stamped["i"] = len(task.events)
            stamped["task"] = task.id
            task.events.append(stamped)
            self._wake(task)

    def events_since(self, task: CampaignTask, since: int,
                     wake: asyncio.Event | None = None,
                     ) -> tuple[list[dict], bool]:
        """Events with index >= ``since`` plus whether the feed is
        complete (task finished — no more events will ever arrive).
        ``wake``, a :meth:`watch` event, is cleared in the same
        critical section, so only a later change sets it again."""
        with self._mu:
            if wake is not None:
                wake.clear()
            fresh = task.events[since:] if since < len(task.events) \
                else []
            return list(fresh), task.state in FINAL_STATES

    # ------------------------------------------------------------ streams

    def watch(self, task: CampaignTask) -> asyncio.Event:
        """Register a stream on the running event loop; the returned
        event is set whenever ``task`` gets an event or finishes.
        Call before the first :meth:`events_since` and pair with
        :meth:`unwatch`."""
        wake = asyncio.Event()
        loop = asyncio.get_running_loop()
        with self._mu:
            self._watchers.setdefault(task.id, []).append((loop, wake))
        return wake

    def unwatch(self, task: CampaignTask, wake: asyncio.Event) -> None:
        with self._mu:
            watchers = self._watchers.get(task.id, [])
            watchers[:] = [w for w in watchers if w[1] is not wake]
            if not watchers:
                self._watchers.pop(task.id, None)

    def _wake(self, task: CampaignTask) -> None:
        # caller holds _mu
        for loop, wake in self._watchers.get(task.id, ()):
            loop.call_soon_threadsafe(wake.set)
