"""Campaign-task lifecycle tracking for the serve daemon.

A :class:`CampaignTask` is one accepted submission: its journaled
:class:`~repro.serve.journal.TaskRecord` (id, document, state machine
``queued → running → publishing → done | failed``, outcome,
timestamps), extended with what lives only in memory — the built
:class:`~repro.campaign.spec.Campaign`, the runner knobs, and an
ordered list of progress events (each stamped with a monotonically
increasing index ``i``) appended by the scheduler's ``on_event``
callback.  The :class:`TaskRegistry` owns the id namespace and the
lock; :meth:`TaskRegistry.transition` is the one path that journals a
state change and then applies it.  The streaming endpoint reads
``events_since`` snapshots and never blocks a writer.

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
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .journal import FINAL_STATES, TaskJournal, TaskRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..campaign.spec import Campaign


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


@dataclass(kw_only=True)
class CampaignTask(TaskRecord):
    """One submitted campaign: its journaled :class:`TaskRecord` plus
    what lives only in memory and is rebuilt on recovery."""

    campaign: Campaign
    jobs: int
    timeout: float | None
    refresh: bool
    events: list[dict] = field(default_factory=list)
    #: monotonic timestamp the ``deadline`` budget expires at
    deadline_at: float | None = None
    #: True when this task was rebuilt from the journal after a crash
    recovered: bool = False

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

    def __init__(self, journal: TaskJournal | None = None) -> None:
        #: every transition is appended here before memory moves
        self.journal = journal
        self._mu = threading.Lock()
        #: task id -> task, in submission order
        self._tasks: dict[str, CampaignTask] = {}
        self._next_id = 1
        #: task id -> the streams watching it, each woken on its loop
        self._watchers: dict[
            str, list[tuple[asyncio.AbstractEventLoop, asyncio.Event]]] = {}

    def add(self, task: CampaignTask) -> CampaignTask:
        """Register ``task``, allocating its id — or, for a task rebuilt
        from the journal, keeping the pre-crash one so ``status`` keeps
        resolving it.  The id counter always advances past restored ids
        so fresh submissions never collide with replayed ones."""
        with self._mu:
            if not task.id:
                task.id = f"c-{self._next_id:06d}"
                self._next_id += 1
            else:
                if task.id in self._tasks:
                    raise ValueError(f"duplicate task id {task.id!r}")
                tail = task.id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    self._next_id = max(self._next_id, int(tail) + 1)
            self._tasks[task.id] = task
            return task

    def get(self, task_id: str) -> CampaignTask | None:
        with self._mu:
            return self._tasks.get(task_id)

    def remove(self, task_id: str) -> CampaignTask | None:
        """Forget a task that never got acked (its journal append
        failed) — otherwise it would occupy a queue slot forever."""
        with self._mu:
            return self._tasks.pop(task_id, None)

    def list(self) -> list[CampaignTask]:
        with self._mu:
            return list(self._tasks.values())

    def counts(self) -> dict[str, int]:
        """Tasks by state (the queue-depth gauge reads this)."""
        with self._mu:
            by_state: dict[str, int] = {}
            for task in self._tasks.values():
                by_state[task.state] = by_state.get(task.state, 0) + 1
            return by_state

    # ---------------------------------------------------------- lifecycle

    def transition(self, task: CampaignTask, state: str,
                   **changes: object) -> None:
        """Move ``task`` to ``state``, setting ``changes`` on it.

        Journal first, memory second: the entry is appended outside the
        lock (an fsync must not stall readers), then the task changes
        and its streams wake under the lock.  A kill between the two is
        exactly what recovery replays.  ``queued`` journals the task's
        ``accepted`` entry: the ack point of a submission.
        """
        if state in FINAL_STATES:
            changes["finished_at"] = time.time()
        if self.journal is not None:
            kind, fields = replace(task, state=state, **changes).entry()
            self.journal.append(kind, **fields)
        with self._mu:
            task.state = state
            for name, value in changes.items():
                setattr(task, name, value)
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
            return list(fresh), task.finished

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
