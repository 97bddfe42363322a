"""Service supervision: admission control, circuit breaking, drain.

The :class:`Supervisor` sits between the HTTP layer and the daemon's
task registry and enforces the service-level robustness contracts:

* **bounded admission** — a full submission queue rejects with
  :class:`QueueFull` (HTTP 429 + ``Retry-After``), never a silent drop
  or unbounded memory;
* **per-suite circuit breaking** — a suite whose jobs keep failing
  trips its :class:`CircuitBreaker` open; subsequent submissions are
  rejected fast (:class:`CircuitOpen`, HTTP 503) until a cooldown
  elapses, then exactly one probe submission is let through half-open;
* **graceful drain** — :meth:`Supervisor.drain` stops admissions
  (:class:`Draining`, HTTP 503), waits for in-flight campaigns up to a
  deadline, then snapshots the task journal so the next start replays
  a compact, byte-stable file;
* **journal recovery** — :meth:`Supervisor.recover` replays the
  :class:`~repro.serve.journal.TaskJournal` and, when a dead process
  left work unfinished, journals a new lease epoch.

Task transitions themselves are journaled by
:meth:`~repro.serve.registry.TaskRegistry.transition`.

Everything takes an injectable monotonic ``clock`` so tests can drive
cooldowns without sleeping.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from threading import Lock

from .journal import JournalState, TaskJournal


class Busy(RuntimeError):
    """Admission refused; carries the HTTP status + Retry-After hint."""

    status = 503

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(retry_after + 0.999))


class QueueFull(Busy):
    """The bounded submission queue is at capacity."""

    status = 429


class CircuitOpen(Busy):
    """The suite's circuit breaker is open after repeated failures."""


class Draining(Busy):
    """The daemon is draining for shutdown; no new admissions."""


class CircuitBreaker:
    """Classic closed → open → half-open breaker for one job class.

    ``threshold`` consecutive failures open the circuit; after
    ``cooldown`` seconds one probe is allowed through (half-open); a
    probe success closes it, a probe failure re-opens it for another
    full cooldown.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._mu = Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._mu:
            return self._probe_state()

    def _probe_state(self) -> str:
        # must hold _mu; promotes open → half-open once cooled down
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.cooldown):
            self._state = "half-open"
            self._probe_inflight = False
        return self._state

    def retry_after(self) -> float:
        with self._mu:
            if self._probe_state() != "open":
                return 1.0
            return max(1.0,
                       self._opened_at + self.cooldown - self._clock())

    def allow(self) -> bool:
        """May one more submission enter?  In half-open this admits a
        single probe and shuts the door behind it until the probe
        reports back."""
        with self._mu:
            state = self._probe_state()
            if state == "closed":
                return True
            if state == "half-open" and not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._mu:
            self._state = "closed"
            self._failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._mu:
            if self._state != "closed":
                # failed probe (or failure while open): restart cooldown
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_inflight = False
                return
            self._failures += 1
            if self._failures >= self.threshold:
                self._state = "open"
                self._opened_at = self._clock()


class Supervisor:
    """Admission, breakers, lease epochs and drain for the serve
    daemon."""

    def __init__(self, journal: TaskJournal | None, *,
                 max_queue: int = 64,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.journal = journal
        self.max_queue = max_queue
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._clock = clock
        self._mu = Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self.epoch = 0
        self.recovered_tasks = 0
        self.expired_leases = 0
        self.rejected = 0
        self.draining = False
        self.drained = False

    # ----------------------------------------------------------- admission

    def breaker(self, suite: str) -> CircuitBreaker:
        with self._mu:
            br = self._breakers.get(suite)
            if br is None:
                br = CircuitBreaker(self.breaker_threshold,
                                    self.breaker_cooldown, self._clock)
                self._breakers[suite] = br
            return br

    def admit(self, suite: str, queue_depth: int) -> None:
        """Gate one submission; raises a :class:`Busy` subtype to
        reject (the HTTP layer maps it to 429/503 + Retry-After)."""
        if self.draining:
            self.rejected += 1
            raise Draining("daemon is draining; not accepting work")
        br = self.breaker(suite)
        if not br.allow():
            self.rejected += 1
            raise CircuitOpen(
                f"circuit open for suite {suite!r} after repeated "
                "failures; retry later", br.retry_after())
        if queue_depth >= self.max_queue:
            self.rejected += 1
            raise QueueFull(
                f"submission queue full ({queue_depth}/{self.max_queue})")

    # ------------------------------------------------------------ recovery

    def recover(self) -> JournalState:
        """Replay the journal; if it left unfinished work behind, bump
        the lease epoch and journal the takeover.  An idle restart
        appends nothing — that is the restart-is-a-no-op invariant."""
        if self.journal is None:
            return JournalState()
        state = self.journal.recover()
        self.epoch = state.epoch
        unfinished = state.unfinished
        self.recovered_tasks = len(unfinished)
        self.expired_leases = state.stale_leases
        if unfinished:
            self.epoch += 1
            self.journal.append("epoch", epoch=self.epoch,
                                pid=os.getpid(),
                                recovered=len(unfinished),
                                expired=self.expired_leases)
        return state

    # --------------------------------------------------------------- drain

    def drain(self, pending: Callable[[], int],
              snapshot: Callable[[], JournalState] | None,
              timeout: float = 30.0, poll: float = 0.05) -> bool:
        """Stop admissions, wait for in-flight work up to ``timeout``
        seconds, then snapshot the journal.  Returns True if the queue
        fully drained before the deadline."""
        self.draining = True
        deadline = self._clock() + timeout
        while pending() > 0 and self._clock() < deadline:
            time.sleep(poll)
        clean = pending() == 0
        if self.journal is not None and snapshot is not None and clean:
            self.journal.snapshot(snapshot())
        self.drained = True
        return clean

    # --------------------------------------------------------------- stats

    def stats(self, queue_depth: int) -> dict:
        doc: dict = {
            "queue_depth": queue_depth,
            "max_queue": self.max_queue,
            "draining": self.draining,
            "rejected": self.rejected,
            "epoch": self.epoch,
            "recovered_tasks": self.recovered_tasks,
            "expired_leases": self.expired_leases,
            "breakers": {suite: br.state
                         for suite, br in sorted(self._breakers.items())},
        }
        if self.journal is not None:
            doc["journal"] = self.journal.stats()
        return doc
