"""Profiling-as-a-service: the ``repro serve`` campaign daemon.

The paper's profiler is a batch tool; this package promotes the
campaign layer into a long-lived service.  A stdlib-only asyncio
HTTP/JSON front end (:mod:`repro.serve.server`) accepts
:class:`~repro.campaign.spec.JobSpec` campaign submissions from many
concurrent clients, a small pool of runner threads drains them through
the existing dependency-aware :class:`~repro.campaign.scheduler.
CampaignRunner` (process workers underneath, same retry/timeout/
pool-rebuild machinery as the CLI), and every result lands in one
shared :class:`~repro.campaign.store.ResultStore` — so an
HTTP-submitted job is byte-identical to, and shares cache slots with,
the serial ``repro campaign`` command.

Modules:

- :mod:`repro.serve.protocol` — HTTP/1.1 wire plumbing (parsing,
  responses, chunked transfer), pure and synchronous.
- :mod:`repro.serve.registry` — campaign tasks, the one journaled
  transition path, and the ordered progress-event feed the streaming
  endpoint reads.
- :mod:`repro.serve.journal` — the crash-safe task journal (WAL-style,
  CRC-framed, group-committed) every state transition is appended to,
  and :class:`TaskRecord`, the persisted shape of a task.
- :mod:`repro.serve.supervise` — admission control (bounded queue,
  per-suite circuit breakers), journal recovery, graceful drain.
- :mod:`repro.serve.daemon` — the service core: validation, journal
  recovery, runner threads, store/metrics access.  No sockets.
- :mod:`repro.serve.server` — the asyncio front end and routes.
- :mod:`repro.serve.client` — a stdlib ``http.client`` client (with
  jittered retries and stream resume) used by ``repro submit`` /
  ``repro status --url``, the ``repro chaos --serve`` drill and the
  tests.
"""

from .client import ServeClient, ServeError
from .daemon import ServeDaemon
from .journal import JournalState, TaskJournal, TaskRecord
from .registry import CampaignTask, TaskRegistry
from .server import BackgroundServer, HttpFrontend, run_server
from .supervise import (
    Busy,
    CircuitBreaker,
    CircuitOpen,
    Draining,
    QueueFull,
    Supervisor,
)

__all__ = [
    "BackgroundServer",
    "Busy",
    "CampaignTask",
    "CircuitBreaker",
    "CircuitOpen",
    "Draining",
    "HttpFrontend",
    "JournalState",
    "QueueFull",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "Supervisor",
    "TaskJournal",
    "TaskRecord",
    "TaskRegistry",
    "run_server",
]
