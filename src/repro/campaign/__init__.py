"""repro.campaign — batch-experiment orchestration with a persistent,
content-addressed result store.

The paper's evaluation protocol (§7.1) is a large, embarrassingly
parallel campaign: every HTMBench program runs several times native and
several times sampled, and derived statistics (trimmed-mean overhead,
speedups, figure rows) reduce over those runs.  This package turns that
protocol into data:

* :mod:`~repro.campaign.spec` — a declarative :class:`JobSpec` (workload,
  threads, scale, seed, config, profile flag) with a stable content
  hash, and :class:`Campaign` DAGs whose derived jobs depend on the run
  jobs they reduce over.
* :mod:`~repro.campaign.scheduler` — a dependency-aware executor that
  runs ready jobs on a ``ProcessPoolExecutor`` (``--jobs N``), with
  per-job timeouts, bounded retry with backoff for crashed workers, and
  graceful degradation to serial in-process execution at ``--jobs 1``.
* :mod:`~repro.campaign.store` — an on-disk result store under
  ``.repro-cache/``: one append-only log of CRC-framed records keyed by
  job hash, an in-memory index rebuilt by scanning it, and a compaction
  pass that rewrites it without superseded records.  Re-running any
  campaign is incremental.
* :mod:`~repro.campaign.suites` — campaign builders for the paper's
  harnesses (``table1``, ``figure7``, ``figure8``, ``overhead``,
  ``speedup``) and the assemblers that turn their records into figure
  rows; the ``python -m repro`` commands and the
  :mod:`repro.experiments` harnesses both run them.

Determinism: a run job executed in a worker process is bit-identical to
the same run executed serially in-process — every run seeds its own
RNGs from the spec (no RNG state is shared across workers), and the
scheduler never reorders anything a result depends on.
"""

from .scheduler import CampaignError, CampaignRunner, JobFailed, RetryPolicy
from .spec import Campaign, JobSpec
from .store import MemoryStore, ResultStore, StoreError

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignRunner",
    "JobFailed",
    "JobSpec",
    "MemoryStore",
    "ResultStore",
    "RetryPolicy",
    "StoreError",
]
