"""Job execution: what actually runs inside a campaign worker.

:func:`execute_job` is the single entry point the scheduler submits to
the process pool (it must stay a module-level function so it pickles).
It dispatches on :attr:`JobSpec.kind`:

``run``
    one :func:`repro.experiments.runner.run_workload` invocation; the
    record carries the full :class:`RunResult` plus the profile
    database and replay log (when ``profile=True``).
``overhead``
    §7.1's trimmed mean over interleaved (native, sampled) run deps.
``speedup``
    makespan ratio of its (baseline, optimized) run deps.
``noop`` / ``sum``
    trivial self-test kinds used by the scheduler's own test suite and
    chaos drills; ``noop`` echoes ``extra``, ``sum`` adds dep values.

Determinism: a run job seeds every RNG it uses from the spec alone, so
executing it in a pool worker is bit-identical to executing it serially
in the driver process.

Fault injection (``JobSpec.inject``) makes the retry/crash machinery
testable: a marker file counts attempts across processes, and while the
count is below ``fail_times`` the worker raises, hard-exits, or sleeps
(``mode``: ``raise`` / ``exit`` / ``sleep``) before doing real work —
or, with ``mode="kill_mid_run"``, arms a :mod:`repro.faults` kill so
the simulation dies from *inside* after ``after_samples`` delivered
samples (``kill_mode`` ``"raise"`` for an in-process crash the
scheduler retries, ``"exit"`` for a hard worker death the pool sees as
``BrokenProcessPool``).
"""

from __future__ import annotations

import os
import signal
from collections.abc import Iterator
from contextlib import contextmanager
from types import FrameType
from dataclasses import asdict, replace
from pathlib import Path

from ..core.export import profile_to_dict
from ..sim.config import MachineConfig
from .spec import JobSpec


class JobTimeout(Exception):
    """The job exceeded the scheduler's per-job timeout (retryable)."""


class InjectedFault(RuntimeError):
    """A test-injected failure (see ``JobSpec.inject``)."""


@contextmanager
def _deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`JobTimeout` after ``seconds`` of wall time.

    Uses ``SIGALRM``, so it only arms on platforms that have it and in
    a main thread — exactly the situation of a pool worker process.
    """
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return
    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not in the main thread
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _on_alarm(signum: int, frame: FrameType | None) -> None:
    raise JobTimeout("per-job timeout expired")


def _apply_injection(inject: dict) -> dict | None:
    """Misbehave until the attempt counter reaches ``fail_times``.

    Returns fault-plan overrides to arm on the run's config (mode
    ``kill_mid_run``), or ``None`` when the injection acts — or does
    nothing — before the job body runs.
    """
    marker = inject.get("marker")
    fail_times = int(inject.get("fail_times", 0))
    if not marker or fail_times <= 0:
        return None
    path = Path(marker)
    attempts = len(path.read_text().splitlines()) if path.exists() else 0
    if attempts >= fail_times:
        return None
    with path.open("a") as fh:
        fh.write(f"attempt {attempts + 1} pid {os.getpid()}\n")
    mode = inject.get("mode", "raise")
    if mode == "kill_mid_run":
        # die *during* the simulation, not before it: arm the faults
        # layer to kill after N delivered samples (WorkerKilled for
        # "raise", a hard exit for "exit")
        return {
            "kill_after_samples": int(inject.get("after_samples", 50)),
            "kill_mode": inject.get("kill_mode", "raise"),
        }
    if mode == "exit":
        # simulate a segfaulting / OOM-killed worker: the pool sees a
        # BrokenProcessPool, not an exception
        os._exit(66)
    if mode == "sleep":
        import time

        time.sleep(float(inject.get("sleep", 60.0)))
        return None
    raise InjectedFault(f"injected failure (attempt {attempts + 1} of "
                        f"{fail_times})")


def _arm_kill(spec: JobSpec, overrides: dict) -> JobSpec:
    """Merge mid-run kill overrides into the spec's config fault plan.

    Only this attempt's in-memory spec changes; the stored record key is
    the scheduler's, and an armed attempt dies before producing one.
    """
    config = dict(spec.config or {})
    plan = dict(config.get("fault_plan") or {})
    plan.update(overrides)
    config["fault_plan"] = plan
    return replace(spec, config=config)


# ---------------------------------------------------------------------------
# kind handlers
# ---------------------------------------------------------------------------


def _run_job(spec: JobSpec, deps: dict[str, dict]) -> dict:
    # imported here so that importing the campaign package does not
    # load every workload module
    from ..experiments.runner import run_workload

    config = None
    if spec.config is not None:
        config = MachineConfig(n_threads=spec.n_threads).evolve(**spec.config)
    out = run_workload(
        spec.workload,
        n_threads=spec.n_threads,
        scale=spec.scale,
        seed=spec.seed,
        config=config,
        profile=spec.profile,
        instrument=spec.instrument,
        trace=spec.trace,
        metrics=spec.metrics,
        # every profiled campaign run records its observation stream
        # (repro.replay), so any cached experiment replays offline
        record=spec.profile,
        **(spec.params or {}),
    )
    record: dict = {
        "kind": "run",
        "spec": spec.identity(),
        "result": asdict(out.result),
    }
    if out.profile is not None:
        record["profile_db"] = profile_to_dict(out.profile)
    if out.replay_log is not None:
        record["replay_log"] = out.replay_log
    return record


def _makespan(record: dict) -> int:
    return record["result"]["makespan"]


def _overhead_job(spec: JobSpec, deps: dict[str, dict]) -> dict:
    """Trimmed-mean overhead over interleaved (native, sampled) deps."""
    extra = spec.extra or {}
    drop = int(extra.get("drop", 0))
    pairs = [(spec.deps[i], spec.deps[i + 1])
             for i in range(0, len(spec.deps), 2)]
    overheads = [
        _makespan(deps[sampled]) / _makespan(deps[native]) - 1.0
        for native, sampled in pairs
    ]
    trimmed = sorted(overheads)
    if drop and len(trimmed) > 2 * drop:
        trimmed = trimmed[drop:-drop]
    return {
        "kind": "overhead",
        "spec": spec.identity(),
        "mean": sum(trimmed) / len(trimmed),
        "overheads": overheads,
        "runs": len(overheads),
        "drop": drop,
    }


def _speedup_job(spec: JobSpec, deps: dict[str, dict]) -> dict:
    base_key, opt_key = spec.deps
    return {
        "kind": "speedup",
        "spec": spec.identity(),
        "speedup": _makespan(deps[base_key]) / _makespan(deps[opt_key]),
        "baseline_makespan": _makespan(deps[base_key]),
        "optimized_makespan": _makespan(deps[opt_key]),
    }


def _noop_job(spec: JobSpec, deps: dict[str, dict]) -> dict:
    return {"kind": "noop", "spec": spec.identity(),
            "value": (spec.extra or {}).get("value")}


def _sum_job(spec: JobSpec, deps: dict[str, dict]) -> dict:
    return {"kind": "sum", "spec": spec.identity(),
            "value": sum(deps[d]["value"] for d in spec.deps)}


HANDLERS = {
    "run": _run_job,
    "overhead": _overhead_job,
    "speedup": _speedup_job,
    "noop": _noop_job,
    "sum": _sum_job,
}


def execute_job(spec_dict: dict, dep_records: dict[str, dict],
                timeout: float | None = None) -> dict:
    """Execute one job; the scheduler's pool entry point."""
    spec = JobSpec.from_dict(spec_dict)
    handler = HANDLERS.get(spec.kind)
    if handler is None:
        raise ValueError(f"unknown job kind {spec.kind!r}")
    with _deadline(timeout):
        if spec.inject:
            overrides = _apply_injection(spec.inject)
            if overrides is not None:
                spec = _arm_kill(spec, overrides)
        return handler(spec, dep_records)

