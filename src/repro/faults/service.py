"""Service-layer chaos: kill the daemon, not just the workers.

:mod:`repro.faults.chaos` proves the *profiler* degrades gracefully
under observation loss; this module proves the *service* does under
process loss.  A :class:`ServiceChaosPlan` names the seeded faults to
inject above the simulator:

* **daemon SIGKILL at named journal boundaries** — an in-process
  :class:`~repro.campaign.store.CrashPoint` raised from the task
  journal's crash hook at each ``journal-<state>[-durable]`` boundary
  (``journal-<state>`` before the entry is written; ``-durable`` once
  its append returns — after the fsync for ``accepted``, ``done``,
  ``failed`` and ``epoch``, after the write for ``running`` and
  ``publishing``, which are not fsynced), followed by abandonment of
  every open file handle (the store's crash-test idiom: nothing
  flushed, nothing closed cleanly; bytes still in Python's buffers
  are dropped, as a kill drops them);
* **mid-stream connection resets** — the HTTP front end hard-aborts
  (RST) the progress-event stream after a flushed batch, exercising
  the client's ``since``-cursor resume;
* **store byte corruption** — a seeded byte in the record log and in a
  ``.rlog`` sidecar is zeroed, exercising ``repro store scrub``
  detection and ``--repair`` quarantine;
* **pool worker SIGKILL** — a live HTTP daemon takes two suites from
  two concurrent clients while one of its pool worker processes is
  killed mid-job, exercising the scheduler's pool rebuild and retry.

:func:`run_service_drill` executes the plan and asserts the service
invariants the tentpole promises:

1. **no acked submission lost** — if ``submit`` returned, the restarted
   daemon resolves the pre-crash campaign id and completes it; and no
   journal entry an append reported written is missing from the file
   after the kill;
2. **results byte-identical to the serial CLI** — recovered records and
   ``.rlog`` sidecars match a crash-free ``repro campaign`` run byte
   for byte, and a sidecar fetched over HTTP matches its file;
3. **recovery idempotent** — after a clean close, reopening and closing
   the daemon again changes no byte on disk;
4. **stream resume is lossless** — a reset feed replays with contiguous
   event indices and reaches the terminal event;
5. **corruption is detected and repairable** — scrub reports the
   damaged files and ``--repair`` leaves a clean store behind;
6. **a killed worker costs nothing** — both campaigns finish, and the
   progress feed streams ``plan`` through ``done`` in index order.

Everything serve/campaign is imported lazily so ``repro.faults`` keeps
no import-time dependency on the service stack.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import random
import shutil
import signal
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .plan import FaultPlanError

if TYPE_CHECKING:  # pragma: no cover
    from ..serve.daemon import ServeDaemon

#: the tiny fixed-seed campaign every drill phase runs — small enough
#: to execute a dozen times in CI, deterministic enough to byte-compare
DRILL_SUBMISSION: dict[str, Any] = {
    "suite": "overhead",
    "workloads": ["micro_low_abort"],
    "n_threads": 2,
    "scale": 0.25,
    "seed": 0,
    "runs": 1,
    "drop": 0,
    "jobs": 1,
}

#: the worker-kill cell's two suites, submitted from two concurrent
#: clients: one reducer DAG (overhead) and one profiled suite producing
#: .rlog sidecars (figure8); ``jobs`` 2 so there is a pool worker to kill
WORKER_KILL_SUBMISSIONS: tuple[dict[str, Any], ...] = (
    {"suite": "overhead", "workloads": ["micro_low_abort"],
     "n_threads": 2, "scale": 0.25, "runs": 3, "drop": 0, "jobs": 2},
    {"suite": "figure8", "workloads": ["micro_low_abort",
                                       "micro_capacity"],
     "n_threads": 2, "scale": 0.25, "seed": 0, "jobs": 2},
)

#: ``repro campaign`` flag for each campaign-identity submission field
_CLI_FLAGS = {"n_threads": "--threads", "scale": "--scale",
              "seed": "--seed", "runs": "--runs", "drop": "--drop"}

_WAIT_TIMEOUT_S = 300.0
_POLL_S = 0.02


@dataclass(frozen=True)
class ServiceChaosPlan:
    """Seeded, declarative description of the service faults to drill."""

    seed: int = 0
    #: journal boundaries to SIGKILL the daemon at; empty = all of them
    boundaries: tuple[str, ...] = ()
    #: how many mid-stream connection resets to inject
    stream_resets: int = 2
    #: how many bytes to corrupt per damaged store file
    corrupt_bytes: int = 1

    def validate(self) -> None:
        from ..serve.journal import BOUNDARIES

        unknown = sorted(set(self.boundaries) - set(BOUNDARIES))
        if unknown:
            raise FaultPlanError(
                f"unknown journal boundary(ies): {unknown} "
                f"(known: {', '.join(BOUNDARIES)})")
        if self.stream_resets < 0:
            raise FaultPlanError("stream_resets must be >= 0")
        if self.corrupt_bytes < 0:
            raise FaultPlanError("corrupt_bytes must be >= 0")

    def resolved_boundaries(self) -> tuple[str, ...]:
        from ..serve.journal import BOUNDARIES

        return self.boundaries or BOUNDARIES

    # ------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Canonical minimal form, mirroring :class:`FaultPlan`."""
        defaults = ServiceChaosPlan()
        doc: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != getattr(defaults, f.name):
                doc[f.name] = list(value) if isinstance(value, tuple) \
                    else value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> ServiceChaosPlan:
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise FaultPlanError(
                f"unknown service chaos field(s): {sorted(unknown)}")
        coerced = dict(doc)
        if "boundaries" in coerced:
            coerced["boundaries"] = tuple(coerced["boundaries"])
        plan = cls(**coerced)
        plan.validate()
        return plan


@dataclass
class DrillCell:
    """One drill scenario and its verdict."""

    name: str
    ok: bool
    detail: str


@dataclass
class ServiceDrillReport:
    """Everything ``repro chaos --serve`` asserts, cell by cell."""

    plan: ServiceChaosPlan
    cells: list[DrillCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "ok": self.ok,
            "cells": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                      for c in self.cells],
        }

    def render(self) -> str:
        lines = ["service chaos drill "
                 + ("PASSED" if self.ok else "FAILED")]
        for cell in self.cells:
            mark = "ok  " if cell.ok else "FAIL"
            lines.append(f"  [{mark}] {cell.name}: {cell.detail}")
        return "\n".join(lines)


class _DieAt:
    """One-shot crash hook: raises CrashPoint the first time the named
    boundary is crossed, then never again (the restart must survive)."""

    def __init__(self, step: str) -> None:
        self.step = step
        self.died = False

    def __call__(self, step: str) -> None:
        from ..campaign.store import CrashPoint

        if step == self.step and not self.died:
            self.died = True
            raise CrashPoint(step)


# ---------------------------------------------------------- kill plumbing


def _drop(fh: Any) -> None:
    """Let go of ``fh`` as ``kill -9`` would: what reached the OS stays
    in the file, what is still in Python's buffer is lost.  Plain
    ``close()`` would flush that buffer, and so hide a missing flush.
    The descriptor is pointed at the null device first, so the close
    writes the buffer nowhere."""
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fh.fileno())
    finally:
        os.close(null)
    fh.close()


def _abandon_store(store: Any) -> None:
    """The store half of ``kill -9``: drop the crash hook and the log
    handle, losing whatever was never flushed (the idiom the store's
    own crash-property tests use)."""
    store._crash_hook = None
    if store._fh is not None:
        _drop(store._fh)
        store._fh = None


def _abandon_daemon(daemon: ServeDaemon) -> int:
    """Abandon a daemon as a hard kill would: no drain, no snapshot,
    no store close — just every file handle dropped mid-state.

    Returns how many journal entries the daemon had reported written
    that the file lost.  A kill keeps every byte that reached the OS,
    so anything but 0 means an append returned before its entry left
    Python's buffer."""
    from ..campaign.durable import decode, read, scan

    daemon._closed = True  # a later close() must not tidy anything up
    daemon._runners.shutdown(wait=False, cancel_futures=True)
    lost = 0
    journal = daemon.journal
    if journal is not None:
        journal._crash_hook = None
        if journal._fh is not None:
            _drop(journal._fh)
            journal._fh = None
        found = scan(read(journal.path), decode)
        kept = max((int(e.get("seq", 0)) for e in found.entries),
                   default=0)
        lost = max(0, journal._written_seq - kept)
    _abandon_store(daemon.store)
    return lost


def _wait_for(cond: Callable[[], bool], what: str,
              timeout: float = _WAIT_TIMEOUT_S) -> None:
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() >= deadline:
            raise TimeoutError(f"drill timed out waiting for {what}")
        time.sleep(_POLL_S)


def _settled(daemon: ServeDaemon) -> bool:
    tasks = daemon.registry.list()
    return bool(tasks) and all(t.finished for t in tasks)


def _disk_state(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ------------------------------------------------------------- baselines


def _serial_baseline(
        root: Path, docs: Sequence[dict],
) -> tuple[list[str], dict[str, str], dict[str, bytes]]:
    """Run each submission through the plain ``repro campaign`` CLI
    path into ``root`` and capture the byte-identity targets: canonical
    record JSON per target key plus every ``.rlog`` sidecar."""
    from ..campaign.store import ResultStore
    from ..campaign.suites import build_campaign, submission_kwargs
    from ..cli import main as cli_main

    cli_log = logging.getLogger("repro.cli")
    keys: list[str] = []
    for doc in docs:
        suite, kwargs = submission_kwargs(doc)
        campaign = build_campaign(suite, **kwargs)
        keys += campaign.targets or list(campaign.jobs)
        argv = ["-q", "campaign", suite, *(kwargs.get("workloads") or []),
                "--jobs", "1", "--cache-dir", str(root)]
        for name, flag in _CLI_FLAGS.items():
            if name in kwargs:
                argv += [flag, str(kwargs[name])]
        level = cli_log.level
        try:
            rc = cli_main(argv)
        finally:
            cli_log.setLevel(level)  # -q must not silence the caller
        if rc != 0:
            raise RuntimeError(f"serial baseline: repro campaign {suite} "
                               f"exited {rc}")
    records: dict[str, str] = {}
    store = ResultStore(root)
    try:
        for key in keys:
            records[key] = json.dumps(store.fetch(key), sort_keys=True)
    finally:
        store.close()
    rlogs = {p.name: p.read_bytes()
             for p in sorted((root / "replay").glob("*.rlog"))}
    return keys, records, rlogs


def _compare_results(daemon: ServeDaemon, serve_root: Path,
                     keys: list[str], serial_records: dict[str, str],
                     serial_rlogs: dict[str, bytes]) -> str | None:
    """None when the serve-side results are byte-identical to the
    serial baseline; otherwise what diverged."""
    for key in keys:
        record = daemon.store.fetch(key)
        if record is None:
            return f"no record for target {key[:12]} after recovery"
        if json.dumps(record, sort_keys=True) != serial_records[key]:
            return f"record {key[:12]} differs from the serial run"
    serve_rlogs = {p.name: p.read_bytes()
                   for p in sorted((serve_root / "replay")
                                   .glob("*.rlog"))}
    if serve_rlogs != serial_rlogs:
        return "replay sidecars differ from the serial run"
    return None


def _kill_one_worker(stop: threading.Event, killed: list[int]) -> None:
    """SIGKILL the first pool worker process that appears — the hard
    death the scheduler must absorb via pool rebuild + retry."""
    deadline = time.monotonic() + _WAIT_TIMEOUT_S
    while not stop.is_set() and time.monotonic() < deadline:
        for child in multiprocessing.active_children():
            if child.pid is None:
                continue
            try:
                os.kill(child.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            killed.append(child.pid)
            return
        time.sleep(_POLL_S)


# ----------------------------------------------------- the boundary cell


def _run_boundary_cell(
        boundary: str, workdir: Path, doc: dict, keys: list[str],
        serial_records: dict[str, str],
        serial_rlogs: dict[str, bytes]) -> DrillCell:
    """Kill a daemon at ``boundary``, restart it, and assert: no acked
    submission lost, recovery completes the campaign byte-identically,
    and a second restart is a byte-for-byte no-op."""
    from ..campaign.store import CrashPoint, ResultStore
    from ..serve.daemon import ServeDaemon

    serve_root = workdir / f"serve-{boundary}"

    # epoch entries are only written by a *recovery* that found
    # unfinished work — so manufacture the unfinished work with a
    # helper crash first, then arm the target boundary for the restart
    if boundary.startswith("journal-epoch"):
        first_hook = _DieAt("journal-running-durable")
        target_hook = _DieAt(boundary)
    else:
        first_hook = target_hook = _DieAt(boundary)
    # failed entries need a campaign that actually fails: ride a second,
    # deadline-doomed submission alongside the healthy one
    doomed = boundary.startswith("journal-failed")

    def fail(detail: str) -> DrillCell:
        return DrillCell(name=boundary, ok=False, detail=detail)

    lost = 0  # journal entries reported written that a kill lost

    def abandon(daemon: ServeDaemon) -> None:
        nonlocal lost
        lost += _abandon_daemon(daemon)

    # ---- phase 1: first daemon, killed at (or en route to) the target
    acked = False
    task_id: str | None = None
    store = ResultStore(serve_root)
    daemon: ServeDaemon | None
    try:
        daemon = ServeDaemon(store=store, runners=1, default_jobs=1,
                             journal_crash_hook=first_hook)
    except CrashPoint:  # pragma: no cover - first boot never recovers
        _abandon_store(store)
        daemon = None
    doomed_id: str | None = None
    if daemon is not None:
        try:
            task = daemon.submit(dict(doc))
            acked = True
            task_id = task.id
        except CrashPoint:
            pass  # submit crashed: the client never got an ack
        if acked and doomed:
            doomed_id = daemon.submit({**doc, "deadline": 1e-6}).id
        if acked:
            _wait_for(lambda: first_hook.died or _settled(daemon),
                      f"{boundary}: crash or completion")
        if first_hook.died:
            abandon(daemon)
        else:
            # boundary not crossed while running (e.g. the snapshot
            # rewrite): it fires inside the clean-close path
            try:
                daemon.close()
            except CrashPoint:
                abandon(daemon)

    # ---- phase 2: restart until a daemon survives and settles
    final: ServeDaemon | None = None
    for _ in range(4):
        hook = None if target_hook.died else target_hook
        store = ResultStore(serve_root)
        try:
            candidate = ServeDaemon(store=store, runners=1,
                                    default_jobs=1,
                                    journal_crash_hook=hook)
        except CrashPoint:
            _abandon_store(store)  # died mid-recovery; restart again
            continue
        if not candidate.registry.list():
            # nothing durable survived (legal only if never acked):
            # the client's retry resubmits
            try:
                candidate.submit(dict(doc))
            except CrashPoint:
                abandon(candidate)
                continue
        # only an armed hook may cut the wait short: a hook that
        # already fired in an earlier incarnation can never kill
        # *this* daemon
        _wait_for(lambda: ((hook is not None and hook.died)
                           or _settled(candidate)),
                  f"{boundary}: recovery completion")
        if not _settled(candidate):
            abandon(candidate)
            continue
        final = candidate
        break
    if final is None:
        return fail("no restart survived to completion")
    if lost:
        _abandon_daemon(final)
        return fail(f"a kill lost {lost} journal entries an append "
                    "had reported written")
    if not target_hook.died:
        _abandon_daemon(final)
        return fail("target boundary was never crossed")

    # ---- invariant 1: no acked submission lost
    if acked:
        assert task_id is not None
        recovered = final.registry.get(task_id)
        if recovered is None:
            _abandon_daemon(final)
            return fail(f"acked submission {task_id} lost across "
                        "the crash")
        if recovered.state != "done":
            _abandon_daemon(final)
            return fail(f"acked submission {task_id} ended "
                        f"{recovered.state!r}: {recovered.error}")
    if doomed_id is not None:
        doomed_task = final.registry.get(doomed_id)
        if doomed_task is None:
            _abandon_daemon(final)
            return fail(f"acked (doomed) submission {doomed_id} lost "
                        "across the crash")
        if doomed_task.state != "failed":
            _abandon_daemon(final)
            return fail(f"doomed submission {doomed_id} should have "
                        f"failed, ended {doomed_task.state!r}")
    failed = [t.id for t in final.registry.list()
              if t.state == "failed" and t.id != doomed_id]
    if failed:
        _abandon_daemon(final)
        return fail(f"campaign(s) failed after recovery: {failed}")

    # ---- invariant 2: byte-identity with the serial CLI
    diverged = _compare_results(final, serve_root, keys,
                                serial_records, serial_rlogs)
    if diverged is not None:
        _abandon_daemon(final)
        return fail(diverged)

    # ---- invariant 3: recovery idempotent (clean close, then a
    # restart+close must not change one byte on disk)
    final.close()
    before = _disk_state(serve_root)
    store = ResultStore(serve_root)
    ServeDaemon(store=store, runners=1, default_jobs=1).close()
    after = _disk_state(serve_root)
    if before != after:
        changed = sorted(name for name in set(before) | set(after)
                         if before.get(name) != after.get(name))
        return fail(f"second restart rewrote {changed}")

    return DrillCell(
        name=boundary, ok=True,
        detail=f"acked={'yes' if acked else 'no'}, recovered "
               "byte-identical, restart is a no-op")


# ------------------------------------------------------ the other cells


def _run_stream_cell(plan: ServiceChaosPlan, doc: dict) -> DrillCell:
    """Reset the progress stream mid-feed ``stream_resets`` times and
    assert the client's cursor resume yields the complete, ordered
    feed every time."""
    from ..campaign.store import MemoryStore
    from ..serve.client import ServeClient
    from ..serve.daemon import ServeDaemon
    from ..serve.server import BackgroundServer

    name = "stream-resume"
    daemon = ServeDaemon(store=MemoryStore(), runners=1, default_jobs=1)
    server = BackgroundServer(daemon)
    try:
        port = server.start()
        client = ServeClient(f"http://127.0.0.1:{port}",
                             retries=max(2, plan.stream_resets),
                             retry_backoff=0.01,
                             retry_seed=plan.seed)
        submitted = client.submit(dict(doc))
        client.wait(submitted["id"], timeout=_WAIT_TIMEOUT_S)
        daemon.stream_resets_remaining = plan.stream_resets
        for round_no in range(max(1, plan.stream_resets)):
            events = list(client.stream_events(submitted["id"],
                                               since=0))
            indices = [e["i"] for e in events if "i" in e]
            if indices != list(range(len(indices))) or not indices:
                return DrillCell(
                    name=name, ok=False,
                    detail=f"round {round_no}: gap in resumed feed "
                           f"(indices {indices[:10]}...)")
            if events[-1].get("type") != "done":
                return DrillCell(
                    name=name, ok=False,
                    detail=f"round {round_no}: feed ended before the "
                           "terminal event")
        if daemon.stream_resets_remaining > 0:
            return DrillCell(
                name=name, ok=False,
                detail=f"{daemon.stream_resets_remaining} injected "
                       "reset(s) never fired")
        return DrillCell(
            name=name, ok=True,
            detail=f"{plan.stream_resets} reset(s) absorbed; feed "
                   "complete and ordered every round")
    finally:
        server.stop()
        daemon.close()


def _run_scrub_cell(plan: ServiceChaosPlan, workdir: Path,
                    doc: dict) -> DrillCell:
    """Corrupt seeded bytes in the record log and a sidecar; scrub must
    detect both, ``--repair`` must quarantine/amputate, and a follow-up
    scrub must come back clean."""
    from ..campaign.store import ResultStore, scrub_files

    name = "scrub-detects-corruption"
    root = workdir / "scrub"
    _serial_baseline(root, [doc])  # a healthy store to damage
    rng = random.Random(plan.seed)

    def corrupt(path: Path) -> None:
        data = bytearray(path.read_bytes())
        for _ in range(max(1, plan.corrupt_bytes)):
            offset = rng.randrange(len(data))
            data[offset] = 0x00 if data[offset] != 0x00 else 0x01
        path.write_bytes(bytes(data))

    log = root / ResultStore.LOG
    sidecars = sorted((root / "replay").glob("*.rlog"))
    if not log.exists() or not sidecars:
        return DrillCell(name=name, ok=False,
                         detail="baseline store has no record log or "
                                "sidecar to corrupt")
    corrupt(log)
    corrupt(sidecars[0])
    first = scrub_files(root)
    if first["clean"]:
        return DrillCell(name=name, ok=False,
                         detail="scrub missed the injected corruption")
    repaired = scrub_files(root, repair=True)
    if repaired["summary"]["repaired"] < 1:
        return DrillCell(name=name, ok=False,
                         detail="--repair repaired nothing")
    final = scrub_files(root)
    if final["summary"]["torn"] or final["summary"]["corrupt"]:
        return DrillCell(name=name, ok=False,
                         detail="store still damaged after repair")
    return DrillCell(
        name=name, ok=True,
        detail=f"detected {first['summary']['corrupt']} corrupt + "
               f"{first['summary']['torn']} torn, repaired "
               f"{repaired['summary']['repaired']}, clean after")


def _run_worker_kill_cell(workdir: Path) -> DrillCell:
    """Two concurrent clients submit both suites to a live HTTP daemon
    over a disk store while one pool worker is SIGKILLed; assert both
    campaigns finish, the progress feed streams in order, and every
    result is byte-identical to the serial CLI's — on disk and, for
    one sidecar, over HTTP."""
    from ..campaign.store import ResultStore
    from ..serve.client import ServeClient
    from ..serve.daemon import ServeDaemon
    from ..serve.server import BackgroundServer

    name = "worker-sigkill"
    keys, serial_records, serial_rlogs = _serial_baseline(
        workdir / name / "serial", WORKER_KILL_SUBMISSIONS)
    serve_root = workdir / name / "serve"
    daemon = ServeDaemon(store=ResultStore(serve_root),
                         runners=2)
    server = BackgroundServer(daemon)
    stop = threading.Event()
    killed: list[int] = []
    killer = threading.Thread(target=_kill_one_worker,
                              args=(stop, killed))
    finals: dict[str, dict] = {}

    def submit_and_wait(client: ServeClient, doc: dict) -> None:
        accepted = client.submit(doc)
        finals[doc["suite"]] = client.wait(accepted["id"],
                                           timeout=_WAIT_TIMEOUT_S)

    def fail(detail: str) -> DrillCell:
        return DrillCell(name=name, ok=False, detail=detail)

    try:
        url = f"http://127.0.0.1:{server.start()}"
        clients = [ServeClient(url) for _ in WORKER_KILL_SUBMISSIONS]
        submitters = [threading.Thread(target=submit_and_wait,
                                       args=(client, doc))
                      for client, doc in zip(clients,
                                             WORKER_KILL_SUBMISSIONS)]
        killer.start()
        for t in submitters:
            t.start()
        # stream whichever campaign was accepted first, live
        events: list[dict] = []
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            campaigns = clients[0].campaigns()
            if campaigns:
                events = list(clients[0].stream_events(
                    campaigns[0]["id"]))
                break
            time.sleep(_POLL_S)
        for t in submitters:
            t.join(timeout=_WAIT_TIMEOUT_S)
        stop.set()
        killer.join(timeout=5.0)
        for doc in WORKER_KILL_SUBMISSIONS:
            final = finals.get(doc["suite"])
            if final is None or final.get("state") != "done":
                return fail(f"campaign {doc['suite']} final status: "
                            f"{final}")
        if not killed:
            return fail("no pool worker appeared to kill")
        types = {e.get("type") for e in events}
        if "plan" not in types or "done" not in types:
            return fail(f"event stream lacks plan/done: {types}")
        indices = [e["i"] for e in events]
        if indices != sorted(indices):
            return fail("event indices out of order")
        backend = clients[0].stats()["store"]["backend"]
        if backend != "disk":
            return fail(f"/v1/stats reports the {backend!r} backend")
        diverged = _compare_results(daemon, serve_root, keys,
                                    serial_records, serial_rlogs)
        if diverged is not None:
            return fail(diverged)
        key = finals["figure8"]["target_keys"][0]
        sidecar = serve_root / ResultStore.REPLAY_DIR / f"{key}.rlog"
        if clients[0].rlog(key) != sidecar.read_bytes():
            return fail(f"sidecar {key[:12]} over HTTP differs from "
                        "the file")
        return DrillCell(
            name=name, ok=True,
            detail=f"{len(killed)} worker(s) killed; {len(events)} "
                   f"events in order; {len(keys)} records + "
                   f"{len(serial_rlogs)} sidecars byte-identical")
    finally:
        stop.set()
        server.stop()
        daemon.close()


# ------------------------------------------------------------- the drill


def run_service_drill(
        plan: ServiceChaosPlan | dict | None = None,
        *,
        submission: dict | None = None,
        workdir: str | Path | None = None,
        artifact_dir: str | Path | None = None) -> ServiceDrillReport:
    """Execute the full service-layer chaos drill; see the module
    docstring for the invariants each cell asserts.  With
    ``artifact_dir``, failing cells dump their journal and store files
    (plus ``report.json``) for offline analysis."""
    import tempfile

    if plan is None:
        plan = ServiceChaosPlan()
    elif isinstance(plan, dict):
        plan = ServiceChaosPlan.from_dict(plan)
    else:
        plan.validate()
    doc = dict(submission or DRILL_SUBMISSION)
    report = ServiceDrillReport(plan=plan)

    tmp: tempfile.TemporaryDirectory[str] | None = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-chaos-")
        workdir = tmp.name
    workdir = Path(workdir)
    try:
        serial_root = workdir / "serial"
        keys, serial_records, serial_rlogs = _serial_baseline(
            serial_root, [doc])
        for boundary in plan.resolved_boundaries():
            cell = _run_boundary_cell(boundary, workdir, doc, keys,
                                      serial_records, serial_rlogs)
            report.cells.append(cell)
            if not cell.ok and artifact_dir is not None:
                _dump_artifacts(workdir / f"serve-{boundary}",
                                Path(artifact_dir) / boundary)
        cell = _run_worker_kill_cell(workdir)
        report.cells.append(cell)
        if not cell.ok and artifact_dir is not None:
            # both stores: the serial baseline and the service's
            _dump_artifacts(workdir / cell.name,
                            Path(artifact_dir) / cell.name)
        if plan.stream_resets:
            report.cells.append(_run_stream_cell(plan, doc))
        if plan.corrupt_bytes:
            report.cells.append(_run_scrub_cell(plan, workdir, doc))
        if artifact_dir is not None and not report.ok:
            out = Path(artifact_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "report.json").write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
                + "\n")
        return report
    finally:
        if tmp is not None:
            tmp.cleanup()


def _dump_artifacts(root: Path, out: Path) -> None:
    """Copy the failing cell's journal + store files for the CI
    artifact upload (tiny: one micro campaign's worth)."""
    if not root.is_dir():
        return
    out.mkdir(parents=True, exist_ok=True)
    for path in sorted(root.rglob("*")):
        if path.is_file():
            target = out / path.relative_to(root)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, target)
