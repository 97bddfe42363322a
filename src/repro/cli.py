"""Command-line interface — the analogue of the paper artifact's scripts.

The PPoPP artifact ships ``measure_overhead.py``, ``measure_speedup.py``
and ``generate_profile.py``; this CLI mirrors them (plus the figure
harnesses, a viewer for saved profile databases, the ``repro.obs``
event tracer, and the ``repro.campaign`` batch orchestrator)::

    python -m repro list
    python -m repro check micro_capacity --json
    python -m repro run dedup --guidance --save-db dedup.json
    python -m repro record dedup --out dedup.rlog
    python -m repro replay dedup.rlog --save-db dedup-replayed.json
    python -m repro diff dedup.json dedup.rlog
    python -m repro trace dedup --trace-out dedup-trace.json
    python -m repro view dedup.json
    python -m repro chaos --rates 0.25,0.5
    python -m repro measure-overhead vacation histo
    python -m repro measure-speedup all
    python -m repro table1 | figure7 | figure8 | correctness
    python -m repro campaign figure8 --jobs 8

All commands accept ``--threads``, ``--scale`` and ``--seed``; the
global ``-v``/``-q`` flags (before the subcommand) adjust verbosity.

The measurement commands ``measure-overhead``, ``measure-speedup``,
``figure7`` and ``figure8`` each run ``repro campaign <suite>`` with
their own defaults: results are cached content-addressed under
``.repro-cache/`` (override with ``--cache-dir`` or ``REPRO_CACHE_DIR``,
disable with ``--no-cache``), re-runs are incremental, and ``--jobs N``
executes independent runs on N worker processes.  The campaign summary
(cache hits, retries) goes to stderr so stdout stays byte-identical to
the serial output.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import closing

from . import htmbench
from .campaign.scheduler import CampaignError, CampaignRunner, RetryPolicy
from .campaign.spec import make_run_spec
from .campaign.store import MemoryStore, ResultStore
from .campaign.suites import (
    SUITES,
    SuiteError,
    build_campaign,
    check_seconds,
    clomp_rows_from_records,
    figure8_rows_from_records,
    overhead_rows_from_records,
    speedup_rows_from_records,
)
from .core import DecisionTree
from .core.export import (
    ProfileFormatError,
    load_profile,
    load_run_metrics,
    save_profile,
)
from .core.report import render_full_report, render_self_diagnostics
from .experiments.runner import run_workload
from .obs.metrics import format_snapshot
from .obs.selfprof import diagnose
from .sim.config import DEFAULT_THREADS

_log = logging.getLogger("repro.cli")


class _ConsoleHandler(logging.Handler):
    """A ``print()``-compatible handler: bare messages, INFO and below to
    stdout, ERROR and above to stderr.  Streams are resolved per record,
    so ``contextlib.redirect_stdout`` (and test capture) keeps working.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            stream = (sys.stderr if record.levelno >= logging.ERROR
                      else sys.stdout)
            stream.write(record.getMessage() + "\n")
        except Exception:  # pragma: no cover - defensive, as logging does
            self.handleError(record)


def _setup_logging(verbose: bool, quiet: bool) -> None:
    if not any(isinstance(h, _ConsoleHandler) for h in _log.handlers):
        _log.addHandler(_ConsoleHandler())
    _log.propagate = False
    if quiet:
        _log.setLevel(logging.ERROR)
    elif verbose:
        _log.setLevel(logging.DEBUG)
    else:
        _log.setLevel(logging.INFO)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                        help="simulated thread count "
                             f"(default {DEFAULT_THREADS})")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (default 0)")


def _add_campaign_flags(parser: argparse.ArgumentParser,
                        jobs_default: int = 1) -> None:
    """Flags shared by every command that submits runs through the
    campaign layer."""
    parser.add_argument("--jobs", type=int, default=jobs_default,
                        help="worker processes for independent runs "
                             f"(default {jobs_default}; 1 = serial "
                             "in-process)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result-store directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="keep results in memory only (nothing "
                             "persisted, runs still deduplicated)")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute everything, superseding any "
                             "cached records")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TxSampler reproduction: profile HTM programs on the "
                    "simulated TSX substrate",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also emit debug detail")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress normal output (errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the HTMBench workloads")

    p = sub.add_parser("check",
                       help="static TSX-lint (repro.analysis): predict "
                            "abort causes without running, optionally "
                            "cross-validated against the profiler")
    p.add_argument("workloads", nargs="+",
                   help="workload names, a suite name, or 'all'")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit one JSON document instead of text panes")
    p.add_argument("--fail-on", choices=["info", "warning", "error"],
                   default="error", metavar="SEVERITY",
                   help="exit 1 on findings at or above this severity "
                        "that the workload is not documented to trigger "
                        "(default: error)")
    p.add_argument("--static-only", action="store_true",
                   help="skip the dynamic cross-validation run")
    p.add_argument("--races", action="store_true",
                   help="run the interprocedural lockset race pass "
                        "(repro.analysis.races): asymmetric-fallback-race, "
                        "elision-unsafe-access, lock-footprint-conflict")
    p.add_argument("--predict-tree", action="store_true", dest="predict_tree",
                   help="statically predict Figure 1 decision-tree leaves "
                        "per TM_BEGIN site; with cross-validation, score "
                        "them against the dynamic traversal")
    p.add_argument("--mc", action="store_true",
                   help="run the bounded interleaving model checker "
                        "(repro.analysis.mc): DPOR over 2-4 concurrent "
                        "transactions, emitting the static abort graph "
                        "(who-aborts-whom, convoy cycles, fallback "
                        "serialization depth) with witness interleavings")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="suppress findings recorded in this baseline JSON "
                        "(see --write-baseline); only *new* findings "
                        "count toward --fail-on")
    p.add_argument("--write-baseline", action="store_true",
                   dest="write_baseline",
                   help="(re)write --baseline PATH from the current "
                        "findings instead of checking against it")
    p.add_argument("--sarif", metavar="PATH",
                   help="also write every finding as a SARIF 2.1.0 log "
                        "(GitHub code-scanning compatible)")
    p.add_argument("--artifact-dir", metavar="DIR", default=None,
                   dest="artifact_dir",
                   help="when cross-validation disagrees, dump a replay "
                        "log of the dynamic run into DIR")
    p.add_argument("--no-dataflow", action="store_true", dest="no_dataflow",
                   help="skip the fixpoint dataflow pass (conditional "
                        "capacity, witness paths, loop intervals)")
    p.add_argument("--incremental", action="store_true",
                   help="cache content-addressed per-function dataflow "
                        "summaries in the result store and re-analyze "
                        "only functions whose IR changed")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="summary-store directory for --incremental "
                        "(default: $REPRO_CACHE_DIR or .repro-cache)")
    _add_common(p)

    p = sub.add_parser("run", help="run a workload under TxSampler "
                                   "(generate_profile.py analogue)")
    p.add_argument("workload")
    p.add_argument("--guidance", action="store_true",
                   help="walk the Figure 1 decision tree")
    p.add_argument("--save-db", metavar="PATH",
                   help="write the profile database (JSON)")
    p.add_argument("--no-report", action="store_true",
                   help="suppress the textual report")
    p.add_argument("--trace-out", metavar="PATH",
                   help="record engine events and write a Chrome trace "
                        "(chrome://tracing / Perfetto)")
    p.add_argument("--metrics", action="store_true",
                   help="collect run metrics and print them with the "
                        "profiler self-diagnostics")
    _add_common(p)

    p = sub.add_parser(
        "record",
        help="run a workload under TxSampler while recording the "
             "observation stream (repro.replay) into a replay log")
    p.add_argument("workload")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="replay-log path (default <workload>.rlog)")
    p.add_argument("--save-db", metavar="PATH",
                   help="also write the live profile database (JSON)")
    p.add_argument("--fault-plan", metavar="JSON", default=None,
                   help="record under this fault plan "
                        "(repro.faults.FaultPlan fields as one JSON "
                        "object, e.g. '{\"seed\": 1, \"drop_rate\": "
                        "0.25}')")
    _add_common(p)

    p = sub.add_parser(
        "replay",
        help="deterministically reconstruct a profile database from a "
             "replay log — no simulator in the loop")
    p.add_argument("log", help="replay log written by 'repro record'")
    p.add_argument("--save-db", metavar="PATH",
                   help="write the reconstructed profile database (JSON)")
    p.add_argument("--guidance", action="store_true",
                   help="walk the Figure 1 decision tree")
    p.add_argument("--no-report", action="store_true",
                   help="suppress the textual report")

    p = sub.add_parser(
        "diff",
        help="time-travel comparison of two profiles: per-site "
             "abort-class deltas, decision-tree leaf changes, metric "
             "deltas; exits 1 on any delta")
    p.add_argument("a", help="profile database (.json) or replay log "
                             "(.rlog)")
    p.add_argument("b", help="profile database (.json) or replay log "
                             "(.rlog)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the diff as one JSON document")

    p = sub.add_parser("trace",
                       help="run a workload with the repro.obs event "
                            "tracer and write a Chrome trace")
    p.add_argument("workload")
    p.add_argument("--trace-out", metavar="PATH", default="trace.json",
                   help="output path (default trace.json)")
    p.add_argument("--no-profile", action="store_true",
                   help="trace a native run (no TxSampler, so no PMU "
                        "sample events on the timeline)")
    p.add_argument("--metrics", action="store_true",
                   help="also print the run metrics snapshot")
    _add_common(p)

    p = sub.add_parser("view", help="render a saved profile database")
    p.add_argument("database")
    p.add_argument("--guidance", action="store_true")
    p.add_argument("--metrics", action="store_true",
                   help="print the stored run-metrics snapshot, if any")

    p = sub.add_parser(
        "chaos",
        help="degradation-invariant sweep (repro.faults): re-profile "
             "under injected sample loss and LBR truncation, assert the "
             "per-site abort attribution matches the clean run")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: the scored micro-suite "
                        "trio)")
    p.add_argument("--rates", default=None, metavar="R[,R...]",
                   help="sample-loss rates to sweep "
                        "(default 0.1,0.25,0.5)")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="allowed fraction of flipped (site, check) pairs "
                        "per cell (default 0.0: any flip fails)")
    p.add_argument("--min-aborts", type=float, default=5.0,
                   dest="min_aborts", metavar="N",
                   help="clean-run sampled-abort floor to score a site "
                        "(default 5)")
    p.add_argument("--fault-seed", type=int, default=1, dest="fault_seed",
                   help="seed for the injected fault streams (default 1)")
    p.add_argument("--lbr-keep", type=int, default=2, dest="lbr_keep",
                   help="LBR entries surviving the truncation cell "
                        "(default 2)")
    p.add_argument("--skip-passthrough", action="store_true",
                   help="skip the zero-plan byte-identity check")
    p.add_argument("--serve", action="store_true", dest="serve_drill",
                   help="run the service-layer drill instead: kill the "
                        "daemon at every journal boundary, reset event "
                        "streams mid-feed, corrupt store bytes — assert "
                        "no acked submission is lost, recovery is "
                        "idempotent, and results stay byte-identical to "
                        "the serial CLI")
    p.add_argument("--stream-resets", type=int, default=2,
                   dest="stream_resets", metavar="N",
                   help="with --serve: mid-stream connection resets to "
                        "inject (default 2)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the report as one JSON document")
    p.add_argument("--artifact-dir", metavar="DIR", default=None,
                   dest="artifact_dir",
                   help="dump a replay log (repro.replay) for every "
                        "diverging cell into DIR (created on first "
                        "divergence; nothing recorded otherwise); with "
                        "--serve: dump the failing cell's journal and "
                        "store files")
    _add_common(p)

    p = sub.add_parser("measure-overhead",
                       help="native-vs-sampled overhead "
                            "(measure_overhead.py / Figure 5)")
    p.add_argument("workloads", nargs="+",
                   help="workload names, or 'all' for the Figure 5 list")
    p.add_argument("--runs", type=int, default=3,
                   help="seeds per workload (default 3; the paper "
                        "uses 7)")
    p.add_argument("--drop", type=int, default=None,
                   help="trim this many smallest and largest overheads "
                        "before averaging (default: 1 when runs > 2, "
                        "else 0; requires runs > 2*drop)")
    p.add_argument("--metrics", action="store_true",
                   help="run each workload once more with metrics on and "
                        "print a brief per-workload metrics line")
    _add_common(p)
    _add_campaign_flags(p)

    p = sub.add_parser("measure-speedup",
                       help="Table 2 optimizations "
                            "(measure_speedup.py analogue)")
    p.add_argument("programs", nargs="+",
                   help="naive program names from Table 2, or 'all'")
    p.add_argument("--metrics", action="store_true",
                   help="collect run metrics and print a brief "
                        "naive-vs-optimized comparison per program")
    _add_common(p)
    _add_campaign_flags(p)

    for name, helptext in (
        ("table1", "CLOMP-TM inputs (Table 1)"),
        ("figure7", "CLOMP-TM decompositions (Figure 7)"),
        ("figure8", "application categorization (Figure 8)"),
        ("correctness", "validation vs ground truth (§7.2)"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name in ("figure7", "figure8"):
            _add_campaign_flags(p)

    p = sub.add_parser(
        "campaign",
        help="run a measurement suite through the campaign "
             "orchestrator (parallel, cached, resumable)")
    p.add_argument("suite", metavar="SUITE",
                   help=f"one of: {', '.join(SUITES)}")
    p.add_argument("workloads", nargs="*",
                   help="restrict the suite to these workloads/programs "
                        "(figure8, overhead, speedup)")
    p.add_argument("--runs", type=int, default=7,
                   help="overhead suite: seeds per workload (default 7, "
                        "the paper's protocol)")
    p.add_argument("--drop", type=int, default=1,
                   help="overhead suite: trim count (default 1)")
    p.add_argument("--status", action="store_true",
                   help="show what is cached vs pending, then exit "
                        "without running anything")
    p.add_argument("--json", action="store_true",
                   help="with --status: print the machine-readable "
                        "status document (same schema as the serve "
                        "daemon's campaign endpoint)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted campaign (cached jobs "
                        "are skipped; prints the resume point)")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-job wall-clock timeout (timed-out jobs are "
                        "retried)")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per job after its first failure "
                        "(default 2)")
    p.add_argument("--compact", action="store_true",
                   help="compact the result store after the run")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace of scheduler decisions")
    _add_common(p)
    _add_campaign_flags(p, jobs_default=os.cpu_count() or 1)

    p = sub.add_parser(
        "serve",
        help="run the profiling-as-a-service daemon (HTTP/JSON campaign "
             "submission over the shared result store)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8750,
                   help="TCP port (default 8750; 0 = ephemeral)")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="result-store directory (default: "
                        "$REPRO_CACHE_DIR or .repro-cache)")
    p.add_argument("--runners", type=int, default=2,
                   help="campaigns executed concurrently (default 2)")
    p.add_argument("--jobs", type=int, default=1,
                   help="default worker processes per campaign when a "
                        "submission does not say (default 1)")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per job after its first failure "
                        "(default 2)")
    p.add_argument("--max-queue", type=int, default=64, dest="max_queue",
                   help="admission cap: queued+running campaigns beyond "
                        "this are rejected with 429 (default 64)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   dest="drain_timeout", metavar="SEC",
                   help="how long SIGTERM / POST /v1/drain waits for "
                        "in-flight campaigns before snapshotting "
                        "(default 30)")

    p = sub.add_parser(
        "submit",
        help="submit a campaign to a running repro serve daemon")
    p.add_argument("suite", metavar="SUITE",
                   help=f"one of: {', '.join(SUITES)}")
    p.add_argument("workloads", nargs="*",
                   help="restrict the suite to these workloads/programs")
    p.add_argument("--url", default=None, metavar="URL",
                   help="daemon base URL (default: $REPRO_SERVE_URL or "
                        "http://127.0.0.1:8750)")
    p.add_argument("--threads", type=int, default=None,
                   help="thread count (daemon default if omitted)")
    p.add_argument("--scale", type=float, default=None,
                   help="workload scale factor")
    p.add_argument("--seed", type=int, default=None,
                   help="deterministic seed")
    p.add_argument("--runs", type=int, default=None,
                   help="overhead suite: seeds per workload")
    p.add_argument("--drop", type=int, default=None,
                   help="overhead suite: trim count")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for this campaign")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="per-job wall-clock timeout")
    p.add_argument("--refresh", action="store_true",
                   help="recompute everything, superseding cached "
                        "records")
    p.add_argument("--wait", action="store_true",
                   help="block until the campaign finishes, then print "
                        "its final status document")
    p.add_argument("--stream", action="store_true",
                   help="stream progress events as NDJSON while the "
                        "campaign runs (implies --wait)")

    p = sub.add_parser(
        "status",
        help="show campaign status from a running repro serve daemon")
    p.add_argument("id", nargs="?", metavar="ID",
                   help="campaign id (default: list all campaigns)")
    p.add_argument("--url", default=None, metavar="URL",
                   help="daemon base URL (default: $REPRO_SERVE_URL or "
                        "http://127.0.0.1:8750)")
    p.add_argument("--json", action="store_true",
                   help="print the raw status document(s) as JSON")

    p = sub.add_parser(
        "store",
        help="result-store maintenance (scrub: verify the record log, "
             "task journal and every replay sidecar)")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    ps = store_sub.add_parser(
        "scrub",
        help="verify CRCs, manifest digests and framing of every store "
             "file; --repair amputates torn tails and quarantines "
             "corrupt entries")
    ps.add_argument("--cache-dir", metavar="DIR", default=None,
                    help="result-store directory (default: "
                         "$REPRO_CACHE_DIR or .repro-cache)")
    ps.add_argument("--repair", action="store_true",
                    help="repair in place: truncate torn tails, move "
                         "corrupt/orphan files to <store>/quarantine/ "
                         "(run against a drained store)")
    ps.add_argument("--json", action="store_true", dest="as_json",
                    help="print the full scrub report as JSON")
    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _dump_crossval_artifact(args, name: str) -> str:
    """Record the dynamic crossval run (exact re-execution) for offline
    replay when the static and dynamic sides disagree."""
    from .analysis.crossval import VALIDATION_PERIODS
    from .replay.artifacts import dump_run_artifact
    from .sim.config import MachineConfig

    dyn_cfg = MachineConfig(n_threads=args.threads).evolve(
        sample_periods=dict(VALIDATION_PERIODS))
    path = dump_run_artifact(
        args.artifact_dir, f"{name}-crossval", name,
        n_threads=args.threads, scale=args.scale, seed=args.seed,
        config=dyn_cfg,
    )
    return str(path)


def _load_profile_any(path: str):
    """Load a profile from either a database (.json) or a replay log
    (.rlog, reconstructed by replay)."""
    from .replay import ReplayFormatError, replay_file

    try:
        return load_profile(path)
    except ProfileFormatError:
        pass
    try:
        _, profile = replay_file(path)
    except (ReplayFormatError, ValueError) as exc:
        raise ProfileFormatError(
            f"{path}: neither a profile database nor a replay log "
            f"({exc})"
        ) from exc
    return profile


def _metrics_brief(snapshot: dict) -> str:
    """One-line digest of the headline counters in a metrics snapshot."""

    def val(name: str) -> int:
        return snapshot.get(name, {}).get("value", 0)

    return (f"commits={val('htm.commits')} aborts={val('htm.aborts')} "
            f"retries={val('rtm.retries')} fallbacks={val('rtm.fallbacks')} "
            f"samples={val('pmu.samples')}")


def _cache_root(args) -> str:
    """The result-store directory: ``--cache-dir``, then
    ``$REPRO_CACHE_DIR``, then ``.repro-cache``."""
    return (getattr(args, "cache_dir", None)
            or os.environ.get("REPRO_CACHE_DIR")
            or ".repro-cache")


def _make_runner(args, tracer=None) -> CampaignRunner:
    """A campaign runner wired to the CLI's store/parallelism flags;
    ``--no-cache`` keeps results in memory."""
    if getattr(args, "no_cache", False):
        store = MemoryStore()
    else:
        store = ResultStore(_cache_root(args))
    retries = getattr(args, "retries", None)
    return CampaignRunner(
        store=store,
        jobs=getattr(args, "jobs", 1),
        timeout=getattr(args, "timeout", None),
        retry=RetryPolicy(max_attempts=retries + 1)
        if retries is not None else None,
        refresh=getattr(args, "refresh", False),
        tracer=tracer,
    )


def _campaign_note(runner: CampaignRunner, name: str) -> None:
    """End-of-run status line — on stderr, so a campaign command's
    stdout stays byte-identical to its serial counterpart."""
    if _log.level > logging.INFO:
        return
    s = runner.summary()
    print(f"[campaign {name}] jobs={s['jobs']} cache-hits={s['hits']} "
          f"executed={s['executed']} retries={s['retries']} "
          f"hit-rate={s['hit_rate']:.0%}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    for suite in htmbench.suites():
        names = htmbench.workload_names(suite)
        _log.info(f"{suite}:")
        for name in names:
            cls = htmbench.WORKLOADS[name]
            _log.info(f"  {name:22s} Type {cls.expected_type:3s} "
                      f"{cls.description}")
    return 0


def _check_names(tokens: list[str]) -> list[str]:
    """Expand 'all' / suite names / workload names into workload names."""
    names: list[str] = []
    known_suites = set(htmbench.suites())
    for token in tokens:
        if token == "all":
            names.extend(htmbench.workload_names())
        elif token in known_suites:
            names.extend(htmbench.workload_names(token))
        else:
            names.append(token)
    # de-duplicate, preserving order
    return list(dict.fromkeys(names))


def _finding_key(f) -> tuple:
    """The identity a baseline suppresses on: code + sites + message.

    The message carries the detail (line addresses, class names), so a
    finding that moves or changes meaning stops matching the baseline
    and fails the check again — suppressions don't rot silently.
    """
    return (f.code, tuple(f.sites), f.message)


def _load_baseline(path: str) -> dict[str, set[tuple]]:
    import json

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        wl: {(e["code"], tuple(e["sites"]), e["message"]) for e in entries}
        for wl, entries in doc.get("workloads", {}).items()
    }


def cmd_check(args) -> int:
    if not args.incremental:
        return _check(args, None)
    from .analysis.dataflow import SummaryCache
    from .obs.metrics import MetricsRegistry

    with closing(ResultStore(_cache_root(args))) as store:
        return _check(args, SummaryCache(store, metrics=MetricsRegistry()))


def _check(args, dataflow_cache) -> int:
    import json

    from .analysis import analyze_workload, cross_validate, severity_rank
    from .core.report import (
        render_analysis,
        render_crossval,
        render_dataflow,
        render_mc,
        render_prediction,
        render_races,
    )

    baseline: dict[str, set[tuple]] = {}
    if args.baseline and not args.write_baseline:
        try:
            baseline = _load_baseline(args.baseline)
        except FileNotFoundError:
            _log.error(f"baseline file not found: {args.baseline} "
                       "(generate it with --write-baseline)")
            return 2
    if args.write_baseline and not args.baseline:
        _log.error("--write-baseline needs --baseline PATH")
        return 2

    names = _check_names(args.workloads)
    threshold = severity_rank(args.fail_on)
    crashed: list[str] = []
    unexpected: list[str] = []
    docs: dict = {}
    reports: list = []
    baseline_out: dict[str, list] = {}
    n_suppressed = 0
    for i, name in enumerate(names):
        try:
            cls = htmbench.WORKLOADS.get(name)
            expected = set(getattr(cls, "expected_findings", ()) or ())
            report = analyze_workload(name, n_threads=args.threads,
                                      scale=args.scale, seed=args.seed,
                                      races=args.races,
                                      predict=args.predict_tree,
                                      dataflow=not args.no_dataflow,
                                      dataflow_cache=dataflow_cache,
                                      mc=args.mc)
            reports.append(report)
            cv = None
            cv_artifact = None
            if not args.static_only:
                cv = cross_validate(name, n_threads=args.threads,
                                    scale=args.scale, seed=args.seed,
                                    report=report)
                if (args.artifact_dir
                        and (cv.disagreements()
                             or cv.leaf_disagreements())):
                    cv_artifact = _dump_crossval_artifact(args, name)
        except Exception as exc:
            crashed.append(name)
            _log.error(f"{name}: analyzer crashed: "
                       f"{type(exc).__name__}: {exc}")
            _log.debug("traceback:", exc_info=True)
            continue
        base_keys = baseline.get(name, set())
        new_findings = [
            f for f in report.findings
            if severity_rank(f.severity) >= threshold
            and f.code not in expected
            and _finding_key(f) not in base_keys
        ]
        suppressed = sorted({
            f.code for f in report.findings
            if severity_rank(f.severity) >= threshold
            and f.code not in expected
            and _finding_key(f) in base_keys
        })
        n_suppressed += len(suppressed)
        surprises = sorted({f.code for f in new_findings})
        if args.write_baseline:
            baseline_out[name] = [
                {"code": f.code, "sites": list(f.sites),
                 "message": f.message}
                for f in report.findings
                if severity_rank(f.severity) >= threshold
                and f.code not in expected
            ]
            surprises = []
        if surprises:
            unexpected.append(name)
        if args.as_json:
            entry = report.to_dict()
            entry["expected_findings"] = sorted(expected)
            entry["unexpected_codes"] = surprises
            if args.baseline:
                entry["suppressed_codes"] = suppressed
            if cv is not None:
                entry["crossval"] = cv.to_dict()
            if cv_artifact is not None:
                entry["replay_artifact"] = cv_artifact
            docs[name] = entry
        else:
            if i:
                _log.info("")
            _log.info(render_analysis(report))
            if expected:
                _log.info(f"documented findings  : {sorted(expected)}")
            if suppressed:
                _log.info(f"suppressed by baseline: {suppressed}")
            if surprises:
                _log.info(f"UNEXPECTED (>= {args.fail_on}): {surprises}")
            if report.dataflow is not None:
                _log.info("")
                _log.info(render_dataflow(report.dataflow))
            if report.mc is not None:
                _log.info("")
                _log.info(render_mc(report.mc))
            if report.races is not None:
                _log.info("")
                _log.info(render_races(report.races))
            if report.prediction is not None:
                _log.info("")
                _log.info(render_prediction(report.prediction))
            if cv is not None:
                _log.info("")
                _log.info(render_crossval(cv))
            if cv_artifact is not None:
                _log.info(f"replay artifact: {cv_artifact}")
    if dataflow_cache is not None and _log.level <= logging.INFO:
        # status goes to stderr so --json stdout stays machine-parseable;
        # CI greps this exact line, keep its shape stable.  -q drops it,
        # as it drops the campaign status line
        st = dataflow_cache.stats()
        print(f"[dataflow cache] hits={st['hits']} "
              f"misses={st['misses']} hit-rate={st['hit_rate']:.0%}",
              file=sys.stderr)
        if args.verbose and dataflow_cache.metrics is not None:
            for line in format_snapshot(
                    dataflow_cache.metrics.snapshot()).splitlines():
                print(f"[dataflow cache] {line}", file=sys.stderr)
    if args.write_baseline:
        doc = {"version": 1, "fail_on": args.fail_on,
               "workloads": baseline_out}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        n_base = sum(len(v) for v in baseline_out.values())
        # status goes to stderr so --json stdout stays machine-parseable
        print(f"baseline written to {args.baseline} "
              f"({n_base} finding(s) across {len(baseline_out)} "
              f"workload(s))", file=sys.stderr)
    elif args.baseline and not args.as_json:
        _log.info(f"baseline {args.baseline}: {n_suppressed} finding "
                  f"code(s) suppressed")
    if args.sarif:
        from .analysis import to_sarif

        with open(args.sarif, "w", encoding="utf-8") as fh:
            json.dump(to_sarif(reports), fh, indent=2, sort_keys=True)
        # status goes to stderr so --json stdout stays machine-parseable
        print(f"SARIF log written to {args.sarif}", file=sys.stderr)
    if args.as_json:
        _log.info(json.dumps({
            "fail_on": args.fail_on,
            "crashed": crashed,
            "unexpected": unexpected,
            "workloads": docs,
        }, indent=2, sort_keys=True))
    else:
        clean = len(names) - len(crashed) - len(unexpected)
        _log.info("")
        _log.info(f"checked {len(names)} workload(s): {clean} clean or "
                  f"as documented, {len(unexpected)} with unexpected "
                  f">={args.fail_on} findings, {len(crashed)} crashed")
    if crashed:
        return 2
    return 1 if unexpected else 0


def cmd_run(args) -> int:
    _log.debug(f"run: workload={args.workload} threads={args.threads} "
               f"scale={args.scale} seed={args.seed}")
    out = run_workload(args.workload, n_threads=args.threads,
                       scale=args.scale, seed=args.seed, profile=True,
                       trace=bool(args.trace_out), metrics=args.metrics)
    r = out.result
    _log.info(f"makespan={r.makespan} commits={r.commits} aborts={r.aborts} "
              f"by reason={r.aborts_by_reason}")
    profile = out.profile
    if not args.no_report:
        _log.info("")
        _log.info(render_full_report(profile, args.workload))
    if args.guidance:
        _log.info("")
        _log.info(DecisionTree().analyze(profile).render())
    if args.metrics:
        _log.info("")
        _log.info(format_snapshot(r.metrics))
        _log.info("")
        _log.info(render_self_diagnostics(diagnose(out.profiler, out.sim)))
    if args.trace_out:
        path = out.obs.tracer.write(args.trace_out)
        _log.info(f"\nchrome trace written to {path} "
                  f"({len(out.obs.tracer)} events, "
                  f"{out.obs.tracer.total_dropped} dropped)")
    if args.save_db:
        path = save_profile(profile, args.save_db, run_metrics=r.metrics)
        _log.info(f"\nprofile database written to {path}")
    return 0


def cmd_record(args) -> int:
    import json

    plan = None
    if args.fault_plan:
        from .faults.plan import coerce_plan

        try:
            plan = coerce_plan(json.loads(args.fault_plan))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            _log.error(f"--fault-plan: not a FaultPlan JSON object: {exc}")
            return 2
    out = run_workload(args.workload, n_threads=args.threads,
                       scale=args.scale, seed=args.seed, profile=True,
                       record=True, faults=plan)
    assert out.replay_log is not None
    dest = args.out or f"{args.workload}.rlog"
    from pathlib import Path

    path = Path(dest)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(out.replay_log)
    r = out.result
    _log.info(f"makespan={r.makespan} commits={r.commits} "
              f"aborts={r.aborts}")
    n_events = out.replay_log.count("\n") - 2  # header + manifest
    _log.info(f"replay log written to {path} ({n_events} observation "
              f"events, {len(out.replay_log)} bytes)")
    if args.save_db:
        db = save_profile(out.profile, args.save_db)
        _log.info(f"profile database written to {db}")
    return 0


def cmd_replay(args) -> int:
    from .replay import ReplayFormatError, load_replay, replay_profile

    try:
        log = load_replay(args.log)
    except ReplayFormatError as exc:
        _log.error(f"cannot read replay log: {exc}")
        return 2
    status = "sealed" if log.complete else (
        f"UNSEALED (torn tail: {log.torn_lines} line(s) discarded; "
        "replaying the intact prefix)")
    workload = log.meta.get("workload", "?")
    _log.info(f"replay log: workload={workload} "
              f"threads={log.n_threads} events={len(log.events)} "
              f"[{status}]")
    try:
        profile = replay_profile(log)
    except ValueError as exc:
        _log.error(str(exc))
        return 2
    if not args.no_report:
        _log.info("")
        _log.info(render_full_report(profile, f"replay of {workload}"))
    if args.guidance:
        _log.info("")
        _log.info(DecisionTree().analyze(profile).render())
    if args.save_db:
        path = save_profile(profile, args.save_db)
        _log.info(f"\nprofile database written to {path}")
    return 0


def cmd_diff(args) -> int:
    import json

    from .replay import diff_profiles

    try:
        a = _load_profile_any(args.a)
        b = _load_profile_any(args.b)
    except ProfileFormatError as exc:
        _log.error(str(exc))
        return 2
    diff = diff_profiles(a, b, label_a=args.a, label_b=args.b)
    if args.as_json:
        _log.info(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        _log.info(diff.render())
    return 0 if diff.identical else 1


def cmd_trace(args) -> int:
    out = run_workload(args.workload, n_threads=args.threads,
                       scale=args.scale, seed=args.seed,
                       profile=not args.no_profile,
                       trace=True, metrics=True)
    r = out.result
    tracer = out.obs.tracer
    path = tracer.write(args.trace_out)
    _log.info(f"makespan={r.makespan} commits={r.commits} aborts={r.aborts} "
              f"by reason={r.aborts_by_reason}")
    _log.info(f"captured {len(tracer)} events on "
              f"{len(r.per_thread_cycles)} threads "
              f"({tracer.total_dropped} dropped by the ring buffers)")
    if args.metrics:
        _log.info("")
        _log.info(format_snapshot(r.metrics))
    _log.info(f"\nchrome trace written to {path}")
    _log.info("open it in chrome://tracing or https://ui.perfetto.dev "
              "(timestamps are simulated cycles)")
    return 0


def cmd_view(args) -> int:
    import json

    try:
        profile = load_profile(args.database)
    except ProfileFormatError as exc:
        _log.error(f"cannot read profile database: {exc}")
        return 2
    _log.info(render_full_report(profile, args.database))
    if args.guidance:
        _log.info("")
        _log.info(DecisionTree().analyze(profile).render())
    if args.metrics:
        _log.info("")
        try:
            snapshot = load_run_metrics(args.database)
        except (OSError, json.JSONDecodeError, ProfileFormatError) as exc:
            _log.error(f"cannot read run metrics: {exc}")
            return 2
        _log.info(format_snapshot(snapshot))
    return 0


def cmd_chaos(args) -> int:
    import json

    from .faults.chaos import DEFAULT_LOSS_RATES, DEFAULT_WORKLOADS, run_sweep

    if args.serve_drill:
        from .faults.plan import FaultPlanError
        from .faults.service import ServiceChaosPlan, run_service_drill

        try:
            plan = ServiceChaosPlan(seed=args.fault_seed,
                                    stream_resets=args.stream_resets)
            plan.validate()
        except FaultPlanError as exc:
            _log.error(str(exc))
            return 2
        report = run_service_drill(plan, artifact_dir=args.artifact_dir)
        if args.as_json:
            _log.info(json.dumps(report.to_dict(), indent=2,
                                 sort_keys=True))
        else:
            _log.info(report.render())
        return 0 if report.ok else 1

    if args.rates is None:
        rates = DEFAULT_LOSS_RATES
    else:
        try:
            rates = tuple(float(tok) for tok in args.rates.split(",") if tok)
        except ValueError:
            _log.error(f"--rates must be comma-separated floats: "
                       f"got {args.rates!r}")
            return 2
        if not rates or not all(0.0 <= r <= 1.0 for r in rates):
            _log.error(f"--rates must be in [0, 1]: got {args.rates!r}")
            return 2
    report = run_sweep(
        workloads=tuple(args.workloads) or DEFAULT_WORKLOADS,
        loss_rates=rates,
        n_threads=args.threads,
        scale=args.scale,
        seed=args.seed,
        fault_seed=args.fault_seed,
        tolerance=args.tolerance,
        min_aborts=args.min_aborts,
        lbr_keep_max=args.lbr_keep,
        check_passthrough=not args.skip_passthrough,
        artifact_dir=args.artifact_dir,
    )
    if args.as_json:
        _log.info(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _log.info(report.render())
    return 0 if report.ok else 1


def _metrics_runs(suite: str, campaign,
                  args) -> dict[str, list[tuple[str, str]]]:
    """Add the ``--metrics`` runs to ``campaign`` as extra run-job
    targets: one profiled run per overhead workload, a (naive,
    optimized) pair per speedup program.  Returns ``{row name:
    [(line prefix, job key), ...]}``."""

    def add(workload: str, profile: bool = False) -> str:
        return campaign.add(make_run_spec(
            workload, n_threads=args.threads, scale=args.scale,
            seed=args.seed, profile=profile, metrics=True,
        ), target=True)

    if suite == "overhead":
        return {name: [(f"{'':22s}   ", add(name, profile=True))]
                for name, _ in campaign.meta}
    return {name: [("  naive    : ", add(name)),
                   ("  optimized: ", add(opt))]
            for name, opt, _, _ in campaign.meta}


def _print_suite(suite: str, campaign, records: dict[str, dict],
                 extras: dict[str, list[str]] | None = None) -> int:
    """Print a suite's rows, as ``repro campaign <suite>`` and the
    matching per-figure command both do; ``extras`` maps a row name to
    the lines printed under that row.  Returns the exit code."""
    extras = extras or {}
    if suite == "table1":
        from .experiments.clomp import render_table1

        _log.info(render_table1())
    elif suite == "figure7":
        from .experiments.clomp import check_expectations, render_figure7

        rows = clomp_rows_from_records(campaign, records)
        _log.info(render_figure7(rows))
        problems = check_expectations(rows)
        if problems:
            _log.info("\nnarrative check FAILED:")
            for prob in problems:
                _log.info(f"  ! {prob}")
            return 1
        _log.info("\nnarrative check: OK (all Figure 7 observations hold)")
    elif suite == "figure8":
        from .experiments.categorize import render_figure8

        _log.info(render_figure8(figure8_rows_from_records(campaign,
                                                           records)))
    elif suite == "overhead":
        total = 0.0
        rows = overhead_rows_from_records(campaign, records)
        for name, mean, runs in rows:
            total += mean
            spread = f"[{min(runs):+.1%}, {max(runs):+.1%}]"
            _log.info(f"{name:22s} {mean:+8.2%}  {spread}")
            for line in extras.get(name, ()):
                _log.info(line)
        _log.info(f"{'MEAN':22s} {total / len(rows):+8.2%}")
    else:  # speedup
        for name, _opt, paper, s in speedup_rows_from_records(campaign,
                                                              records):
            _log.info(f"{name:14s} {s:5.2f}x   (paper: {paper:.2f}x)")
            for line in extras.get(name, ()):
                _log.info(line)
    return 0


def _run_suite(args, suite: str, **kwargs) -> int:
    """Run ``suite`` through :func:`_make_runner` and print its rows:
    the body of the per-figure commands.  ``kwargs`` go to the suite's
    builder; a failed job exits 2."""
    runner = _make_runner(args)
    with closing(runner.store):
        try:
            campaign = build_campaign(suite, n_threads=args.threads,
                                      scale=args.scale, seed=args.seed,
                                      **kwargs)
            metrics = (_metrics_runs(suite, campaign, args)
                       if getattr(args, "metrics", False) else {})
            records = runner.run(campaign)
        except (CampaignError, SuiteError) as exc:
            _log.error(str(exc))
            return 2
        extras = {
            name: [prefix + _metrics_brief(records[key]["result"]["metrics"])
                   for prefix, key in keys]
            for name, keys in metrics.items()
        }
        rc = _print_suite(suite, campaign, records, extras)
        _campaign_note(runner, campaign.name)
        return rc


def cmd_measure_overhead(args) -> int:
    from .experiments.overhead import FIG5_BENCHMARKS

    names: list[str] = (
        list(FIG5_BENCHMARKS) if args.workloads == ["all"]
        else args.workloads
    )
    drop = args.drop if args.drop is not None else \
        (1 if args.runs > 2 else 0)
    return _run_suite(args, "overhead", workloads=names, runs=args.runs,
                      drop=drop)


def cmd_measure_speedup(args) -> int:
    from .htmbench.optimized import TABLE2

    pairs = {naive: (opt, paper) for naive, opt, paper, _ in TABLE2}
    names = list(pairs) if args.programs == ["all"] else args.programs
    rc = 0
    known: list[str] = []
    for name in names:
        if name not in pairs:
            _log.error(f"{name}: not a Table 2 program "
                       f"(known: {', '.join(pairs)})")
            rc = 2
        else:
            known.append(name)
    if not known:
        return rc
    return _run_suite(args, "speedup", workloads=known) or rc


def cmd_table1(args) -> int:
    # Table 1 is the static CLOMP-TM configuration listing — no runs
    # needed.  ``repro campaign table1`` renders the same table *and*
    # materializes the six profile databases into the result store.
    from .experiments.clomp import render_table1

    _log.info(render_table1())
    return 0


def cmd_figure7(args) -> int:
    return _run_suite(args, "figure7")


def cmd_figure8(args) -> int:
    return _run_suite(args, "figure8")


def cmd_campaign(args) -> int:
    kwargs: dict = {
        "n_threads": args.threads, "scale": args.scale, "seed": args.seed,
        "workloads": args.workloads or None,
        "runs": args.runs, "drop": args.drop,
    }
    try:
        if args.timeout is not None:
            check_seconds("--timeout", args.timeout)
        campaign = build_campaign(args.suite, **kwargs)
    except SuiteError as exc:
        _log.error(str(exc))
        return 2
    tracer = None
    if args.trace_out:
        from .obs.trace import Tracer

        tracer = Tracer()
    runner = _make_runner(args, tracer=tracer)
    with closing(runner.store):
        if args.status:
            st = runner.status(campaign)
            if args.json:
                from .serve.registry import campaign_status_doc

                submission = {"suite": args.suite, **{
                    k: v for k, v in kwargs.items() if v is not None}}
                doc = campaign_status_doc(args.suite, campaign,
                                          "cached" if st["pending"] == 0
                                          else "pending", submission)
                doc["cache"] = st
                print(json.dumps(doc, indent=2, sort_keys=True))
                return 0
            kinds = " ".join(f"{k}={n}" for k, n in
                             sorted(st["by_kind"].items()))
            _log.info(f"=== campaign {st['name']} ===")
            _log.info(f"jobs     : {st['jobs']} ({kinds})")
            _log.info(f"targets  : {st['targets']}")
            _log.info(f"cached   : {st['cached']}")
            _log.info(f"pending  : {st['pending']}")
            _log.info(f"hit-rate : {st['hit_rate']:.0%}")
            store = st["store"]
            detail = " ".join(f"{k}={v}" for k, v in sorted(store.items())
                              if k not in ("backend", "root"))
            where = store.get("root") or "memory"
            _log.info(f"store    : {store['backend']} {where} ({detail})")
            return 0
        if args.resume and _log.level <= logging.INFO:
            plan = runner.plan(campaign)
            done = len(plan.cached)
            print(f"[campaign {campaign.name}] resuming: {done}/"
                  f"{done + len(plan.to_run)} jobs already cached",
                  file=sys.stderr)
        try:
            records = runner.run(campaign)
        except CampaignError as exc:
            _log.error(str(exc))
            return 1
        rc = _print_suite(args.suite, campaign, records)
        _campaign_note(runner, campaign.name)
        if args.compact:
            dropped = runner.store.compact()
            if _log.level <= logging.INFO:
                print(f"[campaign {campaign.name}] compacted store: "
                      f"{dropped} superseded record(s) dropped",
                      file=sys.stderr)
        if tracer is not None:
            path = tracer.write(args.trace_out)
            if _log.level <= logging.INFO:
                print(f"[campaign {campaign.name}] scheduler trace written "
                      f"to {path}", file=sys.stderr)
        return rc


def _serve_url(args) -> str:
    return (args.url or os.environ.get("REPRO_SERVE_URL")
            or "http://127.0.0.1:8750")


def cmd_serve(args) -> int:
    import asyncio

    from .serve import ServeDaemon
    from .serve.server import run_server

    root = _cache_root(args)
    daemon = ServeDaemon(store=ResultStore(root),
                         runners=args.runners, default_jobs=args.jobs,
                         retries=args.retries,
                         max_queue=args.max_queue,
                         drain_timeout=args.drain_timeout)
    _log.info(f"serving store {root} on http://{args.host}:{args.port} "
              f"(runners={args.runners}, default jobs={args.jobs}, "
              f"queue={args.max_queue}) — SIGTERM or POST /v1/drain "
              f"for a graceful drain, Ctrl-C to stop")
    try:
        asyncio.run(run_server(daemon, args.host, args.port,
                               install_signals=True))
    except KeyboardInterrupt:
        _log.info("shutting down")
    finally:
        daemon.close()
    return 0


def cmd_submit(args) -> int:
    from .serve.client import ServeClient, ServeError

    doc: dict = {"suite": args.suite}
    if args.workloads:
        doc["workloads"] = args.workloads
    for field, value in (("n_threads", args.threads),
                         ("scale", args.scale), ("seed", args.seed),
                         ("runs", args.runs), ("drop", args.drop),
                         ("jobs", args.jobs), ("timeout", args.timeout)):
        if value is not None:
            doc[field] = value
    if args.refresh:
        doc["refresh"] = True
    try:
        client = ServeClient(_serve_url(args))
        accepted = client.submit(doc)
        cid = accepted["id"]
        if not (args.wait or args.stream):
            _log.info(f"accepted {cid}: suite={args.suite} "
                      f"state={accepted['state']} "
                      f"({accepted['jobs']} job specs)")
            print(cid)
            return 0
        if args.stream:
            for event in client.stream_events(cid):
                print(json.dumps(event, sort_keys=True), flush=True)
            final = client.status(cid)
        else:
            final = client.wait(cid)
    except ServeError as exc:
        _log.error(str(exc))
        return 2
    print(json.dumps(final, indent=2, sort_keys=True))
    return 0 if final.get("state") == "done" else 1


def cmd_status(args) -> int:
    from .serve.client import ServeClient, ServeError

    try:
        client = ServeClient(_serve_url(args))
        docs = [client.status(args.id)] if args.id \
            else client.campaigns()
    except ServeError as exc:
        _log.error(str(exc))
        return 2
    if args.json:
        payload = docs[0] if args.id else {"campaigns": docs}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not docs:
        _log.info("no campaigns submitted")
        return 0
    for doc in docs:
        line = (f"{doc['id']}  {doc['suite']:10s} {doc['state']:8s} "
                f"jobs={doc['jobs']} targets={doc['targets']}")
        summary = doc.get("summary")
        if summary:
            line += (f" executed={summary.get('executed')} "
                     f"hits={summary.get('hits')} "
                     f"retries={summary.get('retries')}")
        if doc.get("error"):
            line += f" error={doc['error']}"
        _log.info(line)
    return 0


def cmd_store(args) -> int:
    from .campaign.store import scrub_files

    root = _cache_root(args)
    if not os.path.isdir(root):
        _log.error(f"no result store at {root}")
        return 2
    report = scrub_files(root, repair=args.repair)
    # a repair pass reports the damage it *found*; re-scrub to decide
    # whether the store actually came back clean
    ok = scrub_files(root)["clean"] if args.repair else report["clean"]
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if ok else 1
    s = report["summary"]
    _log.info(f"scrubbed {s['files']} file(s), {s['records']} "
              f"record(s), {s['sidecars']} sidecar(s): "
              f"torn={s['torn']} corrupt={s['corrupt']} "
              f"orphans={s['orphans']} repaired={s['repaired']}")
    for name, info in sorted(report["files"].items()):
        if info.get("state") != "ok":
            _log.info(f"  {info['state']:7s} {name}")
    if ok:
        _log.info("store is clean")
    elif args.repair:
        _log.error("store still damaged after repair")
    else:
        _log.error("store is damaged — rerun with --repair to "
                   "amputate torn tails and quarantine corrupt files")
    return 0 if ok else 1


def cmd_correctness(args) -> int:
    from .experiments.correctness import render_section72, section72

    rows = section72(n_threads=args.threads, scale=args.scale,
                     seed=args.seed)
    _log.info(render_section72(rows))
    return 0 if all(r.ok for r in rows) else 1


COMMANDS = {
    "list": cmd_list,
    "check": cmd_check,
    "run": cmd_run,
    "record": cmd_record,
    "replay": cmd_replay,
    "diff": cmd_diff,
    "trace": cmd_trace,
    "view": cmd_view,
    "chaos": cmd_chaos,
    "measure-overhead": cmd_measure_overhead,
    "measure-speedup": cmd_measure_speedup,
    "table1": cmd_table1,
    "figure7": cmd_figure7,
    "figure8": cmd_figure8,
    "correctness": cmd_correctness,
    "campaign": cmd_campaign,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "store": cmd_store,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose, args.quiet)
    return COMMANDS[args.command](args)
