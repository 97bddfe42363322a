"""What the benchmark measures: workloads, metrics, and the layer map.

``BENCHMARK.json`` at the repository root must list exactly these
workloads and metrics with these units and directions
(``test_harness.py`` checks it).  The layer map — which layer each
per-layer metric belongs to, and which end-to-end metric it should move
on which workload — has no place in ``BENCHMARK.json``'s fixed schema,
so it lives here and in ``README.md``.
"""

from __future__ import annotations

#: (name, why) in the order ``run.py`` runs them
WORKLOADS: tuple[tuple[str, str], ...] = (
    ("profile-corpus",
     "all 56 programs profiled as figure8 campaign jobs: step loop, HTM "
     "tracking, PMU counting, TxSampler and .rlog recording all work"),
    ("native-14t",
     "the 33 overhead-suite programs x 3 seeds, unprofiled at 14 threads: "
     "the engine alone, PMU and TxSampler bypassed, so a profiler change "
     "leaves it flat"),
    ("replay-dense",
     "16 densely sampled .rlog logs (8 programs x 2 seeds) replayed into "
     "profiles with no simulator: the .rlog parser and TxSampler handlers "
     "do all the work"),
    ("serve-open",
     "repro serve under an open loop at 50/s then 2 streaming callers; "
     "every 4th submission repeats one, so store reads meet writes"),
    ("lint-corpus",
     "static TSX-lint with races and prediction over the corpus: only "
     "repro.analysis works, the dedup extraction dominates"),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

#: (name, unit, better, bound).  An "op" is one run (profile-corpus,
#: native-14t), one replayed log (replay-dense), one campaign submission
#: (serve-open) or one analysed program (lint-corpus).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("work_per_s", "1/s", "higher", 0.24),
    ("op_latency_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better, layer, moves).  ``*.self_pct`` is the layer's
#: share of traced op time; counts are per pass over the op list.
PER_LAYER: tuple[tuple[str, str, str, str, str], ...] = (
    ("sim.self_pct", "%", "lower", "repro.sim (Simulator.run minus "
     "wrapped children)", "work_per_s on profile-corpus, native-14t"),
    ("htm.self_pct", "%", "lower", "repro.htm (TsxEngine.on_access, "
     "track_read, track_write)", "work_per_s on native-14t most, "
     "profile-corpus"),
    ("pmu.self_pct", "%", "lower", "repro.pmu (CounterBank.add)",
     "work_per_s on profile-corpus; zero on native-14t"),
    ("core.self_pct", "%", "lower", "repro.core/cct/shadow "
     "(TxSampler.on_sample, build_profile)",
     "work_per_s on replay-dense; small share of profile-corpus"),
    ("replay.write.self_pct", "%", "lower", "repro.replay writer "
     "(ObservationRecorder.record, finalize, ReplayWriter.dumps)",
     "work_per_s on profile-corpus"),
    ("replay.read.self_pct", "%", "lower", "repro.replay reader "
     "(loads_replay)", "work_per_s on replay-dense"),
    ("export.self_pct", "%", "lower", "repro.core.export "
     "(profile_to_dict)", "work_per_s on profile-corpus, replay-dense"),
    ("htmbench.self_pct", "%", "lower", "repro.htmbench (Workload.build)",
     "work_per_s on profile-corpus, native-14t"),
    ("analysis.ir.self_pct", "%", "lower", "repro.analysis "
     "(extract_workload)", "work_per_s on lint-corpus"),
    ("analysis.summarize.self_pct", "%", "lower", "repro.analysis "
     "(summarize)", "work_per_s on lint-corpus"),
    ("analysis.lint.self_pct", "%", "lower", "repro.analysis "
     "(lint_summary)", "work_per_s on lint-corpus"),
    ("analysis.races.self_pct", "%", "lower", "repro.analysis "
     "(analyze_races)", "work_per_s on lint-corpus"),
    ("analysis.dataflow.self_pct", "%", "lower", "repro.analysis "
     "(analyze_dataflow, attach_witnesses)", "work_per_s on lint-corpus"),
    ("analysis.predict.self_pct", "%", "lower", "repro.analysis "
     "(predict_workload)", "work_per_s on lint-corpus"),
    ("other.self_pct", "%", "lower", "op time no wrapper covers "
     "(campaign worker, runner and harness glue)", "all"),
    ("sim.steps", "count", "lower", "repro.sim (metrics registry)",
     "sentinel: a simulator-only change leaves it identical"),
    ("htm.on_access.calls", "count", "lower", "repro.htm",
     "work_per_s on native-14t, profile-corpus"),
    ("htm.track.calls", "count", "lower", "repro.htm",
     "work_per_s on native-14t, profile-corpus"),
    ("pmu.add.calls", "count", "lower", "repro.pmu",
     "work_per_s on profile-corpus"),
    ("core.on_sample.calls", "count", "lower", "repro.core",
     "work_per_s on replay-dense, profile-corpus"),
    ("replay.record.calls", "count", "lower", "repro.replay writer",
     "work_per_s on profile-corpus"),
    ("pmu.samples", "count", "lower", "repro.pmu (metrics registry; "
     "replayed samples on replay-dense)", "sentinel"),
    ("rtm.fallbacks", "count", "lower", "repro.rtm (metrics registry)",
     "sentinel"),
    ("htm.commit_ratio", "ratio", "higher", "repro.htm (commits/begins)",
     "sentinel"),
    ("replay.bytes_per_sample", "B", "lower", "repro.replay (.rlog size "
     "over samples)", "work_per_s on replay-dense"),
    ("analysis.findings", "count", "lower", "repro.analysis",
     "sentinel on lint-corpus"),
    ("ladder.pmu.pct", "%", "lower", "PMU counting and interrupts, as a "
     "share of the engine-alone rung", "work_per_s on profile-corpus"),
    ("ladder.txsampler.pct", "%", "lower", "TxSampler handlers and "
     "profile build over the pmu rung", "work_per_s on profile-corpus"),
    ("ladder.record.pct", "%", "lower", ".rlog recording over the "
     "txsampler rung", "work_per_s on profile-corpus"),
    ("ladder.obs.pct", "%", "lower", "metrics and trace on over the "
     "record rung", "none (observability is off in every other run)"),
    ("serve.ack.pct", "%", "lower", "repro.serve POST: validation, "
     "campaign build, admission, journal accept fsync",
     "op_latency_ms on serve-open"),
    ("serve.job.pct", "%", "lower", "repro.campaign job: execute and "
     "store put (job events' ms)", "op_latency_ms on serve-open"),
    ("serve.wait.pct", "%", "lower", "queueing, journal transitions, "
     "publishing, sender lag (latency - ack - job)",
     "op_latency_ms on serve-open"),
    ("serve.stream_lag.pct", "%", "lower", "finished_at to end-of-stream "
     "at the client, share of a closed-loop op",
     "work_per_s on serve-open"),
    ("serve.journal.fsyncs_per_campaign", "count", "lower",
     "repro.serve journal (/v1/stats)", "op_latency_ms on serve-open"),
    ("serve.journal.appends_per_fsync", "ratio", "higher",
     "repro.serve journal group commit (/v1/stats)",
     "op_latency_ms on serve-open"),
    ("campaign.cache_hit_ratio", "ratio", "higher", "repro.campaign store "
     "(plan events)", "op_latency_ms on serve-open"),
    ("bench.generator_late.pct", "%", "lower", "how late the open-loop "
     "sender ran, worst case, as a share of the send interval",
     "none (a large value marks the run as suspect)"),
    ("trace.overhead_pct", "%", "lower", "traced op time over untraced "
     "op time, minus one", "none"),
)

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
