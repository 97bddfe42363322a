"""The four closed-loop workloads, their checks and the pinned digests.

Each workload turns ``--seed`` into a fixed list of operations (ops),
then runs passes over that list until the window ends, three at least.
Each op is timed on its own and summarised by its median over the
passes.  Throughput is a pass's work over the sum of those medians;
latency is their geometric mean.  A burst of host noise then moves only
the ops it overlapped, and an op's slow first run drops out of every
median.

The outputs of the first pass are checked after the window: against
the digests pinned in ``expected.json`` when the seed is pinned, and for
internal consistency at any seed.  Every later pass must reproduce the
first pass's digests exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import stats
from catalog import PER_LAYER_NAMES
from tracing import LAYERS, LayerTracer

from repro.analysis import lint as lint_mod
from repro.campaign.spec import canonical_json, make_run_spec
from repro.campaign.worker import execute_job
from repro.core import export
from repro.experiments.categorize import FIG8_SAMPLE_PERIODS
from repro.experiments.overhead import FIG5_BENCHMARKS
from repro.experiments.runner import run_workload
from repro.htmbench.base import get_workload, workload_names
from repro.replay import log as log_mod
from repro.replay import replayer
from repro.sim.config import MachineConfig
from repro.sim.engine import Simulator

EXPECTED = Path(__file__).resolve().parent / "expected.json"
#: an op's first run in a process is 30-60% slower (cold allocator and
#: per-program state); with three runs its median never includes it
MIN_PASSES = 3
#: seeds 0..PINNED_SEEDS-1 have pinned digests in ``expected.json``
PINNED_SEEDS = 32

#: ``figure8`` campaign jobs, one quarter of the paper's input size so a
#: pass over all 56 programs repeats several times in a window
PROFILE_SCALE = 0.25
#: §7.1's 14-thread machine.  How much a program contends at 14 threads
#: swings with the seed (linkedlist's run time triples on some), so a
#: pass runs every program at NATIVE_SEEDS seeds, at a twentieth of the
#: input, to keep one seed from deciding a run
NATIVE_THREADS = 14
NATIVE_SCALE = 0.05
NATIVE_SEEDS = 3
#: dense periods make ≈ 450 samples per log on average; a log's size
#: follows its seed, so each program is recorded at REPLAY_SEEDS seeds
REPLAY_SCALE = 0.125
REPLAY_SEEDS = 2
REPLAY_PERIODS = {"cycles": 500, "mem_loads": 400, "mem_stores": 400,
                  "rtm_aborted": 1, "rtm_commit": 5}
REPLAY_LOGS = ("micro_high_abort", "micro_false_sharing", "micro_capacity",
               "dedup", "vacation", "linkedlist", "kmeans", "histo")
#: the CI ``check all --static-only --races --predict-tree`` settings
LINT_SCALE = 0.25
#: dedup_opt, netdedup and netdedup_opt share dedup's pipeline code,
#: and each costs as much to analyse as the other 52 programs together;
#: keeping one member lets a lint pass repeat within a window
LINT_SKIP = ("dedup_opt", "netdedup", "netdedup_opt")


def digest(obj: Any) -> str:
    """Short content hash of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Op:
    """One timed operation: a stable name, the request id its span
    carries, and the call."""

    key: str
    rid: str
    call: Callable[[], Any]


@dataclass
class Outcome:
    """What a child reports to ``run.py`` after its window."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metrics except setup_s, which the parent measures
    e2e: dict[str, float] = field(default_factory=dict)
    #: sample count behind each end-to-end metric, for the report
    samples: dict[str, str] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class Passes:
    """Per-op timings and first-pass outputs of one window."""

    times: dict[str, list[float]]
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    #: op key -> digest of its first output
    digests: dict[str, str] = field(default_factory=dict)
    #: op keys whose later output differed from the first
    unstable: set[str] = field(default_factory=set)

    def medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.times.items() if v}


def geomean(values: Any) -> float:
    """Ops are different programs, so no one of them is typical; the
    geometric mean weighs a 10% change in any op alike."""
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def zero_layers() -> dict[str, float]:
    return dict.fromkeys(PER_LAYER_NAMES, 0.0)


class PassWorkload:
    """A closed loop, one caller, over a fixed list of operations."""

    name = ""
    #: what one unit of ``work_per_s`` is
    work_unit = "ops"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # -- to override -------------------------------------------------------

    def config(self) -> dict[str, Any]:
        """Everything besides the seed that determines the outputs; the
        pinned digests apply only while it is unchanged."""
        raise NotImplementedError

    def setup(self) -> None:
        """Prepare inputs before the window (counted in setup_s)."""

    def ops(self, traced: bool) -> list[Op]:
        raise NotImplementedError

    def output_digest(self, op: Op, out: Any) -> str:
        return digest(out)

    def work(self) -> dict[str, float]:
        """Units of work per op for ``work_per_s``, counted after the
        window; one per op unless a workload says otherwise."""
        return {}

    def keep(self, op: Op, out: Any) -> None:
        """Retain what :meth:`check` needs from a first-pass output."""

    def check(self, passes: Passes) -> tuple[int, list[str]]:
        """Workload-specific checks: (failed ops, report lines)."""
        return 0, []

    def layer_counts(self, outputs: list[Any]) -> dict[str, float]:
        """Per-pass counts from one traced pass's outputs."""
        return {}

    def close(self) -> None:
        pass

    # -- the loop ----------------------------------------------------------

    def run_passes(self, ops: list[Op], seconds: float,
                   tracer: LayerTracer | None = None,
                   outputs: list[Any] | None = None) -> Passes:
        """Repeat passes over ``ops`` until ``seconds`` have passed.
        First-pass outputs are digested and handed to :meth:`keep` (or
        appended to ``outputs``) after their timer stops; later outputs
        are only compared with the first."""
        res = Passes(times={op.key: [] for op in ops})
        start = time.perf_counter()
        while (res.passes < MIN_PASSES
               or time.perf_counter() - start < seconds):
            for op in ops:
                res.attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = op.call()
                    else:
                        with tracer.op(op.key, op.rid):
                            out = op.call()
                except Exception as exc:  # an op failure is a result
                    res.failed += 1
                    log(f"{self.name}: {op.key} raised "
                        f"{type(exc).__name__}: {exc}")
                    continue
                res.times[op.key].append(time.perf_counter() - t0)
                d = self.output_digest(op, out)
                first = res.digests.setdefault(op.key, d)
                if first != d:
                    res.unstable.add(op.key)
                elif res.passes == 0:
                    if outputs is not None:
                        outputs.append(out)
                    else:
                        self.keep(op, out)
            res.passes += 1
        return res

    def measure(self, seconds: float, trace: bool, out_dir: Path,
                pinned: dict | None = None) -> Outcome:
        if trace:
            return self.measure_traced(seconds, out_dir)
        ops = self.ops(traced=False)
        res = self.run_passes(ops, seconds)
        rss = peak_rss_mb()
        med = res.medians()
        work = self.work()
        units = sum(work.get(k, 1.0) for k in med)
        out = Outcome(attempted=res.attempted, failed=res.failed)
        out.e2e = {"work_per_s": units / sum(med.values()),
                   "op_latency_ms": geomean(med.values()) * 1e3,
                   "peak_rss_mb": rss}
        n_samples = sum(len(v) for v in res.times.values())
        out.samples = {
            "work_per_s": f"{units:.0f} {self.work_unit} per pass, "
                          f"{res.passes} passes x {len(ops)} ops",
            "op_latency_ms": f"geometric mean of {len(med)} per-op "
                             f"medians, {n_samples} samples",
            "peak_rss_mb": "1 process",
        }
        t = stats.tail([x for v in res.times.values() for x in v])
        if t is not None:
            out.notes.append(f"tail: p{t[0]:g} op latency {t[1] * 1e3:.1f} ms "
                             f"({n_samples} samples, {t[2]} beyond)")
        failed, lines = self.verify(res, pinned)
        out.failed += failed
        out.notes.extend(lines)
        return out

    def verify(self, res: Passes, pinned: dict | None) -> tuple[int, list[str]]:
        failed, lines = 0, []
        if res.unstable:
            failed += len(res.unstable)
            lines.append(f"FAIL nondeterministic output across passes: "
                         f"{sorted(res.unstable)}")
        if pinned is None:
            pinned = load_pinned(self.name, self.config(), self.seed)
        if pinned is None:
            lines.append(f"pinned digests: seed {self.seed} not pinned "
                         f"(seeds 0..{PINNED_SEEDS - 1} are)")
        else:
            bad = pinned_mismatches(res.digests, pinned)
            failed += len(bad)
            lines.append(f"FAIL pinned digests differ: {bad}" if bad else
                         f"pinned digests: {len(res.digests)} outputs match")
        more, extra = self.check(res)
        return failed + more, lines + extra

    def measure_traced(self, seconds: float, out_dir: Path) -> Outcome:
        """Half the window untraced, half traced; per-layer metrics."""
        plain = self.run_passes(self.ops(traced=False), seconds / 2)
        tracer = LayerTracer()
        tracer.install()
        outputs: list[Any] = []
        try:
            traced = self.run_passes(self.ops(traced=True), seconds / 2,
                                     tracer=tracer, outputs=outputs)
        finally:
            tracer.uninstall()
        out = Outcome(attempted=plain.attempted + traced.attempted,
                      failed=plain.failed + traced.failed)
        self.work()  # the checks read what counting the work produced
        failed, lines = self.verify(plain, None)
        out.failed += failed
        out.notes.extend(lines)

        table = tracer.table()
        layers = zero_layers()
        for layer in LAYERS:
            layers[f"{layer}.self_pct"] = table["layers"][layer]["self_pct"]
        for entry in ("htm.on_access", "htm.track", "pmu.add",
                      "core.on_sample", "replay.record"):
            calls = tracer.totals.get(entry, [0])[0]
            layers[f"{entry}.calls"] = calls / traced.passes
        layers.update(self.layer_counts(outputs))
        # the median op's slowdown, so one long op cannot decide it
        pm, tm = plain.medians(), traced.medians()
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(
            tm[k] / pm[k] for k in set(pm) & set(tm)) - 1.0)
        table["ladder"] = self.ladder()
        for rung, pct in table["ladder"].get("pct", {}).items():
            layers[f"ladder.{rung}.pct"] = pct
        out.per_layer = layers
        write_layer_files(out_dir, self.name, self.seed, tracer, table,
                          layers)
        return out

    def ladder(self) -> dict[str, Any]:
        """Per-rung cost split; only the profiled corpus has one."""
        return {}


def write_layer_files(out_dir: Path, name: str, seed: int,
                      tracer: LayerTracer | None, table: dict[str, Any],
                      layers: dict[str, float]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}"
    if tracer is not None:
        tracer.write_chrome(stem.with_suffix(".trace.json"))
    doc = {"workload": name, "seed": seed, "metrics": layers, **table}
    stem.with_suffix(".layers.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pinned digests
# ---------------------------------------------------------------------------


def load_pinned(name: str, config: dict, seed: int) -> dict | None:
    """The pinned digests for (workload, seed), or None when the seed is
    not pinned or the workload's inputs changed since pinning."""
    try:
        doc = json.loads(EXPECTED.read_text())
    except FileNotFoundError:
        return None
    entry = doc.get(name)
    if entry is None or entry.get("config") != digest(config):
        return None
    combined = entry["seeds"].get(str(seed))
    if combined is None:
        return None
    return {"combined": combined,
            "ops": entry["seed0"] if seed == 0 else None}


def pinned_mismatches(digests: dict[str, str], pinned: dict) -> list[str]:
    """Op keys whose output differs from the pinned one.  Without
    per-op digests a combined mismatch fails every op."""
    if digest(digests) == pinned["combined"]:
        return []
    per_op = pinned.get("ops")
    if per_op is None:
        return sorted(digests)
    return sorted(k for k in set(digests) | set(per_op)
                  if digests.get(k) != per_op.get(k))


def regenerate_expected(names: list[str]) -> dict:
    """Recompute the pinned digests for seeds 0..PINNED_SEEDS-1."""
    doc: dict[str, Any] = {}
    for name in names:
        entry: dict[str, Any] = {"seeds": {}}
        for seed in range(PINNED_SEEDS):
            wl = make(name, seed)
            wl.setup()
            digests: dict[str, str] = {}
            for op in wl.ops(traced=False):
                digests[op.key] = wl.output_digest(op, op.call())
            wl.close()
            entry["config"] = digest(wl.config())
            entry["seeds"][str(seed)] = digest(digests)
            if seed == 0:
                entry["seed0"] = digests
            log(f"pinned {name} seed {seed}")
        doc[name] = entry
    return doc


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def observable(rec: dict) -> str:
    """Digest of a run record without its spec and metrics snapshot:
    what switching the metrics registry on must leave unchanged."""
    result = {k: v for k, v in rec["result"].items() if k != "metrics"}
    return digest({**rec, "spec": None, "result": result})


class RunCorpus(PassWorkload):
    """Ops are campaign run jobs; a unit of work is one simulated
    instruction (engine step), so a seed that makes a program contend
    more does not read as a slower simulator."""

    work_unit = "simulated instructions"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: op key -> :func:`observable` digest of its first-pass record
        self.kept: dict[str, str] = {}
        #: op key -> record of the metrics-on run made by :meth:`work`
        self.counted: dict[str, dict] = {}

    @staticmethod
    def run_op(key: str, traced: bool, name: str, **spec: Any) -> Op:
        """A campaign run job as an op; traced runs switch the metrics
        registry on for the counts."""
        job = make_run_spec(name, metrics=traced, **spec)
        return Op(key, job.key, partial(execute_job, job.to_dict(), {}))

    def keep(self, op: Op, out: Any) -> None:
        self.kept[op.key] = observable(out)

    def work(self) -> dict[str, float]:
        """Steps per op, from one run of each op with the metrics
        registry on (deterministic, so once is enough)."""
        for op in self.ops(traced=True):
            self.counted[op.key] = op.call()
        return {key: rec["result"]["metrics"]["sim.steps"]["value"]
                for key, rec in self.counted.items()}

    def check(self, passes: Passes) -> tuple[int, list[str]]:
        """The metrics registry is read-only: its run must produce the
        same record as the first pass."""
        bad = sorted(key for key, rec in self.counted.items()
                     if observable(rec) != self.kept.get(key))
        if bad:
            return len(bad), [f"FAIL metrics registry changed the run: "
                              f"{bad}"]
        return 0, [f"metrics on: {len(self.counted)} runs unchanged"]


def run_counts(results: list[dict]) -> dict[str, float]:
    """Sentinel counts summed over one pass of run records that carry
    a metrics snapshot."""
    def total(name: str) -> int:
        return sum(r["metrics"].get(name, {}).get("value", 0)
                   for r in results)

    begins = sum(r["begins"] for r in results)
    return {
        "sim.steps": total("sim.steps"),
        "pmu.samples": total("pmu.samples"),
        "rtm.fallbacks": total("rtm.fallbacks"),
        "htm.commit_ratio": (sum(r["commits"] for r in results) / begins
                             if begins else 0.0),
    }


def consistent(r: dict) -> bool:
    return (sum(r["aborts_by_reason"].values()) == r["aborts"]
            and r["makespan"] == max(r["per_thread_cycles"])
            and r["work"] == sum(r["per_thread_cycles"])
            and len(r["per_thread_cycles"]) == NATIVE_THREADS
            and r["commits"] <= r["begins"])


def replay_one(text: str) -> dict:
    # module attributes are looked up per call so --trace wrappers apply
    return export.profile_to_dict(
        replayer.replay_profile(log_mod.loads_replay(text)))


class ProfileCorpus(RunCorpus):
    """Every registered program, profiled, as a ``figure8`` campaign job
    (run, record, profile export)."""

    name = "profile-corpus"

    def __init__(self, seed: int, names: list[str] | None = None,
                 scale: float = PROFILE_SCALE) -> None:
        super().__init__(seed)
        self.names = names or workload_names()
        self.scale = scale

    def config(self) -> dict[str, Any]:
        return {"names": self.names, "scale": self.scale, "threads": 4,
                "periods": FIG8_SAMPLE_PERIODS}

    def ops(self, traced: bool) -> list[Op]:
        return [self.run_op(
            name, traced, name, n_threads=4, scale=self.scale,
            seed=self.seed, profile=True,
            config={"sample_periods": dict(FIG8_SAMPLE_PERIODS)})
            for name in self.names]

    def check(self, passes: Passes) -> tuple[int, list[str]]:
        """Each record's profile must also re-encode byte-identically
        from its own ``.rlog``."""
        failed, lines = super().check(passes)
        bad = sorted(
            key for key, rec in self.counted.items()
            if replay_one(rec["replay_log"]) != rec["profile_db"])
        if bad:
            return failed + len(bad), lines + [
                f"FAIL replay differs from the live profile: {bad}"]
        return failed, lines + [f"replay: {len(self.counted)} profiles "
                                f"re-encode identically from their .rlog"]

    def layer_counts(self, outputs: list[Any]) -> dict[str, float]:
        return run_counts([rec["result"] for rec in outputs]) | {
            "replay.bytes_per_sample": (
                sum(len(rec["replay_log"]) for rec in outputs)
                / max(1, sum(rec["result"]["samples_delivered"]
                             for rec in outputs))),
        }

    def ladder(self) -> dict[str, Any]:
        """One pass over the corpus per rung, interleaved per program so
        a noise burst hits every rung of a program alike.  Each rung's
        increase over the previous one is that layer's cost."""
        totals = dict.fromkeys(RUNGS, 0.0)
        for name in self.names:
            for rung in RUNGS:
                t0 = time.perf_counter()
                ladder_run(name, self.seed, self.scale, rung)
                totals[rung] += time.perf_counter() - t0
        engine = totals["engine"]
        pct = {rung: 100.0 * (totals[rung] - totals[prev]) / engine
               for prev, rung in zip(RUNGS, RUNGS[1:])}
        return {"rung_s": totals, "pct": pct}


#: the ladder's rungs, each adding one layer to the previous one
RUNGS = ("engine", "pmu", "txsampler", "record", "obs")


class _CountingOnly:
    """A profiler that ignores every sample: the ``pmu`` rung gets PMU
    counting and sampling interrupts with no handler work."""

    def on_sample(self, sample: Any) -> None:
        pass


def ladder_run(name: str, seed: int, scale: float, rung: str) -> None:
    cfg = MachineConfig(n_threads=4).evolve(
        sample_periods=dict(FIG8_SAMPLE_PERIODS))
    if rung == "engine":
        run_workload(name, n_threads=4, scale=scale, seed=seed, config=cfg)
    elif rung == "pmu":
        sim = Simulator(cfg, n_threads=4, seed=seed, profiler=_CountingOnly())
        # the build RNG run_workload would use, so inputs match
        rng = random.Random(seed * 7919 + 13)
        sim.set_programs(get_workload(name).build(sim, 4, scale, rng))
        sim.run()
    else:
        obs = rung == "obs"
        run_workload(name, n_threads=4, scale=scale, seed=seed, config=cfg,
                     profile=True, record=rung in ("record", "obs"),
                     metrics=obs, trace=obs)


class Native14(RunCorpus):
    """The overhead suite's native half: unprofiled runs at 14 threads,
    each program at :data:`NATIVE_SEEDS` seeds."""

    name = "native-14t"

    def __init__(self, seed: int, names: list[str] | None = None,
                 scale: float = NATIVE_SCALE) -> None:
        super().__init__(seed)
        self.names = names or list(FIG5_BENCHMARKS)
        self.scale = scale

    def config(self) -> dict[str, Any]:
        return {"names": self.names, "scale": self.scale,
                "threads": NATIVE_THREADS, "seeds": NATIVE_SEEDS}

    def ops(self, traced: bool) -> list[Op]:
        seeds = range(self.seed * NATIVE_SEEDS, (self.seed + 1) * NATIVE_SEEDS)
        return [self.run_op(f"{name}@{seed}", traced, name,
                            n_threads=NATIVE_THREADS, scale=self.scale,
                            seed=seed)
                for seed in seeds for name in self.names]

    def check(self, passes: Passes) -> tuple[int, list[str]]:
        """Ground-truth bookkeeping must also add up in every record."""
        failed, lines = super().check(passes)
        bad = sorted(key for key, rec in self.counted.items()
                     if not consistent(rec["result"]))
        if bad:
            return failed + len(bad), lines + [
                f"FAIL run bookkeeping inconsistent: {bad}"]
        return failed, lines + [f"invariants: {len(self.counted)} records "
                                f"consistent"]

    def layer_counts(self, outputs: list[Any]) -> dict[str, float]:
        return run_counts([rec["result"] for rec in outputs])


class ReplayDense(PassWorkload):
    """``repro replay``: parse a recorded log, rebuild its profile,
    encode the database — no simulator in the loop.  Set-up records each
    program at :data:`REPLAY_SEEDS` seeds."""

    name = "replay-dense"
    work_unit = "samples"

    def __init__(self, seed: int, names: tuple[str, ...] = REPLAY_LOGS,
                 scale: float = REPLAY_SCALE) -> None:
        super().__init__(seed)
        self.names = list(names)
        self.scale = scale
        self.logs: dict[str, str] = {}
        #: digest of each live run's profile database
        self.live: dict[str, str] = {}
        self.samples: dict[str, int] = {}

    def config(self) -> dict[str, Any]:
        return {"names": self.names, "scale": self.scale, "threads": 4,
                "periods": REPLAY_PERIODS, "seeds": REPLAY_SEEDS}

    def setup(self) -> None:
        cfg = MachineConfig(n_threads=4).evolve(
            sample_periods=dict(REPLAY_PERIODS))
        for k in range(REPLAY_SEEDS):
            seed = self.seed * REPLAY_SEEDS + k
            for name in self.names:
                out = run_workload(name, n_threads=4, scale=self.scale,
                                   seed=seed, config=cfg, profile=True,
                                   record=True)
                key = f"{name}@{seed}"
                self.logs[key] = out.replay_log
                self.live[key] = digest(export.profile_to_dict(out.profile))
                self.samples[key] = out.result.samples_delivered

    def ops(self, traced: bool) -> list[Op]:
        return [Op(key, key, partial(replay_one, text))
                for key, text in self.logs.items()]

    def work(self) -> dict[str, float]:
        return dict(self.samples)

    def check(self, passes: Passes) -> tuple[int, list[str]]:
        bad = sorted(k for k, d in passes.digests.items()
                     if d != self.live[k])
        if bad:
            return len(bad), [f"FAIL replayed profile differs from the "
                              f"live one: {bad}"]
        return 0, [f"replay: {len(passes.digests)} profiles identical to "
                   f"their live runs"]

    def layer_counts(self, outputs: list[Any]) -> dict[str, float]:
        samples = sum(sum(doc["samples_seen"].values()) for doc in outputs)
        return {
            "pmu.samples": samples,
            "replay.bytes_per_sample": (
                sum(len(t) for t in self.logs.values()) / max(1, samples)),
        }


class LintCorpus(PassWorkload):
    """``repro check --static-only --races --predict-tree`` per program."""

    name = "lint-corpus"
    work_unit = "programs"

    def __init__(self, seed: int, names: list[str] | None = None,
                 scale: float = LINT_SCALE) -> None:
        super().__init__(seed)
        self.names = names or [n for n in workload_names()
                               if n not in LINT_SKIP]
        self.scale = scale

    def config(self) -> dict[str, Any]:
        return {"names": self.names, "scale": self.scale, "threads": 4}

    def ops(self, traced: bool) -> list[Op]:
        return [Op(name, name, partial(
            lint_mod.analyze_workload, name, n_threads=4, scale=self.scale,
            seed=self.seed, races=True, predict=True))
            for name in self.names]

    def output_digest(self, op: Op, out: Any) -> str:
        return digest([f.to_dict() for f in out.findings])

    def layer_counts(self, outputs: list[Any]) -> dict[str, float]:
        return {"analysis.findings": sum(len(r.findings) for r in outputs)}


PASS_WORKLOADS: dict[str, type[PassWorkload]] = {
    cls.name: cls for cls in (ProfileCorpus, Native14, ReplayDense,
                              LintCorpus)
}


def make(name: str, seed: int, **sizes: Any) -> Any:
    """The workload object for ``name``; ``sizes`` shrink it (tests)."""
    if name == "serve-open":
        from serve_load import ServeOpen

        return ServeOpen(seed, **sizes)
    return PASS_WORKLOADS[name](seed, **sizes)
