"""Shared experiment plumbing: build a workload, run it, profile it.

:func:`run_workload` is the one way a workload runs: every campaign run
job (:mod:`repro.campaign.worker`) calls it, and so do the harnesses
that read live instrumentation (§7.2, §8, §9).  The paper's repeated-run
protocols (§7.1's trimmed-mean overhead, Table 2's speedups) are
campaign suites (:mod:`repro.campaign.suites`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.analyzer import Profile
from ..core.profiler import TxSampler
from ..faults.plan import FaultPlan, coerce_plan
from .. import htmbench  # noqa: F401  (imports register all workloads)
from ..htmbench.base import Workload, get_workload
from ..obs.hooks import Observability
from ..replay.recorder import ObservationRecorder
from ..rtm.instrument import TxnInstrumentation
from ..sim.config import DEFAULT_THREADS, MachineConfig
from ..sim.engine import RunResult, Simulator

WorkloadLike = str | Workload


@dataclass
class Outcome:
    """One run's artifacts."""

    result: RunResult
    sim: Simulator | None = None
    profile: Profile | None = None
    profiler: TxSampler | None = None
    instrument: TxnInstrumentation | None = None
    #: the run's observability bundle (tracer/metrics), when enabled
    obs: Observability | None = None
    #: the sealed replay log (text form), when recording was requested
    replay_log: str | None = None


def _resolve(workload: WorkloadLike, params: dict) -> Workload:
    if isinstance(workload, str):
        return get_workload(workload, **params)
    return workload


def run_workload(
    workload: WorkloadLike,
    n_threads: int = DEFAULT_THREADS,
    scale: float = 1.0,
    seed: int = 0,
    config: MachineConfig | None = None,
    profile: bool = False,
    instrument: bool = False,
    contention_threshold: int = 50_000,
    trace: bool = False,
    metrics: bool = False,
    faults: FaultPlan | dict | None = None,
    record: bool = False,
    **params,
) -> Outcome:
    """Build + run one workload; optionally attach TxSampler and/or the
    ground-truth instrumentation.

    ``trace``/``metrics`` switch on the ``repro.obs`` tracer and metrics
    registry for this run (in addition to whatever the config enables);
    the resulting bundle is returned as ``Outcome.obs``.

    ``faults`` is an optional :class:`repro.faults.FaultPlan` (or its
    dict form) injected at the observation boundary; it overrides any
    plan already on ``config``.

    ``record`` captures the observation stream into a sealed
    :mod:`repro.replay` log, returned as ``Outcome.replay_log``;
    it requires ``profile`` (there is no stream to record otherwise).
    """
    cfg = config or MachineConfig(n_threads=n_threads)
    if faults is not None:
        plan = coerce_plan(faults)
        cfg = cfg.evolve(
            fault_plan=plan.to_dict() if plan is not None else None,
        )
    if trace or metrics:
        cfg = cfg.evolve(
            trace_enabled=cfg.trace_enabled or trace,
            metrics_enabled=cfg.metrics_enabled or metrics,
        )
    if record and not profile:
        raise ValueError("record=True requires profile=True — the replay "
                         "log captures the profiler's observation stream")
    wl = _resolve(workload, params)
    profiler = TxSampler(contention_threshold) if profile else None
    recorder = None
    if record:
        recorder = ObservationRecorder({
            "workload": wl.name if isinstance(workload, str) else
            getattr(wl, "name", str(wl)),
            "n_threads": n_threads,
            "scale": scale,
            "seed": seed,
            "fault_plan": cfg.fault_plan,
        })
    sim = Simulator(cfg, n_threads=n_threads, seed=seed, profiler=profiler,
                    recorder=recorder)
    instr = None
    if instrument:
        instr = TxnInstrumentation()
        sim.rtm.instrument = instr
    rng = random.Random(seed * 7919 + 13)
    sim.set_programs(wl.build(sim, n_threads, scale, rng))
    result = sim.run()
    replay_log = None
    if recorder is not None:
        replay_log = recorder.finalize(
            summary={"makespan": result.makespan,
                     "samples_delivered": result.samples_delivered},
        ).dumps()
    return Outcome(
        result=result,
        sim=sim,
        profile=profiler.profile() if profiler else None,
        profiler=profiler,
        instrument=instr,
        obs=sim.obs,
        replay_log=replay_log,
    )
