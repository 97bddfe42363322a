"""The declarative fault plan.

A :class:`FaultPlan` names every fault class the substrate can inject
and the rate (or period) at which to inject it.  Plans are plain data:
JSON-serializable, comparable, and canonicalized by :meth:`to_dict` so
that the same plan always hashes to the same campaign ``JobSpec`` key
regardless of how it was spelled.

Fault classes (all default to *off*):

observation-layer — perturb only what the profiler sees, never the
machine, so ground-truth :class:`~repro.sim.engine.RunResult` fields
are unchanged:

* ``drop_rate`` — the PEBS buffer loses the record (the interrupt still
  fired and still aborted any in-flight transaction);
* ``dup_rate`` — the record is delivered twice (buffer replay);
* ``skid_rate`` / ``skid_max`` — the "precise" IP skids forward by up
  to ``skid_max`` address units;
* ``lbr_truncate_rate`` / ``lbr_keep_max`` — the LBR snapshot is cut to
  at most ``lbr_keep_max`` newest entries (possibly zero);
* ``lbr_stale_rate`` — the previous interrupt's LBR snapshot is
  delivered instead of the current one;
* ``corrupt_rate`` — the record payload is garbled (bad event name,
  negative timestamp/weight, out-of-range tid, junk LBR entry, junk
  IP); a hardened profiler quarantines these instead of crashing;
* ``clock_skew_ppm`` — each thread's sampled ``rdtsc`` runs fast or
  slow by a fixed per-thread rate of up to this many parts per million.

machine-layer — perturb the simulated machine itself:

* ``storm_period`` / ``storm_cost`` — a timer-interrupt storm: every
  ``storm_period`` cycles the thread takes an interrupt that aborts an
  in-flight transaction (inflating "other"-class async aborts, the
  hybrid-TM fallback pathology) and burns ``storm_cost`` cycles;
* ``kill_after_samples`` / ``kill_mode`` — the process dies mid-run
  after that many delivered samples: ``"raise"`` raises
  :class:`~repro.faults.inject.WorkerKilled` (an in-process crash the
  campaign scheduler retries), ``"exit"`` hard-exits like an OOM kill
  (the pool sees a ``BrokenProcessPool``).

``seed`` drives every probabilistic decision through per-thread RNG
streams, so a plan is exactly reproducible and independent of thread
scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

KILL_MODES = ("raise", "exit")

#: rate-valued fields, each bounded to [0, 1]
_RATE_FIELDS = (
    "drop_rate",
    "dup_rate",
    "skid_rate",
    "lbr_truncate_rate",
    "lbr_stale_rate",
    "corrupt_rate",
)

#: fields whose non-zero value switches a fault class on; ``seed`` and
#: the shape parameters (``skid_max``, ``lbr_keep_max``, ``storm_cost``,
#: ``kill_mode``) do not activate anything by themselves
_ACTIVATORS = _RATE_FIELDS + (
    "clock_skew_ppm",
    "storm_period",
    "kill_after_samples",
)


class FaultPlanError(ValueError):
    """The fault plan is malformed (rate out of range, bad mode, ...)."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of the faults to inject."""

    seed: int = 0
    # --- observation-layer faults ---------------------------------------
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    skid_rate: float = 0.0
    skid_max: int = 8
    lbr_truncate_rate: float = 0.0
    lbr_keep_max: int = 4
    lbr_stale_rate: float = 0.0
    corrupt_rate: float = 0.0
    clock_skew_ppm: int = 0
    # --- machine-layer faults -------------------------------------------
    storm_period: int = 0
    storm_cost: int = 200
    kill_after_samples: int = 0
    kill_mode: str = "raise"

    def validate(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name}={rate!r} outside [0, 1]")
        for name in ("skid_max", "lbr_keep_max", "clock_skew_ppm",
                     "storm_period", "storm_cost", "kill_after_samples"):
            value = getattr(self, name)
            if value < 0:
                raise FaultPlanError(f"{name}={value!r} must be >= 0")
        if self.kill_mode not in KILL_MODES:
            raise FaultPlanError(
                f"kill_mode={self.kill_mode!r} not in {KILL_MODES}"
            )

    def is_zero(self) -> bool:
        """True when no fault class is active: the plan injects nothing
        and the fault layer must be byte-for-byte invisible."""
        return all(not getattr(self, name) for name in _ACTIVATORS)

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Canonical minimal form: only fields that differ from the
        defaults, so equivalent plans serialize (and hash) identically."""
        defaults = FaultPlan()
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name)
        }

    @classmethod
    def from_dict(cls, doc: dict) -> FaultPlan:
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan field(s): {sorted(unknown)}"
            )
        plan = cls(**doc)
        plan.validate()
        return plan


def coerce_plan(plan: FaultPlan | dict | None) -> FaultPlan | None:
    """Accept a plan, a plan dict, or None; validate and normalize."""
    if plan is None:
        return None
    if isinstance(plan, FaultPlan):
        plan.validate()
        return plan
    return FaultPlan.from_dict(plan)
