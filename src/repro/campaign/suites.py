"""Campaign builders for the paper's measurement suites.

Each builder expands one evaluation protocol into a content-addressed
job DAG; each assembler turns the resulting records into the rows the
``python -m repro`` commands print and the :mod:`repro.experiments`
harnesses return.  Because every harness goes through
:func:`repro.campaign.spec.make_run_spec`, runs shared between suites
(e.g. a speedup baseline and an overhead native run for the same seed)
occupy a single store slot and execute once.

Suites:

``table1``
    materializes the six CLOMP-TM configurations of Table 1 / Figure 7
    (profile databases land in the store) and renders the static table.
``figure7``
    the same six runs, assembled into the three Figure 7 decompositions
    plus the paper-narrative check.
``figure8``
    one profiled run per (non-optimized) HTMBench program, assembled
    into the Type I/II/III categorization.
``overhead``
    §7.1's trimmed-mean protocol: per workload, ``runs`` seeds ×
    (native, sampled) run jobs feeding one ``overhead`` reducer job.
``speedup``
    Table 2: per program, (naive, optimized) run jobs feeding one
    ``speedup`` reducer job.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Any

from ..core.export import profile_from_dict
from ..htmbench.clomp_tm import FIGURE7_CONFIGS
from ..sim.config import DEFAULT_THREADS
from .scheduler import CampaignRunner
from .spec import Campaign, JobSpec, make_run_spec
from .store import MemoryStore

SUITES = ("table1", "figure7", "figure8", "overhead", "speedup")


class SuiteError(ValueError):
    """Unknown suite or invalid suite arguments."""


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _clomp_jobs(campaign: Campaign, n_threads: int, scale: float,
                seed: int) -> None:
    """The six profiled CLOMP-TM runs; records (label, size, scatter,
    key) in Figure 7 order into ``campaign.meta``."""
    from ..experiments.clomp import FIG7_SAMPLE_PERIODS

    for label, size, scatter in FIGURE7_CONFIGS:
        spec = make_run_spec(
            "clomp_tm", n_threads=n_threads, scale=scale, seed=seed,
            profile=True,
            config={"sample_periods": dict(FIG7_SAMPLE_PERIODS)},
            params={"txn_size": size, "scatter": scatter},
        )
        key = campaign.add(spec, target=True)
        campaign.meta.append((label, size, scatter, key))


def build_table1(n_threads: int = DEFAULT_THREADS, scale: float = 1.0,
                 seed: int = 0, **_: object) -> Campaign:
    campaign = Campaign(name="table1")
    _clomp_jobs(campaign, n_threads, scale, seed)
    return campaign


def build_figure7(n_threads: int = DEFAULT_THREADS, scale: float = 1.0,
                  seed: int = 0, **_: object) -> Campaign:
    campaign = Campaign(name="figure7")
    _clomp_jobs(campaign, n_threads, scale, seed)
    return campaign


def build_figure8(n_threads: int = DEFAULT_THREADS, scale: float = 1.0,
                  seed: int = 0, workloads: list[str] | None = None,
                  **_: object) -> Campaign:
    from ..experiments.categorize import FIG8_SAMPLE_PERIODS, figure8_names

    campaign = Campaign(name="figure8")
    names = list(workloads) if workloads else figure8_names()
    for name in names:
        spec = make_run_spec(
            name, n_threads=n_threads, scale=scale, seed=seed,
            profile=True,
            config={"sample_periods": dict(FIG8_SAMPLE_PERIODS)},
        )
        key = campaign.add(spec, target=True)
        campaign.meta.append((name, key))
    return campaign


def _check_runs(runs: int, drop: int) -> None:
    if runs < 1 or drop < 0:
        raise SuiteError(f"runs must be >= 1 and drop >= 0: got "
                         f"runs={runs}, drop={drop}")


def build_overhead(n_threads: int = DEFAULT_THREADS, scale: float = 1.0,
                   seed: int = 0, workloads: list[str] | None = None,
                   runs: int = 7, drop: int = 1, **_: object) -> Campaign:
    from ..experiments.overhead import FIG5_BENCHMARKS

    _check_runs(runs, drop)
    if drop and runs <= 2 * drop:
        raise SuiteError(
            f"runs must exceed 2*drop to leave a mean: got runs={runs}, "
            f"drop={drop} (need runs > {2 * drop})"
        )
    campaign = Campaign(name="overhead")
    names = list(workloads) if workloads else list(FIG5_BENCHMARKS)
    for name in names:
        deps: list[str] = []
        for run_seed in range(runs):
            for profiled in (False, True):
                deps.append(campaign.add(make_run_spec(
                    name, n_threads=n_threads, scale=scale,
                    seed=run_seed, profile=profiled,
                )))
        key = campaign.add(JobSpec(
            kind="overhead", workload=name, n_threads=n_threads,
            scale=scale, deps=tuple(deps),
            extra={"runs": runs, "drop": drop},
        ), target=True)
        campaign.meta.append((name, key))
    return campaign


def build_speedup(n_threads: int = DEFAULT_THREADS, scale: float = 1.0,
                  seed: int = 0, workloads: list[str] | None = None,
                  **_: object) -> Campaign:
    from ..htmbench.optimized import TABLE2

    pairs = {naive: (opt, paper) for naive, opt, paper, _ in TABLE2}
    names = list(workloads) if workloads else list(pairs)
    unknown = [n for n in names if n not in pairs]
    if unknown:
        raise SuiteError(
            f"not Table 2 programs: {', '.join(unknown)} "
            f"(known: {', '.join(pairs)})"
        )
    campaign = Campaign(name="speedup")
    for name in names:
        opt, paper = pairs[name]
        base_key = campaign.add(make_run_spec(
            name, n_threads=n_threads, scale=scale, seed=seed,
        ))
        opt_key = campaign.add(make_run_spec(
            opt, n_threads=n_threads, scale=scale, seed=seed,
        ))
        key = campaign.add(JobSpec(
            kind="speedup", workload=name, n_threads=n_threads,
            scale=scale, seed=seed, deps=(base_key, opt_key),
            extra={"optimized": opt},
        ), target=True)
        campaign.meta.append((name, opt, paper, key))
    return campaign


BUILDERS = {
    "table1": build_table1,
    "figure7": build_figure7,
    "figure8": build_figure8,
    "overhead": build_overhead,
    "speedup": build_speedup,
}


def build_campaign(suite: str, **kw: Any) -> Campaign:
    builder = BUILDERS.get(suite)
    if builder is None:
        raise SuiteError(
            f"unknown suite {suite!r} (known: {', '.join(SUITES)})"
        )
    return builder(**kw)


def run_suite(suite: str, runner: CampaignRunner | None = None,
              extra: Iterable[JobSpec] = (),
              **kw: Any) -> tuple[Campaign, dict[str, dict]]:
    """Build ``suite``'s campaign from the builder kwargs ``kw``, add
    the ``extra`` specs as further targets, and run it in process.

    The paper-experiment harnesses in :mod:`repro.experiments` run
    their protocol through this; ``runner`` defaults to a serial one
    over a fresh :class:`MemoryStore`.  Returns ``(campaign, records)``
    with one record per target key.
    """
    campaign = build_campaign(suite, **kw)
    for spec in extra:
        campaign.add(spec, target=True)
    if runner is None:
        runner = CampaignRunner(store=MemoryStore(), jobs=1)
    return campaign, runner.run(campaign)


# ---------------------------------------------------------------------------
# remote submissions: the validator behind the ``repro serve`` daemon and
# the ``repro chaos --serve`` drill, so a JSON document submitted over HTTP
# builds exactly the campaign the equivalent command line would
# ---------------------------------------------------------------------------

#: the largest magnitude each campaign-identity field accepts: far
#: above any real campaign, and low enough that ``runs`` cannot make
#: ``submit`` build an unbounded job list inside the request
MAX_THREADS = 256
MAX_SCALE = 100.0
MAX_SEED = 2**32 - 1
MAX_RUNS = 1000
MAX_DROP = MAX_RUNS

#: campaign-identity fields a submission document may carry, with the
#: coercion and the ceiling applied to each (everything arrives as JSON
#: scalars)
SUBMISSION_FIELDS: dict[str, tuple[type, float]] = {
    "n_threads": (int, MAX_THREADS),
    "scale": (float, MAX_SCALE),
    "seed": (int, MAX_SEED),
    "runs": (int, MAX_RUNS),
    "drop": (int, MAX_DROP),
}

#: executor knobs that ride along in a submission but are the *runner's*
#: business, not the campaign's content hash
RUNNER_FIELDS = ("jobs", "timeout", "refresh", "deadline")

#: the longest timeout or deadline accepted, in seconds.  A worker arms
#: its job timeout with ``signal.setitimer``, which overflows the
#: platform's ``time_t`` (``OverflowError``) somewhere above this.
MAX_SECONDS = 2**31 - 1


def check_seconds(name: str, value: object) -> None:
    """Raise :class:`SuiteError` unless ``value`` is a finite number of
    seconds no larger than :data:`MAX_SECONDS`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SuiteError(f"{name} must be a number of seconds, "
                         f"got {value!r}")
    if not (isinstance(value, int) or math.isfinite(value)) \
            or value > MAX_SECONDS:
        raise SuiteError(f"{name} must be finite and at most "
                         f"{MAX_SECONDS} seconds, got {value!r}")


def submission_kwargs(doc: dict) -> tuple[str, dict[str, Any]]:
    """Validate a submission document into ``(suite, builder kwargs)``.

    Raises :class:`SuiteError` on an unknown suite, an unknown field, or
    a value of the wrong shape — the daemon turns that into an HTTP 400
    instead of a half-built campaign.  The runner fields are checked
    here too, but stay out of the builder kwargs.
    """
    if not isinstance(doc, dict):
        raise SuiteError("submission must be a JSON object")
    suite = doc.get("suite")
    if not isinstance(suite, str) or suite not in SUITES:
        raise SuiteError(
            f"unknown suite {suite!r} (known: {', '.join(SUITES)})"
        )
    unknown = sorted(set(doc) - set(SUBMISSION_FIELDS)
                     - set(RUNNER_FIELDS) - {"suite", "workloads"})
    if unknown:
        raise SuiteError(f"unknown submission field(s): "
                         f"{', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    workloads = doc.get("workloads")
    if workloads is not None:
        if (not isinstance(workloads, list)
                or not all(isinstance(w, str) for w in workloads)):
            raise SuiteError("workloads must be a list of strings")
        kwargs["workloads"] = list(workloads) or None
    for field_name, (coerce, ceiling) in SUBMISSION_FIELDS.items():
        if field_name not in doc:
            continue
        value = doc[field_name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SuiteError(f"{field_name} must be a number, "
                             f"got {value!r}")
        # a huge int overflows math.isfinite: test the ceiling first
        if abs(value) > ceiling or not math.isfinite(value):
            raise SuiteError(f"{field_name} must be finite and at most "
                             f"{ceiling} in magnitude, got {value!r}")
        if coerce is int and value != int(value):
            raise SuiteError(f"{field_name} must be a whole number, "
                             f"got {value!r}")
        kwargs[field_name] = coerce(value)
    if kwargs.get("n_threads", 1) < 1:
        raise SuiteError("n_threads must be >= 1")
    if kwargs.get("scale", 1.0) <= 0:
        raise SuiteError("scale must be > 0")
    _check_runs(kwargs.get("runs", 1), kwargs.get("drop", 0))
    jobs = doc.get("jobs")
    if jobs is not None and (isinstance(jobs, bool)
                             or not isinstance(jobs, int)):
        raise SuiteError(f"jobs must be an integer, got {jobs!r}")
    for field_name in ("timeout", "deadline"):
        if doc.get(field_name) is not None:
            check_seconds(field_name, doc[field_name])
    refresh = doc.get("refresh")
    if refresh is not None and not isinstance(refresh, bool):
        raise SuiteError(f"refresh must be true or false, "
                         f"got {refresh!r}")
    return suite, kwargs


# ---------------------------------------------------------------------------
# assembly: records → the experiment harnesses' row types
# ---------------------------------------------------------------------------


def clomp_rows_from_records(campaign: Campaign,
                            records: dict[str, dict]) -> list:
    """Figure 7 rows from cached clomp records, each profile rebuilt from
    its run record's database."""
    from ..experiments.clomp import clomp_row

    rows = []
    for label, size, scatter, key in campaign.meta:
        record = records[key]
        rows.append(clomp_row(
            label, size, scatter,
            profile_from_dict(record["profile_db"]),
            record["result"]["commits"],
            record["result"]["aborts_by_reason"],
        ))
    return rows


def figure8_rows_from_records(campaign: Campaign,
                              records: dict[str, dict]) -> list:
    from ..core.categorize import categorize
    from ..experiments.categorize import CategorizedRow
    from ..htmbench.base import WORKLOADS

    rows = []
    for name, key in campaign.meta:
        profile = profile_from_dict(records[key]["profile_db"])
        rows.append(CategorizedRow(
            category=categorize(name, profile),
            expected_type=WORKLOADS[name].expected_type,
        ))
    return rows


def overhead_rows_from_records(campaign: Campaign,
                               records: dict[str, dict]) \
        -> list[tuple[str, float, list[float]]]:
    """(name, trimmed mean, per-seed overheads) per workload."""
    return [
        (name, records[key]["mean"], records[key]["overheads"])
        for name, key in campaign.meta
    ]


def speedup_rows_from_records(campaign: Campaign,
                              records: dict[str, dict]) \
        -> list[tuple[str, str, float, float]]:
    """(naive, optimized, paper speedup, measured speedup) per program."""
    return [
        (name, opt, paper, records[key]["speedup"])
        for name, opt, paper, key in campaign.meta
    ]
