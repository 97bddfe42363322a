"""Tests for the benchmark harness itself, at reduced sizes.

Run from the repository root (about 30 s)::

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalog  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from serve_load import Submissions  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

#: reduced sizes: a few programs at a small scale per workload
SMALL = {
    "profile-corpus": {"names": ["micro_high_abort", "vacation"],
                       "scale": 0.05},
    "native-14t": {"names": ["vacation", "kmeans"], "scale": 0.02},
    "replay-dense": {"names": ("micro_high_abort", "kmeans"), "scale": 0.1},
    "lint-corpus": {"names": ["micro_high_abort", "vacation"],
                    "scale": 0.05},
    "serve-open": {"rate": 20.0},
}


def small(name: str, seed: int, tmp_path: Path):
    sizes = dict(SMALL[name])
    if name == "serve-open":
        sizes["out_dir"] = tmp_path
    return workloads.make(name, seed, **sizes)


def as_child_reports(outcome) -> dict:
    """The outcome as ``run.py`` receives it from a child."""
    return json.loads(json.dumps(asdict(outcome)))


def measure(name: str, trace: bool, tmp_path: Path, seed: int = 0,
            pinned: dict | None = None):
    wl = small(name, seed, tmp_path)
    try:
        wl.setup()
        seconds = 1.0 if name == "serve-open" else 0.0
        return wl.measure(seconds, trace, tmp_path, pinned=pinned)
    finally:
        wl.close()


def test_benchmark_json_matches_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(
        catalog.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(catalog.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == [row[:3] for row in
                                           catalog.PER_LAYER]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("name", catalog.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    for trace in (0, 1):
        outcome = measure(name, bool(trace), tmp_path)
        result, lines = run.assemble(name, 0, 0, trace, [0.5],
                                     as_child_reports(outcome))
        expected = (catalog.PER_LAYER if trace else catalog.END_TO_END)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            row[0]: row[1] for row in expected}
        assert result["correct"], lines
        assert result["attempted"] >= 1
        assert json.loads(json.dumps(result)) == result


def test_corrupted_digest_raises_error_rate(tmp_path):
    wl = small("profile-corpus", 0, tmp_path)
    true = {op.key: wl.output_digest(op, op.call())
            for op in wl.ops(traced=False)}
    pinned = {"combined": workloads.digest(true), "ops": dict(true)}
    assert measure("profile-corpus", False, tmp_path,
                   pinned=pinned).failed == 0
    pinned["ops"]["vacation"] = "0" * 16
    pinned["combined"] = workloads.digest(pinned["ops"])
    outcome = measure("profile-corpus", False, tmp_path, pinned=pinned)
    assert outcome.failed == 1
    result, _ = run.assemble("profile-corpus", 0, 0, 0, [0.5],
                             as_child_reports(outcome))
    assert not result["correct"]


def test_seed_changes_the_generated_inputs(tmp_path):
    def outputs(name: str, seed: int) -> dict[str, str]:
        wl = small(name, seed, tmp_path)
        wl.setup()
        return {op.key: wl.output_digest(op, op.call())
                for op in wl.ops(traced=False)}

    for name in ("profile-corpus", "native-14t", "replay-dense"):
        a, b = outputs(name, 0), outputs(name, 1)
        assert len(a) == len(b)
        assert sorted(a.values()) != sorted(b.values()), name
    subs = [Submissions(seed) for seed in (0, 1)]
    assert ([subs[0].next() for _ in range(8)]
            != [subs[1].next() for _ in range(8)])


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail(list(range(99))) is None
    assert stats.tail(list(range(100))) == (90.0, 89, 10)
    assert stats.tail(list(range(200)))[0] == 95.0
    assert stats.tail(list(range(1000)))[0] == 99.0
    lines = run.assemble("native-14t", 0, 0, 0, [0.5], {
        "attempted": 1, "failed": 0, "notes": [], "per_layer": {},
        "e2e": {"work_per_s": 1.0, "op_latency_ms": 1.0, "peak_rss_mb": 1.0},
        "samples": dict.fromkeys(("work_per_s", "op_latency_ms",
                                  "peak_rss_mb"), "1")})[1]
    assert not any("tail" in line for line in lines)


def _runs(factor: float, n: int = 10) -> list[dict]:
    """Synthetic run results; ``factor`` scales every time up."""
    runs = []
    for i in range(n):
        jitter = 1.0 + 0.01 * ((i * 7) % 5 - 2)
        values = {"work_per_s": 30.0 / factor * jitter,
                  "op_latency_ms": 20.0 * factor * jitter,
                  "peak_rss_mb": 40.0 * jitter,
                  "setup_s": 0.4 * factor * jitter}
        runs.append({"correct": True, "attempted": 100, "failed": 0,
                     "metrics": {k: {"value": v, "unit": "-"}
                                 for k, v in values.items()}})
    return runs


def test_compare_fails_a_uniform_slowdown_and_reports_a_speedup():
    parent = _runs(1.0)
    rc, lines = compare.compare(parent, _runs(1.5))
    assert rc == 1
    assert sum("regression" in line for line in lines) == 3
    rc, lines = compare.compare(parent, _runs(1 / 3))
    assert rc == 0
    assert sum(line.endswith("gain") for line in lines) == 3
    rc, _ = compare.compare(parent, _runs(1.0))
    assert rc == 0


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "native-14t",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
