"""The CI speed gate (``benchmarks/perf_gate.py``) with its per-run
function stubbed: no subprocess, no git, no timed window."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PARENT, CHANGE = Path("/parent"), Path("/change")
WORKLOADS = ("native-14t", "lint-corpus")


@pytest.fixture(scope="module")
def perf_gate():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "benchmarks" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.path[:] = saved
    return module


def result(work_per_s=100.0, op_latency_ms=10.0, correct=True, failed=0):
    return {"correct": correct, "attempted": 50, "failed": failed,
            "metrics": {
                "work_per_s": {"value": work_per_s, "unit": "1/s"},
                "op_latency_ms": {"value": op_latency_ms, "unit": "ms"},
                "peak_rss_mb": {"value": 40.0, "unit": "MB"},
                "setup_s": {"value": 0.2, "unit": "s"}}}


@pytest.fixture
def gate(perf_gate, monkeypatch):
    """Run the gate over stubbed trees: ``gate(change=..., parent=...)``
    maps each side to a ``(workload, seed) -> (code, doc)`` function and
    returns the exit code; ``gate.calls`` lists every run in order."""
    calls = []

    def run(change=lambda w, s: (0, result()),
            parent=lambda w, s: (0, result()),
            change_workloads=WORKLOADS):
        sides = {PARENT: parent, CHANGE: change}

        def run_once(tree, workload, seed):
            calls.append((tree, workload, seed))
            return sides[tree](workload, seed)

        monkeypatch.setattr(perf_gate, "run_once", run_once)
        monkeypatch.setattr(
            perf_gate, "workload_names",
            lambda tree: change_workloads if tree == CHANGE else WORKLOADS)
        return perf_gate.gate(PARENT, CHANGE)

    run.calls = calls
    return run


def test_pairs_alternate_and_seed_one_to_pairs(perf_gate, gate):
    assert gate() == 0
    pairs = perf_gate.PAIRS
    assert len(gate.calls) == 2 * pairs * len(WORKLOADS)
    for w, workload in enumerate(WORKLOADS):
        mine = gate.calls[2 * pairs * w:2 * pairs * (w + 1)]
        assert {c[1] for c in mine} == {workload}
        for i in range(pairs):
            first, second = mine[2 * i], mine[2 * i + 1]
            assert first[2] == second[2] == i + 1
            assert (first[0], second[0]) == \
                ((PARENT, CHANGE) if i % 2 == 0 else (CHANGE, PARENT))


def test_identical_runs_pass(gate, capsys):
    assert gate() == 0
    out = capsys.readouterr().out
    assert "regression" not in out and "FAIL" not in out


def test_uniform_slowdown_fails(gate, capsys):
    slow = result(work_per_s=100.0 / 1.5, op_latency_ms=15.0)
    assert gate(change=lambda w, s: (0, slow)) == 1
    assert "regression" in capsys.readouterr().out


def test_slowdown_of_one_workload_fails(gate, capsys):
    slow = result(work_per_s=100.0 / 1.5, op_latency_ms=15.0)
    assert gate(change=lambda w, s: (0, slow if w == "lint-corpus"
                                     else result())) == 1
    out = capsys.readouterr().out
    native, lint = out.split("=== lint-corpus")
    assert "regression" not in native and "regression" in lint


@pytest.mark.parametrize("bad", [(1, result(correct=False, failed=1)),
                                 (1, None),
                                 (0, result(correct=False))])
def test_change_side_failure_fails(gate, capsys, bad):
    def change(workload, seed):
        return bad if seed == 2 else (0, result())

    assert gate(change=change) == 1
    assert "FAIL: native-14t: the change's seed-2 run" in \
        capsys.readouterr().out


def test_parent_side_failure_is_reported_and_skipped(gate, capsys):
    def parent(workload, seed):
        if workload == "native-14t":
            return 1, result(correct=False, failed=3)
        return 0, result()

    assert gate(parent=parent) == 0
    out = capsys.readouterr().out
    assert "skip: native-14t: the parent's seed-1 run exited 1" in out
    # the other workload is still compared
    assert "=== lint-corpus" in out and "parent runs" in out


def test_change_only_workload_is_not_gated(gate, capsys):
    assert gate(change_workloads=(*WORKLOADS, "store-phases")) == 0
    assert "store-phases: not gated" in capsys.readouterr().out
    assert all(c[1] != "store-phases" for c in gate.calls)


def test_one_option(perf_gate):
    with pytest.raises(SystemExit):
        perf_gate.main(["--repeats", "3"])
