#!/usr/bin/env python3
"""Regenerate tests/golden/ir_digests.json.

Extracts every registered workload with the settings of
tests/test_ir_extraction.py and records the digest of each canonical
ProgramIR dump.  Re-run only after an *intentional* extraction change:

    PYTHONPATH=src python tests/golden/regen_ir_digests.py

and say in the change why every digest that moved had to move.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

import repro.htmbench as hb  # noqa: E402
from tests.test_ir_extraction import (  # noqa: E402
    GOLDEN, LIMITS, N_THREADS, SCALE, SEED, extract, ir_entry,
)


def build() -> dict:
    return {
        "_comment": (
            "sha256 of a canonical ProgramIR dump per workload; see "
            "tests/test_ir_extraction.py. Regenerate with this "
            "directory's regen_ir_digests.py after an intentional "
            "extraction change."
        ),
        "n_threads": N_THREADS,
        "seed": SEED,
        "scale": SCALE,
        "max_ops": LIMITS.max_ops,
        "workloads": {name: ir_entry(extract(name))
                      for name in hb.workload_names()},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
