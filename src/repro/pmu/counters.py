"""Per-thread PMU counters with sampling-period overflow detection.

Periods are lightly randomized around their nominal value (+-12.5%, from
a seeded generator) — the standard defense profilers use against
phase-locking: a fixed period resonates with fixed-length loop bodies and
systematically samples the same program phase, biasing every
decomposition.
"""

from __future__ import annotations

import random
from collections.abc import Mapping


class CounterBank:
    """One thread's programmable counters.

    Each configured event counts down from its sampling period; crossing
    zero raises an overflow (a PMU interrupt).  Totals are also kept so
    ground-truth comparisons and ablations can read exact event counts.
    """

    __slots__ = ("periods", "remaining", "totals", "overflows", "_rng",
                 "randomize")

    def __init__(self, periods: Mapping[str, int], seed: int = 0,
                 randomize: bool = True) -> None:
        self.periods: dict[str, int] = {
            ev: p for ev, p in periods.items() if p and p > 0
        }
        self.randomize = randomize
        self._rng = random.Random(seed * 1_000_003 + 17)
        self.remaining: dict[str, int] = {
            ev: self._next_period(p) for ev, p in self.periods.items()
        }
        self.totals: dict[str, int] = {ev: 0 for ev in self.periods}
        self.overflows: dict[str, int] = {ev: 0 for ev in self.periods}

    def _next_period(self, period: int) -> int:
        spread = period >> 3 if self.randomize else 0
        if spread:
            return period - spread + self._rng.randrange(2 * spread + 1)
        return period

    def add(self, event: str, n: int = 1) -> int:
        """Count ``n`` occurrences; return how many overflows this caused."""
        rem = self.remaining.get(event)
        if rem is None:
            return 0
        self.totals[event] += n
        rem -= n
        if rem > 0:
            # the common case: the counter is still counting down
            self.remaining[event] = rem
            return 0
        period = self.periods[event]
        fired = 0
        while rem <= 0:
            fired += 1
            rem += self._next_period(period)
        self.overflows[event] += fired
        self.remaining[event] = rem
        return fired


class PmuBank:
    """All threads' counter banks; created only when sampling is enabled."""

    __slots__ = ("banks",)

    def __init__(self, n_threads: int, periods: Mapping[str, int],
                 seed: int = 0) -> None:
        self.banks = [
            CounterBank(periods, seed=seed * 131 + tid)
            for tid in range(n_threads)
        ]

    def add(self, tid: int, event: str, n: int = 1) -> int:
        return self.banks[tid].add(event, n)

    def total(self, event: str) -> int:
        return sum(b.totals.get(event, 0) for b in self.banks)
