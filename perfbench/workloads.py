"""The benchmark's workloads and the seeded draw of their orders.

Shared by run.py (which checks the outputs) and worker.py (which runs
the requests), so both see the same orders for a seed.

Each run draws its orders without replacement, one from each stratum of
`width` consecutive orders, so no order repeats within a run (a memo
keyed on m cannot turn a run into cache hits) while the run's total work
barely depends on the seed.  The widths are as small as the benchmark's
time budget allows: request cost grows steeply with m, so wider strata
let the seed move a run's total and its median request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FIELD_GRID = 16
FIELD_EXTENT = 2.0  # the CLI default
WARMUP_FIELD_GRID = 4  # runs the same code as a 16^3 grid, so set-up stays short


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    orders: range
    width: int
    warmup: int | None  # fixed order below the range, or None: an undrawn order of the first stratum

    @property
    def suffix(self) -> str:
        return "csv" if self.command == "field" else "json"

    def argv(self, m: int, path: str, warmup: bool = False) -> list[str]:
        argv = [self.command, "--m", str(m)]
        if self.command == "field":
            grid = WARMUP_FIELD_GRID if warmup else FIELD_GRID
            argv += ["--designated", "--grid", str(grid)]
        return argv + ["-o", path]


# Each workload stresses a different layer, so that an optimisation of one
# layer has a workload that exercises it and one that should not move.
WORKLOADS = {
    w.name: w
    for w in (
        # The verdict users wait on: the exact root-solution system check
        # dominates it, then the rational-root oracle and the factorization.
        # Orders stop at 64; verify --m 100 takes about 17 s.
        Workload("verify", "verify", range(26, 65), 2, 12),
        # One large exact build of P_m and no root work: the pair recurrence,
        # RatPoly arithmetic, the primitive integer form and the JSON write.
        Workload("build", "poly", range(100, 201), 5, 40),
        # The numeric layer, over every order the CLI accepts.  The seed fails
        # its checks from m = 10 (checks.KNOWN_FIELD_FAILURES); strata of 5
        # keep that boundary between strata, so the failure count is the
        # same for every seed.
        Workload("field", "field", range(0, 51), 5, None),
    )
}


def draw(workload: Workload, seed: int) -> tuple[list[int], int]:
    """The run's orders in request order, and the warm-up order."""
    rng = random.Random(f"{workload.name}/{seed}")
    width = workload.width
    strata = [workload.orders[i:i + width] for i in range(0, len(workload.orders), width)]
    picks = [rng.choice(stratum) for stratum in strata]
    warmup = workload.warmup
    if warmup is None:
        warmup = rng.choice([m for m in strata[0] if m != picks[0]])
    rng.shuffle(picks)
    return picks, warmup
