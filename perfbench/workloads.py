"""The benchmark's workloads and the experiments one run makes from a seed.

A workload is a grid of configurations (shape x nodes x t) and a list of
strategies.  A run draws `seeds_per_run` experiment seeds from the
workload seed and makes one *cell* per (experiment seed, grid point): one
generated field, mapped once, then forwarded under each strategy.  The
cells of a run are fixed by the workload seed alone, so the simulated
work of a run never depends on how fast the host is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

STRATEGIES = ("rics", "fxcs", "rncs", "otps")


@dataclass(frozen=True)
class Cell:
    shape: str
    n_nodes: int
    t: int
    seed: int
    rounds: int
    strategies: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple
    sizes: tuple
    ts: tuple
    strategies: tuple
    rounds: int
    seeds_per_run: int

    def cells(self, seed: int) -> list[Cell]:
        # str seeding hashes with sha512, so the draw does not depend on
        # PYTHONHASHSEED
        rng = random.Random(f"{self.name}:{seed}")
        cells = []
        for _ in range(self.seeds_per_run):
            exp_seed = rng.randrange(2**31)
            for shape in self.shapes:
                for n in self.sizes:
                    for t in self.ts:
                        cells.append(Cell(shape, n, t, exp_seed, self.rounds,
                                          self.strategies))
        return cells

    def traced_cells(self, seed: int) -> list[Cell]:
        """The cells of the first quarter of the run's experiment seeds (at
        least one): a traced pass costs several untraced ones."""
        grid = len(self.shapes) * len(self.sizes) * len(self.ts)
        return self.cells(seed)[:grid * math.ceil(self.seeds_per_run / 4)]


# seeds_per_run sizes each pass to about 30-45 s on a 2-core x86 host.
# Mapping time per seed varies with the field (coefficient of variation
# 0.3-0.5 per grid point), so a run needs many seeds per grid point for
# its mean to land near the next run's.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="busy_relay",
            shapes=("square", "rectangle"), sizes=(100,), ts=(5,),
            strategies=STRATEGIES, rounds=10, seeds_per_run=20,
        ),
        Workload(
            name="map_sweep",
            shapes=("square", "rectangle"), sizes=(50, 100), ts=(5, 50),
            strategies=("rics",), rounds=1, seeds_per_run=9,
        ),
    )
}
