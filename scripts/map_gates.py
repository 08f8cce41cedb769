"""Map one gate field set and print one JSON line about it.

    python3 scripts/map_gates.py FIELDSET

FIELDSET is one of the mapping gates named in ROADMAP.md:

    acc1             acceptance 1's 200 layouts (seeds 1000-1199)
    sweep            the 300-field sweep: seeds 5000-5074 x square and
                     rectangle x (n100 t5, n50 t50)
    busy_relay:A-B   the fields of workload seeds A to B of a benchmark
    map_sweep:A-B    workload, drawn through perfbench/workloads.py
    t500:A-B         square and rectangle n50 t500, seeds A to B, held
                     to acceptance 5's `topo_time` budgets

Each field is generated and mapped once (no forwarding).  The JSON line
holds the failing fields, each with its first `verify_least_hop`
problem (or "never converged"), the fields over budget, the total hop
and ack frames, the mean and max `topo_time` in slots, and the wall
seconds.  Run it from anywhere; it imports `src/icroute` of this tree.
"""

from __future__ import annotations

import json
import os
import sys
import time
from statistics import fmean

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from icroute.experiments import ExperimentConfig, generate_scenario  # noqa: E402
from icroute.topology import build_topology, verify_least_hop  # noqa: E402

# acceptance 5's `topo_time` budgets for n50 t500, in slots
T500_BUDGETS = {"square": 1_224_000, "rectangle": 3_024_000}


def _seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def gate_fields(fieldset):
    """The fields of `fieldset`, as (shape, n_nodes, t, seed, budget)
    tuples; budget is a `topo_time` bound in slots, or None."""
    name, _, seeds = fieldset.partition(":")
    if name == "acc1" and not seeds:
        configs = [(shape, n, t) for shape in ("square", "rectangle")
                   for n in (50, 100) for t in (5, 50)]
        return [(shape, n, t, 1000 + ci * 25 + i, None)
                for ci, (shape, n, t) in enumerate(configs)
                for i in range(25)]
    if name == "sweep" and not seeds:
        return [(shape, n, t, seed, None) for seed in range(5000, 5075)
                for shape in ("square", "rectangle")
                for n, t in ((100, 5), (50, 50))]
    if name in ("busy_relay", "map_sweep") and seeds:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        from workloads import WORKLOADS
        return [(c.shape, c.n_nodes, c.t, c.seed, None)
                for seed in _seed_range(seeds)
                for c in WORKLOADS[name].cells(seed)]
    if name == "t500" and seeds:
        return [(shape, 50, 500, seed, budget)
                for seed in _seed_range(seeds)
                for shape, budget in T500_BUDGETS.items()]
    raise ValueError(f"unknown field set {fieldset!r}")


def map_fields(fields):
    """Map every field; returns the report as a dict."""
    start = time.perf_counter()
    failing, over, times = [], [], []
    frames = 0
    for shape, n, t, seed, budget in fields:
        label = f"{shape}-n{n}-t{t}-s{seed}"
        scenario = generate_scenario(ExperimentConfig(shape=shape, n_nodes=n,
                                                      t=t, seed=seed))
        topo = build_topology(scenario)
        frames += topo.run.frames_sent
        times.append(topo.topo_time)
        problems = verify_least_hop(topo, scenario)
        if topo.converged_at is None:
            problems.append("never converged")
        if problems:
            failing.append({"field": label, "problem": problems[0]})
        if budget is not None and topo.topo_time > budget:
            over.append({"field": label, "topo_time": topo.topo_time,
                         "budget": budget})
    return {
        "fields": len(fields),
        "failing": failing,
        "over_budget": over,
        "frames": frames,
        "topo_time_mean": round(fmean(times), 1) if times else None,
        "topo_time_max": max(times, default=None),
        "seconds": round(time.perf_counter() - start, 2),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        fields = gate_fields(argv[0])
    except ValueError as exc:
        print(f"map_gates.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"fieldset": argv[0], **map_fields(fields)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
