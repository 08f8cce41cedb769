"""Print one digest line per forwarding run of some benchmark seeds.

    python3 scripts/run_digests.py WORKLOAD:A-B

WORKLOAD is `busy_relay` or `map_sweep`, and A-B (or A) are workload
seeds.  Each cell of those seeds, drawn through perfbench/workloads.py,
is generated and mapped once and then forwarded under each of the
workload's strategies, as perfbench does.  Every run is exported to a
temporary directory, and one line is printed for it:

    LABEL STRATEGY failures=N SHA256

where LABEL is `shape-nN-tT-sSEED` and SHA256 covers the run's
exported files in name order (each name, a NUL byte, then its bytes).
Run it in two trees and `diff` the output: the lines that differ name
the runs whose exported bytes moved.  It imports `src/icroute` of this
tree.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from icroute.experiments import (  # noqa: E402
    ExperimentConfig,
    generate_scenario,
    run_experiment,
)
from icroute.topology import build_topology  # noqa: E402
from map_gates import _seed_range  # noqa: E402


def workload_cells(spec):
    """The cells of `spec`, "WORKLOAD:A-B", in perfbench's order."""
    name, _, seeds = spec.partition(":")
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS
    if name not in WORKLOADS or not seeds:
        raise ValueError(f"unknown workload seeds {spec!r}")
    return [c for seed in _seed_range(seeds) for c in WORKLOADS[name].cells(seed)]


def export_digest(paths):
    digest = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _config(cell, strategy):
    return ExperimentConfig(shape=cell.shape, n_nodes=cell.n_nodes, t=cell.t,
                            strategy=strategy, rounds=cell.rounds, seed=cell.seed)


def run_lines(cells):
    """Yield one line per (cell, strategy) run."""
    with tempfile.TemporaryDirectory(prefix="run-digests-") as out_dir:
        for cell in cells:
            scenario = generate_scenario(_config(cell, cell.strategies[0]))
            topo = build_topology(scenario)
            label = f"{cell.shape}-n{cell.n_nodes}-t{cell.t}-s{cell.seed}"
            for strategy in cell.strategies:
                result = run_experiment(_config(cell, strategy),
                                        scenario=scenario, topo=topo)
                paths = result.export(out_dir)
                digest = export_digest(paths)
                shutil.rmtree(os.path.dirname(paths[0]))
                yield f"{label} {strategy} failures={result.forward.failures} {digest}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        cells = workload_cells(argv[0])
    except ValueError as exc:
        print(f"run_digests.py: {exc}", file=sys.stderr)
        return 2
    for line in run_lines(cells):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
