"""Count engine wakes by node class, state and outcome over benchmark seeds.

    python3 scripts/wake_census.py WORKLOAD:A-B [--cells N]

WORKLOAD is `busy_relay` or `map_sweep`, and A-B (or A) are workload
seeds; `--cells N` keeps only the first N cells.  Each cell, drawn
through perfbench/workloads.py, is generated and mapped once and then
forwarded under each of the workload's strategies, as perfbench does
(without the export).  Every poll of a node is one wake, and one line
is printed per (class, state, outcome):

    CLASS STATE tx|listen WAKES SHARE

STATE is the node's state when it is polled; a forwarding receiver
reads `recv-locked` while it is locked to a sender.  `tx` means the
poll returned a frame, and SHARE is the line's share of its class's
wakes.  Then one line per phase (`mapping`, `forwarding`) and one for
both:

    steps PHASE STEPS idle IDLE idle_frac FRAC unheard UNHEARD unheard_frac FRAC

where a step is a slot the engine processed, an idle step one in which
nothing was sent, and an unheard step one in which frames were sent and
no listener got an `on_data` call.  Both fractions are of STEPS.  The
unheard count is taken at the behaviors' `on_data`, not inside the
engine, so it does not depend on how the engine resolves a slot.  Run
it in two trees to see where a change moves wakes.  It imports
`src/icroute` of this tree.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import ExitStack
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

from icroute.engine import Engine  # noqa: E402
from icroute.experiments import generate_scenario, run_experiment  # noqa: E402
from icroute.forwarding import ForwardNode, ForwardSink  # noqa: E402
from icroute.topology import TopoNode, TopoSink, build_topology  # noqa: E402
from run_digests import _config, workload_cells  # noqa: E402

POLLED = (TopoSink, TopoNode, ForwardNode)  # every behavior with a `poll`
HEARING = (*POLLED, ForwardSink)  # every behavior with an `on_data`
PHASES = ("mapping", "forwarding")


def state_of(node):
    state = getattr(node, "state", "sink")
    if state == "recv" and node.id_match is not None:
        return "recv-locked"
    return state


def census(cells):
    """Map and forward `cells`; return (wakes, steps): wakes counts
    (class, state, outcome), steps counts (phase, "steps", "idle" or
    "unheard")."""
    wakes, steps = Counter(), Counter()
    phase = [PHASES[0]]
    heard = [0]  # on_data calls so far

    def counted_poll(poll, name):
        def wrapped(node, slot):
            state = state_of(node)
            frame = poll(node, slot)
            wakes[name, state, "listen" if frame is None else "tx"] += 1
            return frame
        return wrapped

    def counted_on_data(on_data):
        def wrapped(node, slot, frame):
            heard[0] += 1
            return on_data(node, slot, frame)
        return wrapped

    step = Engine._step

    def counted_step(engine, slot, awake, behaviors, res):
        sent, got = res.frames_sent, heard[0]
        step(engine, slot, awake, behaviors, res)
        steps[phase[0], "steps"] += 1
        steps[phase[0], "idle"] += res.frames_sent == sent
        steps[phase[0], "unheard"] += (res.frames_sent > sent
                                       and heard[0] == got)

    with ExitStack() as patches:
        for cls in POLLED:
            patches.enter_context(mock.patch.object(
                cls, "poll", counted_poll(cls.poll, cls.__name__)))
        for cls in HEARING:
            patches.enter_context(mock.patch.object(
                cls, "on_data", counted_on_data(cls.on_data)))
        patches.enter_context(mock.patch.object(Engine, "_step", counted_step))
        for cell in cells:
            phase[0] = "mapping"
            scenario = generate_scenario(_config(cell, cell.strategies[0]))
            topo = build_topology(scenario)
            phase[0] = "forwarding"
            for strategy in cell.strategies:
                run_experiment(_config(cell, strategy), scenario=scenario,
                               topo=topo)
    return wakes, steps


def report(wakes, steps):
    """The census lines of `census`'s counts."""
    per_class = Counter()
    for (name, _, _), n in wakes.items():
        per_class[name] += n
    for key in sorted(wakes):
        n = wakes[key]
        yield f"{' '.join(key)} {n} {n / per_class[key[0]]:.4f}"
    for phase in (*PHASES, "all"):
        got = PHASES if phase == "all" else (phase,)
        total, idle, unheard = (sum(steps[p, kind] for p in got)
                                for kind in ("steps", "idle", "unheard"))
        idle_frac, unheard_frac = ((n / total if total else 0.0)
                                   for n in (idle, unheard))
        yield (f"steps {phase} {total} idle {idle} idle_frac {idle_frac:.4f}"
               f" unheard {unheard} unheard_frac {unheard_frac:.4f}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    limit = None
    if len(argv) == 3 and argv[1] == "--cells" and argv[2].isdigit():
        limit = int(argv[2])
    elif len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        cells = workload_cells(argv[0])
    except ValueError as exc:
        print(f"wake_census.py: {exc}", file=sys.stderr)
        return 2
    for line in report(*census(cells[:limit])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
