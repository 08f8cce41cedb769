"""Set-up, timed passes and the metrics of one benchmark run.

A pass runs every cell of the run once: map the field
(`build_topology`), then for each strategy `run_experiment` on that
mapping and `export` the result.  `wall_s` times exactly those calls;
the checks (`verify_least_hop`, the delivery invariants, hashing the
exported bytes) run between them, outside the timed intervals.

An untraced run makes one timed pass and sets up `SETUP_REPEATS` times:
once before the pass and the rest spread through it, between cells.  It
also times `reference_kernel` before every cell and after the last, and
reports `setup_s` and `wall_s` scaled to the host speed at which that
kernel takes `REFERENCE_S` (see `end_to_end`).  A traced run makes one
untraced pass, then the same pass with the tracer installed, which must
export the same bytes, and reports the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from collections import Counter
from dataclasses import dataclass, field

from checks import delivery_problems
from tracer import Tracer

# The host's speed drifts by up to 2x over a few seconds, while one set-up
# takes 0.05-0.8 s; set-ups spread through the pass sample the same
# stretch of time that wall_s covers.
SETUP_REPEATS = 15
# Host times are reported as if the host ran `reference_kernel` in this
# many seconds, about its time on an idle 2-core x86-64 VM under CPython
# 3.11.
REFERENCE_S = 0.016
MODULES = ("core", "engine", "radio", "topology", "forwarding", "baselines",
           "experiments")
CALLBACKS = ("poll", "on_data", "on_ack", "on_busy", "finish")
# Every workload runs rics, so only its per-strategy metrics can be in
# every traced result line; the other strategies' are printed only.
RESULT_STRATEGY = "rics"
MAX_PROBLEMS_SHOWN = 10

END_TO_END = {  # name -> (unit, host or sim)
    "setup_s": ("s", "host"),
    "wall_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "map_cycles": ("cycles", "sim"),
    "delivery_p50_cycles": ("cycles", "sim"),
    "delivery_p90_cycles": ("cycles", "sim"),
    "delivered_frac": ("ratio", "sim"),
}


def load_icroute(src: str):
    """Import icroute afresh from `src` and return its modules."""
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "icroute" or m.startswith("icroute.")]:
        del sys.modules[name]
    pkg = importlib.import_module("icroute")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) \
            != os.path.abspath(src):
        raise ImportError(f"icroute imported from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(
        SINK=pkg.SINK, **{m: sys.modules[f"icroute.{m}"] for m in MODULES})


def config(ic, cell, strategy):
    return ic.experiments.ExperimentConfig(
        shape=cell.shape, n_nodes=cell.n_nodes, t=cell.t, strategy=strategy,
        rounds=cell.rounds, seed=cell.seed)


def generate(ic, cells) -> list:
    return [ic.experiments.generate_scenario(config(ic, c, c.strategies[0]))
            for c in cells]


def reference_kernel() -> int:
    """Fixed pure-Python work (dict, tuple and sort traffic, like
    icroute's) that times the host's current speed; it does not touch
    icroute, so no change to icroute moves it.  Its table stays small so
    that it does not raise `peak_rss_mb`."""
    total = 0
    for shift in range(8):
        table = {}
        for i in range(2500):
            table[(i * 7919 + shift) % 4099, i & 15] = [i, i + 1]
        for key, value in table.items():
            total += key[0] * value[1] - key[1]
        total += len(sorted(table, key=lambda k: (k[1], -k[0])))
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def set_up(cells, src: str):
    """Import icroute and generate every scenario; returns the modules, the
    scenarios and the time it took."""
    start = time.perf_counter()
    ic = load_icroute(src)
    scenarios = generate(ic, cells)
    return ic, scenarios, time.perf_counter() - start


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    map_cycles: dict = field(default_factory=dict)  # grid point -> per seed
    quiesce_cycles: list = field(default_factory=list)  # one per cell
    latencies: dict = field(default_factory=dict)  # grid point -> cycles
    counts: Counter = field(default_factory=Counter)
    digest: str = ""


def run_pass(ic, cells, scenarios, export_dir: str,
             tracer: Tracer | None = None, before_cell=None) -> PassResult:
    res = PassResult()
    digest = hashlib.sha256()
    clock = time.perf_counter
    for index, (cell, scenario) in enumerate(zip(cells, scenarios)):
        if before_cell is not None:
            before_cell(index)
        res.attempted += len(cell.strategies)
        if tracer is not None:
            tracer.context = {"cell": index}
        try:
            start = clock()
            topo = ic.topology.build_topology(scenario)
            res.wall_s += clock() - start
            cell_problems = ic.topology.verify_least_hop(topo, scenario)
            _count_topology(res, topo, cell.t,
                            (cell.shape, cell.n_nodes, cell.t))
            positions = scenario.positions()
        except Exception:
            _fail(res, len(cell.strategies), cell, None, traceback.format_exc())
            continue
        for strategy in cell.strategies:
            if tracer is not None:
                tracer.context = {"cell": index, "strategy": strategy}
            try:
                start = clock()
                result = ic.experiments.run_experiment(
                    config(ic, cell, strategy), scenario=scenario, topo=topo)
                paths = result.export(export_dir)
                res.wall_s += clock() - start
                problems = cell_problems + delivery_problems(
                    result.forward, topo.hops, positions, scenario.range_m,
                    ic.SINK)
                _count_forwarding(res, result.forward, strategy, cell.t,
                                  (cell.shape, cell.n_nodes, cell.t))
                _hash_exports(res, digest, paths, export_dir)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                _fail(res, 1, cell, strategy, "; ".join(problems))
    res.digest = digest.hexdigest()
    return res


def _fail(res, experiments, cell, strategy, why):
    res.failed += experiments
    res.problems.append(f"{cell.shape}-n{cell.n_nodes}-t{cell.t}-s{cell.seed}"
                        f"-{strategy or 'mapping'}: {why.strip()}")


def _count_topology(res, topo, t, grid):
    c = res.counts
    run = topo.run
    res.map_cycles.setdefault(grid, []).append(topo.topo_time / (t + 1))
    res.quiesce_cycles.append(run.last_slot / (t + 1))
    c["cells"] += 1
    c["engine.slots"] += run.last_slot
    c["topology.frames"] += run.frames_sent
    c["topology.passes"] += sum(topo.passes.values())
    c["topology.converged"] += run.converged
    c["radio.collisions"] += run.data_collisions + run.ack_collisions


def _count_forwarding(res, fwd, strategy, t, grid):
    c = res.counts
    run = fwd.run
    scans = sum(len(v) for v in fwd.scan_attempts.values())
    matches = sum(len(v) for v in fwd.match_slots.values())
    res.latencies.setdefault(grid, []).extend(
        (d.delivered_at - d.created_at) / (t + 1) for d in fwd.deliveries)
    c["forwarding.runs"] += 1
    c["created"] += fwd.created
    c["delivered"] += fwd.delivered
    c["engine.slots"] += run.last_slot
    c["forwarding.frames"] += run.frames_sent
    c["forwarding.scan_attempts"] += scans
    c["forwarding.matches"] += matches
    c["forwarding.failures"] += fwd.failures
    c["forwarding.stale_breaks"] += fwd.stale_breaks
    c["forwarding.forced_exits"] += fwd.forced_exits
    c["forwarding.dropped_full"] += fwd.dropped_full
    c["forwarding.duplicates"] += fwd.duplicates
    c["forwarding.horizon_hits"] += not run.converged
    c["radio.collisions"] += run.data_collisions + run.ack_collisions
    c[f"created.{strategy}"] += fwd.created
    c[f"delivered.{strategy}"] += fwd.delivered
    c[f"scan_attempts.{strategy}"] += scans
    c[f"matches.{strategy}"] += matches


def _hash_exports(res, digest, paths, export_dir):
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, export_dir).encode() + b"\0")
        digest.update(data)
        res.counts["experiments.export_bytes"] += len(data)
    shutil.rmtree(os.path.dirname(paths[0]))


def ratio(a, b) -> float:
    return a / b if b else 0.0


def nearest_rank(ordered: list, q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup_s: float, p: PassResult, reference_s: float) -> dict:
    """The end-to-end metrics of an untraced pass.  `setup_s` and `wall_s`
    are scaled by REFERENCE_S / `reference_s`, the mean time of the
    reference kernel over the pass.  icroute's work slows down in step
    with the kernel when the host does (busy_relay seeds 20-24 on a
    2-core x86-64 VM: raw wall_s 34.0-42.0 s, scaled 25.1-26.2 s), so the
    scaled times move with icroute's cost, not with the host's speed at
    the time."""
    scale = REFERENCE_S / reference_s
    lat = [sorted(v) for v in p.latencies.values() if v] or [[1.0]]
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    values = {
        "setup_s": setup_s * scale,
        "wall_s": p.wall_s * scale,
        "peak_rss_mb": kib / 1024.0,
        # mean over the run's seeds for each grid point, then the geometric
        # mean over grid points, so that each grid point weighs the same
        # whatever its t
        "map_cycles": statistics.geometric_mean(
            [statistics.fmean(v) for v in p.map_cycles.values()] or [1.0]),
        # pooled within a grid point, over seeds and strategies (mixing
        # grid points would put the quantile between their modes), then
        # the geometric mean over grid points
        "delivery_p50_cycles": statistics.geometric_mean(
            nearest_rank(v, 0.50) for v in lat),
        "delivery_p90_cycles": statistics.geometric_mean(
            nearest_rank(v, 0.90) for v in lat),
        "delivered_frac": ratio(p.counts["delivered"], p.counts["created"]),
    }
    return {k: (v, END_TO_END[k][0]) for k, v in values.items()}


def result_counts(p: PassResult) -> dict:
    """Per-layer counts readable from result objects, without a tracer."""
    c = p.counts
    return {
        "engine.slots": (c["engine.slots"], "slots"),
        "radio.collisions": (c["radio.collisions"], "count"),
        "topology.frames": (c["topology.frames"], "count"),
        "topology.passes": (c["topology.passes"], "count"),
        "topology.quiesce_cycles": (
            statistics.fmean(p.quiesce_cycles or [0.0]), "cycles"),
        "topology.converged_frac": (
            ratio(c["topology.converged"], c["cells"]), "ratio"),
        "forwarding.frames": (c["forwarding.frames"], "count"),
        "forwarding.scan_attempts": (c["forwarding.scan_attempts"], "count"),
        "forwarding.match_frac": (
            ratio(c["forwarding.matches"], c["forwarding.scan_attempts"]),
            "ratio"),
        "forwarding.frames_per_delivery": (
            ratio(c["forwarding.frames"], c["delivered"]), "ratio"),
        "forwarding.failures": (c["forwarding.failures"], "count"),
        "forwarding.stale_breaks": (c["forwarding.stale_breaks"], "count"),
        "forwarding.forced_exits": (c["forwarding.forced_exits"], "count"),
        "forwarding.dropped_full": (c["forwarding.dropped_full"], "count"),
        "forwarding.duplicates": (c["forwarding.duplicates"], "count"),
        "forwarding.horizon_frac": (
            ratio(c["forwarding.horizon_hits"], c["forwarding.runs"]), "ratio"),
        "experiments.export_bytes": (c["experiments.export_bytes"], "bytes"),
    }


def strategy_counts(p: PassResult, strategies) -> dict:
    c = p.counts
    out = {}
    for s in strategies:
        out[f"forwarding.match_frac.{s}"] = (
            ratio(c[f"matches.{s}"], c[f"scan_attempts.{s}"]), "ratio")
        out[f"delivered_frac.{s}"] = (
            ratio(c[f"delivered.{s}"], c[f"created.{s}"]), "ratio")
    return out


def install_tracer(ic, tr: Tracer) -> Counter:
    """Wrap the layer boundaries; returns the counter the hooks fill."""
    counts = Counter()
    step_state = types.SimpleNamespace(res=None, frames=0)
    sink = ic.SINK
    collision = ic.radio.COLLISION

    def on_step(args, _result):
        _engine, _slot, awake, _behaviors, run = args
        counts["engine.wakes"] += len(awake)
        if run is not step_state.res:
            step_state.res, step_state.frames = run, 0
        if run.frames_sent == step_state.frames:
            counts["engine.idle_steps"] += 1
        step_state.frames = run.frames_sent
        if len(awake) == 1 and awake[0] == sink:
            counts["engine.sink_only_steps"] += 1

    def on_resolve(args, decoded):
        transmissions, listeners = args[0], args[1]
        counts["radio.pairs"] += len(transmissions) * len(listeners)
        counts["radio.frames"] += len(transmissions)
        for got in decoded.values():
            if got is collision:
                counts["radio.collisions"] += 1
            elif got is not None:
                counts["radio.decoded"] += 1

    ex, tp, en, fw = ic.experiments, ic.topology, ic.engine, ic.forwarding
    tr.span(ex, "generate_scenario")
    tr.leaf(ex, "bfs_hops")  # one call per placement try
    tr.span(tp, "build_topology")
    tr.span(tp, "verify_least_hop")
    tr.span(ex, "run_experiment")
    tr.span(ex, "build_policies")
    tr.span(ex, "run_forwarding")
    tr.span(ex.ExperimentResult, "export")
    tr.span(en.Engine, "run", "Engine.run")
    tr.aggregate(en.Engine, "_step", "Engine._step", observe=on_step)
    tr.leaf(en, "resolve_slot", observe=on_resolve)
    for cls in (tp.TopoNode, tp.TopoSink, fw.ForwardNode, fw.ForwardSink):
        for attr in CALLBACKS:
            if attr in vars(cls):
                tr.leaf(cls, attr, f"{cls.__name__}.{attr}")
    return counts


def per_layer(tr: Tracer, hooks: Counter, traced: PassResult,
              untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass: (result-line metrics, extras)."""
    def self_of(prefix):
        return sum(v[2] for (_p, n), v in tr.calls.items()
                   if n.startswith(prefix))

    steps = tr.count("Engine._step")
    metrics = {
        "engine.self_s": (tr.self_time("Engine.run")
                          + tr.self_time("Engine._step"), "s"),
        "engine.steps": (steps, "count"),
        "engine.wakes": (hooks["engine.wakes"], "count"),
        "engine.idle_step_frac": (ratio(hooks["engine.idle_steps"], steps),
                                  "ratio"),
        "engine.sink_only_steps": (hooks["engine.sink_only_steps"], "count"),
        "radio.resolve_s": (tr.total("resolve_slot"), "s"),
        "radio.resolve_calls": (tr.count("resolve_slot"), "count"),
        "radio.pairs": (hooks["radio.pairs"], "count"),
        "radio.frames": (hooks["radio.frames"], "count"),
        "radio.collision_frac": (
            ratio(hooks["radio.collisions"],
                  hooks["radio.collisions"] + hooks["radio.decoded"]), "ratio"),
        "topology.build_s": (tr.total("build_topology"), "s"),
        "topology.callback_s": (self_of("Topo"), "s"),
        "topology.steps": (tr.count("Engine._step", "build_topology"), "count"),
        "topology.verify_s": (tr.total("verify_least_hop"), "s"),
        "forwarding.run_s": (tr.total("run_forwarding"), "s"),
        "forwarding.callback_s": (self_of("Forward"), "s"),
        "forwarding.steps": (tr.count("Engine._step", "run_experiment"),
                             "count"),
        "baselines.build_s": (tr.total("build_policies"), "s"),
        "experiments.generate_s": (tr.total("generate_scenario"), "s"),
        "experiments.placement_tries": (
            tr.count("bfs_hops", "generate_scenario"), "count"),
        "experiments.export_s": (tr.total("export"), "s"),
        "trace.overhead_s": (traced.wall_s - untraced_wall_s, "s"),
    }
    metrics.update(result_counts(traced))
    extras = {}
    for s in sorted({sp.get("strategy") for sp in tr.spans} - {None}):
        into = metrics if s == RESULT_STRATEGY else extras
        into[f"forwarding.run_s.{s}"] = (sum(
            sp["end"] - sp["start"] for sp in tr.spans
            if sp["name"] == "run_forwarding" and sp.get("strategy") == s), "s")
        into.update(strategy_counts(traced, [s]))
    return metrics, extras


def write_trace(path, tr: Tracer, workload, seed, metrics):
    origin = min((s["start"] for s in tr.spans), default=0.0)
    doc = {
        "workload": workload, "seed": seed,
        "spans": [{**s, "start": s["start"] - origin, "end": s["end"] - origin}
                  for s in tr.spans],
        "calls": [{"phase": p, "name": n, "count": v[0], "total_s": v[1],
                   "self_s": v[2]} for (p, n), v in sorted(tr.calls.items())],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


@dataclass
class Report:
    lines: list
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit), the ones the result line carries

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()},
        })


def run(workload, seed: int, trace: bool, out_dir: str, src: str) -> Report:
    cells = workload.traced_cells(seed) if trace else workload.cells(seed)
    ic, scenarios, setup_s = set_up(cells, src)
    os.makedirs(out_dir, exist_ok=True)
    export_dir = os.path.join(out_dir, f"export-{os.getpid()}")
    lines = [f"workload {workload.name} seed {seed} cells {len(cells)} "
             f"experiments per pass {sum(len(c.strategies) for c in cells)}"]
    try:
        if trace:
            passes, metrics, extras = _traced(
                ic, workload, seed, cells, scenarios, export_dir, out_dir, lines)
        else:
            passes, setup_s, reference_s = _untraced(
                ic, cells, scenarios, export_dir, src, setup_s)
            metrics = end_to_end(setup_s, passes[0], reference_s)
            extras = result_counts(passes[0])
            lines.append(f"host reference_s {reference_s:.6g} raw_setup_s "
                         f"{setup_s:.6g} raw_wall_s {passes[0].wall_s:.6g}")
    finally:
        shutil.rmtree(export_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines.append(f"digest {passes[0].digest}")
    lines.append(f"fail_frac {ratio(failed, attempted):.6g} "
                 f"({failed} of {attempted} experiments)")
    problems = [q for p in passes for q in p.problems]
    lines.extend(f"problem {q}" for q in problems[:MAX_PROBLEMS_SHOWN])
    if trace:
        lines.extend(f"layer {k} {v:.9g} {u}"
                     for k, (v, u) in sorted({**metrics, **extras}.items()))
    else:
        lines.extend(f"metric {k} {v:.9g} {u} {END_TO_END[k][1]}"
                     for k, (v, u) in metrics.items())
        lines.extend(f"count {k} {v:.9g} {u}" for k, (v, u) in extras.items())
    return Report(lines, failed == 0, attempted, failed, metrics)


def _untraced(ic, cells, scenarios, export_dir, src, first_setup_s):
    """One timed pass, with the other set-ups and the reference kernel
    spread through it; returns the pass, the median set-up time and the
    mean time of the kernel.  The pass keeps the modules and scenarios of
    the first set-up."""
    times = [first_setup_s]
    reference = []
    due = {round(k * len(cells) / SETUP_REPEATS)
           for k in range(1, SETUP_REPEATS)}

    def between_cells(index):
        reference.append(time_reference())
        if index in due:
            times.append(set_up(cells, src)[2])

    p = run_pass(ic, cells, scenarios, export_dir, before_cell=between_cells)
    reference.append(time_reference())
    while len(times) < SETUP_REPEATS:  # fewer cells than set-ups
        times.append(set_up(cells, src)[2])
    return [p], statistics.median(times), statistics.fmean(reference)


def _traced(ic, workload, seed, cells, scenarios, export_dir, out_dir, lines):
    untraced = run_pass(ic, cells, scenarios, export_dir)
    tr = Tracer()
    hooks = install_tracer(ic, tr)
    try:
        traced = run_pass(ic, cells, generate(ic, cells), export_dir, tr)
    finally:
        tr.close()
    if traced.digest != untraced.digest:
        traced.failed = traced.attempted
        traced.problems.append("the traced pass exported other bytes than "
                               "the untraced one")
    metrics, extras = per_layer(tr, hooks, traced, untraced.wall_s)
    path = os.path.join(out_dir, f"trace-{workload.name}-s{seed}.json")
    write_trace(path, tr, workload.name, seed, {**metrics, **extras})
    lines.append(f"trace {os.path.relpath(path)} untraced wall_s "
                 f"{untraced.wall_s:.6g} traced wall_s {traced.wall_s:.6g}")
    return [untraced, traced], metrics, extras
