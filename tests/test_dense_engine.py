"""Differential test of the slot engine against a dense reference engine
(McKeeman, *Differential testing for software*, DTJ 1998).

`DenseEngine` keeps no heap, wake buckets or calendar: it visits every
slot up to the horizon, or until no node is scheduled to wake, and reads
who is awake and who listens from the behaviors themselves.  Mapping and forwarding, run under each engine on
small drawn fields with and without deaths, must give the same
`RunResult`, the same trace NDJSON and the same exported bytes, whether
the reference visits a slot's nodes in ascending or descending id
order, and each trace must pass the replay check (`tests/replay.py`).
"""

import dataclasses
import functools
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from icroute import engine as engine_module
from icroute import forwarding, topology
from icroute.baselines import STRATEGIES
from icroute.core import SINK, ChargingSpec, NodePlacement, Scenario
from icroute.engine import Engine, RunResult
from icroute.experiments import ExperimentConfig, generate_scenario, run_experiment
from icroute.radio import (COLLISION, MICRO_SLOTS, EventTrace, derive_rng_stream,
                           resolve_slot)
from replay import breaches


class DenseEngine:
    """The engine contract, slot by slot: in each slot the awake nodes are
    those whose `next_wake` is the slot, and the listeners are the sink,
    the awake nodes and every node whose `listen_offset` is the slot's
    offset and that was last finished at least a cycle ago, in ascending
    id order, or in descending order if `descending`."""

    def __init__(self, scenario, behaviors, sink, trace=None, descending=False):
        self.descending = descending
        self.nodes = dict(sorted({**behaviors, SINK: sink}.items(),
                                 reverse=descending))
        self.trace = trace
        self.neighbors = scenario.neighbors()
        self.cycle = scenario.spec.cycle
        self.deaths = scenario.deaths
        self.jitter = {nid: derive_rng_stream(scenario.seed, nid, "jitter")
                       for nid in self.nodes}
        self.slot = 0  # the next slot to visit
        self.finished = {}  # node id -> the last slot it was finished in
        self.ran = 0  # the last slot in which a node ran

    def scheduled(self):
        return any(b.next_wake is not None for b in self.nodes.values())

    def run(self, max_slots, pending=None):
        res = RunResult(last_slot=0, converged=False)
        done = pending is not None and pending.value == 0
        while not done and self.slot <= max_slots and self.scheduled():
            slot, self.slot = self.slot, self.slot + 1
            for nid, died in self.deaths.items():
                if died == slot:
                    self.nodes[nid].next_wake = self.nodes[nid].listen_offset = None
            awake = [n for n, b in self.nodes.items() if b.next_wake == slot]
            if awake:
                self.step(slot, awake, res)
                self.ran = res.last_slot = slot
                done = pending is not None and pending.value == 0
        res.converged = done or not self.scheduled()
        if not done:
            res.last_slot = self.ran if res.converged else max_slots
        return res

    def step(self, slot, awake, res):
        nodes, trace = self.nodes, self.trace
        sent = []
        for nid in awake:
            frame = nodes[nid].poll(slot)
            if frame is not None:
                sent.append((frame, self.jitter[nid].randrange(MICRO_SLOTS)))
                if trace:
                    trace.add(slot, nid, "tx", frame=type(frame).__name__)
        charged = slot - self.cycle
        parked = [n for n, b in nodes.items()
                  if b.listen_offset == slot % self.cycle and n not in awake
                  and self.finished.get(n, charged) <= charged]
        heard = set()
        if sent:
            res.frames_sent += len(sent)
            listeners = sorted({SINK, *awake, *parked}, reverse=self.descending)
            replies = []
            for phase in ("data", "ack"):
                got_by = resolve_slot(sent, listeners, self.neighbors)
                heard.update(got_by)
                for nid, got in got_by.items():
                    if got is COLLISION:
                        name = f"{phase}_collisions"
                        setattr(res, name, getattr(res, name) + 1)
                        if trace:
                            trace.add(slot, nid, "collision", phase=phase)
                    elif trace:
                        trace.add(slot, nid, "rx" if phase == "data" else "rxa",
                                  frame=type(got).__name__, src=got.src)
                    if phase == "ack":
                        nodes[nid].on_ack(slot, got)
                        continue
                    reply = nodes[nid].on_data(slot, got)
                    if reply is not None:
                        replies.append((reply, self.jitter[nid].randrange(MICRO_SLOTS)))
                        if trace:
                            trace.add(slot, nid, "txr", frame=type(reply).__name__)
                if not replies:
                    break
                sent = replies
        for nid in awake + [n for n in parked if n in heard]:
            nodes[nid].finish(slot)
            self.finished[nid] = slot


def exported(result, out_dir):
    paths = result.export(out_dir)
    return {os.path.relpath(p, out_dir): open(p, "rb").read() for p in paths}


def run_under(engine, scenario, cfg, out_dir):
    """Map and forward `scenario` with `engine` standing in for Engine."""
    with mock.patch.object(topology, "Engine", engine), \
            mock.patch.object(forwarding, "Engine", engine):
        mapping = EventTrace()
        topo = topology.build_topology(scenario, trace=mapping)
        res = run_experiment(cfg, scenario=scenario, topo=topo, trace=True)
    return topo, mapping.ndjson(), res.forward, exported(res, out_dir)


coords = st.integers(0, 18).map(float)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=10),
       t=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
       strategy=st.sampled_from(STRATEGIES), dying=st.booleans(),
       descending=st.booleans(), data=st.data())
def test_engine_matches_the_dense_reference(points, t, seed, strategy, dying,
                                            descending, data):
    n = len(points)
    offsets = data.draw(st.lists(st.integers(0, t), min_size=n, max_size=n))
    deaths = data.draw(st.dictionaries(
        st.integers(0, n - 1), st.integers(0, 30 * (t + 1) * (t + 2)),
        min_size=1)) if dying else {}
    nodes = [NodePlacement(i, x, y, off)
             for i, ((x, y), off) in enumerate(zip(points, offsets))]
    scenario = Scenario(ChargingSpec(t), nodes, sink_xy=(0.0, 0.0),
                        range_m=10.0, seed=seed, deaths=deaths)
    cfg = ExperimentConfig(n_nodes=n, t=t, strategy=strategy, rounds=2,
                           seed=seed)
    with tempfile.TemporaryDirectory() as one, \
            tempfile.TemporaryDirectory() as two:
        fast = run_under(Engine, scenario, cfg, one)
        dense = run_under(functools.partial(DenseEngine, descending=descending),
                          scenario, cfg, two)
    assert fast[0] == dense[0]  # TopoResult, RunResult included
    assert fast[1] == dense[1]  # mapping trace NDJSON
    assert fast[2] == dense[2]  # ForwardResult, RunResult included
    assert fast[3] == dense[3]  # every exported byte, forwarding trace too
    forwarding_trace = fast[3][os.path.join(cfg.label(), "trace.ndjson")]
    assert breaches(fast[1], scenario) == []
    assert breaches(forwarding_trace.decode(), scenario) == []


def test_benchmark_hooks_see_each_processed_slot_and_each_phase_once():
    # perfbench/measure.py (install_tracer) replaces Engine._step on the
    # class and resolve_slot in the engine module, and counts on both: one
    # _step call per processed slot, with (engine, slot, awake, behaviors,
    # res), and one resolve_slot call per phase with something on the air
    cfg = ExperimentConfig(n_nodes=30, t=5, rounds=2, seed=4)
    scenario = dataclasses.replace(generate_scenario(cfg), deaths={7: 400})
    steps, dense_steps, resolves = [], [], []
    step, dense_step = Engine._step, DenseEngine.step

    def counted_step(*args):
        assert len(args) == 5
        engine, slot, awake, behaviors, res = args
        assert isinstance(engine, Engine) and isinstance(res, RunResult)
        assert behaviors is engine._all
        steps.append((slot, sorted(awake)))
        return step(*args)

    def counted_dense_step(engine, slot, awake, res):
        dense_steps.append((slot, list(awake)))
        return dense_step(engine, slot, awake, res)

    def counted_resolve(*args):
        resolves.append(args)
        return resolve_slot(*args)

    with tempfile.TemporaryDirectory() as out:
        with mock.patch.object(Engine, "_step", counted_step), \
                mock.patch.object(engine_module, "resolve_slot", counted_resolve):
            topo, mapping, fwd, files = run_under(Engine, scenario, cfg, out)
        with mock.patch.object(DenseEngine, "step", counted_dense_step):
            assert run_under(DenseEngine, scenario, cfg, out)[:3] == (
                topo, mapping, fwd)
    # the processed slots are the dense engine's slots with a node awake
    assert steps and steps == dense_steps
    forwarding_trace = files[os.path.join(cfg.label(), "trace.ndjson")].decode()
    phases = 0
    for ndjson in (mapping, forwarding_trace):
        events = [json.loads(line) for line in ndjson.splitlines()]
        phases += len({e["slot"] for e in events if e["kind"] == "tx"})
        phases += len({e["slot"] for e in events if e["kind"] == "txr"})
    assert all(len(args) == 3 for args in resolves)
    assert len(resolves) == phases
