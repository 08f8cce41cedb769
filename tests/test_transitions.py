"""Transition tables for the two node state machines.

Every `finish`, `on_data` and `on_ack` of `TopoNode` and `ForwardNode`
is wrapped to record the node's state before and after the call, over
generated fields with and without deaths, mapped and then forwarded
under every strategy.  Each recorded move must be in the table here,
and each move in the table must show up somewhere in the sweep, so a
table entry that stops being used is noticed too.  A `ForwardNode`
must also enter the sender role only while unlocked: the batch lock
alone decides when a receiver leaves.  A `TopoNode` in `bcast`,
`cooldown` or `verify` must never be polled before its `_until`: it
parks through its listen-only stretches and wakes only to transmit or
to move on.  Each mapping and forwarding trace of the sweep must pass
the replay check (`tests/replay.py`).
"""

import random
from collections import defaultdict
from dataclasses import replace

import pytest

from icroute.baselines import STRATEGIES, build_policies
from icroute.core import NO_HOP
from icroute.experiments import ExperimentConfig, generate_scenario
from icroute.forwarding import ForwardNode, run_forwarding
from icroute.radio import EventTrace
from icroute.topology import TopoNode, build_topology
from replay import breaches

# any state may also stay as it is, and a TopoNode that improves its hop
# may move from anywhere into `lead_wait` or (at once) `lead`
TOPO_MOVES = {
    ("lead_wait", "lead"),
    ("lead", "lead_hold"),
    ("lead_hold", "bcast"),
    ("bcast", "cooldown"),
    ("bcast", "verify"),
    ("cooldown", "bcast"),
    ("verify", "cooldown"),
    ("verify", "listen"),
}
FORWARD_MOVES = {
    ("recv", "scan"),
    ("scan", "send"),
    ("scan", "recv"),
    ("send", "recv"),
}
# TopoNode states that start by listening at a new offset
LISTEN_FIRST = ("bcast", "cooldown", "verify")
CACHING = {"rics", "otps"}  # a cached match lets a receiver resume sending
CACHED_MOVES = {("recv", "send")}

FIELDS = [(shape, t) for shape in ("square", "rectangle") for t in (1, 2, 3, 5)]
N_NODES = 50


def field(shape, t, seed, dying):
    scenario = generate_scenario(ExperimentConfig(
        shape=shape, n_nodes=N_NODES, t=t, seed=seed))
    if not dying:
        return scenario
    rng = random.Random(seed)
    doomed = rng.sample(range(N_NODES), 3)
    return replace(scenario, deaths={
        nid: rng.randrange(60 * (t + 1) * (t + 2)) for nid in doomed})


@pytest.fixture
def moves(monkeypatch):
    """Record each (before, after) state change, per phase: "topology"
    or the strategy being forwarded."""
    seen = defaultdict(set)
    phase = ["topology"]
    last_hop = {}  # TopoNode -> hop at the end of its previous finish

    def wrap(cls, name):
        method = getattr(cls, name)

        def wrapped(node, slot, *args):
            before, hop = node.state, node.hop
            out = method(node, slot, *args)
            after = node.state
            if cls is TopoNode and name == "finish":
                improved = hop < last_hop.get(node, NO_HOP)
                last_hop[node] = node.hop
                if improved and after in ("lead_wait", "lead"):
                    return out  # a better hop re-anchors from any state
            if after != before:
                seen[phase[0]].add((before, after))
            return out

        monkeypatch.setattr(cls, name, wrapped)

    for cls in (TopoNode, ForwardNode):
        for name in ("finish", "on_data", "on_ack"):
            wrap(cls, name)

    enter_sender = ForwardNode._enter_sender

    def unlocked_enter_sender(node, slot):
        assert node.id_match is None, (phase[0], node.id, slot, node.id_match)
        return enter_sender(node, slot)

    monkeypatch.setattr(ForwardNode, "_enter_sender", unlocked_enter_sender)

    topo_poll = TopoNode.poll

    def transmit_only_poll(node, slot):
        # a listen-only stretch is parked through: a retry pass is polled
        # at its transmit slot, cooldown and verify at their deadline
        assert node.state not in LISTEN_FIRST or slot >= node._until, (
            node.id, slot, node.state, node._until)
        return topo_poll(node, slot)

    monkeypatch.setattr(TopoNode, "poll", transmit_only_poll)
    return seen, phase


@pytest.mark.parametrize("dying", [False, True], ids=["alive", "deaths"])
def test_every_state_move_is_in_the_table(moves, dying):
    seen, phase = moves
    for seed, (shape, t) in enumerate(FIELDS):
        scenario = field(shape, t, seed, dying)
        phase[0] = "topology"
        trace = EventTrace()
        topo = build_topology(scenario, trace=trace)
        assert breaches(trace.ndjson(), scenario) == []
        for strategy in STRATEGIES:
            phase[0] = strategy
            trace = EventTrace()
            run_forwarding(scenario, topo.hops, rounds=2, trace=trace,
                           policies=build_policies(strategy, scenario, topo))
            assert breaches(trace.ndjson(), scenario) == [], strategy
    assert seen.pop("topology") == TOPO_MOVES
    for strategy in STRATEGIES:
        want = FORWARD_MOVES | (CACHED_MOVES if strategy in CACHING else set())
        assert seen[strategy] == want, strategy
