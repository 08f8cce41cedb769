"""Strategy comparisons on small hand-built layouts: everybody delivers,
the cached strategy scans least, and failure recovery behaves per
strategy."""

import random

import pytest

from icroute.core import AckFrame, ChargingSpec, Message, NodePlacement, Scenario
from icroute.baselines import (
    STRATEGIES,
    FixedHopPolicy,
    RandomHopPolicy,
    build_policies,
    lower_hop_neighbors,
)
from icroute.forwarding import CachedPolicy, ForwardNode, run_forwarding
from icroute.topology import build_topology


def line_scenario(t=5, offsets=(2, 5, 1), spacing=8.0, seed=42, deaths=None):
    spec = ChargingSpec(charge_slots=t)
    nodes = [NodePlacement(node_id=i, x=spacing * (i + 1), y=0.0, offset=o)
             for i, o in enumerate(offsets)]
    return Scenario(spec=spec, nodes=nodes, sink_xy=(0.0, 0.0),
                    range_m=spacing + 2.0, seed=seed, deaths=deaths or {})


def diamond_scenario(t=5, seed=7, deaths=None):
    # two parallel relays, either one can carry the far node's traffic
    spec = ChargingSpec(charge_slots=t)
    nodes = [
        NodePlacement(node_id=0, x=7.0, y=3.0, offset=2),
        NodePlacement(node_id=1, x=7.0, y=-3.0, offset=4),
        NodePlacement(node_id=2, x=14.0, y=0.0, offset=0),
    ]
    return Scenario(spec=spec, nodes=nodes, sink_xy=(0.0, 0.0), range_m=9.0,
                    seed=seed, deaths=deaths or {})


def run_with(strategy, scenario, rounds=2, max_slots=None):
    topo = build_topology(scenario)
    policies = build_policies(strategy, scenario, topo)
    return run_forwarding(scenario, topo.hops, rounds=rounds,
                          policies=policies, max_slots=max_slots)


def test_every_strategy_delivers_everything_on_a_line():
    for strategy in STRATEGIES:
        res = run_with(strategy, line_scenario())
        assert res.run.converged, strategy
        assert res.delivered == res.created == 6, strategy
        keys = [(d.origin, d.seq) for d in res.deliveries]
        assert len(keys) == len(set(keys)), strategy


def test_every_strategy_delivers_everything_on_a_diamond():
    for strategy in STRATEGIES:
        res = run_with(strategy, diamond_scenario())
        assert res.run.converged, strategy
        assert res.delivered == res.created == 6, strategy


def test_opportunistic_matches_cached_when_nothing_fails():
    sc = line_scenario(offsets=(3, 0, 4, 2))
    cached = run_with("rics", sc)
    opportunistic = run_with("otps", sc)
    assert cached.deliveries == opportunistic.deliveries
    assert cached.scan_attempts == opportunistic.scan_attempts


def test_fixed_strategy_rescans_every_batch():
    # two separated batches: the fixed strategy forgets its offset after
    # the first one and scans again, the cached strategy does not
    spec = ChargingSpec(charge_slots=5)
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=2)

    def sessions(policy):
        node = ForwardNode(placement, spec, policy, hop=2, rounds=0)
        for batch in range(2):
            node.queue.append(Message(origin=1, seq=batch, created_at=0))
            deadline = node.next_wake + 40 * 6
            while ((node.queue or node.state != "recv")
                   and node.next_wake <= deadline):
                slot = node.next_wake
                if node.poll(slot) is not None:
                    node.on_ack(slot, AckFrame(src=0, ack_dst=1))
                node.finish(slot)
            assert not node.queue and node.state == "recv"
        return len(node.scan_attempt_slots)

    assert sessions(CachedPolicy()) == 1
    assert sessions(FixedHopPolicy(0)) == 2


def test_cached_strategy_scans_least_overall():
    sc = diamond_scenario()
    totals = {}
    for strategy in STRATEGIES:
        res = run_with(strategy, sc, rounds=3)
        totals[strategy] = sum(len(v) for v in res.scan_attempts.values())
    assert totals["rics"] <= min(totals.values())
    assert totals["rics"] < totals["fxcs"]


def test_random_strategy_is_deterministic_per_seed():
    sc = diamond_scenario()
    first = run_with("rncs", sc, rounds=3)
    second = run_with("rncs", sc, rounds=3)
    assert first.deliveries == second.deliveries


def test_strategies_without_a_route_scan_for_whoever_answers():
    # a node the mapping gives no next hop (fxcs) or no lower-hop neighbor
    # (rncs) addresses its scan to nobody, and rncs draws nothing for it
    spec = ChargingSpec(charge_slots=5)
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=2)
    rng = random.Random(3)
    state = rng.getstate()
    for policy in (FixedHopPolicy(None), RandomHopPolicy([], rng)):
        node = ForwardNode(placement, spec, policy, hop=2, rounds=2)
        frames = []
        while ((node.generated < 2 or node.queue or node.state != "recv")
               and node.next_wake <= 40 * 6):
            slot = node.next_wake
            frame = node.poll(slot)
            if frame is not None:
                frames.append(frame)
                node.on_ack(slot, AckFrame(src=0, ack_dst=1))
            node.finish(slot)
        assert len(frames) == 2
        assert all(f.dst is None for f in frames)
        assert len(node.match_slots) == 2  # a fresh scan for each
    assert rng.getstate() == state


def test_unknown_strategy_is_refused():
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        build_policies("bogus", line_scenario(), topo=None)


def test_lower_hop_candidates_come_from_heard_neighbors():
    sc = diamond_scenario()
    topo = build_topology(sc)
    cands = lower_hop_neighbors(2, topo)
    assert set(cands) <= {0, 1}
    assert cands  # the far node heard at least one relay


def test_dead_next_hop_recovery_cached_vs_opportunistic():
    probe = run_with("rics", diamond_scenario(), rounds=3)
    far_first = next(d for d in probe.deliveries if d.origin == 2)
    relay = far_first.path[1]  # whoever won the far node's match
    assert relay in (0, 1)
    other = 1 - relay
    match_slot = probe.scan_attempts[2][-1]
    # the relay takes two of the three messages, then drops dead; those
    # two are lost with it, the third must reroute via the survivor
    deaths = {relay: match_slot + 7}
    horizon = 12000
    slow = run_with("rics", diamond_scenario(deaths=deaths), rounds=3,
                    max_slots=horizon)
    fast = run_with("otps", diamond_scenario(deaths=deaths), rounds=3,
                    max_slots=horizon)
    for res in (slow, fast):
        rerouted = [d for d in res.deliveries if d.origin == 2]
        assert [d.seq for d in rerouted] == [2]
        assert rerouted[0].path == (2, other)
        assert res.failures >= 1
        assert res.undelivered == 2  # in the dead relay's queue forever
        # the delivery countdown never reaches zero, but once the survivors
        # park with nothing left to send, no node is scheduled to wake
        assert res.run.converged
        last = max(d.delivered_at for d in res.deliveries)
        assert last <= res.run.last_slot < horizon
    slow_t = next(d for d in slow.deliveries if d.origin == 2).delivered_at
    fast_t = next(d for d in fast.deliveries if d.origin == 2).delivered_at
    assert fast_t < slow_t  # no recovery hold to sit through
    assert fast.run.last_slot < slow.run.last_slot
