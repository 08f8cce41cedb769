import math
import random
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from icroute.core import (AckFrame, ChargingSpec, DiskGrid, HopFrame, NO_HOP,
                          NodePlacement, SINK, Scenario)
from icroute.engine import park_deadline
from icroute.radio import COLLISION, EventTrace, derive_rng_stream
from icroute.topology import (
    QUIET_PASSES,
    TopoNode,
    TopoSink,
    bfs_hops,
    build_topology,
    join_round,
    lead_plan,
    plan_calls,
    relay_anchor,
    relay_rounds,
    verify_least_hop,
)


def line_scenario(n, spacing=90.0, range_m=100.0, t=5, seed=1, offsets=None):
    spec = ChargingSpec(t)
    if offsets is None:
        rng = random.Random(seed)
        offsets = [rng.randrange(t + 1) for _ in range(n)]
    nodes = [
        NodePlacement(i, spacing * (i + 1), 0.0, offsets[i]) for i in range(n)
    ]
    return Scenario(spec, nodes, sink_xy=(0.0, 0.0), range_m=range_m,
                    seed=seed)


def random_scenario(n, width, height, range_m, t, seed):
    rng = random.Random(seed)
    nodes = [
        NodePlacement(i, rng.uniform(0, width), rng.uniform(0, height),
                      rng.randrange(t + 1))
        for i in range(n)
    ]
    return Scenario(ChargingSpec(t), nodes, sink_xy=(width / 2, height / 2),
                    range_m=range_m, seed=seed)


def relaxed_hops(scenario):
    # second reference: repeated edge relaxation instead of BFS levels
    pos = scenario.positions()
    ids = [p.node_id for p in scenario.nodes]
    hops = {nid: NO_HOP for nid in ids}
    hops[SINK] = 0
    everyone = ids + [SINK]
    changed = True
    while changed:
        changed = False
        for a in ids:
            for b in everyone:
                if a == b or hops[b] == NO_HOP:
                    continue
                if math.dist(pos[a], pos[b]) <= scenario.range_m:
                    if hops[b] + 1 < hops[a]:
                        hops[a] = hops[b] + 1
                        changed = True
    del hops[SINK]
    return hops


def test_bfs_matches_relaxation_reference():
    for seed in range(6):
        sc = random_scenario(18, 400, 400, 120, t=5, seed=seed)
        assert bfs_hops(sc) == relaxed_hops(sc)


def all_pairs_neighbors(scenario):
    pos = scenario.positions()
    return {a: frozenset(b for b in pos if b != a
                         and math.dist(pos[a], pos[b]) <= scenario.range_m)
            for a in pos}


@st.composite
def grid_fields(draw):
    """Fields that stress the cell grid: integer coordinates, negative
    ones included, put many pairs exactly on the boundary for an integer
    range; points on cell edges; partners exactly `range_m` away along
    an axis; and a sink that may sit outside the nodes' area, in reach
    of nobody."""
    range_m = draw(st.integers(1, 30) | st.floats(1.0, 30.0))
    side = DiskGrid((), range_m).side
    coord = st.integers(-40, 40).map(float) | st.integers(-4, 4).map(
        lambda k: k * side)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=15))
    axes = st.sampled_from(((1, 0), (-1, 0), (0, 1), (0, -1)))
    partners = draw(st.lists(st.tuples(st.sampled_from(points), axes),
                             max_size=4))
    points += [(x + dx * range_m, y + dy * range_m)
               for (x, y), (dx, dy) in partners]
    sink = draw(st.tuples(coord, st.integers(-120, 120).map(float)))
    nodes = [NodePlacement(i, x, y, 0) for i, (x, y) in enumerate(points)]
    return Scenario(ChargingSpec(1), nodes, sink_xy=sink, range_m=range_m)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(grid_fields())
def test_bfs_matches_relaxation_on_drawn_placements(sc):
    assert bfs_hops(sc) == relaxed_hops(sc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(grid_fields(), st.data())
def test_take_leaves_exactly_the_unfound_points_in_order(sc, data):
    points = [(p.node_id, (p.x, p.y)) for p in sc.nodes]
    spot = data.draw(st.sampled_from([sc.sink_xy] + [xy for _, xy in points]))
    grid = DiskGrid(points, sc.range_m)
    before = {key: list(members) for key, members in grid.cells.items()}
    looked = grid.near(spot)
    found = grid.near(spot, take=True)
    assert found == looked
    assert sorted(found) == [m for m in points
                             if math.dist(spot, m[1]) <= sc.range_m]
    left = [m for members in grid.cells.values() for m in members]
    assert sorted(found + left) == points
    # each cell keeps its other members in order; an emptied cell goes
    assert all(grid.cells.values())
    assert grid.cells == {
        key: rest for key, members in before.items()
        if (rest := [m for m in members if m not in found])}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(grid_fields())
def test_grid_neighbors_match_all_pairs_on_drawn_placements(sc):
    assert sc.neighbors() == all_pairs_neighbors(sc)


def test_bfs_unreachable_is_no_hop():
    sc = line_scenario(3, spacing=90)
    far = NodePlacement(99, 5000.0, 5000.0, 0)
    sc = Scenario(sc.spec, sc.nodes + [far], sc.sink_xy, sc.range_m,
                  seed=sc.seed)
    assert bfs_hops(sc)[99] == NO_HOP


def test_sink_transmits_one_round_per_slot():
    sink = TopoSink(ChargingSpec(5))
    assert sink.next_wake == 5
    frames = {s: sink.poll(s) for s in range(5, 11)}
    assert [frames[s].round_no for s in range(5, 11)] == [0, 1, 2, 3, 4, 5]
    assert all(f.hop == 0 and f.src == SINK for f in frames.values())
    assert sink.poll(4) is None and sink.poll(11) is None
    # the sink wakes in every slot of its pass and has no wake after its
    # last frame, at slot 2t
    for slot in range(5, 10):
        sink.finish(slot)
        assert sink.next_wake == slot + 1 and sink.listen_offset is None
    sink.finish(10)
    assert sink.next_wake is None and sink.listen_offset is None


SCHEDULE_T = range(1, 11)


def drive(spec, heard):
    """Drive one `TopoNode` wake by wake, as the engine would, until its
    lead passes and echoes are over (it enters `bcast`).

    `heard` maps slots to what the node hears there: a `HopFrame` in
    the data phase of a slot it listens in, and a `HopFrame` or an
    `AckFrame` for it in the ack phase of a slot it sends in.  The node
    starts parked at the offset of the first of those slots, and must
    hear every one.  Returns its frames (slot -> frame) and the set of
    slots it listens in from the first one on.
    """
    c = spec.cycle
    heard = dict(heard)
    last = min(heard) - c  # the slot of its last finish
    node = TopoNode(1, min(heard) % c, spec, seed=0)
    sent, listens = {}, set()
    while node.state != "bcast":
        at = node.next_wake
        if node.listen_offset is not None:
            # parked: it listens at its offset from a cycle after its
            # last finish, and is finished at its deadline or where it
            # hears something
            first = last + c + (node.listen_offset - last - c) % c
            cue = min((s for s in heard if s >= first and s % c == first % c),
                      default=at)
            at = cue if at is None else min(at, cue)
            listens.update(range(first, at, c))
        frame = node.poll(at) if at == node.next_wake else None
        if frame is not None:
            sent[at] = frame
            if at in heard:
                node.on_ack(at, heard.pop(at))
        else:
            listens.add(at)
            if at in heard:
                node.on_data(at, heard.pop(at))
        node.finish(at)
        last = at
    assert not heard, heard  # it heard every frame
    return sent, listens


def acker_schedule(spec, ack_slot, round_no):
    """Transmit slots and listen slots of a node that acked, at
    `ack_slot`, a frame stamped `round_no`, through its lead pass and
    echo."""
    sent, listens = drive(spec, {ack_slot: HopFrame(0, 1, round_no)})
    return list(sent), listens


def test_relay_anchor_is_a_round_past_half_a_pass():
    # t=5: rounds of 7 slots, relay 3 + 1 = 4 rounds.  Round 1 heard at
    # slot 100 puts the sender's anchor at 93 and the relay at 121, moved
    # up to our working offset (100 % 6 == 4): 124
    assert relay_rounds(5) == 4
    assert relay_anchor(5, 100, 1) == 124
    assert join_round(5, 124, 100) == 0
    assert lead_plan(5, 124, 100)[:2] == (0, 5)
    # the node listens at its offset up to the last slot there two
    # cycles before the anchor, then transmits round 0 at the anchor
    sent, listens = acker_schedule(ChargingSpec(5), 100, 1)
    assert sent[0] == 124
    assert {s for s in listens if s < 124} == {100, 106, 112, 118}


def test_relay_late_joiner_starts_at_the_first_round_ahead():
    # round 5 heard at slot 100: relay 65 + 28 = 93, anchor 94; rounds 0
    # and 1 (slots 94, 101) are not a cycle ahead, so the pass joins at
    # round 2, slot 108, one offset on per round
    assert relay_anchor(5, 100, 5) == 94
    assert join_round(5, 94, 100) == 2
    assert lead_plan(5, 94, 100)[:2] == (2, 7)
    sent, _ = drive(ChargingSpec(5), {100: HopFrame(0, 1, 5)})
    assert list(sent)[:2] == [108, 115]
    assert sent[108].round_no == 2


def test_stale_acker_is_visited_before_its_first_transmission():
    # t=5: we anchor at 100 on a round-0 frame heard at 70, and node 9
    # acks our round 0 there.  It anchors 4 rounds on (128), moved up to
    # its offset (100 % 6 == 4): its first transmission is at 130.  A
    # struggler reply in the ack phase of our round 1 (slot 107)
    # improves us; we send node 9 our new hop at its offset a cycle on,
    # at 118, before it transmits.  Our new anchor is at 137, so the
    # frame is stamped (118 - 137) // 7
    spec = ChargingSpec(5)
    assert plan_calls(5, [(100, 0)], 107) == [(118, True)]
    sent, _ = drive(spec, {70: HopFrame(7, 2, 0), 100: AckFrame(9, 1),
                           107: HopFrame(8, 1, 0)})
    assert list(sent)[:3] == [100, 107, 118]
    assert sent[118] == HopFrame(1, 2, -3)
    acker_sent, acker_listens = acker_schedule(spec, 100, 0)
    assert acker_sent[0] == 130 and 118 in acker_listens


def test_lead_pass_rounds_land_on_every_offset_once():
    for t in SCHEDULE_T:
        spec = ChargingSpec(t)
        c = spec.cycle
        for ack_slot in range(3 * c * c, 3 * c * c + c):
            for round_no in range(-2, 2 * t + 4):
                sent, _ = acker_schedule(spec, ack_slot, round_no)
                assert sorted(s % c for s in sent[:c]) == list(range(c))
                assert all(b - a == c + 1 for a, b in zip(sent, sent[1:]))


def test_calls_on_a_stale_acker_land_where_it_listens_or_sends():
    # one acker of our stale hop, over every ack slot in a cycle, every
    # stamped round and every improvement slot up to three passes later
    kinds = {"before": 0, "echo": 0, "listen-in": 0}
    for t in SCHEDULE_T:
        spec = ChargingSpec(t)
        c = spec.cycle
        pass_len = c * (c + 1)
        for ack_slot in range(3 * c * c, 3 * c * c + c):
            for round_no in range(-2, 2 * t + 4):
                sent, listens = acker_schedule(spec, ack_slot, round_no)
                transmits = set(sent)
                for slot in range(ack_slot + 1, ack_slot + 3 * pass_len + 1):
                    prev = slot
                    for at, sends in plan_calls(t, [(ack_slot, round_no)], slot):
                        where = (t, ack_slot, round_no, slot, at, sends)
                        assert at >= prev + c, where
                        prev = at
                        if not sends:
                            assert at in transmits, where
                            kinds["listen-in"] += 1
                        else:
                            assert at in listens, where
                            kinds["before" if at < sent[0] else "echo"] += 1
    assert all(kinds.values()), kinds


def test_an_on_time_pass_reaches_a_neighbor_that_heard_a_worse_hop_first():
    # the module docstring's relay claim.  A node anchors at A and runs
    # its pass on time, at A + v rounds for v = 0..t.  Another node hears
    # round v of a pass anchored at A too (a later one only delays it),
    # so it anchors a relay after A.  A neighbor of ours first hears that
    # node's worse hop, in any slot before our pass ends, stamped with
    # its locked rounds since its anchor.  Driven wake by wake, the
    # neighbor is still listening at its offset, before it transmits,
    # when our pass gets there
    for t in SCHEDULE_T:
        spec = ChargingSpec(t)
        c, rl = t + 1, t + 2
        ours = [3 * c * rl + v * rl for v in range(c)]
        reach = {x % c: x for x in ours}
        for v, heard in enumerate(ours):
            sent, _ = drive(spec, {heard: HopFrame(0, 1, v)})
            first = min(sent)
            worse = first - sent[first].round_no * rl  # its anchor
            for s in range(heard + 1, ours[-1]):
                sent, listens = drive(spec, {s: HopFrame(1, 2, (s - worse) // rl)})
                x = reach[s % c]
                assert x <= s or x in listens and x < min(sent), (t, v, s)


def reaches(acker, call):
    """Whether a call lands where the acker (transmit and listen slots)
    listens, for a sending call, or sends, for a listen-in."""
    sent, listens = acker
    at, sends = call
    return at in listens if sends else at in sent


def test_calls_on_two_ackers_are_a_cycle_apart_and_land_on_each():
    # two ackers of one lead pass, anchored at A, acked our rounds v1 <=
    # v2 at A + v rounds.  For every improvement slot up to two passes
    # after the later ack, each call comes a cycle or more after the one
    # before and lands on an acker of its own
    both = 0
    for t in SCHEDULE_T:
        spec = ChargingSpec(t)
        c, rl = t + 1, t + 2
        anchor = 3 * c * rl
        rounds = range(2 * t + 4)
        ackers = {}
        for v in rounds:
            sent, listens = acker_schedule(spec, anchor + v * rl, v)
            ackers[v] = (set(sent), listens)
        for v2 in rounds:
            for v1 in range(v2 + 1):
                acked = [(anchor + v1 * rl, v1), (anchor + v2 * rl, v2)]
                later = anchor + v2 * rl
                for slot in range(later + 1, later + 2 * c * rl + 1):
                    calls = plan_calls(t, acked, slot)
                    where = (t, v1, v2, slot, calls)
                    prev = slot
                    for at, _ in calls:
                        assert at >= prev + c, where
                        prev = at
                    assert any(all(map(reaches, (ackers[v] for v in order), calls))
                               for order in ((v1, v2), (v2, v1))), where
                    both += len(calls) == 2
    assert both


def test_an_acker_calls_its_own_stale_ackers_before_it_joins():
    # t=1: a node hears round 2 at slot 12, so it anchors at 12 and joins
    # at round 1: it sends at 15 and 18, and node 9 acks at 15.  In its
    # echo, at 20, it hears a better hop stamped round 2: its new anchor
    # is 20, and it would join at round 1 (23), but it first listens in
    # on node 9's pass at 22, so it joins at round 2 and sends at 26, 29
    assert plan_calls(1, [(15, 1)], 20) == [(22, False)]
    sent, listens = drive(ChargingSpec(1), {
        12: HopFrame(5, 3, 2), 15: AckFrame(9, 1), 20: HopFrame(6, 2, 2)})
    assert sorted(sent) == [15, 18, 26, 29]
    assert {20, 22} <= listens


@pytest.mark.xfail(strict=True, reason="plan_calls predicts an acker's join "
                   "round from its ack slot; an acker that first calls stale "
                   "ackers of its own joins later (ROADMAP item 2, step 3)")
def test_calls_reach_an_acker_that_first_calls_its_own_ackers():
    # the acker of the test above, which acked our frame at 20: improved
    # at 21, we predict it joins at round 1 and listen in at 23, where it
    # sends nothing.  Measured on map_sweep seeds 41-43 and busy_relay
    # 41-42, 3 of 417 predictions of a join round were early this way
    acker = drive(ChargingSpec(1), {
        12: HopFrame(5, 3, 2), 15: AckFrame(9, 1), 20: HopFrame(6, 2, 2)})
    calls = plan_calls(1, [(20, 2)], 21)
    assert calls and all(reaches(acker, call) for call in calls)


def test_single_neighbor_learns_hop_during_sink_pass():
    sc = line_scenario(1, spacing=50, t=5, offsets=[3])
    res = build_topology(sc)
    assert res.hops == {0: 1}
    assert res.next_hops == {0: SINK}
    assert 5 <= res.topo_time <= 10  # inside the sink pass, slots t..2t
    assert res.converged_at is not None
    assert res.unreachable == set()


def test_broadcast_pass_rotates_through_every_offset():
    t = 5
    sc = line_scenario(2, spacing=90, t=t, offsets=[2, 4])
    trace = EventTrace()
    build_topology(sc, trace=trace)
    tx = [e for e in trace.events
          if e.node == 0 and e.kind == "tx" and e.detail["frame"] == "HopFrame"]
    first_pass = [e.slot for e in tx[: t + 1]]
    diffs = [b - a for a, b in zip(first_pass, first_pass[1:])]
    assert diffs == [t + 2] * t  # one cycle plus the one-slot rotation
    assert first_pass[-1] - first_pass[0] + 1 == (t + 1) ** 2
    assert sorted(s % (t + 1) for s in first_pass) == list(range(t + 1))


def test_chain_converges_to_least_hop():
    sc = line_scenario(5, spacing=90, t=5, seed=3)
    res = build_topology(sc)
    assert res.hops == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    assert verify_least_hop(res, sc) == []
    assert res.converged_at is not None
    assert res.topo_time < res.converged_at


def test_chain_learns_lower_neighbors():
    sc = line_scenario(4, spacing=90, t=5, seed=7)
    res = build_topology(sc)
    assert 0 in res.known_lower[1] and res.hops[0] == 1
    assert 1 in res.known_lower[2] and res.hops[1] == 2
    assert SINK in res.known_lower[0]


def test_random_scenarios_converge_least_hop():
    for seed in range(8):
        sc = random_scenario(16, 350, 350, 130, t=6, seed=100 + seed)
        if NO_HOP in bfs_hops(sc).values():
            continue  # only connected layouts here
        res = build_topology(sc)
        assert verify_least_hop(res, sc) == [], f"seed {seed}"
        assert res.converged_at is not None


# integer coordinates put many pairs exactly on the 10 m boundary; the
# sink sits in a corner, so deep, branching and cut-off fields all occur
coords = st.integers(0, 18).map(float)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=15),
       t=st.integers(1, 6), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_only_a_listening_node_is_without_a_wake(points, t, seed, data):
    # the engine ends a run when no node is scheduled to wake, so mapping
    # relies on this: after every finish, a node in `listen` (retired, or
    # without a hop) has no wake and every other node has one
    n = len(points)
    offsets = data.draw(st.lists(st.integers(0, t), min_size=n, max_size=n))
    deaths = data.draw(st.dictionaries(
        st.integers(0, n - 1), st.integers(0, 30 * (t + 1) * (t + 2)),
        max_size=3))
    nodes = [NodePlacement(i, x, y, off)
             for i, ((x, y), off) in enumerate(zip(points, offsets))]
    scenario = Scenario(ChargingSpec(t), nodes, sink_xy=(0.0, 0.0),
                        range_m=10.0, seed=seed, deaths=deaths)
    ran = []  # the slot of every finish, the sink's included
    node_finish, sink_finish = TopoNode.finish, TopoSink.finish

    def checked_finish(node, slot):
        node_finish(node, slot)
        ran.append(slot)
        assert (node.next_wake is None) == (node.state == "listen"), (
            node.id, slot, node.state)

    def logged_sink_finish(sink, slot):
        sink_finish(sink, slot)
        ran.append(slot)

    with mock.patch.object(TopoNode, "finish", checked_finish), \
            mock.patch.object(TopoSink, "finish", logged_sink_finish):
        res = build_topology(scenario)
    assert res.converged_at is not None
    assert res.converged_at == max(ran) >= 2 * t


def test_verify_flags_wrong_hop_and_parent():
    sc = line_scenario(3, spacing=90, t=5)
    res = build_topology(sc)
    assert verify_least_hop(res, sc) == []
    res.hops[2] = 9
    assert verify_least_hop(res, sc)
    res.hops[2] = 3
    res.next_hops[2] = 0  # hop 1 neighbor, but 180m away: out of range
    assert verify_least_hop(res, sc)


@pytest.mark.parametrize("next_hop,problem", [
    pytest.param(None, "node 2: no next hop", id="none"),
    pytest.param(SINK, f"node 2: next hop {SINK} out of range", id="out-of-range"),
    pytest.param(3, "node 2: next hop 3 has hop 2, want 1", id="wrong-hop"),
])
def test_verify_names_each_wrong_next_hop(next_hop, problem):
    # the sink hears nodes 0 (at 5 m) and 1 (at 9 m); nodes 2 (at 12 m)
    # and 3 (at 13 m) hear each other and both of those: hops 1, 1, 2, 2
    nodes = [NodePlacement(i, x, 0.0, 0)
             for i, x in enumerate((5.0, 9.0, 12.0, 13.0))]
    sc = Scenario(ChargingSpec(3), nodes, sink_xy=(0.0, 0.0), range_m=10.0)
    res = build_topology(sc)
    assert res.hops == {0: 1, 1: 1, 2: 2, 3: 2}
    assert verify_least_hop(res, sc) == []
    res.next_hops[2] = next_hop
    assert verify_least_hop(res, sc) == [problem]


def isolated_field():
    # the golden `isolated` field: node 1 is out of everyone's range
    nodes = [NodePlacement(0, 8.0, 0.0, 1), NodePlacement(1, 60.0, 0.0, 2)]
    return Scenario(ChargingSpec(2), nodes, sink_xy=(0.0, 0.0), range_m=10.0,
                    seed=5)


def test_verify_accepts_a_node_left_without_a_hop_only_where_it_has_none():
    sc = isolated_field()
    res = build_topology(sc)
    assert res.next_hops[1] is None
    assert verify_least_hop(res, sc) == []
    res.hops[1], res.next_hops[1] = 2, 0
    assert verify_least_hop(res, sc) == [f"node 1: hop 2 != least {NO_HOP}"]


def test_isolated_node_transmits_nothing_and_ends_unreachable():
    # node 1 never hears a hop, so it never has a wake: the run ends once
    # node 0 retires, and node 1 sent nothing
    sc = isolated_field()
    trace = EventTrace()
    res = build_topology(sc, trace=trace)
    assert res.hops == {0: 1, 1: NO_HOP}
    assert res.unreachable == {1}
    assert res.converged_at is not None
    assert [e for e in trace.events if e.node == 1 and e.kind == "tx"] == []


@pytest.mark.parametrize("n", [4, 0], ids=["out-of-range", "nodeless"])
def test_field_nobody_hears_converges_after_the_sinks_pass(n):
    # no node is in the sink's range, so nothing but its t+1 frames is
    # ever sent and the run ends at slot 2t, the sink's last wake; the
    # nodes hear each other, but none of them has a hop
    t = 3
    nodes = [NodePlacement(i, 200.0 + 90.0 * i, 0.0, i % (t + 1))
             for i in range(n)]
    sc = Scenario(ChargingSpec(t), nodes, sink_xy=(0.0, 0.0), range_m=100.0,
                  seed=3)
    res = build_topology(sc)
    assert res.converged_at == 2 * t
    assert res.run.frames_sent == t + 1
    assert res.unreachable == set(range(n))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(t=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       offset=st.integers(0, 12))
def test_retry_pass_parks_through_its_coin_runs(t, seed, offset):
    # a lone node runs one retry pass from its working slot; the
    # reference flips one coin per working slot: transmit and step the
    # rotation, or listen a cycle and flip again
    offset %= t + 1
    c = t + 1
    sc = line_scenario(1, t=t, seed=seed, offsets=[offset])
    node = TopoNode(0, offset, sc.spec, sc.seed)
    node.hop, node.next_hop, node._anchor = 1, SINK, offset
    ref = derive_rng_stream(seed, 0, "topo")
    slot = offset + c + 1 + ref.randrange(c)
    working = []  # (slot, transmits) for every working slot of the pass
    tx = True
    while sum(w[1] for w in working) < t + 1:
        working.append((slot, tx))
        slot += c + 1 if tx else c
        tx = ref.random() < 0.5
    want = [s for s, tx in working if tx]

    node._enter_bcast(offset)
    sent = []
    for i, (slot, tx) in enumerate(working):
        if tx:
            # every wake transmits
            assert node.next_wake == slot
            assert node.poll(slot) is not None
            sent.append(slot)
        else:
            # parked at this offset until the next transmit slot; the
            # node listens here only if it hears something
            assert node.listen_offset == slot % c
            assert node.next_wake == min(s for s in want if s > slot)
            assert node.poll(slot) is None
            assert node.on_data(slot, COLLISION) is None
        node.finish(slot)
        if i + 1 < len(working) and not working[i + 1][1]:
            # a listen cycle next: parked at the next working slot's
            # offset from this slot, with the next transmit slot as its
            # deadline
            assert node.listen_offset == working[i + 1][0] % c
            assert node.next_wake == min(s for s in want if s > slot)
    assert sent == want and len(sent) == t + 1


@pytest.mark.parametrize("t", [1, 5, 12])
@pytest.mark.parametrize("state,streak,want", [
    pytest.param("bcast", QUIET_PASSES - 1, "cooldown", id="bcast-cooldown"),
    pytest.param("bcast", QUIET_PASSES, "verify", id="bcast-verify"),
    pytest.param("verify", QUIET_PASSES + 1, "cooldown", id="verify-cooldown"),
])
def test_cooldown_and_verify_park_from_their_entry_slot(t, state, streak, want):
    # a node that ends a quiet pass (in its last transmit slot) or a clean
    # verify window enters a listen-only state: it parks at once at the
    # next slot's offset, with the end of its window as its deadline, and
    # the engine has it listen there from a cycle later
    c = t + 1
    sc = line_scenario(1, t=t, offsets=[0])
    node = TopoNode(0, 0, sc.spec, sc.seed)
    node.hop, node.next_hop, node._anchor = 1, SINK, 0
    slot = 7 * c + 3
    node.state, node._round, node._quiet_streak = state, t, streak
    node._until = node.next_wake = slot
    node.finish(slot)
    assert node.state == want
    assert node.listen_offset == (slot + 1) % c
    assert node.next_wake == park_deadline(slot + 1, node._until, c)
    assert node.next_wake >= node._until > slot + c + 1


def test_hop_frames_and_acks_field_by_field():
    # built positionally: a swapped argument fails here, named by field
    sink = TopoSink(ChargingSpec(5))
    assert asdict(sink.poll(7)) == {"src": SINK, "hop": 0, "round_no": 2}
    sc = line_scenario(1, t=5)
    node = TopoNode(3, 0, sc.spec, sc.seed)
    ack = node.on_data(7, sink.poll(7))
    assert asdict(ack) == {"src": 3, "ack_dst": SINK}
    assert node.hop == 1
    node.finish(7)  # anchors the lead pass that stamps our frames
    # a struggler more than a hop behind draws our own state in reply
    reply = node.on_data(20, HopFrame(src=8, hop=5, round_no=4))
    assert asdict(reply) == {"src": 3, "hop": 1, "round_no": node._stamp(20)}
