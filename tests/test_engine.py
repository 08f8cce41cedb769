"""Engine contract: the horizon, quiescence before the first slot, the
end of a run when no node is scheduled, deaths as timed drops,
reschedules into the past,
the unscheduled listening sink, the jitter draw, half duplex per phase,
collisions reaching `on_data` and `on_ack`, one wake bucket per slot,
nodes parked at their offset, forwarding receivers among them, a
parked node touched by an ack alone, the charge rule for a node parked
at a new offset, a lone frame no listener is in range of, and no
reference cycle through a finished engine."""

import dataclasses
import gc
import weakref
from unittest import mock

import pytest

from icroute import engine as engine_module
from icroute.core import (SINK, AckFrame, ChargingSpec, DataFrame, HopFrame,
                          NodePlacement, Scenario)
from icroute.engine import Countdown, Engine, park_deadline
from icroute.forwarding import CachedPolicy, ForwardNode, ForwardSink, run_forwarding
from icroute.radio import (COLLISION, MICRO_SLOTS, EventTrace, derive_rng_stream,
                           resolve_slot)
from replay import events


def line_field(*nodes, deaths=None):
    """Scenario with the sink at the origin and nodes at (x, 0)."""
    placements = [NodePlacement(node_id=nid, x=x, y=0.0, offset=0)
                  for nid, x in nodes]
    return Scenario(spec=ChargingSpec(charge_slots=5), nodes=placements,
                    sink_xy=(0.0, 0.0), range_m=10.0, deaths=deaths or {})


class Beacon:
    """Wakes every `period` slots from `first`; sends `frame` if given."""

    def __init__(self, first, period, frame=None):
        self.next_wake = first
        self.listen_offset = None
        self.period = period
        self.frame = frame
        self.polled = []
        self.heard = []

    def poll(self, slot):
        self.polled.append(slot)
        return self.frame

    def on_data(self, slot, frame):
        self.heard.append((slot, frame))
        return None

    def on_ack(self, slot, frame):
        pass

    def finish(self, slot):
        self.next_wake = slot + self.period


def test_lone_unreachable_node_runs_to_the_horizon():
    sc = line_field((1, 50.0))  # out of the sink's range
    res = run_forwarding(sc, {1: 1}, rounds=1, max_slots=200)
    assert res.delivered == 0 and res.undelivered == 1
    assert not res.run.converged
    # the sink listened through the horizon, whatever the node's last wake
    assert res.run.last_slot == 200


def test_nodeless_field_converges_at_slot_zero():
    res = run_forwarding(line_field(), {}, rounds=3)
    assert res.run.converged
    assert res.run.last_slot == 0
    assert res.created == res.delivered == 0


def test_dead_node_is_never_polled_again():
    sc = line_field((1, 5.0), (2, 5.0), deaths={1: 10})
    doomed, survivor = Beacon(0, 3), Beacon(0, 3)
    engine = Engine(sc, {1: doomed, 2: survivor}, ForwardSink(Countdown()))
    res = engine.run(30)
    assert doomed.polled == [0, 3, 6, 9]
    assert doomed.next_wake is None
    assert survivor.polled == list(range(0, 31, 3))
    assert not res.converged and res.last_slot == 30


def test_run_whose_last_waker_dies_converges_at_its_last_slot():
    # the drop at the death slot, 10, leaves no node scheduled: the run
    # converges at slot 9, the last slot in which a node ran
    doomed = Beacon(0, 3)
    engine = Engine(line_field((1, 5.0), deaths={1: 10}), {1: doomed},
                    ForwardSink(Countdown()))
    res = engine.run(100)
    assert doomed.polled == [0, 3, 6, 9]
    assert doomed.next_wake is None
    assert res.converged and res.last_slot == 9


@pytest.mark.parametrize("deaths", [{3: 10}, {SINK: 10}],
                         ids=["unknown-id", "sink"])
def test_death_of_a_node_the_run_lacks_raises(deaths):
    sc = line_field((1, 5.0), (2, 5.0), (3, 5.0), deaths=deaths)
    with pytest.raises(ValueError, match="not a node of this run"):
        Engine(sc, {1: Beacon(0, 3), 2: Beacon(0, 3)}, ForwardSink(Countdown()))


def test_reschedule_into_the_past_raises():
    class Stuck(Beacon):
        def finish(self, slot):
            self.next_wake = slot

    engine = Engine(line_field((1, 5.0)), {1: Stuck(4, 1)},
                    ForwardSink(Countdown()))
    with pytest.raises(RuntimeError, match="rescheduled into the past"):
        engine.run(20)


def test_unscheduled_sink_listens_first():
    sc = line_field((1, 5.0), (2, 8.0))
    frame = DataFrame(src=1, dst=None, src_hop=1, origin=1, seq=0,
                      created_at=0, is_start=True, is_end=True, path=(1,))
    sender, listener = Beacon(7, 6, frame), Beacon(7, 6)
    pending = Countdown(1)
    sink = ForwardSink(pending)
    assert sink.next_wake is None
    trace = EventTrace()
    res = Engine(sc, {1: sender, 2: listener}, sink, trace=trace).run(
        100, pending)
    assert res.converged and res.last_slot == 7
    assert [(d.origin, d.delivered_at) for d in sink.deliveries] == [(1, 7)]
    assert listener.heard == [(7, frame)]
    got = [(e["node"], e["kind"]) for e in events(trace.ndjson())
           if e["slot"] == 7]
    # the sink is the first listener of the data phase; both nodes hear
    # its ack
    assert got == [(1, "tx"), (SINK, "rx"), (SINK, "txr"), (2, "rx"),
                   (1, "rxa"), (2, "rxa")]


def test_jitter_draws_are_randrange_draws():
    # every exported byte rests on the engine drawing exactly what
    # randrange(MICRO_SLOTS) draws from each node's jitter stream
    for seed in range(40):
        sc = dataclasses.replace(line_field((1, 5.0), (2, 8.0)), seed=seed)
        engine = Engine(sc, {1: Beacon(0, 3), 2: Beacon(0, 3)},
                        ForwardSink(Countdown()))
        ref = {nid: derive_rng_stream(seed, nid, "jitter")
               for nid in (1, 2, SINK)}
        for _ in range(200):
            for nid, rng in ref.items():
                assert engine._draw_jitter(nid) == rng.randrange(MICRO_SLOTS)


# line_field runs t=5, a cycle of 6 slots: a sender that first wakes at 9
# works at offset 3
HOP = HopFrame(src=1, hop=1, round_no=0)


class Echo(Beacon):
    """Answers every data frame it hears with an ack from `nid`."""

    def __init__(self, nid, first, period, frame=None):
        super().__init__(first, period, frame)
        self.nid = nid
        self.acks = []

    def on_data(self, slot, frame):
        super().on_data(slot, frame)
        if frame is COLLISION:
            return None
        return AckFrame(src=self.nid, ack_dst=frame.src)

    def on_ack(self, slot, frame):
        self.acks.append((slot, frame))


def test_half_duplex_holds_per_phase():
    # nodes 2 and 3 both answer node 1's frame in the ack phase of slot
    # 9: neither decodes that phase, while node 1, which sent only in the
    # data phase, decodes the lower-jitter ack or hears them collide
    outcomes = set()
    for seed in range(32):
        sc = dataclasses.replace(line_field((1, 5.0), (2, 6.0), (3, 7.0)),
                                 seed=seed)
        sender = Echo(1, 9, 100, HOP)
        answers = {2: Echo(2, 9, 100), 3: Echo(3, 9, 100)}
        trace = EventTrace()
        Engine(sc, {1: sender, **answers}, ForwardSink(Countdown()),
               trace=trace).run(9)
        jitter = {nid: derive_rng_stream(seed, nid, "jitter").randrange(MICRO_SLOTS)
                  for nid in answers}
        assert all(b.acks == [] for b in answers.values())
        got = [(e["node"], e["kind"], e.get("src"))
               for e in events(trace.ndjson())
               if e["kind"] in ("rxa", "collision")]
        if jitter[2] == jitter[3]:
            assert got == [(SINK, "collision", None), (1, "collision", None)]
            assert sender.acks == [(9, COLLISION)]
            outcomes.add("collision")
        else:
            first = min(answers, key=jitter.get)
            assert got == [(SINK, "rxa", first), (1, "rxa", first)]
            assert [f.src for _, f in sender.acks] == [first]
            outcomes.add("decoded")
    assert outcomes == {"collision", "decoded"}


class Burst(Beacon):
    """Sends HOP in each slot of `slots`, then stops."""

    def __init__(self, slots):
        super().__init__(slots[0], None, HOP)
        self.slots = list(slots[1:])

    def finish(self, slot):
        self.next_wake = self.slots.pop(0) if self.slots else None


class Parked(Beacon):
    """Parked at `offset` from the start; each finish takes the next
    deadline from `plan` and stays parked (None: no deadline)."""

    def __init__(self, offset, plan=()):
        super().__init__(first=None, period=None)
        self.listen_offset = offset
        self.plan = list(plan)
        self.next_wake = self.plan.pop(0) if self.plan else None
        self.finished = []

    def finish(self, slot):
        self.finished.append(slot)
        self.next_wake = self.plan.pop(0) if self.plan else None


def park_run(listener, x=8.0, sends=(9, 15, 21), horizon=40, deaths=None):
    sc = line_field((1, 5.0), (2, x), deaths=deaths)
    engine = Engine(sc, {1: Burst(sends), 2: listener}, ForwardSink(Countdown()))
    return engine, engine.run(horizon)


def test_collision_reaches_on_data_and_touches_a_parked_node():
    # nodes 1 and 3 both send at slot 9 with equal jitter: the parked
    # node 2 between them hears a collision, which `on_data` gets, and it
    # is finished in that slot
    seed = next(s for s in range(64) if len({
        derive_rng_stream(s, nid, "jitter").randrange(MICRO_SLOTS)
        for nid in (1, 3)}) == 1)
    sc = dataclasses.replace(line_field((1, 5.0), (2, 6.0), (3, 7.0)),
                             seed=seed)
    other = Burst([9])
    other.frame = HopFrame(src=3, hop=1, round_no=0)
    listener = Parked(offset=3)
    Engine(sc, {1: Burst([9]), 2: listener, 3: other},
           ForwardSink(Countdown())).run(20)
    assert listener.heard == [(9, COLLISION)]
    assert listener.finished == [9] and listener.polled == []


def test_parked_node_hears_without_a_heap_entry():
    listener = Parked(offset=3)
    engine = Engine(line_field((1, 5.0), (2, 8.0)),
                    {1: Burst([9]), 2: listener}, ForwardSink(Countdown()))
    # one wake slot, 9, whose bucket holds node 1 alone
    assert engine._heap == [9] and engine._buckets == {9: [1]}
    engine.run(20)
    assert listener.heard == [(9, HOP)]
    assert listener.polled == []


class Logs:
    """Appends (kind, id) to a shared `log` as the node is polled and
    finished."""

    def poll(self, slot):
        self.log.append(("poll", self.nid))
        return super().poll(slot)

    def finish(self, slot):
        self.log.append(("finish", self.nid))
        super().finish(slot)


class LoggedBeacon(Logs, Beacon):
    pass


class LoggedParked(Logs, Parked):
    pass


def test_wake_bucket_runs_each_node_once_in_id_order():
    # slot 12 (offset 0) gets one bucket: node 4 parked with it as its
    # deadline, then two filings out of id order with node 3 twice; nodes
    # 5 and 6 are parked there with no deadline
    log = []
    sc = line_field((1, 5.0), (2, 6.0), (3, 7.0), (4, 8.0), (5, 9.0),
                    (6, 9.5))
    behaviors = {1: LoggedBeacon(None, 100, HOP), 2: LoggedBeacon(None, 100),
                 3: LoggedBeacon(None, 100), 4: LoggedParked(0, plan=[12]),
                 5: LoggedParked(0), 6: LoggedParked(0)}
    for nid, beh in behaviors.items():
        beh.nid, beh.log = nid, log
    engine = Engine(sc, behaviors, ForwardSink(Countdown()))
    for nid in (1, 2, 3):
        behaviors[nid].next_wake = 12
    engine._file([3, 1], 0, finish=False)
    engine._file([2, 3], 0, finish=False)
    assert engine._heap == [12] and engine._buckets == {12: [4, 3, 1, 2, 3]}
    engine.run(20)
    # the woken nodes in id order, then the touched parked ones
    assert log == [("poll", 1), ("poll", 2), ("poll", 3), ("poll", 4),
                   ("finish", 1), ("finish", 2), ("finish", 3),
                   ("finish", 4), ("finish", 5), ("finish", 6)]
    # the parked node heard node 1 at its deadline: finished once
    assert behaviors[4].heard == [(12, HOP)]
    assert behaviors[4].finished == [12]
    assert all(behaviors[nid].polled == [12] for nid in (1, 2, 3, 4))


class Mover(Beacon):
    """Wakes once at `first`, then parks at `offset` without a deadline."""

    def __init__(self, first, offset):
        super().__init__(first, None)
        self.offset = offset
        self.finished = []

    def finish(self, slot):
        self.finished.append(slot)
        self.next_wake, self.listen_offset = None, self.offset


def test_a_node_parked_at_a_new_offset_listens_from_a_cycle_later():
    # the charge rule: nodes 2 and 3 finish in slots 1 and 2 and park at
    # offset 3, so they charge through slot 3, the one slot at offset 3
    # inside their cycle, and hear node 1 from slot 9 on; node 4 parks at
    # its own offset 2 in slot 2 and hears from slot 8, a cycle later
    sc = line_field((1, 5.0), (2, 6.0), (3, 7.0), (4, 8.0))
    movers = {2: Mover(1, 3), 3: Mover(2, 3), 4: Mover(2, 2)}
    engine = Engine(sc, {1: Burst([3, 8, 9]), **movers},
                    ForwardSink(Countdown()))
    engine.run(20)
    assert movers[2].heard == movers[3].heard == [(9, HOP)]
    assert movers[2].finished == [1, 9] and movers[3].finished == [2, 9]
    assert movers[4].heard == [(8, HOP)] and movers[4].finished == [2, 8]
    assert all(m.polled == [m.finished[0]] for m in movers.values())
    # one (slot, ids) entry for offset 3; none for a park at its own offset
    assert engine._charging == [None, None, None, (3, {2, 3}), None, None]


def test_untouched_parked_node_is_neither_polled_nor_finished():
    far = Parked(offset=3)  # out of the sender's range
    park_run(far, x=50.0)
    assert far.polled == far.finished == far.heard == []
    other = Parked(offset=4)  # in range, at an offset nobody sends on
    park_run(other)
    assert other.polled == other.finished == other.heard == []


def test_touched_parked_node_is_finished_in_that_slot():
    listener = Parked(offset=3)
    park_run(listener)
    assert [slot for slot, _ in listener.heard] == [9, 15, 21]
    assert listener.finished == [9, 15, 21]
    assert listener.polled == []


def test_parked_node_reached_only_by_an_ack_is_finished():
    # node 1 sends at slot 9 and only node 2 hears it; node 2's ack
    # reaches the parked node 3, 8m from node 2 and 15m from node 1, which
    # decoded nothing in the data phase and is finished in the slot all
    # the same
    class ParkedEar(Parked):
        def __init__(self, offset):
            super().__init__(offset)
            self.acks = []

        def on_ack(self, slot, frame):
            self.acks.append((slot, frame))

    responder = Echo(2, 9, 100)
    listener = ParkedEar(offset=3)
    sc = line_field((1, 5.0), (2, 12.0), (3, 20.0))
    Engine(sc, {1: Burst([9]), 2: responder, 3: listener},
           ForwardSink(Countdown())).run(20)
    assert responder.heard == [(9, HOP)]
    assert listener.heard == []
    assert listener.acks == [(9, AckFrame(src=2, ack_dst=1))]
    assert listener.finished == [9] and listener.polled == []


# -- a lone frame that no listener is in range of --------------------------
#
# Node 1 sends HOP alone at offset 3.  The engine builds no listener list
# for a slot whose one frame nobody is in range of (the sink, a scheduled
# node or a parked one, charging or not), and still calls the radio once
# for its data phase, with no listeners.


def radio_run(nodes, behaviors, sink, horizon):
    """Run `behaviors` on `line_field(*nodes)`; return (transmitters,
    listeners) of each radio call and the run's result."""
    calls = []

    def counted(tx, listeners, neighbors):
        calls.append(([f.src for f, _ in tx], sorted(listeners)))
        return resolve_slot(tx, listeners, neighbors)

    engine = Engine(line_field(*nodes), behaviors, sink)
    with mock.patch.object(engine_module, "resolve_slot", counted):
        res = engine.run(horizon)
    return calls, res


def test_lone_frame_out_of_everyones_range_has_no_listeners():
    # node 2 is parked at the sender's offset, 45m away
    sender, far, sink = Beacon(3, 6, HOP), Parked(offset=3), Beacon(None, None)
    calls, res = radio_run([(1, 50.0), (2, 5.0)], {1: sender, 2: far}, sink, 15)
    assert calls == [([1], [])] * 3
    # refiled at its next wake each time, and every frame counted
    assert sender.polled == [3, 9, 15] and res.frames_sent == 3
    assert sink.heard == far.heard == far.finished == []


# node 2, 5m from node 1 and both out of the sink's range, finishes in
# slot 1 and parks at offset 3: it charges through slot 3 and listens
# from slot 9 on
CHARGING = [(1, 30.0), (2, 25.0)]


def test_lone_frame_whose_one_listener_is_charging_is_not_heard():
    mover = Mover(1, 3)
    calls, _ = radio_run(CHARGING, {1: Burst([3, 9]), 2: mover},
                         Beacon(None, None), 8)
    # the slot takes the listener list, and the charge rule leaves node 2
    # off it
    assert calls == [([1], [SINK, 1])]
    assert mover.heard == [] and mover.finished == [1]


def test_lone_frame_whose_one_listener_has_charged_is_decoded():
    mover = Mover(1, 3)
    calls, _ = radio_run(CHARGING, {1: Burst([3, 9]), 2: mover},
                         Beacon(None, None), 20)
    assert calls[1] == ([1], [SINK, 1, 2])
    assert mover.heard == [(9, HOP)] and mover.finished == [1, 9]


def test_lone_frame_only_the_sink_is_in_range_of_is_decoded():
    sink, far = Beacon(None, None), Parked(offset=3)
    radio_run([(1, 5.0), (2, 50.0)], {1: Burst([3, 9]), 2: far}, sink, 20)
    assert sink.heard == [(3, HOP), (9, HOP)]
    assert far.heard == far.finished == []


def test_lone_frame_a_scheduled_listener_is_in_range_of_is_decoded():
    # node 2 wakes in the sender's slots and only listens
    listener = Beacon(3, 6)
    radio_run(CHARGING, {1: Burst([3, 9]), 2: listener}, Beacon(None, None), 15)
    assert listener.polled == [3, 9, 15]
    assert listener.heard == [(3, HOP), (9, HOP)]


def test_deadline_is_the_first_slot_at_the_offset_not_before_until():
    assert park_deadline(9, 10, 6) == 15
    assert park_deadline(9, 15, 6) == 15
    assert park_deadline(9, 3, 6) == 15  # always after the slot itself
    assert park_deadline(9, 28, 6) == 33
    listener = Parked(offset=3, plan=[park_deadline(3, 10, 6)])
    park_run(listener, sends=(1, 7))  # at offset 1: never heard
    assert listener.polled == listener.finished == [15]


@pytest.mark.parametrize("plan,last", [
    pytest.param([33, 39, 33, 39], 39, id="moved"),
    pytest.param([33, 33, 33, 33], 33, id="unchanged"),
])
def test_moved_deadline_does_not_finish_twice(plan, last):
    # each frame heard sets the deadline again, moved between 33 and 39 or
    # unchanged: only the last one set fires, once
    listener = Parked(offset=3, plan=plan)
    engine, _ = park_run(listener, sends=(9, 15, 21), horizon=50)
    assert listener.finished == [9, 15, 21, last]
    assert listener.polled == [last]
    # every bucket, live or not, was consumed
    assert not engine._heap and not engine._buckets


def test_node_that_leaves_parking_drops_its_deadline():
    class Leaver(Parked):
        """Parked with deadline 39; the first frame heard schedules it at
        14, off the calendar, and after that it has no wake."""

        def finish(self, slot):
            self.finished.append(slot)
            self.next_wake = 14 if self.listen_offset is not None else None
            self.listen_offset = None

    listener = Leaver(offset=3, plan=[39])
    engine, _ = park_run(listener, sends=(9, 15, 21), horizon=50)
    assert listener.heard == [(9, HOP)]
    assert listener.polled == [14]
    assert listener.finished == [9, 14]
    assert all(2 not in ids for ids in engine._calendar)


def test_parked_deadline_off_its_offset_raises():
    # the calendar is kept by offset alone, so a parked node whose
    # deadline (34, offset 4) is not at its listen offset (3) is an error
    listener = Parked(offset=3, plan=[33, 34])
    with pytest.raises(RuntimeError, match="parked off its offset"):
        park_run(listener)
    assert listener.finished == [9]


def test_parked_and_scheduled_listeners_hear_in_node_id_order():
    sc = line_field((1, 5.0), (2, 6.0), (3, 7.0), (4, 8.0))
    behaviors = {1: Burst([9]), 2: Parked(offset=3), 3: Beacon(9, 100),
                 4: Parked(offset=3)}
    trace = EventTrace()
    Engine(sc, behaviors, ForwardSink(Countdown()), trace=trace).run(20)
    assert [(e["node"], e["kind"]) for e in events(trace.ndjson())] == [
        (1, "tx"), (SINK, "rx"), (2, "rx"), (3, "rx"), (4, "rx")]


def test_dead_parked_node_never_listens_again():
    listener = Parked(offset=3)
    engine, res = park_run(listener, deaths={2: 12})
    assert listener.heard == [(9, HOP)]
    assert listener.finished == [9]
    assert listener.listen_offset is None and listener.next_wake is None
    assert all(2 not in ids for ids in engine._calendar)
    # dropped at its death slot, so the sender's last frame at 21, which
    # the parked node would have heard, ends the run
    assert res.converged and res.last_slot == 21


def test_run_converges_when_no_node_is_scheduled():
    # node 1 sends at 9, 15 and 21 and then has no wake; node 2 stays
    # parked without a deadline, and node 3's death at 30 comes after
    # both: the run converges at 21, its last slot run, without a
    # countdown
    sc = line_field((1, 5.0), (2, 8.0), (3, 9.0), deaths={3: 30})
    listener = Parked(offset=3)
    engine = Engine(sc, {1: Burst([9, 15, 21]), 2: listener,
                         3: Parked(offset=4)}, ForwardSink(Countdown()))
    res = engine.run(100)
    assert res.converged and res.last_slot == 21
    assert listener.finished == [9, 15, 21]
    assert not engine._heap


def test_wake_past_the_horizon_is_a_horizon_hit():
    # the run's only wake after slot 9 is at 41, past the horizon of 40
    engine = Engine(line_field((1, 5.0)), {1: Burst([9, 41])},
                    ForwardSink(Countdown()))
    res = engine.run(40)
    assert not res.converged and res.last_slot == 40
    # the next call runs it, and the run is then over
    res = engine.run(100)
    assert res.converged and res.last_slot == 41


# -- idle forwarding receivers park at base --------------------------------
#
# A relay (id 1, hop 1, base 3) between the sink and a far node (id 2,
# hop 2, base 0) that only the relay hears.  The far node's one reading
# goes out in a scan one slot later each cycle: 7, 14, then 21, the
# first attempt at the relay's offset.


def relay_line(relay_rounds, deaths=None):
    sc = line_field((1, 5.0), (2, 12.0), deaths=deaths)
    offsets = {1: 3, 2: 0}
    pending = Countdown(1 + relay_rounds)
    nodes = {
        p.node_id: ForwardNode(dataclasses.replace(p, offset=offsets[p.node_id]),
                               sc.spec, CachedPolicy(), hop=p.node_id,
                               rounds=1 if p.node_id == 2 else relay_rounds)
        for p in sc.nodes
    }
    trace = EventTrace()
    engine = Engine(sc, nodes, ForwardSink(pending), trace=trace)
    return engine, nodes[1], nodes[2], trace


def test_parked_relay_acks_a_scan_and_starts_its_own_in_that_slot():
    engine, relay, far, trace = relay_line(relay_rounds=0)
    engine.run(20)
    assert relay.state == "recv" and relay.listen_offset == 3
    assert relay.next_wake is None and 1 in engine._calendar[3]
    engine.run(21)
    assert [(e["node"], e["kind"]) for e in events(trace.ndjson())
            if e["slot"] == 21] == [
        (2, "tx"), (1, "rx"), (1, "txr"), (SINK, "rxa"), (2, "rxa")]
    assert far.matched and far.next_hop == 1
    assert relay.state == "scan" and relay.next_wake == 21 + 7
    assert relay.listen_offset is None
    assert all(1 not in ids for ids in engine._calendar)
    assert [m.path for m in relay.queue] == [(2, 1)]


def test_dead_parked_relay_never_acks_after_its_death():
    engine, relay, far, trace = relay_line(relay_rounds=0, deaths={1: 15})
    engine.run(14)
    assert relay.listen_offset == 3
    res = engine.run(200)
    assert not res.converged
    assert not [e for e in events(trace.ndjson())
                if e["node"] == 1 and e["slot"] >= 15]
    assert not far.matched
    assert relay.listen_offset is None and relay.next_wake is None
    assert all(1 not in ids for ids in engine._calendar)


def test_finished_engine_is_freed_without_the_cycle_collector():
    # a reference cycle through the engine (a bound method of its own kept
    # on it, say) would keep each finished run's engine and nodes alive
    # until the cyclic collector runs, which raises peak memory
    engine = relay_line(relay_rounds=2, deaths={2: 40})[0]
    gc.disable()
    try:
        engine.run(200)
        freed = weakref.ref(engine)
        del engine
        assert freed() is None
    finally:
        gc.enable()
