"""Engine contract: the horizon, quiescence before the first slot, dead
nodes, reschedules into the past, and the unscheduled listening sink."""

import pytest

from icroute.core import SINK, ChargingSpec, DataFrame, NodePlacement, Scenario
from icroute.engine import Countdown, Engine
from icroute.forwarding import ForwardSink, run_forwarding
from icroute.radio import EventTrace


def line_field(*nodes, deaths=None):
    """Scenario with the sink at the origin and nodes at (x, 0)."""
    placements = [NodePlacement(node_id=nid, x=x, y=0.0, offset=0)
                  for nid, x in nodes]
    return Scenario(spec=ChargingSpec(charge_slots=5), nodes=placements,
                    sink_xy=(0.0, 0.0), range_m=10.0, width=100.0,
                    height=10.0, deaths=deaths or {})


class Beacon:
    """Wakes every `period` slots from `first`; sends `frame` if given."""

    def __init__(self, first, period, frame=None):
        self.next_wake = first
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
        100, quiesced=lambda: pending.value == 0)
    assert res.converged and res.last_slot == 7
    assert [(d.origin, d.delivered_at) for d in sink.deliveries] == [(1, 7)]
    assert listener.heard == [(7, frame)]
    events = [(e.node, e.kind) for e in trace.events if e.slot == 7]
    # the sink is the first listener of the data phase; both nodes hear
    # its ack
    assert events == [(1, "tx"), (SINK, "rx"), (SINK, "txr"), (2, "rx"),
                      (1, "rxa"), (2, "rxa")]
