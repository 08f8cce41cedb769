"""Event-driven slot engine.

The engine advances a global slot counter, but only touches slots in which
some node is scheduled to wake.  Skipped slots are empty by construction,
so the observable behavior matches naive slot-by-slot stepping.

Each processed slot has two contention phases: a data phase where awake
nodes may transmit one frame, and an ack phase where nodes that decoded a
data frame may answer.  Half duplex holds per phase, so a data transmitter
can still hear the ack phase of the same slot.

Node behaviors are plain objects with:
    next_wake          absolute slot of the next working slot, or None
    poll(slot)         -> Frame to transmit in the data phase, or None
    on_data(slot, f)   -> response Frame for the ack phase, or None
    on_ack(slot, f)    -> None; decoded ack-phase frame delivery
    finish(slot)       -> None; end-of-slot transition, resets next_wake
    on_busy(slot)      -> None; optional carrier-sense hook, called when a
                          listener saw colliding energy it could not decode

A behavior has one heap entry while its `next_wake` is set, and it is
polled and finished only in the slots it scheduled; `finish` must move
`next_wake` past the slot or clear it.  A node that is dead at its wake
loses its schedule.  The sink is the exception to waking only when
scheduled: it is mains powered, so it listens in every processed slot,
first among the listeners of both phases, whether or not it scheduled
the slot.  A sink that only listens sets `next_wake = None` and needs
no `poll` or `finish`; its listening never makes the engine process a
slot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .core import SINK, Scenario
from .radio import COLLISION, MICRO_SLOTS, derive_rng_stream, resolve_slot


class Countdown:
    """Shared counter behaviors use to signal run-level quiescence."""

    def __init__(self, value: int = 0):
        self.value = value


@dataclass
class RunResult:
    last_slot: int
    converged: bool
    data_collisions: int = 0
    ack_collisions: int = 0
    frames_sent: int = 0
    detail: dict = field(default_factory=dict)


class Engine:
    def __init__(self, scenario: Scenario, behaviors, sink, trace=None):
        self.scenario = scenario
        self.behaviors = behaviors  # node id -> behavior
        self.sink = sink
        self.trace = trace
        self.positions = scenario.positions()
        self._jitter = {
            nid: derive_rng_stream(scenario.seed, nid, "jitter")
            for nid in list(behaviors) + [SINK]
        }
        self._heap = []
        for nid, beh in behaviors.items():
            if beh.next_wake is not None:
                heapq.heappush(self._heap, (beh.next_wake, nid))
        if sink.next_wake is not None:
            heapq.heappush(self._heap, (sink.next_wake, SINK))

    def _alive(self, nid, slot):
        died = self.scenario.deaths.get(nid)
        return died is None or slot < died

    def _draw_jitter(self, nid):
        return self._jitter[nid].randrange(MICRO_SLOTS)

    def run(self, max_slots: int, quiesced=None) -> RunResult:
        """Advance until `quiesced()` holds or `max_slots` is exceeded.

        A run that does not quiesce ends at `max_slots`: the sink listened
        through the horizon, whether or not a node woke in its last slots.
        """
        res = RunResult(last_slot=0, converged=False)
        if quiesced is not None and quiesced():
            res.converged = True
            return res
        heap = self._heap
        all_behaviors = dict(self.behaviors)
        all_behaviors[SINK] = self.sink
        while heap and heap[0][0] <= max_slots:
            slot = heap[0][0]
            awake = []
            while heap and heap[0][0] == slot:
                _, nid = heapq.heappop(heap)
                if self._alive(nid, slot):
                    awake.append(nid)
                else:
                    all_behaviors[nid].next_wake = None
            if not awake:
                continue
            self._step(slot, awake, all_behaviors, res)
            for nid in awake:
                wake = all_behaviors[nid].next_wake
                if wake is not None:
                    if wake <= slot:
                        raise RuntimeError(f"node {nid} rescheduled into the past")
                    heapq.heappush(heap, (wake, nid))
            if quiesced is not None and quiesced():
                res.last_slot = slot
                res.converged = True
                return res
        res.last_slot = max_slots
        return res

    def _step(self, slot, awake, behaviors, res):
        positions = self.positions
        range_m = self.scenario.range_m
        trace = self.trace

        tx_a = []
        for nid in awake:
            frame = behaviors[nid].poll(slot)
            if frame is not None:
                tx_a.append((frame, self._draw_jitter(nid)))
                if trace:
                    trace.add(slot, nid, "tx", frame=type(frame).__name__)
        res.frames_sent += len(tx_a)

        listeners_a = _listeners(awake, tx_a)
        decode_a = (
            resolve_slot(tx_a, listeners_a, positions, range_m) if tx_a else {}
        )

        tx_b = []
        for nid in listeners_a:
            got = decode_a.get(nid)
            if got is COLLISION:
                res.data_collisions += 1
                if trace:
                    trace.add(slot, nid, "collision", phase="data")
                busy = getattr(behaviors[nid], "on_busy", None)
                if busy is not None:
                    busy(slot)
                continue
            if got is None:
                continue
            if trace:
                trace.add(slot, nid, "rx", frame=type(got).__name__, src=got.src)
            resp = behaviors[nid].on_data(slot, got)
            if resp is not None:
                tx_b.append((resp, self._draw_jitter(nid)))
                if trace:
                    trace.add(slot, nid, "txr", frame=type(resp).__name__)

        if tx_b:
            listeners_b = _listeners(awake, tx_b)
            decode_b = resolve_slot(tx_b, listeners_b, positions, range_m)
            for nid in listeners_b:
                got = decode_b.get(nid)
                if got is COLLISION:
                    res.ack_collisions += 1
                    if trace:
                        trace.add(slot, nid, "collision", phase="ack")
                    busy = getattr(behaviors[nid], "on_busy", None)
                    if busy is not None:
                        busy(slot)
                elif got is not None:
                    if trace:
                        trace.add(slot, nid, "rxa", frame=type(got).__name__, src=got.src)
                    behaviors[nid].on_ack(slot, got)

        for nid in awake:
            behaviors[nid].finish(slot)


def _listeners(awake, transmissions):
    """Awake nodes that did not transmit in a phase, the sink first: it
    listens in every processed slot, scheduled or not."""
    tx_ids = {f.src for f, _ in transmissions}
    out = [n for n in awake if n not in tx_ids and n != SINK]
    if SINK not in tx_ids:
        out.insert(0, SINK)
    return out
