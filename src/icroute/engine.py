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
        """Advance until `quiesced()` holds or `max_slots` is exceeded."""
        res = RunResult(last_slot=0, converged=False)
        heap = self._heap
        all_behaviors = dict(self.behaviors)
        all_behaviors[SINK] = self.sink
        while heap:
            slot = heap[0][0]
            if slot > max_slots:
                break
            awake = []
            while heap and heap[0][0] == slot:
                _, nid = heapq.heappop(heap)
                beh = all_behaviors[nid]
                if beh.next_wake != slot or nid in awake:
                    continue  # stale or duplicate entry from a reschedule
                if nid != SINK and not self._alive(nid, slot):
                    beh.next_wake = None
                    continue
                awake.append(nid)
            if not awake:
                continue
            self._step(slot, awake, all_behaviors, res)
            for nid in awake + ([SINK] if SINK not in awake else []):
                beh = all_behaviors[nid]
                if beh.next_wake is not None and beh.next_wake <= slot:
                    raise RuntimeError(f"node {nid} rescheduled into the past")
                if beh.next_wake is not None:
                    heapq.heappush(heap, (beh.next_wake, nid))
            res.last_slot = slot
            if quiesced is not None and quiesced():
                res.converged = True
                break
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

        tx_ids = {f.src for f, _ in tx_a}
        listeners_a = [n for n in awake if n not in tx_ids]
        if SINK not in tx_ids and SINK not in listeners_a:
            listeners_a.append(SINK)  # the sink hears every slot
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
            tx_b_ids = {f.src for f, _ in tx_b}
            listeners_b = [n for n in awake if n not in tx_b_ids]
            if SINK not in tx_b_ids and SINK not in listeners_b:
                listeners_b.append(SINK)
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
            if nid != SINK:
                behaviors[nid].finish(slot)
        self.sink.finish(slot)  # the sink closes every processed slot
