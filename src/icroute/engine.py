"""Event-driven slot engine.

The engine advances a global slot counter, but only touches slots in which
some node is scheduled to wake.  Skipped slots are empty by construction,
so the observable behavior matches naive slot-by-slot stepping.

Each processed slot has two contention phases: a data phase where awake
nodes may transmit one frame, and an ack phase where nodes that decoded a
data frame may answer.  `resolve_slot` arbitrates each phase over the
disk graph `Scenario.neighbors()`, built once per run, for one listener
set per slot: the sink, every scheduled node and every node parked at
the slot's offset.  Transmitters stay in that set; half duplex is
`resolve_slot`'s rule that a node decodes nothing in a phase it sent
in, so a data transmitter can still hear the ack phase of the same
slot.  The set may be large, since every node parked at the
offset is in it, but a listener that no transmitter reaches costs
`resolve_slot` one set test, and the engine looks for parked listeners
to finish only when the data phase decoded something (or collided):
an ack phase follows only a data decode, so a slot whose data phase
nobody heard touched nobody.  A slot whose one frame no listener is in
range of (charging ones included) builds no set at all: the radio is
still called once for its data phase, with no listeners.

A slot's nodes run in no set order, and no result depends on one.  In a
slot, `poll`, `on_data`, `on_ack` and `finish` touch only the node's own
state, apart from the sink (with a caller's `Countdown`), which decodes
at most one frame a phase, and stateless shared policies.  Each node
draws its jitter from its own stream, `resolve_slot`'s rule does not
depend on the order of the frames, and every id `_file` puts in one
offset's charging entry in a slot shares one missed slot.  The only
thing the order could reach is the order of trace events, and
`EventTrace` sorts those itself.

Node behaviors are plain objects with:
    next_wake          absolute slot of the next working slot, or None
    listen_offset      None, or the offset (slot % cycle) the node is
                       parked at; then next_wake is its deadline
    poll(slot)         -> Frame to transmit in the data phase, or None
    on_data(slot, f)   -> response Frame for the ack phase, or None
    on_ack(slot, f)    -> None; what the node heard in the ack phase
    finish(slot)       -> None; end-of-slot transition, resets next_wake
                          and listen_offset

`on_data` and `on_ack` get what a listener heard in their phase: a
decoded frame, or COLLISION for colliding energy it could not decode,
to which `on_data` answers None.

Deaths are timed drops.  The engine reads `Scenario.deaths` once, when
it is built: a death of an id it does not run, the sink's included,
raises ValueError, and each death slot is filed in the wake heap (with
an empty bucket if no node wakes there).  When a slot pops, every node
whose death slot is at or before it is dropped before anything else
runs: it loses its schedule and its place in the calendar, so it is
never polled, finished or listed again.

A run is over when no behavior has a `next_wake`: every node is dead
or parked without a deadline, and the sink only listens.  Nothing can
then be sent again, since a node transmits only in a slot it woke in
and a parked node is only ever finished in a slot where someone else
sent.  The run converges at the last slot in which a node ran.  A
caller's `Countdown` can end it earlier, at the slot where it reaches
zero; a wake still scheduled past `max_slots` is a horizon hit.

A slot walks its nodes once to poll them and once to finish them:
`_file` finishes each node and files it in the same loop, and it is
also the code that files every node when the engine is built.  Filing
appends the node's id to the wake bucket (slot -> ids) of its
`next_wake`, which `finish` must move past the slot or clear, and the
heap holds each slot that has a bucket once.  The engine pops a slot
and takes its bucket whole.  That `next_wake` is the only record of a
deadline: an id in a bucket is live only while its `next_wake` equals
the bucket's slot, and a live node is polled and finished.  A one-id
bucket, the common case, is run as it is if its id is live; a bucket
of more than one id is deduplicated and filtered, so each of the
slot's nodes runs once.

A behavior that only listens parks instead of waking every cycle: it
sets `listen_offset` to the offset of its working slots and `next_wake`
to its deadline, the first slot at that offset where its own check
would fire (`park_deadline`), or None.  The engine files parked nodes
in a calendar whose year is one cycle (offset -> parked ids).  A parked
node listens in every processed slot at its offset without being
polled, and it is finished only at its deadline or in a slot where it
heard something; its `finish` then parks it again or schedules it, and
the deadline it leaves in a bucket is no longer live.  A parked node
never makes the engine process a slot before its deadline.

The charge rule: a node finished in slot `s` must charge for a cycle,
so if it parks at offset `o` it listens there only from slot
`s + cycle` on.  A park at `s`'s own offset meets the rule by itself;
a park at another offset misses exactly one slot, the one slot at `o`
inside the cycle, `s + (o - s) % cycle`.  `_file` keeps that slot and
the ids that miss it as one `(slot, ids)` entry per offset (parks from
different slots that miss the same slot share it), and `_step` leaves
those ids off the listeners of that slot.  A node is parked from the
slot it last worked in, so a state that starts by listening at a new
offset costs no wake.  The nodes filed when the engine is built are
charged.

The calendar needs no index of where each node is filed: a parked
deadline must lie at the node's `listen_offset` (filing raises
otherwise), and a touched node was heard at its offset, so a node
finished in slot `s` can only be filed at `s % cycle`, and a dropped
node at its own `listen_offset`.

The sink is mains powered, so it listens in every processed slot,
whether or not it scheduled the slot.  A sink that only listens sets
`next_wake = None` and needs no `poll` or `finish`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .core import SINK, Scenario
from .radio import COLLISION, MICRO_SLOTS, derive_rng_stream, resolve_slot


# randrange(MICRO_SLOTS) draws this many bits and redraws a value out of
# range; `Engine._draw_jitter` does the same without randrange's checks
_JITTER_BITS = MICRO_SLOTS.bit_length()


def park_deadline(slot, until, cycle):
    """First slot after `slot`, at its offset, that is at least `until`."""
    first = max(until, slot + 1)
    return first + (slot - first) % cycle


class Countdown:
    """Shared counter a caller's behaviors count down to end a run early."""

    def __init__(self, value: int = 0):
        self.value = value


@dataclass
class RunResult:
    last_slot: int
    converged: bool
    data_collisions: int = 0
    ack_collisions: int = 0
    frames_sent: int = 0


class Engine:
    def __init__(self, scenario: Scenario, behaviors, sink, trace=None):
        self.trace = trace
        self.neighbors = scenario.neighbors()  # the disk graph, for this run
        self._all = {**behaviors, SINK: sink}  # node id -> behavior
        self._jitter = {  # node id -> getrandbits of its jitter stream
            nid: derive_rng_stream(scenario.seed, nid, "jitter").getrandbits
            for nid in self._all
        }
        self._cycle = scenario.spec.cycle
        self._calendar = [set() for _ in range(self._cycle)]  # offset -> ids
        # offset -> (slot, ids): the one slot at that offset in which the
        # ids, parked there from another offset, are still charging
        self._charging = [None] * self._cycle
        self._heap = []  # each distinct slot that has a bucket, once
        self._buckets = {}  # slot -> ids filed for it, in filing order
        self._ran = 0  # the last slot in which a node ran
        # what `_file` reads, in one load per call
        self._filing = (self._all, self._cycle, self._calendar, self._heap,
                        self._buckets, self._charging)
        self._file(self._all, -1, finish=False)
        # (death slot, id), latest first: the next death is the last entry
        self._deaths = sorted(((d, n) for n, d in scenario.deaths.items()),
                              reverse=True)
        for died, nid in self._deaths:
            if nid not in behaviors:
                raise ValueError(f"death of {nid}, which is not a node of this run")
            if died not in self._buckets:
                self._buckets[died] = []
                heappush(self._heap, died)

    def _draw_jitter(self, nid):
        bits = self._jitter[nid]
        while True:
            r = bits(_JITTER_BITS)
            if r < MICRO_SLOTS:
                return r

    def run(self, max_slots: int,
            pending: Countdown | None = None) -> RunResult:
        """Advance until no node is scheduled to wake, `pending` counts
        down to zero, or `max_slots` is exceeded.

        A run that does not quiesce ends at `max_slots`: the sink listened
        through the horizon, whether or not a node woke in its last slots.
        """
        res = RunResult(last_slot=0, converged=False)
        if pending is not None and pending.value == 0:
            res.converged = True
            return res
        heap = self._heap
        buckets = self._buckets
        behaviors = self._all
        deaths = self._deaths
        step = self._step
        while heap and heap[0] <= max_slots:
            slot = heappop(heap)
            while deaths and deaths[-1][0] <= slot:
                self._drop(deaths.pop()[1])
            awake = buckets.pop(slot)
            if len(awake) == 1:
                if behaviors[awake[0]].next_wake != slot:
                    continue
            else:
                awake = [nid for nid in set(awake)
                         if behaviors[nid].next_wake == slot]
                if not awake:
                    continue
            # only a slot in which a node runs can move `pending`
            step(slot, awake, behaviors, res)
            self._ran = slot
            if pending is not None and pending.value == 0:
                res.last_slot = slot
                res.converged = True
                return res
        # every wake at or before the horizon has run: any left lies past it
        if any(beh.next_wake is not None for beh in behaviors.values()):
            res.last_slot = max_slots
        else:
            res.last_slot = self._ran
            res.converged = True
        return res

    def _file(self, ids, slot, finish=True):
        """Finish each node in `slot` (unless `finish` is false, as in the
        initial filing), then queue its `next_wake` and move it in the
        calendar from the offset of `slot` to its `listen_offset`; a node
        finished at one offset and parked at another misses that offset's
        next slot (the charge rule)."""
        behaviors, cycle, calendar, heap, buckets, charging = self._filing
        at = slot % cycle
        here = calendar[at]
        for nid in ids:
            beh = behaviors[nid]
            if finish:
                beh.finish(slot)
            here.discard(nid)
            wake = beh.next_wake
            offset = beh.listen_offset
            if offset is not None:
                if wake is not None and wake % cycle != offset:
                    raise RuntimeError(f"node {nid} parked off its offset")
                calendar[offset].add(nid)
                if offset != at and finish:
                    missed = slot + (offset - slot) % cycle
                    entry = charging[offset]
                    if entry is None or entry[0] != missed:
                        charging[offset] = (missed, {nid})
                    else:
                        entry[1].add(nid)
            if wake is not None:
                if wake <= slot:
                    raise RuntimeError(f"node {nid} rescheduled into the past")
                bucket = buckets.get(wake)
                if bucket is None:
                    buckets[wake] = [nid]
                    heappush(heap, wake)
                else:
                    bucket.append(nid)

    def _drop(self, nid):
        """A dead node loses its schedule and its place in the calendar; an
        id it leaves in a wake bucket is no longer live."""
        beh = self._all[nid]
        if beh.listen_offset is not None:
            self._calendar[beh.listen_offset].discard(nid)
        beh.next_wake = beh.listen_offset = None

    def _step(self, slot, awake, behaviors, res):
        """Run one slot, then finish and file (`_file`) the scheduled nodes
        and, after them, the parked ones that heard something."""
        trace = self.trace
        tx_a = []
        for nid in awake:
            frame = behaviors[nid].poll(slot)
            if frame is not None:
                tx_a.append((frame, self._draw_jitter(nid)))
                if trace:
                    trace.add(slot, nid, "tx", frame=type(frame).__name__)
        if not tx_a:
            # nothing on the air: listening changes no state
            self._file(awake, slot)
            return
        res.frames_sent += len(tx_a)
        at = slot % self._cycle
        parked = self._calendar[at]
        if len(tx_a) == 1:
            # a lone frame that no listener, charging or not, is in range
            # of: the radio is still called once for the phase
            near = self.neighbors[tx_a[0][0].src]
            if (SINK not in near and near.isdisjoint(awake)
                    and near.isdisjoint(parked)):
                resolve_slot(tx_a, (), self.neighbors)
                self._file(awake, slot)
                return

        # the listeners: the ones parked at the slot's offset, less those
        # still charging, the scheduled nodes and the sink
        charging = self._charging[at]
        if charging is not None and charging[0] == slot:
            parked = parked - charging[1]
        listeners = parked.union(awake)
        listeners.add(SINK)
        decode_a = resolve_slot(tx_a, listeners, self.neighbors)

        # the decode dicts hold only listeners that heard something
        tx_b = []
        for nid, got in decode_a.items():
            if got is COLLISION:
                res.data_collisions += 1
                if trace:
                    trace.add(slot, nid, "collision", phase="data")
            elif trace:
                trace.add(slot, nid, "rx", frame=type(got).__name__, src=got.src)
            resp = behaviors[nid].on_data(slot, got)
            if resp is not None:
                tx_b.append((resp, self._draw_jitter(nid)))
                if trace:
                    trace.add(slot, nid, "txr", frame=type(resp).__name__)

        decode_b = {}
        if tx_b:
            decode_b = resolve_slot(tx_b, listeners, self.neighbors)
            for nid, got in decode_b.items():
                if got is COLLISION:
                    res.ack_collisions += 1
                    if trace:
                        trace.add(slot, nid, "collision", phase="ack")
                elif trace:
                    trace.add(slot, nid, "rxa", frame=type(got).__name__, src=got.src)
                behaviors[nid].on_ack(slot, got)

        if parked and decode_a:
            # a parked listener that decoded a frame or heard a collision is
            # finished in this slot too (SINK is never parked); an ack phase
            # follows only a data decode, so a slot whose data phase decoded
            # nothing touched nobody
            heard = decode_a.keys() | decode_b.keys()
            touched = (heard & parked).difference(awake)
            if touched:
                awake = [*awake, *touched]
        self._file(awake, slot)
