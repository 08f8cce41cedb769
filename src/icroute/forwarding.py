"""Store-and-forward messaging over cached working-time alignment.

A node with traffic becomes a sender, and every sender wake ends in
`ForwardNode._finish_sender`.  A scan (`scan`) tries one message per
cycle and postpones its working slot one position per miss; an ack
settles the match, and a matched session (`send`) stays put.  The swing
`offset_forth` is the one record of how far the node has moved, and the
cached match `offset_cache` is that swing within a cycle, so later
batches jump straight to it.  A full cycle of misses, or an empty
queue, swings the node back to its base offset.

A queue entry is a `DataFrame` built by the node that holds it: a
reading or an accepted frame is queued addressed to nobody and outside
any batch, and a missed frame goes back to the tail as it was sent.
`poll` sends the head as it is unless its addressing moved: another target
(`dst`, as when a scan's ack turns it into a matched session or a
realigning strategy rescans), or another place in the batch (`is_start`
once the batch has an ack and again when a new batch opens, `is_end`
when the message becomes, or stops being, the last one queued).  Then
it sends a new frame, which a miss puts back in its place.

Receivers lock onto a sender for the duration of a marked batch, which
keeps two candidate relays from both adopting the same traffic: the
loser notices the sender naming the other node and quietly discards its
copy.  The lock alone decides when a receiver leaves.  A lock ends
with its batch's closing frame, or once its sender stays silent for
more than a cycle of wakes.  A receiver that is unlocked and past its
failure hold is free: with a message queued it takes the sender role,
and idle with every reading made it parks at its base offset (see
`engine`), where it listens and never wakes on its own.  A frame it
hears finishes it in that slot, which may make it a sender.  A matched
next hop that stops acking for a full cycle of attempts is treated as
failed, and the sender sits out the strategy's failure wait as a
receiver.  That hold gates only contention: the node still takes
batches in it, and a silent lock times out in it as anywhere else.

A strategy is three members the node reads: `scan_target(node)` names
whom a fresh scan courts (None: the first acking node downstream),
`failure_wait(node)` how long a failed sender sits out, and the class
flag `realign`.  A caching strategy (`CachedPolicy` here) keeps its
match across messages and batches; a realigning one (the baselines in
`baselines`) forgets it after every acked frame and rescans from where
it stands, and forgets it again at batch end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    NO_HOP,
    SINK,
    AckFrame,
    ChargingSpec,
    DataFrame,
    Scenario,
)
from .engine import Countdown, Engine, RunResult

QUEUE_CAP = 16  # messages a node holds; a full queue acks nothing


def swing_back(amount: int, spec: ChargingSpec) -> int:
    """Extra delay that returns a node swung `amount` slots forth to its base.

    A node can only postpone its working slot, so the way back is the
    rest of the cycle.
    """
    if amount < 0:
        raise ValueError(f"swing amount {amount} is negative")
    return -amount % spec.cycle


def message_slot(offset: int, seq: int, spec: ChargingSpec) -> int:
    """Slot at which a node with working offset `offset` senses message
    `seq`: one message per cycle, on its working slot."""
    return offset + seq * spec.cycle


def failure_recovery_wait(spec: ChargingSpec) -> int:
    """Slots a sender sits out after its matched next hop goes silent.

    Long enough for the dead node's own upstream traffic to drain (a full
    queue, one message per cycle) or time out (one more cycle) before the
    survivor rejoins the contention.
    """
    return (QUEUE_CAP + 1) * spec.cycle


class CachedPolicy:
    """Default strategy: scan once, cache the match, sit out failures."""

    realign = False  # one sync carries every later message and batch

    def scan_target(self, node):
        return None  # opportunistic: first acking node downstream wins

    def failure_wait(self, node):
        return failure_recovery_wait(node.spec)


@dataclass
class Delivery:
    origin: int
    seq: int
    created_at: int
    delivered_at: int
    hops: int
    path: tuple


class ForwardSink:
    """Always-awake terminus: acks anything addressed to it (or to nobody),
    records first arrivals, and absorbs duplicates silently.

    It never transmits unprompted, so it schedules no wake of its own: the
    engine has it listen in every slot some node works.
    """

    def __init__(self, pending: Countdown):
        self.next_wake = None
        self.listen_offset = None
        self.seen = set()
        self.deliveries = []
        self.duplicates = 0
        self.pending = pending

    def on_data(self, slot, frame):
        if not isinstance(frame, DataFrame):
            return None
        if frame.dst is not None and frame.dst != SINK:
            return None  # a handoff between nodes, not ours to ack
        key = (frame.origin, frame.seq)
        if key in self.seen:
            self.duplicates += 1
        else:
            self.seen.add(key)
            self.deliveries.append(Delivery(
                origin=frame.origin,
                seq=frame.seq,
                created_at=frame.created_at,
                delivered_at=slot,
                hops=len(frame.path),
                path=frame.path,
            ))
            self.pending.value -= 1
        return AckFrame(SINK, frame.src)

    def on_ack(self, slot, frame):
        return None


class ForwardNode:
    """Sender/receiver state machine for one duty-cycled node."""

    # slotted: `poll`, `finish` and `_finish_sender` read and write about
    # a dozen of these on every wake
    __slots__ = (
        "id", "base", "spec", "cycle", "policy", "hop", "rounds", "state",
        "next_wake", "listen_offset",
        "queue", "next_hop", "offset_forth", "scan_target", "_batch_acked",
        "_in_flight", "_got_ack", "_misses", "_hold_until",
        "id_match", "time_wait", "seen",
        "generated",
        "scan_attempt_slots", "match_slots", "dropped_full", "stale_breaks",
        "forced_exits", "failures", "exhausted",
    )

    def __init__(self, placement, spec, policy, hop, rounds):
        self.id = placement.node_id
        self.base = placement.offset
        self.spec = spec
        self.cycle = spec.cycle
        self.policy = policy
        self.hop = hop
        self.rounds = rounds
        self.state = "recv"
        self.next_wake = placement.offset
        self.listen_offset = None  # base while parked idle (`_finish_recv`)
        # sender side
        self.queue = deque()
        self.next_hop = None
        self.offset_forth = 0  # the swing: slots postponed since base
        self.scan_target = None
        self._batch_acked = False
        self._in_flight = None
        self._got_ack = False
        self._misses = 0  # unacked frames since the last ack or sender entry
        self._hold_until = 0  # a failed sender contends again from this slot
        # receiver side
        self.id_match = None
        self.time_wait = 0
        self.seen = set()
        # workload
        self.generated = 0
        # counters for tests and summaries
        self.scan_attempt_slots = []
        self.match_slots = []
        self.dropped_full = 0
        self.stale_breaks = 0
        self.forced_exits = 0
        self.failures = 0
        self.exhausted = 0  # scans that ran a full cycle unanswered

    @property
    def matched(self):
        """Whether an ack settled a next hop; `clear_match` forgets it."""
        return self.next_hop is not None

    @property
    def offset_cache(self):
        """The cached match: the swing, within one cycle."""
        return self.offset_forth % self.cycle

    # -- sender machinery ----------------------------------------------

    def poll(self, slot):
        """Send the head of the queue, or nothing outside a sender state.

        The head is a frame this node built, so its `src`, `src_hop` and
        message fields are final.  It goes out as it is while its `dst`,
        `is_start` and `is_end` are what this send carries; otherwise a
        new frame with the head's message fields goes out in its place.
        """
        state = self.state
        if state not in ("scan", "send") or not self.queue:
            return None
        if state == "scan":
            self.offset_forth += 1
            self.scan_attempt_slots.append(slot)
            dst = self.scan_target
        else:
            dst = self.next_hop
        frame = self.queue.popleft()
        is_end = not self.queue
        is_start = not self._batch_acked
        if (frame.dst != dst or frame.is_start != is_start
                or frame.is_end != is_end):
            frame = DataFrame(
                self.id, dst, self.hop, frame.origin, frame.seq,
                frame.created_at, is_start, is_end, frame.path)
        self._in_flight = frame
        self._got_ack = False
        return frame

    def on_ack(self, slot, frame):
        if not isinstance(frame, AckFrame) or frame.ack_dst != self.id:
            return
        if self._in_flight is not None:
            self._got_ack = True
            self.next_hop = frame.src

    # -- receiver machinery --------------------------------------------

    def on_data(self, slot, frame):
        if not isinstance(frame, DataFrame):
            return None
        if self.state != "recv":
            # a sender that happened not to transmit this slot stays deaf;
            # accepting here would strand the upstream node on an offset
            # we are about to leave
            return None
        if frame.src_hop <= self.hop:
            return None  # never accept traffic moving away from the sink
        if self.id_match is not None and frame.src != self.id_match:
            # locked: third parties get neither queue space nor acks, even
            # for frames that name us directly
            return None
        # past here a locked receiver hears only its sender, and
        # `time_wait` is read only while locked and reset when a lock starts
        key = (frame.origin, frame.seq)
        if key in self.seen:
            # retransmit after a lost ack: ack again, queue nothing
            self.time_wait = 0
            return AckFrame(self.id, frame.src)
        legit = frame.dst == self.id or (frame.dst is None and self.id_match is None)
        if not legit:
            if self.id_match is not None:
                # our sender switched targets or lost its match: the lock
                # is stale, but every copy it already acked into our queue
                # is ours to carry onward
                self.stale_breaks += 1
                self.id_match = None
            return None
        if len(self.queue) >= QUEUE_CAP:
            self.dropped_full += 1
            return None  # no ack: the sender must retry later
        self.queue.append(DataFrame(
            self.id, None, self.hop, frame.origin, frame.seq,
            frame.created_at, False, False, frame.path + (self.id,)))
        self.seen.add(key)
        self.time_wait = 0
        if frame.is_end:
            self.id_match = None
        elif frame.is_start:
            self.id_match = frame.src
        return AckFrame(self.id, frame.src)

    # -- workload ------------------------------------------------------

    def _generate(self, slot):
        # materialize scheduled readings up to now; a full queue defers
        # them (created_at keeps the scheduled slot either way)
        while self.generated < self.rounds:
            due = message_slot(self.base, self.generated, self.spec)
            if due > slot or len(self.queue) >= QUEUE_CAP:
                break
            self.queue.append(DataFrame(
                self.id, None, self.hop, self.id, self.generated, due,
                False, False, (self.id,)))
            self.generated += 1

    # -- per-slot wrap-up ----------------------------------------------

    def finish(self, slot):
        self.listen_offset = None
        if self.generated < self.rounds:
            self._generate(slot)
        state = self.state
        if state == "recv":
            self._finish_recv(slot)
        elif state in ("scan", "send"):
            self._finish_sender(slot)
        else:
            raise AssertionError(f"unknown state {state}")

    def _finish_recv(self, slot):
        if self.id_match is not None:
            self.time_wait += 1
            if self.time_wait > self.cycle:
                # locked sender went quiet mid-batch: move what we have
                self.id_match = None
                self.forced_exits += 1
        if self.id_match is not None or slot < self._hold_until:
            # locked, or sitting out a failed next hop: listen next cycle
            self.next_wake = slot + self.cycle
        elif self.queue:
            self._enter_sender(slot)
        elif self.generated == self.rounds:
            # idle with every reading made: listen at base, never wake
            self.listen_offset = self.base
            self.next_wake = None
        else:
            self.next_wake = slot + self.cycle

    def _enter_sender(self, slot):
        if not self.matched:
            self._start_scan(slot, 0)
            return
        self.state = "send"
        self._batch_acked = False
        self._misses = 0
        self.next_wake = slot + self.cycle + self.offset_cache

    def _start_scan(self, slot, displacement):
        self.state = "scan"
        self.scan_target = self.policy.scan_target(self)
        self.offset_forth = displacement
        self._batch_acked = False
        self._misses = 0
        self.next_wake = slot + self.cycle + 1  # first try one slot late

    def _finish_sender(self, slot):
        """Wrap up one sender wake, scanning (`scan`) or matched (`send`);
        see the module docstring."""
        frame, self._in_flight = self._in_flight, None
        if frame is None:
            # queue empty, so the batch is done (a scan always has one)
            self.state = "recv"
            self.next_wake = self._wake_at_base(slot)
            if self.policy.realign:
                self.clear_match()
            return
        if self._got_ack:
            if self.state == "scan":
                self.match_slots.append(slot)
            if self.policy.realign and self.queue:
                # rescan from the current residue with a fresh attempt
                # budget; the next frame opens a new batch
                self.next_hop = None
                self._start_scan(slot, self.offset_cache)
                return
            self.state = "send"
            # an acked closing frame ends the batch; anything generated
            # later in this session opens a new one so receivers re-lock
            self._batch_acked = not frame.is_end
            self._misses = 0
            self.next_wake = slot + self.cycle
            return
        self.queue.append(frame)
        self._misses += 1
        if self._misses < self.cycle:
            # a scan tries one slot later each cycle; a match stays put
            self.next_wake = slot + self.cycle + (1 if self.state == "scan" else 0)
        elif self.state == "scan":
            # full circle, nobody answered; swing back and listen a while
            self.state = "recv"
            self.next_wake = self._wake_at_base(slot)
            self.exhausted += 1
        else:
            self._matched_failure(slot)

    def _wake_at_base(self, slot):
        """Next wake on the base offset, at least a cycle after `slot`."""
        return slot + self.cycle + swing_back(self.offset_forth, self.spec)

    def _matched_failure(self, slot):
        self.failures += 1
        self.state = "recv"
        self.next_wake = self._wake_at_base(slot)
        self._hold_until = slot + self.policy.failure_wait(self)
        self.clear_match()

    def clear_match(self):
        self.next_hop = None
        self.offset_forth = 0


@dataclass
class ForwardResult:
    deliveries: list
    created: int
    delivered: int
    duplicates: int
    undelivered: int
    dropped_full: int
    failures: int
    stale_breaks: int
    forced_exits: int
    scan_attempts: dict
    match_slots: dict
    generated_per_node: dict
    run: RunResult

    @property
    def latencies(self):
        return [d.delivered_at - d.created_at for d in self.deliveries]


def run_forwarding(scenario: Scenario, hops: dict, rounds: int = 1,
                   policies: dict | None = None,
                   max_slots: int | None = None,
                   trace=None) -> ForwardResult:
    """Drive a full messaging run over an already-built hop field.

    `hops` maps node id to hop count (from the topology stage).
    `policies` maps node id to a strategy object; nodes default to the
    caching strategy.  The run waits only for the readings of nodes
    with a hop: after a least-hop mapping, a node without one has no
    neighbor with a hop and is out of the sink's range, so no one takes
    its frames, and the readings it has made when the run ends are
    reported undelivered.
    """
    if max_slots is None:
        t = scenario.spec.charge_slots
        depth = max((h for h in hops.values() if h != NO_HOP), default=1)
        max_slots = (rounds + 2 * depth + 40) * (t + 1) * (t + 1)
    routed = sum(hops.get(p.node_id, NO_HOP) != NO_HOP for p in scenario.nodes)
    pending = Countdown(routed * rounds)
    sink = ForwardSink(pending)
    default_policy = CachedPolicy()
    nodes = {}
    for p in scenario.nodes:
        policy = (policies or {}).get(p.node_id, default_policy)
        nodes[p.node_id] = ForwardNode(
            p, scenario.spec, policy,
            hop=hops.get(p.node_id, NO_HOP), rounds=rounds)
    engine = Engine(scenario, nodes, sink, trace=trace)
    run = engine.run(max_slots, pending)
    created = sum(n.generated for n in nodes.values())
    return ForwardResult(
        deliveries=sink.deliveries,
        created=created,
        delivered=len(sink.deliveries),
        duplicates=sink.duplicates,
        undelivered=created - len(sink.deliveries),
        dropped_full=sum(n.dropped_full for n in nodes.values()),
        failures=sum(n.failures for n in nodes.values()),
        stale_breaks=sum(n.stale_breaks for n in nodes.values()),
        forced_exits=sum(n.forced_exits for n in nodes.values()),
        scan_attempts={nid: n.scan_attempt_slots for nid, n in nodes.items()},
        match_slots={nid: n.match_slots for nid, n in nodes.items()},
        generated_per_node={nid: n.generated for nid, n in nodes.items()},
        run=run,
    )
