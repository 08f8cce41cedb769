"""Hop-count acquisition for charge-and-work nodes.

The sink owns the first phase of a build: it stays silent while nodes
charge, then transmits its hop frame once per slot for a full cycle, so
every in-range node decodes exactly one round regardless of offset.

A node that learns a smaller hop count runs a lead pass: one
transmission per cycle, delaying one extra slot each round so that the
transmit slot rotates through every offset exactly once.  A pass takes
t+1 rounds of t+2 slots.  Every lead pass is phase-locked to an anchor
slot: locked round v transmits at anchor + v*(t+2).  Every hop frame a
node sends carries the number of locked rounds since its anchor
(negative before it), so a listener can place the sender's anchor to
within a round from any frame.

The start rule pipelines the mapping wave.  A node anchors its lead
pass a round more than half a pass after its sender's anchor (moved up
to its own working offset), or at its next working slot after the
sink's one-cycle pass, and keeps listening at its offset until then.
The wave front therefore moves about half a pass per hop.  Half a pass
is the least relay that keeps the least-hop result while passes run on
time: a pass reaches every neighbor within a pass of its anchor A, and
a neighbor that first hears a worse hop, from a node that anchored a
relay after A, anchors no earlier than A + 2 relays, so it is still
listening when the pass reaches it.  The extra round pays for moving
an anchor up to a working offset.  Waiting out the sender's whole pass
instead costs a full pass per hop; starting at once lets a child start
before it has heard the lower hop it should adopt.

A node that hears its sender only after its own anchor joins its locked
schedule late, at the first round still ahead, and wraps the rounds it
missed onto the end of the pass.  Its wrapped rounds reach some
neighbors after those have started their own pass with a hop learned
from a same-level node.  Rotating neighbors never hear each other, so a
late node repairs them itself (`_lead_plan`):

* a little late: after its pass it slips ahead of those neighbors'
  rotation and listens there until they have passed it; each one it
  hears answers to its struggler reply (below);
* far behind: it keeps rotating until those neighbors have stopped
  rotating and are listening out their echo.

After its lead pass (and catch) a node listens at one offset for a full
pass, its echo, so that any neighbor still rotating with a hop two or
more above its own passes it once.  A node whose hop improves after it
has led with the old hop first sets right each neighbor that acked the
stale frames, whose schedule it knows: with a frame at the neighbor's
listening offset while that one waits for its anchor or listens out
its echo, or by listening in on its next transmit slot while it
rotates.

Listeners answer with an ack when a frame actually improved their
state; a broadcaster keeps running passes (with a re-randomized
rotation start) until two consecutive passes bring no new ackers.
Every retry pass flips a coin at each working slot: transmit here and
step the rotation, or just listen and stay.  The node draws a step's
whole run of coins when the pass steps, in its transmit slot, and when
the run starts with a listen-only cycle it parks at its new offset
from that slot, with the transmit slot the coins pick as its deadline;
the engine's charge rule has it listen there from a cycle later.  Each
offset is still covered exactly once, but two neighbors whose retries
overlap are no longer transmit-only in lockstep, so they can actually
hear each other mid-pass.

A quiet broadcaster does not go silent at once.  It first sits in a
listen-only cooldown until its own channel has been quiet for a
randomized window, runs one lone farewell pass, then listens for
another window.  The farewell only counts if that trailing window stays
silent; any frame (or undecodable pileup) heard along the way voids the
attempt and restarts the cooldown.  A node retires only after the
required number of farewells have each run clean, which keeps farewells
from being spent while the neighborhood is still loud, and leaves the
last word to a pass transmitted into drained air, where one clean
exchange is enough for a straggling neighbor to correct us or adopt us.
Cooldown and verify park from the slot that enters them, and so does a
lead pass's catch or echo whose first listen is the first slot at its
offset a cycle after the pass, so a mapping node wakes only to
transmit or to move on.

A listener that decodes a frame claiming a hop at least two above its
own answers in the ack phase with its own hop frame, which the
(half-duplex, but ack-phase listening) broadcaster applies at once.

The run is over when no node is scheduled to wake (see `engine`).  A
node that retires, or never learns a hop, listens parked without a
deadline; every other state has a wake, and so does the sink until
its last frame.  Only a node with a wake starts a frame, and a
struggler reply only answers one, so once no node has a wake no frame
will ever be sent again, and a node still without a hop is unreachable
in fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (NO_HOP, SINK, AckFrame, ChargingSpec, DiskGrid, HopFrame,
                   Scenario)
from .engine import Engine, RunResult, park_deadline
from .radio import derive_rng_stream


QUIET_PASSES = 2  # passes without new ackers before a broadcaster cools down
FAREWELL_PASSES = 2  # lone post-cooldown passes that must stay quiet


@dataclass
class TopoResult:
    hops: dict
    next_hops: dict
    known_lower: dict  # node id -> ids heard sending a finite hop
    topo_time: int
    converged_at: int | None
    passes: dict
    run: RunResult

    @property
    def unreachable(self):
        """Nodes left without a hop: once mapping has quiesced, no frame
        can reach them."""
        return {nid for nid, hop in self.hops.items() if hop == NO_HOP}

    def to_dict(self):
        return {
            "hops": {str(k): (None if v == NO_HOP else v) for k, v in self.hops.items()},
            "next_hops": {str(k): v for k, v in self.next_hops.items()},
            "topo_time": self.topo_time,
            "converged_at": self.converged_at,
            "unreachable": sorted(self.unreachable),
        }


class TopoSink:
    """Transmits hop 0 once per slot for one full cycle, then just listens."""

    def __init__(self, spec: ChargingSpec):
        self.t = spec.charge_slots
        self.next_wake = self.t
        self.listen_offset = None

    def poll(self, slot):
        if self.t <= slot <= 2 * self.t:
            return HopFrame(SINK, 0, slot - self.t)
        return None

    def on_data(self, slot, frame):
        return None

    def on_ack(self, slot, frame):
        return None

    def finish(self, slot):
        self.next_wake = slot + 1 if slot < 2 * self.t else None


class TopoNode:
    """Per-node state machine: listen, wait for the relay point, broadcast.

    A node starts in `listen`, parked at its offset without a deadline:
    it has a wake only from the hop it learns until it retires.
    """

    def __init__(self, node_id, offset, spec, seed):
        self.id = node_id
        self.t = spec.charge_slots
        self.cycle = spec.cycle
        self.round_len = spec.cycle + 1  # slots per rotation round
        # rounds from a sender's anchor to its children's: a round past
        # half a pass (see the module docstring)
        self.relay_rounds = (self.t + 1) // 2 + 1
        self.hop = NO_HOP
        self.next_hop = None
        self.known_lower = set()
        self.state = "listen"
        self.next_wake = None
        self.listen_offset = offset  # set while parked (see `_listen`)
        self.last_update = -1
        # end of the current listen: the far wait in `lead_wait`, the next
        # transmit slot of a pass in `bcast`, and the end of `lead_hold`,
        # `cooldown` and `verify`; `finish` parks any node that is not in
        # `listen` before it
        self._until = 0
        self.rng = derive_rng_stream(seed, node_id, "topo")
        # lead pass bookkeeping
        self._anchor = None  # slot of locked round 0
        self._vround = 0  # locked round of the next transmission
        self._plan = None  # `_lead_plan` of this lead pass
        self._acked = {}  # acker -> (ack slot, locked round) in this lead pass
        self._calls = []  # (slot, transmit) visits to stale children
        # broadcast bookkeeping
        self._round = 0  # rotation steps taken in this pass
        self._pass_no = 0
        self._cur_ackers = False  # a neighbor acked this pass
        self._quiet_streak = 0
        self._farewells = 0
        # set in on_data/on_ack, consumed by finish
        self._update_round = None

    # -- helpers -------------------------------------------------------

    def _consider(self, slot, frame):
        """Apply a decoded hop frame; return an ack-phase response or None.

        Only a node with a hop sends one, so its hop is finite.
        """
        self.known_lower.add(frame.src)
        if frame.hop + 1 < self.hop:
            self.hop = frame.hop + 1
            self.next_hop = frame.src
            self.last_update = slot
            self._update_round = frame.round_no
            return AckFrame(self.id, frame.src)
        if frame.hop > self.hop + 1:
            # struggler: answer with our own state
            return HopFrame(self.id, self.hop, self._stamp(slot))
        return None

    # -- engine hooks --------------------------------------------------

    def poll(self, slot):
        # a lead pass is polled only at anchor + _vround rounds, where
        # the stamp is _vround
        state = self.state
        if (state == "lead"
                or state == "bcast" and slot == self._until
                or state == "lead_wait" and self._calls
                and self._calls[0] == (slot, True)):
            return HopFrame(self.id, self.hop, self._stamp(slot))
        return None

    def on_data(self, slot, frame):
        # any frame or collision heard is activity
        self._heard_activity(slot)
        if isinstance(frame, HopFrame):
            return self._consider(slot, frame)
        return None

    def on_ack(self, slot, frame):
        self._heard_activity(slot)
        if isinstance(frame, AckFrame):
            if self.state in ("bcast", "lead") and frame.ack_dst == self.id:
                self._cur_ackers = True
                if self.state == "lead":
                    self._acked[frame.src] = (slot, self._vround)
        elif isinstance(frame, HopFrame):
            self._consider(slot, frame)

    def _heard_activity(self, slot):
        """The channel is clearly not quiet: slide or void quiet-dependent state."""
        if self.state == "cooldown":
            self._until = max(self._until, self._quiet_end(slot))
        elif self.state == "verify":
            # the farewell pass ran against live traffic, so it proves
            # nothing; try again once the channel drains
            self._enter_cooldown(slot)

    def finish(self, slot):
        self.listen_offset = None
        if self._update_round is not None:
            self._enter_lead(slot, self._update_round)
            self._update_round = None
        elif self.state == "listen":
            # a retired node, or one without a hop, listens for good
            self._listen(slot, None)
        elif slot < self._until:
            # any other listen runs to `_until`; past it, each state moves
            # on at its deadline or transmit slot
            self._listen(slot, self._until)
        elif self.state == "lead_wait":
            self._advance_lead_wait(slot)
        elif self.state == "lead":
            self._advance_lead(slot)
        elif self.state == "bcast":
            self._advance_pass(slot)
        elif self.state == "lead_hold":
            self._finish_pass(slot)
        elif self.state == "cooldown":
            # the channel has stayed quiet: run a farewell pass
            self._enter_bcast(slot)
        elif self.state == "verify":
            # the farewell ran and the channel stayed silent around it
            self._farewells += 1
            if self._farewells >= FAREWELL_PASSES:
                self.state = "listen"
                self._listen(slot, None)
            else:
                self._enter_cooldown(slot)
        else:
            raise AssertionError(f"unknown state {self.state!r}")

    def _listen(self, slot, until):
        """Park at the offset of `slot` (see `icroute.engine`): this
        slot's, or the first slot at a new offset within a cycle, where
        the engine's charge rule has us listen from a cycle after this
        slot.

        The deadline is the first later slot at this offset that is at
        least `until`, where the state's own check fires; None waits for
        frames only.
        """
        self.listen_offset = slot % self.cycle
        self.next_wake = (None if until is None
                          else park_deadline(slot, until, self.cycle))

    # -- transitions ---------------------------------------------------

    def _stamp(self, slot):
        """Locked rounds since our anchor (negative before it).

        A listener puts our anchor at slot - stamp * round_len, within a
        round of the true one.  Every node that sends a hop frame has
        anchored a lead pass (`_enter_lead`).
        """
        return (slot - self._anchor) // self.round_len

    def _relay_anchor(self, slot, round_no):
        """Anchor of a node that learns its hop from a frame stamped `round_no`.

        It lies `relay_rounds` rounds after the sender's anchor (slot -
        round_no rounds), moved up to the working offset of `slot`.
        """
        relay = slot + (self.relay_rounds - round_no) * self.round_len
        return relay + (slot - relay) % self.cycle

    def _join_round(self, anchor, start):
        """First locked round at least a cycle after `start`."""
        return max(0, math.ceil((start + self.cycle - anchor) / self.round_len))

    def _enter_lead(self, slot, round_no):
        """Anchor a lead pass after learning a hop from `next_hop`'s frame.

        The anchor is the relay anchor (`_relay_anchor`), or after the
        sink's pass our next working slot.  We listen until the first
        locked round at least a cycle ahead, visiting on the way any
        neighbor that adopted our previous, stale hop.
        """
        self._pass_no = 0
        self._quiet_streak = 0
        self._farewells = 0
        self._calls = self._plan_calls(slot)
        self._acked = {}
        start = self._calls[-1][0] if self._calls else slot
        if self.next_hop == SINK:
            self._anchor = slot + self.cycle
        else:
            self._anchor = self._relay_anchor(slot, round_no)
        self._vround = self._join_round(self._anchor, start)
        self._plan = self._lead_plan(self._anchor, self._vround)
        self.state = "lead_wait"
        self._advance_lead_wait(slot)

    def _plan_calls(self, slot):
        """Visits that set right the neighbors that acked our stale hop.

        Each acker anchored its own pass on our frame, so its schedule is
        known (`_lead_plan`).  While it listens, before its first
        transmission or in its echo, we send it our new hop at its
        listening offset; while it rotates we listen in on its next
        transmit slot, and it takes our struggler reply in the ack phase.
        Visits are at least a cycle apart, earliest first.
        """
        c, rl = self.cycle, self.round_len
        todo = []
        for ack_slot, vround in self._acked.values():
            anchor = self._relay_anchor(ack_slot, vround)
            v0 = self._join_round(anchor, ack_slot)
            last, listen, hold_end = self._lead_plan(anchor, v0)
            todo.append((ack_slot % c, anchor + v0 * rl, anchor + last * rl, listen, hold_end))
        calls = []
        prev = slot
        while todo:
            best = None
            for item in todo:
                offset, first, end, listen, hold_end = item
                at = prev + c + (offset - prev - c) % c
                if at < first:
                    call = (at, True)
                else:
                    at = first + max(0, math.ceil((prev + c - first) / rl)) * rl
                    call = (at, False)
                    if at > end:
                        at = max(prev + c, listen)
                        at += (listen - at) % c
                        call = (at, True) if at < hold_end else None
                if call is not None and (best is None or call[0] < best[0][0]):
                    best = (call, item)
            if best is None:
                break
            calls.append(best[0])
            todo.remove(best[1])
            prev = best[0][0]
        return calls

    def _advance_lead_wait(self, slot):
        if self._calls and self._calls[0][0] == slot:
            self._calls.pop(0)
        # listen at our offset, then slip to the next call or first
        # transmission (always at least a cycle ahead)
        tx_slot = self._anchor + self._vround * self.round_len
        target = self._calls[0][0] if self._calls else tx_slot
        self._until = target - 2 * self.cycle + 1
        if slot < self._until:
            self._listen(slot, self._until)
            return
        self.next_wake = target
        if target == tx_slot:
            self.state = "lead"
            self._pass_no += 1
            self._cur_ackers = False

    def _lead_plan(self, anchor, v0):
        """Schedule of a lead pass anchored at `anchor` that joins at round v0.

        Returns the last locked round transmitted, the first slot of the
        listen that follows, and the slot that listen ends.

        A late joiner's neighbor that heard a same-level node first
        anchors two relays after the joiner's anchor and may start
        rotating before the joiner's frame reaches it; it then runs at most
        `ahead` positions ahead of the joiner's rotation.  If the joiner
        can slip in front of it while it still rotates, it catches it;
        otherwise it rotates on until the neighbor's echo is over: the
        neighbor anchors at 2 relays, joins at most a pass minus a relay
        late, rotates a pass and listens a pass.
        """
        c, rl, t, relay = self.cycle, self.round_len, self.t, self.relay_rounds
        ahead = v0 + t + 1 - 2 * relay
        catch = 0 < ahead and v0 + t + 1 + ahead + 2 <= 2 * relay + c
        last = v0 + t
        if ahead > 0 and not catch:
            last = max(last, relay + 3 * c - 1)
        end = anchor + last * rl
        # echo: listen at one offset for a full pass
        hold_end = max(anchor + c * (v0 // c + 2) * rl, end + c * rl)
        if catch:
            # slip ahead of the neighbors reached too late and let them
            # rotate past
            return last, end + c + ahead + 1, max(hold_end, anchor + (last + 2 * ahead + 4) * rl)
        return last, end + c, hold_end

    def _advance_lead(self, slot):
        """Step to the next locked round, or hand over to catch and echo."""
        last, listen, hold_end = self._plan
        if self._vround < last:
            self._vround += 1
            self.next_wake = self._anchor + self._vround * self.round_len
            return
        # the echo ends at hold_end: its last wake is within a cycle of it
        self._until = hold_end - self.cycle
        self.state = "lead_hold"
        if listen < slot + 2 * self.cycle:
            # the first listen is the first slot at its offset a cycle
            # from now (and before `_until`: the echo runs a pass): park
            # there from this slot
            self._listen(listen, self._until)
        else:
            self.next_wake = listen

    def _enter_bcast(self, slot):
        """Start a retry or farewell pass (see the module docstring) from a
        re-randomized rotation start; its first slot transmits."""
        self._until = self.next_wake = \
            slot + self.cycle + 1 + self.rng.randrange(self.cycle)
        self.state = "bcast"
        self._round = 0
        self._pass_no += 1
        self._cur_ackers = False

    def _advance_pass(self, slot):
        if self._round == self.t:
            self._finish_pass(slot)
            return
        # step the rotation one offset, then flip a coin at each working
        # slot there: transmit, or listen a cycle (parked) and flip again
        self._round += 1
        self._until = self.next_wake = slot + self.cycle + 1
        while self.rng.random() >= 0.5:
            self._until += self.cycle
        if self._until > self.next_wake:
            # a listen cycle first: park at the new offset from this slot,
            # with the transmit slot as its deadline
            self.listen_offset = self.next_wake % self.cycle
            self.next_wake = self._until

    def _finish_pass(self, slot):
        # a neighbor acks at most once per hop we lead with (hops never
        # grow), so any acker of a pass is a new one
        new = self._cur_ackers
        # a lead pass starts on a quiet streak of 0 and a retry pass below
        # QUIET_PASSES: only a farewell pass starts on a full one
        lone = self._quiet_streak >= QUIET_PASSES
        if new:
            self._quiet_streak = 0
            self._farewells = 0
        else:
            self._quiet_streak += 1
        if not new and lone:
            # a farewell counts only after a quiet listen-through; any
            # activity in the window voids it (see _heard_activity)
            self.state = "verify"
            self._until = slot + (self.t + 1) * self.cycle
            self._listen(slot + 1, self._until)
            return
        if not new and self._quiet_streak >= QUIET_PASSES:
            # ackers have dried up: cooldown, then prove it with farewells
            self._enter_cooldown(slot)
            return
        # more work to do: another pass
        self._enter_bcast(slot)

    def _enter_cooldown(self, slot):
        self.state = "cooldown"
        self._until = self._quiet_end(slot)
        self._listen(slot + 1, self._until)

    def _quiet_end(self, slot):
        """End of a fresh quiet requirement: t+1 to 2t+2 random cycles."""
        return slot + self.rng.randrange(self.t + 1, 2 * self.t + 3) * self.cycle


def build_topology(scenario: Scenario, trace=None) -> TopoResult:
    nodes = {
        p.node_id: TopoNode(p.node_id, p.offset, scenario.spec, scenario.seed)
        for p in scenario.nodes
    }
    sink = TopoSink(scenario.spec)
    t = scenario.spec.charge_slots
    # in passes of (t+1)(t+2) slots: the sink's, then every node's own
    # run, as if each waited for the last: its relay wait, lead pass and
    # echo, its retry passes (coin runs make one about two passes long)
    # and its farewells (cooldown, randomized pass, verify window), each
    # of which can wait out its neighbors' quiet requirements
    node_passes = 3 + 2 * QUIET_PASSES + 6 * FAREWELL_PASSES
    max_slots = (1 + len(scenario.nodes) * node_passes) * (t + 1) * (t + 2)
    engine = Engine(scenario, nodes, sink, trace=trace)
    run = engine.run(max_slots)
    topo_time = max((n.last_update for n in nodes.values()), default=-1)
    return TopoResult(
        hops={nid: n.hop for nid, n in nodes.items()},
        next_hops={nid: n.next_hop for nid, n in nodes.items()},
        known_lower={nid: n.known_lower for nid, n in nodes.items()},
        topo_time=topo_time,
        converged_at=run.last_slot if run.converged else None,
        passes={nid: n._pass_no for nid, n in nodes.items()},
        run=run,
    )


def bfs_hops(scenario: Scenario) -> dict:
    """Reference least-hop counts over the disk graph, sink at hop 0;
    `NO_HOP` for a node the sink cannot reach.

    A level-by-level BFS over a `DiskGrid` of the nodes, which builds no
    neighbor sets: a found node tests only the nodes still unfound in
    the 3x3 cells around it, and leaves its cell when it is found.  A
    field the sink does not reach costs only the sink's component.
    """
    grid = DiskGrid([(p.node_id, (p.x, p.y)) for p in scenario.nodes],
                    scenario.range_m)
    hops = {p.node_id: NO_HOP for p in scenario.nodes}
    frontier = [scenario.sink_xy]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for xy in frontier:
            for nid, found_xy in grid.near(xy, take=True):
                hops[nid] = level
                nxt.append(found_xy)
        frontier = nxt
    return hops


def verify_least_hop(result: TopoResult, scenario: Scenario) -> list:
    """Return human-readable discrepancies against the reference hops."""
    want = bfs_hops(scenario)
    near = scenario.neighbors()
    problems = []
    for nid, hop in result.hops.items():
        if hop != want[nid]:
            problems.append(f"node {nid}: hop {hop} != least {want[nid]}")
            continue
        if hop == NO_HOP:
            continue
        parent = result.next_hops[nid]
        if parent is None:
            problems.append(f"node {nid}: no next hop")
            continue
        if parent not in near[nid]:
            problems.append(f"node {nid}: next hop {parent} out of range")
            continue
        parent_hop = 0 if parent == SINK else result.hops.get(parent, NO_HOP)
        if parent_hop != hop - 1:
            problems.append(
                f"node {nid}: next hop {parent} has hop {parent_hop}, want {hop - 1}"
            )
    return problems
