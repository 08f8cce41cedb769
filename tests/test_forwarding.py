"""Forwarding checks: swing arithmetic, the scan/send state machine
driven slot by slot against hand-computed traces, receiver locking, and
end-to-end runs on small lines."""

from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from alignment import alignment_cycles, delay_offset

from icroute import forwarding
from icroute.baselines import (
    STRATEGIES,
    FixedHopPolicy,
    RandomHopPolicy,
    build_policies,
)
from icroute.core import (
    SINK,
    AckFrame,
    ChargingSpec,
    DataFrame,
    NodePlacement,
    Scenario,
)
from icroute.engine import Countdown
from icroute.experiments import ExperimentConfig, generate_scenario
from icroute.forwarding import (
    CachedPolicy,
    ForwardNode,
    ForwardSink,
    failure_recovery_wait,
    run_forwarding,
    swing_back,
)
from icroute.topology import build_topology

SWING_T = range(1, 9)
PEER = 99  # stand-in id for whoever acks in bench tests


def make_spec(t):
    return ChargingSpec(charge_slots=t)


def make_node(t=5, offset=2, hop=2, rounds=0):
    spec = make_spec(t)
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=offset)
    return ForwardNode(placement, spec, CachedPolicy(),
                       hop=hop, rounds=rounds)


def drive(node, until, ack_slots=()):
    """Step a lone node wake by wake, acking at the chosen slots.

    Returns the transmitted frames as (slot, frame) pairs.
    """
    sent = []
    while node.next_wake is not None and node.next_wake <= until:
        slot = node.next_wake
        frame = node.poll(slot)
        if frame is not None:
            sent.append((slot, frame))
            if ack_slots == "all" or slot in ack_slots:
                node.on_ack(slot, AckFrame(src=PEER, ack_dst=node.id))
        node.finish(slot)
    return sent


def assert_parked(node):
    """An idle receiver with every reading made listens at base and
    never wakes on its own."""
    assert node.listen_offset == node.base
    assert node.next_wake is None


def data_frame(src=7, src_hop=3, dst=None, origin=7, seq=0, created_at=0,
               is_start=False, is_end=False, path=(7,)):
    return DataFrame(src=src, dst=dst, src_hop=src_hop, origin=origin,
                     seq=seq, created_at=created_at, is_start=is_start,
                     is_end=is_end, path=path)


# -- swing arithmetic ------------------------------------------------------


def test_swing_forth_then_back_is_identity():
    for t in SWING_T:
        spec = make_spec(t)
        for base in range(t + 1):
            # a rescan can swing more than a cycle forth before it swings back
            for amount in range(2 * spec.cycle + 1):
                forth = delay_offset(base, spec, amount)
                back = swing_back(amount, spec)
                assert 0 <= back < spec.cycle
                assert delay_offset(forth, spec, back) == base


def test_swing_rejects_bad_inputs():
    with pytest.raises(ValueError):
        swing_back(-1, make_spec(5))


def test_failure_recovery_wait_values(monkeypatch):
    assert failure_recovery_wait(make_spec(50)) == 867
    # read at call time: one queued message plus one cycle
    monkeypatch.setattr(forwarding, "QUEUE_CAP", 1)
    assert failure_recovery_wait(make_spec(50)) == 102


# -- sender state machine, bench-driven ------------------------------------


def two_message_sender():
    """A node at offset 2, t=5, that enters the sender role at slot 2
    with two queued messages, seq 0 and 1."""
    node = make_node()
    node.queue.extend(data_frame(src=1, src_hop=2, origin=1, seq=seq,
                                 created_at=2, path=(1,))
                      for seq in range(2))
    node.finish(2)
    assert node.state == "scan"
    return node


def test_scan_attempt_slots_walk_one_ahead_each_cycle():
    # offset 2, t=5: sender entry at slot 2, attempts at 9, 16, 23, ...
    node = two_message_sender()
    sent = drive(node, until=22)
    assert [s for s, _ in sent] == [9, 16]
    assert node.offset_forth == 2
    assert swing_back(node.offset_forth, node.spec) == 4


def test_match_at_third_attempt_sends_batch_on_consecutive_cycles():
    # two queued messages, ack arrives at the third attempt (slot 23):
    # the matched frame and its successor go out one cycle apart on the
    # swung offset, first opening and last closing the batch
    node = two_message_sender()
    sent = drive(node, until=34, ack_slots={23, 29})
    slots = [s for s, _ in sent]
    assert slots == [9, 16, 23, 29]
    assert all(s % 6 == 5 for s in slots[2:])  # swung offset 2+3
    assert node.matched and node.offset_cache == 3 and node.next_hop == PEER
    opening = [f.is_start for _, f in sent]
    closing = [f.is_end for _, f in sent]
    assert opening == [True, True, True, False]  # every unmatched try reopens
    assert closing == [False, False, False, True]
    # push-back rotates the queue, so the second attempt carries seq 1
    assert [f.seq for _, f in sent] == [0, 1, 0, 1]


def test_batch_done_swings_back_to_base_offset():
    node = two_message_sender()
    # the batch closes at 29; its empty-queue wake at 35 swings back
    drive(node, until=35, ack_slots={23, 29})
    assert node.state == "recv"
    assert node.next_wake % 6 == 2
    assert not node.queue
    # idle on base with every reading made: parked for good
    drive(node, until=node.next_wake)
    assert_parked(node)


def test_pendulum_identity_for_every_match_position():
    for t in range(2, 7):
        cycle = t + 1
        for base in range(t + 1):
            for attempt in range(1, cycle + 1):
                node = make_node(t=t, offset=base, rounds=1)
                ack_slot = base + attempt * (cycle + 1)
                # stop short of the wake that lands back on base
                sent = drive(node, until=ack_slot + 2 * cycle - 1,
                             ack_slots={ack_slot})
                assert (ack_slot, ) in [(s,) for s, _ in sent]
                # the scan tries one slot late, then one more per cycle:
                # the acked attempt is the one the alignment math names
                assert len(node.scan_attempt_slots) == 1 + alignment_cycles(
                    delay_offset(base, node.spec), ack_slot % cycle, node.spec)
                assert node.matched
                assert node.offset_cache == attempt % cycle
                assert node.state == "recv"
                assert node.next_wake % cycle == base % cycle
                drive(node, until=node.next_wake)
                assert_parked(node)


def test_exhausted_scan_covers_every_offset_then_rests_at_base():
    node = make_node(rounds=1)
    sent = drive(node, until=2 + 12 * 7)
    first_session = [s for s, _ in sent][:6]
    assert len(first_session) == 6
    assert sorted(s % 6 for s in first_session) == [0, 1, 2, 3, 4, 5]
    # unanswered, the node re-enters the scan on the next wake cycle
    assert len(sent) > 6


def test_cached_offset_reused_without_rescan():
    node = make_node(rounds=2)
    # first batch: seq 0 alone, matched at the first attempt (slot 9)
    sent = drive(node, until=40, ack_slots="all")
    assert node.matched and node.offset_cache == 1
    # exactly one scan attempt ever: the later batch jumped straight to
    # the cached offset
    assert node.scan_attempt_slots == [9]
    resend = [s for s, f in sent if f.seq == 1]
    assert all(s % 6 == 3 for s in resend)


def test_generation_during_send_reopens_batch_after_closed_one():
    # rounds land mid-session: each frame is acked, so each closes its
    # batch and the next generated message opens a fresh one
    node = make_node(t=2, offset=0, hop=1, rounds=3)
    sent = drive(node, until=12, ack_slots="all")
    assert [(s, f.seq) for s, f in sent] == [(4, 0), (7, 1), (10, 2)]
    assert all(f.is_start and f.is_end for _, f in sent)


def test_matched_failure_holds_then_rescans(monkeypatch):
    t = 5
    monkeypatch.setattr(forwarding, "QUEUE_CAP", 3)  # hold (3 + 1) cycles
    node = make_node(t=t, rounds=2)
    sent = drive(node, until=9, ack_slots={9})
    assert node.matched
    # next hop dies: six straight misses trip the failure at slot 45
    sent = drive(node, until=45)
    assert [s for s, _ in sent] == [15, 21, 27, 33, 39, 45]
    assert node.failures == 1
    wait = failure_recovery_wait(node.spec)
    assert wait == 24
    assert node.state == "recv" and node._hold_until == 45 + wait
    assert not node.matched
    # silent for the whole hold, then the scan starts over from base
    sent = drive(node, until=45 + wait + 40)
    assert sent and sent[0][0] == 81
    assert sent[0][0] in node.scan_attempt_slots
    assert sent[0][0] % 6 == 3  # base 2 plus one, a fresh first attempt


@settings(derandomize=True, deadline=None, max_examples=300)
@given(t=st.integers(1, 8), base=st.integers(0, 8), rounds=st.integers(1, 4),
       fixed=st.booleans(), acks=st.lists(st.booleans(), max_size=40))
def test_sender_wakes_follow_the_pendulum(t, base, rounds, fixed, acks):
    # a lone sender, its i-th frame acked iff acks[i]: a scan steps one
    # slot per miss, a matched session stays on base + offset_cache,
    # every way back to listening lands on base, and an idle receiver
    # with every reading made parks there
    spec = make_spec(t)
    cycle = spec.cycle
    base %= cycle
    policy = FixedHopPolicy(PEER) if fixed else CachedPolicy()
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=base)
    node = ForwardNode(placement, spec, policy, hop=2, rounds=rounds)
    frames = 0
    last = {}  # state -> slot of its previous wake in the current session
    while node.next_wake is not None and node.next_wake <= base + 200 * cycle:
        slot, state = node.next_wake, node.state
        if state in last:
            gap = slot - last[state]
            assert gap == (cycle + 1 if state == "scan" else cycle), (state, gap)
        if state == "send":
            assert slot % cycle == (base + node.offset_cache) % cycle
        frame = node.poll(slot)
        if state == "scan":
            assert frame is not None  # a scan always has a message to try
        # a continuous-sync sender rescans after every acked frame, so it
        # never sends from `send` and never fails a matched next hop
        assert frame is None or not fixed or state != "send"
        if frame is not None:
            if frames < len(acks) and acks[frames]:
                node.on_ack(slot, AckFrame(src=PEER, ack_dst=node.id))
            frames += 1
        node.finish(slot)
        idle = (node.id_match is None and not node.queue
                and node.generated == rounds)
        if state == "recv" and node.state == "recv" and idle:
            assert_parked(node)
        else:
            assert node.listen_offset is None
        last = {node.state: slot} if node.state == state else {}
        if state in ("scan", "send") and node.state == "recv":
            assert node.next_wake % cycle == base


# -- records built on the hot path, field by field --------------------------
# Each record is built positionally, and the fields below hold differing
# values, so a swapped argument fails here, named by field.


def test_scan_attempt_and_matched_send_frames_field_by_field():
    node = make_node(t=5, offset=2, hop=2)
    node.queue.extend([
        data_frame(src=1, src_hop=2, origin=7, seq=3, created_at=40,
                   path=(7, 5)),
        data_frame(src=1, src_hop=2, origin=8, seq=4, created_at=41,
                   path=(8, 6))])
    node.finish(2)
    assert node.state == "scan"
    frame = node.poll(node.next_wake)
    assert asdict(frame) == {
        "src": 1, "dst": None, "src_hop": 2, "origin": 7, "seq": 3,
        "created_at": 40, "is_start": True, "is_end": False, "path": (7, 5),
    }
    node.on_ack(node.next_wake, AckFrame(src=55, ack_dst=1))
    node.finish(node.next_wake)
    # the ack matched 55: the batch's closing frame is addressed to it
    assert node.state == "send"
    frame = node.poll(node.next_wake)
    assert asdict(frame) == {
        "src": 1, "dst": 55, "src_hop": 2, "origin": 8, "seq": 4,
        "created_at": 41, "is_start": False, "is_end": True, "path": (8, 6),
    }


def test_queued_messages_and_acks_field_by_field():
    # a queue entry is a frame its holder built: the holder's id and hop,
    # addressed to nobody, outside any batch; every field of the heard
    # frame that the entry does not carry differs from the entry's
    node = make_node(hop=2)
    heard = data_frame(src=7, src_hop=3, dst=1, origin=8, seq=4,
                       created_at=40, is_start=True, is_end=True,
                       path=(8, 7))
    assert asdict(node.on_data(50, heard)) == {"src": 1, "ack_dst": 7}
    assert asdict(node.queue[-1]) == {
        "src": 1, "dst": None, "src_hop": 2, "origin": 8, "seq": 4,
        "created_at": 40, "is_start": False, "is_end": False,
        "path": (8, 7, 1)}
    # readings: origin 1, seqs 0-2, due at base 2 plus one cycle per seq
    reader = make_node(t=5, offset=2, hop=7, rounds=3)
    reader._generate(14)
    assert [asdict(m) for m in reader.queue] == [
        {"src": 1, "dst": None, "src_hop": 7, "origin": 1, "seq": seq,
         "created_at": 2 + 6 * seq, "is_start": False, "is_end": False,
         "path": (1,)}
        for seq in range(3)]


def test_sink_delivery_and_ack_field_by_field():
    pending = Countdown(1)
    sink = ForwardSink(pending)
    heard = data_frame(src=7, src_hop=1, dst=SINK, origin=8, seq=4,
                       created_at=40, is_end=True, path=(8, 7))
    assert asdict(sink.on_data(50, heard)) == {"src": SINK, "ack_dst": 7}
    assert asdict(sink.deliveries[0]) == {
        "origin": 8, "seq": 4, "created_at": 40, "delivered_at": 50,
        "hops": 2, "path": (8, 7)}
    assert pending.value == 0


# -- a retried frame is sent again while its addressing holds ---------------
# A queue entry is a frame its holder built, and a missed frame goes back
# to the tail as it was sent; `poll` sends the head as it is only when
# dst, is_start and is_end are what a fresh build would carry.  Each case
# below moves exactly the field it names, where the protocol allows
# that, so dropping any one comparison fails one.


def step(node, ack=None):
    """Poll the node at its next wake, ack from `ack` if given, finish."""
    slot = node.next_wake
    frame = node.poll(slot)
    if frame is not None and ack is not None:
        node.on_ack(slot, AckFrame(src=ack, ack_dst=node.id))
    node.finish(slot)
    return frame


def queued(node, count):
    frames = [data_frame(src=node.id, src_hop=node.hop, origin=node.id,
                         seq=seq, created_at=0, path=(node.id,))
              for seq in range(count)]
    node.queue.extend(frames)
    return frames


def addressing(frame):
    return frame.src, frame.dst, frame.is_start, frame.is_end


def put_back(node, frame):
    """Whether a missed `frame` went back to the tail of the queue."""
    return node.queue[-1] is frame


def test_scan_to_send_rebuilds_a_retried_frame_for_its_new_target():
    node = make_node()
    m0, _, _ = queued(node, 3)
    node.finish(2)
    missed = step(node)  # m0 goes out to whoever answers, unacked
    assert missed is not m0 and put_back(node, missed)
    assert addressing(missed) == (1, None, True, False)
    step(node, ack=55)  # m1: the ack matches 55, and the batch is open
    assert node.state == "send"
    first_try = step(node)  # m2, unacked
    again = step(node)  # m0 again, now to 55 and mid-batch
    assert again is not missed and put_back(node, again)
    assert asdict(again) == {
        "src": 1, "dst": 55, "src_hop": 2, "origin": 1, "seq": 0,
        "created_at": 0, "is_start": False, "is_end": False, "path": (1,)}
    # unmoved addressing: m2's retry is the very frame it first went in
    assert step(node) is first_try


def test_last_queued_message_rebuilds_for_is_end():
    # a realigning node with a fixed target rescans after each ack and
    # opens a new batch, so only the queue's length moves between tries
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=2)
    node = ForwardNode(placement, make_spec(5), FixedHopPolicy(PEER),
                       hop=2, rounds=0)
    queued(node, 2)
    node.finish(2)
    missed = step(node)
    assert addressing(missed) == (1, PEER, True, False)
    step(node, ack=PEER)  # m1 acked: rescan with m0 alone queued
    last = step(node)
    assert last is not missed and put_back(node, last)
    assert addressing(last) == (1, PEER, True, True)


def test_a_reading_made_behind_a_lone_message_rebuilds_for_is_end():
    # offset 2, t=5: reading 0 at slot 2 and reading 1 at slot 8, which
    # `finish` at the first attempt (slot 9) queues behind reading 0
    node = make_node(rounds=2)
    node.finish(2)
    alone = step(node)
    assert addressing(alone) == (1, None, True, True)
    assert put_back(node, alone)
    step(node)  # reading 1, unacked
    behind = step(node)
    assert behind is not alone and put_back(node, behind)
    assert addressing(behind) == (1, None, True, False)


def test_first_ack_of_a_batch_rebuilds_for_is_start():
    node = make_node()
    queued(node, 1)
    node.finish(2)
    step(node, ack=55)  # the lone message closes its batch, acked
    # a new batch after an acked closing frame opens with is_start
    queued(node, 3)
    opening = step(node)  # m0, unacked
    assert addressing(opening) == (1, 55, True, False)
    step(node, ack=55)  # m1: the batch is now acked
    step(node)  # m2, unacked
    again = step(node)
    assert again is not opening and put_back(node, again)
    assert addressing(again) == (1, 55, False, False)


class TakeTurns:
    """Stand-in rng for `RandomHopPolicy`: draws the candidates in turn."""

    def __init__(self):
        self.draws = 0

    def choice(self, candidates):
        self.draws += 1
        return candidates[(self.draws - 1) % len(candidates)]


def test_realigning_rescan_rebuilds_for_its_new_target():
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=2)
    node = ForwardNode(placement, make_spec(5),
                       RandomHopPolicy([5, 6], TakeTurns()), hop=2, rounds=0)
    queued(node, 3)
    node.finish(2)
    missed = step(node)
    assert addressing(missed) == (1, 5, True, False)
    step(node, ack=5)  # m1 acked: rescan, drawing 6
    step(node)  # m2, unacked
    again = step(node)
    assert again is not missed and put_back(node, again)
    assert addressing(again) == (1, 6, True, False)


def fresh_frame(node):
    """A fresh build of the frame the node sends now: the head of its
    queue, addressed from the node's state."""
    head = node.queue[0]
    dst = node.next_hop if node.state == "send" else node.scan_target
    return DataFrame(node.id, dst, node.hop, head.origin, head.seq,
                     head.created_at, not node._batch_acked,
                     len(node.queue) == 1, head.path)


# the golden grid's points up to t=50, its 10-round busy point included
KEPT_FRAME_GRID = [("square", 50, 5, 1), ("rectangle", 50, 5, 1),
                   ("square", 50, 50, 1), ("rectangle", 50, 50, 1),
                   ("square", 100, 5, 1), ("rectangle", 100, 5, 1),
                   ("square", 100, 5, 10)]


def test_every_sent_frame_matches_a_fresh_build(monkeypatch):
    poll = ForwardNode.poll
    tally = Counter()
    strategy = [None]
    sent = {}  # id -> frame, for every frame sent in the current run

    def checked(node, slot):
        sending = node.state in ("scan", "send") and bool(node.queue)
        if sending:
            want, head = fresh_frame(node), node.queue[0]
            retry = id(head) in sent
        frame = poll(node, slot)
        if sending:
            # a dataclass's == compares the fields as asdict lists them
            assert frame == want, (strategy[0], slot, asdict(frame), asdict(want))
            sent[id(frame)] = frame
            tally[strategy[0], "sent"] += 1
            if retry:
                tally[strategy[0], "resent" if frame is head else "rebuilt"] += 1
        else:
            assert frame is None
        return frame

    monkeypatch.setattr(ForwardNode, "poll", checked)
    for shape, n, t, rounds in KEPT_FRAME_GRID:
        scenario = generate_scenario(ExperimentConfig(
            shape=shape, n_nodes=n, t=t, seed=11))
        topo = build_topology(scenario)
        for strategy[0] in STRATEGIES:
            sent.clear()
            run_forwarding(scenario, topo.hops, rounds=rounds,
                           policies=build_policies(strategy[0], scenario, topo))
    for name in STRATEGIES:
        # both branches run under every strategy
        assert tally[name, "resent"] > 0 and tally[name, "rebuilt"] > 0, name
    # most sends repeat a frame
    assert sum(tally[name, "resent"] for name in STRATEGIES) * 2 > sum(
        tally[name, "sent"] for name in STRATEGIES)


# -- receiver rules --------------------------------------------------------


def test_receiver_acks_and_locks_on_marked_start():
    node = make_node()
    ack = node.on_data(10, data_frame(is_start=True))
    assert isinstance(ack, AckFrame) and ack.ack_dst == 7
    assert node.id_match == 7
    assert len(node.queue) == 1
    assert node.queue[0].path == (7, 1)


def test_receiver_ignores_uphill_and_sideways_traffic():
    node = make_node(hop=3)
    assert node.on_data(10, data_frame(src_hop=3)) is None
    assert node.on_data(10, data_frame(src_hop=2)) is None
    assert not node.queue


def test_locked_receiver_ignores_third_parties_entirely():
    node = make_node()
    node.on_data(10, data_frame(is_start=True))
    other = data_frame(src=8, origin=8, path=(8,))
    assert node.on_data(16, other) is None
    # even a frame naming us directly gets no ack while the lock holds
    directed = data_frame(src=8, origin=8, seq=1, dst=1, path=(8,))
    assert node.on_data(22, directed) is None
    assert len(node.queue) == 1
    assert node.id_match == 7
    # once the locked batch closes, the same sender is welcome again
    closing = data_frame(seq=1, dst=1, is_end=True)
    assert isinstance(node.on_data(28, closing), AckFrame)
    assert node.id_match is None
    assert isinstance(node.on_data(34, directed), AckFrame)
    assert len(node.queue) == 3


def test_duplicate_frame_reacked_but_not_requeued():
    node = make_node()
    node.on_data(10, data_frame(is_start=True))
    again = node.on_data(16, data_frame(is_start=True))
    assert isinstance(again, AckFrame)
    assert len(node.queue) == 1


def test_full_queue_drops_without_ack(monkeypatch):
    monkeypatch.setattr(forwarding, "QUEUE_CAP", 2)
    node = make_node()
    node.on_data(10, data_frame(seq=0, is_start=True))
    node.on_data(16, data_frame(seq=1, dst=1))
    assert node.on_data(22, data_frame(seq=2, dst=1)) is None
    assert node.dropped_full == 1
    assert len(node.queue) == 2


def test_sender_naming_someone_else_breaks_stale_lock():
    node = make_node()
    node.on_data(10, data_frame(is_start=True))
    assert node.id_match == 7
    moved_on = data_frame(seq=1, dst=42)
    assert node.on_data(16, moved_on) is None
    assert node.id_match is None
    assert node.stale_breaks == 1
    # the acked copy stays ours to forward, and stays deduplicated
    assert [(m.origin, m.seq) for m in node.queue] == [(7, 0)]
    assert isinstance(node.on_data(22, data_frame(is_start=True)), AckFrame)
    assert len(node.queue) == 1


def test_closing_frame_unlocks_and_hands_over_sender_role():
    node = make_node()
    node.on_data(10, data_frame(seq=0, is_start=True))
    node.on_data(16, data_frame(seq=1, dst=1, is_end=True))
    assert node.id_match is None
    node.finish(20)
    assert node.state == "scan"


def test_silent_locked_sender_forces_exit_after_full_cycle():
    node = make_node()
    node.on_data(10, data_frame(is_start=True))
    slot = 14
    while node.state == "recv" and slot < 14 + 6 * 10:
        node.finish(slot)
        slot += node.cycle
    assert node.forced_exits == 1
    assert node.state == "scan"
    assert node.id_match is None


def failed_sender():
    """A node at offset 2, t=5, whose matched next hop went silent: the
    failure trips at slot 45, and it listens on base (56, 62, ...) until
    its hold ends at slot 147."""
    node = make_node(rounds=2)
    drive(node, until=9, ack_slots={9})
    drive(node, until=45)
    assert node.failures == 1 and node.state == "recv"
    assert node._hold_until == 45 + failure_recovery_wait(node.spec) == 147
    assert node.next_wake == 56
    return node


def listen_through(node, until, frames):
    """Wake a receiver up to `until`, hearing frames[slot] before it
    finishes that slot; every frame must be acked."""
    while node.next_wake <= until:
        slot = node.next_wake
        assert node.poll(slot) is None
        if slot in frames:
            assert isinstance(node.on_data(slot, frames[slot]), AckFrame)
        node.finish(slot)


def test_held_receiver_stays_locked_to_a_second_sender_past_its_hold():
    # inside the hold, sender 7 hands over a whole batch and unlocks us;
    # then sender 8 locks us.  When the hold ends the lock, not the
    # finished batch, decides: we stay a receiver for 8.
    node = failed_sender()
    listen_through(node, 146, {
        56: data_frame(src=7, seq=0, is_start=True),
        62: data_frame(src=7, seq=1, dst=1, is_end=True),
        146: data_frame(src=8, origin=8, is_start=True, path=(8,)),
    })
    listen_through(node, 152, {})  # first wake past the hold
    assert node.state == "recv" and node.id_match == 8
    assert node.next_wake == 158
    # 8's closing frame is acked and unlocks us, so we take the role
    listen_through(node, 158, {
        158: data_frame(src=8, origin=8, seq=1, dst=1, is_end=True, path=(8,))})
    assert node.id_match is None and node.state == "scan"
    # our seq 0 was acked at slot 9; seq 1 waited out the failure
    assert [(m.origin, m.seq) for m in node.queue] == [
        (1, 1), (7, 0), (7, 1), (8, 0), (8, 1)]


def test_silent_lock_taken_in_a_hold_is_forced_out_inside_it():
    # sender 7 locks us at wake 56 and says no more: that wake and the
    # next t+1 count the lock clock up past a cycle, so the lock is
    # forced out at wake 56 + 6 * 6 = 92, long before the hold ends
    node = failed_sender()
    listen_through(node, 86, {56: data_frame(src=7, is_start=True)})
    assert node.id_match == 7 and node.forced_exits == 0
    listen_through(node, 92, {})
    assert node.id_match is None and node.forced_exits == 1
    # still held: listen every cycle until the hold ends, then send
    listen_through(node, 146, {})
    assert node.state == "recv" and node.next_wake == 152
    listen_through(node, 152, {})
    assert node.state == "scan"


# -- end-to-end runs -------------------------------------------------------


def line_scenario(t=5, offsets=(2, 5, 1), spacing=8.0, seed=42):
    spec = make_spec(t)
    nodes = [NodePlacement(node_id=i, x=spacing * (i + 1), y=0.0, offset=o)
             for i, o in enumerate(offsets)]
    return Scenario(spec=spec, nodes=nodes, sink_xy=(0.0, 0.0),
                    range_m=spacing + 2.0, seed=seed)


def test_line_delivers_everything_once():
    sc = line_scenario()
    topo = build_topology(sc)
    res = run_forwarding(sc, topo.hops, rounds=2)
    assert res.run.converged
    assert res.created == 6
    assert res.delivered == 6
    assert res.undelivered == 0
    keys = [(d.origin, d.seq) for d in res.deliveries]
    assert len(keys) == len(set(keys))


def test_cut_off_node_does_not_hold_up_forwarding():
    # node 1 is out of everyone's range, so mapping leaves it without a
    # hop and no one ever takes its frames: the run ends when node 0's
    # reading arrives, and node 1's reading is reported undelivered
    spec = make_spec(2)
    nodes = [NodePlacement(0, 8.0, 0.0, 1), NodePlacement(1, 60.0, 0.0, 2)]
    sc = Scenario(spec=spec, nodes=nodes, sink_xy=(0.0, 0.0), range_m=10.0,
                  seed=5)
    topo = build_topology(sc)
    assert topo.unreachable == {1}
    res = run_forwarding(sc, topo.hops, rounds=1)
    assert res.run.converged and res.run.last_slot == 5
    assert [d.origin for d in res.deliveries] == [0]
    assert res.generated_per_node == {0: 1, 1: 1}
    assert res.undelivered == 1


def test_line_paths_match_hop_counts():
    sc = line_scenario()
    topo = build_topology(sc)
    res = run_forwarding(sc, topo.hops, rounds=1)
    for d in res.deliveries:
        assert d.path[0] == d.origin
        assert len(d.path) == d.hops == topo.hops[d.origin]
        assert len(set(d.path)) == len(d.path)


def test_latency_counts_from_scheduled_creation():
    sc = line_scenario()
    topo = build_topology(sc)
    res = run_forwarding(sc, topo.hops, rounds=1)
    for d in res.deliveries:
        lat = d.delivered_at - d.created_at
        assert lat >= d.hops  # at least one slot per hop
        assert lat == res.latencies[res.deliveries.index(d)]


def test_forwarding_runs_are_deterministic():
    sc = line_scenario(offsets=(3, 0, 4, 2), seed=9)
    topo = build_topology(sc)
    first = run_forwarding(sc, topo.hops, rounds=2)
    second = run_forwarding(sc, topo.hops, rounds=2)
    assert first.deliveries == second.deliveries
    assert first.run.last_slot == second.run.last_slot
    assert first.scan_attempts == second.scan_attempts


def test_colocated_relays_resolve_race_without_duplicates():
    # two relays at the same spot and offset both answer the far node's
    # search; the loser must notice and quietly drop its copy
    spec = make_spec(5)
    nodes = [
        NodePlacement(node_id=0, x=8.0, y=0.0, offset=2),
        NodePlacement(node_id=1, x=8.0, y=0.0, offset=2),
        NodePlacement(node_id=2, x=16.0, y=0.0, offset=5),
    ]
    sc = Scenario(spec=spec, nodes=nodes, sink_xy=(0.0, 0.0), range_m=10.0,
                  seed=3)
    topo = build_topology(sc)
    assert topo.hops == {0: 1, 1: 1, 2: 2}
    res = run_forwarding(sc, topo.hops, rounds=1)
    assert res.delivered == res.created == 3
    keys = [(d.origin, d.seq) for d in res.deliveries]
    assert len(keys) == len(set(keys))


def test_single_node_next_to_sink_latency_is_t_plus_two():
    for t in (2, 5, 8):
        for offset in range(0, t + 1, 2):
            spec = make_spec(t)
            nodes = [NodePlacement(node_id=0, x=1.0, y=0.0, offset=offset)]
            sc = Scenario(spec=spec, nodes=nodes, sink_xy=(0.0, 0.0),
                          range_m=2.0, seed=1)
            res = run_forwarding(sc, {0: 1}, rounds=1)
            assert res.delivered == 1
            d = res.deliveries[0]
            assert d.created_at == offset
            assert d.delivered_at - d.created_at == t + 2


def test_sink_ignores_a_handoff_it_overhears(monkeypatch):
    # node 1 sits in the sink's range, but its hand-built hop of 2 and a
    # fixed next hop make it address node 0; the sink hears every such
    # frame and must neither ack nor deliver nor count it
    spec = make_spec(3)
    nodes = [NodePlacement(node_id=0, x=5.0, y=0.0, offset=1),
             NodePlacement(node_id=1, x=9.0, y=0.0, offset=3)]
    sc = Scenario(spec=spec, nodes=nodes, sink_xy=(0.0, 0.0), range_m=10.0,
                  seed=2)
    handoffs = []
    on_data = ForwardSink.on_data

    def spy(sink, slot, frame):
        before = (sink.pending.value, sink.duplicates, len(sink.deliveries))
        ack = on_data(sink, slot, frame)
        if frame.dst not in (None, SINK):
            after = (sink.pending.value, sink.duplicates, len(sink.deliveries))
            handoffs.append((frame.dst, ack, before == after))
        return ack

    monkeypatch.setattr(ForwardSink, "on_data", spy)
    res = run_forwarding(sc, {0: 1, 1: 2}, rounds=2,
                         policies={1: FixedHopPolicy(0)})
    assert handoffs and set(handoffs) == {(0, None, True)}
    assert res.run.converged and res.duplicates == 0
    assert sorted((d.origin, d.seq, d.path) for d in res.deliveries) == [
        (0, 0, (0,)), (0, 1, (0,)), (1, 0, (1, 0)), (1, 1, (1, 0))]
