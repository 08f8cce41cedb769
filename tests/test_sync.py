"""Alignment scan behavior against brute-force oracles, and the
reference math of `alignment` against the same oracles."""

import random
from statistics import fmean

import pytest

from alignment import (
    alignment_cycles,
    closed_form_latency,
    delay_offset,
    sample_latencies,
)

from icroute.core import AckFrame, ChargingSpec, NodePlacement
from icroute.experiments import expected_scan_latency
from icroute.forwarding import CachedPolicy, ForwardNode

EXHAUSTIVE_T = range(1, 51)
SLOT_WALK_T = range(1, 13)  # small enough for the slot-by-slot oracle


def walk_cycles(o_s, o_r, spec):
    """Oracle: advance the sender's offset one slot per cycle until it
    lands on the receiver's."""
    offset = o_s
    for k in range(spec.cycle + 1):
        if offset == o_r:
            return k * spec.cycle + o_r
        offset = (offset + 1) % spec.cycle
    raise AssertionError("scan failed to align within a full cycle of cycles")


def walk_slots(o_s, o_r, spec):
    """Slower oracle: scan the raw slot grid for the first slot where
    both nodes are working."""
    cycle = spec.cycle
    for s in range(cycle * cycle + cycle):
        k, within = divmod(s, cycle)
        if within == (o_s + k) % cycle and within == o_r:
            return s
    raise AssertionError("no shared working slot found")


def test_delay_offset_wraps():
    spec = ChargingSpec(4)
    assert delay_offset(2, spec, 0) == 2
    assert delay_offset(2, spec, 1) == 3
    assert delay_offset(4, spec, 1) == 0
    assert delay_offset(0, spec, 5) == 0


def test_delay_offset_never_advances():
    spec = ChargingSpec(4)
    with pytest.raises(ValueError):
        delay_offset(2, spec, -1)


def test_delay_covers_all_offsets():
    # delaying 0..t from a fixed offset reaches every offset exactly once
    spec = ChargingSpec(9)
    seen = {delay_offset(3, spec, d) for d in range(10)}
    assert seen == set(range(10))


def test_closed_form_matches_cycle_walk_exhaustively():
    for t in EXHAUSTIVE_T:
        spec = ChargingSpec(t)
        for o_s in range(t + 1):
            for o_r in range(t + 1):
                assert closed_form_latency(o_s, o_r, spec) == walk_cycles(o_s, o_r, spec)


def test_closed_form_matches_slot_walk():
    for t in SLOT_WALK_T:
        spec = ChargingSpec(t)
        for o_s in range(t + 1):
            for o_r in range(t + 1):
                assert closed_form_latency(o_s, o_r, spec) == walk_slots(o_s, o_r, spec)


def test_known_latencies():
    spec = ChargingSpec(5)
    assert closed_form_latency(0, 3, spec) == 21
    assert closed_form_latency(4, 4, spec) == 4
    assert walk_slots(0, 3, spec) == 21
    assert walk_slots(4, 4, spec) == 4


def test_alignment_never_needs_more_than_t_cycles():
    for t in EXHAUSTIVE_T:
        spec = ChargingSpec(t)
        for o_s in range(t + 1):
            for o_r in range(t + 1):
                d = alignment_cycles(o_s, o_r, spec)
                assert 0 <= d <= t
                assert closed_form_latency(o_s, o_r, spec) == d * spec.cycle + o_r


def test_latency_upper_bound():
    # worst case: d = t and o_r = t, one slot short of a full square
    for t in (1, 5, 50):
        spec = ChargingSpec(t)
        worst = max(
            closed_form_latency(o_s, o_r, spec)
            for o_s in range(t + 1)
            for o_r in range(t + 1)
        )
        assert worst == t * spec.cycle + t


def test_offset_validation():
    spec = ChargingSpec(5)
    with pytest.raises(ValueError):
        closed_form_latency(6, 0, spec)
    with pytest.raises(ValueError):
        closed_form_latency(0, -1, spec)


def lone_sender(t, offset):
    """A forwarding node with one message to send and a scan to run."""
    spec = ChargingSpec(t)
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=offset)
    return ForwardNode(placement, spec, CachedPolicy(), hop=1, rounds=1)


def run_scan(node, ack_attempt=None):
    """Wake the node until its first scan ends; ack the chosen attempt.

    Returns the scan's attempt slots.
    """
    while node.state != "scan":
        node.finish(node.next_wake)
    while node.state == "scan":
        slot = node.next_wake
        if node.poll(slot) is not None and node.offset_forth == ack_attempt:
            node.on_ack(slot, AckFrame(src=0, ack_dst=node.id))
        node.finish(slot)
    return node.scan_attempt_slots


def test_scan_state_walks_and_exhausts():
    node = lone_sender(t=5, offset=2)
    attempts = run_scan(node)
    assert [s % 6 for s in attempts] == [3, 4, 5, 0, 1, 2]
    assert [b - a for a, b in zip(attempts, attempts[1:])] == [7] * 5
    # unanswered after t+1 attempts: back to listening at the base offset
    assert node.state == "recv" and not node.matched
    assert node.next_wake % 6 == 2


def test_scan_state_covers_every_offset():
    for t in range(1, 9):
        for start in range(t + 1):
            node = lone_sender(t, start)
            attempts = run_scan(node)
            assert sorted(s % (t + 1) for s in attempts) == list(range(t + 1))
            assert node.next_wake % (t + 1) == start


def test_scan_match_freezes_state():
    node = lone_sender(t=5, offset=0)
    attempts = run_scan(node, ack_attempt=2)
    assert len(attempts) == 2
    assert node.matched and node.offset_cache == 2
    # the node stays on the matched offset for the next cycle
    assert node.next_wake == attempts[-1] + 6


def test_mean_latency_tracks_analytic():
    cases = {5: 17.5, 120: 7320.0, 500: 125500.0}
    for t, expect in cases.items():
        spec = ChargingSpec(t)
        assert expected_scan_latency(spec) == expect
        samples = sample_latencies(spec, 10_000, random.Random(7))
        assert abs(fmean(samples) - expect) / expect < 0.02
        assert max(samples) <= t * spec.cycle + t
