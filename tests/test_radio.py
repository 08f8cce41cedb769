import itertools
import math

from hypothesis import given, settings, strategies as st

from icroute.core import AckFrame, ChargingSpec, HopFrame, NodePlacement, SINK, Scenario
from icroute.radio import (
    COLLISION,
    MICRO_SLOTS,
    EventTrace,
    derive_rng_stream,
    resolve_slot,
)

POS = {SINK: (0.0, 0.0), 0: (6.0, 0.0), 1: (0.0, 8.0), 2: (6.0, 8.0)}
# 6-8-10 triangle: node 2 is 10m from the sink, 8m from node 0, 6m from node 1


def scenario(pos, range_m):
    nodes = [NodePlacement(nid, x, y, 0) for nid, (x, y) in pos.items()
             if nid != SINK]
    return Scenario(ChargingSpec(1), nodes, sink_xy=pos[SINK], range_m=range_m)


def graph(range_m):
    """The disk graph over POS at `range_m`."""
    return scenario(POS, range_m).neighbors()


def frame(src, hop=0):
    return HopFrame(src=src, hop=hop, round_no=0)


def test_neighbors_are_boundary_inclusive():
    assert 2 in graph(10.0)[SINK]
    assert 2 not in graph(9.999)[SINK]


def test_neighbors_are_symmetric_loop_free_and_keyed_by_sink():
    for range_m in (5.0, 6.0, 8.0, 9.999, 10.0, 50.0):
        near = graph(range_m)
        assert set(near) == set(POS)  # the sink is keyed by SINK
        for a, ids in near.items():
            assert a not in ids
            for b in ids:
                assert a in near[b]
    assert graph(8.0) == {SINK: {0, 1}, 0: {SINK, 2}, 1: {SINK, 2}, 2: {0, 1}}


def test_single_transmitter_reaches_in_range_listeners():
    out = resolve_slot([(frame(2), 5)], [SINK, 0, 1], graph(8.0))
    assert SINK not in out  # 10m away, out of range
    assert out[0].src == 2
    assert out[1].src == 2


def test_equal_jitter_collides():
    txs = [(frame(0), 3), (frame(1), 3)]
    out = resolve_slot(txs, [2], graph(50.0))
    assert out[2] is COLLISION


def test_smaller_jitter_wins_capture():
    txs = [(frame(0), 2), (frame(1), 9)]
    out = resolve_slot(txs, [2], graph(50.0))
    assert out[2].src == 0


def test_capture_is_local_to_each_listener():
    # Node 1 is 10m from src 0 and 6m from src 2, the sink is the other way
    # around, so with both transmitting each listener decodes a different
    # frame in the same slot.
    txs = [(frame(0), 1), (frame(2), 4)]
    out = resolve_slot(txs, [SINK, 0, 1], graph(8.0))
    assert out[1].src == 2
    assert out[SINK].src == 0
    assert 0 not in out  # half duplex: transmitters decode nothing


def test_transmitter_never_decodes_itself():
    out = resolve_slot([(frame(0), 0)], [0], graph(50.0))
    assert 0 not in out


def test_out_of_range_transmitters_do_not_jam():
    # the far transmitter has the smaller jitter but cannot reach the sink
    txs = [(frame(2), 0), (frame(1), 7)]
    out = resolve_slot(txs, [SINK], graph(8.0))
    assert out[SINK].src == 1


def test_unreached_listeners_are_skipped_in_listener_order():
    # nodes 0-7 on a line 5m apart, range 5m: each reaches only the nodes
    # next to it, and the sink is out of everyone's range.  Nodes 1 and 5
    # transmit; 5 is listed, 1 is not.  Listeners 3 and 7 are reached by
    # no transmitter, and node 0's one neighbor is the unlisted node 1.
    # The answer is compared as a mapping: its order is not promised.
    pos = {SINK: (0.0, 50.0), **{nid: (5.0 * nid, 0.0) for nid in range(8)}}
    txs = [(frame(5), 4), (frame(1), 2)]
    listeners = [7, 6, 3, 0, 5, SINK, 4, 2]
    out = resolve_slot(txs, listeners, scenario(pos, 5.0).neighbors())
    assert out == {6: txs[0][0], 0: txs[1][0], 4: txs[0][0], 2: txs[1][0]}


class Untouchable(dict):
    """A disk graph that fails any lookup."""

    def __getitem__(self, key):
        raise AssertionError(f"neighbors read for {key}")


def test_no_listeners_hear_nothing_and_read_no_neighbors():
    txs = [(frame(0), 2), (frame(1), 5)]
    assert resolve_slot(txs, (), Untouchable()) == {}
    assert resolve_slot(txs, [], Untouchable()) == {}


def test_resolution_is_permutation_invariant():
    txs = [(frame(0), 2), (frame(1), 5), (frame(2), 5)]
    near = graph(50.0)
    base = resolve_slot(txs, [SINK], near)
    for perm in itertools.permutations(txs):
        out = resolve_slot(list(perm), [SINK], near)
        assert out == base


def reference_resolve(transmissions, listeners, pos, range_m):
    """Arbitration written straight from the rule, with its own distance
    test: a listener that did not transmit decodes the in-range frame with
    the strictly smallest jitter, and a shared minimum is a collision; a
    listener that heard nothing gets no entry."""
    tx_ids = {f.src for f, _ in transmissions}
    out = {}
    for lid in listeners:
        heard = [(j, f) for f, j in transmissions
                 if math.dist(pos[f.src], pos[lid]) <= range_m]
        if lid in tx_ids or not heard:
            continue
        low = min(j for j, _ in heard)
        winners = [f for j, f in heard if j == low]
        out[lid] = winners[0] if len(winners) == 1 else COLLISION
    return out


# integer coordinates and ranges put many pairs exactly on the boundary
coords = st.integers(0, 40).map(float)
ranges = st.integers(1, 30).map(float) | st.floats(1.0, 30.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(coords, coords), min_size=2, max_size=15),
       st.data())
def test_graph_arbitration_matches_distance_reference(points, data):
    pos = {SINK: points[0], **dict(enumerate(points[1:]))}
    ids = sorted(pos)
    # a range taken from the sink's distances puts a pair on the boundary;
    # a node on top of the sink gives distance 0, which is no range
    range_m = data.draw(ranges | st.sampled_from(
        [math.dist(points[0], p) for p in points[1:]]).filter(lambda r: r > 0))
    senders = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    txs = [(frame(nid), data.draw(st.integers(0, MICRO_SLOTS - 1)))
           for nid in senders]
    # listeners may include transmitters, to exercise the half-duplex guard
    listeners = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    got = resolve_slot(txs, listeners, scenario(pos, range_m).neighbors())
    ref = reference_resolve(txs, listeners, pos, range_m)
    assert got == ref
    assert list(got) == list(ref)  # in listener order


def test_rng_streams_are_stable_and_distinct():
    a1 = derive_rng_stream(42, 7, "jitter")
    a2 = derive_rng_stream(42, 7, "jitter")
    b = derive_rng_stream(42, 8, "jitter")
    c = derive_rng_stream(42, 7, "scan")
    seq = [a1.randrange(1 << 30) for _ in range(8)]
    assert [a2.randrange(1 << 30) for _ in range(8)] == seq
    assert [b.randrange(1 << 30) for _ in range(8)] != seq
    assert [c.randrange(1 << 30) for _ in range(8)] != seq


def test_jitter_stream_is_roughly_uniform():
    from scipy import stats

    rng = derive_rng_stream(1, 0, "jitter")
    n = 16000
    counts = [0] * MICRO_SLOTS
    for _ in range(n):
        counts[rng.randrange(MICRO_SLOTS)] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_trace_orders_events_by_slot_phase_and_node():
    # slot 7 is handed over with its frames and decodes out of id order:
    # nodes 3 and 1 send, node 2 hears them collide, the sink and node 5
    # reply, and in the ack phase node 1 hears those replies collide;
    # slot 9 is a lone frame that nobody heard
    hop1, hop3 = frame(1), frame(3)
    ack5, ack_sink = AckFrame(src=5, ack_dst=1), AckFrame(src=SINK, ack_dst=3)
    trace = EventTrace()
    trace.record(7, [(hop3, 5), (hop1, 2)],
                 {5: hop1, 4: hop3, 2: COLLISION, SINK: hop3},
                 [(ack5, 3), (ack_sink, 3)],
                 {3: ack_sink, 2: ack_sink, 1: COLLISION})
    trace.record(9, [(frame(2), 0)])
    # each slot's frames sent, then each data-phase listener's decode and
    # its reply, then the ack phase's decodes, each in id order
    assert trace.ndjson().splitlines() == [
        '{"frame": "HopFrame", "kind": "tx", "node": 1, "slot": 7}',
        '{"frame": "HopFrame", "kind": "tx", "node": 3, "slot": 7}',
        '{"frame": "HopFrame", "kind": "rx", "node": -1, "slot": 7, "src": 3}',
        '{"frame": "AckFrame", "kind": "txr", "node": -1, "slot": 7}',
        '{"kind": "collision", "node": 2, "phase": "data", "slot": 7}',
        '{"frame": "HopFrame", "kind": "rx", "node": 4, "slot": 7, "src": 3}',
        '{"frame": "HopFrame", "kind": "rx", "node": 5, "slot": 7, "src": 1}',
        '{"frame": "AckFrame", "kind": "txr", "node": 5, "slot": 7}',
        '{"kind": "collision", "node": 1, "phase": "ack", "slot": 7}',
        '{"frame": "AckFrame", "kind": "rxa", "node": 2, "slot": 7, "src": -1}',
        '{"frame": "AckFrame", "kind": "rxa", "node": 3, "slot": 7, "src": -1}',
        '{"frame": "HopFrame", "kind": "tx", "node": 2, "slot": 9}',
    ]
