import itertools

from icroute.core import HopFrame, SINK
from icroute.radio import (
    COLLISION,
    derive_rng_stream,
    resolve_slot,
    within_range,
)

POS = {SINK: (0.0, 0.0), 0: (6.0, 0.0), 1: (0.0, 8.0), 2: (6.0, 8.0)}
# 6-8-10 triangle: node 2 is 10m from the sink, 8m from node 0, 6m from node 1


def frame(src, hop=0):
    return HopFrame(src=src, hop=hop, round_no=0)


def test_within_range_is_inclusive():
    assert within_range((0.0, 0.0), (6.0, 8.0), 10.0)
    assert not within_range((0.0, 0.0), (6.0, 8.0), 9.999)


def test_single_transmitter_reaches_in_range_listeners():
    out = resolve_slot([(frame(2), 5)], [SINK, 0, 1], POS, range_m=8.0)
    assert out[SINK] is None  # 10m away, out of range
    assert out[0].src == 2
    assert out[1].src == 2


def test_equal_jitter_collides():
    txs = [(frame(0), 3), (frame(1), 3)]
    out = resolve_slot(txs, [2], POS, range_m=50.0)
    assert out[2] is COLLISION


def test_smaller_jitter_wins_capture():
    txs = [(frame(0), 2), (frame(1), 9)]
    out = resolve_slot(txs, [2], POS, range_m=50.0)
    assert out[2].src == 0


def test_capture_is_local_to_each_listener():
    # Node 1 is 10m from src 0 and 6m from src 2, the sink is the other way
    # around, so with both transmitting each listener decodes a different
    # frame in the same slot.
    txs = [(frame(0), 1), (frame(2), 4)]
    out = resolve_slot(txs, [SINK, 0, 1], POS, range_m=8.0)
    assert out[1].src == 2
    assert out[SINK].src == 0
    assert out[0] is None  # half duplex: transmitters decode nothing


def test_transmitter_never_decodes_itself():
    out = resolve_slot([(frame(0), 0)], [0], POS, range_m=50.0)
    assert out[0] is None


def test_out_of_range_transmitters_do_not_jam():
    # the far transmitter has the smaller jitter but cannot reach the sink
    txs = [(frame(2), 0), (frame(1), 7)]
    out = resolve_slot(txs, [SINK], POS, range_m=8.0)
    assert out[SINK].src == 1


def test_resolution_is_permutation_invariant():
    txs = [(frame(0), 2), (frame(1), 5), (frame(2), 5)]
    base = resolve_slot(txs, [SINK], POS, range_m=50.0)
    for perm in itertools.permutations(txs):
        out = resolve_slot(list(perm), [SINK], POS, range_m=50.0)
        assert out == base


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
    counts = [0] * 16
    for _ in range(n):
        counts[rng.randrange(16)] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.001
