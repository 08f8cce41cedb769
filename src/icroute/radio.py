"""Sub-slot jitter arbitration over the disk graph, seeded RNG streams,
and the NDJSON event trace.

Who hears whom is fixed by `Scenario.neighbors()`, the unit disk graph
of a deployment; this module only reads it.  Every transmission in a
slot carries a jitter drawn from [0, MICRO_SLOTS).  An awake listener
decodes the frame of its neighbor with the strictly smallest jitter; a
shared minimum destroys all of them for that listener.  The rule is a
pure function of its inputs, which keeps whole runs reproducible.

`EventTrace` alone names, orders and writes trace events; the engine
hands it each slot whole.
"""

from __future__ import annotations

import hashlib
import json
import random

COLLISION = object()  # decode result marker: energy heard, nothing decoded
MICRO_SLOTS = 16  # jitter values a transmission draws from


def resolve_slot(transmissions, listeners, neighbors):
    """Arbitrate one contention phase of a slot.

    transmissions: list of (frame, jitter) with frame.src identifying the
    transmitter.  listeners: iterable of node ids.  neighbors: the disk
    graph, node id -> ids in range (`Scenario.neighbors()`); a listener
    hears only the transmitters in its set.  Returns a dict that maps each
    listener that heard something to the frame it decoded or to
    COLLISION; a listener missing from it heard nothing.
    This is the one half-duplex rule: transmitters may be listed too, and
    a node that transmitted in this phase hears nothing in it.

    A listener that no transmitter reaches costs one set test, its
    neighbor set against the transmitters, before any frame is looked at;
    only the reached listeners run the per-frame arbitration.  A phase
    with no listeners costs nothing and reads no neighbor set.
    """
    if not listeners:
        return {}
    tx_ids = {f.src for f, _ in transmissions}
    out = {}
    for lid in listeners:
        near = neighbors[lid]
        if lid in tx_ids or near.isdisjoint(tx_ids):
            continue
        best = None
        best_jitter = None
        tied = False
        for frame, jitter in transmissions:
            if frame.src not in near:
                continue
            if best_jitter is None or jitter < best_jitter:
                best, best_jitter, tied = frame, jitter, False
            elif jitter == best_jitter:
                tied = True
        if best is not None:
            out[lid] = COLLISION if tied else best
    return out


def _mix64(*parts) -> int:
    """Stable 64-bit mix of seed material; independent of PYTHONHASHSEED."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, str):
            h.update(p.encode())
        else:
            h.update(int(p).to_bytes(16, "little", signed=True))
        h.update(b"|")
    return int.from_bytes(h.digest(), "little")


def derive_rng_stream(seed: int, node: int, purpose: str) -> random.Random:
    """Independent deterministic stream for one (node, purpose) pair.

    Draws from one stream never perturb any other, so adding a consumer
    cannot silently reshuffle an unrelated part of a run.
    """
    return random.Random(_mix64(seed, node, purpose))


_ENCODE = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call


def _heard(slot, nid, got, kind, phase):
    """The event of a listener that decoded `got` (`kind`, with the
    frame's type and sender) or heard a collision in `phase`."""
    if got is COLLISION:
        return {"slot": slot, "node": nid, "kind": "collision", "phase": phase}
    return {"slot": slot, "node": nid, "kind": kind,
            "frame": type(got).__name__, "src": got.src}


class EventTrace:
    """Optional per-run event log, serialized as NDJSON.

    The engine hands each slot in which something was sent to `record`
    whole, and this class alone names, orders and writes the events.
    A slot's events come in three phases: first each `tx`, by sender id;
    then, for each data-phase listener in id order, its `rx` or data
    `collision`, followed by its `txr` if it replied; then each `rxa` or
    ack `collision`, in id order.  A run records its slots in increasing
    order, and every caller keeps one trace per run, so no sort across
    slots is needed.
    """

    def __init__(self):
        self._slots = []  # (slot, tx_a, decode_a, tx_b, decode_b), in order

    def record(self, slot, tx_a, decode_a=(), tx_b=(), decode_b=()):
        """Keep one slot: its data phase's (frame, jitter) transmissions
        and its decodes (listener -> frame or COLLISION), then the ack
        phase's; a slot whose data phase nobody heard passes `tx_a` only."""
        self._slots.append((slot, tx_a, decode_a, tx_b, decode_b))

    def _events(self):
        for slot, tx_a, decode_a, tx_b, decode_b in self._slots:
            for frame in sorted((f for f, _ in tx_a), key=lambda f: f.src):
                yield {"slot": slot, "node": frame.src, "kind": "tx",
                       "frame": type(frame).__name__}
            replies = {f.src: f for f, _ in tx_b}
            for nid in sorted(decode_a):
                yield _heard(slot, nid, decode_a[nid], "rx", "data")
                if nid in replies:
                    yield {"slot": slot, "node": nid, "kind": "txr",
                           "frame": type(replies[nid]).__name__}
            for nid in sorted(decode_b):
                yield _heard(slot, nid, decode_b[nid], "rxa", "ack")

    def ndjson(self) -> str:
        """One JSON object per event and line, keys sorted."""
        return "".join(_ENCODE(e) + "\n" for e in self._events())
