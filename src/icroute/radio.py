"""Sub-slot jitter arbitration over the disk graph, and seeded RNG streams.

Who hears whom is fixed by `Scenario.neighbors()`, the unit disk graph
of a deployment; this module only reads it.  Every transmission in a
slot carries a jitter drawn from [0, MICRO_SLOTS).  An awake listener
decodes the frame of its neighbor with the strictly smallest jitter; a
shared minimum destroys all of them for that listener.  The rule is a
pure function of its inputs, which keeps whole runs reproducible.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

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


@dataclass
class TraceEvent:
    slot: int
    node: int
    kind: str
    detail: dict = field(default_factory=dict)


# the phase of a slot each event kind belongs to: 0 the frames sent, 1 the
# data phase's decodes and replies, 2 the ack phase's decodes
_PHASES = {"tx": 0, "rx": 1, "txr": 1, "data": 1, "rxa": 2, "ack": 2}


def _event_order(e):
    kind = e.kind
    phase = _PHASES[e.detail["phase"] if kind == "collision" else kind]
    return e.slot, phase, e.node


class EventTrace:
    """Optional per-run event log, serialized as NDJSON.

    The trace, not the engine, orders events: `events` and `ndjson()` give
    them in a stable sort by (slot, phase, node).  Phase 0 holds `tx`;
    phase 1 `rx`, `txr` and a data-phase `collision`; phase 2 `rxa` and
    an ack-phase `collision`.  A node's events in one phase keep the
    order they were added in, so its `rx` comes before its `txr`.
    """

    def __init__(self):
        self._events: list[TraceEvent] = []

    def add(self, slot, node, kind, **detail):
        self._events.append(TraceEvent(slot, node, kind, detail))

    @property
    def events(self) -> list[TraceEvent]:
        return sorted(self._events, key=_event_order)

    def ndjson(self) -> str:
        """One JSON object per event and line, keys sorted."""
        return "".join(
            json.dumps({"slot": e.slot, "node": e.node, "kind": e.kind, **e.detail},
                       sort_keys=True) + "\n"
            for e in self.events
        )
