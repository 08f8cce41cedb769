"""Slot-time arithmetic and wire frames shared by every protocol layer.

Time is a global integer slot counter.  A node charges for `charge_slots`
slots and then works for exactly one slot, so its cycle length is
`charge_slots + 1`.  The slot index within a cycle at which a node works
is its working offset.  Offsets live on the global grid: a node with
offset o is awake in every slot s with s % cycle == o.

The wire records (`HopFrame`, `DataFrame`, `AckFrame`, `Message`) are
slotted and built positionally on the per-slot path, because forwarding
builds one per scan attempt and most of its time goes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Reserved id for the mains-powered collection point.  Every other node id
# is a dense non-negative integer.
SINK = -1

# Hop value of a node that has not learned a route.  Kept as a large int
# so ordinary "frame.hop + 1 < hop" comparisons just work.
NO_HOP = 1 << 30


@dataclass(frozen=True)
class ChargingSpec:
    """Charge-for-t-slots, work-for-one-slot duty cycle."""

    charge_slots: int

    def __post_init__(self):
        if self.charge_slots < 1:
            raise ValueError("charge_slots must be >= 1")

    @property
    def cycle(self) -> int:
        return self.charge_slots + 1


def is_working(offset: int, spec: ChargingSpec, now: int) -> bool:
    """True when a node with the given offset is awake in slot `now`."""
    if not 0 <= offset <= spec.charge_slots:
        raise ValueError("offset outside [0, charge_slots]")
    return now % spec.cycle == offset


def delay_offset(offset: int, spec: ChargingSpec, slots: int = 1) -> int:
    """Working offset after postponing the working slot by `slots` slots.

    Postponement is the only physical move an intermittently-charged node
    has: it can hold its charge and wake later, never earlier.
    """
    if slots < 0:
        raise ValueError("can only delay, not advance")
    return (offset + slots) % spec.cycle


@dataclass(slots=True)
class HopFrame:
    """Topology broadcast: hop count plus progress round of the sender."""

    src: int
    hop: int
    round_no: int


@dataclass(slots=True)
class DataFrame:
    """One queued message on the air.

    `src` is the transmitter of this hop, `dst` the transmitter's current
    match target (None while it is still searching).  `origin` and `seq`
    identify the message end to end; `path` accumulates the transmitters
    the message has visited, for metrics only.
    """

    src: int
    dst: int | None
    src_hop: int
    origin: int
    seq: int
    created_at: int
    is_start: bool = False
    is_end: bool = False
    path: tuple = ()


@dataclass(slots=True)
class AckFrame:
    """Same-slot acknowledgment; `ack_dst` names the node being acked."""

    src: int
    ack_dst: int


Frame = HopFrame | DataFrame | AckFrame


@dataclass(slots=True)
class Message:
    """A queued unit of sensed data, keyed end to end by (origin, seq)."""

    origin: int
    seq: int
    created_at: int
    path: tuple = ()


@dataclass
class NodePlacement:
    node_id: int
    x: float
    y: float
    offset: int


@dataclass
class Scenario:
    """Static description of one deployment: geometry, offsets, faults."""

    spec: ChargingSpec
    nodes: list[NodePlacement]
    sink_xy: tuple[float, float]
    range_m: float
    width: float
    height: float
    seed: int = 0
    deaths: dict[int, int] = field(default_factory=dict)
    shape: str = "custom"

    def positions(self) -> dict[int, tuple[float, float]]:
        pos = {SINK: self.sink_xy}
        for p in self.nodes:
            pos[p.node_id] = (p.x, p.y)
        return pos

    def neighbors(self) -> dict[int, frozenset]:
        """The unit disk graph, the package's only in-range test: node id
        (the sink under `SINK`) -> ids within `range_m`, boundary
        inclusive, never the node itself.  Built per call, not cached."""
        pos = list(self.positions().items())
        near = {nid: set() for nid, _ in pos}
        for i, (a, pa) in enumerate(pos):
            for b, pb in pos[i + 1:]:
                if math.dist(pa, pb) <= self.range_m:
                    near[a].add(b)
                    near[b].add(a)
        return {nid: frozenset(ids) for nid, ids in near.items()}

    def offsets(self) -> dict[int, int]:
        return {p.node_id: p.offset for p in self.nodes}
