"""Slot-time arithmetic, wire frames and the disk graph shared by every
protocol layer.

Time is a global integer slot counter.  A node charges for `charge_slots`
slots and then works for exactly one slot, so its cycle length is
`charge_slots + 1`.  The slot index within a cycle at which a node works
is its working offset.  Offsets live on the global grid: a node with
offset o is awake in every slot s with s % cycle == o.

The wire records (`HopFrame`, `DataFrame`, `AckFrame`) are slotted and
built positionally on the per-slot path, because forwarding sends one
frame per scan attempt and most of its time goes there.  A forwarding
node's queue holds `DataFrame`s that the node built itself, and a retry
sends the queued frame again while its addressing holds (see
`ForwardNode.poll`).  A frame is therefore read-only once built: the
radio and every receiver may see it again.

Who hears whom is a unit disk graph with one in-range test,
`math.dist(a, b) <= range_m`, in `DiskGrid.near`; `Scenario.neighbors()`
and the BFS oracle both find their pairs through a `DiskGrid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Reserved id for the mains-powered collection point.  Node ids are
# distinct integers, and none is SINK (`Scenario.positions`).
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


@dataclass(slots=True)
class HopFrame:
    """Topology broadcast: hop count plus progress round of the sender."""

    src: int
    hop: int
    round_no: int


@dataclass(slots=True)
class DataFrame:
    """One hop of a message: on the air, or queued at the node that
    sends it next.

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


# A grid cell's side is a hair above the range, so that the rounding of
# the cell arithmetic never puts two points in range more than one cell
# apart.  That holds while every coordinate lies within about 2**31
# cell sides of the origin.
CELL_MARGIN = 1 + 2**-20
_AROUND = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


class DiskGrid:
    """Points bucketed in square cells a hair wider than `range_m`, so
    every point within `range_m` of a spot lies in the 3x3 cells around
    the spot's cell (Bentley, Stanat & Williams, IPL 1977).  `points`
    are (id, (x, y)) pairs; a point at (x, y) lies in the cell
    (floor(x / side), floor(y / side))."""

    __slots__ = ("range_m", "side", "cells")

    def __init__(self, points, range_m: float):
        if not range_m > 0:
            raise ValueError("range_m must be positive")
        self.range_m = range_m
        self.side = range_m * CELL_MARGIN
        self.cells = {}
        self.add(points)

    def add(self, points) -> None:
        """File each of `points` in its cell, after those already there."""
        side, cells, floor = self.side, self.cells, math.floor
        for point in points:
            x, y = point[1]
            cells.setdefault((floor(x / side), floor(y / side)),
                             []).append(point)

    def near(self, xy, take: bool = False) -> list:
        """The (id, (x, y)) points within `range_m` of `xy`, boundary
        inclusive; with `take`, they also leave the grid, and each cell
        keeps the rest of its members in order."""
        side = self.side
        cx, cy = math.floor(xy[0] / side), math.floor(xy[1] / side)
        cells, range_m, dist = self.cells, self.range_m, math.dist
        found = []
        for dx, dy in _AROUND:
            key = (cx + dx, cy + dy)
            members = cells.get(key)
            if members is None:
                continue
            if not take:
                found += [m for m in members if dist(xy, m[1]) <= range_m]
                continue
            rest = []
            for m in members:
                if dist(xy, m[1]) <= range_m:
                    found.append(m)
                else:
                    rest.append(m)
            if len(rest) < len(members):
                # an emptied cell goes, so later lookups skip it
                if rest:
                    cells[key] = rest
                else:
                    del cells[key]
        return found


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
    seed: int = 0
    deaths: dict[int, int] = field(default_factory=dict)

    def positions(self) -> dict[int, tuple[float, float]]:
        pos = {SINK: self.sink_xy}
        for p in self.nodes:
            pos[p.node_id] = (p.x, p.y)
        if len(pos) <= len(self.nodes):
            raise ValueError("node ids must be distinct and differ from SINK")
        return pos

    def neighbors(self) -> dict[int, frozenset]:
        """The unit disk graph: node id (the sink under `SINK`) -> ids
        within `range_m`, boundary inclusive, never the node itself.
        Found through a `DiskGrid`, whose in-range test is the package's
        only one.  Built per call, not cached."""
        grid = DiskGrid((), self.range_m)
        near = {}
        # each pair is tested once, when the later of its points arrives
        for a, xy in self.positions().items():
            mine = near[a] = set()
            for b, _ in grid.near(xy):
                mine.add(b)
                near[b].add(a)
            grid.add([(a, xy)])
        return {a: frozenset(ids) for a, ids in near.items()}

    def offsets(self) -> dict[int, int]:
        return {p.node_id: p.offset for p in self.nodes}
