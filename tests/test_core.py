import pytest

from icroute.core import (
    SINK,
    AckFrame,
    ChargingSpec,
    DataFrame,
    DiskGrid,
    HopFrame,
    NodePlacement,
    Scenario,
)
from icroute.forwarding import CachedPolicy, ForwardNode, run_forwarding
from icroute.topology import build_topology


def test_cycle_counts_work_slot():
    assert ChargingSpec(1).cycle == 2
    assert ChargingSpec(50).cycle == 51
    assert ChargingSpec(500).cycle == 501


def test_charge_slots_must_be_positive():
    with pytest.raises(ValueError):
        ChargingSpec(0)
    with pytest.raises(ValueError):
        ChargingSpec(-3)


def test_wire_records_are_slotted():
    # one is sent per scan attempt; a record with a __dict__ costs
    # forwarding time on every one of them
    records = [HopFrame(1, 2, 3), DataFrame(1, None, 2, 1, 0, 0),
               AckFrame(1, 2)]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_forward_node_is_slotted():
    # polled and finished on every forwarding wake
    node = ForwardNode(NodePlacement(0, 0.0, 0.0, 1), ChargingSpec(5),
                       CachedPolicy(), hop=1, rounds=1)
    assert not hasattr(node, "__dict__")


def test_scenario_positions_include_sink():
    spec = ChargingSpec(2)
    nodes = [NodePlacement(0, 1.0, 0.0, 0), NodePlacement(1, 2.0, 0.0, 1)]
    sc = Scenario(spec, nodes, sink_xy=(0.0, 0.0), range_m=1.5)
    pos = sc.positions()
    assert pos[SINK] == (0.0, 0.0)
    assert pos[0] == (1.0, 0.0)
    assert pos[1] == (2.0, 0.0)
    assert sc.offsets() == {0: 0, 1: 1}


@pytest.mark.parametrize("phase", ["mapping", "forwarding"])
@pytest.mark.parametrize("ids", [(0, SINK), (0, 0)], ids=["sink-id", "shared-id"])
def test_clashing_node_ids_are_refused(ids, phase):
    # a node under the sink's id would be overwritten by the sink's
    # entry, and two nodes under one id would run as one; every run reads
    # `positions()` (through `neighbors()`), so each refuses the field
    nodes = [NodePlacement(nid, 8.0 * (i + 1), 0.0, i + 1)
             for i, nid in enumerate(ids)]
    sc = Scenario(ChargingSpec(2), nodes, sink_xy=(0.0, 0.0), range_m=10.0,
                  seed=5)
    with pytest.raises(ValueError, match="node ids must be distinct"):
        if phase == "mapping":
            build_topology(sc)
        else:
            run_forwarding(sc, {nid: 1 for nid in ids})


def test_disk_grid_near_is_boundary_inclusive_and_take_removes():
    points = [(0, (0.0, 0.0)), (1, (10.0, 0.0)), (2, (-10.0, 0.0)),
              (3, (0.0, 10.000001)), (4, (7.0, -7.0)), (5, (25.0, 25.0))]
    grid = DiskGrid(points, 10)
    assert sorted(grid.near((0.0, 0.0))) == [points[i] for i in (0, 1, 2, 4)]
    # a spot a cell side past node 1 is out of everyone's range
    assert grid.near((10.0 + grid.side, 0.0)) == []
    assert sorted(grid.near((0.0, 0.0), take=True)) == [points[i]
                                                        for i in (0, 1, 2, 4)]
    assert grid.near((0.0, 0.0)) == []
    assert grid.near((0.0, 10.0), take=True) == [points[3]]
    assert [m for ms in grid.cells.values() for m in ms] == [points[5]]


def test_disk_grid_needs_a_positive_range():
    for range_m in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="range_m must be positive"):
            DiskGrid([], range_m)


def test_neighbors_exclude_self_and_include_the_boundary():
    nodes = [NodePlacement(0, 3.0, 4.0, 0), NodePlacement(1, 3.0, 4.0, 0),
             NodePlacement(2, 3.0, 9.0, 0), NodePlacement(3, 3.0, 9.5, 0)]
    sc = Scenario(ChargingSpec(2), nodes, sink_xy=(0.0, 0.0), range_m=5)
    # nodes 0 and 1 share a spot; 2 is exactly 5 m from them, 3 is 5.5 m
    assert sc.neighbors() == {SINK: {0, 1}, 0: {SINK, 1, 2}, 1: {SINK, 0, 2},
                              2: {0, 1, 3}, 3: {2}}
