"""The replay check (`tests/replay.py`) flags each of its rules on a
hand-written trace and passes a clean one."""

import json

from icroute.core import SINK, ChargingSpec, NodePlacement, Scenario
from replay import breaches

# t=2, so a cycle is 3 slots; node 1 is 5m from the sink and node 2 15m
FIELD = Scenario(ChargingSpec(2), [NodePlacement(1, 5.0, 0.0, 0),
                                   NodePlacement(2, 15.0, 0.0, 0)],
                 sink_xy=(0.0, 0.0), range_m=10.0)


def ndjson(*events):
    return "".join(json.dumps(dict(zip(("slot", "node", "kind"), e[:3]), **e[3]))
                   + "\n" for e in events)


def test_a_clean_trace_has_no_breach():
    trace = ndjson((3, 1, "tx", {"frame": "DataFrame"}),
                   (3, SINK, "rx", {"frame": "DataFrame", "src": 1}),
                   (3, SINK, "txr", {"frame": "AckFrame"}),
                   (3, 1, "rxa", {"frame": "AckFrame", "src": SINK}),
                   (3, 2, "collision", {"phase": "data"}),
                   (4, SINK, "tx", {"frame": "HopFrame"}),
                   (6, 1, "tx", {"frame": "DataFrame"}))
    assert breaches(trace, FIELD) == []


def test_each_rule_is_flagged():
    trace = ndjson(
        # an rx with no tx from its source in that slot and phase
        (3, SINK, "rx", {"frame": "DataFrame", "src": 1}),
        (3, 1, "txr", {"frame": "AckFrame"}),
        # a decode from out of range
        (9, 2, "tx", {"frame": "HopFrame"}),
        (9, SINK, "rx", {"frame": "HopFrame", "src": 2}),
        # a transmitter that hears its own phase
        (9, 1, "tx", {"frame": "HopFrame"}),
        (9, 1, "collision", {"phase": "data"}),
        # node 2 works again two slots later, inside its cycle
        (11, 2, "tx", {"frame": "HopFrame"}))
    assert breaches(trace, FIELD) == [
        "slot 3: node -1 got rx from 1, which sent no tx",
        "slot 9: node -1 got rx from 2, out of range",
        "slot 9: node 1 heard a phase it sent in",
        "node 2 has events in slots 9 and 11, less than a cycle (3) apart",
    ]
