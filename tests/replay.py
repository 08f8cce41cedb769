"""Replay check of a recorded trace: runtime verification over the
events of one run (Barringer, Goldberg, Havelund & Sen, *Rule-based
runtime verification*, VMCAI 2004).

`breaches` reads a run's `trace.ndjson` and its `Scenario`, and nothing
from `icroute.radio` or `DiskGrid`, so it restates the radio's rules
instead of calling them.  It checks three:
- every `rx` (`rxa`) has a `tx` (`txr`) from its `src` in the same slot,
  sent from within `range_m` by `math.dist`;
- no node hears anything, a frame or a collision, in a phase in which
  it transmits (half duplex);
- no node but the sink has events in two slots less than a cycle apart:
  a battery-free node works at most one slot per cycle.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

from icroute.core import SINK

# what a node hears in a phase -> the kind of event that sends in it
SENT_IN = {"rx": "tx", "data": "tx", "rxa": "txr", "ack": "txr"}


def breaches(ndjson: str, scenario) -> list[str]:
    """Every breach of the three rules in `ndjson`, one line each."""
    events = [json.loads(line) for line in ndjson.splitlines()]
    pos = scenario.positions()
    sent = {(e["slot"], e["kind"], e["node"]) for e in events
            if e["kind"] in ("tx", "txr")}
    found = []
    slots = defaultdict(set)  # node -> the slots it has events in
    for e in events:
        slot, node, kind = e["slot"], e["node"], e["kind"]
        slots[node].add(slot)
        if kind in ("tx", "txr"):
            continue
        send = SENT_IN[e["phase"] if kind == "collision" else kind]
        if (slot, send, node) in sent:
            found.append(f"slot {slot}: node {node} heard a phase it sent in")
        if kind == "collision":
            continue
        src = e["src"]
        if (slot, send, src) not in sent:
            found.append(f"slot {slot}: node {node} got {kind} from {src}, "
                         f"which sent no {send}")
        elif math.dist(pos[src], pos[node]) > scenario.range_m:
            found.append(f"slot {slot}: node {node} got {kind} from {src}, "
                         "out of range")
    cycle = scenario.spec.cycle
    for node, seen in slots.items():
        if node == SINK:
            continue
        seen = sorted(seen)
        for a, b in zip(seen, seen[1:]):
            if b - a < cycle:
                found.append(f"node {node} has events in slots {a} and {b}, "
                             f"less than a cycle ({cycle}) apart")
    return found
