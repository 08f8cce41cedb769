"""Alternative next-hop selection strategies for comparison runs.

Each strategy is the three members `ForwardNode` reads (see
`forwarding`): `scan_target`, `failure_wait` and the `realign` flag.
The default (`rics`) scans once, caches the matched offset, and backs
off on failure.  The alternatives trade that cache away in different
directions:

- `fxcs` keeps a fixed next hop from the topology stage but never keeps
  the matched offset: every message pays a fresh alignment scan.
- `rncs` also realigns for every message, drawing the target uniformly
  from the known lower-hop neighbors each time.
- `otps` caches like the default but aims its scans at one designated
  neighbor first, falling back to whoever answers only after a whole
  attempt window comes back empty; on a dead next hop it rescans at
  once instead of sitting out the recovery wait.

A node the topology stage gives nobody (no next hop for `fxcs` and
`otps`, no lower-hop neighbor for `rncs`) scans for whoever answers, as
under `rics`, so every strategy runs on every field.
"""

from __future__ import annotations

from .core import NO_HOP, SINK, Scenario
from .forwarding import CachedPolicy
from .radio import derive_rng_stream


class FixedHopPolicy(CachedPolicy):
    """Realign toward one permanent next hop for every message.

    A realigning node rescans after every acked frame, so a matched
    session never sends and its next hop never fails: the inherited
    failure wait is never read."""

    realign = True

    def __init__(self, target: int | None):
        self.target = target

    def scan_target(self, node):
        return self.target


class RandomHopPolicy(CachedPolicy):
    """Redraw the target uniformly for every alignment scan."""

    realign = True

    def __init__(self, candidates: list, rng):
        self.candidates = sorted(candidates)
        self.rng = rng

    def scan_target(self, node):
        return self.rng.choice(self.candidates) if self.candidates else None


class OpportunisticPolicy(CachedPolicy):
    """Cache like the default, but court one designated neighbor first.

    Scans are directed at the node handed over by the topology stage;
    once the node has had a full attempt window with no answer, or a
    failure, it goes opportunistic and accepts the first acking
    neighbor.  Failures skip the recovery wait and probe again
    immediately.
    """

    def __init__(self, designated: int | None):
        self.designated = designated

    def scan_target(self, node):
        if node.exhausted or node.failures:
            return None
        return self.designated

    def failure_wait(self, node):
        return 0


def lower_hop_neighbors(nid: int, topo) -> list:
    """In-range neighbors the node has heard that sit closer to the sink."""
    mine = topo.hops.get(nid, NO_HOP)
    out = []
    for peer in topo.known_lower.get(nid, ()):
        peer_hop = 0 if peer == SINK else topo.hops.get(peer, NO_HOP)
        if peer_hop < mine:
            out.append(peer)
    return out


def build_policies(strategy: str, scenario: Scenario, topo) -> dict:
    """Per-node policy objects for one named strategy."""
    if strategy == "rics":
        shared = CachedPolicy()
        return {p.node_id: shared for p in scenario.nodes}
    if strategy == "otps":
        return {p.node_id: OpportunisticPolicy(topo.next_hops.get(p.node_id))
                for p in scenario.nodes}
    if strategy == "fxcs":
        return {p.node_id: FixedHopPolicy(topo.next_hops.get(p.node_id))
                for p in scenario.nodes}
    if strategy == "rncs":
        return {
            p.node_id: RandomHopPolicy(
                lower_hop_neighbors(p.node_id, topo),
                derive_rng_stream(scenario.seed, p.node_id, "strategy"),
            )
            for p in scenario.nodes
        }
    raise ValueError(f"unknown strategy {strategy!r}")


STRATEGIES = ("rics", "fxcs", "rncs", "otps")
