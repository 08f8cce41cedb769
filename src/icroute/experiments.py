"""Scenario generation, full runs, and file export.

A run has two phases on the same deployment: hop counts are built
first, then the clock restarts and every node pushes `rounds` messages
toward the sink under one of the named strategies.  Results land as a
per-message CSV plus a JSON summary, both written atomically so a
killed run never leaves half a file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass

from .baselines import STRATEGIES, build_policies
from .core import NO_HOP, SINK, ChargingSpec, NodePlacement, Scenario
from .forwarding import ForwardResult, message_slot, run_forwarding
from .radio import EventTrace, derive_rng_stream
from .topology import TopoResult, bfs_hops, build_topology

SHAPES = {"square": (45.0, 45.0), "rectangle": (40.0, 80.0)}
RADIO_RANGE_M = 10.0
MAX_PLACEMENT_TRIES = 1000
QUANTILES = (0.10, 0.50, 0.90, 0.99)

CSV_HEADER = ["msg_id", "src", "created_slot", "delivered_slot", "hops"]


class SparseAreaError(RuntimeError):
    """Raised when no connected placement shows up within the retry budget."""


@dataclass(frozen=True)
class ExperimentConfig:
    shape: str = "square"
    n_nodes: int = 50
    t: int = 50
    strategy: str = "rics"
    rounds: int = 2
    seed: int = 0
    slot_ms: float = 1.0
    range_m: float = RADIO_RANGE_M

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {sorted(SHAPES)}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.n_nodes < 1 or self.t < 1 or self.rounds < 1:
            raise ValueError("n_nodes, t and rounds must all be >= 1")
        if self.slot_ms <= 0 or self.range_m <= 0:
            raise ValueError("slot_ms and range_m must be positive")
        # seed material is packed into 16 signed bytes (`radio._mix64`)
        if not -2**127 <= self.seed < 2**127:
            raise ValueError("seed must be in [-2**127, 2**127)")

    @property
    def dims(self) -> tuple[float, float]:
        return SHAPES[self.shape]

    @property
    def sink_xy(self) -> tuple[float, float]:
        # middle of the bottom edge; no shape is wider than it is tall,
        # so that edge is a shortest one
        return (self.dims[0] / 2.0, 0.0)

    def label(self) -> str:
        return (f"{self.shape}-n{self.n_nodes}-t{self.t}"
                f"-{self.strategy}-r{self.rounds}-s{self.seed}")


def generate_scenario(config: ExperimentConfig) -> Scenario:
    """Drop nodes uniformly until the radio graph reaches everyone.

    Deterministic per seed: each try draws x, y and offset per node in
    id order, as `uniform(0, width)`, `uniform(0, height)` and
    `randint(0, t)` would, and `bfs_hops` checks it once.  A rejected
    try costs its draws and the BFS of the sink's component; no
    neighbor sets are built.  Gives up with a diagnostic after
    MAX_PLACEMENT_TRIES disconnected draws.
    """
    rng = derive_rng_stream(config.seed, SINK, "scenario")
    random, bits = rng.random, rng.getrandbits
    width, height = config.dims
    offsets = config.t + 1
    # uniform(0, w) is 0 + w * random().  An offset follows randint(0, t),
    # that is randrange(t + 1), by its rule written out, so the stream
    # does not hang on the interpreter's randrange: k bits, drawn again
    # while the value is above t
    k = offsets.bit_length()

    def offset():
        while True:
            r = bits(k)
            if r < offsets:
                return r

    spec = ChargingSpec(charge_slots=config.t)
    scenario = None
    for _ in range(MAX_PLACEMENT_TRIES):
        nodes = [NodePlacement(i, width * random(), height * random(),
                               offset())
                 for i in range(config.n_nodes)]
        scenario = Scenario(spec, nodes, config.sink_xy, config.range_m,
                            config.seed)
        if NO_HOP not in bfs_hops(scenario).values():
            return scenario
    near = scenario.neighbors()
    degree = sum(map(len, near.values())) / len(near)
    raise SparseAreaError(
        f"area too sparse: no connected draw in {MAX_PLACEMENT_TRIES} tries "
        f"(n={config.n_nodes}, range={config.range_m}m, "
        f"area={width:g}x{height:g}m, mean degree={degree:.2f})")


def expected_scan_latency(spec: ChargingSpec) -> float:
    """Mean slot of the scan's first meeting under uniform offsets.

    The scan meets the receiver in cycle d at its offset o_r, slot
    d * (t+1) + o_r, and d and o_r are each uniform on [0, t].
    """
    t = spec.charge_slots
    return (t / 2) * (t + 1) + t / 2


def quantile(values: list, q: float) -> float:
    if not values:
        raise ValueError("no values to take a quantile of")
    ordered = sorted(values)
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    scenario: Scenario
    topo: TopoResult
    forward: ForwardResult
    trace: EventTrace | None = None

    def message_rows(self) -> list:
        """One row per created message, censored ones with blank tails."""
        by_key = {(d.origin, d.seq): d for d in self.forward.deliveries}
        offsets = self.scenario.offsets()
        spec = self.scenario.spec
        rows = []
        for nid in sorted(self.forward.generated_per_node):
            for k in range(self.forward.generated_per_node[nid]):
                d = by_key.get((nid, k))
                rows.append([
                    f"{nid}-{k}",
                    nid,
                    message_slot(offsets[nid], k, spec),
                    d.delivered_at if d else "",
                    d.hops if d else "",
                ])
        return rows

    def summary(self) -> dict:
        cfg = self.config
        lats = self.forward.latencies
        scale = cfg.slot_ms / 1000.0
        qs = {}
        qs_seconds = {}
        for q in QUANTILES:
            key = f"p{int(q * 100)}"
            if lats:
                qs[key] = quantile(lats, q)
                qs_seconds[key] = qs[key] * scale
            else:
                qs[key] = None
                qs_seconds[key] = None
        return {
            "config": asdict(cfg),
            "topo_time_slots": self.topo.topo_time,
            "topo_time_seconds": self.topo.topo_time * scale,
            "topo_converged": self.topo.run.converged,
            "created": self.forward.created,
            "delivered": self.forward.delivered,
            "undelivered": self.forward.undelivered,
            "duplicates": self.forward.duplicates,
            "delivery_quantiles_slots": qs,
            "delivery_quantiles_seconds": qs_seconds,
            "mean_sync_latency_slots": expected_scan_latency(self.scenario.spec),
            "collisions": {
                "topology": {
                    "data": self.topo.run.data_collisions,
                    "ack": self.topo.run.ack_collisions,
                },
                "forwarding": {
                    "data": self.forward.run.data_collisions,
                    "ack": self.forward.run.ack_collisions,
                },
            },
            "forward_converged": self.forward.run.converged,
            "last_slot": self.forward.run.last_slot,
        }

    def export(self, out_dir: str) -> list:
        """Write messages.csv, summary.json, topology.json (and the event
        log when tracing); returns the paths."""
        run_dir = os.path.join(out_dir, self.config.label())
        os.makedirs(run_dir, exist_ok=True)
        paths = []

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(self.message_rows())
        paths.append(_atomic_write(os.path.join(run_dir, "messages.csv"),
                                   buf.getvalue()))

        paths.append(_atomic_write(
            os.path.join(run_dir, "summary.json"),
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"))

        paths.append(_atomic_write(
            os.path.join(run_dir, "topology.json"),
            json.dumps(self.topo.to_dict(), indent=2, sort_keys=True) + "\n"))

        if self.trace is not None:
            paths.append(_atomic_write(os.path.join(run_dir, "trace.ndjson"),
                                       self.trace.ndjson()))
        return paths


def _atomic_write(path: str, text: str) -> str:
    """Write `text` to `path` through a temporary file in its directory.

    The file gets the mode a plain `open(path, "w")` would give it;
    `mkstemp` alone would leave it readable by its owner only.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def run_experiment(config: ExperimentConfig,
                   scenario: Scenario | None = None,
                   topo: TopoResult | None = None,
                   trace: bool = False) -> ExperimentResult:
    """One full two-phase run.

    `scenario` and `topo` can be passed in to reuse one deployment (and
    one topology build) across several strategies or workloads.
    """
    if scenario is None:
        scenario = generate_scenario(config)
    if topo is None:
        topo = build_topology(scenario)
    event_log = EventTrace() if trace else None
    policies = build_policies(config.strategy, scenario, topo)
    forward = run_forwarding(
        scenario, topo.hops, rounds=config.rounds,
        policies=policies, trace=event_log,
    )
    return ExperimentResult(config=config, scenario=scenario, topo=topo,
                            forward=forward, trace=event_log)
