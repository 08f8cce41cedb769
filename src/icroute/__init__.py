"""Routing protocols and a slot simulator for intermittently powered nodes."""

from .core import (
    SINK,
    ChargingSpec,
    NodePlacement,
    Scenario,
    delay_offset,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    generate_scenario,
    run_experiment,
)
from .forwarding import run_forwarding
from .sync import closed_form_latency, expected_scan_latency
from .topology import build_topology, verify_least_hop

__all__ = [
    "SINK",
    "ChargingSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "NodePlacement",
    "Scenario",
    "build_topology",
    "closed_form_latency",
    "delay_offset",
    "expected_scan_latency",
    "generate_scenario",
    "run_experiment",
    "run_forwarding",
    "verify_least_hop",
]

__version__ = "0.1.0"
