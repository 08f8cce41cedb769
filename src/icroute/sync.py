"""Working-time alignment between two duty-cycled nodes.

The sender delays its working slot by one position each cycle, so its
offset walks through every value in [0, t] and is guaranteed to meet the
receiver's within t+1 attempts.  `closed_form_latency` gives the exact
slot of the first shared working slot on the cycle grid; `ForwardNode`
in `forwarding` runs the scan live, attempt by attempt.
"""

from __future__ import annotations

from .core import ChargingSpec


def closed_form_latency(o_s: int, o_r: int, spec: ChargingSpec) -> int:
    """Slot index of the first slot where both nodes are awake.

    The sender's offset in global cycle k is (o_s + k) mod (t+1), so the
    offsets agree first in cycle d = (o_r - o_s) mod (t+1), at that
    cycle's receiver slot.
    """
    t = spec.charge_slots
    for o in (o_s, o_r):
        if not 0 <= o <= t:
            raise ValueError(f"offset {o} outside [0, {t}]")
    return alignment_cycles(o_s, o_r, spec) * spec.cycle + o_r


def alignment_cycles(o_s: int, o_r: int, spec: ChargingSpec) -> int:
    """Number of whole cycles before the offsets agree (0 = already aligned)."""
    return (o_r - o_s) % spec.cycle


def expected_scan_latency(spec: ChargingSpec) -> float:
    """Analytic mean of closed_form_latency under uniform offsets."""
    t = spec.charge_slots
    return (t / 2) * (t + 1) + t / 2


def sample_latencies(spec: ChargingSpec, trials: int, rng):
    """Scan latencies (`closed_form_latency`) of `trials` offset pairs
    drawn uniformly from [0, t] with `rng`."""
    t = spec.charge_slots
    out = []
    for _ in range(trials):
        o_s = rng.randint(0, t)
        o_r = rng.randint(0, t)
        out.append(closed_form_latency(o_s, o_r, spec))
    return out
