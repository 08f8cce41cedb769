"""Reference math of the alignment scan, for the tests.

The sender delays its working slot by one position each cycle, so its
offset walks through every value in [0, t] and is guaranteed to meet the
receiver's within t+1 attempts.  `closed_form_latency` gives the exact
slot of the first shared working slot on the cycle grid.

The live scan is `icroute.forwarding.ForwardNode` (`poll`, `swing_back`);
this module is the independent reference the tests check it and its
bounds against, so it imports nothing from `icroute` but `icroute.core`.
"""

from __future__ import annotations

from icroute.core import ChargingSpec


def delay_offset(offset: int, spec: ChargingSpec, slots: int = 1) -> int:
    """Working offset after postponing the working slot by `slots` slots.

    Postponement is the only physical move an intermittently-charged node
    has: it can hold its charge and wake later, never earlier.
    """
    if slots < 0:
        raise ValueError("can only delay, not advance")
    return (offset + slots) % spec.cycle


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
