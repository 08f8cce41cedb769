"""Working-time alignment between two duty-cycled nodes.

The sender delays its working slot by one position each cycle, so its
offset walks through every value in [0, t] and is guaranteed to meet the
receiver's within t+1 attempts.  `closed_form_latency` gives the exact
slot of the first shared working slot on the cycle grid; `ForwardNode`
in `forwarding` runs the scan live, attempt by attempt.

A randomized variant (delay with probability p each cycle) is included
as a comparison baseline.  It has no worst-case bound and a wider
latency spread, which is the point of the comparison.
"""

from __future__ import annotations

from statistics import fmean, pvariance

from .core import ChargingSpec, delay_offset

# delay probabilities the randomized baseline is tried at
P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


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


def geometric_baseline_step(offset: int, p: float, spec: ChargingSpec, rng) -> int:
    """One cycle of the randomized baseline: delay by one slot with probability p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if rng.random() < p:
        return delay_offset(offset, spec)
    return offset


def geometric_latency(o_s: int, o_r: int, p: float, spec: ChargingSpec, rng,
                      max_cycles: int | None = None) -> int | None:
    """First shared working slot under the randomized delay policy.

    Returns None when no alignment happens within max_cycles (for p near
    0 or 1 the walk can take arbitrarily long).
    """
    cycle = spec.cycle
    if max_cycles is None:
        max_cycles = 100 * cycle
    offset = o_s
    for k in range(max_cycles):
        if offset == o_r:
            return k * cycle + o_r
        offset = geometric_baseline_step(offset, p, spec, rng)
    return None


def expected_scan_latency(spec: ChargingSpec) -> float:
    """Analytic mean of closed_form_latency under uniform offsets."""
    t = spec.charge_slots
    return (t / 2) * (t + 1) + t / 2


def sample_latencies(spec: ChargingSpec, trials: int, rng, p: float | None = None):
    """Latency samples over uniform pairs: deterministic scan, or the
    geometric baseline when p is given.  Unaligned baseline trials are
    dropped (they would be infinite)."""
    t = spec.charge_slots
    out = []
    for _ in range(trials):
        o_s = rng.randint(0, t)
        o_r = rng.randint(0, t)
        if p is None:
            out.append(closed_form_latency(o_s, o_r, spec))
        else:
            lat = geometric_latency(o_s, o_r, p, spec, rng)
            if lat is not None:
                out.append(lat)
    return out


def find_best_p(spec: ChargingSpec, trials: int, rng):
    """Search `P_GRID` for the baseline delay probability of least variance."""
    best = None
    for p in P_GRID:
        lats = sample_latencies(spec, trials, rng, p=p)
        if len(lats) < max(2, trials // 2):
            continue
        stats = (pvariance(lats), fmean(lats), p)
        if best is None or stats < best:
            best = stats
    if best is None:
        raise RuntimeError("no grid point aligned often enough to measure")
    var, mean, p = best
    return p, mean, var
