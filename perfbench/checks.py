"""Output checks the benchmark applies to every experiment it runs.

An experiment fails when it raises, when the mapping disagrees with the
BFS oracle (`verify_least_hop`), or when its forwarding result breaks an
invariant listed in `delivery_problems`.
"""

from __future__ import annotations

import math


def delivery_problems(forward, hops: dict, positions: dict, range_m: float,
                      sink: int) -> list[str]:
    """Invariant breaches in one forwarding result.

    - every created message is either delivered or undelivered;
    - no (origin, seq) is delivered twice;
    - every delivery path starts at its origin and is a chain of in-range
      transmitters, ending at the sink, whose hop count strictly falls.
    """
    problems = []
    if forward.created != forward.delivered + forward.undelivered:
        problems.append(
            f"created {forward.created} != delivered {forward.delivered}"
            f" + undelivered {forward.undelivered}")
    if forward.delivered != len(forward.deliveries):
        problems.append(f"delivered {forward.delivered} but "
                        f"{len(forward.deliveries)} deliveries recorded")
    seen = set()
    for d in forward.deliveries:
        key = (d.origin, d.seq)
        if key in seen:
            problems.append(f"message {key} delivered twice")
        seen.add(key)
        if not d.path or d.path[0] != d.origin or d.hops != len(d.path):
            problems.append(f"message {key}: path {d.path} does not start at "
                            f"its origin or disagrees with hops {d.hops}")
            continue
        chain = list(d.path) + [sink]
        for a, b in zip(chain, chain[1:]):
            hop_a = hops.get(a)
            hop_b = 0 if b == sink else hops.get(b)
            if a not in positions or b not in positions \
                    or math.dist(positions[a], positions[b]) > range_m:
                problems.append(f"message {key}: hop {a}->{b} out of range")
                break
            if hop_a is None or hop_b is None or hop_b >= hop_a:
                problems.append(f"message {key}: hop {a}->{b} does not fall "
                                f"({hop_a} -> {hop_b})")
                break
    return problems
