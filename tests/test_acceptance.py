"""End-to-end acceptance gate.

Nine numbered checks covering the whole package: exact topology
correctness at scale, the alignment bound and its closed form, mean
alignment latency benchmarks, mapping-time budgets for fast and slow
chargers, the strategy ordering, latency growth in charging time and in
offered load, and a batch of exact protocol properties.

Each test prints one [PASS]/[FAIL] line and then asserts, so a failing
check still leaves a readable scoreboard (echoed again in the terminal
summary).  Heavier scenario and forwarding builds are shared through
module caches; expect the whole module to take a few minutes.
"""

import random
from statistics import fmean, median

from alignment import (
    alignment_cycles,
    closed_form_latency,
    delay_offset,
    sample_latencies,
)
from conftest import ACCEPTANCE_LINES

from icroute.baselines import STRATEGIES, build_policies
from icroute.core import AckFrame, ChargingSpec, DataFrame
from icroute.experiments import ExperimentConfig, generate_scenario, run_experiment
from icroute.forwarding import (
    ForwardNode,
    run_forwarding,
    swing_back,
)
from icroute.topology import build_topology, verify_least_hop

SEEDS = tuple(range(10))
# the two slowest strategies need headroom past the default horizon so
# every message lands and the medians compare complete populations
ORDERING_HORIZON = 600_000

_TOPO_CACHE = {}
_FWD_CACHE = {}


def field_topology(shape, n, t, seed):
    key = (shape, n, t, seed)
    if key not in _TOPO_CACHE:
        cfg = ExperimentConfig(shape=shape, n_nodes=n, t=t, strategy="rics",
                               rounds=1, seed=seed)
        sc = generate_scenario(cfg)
        _TOPO_CACHE[key] = (sc, build_topology(sc))
    return _TOPO_CACHE[key]


def square50_forwarding(t, seed, strategy, rounds, horizon):
    key = (t, seed, strategy, rounds, horizon)
    if key not in _FWD_CACHE:
        sc, topo = field_topology("square", 50, t, seed)
        policies = build_policies(strategy, sc, topo)
        _FWD_CACHE[key] = run_forwarding(sc, topo.hops, rounds=rounds,
                                         policies=policies, max_slots=horizon)
    return _FWD_CACHE[key]


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {name} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def test_acceptance_1_hop_counts_match_shortest_paths_everywhere():
    configs = [(shape, n, t)
               for shape in ("square", "rectangle")
               for n in (50, 100)
               for t in (5, 50)]
    problems = []
    checked = 0
    for ci, (shape, n, t) in enumerate(configs):
        for i in range(25):
            seed = 1000 + ci * 25 + i  # 200 distinct seeds overall
            cfg = ExperimentConfig(shape=shape, n_nodes=n, t=t,
                                   strategy="rics", rounds=1, seed=seed)
            sc = generate_scenario(cfg)
            topo = build_topology(sc)
            issues = verify_least_hop(topo, sc)
            checked += 1
            if issues:
                problems.append(f"{shape}-n{n}-t{t}-s{seed}: {issues[0]}")
    ok = checked == 200 and not problems
    detail = f"{checked - len(problems)}/200 layouts clean"
    if problems:
        detail += f"; first problem {problems[0]}"
    line = report(1, "hop counts equal shortest paths on 200 layouts", ok, detail)
    assert ok, line


def test_acceptance_2_alignment_bound_and_closed_form_agree():
    pairs = 0
    mismatches = 0
    over_bound = 0
    first_bad = None
    for t in range(1, 51):
        spec = ChargingSpec(charge_slots=t)
        for o_s in range(t + 1):
            for o_r in range(t + 1):
                # step the scan one cycle at a time, no arithmetic shortcut
                offset = o_s
                cycles = 0
                while offset != o_r and cycles <= spec.cycle:
                    offset = delay_offset(offset, spec)
                    cycles += 1
                stepped = cycles * spec.cycle + o_r
                pairs += 1
                if cycles > t or cycles * spec.cycle > t * (t + 1):
                    over_bound += 1
                    first_bad = first_bad or (t, o_s, o_r, "bound")
                if (stepped != closed_form_latency(o_s, o_r, spec)
                        or cycles != alignment_cycles(o_s, o_r, spec)):
                    mismatches += 1
                    first_bad = first_bad or (t, o_s, o_r, "closed form")
    ok = mismatches == 0 and over_bound == 0
    detail = f"{pairs} offset pairs stepped, t up to 50"
    if not ok:
        detail = (f"{mismatches} closed-form mismatches, {over_bound} over "
                  f"bound; first {first_bad}")
    line = report(2, "alignment lands within t cycles and matches the closed form",
                  ok, detail)
    assert ok, line


def test_acceptance_3_mean_alignment_latency_benchmarks():
    checks = [(500, 125_028, 0.05), (120, 7_457, 0.10), (5, 22, 0.50)]
    fails = []
    parts = []
    for t, target, tol in checks:
        spec = ChargingSpec(charge_slots=t)
        rng = random.Random(90_000 + t)
        mean = fmean(sample_latencies(spec, 10_000, rng))
        off = (mean - target) / target
        parts.append(f"t={t}: {mean:.0f} vs {target} ({off:+.1%} of ±{tol:.0%})")
        if abs(off) > tol:
            fails.append(t)
    ok = not fails
    line = report(3, "mean alignment latency hits the benchmarks", ok,
                  "; ".join(parts))
    assert ok, line


def test_acceptance_4_fast_chargers_map_the_field_within_a_second():
    fails = []
    parts = []
    for shape in ("square", "rectangle"):
        for n in (50, 100):
            good = 0
            worst = 0
            for seed in SEEDS:
                cfg = ExperimentConfig(shape=shape, n_nodes=n, t=5,
                                       strategy="rics", rounds=1, seed=seed)
                sc = generate_scenario(cfg)
                topo = build_topology(sc)
                worst = max(worst, topo.topo_time)
                if topo.topo_time < 1000:
                    good += 1
            parts.append(f"{shape}-n{n}: {good}/10 under 1000 (max {worst})")
            if good < 9:
                fails.append(f"{shape}-n{n}")
    ok = not fails
    line = report(4, "mapping finishes inside 1000 slots for fast chargers",
                  ok, "; ".join(parts))
    assert ok, line


def test_acceptance_5_slow_chargers_map_the_field_within_budget():
    budgets = {"square": 1_224_000, "rectangle": 3_024_000}
    fails = []
    parts = []
    for shape, budget in budgets.items():
        times = []
        wrong = []
        for seed in SEEDS:
            if shape == "square":
                sc, topo = field_topology("square", 50, 500, seed)
            else:
                cfg = ExperimentConfig(shape=shape, n_nodes=50, t=500,
                                       strategy="rics", rounds=1, seed=seed)
                sc = generate_scenario(cfg)
                topo = build_topology(sc)
            times.append(topo.topo_time)
            # a mapping only counts when it is the least-hop one and settled
            issues = verify_least_hop(topo, sc)
            if issues:
                wrong.append(f"s{seed}: {issues[0]}")
            if topo.converged_at is None:
                wrong.append(f"s{seed}: never converged")
        over = sum(1 for x in times if x > budget)
        parts.append(f"{shape}-n50: max {max(times)} vs budget {budget}, "
                     f"{over}/10 over")
        if wrong:
            parts.append(f"{shape}-n50 not a correct mapping: {wrong[0]}")
        if over or wrong:
            fails.append(shape)
    ok = not fails
    line = report(5, "mapping stays inside the slow-charger budgets", ok,
                  "; ".join(parts))
    assert ok, line


def test_acceptance_6_strategy_ordering_at_moderate_charging():
    pooled = {s: [] for s in STRATEGIES}
    undelivered = 0
    for seed in SEEDS:
        for strategy in STRATEGIES:
            res = square50_forwarding(50, seed, strategy, rounds=2,
                                      horizon=ORDERING_HORIZON)
            pooled[strategy].extend(res.latencies)
            undelivered += res.undelivered
    meds = {s: median(pooled[s]) for s in STRATEGIES}
    ratio = meds["fxcs"] / meds["rics"]
    gates = [
        ("rics<otps", meds["rics"] < meds["otps"]),
        ("rics<rncs", meds["rics"] < meds["rncs"]),
        ("rncs<fxcs", meds["rncs"] < meds["fxcs"]),
        ("fxcs/rics>=5", ratio >= 5),
    ]
    ok = all(flag for _, flag in gates)
    detail = (f"medians rics={meds['rics']:.0f} otps={meds['otps']:.0f} "
              f"rncs={meds['rncs']:.0f} fxcs={meds['fxcs']:.0f}, "
              f"ratio {ratio:.1f}, undelivered {undelivered}")
    if not ok:
        detail += "; failed " + ",".join(n for n, flag in gates if not flag)
    line = report(6, "caching beats every non-caching strategy by the margin",
                  ok, detail)
    assert ok, line


def test_acceptance_7_latency_grows_with_charging_time():
    meds = {}
    for t in (50, 120, 500):
        horizon = ORDERING_HORIZON if t == 50 else None
        lats = []
        for seed in SEEDS:
            res = square50_forwarding(t, seed, "rics", rounds=2, horizon=horizon)
            lats.extend(res.latencies)
        meds[t] = median(lats)
    ok = meds[50] < meds[120] < meds[500]
    detail = (f"medians t50={meds[50]:.0f} t120={meds[120]:.0f} "
              f"t500={meds[500]:.0f}")
    line = report(7, "median delivery time strictly increases with charge time",
                  ok, detail)
    assert ok, line


def test_acceptance_8_latency_grows_with_offered_load():
    meds = {}
    for rounds in (1, 2, 4):
        lats = []
        for seed in SEEDS:
            res = square50_forwarding(50, seed, "rics", rounds=rounds,
                                      horizon=ORDERING_HORIZON)
            lats.extend(res.latencies)
        meds[rounds] = median(lats)
    ok = meds[1] <= meds[2] <= meds[4]
    detail = (f"medians r1={meds[1]:.0f} r2={meds[2]:.0f} r4={meds[4]:.0f}")
    line = report(8, "median delivery time never shrinks as load grows", ok,
                  detail)
    assert ok, line


def _drive_batches(node, batches):
    """Feed message batches through a lone sender against an always-on
    acking neighbor; returns the (is_start, is_end) flags frame by frame."""
    flags = []
    for batch in batches:
        for seq in batch:
            node.queue.append(DataFrame(node.id, None, node.hop, node.id,
                                        seq, 0))
        deadline = node.next_wake + 200 * node.cycle
        while ((node.queue or node.state != "recv")
               and node.next_wake <= deadline):
            slot = node.next_wake
            frame = node.poll(slot)
            if frame is not None:
                flags.append((frame.is_start, frame.is_end))
                node.on_ack(slot, AckFrame(src=0, ack_dst=node.id))
            node.finish(slot)
        assert not node.queue and node.state == "recv"
    return flags


def test_acceptance_9_protocol_properties():
    failed = []

    # pendulum identity: delaying forth then the complement lands on base
    for t in range(1, 9):
        spec = ChargingSpec(charge_slots=t)
        for base in range(t + 1):
            for amount in range(spec.cycle + 1):
                forth = delay_offset(base, spec, amount)
                back = delay_offset(forth, spec, swing_back(amount, spec))
                if back != base:
                    failed.append("pendulum")
                    break
            else:
                continue
            break

    # failure-free runs never rescan after the first match, and custody
    # is conserved all the way to a deduplicated sink
    for seed in SEEDS:
        res = square50_forwarding(50, seed, "rics", rounds=2,
                                  horizon=ORDERING_HORIZON)
        if res.failures:
            failed.append(f"no-rescan seed {seed} saw failures")
            continue
        for nid, matches in res.match_slots.items():
            attempts = res.scan_attempts.get(nid, [])
            if len(matches) > 1 or (matches and attempts
                                    and max(attempts) > matches[0]):
                failed.append(f"no-rescan node {nid} seed {seed}")
        keys = {(d.origin, d.seq) for d in res.deliveries}
        if not (res.created == res.delivered + res.undelivered
                and res.undelivered == 0
                and len(res.deliveries) == res.delivered
                and len(keys) == res.delivered):
            failed.append(f"conservation seed {seed}")

    # same seed, same bytes
    cfg = ExperimentConfig(shape="square", n_nodes=50, t=5, strategy="rics",
                           rounds=1, seed=11)
    import filecmp
    import tempfile
    with tempfile.TemporaryDirectory() as d1, \
            tempfile.TemporaryDirectory() as d2:
        first = run_experiment(cfg).export(d1)
        second = run_experiment(cfg).export(d2)
        for a, b in zip(sorted(first), sorted(second)):
            if not filecmp.cmp(a, b, shallow=False):
                failed.append(f"determinism {a}")

    # exactly one opening and one closing flag per batch
    spec = ChargingSpec(charge_slots=5)
    from icroute.core import NodePlacement
    placement = NodePlacement(node_id=1, x=0.0, y=0.0, offset=2)
    from icroute.forwarding import CachedPolicy
    node = ForwardNode(placement, spec, CachedPolicy(), hop=2, rounds=0)
    flags = _drive_batches(node, [(0, 1, 2), (3, 4)])
    want = [(True, False), (False, False), (False, True),
            (True, False), (False, True)]
    if flags != want:
        failed.append(f"framing {flags}")

    ok = not failed
    detail = ("pendulum, no-rescan, conservation, determinism, framing all hold"
              if ok else "; ".join(failed))
    line = report(9, "protocol property suite", ok, detail)
    assert ok, line
