"""Scenario generation, quantile math, and the export pipeline."""

import dataclasses
import filecmp
import json
import math
import os
import stat
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from icroute import experiments
from icroute.baselines import STRATEGIES
from icroute.core import NO_HOP, SINK, ChargingSpec, NodePlacement, Scenario
from icroute.experiments import (
    CSV_HEADER,
    MAX_PLACEMENT_TRIES,
    SHAPES,
    ExperimentConfig,
    SparseAreaError,
    generate_scenario,
    quantile,
    run_experiment,
)
from icroute.radio import EventTrace, derive_rng_stream
from icroute.topology import bfs_hops, build_topology, verify_least_hop

SMALL = ExperimentConfig(shape="square", n_nodes=50, t=5, rounds=1, seed=11)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(shape="triangle")
    with pytest.raises(ValueError):
        ExperimentConfig(strategy="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(rounds=0)
    for bad in ({"slot_ms": 0.0}, {"range_m": -1.0}):
        with pytest.raises(ValueError, match="must be positive"):
            ExperimentConfig(**bad)
    # a seed is packed into 16 signed bytes
    for seed in (2**127, -2**127 - 1, 2**128):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=seed)
    for seed in (2**127 - 1, -2**127):
        ExperimentConfig(seed=seed)


def test_sink_sits_mid_edge():
    assert ExperimentConfig(shape="square").sink_xy == (22.5, 0.0)
    # the rectangle is 40 wide by 80 tall; the sink takes a short edge
    assert ExperimentConfig(shape="rectangle").sink_xy == (20.0, 0.0)
    # the sink takes the bottom edge, a shortest one only while no shape
    # is wider than it is tall
    for shape, (width, height) in SHAPES.items():
        assert width <= height, shape


def test_generated_scenario_is_connected_and_in_bounds():
    sc = generate_scenario(SMALL)
    assert len(sc.nodes) == 50
    for p in sc.nodes:
        assert 0.0 <= p.x <= 45.0 and 0.0 <= p.y <= 45.0
        assert 0 <= p.offset <= 5
    assert all(h != NO_HOP for h in bfs_hops(sc).values())


def test_generation_is_deterministic_per_seed():
    a = generate_scenario(SMALL)
    b = generate_scenario(SMALL)
    assert a.nodes == b.nodes
    c = generate_scenario(ExperimentConfig(shape="square", n_nodes=50, t=5,
                                           rounds=1, seed=12))
    assert c.nodes != a.nodes


def reference_placement(config):
    """The sampler as it was first written: a full Scenario per try, then
    a BFS over the all-pairs `math.dist` disk graph.  Returns the
    accepted nodes, or the SparseAreaError text, and the number of
    tries."""
    rng = derive_rng_stream(config.seed, SINK, "scenario")
    width, height = config.dims
    for tries in range(1, MAX_PLACEMENT_TRIES + 1):
        nodes = [NodePlacement(i, rng.uniform(0.0, width),
                               rng.uniform(0.0, height), rng.randint(0, config.t))
                 for i in range(config.n_nodes)]
        pos = list(Scenario(ChargingSpec(config.t), nodes, config.sink_xy,
                            config.range_m).positions().items())
        near = {a: set() for a, _ in pos}
        for i, (a, pa) in enumerate(pos):
            for b, pb in pos[i + 1:]:
                if math.dist(pa, pb) <= config.range_m:
                    near[a].add(b)
                    near[b].add(a)
        found, frontier = {SINK}, [SINK]
        while frontier:
            nxt = []
            for a in frontier:
                for b in near[a] - found:
                    found.add(b)
                    nxt.append(b)
            frontier = nxt
        if len(found) == len(near):
            return nodes, tries
    degree = sum(map(len, near.values())) / len(near)
    return (f"area too sparse: no connected draw in {MAX_PLACEMENT_TRIES} tries "
            f"(n={config.n_nodes}, range={config.range_m}m, "
            f"area={width:g}x{height:g}m, mean degree={degree:.2f})"), tries


# n5 fields are often never connected in 1000 tries; range 7 m fields
# are accepted after 100-800 tries, or never.  The offset draw takes
# (t + 1).bit_length() bits and redraws a value above t: t = 1 draws two
# bits, and t = 7 and 15 make t + 1 a power of two, where a mistaken bit
# count would show.
EQUIVALENCE = [
    ExperimentConfig(shape=shape, n_nodes=n, t=t, seed=seed)
    for shape in ("square", "rectangle") for n in (5, 50, 100)
    for t in (5, 50) for seed in range(5)
] + [
    ExperimentConfig(shape=shape, n_nodes=n, t=5, seed=seed, range_m=7.0)
    for shape, n, seeds in (("square", 50, range(4)),
                            ("rectangle", 100, range(3)))
    for seed in seeds
] + [
    ExperimentConfig(shape=shape, n_nodes=50, t=t, seed=seed)
    for shape in ("square", "rectangle") for t in (1, 7, 15, 500)
    for seed in range(2)
]


@pytest.mark.parametrize(
    "config", EQUIVALENCE,
    ids=lambda c: f"{c.shape}-n{c.n_nodes}-t{c.t}-s{c.seed}-{c.range_m:g}m")
def test_generation_matches_the_all_pairs_reference(config):
    try:
        got = generate_scenario(config).nodes
    except SparseAreaError as err:
        got = str(err)
    assert got == reference_placement(config)[0]


def test_each_placement_try_runs_one_bfs(monkeypatch):
    # perfbench counts `experiments.bfs_hops` calls as placement tries
    calls = []

    def counted(scenario):
        calls.append(scenario)
        return bfs_hops(scenario)

    monkeypatch.setattr(experiments, "bfs_hops", counted)
    # every ninth config: fields accepted at once, after hundreds of
    # tries, and never
    for config in EQUIVALENCE[::9]:
        calls.clear()
        try:
            generate_scenario(config)
        except SparseAreaError:
            pass
        assert len(calls) == reference_placement(config)[1], config


def test_hopeless_density_raises_with_diagnostics():
    lonely = ExperimentConfig(shape="square", n_nodes=2, t=5, seed=1,
                              range_m=1.0)
    with pytest.raises(SparseAreaError) as err:
        generate_scenario(lonely)
    assert str(err.value) == reference_placement(lonely)[0] == (
        "area too sparse: no connected draw in 1000 tries (n=2, range=1.0m, "
        "area=45x45m, mean degree=0.00)")


def test_sparse_area_error_reports_the_last_draws_mean_degree():
    # square n5 seed 1 is never connected, but its last draw has edges
    config = ExperimentConfig(shape="square", n_nodes=5, t=5, seed=1)
    with pytest.raises(SparseAreaError) as err:
        generate_scenario(config)
    assert str(err.value) == reference_placement(config)[0]
    assert "mean degree=0.00" not in str(err.value)


def test_workload_schedules_one_message_per_cycle():
    cfg = ExperimentConfig(shape="square", n_nodes=50, t=5, rounds=2, seed=11)
    res = run_experiment(cfg)
    rows = res.message_rows()
    assert len(rows) == 100
    offsets = res.scenario.offsets()
    created = {(d.origin, d.seq): d.created_at for d in res.forward.deliveries}
    for msg_id, nid, created_slot, _, _ in rows:
        seq = int(msg_id.rsplit("-", 1)[1])
        assert created_slot == offsets[nid] + 6 * seq
        # the node stamped the same slot when it sensed the message
        assert created.get((nid, seq), created_slot) == created_slot


def test_quantile_picks_order_statistics():
    xs = list(range(1, 101))
    assert quantile(xs, 0.10) == 10
    assert quantile(xs, 0.50) == 50
    assert quantile(xs, 0.99) == 99
    assert quantile([4], 0.5) == 4
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_full_run_conserves_messages():
    res = run_experiment(SMALL)
    assert res.forward.created == 50
    assert res.forward.delivered + res.forward.undelivered == 50
    assert res.topo.run.converged
    summary = res.summary()
    assert summary["created"] == 50
    assert summary["topo_time_slots"] < 1000
    for row in res.message_rows():
        if row[3] != "":
            assert row[3] >= row[2]  # delivered after created


def test_export_writes_complete_files(tmp_path):
    res = run_experiment(SMALL)
    paths = res.export(str(tmp_path))
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["messages.csv", "summary.json", "topology.json"]
    csv_lines = open(paths[0]).read().splitlines()
    assert csv_lines[0] == ",".join(CSV_HEADER)
    assert len(csv_lines) == 1 + res.forward.created
    parsed = json.loads(open(paths[1]).read())
    assert parsed["delivery_quantiles_slots"]["p50"] is not None
    assert parsed["config"]["seed"] == 11


def test_exports_are_byte_identical_across_runs(tmp_path):
    first = run_experiment(SMALL).export(str(tmp_path / "a"))
    second = run_experiment(SMALL).export(str(tmp_path / "b"))
    for pa, pb in zip(first, second):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(experiments.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        experiments._atomic_write(str(tmp_path / "summary.json"), "{}\n")
    assert os.listdir(tmp_path) == []


def test_exports_get_the_mode_of_a_plain_open(tmp_path):
    res = run_experiment(SMALL, trace=True)
    for umask in (0o022, 0o027):
        out = tmp_path / f"umask-{umask:o}"
        old = os.umask(umask)
        try:
            paths = res.export(str(out))
            assert os.umask(umask) == umask, "export changed the umask"
            reference = os.path.join(os.path.dirname(paths[0]), "plain")
            open(reference, "w").close()
        finally:
            os.umask(old)
        want = stat.S_IMODE(os.stat(reference).st_mode)
        assert want == 0o666 & ~umask
        assert len(paths) == 4
        for path in paths:
            assert stat.S_IMODE(os.stat(path).st_mode) == want, path


def test_trace_export_is_ndjson(tmp_path):
    res = run_experiment(SMALL, trace=True)
    paths = res.export(str(tmp_path))
    trace_path = [p for p in paths if p.endswith("trace.ndjson")]
    assert trace_path
    lines = open(trace_path[0]).read().splitlines()
    assert lines
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "tx" in kinds and "rx" in kinds


def test_shared_scenario_reused_across_strategies():
    sc = generate_scenario(SMALL)
    from icroute.topology import build_topology
    topo = build_topology(sc)
    results = {}
    for strategy in ("rics", "otps"):
        cfg = ExperimentConfig(shape="square", n_nodes=50, t=5, rounds=1,
                               seed=11, strategy=strategy)
        results[strategy] = run_experiment(cfg, scenario=sc, topo=topo)
    assert results["rics"].forward.created == results["otps"].forward.created
    assert results["rics"].topo is results["otps"].topo


def assert_same_exports(run_a, run_b):
    with tempfile.TemporaryDirectory() as one, \
            tempfile.TemporaryDirectory() as two:
        first, second = run_a.export(one), run_b.export(two)
        assert [os.path.relpath(p, one) for p in first] == \
            [os.path.relpath(p, two) for p in second]
        for a, b in zip(first, second):
            assert filecmp.cmp(a, b, shallow=False), a


# integer coordinates put many pairs exactly on the 10 m boundary; the
# sink sits in a corner, so deep, branching and cut-off fields all occur
coords = st.integers(0, 18).map(float)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=15),
       t=st.integers(1, 6), seed=st.integers(0, 2**31 - 1),
       strategy=st.sampled_from(STRATEGIES), data=st.data())
def test_drawn_scenarios_map_least_hop_conserve_and_repeat(points, t, seed,
                                                           strategy, data):
    offsets = data.draw(st.lists(st.integers(0, t), min_size=len(points),
                                 max_size=len(points)))
    nodes = [NodePlacement(i, x, y, off)
             for i, ((x, y), off) in enumerate(zip(points, offsets))]
    scenario = Scenario(ChargingSpec(t), nodes, sink_xy=(0.0, 0.0),
                        range_m=10.0, seed=seed)
    topo = build_topology(scenario)
    want = bfs_hops(scenario)
    assert topo.hops == want
    # mapping quiesces and leaves exactly the cut-off nodes without a hop
    assert topo.converged_at is not None
    assert topo.unreachable == {n for n, h in want.items() if h == NO_HOP}

    cfg = ExperimentConfig(n_nodes=len(nodes), t=t, strategy=strategy,
                           rounds=2, seed=seed)
    runs = [run_experiment(cfg, scenario=scenario, trace=True)
            for _ in range(2)]
    fwd = runs[0].forward
    keys = [(d.origin, d.seq) for d in fwd.deliveries]
    assert fwd.created == fwd.delivered + fwd.undelivered
    assert len(keys) == len(set(keys)) == fwd.delivered
    near = scenario.neighbors()
    for d in fwd.deliveries:
        # every hop of a delivered path is in range and moves sinkward
        path = (*d.path, SINK)
        assert all(b in near[a] for a, b in zip(path, path[1:]))
        assert all(want[a] > want.get(b, 0) for a, b in zip(path, path[1:]))
    assert_same_exports(*runs)


def other_nodes_results(scenario, strategy, drop):
    """Map `scenario` and forward it under `strategy`; return what each
    node but `drop` ends with, and the runs' slots and deliveries."""
    topo = build_topology(scenario)
    fwd = run_experiment(ExperimentConfig(n_nodes=len(scenario.nodes),
                                          t=scenario.spec.charge_slots,
                                          strategy=strategy, rounds=2,
                                          seed=scenario.seed),
                         scenario=scenario, topo=topo).forward
    per_node = {nid: (topo.hops[nid], topo.next_hops[nid],
                      topo.known_lower[nid])
                for nid in topo.hops if nid != drop}
    return (per_node, topo.topo_time, topo.converged_at, fwd.deliveries,
            fwd.failures, fwd.run.last_slot)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=10),
       t=st.integers(1, 5), seed=st.integers(0, 2**31 - 1),
       baseline=st.sampled_from(STRATEGIES[1:]), data=st.data())
def test_a_node_out_of_everyones_range_changes_no_other_node(points, t, seed,
                                                             baseline, data):
    # no frame the far node sends reaches anyone, so when it sends alone
    # in a slot the engine builds no listener list for that slot
    n = len(points)
    offsets = data.draw(st.lists(st.integers(0, t), min_size=n + 1,
                                 max_size=n + 1))
    nodes = [NodePlacement(i, x, y, off)
             for i, ((x, y), off) in enumerate(zip(points, offsets))]
    scenario = Scenario(ChargingSpec(t), nodes, sink_xy=(0.0, 0.0),
                        range_m=10.0, seed=seed)
    far = NodePlacement(n, 1e6, 1e6, offsets[n])
    with_far = dataclasses.replace(scenario, nodes=[*nodes, far])
    for strategy in ("rics", baseline):
        assert other_nodes_results(with_far, strategy, n) == \
            other_nodes_results(scenario, strategy, n)


# Two generated fields whose mapping settles on a non-least hop today:
# busy_relay --seed 23 (node 35 and its only hop-1 neighbor, node 92,
# rotate in lockstep and never hear each other) and map_sweep --seed 27
# (node 28 heard node 21 at hop 13 before node 21 improved to 12, and
# nobody told node 28).  A termination repair that mends them turns these
# into unexpected passes.
@pytest.mark.xfail(strict=True, reason="mapping settles on a non-least hop")
@pytest.mark.parametrize("shape,n,t,seed", [
    pytest.param("rectangle", 100, 5, 474832730, id="busy_relay-s23"),
    pytest.param("rectangle", 50, 50, 1787239602, id="map_sweep-s27"),
])
def test_known_non_least_hop_fields_map_least_hop(shape, n, t, seed):
    scenario = generate_scenario(ExperimentConfig(shape=shape, n_nodes=n,
                                                  t=t, seed=seed))
    assert verify_least_hop(build_topology(scenario), scenario) == []


@settings(derandomize=True, deadline=None, max_examples=100)
@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=12),
       t=st.integers(1, 5), seed=st.integers(0, 2**31 - 1),
       strategy=st.sampled_from(STRATEGIES), data=st.data())
def test_drawn_deaths_silence_the_dead_conserve_and_repeat(points, t, seed,
                                                          strategy, data):
    # least hop is not asserted: mapping may keep a dead next hop
    n = len(points)
    offsets = data.draw(st.lists(st.integers(0, t), min_size=n, max_size=n))
    deaths = data.draw(st.dictionaries(st.integers(0, n - 1),
                                       st.integers(0, 30 * (t + 1) * (t + 2))))
    nodes = [NodePlacement(i, x, y, off)
             for i, ((x, y), off) in enumerate(zip(points, offsets))]
    scenario = Scenario(ChargingSpec(t), nodes, sink_xy=(0.0, 0.0),
                        range_m=10.0, seed=seed, deaths=deaths)
    cfg = ExperimentConfig(n_nodes=n, t=t, strategy=strategy, rounds=2,
                           seed=seed)

    def run():
        mapping = EventTrace()
        topo = build_topology(scenario, trace=mapping)
        return mapping, run_experiment(cfg, scenario=scenario, topo=topo,
                                       trace=True)

    (mapping, res), (mapping_again, res_again) = run(), run()
    assert mapping.ndjson() == mapping_again.ndjson()
    for e in mapping.events + res.trace.events:
        for nid in (e.node, e.detail.get("src")):
            assert nid not in deaths or e.slot < deaths[nid], e
    fwd = res.forward
    keys = [(d.origin, d.seq) for d in fwd.deliveries]
    assert fwd.created == fwd.delivered + fwd.undelivered
    assert len(keys) == len(set(keys)) == fwd.delivered
    assert_same_exports(res, res_again)
