"""Tests of the benchmark itself, on a tiny workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import measure  # noqa: E402
import record_baseline  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny", shapes=("square",), sizes=(30,), ts=(5,),
    strategies=("rics", "otps"), rounds=2, seeds_per_run=2)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_main(monkeypatch, capsys, trace):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    return out[:-1], json.loads(out[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_named_metric_with_its_unit(
        monkeypatch, capsys, trace, section):
    lines, result = run_main(monkeypatch, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in contract()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    prefix = "layer" if trace else "metric"
    for name, unit in want.items():
        assert any(ln.split()[:2] == [prefix, name] and ln.split()[3] == unit
                   for ln in lines), name
    assert any(ln.startswith("fail_frac 0 ") for ln in lines)


def test_host_times_are_scaled_to_the_reference_speed():
    p = measure.PassResult(wall_s=10.0)
    got = measure.end_to_end(2.0, p, reference_s=2 * measure.REFERENCE_S)
    assert got["wall_s"] == (5.0, "s") and got["setup_s"] == (1.0, "s")


def test_untraced_run_prints_the_raw_host_times(monkeypatch, capsys):
    lines, _ = run_main(monkeypatch, capsys, 0)
    host = next(ln.split() for ln in lines if ln.startswith("host "))
    assert host[1::2] == ["reference_s", "raw_setup_s", "raw_wall_s"]
    assert all(float(v) > 0 for v in host[2::2])


def test_workload_names_match_the_contract():
    assert [w["name"] for w in contract()["workloads"]] == list(workloads.WORKLOADS)


def test_every_per_layer_metric_but_the_overhead_has_one_layer():
    per_layer = contract()["per_layer"]
    grouped = record_baseline.layer_metrics(per_layer)
    assigned = [n for names in grouped.values() for n in names]
    assert sorted(assigned) == sorted(
        m["name"] for m in per_layer if m["name"] != "trace.overhead_s")
    assert all(grouped.values())


@pytest.fixture(scope="module")
def loaded():
    cells = TINY.cells(5)
    ic, scenarios, _ = measure.set_up(cells, os.path.join(ROOT, "src"))
    return ic, cells, scenarios


@pytest.fixture
def export_dir():
    path = os.path.join(BENCH, "out", f"test-export-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_clean_pass_has_no_failures(loaded, export_dir):
    ic, cells, scenarios = loaded
    res = measure.run_pass(ic, cells, scenarios, export_dir)
    assert res.attempted == 4 and res.failed == 0, res.problems


def test_set_ups_between_cells_leave_the_exports_alone(loaded, export_dir):
    ic, cells, scenarios = loaded
    plain = measure.run_pass(ic, cells, scenarios, export_dir)
    again = measure.run_pass(
        ic, cells, scenarios, export_dir,
        before_cell=lambda _: measure.set_up(cells, os.path.join(ROOT, "src")))
    assert again.failed == 0 and again.digest == plain.digest


def tamper_deliveries(monkeypatch, ic, change):
    real = ic.experiments.run_experiment

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        change(result.forward.deliveries)
        return result

    monkeypatch.setattr(ic.experiments, "run_experiment", tampered)


def duplicate_one(deliveries):
    deliveries.append(deliveries[0])


def wrong_hop(deliveries):
    i, d = next((i, d) for i, d in enumerate(deliveries) if len(d.path) >= 2)
    deliveries[i] = dataclasses.replace(d, path=d.path[:-2] + d.path[:-3:-1])


@pytest.mark.parametrize("change", [duplicate_one, wrong_hop])
def test_tampered_delivery_makes_fail_frac_positive(monkeypatch, loaded, change,
                                                    export_dir):
    ic, cells, scenarios = loaded
    tamper_deliveries(monkeypatch, ic, change)
    res = measure.run_pass(ic, cells, scenarios, export_dir)
    assert res.failed / res.attempted > 0


def test_wrong_mapping_hop_makes_fail_frac_positive(monkeypatch, loaded,
                                                   export_dir):
    ic, cells, scenarios = loaded
    real = ic.topology.build_topology

    def tampered(scenario, *args, **kwargs):
        topo = real(scenario, *args, **kwargs)
        nid = next(iter(topo.hops))
        topo.hops[nid] += 1
        return topo

    monkeypatch.setattr(ic.topology, "build_topology", tampered)
    res = measure.run_pass(ic, cells, scenarios, export_dir)
    assert res.failed == res.attempted


def test_delivery_checks_flag_each_invariant():
    @dataclasses.dataclass
    class D:
        origin: int
        seq: int
        hops: int
        path: tuple

    @dataclasses.dataclass
    class F:
        deliveries: list
        created: int
        delivered: int
        undelivered: int

    sink = -1
    positions = {sink: (0.0, 0.0), 0: (5.0, 0.0), 1: (10.0, 0.0), 2: (30.0, 0.0)}
    hops = {0: 1, 1: 2, 2: 1}
    good = D(1, 0, 2, (1, 0))
    assert checks.delivery_problems(F([good], 1, 1, 0), hops, positions, 6.0,
                                    sink) == []
    for bad in (F([good], 2, 1, 0),                    # conservation
                F([good, good], 2, 2, 0),              # duplicate
                F([D(1, 0, 2, (0, 1))], 1, 1, 0),      # does not start at origin
                F([D(0, 0, 2, (0, 1))], 1, 1, 0),      # hop rises
                F([D(2, 0, 1, (2,))], 1, 1, 0)):       # out of range of the sink
        assert checks.delivery_problems(bad, hops, positions, 6.0, sink)


def digest_line(monkeypatch, capsys, seed):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    assert run.main(["--workload", "tiny", "--seed", str(seed),
                     "--seconds", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    return next(ln for ln in out if ln.startswith("digest ")).split()[-1]


def test_same_seed_gives_the_same_digest(monkeypatch, capsys):
    assert digest_line(monkeypatch, capsys, 7) == digest_line(monkeypatch, capsys, 7)


def test_other_seed_gives_other_inputs(loaded):
    ic = loaded[0]
    a, b = TINY.cells(0), TINY.cells(1)
    assert a != b
    assert [s.positions() for s in measure.generate(ic, a)] \
        != [s.positions() for s in measure.generate(ic, b)]


def test_exits_nonzero_without_sources():
    bare = os.path.join(BENCH, "out", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "busy_relay",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
