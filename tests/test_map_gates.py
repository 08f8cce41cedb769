"""scripts/map_gates.py: the gate field sets and its one JSON line."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "map_gates.py")
spec = importlib.util.spec_from_file_location("map_gates", SCRIPT)
map_gates = importlib.util.module_from_spec(spec)
spec.loader.exec_module(map_gates)


def test_gate_field_sets_have_their_roadmap_sizes():
    assert len(map_gates.gate_fields("acc1")) == 200
    assert len(set(map_gates.gate_fields("acc1"))) == 200
    assert len(map_gates.gate_fields("sweep")) == 300
    # 20 experiment seeds x 2 shapes, and 9 x 2 shapes x 2 sizes x 2 ts
    assert len(map_gates.gate_fields("busy_relay:0-1")) == 80
    assert len(map_gates.gate_fields("map_sweep:3")) == 72
    t500 = map_gates.gate_fields("t500:10-29")
    assert len(t500) == 40
    assert {f[4] for f in t500} == {1_224_000, 3_024_000}
    for bad in ("acc2", "sweep:1-2", "t500", "busy_relay"):
        with pytest.raises(ValueError, match="unknown field set"):
            map_gates.gate_fields(bad)
    assert map_gates.main(["nope"]) == 2


def test_two_field_set_prints_one_json_line(monkeypatch, capsys):
    two = map_gates.gate_fields("sweep")[:2]
    assert [f[:3] for f in two] == [("square", 100, 5), ("square", 50, 50)]
    # a budget of 0 slots puts both fields over it
    two = [(*f[:4], 0) for f in two]
    monkeypatch.setattr(map_gates, "gate_fields", lambda name: two)
    assert map_gates.main(["two"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    report = json.loads(out[0])
    assert report["fieldset"] == "two" and report["fields"] == 2
    assert report["failing"] == []
    assert [f["field"] for f in report["over_budget"]] == [
        "square-n100-t5-s5000", "square-n50-t50-s5000"]
    assert report["frames"] > 0
    assert 0 < report["topo_time_mean"] <= report["topo_time_max"]
    assert report["seconds"] > 0
