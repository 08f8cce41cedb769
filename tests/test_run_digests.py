"""scripts/run_digests.py: workload cells and one digest line per run."""

import hashlib
import importlib.util
import os
import re

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "run_digests.py")
spec = importlib.util.spec_from_file_location("run_digests", SCRIPT)
run_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_digests)

LINE = re.compile(r"^(\S+) (rics|fxcs|rncs|otps) failures=(\d+) ([0-9a-f]{64})$")


def test_workload_seeds_give_perfbench_cells():
    # 20 experiment seeds x 2 shapes, and 9 x 2 shapes x 2 sizes x 2 ts
    assert len(run_digests.workload_cells("busy_relay:0-1")) == 80
    cells = run_digests.workload_cells("map_sweep:3")
    assert len(cells) == 72
    assert {c.strategies for c in cells} == {("rics",)}
    for bad in ("busy_relay", "acc1:0", "nope:1-2"):
        with pytest.raises(ValueError, match="unknown workload seeds"):
            run_digests.workload_cells(bad)
    assert run_digests.main(["nope"]) == 2
    assert run_digests.main([]) == 2


def test_one_line_per_run_and_the_same_bytes_twice(monkeypatch, capsys):
    cell = run_digests.workload_cells("busy_relay:0")[0]
    small = cell.__class__(cell.shape, 50, 5, cell.seed, 1, ("rics", "fxcs"))
    monkeypatch.setattr(run_digests, "workload_cells", lambda spec: [small])
    assert run_digests.main(["small"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert run_digests.main(["small"]) == 0
    assert capsys.readouterr().out.splitlines() == first
    label = f"{small.shape}-n50-t5-s{small.seed}"
    assert [LINE.match(line).group(1, 2) for line in first] == [
        (label, "rics"), (label, "fxcs")]


def test_digest_covers_names_and_bytes_in_name_order(tmp_path):
    a, b = tmp_path / "b.csv", tmp_path / "a.json"
    a.write_bytes(b"x")
    b.write_bytes(b"y")
    want = hashlib.sha256(b"a.json\0yb.csv\0x").hexdigest()
    assert run_digests.export_digest([str(a), str(b)]) == want
    b.write_bytes(b"z")
    assert run_digests.export_digest([str(a), str(b)]) != want
