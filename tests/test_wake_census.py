"""scripts/wake_census.py: wakes per (class, state, outcome), and idle and
unheard steps."""

import importlib.util
import os
import re

from icroute.experiments import generate_scenario, run_experiment
from icroute.topology import build_topology

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "wake_census.py")
spec = importlib.util.spec_from_file_location("wake_census", SCRIPT)
wake_census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(wake_census)

WAKES = re.compile(r"^(TopoSink|TopoNode|ForwardNode) ([a-z_-]+) (tx|listen) "
                   r"(\d+) (\d\.\d{4})$")
STEPS = re.compile(r"^steps (mapping|forwarding|all) (\d+) idle (\d+) "
                   r"idle_frac (\d\.\d{4}) unheard (\d+) "
                   r"unheard_frac (\d\.\d{4})$")


def small_cell():
    cell = wake_census.workload_cells("busy_relay:0")[0]
    return cell.__class__(cell.shape, 30, 3, cell.seed, 2, ("rics", "fxcs"))


def test_bad_arguments_print_the_usage():
    for argv in ([], ["nope:1"], ["busy_relay:0", "--cells"],
                 ["busy_relay:0", "--cells", "x"]):
        assert wake_census.main(argv) == 2


def test_transmit_wakes_are_the_frames_sent_and_steps_add_up(monkeypatch, capsys):
    cell = small_cell()
    monkeypatch.setattr(wake_census, "workload_cells", lambda spec: [cell] * 3)
    assert wake_census.main(["small", "--cells", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    wakes = [WAKES.match(line) for line in lines[:-3]]
    steps = [STEPS.match(line) for line in lines[-3:]]
    assert all(wakes) and all(steps)
    # what the run itself counts: a frame sent is a poll that returned one
    cfg = wake_census._config(cell, "rics")
    scenario = generate_scenario(cfg)
    topo = build_topology(scenario)
    forwarded = sum(
        run_experiment(wake_census._config(cell, s), scenario=scenario,
                       topo=topo).forward.run.frames_sent
        for s in cell.strategies)
    tx = {}
    for m in wakes:
        if m.group(3) == "tx":
            phase = "forwarding" if m.group(1) == "ForwardNode" else "mapping"
            tx[phase] = tx.get(phase, 0) + int(m.group(4))
    assert tx == {"mapping": topo.run.frames_sent, "forwarding": forwarded}
    # shares add up to one per class; the step counts add up over phases
    for name in {m.group(1) for m in wakes}:
        share = sum(float(m.group(5)) for m in wakes if m.group(1) == name)
        assert abs(share - 1) < 1e-3
    (mapping, forwarding, both) = [
        (int(m.group(2)), int(m.group(3)), int(m.group(5))) for m in steps]
    assert both == tuple(a + b for a, b in zip(mapping, forwarding))
    assert 0 < mapping[1] < mapping[0]
    # an unheard step sent something, so it is not idle
    for total, idle, unheard in (mapping, forwarding, both):
        assert unheard <= total - idle
    assert mapping[2] > 0
    # and the same lines again
    assert wake_census.main(["small", "--cells", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_receiver_states_name_the_lock_and_the_hold():
    class Node:
        state, id_match, _hold_until = "recv", None, 10

    node = Node()
    assert wake_census.state_of(node, 10) == "recv"
    assert wake_census.state_of(node, 9) == "recv-held"
    node.id_match = 4
    assert wake_census.state_of(node, 9) == "recv-locked"
    node.state = "scan"
    assert wake_census.state_of(node, 9) == "scan"
    assert wake_census.state_of(object(), 0) == "sink"
