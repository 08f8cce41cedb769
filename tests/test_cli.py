"""Flag parsing, config layering, and the end-to-end command."""

import json
import os

import pytest

from icroute import cli
from icroute.cli import DEFAULTS, build_parser, load_settings, main


def parse(*argv):
    return build_parser().parse_args(list(argv))


def test_defaults_when_no_flags_given():
    settings = load_settings(parse())
    assert settings == DEFAULTS


def test_unknown_strategy_rejected_by_parser():
    with pytest.raises(SystemExit):
        parse("--strategy", "greedy")


def test_config_file_feeds_settings(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"t": 7, "strategy": "fxcs", "rounds": 3}))
    settings = load_settings(parse("--config", str(cfg)))
    assert settings["t"] == 7
    assert settings["strategy"] == "fxcs"
    assert settings["rounds"] == 3
    assert settings["shape"] == "square"  # untouched default


def test_explicit_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"t": 7, "seed": 9}))
    settings = load_settings(parse("--config", str(cfg), "--t", "12"))
    assert settings["t"] == 12
    assert settings["seed"] == 9


# sync_bench was a config key once; an old file naming it is refused,
# not silently run as a network experiment
@pytest.mark.parametrize("loaded", [{"speed": 11}, {"sync_bench": True}],
                         ids=repr)
def test_unknown_config_key_raises(tmp_path, loaded):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(loaded))
    with pytest.raises(ValueError, match=next(iter(loaded))):
        load_settings(parse("--config", str(cfg)))


def test_removed_sync_bench_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--sync-bench"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: icroute")
    assert "unrecognized arguments: --sync-bench" in err


def test_config_int_is_accepted_for_float_slot_ms(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"slot_ms": 2}))
    assert load_settings(parse("--config", str(cfg)))["slot_ms"] == 2


@pytest.mark.parametrize("loaded", [
    {"repeat": "2"}, {"nodes": "50"}, {"nodes": 50.0}, {"seed": True},
    {"trace": 1}, {"slot_ms": "1"}, {"out": None}, 5, ["t"],
], ids=repr)
def test_wrong_typed_config_exits_2(tmp_path, capsys, loaded):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(loaded))
    with pytest.raises(ValueError):
        load_settings(parse("--config", str(cfg)))
    rc = main(["--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("icroute:")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["exp.json"]  # no run was written


def test_bad_repeat_raises():
    with pytest.raises(ValueError):
        load_settings(parse("--repeat", "0"))


def test_missing_config_file_exits_2(capsys):
    rc = main(["--config", "/nonexistent/exp.json"])
    assert rc == 2
    assert "icroute:" in capsys.readouterr().err


def test_full_run_writes_files_and_reports(tmp_path, capsys):
    rc = main(["--shape", "square", "--nodes", "50", "--t", "5",
               "--rounds", "1", "--seed", "11", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "square-n50-t5-rics-r1-s11" in out
    run_dir = tmp_path / "square-n50-t5-rics-r1-s11"
    assert (run_dir / "messages.csv").exists()
    assert (run_dir / "summary.json").exists()


def test_repeat_sweeps_consecutive_seeds(tmp_path, capsys):
    rc = main(["--t", "5", "--nodes", "50", "--rounds", "1", "--seed", "20",
               "--repeat", "2", "--out", str(tmp_path)])
    assert rc == 0
    dirs = sorted(os.listdir(tmp_path))
    assert dirs == ["square-n50-t5-rics-r1-s20", "square-n50-t5-rics-r1-s21"]


def test_impossible_config_exits_1(tmp_path, capsys):
    rc = main(["--nodes", "0", "--t", "5", "--out", str(tmp_path)])
    assert rc == 1
    assert "icroute:" in capsys.readouterr().err


def test_out_of_range_seed_exits_1(tmp_path, capsys):
    rc = main(["--nodes", "50", "--t", "5", "--rounds", "1",
               "--seed", str(2**128), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("icroute: seed") and "Traceback" not in err
    # a sweep that walks past the last seed stops there
    rc = main(["--nodes", "50", "--t", "5", "--rounds", "1",
               "--seed", str(2**127 - 1), "--repeat", "2", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("icroute: seed") and "Traceback" not in err
    assert os.listdir(tmp_path) == [f"square-n50-t5-rics-r1-s{2**127 - 1}"]


def test_out_naming_a_file_exits_1(tmp_path, capsys, monkeypatch):
    # an unusable --out is rejected before any simulation starts
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: ran.append(a))
    taken = tmp_path / "runs"
    taken.write_text("")
    for out in (taken, taken / "deeper"):
        rc = main(["--nodes", "50", "--t", "5", "--rounds", "1",
                   "--seed", "11", "--out", str(out)])
        assert rc == 1
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("icroute:")
        assert str(taken) in err
        assert "Traceback" not in err
