"""Command line front end: run one experiment, or sweep consecutive
seeds, and export each run."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .baselines import STRATEGIES
from .experiments import SHAPES, ExperimentConfig, SparseAreaError, run_experiment

_CONFIG = ExperimentConfig()  # the one source of the run defaults
DEFAULTS = {
    "shape": _CONFIG.shape,
    "nodes": _CONFIG.n_nodes,
    "t": _CONFIG.t,
    "strategy": _CONFIG.strategy,
    "rounds": _CONFIG.rounds,
    "seed": _CONFIG.seed,
    "out": "runs",
    "slot_ms": _CONFIG.slot_ms,
    "repeat": 1,
    "trace": False,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icroute",
        description="Slot-stepped routing runs for intermittently powered "
                    "sensor fields.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON file with the same keys as the flags; "
                             "explicit flags win")
    parser.add_argument("--shape", choices=sorted(SHAPES))
    parser.add_argument("--nodes", type=int, metavar="N")
    parser.add_argument("--t", type=int, metavar="SLOTS",
                        help="charge slots per working slot")
    parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--rounds", type=int, metavar="R",
                        help="messages per node")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--slot-ms", type=float, dest="slot_ms",
                        help="reporting scale, milliseconds per slot")
    parser.add_argument("--trace", action="store_true", default=None,
                        help="also write trace.ndjson per run")
    parser.add_argument("--repeat", type=int, metavar="K",
                        help="run K seeds starting at --seed")
    return parser


def load_settings(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            want = type(DEFAULTS[key])  # bool is not taken for int
            if type(value) is not want and (want, type(value)) != (float, int):
                raise ValueError(f"config key {key!r} must be {want.__name__}, not {value!r}")
        settings.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if settings["repeat"] < 1:
        raise ValueError("--repeat must be >= 1")
    return settings


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = load_settings(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"icroute: {exc}", file=sys.stderr)
        return 2

    try:
        # an unusable --out fails here, not after the first simulation
        os.makedirs(settings["out"], exist_ok=True)
        with tempfile.TemporaryFile(dir=settings["out"]):
            pass
    except OSError as exc:
        print(f"icroute: {exc}", file=sys.stderr)
        return 1

    for i in range(settings["repeat"]):
        try:
            config = ExperimentConfig(
                shape=settings["shape"],
                n_nodes=settings["nodes"],
                t=settings["t"],
                strategy=settings["strategy"],
                rounds=settings["rounds"],
                seed=settings["seed"] + i,
                slot_ms=settings["slot_ms"],
            )
            result = run_experiment(config, trace=settings["trace"])
            result.export(settings["out"])
        except (SparseAreaError, ValueError, OSError) as exc:
            print(f"icroute: {exc}", file=sys.stderr)
            return 1
        summary = result.summary()
        p50 = summary["delivery_quantiles_slots"]["p50"]
        print(f"{config.label()}: topo {summary['topo_time_slots']} slots, "
              f"delivered {summary['delivered']}/{summary['created']}, "
              f"p50 {p50} slots"
              + ("" if summary["forward_converged"] else " [hit horizon]"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
