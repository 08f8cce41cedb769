"""Run every workload on several seeds, plus one traced run each, and write
the medians, quartiles and spreads to a baseline file.

    python3 perfbench/record_baseline.py --seeds 0-9 --out perfbench/baseline.json

Runs `perfbench/run.py` one process at a time, from the root of the source
tree, with the run length and workloads of BENCHMARK.json.  The spread of
a metric is the distance between its first and third quartile over the
seeds, as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# layer -> the end-to-end metrics a change to it should move, and the
# workloads it should move them on; the metrics each layer owns come from
# BENCHMARK.json (see layer_metrics)
LAYERS = {
    "engine": ("wall_s", "map_sweep; no change on busy_relay"),
    "radio": ("wall_s", "busy_relay"),
    "topology": ("wall_s, with map_cycles unchanged",
                 "map_sweep; little on busy_relay"),
    "forwarding": ("wall_s; protocol changes move delivery_p50_cycles, "
                   "delivery_p90_cycles and delivered_frac", "busy_relay"),
    "baselines": ("wall_s, delivered_frac", "busy_relay"),
    "experiments": ("setup_s, wall_s", "map_sweep"),
}


def layer_metrics(per_layer: list[dict]) -> dict[str, list[str]]:
    """Group per-layer metric names by the layer their prefix names; the
    per-strategy ones (`<metric>.rics`) belong to baselines."""
    out = {layer: [] for layer in LAYERS}
    for m in per_layer:
        name = m["name"]
        layer = "baselines" if name.endswith(".rics") else name.split(".")[0]
        if layer in out:
            out[layer].append(name)
    return out


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.splitlines()
    digest = next(ln.split()[-1] for ln in lines if ln.startswith("digest "))
    return json.loads(lines[-1]), digest, lines[:-1]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    seeds = seed_list(args.seeds)
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": contract["run_seconds"],
        "seeds": seeds,
        "layers": {k: {"metrics": metrics, "moves": LAYERS[k][0],
                       "on": LAYERS[k][1]}
                   for k, metrics in layer_metrics(contract["per_layer"]).items()},
        "workloads": {},
    }
    for w in contract["workloads"]:
        values, digests, attempted, failed, problems = {}, {}, 0, 0, []
        for seed in seeds:
            result, digest, lines = run_once(w["name"], seed,
                                             contract["run_seconds"], 0)
            digests[str(seed)] = digest
            attempted += result["attempted"]
            failed += result["failed"]
            problems += [ln for ln in lines if ln.startswith("problem ")]
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(w["name"], seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        traced, _, _ = run_once(w["name"], seeds[0], contract["run_seconds"], 1)
        doc["workloads"][w["name"]] = {
            "why": w["why"],
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "end_to_end": {m["name"]: {"unit": m["unit"],
                                       **summarize(values[m["name"]])}
                           for m in contract["end_to_end"]},
            "digests": digests,
            "per_layer": {"seed": seeds[0], **traced["metrics"]},
        }
        for k, v in doc["workloads"][w["name"]]["end_to_end"].items():
            print(f"  {k:22s} median {v['median']:.6g} spread {v['spread'] or 0:.4f}",
                  flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
