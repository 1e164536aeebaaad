"""Measure the baseline: run every workload once per seed and write
perfbench/baseline.json.

    python3 perfbench/sweep.py

Run it from the repository root. For every workload in BENCHMARK.json it
makes one untraced run per seed in SEEDS and one traced run at TRACE_SEED,
one process at a time. It prints each end-to-end metric's median, quartiles
and spread (distance between the quartiles as a share of the median) next to
the metric's bound, and writes them, every run, and the traced run's
per-layer numbers to baseline.json.
"""

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / med, 5), "runs": [round(v, 6) for v in values]}


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def program():
    commit = git("rev-parse", "--short", "HEAD")
    if not commit:
        return "drivelab (not in a git repository)"
    dirty = git("status", "--porcelain", "--", "src")
    return f"drivelab at commit {commit}" + (" with uncommitted changes to src/" if dirty else "")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    environment = ""
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            begin = time.perf_counter()
            result, lines = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: outputs not correct")
            runs.append(result)
            environment = next(l for l in lines if l.startswith("# python"))[2:]
            print(f"{workload} seed {seed} ({time.perf_counter() - begin:.1f} s): "
                  + ", ".join(f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()),
                  flush=True)
        end_to_end = {name: summarise([r["metrics"][name]["value"] for r in runs])
                      for name in bounds}
        for name, s in end_to_end.items():
            print(f"  {workload} {name}: median {s['median']:.4f} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}] spread {s['spread']:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        result, lines = run_once(workload, TRACE_SEED, seconds, 1)
        print("\n".join(lines), flush=True)
        workloads[workload] = {
            "end_to_end": end_to_end,
            f"per_layer_seed{TRACE_SEED}": {k: round(v["value"], 6)
                                            for k, v in result["metrics"].items()},
        }
    baseline = {
        "claim": None,
        "program": program(),
        "hardware": f"{cpu_model()}; {environment}",
        "command": "python3 perfbench/sweep.py",
        "run_seconds": seconds,
        "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}, one run each; per-layer numbers from "
                 f"one --trace 1 run at seed {TRACE_SEED}",
        "units": "times in reference seconds (see perfbench/README.md)",
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {HERE / 'baseline.json'}")


if __name__ == "__main__":
    main()
